#![warn(missing_docs)]

//! Delete-aware LSM table engine.
//!
//! The paper's design-space argument — horizontal vs vertical vs
//! drop-and-create — was made over B-tree storage in 2001. On
//! log-structured storage the same question reads differently: a bulk
//! delete by key list is not a merge against a live structure but a batch
//! of point *tombstones* that shadow older versions until compaction
//! physically purges them. This crate replays the argument on
//! an LSM table built over the same simulated disk, buffer pool, page
//! catalog and cost model as the B-tree engine, so the two are directly
//! comparable under [`bd_core::measure`] and differentially auditable via
//! [`bd_core::engine::audit_engine_equivalence`].
//!
//! The moving parts:
//!
//! * the memtable — the mutable in-memory level: a sorted map of puts and
//!   tombstones, the newest version per key.
//! * runs — immutable runs on contiguous pages, one item per key in
//!   strictly ascending key order, with per-page fence keys, a bloom-style
//!   filter over their keys, and counters for the delete-awareness
//!   heuristics (tombstone count, oldest tombstone age).
//! * [`LsmTable`] — the engine: leveled structure (level 0 holds
//!   overlapping flushed memtables, deeper levels hold non-overlapping
//!   runs), newest-wins reads through fences and filters, and leveled
//!   compaction whose **victim selection is delete-aware** à la Lethe's
//!   FADE: runs are prioritised by tombstone count weighted by tombstone
//!   age, and a tombstone older than [`LsmConfig::purge_deadline`] flushes
//!   forces its run down even when the level is under capacity, so every
//!   delete is physically purged within a bounded number of compactions.
//!
//! Durability is out of scope for this engine (no WAL integration):
//! run metadata lives in memory and pages live on the shared
//! [`SimDisk`](bd_storage::SimDisk), which is exactly what the bench and
//! the differential audits need. Crash-safe LSM manifests are future
//! work; the page *catalog* is still maintained on every allocate/free so
//! catalog audits and structure-precise accounting hold.
//!
//! There is no range delete: nothing in the benchmark issues one. One
//! would come back only as a single global range-tombstone index, not as
//! per-run vectors that every lookup must check.

mod bloom;
mod memtable;
mod run;
mod table;

pub use table::{LsmStats, LsmTable};

/// Tuning knobs for the LSM engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmConfig {
    /// Entries (puts + tombstones) buffered in the memtable before a
    /// flush to level 0.
    pub memtable_capacity: usize,
    /// Shape factor: a level holds at most this many runs before it must
    /// compact one of them down.
    pub fanout: usize,
    /// The FADE knob: the maximum age, in flush/compaction sequence
    /// ticks, a tombstone may survive before its run is force-compacted
    /// regardless of level occupancy. Smaller = deletes are physically
    /// purged sooner at the price of extra write amplification.
    pub purge_deadline: u64,
    /// Maximum pages per run: bulk loads and merge outputs are split into
    /// partitions of at most this size, so one compaction never rewrites
    /// more than the victim plus the overlapping partitions (the
    /// SST-file granularity real leveled LSMs compact at).
    pub max_run_pages: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_capacity: 256,
            fanout: 4,
            purge_deadline: 8,
            max_run_pages: 128,
        }
    }
}

impl LsmConfig {
    /// Small memtable/fanout/partition configuration that exercises
    /// flushes, partitioned levels and multi-level compaction even on
    /// tiny test workloads.
    pub fn tiny() -> Self {
        LsmConfig {
            memtable_capacity: 64,
            fanout: 3,
            purge_deadline: 4,
            max_run_pages: 2,
        }
    }
}
