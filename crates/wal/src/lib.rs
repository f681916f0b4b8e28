#![warn(missing_docs)]

//! Checkpointing and crash recovery for bulk deletes — paper §3.2.
//!
//! "We propose to make use of checkpoints to minimize the loss of work
//! during a system failure. ... To take full advantage of checkpointing and
//! to save the work done even after a system failure we propose to finish
//! the bulk deletion instead of rolling it back."
//!
//! * [`record`] — log records: materialized delete lists and victim rows,
//!   fuzzy checkpoints with tree metadata, per-structure completion,
//!   commit;
//! * [`log`] — an append-only, force-on-append log manager (stable storage
//!   in the simulation);
//! * [`driver`] — [`driver::run_bulk_delete`] with crash injection at every
//!   interesting point, and [`driver::recover`], which *rolls the bulk
//!   delete forward* and applies pending side-files afterwards;
//! * [`campaign`] — [`campaign::sweep`], the one fault harness: a crash or
//!   a torn write at every disk access of a bulk delete or of a whole
//!   erasure campaign, recovered and audited at every point;
//! * [`erasure`] — durable erasure campaigns: the full cascade persisted
//!   as a manifest, each step recoverable, a physical scrub plus log
//!   redaction at commit, and a byte-level proof of deletion.

pub mod campaign;
pub mod driver;
pub mod erasure;
pub mod log;
pub mod record;

pub use campaign::{sweep, BulkDelete, ErasureCampaign, Fault, SweepReport, SweepTarget};
pub use driver::{
    recover, recover_media, run_bulk_delete, run_bulk_delete_parallel, run_maintenance_cycle,
    with_maintenance_bracket, CrashInjector, CrashSite, MediaRecovery, WalError,
};
pub use erasure::{recover_campaign, run_erasure_campaign, ErasureOutcome, KEY_BEARING_TAGS};
pub use log::LogManager;
pub use record::{CampaignStep, LogRecord, Lsn, MaterializedRow, StructureId, TreeMeta};
