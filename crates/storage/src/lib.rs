#![warn(missing_docs)]

//! Paged storage substrate for the bulk-delete reproduction.
//!
//! The paper's prototype ran on a SUN Ultra 10 with a 1998 Seagate Medialist
//! Pro disk and Solaris direct I/O. This crate replaces that hardware with a
//! *simulated disk* ([`SimDisk`]): an in-memory page store that charges every
//! page access against a configurable [`CostModel`] (average seek + average
//! rotational latency for a random access, transfer time only for a
//! sequential successor, one positioning cost per *chained* multi-page read).
//!
//! Everything above the disk is real database machinery:
//!
//! * [`BufferPool`] — a bounded frame cache with pin/unpin, LRU eviction and
//!   dirty write-back. Memory limits from the paper's experiments (2–10 MB)
//!   map directly to frame counts.
//! * [`SlottedPage`] — the classic slotted page layout used by heap pages.
//! * [`HeapFile`] — a fixed-record heap with stable [`Rid`]s, a free-space
//!   map, and a sequential scan that issues chained reads.
//! * [`TempSegment`] — scratch space for external-sort runs that bypasses the
//!   buffer pool (sort runs must not evict the working set).
//! * [`ReadAhead`] — windowed read-ahead over a sorted page stream: upcoming
//!   pages are coalesced into chained [`BufferPool::prefetch_run`] calls so
//!   probe/scan/merge hot paths pay one positioning cost per window instead
//!   of one per page.
//! * [`MemoryBudget`] — byte accounting shared by sort and hash workspaces.
//! * [`IoScope`] — per-task I/O attribution for bulk-delete arms, also
//!   across threads; the disk's own counters keep the serial total.
//! * [`Pacer`] — the checkpoint counter for long page-visit loops: every
//!   bulk walk calls [`pacer::checkpoint`] between page visits (never with
//!   a pin held), where an installed pacer counts the visit and runs its
//!   caller's hook on the walking thread; a hook's `Cancelled` unwinds the
//!   walk through the normal `Result` path.
//! * [`FaultPlan`] — programmable fault injection (transient/persistent
//!   faults, torn writes caught by per-page checksums, crash points), with
//!   a bounded retry-with-backoff for transient faults in the buffer pool.
//! * [`PageCatalog`] / [`StructureId`] — the owner-tagged page catalog:
//!   every allocation names the structure that owns the page, so media
//!   recovery can classify a torn page by lookup and rebuild only the
//!   damaged structure.

pub mod budget;
pub mod buffer;
pub mod disk;
pub mod error;
pub mod fault;
pub mod fsm;
pub mod heap;
pub mod io_scope;
pub mod owner;
pub mod pacer;
pub mod page;
pub mod readahead;
pub mod rid;
pub mod segment;
pub mod slotted;

pub use budget::MemoryBudget;
pub use buffer::{BufferPool, PageRead, PageWrite, PoolStats};
pub use disk::{CostModel, DiskStats, PageId, SimDisk, PAGE_SIZE};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultSpec, FaultTrigger};
pub use fsm::FreeSpaceMap;
pub use heap::{FsmMismatch, HeapFile, HeapScan};
pub use io_scope::{IoScope, ScopeGuard};
pub use owner::{PageCatalog, StructureId};
pub use pacer::{PaceGuard, Pacer};
pub use page::PageBuf;
pub use readahead::{ReadAhead, READ_AHEAD_WINDOW};
pub use rid::Rid;
pub use segment::{SegmentReader, SegmentWriter, TempSegment};
pub use slotted::SlottedPage;
