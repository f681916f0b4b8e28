//! Error type shared by the storage layer.

use std::fmt;

use crate::disk::PageId;
use crate::rid::Rid;

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id referenced a page that was never allocated.
    PageOutOfBounds(PageId),
    /// Every frame in the buffer pool is pinned; nothing can be evicted.
    BufferExhausted,
    /// A record did not fit into the target page.
    PageFull,
    /// A slot lookup hit an empty (deleted) slot.
    SlotEmpty(Rid),
    /// A slot number exceeded the page's slot directory.
    SlotOutOfBounds(Rid),
    /// A record was larger than what a page can ever hold.
    RecordTooLarge {
        /// Rejected record length.
        len: usize,
        /// Maximum a fresh page can hold.
        max: usize,
    },
    /// A memory reservation exceeded the configured budget.
    BudgetExceeded {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// Reading past the end of a temporary segment.
    SegmentExhausted,
    /// An access failed because a programmed fault fired at this page
    /// (see [`crate::FaultPlan`]; transient faults are retried by the
    /// buffer pool, persistent ones surface to the caller).
    InjectedFault(PageId),
    /// A page image failed its end-to-end checksum on read — a torn write
    /// was persisted only partially (see [`crate::FaultKind::TornWrite`]).
    ChecksumMismatch(PageId),
    /// A page read back intact (its checksum holds) but its bytes do not
    /// decode as the structure's page format: an unknown tag, or an item
    /// that runs past the page.
    CorruptPage(PageId),
    /// The disk reached the fault plan's crash point: the process is
    /// considered dead from this access on (never retried; the WAL's
    /// roll-forward recovery takes over after restart).
    SimulatedCrash,
    /// The hook of a [`crate::Pacer`] installed on the running thread
    /// cancelled the task at a [`crate::pacer::checkpoint`].
    Cancelled,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageOutOfBounds(pid) => write!(f, "page {pid} was never allocated"),
            StorageError::BufferExhausted => {
                write!(f, "buffer pool exhausted: all frames are pinned")
            }
            StorageError::PageFull => write!(f, "page has insufficient free space"),
            StorageError::SlotEmpty(rid) => write!(f, "slot {rid} is empty"),
            StorageError::SlotOutOfBounds(rid) => write!(f, "slot {rid} is out of bounds"),
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds page capacity {max}")
            }
            StorageError::BudgetExceeded {
                requested,
                available,
            } => write!(
                f,
                "memory budget exceeded: requested {requested} bytes, {available} available"
            ),
            StorageError::SegmentExhausted => write!(f, "read past end of temporary segment"),
            StorageError::InjectedFault(pid) => {
                write!(f, "injected fault at page {pid}")
            }
            StorageError::ChecksumMismatch(pid) => {
                write!(f, "checksum mismatch at page {pid}: torn write detected")
            }
            StorageError::CorruptPage(pid) => {
                write!(f, "page {pid} does not decode: corrupt contents")
            }
            StorageError::SimulatedCrash => {
                write!(f, "simulated crash: disk unavailable past the crash point")
            }
            StorageError::Cancelled => {
                write!(f, "task cancelled: its pacer was cancelled")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used throughout the storage layer.
pub type StorageResult<T> = Result<T, StorageError>;
