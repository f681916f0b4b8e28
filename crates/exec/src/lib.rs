#![warn(missing_docs)]

//! Query-execution substrate for the bulk-delete operator.
//!
//! The paper treats bulk deletion as join processing: "the bulk delete
//! operator carries out pointer based joins" and can be implemented by
//! sorting/merging, classic hashing, or hashing with range partitioning.
//! This crate supplies those building blocks with honest resource bounds:
//!
//! * [`sort`] — external merge sort under a byte budget, spilling to
//!   sequential temp segments;
//! * [`hash`] — RID hash sets whose footprint is reserved against a
//!   [`bd_storage::MemoryBudget`];
//! * [`partition`] — key-range partitioning of sorted delete lists.

pub mod hash;
pub mod partition;
pub mod sort;

pub use hash::{rid_set_bytes, RidSet, BYTES_PER_RID};
pub use partition::{range_partitions, Partition};
pub use sort::{sort_all, ByRid, Rec, SortStats};
