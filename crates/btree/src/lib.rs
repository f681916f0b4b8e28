#![warn(missing_docs)]

//! B-link tree (sibling-chained B+-tree) for the bulk-delete reproduction.
//!
//! Implements both sides of the paper's comparison:
//!
//! * the **traditional** path — [`BTree::delete_one`] traverses root-to-leaf
//!   for every record, with free-at-empty reclamation (Jannink's deletion
//!   adapted to a B-link tree, as in the paper's prototype);
//! * the **bulk** path — [`bulk::bulk_delete_sorted`] merges a sorted delete
//!   list into a single leaf-level pass, and [`bulk::bulk_delete_probe`]
//!   probes a RID hash set during a leaf scan; both reorganize per
//!   [`reorg::ReorgPolicy`] and return the deleted entries for piping into
//!   downstream operators.
//!
//! [`bulk_load::bulk_load`] builds trees bottom-up from sorted entries onto
//! contiguous extents (used by the *drop & create* baseline), and
//! [`verify::check`] asserts every structural invariant (used heavily by
//! tests and property tests).

pub mod bulk;
pub mod bulk_load;
pub mod node;
pub mod reorg;
pub mod scan;
pub mod scrub;
pub mod tree;
pub mod verify;

pub use bulk::{bulk_delete_by_keys, bulk_delete_probe, bulk_delete_sorted};
pub use bulk_load::bulk_load;
pub use node::{Key, NodeKind, Sep, MAX_INNER_CAP, MAX_LEAF_CAP};
pub use reorg::{sweep_detached_inners, IncrementalPacker, PackProgress, ReorgPolicy};
pub use scan::{lookup_keys_sorted, LeafPages, LeafScan, RangeCursor};
pub use scrub::{scrub as scrub_tree, TreeScrub};
pub use tree::{BTree, BTreeConfig};

// Bulk-delete arms are dispatched to worker threads by the phase-task
// executor; a tree handle must therefore stay `Send` (it is `Arc<BufferPool>`
// plus plain data — this assertion turns an accidental `Rc`/`RefCell`
// regression into a compile error here rather than in bd-core).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<BTree>();
};
