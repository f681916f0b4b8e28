#![warn(missing_docs)]

//! **bulk-delete** — a Rust reproduction of *"Efficient Bulk Deletes in
//! Relational Databases"* (A. Gärtner, A. Kemper, D. Kossmann, B. Zeller;
//! ICDE 2001).
//!
//! Most relational systems execute `DELETE FROM R WHERE R.A IN (SELECT …)`
//! *horizontally*: one record at a time, removing each record from every
//! index individually, each removal a root-to-leaf B-tree traversal. The
//! paper proposes *vertical* execution — delete from one storage structure
//! at a time with a set-oriented **bulk delete operator** (`⋈̄`) that is
//! planned like a join (sort/merge, classic hash, or partitioned hash; with
//! a chosen order and primary predicate) — and shows roughly an order of
//! magnitude improvement. §4 measures sort/merge and remarks that the
//! methods differ little; `repro plans` gates that remark, so sort/merge is
//! the one plan this crate writes and the hash methods are built by hand.
//!
//! This crate is the facade over the full reproduction:
//!
//! | module | contents |
//! |--------|----------|
//! | [`storage`] | simulated disk (1999-era seek/rotation/transfer cost model), buffer pool, slotted pages, heap files |
//! | [`btree`] | B-link trees: traditional record-at-a-time deletes, leaf-level bulk deletes, bulk loading, reorganization policies |
//! | [`exec`] | bounded-memory external sort, budget-accounted hash sets, range partitioner |
//! | [`core`] | catalog, the `⋈̄` operator plans and the sort/merge planner, the three delete strategies |
//! | [`txn`] | §3.1 concurrency: table locks, offline indices, side-files, direct propagation |
//! | [`wal`] | §3.2 recovery: checkpoints, crash injection, roll-forward completion |
//! | [`workload`] | the paper's synthetic benchmark table and delete sets |
//!
//! # Quickstart
//!
//! ```
//! use bulk_delete::prelude::*;
//!
//! // A database with 1 MB of (simulated) memory.
//! let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
//! let tid = db.create_table("orders", Schema::new(3, 64));
//! db.create_index(tid, IndexDef::secondary(0).unique()).unwrap(); // order id
//! db.create_index(tid, IndexDef::secondary(1)).unwrap();          // ship date
//!
//! for i in 0..5_000u64 {
//!     db.insert(tid, &Tuple::new(vec![i, i / 50, i % 17])).unwrap();
//! }
//!
//! // DELETE FROM orders WHERE id IN (0, 2, 4, ...): plan + execute.
//! let d: Vec<u64> = (0..5_000).step_by(2).collect();
//! let plan = bulk_delete::core::plan_sort_merge(db.table(tid).unwrap(), 0).unwrap();
//! println!("{}", plan.render(db.table(tid).unwrap()));
//! let outcome =
//!     strategy::vertical(&mut db, tid, &d, &plan, ReorgPolicy::FreeAtEmpty, 1).unwrap();
//! assert_eq!(outcome.deleted.len(), 2_500);
//! db.check_consistency(tid).unwrap();
//! ```

pub use bd_btree as btree;
pub use bd_core as core;
pub use bd_exec as exec;
pub use bd_lsm as lsm;
pub use bd_storage as storage;
pub use bd_txn as txn;
pub use bd_wal as wal;
pub use bd_workload as workload;

/// Common imports.
pub mod prelude {
    pub use bd_btree::{BTreeConfig, Key, ReorgPolicy};
    pub use bd_core::engine::{audit_engine_equivalence, BtreeEngine, TableEngine};
    pub use bd_core::{
        audit_equivalence, audit_table, strategy, AuditFinding, AuditReport, Database,
        DatabaseConfig, DbError, DbResult, DeletePlan, IndexDef, RebuildMode, Schema, ShadowDb,
        TableId, Tuple,
    };
    pub use bd_lsm::{LsmConfig, LsmTable};
    pub use bd_storage::{CostModel, DiskStats, Rid};
    pub use bd_txn::{PropagationMode, TxnDb};
    pub use bd_wal::{recover, run_bulk_delete, CrashInjector, CrashSite, LogManager};
    pub use bd_workload::{TableSpec, Workload};
}
