#![warn(missing_docs)]

//! Bulk-delete engine — the primary contribution of *"Efficient Bulk
//! Deletes in Relational Databases"* (Gaertner, Kemper, Kossmann, Zeller;
//! ICDE 2001), rebuilt as a Rust library.
//!
//! A [`db::Database`] holds tables (heap files with slotted pages) and
//! B-link-tree indices over a simulated disk with an honest 1999-era cost
//! model. `DELETE FROM R WHERE R.A IN (SELECT D.A FROM D)` can then be
//! executed three ways:
//!
//! * [`strategy::horizontal`] — the traditional record-at-a-time executor
//!   (`sorted/trad` and `not sorted/trad` in the paper's figures);
//! * [`strategy::drop_create`] — drop secondary indices, delete, rebuild;
//! * [`strategy::vertical`] — the paper's set-oriented bulk delete, driven
//!   by a [`plan::DeletePlan`]: [`planner::plan_sort_merge`] writes the one
//!   the paper measured (sort/merge `⋈̄`s, unique indices first), which is
//!   what [`strategy::vertical_sort_merge`] and [`Database::delete_in`] run;
//!   the classic-hash, partitioned-hash and hash-probe methods of Fig. 4/5
//!   are plans built by hand.
//!
//! Fig. 3 itself is written once, in [`pass`]: the pass order, the table's
//! structures borrowed apart, and one chunked pass per structure. The
//! offline strategy, the logged driver (`bd-wal`) and the live driver
//! (`bd-txn`) differ only in where a pass pauses.
//!
//! ```
//! use bd_core::prelude::*;
//!
//! let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
//! let tid = db.create_table("R", Schema::new(3, 64));
//! db.create_index(tid, IndexDef::secondary(0).unique()).unwrap();
//! db.create_index(tid, IndexDef::secondary(1)).unwrap();
//! for i in 0..1000u64 {
//!     db.insert(tid, &Tuple::new(vec![i, i % 31, i % 7])).unwrap();
//! }
//! // DELETE FROM R WHERE R.A IN (0, 2, 4, ...)
//! let d: Vec<u64> = (0..1000).step_by(2).collect();
//! let plan = bd_core::plan_sort_merge(db.table(tid).unwrap(), 0).unwrap();
//! println!("{}", plan.render(db.table(tid).unwrap()));
//! let outcome =
//!     strategy::vertical(&mut db, tid, &d, &plan, ReorgPolicy::FreeAtEmpty, 1).unwrap();
//! assert_eq!(outcome.deleted.len(), 500);
//! db.check_consistency(tid).unwrap();
//! ```

pub mod audit;
pub mod catalog;
pub mod constraint;
pub mod db;
pub mod engine;
pub mod erasure;
pub mod error;
pub mod executor;
pub mod maintain;
pub mod pass;
pub mod plan;
pub mod planner;
pub mod report;
pub mod strategy;
pub mod tuple;
pub mod update;

pub use audit::{
    audit_catalog, audit_equivalence, audit_equivalence_with, audit_table, AuditFinding,
    AuditOptions, AuditReport, ShadowDb,
};
pub use catalog::{HashIdx, HashIndexDef, Index, IndexDef, Table};
pub use constraint::{ForeignKey, RefAction};
pub use db::{build_hash, build_index, Database, DatabaseConfig, TableId};
pub use engine::{audit_engine_equivalence, BtreeEngine, TableEngine};
pub use erasure::{
    collect_sensitive, plan_cascade, run_cascade, run_cascade_step, scrub_database, verify_erasure,
    CascadePlan, CascadeStep, ErasureReport, Residue, ScrubReport,
};
pub use error::{DbError, DbResult};
pub use executor::{PhaseExecutor, PhaseTask};
pub use maintain::{Maintainer, MaintenanceConfig, MaintenanceReport};
pub use pass::{pass_order, project, split, Victims};
pub use plan::{DeletePlan, IndexMethod, IndexStep, TableMethod};
pub use planner::plan_sort_merge;
pub use report::{
    measure, DegradeEvent, ForegroundReport, LatencyHistogram, PhaseRow, PhaseTimer, RunReport,
};
pub use strategy::{DeleteOutcome, RebuildMode};
pub use tuple::{attr_name, Schema, Tuple};
pub use update::{bulk_update, UpdateOutcome};

/// Common imports for examples and downstream crates.
pub mod prelude {
    pub use crate::audit::{
        audit_catalog, audit_equivalence, audit_equivalence_with, audit_table, AuditOptions,
        AuditReport, ShadowDb,
    };
    pub use crate::catalog::IndexDef;
    pub use crate::db::{Database, DatabaseConfig, TableId};
    pub use crate::engine::{audit_engine_equivalence, BtreeEngine, TableEngine};
    pub use crate::error::{DbError, DbResult};
    pub use crate::plan::DeletePlan;
    pub use crate::strategy::{self, DeleteOutcome};
    pub use crate::tuple::{Schema, Tuple};
    pub use bd_btree::{BTreeConfig, Key, ReorgPolicy};
    pub use bd_storage::{CostModel, Rid};
}
