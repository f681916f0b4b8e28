//! The delete planner.
//!
//! §2.1 lists three degrees of freedom and says an optimizer "can easily be
//! extended" to choose; §4 then reports sort/merge only and remarks that the
//! method differences are "much smaller than the differences between the
//! horizontal and vertical approach". `repro plans` holds that remark as a
//! gate, so the one planner writes the plan the paper measured:
//!
//! * **⋈̄ method** — sort/merge everywhere (external sort handles any size,
//!   so a plan cannot fail on a size estimate); the Fig. 4/5 hash methods
//!   stay executable as hand-built plans.
//! * **⋈̄ order** — unique indices first (§3.1.3: "Especially the unique
//!   indices can be processed first"), then the rest in attribute order.
//! * **primary ⋈̄ predicate** — key on the probe index (the delete list
//!   holds keys), key + RID on the downstream indices.
//!
//! Clustering elides sorts: a clustered probe index yields a RID-sorted
//! list for free; a clustered downstream index receives its keys already
//! ordered because RID order implies key order.

use crate::catalog::Table;
use crate::error::{DbError, DbResult};
use crate::plan::{DeletePlan, IndexMethod, IndexStep, TableMethod};

/// Plan a vertical bulk delete on `probe_attr`: sort/merge everywhere — the
/// configuration the paper's experiments report ("We will only present
/// results that were obtained using sorting and merging").
pub fn plan_sort_merge(table: &Table, probe_attr: usize) -> DbResult<DeletePlan> {
    let probe = table
        .index_on(probe_attr)
        .ok_or(DbError::NoProbeIndex { attr: probe_attr })?;
    let mut downstream: Vec<&crate::catalog::Index> = table
        .indices
        .iter()
        .filter(|i| i.def.attr != probe_attr)
        .collect();
    downstream.sort_by_key(|i| (!i.def.unique, i.def.attr));
    Ok(DeletePlan {
        probe_attr,
        table: TableMethod::Merge {
            presort: !probe.def.clustered,
        },
        index_steps: downstream
            .into_iter()
            .map(|i| IndexStep {
                attr: i.def.attr,
                method: IndexMethod::SortMerge {
                    presort: !i.def.clustered,
                },
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::db::{Database, DatabaseConfig};
    use crate::tuple::{Schema, Tuple};

    fn db_with_indices(clustered_a: bool) -> (Database, usize) {
        let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
        let tid = db.create_table("R", Schema::new(4, 64));
        for i in 0..200u64 {
            db.insert(tid, &Tuple::new(vec![i, i % 17, i % 5, i % 3]))
                .unwrap();
        }
        let mut def_a = IndexDef::secondary(0).unique();
        if clustered_a {
            def_a = def_a.clustered();
        }
        db.create_index(tid, def_a).unwrap();
        db.create_index(tid, IndexDef::secondary(1)).unwrap();
        db.create_index(tid, IndexDef::secondary(2).unique())
            .unwrap();
        (db, tid)
    }

    #[test]
    fn unique_indices_ordered_first() {
        let (db, tid) = db_with_indices(false);
        let plan = plan_sort_merge(db.table(tid).unwrap(), 0).unwrap();
        assert_eq!(plan.table, TableMethod::Merge { presort: true });
        // attr 2 is unique, attr 1 is not: 2 must come first.
        let attrs: Vec<usize> = plan.index_steps.iter().map(|s| s.attr).collect();
        assert_eq!(attrs, vec![2, 1]);
        assert!(plan
            .index_steps
            .iter()
            .all(|s| s.method == IndexMethod::SortMerge { presort: true }));
    }

    #[test]
    fn clustered_probe_elides_rid_sort() {
        let (db, tid) = db_with_indices(true);
        let plan = plan_sort_merge(db.table(tid).unwrap(), 0).unwrap();
        assert_eq!(plan.table, TableMethod::Merge { presort: false });
    }

    #[test]
    fn missing_probe_index_is_error() {
        let (db, tid) = db_with_indices(false);
        let err = plan_sort_merge(db.table(tid).unwrap(), 3).unwrap_err();
        assert_eq!(err, DbError::NoProbeIndex { attr: 3 });
    }

    #[test]
    fn render_mentions_every_index() {
        let (db, tid) = db_with_indices(false);
        let plan = plan_sort_merge(db.table(tid).unwrap(), 0).unwrap();
        let text = plan.render(db.table(tid).unwrap());
        assert!(text.contains("I_A"));
        assert!(text.contains("I_B"));
        assert!(text.contains("I_C"));
        assert!(text.contains("unique"));
    }
}
