//! The three `⋈̄` methods (sort/merge, classic hash, partitioned hash) and
//! both table methods must produce identical states, whichever a plan names.

use bulk_delete::prelude::*;

use bd_core::{plan_sort_merge, IndexMethod, IndexStep, TableMethod};
use bd_workload::TableSpec;

fn build(n_rows: usize, mem: usize, clustered: bool) -> (Database, bd_workload::Workload) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(mem));
    let mut spec = TableSpec::tiny(n_rows).with_seed(99);
    if clustered {
        spec = spec.clustered_by(0);
    }
    let w = spec.build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    (db, w)
}

fn state(db: &Database, tid: TableId) -> Vec<Vec<u64>> {
    let table = db.table(tid).unwrap();
    let mut rows: Vec<Vec<u64>> = table
        .heap
        .scan()
        .map(|(_, bytes)| table.schema.decode(&bytes).attrs)
        .collect();
    rows.sort_unstable();
    rows
}

fn plan_with(method: IndexMethod, table: TableMethod) -> DeletePlan {
    DeletePlan {
        probe_attr: 0,
        table,
        index_steps: vec![IndexStep { attr: 1, method }, IndexStep { attr: 2, method }],
    }
}

#[test]
fn every_method_combination_is_equivalent() {
    let reference = {
        let (mut db, w) = build(900, 2 << 20, false);
        let d = w.delete_set(0.25, 1);
        strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, 1).unwrap();
        db.check_consistency(w.tid).unwrap();
        state(&db, w.tid)
    };
    let methods = [
        IndexMethod::SortMerge { presort: true },
        IndexMethod::ClassicHash,
        IndexMethod::PartitionedHash,
    ];
    let tables = [TableMethod::Merge { presort: true }, TableMethod::HashProbe];
    for m in methods {
        for t in tables {
            let (mut db, w) = build(900, 2 << 20, false);
            let d = w.delete_set(0.25, 1);
            let plan = plan_with(m, t);
            let out =
                strategy::vertical(&mut db, w.tid, &d, &plan, ReorgPolicy::FreeAtEmpty, 1).unwrap();
            assert_eq!(out.deleted.len(), d.len(), "{m:?}/{t:?}");
            db.check_consistency(w.tid).unwrap();
            assert_eq!(state(&db, w.tid), reference, "{m:?}/{t:?} diverged");
        }
    }
}

#[test]
fn partitioned_hash_with_tiny_workspace_still_correct() {
    // Workspace so small that the RID set must split into many partitions.
    let (mut db, w) = build(800, 1 << 20, false);
    let d = w.delete_set(0.5, 2);
    let plan = plan_with(
        IndexMethod::PartitionedHash,
        TableMethod::Merge { presort: true },
    );
    let out = strategy::vertical(&mut db, w.tid, &d, &plan, ReorgPolicy::FreeAtEmpty, 1).unwrap();
    assert_eq!(out.deleted.len(), d.len());
    db.check_consistency(w.tid).unwrap();
}

#[test]
fn clustered_probe_plan_elides_rid_sort_and_is_correct() {
    let (mut db, w) = build(700, 2 << 20, true);
    let d = w.delete_set(0.3, 3);
    let table = db.table(w.tid).unwrap();
    let plan = plan_sort_merge(table, 0).unwrap();
    assert_eq!(plan.table, TableMethod::Merge { presort: false });
    let out = strategy::vertical(&mut db, w.tid, &d, &plan, ReorgPolicy::FreeAtEmpty, 1).unwrap();
    assert_eq!(out.deleted.len(), d.len());
    db.check_consistency(w.tid).unwrap();
}

#[test]
fn explain_renders_plan_dag() {
    let (db, _) = build(300, 2 << 20, false);
    let table = db.table(0).unwrap();
    let plan = plan_sort_merge(table, 0).unwrap();
    let text = plan.render(table);
    assert!(text.contains("bd["), "{text}");
    assert!(text.contains("I_A"));
    assert!(text.contains("I_B"));
    assert!(text.contains("I_C"));
}
