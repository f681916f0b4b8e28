//! Hash indices through every code path. The paper updates "other kinds
//! of indices ... in the traditional way" (§5); here the vertical bulk
//! delete sweeps them bucket by bucket, and must leave them exactly as
//! consistent as the B-tree indices at a per-page, not per-record, cost.

use bulk_delete::prelude::*;

use bd_workload::TableSpec;

fn build(n: usize) -> (Database, bd_workload::Workload) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(2 << 20));
    let w = TableSpec::tiny(n).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    db.create_hash_index(w.tid, 2).unwrap(); // H_C
    db.create_hash_index(w.tid, 3).unwrap(); // H_D
    (db, w)
}

#[test]
fn hash_index_lookup_after_build() {
    let (db, w) = build(500);
    let table = db.table(w.tid).unwrap();
    let h = table.hash_index_on(2).unwrap();
    assert_eq!(h.index.len(), 500);
    // Spot-check a few rows.
    for (rid, bytes) in table.heap.scan().take(20) {
        let key = table.schema.attr_of(&bytes, 2);
        assert!(h.index.search(key).unwrap().contains(&rid));
    }
}

#[test]
fn every_strategy_maintains_hash_indices() {
    type Runner = Box<dyn Fn(&mut Database, TableId, &[Key])>;
    let runners: Vec<(&str, Runner)> = vec![
        (
            "horizontal",
            Box::new(|db, tid, d| {
                strategy::horizontal(db, tid, 0, d, true).unwrap();
            }),
        ),
        (
            "drop&create",
            Box::new(|db, tid, d| {
                strategy::drop_create(db, tid, 0, d, RebuildMode::BulkLoad, 1).unwrap();
            }),
        ),
        (
            "vertical",
            Box::new(|db, tid, d| {
                strategy::vertical_sort_merge(db, tid, 0, d, 1).unwrap();
            }),
        ),
    ];
    for (name, run) in runners {
        let (mut db, w) = build(800);
        let d = w.delete_set(0.25, 3);
        run(&mut db, w.tid, &d);
        db.check_consistency(w.tid).unwrap();
        let table = db.table(w.tid).unwrap();
        assert_eq!(
            table.hash_index_on(2).unwrap().index.len(),
            800 - d.len(),
            "{name}: hash index count wrong"
        );
    }
}

#[test]
fn vertical_report_shows_bucket_sweep_hash_phase() {
    let (mut db, w) = build(600);
    let d = w.delete_set(0.2, 7);
    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, 1).unwrap();
    let phases: Vec<&str> = out.report.phases.iter().map(|p| p.name.as_str()).collect();
    assert!(
        phases
            .iter()
            .any(|p| p.contains("H_C") && p.contains("bucket sweep")),
        "phases: {phases:?}"
    );
}

#[test]
fn vertical_hash_arm_costs_pages_not_victims() {
    // 20k rows behind a 96-frame pool: the hash index's 113 buckets do not
    // fit, so a chain walk per victim paid 0.25 random I/Os each (a missed
    // read plus the dirty page it evicts). The sweep pays per chain of
    // pages: 0.001.
    let mut db = Database::new(DatabaseConfig::with_total_memory(512 << 10));
    assert_eq!(db.pool().capacity(), 96);
    let w = TableSpec::tiny(20_000).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    db.create_hash_index(w.tid, 2).unwrap();
    let mut shadow = ShadowDb::mirror_of(&db, w.tid).unwrap();
    let d = w.delete_set(0.15, 3);
    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, 1).unwrap();
    let arm = out
        .report
        .phases
        .iter()
        .find(|p| p.name.contains("H_C"))
        .expect("hash arm has a phase row");
    let per_victim = arm.io.total_random() as f64 / d.len() as f64;
    assert!(
        per_victim < 0.1,
        "{per_victim:.3} random I/Os per victim: {:?}",
        arm.io
    );
    shadow.delete_in(w.tid, 0, &d);
    let report = shadow.diff(&db, w.tid).unwrap();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn concurrent_bulk_delete_keeps_hash_indices_consistent() {
    let (db, w) = build(2000);
    let victims: Vec<u64> = w.a_values.iter().copied().step_by(3).collect();
    let tid = w.tid;
    let tdb = bd_txn::TxnDb::new(db);
    std::thread::scope(|s| {
        let bulk = {
            let tdb = tdb.clone();
            let v = victims.clone();
            s.spawn(move || {
                tdb.bulk_delete(tid, 0, &v, bd_txn::PropagationMode::SideFile)
                    .unwrap()
            })
        };
        let upd = {
            let tdb = tdb.clone();
            s.spawn(move || {
                for i in 0..40u64 {
                    let txn = tdb.begin();
                    tdb.insert(
                        txn,
                        tid,
                        &Tuple::new(vec![5_000_001 + i * 2, 6_000_001 + i * 2, i, i]),
                    )
                    .unwrap();
                    tdb.commit(txn);
                }
            })
        };
        bulk.join().unwrap();
        upd.join().unwrap();
    });
    tdb.with(|db| db.check_consistency(tid).unwrap());
}

#[test]
fn recovery_keeps_hash_indices_consistent() {
    use bd_wal::{recover, run_bulk_delete, CrashInjector, CrashSite, LogManager};
    let (mut db, w) = build(1500);
    let victims: Vec<u64> = w.a_values.iter().copied().step_by(4).collect();
    let log = LogManager::new();
    let err = run_bulk_delete(
        &mut db,
        w.tid,
        0,
        &victims,
        &log,
        CrashInjector::at(CrashSite::MidStructure(1)),
    )
    .unwrap_err();
    assert!(matches!(err, bd_wal::WalError::Crashed(_)));
    db.pool().crash();
    // Restore the in-memory hash-index counters from disk (the catalog's
    // recount step, analogous to heap/tree recount).
    let n = recover(&mut db, w.tid, &log, &[]).unwrap();
    assert_eq!(n, victims.len());
    db.check_consistency(w.tid).unwrap();
}
