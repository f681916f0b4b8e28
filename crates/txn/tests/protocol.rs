//! Finer-grained protocol tests for §3.1: lock interaction, offline-index
//! semantics, and the commit point.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bd_core::{Database, DatabaseConfig, IndexDef, Tuple};
use bd_storage::{FaultPlan, FaultSpec};
use bd_txn::{PropagationMode, TxnDb};
use bd_workload::TableSpec;

fn setup(n_rows: usize) -> (Arc<TxnDb>, usize, Vec<u64>) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(4 << 20));
    let spec = TableSpec::tiny(n_rows);
    let w = spec.build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    let tid = w.tid;
    let a = w.a_values.clone();
    (TxnDb::new(db), tid, a)
}

#[test]
fn updater_blocks_during_exclusive_phase_then_proceeds() {
    let (tdb, tid, a_values) = setup(4000);
    let victims: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    let bulk_started = Arc::new(AtomicBool::new(false));
    let insert_done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        let bulk = {
            let tdb = tdb.clone();
            let flag = bulk_started.clone();
            let victims = victims.clone();
            s.spawn(move || {
                flag.store(true, Ordering::SeqCst);
                tdb.bulk_delete(tid, 0, &victims, PropagationMode::SideFile)
                    .unwrap()
            })
        };
        // Wait for the bulk delete to start, then insert: the insert must
        // succeed eventually (blocking on the table lock / unique gates,
        // never erroring).
        while !bulk_started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let ins = {
            let tdb = tdb.clone();
            let flag = insert_done.clone();
            s.spawn(move || {
                let txn = tdb.begin();
                tdb.insert(
                    txn,
                    tid,
                    &Tuple::new(vec![7_000_001, 7_000_003, 7_000_005, 1]),
                )
                .unwrap();
                tdb.commit(txn);
                flag.store(true, Ordering::SeqCst);
            })
        };
        bulk.join().unwrap();
        ins.join().unwrap();
    });
    assert!(insert_done.load(Ordering::SeqCst));
    tdb.with(|db| db.check_consistency(tid).unwrap());
}

#[test]
fn reads_through_offline_index_wait_for_consistency() {
    // A reader querying through the non-unique index during the bulk delete
    // must never observe a half-deleted state: every row it returns for a
    // surviving key exists, and bulk-deleted keys are never returned after
    // the index comes online.
    let (tdb, tid, a_values) = setup(5000);
    let victims: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    let victim_set: std::collections::HashSet<u64> = victims.iter().copied().collect();

    std::thread::scope(|s| {
        let bulk = {
            let tdb = tdb.clone();
            let victims = victims.clone();
            s.spawn(move || {
                tdb.bulk_delete(tid, 0, &victims, PropagationMode::SideFile)
                    .unwrap()
            })
        };
        let reader = {
            let tdb = tdb.clone();
            s.spawn(move || {
                let mut reads = 0usize;
                for i in 0..50u64 {
                    let txn = tdb.begin();
                    // Index 1 goes offline during the bulk delete; read()
                    // waits for it to come back online.
                    let rows = tdb.read(txn, tid, 1, i * 10).unwrap();
                    tdb.commit(txn);
                    reads += rows.len();
                    std::thread::sleep(Duration::from_micros(200));
                }
                reads
            })
        };
        bulk.join().unwrap();
        let _ = reader.join().unwrap();
    });

    // After everything settles: no victim key is visible anywhere.
    let txn = tdb.begin();
    for &v in victims.iter().step_by(211) {
        assert!(tdb.read(txn, tid, 0, v).unwrap().is_empty());
        let _ = victim_set;
    }
    tdb.commit(txn);
    tdb.with(|db| db.check_consistency(tid).unwrap());
}

#[test]
fn empty_bulk_delete_is_safe_under_concurrency() {
    let (tdb, tid, _) = setup(500);
    let n = tdb
        .bulk_delete(tid, 0, &[], PropagationMode::SideFile)
        .unwrap();
    assert_eq!(n, 0);
    // Indices must all be online again.
    let txn = tdb.begin();
    assert!(tdb.read(txn, tid, 1, 0).is_ok());
    tdb.commit(txn);
    tdb.with(|db| db.check_consistency(tid).unwrap());
}

#[test]
fn bulk_delete_missing_probe_index_errors_cleanly() {
    let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
    let w = TableSpec::tiny(100).build(&mut db).unwrap();
    // No index at all.
    let tid = w.tid;
    let tdb = TxnDb::new(db);
    let err = tdb.bulk_delete(tid, 0, &[1, 2], PropagationMode::SideFile);
    assert!(err.is_err());
    // The failed attempt must not leave stale locks: a subsequent insert
    // works.
    let txn = tdb.begin();
    tdb.insert(txn, tid, &Tuple::new(vec![1, 2, 3, 4])).unwrap();
    tdb.commit(txn);
}

#[test]
fn failed_bulk_delete_releases_the_table_and_reopens_every_index() {
    // Regression: an error inside the exclusive phase returned past both
    // the lock release and the gate reset, leaving the table X-locked and
    // every index offline for good.
    let (tdb, tid, a_values) = setup(2000);
    let victims: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    // A dead sector under the probe index's first leaf, cache cold: the
    // key-predicate pass of phase 1 outlasts the pool's retries and fails.
    tdb.with(|db| {
        let leaf = db
            .table(tid)
            .unwrap()
            .index_on(0)
            .unwrap()
            .tree
            .first_leaf();
        db.pool().clear_cache().unwrap();
        db.pool().with_disk(|disk| {
            disk.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(leaf.unwrap())))
        });
    });
    let res = tdb.bulk_delete(tid, 0, &victims, PropagationMode::SideFile);
    assert!(res.is_err(), "the fault must fail the statement: {res:?}");
    tdb.with(|db| db.pool().with_disk(|disk| disk.clear_fault_plan()));

    // Liveness only — without the WAL a half-run chunk is not claimed to
    // be consistent. A held X lock would fail these reads with a lock
    // timeout; an offline gate would park them.
    let txn = tdb.begin();
    for attr in 0..3 {
        tdb.read(txn, tid, attr, a_values[1])
            .unwrap_or_else(|e| panic!("read through index {attr}: {e}"));
    }
    tdb.commit(txn);
}

#[test]
fn direct_mode_protects_reinserted_entries() {
    // Delete keys, then (while propagation may still be pending) re-insert
    // rows with the same secondary-index keys as deleted rows: direct
    // propagation must never delete the new entries.
    let (tdb, tid, a_values) = setup(3000);
    let victims: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    let reinserted: Vec<Tuple> = (0..50u64)
        .map(|i| {
            Tuple::new(vec![
                8_000_001 + 2 * i,
                8_100_001 + 2 * i,
                8_200_001 + 2 * i,
                i,
            ])
        })
        .collect();

    std::thread::scope(|s| {
        let bulk = {
            let tdb = tdb.clone();
            let victims = victims.clone();
            s.spawn(move || {
                tdb.bulk_delete(tid, 0, &victims, PropagationMode::Direct)
                    .unwrap()
            })
        };
        let ins = {
            let tdb = tdb.clone();
            let rows = reinserted.clone();
            s.spawn(move || {
                for t in &rows {
                    let txn = tdb.begin();
                    tdb.insert(txn, tid, t).unwrap();
                    tdb.commit(txn);
                }
            })
        };
        bulk.join().unwrap();
        ins.join().unwrap();
    });

    let txn = tdb.begin();
    for t in &reinserted {
        let rows = tdb.read(txn, tid, 0, t.attr(0)).unwrap();
        assert_eq!(rows.len(), 1, "reinserted key {} lost", t.attr(0));
    }
    tdb.commit(txn);
    tdb.with(|db| db.check_consistency(tid).unwrap());
}
