//! Strategy-level checkpoint safety under a [`Pacer`] hook.
//!
//! The checkpoint contract: every checkpoint sits between page visits with
//! no pinned frame, so a bulk delete stopped in its pacer's hook leaves the
//! buffer pool fully unpinned for as long as the hook runs, and running on
//! completes the statement to the exact state an uninterrupted run
//! produces (`audit_equivalence`). The stop points sweep early, middle,
//! and late checkpoints, so the hook runs mid-leaf-walk, mid-heap-pass,
//! and inside the secondary/hash phases across the sweep.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use bd_core::prelude::*;
use bd_core::strategy;
use bd_storage::{Pacer, StorageError};
use bd_workload::TableSpec;

fn build(n_rows: usize) -> (Database, TableId, Vec<u64>) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(2 << 20));
    let w = TableSpec::tiny(n_rows).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    db.create_hash_index(w.tid, 3).unwrap();
    (db, w.tid, w.a_values)
}

/// Run the reference delete once under a counting pacer to learn how many
/// checkpoints the statement crosses, then re-run it with a hook stopping
/// at several of them: each stop must find zero pinned frames and each run
/// must be equivalent to the uninterrupted reference.
#[test]
fn paused_vertical_resumes_to_the_uninterrupted_state() {
    let (mut reference, tid, a_values) = build(1200);
    let d: Vec<u64> = a_values.iter().copied().step_by(3).collect();
    let counter = Pacer::new();
    {
        let _g = counter.enter();
        strategy::vertical_sort_merge(&mut reference, tid, 0, &d, 1).unwrap();
    }
    let total = counter.checks();
    assert!(total > 30, "statement crossed only {total} checkpoints");

    for trip in [2, total / 3, total / 2, total - total / 5] {
        let (mut db, tid2, _) = build(1200);
        assert_eq!(tid, tid2);
        let pinned = Arc::new(Mutex::new(None));
        let pacer = {
            let (pool, pinned) = (db.pool().clone(), pinned.clone());
            Pacer::with_hook(move |n| {
                if n == trip {
                    *pinned.lock().unwrap() = Some(pool.pinned_frames());
                }
                Ok(())
            })
        };
        let deleted = {
            let _g = pacer.enter();
            strategy::vertical_sort_merge(&mut db, tid, 0, &d, 1).map(|o| o.deleted.len())
        };
        assert_eq!(
            *pinned.lock().unwrap(),
            Some(0),
            "stopped at trip {trip}/{total} with a frame still pinned, or never stopped"
        );
        assert_eq!(deleted.unwrap(), d.len());
        db.check_consistency(tid).unwrap();
        let eq = audit_equivalence(&reference, &db, tid).unwrap();
        assert!(eq.is_clean(), "trip {trip}/{total} diverged: {eq}");
    }
}

/// The parallel driver: the executor re-installs the driver thread's pacer
/// on every worker, so the hook runs in the fan-out arms too, and the run
/// still matches the serial reference.
#[test]
fn paused_parallel_vertical_resumes_to_the_serial_state() {
    let (mut reference, tid, a_values) = build(1200);
    let d: Vec<u64> = a_values.iter().copied().step_by(3).collect();
    strategy::vertical_sort_merge(&mut reference, tid, 0, &d, 1).unwrap();

    let (mut db, _, _) = build(1200);
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let pacer = {
        let threads = threads.clone();
        Pacer::with_hook(move |_| {
            threads.lock().unwrap().insert(std::thread::current().id());
            Ok(())
        })
    };
    let deleted = {
        let _g = pacer.enter();
        strategy::vertical_sort_merge(&mut db, tid, 0, &d, 3).map(|o| o.deleted.len())
    };
    assert_eq!(deleted.unwrap(), d.len());
    assert!(pacer.checks() >= 40, "parallel run crossed few checkpoints");
    let threads = threads.lock().unwrap().len();
    assert!(threads > 1, "the hook ran on {threads} thread(s) only");
    db.check_consistency(tid).unwrap();
    let eq = audit_equivalence(&reference, &db, tid).unwrap();
    assert!(eq.is_clean(), "parallel run under a hook diverged: {eq}");
}

/// A hook that cancels mid-statement unwinds through the normal error path
/// and releases every pin on the way out.
#[test]
fn cancelled_vertical_unwinds_and_unpins() {
    let (mut db, tid, a_values) = build(800);
    let d: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    let pool = db.pool().clone();
    let pacer = Pacer::with_hook(|n| {
        if n >= 25 {
            Err(StorageError::Cancelled)
        } else {
            Ok(())
        }
    });
    let result = {
        let _g = pacer.enter();
        strategy::vertical_sort_merge(&mut db, tid, 0, &d, 1)
    };
    assert!(result.is_err(), "cancelled statement must fail");
    assert_eq!(pool.pinned_frames(), 0, "cancel leaked a pin");
}
