//! Strategy-level pause/cancel safety under a [`Pacer`].
//!
//! The pause contract: every checkpoint sits between page visits with no
//! pinned frame, so a paused bulk delete leaves the buffer pool fully
//! unpinned for as long as it stays parked, and resuming completes the
//! statement to the exact state an uninterrupted run produces
//! (`audit_equivalence`). The trip points sweep early, middle, and late
//! checkpoints, so the park lands mid-leaf-walk, mid-heap-pass, and inside
//! the secondary/hash phases across the sweep.

use std::time::Duration;

use bd_core::prelude::*;
use bd_core::strategy;
use bd_storage::Pacer;
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
/// checkpoints the statement crosses, then re-run it with pauses tripped at
/// several of them: each pause must park with zero pinned frames and each
/// resumed run must be equivalent to the uninterrupted reference.
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
        let pool = db.pool().clone();
        let pacer = Pacer::new();
        pacer.pause_after(trip.max(1));
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _g = pacer.enter();
                strategy::vertical_sort_merge(&mut db, tid, 0, &d, 1).map(|o| o.deleted.len())
            });
            assert!(
                pacer.wait_parked(1, Duration::from_secs(10)),
                "trip {trip}/{total} never parked"
            );
            assert_eq!(
                pool.pinned_frames(),
                0,
                "paused at trip {trip}/{total} with a frame still pinned"
            );
            pacer.resume();
            assert_eq!(worker.join().unwrap().unwrap(), d.len());
        });
        db.check_consistency(tid).unwrap();
        let eq = audit_equivalence(&reference, &db, tid).unwrap();
        assert!(eq.is_clean(), "trip {trip}/{total} diverged: {eq}");
    }
}

/// The parallel driver: the executor re-installs the driver thread's pacer
/// on every worker, so a pause lands in the fan-out arms too and the
/// resumed run still matches the serial reference.
#[test]
fn paused_parallel_vertical_resumes_to_the_serial_state() {
    let (mut reference, tid, a_values) = build(1200);
    let d: Vec<u64> = a_values.iter().copied().step_by(3).collect();
    strategy::vertical_sort_merge(&mut reference, tid, 0, &d, 1).unwrap();

    let (mut db, _, _) = build(1200);
    let pacer = Pacer::new();
    pacer.pause_after(40);
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let _g = pacer.enter();
            strategy::vertical_sort_merge(&mut db, tid, 0, &d, 3).map(|o| o.deleted.len())
        });
        assert!(
            pacer.wait_parked(1, Duration::from_secs(10)),
            "parallel run never parked"
        );
        pacer.resume();
        assert_eq!(worker.join().unwrap().unwrap(), d.len());
    });
    db.check_consistency(tid).unwrap();
    let eq = audit_equivalence(&reference, &db, tid).unwrap();
    assert!(eq.is_clean(), "paused parallel run diverged: {eq}");
}

/// Cancelling a parked statement unwinds through the normal error path and
/// releases every pin on the way out.
#[test]
fn cancelled_vertical_unwinds_and_unpins() {
    let (mut db, tid, a_values) = build(800);
    let d: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    let pool = db.pool().clone();
    let pacer = Pacer::new();
    pacer.pause_after(25);
    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let _g = pacer.enter();
            strategy::vertical_sort_merge(&mut db, tid, 0, &d, 1)
        });
        assert!(pacer.wait_parked(1, Duration::from_secs(10)));
        pacer.cancel();
        assert!(
            worker.join().unwrap().is_err(),
            "cancelled statement must fail"
        );
    });
    assert_eq!(pool.pinned_frames(), 0, "cancel leaked a pin");
}
