//! The fault sweeps over the recoverable driver.
//!
//! For a seeded workload, a crash (or a torn write) is injected at each
//! successive disk access; after recovery the state must match the
//! fault-free run — at `workers = 1` and under the threaded fan-out alike.

use bd_core::{
    audit_equivalence, audit_equivalence_with, AuditOptions, Database, DatabaseConfig, IndexDef,
};
use bd_storage::FaultPlan;
use bd_wal::{
    recover, recover_media, run_bulk_delete, run_bulk_delete_parallel, sweep, BulkDelete,
    CrashInjector, CrashSite, Fault, LogManager, LogRecord, StructureId, SweepReport, WalError,
};
use bd_workload::TableSpec;

// Phases for this layout: 0 = probe index, 1 = table (the serial prefix,
// attr 0's index being unique), 2–3 = secondary B-trees on attrs 1 and 2,
// 4 = hash index on attr 3. Phases 2–4 fan out under the parallel driver.
fn build(n_rows: usize) -> (Database, usize, Vec<u64>) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(4 << 20));
    let w = TableSpec::tiny(n_rows).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    db.create_hash_index(w.tid, 3).unwrap();
    // The load is durable before any statement runs: a crash that lands
    // before the driver's first checkpoint must find the table on disk.
    db.pool().flush_all().unwrap();
    (db, w.tid, w.a_values)
}

fn victims(a_values: &[u64]) -> Vec<u64> {
    a_values.iter().copied().step_by(3).collect()
}

#[test]
fn parallel_driver_matches_serial_state() {
    let (mut db_serial, tid, a_values) = build(1500);
    let (mut db_parallel, _, _) = build(1500);
    let d = victims(&a_values);

    let log_s = LogManager::new();
    let n_s = run_bulk_delete(&mut db_serial, tid, 0, &d, &log_s, CrashInjector::none()).unwrap();
    let log_p = LogManager::new();
    let n_p = run_bulk_delete_parallel(
        &mut db_parallel,
        tid,
        0,
        &d,
        &log_p,
        CrashInjector::none(),
        3,
    )
    .unwrap();

    assert_eq!(n_s, n_p);
    db_parallel.check_consistency(tid).unwrap();
    // The arms touch disjoint structures: the trees' shapes match too.
    let shape = AuditOptions::with_physical_shape();
    let eq = audit_equivalence_with(&db_serial, &db_parallel, tid, shape).unwrap();
    assert!(eq.is_clean(), "parallel driver diverged: {eq}");
    // One driver: the same records at any worker count (three arms, three
    // `StructureDone`s, one group checkpoint); only their order can differ.
    assert_eq!(
        log_p.records().unwrap().len(),
        log_s.records().unwrap().len()
    );
}

#[test]
fn parallel_arm_crash_sites_recover() {
    // Sites inside the fan-out arms: mid-structure of each non-unique
    // index phase (phases 2–4 — probe and table are the serial prefix;
    // phase 4 is the hash arm), and after the group checkpoint that follows
    // the join. The site travels out of the arm (a worker thread when
    // `workers > 1`) as `SimulatedCrash` plus the shared site slot.
    for workers in [1, 3] {
        for site in [
            CrashSite::MidStructure(2),
            CrashSite::MidStructure(3),
            CrashSite::MidStructure(4),
            CrashSite::AfterStructure(2),
            CrashSite::AfterStructure(4),
        ] {
            let (mut reference, tid, a_values) = build(1200);
            let d = victims(&a_values);
            let log_ref = LogManager::new();
            run_bulk_delete(&mut reference, tid, 0, &d, &log_ref, CrashInjector::none()).unwrap();

            let (mut db, _, _) = build(1200);
            let log = LogManager::new();
            let crash = CrashInjector::at(site);
            let err =
                run_bulk_delete_parallel(&mut db, tid, 0, &d, &log, crash, workers).unwrap_err();
            assert!(
                matches!(err, WalError::Crashed(s) if s == site),
                "site {site:?} must surface at {workers} worker(s), got {err}"
            );
            if let CrashSite::AfterStructure(_) = site {
                // The fan-out is one group: its `AfterStructure` sites fire
                // after the join and the group checkpoint, whichever arm
                // they name, so every arm's completion is already logged.
                let done = log.records().unwrap();
                let done = done
                    .iter()
                    .filter(|r| matches!(r, LogRecord::StructureDone { .. }));
                assert_eq!(done.count(), 5, "{site:?} at {workers} worker(s)");
            }
            db.pool().crash();
            let n = recover(&mut db, tid, &log, &[]).unwrap();
            assert_eq!(n, d.len());
            db.check_consistency(tid).unwrap();
            let eq = audit_equivalence(&reference, &db, tid).unwrap();
            assert!(
                eq.is_clean(),
                "recovery after {site:?} at {workers} worker(s) diverged: {eq}"
            );
        }
    }
}

#[test]
fn crash_inside_the_hash_sweep_recovers_and_recovery_is_idempotent() {
    // 2667 victims: the hash pass (phase 4) is two bucket-ordered chunks
    // with one progress record between them. A crash at that record has
    // the first bucket range swept and flushed; a crash mid-structure has
    // both swept and the last one only partly on disk. Recovery re-sweeps
    // from the victim order it re-derives, finds what is already gone
    // absent, and a second restart finds a committed log.
    let (mut reference, tid, a_values) = build(8000);
    let d = victims(&a_values);
    assert!(d.len() > 2048, "the progress record must exist");
    run_bulk_delete(
        &mut reference,
        tid,
        0,
        &d,
        &LogManager::new(),
        CrashInjector::none(),
    )
    .unwrap();
    for workers in [1, 3] {
        for site in [CrashSite::MidStructure(4), CrashSite::AtProgress(4, 1)] {
            let (mut db, _, _) = build(8000);
            let log = LogManager::new();
            let crash = CrashInjector::at(site);
            let err =
                run_bulk_delete_parallel(&mut db, tid, 0, &d, &log, crash, workers).unwrap_err();
            assert!(
                matches!(err, WalError::Crashed(s) if s == site),
                "site {site:?} must surface at {workers} worker(s), got {err}"
            );
            db.pool().crash();
            assert_eq!(recover(&mut db, tid, &log, &[]).unwrap(), d.len());
            db.pool().crash();
            assert_eq!(recover(&mut db, tid, &log, &[]).unwrap(), 0);
            db.check_consistency(tid).unwrap();
            let eq = audit_equivalence(&reference, &db, tid).unwrap();
            assert!(
                eq.is_clean(),
                "recovery after {site:?} at {workers} worker(s) diverged: {eq}"
            );
        }
    }
}

#[test]
fn recover_is_idempotent_after_parallel_crash() {
    for workers in [1, 3] {
        let (mut db, tid, a_values) = build(1000);
        let d = victims(&a_values);
        let log = LogManager::new();
        let crash = CrashInjector::at(CrashSite::MidStructure(2));
        let err = run_bulk_delete_parallel(&mut db, tid, 0, &d, &log, crash, workers).unwrap_err();
        assert!(matches!(err, WalError::Crashed(_)));
        db.pool().crash();
        let n = recover(&mut db, tid, &log, &[]).unwrap();
        assert_eq!(n, d.len());
        // A second restart finds a committed log: recovery is a no-op, and
        // the state is unchanged.
        let (mut reference, _, _) = build(1000);
        let log_ref = LogManager::new();
        run_bulk_delete(&mut reference, tid, 0, &d, &log_ref, CrashInjector::none()).unwrap();
        db.pool().crash();
        assert_eq!(recover(&mut db, tid, &log, &[]).unwrap(), 0);
        db.check_consistency(tid).unwrap();
        let eq = audit_equivalence(&reference, &db, tid).unwrap();
        assert!(
            eq.is_clean(),
            "second recovery at {workers} worker(s) changed the state: {eq}"
        );
    }
}

#[test]
fn crash_while_paused_recovers_to_the_reference_state() {
    // A delete stopped in its pacer's hook sits at a checkpoint with zero
    // pinned frames — the checkpoint contract — so the hook can crash the
    // pool underneath it (`crash()` panics on any pin, making the contract
    // an assertion, not a hope), then cancel the statement.
    // Recovery from the log then completes the statement exactly as the
    // crash-at-every-IO sweep does from any other point.
    let (mut reference, tid, a_values) = build(1200);
    let d = victims(&a_values);
    let log_ref = LogManager::new();
    let counter = bd_storage::Pacer::new();
    {
        let _g = counter.enter();
        run_bulk_delete(&mut reference, tid, 0, &d, &log_ref, CrashInjector::none()).unwrap();
    }
    let total = counter.checks();
    assert!(total > 30, "run crossed only {total} checkpoints");

    for trip in [total / 8, total / 2, total - total / 8] {
        let (mut db, _, _) = build(1200);
        let pool = db.pool().clone();
        let log = LogManager::new();
        let pacer = {
            let pool = pool.clone();
            bd_storage::Pacer::with_hook(move |n| {
                if n == trip {
                    // Zero pins at a checkpoint, or this panics.
                    pool.crash();
                }
                if n >= trip {
                    return Err(bd_storage::StorageError::Cancelled);
                }
                Ok(())
            })
        };
        let result = {
            let _g = pacer.enter();
            run_bulk_delete(&mut db, tid, 0, &d, &log, CrashInjector::none())
        };
        assert!(pacer.checks() >= trip, "delete never reached trip {trip}");
        assert!(
            result.is_err(),
            "cancelled-after-crash run must not report success"
        );
        // Discard anything the unwinding error path touched post-crash,
        // then restart: redo from the log.
        pool.crash();
        recover(&mut db, tid, &log, &[]).unwrap();
        db.check_consistency(tid).unwrap();
        let eq = audit_equivalence(&reference, &db, tid).unwrap();
        assert!(
            eq.is_clean(),
            "recovery after paused crash (trip {trip}) diverged: {eq}"
        );
    }
}

// The campaigns deliberately use a pool far smaller than the working set
// (24 frames for a ~1500-row table with three secondary indices): with a
// big pool every read is a cache hit and the run issues only a handful of
// chained flush writes, leaving almost no crash points to sweep.
fn fresh(n_rows: usize) -> (Database, usize) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(96 << 10));
    let w = TableSpec::tiny(n_rows).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    db.create_hash_index(w.tid, 3).unwrap();
    (db, w.tid)
}

/// One bulk-delete sweep over `fresh(n_rows)`, probing attribute 0.
fn bulk_sweep(
    n_rows: usize,
    d: &[u64],
    workers: usize,
    fault: Fault,
    start: u64,
    limit: Option<usize>,
) -> SweepReport {
    let mut target = BulkDelete {
        probe_attr: 0,
        d_keys: d,
        workers,
    };
    sweep(|| fresh(n_rows), &mut target, fault, start, limit).unwrap()
}

#[test]
fn serial_campaign_recovers_at_every_disk_access() {
    let a_values = build(1500).2;
    let d = victims(&a_values);
    let report = bulk_sweep(1500, &d, 1, Fault::Crash, 0, None);
    assert!(
        report.recovered_points > 50,
        "campaign too small to mean anything: {report:?}"
    );
    assert_eq!(report.deleted, d.len());
}

#[test]
fn parallel_campaign_recovers_at_every_disk_access() {
    let a_values = build(1500).2;
    let d = victims(&a_values);
    let report = bulk_sweep(1500, &d, 3, Fault::Crash, 0, None);
    assert!(
        report.recovered_points > 50,
        "campaign too small to mean anything: {report:?}"
    );
    assert_eq!(report.deleted, d.len());
}

#[test]
fn serial_torn_write_campaign_recovers_every_surfaced_tear() {
    let a_values = build(900).2;
    let d = victims(&a_values);
    let report = bulk_sweep(900, &d, 1, Fault::TornWrite, 0, None);
    assert!(
        report.recovered_points >= 5,
        "sweep surfaced too few tears to mean anything: {report:?}"
    );
    assert!(
        report.recovered_points + report.silent_points >= 20,
        "sweep tore too few writes: {report:?}"
    );
    assert_eq!(report.deleted, d.len());
    // Structure-precision: one torn page condemns at most the one structure
    // that owns it. The pre-catalog classifier attributed every
    // non-heap/non-hash tear to "the B-trees" and rebuilt all four trees;
    // any torn index page would push this to 4.
    assert!(
        report.max_rebuilt_per_point <= 1,
        "a torn point rebuilt more than its one damaged structure: {report:?}"
    );
    assert!(
        report.structures_rebuilt <= report.recovered_points,
        "rebuilds must be bounded by one per torn point: {report:?}"
    );
}

#[test]
fn parallel_torn_write_campaign_recovers_every_surfaced_tear() {
    let a_values = build(900).2;
    let d = victims(&a_values);
    let report = bulk_sweep(900, &d, 3, Fault::TornWrite, 0, None);
    // How many tears surface depends on how the three workers' writes
    // interleave (from 4 to 11 on two CPUs), so only what holds under every
    // interleaving is asserted: some tear surfaced and was recovered, and
    // every rebuild belongs to a recovered point and stays inside the one
    // structure its torn page belongs to. Every point is either recovered
    // or silent; anything else has already failed the sweep.
    assert!(report.recovered_points >= 1, "no tear surfaced: {report:?}");
    assert_eq!(report.deleted, d.len());
    assert!(
        report.max_rebuilt_per_point <= 1,
        "a torn point rebuilt more than its one damaged structure: {report:?}"
    );
    assert!(
        report.structures_rebuilt <= report.recovered_points,
        "rebuilds must be bounded by one per torn point: {report:?}"
    );
}

#[test]
fn torn_free_page_is_healed_without_any_rebuild() {
    use bd_storage::FaultSpec;

    // Delete *every* row so whole leaves empty out and are returned to the
    // catalog's free set.
    let (mut db, tid, a_values) = build(900);
    let log = LogManager::new();
    run_bulk_delete(&mut db, tid, 0, &a_values, &log, CrashInjector::none()).unwrap();
    db.pool().flush_all().unwrap();

    let free = db.pool().with_disk(|d| d.catalog().free_pages());
    assert!(
        !free.is_empty(),
        "a full bulk delete must free emptied leaf pages"
    );
    let pid = free[free.len() / 2];

    // Tear the free page: arm a torn fault on the very next write, then
    // rewrite the page with a changed back half. The persisted image keeps
    // the old back half while the checksum records the intended one.
    db.pool().with_disk(|d| {
        let mut buf = [0u8; bd_storage::PAGE_SIZE];
        d.read(pid, &mut buf).unwrap();
        for b in &mut buf[bd_storage::PAGE_SIZE / 2..] {
            *b ^= 0xA5;
        }
        let c = d.accesses();
        d.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_at_access(c + 1).torn()));
        d.write(pid, &buf).unwrap();
        d.clear_fault_plan();
    });
    let corrupt = db.pool().with_disk(|d| d.corrupt_pages());
    assert_eq!(corrupt, vec![pid], "the tear must be detectable");

    db.pool().crash();
    let (_, media) = recover_media(&mut db, tid, &log, &[], &corrupt).unwrap();
    // Regression: the pre-catalog classifier could not attribute a free
    // page to any structure and rebuilt every B-tree for it. The catalog
    // knows the page is free — heal it and rebuild nothing.
    assert_eq!(
        media.structures_rebuilt(),
        0,
        "a torn free page must not trigger any rebuild: {media:?}"
    );
    assert_eq!(media.healed_free, 1, "{media:?}");
    assert!(
        db.pool().with_disk(|d| d.corrupt_pages()).is_empty(),
        "the torn page must be healed"
    );
    db.check_consistency(tid).unwrap();
}

#[test]
fn torn_index_page_rebuilds_only_that_tree() {
    use bd_storage::FaultSpec;

    let (mut db, tid, a_values) = build(900);
    let d = victims(&a_values);
    let log = LogManager::new();
    run_bulk_delete(&mut db, tid, 0, &d, &log, CrashInjector::none()).unwrap();
    db.pool().flush_all().unwrap();

    // Tear a page of the B-tree on attribute 1 (a live root/leaf).
    let pid = db
        .pool()
        .with_disk(|d| d.catalog().pages_of(StructureId::Index(1))[0]);
    db.pool().with_disk(|d| {
        let mut buf = [0u8; bd_storage::PAGE_SIZE];
        d.read(pid, &mut buf).unwrap();
        for b in &mut buf[bd_storage::PAGE_SIZE / 2..] {
            *b ^= 0xA5;
        }
        let c = d.accesses();
        d.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_at_access(c + 1).torn()));
        d.write(pid, &buf).unwrap();
        d.clear_fault_plan();
    });
    let corrupt = db.pool().with_disk(|d| d.corrupt_pages());
    assert_eq!(corrupt, vec![pid]);

    db.pool().crash();
    let (_, media) = recover_media(&mut db, tid, &log, &[], &corrupt).unwrap();
    // Single-tree precision: only the owning index rebuilds. The old
    // classifier would have rebuilt all four B-trees here.
    assert_eq!(media.rebuilt_trees, vec![1], "{media:?}");
    assert!(media.rebuilt_hashes.is_empty(), "{media:?}");
    assert_eq!(media.structures_rebuilt(), 1, "{media:?}");
    db.check_consistency(tid).unwrap();
    bd_core::audit_catalog(&db, tid)
        .unwrap()
        .into_result()
        .unwrap();
}

#[test]
fn arm_crash_with_empty_site_slot_maps_to_in_io() {
    // A disk-level crash point (`FaultPlan::crash_at_access`) firing
    // inside a fan-out arm's I/O surfaces as `SimulatedCrash` with the
    // shared site slot never set; by contract the driver maps that to
    // `CrashSite::InIo`. Detection: the serial prefix logged its table
    // completion but at least one fan arm never logged its own, so the
    // crash fired between fan-out start and fan-out completion — i.e.
    // on a worker thread.
    let (mut reference, tid, a_values) = build(900);
    let d = victims(&a_values);
    let log_ref = LogManager::new();
    run_bulk_delete_parallel(
        &mut reference,
        tid,
        0,
        &d,
        &log_ref,
        CrashInjector::none(),
        3,
    )
    .unwrap();

    let mut n = 0u64;
    loop {
        n += 1;
        let (mut db, _, _) = build(900);
        db.pool().flush_all().unwrap();
        let log = LogManager::new();
        let c0 = db.pool().with_disk(|disk| disk.accesses());
        db.pool()
            .with_disk(|disk| disk.set_fault_plan(FaultPlan::new().crash_at_access(c0 + n)));
        match run_bulk_delete_parallel(&mut db, tid, 0, &d, &log, CrashInjector::none(), 3) {
            Ok(_) => panic!("run completed before any crash landed inside a fan-out arm"),
            Err(WalError::Crashed(site)) => {
                let recs = log.records().unwrap();
                let serial_done = recs.iter().any(|r| {
                    matches!(
                        r,
                        LogRecord::StructureDone {
                            structure: StructureId::Table
                        }
                    )
                });
                let fan_done = recs
                    .iter()
                    .filter(|r| {
                        matches!(
                            r,
                            LogRecord::StructureDone {
                                structure: StructureId::Index(_) | StructureId::Hash(_)
                            }
                        )
                    })
                    .count();
                if !(serial_done && fan_done < 3) {
                    continue; // crash landed outside the fan-out region
                }
                assert_eq!(site, CrashSite::InIo, "access {n}");
                db.pool().crash();
                db.pool().with_disk(|disk| disk.clear_fault_plan());
                recover(&mut db, tid, &log, &[]).unwrap();
                db.check_consistency(tid).unwrap();
                let eq = audit_equivalence(&reference, &db, tid).unwrap();
                assert!(eq.is_clean(), "recovery after InIo diverged: {eq}");
                return;
            }
            Err(e) => panic!("unexpected error at access {n}: {e}"),
        }
    }
}

/// The late-region workload (> PROGRESS_CHUNK victims per structure, so
/// every pass logs several Progress records) and the sweep start 40
/// accesses before the end of its run. The end is measured at
/// `workers = 1`, where the access count is deterministic: threaded runs
/// only ever add accesses (interleaving changes eviction order), so a
/// start anchored on a threaded run's count can lie past the end of the
/// next one.
fn late_region() -> (Vec<u64>, u64) {
    let a_values = build(5000).2;
    let d: Vec<u64> = a_values
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| i % 10 != 0)
        .map(|(_, v)| v)
        .collect();
    assert!(d.len() > 2 * 2048, "need several progress chunks");
    // A zero-limit sweep measures the fault-free access count.
    let probe = bulk_sweep(5000, &d, 1, Fault::Crash, 0, Some(0));
    (d, probe.fault_free_accesses.saturating_sub(40))
}

#[test]
fn late_region_campaign_resumes_deep_passes_serial() {
    // The hash pass runs last — so sweeping only the tail of the access
    // stream exercises resume-from-progress deep inside the late passes
    // without paying for thousands of early crash points.
    let (d, start) = late_region();
    let report = bulk_sweep(5000, &d, 1, Fault::Crash, start, None);
    assert!(
        report.recovered_points >= 10,
        "tail sweep too small: {report:?}"
    );
    assert_eq!(report.deleted, d.len());
}

#[test]
fn late_region_campaign_resumes_deep_passes_parallel() {
    let (d, start) = late_region();
    let report = bulk_sweep(5000, &d, 3, Fault::Crash, start, None);
    assert!(
        report.recovered_points >= 5,
        "tail sweep too small: {report:?}"
    );
    assert_eq!(report.deleted, d.len());
}
