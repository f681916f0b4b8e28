//! The phase-task executor under parallelism: serial and parallel runs of
//! the vertical bulk delete must produce the identical physical state, the
//! phase breakdown must be deterministic, a failing arm must abort the run
//! cleanly, a fault within the pool's retries must not show in the end
//! state, and §3.1's unique-first sequencing must survive the fan-out.

use bulk_delete::prelude::*;

use bd_core::{audit_equivalence_with, AuditOptions};
use bd_storage::{FaultPlan, FaultSpec, StorageError};

fn build(n_rows: usize, seed: u64) -> (Database, Workload) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(4 << 20));
    let w = TableSpec::tiny(n_rows)
        .with_seed(seed)
        .build(&mut db)
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    db.create_hash_index(w.tid, 3).unwrap();
    (db, w)
}

#[test]
fn parallel_run_matches_serial_physical_state() {
    let (mut db_serial, w) = build(3_000, 11);
    let (mut db_parallel, _) = build(3_000, 11);
    let d = w.delete_set(0.2, 12);

    let serial = strategy::vertical_sort_merge(&mut db_serial, w.tid, 0, &d, 1).unwrap();
    let parallel = strategy::vertical_sort_merge(&mut db_parallel, w.tid, 0, &d, 3).unwrap();

    assert_eq!(serial.deleted.len(), parallel.deleted.len());
    assert_eq!(serial.deleted, parallel.deleted, "same rows, same order");
    db_parallel.check_consistency(w.tid).unwrap();

    // The arms touch disjoint structures: the trees' shapes match too.
    let shape = AuditOptions::with_physical_shape();
    let eq = audit_equivalence_with(&db_serial, &db_parallel, w.tid, shape).unwrap();
    assert!(eq.is_clean(), "serial vs parallel diverged: {eq}");

    // Clock semantics: the parallel report carries both clocks, and with
    // two secondary-index arms plus a hash arm overlapping, the critical
    // path is strictly below the serial clock.
    assert_eq!(serial.report.workers, 1);
    assert_eq!(parallel.report.workers, 3);
    assert!(
        (serial.report.critical_path_ms() - serial.report.sim_ms()).abs() < 1e-9,
        "serial run: both clocks agree"
    );
    assert!(
        parallel.report.critical_path_ms() < parallel.report.sim_ms(),
        "critical path {} must be strictly below serial clock {}",
        parallel.report.critical_path_ms(),
        parallel.report.sim_ms(),
    );
}

#[test]
fn phase_breakdown_order_is_deterministic() {
    let names = |workers: usize| -> (Vec<String>, Vec<Option<u32>>) {
        let (mut db, w) = build(2_000, 21);
        let d = w.delete_set(0.25, 22);
        let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, workers).unwrap();
        (
            out.report.phases.iter().map(|p| p.name.clone()).collect(),
            out.report.phases.iter().map(|p| p.group).collect(),
        )
    };
    let (serial_names, serial_groups) = names(1);
    let (a_names, a_groups) = names(3);
    let (b_names, b_groups) = names(3);
    // Same plan → same rows in the same order, regardless of worker count
    // or which arm happens to finish first.
    assert_eq!(serial_names, a_names);
    assert_eq!(a_names, b_names);
    assert_eq!(serial_groups, a_groups);
    assert_eq!(a_groups, b_groups);
    // The serial prefix is ungrouped; the fan-out arms share one group.
    assert!(a_names[0].contains("sort(D)"));
    assert_eq!(a_groups[0], None);
    let arm_groups: Vec<Option<u32>> = a_groups.iter().copied().filter(|g| g.is_some()).collect();
    assert_eq!(arm_groups.len(), 3, "two index arms + one hash arm");
    assert!(arm_groups.iter().all(|g| *g == arm_groups[0]));
}

#[test]
fn unique_arms_run_serially_before_the_fan_out() {
    let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
    let tid = db.create_table("R", Schema::new(3, 64));
    db.create_index(tid, IndexDef::secondary(0).unique())
        .unwrap();
    db.create_index(tid, IndexDef::secondary(1).unique())
        .unwrap();
    db.create_index(tid, IndexDef::secondary(2)).unwrap();
    for i in 0..2_000u64 {
        db.insert(tid, &Tuple::new(vec![i, 1_000_000 + i, i % 97]))
            .unwrap();
    }
    let d: Vec<u64> = (0..2_000).step_by(4).collect();
    let out = strategy::vertical_sort_merge(&mut db, tid, 0, &d, 2).unwrap();
    db.check_consistency(tid).unwrap();

    let phases = &out.report.phases;
    let pos_of = |needle: &str| {
        phases
            .iter()
            .position(|p| p.name.contains(needle))
            .unwrap_or_else(|| panic!("phase {needle} missing"))
    };
    // I_B is unique: §3.1 sequences its arm before the concurrent group,
    // and it runs on the caller's thread (no group tag). I_C is the only
    // remaining arm, so it forms the fan-out group.
    let unique_arm = pos_of("bd I_B");
    let fan_arm = pos_of("bd I_C");
    assert!(phases[unique_arm].group.is_none(), "unique arm is serial");
    assert!(phases[fan_arm].group.is_some(), "non-unique arm fans out");
    assert!(unique_arm < fan_arm, "unique arm precedes the fan-out");
}

#[test]
fn transient_fault_within_pool_retries_completes_bit_identical() {
    let (mut db_ref, w) = build(3_000, 41);
    let (mut db_faulty, _) = build(3_000, 41);
    let d = w.delete_set(0.3, 42);

    let clean = strategy::vertical_sort_merge(&mut db_ref, w.tid, 0, &d, 3).unwrap();

    // A transient fault at a leaf of I_B, sized inside the buffer pool's
    // bounded retry (3 failures against 3 retries): the pool's backoff
    // absorbs it and the statement completes as if nothing happened.
    let bad = db_faulty
        .table(w.tid)
        .unwrap()
        .index_on(1)
        .unwrap()
        .tree
        .first_leaf()
        .unwrap();
    db_faulty.pool().with_disk(|disk| {
        disk.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(bad).transient(3)))
    });

    let faulty = strategy::vertical_sort_merge(&mut db_faulty, w.tid, 0, &d, 3)
        .expect("transient fault must not abort the statement");

    assert_eq!(clean.deleted, faulty.deleted, "same rows deleted");
    assert!(faulty.report.io.retries > 0, "backoff retries recorded");
    db_faulty.check_consistency(w.tid).unwrap();
    let eq = audit_equivalence(&db_ref, &db_faulty, w.tid).unwrap();
    assert!(
        eq.is_clean(),
        "faulty run diverged from fault-free run: {eq}"
    );
}

#[test]
fn failing_arm_aborts_run_without_poisoning_the_pool() {
    let (mut db, w) = build(3_000, 31);
    let d = w.delete_set(0.3, 32);

    // Inject the fault at a leaf of I_B — read only by that fan-out arm.
    let bad = db
        .table(w.tid)
        .unwrap()
        .index_on(1)
        .unwrap()
        .tree
        .first_leaf()
        .unwrap();
    db.pool()
        .with_disk(|disk| disk.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(bad))));

    let err = strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, 3).unwrap_err();
    assert_eq!(
        err,
        DbError::Storage(StorageError::InjectedFault(bad)),
        "the injected error surfaces"
    );
    assert_eq!(db.pool().pinned_frames(), 0, "no pins survive the abort");

    // The pool keeps working once the fault is cleared, and the audit can
    // inspect the survivor state (heap and probe index are past their
    // passes; the failed arm's index still holds the dead entries, which
    // the audit reports as findings rather than crashing).
    db.pool().with_disk(|disk| disk.clear_fault_plan());
    let report = audit_table(&db, w.tid).unwrap();
    assert!(
        !report.is_clean(),
        "interrupted run must leave an auditable divergence"
    );
}
