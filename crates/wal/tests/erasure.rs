//! Durable erasure campaigns over a three-table cascade: crash-safe
//! resumption, cooperative cancellation, log redaction, and the
//! crash/torn-write sweeps that prove the proof-of-deletion holds after
//! recovery at every I/O of the whole campaign.

use std::sync::{Arc, Mutex};

use bd_core::{
    audit_catalog, audit_equivalence, collect_sensitive, plan_cascade, verify_erasure, Database,
    DatabaseConfig, ForeignKey, IndexDef, Schema, TableId, Tuple,
};
use bd_storage::{FaultPlan, Pacer, StorageError};
use bd_wal::{
    recover, recover_campaign, run_erasure_campaign, sweep, ErasureCampaign, Fault, LogManager,
    LogRecord, SweepReport, WalError,
};

// High-entropy values for every attribute of every victim row: the proof
// byte-scans whole page images, so low-entropy values (row numbers, small
// constants) would collide with page metadata and free-text bytes.
fn tag(ns: u64, i: u64) -> u64 {
    0xE57A_0000_0000_0000 | (ns << 40) | (i * 0x0101 + 1)
}

const N_ROOT: u64 = 48;

/// Victim rows the reference campaign deletes: half the roots, each with
/// 2 B children and 4 C grandchildren.
const DELETED: usize = (N_ROOT as usize / 2) * (1 + 2 + 4);

/// A ← B ← C cascade: deleting a root in A takes its two B children and
/// their two C children each. Every table also holds orphan-free survivor
/// rows (roots not in the victim set keep their whole subtree), so each
/// step deletes only part of its table. B carries a hash index so the
/// sweep covers the hash scrub surface too.
fn build() -> (Database, TableId) {
    // A pool far smaller than the working set, like the bulk-delete
    // sweeps: with everything cached the campaign would issue almost no
    // disk I/O and leave nothing to sweep.
    let mut db = Database::new(DatabaseConfig::with_total_memory(32 << 10));
    let mut tids = Vec::new();
    for name in ["A", "B", "C"] {
        let tid = db.create_table(name, Schema::new(3, 64));
        db.create_index(tid, IndexDef::secondary(0).unique())
            .unwrap();
        db.create_index(tid, IndexDef::secondary(1)).unwrap();
        tids.push(tid);
    }
    let (a, b, c) = (tids[0], tids[1], tids[2]);
    db.create_hash_index(b, 2).unwrap();
    db.add_foreign_key(ForeignKey::cascade("fk_ab", a, 0, b, 1));
    db.add_foreign_key(ForeignKey::cascade("fk_bc", b, 0, c, 1));
    for i in 0..N_ROOT {
        db.insert(a, &Tuple::new(vec![tag(1, i), tag(6, i), tag(7, i)]))
            .unwrap();
        for j in 0..2 {
            let bk = tag(2, i * 4 + j);
            db.insert(b, &Tuple::new(vec![bk, tag(1, i), tag(8, i * 4 + j)]))
                .unwrap();
            for k in 0..2 {
                db.insert(
                    c,
                    &Tuple::new(vec![
                        tag(3, (i * 4 + j) * 4 + k),
                        bk,
                        tag(9, (i * 4 + j) * 4 + k),
                    ]),
                )
                .unwrap();
            }
        }
    }
    (db, a)
}

/// Every second root: half of A cascades away, the other half survives
/// with its whole subtree.
fn victims() -> Vec<u64> {
    (0..N_ROOT).step_by(2).map(|i| tag(1, i)).collect()
}

fn rows(db: &Database, tid: TableId) -> usize {
    db.table(tid).unwrap().heap.dump().unwrap().len()
}

#[test]
fn campaign_erases_the_cascade_and_proves_it() {
    let (mut db, root) = build();
    db.pool().flush_all().unwrap();
    let d = victims();
    let plan = plan_cascade(&db, root, 0, &d).unwrap();
    assert_eq!(plan.steps.len(), 3, "three-table cascade");
    let sensitive = collect_sensitive(&db, &plan).unwrap();

    let log = LogManager::new();
    let out = run_erasure_campaign(&mut db, &plan, &log, 1, &Pacer::new()).unwrap();
    assert_eq!(out.steps_run, 3);
    assert_eq!(out.deleted, DELETED);
    assert_eq!(rows(&db, root), N_ROOT as usize / 2);
    assert!(out.redacted > 0, "key-bearing records must be redacted");
    assert!(out.report.is_clean(), "{}", out.report.render());

    // The proof holds externally too, against the pre-campaign sensitive
    // list (the campaign's own copy of it was destroyed with the log's
    // key-bearing records).
    let raw = log.raw_bytes();
    let proof = verify_erasure(&db, &sensitive, &[("wal", &raw)]).unwrap();
    assert!(proof.is_clean(), "{}", proof.render());
    let closing = log.records().unwrap();
    assert!(closing
        .iter()
        .any(|r| matches!(r, LogRecord::CampaignCommit { id } if *id == out.id)));
    for t in 0..3 {
        audit_catalog(&db, t).unwrap().into_result().unwrap();
        db.check_consistency(t).unwrap();
    }
}

#[test]
fn redacted_log_is_inert_for_every_recovery_path() {
    let (mut db, root) = build();
    db.pool().flush_all().unwrap();
    let d = victims();
    let plan = plan_cascade(&db, root, 0, &d).unwrap();
    let log = LogManager::new();
    run_erasure_campaign(&mut db, &plan, &log, 1, &Pacer::new()).unwrap();

    // Every record still decodes (redaction preserves offsets and
    // lengths), but no victim key survives in the raw image…
    let records = log.records().unwrap();
    assert!(records
        .iter()
        .any(|r| matches!(r, LogRecord::Redacted { .. })));
    let raw = log.raw_bytes();
    for key in &d {
        let img = key.to_le_bytes();
        assert!(
            !raw.windows(8).any(|w| w == img),
            "victim key {key:#x} survives in the redacted log"
        );
    }
    // …so both recovery paths find nothing to do: the campaign's begin
    // record is gone (redaction doubles as the idempotence guard), and so
    // is every statement-level BulkBegin.
    assert!(recover_campaign(&mut db, &log, 1, &[]).unwrap().is_none());
    let before = rows(&db, root);
    assert_eq!(recover(&mut db, root, &log, &[]).unwrap(), 0);
    assert_eq!(rows(&db, root), before);
}

#[test]
fn cancel_before_any_step_leaves_the_database_untouched() {
    let (mut db, root) = build();
    db.pool().flush_all().unwrap();
    let plan = plan_cascade(&db, root, 0, &victims()).unwrap();
    let log = LogManager::new();
    let pacer = Pacer::with_hook(|_| Err(StorageError::Cancelled));
    let err = run_erasure_campaign(&mut db, &plan, &log, 1, &pacer).unwrap_err();
    assert!(
        matches!(err, WalError::Db(_)),
        "cancel surfaces as an error"
    );

    let records = log.records().unwrap();
    assert!(records
        .iter()
        .any(|r| matches!(r, LogRecord::CampaignCancelled { completed: 0, .. })));
    assert_eq!(rows(&db, 0), N_ROOT as usize);
    assert_eq!(rows(&db, 1), 2 * N_ROOT as usize);
    assert_eq!(rows(&db, 2), 4 * N_ROOT as usize);
    // A cancelled campaign is closed: restart resumes nothing.
    assert!(recover_campaign(&mut db, &log, 1, &[]).unwrap().is_none());
}

#[test]
fn cancel_mid_campaign_keeps_a_consistent_recorded_prefix() {
    let (mut db, root) = build();
    db.pool().flush_all().unwrap();
    let plan = plan_cascade(&db, root, 0, &victims()).unwrap();
    let step_tables: Vec<TableId> = plan.steps.iter().map(|s| s.table).collect();
    let log = LogManager::new();
    // Check #1 is the between-step gate before step 0; #2 lands inside
    // step 0's body (the pacer is installed there, never on a gate). A
    // cancel inside a step is *deferred* — the step runs to completion and
    // the cancel is observed at the next between-step gate, so the
    // campaign never abandons a step half-run.
    let mid_step = Arc::new(Mutex::new(None));
    let pacer = {
        let mid_step = mid_step.clone();
        Pacer::with_hook(move |n| {
            if n == 2 {
                *mid_step.lock().unwrap() = Some(!bd_storage::pacer::installed().is_empty());
            }
            if n >= 2 {
                return Err(StorageError::Cancelled);
            }
            Ok(())
        })
    };
    assert!(
        run_erasure_campaign(&mut db, &plan, &log, 1, &pacer).is_err(),
        "cancelled run must error"
    );
    assert_eq!(
        *mid_step.lock().unwrap(),
        Some(true),
        "the cancel must land inside step 0"
    );

    let records = log.records().unwrap();
    let completed = records
        .iter()
        .find_map(|r| match r {
            LogRecord::CampaignCancelled { completed, .. } => Some(*completed as usize),
            _ => None,
        })
        .expect("campaign must be sealed with a cancel record");
    assert_eq!(
        completed, 1,
        "the step the cancel landed in must finish first"
    );
    let sealed = records
        .iter()
        .filter(|r| matches!(r, LogRecord::CampaignStepDone { .. }))
        .count();
    assert_eq!(sealed, completed);
    // The completed prefix is durable and consistent; later steps never
    // started. Steps run children-first, so the prefix holds no dangling
    // child references.
    let (reference, _) = build();
    for (i, &t) in step_tables.iter().enumerate() {
        db.check_consistency(t).unwrap();
        audit_catalog(&db, t).unwrap().into_result().unwrap();
        if i >= completed {
            let eq = audit_equivalence(&reference, &db, t).unwrap();
            assert!(eq.is_clean(), "unstarted step's table changed: {eq}");
        }
    }
    assert!(
        rows(&db, step_tables[0]) < 4 * N_ROOT as usize,
        "the completed step must have deleted its victims"
    );
    assert!(recover_campaign(&mut db, &log, 1, &[]).unwrap().is_none());
}

#[test]
fn single_crash_point_recovers_into_the_same_campaign() {
    // Reference: fault-free.
    let (mut reference, root) = build();
    reference.pool().flush_all().unwrap();
    let d = victims();
    let plan = plan_cascade(&reference, root, 0, &d).unwrap();
    let sensitive = collect_sensitive(&reference, &plan).unwrap();
    let ref_log = LogManager::new();
    let ref_c0 = reference.pool().with_disk(|disk| disk.accesses());
    run_erasure_campaign(&mut reference, &plan, &ref_log, 1, &Pacer::new()).unwrap();
    let total = reference.pool().with_disk(|disk| disk.accesses()) - ref_c0;

    // Crash at roughly 40% of the campaign's access stream.
    let (mut db, _) = build();
    db.pool().flush_all().unwrap();
    let log = LogManager::new();
    let plan_n = plan_cascade(&db, root, 0, &d).unwrap();
    let c0 = db.pool().with_disk(|disk| disk.accesses());
    db.pool().with_disk(|disk| {
        disk.set_fault_plan(FaultPlan::new().crash_at_access(c0 + total * 2 / 5))
    });
    assert!(run_erasure_campaign(&mut db, &plan_n, &log, 1, &Pacer::new()).is_err());
    db.pool().crash();
    db.pool().with_disk(|disk| disk.clear_fault_plan());

    let out = recover_campaign(&mut db, &log, 1, &[])
        .unwrap()
        .expect("the open campaign must be found and resumed");
    assert!(out.report.is_clean(), "{}", out.report.render());
    let raw = log.raw_bytes();
    let proof = verify_erasure(&db, &sensitive, &[("wal", &raw)]).unwrap();
    assert!(proof.is_clean(), "{}", proof.render());
    for t in 0..3 {
        let eq = audit_equivalence(&reference, &db, t).unwrap();
        assert!(eq.is_clean(), "table {t} diverged: {eq}");
        audit_catalog(&db, t).unwrap().into_result().unwrap();
    }
    // Second restart: the campaign is closed (and redacted away).
    db.pool().crash();
    assert!(recover_campaign(&mut db, &log, 1, &[]).unwrap().is_none());
}

fn erasure_sweep(workers: usize, fault: Fault) -> SweepReport {
    let d = victims();
    sweep(
        build,
        &mut ErasureCampaign::new(0, &d, workers),
        fault,
        0,
        None,
    )
    .unwrap()
}

#[test]
fn serial_campaign_proof_holds_at_every_crash_point() {
    let report = erasure_sweep(1, Fault::Crash);
    assert!(
        report.recovered_points > 50,
        "sweep too small to mean anything: {report:?}"
    );
    assert_eq!(report.deleted, DELETED);
    assert_eq!(report.steps, 3);
}

#[test]
fn parallel_campaign_proof_holds_at_every_crash_point() {
    let report = erasure_sweep(3, Fault::Crash);
    assert!(
        report.recovered_points > 50,
        "sweep too small to mean anything: {report:?}"
    );
    assert_eq!(report.deleted, DELETED);
}

#[test]
fn serial_campaign_proof_holds_at_every_torn_write() {
    let report = erasure_sweep(1, Fault::TornWrite);
    assert!(
        report.recovered_points + report.silent_points >= 10,
        "sweep tore too few writes to mean anything: {report:?}"
    );
    assert_eq!(report.deleted, DELETED);
}

#[test]
fn parallel_campaign_proof_holds_at_every_torn_write() {
    let report = erasure_sweep(3, Fault::TornWrite);
    assert!(
        report.recovered_points + report.silent_points >= 10,
        "sweep tore too few writes to mean anything: {report:?}"
    );
    assert_eq!(report.deleted, DELETED);
}
