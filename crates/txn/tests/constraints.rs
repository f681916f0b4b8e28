//! RESTRICT/CASCADE constraints under the parallel executor.
//!
//! The ordering contract under test: constraint enforcement happens at
//! *plan* time, before any fan-out arm runs, any index goes offline, or
//! any page is pinned for writing — a RESTRICT abort must leave zero
//! pinned frames, every structure untouched, and a clean catalog audit.

use bd_btree::ReorgPolicy;
use bd_core::{
    audit_catalog, audit_equivalence, plan_cascade, run_cascade, run_cascade_step, Database,
    DatabaseConfig, DbError, ForeignKey, IndexDef, Schema, TableId, Tuple,
};

// High-entropy values, as in the WAL campaign fixture the shape mirrors.
fn tag(ns: u64, i: u64) -> u64 {
    0xFE57_0000_0000_0000 | (ns << 40) | (i * 0x0101 + 1)
}

const N_ROOT: u64 = 12;

/// Victims: half the roots; each takes 2 B children and 4 C grandchildren.
const DELETED: usize = (N_ROOT as usize / 2) * (1 + 2 + 4);

/// A ← B ← C, both edges CASCADE. Same shape as the WAL campaign
/// fixture: every table keeps survivor rows, B carries a hash index.
fn build() -> (Database, TableId) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(4 << 20));
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
                let ck = (i * 4 + j) * 4 + k;
                db.insert(c, &Tuple::new(vec![tag(3, ck), bk, tag(9, ck)]))
                    .unwrap();
            }
        }
    }
    (db, a)
}

/// The cascade fixture plus a fourth table R referencing A with RESTRICT:
/// the campaign's closure is blocked no matter how much of it is CASCADE.
fn build_with_restrict() -> (Database, TableId, TableId) {
    let (mut db, a) = build();
    let r = db.create_table("R", Schema::new(2, 64));
    db.create_index(r, IndexDef::secondary(0)).unwrap();
    db.add_foreign_key(ForeignKey::restrict("fk_ar", a, 0, r, 0));
    // Every root is referenced, so any victim set trips the constraint.
    for i in 0..N_ROOT {
        db.insert(r, &Tuple::new(vec![tag(1, i), tag(4, i)]))
            .unwrap();
    }
    (db, a, r)
}

fn victims() -> Vec<u64> {
    (0..N_ROOT).step_by(2).map(|i| tag(1, i)).collect()
}

#[test]
fn cascade_under_the_parallel_executor_matches_serial() {
    let (mut serial, root) = build();
    let (mut parallel, _) = build();
    let d = victims();
    let plan = plan_cascade(&serial, root, 0, &d).unwrap();
    assert_eq!(plan.steps.len(), 3);

    run_cascade(&mut serial, &plan, ReorgPolicy::FreeAtEmpty).unwrap();
    let mut deleted = 0;
    for step in &plan.steps {
        deleted += run_cascade_step(&mut parallel, step, ReorgPolicy::FreeAtEmpty, 3)
            .unwrap()
            .deleted
            .len();
    }
    assert_eq!(deleted, DELETED);
    for t in 0..3 {
        let eq = audit_equivalence(&serial, &parallel, t).unwrap();
        assert!(eq.is_clean(), "table {t} diverged under fan-out: {eq}");
        parallel.check_consistency(t).unwrap();
        audit_catalog(&parallel, t).unwrap().into_result().unwrap();
    }
    assert_eq!(parallel.pool().pinned_frames(), 0);
}

#[test]
fn restrict_abort_under_the_parallel_executor_leaves_zero_pins_and_clean_audit() {
    let (db, root, _) = build_with_restrict();
    let (reference, _, _) = build_with_restrict();

    // Enforcement happens at plan time — before any fan-out arm exists to
    // race it, "no work needs to be undone".
    let err = plan_cascade(&db, root, 0, &victims()).unwrap_err();
    assert!(
        matches!(err, DbError::ForeignKeyViolation { ref name, .. } if name == "fk_ar"),
        "unexpected error: {err}"
    );
    assert_eq!(db.pool().pinned_frames(), 0, "abort must release every pin");
    for t in 0..4 {
        let eq = audit_equivalence(&reference, &db, t).unwrap();
        assert!(eq.is_clean(), "aborted plan touched table {t}: {eq}");
        audit_catalog(&db, t).unwrap().into_result().unwrap();
    }
}
