//! Tests of the front-door API: `Database::delete_in` (plan + constraints +
//! vertical execution in one call).

use bulk_delete::prelude::*;

use bd_core::ForeignKey;
use bd_workload::TableSpec;

#[test]
fn delete_in_plans_and_executes() {
    let mut db = Database::new(DatabaseConfig::with_total_memory(2 << 20));
    let w = TableSpec::tiny(1000).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    let d = w.delete_set(0.3, 1);
    let out = db.delete_in(w.tid, 0, &d).unwrap();
    assert_eq!(out.deleted.len(), d.len());
    assert_eq!(out.report.strategy, "bulk delete");
    db.check_consistency(w.tid).unwrap();
}

#[test]
fn delete_in_enforces_registered_constraints() {
    let mut db = Database::new(DatabaseConfig::with_total_memory(2 << 20));
    let parent = db.create_table("p", Schema::new(2, 32));
    db.create_index(parent, IndexDef::secondary(0).unique())
        .unwrap();
    let child = db.create_table("c", Schema::new(2, 32));
    db.create_index(child, IndexDef::secondary(0).unique())
        .unwrap();
    db.create_index(child, IndexDef::secondary(1)).unwrap();
    for i in 0..50u64 {
        db.insert(parent, &Tuple::new(vec![i, i])).unwrap();
        if i < 25 {
            db.insert(child, &Tuple::new(vec![1000 + i, i])).unwrap();
        }
    }
    db.add_foreign_key(ForeignKey::restrict("fk", parent, 0, child, 1));
    // Referenced keys: blocked.
    assert!(matches!(
        db.delete_in(parent, 0, &[3, 4]),
        Err(DbError::ForeignKeyViolation { .. })
    ));
    // Unreferenced keys: fine.
    let out = db.delete_in(parent, 0, &[40, 41]).unwrap();
    assert_eq!(out.deleted.len(), 2);
    db.check_consistency(parent).unwrap();
    db.check_consistency(child).unwrap();
}

#[test]
fn delete_in_without_probe_index_fails() {
    let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
    let w = TableSpec::tiny(100).build(&mut db).unwrap();
    assert!(matches!(
        db.delete_in(w.tid, 0, &[10]),
        Err(DbError::NoProbeIndex { attr: 0 })
    ));
}

#[test]
fn delete_in_dedups_its_key_list() {
    let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
    let w = TableSpec::tiny(200).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    let k = w.a_values[0];
    let out = db.delete_in(w.tid, 0, &[k, k, k]).unwrap();
    assert_eq!(out.deleted.len(), 1);
    db.check_consistency(w.tid).unwrap();
}

/// A non-unique probe attribute selects more rows than it names keys: the
/// plan must not be sized by the key count (600 keys, 1 200 rows, 16 KiB of
/// workspace used to end in `BudgetExceeded`).
#[test]
fn delete_in_on_a_non_unique_attribute_cannot_overrun_the_workspace() {
    let mut db = Database::new(DatabaseConfig::with_total_memory(64 << 10));
    let tid = db.create_table("R", Schema::new(3, 64));
    db.create_index(tid, IndexDef::secondary(0).unique())
        .unwrap();
    db.create_index(tid, IndexDef::secondary(1)).unwrap();
    db.create_index(tid, IndexDef::secondary(2)).unwrap();
    for i in 0..4_000u64 {
        db.insert(tid, &Tuple::new(vec![i, i / 2, i % 97])).unwrap();
    }
    let keys: Vec<u64> = (0..600).collect();
    let out = db.delete_in(tid, 1, &keys).unwrap();
    assert_eq!(out.deleted.len(), 1_200);
    db.check_consistency(tid).unwrap();
}
