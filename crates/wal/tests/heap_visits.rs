//! The logged delete visits the heap the way the offline statement does:
//! the victim rows are materialized and the table pass runs through
//! read-ahead, so the statement positions the head once per chain of pages,
//! not once per victim.

use bd_core::{Database, DatabaseConfig, IndexDef};
use bd_wal::{run_bulk_delete, CrashInjector, LogManager};
use bd_workload::TableSpec;

/// Positioned reads per victim the uncrashed statement may make. It makes
/// 0.029 (43 for 1 500 victims); a heap read per victim in `materialize`
/// plus a table pass without read-ahead made 0.425 (638).
const RANDOM_READS_PER_VICTIM: f64 = 0.1;

#[test]
fn logged_delete_positions_per_chain_not_per_victim() {
    // 512-byte rows (seven to a page) and a 15 % delete leave one or two
    // victims on most heap pages, with gaps between them; 48 pool frames
    // hold none of the structures.
    let mut db = Database::new(DatabaseConfig::with_total_memory(256 << 10));
    assert_eq!(db.pool().capacity(), 48);
    let spec = TableSpec {
        record_len: 512,
        ..TableSpec::tiny(10_000)
    };
    let w = spec.build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    db.create_hash_index(w.tid, 3).unwrap();
    let d = w.delete_set(0.15, 2);
    db.pool().clear_cache().unwrap();
    db.pool().reset_stats();

    let log = LogManager::new();
    let n = run_bulk_delete(&mut db, w.tid, 0, &d, &log, CrashInjector::none()).unwrap();
    assert_eq!(n, d.len());
    db.pool().flush_all().unwrap();
    let s = db.pool().disk_stats();
    let per_victim = s.random_reads as f64 / n as f64;
    assert!(
        per_victim <= RANDOM_READS_PER_VICTIM,
        "{per_victim:.3} positioned reads per victim ({} for {n}): {s:?}",
        s.random_reads
    );
    db.check_consistency(w.tid).unwrap();
}
