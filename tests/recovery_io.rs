//! Tier-1 pin on what crash recovery reads. An interrupted logged delete
//! is finished from the log: its begin record carries the table's
//! counters, each serial pass resumes exactly at its last progress
//! record, and the catalog check walks only structures that lost a page
//! since the last snapshot. So recovery reads no page beyond the redo
//! passes, and none at all when every pass is done.

use bulk_delete::prelude::*;

use bd_storage::{Pacer, StorageError};
use bd_wal::{LogRecord, StructureId, WalError};

/// Victims between two of the logged driver's progress records.
const CHUNK: u32 = 2048;

/// The `tests/driver_streams.rs` table (12 000 rows of 512 B, a unique
/// probe index, two non-unique B-trees and a hash index, a 48-frame pool),
/// with 60 % of the rows in `D`: three full progress chunks per pass.
/// Passes: 0 probe, 1 table, 2–3 the B-trees on attributes 1 and 2, 4 the
/// hash index.
fn build() -> (Database, Workload, Vec<Key>) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(256 << 10));
    let w = TableSpec {
        record_len: 512,
        ..TableSpec::tiny(12_000)
    }
    .with_seed(1)
    .build(&mut db)
    .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    db.create_hash_index(w.tid, 3).unwrap();
    let d = w.delete_set(0.6, 2);
    assert!(d.len() > 3 * CHUNK as usize, "three full chunks per pass");
    db.pool().flush_all().unwrap();
    (db, w, d)
}

/// Run the logged delete into `site`, then lose the pool's frames and
/// the table's counters, as a restart does.
fn crash_at(site: CrashSite) -> (Database, Workload, Vec<Key>, LogManager) {
    let (mut db, w, d) = build();
    let log = LogManager::new();
    let err = run_bulk_delete(&mut db, w.tid, 0, &d, &log, CrashInjector::at(site)).unwrap_err();
    assert!(matches!(err, WalError::Crashed(s) if s == site), "{err}");
    db.pool().crash();
    db.scramble_counters(w.tid).unwrap();
    db.pool().reset_stats();
    (db, w, d, log)
}

#[test]
fn recovery_with_every_pass_done_reads_nothing() {
    let (mut db, w, d, log) = crash_at(CrashSite::AfterStructure(4));
    assert_eq!(recover(&mut db, w.tid, &log, &[]).unwrap(), d.len());
    assert_eq!(
        db.pool().disk_stats(),
        DiskStats::default(),
        "no I/O at all"
    );
    db.check_consistency(w.tid).unwrap();
}

#[test]
fn recovery_resumes_the_table_pass_at_its_last_progress_record() {
    let k = 2;
    let (mut db, w, d, log) = crash_at(CrashSite::AtProgress(1, k));
    let before = log.len();

    // A pacer that cancels from its first checkpoint stops recovery at
    // its first page visit: the table pass's first heap page. Nothing was
    // read before it.
    let pacer = Pacer::with_hook(|_| Err(StorageError::Cancelled));
    {
        let _pace = pacer.enter();
        let err = recover(&mut db, w.tid, &log, &[]).unwrap_err();
        assert!(
            matches!(err, WalError::Db(DbError::Storage(StorageError::Cancelled))),
            "{err}"
        );
    }
    assert_eq!(db.pool().disk_stats().pages_read, 0);
    assert_eq!(log.len(), before, "nothing logged before the first chunk");

    db.pool().reset_stats();
    assert_eq!(recover(&mut db, w.tid, &log, &[]).unwrap(), d.len());
    let first_redo = log.records().unwrap()[before..]
        .iter()
        .find_map(|r| match r {
            LogRecord::Progress {
                structure: StructureId::Table,
                done,
            } => Some(*done),
            _ => None,
        });
    assert_eq!(first_redo, Some((k as u32 + 1) * CHUNK));

    // Everything recovery read, pinned: the table pass from victim
    // k × 2048, then both B-tree passes and the hash pass in full.
    assert_eq!(
        db.pool().disk_stats(),
        DiskStats {
            random_reads: 6,
            sequential_reads: 254,
            random_writes: 30,
            sequential_writes: 0,
            pages_read: 908,
            pages_written: 961,
            retries: 0,
            sim_ms: 1185.7200000000003,
        }
    );
    db.check_consistency(w.tid).unwrap();
}
