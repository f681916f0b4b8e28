//! Crash-recovery tests: a bulk delete interrupted at every interesting
//! point must, after restart, converge to exactly the no-crash state.

use bd_core::{Database, DatabaseConfig, IndexDef, Tuple};
use bd_txn::SideOp;
use bd_wal::{recover, run_bulk_delete, CrashInjector, CrashSite, LogManager};
use bd_workload::TableSpec;

// Phases for this layout: 0 = probe index, 1 = table, 2–3 = secondary
// B-trees on attrs 1 and 2, 4 = hash index on attr 3 (hash runs last).
fn setup(n_rows: usize) -> (Database, usize, Vec<u64>) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(4 << 20));
    let w = TableSpec::tiny(n_rows).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    db.create_hash_index(w.tid, 3).unwrap();
    (db, w.tid, w.a_values)
}

fn reference_state(n_rows: usize, victims: &[u64]) -> Vec<(u64, u64, u64, u64)> {
    let (mut db, tid, _) = setup(n_rows);
    let log = LogManager::new();
    let n = run_bulk_delete(&mut db, tid, 0, victims, &log, CrashInjector::none()).unwrap();
    assert_eq!(n, victims.len());
    db.check_consistency(tid).unwrap();
    snapshot(&db, tid)
}

fn snapshot(db: &Database, tid: usize) -> Vec<(u64, u64, u64, u64)> {
    let table = db.table(tid).unwrap();
    let mut rows: Vec<(u64, u64, u64, u64)> = table
        .heap
        .scan()
        .map(|(_, bytes)| {
            let t = table.schema.decode(&bytes);
            (t.attr(0), t.attr(1), t.attr(2), t.attr(3))
        })
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn no_crash_run_commits() {
    let (mut db, tid, a_values) = setup(1500);
    let victims: Vec<u64> = a_values.iter().copied().step_by(4).collect();
    let log = LogManager::new();
    let n = run_bulk_delete(&mut db, tid, 0, &victims, &log, CrashInjector::none()).unwrap();
    assert_eq!(n, victims.len());
    db.check_consistency(tid).unwrap();
    // Recovery over a committed log is a no-op.
    let redone = recover(&mut db, tid, &log, &[]).unwrap();
    assert_eq!(redone, 0);
}

fn crash_and_recover_at(site: CrashSite) {
    let n_rows = 1500;
    let (mut db, tid, a_values) = setup(n_rows);
    let victims: Vec<u64> = a_values.iter().copied().step_by(4).collect();
    let expect = reference_state(n_rows, &victims);

    let log = LogManager::new();
    let err =
        run_bulk_delete(&mut db, tid, 0, &victims, &log, CrashInjector::at(site)).unwrap_err();
    assert!(matches!(err, bd_wal::WalError::Crashed(s) if s == site));

    // Volatile memory is lost; only the disk and the log survive.
    db.pool().crash();

    let n = recover(&mut db, tid, &log, &[]).unwrap();
    assert_eq!(n, victims.len());
    db.check_consistency(tid).unwrap();
    assert_eq!(snapshot(&db, tid), expect, "crash site {site:?}");

    // Recovery is idempotent: a second restart finds a committed log.
    db.pool().crash();
    assert_eq!(recover(&mut db, tid, &log, &[]).unwrap(), 0);
    db.check_consistency(tid).unwrap();
}

#[test]
fn crash_after_materialize() {
    crash_and_recover_at(CrashSite::AfterMaterialize);
}

#[test]
fn crash_mid_probe_index_pass() {
    crash_and_recover_at(CrashSite::MidStructure(0));
}

#[test]
fn crash_after_probe_index_pass() {
    crash_and_recover_at(CrashSite::AfterStructure(0));
}

#[test]
fn crash_mid_table_pass() {
    crash_and_recover_at(CrashSite::MidStructure(1));
}

#[test]
fn crash_after_table_pass() {
    crash_and_recover_at(CrashSite::AfterStructure(1));
}

#[test]
fn crash_mid_first_secondary_index() {
    crash_and_recover_at(CrashSite::MidStructure(2));
}

#[test]
fn crash_mid_last_secondary_index() {
    crash_and_recover_at(CrashSite::MidStructure(3));
}

#[test]
fn crash_mid_hash_pass() {
    crash_and_recover_at(CrashSite::MidStructure(4));
}

#[test]
fn crash_just_before_commit() {
    crash_and_recover_at(CrashSite::AfterStructure(4));
}

#[test]
fn crash_after_last_btree_pass() {
    crash_and_recover_at(CrashSite::AfterStructure(3));
}

#[test]
fn recovery_applies_pending_side_files_last() {
    let (mut db, tid, a_values) = setup(800);
    let victims: Vec<u64> = a_values.iter().copied().step_by(5).collect();
    let log = LogManager::new();
    let err = run_bulk_delete(
        &mut db,
        tid,
        0,
        &victims,
        &log,
        CrashInjector::at(CrashSite::MidStructure(2)),
    )
    .unwrap_err();
    assert!(matches!(err, bd_wal::WalError::Crashed(_)));
    db.pool().crash();

    // An updater's side-file captured one pending index-1 insert; §3.2
    // requires it to be applied only after the bulk delete finishes. The
    // entry uses a synthetic RID outside the heap, so the check is purely
    // about ordering and index content (the crash_recovery example covers
    // the full updater-row case).
    let new_row = Tuple::new(vec![9_999_001, 8_888_001, 7_777_001, 3]);
    let side = vec![(
        1usize,
        vec![SideOp::Insert {
            key: new_row.attr(1),
            rid: bd_storage::Rid::new(999_999, 0),
        }],
    )];
    let n = recover(&mut db, tid, &log, &side).unwrap();
    assert_eq!(n, victims.len());
    let table = db.table(tid).unwrap();
    let hits = table
        .index_on(1)
        .unwrap()
        .tree
        .search(new_row.attr(1))
        .unwrap();
    assert_eq!(hits, vec![bd_storage::Rid::new(999_999, 0)]);
}

#[test]
fn log_survives_multiple_bulk_deletes() {
    let (mut db, tid, a_values) = setup(1000);
    let log = LogManager::new();
    let first: Vec<u64> = a_values.iter().copied().step_by(4).collect();
    run_bulk_delete(&mut db, tid, 0, &first, &log, CrashInjector::none()).unwrap();
    let second: Vec<u64> = a_values.iter().copied().skip(1).step_by(4).collect();
    let err = run_bulk_delete(
        &mut db,
        tid,
        0,
        &second,
        &log,
        CrashInjector::at(CrashSite::MidStructure(1)),
    )
    .unwrap_err();
    assert!(matches!(err, bd_wal::WalError::Crashed(_)));
    db.pool().crash();
    // Recovery must pick the *second* (incomplete) bulk delete.
    let n = recover(&mut db, tid, &log, &[]).unwrap();
    assert_eq!(n, second.len());
    db.check_consistency(tid).unwrap();
    let remaining = db.table(tid).unwrap().heap.len();
    assert_eq!(remaining, 1000 - first.len() - second.len());
}

#[test]
fn crash_at_progress_resumes_from_last_chunk() {
    // 8000 rows, 80% deletes => multiple 2048-victim chunks per structure.
    let (mut db, tid, a_values) = setup(8000);
    let victims: Vec<u64> = a_values
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| i % 5 != 0)
        .map(|(_, v)| v)
        .collect();
    assert!(victims.len() > 2 * 2048, "need several progress chunks");
    let expect = {
        let (mut db2, tid2, _) = setup(8000);
        let log2 = LogManager::new();
        run_bulk_delete(&mut db2, tid2, 0, &victims, &log2, CrashInjector::none()).unwrap();
        snapshot(&db2, tid2)
    };

    // Crash after the *second* progress record of the table pass (phase 1),
    // so the log claims two durable chunks when recovery starts.
    let log = LogManager::new();
    let err = run_bulk_delete(
        &mut db,
        tid,
        0,
        &victims,
        &log,
        CrashInjector::at(CrashSite::AtProgress(1, 2)),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        bd_wal::WalError::Crashed(CrashSite::AtProgress(1, 2))
    ));
    let pre_crash_records = log.len();

    db.pool().crash();
    let n = recover(&mut db, tid, &log, &[]).unwrap();
    assert_eq!(n, victims.len());
    db.check_consistency(tid).unwrap();
    assert_eq!(snapshot(&db, tid), expect);

    // The table pass is in the serial prefix: it runs alone and flushes
    // with no pin held before it logs progress, so every claimed chunk is
    // durable and recovery resumes exactly at the last claim. The first
    // post-recovery progress record is the chunk after it.
    let records = log.records().unwrap();
    let (pre, post): (Vec<_>, Vec<_>) = records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r {
            bd_wal::LogRecord::Progress {
                structure: bd_wal::StructureId::Table,
                done,
            } => Some((i, *done)),
            _ => None,
        })
        .partition(|(i, _)| *i < pre_crash_records);
    assert_eq!(pre.len(), 2, "two table progress records before the crash");
    let first_post = post.first().expect("recovery re-logs table progress").1;
    assert_eq!(
        first_post,
        pre[1].1 + 2048,
        "recovery resumes at the last claimed chunk and re-runs none"
    );
}

#[test]
fn crash_at_progress_of_hash_pass() {
    // The hash phase runs last (phase 4 in this layout); crashing at its
    // second progress record exercises resume-from-progress for a hash
    // index, whose victims are ordered by bucket once per pass so the chunk
    // boundaries match recovery's.
    let (mut db, tid, a_values) = setup(8000);
    let victims: Vec<u64> = a_values
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| i % 5 != 0)
        .map(|(_, v)| v)
        .collect();
    assert!(victims.len() > 2 * 2048, "need several progress chunks");
    let expect = {
        let (mut db2, tid2, _) = setup(8000);
        let log2 = LogManager::new();
        run_bulk_delete(&mut db2, tid2, 0, &victims, &log2, CrashInjector::none()).unwrap();
        snapshot(&db2, tid2)
    };
    let log = LogManager::new();
    let err = run_bulk_delete(
        &mut db,
        tid,
        0,
        &victims,
        &log,
        CrashInjector::at(CrashSite::AtProgress(4, 2)),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        bd_wal::WalError::Crashed(CrashSite::AtProgress(4, 2))
    ));
    db.pool().crash();
    let n = recover(&mut db, tid, &log, &[]).unwrap();
    assert_eq!(n, victims.len());
    db.check_consistency(tid).unwrap();
    assert_eq!(snapshot(&db, tid), expect);
}

#[test]
fn resume_backs_off_one_chunk_for_the_half_flushed_chunk() {
    // A fan-out arm's pre-progress flush can skip frames pinned by sibling
    // arms, so the chunk its last Progress record claims may be only
    // partly durable. This log is hand-crafted to that state for the arm
    // on attribute 1 (pass 2, after the serial probe and table passes):
    // it claims Progress(2048) but only its first 1000 deletes reached the
    // disk. Resuming *at* 2048 strands entries 1000..2048 in the index
    // forever; recovery must back off one chunk and re-run it.
    let n_rows = 4000;
    let (mut db, tid, a_values) = setup(n_rows);
    let victims: Vec<u64> = a_values.iter().copied().take(3000).collect();
    let expect = reference_state(n_rows, &victims);

    // Materialized rows exactly as the driver would log them: heap scan
    // order, every attribute.
    let victim_set: std::collections::HashSet<u64> = victims.iter().copied().collect();
    let rows: Vec<bd_wal::MaterializedRow> = {
        let table = db.table(tid).unwrap();
        table
            .heap
            .scan()
            .map(|(rid, bytes)| (rid, table.schema.decode(&bytes)))
            .filter(|(_, t)| victim_set.contains(&t.attr(0)))
            .map(|(rid, t)| bd_wal::MaterializedRow {
                rid,
                attrs: t.attrs.clone(),
            })
            .collect()
    };
    assert!(rows.len() > 2048, "the claimed chunk must be a full chunk");

    let log = LogManager::new();
    log.append(&bd_wal::LogRecord::BulkBegin {
        probe_attr: 0,
        keys: victims.clone(),
        counters: db.table(tid).unwrap().counters(),
    });
    log.append(&bd_wal::LogRecord::RowsMaterialized { rows: rows.clone() });
    {
        // The arm's victim list: (attr 1, RID) in key order.
        let mut pairs: Vec<(u64, bd_storage::Rid)> =
            rows.iter().map(|r| (r.attrs[1], r.rid)).collect();
        pairs.sort_unstable();
        let tree = &mut db.table_mut(tid).unwrap().index_on_mut(1).unwrap().tree;
        for &(key, rid) in &pairs[..1000] {
            assert!(tree.delete_one(key, rid).unwrap());
        }
    }
    db.pool().flush_all().unwrap();
    log.append(&bd_wal::LogRecord::Progress {
        structure: bd_wal::StructureId::Index(1),
        done: 2048,
    });

    db.pool().crash();
    let n = recover(&mut db, tid, &log, &[]).unwrap();
    assert_eq!(n, rows.len());
    db.check_consistency(tid).unwrap();
    assert_eq!(snapshot(&db, tid), expect);
}

#[test]
fn recovery_reowns_a_page_freed_since_the_last_snapshot() {
    // A catalog free is durable the instant it happens; the write that
    // detaches the page from its tree goes through the pool and can be
    // lost. Model that after a crash in the table pass: a leaf of the
    // index on attribute 1, owned at the last catalog snapshot and still
    // reachable, is free in the catalog. Recovery walks that index, and
    // only because it lost a page since the snapshot, and re-owns the leaf.
    let (mut db, tid, a_values) = setup(1500);
    let victims: Vec<u64> = a_values.iter().copied().step_by(4).collect();
    let log = LogManager::new();
    let err = run_bulk_delete(
        &mut db,
        tid,
        0,
        &victims,
        &log,
        CrashInjector::at(CrashSite::MidStructure(1)),
    )
    .unwrap_err();
    assert!(matches!(err, bd_wal::WalError::Crashed(_)));
    db.pool().crash();
    let owner = bd_wal::StructureId::index_of(tid, 1);
    let leaf = db
        .table(tid)
        .unwrap()
        .index_on(1)
        .unwrap()
        .tree
        .first_leaf()
        .unwrap();
    assert_eq!(db.pool().catalog().owner(leaf), Some(owner));
    db.pool().free_page(leaf);

    recover(&mut db, tid, &log, &[]).unwrap();
    assert_eq!(db.pool().catalog().owner(leaf), Some(owner));
    let audit = bd_core::audit_catalog(&db, tid).unwrap();
    assert!(audit.is_clean(), "{audit}");
    db.check_consistency(tid).unwrap();
}

#[test]
fn corrupt_log_record_fails_recovery_loudly() {
    // A log that does not decode must fail recovery with `CorruptLog`,
    // not panic and not silently skip records.
    let (mut db, tid, a_values) = setup(600);
    let victims: Vec<u64> = a_values.iter().copied().step_by(3).collect();
    let log = LogManager::new();
    let err = run_bulk_delete(
        &mut db,
        tid,
        0,
        &victims,
        &log,
        CrashInjector::at(CrashSite::MidStructure(1)),
    )
    .unwrap_err();
    assert!(matches!(err, bd_wal::WalError::Crashed(_)));
    log.append_raw(&[99, 1, 2, 3]); // unknown record tag
    db.pool().crash();
    let err = recover(&mut db, tid, &log, &[]).unwrap_err();
    assert!(matches!(err, bd_wal::WalError::CorruptLog(_)), "got {err}");
}

#[test]
fn crash_at_late_progress_of_secondary_index() {
    let (mut db, tid, a_values) = setup(8000);
    let victims: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    let expect = {
        let (mut db2, tid2, _) = setup(8000);
        let log2 = LogManager::new();
        run_bulk_delete(&mut db2, tid2, 0, &victims, &log2, CrashInjector::none()).unwrap();
        snapshot(&db2, tid2)
    };
    let log = LogManager::new();
    // Phase 2 = first secondary index; crash never fires if the phase has
    // fewer chunks — guard with victims.len().
    let err = run_bulk_delete(
        &mut db,
        tid,
        0,
        &victims,
        &log,
        CrashInjector::at(CrashSite::AtProgress(2, 1)),
    )
    .unwrap_err();
    assert!(matches!(err, bd_wal::WalError::Crashed(_)));
    db.pool().crash();
    recover(&mut db, tid, &log, &[]).unwrap();
    db.check_consistency(tid).unwrap();
    assert_eq!(snapshot(&db, tid), expect);
}
