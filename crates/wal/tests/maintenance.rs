//! Fault campaigns over the background maintenance daemon: a crash or a
//! torn write at any disk access mid-recycle, mid-pack, or mid-prewarm
//! must recover to a database logically identical to one that never ran
//! maintenance at all — the daemon only moves and frees pages.

use bd_btree::BTreeConfig;
use bd_core::{
    audit_catalog, audit_equivalence, strategy, Database, DatabaseConfig, IndexDef, Maintainer,
    MaintenanceConfig,
};
use bd_storage::{FaultPlan, FaultSpec};
use bd_wal::{recover, recover_media, run_maintenance_cycle, LogManager, LogRecord, StructureId};
use bd_workload::TableSpec;

/// A pool far smaller than the working set (same rationale as the delete
/// campaigns) and small-fanout indices, so the maintenance cycle issues
/// real disk accesses at every phase: heap confirm reads, pack rewrites,
/// recycle zero-writes, prewarm reads.
fn build(n_rows: usize) -> (Database, usize) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(96 << 10));
    let w = TableSpec::tiny(n_rows).build(&mut db).unwrap();
    let cfg = BTreeConfig::with_fanout(16);
    w.attach_index(&mut db, IndexDef::secondary(0).unique().with_config(cfg))
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1).with_config(cfg))
        .unwrap();
    (db, w.tid)
}

/// Delete two thirds of the rows fault-free, leaving plenty of maintenance
/// work: emptied heap pages, sparse leaves, freed pages to recycle.
fn deleted(n_rows: usize) -> (Database, usize) {
    let (mut db, tid) = build(n_rows);
    let d: Vec<u64> = {
        let a = TableSpec::tiny(n_rows).generate_rows();
        a.iter().map(|r| r.attr(0)).filter(|k| k % 3 != 0).collect()
    };
    strategy::vertical_sort_merge(&mut db, tid, 0, &d, 1).unwrap();
    db.pool().flush_all().unwrap();
    (db, tid)
}

fn maintainer() -> Maintainer {
    Maintainer::new(MaintenanceConfig {
        pack_subtrees: 4,
        prewarm_pages: 16,
    })
}

#[test]
fn maintenance_crash_campaign_recovers_at_every_disk_access() {
    // Fault-free probe: how many accesses does one full cycle take?
    let (mut probe, tid) = deleted(900);
    let c0 = probe.pool().with_disk(|d| d.accesses());
    run_maintenance_cycle(&mut probe, tid, &LogManager::new(), &mut maintainer()).unwrap();
    let total = probe.pool().with_disk(|d| d.accesses()) - c0;
    assert!(total > 60, "cycle issued only {total} accesses");

    // Reference: the deleted state with no maintenance — the daemon must
    // never change logical content, crash or no crash.
    let (reference, _) = deleted(900);

    let stride = (total / 80).max(1);
    let mut crash_points = 0usize;
    let mut n = 1;
    while n <= total {
        let (mut db, tid) = deleted(900);
        let log = LogManager::new();
        let c0 = db.pool().with_disk(|d| d.accesses());
        db.pool()
            .with_disk(|d| d.set_fault_plan(FaultPlan::new().crash_at_access(c0 + n)));
        let run = run_maintenance_cycle(&mut db, tid, &log, &mut maintainer());
        assert!(run.is_err(), "access {n} of {total} did not crash");
        db.pool().crash();
        db.pool().with_disk(|d| d.clear_fault_plan());
        recover(&mut db, tid, &log, &[]).unwrap();
        db.check_consistency(tid).unwrap();
        let cat = audit_catalog(&db, tid).unwrap();
        assert!(cat.is_clean(), "crash at {n}: {:?}", cat.findings);
        let eq = audit_equivalence(&reference, &db, tid).unwrap();
        assert!(eq.is_clean(), "crash at {n} diverged: {eq}");
        crash_points += 1;
        n += stride;
    }
    assert!(
        crash_points >= 50,
        "campaign too small to mean anything: {crash_points} points"
    );
}

/// The torn-write sweep needs *dense* pages: a fanout-16 node keeps all
/// its bytes in the first page half, and the simulator's tears persist
/// exactly that half — every tear would be silent and harmless. Default
/// (page-filling) nodes put live bytes in the torn tail. The victims are
/// the middle band of the key space, so whole dense leaves empty out and
/// get freed — giving the recycler real pages to zero.
fn deleted_dense(n_rows: usize) -> (Database, usize) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(96 << 10));
    let w = TableSpec::tiny(n_rows).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    let tid = w.tid;
    let d: Vec<u64> = {
        let mut a: Vec<u64> = TableSpec::tiny(n_rows)
            .generate_rows()
            .iter()
            .map(|r| r.attr(0))
            .collect();
        a.sort_unstable();
        a[n_rows / 6..n_rows - n_rows / 6].to_vec()
    };
    strategy::vertical_sort_merge(&mut db, tid, 0, &d, 1).unwrap();
    db.pool().flush_all().unwrap();
    (db, tid)
}

#[test]
fn maintenance_torn_write_campaign_recovers_every_surfaced_tear() {
    let (mut probe, tid) = deleted_dense(900);
    let c0 = probe.pool().with_disk(|d| d.accesses());
    run_maintenance_cycle(&mut probe, tid, &LogManager::new(), &mut maintainer()).unwrap();
    let total = probe.pool().with_disk(|d| d.accesses()) - c0;
    let (reference, _) = deleted_dense(900);

    let mut torn_points = 0usize;
    let mut healed_free = 0usize;
    for n in 1..=total {
        let (mut db, tid) = deleted_dense(900);
        let log = LogManager::new();
        let c0 = db.pool().with_disk(|d| d.accesses());
        db.pool().with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_at_access(c0 + n).torn()))
        });
        let run = run_maintenance_cycle(&mut db, tid, &log, &mut maintainer());
        let fired = db.pool().with_disk(|d| d.fault_plan_fired());
        if run.is_ok() && fired == 0 {
            continue; // access n was a read: nothing torn
        }
        // Surface the damage the way a restart would: drop the cache,
        // scrub the disk for checksum failures, run media recovery.
        let completed = run.is_ok();
        db.pool().crash();
        db.pool().with_disk(|d| d.clear_fault_plan());
        let corrupt = db.pool().with_disk(|d| d.corrupt_pages());
        if completed && corrupt.is_empty() {
            // The cycle rewrote or reclaimed the torn page after tearing
            // it; the tear left no trace.
            continue;
        }
        let (_, media) = recover_media(&mut db, tid, &log, &[], &corrupt).unwrap();
        if completed {
            // Every bracket closed, so damage is page-precise: one torn
            // page condemns at most the one structure that owns it.
            assert!(
                media.rebuilt_trees.len() + media.rebuilt_hashes.len() <= 1,
                "torn point {n} rebuilt more than its one damaged structure: {media:?}"
            );
        }
        healed_free += media.healed_free;
        db.check_consistency(tid).unwrap();
        let cat = audit_catalog(&db, tid).unwrap();
        assert!(cat.is_clean(), "tear at {n}: {:?}", cat.findings);
        let eq = audit_equivalence(&reference, &db, tid).unwrap();
        assert!(eq.is_clean(), "tear at {n} diverged: {eq}");
        torn_points += 1;
    }
    assert!(
        torn_points >= 5,
        "sweep surfaced too few tears to mean anything: {torn_points}"
    );
    // The recycler's zero-writes are the one maintenance write that needs
    // no rebuild when torn: the page was already free.
    assert!(
        healed_free > 0,
        "no torn recycle-write was healed as a free page"
    );
}

#[test]
fn open_maintenance_bracket_rebuilds_the_structure_on_recovery() {
    // A daemon that died mid-pack leaves MaintainBegin with no End. The
    // index's pages may hold a half-applied unlogged rewrite, so recovery
    // must rebuild it from the heap even though no page is visibly torn.
    let (mut db, tid) = deleted(600);
    let log = LogManager::new();
    log.append(&LogRecord::MaintainBegin {
        structure: StructureId::index_of(tid, 1),
    });
    db.pool().crash();
    let (n, media) = recover_media(&mut db, tid, &log, &[], &[]).unwrap();
    assert_eq!(n, 0);
    assert_eq!(media.rebuilt_trees, vec![1], "{media:?}");
    db.check_consistency(tid).unwrap();
    let cat = audit_catalog(&db, tid).unwrap();
    assert!(cat.is_clean(), "{:?}", cat.findings);
    let (reference, _) = deleted(600);
    let eq = audit_equivalence(&reference, &db, tid).unwrap();
    assert!(eq.is_clean(), "rebuild from open bracket diverged: {eq}");

    // Recovery closed the bracket: a second restart rebuilds nothing.
    let (_, media2) = recover_media(&mut db, tid, &log, &[], &[]).unwrap();
    assert!(media2.rebuilt_trees.is_empty(), "{media2:?}");
}
