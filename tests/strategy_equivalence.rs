//! Every delete strategy and driver must leave the table and all indices
//! in exactly the same logical state — the core correctness property of
//! the paper's claim that vertical bulk deletion is a drop-in replacement.

use bulk_delete::prelude::*;
use bulk_delete::storage::{Pacer, StructureId};

/// Row width and pool size of a build.
#[derive(Clone, Copy)]
struct Shape {
    record_len: usize,
    pool_bytes: usize,
}

/// Narrow rows in a pool every structure fits.
const SMALL: Shape = Shape {
    record_len: 64,
    pool_bytes: 2 << 20,
};

/// 512-B rows behind a 48-frame pool none of the four indices fits: one
/// or two victims on most heap pages, and every driver under eviction.
const EVICTING: Shape = Shape {
    record_len: 512,
    pool_bytes: 256 << 10,
};

/// A unique probe index on attr 0, `n_secondary` non-unique B-trees and a
/// hash index on attr 3.
fn build_shaped(
    shape: Shape,
    n_rows: usize,
    n_secondary: usize,
    seed: u64,
) -> (Database, Workload) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(shape.pool_bytes));
    let w = TableSpec {
        record_len: shape.record_len,
        ..TableSpec::tiny(n_rows)
    }
    .with_seed(seed)
    .build(&mut db)
    .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    for attr in 1..=n_secondary {
        w.attach_index(&mut db, IndexDef::secondary(attr)).unwrap();
    }
    db.create_hash_index(w.tid, 3).unwrap();
    (db, w)
}

fn build(n_rows: usize, n_secondary: usize, seed: u64) -> (Database, Workload) {
    build_shaped(SMALL, n_rows, n_secondary, seed)
}

/// Canonical logical state: sorted rows (all attributes).
fn state(db: &Database, tid: TableId) -> Vec<Vec<u64>> {
    let table = db.table(tid).unwrap();
    let mut rows: Vec<Vec<u64>> = table
        .heap
        .scan()
        .map(|(_, bytes)| table.schema.decode(&bytes).attrs)
        .collect();
    rows.sort_unstable();
    rows
}

/// One driver over a fresh build: it runs the statement on the database
/// and hands the end state and its delete count to the check. The
/// concurrent drivers own their database, so each runner checks its own.
type Runner = Box<dyn Fn(Database, TableId, &[Key], &mut dyn FnMut(&Database, usize))>;

/// A runner for a driver that works on `&mut Database`.
fn in_place(run: impl Fn(&mut Database, TableId, &[Key]) -> usize + 'static) -> Runner {
    Box::new(move |mut db, tid, d, check| {
        let n = run(&mut db, tid, d);
        check(&db, n)
    })
}

/// The live driver's chunk: at most 512 keys, and at least three chunks.
fn live_chunk(d: &[Key]) -> usize {
    (d.len() / 3).clamp(1, 512)
}

fn run_all_strategies(shape: Shape, n_rows: usize, frac: f64, seed: u64) {
    // The reference database stays alive: every other strategy's physical
    // state is diffed against it with `audit_equivalence`.
    let (reference_db, reference, ref_tid) = {
        let (mut db, w) = build_shaped(shape, n_rows, 2, seed);
        let d = w.delete_set(frac, seed + 1);
        let out = strategy::horizontal(&mut db, w.tid, 0, &d, true).unwrap();
        assert_eq!(out.deleted.len(), d.len());
        db.check_consistency(w.tid).unwrap();
        let s = state(&db, w.tid);
        (db, s, w.tid)
    };

    let runners: Vec<(&str, Runner)> = vec![
        (
            "not-sorted/trad",
            in_place(|db, tid, d| {
                strategy::horizontal(db, tid, 0, d, false)
                    .unwrap()
                    .deleted
                    .len()
            }),
        ),
        (
            "drop&create/bulkload",
            in_place(|db, tid, d| {
                strategy::drop_create(db, tid, 0, d, RebuildMode::BulkLoad, 1)
                    .unwrap()
                    .deleted
                    .len()
            }),
        ),
        (
            "drop&create/inserts",
            in_place(|db, tid, d| {
                strategy::drop_create(db, tid, 0, d, RebuildMode::InsertEach, 1)
                    .unwrap()
                    .deleted
                    .len()
            }),
        ),
        (
            "vertical/sort-merge",
            in_place(|db, tid, d| {
                strategy::vertical_sort_merge(db, tid, 0, d, 1)
                    .unwrap()
                    .deleted
                    .len()
            }),
        ),
        (
            "vertical/3 workers",
            in_place(|db, tid, d| {
                strategy::vertical_sort_merge(db, tid, 0, d, 3)
                    .unwrap()
                    .deleted
                    .len()
            }),
        ),
        (
            "vertical/compact",
            in_place(|db, tid, d| {
                let plan = bd_core::plan_sort_merge(db.table(tid).unwrap(), 0).unwrap();
                strategy::vertical(db, tid, d, &plan, ReorgPolicy::CompactLeaves, 1)
                    .unwrap()
                    .deleted
                    .len()
            }),
        ),
        (
            "logged",
            in_place(|db, tid, d| {
                run_bulk_delete(db, tid, 0, d, &LogManager::new(), CrashInjector::none()).unwrap()
            }),
        ),
        (
            "blocking",
            Box::new(|db, tid, d, check| {
                let txn = TxnDb::new(db);
                let n = txn
                    .bulk_delete(tid, 0, d, PropagationMode::SideFile)
                    .unwrap();
                txn.with(|db| check(db, n))
            }),
        ),
        (
            "live",
            Box::new(|db, tid, d, check| {
                let txn = TxnDb::new(db);
                let mode = PropagationMode::SideFile;
                let stats = txn
                    .bulk_delete_live(tid, 0, d, mode, live_chunk(d), &Pacer::new())
                    .unwrap();
                assert!(stats.chunks >= 3, "live: {} chunk(s)", stats.chunks);
                txn.with(|db| check(db, stats.deleted))
            }),
        ),
    ];

    for (name, run) in runners {
        let (db, w) = build_shaped(shape, n_rows, 2, seed);
        let mut shadow = ShadowDb::mirror_of(&db, w.tid).unwrap();
        let d = w.delete_set(frac, seed + 1);
        shadow.delete_in(w.tid, 0, &d);
        run(db, w.tid, &d, &mut |db, n| {
            assert_eq!(n, d.len(), "{name}: wrong delete count");
            db.check_consistency(w.tid).unwrap();
            assert_eq!(
                state(db, w.tid),
                reference,
                "{name}: diverged from reference"
            );
            // Differential physical-state audit against the reference execution.
            let eq = audit_equivalence(db, &reference_db, ref_tid).unwrap();
            assert!(eq.is_clean(), "{name}: {eq}");
            // Model-based audit: the engine matches the shadow database.
            let diff = shadow.diff(db, w.tid).unwrap();
            assert!(diff.is_clean(), "{name}: shadow diff: {diff}");
        });
    }
}

#[test]
fn all_strategies_equivalent_small() {
    run_all_strategies(SMALL, 800, 0.15, 11);
}

#[test]
fn all_strategies_equivalent_heavy_delete() {
    run_all_strategies(SMALL, 600, 0.8, 23);
}

#[test]
fn all_strategies_equivalent_light_delete() {
    run_all_strategies(SMALL, 1200, 0.01, 5);
}

#[test]
fn all_strategies_equivalent_delete_everything() {
    run_all_strategies(SMALL, 400, 1.0, 31);
}

#[test]
fn all_strategies_equivalent_under_eviction() {
    run_all_strategies(EVICTING, 8_000, 0.25, 1);
}

#[test]
fn drop_create_frees_the_dropped_trees() {
    for mode in [RebuildMode::BulkLoad, RebuildMode::InsertEach] {
        let (mut db, w) = build(3_000, 2, 29);
        let d = w.delete_set(0.1, 30);
        strategy::drop_create(&mut db, w.tid, 0, &d, mode, 1).unwrap();
        let catalog = db.pool().catalog();
        // The probe index comes first and is never dropped.
        for ix in &db.table(w.tid).unwrap().indices[1..] {
            let mut reachable = ix.tree.pages().unwrap();
            reachable.sort_unstable();
            let mut owned = catalog.pages_of(StructureId::index_of(w.tid, ix.def.attr));
            owned.sort_unstable();
            assert_eq!(owned, reachable, "{mode:?}: {}", ix.def.name);
        }
    }
}

#[test]
fn empty_delete_set_is_noop_everywhere() {
    let (mut db, w) = build(300, 2, 3);
    let before = state(&db, w.tid);
    for out in [
        strategy::horizontal(&mut db, w.tid, 0, &[], true).unwrap(),
        strategy::horizontal(&mut db, w.tid, 0, &[], false).unwrap(),
        strategy::vertical_sort_merge(&mut db, w.tid, 0, &[], 1).unwrap(),
    ] {
        assert_eq!(out.deleted.len(), 0);
    }
    assert_eq!(state(&db, w.tid), before);
    db.check_consistency(w.tid).unwrap();
}

#[test]
fn missing_keys_delete_nothing() {
    let (mut db, w) = build(500, 1, 7);
    let before = state(&db, w.tid);
    let ghosts = w.missing_keys(100, 9);
    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &ghosts, 1).unwrap();
    assert_eq!(out.deleted.len(), 0);
    let out = strategy::horizontal(&mut db, w.tid, 0, &ghosts, true).unwrap();
    assert_eq!(out.deleted.len(), 0);
    assert_eq!(state(&db, w.tid), before);
}

#[test]
fn deleted_rows_are_returned_for_archiving() {
    let (mut db, w) = build(500, 2, 13);
    let d = w.delete_set(0.2, 17);
    let expect: std::collections::HashSet<u64> = d.iter().copied().collect();
    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, 1).unwrap();
    assert_eq!(out.deleted.len(), d.len());
    for (_, tuple) in &out.deleted {
        assert!(expect.contains(&tuple.attr(0)));
    }
    // RID order (the order the heap pass removes them).
    assert!(out.deleted.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn repeated_bulk_deletes_compose() {
    let (mut db, w) = build(1000, 2, 19);
    let all: Vec<u64> = w.a_values.clone();
    let first: Vec<u64> = all.iter().copied().step_by(3).collect();
    let second: Vec<u64> = all.iter().copied().skip(1).step_by(3).collect();
    strategy::vertical_sort_merge(&mut db, w.tid, 0, &first, 1).unwrap();
    db.check_consistency(w.tid).unwrap();
    strategy::vertical_sort_merge(&mut db, w.tid, 0, &second, 1).unwrap();
    db.check_consistency(w.tid).unwrap();
    let remaining = db.table(w.tid).unwrap().heap.len();
    assert_eq!(remaining, 1000 - first.len() - second.len());
    // Deleting already-deleted keys again is a no-op.
    let again = strategy::vertical_sort_merge(&mut db, w.tid, 0, &first, 1).unwrap();
    assert_eq!(again.deleted.len(), 0);
}

#[test]
fn lsm_engine_matches_btree_engine_on_the_paper_workload() {
    // The same design-space workload the strategies above run, replayed
    // through the engine seam: a B-tree engine using the vertical
    // sort-merge plan and the delete-aware LSM engine must agree on
    // every surviving row after each delete round.
    let spec = TableSpec::tiny(900).with_seed(41);
    let rows = spec.generate_rows();
    let mut btree = BtreeEngine::new(spec.schema(), 2 << 20, 1).unwrap();
    let mut lsm = LsmTable::new(spec.schema(), 2 << 20, LsmConfig::tiny());
    btree.bulk_load(&rows).unwrap();
    lsm.bulk_load(&rows).unwrap();

    for (frac, seed) in [(0.1, 43), (0.4, 47), (0.25, 53)] {
        let keys: Vec<Key> = {
            let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
            let w = spec.build(&mut db).unwrap();
            w.delete_set(frac, seed)
        };
        let a = btree.bulk_delete(&keys).unwrap();
        let b = lsm.bulk_delete(&keys).unwrap();
        assert_eq!(a.deleted, b.deleted, "delete counts diverged at {frac}");
        let eq = audit_engine_equivalence(&mut btree, &mut lsm).unwrap();
        assert!(eq.is_clean(), "after {frac}: {}", eq.render());
        assert!(lsm.audit_pages().is_clean(), "after {frac}");
    }
    assert!(lsm.lsm_stats().compactions > 0, "workload must compact");
}
