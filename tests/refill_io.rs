//! Tier-1 pin on the §1 window's refill: after the oldest quarter goes,
//! fresh rows whose every value lies above the table's are inserted one at
//! a time, so each lands on the right edge of every B-tree. An append
//! splits a full right-edge node at its end, not its midpoint: the refill
//! leaves its leaves full, half as many as midpoint splits make. The
//! simulated clock is deterministic and the run single-threaded, so any
//! moved count is a changed access stream.

use bulk_delete::prelude::*;

use bd_workload::{TableSpec, Workload};

/// 12 000 rows of 512 B with a unique B-tree on A and two non-unique ones,
/// on a 48-frame pool none of the three fits.
fn build() -> (Database, Workload) {
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
    db.pool().flush_all().unwrap();
    (db, w)
}

/// Entries per reachable leaf of every B-tree of `tid`.
fn leaf_fills(db: &Database, tid: TableId) -> Vec<Vec<usize>> {
    let table = db.table(tid).unwrap();
    let trees = table.indices.iter().map(|ix| &ix.tree);
    trees
        .map(|t| bd_btree::verify::audit(t).unwrap().leaf_fill)
        .collect()
}

#[test]
fn window_refill_stream_is_pinned() {
    let (mut db, w) = build();
    let spec = w.spec;
    let mut shadow = ShadowDb::mirror_of(&db, w.tid).unwrap();

    let window = spec.n_rows / 4;
    let mut oldest = w.a_values.clone();
    oldest.sort_unstable();
    oldest.truncate(window);
    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &oldest, 1).unwrap();
    assert_eq!(out.deleted.len(), window);
    shadow.delete_in(w.tid, 0, &oldest);
    db.pool().flush_all().unwrap();
    let before = leaf_fills(&db, w.tid);

    db.pool().reset_stats();
    for i in 0..window {
        let base = (spec.n_rows + i) as Key * 10;
        let row = Tuple::new((0..spec.n_attrs as Key).map(|a| base + 2 * a).collect());
        let rid = db.insert(w.tid, &row).unwrap();
        shadow.insert(w.tid, rid, row);
    }
    db.pool().flush_all().unwrap();
    // With every split at the midpoint the same refill read 30 / 186
    // positioned / sequential reads, 88 positioned writes, 1 886 pages
    // written and 2 878.46 sim-ms, and left each right-edge leaf half full.
    assert_eq!(
        db.pool().disk_stats(),
        DiskStats {
            random_reads: 19,
            sequential_reads: 197,
            random_writes: 68,
            sequential_writes: 0,
            pages_read: 1720,
            pages_written: 1777,
            retries: 0,
            sim_ms: 2457.589999999998,
        },
        "the refill's access stream moved"
    );

    // Before any maintenance, each tree's fresh entries top up its last
    // leaf and then fill ⌈rest / cap⌉ new ones, every one full but the last.
    let cap = BTreeConfig::default().leaf_cap;
    for (old, new) in before.iter().zip(leaf_fills(&db, w.tid)) {
        let slack = cap - old.last().unwrap();
        let tail = &new[old.len() - 1..];
        assert_eq!(tail.len(), 1 + (window - slack).div_ceil(cap), "{tail:?}");
        assert!(tail[..tail.len() - 1].iter().all(|&n| n == cap), "{tail:?}");
    }

    let diff = shadow.diff(&db, w.tid).unwrap();
    assert!(diff.is_clean(), "{diff}");
    db.check_consistency(w.tid).unwrap();
}
