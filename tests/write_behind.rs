//! Tier-1 gates on the pool's write-behind: behind a vertical delete the
//! dirty pages must leave the pool in long chains, and behind a
//! record-at-a-time refill the pages it keeps dirtying must not be
//! rewritten at every eviction. A third gate runs the sliding window with
//! maintenance: the pages a refill allocates from recycled ones must keep
//! each tree in page order, so the next cycle reads it without seeking.
//! Every number here is a simulated-disk count, so a regression fails
//! deterministically.

use bulk_delete::prelude::*;

use bd_core::{audit_catalog, Maintainer, MaintenanceConfig};
use bd_storage::{PageId, PAGE_SIZE};

/// Every allocated page's platter image.
fn platter(db: &Database) -> Vec<[u8; PAGE_SIZE]> {
    db.pool().with_disk(|d| {
        (0..d.num_pages() as PageId)
            .map(|pid| *d.peek(pid).expect("allocated page"))
            .collect()
    })
}

#[test]
fn vertical_delete_writes_back_in_chains() {
    // The paper's table over the pool of the benchmark's `heap5` workload
    // (96 frames): a chain cannot be longer than the pool.
    let mut db = Database::new(DatabaseConfig::with_total_memory(512 << 10));
    let w = TableSpec::paper_scaled()
        .with_rows(20_000)
        .with_seed(5)
        .build(&mut db)
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    let d = w.delete_set(0.05, 9);
    let mut shadow = ShadowDb::mirror_of(&db, w.tid).unwrap();

    db.pool().clear_cache().unwrap();
    let before = platter(&db);
    db.pool().reset_stats();
    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, 1).unwrap();
    db.pool().flush_all().unwrap();
    assert_eq!(out.deleted.len(), d.len());

    let disk = db.pool().disk_stats();
    assert!(
        disk.random_writes * 8 <= disk.pages_written,
        "write-back is not chained: {disk:?}"
    );
    // No page is allocated or dirtied twice by this statement, so the
    // write-backs are the pages whose image changed — the clean pages a
    // chain rewrote to bridge a gap are in `pages_written` only.
    let after = platter(&db);
    assert_eq!(before.len(), after.len());
    let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
    let writebacks = db.pool().pool_stats().writebacks;
    assert_eq!(writebacks, changed as u64);
    assert!(
        disk.pages_written > writebacks,
        "a 5% delete leaves gaps to bridge: {disk:?}"
    );

    shadow.delete_in(w.tid, 0, &d);
    let diff = shadow.diff(&db, w.tid).unwrap();
    assert!(diff.is_clean(), "{diff}");
    db.check_consistency(w.tid).unwrap();
}

#[test]
fn window_refill_leaves_its_hot_pages_dirty() {
    // The §1 sliding window at the shape of the benchmark's `window4`:
    // unique I_A and two more B-trees behind a 30-frame pool.
    let mut db = Database::new(DatabaseConfig::with_total_memory(160 << 10));
    let spec = TableSpec::paper_scaled().with_rows(8_000).with_seed(4);
    let w = spec.build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    for attr in 1..3 {
        w.attach_index(&mut db, IndexDef::secondary(attr)).unwrap();
    }
    db.pool().flush_all().unwrap();
    let mut shadow = ShadowDb::mirror_of(&db, w.tid).unwrap();

    // Delete the oldest quarter of A, then refill it with rows whose every
    // value lies above the table's, so each insert lands on the right edge
    // of every tree.
    let mut oldest = w.a_values.clone();
    oldest.sort_unstable();
    oldest.truncate(spec.n_rows / 4);
    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &oldest, 1).unwrap();
    assert_eq!(out.deleted.len(), oldest.len());
    shadow.delete_in(w.tid, 0, &oldest);

    db.pool().reset_stats();
    for i in 0..oldest.len() {
        let base = (spec.n_rows + i) as Key * 10;
        let row = Tuple::new((0..spec.n_attrs as Key).map(|a| base + 2 * a).collect());
        let rid = db.insert(w.tid, &row).unwrap();
        shadow.insert(w.tid, rid, row);
    }
    // 68 positioned writes while hot pages wait for their own eviction
    // and an append leaves its leaf full (81 when every split is at the
    // midpoint); 220 when every dirty eviction also rewrites the
    // right-edge leaves the next insert dirties again.
    let refill = db.pool().disk_stats();
    assert!(
        refill.random_writes <= 175,
        "the refill rewrites its hot pages: {refill:?}"
    );

    db.pool().flush_all().unwrap();
    let diff = shadow.diff(&db, w.tid).unwrap();
    assert!(diff.is_clean(), "{diff}");
    db.check_consistency(w.tid).unwrap();
}

#[test]
fn window_cycles_read_their_trees_in_page_order() {
    // The refill gate's shape run for four rounds of the §1 window, each
    // followed by one maintenance cycle, as the benchmark's `window4` does.
    let mut db = Database::new(DatabaseConfig::with_total_memory(160 << 10));
    let spec = TableSpec::paper_scaled().with_rows(8_000).with_seed(4);
    let w = spec.build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    for attr in 1..3 {
        w.attach_index(&mut db, IndexDef::secondary(attr)).unwrap();
    }
    db.pool().flush_all().unwrap();
    let mut shadow = ShadowDb::mirror_of(&db, w.tid).unwrap();

    // Fresh values lie above the table's, so the key order is the
    // generated keys, sorted, then the refills in insertion order.
    let window = spec.n_rows / 4;
    let mut keys = w.a_values.clone();
    keys.sort_unstable();
    let fresh: Vec<Tuple> = (0..4 * window)
        .map(|i| {
            let base = (spec.n_rows + i) as Key * 10;
            Tuple::new((0..spec.n_attrs as Key).map(|a| base + 2 * a).collect())
        })
        .collect();
    keys.extend(fresh.iter().map(|t| t.attr(0)));

    let mut maintainer = Maintainer::new(MaintenanceConfig::default());
    let mut cycle_reads = Vec::new();
    for round in 0..4 {
        let d = &keys[round * window..(round + 1) * window];
        let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, d, 1).unwrap();
        assert_eq!(out.deleted.len(), window);
        shadow.delete_in(w.tid, 0, d);
        for row in &fresh[round * window..(round + 1) * window] {
            let rid = db.insert(w.tid, row).unwrap();
            shadow.insert(w.tid, rid, row.clone());
        }
        db.pool().reset_stats();
        maintainer.run_cycle(&mut db).unwrap();
        cycle_reads.push(db.pool().disk_stats().random_reads);
    }
    // 70 / 68 / 70 / 87 positioned reads (91 / 70 / 71 / 89 when every
    // split is at the midpoint) while splits and refills take the
    // recycled pages after the page they extend; 91 / 119 / 146 / 216 when
    // they take the lowest recycled page, and every cycle walks the
    // scattered leaves of the last.
    assert!(
        cycle_reads[3] <= 150,
        "the cycles walk scattered leaves: {cycle_reads:?}"
    );

    db.pool().flush_all().unwrap();
    let diff = shadow.diff(&db, w.tid).unwrap();
    assert!(diff.is_clean(), "{diff}");
    db.check_consistency(w.tid).unwrap();
    let cat = audit_catalog(&db, w.tid).unwrap();
    assert!(cat.is_clean(), "{:?}", cat.findings);
}
