//! The live delete's chunk policy, pinned on a small table with no
//! foreground traffic. Chunks cut along the heap delete one stretch of it
//! each, and the hash index is swept once after the last chunk, so the
//! chunked statement costs about what the blocking one does. Chunks cut
//! along the key re-walked the whole heap and nearly every hash bucket
//! each: 3.8× the blocking statement's clock here (1.12× now).

use std::sync::Arc;

use bulk_delete::prelude::*;
use bulk_delete::storage::Pacer;

const CHUNK: usize = 512;

/// 8 000 rows of 512 B, a unique probe index, two non-unique B-trees and
/// a hash index, on a 48-frame pool none of the four indices fits.
fn build() -> (Arc<TxnDb>, Workload, Vec<Key>, ShadowDb) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(256 << 10));
    let w = TableSpec {
        record_len: 512,
        ..TableSpec::tiny(8_000)
    }
    .with_seed(1)
    .build(&mut db)
    .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    db.create_hash_index(w.tid, 3).unwrap();
    let d = w.delete_set(0.25, 2);
    let shadow = ShadowDb::mirror_of(&db, w.tid).unwrap();
    db.pool().clear_cache().unwrap();
    db.pool().reset_stats();
    (TxnDb::new(db), w, d, shadow)
}

/// The statement's simulated milliseconds, its flush included.
fn sim_ms(tdb: &TxnDb) -> f64 {
    tdb.with(|db| {
        db.pool().flush_all().unwrap();
        db.pool().disk_stats().sim_ms
    })
}

#[test]
fn live_chunks_follow_the_heap_and_cost_about_the_blocking_statement() {
    let (blocking, w, d, _) = build();
    blocking
        .bulk_delete(w.tid, 0, &d, PropagationMode::SideFile)
        .unwrap();
    let blocking_ms = sim_ms(&blocking);

    let (live, w, d, mut shadow) = build();
    let stats = live
        .bulk_delete_live(
            w.tid,
            0,
            &d,
            PropagationMode::SideFile,
            CHUNK,
            &Pacer::new(),
        )
        .unwrap();
    let live_ms = sim_ms(&live);
    assert_eq!(stats.deleted, d.len());
    assert_eq!(stats.chunks, d.len().div_ceil(CHUNK));
    assert!(
        live_ms <= 1.5 * blocking_ms,
        "live {live_ms:.0} ms vs blocking {blocking_ms:.0} ms: {:.2}x",
        live_ms / blocking_ms
    );

    shadow.delete_in(w.tid, 0, &d);
    live.with(|db| {
        let report = shadow.diff(db, w.tid).unwrap();
        assert!(report.is_clean(), "{report}");
        db.check_consistency(w.tid).unwrap();
    });
}
