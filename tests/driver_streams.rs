//! Tier-1 pin on the access stream of each delete driver. The offline
//! vertical delete, the uncrashed logged delete, the blocking concurrent
//! delete and the chunked live delete all run Fig. 3 over the same small
//! table behind a 48-frame pool, and each must leave exactly the disk and
//! pool counters recorded here. The simulated clock is deterministic and
//! each run is single-threaded, so any moved count is a changed access
//! stream. Beside the pins sit the bounds a re-pin must still meet: the
//! hash arm sweeps its buckets, and the logged and live drivers pay about
//! the vertical clock.

use bulk_delete::prelude::*;

use bd_storage::{Pacer, PoolStats};
use bd_workload::{TableSpec, Workload};

/// 12 000 rows of 512 B, a unique probe index, two non-unique B-trees and
/// a hash index, on a 48-frame pool none of the four indices fits. A
/// quarter of the rows go: more than one of the logged driver's
/// 2048-victim progress chunks, so its interior chunk boundary is part of
/// the stream.
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
    let d = w.delete_set(0.25, 2);
    db.pool().clear_cache().unwrap();
    db.pool().reset_stats();
    (db, w, d)
}

/// Flush what the statement left dirty and read both counters.
fn counters(db: &Database) -> (DiskStats, PoolStats) {
    db.pool().flush_all().unwrap();
    (db.pool().disk_stats(), db.pool().pool_stats())
}

/// The vertical run's simulated milliseconds, pinned below: the clock the
/// other drivers are bounded against.
const VERTICAL_SIM_MS: f64 = 2244.3800000000015;

fn check(driver: &str, got: (DiskStats, PoolStats), want: (DiskStats, PoolStats)) {
    assert_eq!(got.0, want.0, "{driver}: disk counters moved");
    assert_eq!(got.1, want.1, "{driver}: pool counters moved");
}

#[test]
fn offline_vertical_stream_is_pinned() {
    let (mut db, w, d) = build();
    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, 1).unwrap();
    assert_eq!(out.deleted.len(), d.len());
    // The hash arm is a sweep: it positions the head per chain of pages,
    // not per victim (a chain walk per victim pays about one each).
    for h in &db.table(w.tid).unwrap().hash_indices {
        let mut phases = out.report.phases.iter();
        let arm = phases.find(|p| p.name.starts_with(&h.def.name));
        let arm = arm.expect("every hash index has a phase row");
        let per_victim = arm.io.total_random() as f64 / d.len() as f64;
        assert!(per_victim <= 0.2, "{}: {per_victim:.4}", arm.name);
    }
    check(
        "vertical",
        counters(&db),
        (
            DiskStats {
                random_reads: 9,
                sequential_reads: 380,
                random_writes: 45,
                sequential_writes: 0,
                pages_read: 1929,
                pages_written: 2039,
                retries: 0,
                sim_ms: VERTICAL_SIM_MS,
            },
            PoolStats {
                hits: 3,
                misses: 6,
                prefetched: 1705,
                writebacks: 1708,
            },
        ),
    );
    db.check_consistency(w.tid).unwrap();
}

#[test]
fn logged_stream_is_pinned() {
    let (mut db, w, d) = build();
    let log = LogManager::new();
    let n = run_bulk_delete(&mut db, w.tid, 0, &d, &log, CrashInjector::none()).unwrap();
    assert_eq!(n, d.len());
    let got = counters(&db);
    // Logging adds the checkpoints' flushes and the progress chunks'
    // restarts, not a slower way of reading the heap.
    assert!(got.0.sim_ms <= 3.0 * VERTICAL_SIM_MS, "{}", got.0.sim_ms);
    check(
        "logged",
        got,
        (
            DiskStats {
                random_reads: 14,
                sequential_reads: 732,
                random_writes: 48,
                sequential_writes: 0,
                pages_read: 3692,
                pages_written: 2036,
                retries: 0,
                sim_ms: 3045.74,
            },
            PoolStats {
                hits: 62,
                misses: 8,
                prefetched: 3248,
                writebacks: 1712,
            },
        ),
    );
    db.check_consistency(w.tid).unwrap();
}

#[test]
fn blocking_concurrent_stream_is_pinned() {
    let (db, w, d) = build();
    let txn = TxnDb::new(db);
    let n = txn
        .bulk_delete(w.tid, 0, &d, PropagationMode::SideFile)
        .unwrap();
    assert_eq!(n, d.len());
    txn.with(|db| {
        check(
            "blocking",
            counters(db),
            (
                DiskStats {
                    random_reads: 9,
                    sequential_reads: 380,
                    random_writes: 47,
                    sequential_writes: 0,
                    pages_read: 1929,
                    pages_written: 2045,
                    retries: 0,
                    sim_ms: 2271.1200000000017,
                },
                PoolStats {
                    hits: 3,
                    misses: 6,
                    prefetched: 1705,
                    writebacks: 1708,
                },
            ),
        );
        db.check_consistency(w.tid).unwrap();
    });
}

#[test]
fn live_stream_is_pinned() {
    const CHUNK: usize = 512;
    let (db, w, d) = build();
    let txn = TxnDb::new(db);
    let stats = txn
        .bulk_delete_live(
            w.tid,
            0,
            &d,
            PropagationMode::SideFile,
            CHUNK,
            &Pacer::new(),
        )
        .unwrap();
    assert_eq!(stats.deleted, d.len());
    assert_eq!(stats.chunks, d.len().div_ceil(CHUNK));
    txn.with(|db| {
        let got = counters(db);
        // Chunks are cut along the heap and each hash index is swept once,
        // after the last chunk: about the vertical price.
        assert!(got.0.sim_ms <= 1.5 * VERTICAL_SIM_MS, "{}", got.0.sim_ms);
        check(
            "live",
            got,
            (
                DiskStats {
                    random_reads: 29,
                    sequential_reads: 466,
                    random_writes: 61,
                    sequential_writes: 0,
                    pages_read: 2225,
                    pages_written: 2294,
                    retries: 0,
                    sim_ms: 2902.9000000000005,
                },
                PoolStats {
                    hits: 92,
                    misses: 63,
                    prefetched: 1941,
                    writebacks: 1948,
                },
            ),
        );
        db.check_consistency(w.tid).unwrap();
    });
}
