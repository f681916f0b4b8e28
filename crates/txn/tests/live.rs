//! Tests of the online (chunked, paced) bulk-delete path: correctness vs
//! the offline protocol, reader survival through leaf reorganisation,
//! zero pins at every checkpoint, foreground work run from the pacer's
//! hook, and cancel-leaves-a-consistent-prefix.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use bd_core::{Database, DatabaseConfig, IndexDef, ShadowDb, Tuple};
use bd_storage::{Pacer, StorageError};
use bd_txn::{PropagationMode, TxnDb};
use bd_workload::TableSpec;

fn setup(n_rows: usize) -> (Arc<TxnDb>, usize, Vec<u64>) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(4 << 20));
    let spec = TableSpec::tiny(n_rows);
    let w = spec.build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    let tid = w.tid;
    let a_values = w.a_values.clone();
    (TxnDb::new(db), tid, a_values)
}

/// Fresh keys outside the generated domain (generated values are multiples
/// of 10, bounded well below these).
fn fresh_tuple(i: u64) -> Tuple {
    Tuple::new(vec![
        1_000_001 + i * 2,
        2_000_001 + i * 2,
        3_000_001 + i * 2,
        i,
    ])
}

#[test]
fn live_delete_matches_the_shadow_model() {
    for mode in [PropagationMode::SideFile, PropagationMode::Direct] {
        let (tdb, tid, a_values) = setup(2000);
        let mut shadow = tdb.with(|db| ShadowDb::mirror_of(db, tid).unwrap());
        let victims: Vec<u64> = a_values.iter().copied().step_by(3).collect();
        let pacer = Pacer::new();
        let stats = tdb
            .bulk_delete_live(tid, 0, &victims, mode, 97, &pacer)
            .unwrap();
        assert_eq!(stats.deleted, victims.len());
        assert_eq!(stats.chunks, victims.len().div_ceil(97));
        shadow.delete_in(tid, 0, &victims);
        let report = tdb.with(|db| shadow.diff(db, tid).unwrap());
        assert!(report.is_clean(), "{mode:?}: {report}");
        tdb.with(|db| db.check_consistency(tid).unwrap());
    }
}

/// [`setup`] plus a hash index on attribute 3, with the heap's last page
/// full: the table holds a whole number of pages, so a later insert's
/// next-fit wraps to the lowest page with room.
fn setup_hashed(pages: usize) -> (Arc<TxnDb>, usize, Vec<u64>) {
    let per_page = {
        let (tdb, tid, _) = setup(500);
        let rids: Vec<_> = tdb.with(|db| db.table(tid).unwrap().heap.dump().unwrap());
        rids.iter()
            .take_while(|(r, _)| r.page == rids[0].0.page)
            .count()
    };
    let (tdb, tid, a_values) = setup(per_page * pages);
    tdb.with(|db| db.create_hash_index(tid, 3).unwrap());
    (tdb, tid, a_values)
}

#[test]
fn deferred_hash_sweep_keeps_an_insert_that_reuses_a_victim_rid() {
    const CHUNK: usize = 32;
    for mode in [PropagationMode::SideFile, PropagationMode::Direct] {
        // The pacer's count at the checkpoint between the first chunk and
        // the second, read by a maintenance hook on an identical run.
        let boundary = {
            let (tdb, tid, a_values) = setup_hashed(30);
            let victims: Vec<u64> = a_values.iter().copied().step_by(3).collect();
            let pacer = Pacer::new();
            let seen = Arc::new(Mutex::new(Vec::new()));
            {
                let (pacer, seen) = (pacer.clone(), seen.clone());
                tdb.set_maintenance(Some(Box::new(move |_| {
                    seen.lock().unwrap().push(pacer.checks());
                    Ok(())
                })));
            }
            tdb.bulk_delete_live(tid, 0, &victims, mode, CHUNK, &pacer)
                .unwrap();
            let seen = seen.lock().unwrap();
            seen[1]
        };

        let (tdb, tid, a_values) = setup_hashed(30);
        let mut shadow = tdb.with(|db| ShadowDb::mirror_of(db, tid).unwrap());
        let victims: Vec<u64> = a_values.iter().copied().step_by(3).collect();
        // The first chunk holds the lowest RIDs, so it deletes this victim.
        let (victim_rid, value) = tdb.with(|db| {
            let table = db.table(tid).unwrap();
            let probe = &table.index_on(0).unwrap().tree;
            let rid = victims
                .iter()
                .map(|&k| probe.search(k).unwrap()[0])
                .min()
                .unwrap();
            let row = table.schema.decode(&table.heap.get(rid).unwrap());
            (rid, row.attr(3))
        });
        let tuple = Tuple::new(vec![1_000_001, 2_000_001, 3_000_001, value]);
        let inserted = Arc::new(Mutex::new(None));
        let pacer = {
            let (tdb, tuple, inserted) = (tdb.clone(), tuple.clone(), inserted.clone());
            Pacer::with_hook(move |n| {
                if n == boundary {
                    // Between chunks: no lock held, the victim's hash entry
                    // not yet swept.
                    let txn = tdb.begin();
                    let rid = tdb.insert(txn, tid, &tuple).unwrap();
                    tdb.commit(txn);
                    *inserted.lock().unwrap() = Some(rid);
                }
                Ok(())
            })
        };
        let stats = tdb
            .bulk_delete_live(tid, 0, &victims, mode, CHUNK, &pacer)
            .unwrap();
        let rid = inserted.lock().unwrap().expect("the hook never ran");
        assert_eq!(stats.deleted, victims.len());
        assert_eq!(
            rid, victim_rid,
            "{mode:?}: the insert did not reuse the RID"
        );

        shadow.delete_in(tid, 0, &victims);
        shadow.insert(tid, rid, tuple);
        tdb.with(|db| {
            let report = shadow.diff(db, tid).unwrap();
            assert!(report.is_clean(), "{mode:?}: {report}");
            db.check_consistency(tid).unwrap();
            let hash = &db.table(tid).unwrap().hash_index_on(3).unwrap().index;
            let hits = hash.search(value).unwrap();
            assert_eq!(hits.iter().filter(|&&r| r == rid).count(), 1, "{mode:?}");
        });
    }
}

#[test]
fn live_delete_interleaves_foreground_traffic() {
    let (tdb, tid, a_values) = setup(3000);
    let mut shadow = tdb.with(|db| ShadowDb::mirror_of(db, tid).unwrap());
    let victims: Vec<u64> = a_values.iter().copied().step_by(3).collect();
    let victim_set: HashSet<u64> = victims.iter().copied().collect();
    let survivors: Vec<u64> = a_values
        .iter()
        .copied()
        .filter(|k| !victim_set.contains(k))
        .collect();
    let pacer = Pacer::new();

    let inserted = std::thread::scope(|s| {
        let bulk = {
            let tdb = tdb.clone();
            let victims = victims.clone();
            let pacer = pacer.clone();
            s.spawn(move || {
                tdb.bulk_delete_live(tid, 0, &victims, PropagationMode::SideFile, 64, &pacer)
                    .unwrap()
            })
        };
        // Point reads through the probe index, which never goes offline:
        // survivors must stay readable for the whole run.
        let reader = {
            let tdb = tdb.clone();
            let survivors = survivors.clone();
            s.spawn(move || {
                for &k in survivors.iter().step_by(7) {
                    let txn = tdb.begin();
                    let rows = tdb.read(txn, tid, 0, k).unwrap();
                    assert_eq!(rows.len(), 1, "survivor {k} unreadable mid-delete");
                    tdb.commit(txn);
                }
            })
        };
        // Range scans across the live reorganisation: every batch-wise
        // scan must return each survivor in range exactly once.
        let scanner = {
            let tdb = tdb.clone();
            let survivors = survivors.clone();
            s.spawn(move || {
                let (lo, hi) = (5_000u64, 12_000u64);
                let in_range: Vec<u64> = survivors
                    .iter()
                    .copied()
                    .filter(|&k| (lo..=hi).contains(&k))
                    .collect();
                for _ in 0..8 {
                    let txn = tdb.begin();
                    let rows = tdb.range_read(txn, tid, 0, lo, hi).unwrap();
                    tdb.commit(txn);
                    let seen: Vec<u64> = rows.iter().map(|t| t.attr(0)).collect();
                    let seen_set: HashSet<u64> = seen.iter().copied().collect();
                    assert_eq!(seen.len(), seen_set.len(), "duplicate in range scan");
                    for &k in &in_range {
                        assert!(seen_set.contains(&k), "survivor {k} missing from scan");
                    }
                    for &k in &seen {
                        assert!((lo..=hi).contains(&k), "out-of-range key {k}");
                    }
                }
            })
        };
        let writer = {
            let tdb = tdb.clone();
            s.spawn(move || {
                let mut rows = Vec::new();
                for i in 0..60 {
                    let txn = tdb.begin();
                    let t = fresh_tuple(i);
                    let rid = tdb.insert(txn, tid, &t).unwrap();
                    rows.push((rid, t));
                    tdb.commit(txn);
                }
                rows
            })
        };
        let stats = bulk.join().unwrap();
        assert_eq!(stats.deleted, victims.len());
        reader.join().unwrap();
        scanner.join().unwrap();
        writer.join().unwrap()
    });

    shadow.delete_in(tid, 0, &victims);
    for (rid, t) in inserted {
        shadow.insert(tid, rid, t);
    }
    let report = tdb.with(|db| shadow.diff(db, tid).unwrap());
    assert!(report.is_clean(), "model vs engine diverged: {report}");
    tdb.with(|db| db.check_consistency(tid).unwrap());
}

#[test]
fn paused_live_delete_holds_no_pins_and_resumes_clean() {
    let (tdb, tid, a_values) = setup(2000);
    let mut shadow = tdb.with(|db| ShadowDb::mirror_of(db, tid).unwrap());
    let victims: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    let pinned = Arc::new(Mutex::new(None));
    // Stop somewhere inside the run — between chunks or mid-leaf-walk
    // inside one, both of which must be pin-free quiescent points.
    let pacer = {
        let (pool, pinned) = (tdb.with(|db| db.pool().clone()), pinned.clone());
        Pacer::with_hook(move |n| {
            if n == 23 {
                *pinned.lock().unwrap() = Some(pool.pinned_frames());
            }
            Ok(())
        })
    };

    let stats = tdb
        .bulk_delete_live(tid, 0, &victims, PropagationMode::SideFile, 32, &pacer)
        .unwrap();
    assert_eq!(
        *pinned.lock().unwrap(),
        Some(0),
        "paused delete holds a pinned frame, or never paused"
    );
    assert_eq!(stats.deleted, victims.len());

    shadow.delete_in(tid, 0, &victims);
    let report = tdb.with(|db| shadow.diff(db, tid).unwrap());
    assert!(report.is_clean(), "paused+resumed run diverged: {report}");
    tdb.with(|db| db.check_consistency(tid).unwrap());
}

#[test]
fn reader_through_an_offline_index_does_not_stall_the_live_delete() {
    // Regression: a reader took the table S lock and *then* parked on the
    // offline gate of its access path; the deleter's next chunk waited out
    // its X request against that S and the statement died on the lock
    // timeout. Readers now wait at the gate first, holding nothing.
    let (tdb, tid, a_values) = setup(2000);
    let mut shadow = tdb.with(|db| ShadowDb::mirror_of(db, tid).unwrap());
    let victims: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    let survivor = a_values[1];
    let b = {
        let txn = tdb.begin();
        let rows = tdb.read(txn, tid, 0, survivor).unwrap();
        tdb.commit(txn);
        rows[0].attr(1)
    };
    // Checkpoint 1 is the one before the first chunk; every later one
    // comes after the first exclusive span took index 1 offline, with
    // dozens of chunks still to run. The hook at checkpoint 2 starts a
    // reader through index 1 and lets the deleter go on once the reader's
    // transaction has begun.
    let reader = Arc::new(Mutex::new(None));
    let pacer = {
        let (tdb, reader) = (tdb.clone(), reader.clone());
        Pacer::with_hook(move |n| {
            if n == 2 {
                let (started_tx, started_rx) = std::sync::mpsc::channel();
                let tdb = tdb.clone();
                *reader.lock().unwrap() = Some(std::thread::spawn(move || {
                    let txn = tdb.begin();
                    started_tx.send(()).unwrap();
                    let rows = tdb.read(txn, tid, 1, b);
                    tdb.commit(txn);
                    rows
                }));
                started_rx.recv().unwrap();
            }
            Ok(())
        })
    };

    let stats = tdb.bulk_delete_live(tid, 0, &victims, PropagationMode::SideFile, 32, &pacer);
    let reader = reader.lock().unwrap().take().expect("the hook never ran");
    let rows = reader.join().unwrap();
    let stats = stats.expect("a waiting reader must not time out the deleter's table lock");
    assert_eq!(stats.deleted, victims.len());
    // The reader was served once index 1 came back online, consistent.
    let rows = rows.expect("reader");
    assert!(rows.iter().any(|t| t.attr(0) == survivor));
    assert!(rows.iter().all(|t| !victims.contains(&t.attr(0))));

    shadow.delete_in(tid, 0, &victims);
    let report = tdb.with(|db| shadow.diff(db, tid).unwrap());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn cancelled_live_delete_leaves_a_consistent_prefix() {
    let (tdb, tid, a_values) = setup(2000);
    let victims: Vec<u64> = a_values.iter().copied().step_by(2).collect();
    // Checkpoint 17 lands inside a chunk (the pacer is installed there,
    // never between chunks), whose install defers the cancel: the chunk
    // finishes and the next between-chunk check fails.
    let mid_chunk = Arc::new(Mutex::new(None));
    let pacer = {
        let mid_chunk = mid_chunk.clone();
        Pacer::with_hook(move |n| {
            if n == 17 {
                *mid_chunk.lock().unwrap() = Some(!bd_storage::pacer::installed().is_empty());
            }
            if n >= 17 {
                return Err(StorageError::Cancelled);
            }
            Ok(())
        })
    };
    let err = tdb.bulk_delete_live(tid, 0, &victims, PropagationMode::SideFile, 32, &pacer);
    assert!(err.is_err(), "cancelled run must report the cancellation");
    assert_eq!(
        *mid_chunk.lock().unwrap(),
        Some(true),
        "the cancel must land mid-chunk"
    );

    // Every structure is consistent, every gate back online (reads on the
    // offline-able indices would hang otherwise), and the deleted set is a
    // subset of D: each victim is fully present or fully gone, and every
    // survivor is untouched.
    tdb.with(|db| db.check_consistency(tid).unwrap());
    let victim_set: HashSet<u64> = victims.iter().copied().collect();
    let txn = tdb.begin();
    let mut gone = 0usize;
    for &v in &victims {
        let rows = tdb.read(txn, tid, 0, v).unwrap();
        assert!(rows.len() <= 1);
        if rows.is_empty() {
            gone += 1;
        } else {
            // Still reachable through a non-unique index too.
            let b = rows[0].attr(1);
            assert!(tdb
                .read(txn, tid, 1, b)
                .unwrap()
                .iter()
                .any(|t| t.attr(0) == v));
        }
    }
    assert!(gone > 0, "cancel landed before any chunk committed");
    assert!(gone < victims.len(), "cancel landed after the whole run");
    for &k in a_values
        .iter()
        .filter(|k| !victim_set.contains(k))
        .step_by(9)
    {
        assert_eq!(tdb.read(txn, tid, 0, k).unwrap().len(), 1);
    }
    tdb.commit(txn);
    let remaining = tdb.with(|db| db.table(tid).unwrap().heap.len());
    assert_eq!(remaining, 2000 - gone);
}

#[test]
fn maintenance_hook_runs_between_live_delete_chunks() {
    use bd_core::{audit_catalog, Maintainer, MaintenanceConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let (tdb, tid, a_values) = setup(2000);
    let maintainer = Arc::new(Mutex::new(Maintainer::new(MaintenanceConfig::default())));
    let calls = Arc::new(AtomicUsize::new(0));
    {
        let maintainer = maintainer.clone();
        let calls = calls.clone();
        tdb.set_maintenance(Some(Box::new(move |db| {
            calls.fetch_add(1, Ordering::Relaxed);
            maintainer.lock().unwrap().run_round(db)?;
            Ok(())
        })));
    }

    // Delete everything: each chunk empties heap pages and index subtrees,
    // and the hook recycles them while the statement is still running.
    let pacer = Pacer::new();
    let stats = tdb
        .bulk_delete_live(tid, 0, &a_values, PropagationMode::SideFile, 97, &pacer)
        .unwrap();
    assert_eq!(stats.deleted, a_values.len());
    assert_eq!(
        calls.load(Ordering::Relaxed),
        stats.chunks,
        "one maintenance slice per pause point"
    );

    // Settle: finish the in-flight pass, then one more cycle so pages freed
    // during the last pass become reusable too.
    tdb.with(|db| {
        let mut m = maintainer.lock().unwrap();
        m.run_cycle(db).unwrap();
        m.run_cycle(db).unwrap();
        let rep = *m.report();
        assert!(rep.pages_reclaimed > 0, "{rep:?}");
        assert!(db.pool().n_reusable() > 0);
        db.check_consistency(tid).unwrap();
        let audit = audit_catalog(db, tid).unwrap();
        assert!(audit.is_clean(), "{:?}", audit.findings);
    });
}
