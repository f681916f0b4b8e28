//! Differential audit of the LSM engine against the B-tree engine.
//!
//! Both engines implement [`TableEngine`] over the same keyed-table
//! contract, so any workload — random builds, bulk deletes, re-inserts —
//! must leave them logically identical. The
//! property tests drive both through the same operation sequence and
//! call [`audit_engine_equivalence`] (sorted-dump diff + each engine's
//! structural self-audit) after every step that can trigger a flush or
//! compaction, plus a clean page-catalog audit on the LSM side.

use std::collections::HashSet;

use proptest::prelude::*;

use bulk_delete::prelude::*;

const RECORD_LEN: usize = 32;

fn engines(memory: usize) -> (BtreeEngine, LsmTable) {
    let schema = Schema::new(3, RECORD_LEN);
    let btree = BtreeEngine::new(schema, memory, 1).unwrap();
    let lsm = LsmTable::new(schema, memory, LsmConfig::tiny());
    (btree, lsm)
}

/// One workload step, applied to both engines.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    BulkDelete(Vec<u64>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof is unweighted; repeated arms skew the mix
    // toward inserts and point deletes.
    prop_oneof![
        (0u64..400, 0u64..50).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..400, 0u64..50).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..400, 0u64..50).prop_map(|(k, v)| Op::Insert(k, v)),
        prop::collection::vec(0u64..400, 1..40).prop_map(Op::BulkDelete),
        prop::collection::vec(0u64..400, 1..40).prop_map(Op::BulkDelete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random build, delete, and re-insert sequences leave the two
    /// engines logically identical, with clean structural audits.
    #[test]
    fn lsm_and_btree_stay_equivalent(
        initial in prop::collection::vec((0u64..400, 0u64..50), 0..150),
        ops in prop::collection::vec(op_strategy(), 1..25),
    ) {
        let (mut btree, mut lsm) = engines(1 << 20);

        // Seed both with the same deduplicated rows via bulk_load.
        let mut seen = HashSet::new();
        let rows: Vec<Tuple> = initial
            .into_iter()
            .filter(|(k, _)| seen.insert(*k))
            .map(|(k, v)| Tuple::new(vec![k, v, k % 7]))
            .collect();
        btree.bulk_load(&rows).unwrap();
        lsm.bulk_load(&rows).unwrap();

        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    let t = Tuple::new(vec![*k, *v, *k % 7]);
                    let a = btree.insert(&t);
                    let b = lsm.insert(&t);
                    prop_assert_eq!(
                        a.is_ok(), b.is_ok(),
                        "insert({}) disagreed: btree {:?}, lsm {:?}", k, a, b
                    );
                }
                Op::BulkDelete(keys) => {
                    let a = btree.bulk_delete(keys).unwrap();
                    let b = lsm.bulk_delete(keys).unwrap();
                    prop_assert_eq!(a.deleted, b.deleted, "bulk_delete count diverged");
                }
            }
            // Every step can flush/compact the LSM side: the engines and
            // the LSM page catalog must stay clean throughout.
            let eq = audit_engine_equivalence(&mut btree, &mut lsm).unwrap();
            prop_assert!(eq.is_clean(), "after {:?}: {}", op, eq.render());
            let pages = lsm.audit_pages();
            prop_assert!(pages.is_clean(), "after {:?}: {}", op, pages.render());
        }
    }

    /// Point lookups agree on random probes, including keys that were
    /// deleted or never present.
    #[test]
    fn lookups_agree_on_random_probes(
        rows in prop::collection::vec(0u64..300, 1..120),
        doomed in prop::collection::vec(0u64..300, 0..60),
        probes in prop::collection::vec(0u64..350, 1..40),
    ) {
        let (mut btree, mut lsm) = engines(1 << 20);
        let mut seen = HashSet::new();
        let rows: Vec<Tuple> = rows
            .into_iter()
            .filter(|k| seen.insert(*k))
            .map(|k| Tuple::new(vec![k, k % 13, k % 7]))
            .collect();
        btree.bulk_load(&rows).unwrap();
        lsm.bulk_load(&rows).unwrap();
        btree.bulk_delete(&doomed).unwrap();
        lsm.bulk_delete(&doomed).unwrap();

        for &k in &probes {
            prop_assert_eq!(
                btree.lookup(k).unwrap(),
                lsm.lookup(k).unwrap(),
                "lookup({}) diverged", k
            );
        }
    }
}

/// Deterministic mixed delete list: duplicates, absent keys, keys that live
/// only in the memtable, and keys a newer run's tombstones bury over an
/// older run's puts. Every kind must resolve exactly as the B-tree does.
#[test]
fn mixed_delete_list_resolves_like_the_btree() {
    let (mut btree, mut lsm) = engines(1 << 20);
    let rows: Vec<Tuple> = (0..500)
        .map(|i| Tuple::new(vec![i * 2, i % 13, i % 7]))
        .collect();
    btree.bulk_load(&rows).unwrap();
    lsm.bulk_load(&rows).unwrap();
    // The tombstones of keys 100..=198 flush into a level-0 run above the
    // loaded runs.
    let buried: Vec<Key> = (50..100).map(|i| i * 2).collect();
    btree.bulk_delete(&buried).unwrap();
    lsm.bulk_delete(&buried).unwrap();
    // Fewer inserts than the memtable holds: these stay unflushed, and 150
    // is resurrected inside the buried range.
    for k in [2001, 2003, 2005, 150] {
        let t = Tuple::new(vec![k, 1, 1]);
        btree.insert(&t).unwrap();
        lsm.insert(&t).unwrap();
    }
    let s = lsm.lsm_stats();
    assert!(s.memtable == 4 && s.tombstones > 0, "{s:?}");

    let d: Vec<Key> = vec![
        2001, 120, 150, 2001, 7, 300, 130, 300, 999_999, 2003, 150, 198, 0,
    ];
    let a = btree.bulk_delete(&d).unwrap();
    let b = lsm.bulk_delete(&d).unwrap();
    assert_eq!(
        a.deleted, 5,
        "2001, 150, 300, 2003 and 0 are live once each"
    );
    assert_eq!(a.deleted, b.deleted);
    for &k in &d {
        assert_eq!(lsm.lookup(k).unwrap(), None, "key {k}");
    }
    let eq = audit_engine_equivalence(&mut btree, &mut lsm).unwrap();
    assert!(eq.is_clean(), "{}", eq.render());
    assert!(lsm.audit_pages().is_clean());
}

/// Deterministic heavy-churn case: enough volume to force multi-level
/// compaction on the tiny config, checked step by step.
#[test]
fn heavy_churn_compacts_and_stays_equivalent() {
    let (mut btree, mut lsm) = engines(2 << 20);
    let rows: Vec<Tuple> = (0..1500)
        .map(|i| Tuple::new(vec![i * 2, i % 13, i % 7]))
        .collect();
    btree.bulk_load(&rows).unwrap();
    lsm.bulk_load(&rows).unwrap();

    for round in 0u64..6 {
        let doomed: Vec<Key> = (0..120).map(|i| (round * 120 + i) * 2).collect();
        let a = btree.bulk_delete(&doomed).unwrap();
        let b = lsm.bulk_delete(&doomed).unwrap();
        assert_eq!(a.deleted, b.deleted, "round {round}");

        // Re-insert a third of what this round deleted.
        for &k in doomed.iter().step_by(3) {
            let t = Tuple::new(vec![k, 99, 99]);
            btree.insert(&t).unwrap();
            lsm.insert(&t).unwrap();
        }
        let eq = audit_engine_equivalence(&mut btree, &mut lsm).unwrap();
        assert!(eq.is_clean(), "round {round}: {}", eq.render());
        assert!(lsm.audit_pages().is_clean(), "round {round}");
    }
    assert!(
        lsm.lsm_stats().compactions > 0,
        "churn must have compacted: {:?}",
        lsm.lsm_stats()
    );
}
