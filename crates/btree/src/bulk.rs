//! Leaf-level bulk deletion — the index side of the paper's `⋈̄` operator.
//!
//! Two primary-predicate variants, matching §2.1's "Primary ⋈̄ predicate"
//! choice:
//!
//! * [`bulk_delete_sorted`] — the delete list is sorted by `(key, rid)` and
//!   merged against the leaf chain (the sort/merge plan of Fig. 3). One
//!   descent finds the first affected leaf; from there the pass walks
//!   strictly left-to-right, touching each affected leaf exactly once.
//! * [`bulk_delete_probe`] — the delete list is a RID hash set probed by a
//!   full (or key-range-restricted) leaf scan (the hash plans of Figs. 4
//!   and 5: "the leaf pages of the indices ... are scanned and the RIDs of
//!   each record is probed with the hash table").
//!
//! Both operate "in place ... on the original leaf node pages", as §2.1
//! requires of any viable ⋈̄ method, and both return the deleted entries so
//! the operator's output can be piped into downstream bulk deletes.

use std::cell::Cell;
use std::collections::HashSet;

use bd_storage::{PageId, ReadAhead, Rid, StorageResult};

use crate::node::{key_floor, Key, NodeMut};
use crate::reorg::{patch_parents, post_pass, ReorgPolicy};
use crate::tree::BTree;

/// Close out a bulk-delete pass. On the success path, patch the parents of
/// the freed leaves and run the policy's reorganization pass. On the error
/// path (a fault, or a cancelled pacer), still patch the parents — with
/// pacer checkpoints suspended, since this small, bounded cleanup is what
/// leaves the tree structurally consistent (freed leaves fully detached,
/// `len` already maintained per leaf) so a later run can resume from the
/// partial state. The cleanup
/// I/O remains charged to the simulated clock.
fn finish_pass(
    tree: &mut BTree,
    walked: StorageResult<()>,
    freed: &HashSet<PageId>,
    policy: ReorgPolicy,
) -> StorageResult<()> {
    let finished = walked.and_then(|()| {
        patch_parents(tree, freed)?;
        post_pass(tree, policy)
    });
    if let Err(e) = finished {
        let _ = bd_storage::io_scope::bypass_cancel(|| patch_parents(tree, freed));
        return Err(e);
    }
    Ok(())
}

/// Windowed read-ahead for a leaf walk entering at `start`: the extent of a
/// contiguously bulk-loaded leaf level streams in via chained reads (pages a
/// pass frees *behind* the cursor stay readable in the cost model, so
/// prefetching ahead of an in-place delete is safe). A fragmented tree has
/// no extent — the plan is empty and every pin passes through untouched.
fn leaf_read_ahead(tree: &BTree, start: PageId) -> ReadAhead {
    ReadAhead::over_extent(tree.pool().clone(), tree.leaf_extent(), start)
}

/// The one leaf walk behind every variant below: from `start`, strictly
/// left to right, each leaf pinned for write exactly once and rewritten in
/// place without the entries `doomed` picks (it sees every entry of every
/// visited leaf, in order). `stop` is asked before each pin, with the number
/// of entries deleted so far; the walk also ends at the end of the chain.
/// Emptied leaves are freed and unlinked unless `policy` is `None`.
/// Returns the deleted entries in walk order.
fn sweep_leaves(
    tree: &mut BTree,
    start: PageId,
    policy: ReorgPolicy,
    mut stop: impl FnMut(usize) -> bool,
    mut doomed: impl FnMut((Key, Rid)) -> bool,
) -> StorageResult<Vec<(Key, Rid)>> {
    let mut deleted = Vec::new();
    let mut freed: HashSet<PageId> = HashSet::new();
    let mut prev: Option<PageId> = None;
    let mut cur = Some(start);
    let mut ra = leaf_read_ahead(tree, start);

    let walked = (|| -> StorageResult<()> {
        while let Some(pid) = cur {
            if stop(deleted.len()) {
                break;
            }
            // Pause point: between leaves, no pin held, freed set and the
            // per-leaf `len` counter consistent.
            bd_storage::pacer::checkpoint()?;
            ra.before_pin(pid);
            let mut w = tree.pool().pin_write(pid)?;
            let mut node = NodeMut::new(&mut w[..]);
            let entries = node.as_ref().leaf_entries();
            let mut keep = Vec::with_capacity(entries.len());
            let before = deleted.len();
            for e in entries.iter().copied() {
                if doomed(e) {
                    deleted.push(e);
                } else {
                    keep.push(e);
                }
            }
            let changed = deleted.len() > before;
            if changed {
                node.leaf_set_entries(&keep);
            }
            let next = node.as_ref().right_sibling();
            let emptied = changed && keep.is_empty();
            drop(w);
            // Maintain `len` leaf by leaf (no disk access since the leaf
            // was rewritten), so an aborted pass never leaves the entry
            // count overstated.
            tree.sub_len(deleted.len() - before);
            if emptied && pid != tree.root_page() && policy != ReorgPolicy::None {
                freed.insert(pid);
                tree.stats_mut().leaves_freed += 1;
                tree.pool().free_page(pid);
                if let Some(pv) = prev {
                    let mut pw = tree.pool().pin_write(pv)?;
                    NodeMut::new(&mut pw[..]).set_right_sibling(next);
                }
            } else if !entries.is_empty() || pid == tree.root_page() {
                prev = Some(pid);
            }
            cur = next;
        }
        Ok(())
    })();

    finish_pass(tree, walked, &freed, policy)?;
    Ok(deleted)
}

/// Delete every `(key, rid)` in `victims` (sorted ascending) by merging the
/// list into a left-to-right leaf walk. Victims not present in the tree are
/// skipped. Returns the deleted entries in order.
pub fn bulk_delete_sorted(
    tree: &mut BTree,
    victims: &[(Key, Rid)],
    policy: ReorgPolicy,
) -> StorageResult<Vec<(Key, Rid)>> {
    debug_assert!(victims.windows(2).all(|w| w[0] <= w[1]), "victims unsorted");
    if victims.is_empty() {
        return Ok(Vec::new());
    }
    let (start_leaf, _) = tree.descend(victims[0])?;
    let vi = Cell::new(0usize);
    sweep_leaves(
        tree,
        start_leaf,
        policy,
        |_| vi.get() >= victims.len(),
        |e| {
            let mut i = vi.get();
            while i < victims.len() && victims[i] < e {
                i += 1; // victim not present in the tree
            }
            let hit = i < victims.len() && victims[i] == e;
            vi.set(i + usize::from(hit));
            hit
        },
    )
}

/// Delete every entry whose *key* appears in `keys` (sorted ascending,
/// duplicates in the tree all removed) by merging the key list into a
/// left-to-right leaf walk. This is the first `⋈̄` of every vertical plan:
/// the delete list `D` holds key values only; the RIDs are this operator's
/// *output*. Returns the deleted entries in order.
pub fn bulk_delete_by_keys(
    tree: &mut BTree,
    keys: &[Key],
    policy: ReorgPolicy,
) -> StorageResult<Vec<(Key, Rid)>> {
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys unsorted");
    if keys.is_empty() {
        return Ok(Vec::new());
    }
    let (start_leaf, _) = tree.descend(key_floor(keys[0]))?;
    let ki = Cell::new(0usize);
    sweep_leaves(
        tree,
        start_leaf,
        policy,
        |_| ki.get() >= keys.len(),
        |e| {
            let mut i = ki.get();
            while i < keys.len() && keys[i] < e.0 {
                i += 1; // key not present in the tree
            }
            // A hit does not advance: the key may have more duplicates.
            ki.set(i);
            i < keys.len() && keys[i] == e.0
        },
    )
}

/// Delete every entry whose RID is in `victims`, scanning the leaf level
/// (optionally restricted to keys in `key_range`). Returns deleted entries
/// in scan order.
pub fn bulk_delete_probe(
    tree: &mut BTree,
    victims: &HashSet<Rid>,
    key_range: Option<(Key, Key)>,
    policy: ReorgPolicy,
) -> StorageResult<Vec<(Key, Rid)>> {
    if victims.is_empty() {
        return Ok(Vec::new());
    }
    let start_leaf = match key_range {
        Some((lo, _)) => tree.descend(key_floor(lo))?.0,
        None => tree.first_leaf()?,
    };
    let past_range = Cell::new(false);
    sweep_leaves(
        tree,
        start_leaf,
        policy,
        |deleted| past_range.get() || deleted == victims.len(),
        |e| {
            if key_range.is_some_and(|(_, hi)| e.0 > hi) {
                past_range.set(true);
                return false;
            }
            victims.contains(&e.1)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk_load::bulk_load;
    use crate::scan::LeafScan;
    use crate::tree::BTreeConfig;
    use bd_storage::{BufferPool, CostModel, SimDisk, StructureId};
    use std::sync::Arc;

    fn pool(frames: usize) -> Arc<BufferPool> {
        BufferPool::new(SimDisk::new(CostModel::default()), frames)
    }

    fn rid(i: u64) -> Rid {
        Rid::new((i / 7) as u32, (i % 7) as u16)
    }

    fn loaded(n: u64, fanout: usize) -> BTree {
        let entries: Vec<(Key, Rid)> = (0..n).map(|k| (k, rid(k))).collect();
        bulk_load(
            pool(512),
            BTreeConfig::with_fanout(fanout),
            &entries,
            1.0,
            StructureId::Index(0),
        )
        .unwrap()
    }

    #[test]
    fn sorted_bulk_delete_matches_one_by_one() {
        let mut bulk = loaded(2000, 16);
        let mut trad = loaded(2000, 16);
        let victims: Vec<(Key, Rid)> = (0..2000u64)
            .filter(|k| k % 3 == 0)
            .map(|k| (k, rid(k)))
            .collect();
        let deleted = bulk_delete_sorted(&mut bulk, &victims, ReorgPolicy::FreeAtEmpty).unwrap();
        assert_eq!(deleted, victims);
        for &(k, r) in &victims {
            assert!(trad.delete_one(k, r).unwrap());
        }
        let a: Vec<_> = LeafScan::new(&bulk).unwrap().collect();
        let b: Vec<_> = LeafScan::new(&trad).unwrap().collect();
        assert_eq!(a, b);
        assert_eq!(bulk.len(), trad.len());
        crate::verify::check(&bulk).unwrap();
    }

    #[test]
    fn missing_victims_are_skipped() {
        let mut t = loaded(100, 8);
        let victims = vec![
            (5, rid(5)),
            (5, Rid::new(99, 9)), // wrong rid
            (50, rid(50)),
            (1000, rid(0)), // key past the end
        ];
        let deleted = bulk_delete_sorted(&mut t, &victims, ReorgPolicy::FreeAtEmpty).unwrap();
        assert_eq!(deleted, vec![(5, rid(5)), (50, rid(50))]);
        assert_eq!(t.len(), 98);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn empty_victims_is_noop() {
        let mut t = loaded(50, 8);
        let deleted = bulk_delete_sorted(&mut t, &[], ReorgPolicy::FreeAtEmpty).unwrap();
        assert!(deleted.is_empty());
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn delete_all_entries_leaves_empty_tree() {
        let mut t = loaded(500, 8);
        let victims: Vec<(Key, Rid)> = (0..500u64).map(|k| (k, rid(k))).collect();
        let deleted = bulk_delete_sorted(&mut t, &victims, ReorgPolicy::FreeAtEmpty).unwrap();
        assert_eq!(deleted.len(), 500);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        for k in (0..500).step_by(37) {
            assert_eq!(t.search(k).unwrap(), Vec::<Rid>::new());
        }
        // Tree stays usable.
        t.insert(7, rid(7)).unwrap();
        assert_eq!(t.search(7).unwrap(), vec![rid(7)]);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn contiguous_range_delete_frees_leaves_and_patches_parents() {
        let mut t = loaded(4000, 16);
        // Delete one dense stripe: keys 1000..2000 — frees ~62 leaves.
        let victims: Vec<(Key, Rid)> = (1000..2000u64).map(|k| (k, rid(k))).collect();
        bulk_delete_sorted(&mut t, &victims, ReorgPolicy::FreeAtEmpty).unwrap();
        assert_eq!(t.len(), 3000);
        assert!(t.stats().leaves_freed >= 60, "{:?}", t.stats());
        assert_eq!(t.search(1500).unwrap(), Vec::<Rid>::new());
        assert_eq!(t.search(999).unwrap(), vec![rid(999)]);
        assert_eq!(t.search(2000).unwrap(), vec![rid(2000)]);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn probe_matches_sorted_results() {
        let mut a = loaded(3000, 16);
        let mut b = loaded(3000, 16);
        let victims: Vec<(Key, Rid)> = (0..3000u64)
            .filter(|k| k % 5 == 0)
            .map(|k| (k, rid(k)))
            .collect();
        let by_sort = bulk_delete_sorted(&mut a, &victims, ReorgPolicy::FreeAtEmpty).unwrap();
        let set: HashSet<Rid> = victims.iter().map(|v| v.1).collect();
        let by_probe = bulk_delete_probe(&mut b, &set, None, ReorgPolicy::FreeAtEmpty).unwrap();
        assert_eq!(by_sort, by_probe);
        let sa: Vec<_> = LeafScan::new(&a).unwrap().collect();
        let sb: Vec<_> = LeafScan::new(&b).unwrap().collect();
        assert_eq!(sa, sb);
        crate::verify::check(&a).unwrap();
        crate::verify::check(&b).unwrap();
    }

    #[test]
    fn probe_with_key_range_only_touches_range() {
        let mut t = loaded(2000, 16);
        // Victim rids for keys 500..700, but also include rids of keys
        // outside the range — those must NOT be deleted.
        let mut set: HashSet<Rid> = (500..700u64).map(rid).collect();
        set.insert(rid(10));
        set.insert(rid(1900));
        let deleted =
            bulk_delete_probe(&mut t, &set, Some((500, 699)), ReorgPolicy::FreeAtEmpty).unwrap();
        assert_eq!(deleted.len(), 200);
        assert!(deleted.iter().all(|&(k, _)| (500..700).contains(&k)));
        assert_eq!(t.search(10).unwrap(), vec![rid(10)]);
        assert_eq!(t.search(1900).unwrap(), vec![rid(1900)]);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn bulk_delete_reads_leaves_sequentially() {
        let mut t = loaded(50_000, 255);
        let victims: Vec<(Key, Rid)> = (0..50_000u64)
            .filter(|k| k % 7 == 0)
            .map(|k| (k, rid(k)))
            .collect();
        t.pool().clear_cache().unwrap();
        t.pool().reset_stats();
        bulk_delete_sorted(&mut t, &victims, ReorgPolicy::FreeAtEmpty).unwrap();
        let s = t.pool().disk_stats();
        // ~197 leaves; with chained prefetch + clustered write-back the
        // positioning count must be far below the page count.
        assert!(
            s.total_random() * 3 <= s.total_ios(),
            "bulk delete should be mostly sequential: {s:?}"
        );
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn reorg_none_keeps_empty_leaves_attached() {
        let mut t = loaded(1000, 8);
        let victims: Vec<(Key, Rid)> = (200..400u64).map(|k| (k, rid(k))).collect();
        bulk_delete_sorted(&mut t, &victims, ReorgPolicy::None).unwrap();
        assert_eq!(t.stats().leaves_freed, 0);
        assert_eq!(t.len(), 800);
        assert_eq!(t.search(300).unwrap(), Vec::<Rid>::new());
        assert_eq!(t.search(199).unwrap(), vec![rid(199)]);
        // NB: verify::check tolerates reachable empty leaves? It must: with
        // ReorgPolicy::None empty leaves stay reachable.
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn compact_leaves_restores_contiguity() {
        let mut t = loaded(2000, 16);
        let victims: Vec<(Key, Rid)> = (0..2000u64)
            .filter(|k| k % 2 == 0)
            .map(|k| (k, rid(k)))
            .collect();
        bulk_delete_sorted(&mut t, &victims, ReorgPolicy::CompactLeaves).unwrap();
        assert_eq!(t.len(), 1000);
        assert!(t.has_contiguous_leaves());
        let (_, n_leaves) = t.leaf_extent().unwrap();
        assert_eq!(n_leaves, 1000usize.div_ceil(16));
        for k in (1..2000u64).step_by(2) {
            assert_eq!(t.search(k).unwrap(), vec![rid(k)], "key {k}");
        }
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn by_keys_deletes_all_duplicates() {
        let mut entries: Vec<(Key, Rid)> = Vec::new();
        for k in 0..300u64 {
            for d in 0..3u16 {
                entries.push((k, Rid::new(k as u32, d)));
            }
        }
        let mut t = bulk_load(
            pool(256),
            BTreeConfig::with_fanout(8),
            &entries,
            1.0,
            StructureId::Index(0),
        )
        .unwrap();
        let keys: Vec<Key> = (0..300u64).filter(|k| k % 4 == 0).collect();
        let deleted = bulk_delete_by_keys(&mut t, &keys, ReorgPolicy::FreeAtEmpty).unwrap();
        assert_eq!(deleted.len(), keys.len() * 3);
        for k in 0..300u64 {
            let expect = if k % 4 == 0 { 0 } else { 3 };
            assert_eq!(t.search(k).unwrap().len(), expect, "key {k}");
        }
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn by_keys_skips_missing_keys_and_terminates_early() {
        let mut t = loaded(1000, 16);
        let keys = vec![5, 6, 7, 423, 424, 5000, 6000];
        let deleted = bulk_delete_by_keys(&mut t, &keys, ReorgPolicy::FreeAtEmpty).unwrap();
        let got: Vec<Key> = deleted.iter().map(|e| e.0).collect();
        assert_eq!(got, vec![5, 6, 7, 423, 424]);
        assert_eq!(t.len(), 995);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn by_keys_matches_sorted_pairs_on_unique_keys() {
        let mut a = loaded(2000, 16);
        let mut b = loaded(2000, 16);
        let keys: Vec<Key> = (0..2000u64).filter(|k| k % 9 == 0).collect();
        let pairs: Vec<(Key, Rid)> = keys.iter().map(|&k| (k, rid(k))).collect();
        let da = bulk_delete_by_keys(&mut a, &keys, ReorgPolicy::FreeAtEmpty).unwrap();
        let db = bulk_delete_sorted(&mut b, &pairs, ReorgPolicy::FreeAtEmpty).unwrap();
        assert_eq!(da, db);
        let sa: Vec<_> = LeafScan::new(&a).unwrap().collect();
        let sb: Vec<_> = LeafScan::new(&b).unwrap().collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn base_node_pack_preserves_contents_and_invariants() {
        let mut t = loaded(3000, 16);
        let victims: Vec<(Key, Rid)> = (0..3000u64)
            .filter(|k| k % 3 != 0)
            .map(|k| (k, rid(k)))
            .collect();
        let deleted = bulk_delete_sorted(&mut t, &victims, ReorgPolicy::BaseNodePack).unwrap();
        assert_eq!(deleted.len(), victims.len());
        assert_eq!(t.len(), 1000);
        for k in (0..3000u64).step_by(3) {
            assert_eq!(t.search(k).unwrap(), vec![rid(k)], "key {k}");
        }
        // Packing: every leaf except possibly the last is full.
        let pages: Vec<_> = crate::scan::LeafPages::new(&t)
            .unwrap()
            .map(|p| p.unwrap())
            .collect();
        for (i, &pid) in pages.iter().enumerate() {
            let r = t.pool().pin_read(pid).unwrap();
            let n = crate::node::NodeRef::new(&r[..]).nkeys();
            if i + 1 < pages.len() {
                assert!(n > 0, "kept leaf {pid} empty");
            }
        }
        crate::verify::check(&t).unwrap();
        // Tree remains fully usable.
        t.insert(1, rid(1)).unwrap();
        assert_eq!(t.search(1).unwrap(), vec![rid(1)]);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn base_node_pack_handles_total_emptying() {
        let mut t = loaded(500, 8);
        let victims: Vec<(Key, Rid)> = (0..500u64).map(|k| (k, rid(k))).collect();
        bulk_delete_sorted(&mut t, &victims, ReorgPolicy::BaseNodePack).unwrap();
        assert!(t.is_empty());
        t.insert(9, rid(9)).unwrap();
        assert_eq!(t.search(9).unwrap(), vec![rid(9)]);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn base_node_pack_reduces_leaf_count() {
        let mut sparse = loaded(4000, 16);
        let victims: Vec<(Key, Rid)> = (0..4000u64)
            .filter(|k| k % 4 != 0)
            .map(|k| (k, rid(k)))
            .collect();
        bulk_delete_sorted(&mut sparse, &victims, ReorgPolicy::None).unwrap();
        let leaves_before = crate::scan::LeafPages::new(&sparse).unwrap().count();
        crate::reorg::post_pass(&mut sparse, ReorgPolicy::BaseNodePack).unwrap();
        let leaves_after = crate::scan::LeafPages::new(&sparse).unwrap().count();
        assert!(
            leaves_after * 3 <= leaves_before,
            "{leaves_before} -> {leaves_after}"
        );
        crate::verify::check(&sparse).unwrap();
    }

    #[test]
    fn base_node_pack_unlinks_trailing_freed_base() {
        // Regression: when the *trailing* base subtree(s) empty, the freed
        // base was never unlinked from the previous kept base — the level-1
        // chain ended in a dangling pointer to a freed (and, with
        // recycling, eventually zeroed) page.
        let mut t = loaded(1000, 8);
        assert!(t.height() >= 3);
        // Empty every subtree holding the top of the key range.
        let victims: Vec<(Key, Rid)> = (600..1000u64).map(|k| (k, rid(k))).collect();
        bulk_delete_sorted(&mut t, &victims, ReorgPolicy::BaseNodePack).unwrap();
        assert_eq!(t.len(), 600);
        // Walk level 1: every chained node must still be catalog-owned.
        let catalog = t.pool().catalog();
        let mut pid = Some(t.leftmost_of_level(1).unwrap());
        let mut seen = 0;
        while let Some(p) = pid {
            assert!(
                catalog.owner(p).is_some(),
                "level-1 chain reaches freed page {p}"
            );
            let r = t.pool().pin_read(p).unwrap();
            pid = crate::node::NodeRef::new(&r[..]).right_sibling();
            seen += 1;
            assert!(seen <= 1000, "level-1 chain does not terminate");
        }
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn incremental_packer_matches_one_shot_pack() {
        use crate::reorg::IncrementalPacker;
        let mut sparse = loaded(4000, 16);
        let victims: Vec<(Key, Rid)> = (0..4000u64)
            .filter(|k| k % 4 != 0)
            .map(|k| (k, rid(k)))
            .collect();
        bulk_delete_sorted(&mut sparse, &victims, ReorgPolicy::None).unwrap();
        let before: Vec<_> = LeafScan::new(&sparse).unwrap().collect();
        let leaves_before = crate::scan::LeafPages::new(&sparse).unwrap().count();
        // Drive the packer in small budgeted steps; the tree must be fully
        // consistent and content-complete after every step.
        let mut packer = IncrementalPacker::new();
        let mut steps = 0;
        loop {
            let p = packer.step(&mut sparse, 3).unwrap();
            crate::verify::check(&sparse).unwrap();
            let now: Vec<_> = LeafScan::new(&sparse).unwrap().collect();
            assert_eq!(now, before, "entries changed at step {steps}");
            if p.done {
                break;
            }
            steps += 1;
            assert!(steps <= 1000, "packer does not terminate");
        }
        assert!(packer.is_done());
        let leaves_after = crate::scan::LeafPages::new(&sparse).unwrap().count();
        assert!(
            leaves_after * 3 <= leaves_before,
            "{leaves_before} -> {leaves_after}"
        );
        // A fresh pass over the packed tree finds nothing left to free.
        let mut again = IncrementalPacker::new();
        let mut freed = 0;
        loop {
            let p = again.step(&mut sparse, 100).unwrap();
            freed += p.pages_freed;
            if p.done {
                break;
            }
        }
        assert_eq!(freed, 0, "second pass must be a no-op");
        sparse.recount().unwrap();
        assert_eq!(sparse.len(), 1000);
    }

    #[test]
    fn incremental_packer_handles_empty_subtrees_mid_pass() {
        use crate::reorg::IncrementalPacker;
        let mut t = loaded(2000, 8);
        // Empty an interior key band and the trailing band entirely,
        // leaving sparse survivors elsewhere.
        let victims: Vec<(Key, Rid)> = (0..2000u64)
            .filter(|k| (500..900).contains(k) || *k >= 1600 || k % 2 == 1)
            .map(|k| (k, rid(k)))
            .collect();
        let survivors = 2000 - victims.len();
        bulk_delete_sorted(&mut t, &victims, ReorgPolicy::None).unwrap();
        let mut packer = IncrementalPacker::new();
        loop {
            let p = packer.step(&mut t, 2).unwrap();
            crate::verify::check(&t).unwrap();
            if p.done {
                break;
            }
        }
        t.recount().unwrap();
        assert_eq!(t.len(), survivors);
        for k in (0..500u64).step_by(2) {
            assert_eq!(t.search(k).unwrap(), vec![rid(k)], "key {k}");
        }
        for k in 500..900u64 {
            assert_eq!(t.search(k).unwrap(), Vec::<Rid>::new(), "key {k}");
        }
    }

    #[test]
    fn incremental_packer_empties_whole_tree() {
        use crate::reorg::IncrementalPacker;
        let mut t = loaded(500, 8);
        let victims: Vec<(Key, Rid)> = (0..500u64).map(|k| (k, rid(k))).collect();
        bulk_delete_sorted(&mut t, &victims, ReorgPolicy::None).unwrap();
        let mut packer = IncrementalPacker::new();
        loop {
            let p = packer.step(&mut t, 4).unwrap();
            crate::verify::check(&t).unwrap();
            if p.done {
                break;
            }
        }
        assert!(t.height() <= 2, "empty tree must collapse");
        t.insert(9, rid(9)).unwrap();
        assert_eq!(t.search(9).unwrap(), vec![rid(9)]);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn sweep_detached_inners_cleans_every_level_chain() {
        use crate::reorg::sweep_detached_inners;
        let mut t = loaded(2000, 8);
        // Record-at-a-time deletes cascade free-at-empty through inner
        // nodes, which stay lazily chained at their levels.
        for k in 400..1400u64 {
            assert!(t.delete_one(k, rid(k)).unwrap());
        }
        assert!(t.stats().inners_freed > 0, "need freed inners to sweep");
        let unlinked = sweep_detached_inners(&t).unwrap();
        assert!(unlinked > 0, "sweep found nothing to unlink");
        // Every inner-level chain now contains only owned pages.
        let catalog = t.pool().catalog();
        for level in 1..t.height() {
            let mut pid = Some(t.leftmost_of_level(level).unwrap());
            while let Some(p) = pid {
                assert!(
                    catalog.owner(p).is_some(),
                    "level-{level} chain reaches freed page {p}"
                );
                let r = t.pool().pin_read(p).unwrap();
                pid = crate::node::NodeRef::new(&r[..]).right_sibling();
            }
        }
        // Idempotent: a second sweep finds nothing.
        assert_eq!(sweep_detached_inners(&t).unwrap(), 0);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn duplicates_bulk_delete_specific_rids() {
        let mut entries: Vec<(Key, Rid)> = Vec::new();
        for k in 0..200u64 {
            for d in 0..4u16 {
                entries.push((k, Rid::new(k as u32, d)));
            }
        }
        let mut t = bulk_load(
            pool(256),
            BTreeConfig::with_fanout(8),
            &entries,
            1.0,
            StructureId::Index(0),
        )
        .unwrap();
        // Delete duplicate #1 and #3 of every key.
        let victims: Vec<(Key, Rid)> = (0..200u64)
            .flat_map(|k| [(k, Rid::new(k as u32, 1)), (k, Rid::new(k as u32, 3))])
            .collect();
        let deleted = bulk_delete_sorted(&mut t, &victims, ReorgPolicy::FreeAtEmpty).unwrap();
        assert_eq!(deleted.len(), 400);
        for k in 0..200u64 {
            let rids = t.search(k).unwrap();
            assert_eq!(rids, vec![Rid::new(k as u32, 0), Rid::new(k as u32, 2)]);
        }
        crate::verify::check(&t).unwrap();
    }
}
