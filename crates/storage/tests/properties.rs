//! Property-based tests for the storage substrate.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use bd_storage::StructureId;
use bd_storage::{
    BufferPool, CostModel, FreeSpaceMap, HeapFile, MemoryBudget, PageId, Rid, SimDisk, PAGE_SIZE,
};

fn pool(frames: usize) -> std::sync::Arc<BufferPool> {
    BufferPool::new(SimDisk::new(CostModel::default()), frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A heap file behaves exactly like a map from RID to record bytes
    /// under arbitrary insert/delete/get sequences, at any pool size.
    #[test]
    fn heap_matches_model(
        ops in prop::collection::vec((0u8..3, 0usize..64, 1usize..200), 1..300),
        frames in 4usize..32,
    ) {
        let mut heap = HeapFile::create(pool(frames));
        let mut model: HashMap<Rid, Vec<u8>> = HashMap::new();
        let mut live: Vec<Rid> = Vec::new();
        for (op, pick, len) in ops {
            match op {
                0 => {
                    let rec = vec![(len % 251) as u8; len];
                    let rid = heap.insert(&rec).unwrap();
                    prop_assert!(!model.contains_key(&rid), "rid reuse while live");
                    model.insert(rid, rec);
                    live.push(rid);
                }
                1 if !live.is_empty() => {
                    let rid = live.remove(pick % live.len());
                    let bytes = heap.delete(rid).unwrap();
                    prop_assert_eq!(&bytes, &model.remove(&rid).unwrap());
                }
                _ if !live.is_empty() => {
                    let rid = live[pick % live.len()];
                    prop_assert_eq!(&heap.get(rid).unwrap(), model.get(&rid).unwrap());
                }
                _ => {}
            }
        }
        prop_assert_eq!(heap.len(), model.len());
        // Dump (error-checked scan) returns exactly the model contents in
        // RID order.
        let scanned = heap.dump().unwrap();
        prop_assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert_eq!(scanned.len(), model.len());
        for (rid, bytes) in scanned {
            prop_assert_eq!(&bytes, model.get(&rid).unwrap());
        }
        // The structured FSM audit agrees with the assert-based checker.
        prop_assert_eq!(heap.audit_fsm().unwrap(), vec![]);
        heap.verify_fsm().unwrap();
    }

    /// Bulk delete (sorted) equals per-record deletes for any victim set.
    #[test]
    fn heap_bulk_delete_matches_loop(
        n in 1usize..200,
        picks in prop::collection::vec(any::<bool>(), 200),
    ) {
        let mut a = HeapFile::create(pool(16));
        let mut b = HeapFile::create(pool(16));
        let mut rids = Vec::new();
        for i in 0..n {
            let rec = vec![(i % 251) as u8; 40 + i % 100];
            let ra = a.insert(&rec).unwrap();
            let rb = b.insert(&rec).unwrap();
            prop_assert_eq!(ra, rb);
            rids.push(ra);
        }
        let mut victims: Vec<Rid> = rids
            .iter()
            .zip(picks.iter())
            .filter(|(_, &p)| p)
            .map(|(&r, _)| r)
            .collect();
        // Variable-length records let the FSM place later inserts on
        // earlier pages, so insertion order is not RID order.
        victims.sort_unstable();
        let out = a.bulk_delete_sorted(&victims).unwrap();
        prop_assert_eq!(out.len(), victims.len());
        for &v in &victims {
            b.delete(v).unwrap();
        }
        let sa: Vec<_> = a.scan().collect();
        let sb: Vec<_> = b.scan().collect();
        prop_assert_eq!(sa, sb);
    }

    /// Next-fit returns a page that truly fits and is the first fitting
    /// page at or after the cursor, wrapping to the lowest one; `None`
    /// only when no tracked page fits. Pages sit at scattered ids, as a
    /// heap's do between its indices' pages.
    #[test]
    fn fsm_next_fit_is_sound_complete_and_ordered(
        pages in prop::collection::vec((1u32..40, 0usize..PAGE_SIZE), 1..60),
        request in 0usize..PAGE_SIZE,
        cursor in 0u32..2500,
    ) {
        let mut fsm = FreeSpaceMap::new();
        let mut model = std::collections::BTreeMap::new();
        let mut pid = 0;
        for &(gap, free) in &pages {
            pid += gap;
            fsm.update(pid, free);
            model.insert(pid, free);
        }
        let fits = |(&p, &f): (&u32, &usize)| (f >= request).then_some(p);
        let expect = model
            .range(cursor..)
            .find_map(fits)
            .or_else(|| model.iter().find_map(fits));
        prop_assert_eq!(fsm.next_fit(cursor, request), expect);
        if let Some(p) = expect {
            prop_assert!(model[&p] >= request);
        }
    }

    /// Budget arithmetic never loses bytes across arbitrary reserve/release
    /// interleavings.
    #[test]
    fn budget_conserves_bytes(
        ops in prop::collection::vec((any::<bool>(), 1usize..5000), 1..100),
    ) {
        let budget = MemoryBudget::new(64 * 1024);
        let mut held = Vec::new();
        for (acquire, bytes) in ops {
            if acquire {
                if let Ok(r) = budget.reserve(bytes) {
                    held.push(r);
                }
            } else if !held.is_empty() {
                held.pop();
            }
            let expect: usize = held.iter().map(|r| r.bytes()).sum();
            prop_assert_eq!(budget.used(), expect);
            prop_assert!(budget.used() <= budget.capacity());
        }
        drop(held);
        prop_assert_eq!(budget.used(), 0);
    }

    /// The allocator against a set model: a single page is the first
    /// reusable page at or after the hint, else the lowest, else a new
    /// page; a run is the lowest run of reusable pages, else new pages. A
    /// freed page stays quarantined until it is reclaimed, and an owned
    /// page is never handed out.
    #[test]
    fn allocation_matches_a_set_model(
        ops in prop::collection::vec((0u8..4, 0u32..64, 1usize..5), 1..200),
    ) {
        let mut disk = SimDisk::new(CostModel::default());
        let mut owned = BTreeSet::new();
        let mut freed = BTreeSet::new();
        let mut reusable = BTreeSet::new();
        for (op, a, n) in ops {
            match op {
                0 => {
                    let want = reusable
                        .range(a..)
                        .next()
                        .or(reusable.first())
                        .copied()
                        .unwrap_or(disk.num_pages() as PageId);
                    let pid = disk.allocate(StructureId::Index(1), a);
                    prop_assert_eq!(pid, want);
                    prop_assert!(owned.insert(pid), "page {} was owned", pid);
                    reusable.remove(&pid);
                }
                1 | 2 => {
                    let from = if op == 1 { &owned } else { &freed };
                    let Some(&pid) = from.iter().nth(a as usize % from.len().max(1)) else {
                        continue;
                    };
                    if op == 1 {
                        disk.free_page(pid);
                        owned.remove(&pid);
                        freed.insert(pid);
                    } else {
                        prop_assert!(disk.reclaim_page(pid).unwrap());
                        freed.remove(&pid);
                        reusable.insert(pid);
                    }
                }
                _ => {
                    let n = n as PageId;
                    let want = reusable
                        .iter()
                        .copied()
                        .find(|&p| (p..p + n).all(|q| reusable.contains(&q)))
                        .unwrap_or(disk.num_pages() as PageId);
                    let first = disk.allocate_contiguous(n as usize, StructureId::Temp);
                    prop_assert_eq!(first, want);
                    for pid in first..first + n {
                        prop_assert!(owned.insert(pid), "page {} was owned", pid);
                        reusable.remove(&pid);
                    }
                }
            }
            prop_assert_eq!(disk.n_reusable(), reusable.len());
        }
    }

    /// Pages written through the pool read back identically regardless of
    /// eviction pressure, and a flush+crash preserves exactly the flushed
    /// state.
    #[test]
    fn pool_durability_under_pressure(
        writes in prop::collection::vec((0u32..40, any::<u8>()), 1..200),
        frames in 2usize..8,
    ) {
        let mut disk = SimDisk::new(CostModel::default());
        let first = disk.allocate_contiguous(40, StructureId::Table);
        let pool = BufferPool::new(disk, frames);
        let mut model = [0u8; 40];
        for (pid, byte) in writes {
            let mut w = pool.pin_write(first + pid).unwrap();
            w[0] = byte;
            model[pid as usize] = byte;
        }
        pool.flush_all().unwrap();
        pool.crash(); // volatile loss: flushed state must be complete
        for i in 0..40u32 {
            let r = pool.pin_read(first + i).unwrap();
            prop_assert_eq!(r[0], model[i as usize]);
        }
    }
}
