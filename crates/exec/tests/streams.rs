//! Additional exec-layer tests: statistics, read errors and budget
//! interactions of the external sorter.

use std::sync::Arc;

use bd_exec::{sort_all, ByRid, Rec};
use bd_storage::{
    BufferPool, CostModel, FaultPlan, FaultSpec, Rid, SimDisk, StorageError, StructureId,
};

fn pool() -> Arc<BufferPool> {
    BufferPool::new(SimDisk::new(CostModel::default()), 64)
}

fn lcg(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        })
        .collect()
}

#[test]
fn stats_count_items_runs_and_passes() {
    let items = lcg(100_000, 8);
    let (_, stats) = sort_all(pool(), items, 32 * 1024).unwrap();
    assert_eq!(stats.items, 100_000);
    // 32 KiB budget = 4096 u64s/run => ~25 runs; fan-in 2 => several passes.
    assert!(stats.runs >= 24, "{stats:?}");
    assert!(stats.merge_passes >= 3, "{stats:?}");
}

#[test]
fn presorted_input_stays_sorted() {
    let items: Vec<u64> = (0..50_000).collect();
    let (sorted, _) = sort_all(pool(), items.clone(), 16 * 1024).unwrap();
    assert_eq!(sorted, items);
}

#[test]
fn reverse_sorted_input() {
    let items: Vec<u64> = (0..50_000).rev().collect();
    let (sorted, _) = sort_all(pool(), items, 16 * 1024).unwrap();
    let expect: Vec<u64> = (0..50_000).collect();
    assert_eq!(sorted, expect);
}

#[test]
fn all_equal_items() {
    let items = vec![7u64; 30_000];
    let (sorted, _) = sort_all(pool(), items.clone(), 8 * 1024).unwrap();
    assert_eq!(sorted, items);
}

#[test]
fn into_vec_propagates_merge_read_error() {
    let items = lcg(60_000, 22);
    // A twin sort on a fresh pool learns the last page the sort writes:
    // page ids are never reused here, so it belongs to the last run the
    // final merge reads.
    let twin = pool();
    sort_all(twin.clone(), items.clone(), 64 * 1024).unwrap();
    let bad = twin.with_disk(|d| d.num_pages() as u32 - 1);
    let p = pool();
    p.with_disk(|d| d.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(bad))));
    assert_eq!(
        sort_all(p.clone(), items, 64 * 1024).unwrap_err(),
        StorageError::InjectedFault(bad)
    );
    assert!(
        p.catalog().pages_of(StructureId::Temp).is_empty(),
        "a failed merge must free every run"
    );
}

#[test]
fn byrid_encoding_roundtrips() {
    let b = ByRid(Rid::new(123_456, 789), 0xDEAD_BEEF_DEAD_BEEF);
    let mut buf = [0u8; 16];
    b.encode(&mut buf);
    assert_eq!(ByRid::decode(&buf), b);
}

#[test]
fn key_rid_encoding_roundtrips() {
    let e = (u64::MAX - 5, Rid::new(u32::MAX - 1, 65_000));
    let mut buf = [0u8; 16];
    e.encode(&mut buf);
    assert_eq!(<(u64, Rid)>::decode(&buf), e);
}

#[test]
fn spilled_sort_budget_is_transient() {
    // The sorter's in-memory buffer is bounded by the budget; verify the
    // output is complete and the temp segments were fully consumed.
    let p = pool();
    let items = lcg(60_000, 12);
    let (sorted, stats) = sort_all(p.clone(), items.clone(), 24 * 1024).unwrap();
    assert_eq!(sorted.len(), items.len());
    assert!(stats.runs > 0);
    // Workspace budget (tracked separately by MemoryBudget in the engine)
    // is untouched here; this sorter only bounds its own buffer.
    let mut expect = items;
    expect.sort_unstable();
    assert_eq!(sorted, expect);
}
