//! End-to-end tests of the windowed read-ahead layer: temp-segment
//! lifecycle under spilling sorts, and fault tolerance inside prefetch
//! chains (a staging failure must degrade to the pin-time read, never
//! abort or corrupt a bulk delete).

use bulk_delete::prelude::*;

use bd_core::audit_catalog;
use bd_exec::sort_all;
use bd_storage::{FaultPlan, FaultSpec, StorageError, StructureId, PAGE_SIZE};
use bd_workload::TableSpec;

fn build(n_rows: usize, total_mem: usize, seed: u64) -> (Database, bd_workload::Workload) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(total_mem));
    let w = TableSpec::tiny(n_rows)
        .with_seed(seed)
        .build(&mut db)
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    (db, w)
}

/// A vertical delete whose RID sort spills to temp segments must release
/// every temp page once the merge drains — the catalog owns zero `Temp`
/// pages afterwards. Before `TempSegment::free`, each spilling sort leaked
/// its run extents forever.
#[test]
fn spilling_vertical_delete_leaves_no_temp_pages() {
    // 256 KiB total => 64 KiB workspace; 10_000 deleted RIDs sort in
    // ~160 KiB of (rid, key) pairs, so the sort must spill.
    let (mut db, w) = build(20_000, 256 << 10, 7);
    let d = w.delete_set(0.5, 8);
    let (_, stats) = sort_all(
        db.pool().clone(),
        d.iter().copied(),
        db.workspace().capacity(),
    )
    .unwrap();
    assert!(stats.runs > 0, "budget must force a spill, got {stats:?}");
    assert!(
        db.pool().catalog().pages_of(StructureId::Temp).is_empty(),
        "probe sort_all must free its own runs"
    );

    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, 1).unwrap();
    assert_eq!(out.deleted.len(), d.len());
    db.check_consistency(w.tid).unwrap();
    let temp = db.pool().catalog().pages_of(StructureId::Temp);
    assert!(temp.is_empty(), "leaked {} temp pages", temp.len());
    audit_catalog(&db, w.tid).unwrap().into_result().unwrap();
}

/// A transient read fault inside a staged prefetch chain: the chain's
/// retries are exhausted best-effort, the salvage pass skips the sick page,
/// and the eventual pin heals it under the pool's bounded retry. The delete
/// must succeed and match a fault-free execution exactly.
#[test]
fn transient_fault_in_prefetch_chain_degrades_to_pin_retry() {
    let (mut reference, wr) = build(8_000, 1 << 20, 21);
    let d = wr.delete_set(0.4, 22);
    strategy::vertical_sort_merge(&mut reference, wr.tid, 0, &d, 1).unwrap();
    reference.check_consistency(wr.tid).unwrap();

    let (mut db, w) = build(8_000, 1 << 20, 21);
    let victim = db.table(w.tid).unwrap().heap.page_ids()[20];
    // 6 failures: the prefetch chain burns 4 (one issue + three retries),
    // the salvage read burns the 5th, the pin's first attempt burns the
    // 6th, and the pin's retry succeeds.
    db.pool().with_disk(|disk| {
        disk.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(victim).transient(6)))
    });
    let out = strategy::vertical_sort_merge(&mut db, w.tid, 0, &d, 1).unwrap();
    assert_eq!(out.deleted.len(), d.len());
    assert!(
        out.report.io.retries > 0,
        "the fault must have been retried"
    );
    db.check_consistency(w.tid).unwrap();
    let eq = audit_equivalence(&db, &reference, wr.tid).unwrap();
    assert!(eq.is_clean(), "faulted run diverged: {eq}");
}

/// A torn write under a page that a later prefetch chain stages: the
/// chained read fails on the checksum mismatch, the prefetch salvages its
/// stretch page by page and stages every page but the torn one, and the
/// scan that reaches the torn page surfaces the mismatch (repairing it is
/// media recovery's job). No pin outlives the error.
#[test]
fn torn_page_under_prefetch_chain_is_left_unstaged() {
    let (db, w) = build(2_000, 1 << 20, 33);
    let heap = &db.table(w.tid).unwrap().heap;
    let victim = heap.page_ids()[15];
    db.pool().clear_cache().unwrap();
    // Rewrite the page with a changed tail and tear the write: the disk
    // acknowledges the new image but keeps the old tail.
    db.pool().with_disk(|disk| {
        let mut img = *disk.peek(victim).unwrap();
        img[PAGE_SIZE - 1] ^= 0xFF;
        disk.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_page(victim).torn()));
        disk.write(victim, &img).unwrap();
        assert_eq!(disk.corrupt_pages(), vec![victim]);
    });

    let first = victim - 2;
    assert_eq!(
        db.pool().prefetch_run(first, 5),
        Ok(4),
        "the prefetch does not fail and counts only what it staged"
    );
    for pid in first..first + 5 {
        assert_eq!(db.pool().contains(pid), pid != victim, "page {pid}");
    }

    assert_eq!(
        heap.dump().unwrap_err(),
        StorageError::ChecksumMismatch(victim)
    );
    assert_eq!(db.pool().pinned_frames(), 0, "no frame left pinned");
}
