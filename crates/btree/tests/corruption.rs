//! Tests for the invariant checker itself: deliberately corrupt a tree and
//! assert `verify::check` catches each class of damage — otherwise the
//! oracle used by every other test proves nothing.

use bd_btree::node::{NodeKind, NodeMut, NodeRef};
use bd_btree::{bulk_load, verify, BTree, BTreeConfig, Key};
use bd_storage::{BufferPool, CostModel, PageId, Rid, SimDisk, StructureId};
use std::sync::Arc;

fn loaded(n: u64, fanout: usize) -> (BTree, Arc<BufferPool>) {
    let pool = BufferPool::new(SimDisk::new(CostModel::default()), 256);
    let entries: Vec<(Key, Rid)> = (0..n).map(|k| (k, Rid::new(k as u32, 0))).collect();
    let t = bulk_load(
        pool.clone(),
        BTreeConfig::with_fanout(fanout),
        &entries,
        1.0,
        StructureId::Index(0),
    )
    .unwrap();
    (t, pool)
}

fn first_leaf_of(t: &BTree) -> PageId {
    t.first_leaf().unwrap()
}

#[test]
fn clean_tree_verifies() {
    let (t, _) = loaded(500, 8);
    let entries = verify::check(&t).unwrap();
    assert_eq!(entries.len(), 500);
}

#[test]
fn detects_unsorted_leaf() {
    let (t, pool) = loaded(500, 8);
    let leaf = first_leaf_of(&t);
    {
        let mut w = pool.pin_write(leaf).unwrap();
        let node = NodeMut::new(&mut w[..]);
        // Swap the first two entries by rewriting them out of order.
        let a = node.as_ref().leaf_entry(0);
        let b = node.as_ref().leaf_entry(1);
        // leaf_set_entries debug-asserts order, so write raw via the page.
        let _ = node;
        bd_storage::page::put_u64(&mut w[..], 16, b.0);
        bd_storage::page::put_u64(&mut w[..], 24, b.1.to_u64());
        bd_storage::page::put_u64(&mut w[..], 32, a.0);
        bd_storage::page::put_u64(&mut w[..], 40, a.1.to_u64());
    }
    let err = verify::check(&t).unwrap_err();
    assert!(err.0.contains("order") || err.0.contains("bound"), "{err}");
}

#[test]
fn detects_entry_outside_separator_bounds() {
    let (t, pool) = loaded(1000, 8);
    // Put a huge key into the first leaf: it violates the parent's upper
    // separator bound.
    let leaf = first_leaf_of(&t);
    {
        let mut w = pool.pin_write(leaf).unwrap();
        let mut node = NodeMut::new(&mut w[..]);
        node.leaf_remove_at(0); // keep the count at cap
        node.leaf_insert(999_999, Rid::new(0, 0));
    }
    let err = verify::check(&t).unwrap_err();
    assert!(err.0.contains("bound"), "{err}");
}

#[test]
fn detects_count_mismatch() {
    let (mut t, pool) = loaded(300, 8);
    // Remove an entry behind the tree's back.
    let leaf = first_leaf_of(&t);
    {
        let mut w = pool.pin_write(leaf).unwrap();
        let mut node = NodeMut::new(&mut w[..]);
        node.leaf_remove_at(0);
    }
    let err = verify::check(&t).unwrap_err();
    assert!(err.0.contains("reachable"), "{err}");
    // recount() repairs the counter.
    t.recount().unwrap();
    verify::check(&t).unwrap();
}

#[test]
fn detects_broken_sibling_chain() {
    let (t, pool) = loaded(1000, 8);
    let leaf = first_leaf_of(&t);
    {
        let mut w = pool.pin_write(leaf).unwrap();
        let mut node = NodeMut::new(&mut w[..]);
        // Skip the true right sibling: the chain now misses leaves that
        // are still reachable top-down.
        let skip = node.as_ref().right_sibling().unwrap();
        let r = pool.pin_read(skip).unwrap();
        let next_next = NodeRef::new(&r[..]).right_sibling();
        drop(r);
        node.set_right_sibling(next_next);
    }
    let err = verify::check(&t).unwrap_err();
    assert!(err.0.contains("chain") || err.0.contains("order"), "{err}");
}

#[test]
fn detects_populated_detached_leaf() {
    let (t, pool) = loaded(1000, 8);
    // Detach a populated leaf from its parent but keep it in the chain:
    // its entries become unreachable top-down.
    let root = t.root_page();
    let victim_child;
    {
        let mut w = pool.pin_write(root).unwrap();
        let mut node = NodeMut::new(&mut w[..]);
        assert_eq!(node.as_ref().kind(), NodeKind::Inner);
        let (_, child) = node.inner_remove_entry(0);
        victim_child = child;
    }
    let err = verify::check(&t).unwrap_err();
    // Either the chain mismatch or the unreachable-entries check fires.
    assert!(
        err.0.contains("unreachable") || err.0.contains("reachable") || err.0.contains("chain"),
        "{err} (victim {victim_child})"
    );
}

#[test]
fn restore_rebuilds_handle_from_metadata() {
    let (t, pool) = loaded(2000, 16);
    let root = t.root_page();
    let height = t.height();
    let cfg = t.config();
    let n = t.len();
    drop(t);
    let reads = pool.disk_stats().pages_read;
    let mut restored = BTree::restore(pool.clone(), cfg, root, height, StructureId::Index(0), n);
    assert_eq!(pool.disk_stats().pages_read, reads, "restore reads no page");
    assert_eq!(restored.len(), 2000);
    assert_eq!(restored.recount().unwrap(), 2000, "the leaves agree");
    assert_eq!(restored.height(), height);
    assert_eq!(restored.search(777).unwrap(), vec![Rid::new(777, 0)]);
    verify::check(&restored).unwrap();
}
