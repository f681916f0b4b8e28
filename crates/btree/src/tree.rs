//! The B-link tree proper: descent, insert with splits, traditional
//! record-at-a-time delete with free-at-empty, and point/range search.
//!
//! The *traditional* delete ([`BTree::delete_one`]) is deliberately faithful
//! to what the paper attacks: "for every record, each B-tree is traversed
//! individually from the root to the relevant leaf resulting in overall
//! very high costs". Leaf-level bulk operations live in [`crate::bulk`].

use std::sync::Arc;

use bd_storage::{BufferPool, PageId, Rid, StorageResult, StructureId};

use crate::node::{key_floor, Key, NodeKind, NodeMut, NodeRef, Sep, MAX_INNER_CAP, MAX_LEAF_CAP};

/// Node capacity configuration.
///
/// The paper's Experiment 3 manufactures taller trees by shrinking the
/// number of keys per inner node ("we store 100 keys per node in order to
/// create an index with height four"); `inner_cap`/`leaf_cap` reproduce
/// that knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeConfig {
    /// Maximum entries per leaf.
    pub leaf_cap: usize,
    /// Maximum separator entries per inner node.
    pub inner_cap: usize,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig {
            leaf_cap: MAX_LEAF_CAP,
            inner_cap: MAX_INNER_CAP,
        }
    }
}

impl BTreeConfig {
    /// Cap both node kinds at `fanout` entries (clamped to page capacity).
    pub fn with_fanout(fanout: usize) -> Self {
        BTreeConfig {
            leaf_cap: fanout.clamp(2, MAX_LEAF_CAP),
            inner_cap: fanout.clamp(2, MAX_INNER_CAP),
        }
    }
}

/// A B-link tree of `(key, rid)` entries over a buffer pool.
pub struct BTree {
    pool: Arc<BufferPool>,
    cfg: BTreeConfig,
    /// Structure that owns this tree's pages; every allocation the tree
    /// makes is tagged with it in the page catalog.
    owner: StructureId,
    root: PageId,
    /// Levels in the tree; 1 means the root is a leaf.
    height: usize,
    n_entries: usize,
    /// While the leaf level occupies one contiguous ascending page range
    /// (set by bulk load, cleared by any split), this records it — enabling
    /// confident chained prefetch during leaf scans.
    leaf_extent: Option<(PageId, usize)>,
}

impl BTree {
    /// Create an empty tree (a single empty leaf as root) whose pages are
    /// catalogued under `owner`.
    pub fn create(
        pool: Arc<BufferPool>,
        cfg: BTreeConfig,
        owner: StructureId,
    ) -> StorageResult<Self> {
        let (root, mut w) = pool.new_page(owner, 0)?;
        NodeMut::init(&mut w[..], NodeKind::Leaf);
        drop(w);
        Ok(BTree {
            pool,
            cfg,
            owner,
            root,
            height: 1,
            n_entries: 0,
            leaf_extent: Some((root, 1)),
        })
    }

    /// Structure that owns this tree's pages in the page catalog.
    pub fn owner(&self) -> StructureId {
        self.owner
    }

    /// The buffer pool this tree lives in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Node capacity configuration.
    pub fn config(&self) -> BTreeConfig {
        self.cfg
    }

    /// Number of levels (1 = root is a leaf). The paper reports this as the
    /// index *height*.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.n_entries
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.n_entries == 0
    }

    /// Root page id.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Overwrite the entry counter: recovery sets it to a value derived
    /// from the log instead of walking the leaves.
    pub fn set_len(&mut self, n: usize) {
        self.n_entries = n;
    }

    pub(crate) fn sub_len(&mut self, n: usize) {
        self.n_entries -= n;
    }

    pub(crate) fn set_leaf_extent(&mut self, extent: Option<(PageId, usize)>) {
        self.leaf_extent = extent;
    }

    /// The contiguous page range holding all leaves, if the leaf level is
    /// still one ascending run on disk.
    pub fn leaf_extent(&self) -> Option<(PageId, usize)> {
        self.leaf_extent
    }

    pub(crate) fn install_root(&mut self, root: PageId, height: usize) {
        self.root = root;
        self.height = height;
    }

    /// Descend from the root to the leaf responsible for `target`,
    /// recording `(inner page, taken child index)` for every inner node on
    /// the way.
    pub(crate) fn descend(&self, target: Sep) -> StorageResult<(PageId, Vec<(PageId, usize)>)> {
        let mut pid = self.root;
        let mut path = Vec::with_capacity(self.height.saturating_sub(1));
        loop {
            let r = self.pool.pin_read(pid)?;
            let node = NodeRef::new(&r[..]);
            match node.kind() {
                NodeKind::Leaf => return Ok((pid, path)),
                NodeKind::Inner => {
                    let ci = node.route(target);
                    let child = node.inner_child(ci);
                    path.push((pid, ci));
                    drop(r);
                    pid = child;
                }
            }
        }
    }

    /// Leftmost node of `level` (0 = leaf level).
    pub(crate) fn leftmost_of_level(&self, level: usize) -> StorageResult<PageId> {
        let mut pid = self.root;
        let mut cur_level = self.height - 1;
        while cur_level > level {
            let r = self.pool.pin_read(pid)?;
            let node = NodeRef::new(&r[..]);
            debug_assert_eq!(node.kind(), NodeKind::Inner);
            let child = node.inner_child(0);
            drop(r);
            pid = child;
            cur_level -= 1;
        }
        Ok(pid)
    }

    /// Leftmost leaf page.
    pub fn first_leaf(&self) -> StorageResult<PageId> {
        self.leftmost_of_level(0)
    }

    /// Reconstruct a tree handle after a crash from durable metadata (root
    /// and height come from the recovery checkpoint; a real system keeps
    /// them in the catalog) and its entry count, which recovery derives
    /// from the log. Reads no page; the leaf extent is conservatively
    /// dropped (no more confident prefetch).
    pub fn restore(
        pool: Arc<BufferPool>,
        cfg: BTreeConfig,
        root: PageId,
        height: usize,
        owner: StructureId,
        n_entries: usize,
    ) -> Self {
        BTree {
            pool,
            cfg,
            owner,
            root,
            height,
            n_entries,
            leaf_extent: None,
        }
    }

    /// Recount entries by walking the leaf chain; fixes `len()` after a
    /// crash left the in-memory counter out of sync with the disk state.
    pub fn recount(&mut self) -> StorageResult<usize> {
        let mut n = 0;
        let mut pid = Some(self.first_leaf()?);
        while let Some(p) = pid {
            let r = self.pool.pin_read(p)?;
            let node = NodeRef::new(&r[..]);
            n += node.nkeys();
            pid = node.right_sibling();
        }
        self.n_entries = n;
        Ok(n)
    }

    /// Warm the top of the tree into the buffer pool: breadth-first from
    /// the root, level by level, pinning (and thereby loading) up to
    /// `page_budget` pages. The upper levels are what every point lookup
    /// and descent hits first, so this is the working set a delete-heavy
    /// phase or a crash just evicted. Paced: checkpoints between pages
    /// with no pin held. Returns how many pages were touched.
    pub fn prewarm(&self, page_budget: usize) -> StorageResult<usize> {
        let mut frontier = vec![self.root];
        let mut touched = 0;
        while !frontier.is_empty() && touched < page_budget {
            let mut next = Vec::new();
            for &pid in &frontier {
                if touched >= page_budget {
                    break;
                }
                bd_storage::pacer::checkpoint()?;
                let r = self.pool.pin_read(pid)?;
                let node = NodeRef::new(&r[..]);
                touched += 1;
                if node.kind() == NodeKind::Inner {
                    for i in 0..=node.nkeys() {
                        next.push(node.inner_child(i));
                    }
                }
            }
            frontier = next;
        }
        Ok(touched)
    }

    /// Every page reachable from the root by *child pointers*, in DFS
    /// order. This is the tree's authoritative page set for the catalog
    /// audit: leaves detached by free-at-empty stay in the sibling chain
    /// (a B-link chain has no back pointer to patch) but are unreachable
    /// through parents, so they are correctly absent here.
    pub fn pages(&self) -> StorageResult<Vec<PageId>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(pid) = stack.pop() {
            out.push(pid);
            let r = self.pool.pin_read(pid)?;
            let node = NodeRef::new(&r[..]);
            if node.kind() == NodeKind::Inner {
                for i in (0..=node.nkeys()).rev() {
                    stack.push(node.inner_child(i));
                }
            }
        }
        Ok(out)
    }

    /// Insert `(key, rid)`.
    pub fn insert(&mut self, key: Key, rid: Rid) -> StorageResult<()> {
        let (leaf, path) = self.descend((key, rid))?;
        let mut w = self.pool.pin_write(leaf)?;
        let mut node = NodeMut::new(&mut w[..]);
        if node.as_ref().nkeys() < self.cfg.leaf_cap {
            node.leaf_insert(key, rid);
            drop(w);
            self.n_entries += 1;
            return Ok(());
        }
        // Leaf split: at the end for an append, else at the midpoint.
        let (new_pid, mut new_w) = self.pool.new_page(self.owner, leaf)?;
        let mut right = NodeMut::init(&mut new_w[..], NodeKind::Leaf);
        let boundary = node.leaf_split_insert(&mut right, (key, rid));
        right.set_right_sibling(node.as_ref().right_sibling());
        node.set_right_sibling(Some(new_pid));
        drop(new_w);
        drop(w);
        self.n_entries += 1;
        self.leaf_extent = None;
        self.propagate_split(path, boundary, new_pid)
    }

    /// Insert `(sep, right_child)` into the parents along `path`, splitting
    /// upward as needed.
    fn propagate_split(
        &mut self,
        mut path: Vec<(PageId, usize)>,
        mut sep: Sep,
        mut right_child: PageId,
    ) -> StorageResult<()> {
        while let Some((pid, _)) = path.pop() {
            let mut w = self.pool.pin_write(pid)?;
            let mut node = NodeMut::new(&mut w[..]);
            if node.as_ref().nkeys() < self.cfg.inner_cap {
                node.inner_insert(sep, right_child);
                return Ok(());
            }
            // Split the inner node by the same rule as a leaf.
            let (new_pid, mut new_w) = self.pool.new_page(self.owner, pid)?;
            let mut right = NodeMut::init(&mut new_w[..], NodeKind::Inner);
            let promoted = node.inner_split_insert(&mut right, sep, right_child);
            right.set_right_sibling(node.as_ref().right_sibling());
            node.set_right_sibling(Some(new_pid));
            drop(new_w);
            drop(w);
            sep = promoted;
            right_child = new_pid;
        }
        // Root split.
        let (new_root, mut w) = self.pool.new_page(self.owner, self.root)?;
        let mut node = NodeMut::init(&mut w[..], NodeKind::Inner);
        node.inner_init_child0(self.root);
        node.inner_insert(sep, right_child);
        drop(w);
        self.root = new_root;
        self.height += 1;
        Ok(())
    }

    /// All RIDs stored under `key` (follows duplicates across leaves).
    pub fn search(&self, key: Key) -> StorageResult<Vec<Rid>> {
        let (leaf, _) = self.descend(key_floor(key))?;
        let mut out = Vec::new();
        let mut pid = leaf;
        loop {
            let r = self.pool.pin_read(pid)?;
            let node = NodeRef::new(&r[..]);
            let n = node.nkeys();
            let mut pos = node.leaf_lower_bound(key, Rid::new(0, 0));
            while pos < n {
                let (k, rid) = node.leaf_entry(pos);
                if k != key {
                    return Ok(out);
                }
                out.push(rid);
                pos += 1;
            }
            // Reached the end of the leaf; matches may continue rightward.
            match node.right_sibling() {
                Some(next) => {
                    drop(r);
                    pid = next;
                }
                None => return Ok(out),
            }
        }
    }

    /// All `(key, rid)` entries with `lo <= key <= hi`, in order.
    pub fn range(&self, lo: Key, hi: Key) -> StorageResult<Vec<(Key, Rid)>> {
        let (leaf, _) = self.descend(key_floor(lo))?;
        let mut out = Vec::new();
        let mut pid = leaf;
        loop {
            let r = self.pool.pin_read(pid)?;
            let node = NodeRef::new(&r[..]);
            let n = node.nkeys();
            let mut pos = node.leaf_lower_bound(lo, Rid::new(0, 0));
            while pos < n {
                let (k, rid) = node.leaf_entry(pos);
                if k > hi {
                    return Ok(out);
                }
                out.push((k, rid));
                pos += 1;
            }
            match node.right_sibling() {
                Some(next) => {
                    drop(r);
                    pid = next;
                }
                None => return Ok(out),
            }
        }
    }

    /// Traditional record-at-a-time delete of exactly `(key, rid)`:
    /// a root-to-leaf traversal per call, free-at-empty reclamation.
    /// Returns `true` if the entry existed.
    pub fn delete_one(&mut self, key: Key, rid: Rid) -> StorageResult<bool> {
        let (leaf, path) = self.descend((key, rid))?;
        let mut w = self.pool.pin_write(leaf)?;
        let mut node = NodeMut::new(&mut w[..]);
        let view = node.as_ref();
        let n = view.nkeys();
        let pos = view.leaf_lower_bound(key, rid);
        if pos < n && view.leaf_entry(pos) == (key, rid) {
            node.leaf_remove_at(pos);
            let emptied = node.as_ref().nkeys() == 0;
            drop(w);
            self.n_entries -= 1;
            if emptied && leaf != self.root {
                self.free_at_empty(leaf, &path)?;
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Free-at-empty: detach the emptied leaf `pid` from its parent chain of
    /// separators (\[9]: free-at-empty beats merge-at-half). The page stays
    /// in the sibling chain as an empty leaf (a singly linked B-link chain
    /// has no back pointer to patch); descents no longer reach it. Bulk
    /// deletes unlink empties properly as they walk the chain.
    pub(crate) fn free_at_empty(
        &mut self,
        pid: PageId,
        path: &[(PageId, usize)],
    ) -> StorageResult<()> {
        self.pool.free_page(pid);
        let mut child = pid;
        for (level, &(parent, ci)) in path.iter().enumerate().rev() {
            let mut w = self.pool.pin_write(parent)?;
            let mut node = NodeMut::new(&mut w[..]);
            let nkeys = node.as_ref().nkeys();
            debug_assert_eq!(node.as_ref().inner_child(ci), child);
            if ci == 0 {
                if nkeys == 0 {
                    // Parent lost its only child: free it one level up.
                    drop(w);
                    if level > 0 {
                        self.pool.free_page(parent);
                        child = parent;
                        continue;
                    }
                    // Parent is the root with no children left; the tree is
                    // empty: make a fresh leaf the root.
                    let (new_root, mut nw) = self.pool.new_page(self.owner, 0)?;
                    NodeMut::init(&mut nw[..], NodeKind::Leaf);
                    drop(nw);
                    self.pool.free_page(parent);
                    self.root = new_root;
                    self.height = 1;
                    self.leaf_extent = Some((new_root, 1));
                    return Ok(());
                }
                // Promote the first separator's child to child0.
                let (_, c1) = node.inner_remove_entry(0);
                node.inner_set_child(0, c1);
            } else {
                node.inner_remove_entry(ci - 1);
            }
            let remaining = node.as_ref().nkeys();
            drop(w);
            // Root collapse: a keyless root with a single child shrinks the
            // tree by one level.
            if parent == self.root && remaining == 0 && self.height > 1 {
                let r = self.pool.pin_read(parent)?;
                let only = NodeRef::new(&r[..]).inner_child(0);
                drop(r);
                self.pool.free_page(parent);
                self.root = only;
                self.height -= 1;
            }
            return Ok(());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::{CostModel, SimDisk, StructureId};

    fn tree(frames: usize, cfg: BTreeConfig) -> BTree {
        let pool = BufferPool::new(SimDisk::new(CostModel::default()), frames);
        BTree::create(pool, cfg, StructureId::Index(0)).unwrap()
    }

    fn rid(i: u64) -> Rid {
        Rid::new((i >> 3) as u32, (i & 7) as u16)
    }

    /// Keys per node along `level` (0 = leaves), left to right.
    fn level_fill(t: &BTree, level: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut pid = Some(t.leftmost_of_level(level).unwrap());
        while let Some(p) = pid {
            let r = t.pool().pin_read(p).unwrap();
            let node = NodeRef::new(&r[..]);
            out.push(node.nkeys());
            pid = node.right_sibling();
        }
        out
    }

    /// A deterministic permutation of `0..n`.
    fn shuffled(n: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..n).collect();
        let mut x: u64 = 42;
        for i in (1..keys.len()).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            keys.swap(i, (x >> 33) as usize % (i + 1));
        }
        keys
    }

    #[test]
    fn ascending_inserts_fill_every_node() {
        let mut t = tree(1024, BTreeConfig::with_fanout(8));
        for k in 0..1001u64 {
            t.insert(k, rid(k)).unwrap();
        }
        let audit = crate::verify::audit(&t).unwrap();
        // ⌈1001 / 8⌉ leaves, every one full but the last.
        let mut leaves = vec![8; 125];
        leaves.push(1);
        assert_eq!(audit.leaf_fill, leaves);
        // An inner split at the right edge keeps all but the promoted
        // separator: 8 children a node, 126 leaves under 16 parents under 2.
        assert_eq!(t.height(), 4);
        let mut parents = vec![7; 15];
        parents.push(5);
        assert_eq!(level_fill(&t, 1), parents);
        assert_eq!(level_fill(&t, 2), vec![7, 7]);
        assert_eq!(level_fill(&t, 3), vec![1]);
    }

    #[test]
    fn other_orders_split_at_the_midpoint() {
        let cfg = BTreeConfig::with_fanout(8);
        let mut desc = tree(1024, cfg);
        for k in (0..400u64).rev() {
            desc.insert(k, rid(k)).unwrap();
        }
        // Descending keys never append: 99 leaves, as with the midpoint
        // split everywhere.
        assert_eq!(crate::verify::audit(&desc).unwrap().leaf_fill.len(), 99);

        let mut random = tree(1024, cfg);
        for k in shuffled(400) {
            random.insert(k, rid(k)).unwrap();
        }
        // A random order appends only when a new maximum meets a full last
        // leaf; that leaf stays full and the next key landing in it splits
        // it again at the midpoint. Here that costs one leaf: 71, where the
        // midpoint split everywhere leaves 70.
        let audit = crate::verify::audit(&random).unwrap();
        assert_eq!(audit.leaf_fill.len(), 71);

        // Only an append moves the split point: a tail of fresh keys past
        // the random ones tops up the last leaf (the 71st) and then fills
        // new ones.
        let slack = 8 - audit.leaf_fill[70];
        for k in 400..800u64 {
            random.insert(k, rid(k)).unwrap();
        }
        let after = crate::verify::audit(&random).unwrap();
        let tail = &after.leaf_fill[70..];
        assert_eq!(tail.len(), 1 + (400 - slack).div_ceil(8));
        assert!(tail[..tail.len() - 1].iter().all(|&n| n == 8), "{tail:?}");
    }

    #[test]
    fn equal_keys_with_ascending_rids_append() {
        let mut t = tree(256, BTreeConfig::with_fanout(8));
        for i in 0..100u16 {
            t.insert(42, Rid::new(0, i)).unwrap();
        }
        let audit = crate::verify::audit(&t).unwrap();
        let mut leaves = vec![8; 12];
        leaves.push(4);
        assert_eq!(audit.leaf_fill, leaves);
        assert_eq!(t.search(42).unwrap().len(), 100);
    }

    #[test]
    fn insert_and_search_small() {
        let mut t = tree(64, BTreeConfig::default());
        for k in [5u64, 3, 8, 1, 9, 7] {
            t.insert(k, rid(k)).unwrap();
        }
        assert_eq!(t.search(8).unwrap(), vec![rid(8)]);
        assert_eq!(t.search(4).unwrap(), Vec::<Rid>::new());
        assert_eq!(t.len(), 6);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn splits_grow_height() {
        let mut t = tree(256, BTreeConfig::with_fanout(4));
        for k in 0..100u64 {
            t.insert(k, rid(k)).unwrap();
        }
        assert!(t.height() >= 3);
        for k in 0..100u64 {
            assert_eq!(t.search(k).unwrap(), vec![rid(k)], "key {k}");
        }
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn reverse_and_shuffled_inserts() {
        let mut t = tree(256, BTreeConfig::with_fanout(5));
        let mut keys: Vec<u64> = (0..200).collect();
        // Deterministic shuffle.
        for i in 0..keys.len() {
            let j = (i * 7919 + 13) % keys.len();
            keys.swap(i, j);
        }
        for &k in &keys {
            t.insert(k, rid(k)).unwrap();
        }
        for k in 0..200u64 {
            assert_eq!(t.search(k).unwrap(), vec![rid(k)]);
        }
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn prewarm_loads_top_levels_within_budget() {
        let mut t = tree(4096, BTreeConfig::with_fanout(4));
        for k in 0..600u64 {
            t.insert(k, rid(k)).unwrap();
        }
        assert!(t.height() >= 4);
        t.pool().clear_cache().unwrap();
        assert!(!t.pool().contains(t.root_page()));

        // A budget of 1 warms exactly the root.
        assert_eq!(t.prewarm(1).unwrap(), 1);
        assert!(t.pool().contains(t.root_page()));

        // A generous budget is truncated by it and warms breadth-first:
        // with budget 5 the root and its children come first.
        t.pool().clear_cache().unwrap();
        assert_eq!(t.prewarm(5).unwrap(), 5);
        assert!(t.pool().contains(t.root_page()));
        let r = t.pool().pin_read(t.root_page()).unwrap();
        let root = NodeRef::new(&r[..]);
        let child0 = root.inner_child(0);
        drop(r);
        assert!(t.pool().contains(child0));

        // A budget beyond the page count touches every reachable page.
        t.pool().clear_cache().unwrap();
        let n_pages = t.pages().unwrap().len();
        assert_eq!(t.prewarm(usize::MAX).unwrap(), n_pages);
    }

    #[test]
    fn duplicates_across_leaf_boundaries() {
        let mut t = tree(256, BTreeConfig::with_fanout(4));
        // 20 duplicates of key 42 force several leaf splits.
        for i in 0..20u64 {
            t.insert(42, Rid::new(0, i as u16)).unwrap();
        }
        t.insert(41, rid(1)).unwrap();
        t.insert(43, rid(2)).unwrap();
        let mut rids = t.search(42).unwrap();
        rids.sort();
        assert_eq!(rids.len(), 20);
        assert_eq!(rids[0], Rid::new(0, 0));
        assert_eq!(rids[19], Rid::new(0, 19));
        assert_eq!(t.search(41).unwrap(), vec![rid(1)]);
        assert_eq!(t.search(43).unwrap(), vec![rid(2)]);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn range_scan_returns_sorted_window() {
        let mut t = tree(256, BTreeConfig::with_fanout(6));
        for k in (0..300u64).rev() {
            t.insert(k, rid(k)).unwrap();
        }
        let out = t.range(100, 110).unwrap();
        let keys: Vec<u64> = out.iter().map(|e| e.0).collect();
        assert_eq!(keys, (100..=110).collect::<Vec<_>>());
    }

    #[test]
    fn delete_one_removes_exactly_target() {
        let mut t = tree(256, BTreeConfig::with_fanout(8));
        for k in 0..100u64 {
            t.insert(k, rid(k)).unwrap();
        }
        assert!(t.delete_one(40, rid(40)).unwrap());
        assert!(!t.delete_one(40, rid(40)).unwrap(), "double delete");
        assert!(!t.delete_one(1000, rid(0)).unwrap(), "missing key");
        assert_eq!(t.search(40).unwrap(), Vec::<Rid>::new());
        assert_eq!(t.search(41).unwrap(), vec![rid(41)]);
        assert_eq!(t.len(), 99);
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn delete_everything_then_reuse() {
        let mut t = tree(256, BTreeConfig::with_fanout(4));
        for k in 0..50u64 {
            t.insert(k, rid(k)).unwrap();
        }
        for k in 0..50u64 {
            assert!(t.delete_one(k, rid(k)).unwrap(), "delete {k}");
        }
        assert!(t.is_empty());
        for k in 0..50u64 {
            assert_eq!(t.search(k).unwrap(), Vec::<Rid>::new());
        }
        // Tree must be fully usable again.
        for k in 0..50u64 {
            t.insert(k, rid(k)).unwrap();
        }
        for k in 0..50u64 {
            assert_eq!(t.search(k).unwrap(), vec![rid(k)]);
        }
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn delete_duplicate_picks_right_rid() {
        let mut t = tree(256, BTreeConfig::with_fanout(4));
        for i in 0..12u64 {
            t.insert(7, Rid::new(1, i as u16)).unwrap();
        }
        assert!(t.delete_one(7, Rid::new(1, 5)).unwrap());
        let rids = t.search(7).unwrap();
        assert_eq!(rids.len(), 11);
        assert!(!rids.contains(&Rid::new(1, 5)));
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn fanout_controls_height() {
        // Same data, two fanouts => two heights (Experiment 3's knob).
        let mut short = tree(2048, BTreeConfig::with_fanout(64));
        let mut tall = tree(2048, BTreeConfig::with_fanout(8));
        for k in 0..4000u64 {
            short.insert(k, rid(k)).unwrap();
            tall.insert(k, rid(k)).unwrap();
        }
        assert!(tall.height() > short.height());
    }

    #[test]
    fn free_at_empty_counts() {
        let mut t = tree(256, BTreeConfig::with_fanout(4));
        for k in 0..64u64 {
            t.insert(k, rid(k)).unwrap();
        }
        for k in 0..64u64 {
            t.delete_one(k, rid(k)).unwrap();
        }
        assert!(t.pool().catalog().n_free() > 0, "no page was freed");
        crate::verify::check(&t).unwrap();
    }

    #[test]
    fn interleaved_insert_delete_stays_consistent() {
        let mut t = tree(512, BTreeConfig::with_fanout(6));
        let mut model = std::collections::BTreeSet::new();
        let mut x: u64 = 12345;
        for step in 0..3000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 500;
            if step % 3 == 0 && model.contains(&k) {
                assert!(t.delete_one(k, rid(k)).unwrap());
                model.remove(&k);
            } else if !model.contains(&k) {
                t.insert(k, rid(k)).unwrap();
                model.insert(k);
            }
        }
        assert_eq!(t.len(), model.len());
        for k in 0..500u64 {
            let expect: Vec<Rid> = if model.contains(&k) {
                vec![rid(k)]
            } else {
                vec![]
            };
            assert_eq!(t.search(k).unwrap(), expect, "key {k}");
        }
        crate::verify::check(&t).unwrap();
    }
}
