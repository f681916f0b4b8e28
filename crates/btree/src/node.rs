//! On-page layout of B-link tree nodes.
//!
//! Every node (leaf or inner) carries a right-sibling pointer — the paper
//! requires "a B-link-tree organization" in which "the nodes in each level
//! are linked" so that whole levels can be scanned sequentially.
//!
//! Separators are *composite* `(key, rid)` pairs. The paper's workload is
//! duplicate-free (Jannink's tree "does not support duplicates"); ours
//! supports duplicates as a robustness extension, and composite separators
//! keep descent exact even when one key's duplicates span several leaves.
//!
//! ```text
//! 0..2    node_type (u16)      0 = leaf, 1 = inner
//! 2..4    nkeys     (u16)
//! 4..8    right_sibling (u32)  NO_PAGE if none
//! 8..16   reserved
//! 16..    payload:
//!   leaf : entries of (key u64, rid u64), 16 bytes each, sorted by (key, rid)
//!   inner: child0 (u32) then entries of (key u64, rid u64, child u32),
//!          20 bytes each, sorted; child0 covers entries < sep[0],
//!          entries[i].child covers entries >= sep[i] (and < sep[i+1])
//! ```

use bd_storage::{Rid, PAGE_SIZE};

/// Sentinel page id meaning "no sibling".
pub const NO_PAGE: u32 = u32::MAX;

const TYPE_OFF: usize = 0;
const NKEYS_OFF: usize = 2;
const RIGHT_OFF: usize = 4;
const PAYLOAD: usize = 16;

const LEAF_ENTRY: usize = 16;
const INNER_CHILD0: usize = PAYLOAD;
const INNER_ENTRIES: usize = PAYLOAD + 4;
const INNER_ENTRY: usize = 20;

/// Maximum leaf entries a 4 KiB page can hold.
pub const MAX_LEAF_CAP: usize = (PAGE_SIZE - PAYLOAD) / LEAF_ENTRY;
/// Maximum inner separator entries a 4 KiB page can hold.
pub const MAX_INNER_CAP: usize = (PAGE_SIZE - INNER_ENTRIES) / INNER_ENTRY;

/// Index key type. The paper's attributes are random integers.
pub type Key = u64;

/// Composite separator: a `(key, rid)` boundary.
pub type Sep = (Key, Rid);

/// The smallest possible separator for `key` (used to descend to the
/// leftmost occurrence of a key).
pub fn key_floor(key: Key) -> Sep {
    (key, Rid::new(0, 0))
}

use bd_storage::page::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};

/// Kind of node stored on a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Leaf node holding `(key, rid)` entries.
    Leaf,
    /// Inner node holding separators and child pointers.
    Inner,
}

/// Read-only view of a node page.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    buf: &'a [u8],
}

impl<'a> NodeRef<'a> {
    /// Interpret `buf` (a full page) as a node.
    pub fn new(buf: &'a [u8]) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        NodeRef { buf }
    }

    /// Node kind.
    pub fn kind(&self) -> NodeKind {
        if get_u16(self.buf, TYPE_OFF) == 0 {
            NodeKind::Leaf
        } else {
            NodeKind::Inner
        }
    }

    /// Number of keys (leaf entries or inner separators).
    pub fn nkeys(&self) -> usize {
        get_u16(self.buf, NKEYS_OFF) as usize
    }

    /// Right sibling page, if any.
    pub fn right_sibling(&self) -> Option<u32> {
        let r = get_u32(self.buf, RIGHT_OFF);
        (r != NO_PAGE).then_some(r)
    }

    /// Leaf entry `i` as `(key, rid)`.
    pub fn leaf_entry(&self, i: usize) -> (Key, Rid) {
        debug_assert_eq!(self.kind(), NodeKind::Leaf);
        debug_assert!(i < self.nkeys());
        let off = PAYLOAD + i * LEAF_ENTRY;
        (
            get_u64(self.buf, off),
            Rid::from_u64(get_u64(self.buf, off + 8)),
        )
    }

    /// All leaf entries.
    pub fn leaf_entries(&self) -> Vec<(Key, Rid)> {
        (0..self.nkeys()).map(|i| self.leaf_entry(i)).collect()
    }

    /// Inner child pointer `i` (0 ..= nkeys).
    pub fn inner_child(&self, i: usize) -> u32 {
        debug_assert_eq!(self.kind(), NodeKind::Inner);
        debug_assert!(i <= self.nkeys());
        if i == 0 {
            get_u32(self.buf, INNER_CHILD0)
        } else {
            get_u32(self.buf, INNER_ENTRIES + (i - 1) * INNER_ENTRY + 16)
        }
    }

    /// Inner separator `i` (0 .. nkeys). Child `i + 1` covers entries
    /// `>= sep(i)`.
    pub fn inner_sep(&self, i: usize) -> Sep {
        debug_assert_eq!(self.kind(), NodeKind::Inner);
        debug_assert!(i < self.nkeys());
        let off = INNER_ENTRIES + i * INNER_ENTRY;
        (
            get_u64(self.buf, off),
            Rid::from_u64(get_u64(self.buf, off + 8)),
        )
    }

    /// Child index to descend into for `target` (rightmost child whose
    /// range contains it): the number of separators `<= target`.
    pub fn route(&self, target: Sep) -> usize {
        let n = self.nkeys();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.inner_sep(mid) <= target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Position of the first leaf entry `>= (key, rid)`.
    pub fn leaf_lower_bound(&self, key: Key, rid: Rid) -> usize {
        let target = (key, rid);
        let n = self.nkeys();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.leaf_entry(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Where this full node splits to take `entry`: how many leaf entries,
    /// or inner separators before the promoted one, stay on the left. An
    /// append — no right sibling, `entry` after everything held — splits
    /// at the end, so keys arriving in ascending order leave every node
    /// full behind them; any other entry splits at the midpoint.
    pub fn split_point(&self, entry: Sep) -> usize {
        let (n, leaf) = (self.nkeys(), self.kind() == NodeKind::Leaf);
        let last = if leaf {
            self.leaf_entry(n - 1)
        } else {
            self.inner_sep(n - 1)
        };
        if self.right_sibling().is_some() || entry <= last {
            n / 2
        } else if leaf {
            n
        } else {
            n - 1
        }
    }
}

/// Mutable view of a node page.
pub struct NodeMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> NodeMut<'a> {
    /// Interpret `buf` (a full page) as a mutable node.
    pub fn new(buf: &'a mut [u8]) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        NodeMut { buf }
    }

    /// Format `buf` as an empty node of `kind`.
    pub fn init(buf: &'a mut [u8], kind: NodeKind) -> Self {
        let n = NodeMut::new(buf);
        put_u16(n.buf, TYPE_OFF, matches!(kind, NodeKind::Inner) as u16);
        put_u16(n.buf, NKEYS_OFF, 0);
        put_u32(n.buf, RIGHT_OFF, NO_PAGE);
        n
    }

    /// Read-only view of this node.
    pub fn as_ref(&self) -> NodeRef<'_> {
        NodeRef::new(self.buf)
    }

    fn set_nkeys(&mut self, n: usize) {
        put_u16(self.buf, NKEYS_OFF, n as u16);
    }

    /// Set or clear the right sibling.
    pub fn set_right_sibling(&mut self, pid: Option<u32>) {
        put_u32(self.buf, RIGHT_OFF, pid.unwrap_or(NO_PAGE));
    }

    /// Insert a leaf entry at sorted position; panics if the page layout
    /// capacity is exceeded (the tree enforces its configured cap first).
    pub fn leaf_insert(&mut self, key: Key, rid: Rid) {
        let view = self.as_ref();
        debug_assert_eq!(view.kind(), NodeKind::Leaf);
        let n = view.nkeys();
        assert!(n < MAX_LEAF_CAP, "leaf page overflow");
        let pos = view.leaf_lower_bound(key, rid);
        let start = PAYLOAD + pos * LEAF_ENTRY;
        let end = PAYLOAD + n * LEAF_ENTRY;
        self.buf.copy_within(start..end, start + LEAF_ENTRY);
        put_u64(self.buf, start, key);
        put_u64(self.buf, start + 8, rid.to_u64());
        self.set_nkeys(n + 1);
    }

    /// Remove leaf entry at `pos`, returning it.
    pub fn leaf_remove_at(&mut self, pos: usize) -> (Key, Rid) {
        let n = self.as_ref().nkeys();
        debug_assert!(pos < n);
        let entry = self.as_ref().leaf_entry(pos);
        let start = PAYLOAD + (pos + 1) * LEAF_ENTRY;
        let end = PAYLOAD + n * LEAF_ENTRY;
        self.buf.copy_within(start..end, start - LEAF_ENTRY);
        self.set_nkeys(n - 1);
        entry
    }

    /// Replace all leaf entries with `entries` (must be sorted).
    pub fn leaf_set_entries(&mut self, entries: &[(Key, Rid)]) {
        assert!(entries.len() <= MAX_LEAF_CAP, "leaf page overflow");
        debug_assert!(entries.windows(2).all(|w| w[0] <= w[1]));
        for (i, &(k, r)) in entries.iter().enumerate() {
            let off = PAYLOAD + i * LEAF_ENTRY;
            put_u64(self.buf, off, k);
            put_u64(self.buf, off + 8, r.to_u64());
        }
        self.set_nkeys(entries.len());
    }

    /// Split this full leaf and insert `entry` into the half it sorts
    /// into. The entries past [`NodeRef::split_point`] move into `right`
    /// (an initialized empty leaf); an append moves none and `entry` opens
    /// `right` alone. Returns the separator (first entry of `right`).
    pub fn leaf_split_insert(&mut self, right: &mut NodeMut<'_>, entry: Sep) -> Sep {
        let view = self.as_ref();
        let (n, at) = (view.nkeys(), view.split_point(entry));
        let moved: Vec<(Key, Rid)> = (at..n).map(|i| view.leaf_entry(i)).collect();
        right.leaf_set_entries(&moved);
        self.set_nkeys(at);
        let boundary = moved.first().copied().unwrap_or(entry);
        if entry >= boundary {
            right.leaf_insert(entry.0, entry.1);
        } else {
            self.leaf_insert(entry.0, entry.1);
        }
        boundary
    }

    /// Initialize an inner node with its leftmost child.
    pub fn inner_init_child0(&mut self, child: u32) {
        debug_assert_eq!(self.as_ref().kind(), NodeKind::Inner);
        put_u32(self.buf, INNER_CHILD0, child);
    }

    /// Overwrite child pointer `i` (0 ..= nkeys).
    pub fn inner_set_child(&mut self, i: usize, child: u32) {
        let n = self.as_ref().nkeys();
        debug_assert!(i <= n);
        if i == 0 {
            put_u32(self.buf, INNER_CHILD0, child);
        } else {
            put_u32(self.buf, INNER_ENTRIES + (i - 1) * INNER_ENTRY + 16, child);
        }
    }

    /// Insert `(sep, child)` so that `child` covers entries `>= sep`.
    pub fn inner_insert(&mut self, sep: Sep, child: u32) {
        let view = self.as_ref();
        debug_assert_eq!(view.kind(), NodeKind::Inner);
        let n = view.nkeys();
        assert!(n < MAX_INNER_CAP, "inner page overflow");
        let pos = view.route(sep);
        let start = INNER_ENTRIES + pos * INNER_ENTRY;
        let end = INNER_ENTRIES + n * INNER_ENTRY;
        self.buf.copy_within(start..end, start + INNER_ENTRY);
        put_u64(self.buf, start, sep.0);
        put_u64(self.buf, start + 8, sep.1.to_u64());
        put_u32(self.buf, start + 16, child);
        self.set_nkeys(n + 1);
    }

    /// Remove separator entry `i` (its child pointer disappears with it).
    pub fn inner_remove_entry(&mut self, i: usize) -> (Sep, u32) {
        let view = self.as_ref();
        let n = view.nkeys();
        debug_assert!(i < n);
        let removed = (view.inner_sep(i), view.inner_child(i + 1));
        let start = INNER_ENTRIES + (i + 1) * INNER_ENTRY;
        let end = INNER_ENTRIES + n * INNER_ENTRY;
        self.buf.copy_within(start..end, start - INNER_ENTRY);
        self.set_nkeys(n - 1);
        removed
    }

    /// Split this full inner node and insert `(sep, child)` into the half
    /// it sorts into. The separator at [`NodeRef::split_point`] is
    /// *promoted* (returned, not kept); the ones past it move to `right`
    /// (an initialized empty inner node) behind the promoted one's child as
    /// `child0`. An append promotes the last separator, so both halves keep
    /// at least one.
    pub fn inner_split_insert(&mut self, right: &mut NodeMut<'_>, sep: Sep, child: u32) -> Sep {
        let view = self.as_ref();
        let (n, at) = (view.nkeys(), view.split_point(sep));
        let promoted = view.inner_sep(at);
        let moved: Vec<(Sep, u32)> = (at + 1..n)
            .map(|i| (view.inner_sep(i), view.inner_child(i + 1)))
            .collect();
        right.inner_set_entries(view.inner_child(at + 1), &moved);
        self.set_nkeys(at);
        if sep >= promoted {
            right.inner_insert(sep, child);
        } else {
            self.inner_insert(sep, child);
        }
        debug_assert!(
            self.as_ref().nkeys() > 0 && right.as_ref().nkeys() > 0,
            "an inner split left a half without separators"
        );
        promoted
    }

    /// Overwrite separator entry `i` in place, keeping its child pointer.
    /// Used by the erasure scrub to *tighten* a stale separator up to the
    /// actual minimum of its right subtree; the caller must preserve the
    /// ordering invariant (old sep `<=` new sep `<=` right subtree min).
    pub fn inner_set_sep(&mut self, i: usize, sep: Sep) {
        let view = self.as_ref();
        debug_assert_eq!(view.kind(), NodeKind::Inner);
        debug_assert!(i < view.nkeys());
        let off = INNER_ENTRIES + i * INNER_ENTRY;
        put_u64(self.buf, off, sep.0);
        put_u64(self.buf, off + 8, sep.1.to_u64());
    }

    /// Zero every payload byte beyond the live entry region. Removals shift
    /// entries with `copy_within` and decrement `nkeys`, leaving the former
    /// last entry's `(key, rid)` image in the slack — this destroys it.
    /// Returns how many non-zero bytes were destroyed.
    pub fn scrub_slack(&mut self) -> usize {
        let view = self.as_ref();
        let start = match view.kind() {
            NodeKind::Leaf => PAYLOAD + view.nkeys() * LEAF_ENTRY,
            NodeKind::Inner => INNER_ENTRIES + view.nkeys() * INNER_ENTRY,
        };
        let slack = &mut self.buf[start..];
        let dirty = slack.iter().filter(|&&b| b != 0).count();
        if dirty > 0 {
            slack.fill(0);
        }
        dirty
    }

    /// Replace all separator entries (sorted) plus `child0`.
    pub fn inner_set_entries(&mut self, child0: u32, entries: &[(Sep, u32)]) {
        assert!(entries.len() <= MAX_INNER_CAP, "inner page overflow");
        debug_assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0));
        put_u32(self.buf, INNER_CHILD0, child0);
        for (i, &(sep, c)) in entries.iter().enumerate() {
            let off = INNER_ENTRIES + i * INNER_ENTRY;
            put_u64(self.buf, off, sep.0);
            put_u64(self.buf, off + 8, sep.1.to_u64());
            put_u32(self.buf, off + 16, c);
        }
        self.set_nkeys(entries.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::page::zeroed;

    fn sep(k: Key) -> Sep {
        key_floor(k)
    }

    #[test]
    fn capacities_fit_the_page() {
        assert_eq!(MAX_LEAF_CAP, 255);
        assert_eq!(MAX_INNER_CAP, 203);
        const { assert!(PAYLOAD + MAX_LEAF_CAP * LEAF_ENTRY <= PAGE_SIZE) };
        const { assert!(INNER_ENTRIES + MAX_INNER_CAP * INNER_ENTRY <= PAGE_SIZE) };
    }

    #[test]
    fn leaf_insert_keeps_sorted_order() {
        let mut buf = zeroed();
        let mut n = NodeMut::init(&mut buf[..], NodeKind::Leaf);
        for k in [5u64, 1, 9, 3, 7] {
            n.leaf_insert(k, Rid::new(k as u32, 0));
        }
        let keys: Vec<Key> = n.as_ref().leaf_entries().iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn duplicate_keys_order_by_rid() {
        let mut buf = zeroed();
        let mut n = NodeMut::init(&mut buf[..], NodeKind::Leaf);
        n.leaf_insert(4, Rid::new(9, 0));
        n.leaf_insert(4, Rid::new(2, 1));
        n.leaf_insert(4, Rid::new(2, 0));
        let rids: Vec<Rid> = n.as_ref().leaf_entries().iter().map(|e| e.1).collect();
        assert_eq!(rids, vec![Rid::new(2, 0), Rid::new(2, 1), Rid::new(9, 0)]);
    }

    #[test]
    fn leaf_remove_shifts() {
        let mut buf = zeroed();
        let mut n = NodeMut::init(&mut buf[..], NodeKind::Leaf);
        for k in 0..5u64 {
            n.leaf_insert(k, Rid::new(0, k as u16));
        }
        let removed = n.leaf_remove_at(2);
        assert_eq!(removed.0, 2);
        let keys: Vec<Key> = n.as_ref().leaf_entries().iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![0, 1, 3, 4]);
    }

    fn full_leaf(buf: &mut [u8], n: u64) -> NodeMut<'_> {
        let mut leaf = NodeMut::init(buf, NodeKind::Leaf);
        for k in 0..n {
            leaf.leaf_insert(2 * k, Rid::new(0, k as u16));
        }
        leaf
    }

    #[test]
    fn leaf_split_moves_upper_half() {
        let (mut lb, mut rb) = (zeroed(), zeroed());
        let mut left = full_leaf(&mut lb[..], 10);
        let mut right = NodeMut::init(&mut rb[..], NodeKind::Leaf);
        let boundary = left.leaf_split_insert(&mut right, (7, Rid::new(1, 0)));
        assert_eq!(boundary, (10, Rid::new(0, 5)));
        assert_eq!(left.as_ref().nkeys(), 6);
        assert_eq!(left.as_ref().leaf_entry(4), (7, Rid::new(1, 0)));
        assert_eq!(right.as_ref().nkeys(), 5);
        assert_eq!(right.as_ref().leaf_entry(0).0, 10);
    }

    #[test]
    fn leaf_split_at_the_right_edge_moves_nothing() {
        let (mut lb, mut rb) = (zeroed(), zeroed());
        let mut left = full_leaf(&mut lb[..], 10);
        let mut right = NodeMut::init(&mut rb[..], NodeKind::Leaf);
        let entry = (19, Rid::new(1, 0));
        assert_eq!(left.leaf_split_insert(&mut right, entry), entry);
        assert_eq!(left.as_ref().nkeys(), 10);
        assert_eq!(right.as_ref().leaf_entries(), vec![entry]);

        // With a right sibling the same entry is not an append.
        let (mut lb, mut rb) = (zeroed(), zeroed());
        let mut left = full_leaf(&mut lb[..], 10);
        left.set_right_sibling(Some(9));
        let mut right = NodeMut::init(&mut rb[..], NodeKind::Leaf);
        assert_eq!(
            left.leaf_split_insert(&mut right, entry),
            (10, Rid::new(0, 5))
        );
        assert_eq!((left.as_ref().nkeys(), right.as_ref().nkeys()), (5, 6));
    }

    #[test]
    fn inner_routing() {
        let mut buf = zeroed();
        let mut n = NodeMut::init(&mut buf[..], NodeKind::Inner);
        n.inner_init_child0(100);
        n.inner_insert(sep(10), 101);
        n.inner_insert(sep(20), 102);
        let v = n.as_ref();
        assert_eq!(v.inner_child(v.route(sep(5))), 100);
        assert_eq!(v.inner_child(v.route(sep(10))), 101);
        assert_eq!(v.inner_child(v.route(sep(15))), 101);
        assert_eq!(v.inner_child(v.route(sep(20))), 102);
        assert_eq!(v.inner_child(v.route(sep(99))), 102);
    }

    #[test]
    fn composite_routing_splits_duplicates() {
        let mut buf = zeroed();
        let mut n = NodeMut::init(&mut buf[..], NodeKind::Inner);
        n.inner_init_child0(100);
        // Duplicates of key 10 straddle two children at rid (5,0).
        n.inner_insert((10, Rid::new(5, 0)), 101);
        let v = n.as_ref();
        assert_eq!(v.inner_child(v.route((10, Rid::new(2, 0)))), 100);
        assert_eq!(v.inner_child(v.route((10, Rid::new(5, 0)))), 101);
        assert_eq!(v.inner_child(v.route((10, Rid::new(9, 0)))), 101);
        // key_floor(10) descends to the leftmost duplicate.
        assert_eq!(v.inner_child(v.route(key_floor(10))), 100);
    }

    fn full_inner(buf: &mut [u8]) -> NodeMut<'_> {
        let mut inner = NodeMut::init(buf, NodeKind::Inner);
        inner.inner_init_child0(200);
        for i in 0..5u64 {
            inner.inner_insert(sep(10 * (i + 1)), 201 + i as u32);
        }
        inner
    }

    #[test]
    fn inner_split_promotes_middle() {
        let (mut lb, mut rb) = (zeroed(), zeroed());
        let mut left = full_inner(&mut lb[..]);
        let mut right = NodeMut::init(&mut rb[..], NodeKind::Inner);
        let promoted = left.inner_split_insert(&mut right, sep(25), 300);
        assert_eq!(promoted, sep(30));
        let lv = left.as_ref();
        assert_eq!(lv.nkeys(), 3);
        assert_eq!(lv.inner_child(0), 200);
        assert_eq!(lv.inner_sep(2), sep(25));
        assert_eq!(lv.inner_child(3), 300);
        let rv = right.as_ref();
        assert_eq!(rv.nkeys(), 2);
        assert_eq!(rv.inner_child(0), 203);
        assert_eq!(rv.inner_sep(0), sep(40));
        assert_eq!(rv.inner_child(2), 205);
    }

    #[test]
    fn inner_split_at_the_right_edge_promotes_the_last() {
        let (mut lb, mut rb) = (zeroed(), zeroed());
        let mut left = full_inner(&mut lb[..]);
        let mut right = NodeMut::init(&mut rb[..], NodeKind::Inner);
        let promoted = left.inner_split_insert(&mut right, sep(60), 300);
        assert_eq!(promoted, sep(50));
        let lv = left.as_ref();
        assert_eq!(lv.nkeys(), 4);
        assert_eq!(lv.inner_child(4), 204);
        let rv = right.as_ref();
        assert_eq!(rv.nkeys(), 1);
        assert_eq!(rv.inner_child(0), 205);
        assert_eq!((rv.inner_sep(0), rv.inner_child(1)), (sep(60), 300));
    }

    #[test]
    fn inner_remove_entry_drops_child() {
        let mut buf = zeroed();
        let mut n = NodeMut::init(&mut buf[..], NodeKind::Inner);
        n.inner_init_child0(1);
        n.inner_insert(sep(10), 2);
        n.inner_insert(sep(20), 3);
        let (k, c) = n.inner_remove_entry(0);
        assert_eq!((k, c), (sep(10), 2));
        let v = n.as_ref();
        assert_eq!(v.nkeys(), 1);
        assert_eq!(v.inner_child(0), 1);
        assert_eq!(v.inner_sep(0), sep(20));
        assert_eq!(v.inner_child(1), 3);
    }

    #[test]
    fn sibling_pointer_roundtrip() {
        let mut buf = zeroed();
        let mut n = NodeMut::init(&mut buf[..], NodeKind::Leaf);
        assert_eq!(n.as_ref().right_sibling(), None);
        n.set_right_sibling(Some(77));
        assert_eq!(n.as_ref().right_sibling(), Some(77));
        n.set_right_sibling(None);
        assert_eq!(n.as_ref().right_sibling(), None);
    }

    #[test]
    fn leaf_lower_bound_finds_duplicates_start() {
        let mut buf = zeroed();
        let mut n = NodeMut::init(&mut buf[..], NodeKind::Leaf);
        for (k, s) in [(1u64, 0u16), (3, 0), (3, 1), (3, 2), (5, 0)] {
            n.leaf_insert(k, Rid::new(0, s));
        }
        let v = n.as_ref();
        assert_eq!(v.leaf_lower_bound(3, Rid::new(0, 0)), 1);
        assert_eq!(v.leaf_lower_bound(3, Rid::new(0, 2)), 3);
        assert_eq!(v.leaf_lower_bound(4, Rid::new(0, 0)), 4);
        assert_eq!(v.leaf_lower_bound(9, Rid::new(0, 0)), 5);
    }
}
