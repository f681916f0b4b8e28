//! Free-space map for heap files.
//!
//! Records the usable free bytes of every heap page and answers the one
//! question the heap's insert path asks: *which is the first page at or
//! after a given page with room for `needed` bytes, else the lowest page
//! with room?* The heap asks it from its insert cursor, so consecutive
//! inserts fill free space in address order — next-fit, the policy behind
//! PostgreSQL's `fp_next_slot` — and a refill after a bulk delete walks
//! the heap once, the way the vertical delete did.
//!
//! Best-fit (the fullest page that fits) would buy nothing here: a heap's
//! records all have its schema's record length, so every page with room
//! takes exactly as many more records under either policy and the heap
//! ends equally dense. What best-fit costs is order — it hops between
//! pages by fill level, one positioned read and write per hop.
//!
//! The lookup is a range query on a max-tree over page ids, `O(log n)` in
//! the highest page id the map has seen; no page list is ever walked.

use crate::disk::PageId;

/// In-memory free-space map.
#[derive(Debug, Default)]
pub struct FreeSpaceMap {
    /// Implicit binary max-tree over page ids. Leaf `pid` is
    /// `tree[width + pid]` (`width` = half the length, a power of two) and
    /// holds the page's free bytes plus one, or 0 for an id the map does
    /// not track; inner node `i` holds the larger of nodes `2i` and
    /// `2i + 1`. A request for `needed` bytes is a search for `needed + 1`,
    /// so an untracked id never fits, not even a request for nothing.
    tree: Vec<usize>,
    /// Number of tracked pages.
    tracked: usize,
}

impl FreeSpaceMap {
    /// Empty map.
    pub fn new() -> Self {
        FreeSpaceMap::default()
    }

    fn width(&self) -> usize {
        self.tree.len() / 2
    }

    /// Set leaf `pid` to `value` and repair its ancestors, stopping at the
    /// first one whose maximum did not change.
    fn set(&mut self, pid: PageId, value: usize) {
        let slot = pid as usize;
        if slot >= self.width() {
            if value == 0 {
                return;
            }
            self.grow(slot + 1);
        }
        let mut i = self.width() + slot;
        match (self.tree[i] == 0, value == 0) {
            (true, false) => self.tracked += 1,
            (false, true) => self.tracked -= 1,
            _ => {}
        }
        self.tree[i] = value;
        while i > 1 {
            i /= 2;
            let max = self.tree[2 * i].max(self.tree[2 * i + 1]);
            if self.tree[i] == max {
                break;
            }
            self.tree[i] = max;
        }
    }

    /// Widen the tree to cover ids `0..ids`, doubling at least.
    fn grow(&mut self, ids: usize) {
        let old_width = self.width();
        let width = ids.next_power_of_two().max(2 * old_width);
        let mut tree = vec![0; 2 * width];
        tree[width..width + old_width].copy_from_slice(&self.tree[old_width..]);
        for i in (1..width).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        self.tree = tree;
    }

    /// Record (or update) the free space of `pid`.
    pub fn update(&mut self, pid: PageId, free_bytes: usize) {
        self.set(pid, free_bytes + 1);
    }

    /// Forget a page entirely (page was reclaimed).
    pub fn remove(&mut self, pid: PageId) {
        self.set(pid, 0);
    }

    /// Exact free bytes recorded for `pid`.
    pub fn free_bytes(&self, pid: PageId) -> Option<usize> {
        // Past the leaves (`pid >= width`) the index runs off the vector.
        self.tree.get(self.width() + pid as usize)?.checked_sub(1)
    }

    /// The first tracked page at or after `from` with at least `needed`
    /// free bytes, without wrapping.
    pub(crate) fn first_fit_from(&self, from: PageId, needed: usize) -> Option<PageId> {
        let want = needed + 1;
        let width = self.width();
        let mut i = width + from as usize;
        if i >= 2 * width {
            return None;
        }
        // Climb: while node `i` cannot fit, move to the subtree just right
        // of it — its sibling if `i` is a left child, else the sibling of
        // its first ancestor that is one. Leaving the root means no fit.
        while self.tree[i] < want {
            while i % 2 == 1 {
                i /= 2;
            }
            if i == 0 {
                return None;
            }
            i += 1;
        }
        // Descend to the leftmost fitting leaf of the fitting subtree.
        while i < width {
            i *= 2;
            if self.tree[i] < want {
                i += 1;
            }
        }
        Some((i - width) as PageId)
    }

    /// Next-fit: the first tracked page at or after `cursor` with at least
    /// `needed` free bytes, else the lowest such page. `None` iff no
    /// tracked page has room.
    pub fn next_fit(&self, cursor: PageId, needed: usize) -> Option<PageId> {
        self.first_fit_from(cursor, needed)
            .or_else(|| self.first_fit_from(0, needed))
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// True if no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// Every tracked page, ascending.
    pub fn pages(&self) -> Vec<PageId> {
        self.pages_with_at_least(0)
    }

    /// Tracked pages with at least `bytes` free, ascending (with a whole
    /// page's worth, the candidates for reclamation).
    pub fn pages_with_at_least(&self, bytes: usize) -> Vec<PageId> {
        std::iter::successors(self.first_fit_from(0, bytes), |&p| {
            self.first_fit_from(p + 1, bytes)
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_page_with_enough_space() {
        let mut fsm = FreeSpaceMap::new();
        fsm.update(1, 100);
        fsm.update(2, 600);
        fsm.update(3, 3000);
        assert_eq!(fsm.next_fit(0, 500), Some(2));
        assert_eq!(fsm.next_fit(0, 2000), Some(3));
        assert_eq!(fsm.next_fit(0, 3500), None);
    }

    #[test]
    fn next_fit_takes_the_first_fit_at_or_after_the_cursor() {
        let mut fsm = FreeSpaceMap::new();
        // Page 5 is the fullest fit and page 40 the emptiest: neither
        // matters, only address order from the cursor does.
        for (pid, free) in [(5, 600), (12, 100), (17, 4000), (23, 520), (40, 4092)] {
            fsm.update(pid, free);
        }
        assert_eq!(fsm.next_fit(0, 516), Some(5));
        assert_eq!(fsm.next_fit(5, 516), Some(5), "the cursor's own page first");
        assert_eq!(fsm.next_fit(6, 516), Some(17), "page 12 is too full");
        assert_eq!(fsm.next_fit(18, 516), Some(23));
        assert_eq!(fsm.next_fit(24, 516), Some(40));
        assert_eq!(fsm.next_fit(18, 1000), Some(40));
        assert_eq!(fsm.first_fit_from(24, 600), Some(40));
    }

    #[test]
    fn next_fit_wraps_to_the_lowest_fit() {
        let mut fsm = FreeSpaceMap::new();
        for (pid, free) in [(3, 900), (9, 50), (30, 900), (31, 10)] {
            fsm.update(pid, free);
        }
        assert_eq!(fsm.next_fit(31, 516), Some(3), "nothing at or after 31");
        assert_eq!(
            fsm.first_fit_from(31, 516),
            None,
            "first_fit_from never wraps"
        );
        // A cursor beyond every id the map has seen wraps too.
        assert_eq!(fsm.next_fit(1_000_000, 516), Some(3));
        fsm.update(3, 0);
        assert_eq!(fsm.next_fit(31, 516), Some(30), "wrap finds the next fit");
    }

    #[test]
    fn none_iff_no_page_has_room() {
        let mut fsm = FreeSpaceMap::new();
        assert_eq!(fsm.next_fit(0, 0), None, "an empty map fits nothing");
        fsm.update(7, 0);
        // A tracked page with no free bytes still fits a zero-byte request;
        // the untracked ids around it never do.
        assert_eq!(fsm.next_fit(3, 0), Some(7));
        assert_eq!(fsm.next_fit(8, 0), Some(7));
        assert_eq!(fsm.next_fit(0, 1), None);
        fsm.update(2, 40);
        for cursor in [0, 2, 3, 7, 8, 500] {
            assert_eq!(fsm.next_fit(cursor, 40), Some(2));
            assert_eq!(fsm.next_fit(cursor, 41), None);
        }
    }

    #[test]
    fn update_replaces_the_recorded_free_space() {
        let mut fsm = FreeSpaceMap::new();
        fsm.update(1, 3000);
        assert_eq!(fsm.next_fit(0, 2500), Some(1));
        fsm.update(1, 10);
        assert_eq!(fsm.next_fit(0, 2500), None);
        assert_eq!(fsm.free_bytes(1), Some(10));
    }

    #[test]
    fn remove_forgets_page() {
        let mut fsm = FreeSpaceMap::new();
        fsm.update(7, 1000);
        fsm.remove(7);
        assert!(fsm.is_empty());
        assert_eq!(fsm.free_bytes(7), None);
        assert_eq!(fsm.next_fit(0, 1), None);
        assert_eq!(fsm.next_fit(0, 0), None);
    }

    #[test]
    fn boundary_requests_checked_against_exact_free() {
        let mut fsm = FreeSpaceMap::new();
        // The map keeps exact byte counts, so a request one byte above a
        // page's free space misses it and one byte below finds it.
        fsm.update(9, 300);
        assert_eq!(fsm.next_fit(0, 290), Some(9));
        assert_eq!(fsm.next_fit(0, 300), Some(9));
        assert_eq!(fsm.next_fit(0, 301), None);
    }

    #[test]
    fn growing_keeps_every_entry() {
        let mut fsm = FreeSpaceMap::new();
        let pids = [0, 1, 2, 5, 64, 65, 700, 4096, 4097];
        for (i, &pid) in pids.iter().enumerate() {
            fsm.update(pid, 100 * i);
        }
        assert_eq!(fsm.len(), pids.len());
        assert_eq!(fsm.pages(), pids);
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(fsm.free_bytes(pid), Some(100 * i));
        }
        assert_eq!(fsm.next_fit(6, 650), Some(4096));
    }

    #[test]
    fn pages_with_at_least_filters() {
        let mut fsm = FreeSpaceMap::new();
        fsm.update(1, 100);
        fsm.update(2, 4000);
        fsm.update(3, 4092);
        assert_eq!(fsm.pages_with_at_least(4000), vec![2, 3]);
        assert_eq!(fsm.pages(), vec![1, 2, 3]);
    }
}
