//! Windowed read-ahead over sorted page streams.
//!
//! The paper's traditional algorithm "reads chunks of several pages from
//! disk" so a scan pays one positioning cost per chunk instead of one per
//! page (§4.1). [`ReadAhead`] generalises that: any access path that knows
//! the *sorted* sequence of pages it is about to pin — a heap bulk-delete
//! merging sorted RIDs, a leaf walk over a bulk-loaded extent, a key probe
//! descending into consecutive leaves — registers that plan, and the
//! read-ahead keeps a window of upcoming pages staged in the buffer pool via
//! chained [`BufferPool::prefetch_run`] calls.
//!
//! Three decisions matter for the cost model:
//!
//! * **Coalescing.** A positioning costs ~30 pages of transfer, so reading a
//!   handful of unwanted gap pages to keep one chain going is far cheaper
//!   than splitting it. Plan entries no further apart than the cost model's
//!   breakeven ([`BufferPool::breakeven_pages`]) are merged into a single
//!   chained read; the pool's write-behind bridges by the same value.
//! * **Hysteresis.** Topping the window up one page per pin would degrade
//!   every chain to length 1. The window refills only once fewer than half
//!   a window of pages is still staged ahead of the cursor, so fresh chains
//!   cover at least `window / 2` pages — and a chain starting where its
//!   predecessor ended is head-contiguous, costing transfer only.
//! * **Best effort.** Prefetch failures are swallowed: an injected fault or
//!   a torn page inside a staged chain must not abort the operation early.
//!   The page is simply not staged, and the eventual pin re-reads it: a
//!   transient fault gets the pool's bounded retry there, a torn page
//!   surfaces as `ChecksumMismatch` for media recovery to repair.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::disk::PageId;

/// Default read-ahead window in pages — the paper's scan chunk. Chains that
/// follow each other head-contiguously pay no positioning regardless of
/// their length, so a longer window buys nothing on a sweep; what it *does*
/// cost is pool frames, and staged-but-unpinned pages evicted under write
/// pressure must be re-read at a full positioning each. Eight pages is a
/// twelfth of the largest benched pool (96 frames, `heap5`) but over a
/// quarter of the smallest (`lsm10` runs on 28 frames, `window4` on 30,
/// `arms15` on 36, `wal15` and `live15` on 48); a pool below 16 frames
/// clamps the window to [`BufferPool::max_prefetch`].
pub const READ_AHEAD_WINDOW: usize = 8;

/// Windowed read-ahead over a sorted stream of upcoming page ids.
///
/// Feed it the pages the caller will pin, in ascending pin order, via
/// [`ReadAhead::plan`] / [`ReadAhead::over_extent`]; call
/// [`ReadAhead::before_pin`] immediately before each pin. The struct tracks
/// a cursor into the plan and keeps up to a window of upcoming pages staged.
pub struct ReadAhead {
    pool: Arc<BufferPool>,
    window: usize,
    /// Upcoming pages in pin order (ascending). Duplicates are harmless.
    plan: Vec<PageId>,
    /// Plan entries at indices < `consumed` are behind the cursor.
    consumed: usize,
    /// Plan entries at indices < `staged` have been offered to the pool.
    staged: usize,
    /// Exclusive end of the last chain issued: when the next planned entry
    /// is within the pool's breakeven of it, the new chain starts *here*
    /// instead of at the entry, so consecutive chains stay head-contiguous
    /// and the disk charges no positioning between them.
    cover: Option<PageId>,
}

impl ReadAhead {
    /// Read-ahead with the default window, clamped to what the pool can
    /// stage without evicting its own working set.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        let window = READ_AHEAD_WINDOW.min(pool.max_prefetch());
        ReadAhead::with_window(pool, window)
    }

    /// Read-ahead with an explicit window (still clamped by the pool at
    /// issue time). A window of 0 disables prefetching entirely.
    pub fn with_window(pool: Arc<BufferPool>, window: usize) -> Self {
        ReadAhead {
            pool,
            window,
            plan: Vec::new(),
            consumed: 0,
            staged: 0,
            cover: None,
        }
    }

    /// Append upcoming pages to the plan. `pages` must be in the order the
    /// caller will pin them, and not precede already-planned pages.
    pub fn plan(&mut self, pages: impl IntoIterator<Item = PageId>) {
        self.plan.extend(pages);
        debug_assert!(self.plan.is_sorted(), "read-ahead plan must be sorted");
    }

    /// Convenience: plan a whole contiguous extent `(first, npages)`, e.g. a
    /// bulk-loaded leaf extent. `from` trims pages before the walk's entry
    /// point so a mid-extent start still prefetches from its first pin.
    pub fn over_extent(
        pool: Arc<BufferPool>,
        extent: Option<(PageId, usize)>,
        from: PageId,
    ) -> Self {
        let mut ra = ReadAhead::new(pool);
        if let Some((first, n)) = extent {
            let end = first + n as PageId;
            if from < end {
                ra.plan(from.max(first)..end);
            }
        }
        ra
    }

    /// Start the first chain at `end`, the exclusive end of an earlier
    /// read-ahead's last chain, when the first planned page is close enough
    /// for [`ReadAhead::before_pin`] to bridge to it: a stream that plans
    /// one short window at a time continues its chain across windows.
    pub(crate) fn continue_from(&mut self, end: PageId) {
        self.cover = Some(end);
    }

    /// Exclusive end of the last chain issued, if any.
    pub(crate) fn chain_end(&self) -> Option<PageId> {
        self.cover
    }

    /// Number of planned pages not yet behind the cursor.
    pub fn remaining(&self) -> usize {
        self.plan.len() - self.consumed
    }

    /// Note that the caller is about to pin `pid`. Advances the cursor past
    /// every planned page `< pid`, and tops the staged window up when fewer
    /// than half a window of *pages* (bridged gaps included) is still staged
    /// ahead of the pin. Pages outside the plan are ignored — interior
    /// B-tree nodes, FSM pages and other side reads pass through without
    /// disturbing the window.
    pub fn before_pin(&mut self, pid: PageId) {
        while self.consumed < self.plan.len() && self.plan[self.consumed] < pid {
            self.consumed += 1;
        }
        if self.consumed >= self.plan.len() || self.plan[self.consumed] != pid {
            return;
        }
        // Hysteresis in pages, not plan entries: a bridged chain occupies
        // pool frames for every page it covers, so budgeting by entry count
        // would let dense plans stage several chains' worth of frames and
        // evict each other before their pins arrive.
        let ahead = self.cover.map_or(0, |c| c.saturating_sub(pid)) as usize;
        if self.window > 0 && ahead < self.window.div_ceil(2) {
            self.top_up(pid);
        }
    }

    /// Stage planned pages falling within a window of pages after `pid`,
    /// batching near-adjacent entries into single chained reads: two planned
    /// pages no further apart than the pool's seek/transfer breakeven share
    /// a chain. One repositioning costs ~12.2 ms under the default model,
    /// the same as transferring ~30 pages, so bridging any shorter gap is a
    /// strict win — and a dense plan (a 5% delete touches every third heap
    /// page) degenerates into one long sequential sweep, exactly the
    /// paper's chunked table scan. A chain whose predecessor ends within
    /// the breakeven continues from that end, so the disk head never
    /// repositions between them. Best effort: staging failures leave the
    /// pages to the pin-time retry path.
    fn top_up(&mut self, pid: PageId) {
        let gap = self.pool.breakeven_pages();
        self.staged = self.staged.max(self.consumed);
        let budget_end = pid + self.window as PageId; // exclusive
        let max_run = self.pool.max_prefetch().max(1) as PageId;
        while self.staged < self.plan.len() {
            let next = self.plan[self.staged];
            if next >= budget_end {
                break;
            }
            // Continue from the previous chain's end when the next entry is
            // close: the chain start equals the head position, so the disk
            // charges transfer only.
            let start = match self.cover {
                Some(c) if c <= next && next - c <= gap && next - c < max_run => c,
                _ => next,
            };
            let mut end = next; // inclusive last page of the chain
            self.staged += 1;
            while self.staged < self.plan.len() {
                let e = self.plan[self.staged];
                if e >= budget_end || e - end > gap || e - start + 1 > max_run {
                    break;
                }
                end = e;
                self.staged += 1;
            }
            let n = ((end - start + 1) as usize).min(self.pool.max_prefetch());
            let _ = self.pool.prefetch_run(start, n);
            self.cover = Some(start + n as PageId);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{CostModel, SimDisk};
    use crate::owner::StructureId;

    fn pool(frames: usize, pages: usize) -> (Arc<BufferPool>, PageId) {
        let mut disk = SimDisk::new(CostModel::default());
        let first = disk.allocate_contiguous(pages, StructureId::Table);
        (BufferPool::new(disk, frames), first)
    }

    #[test]
    fn contiguous_plan_is_chained_not_per_page() {
        let (pool, first) = pool(64, 64);
        pool.reset_stats();
        let mut ra = ReadAhead::new(pool.clone());
        ra.plan(first..first + 64);
        for i in 0..64 {
            ra.before_pin(first + i);
            let _ = pool.pin_read(first + i).unwrap();
        }
        let d = pool.disk_stats();
        assert_eq!(d.pages_read, 64);
        // Refill chains continue from where the previous chain ended, so
        // after the cold start every chain begins at the head position and
        // the whole sweep pays one positioning.
        assert!(d.random_reads <= 2, "random_reads {}", d.random_reads);
        let s = pool.pool_stats();
        assert_eq!(s.misses, 0, "every pin was staged ahead of time");
        assert_eq!(s.prefetched, 64);
    }

    #[test]
    fn small_gaps_are_coalesced_large_gaps_split() {
        let (pool, first) = pool(64, 200);
        pool.reset_stats();
        let mut ra = ReadAhead::new(pool.clone());
        // Every third page: gaps of 2 coalesce into one chain.
        let near: Vec<PageId> = (0..10).map(|i| first + 3 * i).collect();
        // Then a jump of 100 pages: must start a fresh positioning.
        let far = first + 127;
        let mut plan = near.clone();
        plan.push(far);
        ra.plan(plan.clone());
        for pid in plan {
            ra.before_pin(pid);
            let _ = pool.pin_read(pid).unwrap();
        }
        let d = pool.disk_stats();
        // One chain over the near group (28 pages incl. gaps), one positioned
        // read for the far page.
        assert_eq!(d.random_reads, 2, "stats {d:?}");
        assert_eq!(pool.pool_stats().misses, 0);
    }

    #[test]
    fn coalescing_gap_is_the_cost_models_breakeven() {
        let (default_pool, _) = pool(64, 64);
        assert_eq!(default_pool.breakeven_pages(), 30);
        // Positioning free: an unwanted page is pure cost, none is read.
        let mut disk = SimDisk::new(CostModel::flat(0.4));
        let first = disk.allocate_contiguous(16, StructureId::Table);
        let flat_pool = BufferPool::new(disk, 16);
        let mut ra = ReadAhead::new(flat_pool.clone());
        let plan = [first, first + 2, first + 4];
        ra.plan(plan);
        for pid in plan {
            ra.before_pin(pid);
            let _ = flat_pool.pin_read(pid).unwrap();
        }
        assert_eq!(flat_pool.disk_stats().pages_read, 3);
        assert_eq!(flat_pool.pool_stats().misses, 0, "still staged ahead");
    }

    #[test]
    fn unplanned_pages_pass_through_untouched() {
        let (pool, first) = pool(64, 64);
        let mut ra = ReadAhead::new(pool.clone());
        // The second entry sits past both the window and the coalesce gap,
        // so pinning the first entry must not stage anything near it.
        ra.plan([first, first + 60]);
        ra.before_pin(first);
        let _ = pool.pin_read(first).unwrap();
        pool.reset_stats();
        // An interior-node style side read between planned pins.
        ra.before_pin(first + 5);
        let _ = pool.pin_read(first + 5).unwrap();
        assert_eq!(pool.disk_stats().pages_read, 1, "no speculative staging");
        assert_eq!(ra.remaining(), 1, "cursor did not skip past the plan");
    }

    #[test]
    fn mid_stream_entry_fires_immediately() {
        let (pool, first) = pool(64, 64);
        pool.reset_stats();
        // Enter the extent at an unaligned page: the window must fire on the
        // first pin, not at the next chunk boundary.
        let entry = first + 5;
        let mut ra = ReadAhead::over_extent(pool.clone(), Some((first, 64)), entry);
        ra.before_pin(entry);
        let _ = pool.pin_read(entry).unwrap();
        let d = pool.disk_stats();
        assert_eq!(d.random_reads, 1);
        assert!(
            d.pages_read >= (READ_AHEAD_WINDOW / 2) as u64,
            "a real window, not one page: {d:?}"
        );
        assert_eq!(pool.pool_stats().misses, 0);
    }

    #[test]
    fn window_respects_pool_clamp() {
        let (pool, first) = pool(8, 64);
        pool.reset_stats();
        let mut ra = ReadAhead::new(pool.clone());
        assert_eq!(ra.window, pool.max_prefetch());
        ra.plan(first..first + 64);
        for i in 0..64 {
            ra.before_pin(first + i);
            let _ = pool.pin_read(first + i).unwrap();
        }
        assert_eq!(pool.disk_stats().pages_read, 64);
        assert_eq!(pool.pool_stats().misses, 0, "tiny pool still fully staged");
    }

    #[test]
    fn prefetch_fault_degrades_to_pin_time_retry() {
        use crate::fault::{FaultPlan, FaultSpec};
        let (pool, first) = pool(64, 64);
        let victim = first + 8;
        // 6 failures: prefetch burns 1 + 3 retries best-effort, the pin
        // burns the remaining 2 and succeeds.
        pool.with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(victim).transient(6)))
        });
        let mut ra = ReadAhead::new(pool.clone());
        ra.plan(first..first + 32);
        for i in 0..32 {
            ra.before_pin(first + i);
            let r = pool.pin_read(first + i).unwrap();
            drop(r);
        }
        assert_eq!(pool.pool_stats().misses, 1, "only the faulted page re-read");
    }
}
