//! Simulated disk with a seek/rotation/transfer cost model.
//!
//! The unit of transfer is a 4 KiB page, matching the paper's prototype
//! ("The page size for tables and indices is 4096 bytes"). The simulator
//! keeps an explicit head position: an access to the page following the head
//! is *sequential* and pays transfer time only; any other access is *random*
//! and additionally pays average seek plus average rotational latency.
//! Multi-page chained reads ("chained I/O ... to read chunks of several
//! pages from disk", §4.1) pay one positioning cost for the whole chunk.
//!
//! The default [`CostModel`] approximates the paper's 1998-era 7200 rpm
//! Seagate Medialist Pro: 8 ms average seek, 4.17 ms average rotational
//! latency (half a revolution at 7200 rpm), and 0.4 ms to transfer one 4 KiB
//! page (~10 MB/s sustained).

use std::collections::BTreeSet;

use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultOp, FaultOutcome, FaultPlan};
use crate::owner::{PageCatalog, StructureId};

/// Size of one disk page in bytes.
pub const PAGE_SIZE: usize = 4096;

use crate::page::{checksum as page_checksum, ZERO_PAGE_CK};

/// Identifier of a page on the simulated disk.
pub type PageId = u32;

/// Cost model charged by [`SimDisk`] for each page access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Average seek time in milliseconds, charged once per random access.
    pub seek_ms: f64,
    /// Average rotational latency in milliseconds, charged once per random
    /// access.
    pub rotation_ms: f64,
    /// Transfer time for one page in milliseconds, charged for every page.
    pub transfer_ms: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seek_ms: 8.0,
            rotation_ms: 4.17,
            transfer_ms: 0.4,
        }
    }
}

impl CostModel {
    /// A cost model where every access costs the same (useful to isolate
    /// algorithmic page counts from locality effects in ablations).
    pub fn flat(ms_per_page: f64) -> Self {
        CostModel {
            seek_ms: 0.0,
            rotation_ms: 0.0,
            transfer_ms: ms_per_page,
        }
    }

    /// Positioning cost (seek + rotation) of one random access.
    pub fn positioning_ms(&self) -> f64 {
        self.seek_ms + self.rotation_ms
    }

    /// The seek/transfer breakeven in whole pages: how many pages can be
    /// transferred in the time of one positioning (30 under the default
    /// model, 0 when positioning is free). Carrying a chain across a gap of
    /// unwanted pages no longer than this is cheaper than ending the chain
    /// and repositioning; read-ahead and write-behind both bridge by it.
    pub fn breakeven_pages(&self) -> PageId {
        // `as` saturates, and maps the NaN of a 0/0 model to 0.
        (self.positioning_ms() / self.transfer_ms) as PageId
    }
}

/// Counters accumulated by the simulated disk.
///
/// `random_*` counts positioning operations; `pages_read`/`pages_written`
/// count transferred pages (a chained read of 8 pages is one random read and
/// eight pages read).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskStats {
    /// Read accesses that required repositioning the head.
    pub random_reads: u64,
    /// Read accesses that continued at the head position.
    pub sequential_reads: u64,
    /// Write accesses that required repositioning the head.
    pub random_writes: u64,
    /// Write accesses that continued at the head position.
    pub sequential_writes: u64,
    /// Total pages transferred by reads.
    pub pages_read: u64,
    /// Total pages transferred by writes.
    pub pages_written: u64,
    /// Accesses re-issued by the buffer pool after a transient fault.
    pub retries: u64,
    /// Accumulated simulated time in milliseconds.
    pub sim_ms: f64,
}

impl DiskStats {
    /// Add `other`'s counters into `self` (scope roll-up).
    pub fn merge(&mut self, other: &DiskStats) {
        self.random_reads += other.random_reads;
        self.sequential_reads += other.sequential_reads;
        self.random_writes += other.random_writes;
        self.sequential_writes += other.sequential_writes;
        self.pages_read += other.pages_read;
        self.pages_written += other.pages_written;
        self.retries += other.retries;
        self.sim_ms += other.sim_ms;
    }

    /// Stats accumulated since `earlier` was captured.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            random_reads: self.random_reads - earlier.random_reads,
            sequential_reads: self.sequential_reads - earlier.sequential_reads,
            random_writes: self.random_writes - earlier.random_writes,
            sequential_writes: self.sequential_writes - earlier.sequential_writes,
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
            retries: self.retries - earlier.retries,
            sim_ms: self.sim_ms - earlier.sim_ms,
        }
    }

    /// Total page transfers in both directions.
    pub fn total_ios(&self) -> u64 {
        self.pages_read + self.pages_written
    }

    /// Total positioning operations (random accesses).
    pub fn total_random(&self) -> u64 {
        self.random_reads + self.random_writes
    }
}

/// In-memory page store that charges a [`CostModel`] per access.
///
/// The simulator mimics *direct I/O* (the paper disables the OS cache): every
/// read and write issued against it is charged; caching is the buffer pool's
/// job.
pub struct SimDisk {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Checksum of each page's last acknowledged content (the disk's
    /// end-to-end integrity metadata; torn writes leave it pointing at the
    /// *intended* image so the corruption surfaces on the next read).
    checksums: Vec<u32>,
    /// Page the head would read next without repositioning.
    head: Option<PageId>,
    /// Page → owner map, maintained on every allocate/free. Disk metadata:
    /// survives buffer-pool crashes (frame caches are volatile, the catalog
    /// is not) and is what media recovery consults to classify torn pages.
    catalog: PageCatalog,
    /// Free pages that have been durably zeroed by [`SimDisk::reclaim_page`]
    /// and may be handed out again by the allocator. A catalog-free page
    /// *not* in this set is quarantined: its stale bytes may still sit in a
    /// live sibling chain (free-at-empty detaches lazily), so the
    /// maintenance daemon must reclaim it explicitly before reuse. Disk
    /// metadata like the catalog: survives buffer-pool crashes (the zeroing
    /// write is durable the instant it is acknowledged).
    reusable: BTreeSet<PageId>,
    cost: CostModel,
    stats: DiskStats,
    /// Programmed faults and crash point.
    plan: FaultPlan,
    /// Accesses issued so far (each read/write/chain call is one access,
    /// counted whether or not it succeeds).
    accesses: u64,
}

impl SimDisk {
    /// Create an empty disk with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        SimDisk {
            pages: Vec::new(),
            checksums: Vec::new(),
            head: None,
            catalog: PageCatalog::new(),
            reusable: BTreeSet::new(),
            cost,
            stats: DiskStats::default(),
            plan: FaultPlan::default(),
            accesses: 0,
        }
    }

    /// Install a programmed [`FaultPlan`], replacing any previous one.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Remove every programmed fault and crash point.
    pub fn clear_fault_plan(&mut self) {
        self.plan = FaultPlan::default();
    }

    /// Disk accesses issued so far (1-based access numbers; failed and
    /// crashed accesses count too). The crash-at-every-I/O campaign sweeps
    /// its crash point over this counter.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Evaluate the fault plan for one access of `n` pages, translating
    /// outcomes into errors. What is left for the access to honour comes
    /// back as `(persist, torn)`: only the first `persist` pages may reach
    /// the platter before the access fails with `SimulatedCrash` (`n` when
    /// no crash point lies inside it), and page `torn` persists only
    /// partially.
    fn faulted(
        &mut self,
        op: FaultOp,
        first: PageId,
        n: u32,
    ) -> StorageResult<(u32, Option<PageId>)> {
        self.accesses += 1;
        match self.plan.evaluate(op, first, n, self.accesses) {
            None => Ok((n, None)),
            Some(FaultOutcome::Torn(pid)) => Ok((n, Some(pid))),
            Some(FaultOutcome::Fail(pid)) => Err(StorageError::InjectedFault(pid)),
            Some(FaultOutcome::Crash { persisted: 0 }) => Err(StorageError::SimulatedCrash),
            Some(FaultOutcome::Crash { persisted }) => Ok((persisted, None)),
        }
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Allocate one zeroed page to `owner` and return its id. The allocator
    /// prefers a recycled page (zeroed by [`SimDisk::reclaim_page`]): the
    /// first one at or after `near`, else the lowest, and only extends the
    /// file when the reusable set is empty. `near` is the page the caller
    /// extends — the splitting node, the heap's last page, the tail of an
    /// overflow chain — so a structure that grows after recycling takes the
    /// holes ahead of itself in page order instead of whatever hole is
    /// lowest in the file; a caller with no neighbour passes 0. Allocation
    /// itself is free; the contents are charged when they are first
    /// written. The owner is recorded in the page catalog.
    pub fn allocate(&mut self, owner: StructureId, near: PageId) -> PageId {
        let recycled = self.reusable.range(near..).next().or(self.reusable.first());
        if let Some(&pid) = recycled {
            self.reusable.remove(&pid);
            self.catalog.set_owner(pid, owner);
            return pid;
        }
        let pid = self.pages.len() as PageId;
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        self.checksums.push(ZERO_PAGE_CK);
        self.catalog.note_alloc(pid, 1, owner);
        pid
    }

    /// Allocate `n` contiguous zeroed pages to `owner`, returning the first
    /// id. A run of `n` consecutive recycled pages is reused when one
    /// exists (extents stay physically contiguous either way, which is what
    /// the chained-I/O cost model rewards); otherwise the file is extended.
    pub fn allocate_contiguous(&mut self, n: usize, owner: StructureId) -> PageId {
        if n > 0 {
            if let Some(first) = self.find_reusable_run(n) {
                for pid in first..first + n as PageId {
                    self.reusable.remove(&pid);
                    self.catalog.set_owner(pid, owner);
                }
                return first;
            }
        }
        let first = self.pages.len() as PageId;
        for _ in 0..n {
            self.pages.push(Box::new([0u8; PAGE_SIZE]));
            self.checksums.push(ZERO_PAGE_CK);
        }
        self.catalog.note_alloc(first, n, owner);
        first
    }

    /// First page of the lowest run of `n` consecutive reusable pages, if
    /// any. Each candidate start costs one range query over the `n` pages
    /// it would need: the highest of them that is not reusable rules out
    /// every start up to it, so the search jumps past it.
    fn find_reusable_run(&self, n: usize) -> Option<PageId> {
        let n = PageId::try_from(n).ok()?;
        let mut start = *self.reusable.first()?;
        loop {
            let end = start.checked_add(n)?;
            let mut want = end;
            let gap = self.reusable.range(start..end).rev().find_map(|&pid| {
                want -= 1;
                (pid != want).then_some(want)
            });
            match gap {
                None => return Some(start),
                Some(gap) => start = *self.reusable.range(gap + 1..).next()?,
            }
        }
    }

    /// Move a page to the catalog's free set. The page's primary bytes stay
    /// readable — a detached B-link leaf may still sit in a live sibling
    /// chain — so the page is *quarantined*, not yet reusable: the
    /// allocator only recycles it after [`SimDisk::reclaim_page`] has
    /// durably zeroed it. Media recovery heals a torn free page without
    /// rebuilding anything.
    pub fn free_page(&mut self, pid: PageId) {
        self.catalog.free(pid);
    }

    /// Zero a quarantined free page and make it reusable by the allocator.
    ///
    /// Returns `Ok(true)` when the page was reclaimed by this call,
    /// `Ok(false)` when there was nothing to do (the page is owned again —
    /// e.g. re-owned by recovery reconciliation — or already reusable).
    /// The zeroing is a real charged write that goes through the fault
    /// plan, so crash and torn-write campaigns sweep over reclaims too; on
    /// a torn zeroing the page stays quarantined (not reusable) and is
    /// simply re-reclaimed by the next maintenance pass. Zero-on-reclaim is
    /// what keeps erasure proofs valid across recycling: a reusable page
    /// never carries prior contents, so a recycled page can never leak
    /// erased values.
    ///
    /// Callers must only reclaim pages no structure can still reach through
    /// a stale chain pointer (an all-zero page decodes as a leaf whose
    /// right sibling is page 0). The maintenance daemon guarantees this by
    /// reclaiming a snapshot of the free set only after a full packing pass
    /// has rewritten the sibling chains.
    pub fn reclaim_page(&mut self, pid: PageId) -> StorageResult<bool> {
        self.check(pid)?;
        if self.catalog.owner(pid).is_some() || self.reusable.contains(&pid) {
            return Ok(false);
        }
        self.write(pid, &[0u8; PAGE_SIZE])?;
        // A torn zeroing is acknowledged but persists only half the image:
        // the platter still holds prior bytes, so the page must stay
        // quarantined (media recovery heals the tear, the next pass
        // re-reclaims).
        if self.pages[pid as usize].iter().any(|&b| b != 0) {
            return Ok(false);
        }
        self.reusable.insert(pid);
        Ok(true)
    }

    /// Catalog-free pages that are still quarantined (freed but not yet
    /// zeroed by [`SimDisk::reclaim_page`]), ascending.
    pub fn reclaimable_pages(&self) -> Vec<PageId> {
        self.catalog
            .free_pages()
            .into_iter()
            .filter(|pid| !self.reusable.contains(pid))
            .collect()
    }

    /// Number of zeroed pages the allocator can recycle.
    pub fn n_reusable(&self) -> usize {
        self.reusable.len()
    }

    /// Free every page currently owned by `owner` (dropping an index,
    /// discarding a damaged structure before its rebuild). Returns the
    /// freed page ids.
    pub fn free_owned(&mut self, owner: StructureId) -> Vec<PageId> {
        let pages = self.catalog.pages_of(owner);
        for &pid in &pages {
            self.catalog.free(pid);
        }
        pages
    }

    /// The page → owner catalog.
    pub fn catalog(&self) -> &PageCatalog {
        &self.catalog
    }

    /// Force the catalog owner of `pid` (recovery reconciliation; see
    /// [`PageCatalog::set_owner`]).
    pub fn set_page_owner(&mut self, pid: PageId, owner: StructureId) {
        self.catalog.set_owner(pid, owner);
        self.reusable.remove(&pid);
    }

    fn charge(&mut self, first: PageId, n: u64, is_read: bool) {
        let sequential = self.head == Some(first);
        let mut delta = DiskStats::default();
        if !sequential {
            delta.sim_ms += self.cost.positioning_ms();
        }
        delta.sim_ms += self.cost.transfer_ms * n as f64;
        match (is_read, sequential) {
            (true, true) => delta.sequential_reads = 1,
            (true, false) => delta.random_reads = 1,
            (false, true) => delta.sequential_writes = 1,
            (false, false) => delta.random_writes = 1,
        }
        if is_read {
            delta.pages_read = n;
        } else {
            delta.pages_written = n;
        }
        self.stats.merge(&delta);
        crate::io_scope::record(&delta);
        self.head = Some(first + n as PageId);
    }

    fn check(&self, pid: PageId) -> StorageResult<()> {
        if (pid as usize) < self.pages.len() {
            Ok(())
        } else {
            Err(StorageError::PageOutOfBounds(pid))
        }
    }

    /// Verify the stored checksum of `pid` against its current content
    /// (detects torn writes at read time, like an end-to-end CRC).
    fn verify_checksum(&self, pid: PageId) -> StorageResult<()> {
        if page_checksum(&self.pages[pid as usize][..]) != self.checksums[pid as usize] {
            return Err(StorageError::ChecksumMismatch(pid));
        }
        Ok(())
    }

    /// Read one page into `dst`.
    pub fn read(&mut self, pid: PageId, dst: &mut [u8; PAGE_SIZE]) -> StorageResult<()> {
        self.check(pid)?;
        self.faulted(FaultOp::Read, pid, 1)?;
        self.charge(pid, 1, true);
        self.verify_checksum(pid)?;
        dst.copy_from_slice(&self.pages[pid as usize][..]);
        Ok(())
    }

    /// Chained read of `n` contiguous pages starting at `first`; the visitor
    /// receives each page in order. One positioning cost for the whole chain.
    ///
    /// One pass: each page is verified against its checksum and handed to
    /// the visitor while it is still in cache. A torn page fails the chain
    /// after the visitor has seen the pages before it, so a caller must
    /// discard what an `Err` chain delivered.
    pub fn read_chain(
        &mut self,
        first: PageId,
        n: usize,
        mut visit: impl FnMut(PageId, &[u8; PAGE_SIZE]),
    ) -> StorageResult<()> {
        if n == 0 {
            return Ok(());
        }
        self.check(first + n as PageId - 1)?;
        self.faulted(FaultOp::Read, first, n as u32)?;
        self.charge(first, n as u64, true);
        for pid in first..first + n as PageId {
            self.verify_checksum(pid)?;
            visit(pid, &self.pages[pid as usize]);
        }
        Ok(())
    }

    /// Write one page.
    pub fn write(&mut self, pid: PageId, src: &[u8; PAGE_SIZE]) -> StorageResult<()> {
        self.check(pid)?;
        let (_, torn) = self.faulted(FaultOp::Write, pid, 1)?;
        self.charge(pid, 1, false);
        // The device acknowledges the full write (checksum of the intended
        // image), but a torn write persists only the first half.
        self.checksums[pid as usize] = page_checksum(src);
        let persisted = if torn.is_some() {
            PAGE_SIZE / 2
        } else {
            PAGE_SIZE
        };
        self.pages[pid as usize][..persisted].copy_from_slice(&src[..persisted]);
        Ok(())
    }

    /// Write `n` contiguous pages starting at `first` from the producer
    /// closure. One positioning cost for the whole chain. A crash point
    /// inside the chain leaves the pages before it written and fails the
    /// access.
    pub fn write_chain(
        &mut self,
        first: PageId,
        n: usize,
        mut produce: impl FnMut(PageId, &mut [u8; PAGE_SIZE]),
    ) -> StorageResult<()> {
        if n == 0 {
            return Ok(());
        }
        self.check(first + n as PageId - 1)?;
        let (persist, torn) = self.faulted(FaultOp::Write, first, n as u32)?;
        let persist = persist as usize;
        self.charge(first, persist as u64, false);
        for i in 0..persist {
            let pid = first + i as PageId;
            let old_tail: Option<Vec<u8>> =
                (torn == Some(pid)).then(|| self.pages[pid as usize][PAGE_SIZE / 2..].to_vec());
            produce(pid, &mut self.pages[pid as usize]);
            self.checksums[pid as usize] = page_checksum(&self.pages[pid as usize][..]);
            if let Some(tail) = old_tail {
                // Tear the acknowledged image: the checksum covers the
                // intended content, but the tail never hits the platter.
                self.pages[pid as usize][PAGE_SIZE / 2..].copy_from_slice(&tail);
            }
        }
        if persist < n {
            return Err(StorageError::SimulatedCrash);
        }
        Ok(())
    }

    /// Scrub pass: every page whose current image disagrees with its
    /// acknowledged checksum (a latent torn write). An out-of-band
    /// maintenance scan, not charged to the cost model.
    pub fn corrupt_pages(&self) -> Vec<PageId> {
        (0..self.pages.len() as PageId)
            .filter(|&pid| self.verify_checksum(pid).is_err())
            .collect()
    }

    /// Accept the current (possibly torn) image of `pid` as the page's
    /// content by rewriting its stored checksum — media recovery's first
    /// step, making the page readable again so the structure that owns it
    /// can be classified and rebuilt. Not charged (checksum metadata only).
    pub fn accept_torn_page(&mut self, pid: PageId) -> StorageResult<()> {
        self.check(pid)?;
        self.checksums[pid as usize] = page_checksum(&self.pages[pid as usize][..]);
        Ok(())
    }

    /// Access number and page offset at which the installed fault plan
    /// first struck. See [`FaultPlan::landed`].
    pub fn fault_plan_landed(&self) -> Option<(u64, u32)> {
        self.plan.landed()
    }

    /// Forensic view of a page's current primary image: uncharged, no
    /// checksum verification, no head movement. This is the
    /// proof-of-deletion sweep's eye — it must see exactly what the platter
    /// holds, including torn or stale bytes a normal read would reject.
    pub fn peek(&self, pid: PageId) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(pid as usize).map(|p| &**p)
    }

    /// Charge the simulated backoff of one buffer-pool retry: pure elapsed
    /// time (no transfer, no head movement), recorded in the stats and in
    /// every active [`IoScope`](crate::IoScope) so reports show retries
    /// honestly.
    pub fn charge_retry(&mut self, backoff_ms: f64) {
        let delta = DiskStats {
            retries: 1,
            sim_ms: backoff_ms,
            ..DiskStats::default()
        };
        self.stats.merge(&delta);
        crate::io_scope::record(&delta);
    }

    /// Snapshot of accumulated counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Reset counters (head position is kept).
    pub fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }

    /// Page the head would reach next without repositioning, if any.
    pub(crate) fn head(&self) -> Option<PageId> {
        self.head
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(byte: u8) -> Box<[u8; PAGE_SIZE]> {
        Box::new([byte; PAGE_SIZE])
    }

    #[test]
    fn roundtrip_single_page() {
        let mut d = SimDisk::new(CostModel::default());
        let pid = d.allocate(StructureId::Table, 0);
        d.write(pid, &page_of(7)).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        d.read(pid, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn out_of_bounds_is_error() {
        let mut d = SimDisk::new(CostModel::default());
        let mut buf = [0u8; PAGE_SIZE];
        assert_eq!(
            d.read(3, &mut buf).unwrap_err(),
            StorageError::PageOutOfBounds(3)
        );
    }

    #[test]
    fn sequential_access_is_cheaper_than_random() {
        let cost = CostModel::default();
        let mut d = SimDisk::new(cost);
        let first = d.allocate_contiguous(10, StructureId::Table);
        let mut buf = [0u8; PAGE_SIZE];
        // Sequential pass.
        for i in 0..10 {
            d.read(first + i, &mut buf).unwrap();
        }
        let seq = d.stats();
        assert_eq!(seq.random_reads, 1); // only the first access repositions
        assert_eq!(seq.sequential_reads, 9);
        d.reset_stats();
        // Random pass (stride 3 mod 10 visits all pages non-sequentially).
        for i in 0..10u32 {
            d.read(first + (i * 3) % 10, &mut buf).unwrap();
        }
        let rnd = d.stats();
        assert_eq!(rnd.random_reads + rnd.sequential_reads, 10);
        assert!(
            rnd.sim_ms > 3.0 * seq.sim_ms,
            "{} vs {}",
            rnd.sim_ms,
            seq.sim_ms
        );
    }

    #[test]
    fn chained_read_pays_one_positioning() {
        let mut d = SimDisk::new(CostModel::default());
        let first = d.allocate_contiguous(8, StructureId::Table);
        let mut seen = Vec::new();
        d.read_chain(first, 8, |pid, _| seen.push(pid)).unwrap();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        let s = d.stats();
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.pages_read, 8);
        let expected = CostModel::default().positioning_ms() + 8.0 * 0.4;
        assert!((s.sim_ms - expected).abs() < 1e-9);
    }

    #[test]
    fn head_tracks_across_read_write() {
        let mut d = SimDisk::new(CostModel::default());
        let first = d.allocate_contiguous(4, StructureId::Table);
        let mut buf = [0u8; PAGE_SIZE];
        d.read(first, &mut buf).unwrap();
        // Writing the next page continues sequentially.
        d.write(first + 1, &page_of(1)).unwrap();
        let s = d.stats();
        assert_eq!(s.sequential_writes, 1);
        assert_eq!(s.random_writes, 0);
    }

    #[test]
    fn stats_since_subtracts() {
        let mut d = SimDisk::new(CostModel::default());
        let p = d.allocate(StructureId::Table, 0);
        d.write(p, &page_of(0)).unwrap();
        let before = d.stats();
        d.write(p, &page_of(1)).unwrap();
        let delta = d.stats().since(&before);
        assert_eq!(delta.pages_written, 1);
    }

    #[test]
    fn breakeven_is_positioning_over_transfer() {
        assert_eq!(CostModel::default().breakeven_pages(), 30);
        assert_eq!(CostModel::flat(0.4).breakeven_pages(), 0);
        // Free transfer: any gap is worth bridging. Free everything: none is.
        let free_transfer = CostModel {
            transfer_ms: 0.0,
            ..CostModel::default()
        };
        assert_eq!(free_transfer.breakeven_pages(), PageId::MAX);
        assert_eq!(CostModel::flat(0.0).breakeven_pages(), 0);
    }

    #[test]
    fn flat_cost_model_has_no_positioning() {
        let mut d = SimDisk::new(CostModel::flat(1.0));
        let first = d.allocate_contiguous(5, StructureId::Table);
        let mut buf = [0u8; PAGE_SIZE];
        for i in [4u32, 0, 3, 1, 2] {
            d.read(first + i, &mut buf).unwrap();
        }
        assert!((d.stats().sim_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn access_counter_counts_failed_accesses_too() {
        let mut d = SimDisk::new(CostModel::default());
        let pid = d.allocate(StructureId::Table, 0);
        let mut buf = [0u8; PAGE_SIZE];
        d.read(pid, &mut buf).unwrap();
        d.set_fault_plan(FaultPlan::new().inject(crate::FaultSpec::read_page(pid)));
        assert_eq!(d.read(pid, &mut buf), Err(StorageError::InjectedFault(pid)));
        assert_eq!(d.accesses(), 2, "the failed read still counts");
    }

    #[test]
    fn transient_fault_heals_and_charges_nothing_until_then() {
        let mut d = SimDisk::new(CostModel::default());
        let pid = d.allocate(StructureId::Table, 0);
        d.set_fault_plan(FaultPlan::new().inject(crate::FaultSpec::read_page(pid).transient(2)));
        let mut buf = [0u8; PAGE_SIZE];
        assert!(d.read(pid, &mut buf).is_err());
        assert!(d.read(pid, &mut buf).is_err());
        assert_eq!(d.stats().pages_read, 0, "failed accesses are not charged");
        d.read(pid, &mut buf).unwrap();
        assert_eq!(d.stats().pages_read, 1);
    }

    #[test]
    fn crash_point_kills_every_later_access() {
        let mut d = SimDisk::new(CostModel::default());
        let first = d.allocate_contiguous(4, StructureId::Table);
        let mut buf = [0u8; PAGE_SIZE];
        d.set_fault_plan(FaultPlan::new().crash_at_access(2));
        d.read(first, &mut buf).unwrap();
        assert_eq!(
            d.write(first + 1, &page_of(1)),
            Err(StorageError::SimulatedCrash)
        );
        assert_eq!(d.read(first, &mut buf), Err(StorageError::SimulatedCrash));
        d.clear_fault_plan();
        d.read(first, &mut buf).unwrap();
    }

    #[test]
    fn torn_write_is_caught_by_checksum_on_read() {
        let mut d = SimDisk::new(CostModel::default());
        let pid = d.allocate(StructureId::Table, 0);
        d.write(pid, &page_of(3)).unwrap();
        d.set_fault_plan(FaultPlan::new().inject(crate::FaultSpec::write_page(pid).torn()));
        d.write(pid, &page_of(9)).unwrap(); // acknowledged, silently torn
        let mut buf = [0u8; PAGE_SIZE];
        assert_eq!(
            d.read(pid, &mut buf),
            Err(StorageError::ChecksumMismatch(pid)),
            "latent corruption surfaces at read time"
        );
        // Rewriting the page (intact this time: TornWrite fires once)
        // heals the checksum.
        d.write(pid, &page_of(5)).unwrap();
        d.read(pid, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 5));
    }

    #[test]
    fn torn_chain_write_tears_only_the_programmed_page() {
        let mut d = SimDisk::new(CostModel::default());
        let first = d.allocate_contiguous(3, StructureId::Table);
        d.set_fault_plan(FaultPlan::new().inject(crate::FaultSpec::write_page(first + 1).torn()));
        d.write_chain(first, 3, |_, page| page.fill(7)).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        d.read(first, &mut buf).unwrap();
        assert_eq!(
            d.read_chain(first, 3, |_, _| {}),
            Err(StorageError::ChecksumMismatch(first + 1))
        );
        d.read(first + 2, &mut buf).unwrap();
    }

    #[test]
    fn crash_inside_a_chain_leaves_exactly_the_prefix() {
        let mut d = SimDisk::new(CostModel::default());
        let first = d.allocate_contiguous(5, StructureId::Table);
        d.set_fault_plan(FaultPlan::new().crash_at_access_page(1, 2));
        assert_eq!(
            d.write_chain(first, 5, |_, page| page.fill(7)),
            Err(StorageError::SimulatedCrash)
        );
        assert_eq!(d.fault_plan_landed(), Some((1, 2)));
        assert_eq!(d.stats().pages_written, 2);
        let mut buf = [0u8; PAGE_SIZE];
        assert_eq!(d.read(first, &mut buf), Err(StorageError::SimulatedCrash));
        d.clear_fault_plan();
        for i in 0..5 {
            let byte = if i < 2 { 7 } else { 0 };
            d.read(first + i, &mut buf).unwrap();
            assert_eq!(buf, [byte; PAGE_SIZE], "page {i}");
        }
    }

    #[test]
    fn charge_retry_accumulates_time_and_retry_count() {
        let mut d = SimDisk::new(CostModel::default());
        d.charge_retry(1.0);
        d.charge_retry(2.0);
        let s = d.stats();
        assert_eq!(s.retries, 2);
        assert!((s.sim_ms - 3.0).abs() < 1e-9);
        assert_eq!(s.total_ios(), 0, "backoff moves no pages");
    }

    #[test]
    fn accept_torn_page_makes_the_torn_image_readable() {
        let mut d = SimDisk::new(CostModel::default());
        let pid = d.allocate(StructureId::Table, 0);
        d.write(pid, &page_of(3)).unwrap();
        d.set_fault_plan(FaultPlan::new().inject(crate::FaultSpec::write_page(pid).torn()));
        d.write(pid, &page_of(9)).unwrap();
        assert_eq!(d.corrupt_pages(), vec![pid]);
        assert_eq!(d.fault_plan_landed(), Some((2, 0)), "the torn slot fired");
        d.accept_torn_page(pid).unwrap();
        assert!(d.corrupt_pages().is_empty());
        let mut buf = [0u8; PAGE_SIZE];
        d.read(pid, &mut buf).unwrap();
        // First half is the new image, the tail kept the old content.
        assert!(buf[..PAGE_SIZE / 2].iter().all(|&b| b == 9));
        assert!(buf[PAGE_SIZE / 2..].iter().all(|&b| b == 3));
    }

    #[test]
    fn write_chain_fills_pages() {
        let mut d = SimDisk::new(CostModel::default());
        let first = d.allocate_contiguous(3, StructureId::Table);
        d.write_chain(first, 3, |pid, page| page[0] = pid as u8 + 1)
            .unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        for i in 0..3u32 {
            d.read(first + i, &mut buf).unwrap();
            assert_eq!(buf[0], i as u8 + 1);
        }
        assert_eq!(d.stats().random_writes, 1);
        assert_eq!(d.stats().pages_written, 3);
    }

    #[test]
    fn catalog_tracks_allocation_owners_and_frees() {
        let mut d = SimDisk::new(CostModel::default());
        let heap = d.allocate(StructureId::Table, 0);
        let idx = d.allocate_contiguous(3, StructureId::Index(2));
        assert_eq!(d.catalog().owner(heap), Some(StructureId::Table));
        assert_eq!(d.catalog().owner(idx + 2), Some(StructureId::Index(2)));
        d.free_page(idx + 1);
        assert_eq!(d.catalog().owner(idx + 1), None);
        assert_eq!(d.catalog().free_pages(), vec![idx + 1]);
        let freed = d.free_owned(StructureId::Index(2));
        assert_eq!(freed, vec![idx, idx + 2]);
        assert_eq!(
            d.catalog().pages_of(StructureId::Index(2)),
            Vec::<PageId>::new()
        );
        assert_eq!(d.catalog().owner(heap), Some(StructureId::Table));
    }

    #[test]
    fn peek_is_uncharged_and_sees_torn_bytes() {
        let mut d = SimDisk::new(CostModel::default());
        let pid = d.allocate(StructureId::Table, 0);
        d.write(pid, &page_of(3)).unwrap();
        d.set_fault_plan(FaultPlan::new().inject(crate::FaultSpec::write_page(pid).torn()));
        d.write(pid, &page_of(9)).unwrap();
        let before = d.stats();
        let img = d.peek(pid).unwrap();
        assert!(img[..PAGE_SIZE / 2].iter().all(|&b| b == 9));
        assert!(img[PAGE_SIZE / 2..].iter().all(|&b| b == 3));
        assert_eq!(d.stats(), before, "peek charges nothing");
        assert!(d.peek(99).is_none());
    }

    #[test]
    fn freed_pages_are_quarantined_until_reclaimed() {
        let mut d = SimDisk::new(CostModel::default());
        let first = d.allocate_contiguous(4, StructureId::Table);
        d.write(first + 1, &page_of(9)).unwrap();
        d.free_page(first + 1);
        // Freed but not reclaimed: the allocator must not hand it out.
        assert_eq!(d.n_reusable(), 0);
        assert_eq!(d.reclaimable_pages(), vec![first + 1]);
        let fresh = d.allocate(StructureId::Table, 0);
        assert_eq!(fresh, first + 4, "quarantined page must not be recycled");
        // After reclaim the page is zeroed and reused.
        assert!(d.reclaim_page(first + 1).unwrap());
        assert!(d.reclaimable_pages().is_empty());
        assert_eq!(d.n_reusable(), 1);
        let reused = d.allocate(StructureId::Index(3), 0);
        assert_eq!(reused, first + 1);
        assert_eq!(d.catalog().owner(reused), Some(StructureId::Index(3)));
        assert_eq!(d.n_reusable(), 0);
        assert!(
            d.peek(reused).unwrap().iter().all(|&b| b == 0),
            "recycled page must be zeroed"
        );
    }

    #[test]
    fn reclaim_is_a_noop_on_owned_or_already_reusable_pages() {
        let mut d = SimDisk::new(CostModel::default());
        let pid = d.allocate(StructureId::Table, 0);
        assert!(!d.reclaim_page(pid).unwrap(), "owned page stays put");
        d.free_page(pid);
        assert!(d.reclaim_page(pid).unwrap());
        assert!(!d.reclaim_page(pid).unwrap(), "double reclaim is a no-op");
        assert_eq!(d.n_reusable(), 1);
    }

    #[test]
    fn contiguous_allocation_reuses_a_consecutive_run() {
        let mut d = SimDisk::new(CostModel::default());
        let first = d.allocate_contiguous(8, StructureId::Table);
        // Free pages 1, 3, 4, 5, 7: the only run of three is 3..=5.
        for off in [1, 3, 4, 5, 7] {
            d.free_page(first + off);
            assert!(d.reclaim_page(first + off).unwrap());
        }
        let run = d.allocate_contiguous(3, StructureId::Index(2));
        assert_eq!(run, first + 3);
        for pid in run..run + 3 {
            assert_eq!(d.catalog().owner(pid), Some(StructureId::Index(2)));
        }
        assert_eq!(d.n_reusable(), 2);
        // No run of three remains: the file is extended instead.
        let ext = d.allocate_contiguous(3, StructureId::Index(2));
        assert_eq!(ext, first + 8);
        // Single-page allocation still drains the leftovers; from `near`
        // = 0 every reusable page is at or after the hint, so the lowest
        // comes first.
        assert_eq!(d.allocate(StructureId::Table, 0), first + 1);
        assert_eq!(d.allocate(StructureId::Table, 0), first + 7);
        assert_eq!(d.n_reusable(), 0);
    }

    #[test]
    fn a_reusable_run_may_start_after_a_shorter_one() {
        let mut d = SimDisk::new(CostModel::default());
        let first = d.allocate_contiguous(12, StructureId::Table);
        // Runs of two (1..=2), one (4) and four (6..=9): the lowest run of
        // three is the first three pages of the four.
        for off in [1, 2, 4, 6, 7, 8, 9] {
            d.free_page(first + off);
            assert!(d.reclaim_page(first + off).unwrap());
        }
        assert_eq!(d.find_reusable_run(1), Some(first + 1));
        assert_eq!(d.find_reusable_run(2), Some(first + 1));
        assert_eq!(d.find_reusable_run(3), Some(first + 6));
        assert_eq!(d.find_reusable_run(4), Some(first + 6));
        assert_eq!(d.find_reusable_run(5), None);
        assert_eq!(d.allocate_contiguous(3, StructureId::Temp), first + 6);
        assert_eq!(d.find_reusable_run(2), Some(first + 1));
        assert_eq!(d.find_reusable_run(3), None);
    }

    #[test]
    fn allocation_takes_the_first_reusable_page_at_or_after_near() {
        let mut d = SimDisk::new(CostModel::default());
        // Nothing is reusable: the file is extended whatever the hint.
        assert_eq!(d.allocate(StructureId::Table, 7), 0);
        let first = d.allocate_contiguous(10, StructureId::Table);
        for off in [2, 5, 8] {
            d.free_page(first + off);
            assert!(d.reclaim_page(first + off).unwrap());
        }
        // The hint is an owned page: the next reusable one after it.
        assert_eq!(d.allocate(StructureId::Index(1), first + 3), first + 5);
        assert_eq!(d.catalog().owner(first + 5), Some(StructureId::Index(1)));
        // The hint itself is reusable: it is taken.
        assert_eq!(d.allocate(StructureId::Index(1), first + 8), first + 8);
        // Nothing at or after the hint: wrap to the lowest reusable page.
        assert_eq!(d.allocate(StructureId::Index(1), first + 9), first + 2);
        assert_eq!(d.n_reusable(), 0);
        // Empty again: extend, never hand out an owned page.
        assert_eq!(d.allocate(StructureId::Index(1), first + 2), first + 10);
        assert_eq!(d.num_pages() as PageId, first + 11);
    }

    #[test]
    fn torn_zeroing_leaves_the_page_quarantined() {
        let mut d = SimDisk::new(CostModel::default());
        let pid = d.allocate(StructureId::Table, 0);
        d.write(pid, &page_of(0xAB)).unwrap();
        d.free_page(pid);
        d.set_fault_plan(FaultPlan::new().inject(crate::FaultSpec::write_page(pid).torn()));
        assert!(
            !d.reclaim_page(pid).unwrap(),
            "torn zeroing must not mark the page reusable"
        );
        assert_eq!(d.n_reusable(), 0, "page must stay quarantined");
        assert_eq!(d.reclaimable_pages(), vec![pid]);
        // The next maintenance pass re-reclaims it cleanly (the torn slot
        // fires once; recovery would heal the checksum, reclaim rewrites
        // the full image anyway).
        assert!(d.reclaim_page(pid).unwrap());
        assert_eq!(d.allocate(StructureId::Table, 0), pid);
        assert!(d.peek(pid).unwrap().iter().all(|&b| b == 0));
    }
}
