//! Buffer pool: a bounded page cache over the simulated disk.
//!
//! The paper's prototype "uses only 10 MB of main memory" and varies this
//! between 2 and 10 MB (Experiment 4). A [`BufferPool`] is created with a
//! frame budget derived from those byte budgets. Pages are pinned for read
//! or write through RAII guards; unpinned frames are evicted LRU, writing
//! dirty pages back to disk. [`BufferPool::prefetch_run`] implements the
//! chained I/O the paper's traditional algorithm uses "to read chunks of
//! several pages from disk"; write-back is chained the same way, one
//! write-behind routine behind eviction, [`BufferPool::flush_all`] and
//! [`BufferPool::clear_cache`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
use parking_lot::{Mutex, RawRwLock, RwLock};

use crate::disk::{DiskStats, PageId, SimDisk, PAGE_SIZE};
use crate::error::{StorageError, StorageResult};
use crate::owner::{PageCatalog, StructureId};
use crate::page::PageBuf;

type ReadGuard = ArcRwLockReadGuard<RawRwLock, PageBuf>;
type WriteGuard = ArcRwLockWriteGuard<RawRwLock, PageBuf>;

struct Frame {
    pid: PageId,
    data: Arc<RwLock<PageBuf>>,
    pin: AtomicUsize,
    dirty: AtomicBool,
    /// Set once a write-back has cleaned the frame, or when the page was
    /// born in the pool (`new_page`). A dirty frame without it is *cold*:
    /// dirtied only since it was read. See [`BufferPool::write_back`].
    /// Read and written only under `inner`, which orders it.
    hot: AtomicBool,
    last_used: AtomicU64,
    /// Set when the frame was staged by [`BufferPool::prefetch_run`] and not
    /// yet pinned; the first pin consumes it into `PoolStats::prefetched`
    /// instead of `hits` (a prefetched page was paid for by the read-ahead
    /// chain, not found warm in the cache).
    prefetched: AtomicBool,
}

impl Frame {
    fn is_idle(&self) -> bool {
        self.pin.load(Ordering::Acquire) == 0
    }

    fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }
}

/// Hasher of the frame map's dense page ids: one multiply by an odd
/// constant (2^64 / golden ratio) instead of SipHash. The map takes a
/// bucket from the low bits of the hash — for an odd multiplier a
/// bijection of the id's low bits, so consecutive ids never share one —
/// and a tag from the top bits, which the multiply mixes from every bit of
/// the id. Iteration order changes with the hasher, and no clock sees it:
/// eviction picks the unique least-recent tick and write-back sorts by
/// page id.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

struct Inner {
    frames: HashMap<PageId, Arc<Frame>, BuildHasherDefault<PageIdHasher>>,
    tick: u64,
    /// Page buffers of evicted frames, kept for the next loads so a miss
    /// neither allocates nor zero-fills. Their bytes are a previous page's:
    /// a buffer is installed only after a read overwrote all of it (or
    /// `new_page` zeroed it), and it is filled before it is installed, so
    /// a load takes no page latch. Every buffer here left a frame or comes
    /// back from a load that failed, so frames plus spares never exceed
    /// the pool's capacity; `recycle` checks the bound anyway.
    spare: Vec<PageBuf>,
}

impl Inner {
    /// A buffer for a frame about to be loaded: a spare if there is one.
    /// Its bytes are stale until the caller overwrites them.
    fn take_buffer(&mut self) -> PageBuf {
        self.spare.pop().unwrap_or_else(crate::page::zeroed)
    }

    /// Keep `buf` for a later load.
    fn recycle(&mut self, buf: PageBuf, capacity: usize) {
        if self.spare.len() < capacity {
            self.spare.push(buf);
        }
    }

    /// The frame of `pid` if write-back may rewrite it to bridge a gap:
    /// resident, clean and unpinned. A pinned one may be in the window
    /// between `pin_frame` returning and `pin_write` raising the dirty
    /// flag, its bytes about to change. With the pin count at zero under
    /// `inner` nobody can be in that window, and nobody can enter it before
    /// `inner` is released.
    fn bridge(&self, pid: PageId) -> Option<&Arc<Frame>> {
        self.frames
            .get(&pid)
            .filter(|f| f.is_idle() && !f.is_dirty())
    }

    /// Whether `pid` is resident, staged by [`BufferPool::prefetch_run`] and
    /// never pinned since — so clean and unpinned, a bridge.
    fn staged(&self, pid: PageId) -> bool {
        self.frames
            .get(&pid)
            .is_some_and(|f| f.prefetched.load(Ordering::Acquire))
    }

    /// The first of `pages` that is not a bridge, if it is an idle dirty
    /// frame: where a write-back chain through the bridges before it ends.
    fn dirty_end(&self, mut pages: impl Iterator<Item = PageId>) -> Option<PageId> {
        pages
            .find(|&pid| self.bridge(pid).is_none())
            .filter(|pid| self.frames.get(pid).is_some_and(|f| f.is_idle()))
    }

    /// Make `buf` the resident frame of `pid`, most recently used. Only a
    /// page born in the pool is installed dirty, so it is installed hot.
    fn install(
        &mut self,
        pid: PageId,
        buf: PageBuf,
        pin: usize,
        dirty: bool,
        prefetched: bool,
    ) -> Arc<Frame> {
        self.tick += 1;
        let frame = Arc::new(Frame {
            pid,
            data: Arc::new(RwLock::new(buf)),
            pin: AtomicUsize::new(pin),
            dirty: AtomicBool::new(dirty),
            hot: AtomicBool::new(dirty),
            last_used: AtomicU64::new(self.tick),
            prefetched: AtomicBool::new(prefetched),
        });
        self.frames.insert(pid, frame.clone());
        frame
    }
}

/// Cache hit/miss counters for the pool itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins served from a frame that was already warm in the cache.
    pub hits: u64,
    /// Pins that had to read the page from disk.
    pub misses: u64,
    /// First pins of pages staged by [`BufferPool::prefetch_run`]. These
    /// were paid for by a chained read-ahead, so counting them as `hits`
    /// would inflate the cache's apparent warmth.
    pub prefetched: u64,
    /// Dirty pages written back during eviction or flush. Clean pages a
    /// write-behind chain rewrites are not counted — those bridging a gap
    /// between dirty pages, and those carrying an evicting chain on to the
    /// disk head: they show as the excess of `DiskStats::pages_written`
    /// over this.
    pub writebacks: u64,
}

impl PoolStats {
    /// Fraction of pins served without a new disk read at pin time.
    /// Prefetched pins are in the denominator but not the numerator: their
    /// I/O was merely moved earlier, not avoided.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.prefetched;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Add another counter set into this one (one statement's steps).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.prefetched += other.prefetched;
        self.writebacks += other.writebacks;
    }
}

/// Retries the buffer pool grants a disk access after an
/// [`StorageError::InjectedFault`] (a timeout that may heal).
const RETRIES: u32 = 3;

/// Simulated backoff before the first retry, in milliseconds; it doubles on
/// each later one.
const BACKOFF_MS: f64 = 1.0;

/// Run a disk operation with bounded retry-with-backoff. Only a transient
/// [`StorageError::InjectedFault`] is retried; a
/// [`StorageError::ChecksumMismatch`] is final (the WAL's media recovery
/// rebuilds the structure that owns the torn page), and so are
/// cancellation and crash points. Each retry charges its backoff to the
/// simulated clock (via [`SimDisk::charge_retry`]), so retried runs are
/// honestly slower and the retries show up in `DiskStats::retries` and
/// every active `IoScope`. The caller already holds the disk lock; backoff
/// is simulated time only, never host sleep.
fn retry_disk<R>(
    disk: &mut SimDisk,
    mut op: impl FnMut(&mut SimDisk) -> StorageResult<R>,
) -> StorageResult<R> {
    let mut backoff = BACKOFF_MS;
    for _ in 0..RETRIES {
        match op(disk) {
            Err(StorageError::InjectedFault(_)) => {
                disk.charge_retry(backoff);
                backoff *= 2.0;
            }
            other => return other,
        }
    }
    op(disk)
}

/// Bounded LRU page cache over a [`SimDisk`].
pub struct BufferPool {
    disk: Mutex<SimDisk>,
    capacity: usize,
    /// [`CostModel::breakeven_pages`](crate::CostModel::breakeven_pages) of
    /// the disk, fixed for its lifetime.
    breakeven: PageId,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    prefetched: AtomicU64,
    writebacks: AtomicU64,
}

impl BufferPool {
    /// Pool with room for `capacity` pages.
    pub fn new(disk: SimDisk, capacity: usize) -> Arc<Self> {
        assert!(capacity >= 2, "buffer pool needs at least 2 frames");
        Arc::new(BufferPool {
            breakeven: disk.cost_model().breakeven_pages(),
            disk: Mutex::new(disk),
            capacity,
            inner: Mutex::new(Inner {
                frames: HashMap::default(),
                tick: 0,
                spare: Vec::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            prefetched: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        })
    }

    /// Pool sized from a byte budget (the paper's "5 MB memory" style
    /// figures), rounding down to whole frames.
    pub fn with_byte_budget(disk: SimDisk, bytes: usize) -> Arc<Self> {
        BufferPool::new(disk, (bytes / PAGE_SIZE).max(2))
    }

    /// Frame capacity of the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Longest gap, in pages, a chained access bridges instead of ending
    /// the chain: the disk's seek/transfer breakeven. Read-ahead reads that
    /// many unwanted pages to keep a chain going, write-behind rewrites
    /// that many clean ones.
    pub fn breakeven_pages(&self) -> PageId {
        self.breakeven
    }

    /// Allocate one fresh page on disk to `owner` (not yet resident),
    /// placed as [`SimDisk::allocate`] places it: the first recycled page at
    /// or after `near`. The disk may recycle a reclaimed page, so any stale
    /// cached frame of the returned id is dropped — its bytes belong to the
    /// page's previous life.
    pub fn allocate(&self, owner: StructureId, near: PageId) -> PageId {
        let pid = self.disk.lock().allocate(owner, near);
        self.inner.lock().frames.remove(&pid);
        pid
    }

    /// Allocate `n` contiguous pages on disk to `owner`, returning the
    /// first id. Stale frames of recycled ids are dropped, as in
    /// [`BufferPool::allocate`].
    pub fn allocate_contiguous(&self, n: usize, owner: StructureId) -> PageId {
        let first = self.disk.lock().allocate_contiguous(n, owner);
        let mut inner = self.inner.lock();
        for pid in first..first + n as PageId {
            inner.frames.remove(&pid);
        }
        first
    }

    /// Move a page to the catalog's free set (see [`SimDisk::free_page`]).
    pub fn free_page(&self, pid: PageId) {
        self.disk.lock().free_page(pid);
    }

    /// Zero a quarantined free page and hand it to the allocator's reusable
    /// set (see [`SimDisk::reclaim_page`]), dropping any stale cached frame
    /// first. A still-pinned frame means some reader is walking the old
    /// image through a stale chain pointer — the page is left quarantined
    /// for a later maintenance pass.
    pub fn reclaim_page(&self, pid: PageId) -> StorageResult<bool> {
        {
            let mut inner = self.inner.lock();
            if let Some(f) = inner.frames.get(&pid) {
                if f.pin.load(Ordering::Acquire) > 0 {
                    return Ok(false);
                }
            }
            inner.frames.remove(&pid);
        }
        self.disk.lock().reclaim_page(pid)
    }

    /// Catalog-free pages not yet reclaimed (see
    /// [`SimDisk::reclaimable_pages`]).
    pub fn reclaimable_pages(&self) -> Vec<PageId> {
        self.disk.lock().reclaimable_pages()
    }

    /// Number of zeroed pages the allocator can recycle.
    pub fn n_reusable(&self) -> usize {
        self.disk.lock().n_reusable()
    }

    /// Free every page owned by `owner`, returning the freed ids (see
    /// [`SimDisk::free_owned`]).
    pub fn free_owned(&self, owner: StructureId) -> Vec<PageId> {
        self.disk.lock().free_owned(owner)
    }

    /// Snapshot of the disk's page → owner catalog.
    pub fn catalog(&self) -> PageCatalog {
        self.disk.lock().catalog().clone()
    }

    /// Run a closure against the raw disk (used by temp segments, which
    /// deliberately bypass the cache).
    pub fn with_disk<R>(&self, f: impl FnOnce(&mut SimDisk) -> R) -> R {
        f(&mut self.disk.lock())
    }

    /// Snapshot of the underlying disk's counters.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.lock().stats()
    }

    /// Reset the underlying disk's counters and the pool's hit counters.
    pub fn reset_stats(&self) {
        self.disk.lock().reset_stats();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.prefetched.store(0, Ordering::Relaxed);
        self.writebacks.store(0, Ordering::Relaxed);
    }

    /// Pool-level hit/miss counters.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            prefetched: self.prefetched.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    fn touch(inner: &mut Inner, frame: &Frame) {
        inner.tick += 1;
        frame.last_used.store(inner.tick, Ordering::Relaxed);
    }

    /// Write-behind: cut the dirty unpinned frames, in ascending page
    /// order, into chains and write them as chained writes. Caller holds
    /// `inner`. Every written frame that was dirty is clean and hot after.
    ///
    /// With no `victim` (`flush_all`, `clear_cache`) every chain is written.
    /// For an eviction, a chain is written only if it holds the victim or a
    /// cold dirty frame; a chain of hot pages waits. A dirty hot page was
    /// dirtied again after a write-back cleaned it, or was born here, so it
    /// is being worked on — the right-edge leaf a record-at-a-time insert
    /// stream keeps dirtying — and writing it now buys a positioning that
    /// its next dirtying wastes. A sweep dirties each page once, so its
    /// pages are all cold and leave in one pass as before. The chains are
    /// still cut over the whole pool: writing only the victim's chain would
    /// break the sweep's bridges.
    ///
    /// A chain runs on across a gap between two dirty pages when the gap is
    /// no longer than [`BufferPool::breakeven_pages`] and every page in it
    /// is a bridge ([`Inner::bridge`]) — behind a sorted sweep, the pages
    /// the coalesced read-ahead chain dragged in a moment earlier. The
    /// bridged pages are written like any other (copied, checksummed,
    /// charged); their bytes are the ones the disk already
    /// holds, so the rewrite adds transfer time and saves a positioning.
    ///
    /// An eviction's due chain that ends within the breakeven below the
    /// disk head, with every page up to the head staged by read-ahead and
    /// never pinned ([`Inner::staged`]), is carried on to the head: the
    /// read-ahead chain that staged those pages ended there, so the read
    /// that follows the eviction continues at the head instead of
    /// repositioning. Pages pinned since they were read (an index lookup's
    /// leaves) say nothing about where the next read starts, and neither
    /// does a flush, which ends its chains at their last dirty page.
    fn write_back(&self, inner: &Inner, victim: Option<PageId>) -> StorageResult<()> {
        let due = |f: &Frame| {
            victim.is_none_or(|v| f.pid == v || f.is_dirty() && !f.hot.load(Ordering::Relaxed))
        };
        let mut dirty: Vec<&Arc<Frame>> = inner
            .frames
            .values()
            .filter(|f| f.is_idle() && f.is_dirty())
            .collect();
        dirty.sort_by_key(|f| f.pid);
        let mut dirty = dirty.into_iter().peekable();
        let mut disk = self.disk.lock();
        let head = victim.and(disk.head());
        let mut chain: Vec<&Arc<Frame>> = Vec::new();
        while let Some(first) = dirty.next() {
            chain.clear();
            chain.push(first);
            while let Some(next) = dirty.peek() {
                if !self.bridge_to(inner, &mut chain, next.pid) {
                    break;
                }
                chain.extend(dirty.next());
            }
            if !chain.iter().any(|f| due(f)) {
                continue;
            }
            let end = chain[chain.len() - 1].pid + 1;
            if let Some(head) = head.filter(|&h| (end..h).all(|pid| inner.staged(pid))) {
                self.bridge_to(inner, &mut chain, head);
            }
            let start = chain[0].pid;
            retry_disk(&mut disk, |d| {
                d.write_chain(start, chain.len(), |pid, page| {
                    page.copy_from_slice(&chain[(pid - start) as usize].data.read()[..]);
                })
            })?;
            let cleaned = chain
                .iter()
                .filter(|f| f.dirty.swap(false, Ordering::AcqRel))
                .inspect(|f| f.hot.store(true, Ordering::Relaxed))
                .count();
            self.writebacks.fetch_add(cleaned as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Extend `chain` over the pages after its last one up to `to`,
    /// exclusive, if there are at most [`BufferPool::breakeven_pages`] of
    /// them and each is a bridge ([`Inner::bridge`]). Returns whether the
    /// chain now ends just below `to`.
    fn bridge_to<'a>(&self, inner: &'a Inner, chain: &mut Vec<&'a Arc<Frame>>, to: PageId) -> bool {
        let gap = chain[chain.len() - 1].pid + 1..to;
        if gap.len() > self.breakeven as usize {
            return false;
        }
        let unbridged = chain.len();
        chain.extend(gap.clone().map_while(|pid| inner.bridge(pid)));
        if chain.len() < unbridged + gap.len() {
            chain.truncate(unbridged);
            return false;
        }
        true
    }

    /// Whether write-back would rewrite the clean frame `pid` to bridge a
    /// gap: the nearest pages around it that are not bridges are idle
    /// dirty frames at most [`BufferPool::breakeven_pages`] apart.
    fn bridges_a_gap(&self, inner: &Inner, pid: PageId) -> bool {
        let gap = self.breakeven;
        inner
            .dirty_end((pid.saturating_sub(gap)..pid).rev())
            .is_some_and(|lo| inner.dirty_end(pid + 1..=lo + gap + 1).is_some())
    }

    /// Evict one unpinned frame (LRU). Caller holds `inner`.
    fn evict_one(&self, inner: &mut Inner) -> StorageResult<()> {
        let victim = inner
            .frames
            .values()
            .filter(|f| f.is_idle())
            .min_by_key(|f| f.last_used.load(Ordering::Relaxed))
            .map(|f| f.pid);
        let pid = victim.ok_or(StorageError::BufferExhausted)?;
        // Eviction hit a dirty page, or a staged page never pinned that
        // bridges two dirty ones (LRU reaches a sweep's read-ahead bridges
        // before the pages it dirtied on either side): write its chain, and
        // every chain with a cold page, in one chained pass so scans do not
        // interleave random writes. Chains of hot pages stay dirty.
        if inner.frames[&pid].is_dirty() || inner.staged(pid) && self.bridges_a_gap(inner, pid) {
            self.write_back(inner, Some(pid))?;
        }
        let frame = inner.frames.remove(&pid).expect("victim frame present");
        // A pin's guard can outlive its count by an instant (the count
        // drops first); its buffer is recycled only once nobody holds it.
        if let Some(data) = Arc::into_inner(frame).and_then(|f| Arc::into_inner(f.data)) {
            inner.recycle(data.into_inner(), self.capacity);
        }
        Ok(())
    }

    /// Get or load the frame for `pid`, pinned once.
    fn pin_frame(&self, pid: PageId) -> StorageResult<Arc<Frame>> {
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.frames.get(&pid).cloned() {
            frame.pin.fetch_add(1, Ordering::AcqRel);
            Self::touch(&mut inner, &frame);
            if frame.prefetched.swap(false, Ordering::AcqRel) {
                self.prefetched.fetch_add(1, Ordering::Relaxed);
            } else {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(frame);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        while inner.frames.len() >= self.capacity {
            self.evict_one(&mut inner)?;
        }
        let mut buf = inner.take_buffer();
        let read = retry_disk(&mut self.disk.lock(), |d| d.read(pid, &mut buf));
        if let Err(e) = read {
            inner.recycle(buf, self.capacity);
            return Err(e);
        }
        Ok(inner.install(pid, buf, 1, false, false))
    }

    /// Pin `pid` for reading.
    pub fn pin_read(&self, pid: PageId) -> StorageResult<PageRead> {
        let frame = self.pin_frame(pid)?;
        let guard = frame.data.read_arc();
        Ok(PageRead { frame, guard })
    }

    /// Pin `pid` for writing; the page is marked dirty.
    pub fn pin_write(&self, pid: PageId) -> StorageResult<PageWrite> {
        let frame = self.pin_frame(pid)?;
        frame.dirty.store(true, Ordering::Release);
        let guard = frame.data.write_arc();
        Ok(PageWrite { frame, guard })
    }

    /// Allocate a fresh page to `owner` near `near` (see
    /// [`BufferPool::allocate`]) and pin it for writing without a disk read.
    pub fn new_page(&self, owner: StructureId, near: PageId) -> StorageResult<(PageId, PageWrite)> {
        let pid = self.allocate(owner, near);
        let mut inner = self.inner.lock();
        while inner.frames.len() >= self.capacity {
            self.evict_one(&mut inner)?;
        }
        let mut buf = inner.take_buffer();
        buf.fill(0);
        let frame = inner.install(pid, buf, 1, true, false);
        drop(inner);
        let guard = frame.data.write_arc();
        Ok((pid, PageWrite { frame, guard }))
    }

    /// Largest run [`BufferPool::prefetch_run`] will stage at once: half the
    /// frames, so read-ahead never evicts the working set it feeds.
    pub fn max_prefetch(&self) -> usize {
        (self.capacity / 2).max(1)
    }

    /// Prefetch the contiguous run `first .. first + n` with chained reads.
    /// Missing stretches are read with one positioning cost each. Runs
    /// longer than [`BufferPool::max_prefetch`] are clamped rather than
    /// rejected. Returns how many pages of the (clamped) run are actually
    /// resident afterwards — pages whose read kept faulting past the retry
    /// budget are skipped, not fatal, and left to pin-time retry.
    pub fn prefetch_run(&self, first: PageId, n: usize) -> StorageResult<usize> {
        let n = n.min(self.max_prefetch());
        let mut staged = n;
        let mut inner = self.inner.lock();
        // Collect the missing stretch boundaries.
        let mut missing: Vec<PageId> = (0..n as PageId)
            .map(|i| first + i)
            .filter(|pid| !inner.frames.contains_key(pid))
            .collect();
        if missing.is_empty() {
            return Ok(n);
        }
        while inner.frames.len() + missing.len() > self.capacity {
            self.evict_one(&mut inner)?;
        }
        let mut disk = self.disk.lock();
        let inner = &mut *inner;
        let mut loaded: Vec<(PageId, PageBuf)> = Vec::new();
        while !missing.is_empty() {
            // Longest contiguous prefix of the missing list.
            let start = missing[0];
            let mut len = 1;
            while len < missing.len() && missing[len] == start + len as PageId {
                len += 1;
            }
            let chain = retry_disk(&mut disk, |d| {
                // An attempt that failed part-way loaded pages it must not
                // stage: its buffers go back to the spares.
                for (_, buf) in loaded.drain(..) {
                    inner.recycle(buf, self.capacity);
                }
                d.read_chain(start, len, |pid, bytes| {
                    let mut buf = inner.take_buffer();
                    buf.copy_from_slice(bytes);
                    loaded.push((pid, buf));
                })
            });
            if chain.is_err() {
                // A fault survived the chain-level retries. Prefetch is best
                // effort and must not abort the operation it serves: salvage
                // the stretch page by page, fail-fast, and leave any page
                // that still faults unstaged — its eventual pin re-reads it
                // under the pool's bounded retry.
                for (_, buf) in loaded.drain(..) {
                    inner.recycle(buf, self.capacity);
                }
                for pid in start..start + len as PageId {
                    let mut buf = inner.take_buffer();
                    match disk.read(pid, &mut buf) {
                        Ok(()) => loaded.push((pid, buf)),
                        Err(_) => {
                            inner.recycle(buf, self.capacity);
                            staged -= 1;
                        }
                    }
                }
            }
            for (pid, buf) in loaded.drain(..) {
                inner.install(pid, buf, 0, false, true);
            }
            missing.drain(..len);
        }
        Ok(staged)
    }

    /// Whether `pid` is currently resident.
    pub fn contains(&self, pid: PageId) -> bool {
        self.inner.lock().frames.contains_key(&pid)
    }

    /// Number of frames currently pinned (by any thread). An aborted run
    /// must leave this at zero — asserted by the fault-injection tests.
    pub fn pinned_frames(&self) -> usize {
        self.inner
            .lock()
            .frames
            .values()
            .filter(|f| f.pin.load(Ordering::Acquire) > 0)
            .count()
    }

    /// Write all dirty unpinned frames back to disk (frames stay resident
    /// and clean). Pinned frames are skipped: a concurrent arm may hold a
    /// write pin, and flushing under it would both block on its page lock
    /// and persist a half-mutated image.
    pub fn flush_all(&self) -> StorageResult<()> {
        self.write_back(&self.inner.lock(), None)
    }

    /// Drop every unpinned frame (flushing dirty ones). Used by benchmarks
    /// to start strategies from a cold cache.
    pub fn clear_cache(&self) -> StorageResult<()> {
        self.flush_all()?;
        let mut inner = self.inner.lock();
        inner
            .frames
            .retain(|_, f| f.pin.load(Ordering::Acquire) > 0);
        Ok(())
    }

    /// Simulate a crash: discard every frame *without* writing dirty pages
    /// back. After this, reads observe exactly what had reached the disk
    /// (checkpoint flushes plus whatever eviction happened to write out).
    /// Panics if any frame is still pinned — a crash cannot be simulated
    /// mid-operation.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        assert!(
            inner
                .frames
                .values()
                .all(|f| f.pin.load(Ordering::Acquire) == 0),
            "cannot simulate a crash with pinned pages"
        );
        inner.frames.clear();
    }
}

/// RAII read pin. Derefs to the page bytes.
pub struct PageRead {
    frame: Arc<Frame>,
    guard: ReadGuard,
}

impl PageRead {
    /// Trade this read pin for a write pin on the same frame, marking the
    /// page dirty. The frame stays pinned throughout, so it cannot be
    /// evicted in between; the read latch is released before the write
    /// latch is taken, so a caller that needs the bytes it just read to be
    /// unchanged must own the structure exclusively (`&mut self`), as every
    /// index handle here does.
    pub fn upgrade(self) -> PageWrite {
        let frame = self.frame.clone();
        frame.pin.fetch_add(1, Ordering::AcqRel);
        frame.dirty.store(true, Ordering::Release);
        drop(self);
        let guard = frame.data.write_arc();
        PageWrite { frame, guard }
    }
}

impl std::ops::Deref for PageRead {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl Drop for PageRead {
    fn drop(&mut self) {
        self.frame.pin.fetch_sub(1, Ordering::AcqRel);
    }
}

/// RAII write pin. Derefs mutably to the page bytes.
pub struct PageWrite {
    frame: Arc<Frame>,
    guard: WriteGuard,
}

impl std::ops::Deref for PageWrite {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl std::ops::DerefMut for PageWrite {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard
    }
}

impl Drop for PageWrite {
    fn drop(&mut self) {
        self.frame.pin.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::CostModel;

    fn small_pool(frames: usize, pages: usize) -> (Arc<BufferPool>, PageId) {
        let mut disk = SimDisk::new(CostModel::default());
        let first = disk.allocate_contiguous(pages, StructureId::Table);
        let pool = BufferPool::new(disk, frames);
        (pool, first)
    }

    #[test]
    fn read_through_and_cache_hit() {
        let (pool, first) = small_pool(4, 4);
        {
            let mut w = pool.pin_write(first).unwrap();
            w[0] = 42;
        }
        let r = pool.pin_read(first).unwrap();
        assert_eq!(r[0], 42);
        drop(r);
        let s = pool.pool_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (pool, first) = small_pool(2, 5);
        {
            let mut w = pool.pin_write(first).unwrap();
            w[7] = 9;
        }
        // Touch enough other pages to force eviction of `first`.
        for i in 1..5 {
            let _ = pool.pin_read(first + i).unwrap();
        }
        assert!(!pool.contains(first));
        let r = pool.pin_read(first).unwrap();
        assert_eq!(r[7], 9, "dirty page must survive eviction");
    }

    #[test]
    fn all_pinned_exhausts_pool() {
        let (pool, first) = small_pool(2, 3);
        let _a = pool.pin_read(first).unwrap();
        let _b = pool.pin_read(first + 1).unwrap();
        assert!(matches!(
            pool.pin_read(first + 2),
            Err(StorageError::BufferExhausted)
        ));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (pool, first) = small_pool(2, 3);
        let _ = pool.pin_read(first).unwrap();
        let _ = pool.pin_read(first + 1).unwrap();
        let _ = pool.pin_read(first).unwrap(); // page0 now most recent
        let _ = pool.pin_read(first + 2).unwrap(); // must evict page1
        assert!(pool.contains(first));
        assert!(!pool.contains(first + 1));
    }

    #[test]
    fn prefetch_run_is_one_chained_read() {
        let (pool, first) = small_pool(16, 8);
        pool.reset_stats();
        assert_eq!(pool.prefetch_run(first, 8).unwrap(), 8);
        let d = pool.disk_stats();
        assert_eq!(d.random_reads, 1);
        assert_eq!(d.pages_read, 8);
        // First pins consume the staged frames: charged to `prefetched`,
        // not mistaken for warm cache hits.
        for i in 0..8 {
            let _ = pool.pin_read(first + i).unwrap();
        }
        let s = pool.pool_stats();
        assert_eq!(s.prefetched, 8);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 0);
        // A second round of pins finds the frames genuinely warm.
        for i in 0..8 {
            let _ = pool.pin_read(first + i).unwrap();
        }
        let s = pool.pool_stats();
        assert_eq!(s.prefetched, 8);
        assert_eq!(s.hits, 8);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn prefetch_skips_resident_pages() {
        let (pool, first) = small_pool(16, 8);
        let _ = pool.pin_read(first + 3).unwrap();
        pool.reset_stats();
        pool.prefetch_run(first, 8).unwrap();
        let d = pool.disk_stats();
        // Two stretches: [0..3) and [4..8) => two positioned reads, 7 pages.
        assert_eq!(d.random_reads, 2);
        assert_eq!(d.pages_read, 7);
    }

    #[test]
    fn oversized_prefetch_is_clamped_not_a_panic() {
        let (pool, first) = small_pool(8, 8);
        pool.reset_stats();
        // Asking for more than the pool can hold stages only max_prefetch
        // pages (here 4) instead of asserting.
        let staged = pool.prefetch_run(first, 64).unwrap();
        assert_eq!(staged, pool.max_prefetch());
        assert_eq!(pool.disk_stats().pages_read, staged as u64);
        for i in 0..staged {
            assert!(pool.contains(first + i as PageId));
        }
        assert!(!pool.contains(first + staged as PageId));
    }

    #[test]
    fn new_page_needs_no_disk_read() {
        let (pool, _) = small_pool(4, 1);
        pool.reset_stats();
        let (pid, mut w) = pool.new_page(StructureId::Table, 0).unwrap();
        w[0] = 1;
        drop(w);
        assert_eq!(pool.disk_stats().pages_read, 0);
        let r = pool.pin_read(pid).unwrap();
        assert_eq!(r[0], 1);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let (pool, first) = small_pool(4, 2);
        {
            let mut w = pool.pin_write(first).unwrap();
            w[0] = 5;
        }
        pool.flush_all().unwrap();
        // Read the raw disk directly: flushed bytes must be there.
        let byte = pool.with_disk(|d| {
            let mut buf = [0u8; PAGE_SIZE];
            d.read(first, &mut buf).unwrap();
            buf[0]
        });
        assert_eq!(byte, 5);
        assert!(pool.contains(first));
    }

    #[test]
    fn clear_cache_empties_unpinned() {
        let (pool, first) = small_pool(4, 3);
        let _ = pool.pin_read(first).unwrap();
        let held = pool.pin_read(first + 1).unwrap();
        pool.clear_cache().unwrap();
        assert!(!pool.contains(first));
        assert!(pool.contains(first + 1));
        drop(held);
    }

    #[test]
    fn transient_fault_is_ridden_out_by_bounded_retry() {
        use crate::fault::{FaultPlan, FaultSpec};
        let (pool, first) = small_pool(4, 4);
        {
            let mut w = pool.pin_write(first).unwrap();
            w[0] = 77;
        }
        pool.clear_cache().unwrap();
        pool.reset_stats();
        pool.with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(first).transient(2)))
        });
        let r = pool.pin_read(first).unwrap();
        assert_eq!(r[0], 77, "the retried read sees the real content");
        drop(r);
        let s = pool.disk_stats();
        assert_eq!(s.retries, 2, "two backoffs before the fault healed");
        // Backoff 1 ms + 2 ms on top of the one successful positioned read.
        let io = CostModel::default().positioning_ms() + CostModel::default().transfer_ms;
        assert!((s.sim_ms - (io + 3.0)).abs() < 1e-9, "sim_ms {}", s.sim_ms);
    }

    #[test]
    fn retry_exhaustion_surfaces_the_fault() {
        use crate::fault::{FaultPlan, FaultSpec};
        let (pool, first) = small_pool(4, 4);
        pool.with_disk(|d| {
            // One more failure than the pool's 3 retries allow.
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(first).transient(4)))
        });
        assert_eq!(
            pool.pin_read(first).err(),
            Some(StorageError::InjectedFault(first))
        );
        assert_eq!(pool.disk_stats().retries, 3, "retry bound respected");
        // The fault healed during the failed attempt's countdown; a fresh
        // pin now succeeds.
        let _ = pool.pin_read(first).unwrap();
    }

    #[test]
    fn torn_write_stays_final() {
        use crate::fault::{FaultPlan, FaultSpec};
        let (pool, first) = small_pool(4, 4);
        {
            let mut w = pool.pin_write(first).unwrap();
            w[0] = 42;
            w[PAGE_SIZE - 1] = 7; // tail-half change: lost in the tear
        }
        pool.with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_page(first).torn()))
        });
        pool.flush_all().unwrap();
        pool.clear_cache().unwrap();
        pool.reset_stats();
        assert_eq!(
            pool.pin_read(first).err(),
            Some(StorageError::ChecksumMismatch(first))
        );
        assert_eq!(pool.disk_stats().retries, 0, "a mismatch is not retried");
    }

    #[test]
    fn flush_all_skips_pinned_frames() {
        let (pool, first) = small_pool(4, 2);
        {
            let mut w = pool.pin_write(first + 1).unwrap();
            w[0] = 9;
        }
        let held = pool.pin_write(first).unwrap();
        pool.flush_all().unwrap();
        let flushed = pool.with_disk(|d| {
            let mut buf = [0u8; PAGE_SIZE];
            d.read(first + 1, &mut buf).unwrap();
            buf[0]
        });
        assert_eq!(flushed, 9, "unpinned dirty page flushed");
        drop(held);
        // The pinned page stayed dirty and flushes once unpinned.
        pool.reset_stats();
        pool.flush_all().unwrap();
        assert_eq!(pool.disk_stats().pages_written, 1);
    }

    /// Dirty `dirty` and read `clean` (offsets from `first`), then count
    /// what one `flush_all` costs.
    fn flush_stats(
        pool: &BufferPool,
        first: PageId,
        dirty: &[PageId],
        clean: impl IntoIterator<Item = PageId>,
    ) -> (DiskStats, PoolStats) {
        for &i in dirty {
            pool.pin_write(first + i).unwrap()[0] = 1 + i as u8;
        }
        for i in clean {
            let _ = pool.pin_read(first + i).unwrap();
        }
        pool.reset_stats();
        pool.flush_all().unwrap();
        (pool.disk_stats(), pool.pool_stats())
    }

    fn write_accesses(d: &DiskStats) -> u64 {
        d.random_writes + d.sequential_writes
    }

    #[test]
    fn write_behind_bridges_resident_clean_gaps() {
        let (pool, first) = small_pool(64, 64);
        let (d, s) = flush_stats(&pool, first, &[0, 3, 6], [1, 2, 4, 5]);
        assert_eq!(write_accesses(&d), 1, "{d:?}");
        assert_eq!(d.pages_written, 7, "the gaps are real writes");
        assert_eq!(s.writebacks, 3, "only the dirty pages are write-backs");
        // Every frame is clean now: nothing is left to write.
        pool.reset_stats();
        pool.flush_all().unwrap();
        assert_eq!(pool.disk_stats().pages_written, 0);
        // The bridged rewrites changed no byte.
        pool.clear_cache().unwrap();
        for i in 0..7u32 {
            let expect = if i % 3 == 0 { 1 + i as u8 } else { 0 };
            assert_eq!(pool.pin_read(first + i).unwrap()[0], expect, "page {i}");
        }
    }

    #[test]
    fn contiguous_dirty_run_flushes_in_one_access() {
        let (pool, first) = small_pool(16, 8);
        let (d, s) = flush_stats(&pool, first, &[0, 1, 2, 3, 4, 5, 6, 7], []);
        assert_eq!(write_accesses(&d), 1, "{d:?}");
        assert_eq!((d.pages_written, s.writebacks), (8, 8));
    }

    #[test]
    fn absent_pinned_or_distant_gap_splits_the_chain() {
        // Page 1 was never read: nothing to bridge with.
        let (pool, first) = small_pool(64, 64);
        let (d, _) = flush_stats(&pool, first, &[0, 2], []);
        assert_eq!((write_accesses(&d), d.pages_written), (2, 2), "absent");

        // Page 1 is resident and clean but pinned — the state of a frame
        // whose writer has not raised the dirty flag yet.
        let (pool, first) = small_pool(64, 64);
        let held = pool.pin_read(first + 1).unwrap();
        let (d, _) = flush_stats(&pool, first, &[0, 2], []);
        assert_eq!((write_accesses(&d), d.pages_written), (2, 2), "pinned");
        drop(held);

        // A gap of exactly the breakeven is bridged, one page more is not.
        let gap = pool.breakeven_pages();
        assert_eq!(gap, 30);
        let (pool, first) = small_pool(64, 64);
        let (d, s) = flush_stats(&pool, first, &[0, gap + 1], 1..=gap);
        assert_eq!(
            (write_accesses(&d), d.pages_written),
            (1, 32),
            "at breakeven"
        );
        assert_eq!(s.writebacks, 2);
        let (pool, first) = small_pool(64, 64);
        let (d, _) = flush_stats(&pool, first, &[0, gap + 2], 1..=gap + 1);
        assert_eq!(
            (write_accesses(&d), d.pages_written),
            (2, 2),
            "past breakeven"
        );
    }

    #[test]
    fn transfer_only_disk_bridges_nothing() {
        let mut disk = SimDisk::new(CostModel::flat(0.4));
        let first = disk.allocate_contiguous(8, StructureId::Table);
        let pool = BufferPool::new(disk, 8);
        assert_eq!(pool.breakeven_pages(), 0);
        let (d, _) = flush_stats(&pool, first, &[0, 2], [1]);
        assert_eq!(
            d.pages_written, 2,
            "with positioning free, a gap page is pure cost"
        );
    }

    #[test]
    fn retried_chain_cleans_every_frame_exactly_once() {
        use crate::fault::{FaultPlan, FaultSpec};
        let (pool, first) = small_pool(16, 8);
        pool.with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_page(first + 3).transient(2)))
        });
        let (d, s) = flush_stats(&pool, first, &[0, 2, 4], [1, 3]);
        assert_eq!(d.retries, 2);
        assert_eq!(d.pages_written, 5, "the failed attempts moved nothing");
        assert_eq!(s.writebacks, 3);
        pool.reset_stats();
        pool.flush_all().unwrap();
        assert_eq!(pool.disk_stats().pages_written, 0, "no frame stayed dirty");
    }

    #[test]
    fn tear_on_a_bridged_clean_page_is_silent() {
        use crate::fault::{FaultPlan, FaultSpec};
        let (pool, first) = small_pool(16, 8);
        pool.pin_write(first + 1).unwrap().fill(0xAB);
        pool.flush_all().unwrap();
        for i in [0, 2] {
            pool.pin_write(first + i).unwrap()[0] = 1;
        }
        let next = pool.with_disk(|d| d.accesses()) + 1;
        pool.with_disk(|d| {
            d.set_fault_plan(
                FaultPlan::new().inject(FaultSpec::write_at_access_page(next, 1).torn()),
            )
        });
        pool.reset_stats();
        pool.flush_all().unwrap();
        assert_eq!(pool.disk_stats().pages_written, 3, "page 1 was bridged");
        pool.with_disk(|d| {
            assert_eq!(d.fault_plan_landed(), Some((next, 1)), "and torn");
            // The tail the tear kept is the tail the write carried.
            assert!(d.corrupt_pages().is_empty());
            assert_eq!(d.peek(first + 1).unwrap(), &[0xAB; PAGE_SIZE]);
        });
    }

    /// First byte of `pid`'s platter image.
    fn on_platter(pool: &BufferPool, pid: PageId) -> u8 {
        pool.with_disk(|d| d.peek(pid).unwrap()[0])
    }

    #[test]
    fn a_page_dirtied_again_waits_for_its_own_eviction() {
        let (pool, first) = small_pool(3, 64);
        let hot = first;
        pool.pin_write(hot).unwrap()[0] = 1;
        pool.flush_all().unwrap();
        // Dirty `hot` again, then evict scattered cold dirty pages around
        // it, touching it between evictions so it is never the victim.
        let scatter = |pool: &BufferPool, from: PageId| {
            pool.reset_stats();
            for i in 0..6 {
                pool.pin_write(first + from + 10 * i).unwrap()[0] = 1;
                drop(pool.pin_read(hot).unwrap());
            }
            assert!(pool.disk_stats().pages_written >= 3, "the scatter left");
        };
        pool.pin_write(hot).unwrap()[0] = 2;
        scatter(&pool, 10);
        assert_eq!(on_platter(&pool, hot), 1, "the hot page waited");
        pool.flush_all().unwrap();
        assert_eq!(on_platter(&pool, hot), 2, "flush_all writes it");

        pool.pin_write(hot).unwrap()[0] = 3;
        scatter(&pool, 11);
        assert_eq!(on_platter(&pool, hot), 2, "the hot page waited again");
        // Two other pins make `hot` the least recent; a third evicts it.
        for i in 1..=3 {
            drop(pool.pin_read(first + i).unwrap());
        }
        assert!(!pool.contains(hot));
        assert_eq!(on_platter(&pool, hot), 3, "the victim is always written");
    }

    #[test]
    fn a_chain_with_a_cold_page_is_written_whole() {
        // Page 0 hot and dirty, page 1 resident and clean, page 2 dirty
        // (cold when `cold_neighbour`), page 40 the dirty victim.
        let evict = |cold_neighbour: bool| {
            let (pool, first) = small_pool(5, 64);
            pool.pin_write(first + 40).unwrap()[0] = 1;
            pool.pin_write(first).unwrap()[0] = 1;
            if !cold_neighbour {
                pool.pin_write(first + 2).unwrap()[0] = 1;
            }
            pool.flush_all().unwrap();
            pool.pin_write(first + 40).unwrap()[0] = 2;
            pool.pin_write(first).unwrap()[0] = 2;
            drop(pool.pin_read(first + 1).unwrap());
            if cold_neighbour {
                pool.pin_write(first + 2).unwrap()[0] = 2;
            } else {
                drop(pool.pin_read(first + 2).unwrap());
            }
            drop(pool.pin_read(first + 50).unwrap());
            pool.reset_stats();
            drop(pool.pin_read(first + 51).unwrap());
            assert!(!pool.contains(first + 40), "page 40 was the victim");
            let d = pool.disk_stats();
            (
                write_accesses(&d),
                d.pages_written,
                on_platter(&pool, first),
            )
        };
        assert_eq!(evict(true), (2, 4, 2), "0..=2 in one chain, then 40");
        assert_eq!(evict(false), (1, 1, 1), "only the victim");
    }

    #[test]
    fn a_bridge_leaves_with_its_chain() {
        // Stage pages 0..=2 and dirty both ends: page 1 is the clean bridge
        // of the chain 0..=2 and the least recent frame. Reads of pages
        // 10..=13 fill the pool and evict it; then a flush writes whatever
        // is left.
        let evict_bridge = |pin_the_bridge: bool| {
            let (pool, first) = small_pool(6, 64);
            assert_eq!(pool.prefetch_run(first, 3).unwrap(), 3);
            if pin_the_bridge {
                drop(pool.pin_read(first + 1).unwrap());
            }
            for i in [0, 2] {
                pool.pin_write(first + i).unwrap()[0] = 1;
            }
            pool.reset_stats();
            for i in 10..=13 {
                drop(pool.pin_read(first + i).unwrap());
            }
            assert!(!pool.contains(first + 1), "page 1 was the victim");
            assert!(pool.contains(first) && pool.contains(first + 2));
            pool.flush_all().unwrap();
            let d = pool.disk_stats();
            (
                write_accesses(&d),
                d.pages_written,
                pool.pool_stats().writebacks,
            )
        };
        assert_eq!(evict_bridge(false), (1, 3, 2), "0..=2 left as one chain");
        // A frame that was pinned is no staged bridge: it leaves alone, and
        // the chain splits as before.
        assert_eq!(evict_bridge(true), (2, 2, 2), "0 and 2 apart");
    }

    #[test]
    fn an_evicting_chain_ends_at_the_head() {
        // Page 0 dirty, then read-ahead stages 1..=2: the head rests at 3.
        // Staging 3..=4 evicts page 0.
        let evict = |pin_the_staged: bool| {
            let (pool, first) = small_pool(4, 64);
            pool.pin_write(first).unwrap()[0] = 1;
            assert_eq!(pool.prefetch_run(first + 1, 2).unwrap(), 2);
            assert_eq!(pool.with_disk(|d| d.head()), Some(first + 3));
            if pin_the_staged {
                for i in 1..=2 {
                    drop(pool.pin_read(first + i).unwrap());
                }
            }
            pool.reset_stats();
            assert_eq!(pool.prefetch_run(first + 3, 2).unwrap(), 2);
            assert!(!pool.contains(first), "page 0 was the victim");
            assert_eq!(pool.pool_stats().writebacks, 1, "one dirty page");
            let d = pool.disk_stats();
            (
                (write_accesses(&d), d.pages_written),
                (d.random_reads, d.sequential_reads),
                pool,
                first,
            )
        };
        // The chain is carried over the staged 1..=2 to the head, so the
        // read that follows continues there.
        let (writes, reads, pool, first) = evict(false);
        assert_eq!((writes, reads), ((1, 3), (0, 1)));
        // No read follows a flush: its chain ends at its last dirty page,
        // not at the head (5) past staged page 4.
        pool.pin_write(first + 3).unwrap()[0] = 1;
        pool.reset_stats();
        pool.flush_all().unwrap();
        assert_eq!(pool.disk_stats().pages_written, 1);
        assert_eq!(on_platter(&pool, first), 1);
        assert_eq!(on_platter(&pool, first + 3), 1);
        // Pages pinned since they were staged do not mark where the next
        // read starts: the chain ends at page 0.
        let (writes, reads, _, _) = evict(true);
        assert_eq!((writes, reads), ((1, 1), (1, 0)));
    }

    #[test]
    fn flush_all_writes_hot_pages_before_a_crash() {
        let (pool, first) = small_pool(4, 4);
        pool.pin_write(first).unwrap()[0] = 1;
        pool.flush_all().unwrap();
        pool.pin_write(first).unwrap()[0] = 2;
        let (born, mut w) = pool.new_page(StructureId::Table, 0).unwrap();
        w[0] = 3;
        drop(w);
        pool.flush_all().unwrap();
        pool.crash();
        assert_eq!(pool.pin_read(first).unwrap()[0], 2, "re-dirtied page");
        assert_eq!(pool.pin_read(born).unwrap()[0], 3, "page born in the pool");
    }

    #[test]
    fn recycled_page_never_serves_a_stale_frame() {
        let (pool, first) = small_pool(8, 4);
        {
            let mut w = pool.pin_write(first + 1).unwrap();
            w[0] = 0xEE;
        }
        pool.flush_all().unwrap();
        assert!(pool.contains(first + 1), "frame still cached");
        pool.free_page(first + 1);
        assert!(pool.reclaim_page(first + 1).unwrap());
        let pid = pool.allocate(StructureId::Index(5), 0);
        assert_eq!(pid, first + 1, "reclaimed page is recycled");
        let r = pool.pin_read(pid).unwrap();
        assert_eq!(r[0], 0, "the new owner sees the zeroed page, not 0xEE");
    }

    #[test]
    fn reclaim_skips_pinned_frames() {
        let (pool, first) = small_pool(8, 4);
        let held = pool.pin_read(first).unwrap();
        pool.free_page(first);
        assert!(
            !pool.reclaim_page(first).unwrap(),
            "pinned: left quarantined"
        );
        assert_eq!(pool.reclaimable_pages(), vec![first]);
        drop(held);
        assert!(pool.reclaim_page(first).unwrap());
        assert_eq!(pool.n_reusable(), 1);
        assert!(pool.reclaimable_pages().is_empty());
    }

    /// A pool of `frames` over `pages` pages, page `i` filled with
    /// `page_byte(i)` on disk, nothing resident.
    fn filled_pool(frames: usize, pages: u32) -> (Arc<BufferPool>, PageId) {
        let (pool, first) = small_pool(frames, pages as usize);
        for i in 0..pages {
            pool.pin_write(first + i).unwrap().fill(page_byte(i));
        }
        pool.clear_cache().unwrap();
        (pool, first)
    }

    fn page_byte(i: u32) -> u8 {
        0x10 + i as u8
    }

    /// Every page reads back its own bytes and nothing stays pinned.
    fn assert_own_bytes(pool: &BufferPool, first: PageId, pages: u32) {
        for i in 0..pages {
            let r = pool.pin_read(first + i).unwrap();
            assert!(r.iter().all(|&b| b == page_byte(i)), "page {i}");
        }
        assert_eq!(pool.pinned_frames(), 0);
    }

    #[test]
    fn a_failed_pin_read_never_installs_a_recycled_buffer() {
        use crate::fault::{FaultPlan, FaultSpec};
        let (pool, first) = filled_pool(4, 12);
        // Cycle eight pages through four frames: every spare buffer now
        // holds some earlier page's bytes.
        for i in 0..8 {
            let _ = pool.pin_read(first + i).unwrap();
        }
        let bad = first + 9;
        pool.with_disk(|d| d.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(bad))));
        assert_eq!(
            pool.pin_read(bad).err(),
            Some(StorageError::InjectedFault(bad))
        );
        assert!(!pool.contains(bad), "the failed load left no frame");
        assert_eq!(
            pool.pin_write(bad).err(),
            Some(StorageError::InjectedFault(bad))
        );
        pool.with_disk(|d| d.clear_fault_plan());
        assert_own_bytes(&pool, first, 12);
    }

    #[test]
    fn prefetch_salvage_never_stages_a_recycled_buffer() {
        use crate::fault::{FaultPlan, FaultSpec};
        let (pool, first) = filled_pool(8, 16);
        for i in 0..8 {
            let _ = pool.pin_read(first + i).unwrap();
        }
        // A fault that outlives the chain's retries: the stretch is
        // salvaged page by page and the faulted page stays unstaged.
        let bad = first + 10;
        pool.with_disk(|d| d.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(bad))));
        assert_eq!(pool.prefetch_run(first + 8, 4).unwrap(), 3);
        assert!(!pool.contains(bad));
        for i in [8, 9, 11] {
            assert!(pool.contains(first + i), "page {i} staged");
        }
        pool.with_disk(|d| d.clear_fault_plan());
        assert_own_bytes(&pool, first, 16);
    }

    #[test]
    fn a_torn_page_mid_chain_stages_only_what_verified() {
        use crate::fault::{FaultPlan, FaultSpec};
        let (pool, first) = filled_pool(8, 16);
        // Tear page 11's rewrite: the chain over 8..12 delivers 8..10 to
        // the pool before the checksum of 11 fails it.
        let torn = first + 11;
        pool.with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_page(torn).torn()))
        });
        pool.pin_write(torn).unwrap().fill(0xEE);
        pool.clear_cache().unwrap();
        for i in 0..8 {
            let _ = pool.pin_read(first + i).unwrap();
        }
        assert_eq!(pool.prefetch_run(first + 8, 4).unwrap(), 3);
        assert!(!pool.contains(torn), "a torn page is never staged");
        assert_eq!(
            pool.pin_read(torn).err(),
            Some(StorageError::ChecksumMismatch(torn))
        );
        for i in 0..11 {
            let r = pool.pin_read(first + i).unwrap();
            assert!(r.iter().all(|&b| b == page_byte(i)), "page {i}");
        }
        assert_eq!(pool.pinned_frames(), 0);
    }

    /// A fixed pseudo-random stream of pins (some held across later
    /// operations), prefetches and flushes against a pool under eviction.
    /// Returns a digest of the resident set and the pinned-frame count
    /// after every operation, and the disk's counters at the end.
    fn scripted_stream() -> (u64, usize, DiskStats) {
        let (pool, first) = small_pool(16, 64);
        let mut held: std::collections::VecDeque<(PageId, PageRead)> = Default::default();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut max_pinned = 0;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pid = first + (x % 64) as PageId;
            let is_held = held.iter().any(|(p, _)| *p == pid);
            match (x >> 8) % 16 {
                0..=6 => drop(pool.pin_read(pid).unwrap()),
                // A write latch under our own read pin would wait forever.
                7..=10 if !is_held => {
                    pool.pin_write(pid).unwrap()[(x >> 20) as usize % PAGE_SIZE] ^= 1
                }
                7..=10 => {}
                11 | 12 => {
                    held.push_back((pid, pool.pin_read(pid).unwrap()));
                    if held.len() > 3 {
                        held.pop_front();
                    }
                }
                13 | 14 => {
                    let _ = pool.prefetch_run(pid, 1 + (x >> 24) as usize % 8).unwrap();
                }
                _ => pool.flush_all().unwrap(),
            }
            let resident = (0..64)
                .filter(|&i| pool.contains(first + i))
                .fold(0u64, |m, i| m | 1 << i);
            max_pinned = max_pinned.max(pool.pinned_frames());
            for word in [resident, pool.pinned_frames() as u64] {
                digest = (digest ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
        drop(held);
        pool.flush_all().unwrap();
        (digest, max_pinned, pool.disk_stats())
    }

    #[test]
    fn frame_map_order_reaches_no_clock() {
        let (digest, max_pinned, d) = scripted_stream();
        // Eviction takes the unique least-recent tick and write-back sorts
        // by page id, so the frame map's hasher cannot matter: the resident
        // sets and pin counts are the ones the same stream produced over a
        // SipHash-keyed map, and before hot pages waited — that rule moves
        // when a page reaches the platter, never which pages stay resident,
        // and so do the rules that keep write-behind chains whole. The disk
        // counters are those rules' write-behind's.
        assert_eq!(
            digest, 0xbead_0a85_741b_9841,
            "resident sets and pin counts"
        );
        assert_eq!(max_pinned, 3);
        let chains = (
            d.random_reads,
            d.sequential_reads,
            d.random_writes,
            d.sequential_writes,
        );
        assert_eq!(chains, (2265, 71, 655, 0));
        assert_eq!((d.pages_read, d.pages_written), (3131, 726));
        assert!((d.sim_ms - 37_079.2).abs() < 1e-6, "{d:?}");
    }

    #[test]
    fn concurrent_pins_are_safe() {
        let (pool, first) = small_pool(8, 8);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..100u32 {
                        let pid = first + ((t + i) % 8);
                        let mut w = pool.pin_write(pid).unwrap();
                        w[0] = w[0].wrapping_add(1);
                    }
                });
            }
        });
        let total: u32 = (0..8)
            .map(|i| pool.pin_read(first + i).unwrap()[0] as u32)
            .sum();
        assert_eq!(total, 400); // 50 increments per page, no u8 wraparound
    }

    #[test]
    fn a_reader_parked_behind_a_write_pin_wakes_when_it_drops() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        use std::time::Duration;
        let (pool, first) = small_pool(4, 4);
        let mut w = pool.pin_write(first).unwrap();
        w[0] = 5;
        let (tx, rx) = channel();
        let reader = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let r = pool.pin_read(first).unwrap();
                tx.send(r[0]).unwrap();
            })
        };
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout),
            "a read pin passed a held write pin"
        );
        drop(w);
        let seen = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the parked reader was never woken");
        assert_eq!(seen, 5);
        reader.join().unwrap();
    }
}
