//! Heap file: the base table storage (the paper's relation `R`).
//!
//! Records live in slotted pages; a record's [`Rid`] is its physical
//! address and stays valid until that record is deleted. Pages are kept in
//! ascending page-id order (a recycled page is spliced back in at its id,
//! not appended), so iterating `pages` equals ascending-RID order — the
//! property the vertical sort/merge plan exploits ("relation R is clustered
//! (i.e., sorted) on RID values").
//!
//! Two bulk-delete primitives live here because they are pure storage
//! operations: a merge of a *sorted* RID list against the page sequence
//! (used by the Fig. 3 sort/merge plan) and a full scan probing a RID hash
//! set (used by the Fig. 4 hash plan).

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::disk::PageId;
use crate::error::{StorageError, StorageResult};
use crate::fsm::FreeSpaceMap;
use crate::owner::StructureId;
use crate::readahead::{ReadAhead, READ_AHEAD_WINDOW};
use crate::rid::Rid;
use crate::slotted::SlottedPage;

/// A heap file of records.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    /// Pages in ascending-id (= RID, = scan) order.
    pages: Vec<PageId>,
    fsm: FreeSpaceMap,
    /// The page the last insert went to, where the next one starts looking.
    cursor: Option<PageId>,
    /// Exclusive end of the last chain the insert stream staged.
    staged_to: Option<PageId>,
    n_records: usize,
}

impl HeapFile {
    /// Create an empty heap file on `pool`.
    pub fn create(pool: Arc<BufferPool>) -> Self {
        HeapFile {
            pool,
            pages: Vec::new(),
            fsm: FreeSpaceMap::new(),
            cursor: None,
            staged_to: None,
            n_records: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.n_records
    }

    /// True if the heap holds no records.
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Number of pages ever allocated to this heap.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// The buffer pool this heap lives in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Page ids in scan order.
    pub fn page_ids(&self) -> &[PageId] {
        &self.pages
    }

    fn new_heap_page(&mut self) -> StorageResult<PageId> {
        let last = self.pages.last().copied().unwrap_or(0);
        let (pid, mut w) = self.pool.new_page(StructureId::Table, last)?;
        SlottedPage::init(&mut w[..]);
        let free = SlottedPage::new(&mut w[..]).usable_free();
        drop(w);
        // The allocator prefers a reclaimed page after the current tail but
        // may recycle a lower one; splice it in at its sorted position so
        // the page list stays in ascending-RID order.
        let idx = self.pages.partition_point(|&p| p < pid);
        self.pages.insert(idx, pid);
        self.fsm.update(pid, free);
        Ok(pid)
    }

    /// Insert a record, returning its RID.
    ///
    /// Placement is next-fit ([`FreeSpaceMap::next_fit`]): the record goes
    /// to the first page at or after the insert cursor — the page the
    /// previous insert went to — with room, wrapping to the lowest page
    /// with room; a page is allocated only when no page has any. A run of
    /// inserts therefore fills the heap's free space once, in address
    /// order. When the cursor moves onto a page that is not resident, the
    /// pages with room among the next [`READ_AHEAD_WINDOW`] are staged in
    /// one chained read (gaps bridged as [`ReadAhead`] bridges them), so
    /// the inserts that follow hit the pool, and the clean bridged frames
    /// let write-behind chain the dirtied pages out together. The chain
    /// starts where the previous staging's ended when the heap pages in
    /// between are full and few enough to bridge, so the windows read as
    /// one sweep.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<Rid> {
        let needed = record.len() + 4; // record + slot entry
        let pid = match self.fsm.next_fit(self.cursor.unwrap_or(0), needed) {
            Some(p) => p,
            None => self.new_heap_page()?,
        };
        if self.cursor != Some(pid) {
            self.cursor = Some(pid);
            if !self.pool.contains(pid) {
                self.stage_inserts_from(pid, needed);
            }
        }
        let mut w = self.pool.pin_write(pid)?;
        let mut page = SlottedPage::new(&mut w[..]);
        let slot = page.insert(record)?;
        let free = page.usable_free();
        drop(w);
        self.fsm.update(pid, free);
        self.n_records += 1;
        Ok(Rid::new(pid, slot))
    }

    /// Best effort: stage `pid` and every later page with room for
    /// `needed` bytes inside the read-ahead window starting at `pid`,
    /// continuing the previous staging's chain when every page between its
    /// end and `pid` is the heap's.
    fn stage_inserts_from(&mut self, pid: PageId, needed: usize) {
        let end = pid.saturating_add(READ_AHEAD_WINDOW as PageId);
        let rank = |p: PageId| self.pages.partition_point(|&q| q < p);
        let mut ra = ReadAhead::new(self.pool.clone());
        if let Some(to) = self
            .staged_to
            .filter(|&to| to <= pid && rank(pid) - rank(to) == (pid - to) as usize)
        {
            ra.continue_from(to);
        }
        ra.plan(
            std::iter::successors(Some(pid), |&p| self.fsm.first_fit_from(p + 1, needed))
                .take_while(|&p| p < end),
        );
        ra.before_pin(pid);
        self.staged_to = ra.chain_end();
    }

    /// Read the record at `rid`.
    pub fn get(&self, rid: Rid) -> StorageResult<Vec<u8>> {
        let r = self.pool.pin_read(rid.page)?;
        let bytes = crate::slotted::read::get(&r[..], rid.slot)
            .map_err(|e| Self::rebind_rid(e, rid))?
            .to_vec();
        Ok(bytes)
    }

    /// Read the records at `rids` (sorted ascending), in that order: `get`
    /// mapped over the list, as one read-ahead pass over the pages holding
    /// them instead of one positioned read per record.
    pub fn get_sorted(&self, rids: &[Rid]) -> StorageResult<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(rids.len());
        walk_sorted(&self.pool, rids, BufferPool::pin_read, |_, r, on_page| {
            for &rid in on_page {
                let bytes = crate::slotted::read::get(&r[..], rid.slot)
                    .map_err(|e| Self::rebind_rid(e, rid))?;
                out.push(bytes.to_vec());
            }
            Ok(())
        })?;
        Ok(out)
    }

    fn rebind_rid(e: StorageError, rid: Rid) -> StorageError {
        match e {
            StorageError::SlotEmpty(_) => StorageError::SlotEmpty(rid),
            StorageError::SlotOutOfBounds(_) => StorageError::SlotOutOfBounds(rid),
            other => other,
        }
    }

    /// Delete the record at `rid`, returning its bytes.
    pub fn delete(&mut self, rid: Rid) -> StorageResult<Vec<u8>> {
        let mut w = self.pool.pin_write(rid.page)?;
        let mut page = SlottedPage::new(&mut w[..]);
        let bytes = page
            .delete(rid.slot)
            .map_err(|e| Self::rebind_rid(e, rid))?;
        let free = page.usable_free();
        drop(w);
        self.fsm.update(rid.page, free);
        self.n_records -= 1;
        Ok(bytes)
    }

    /// Sequential scan in RID order, using chained reads.
    ///
    /// The `Iterator` impl fuses-and-records on I/O failure; callers that
    /// must not lose records (index builds, consistency checks) check
    /// [`HeapScan::take_error`] after exhaustion, or use
    /// [`HeapFile::dump`] which does so for them.
    pub fn scan(&self) -> HeapScan {
        let mut ra = ReadAhead::new(self.pool.clone());
        ra.plan(self.pages.iter().copied());
        HeapScan {
            pool: self.pool.clone(),
            pages: self.pages.clone(),
            next_page: 0,
            current: VecDeque::new(),
            ra,
            error: None,
            fused: false,
        }
    }

    /// Scan the whole heap into a vector, propagating any I/O error
    /// (the loss-free counterpart of [`HeapFile::scan`]).
    pub fn dump(&self) -> StorageResult<Vec<(Rid, Vec<u8>)>> {
        let mut scan = self.scan();
        let out: Vec<(Rid, Vec<u8>)> = (&mut scan).collect();
        match scan.take_error() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Delete every RID in `rids` (which must be sorted ascending) in one
    /// sequential pass over the affected pages. Returns `(rid, bytes)` for
    /// each deleted record, in RID order.
    ///
    /// This is the table-side `⋈̄` of the paper's Fig. 3 plan: the sorted RID
    /// list is merged against the heap's physical order, so each affected
    /// page is pinned exactly once and pages are visited monotonically — the
    /// exact shape [`ReadAhead`] wants, so the whole victim-page sequence is
    /// planned up front and streamed in via chained reads.
    ///
    /// Lenient: a RID whose slot is already empty is skipped and not
    /// returned. Crash recovery *rolls the bulk delete forward* and re-runs
    /// a partially completed pass, which must tolerate records the
    /// pre-crash run already deleted and flushed.
    pub fn bulk_delete_sorted(&mut self, rids: &[Rid]) -> StorageResult<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::with_capacity(rids.len());
        walk_sorted(
            &self.pool,
            rids,
            BufferPool::pin_write,
            |pid, mut w, on_page| {
                let mut page = SlottedPage::new(&mut w[..]);
                for &rid in on_page {
                    if page.is_live(rid.slot) {
                        out.push((rid, page.delete(rid.slot)?));
                        self.n_records -= 1;
                    }
                }
                let free = page.usable_free();
                drop(w);
                self.fsm.update(pid, free);
                Ok(())
            },
        )?;
        Ok(out)
    }

    /// Scan the whole heap, deleting every record whose RID is in `victims`.
    /// Returns deleted `(rid, bytes)` in RID order. This is the hash-probe
    /// table `⋈̄` of the paper's Fig. 4 plan.
    pub fn bulk_delete_probe(
        &mut self,
        victims: &HashSet<Rid>,
    ) -> StorageResult<Vec<(Rid, Vec<u8>)>> {
        let mut out = Vec::with_capacity(victims.len());
        let pages = self.pages.clone();
        let mut ra = ReadAhead::new(self.pool.clone());
        ra.plan(pages.iter().copied());
        for &pid in &pages {
            // Pause point: between pages, with no pin held.
            crate::pacer::checkpoint()?;
            ra.before_pin(pid);
            let mut w = self.pool.pin_write(pid)?;
            let mut page = SlottedPage::new(&mut w[..]);
            let mut free = None;
            for slot in 0..page.slot_count() as u16 {
                let rid = Rid::new(pid, slot);
                if page.is_live(slot) && victims.contains(&rid) {
                    let bytes = page.delete(slot)?;
                    out.push((rid, bytes));
                    self.n_records -= 1;
                    free = Some(page.usable_free());
                }
            }
            if let Some(f) = free {
                drop(w);
                self.fsm.update(pid, f);
            }
        }
        Ok(out)
    }

    /// The FSM's entries, `(page, free bytes)` in page order: with
    /// [`HeapFile::len`], everything about the heap that lives only in
    /// memory and that a restart loses.
    pub fn fsm_entries(&self) -> Vec<(PageId, usize)> {
        self.pages
            .iter()
            .filter_map(|&pid| self.fsm.free_bytes(pid).map(|free| (pid, free)))
            .collect()
    }

    /// Replace the record count and the FSM with values known from
    /// elsewhere — crash recovery derives them from the log — reading no
    /// page.
    pub fn restore_counters(&mut self, n_records: usize, fsm: &[(PageId, usize)]) {
        self.n_records = n_records;
        self.fsm = FreeSpaceMap::new();
        for &(pid, free) in fsm {
            self.fsm.update(pid, free);
        }
    }

    /// Recount live records and rebuild the FSM by scanning every page.
    /// Returns the live record count.
    pub fn recount(&mut self) -> StorageResult<usize> {
        let mut n = 0;
        let mut ra = ReadAhead::new(self.pool.clone());
        ra.plan(self.pages.iter().copied());
        for pos in 0..self.pages.len() {
            crate::pacer::checkpoint()?;
            let pid = self.pages[pos];
            ra.before_pin(pid);
            let r = self.pool.pin_read(pid)?;
            n += crate::slotted::read::live_records(&r[..]);
            let free = crate::slotted::read::usable_free(&r[..]);
            drop(r);
            self.fsm.update(pid, free);
        }
        self.n_records = n;
        Ok(n)
    }

    /// Scrub every heap page: compact and zero all bytes no live record
    /// covers (see [`SlottedPage::scrub`]). Deleted record images — the
    /// paper's delete only clears slot entries — are physically destroyed.
    /// One sequential write pass; returns `(pages visited, bytes zeroed)`.
    /// RIDs of live records are unchanged (slot numbers survive scrubbing).
    pub fn scrub(&mut self) -> StorageResult<(usize, usize)> {
        let mut zeroed = 0;
        for pos in 0..self.pages.len() {
            // Pause point: between pages, no pin held.
            crate::pacer::checkpoint()?;
            let pid = self.pages[pos];
            let mut w = self.pool.pin_write(pid)?;
            let mut page = SlottedPage::new(&mut w[..]);
            zeroed += page.scrub();
            let free = page.usable_free();
            drop(w);
            self.fsm.update(pid, free);
        }
        Ok((self.pages.len(), zeroed))
    }

    /// Free bytes the FSM records for `pid` (test/diagnostic hook).
    pub fn fsm_free(&self, pid: PageId) -> Option<usize> {
        self.fsm.free_bytes(pid)
    }

    /// Pages the FSM currently tracks, ascending. Audit hook: every entry
    /// must be a page of this heap — a freed page left in the FSM would let
    /// `next_fit` hand it out as an insert target after recycling.
    pub fn fsm_pages(&self) -> Vec<PageId> {
        self.fsm.pages()
    }

    /// Give every record-free page back to the disk allocator: the page
    /// leaves the scan order and the FSM (so [`FreeSpaceMap::next_fit`]
    /// can never offer a freed page as an insert target) and is
    /// catalog-freed for the maintenance daemon to zero and recycle.
    /// Returns the released ids, ascending. Paced: checkpoints between
    /// candidate pages with no pin held.
    pub fn release_empty_pages(&mut self) -> StorageResult<Vec<PageId>> {
        // A page whose records were all deleted has most of its bytes free
        // (only header and dead slot entries remain), so half a page is a
        // safe candidate filter; occupancy is then confirmed exactly.
        let candidates = self.fsm.pages_with_at_least(crate::disk::PAGE_SIZE / 2);
        let mut released = Vec::new();
        for pid in candidates {
            crate::pacer::checkpoint()?;
            let r = self.pool.pin_read(pid)?;
            let live = crate::slotted::read::live_records(&r[..]);
            drop(r);
            if live != 0 {
                continue;
            }
            let idx = self.pages.partition_point(|&p| p < pid);
            debug_assert_eq!(self.pages.get(idx), Some(&pid), "fsm page not in heap");
            self.pages.remove(idx);
            self.fsm.remove(pid);
            self.pool.free_page(pid);
            released.push(pid);
        }
        Ok(released)
    }

    /// Compare every page's FSM entry against its actual slotted-page
    /// occupancy, returning each mismatch instead of panicking (the audit
    /// harness folds these into its report).
    pub fn audit_fsm(&self) -> StorageResult<Vec<FsmMismatch>> {
        let mut out = Vec::new();
        for &pid in &self.pages {
            let actual = crate::slotted::read::usable_free(&self.pool.pin_read(pid)?[..]);
            let recorded = self.fsm.free_bytes(pid);
            if recorded != Some(actual) {
                out.push(FsmMismatch {
                    page: pid,
                    recorded,
                    actual,
                });
            }
        }
        Ok(out)
    }

    /// Verify FSM entries against actual page occupancy; returns the number
    /// of checked pages. Test/diagnostic hook (panics on mismatch; use
    /// [`HeapFile::audit_fsm`] for a structured result).
    pub fn verify_fsm(&self) -> StorageResult<usize> {
        let mismatches = self.audit_fsm()?;
        assert!(mismatches.is_empty(), "fsm mismatches: {mismatches:?}");
        Ok(self.pages.len())
    }
}

/// The heap's one sorted-RID page walk, under both [`HeapFile::get_sorted`]
/// and [`HeapFile::bulk_delete_sorted`]. The distinct pages of `rids`
/// (sorted ascending) are planned into a [`ReadAhead`]; each is then pinned
/// once with `pin`, right after `before_pin` staged it, and handed to
/// `visit` with the RIDs that fall on it. Pause point between pages, with
/// no pin held.
fn walk_sorted<G>(
    pool: &Arc<BufferPool>,
    rids: &[Rid],
    pin: impl Fn(&BufferPool, PageId) -> StorageResult<G>,
    mut visit: impl FnMut(PageId, G, &[Rid]) -> StorageResult<()>,
) -> StorageResult<()> {
    debug_assert!(rids.is_sorted(), "rid list not sorted");
    let by_page = || rids.chunk_by(|a, b| a.page == b.page);
    let mut ra = ReadAhead::new(pool.clone());
    ra.plan(by_page().map(|on_page| on_page[0].page));
    for on_page in by_page() {
        crate::pacer::checkpoint()?;
        let pid = on_page[0].page;
        ra.before_pin(pid);
        visit(pid, pin(pool, pid)?, on_page)?;
    }
    Ok(())
}

/// One FSM-vs-occupancy divergence found by [`HeapFile::audit_fsm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmMismatch {
    /// Page whose record diverges.
    pub page: PageId,
    /// Free bytes the FSM recorded (`None` = page untracked).
    pub recorded: Option<usize>,
    /// Free bytes the slotted page actually has.
    pub actual: usize,
}

/// Iterator over `(Rid, record bytes)` in RID order.
///
/// Pinning a page can fail (pool exhaustion, I/O error); an `Iterator`
/// cannot return that through its items, and silently skipping the page
/// would hand an incomplete scan to index rebuilds. The iterator therefore
/// *fuses and records*: on the first pin failure the scan permanently ends
/// and the error is held for [`HeapScan::take_error`]. Callers that need
/// every record must check it after exhaustion (or use [`HeapFile::dump`]).
pub struct HeapScan {
    pool: Arc<BufferPool>,
    pages: Vec<PageId>,
    next_page: usize,
    current: VecDeque<(Rid, Vec<u8>)>,
    ra: ReadAhead,
    error: Option<StorageError>,
    /// Set when an error ended the scan; stays set after `take_error` so
    /// the scan never resumes past a known-lost page.
    fused: bool,
}

impl HeapScan {
    /// The error that fused the scan, if any.
    pub fn error(&self) -> Option<&StorageError> {
        self.error.as_ref()
    }

    /// Take the error that fused the scan. `Some(_)` means the scan ended
    /// early and at least one page's records were never yielded.
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }
}

impl Iterator for HeapScan {
    type Item = (Rid, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.current.pop_front() {
                return Some(item);
            }
            if self.fused || self.next_page >= self.pages.len() {
                return None;
            }
            // Pause point between pages; a hook's error (a cancel) fuses
            // the scan exactly like a pin failure would.
            if let Err(e) = crate::pacer::checkpoint() {
                self.error = Some(e);
                self.fused = true;
                return None;
            }
            let pid = self.pages[self.next_page];
            self.next_page += 1;
            self.ra.before_pin(pid);
            match self.pool.pin_read(pid) {
                Ok(r) => {
                    for slot in 0..crate::slotted::read::slot_count(&r[..]) as u16 {
                        if crate::slotted::read::is_live(&r[..], slot) {
                            let bytes = crate::slotted::read::get(&r[..], slot)
                                .expect("live slot")
                                .to_vec();
                            self.current.push_back((Rid::new(pid, slot), bytes));
                        }
                    }
                }
                Err(e) => {
                    self.error = Some(e);
                    self.fused = true;
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{CostModel, SimDisk};
    use crate::fault::{FaultPlan, FaultSpec};

    fn heap(frames: usize) -> HeapFile {
        let pool = BufferPool::new(SimDisk::new(CostModel::default()), frames);
        HeapFile::create(pool)
    }

    fn record(tag: u64) -> Vec<u8> {
        let mut r = vec![0u8; 512];
        r[..8].copy_from_slice(&tag.to_le_bytes());
        r
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut h = heap(8);
        let rid = h.insert(&record(42)).unwrap();
        assert_eq!(h.get(rid).unwrap(), record(42));
        assert_eq!(h.delete(rid).unwrap(), record(42));
        assert!(h.get(rid).is_err());
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn rids_are_stable_across_other_deletes() {
        let mut h = heap(8);
        let rids: Vec<Rid> = (0..20).map(|i| h.insert(&record(i)).unwrap()).collect();
        h.delete(rids[3]).unwrap();
        h.delete(rids[11]).unwrap();
        for (i, &rid) in rids.iter().enumerate() {
            if i == 3 || i == 11 {
                continue;
            }
            assert_eq!(h.get(rid).unwrap(), record(i as u64));
        }
    }

    #[test]
    fn scan_returns_all_records_in_rid_order() {
        let mut h = heap(8);
        let n = 100u64;
        for i in 0..n {
            h.insert(&record(i)).unwrap();
        }
        let scanned: Vec<(Rid, Vec<u8>)> = h.scan().collect();
        assert_eq!(scanned.len(), n as usize);
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, (_, bytes)) in scanned.iter().enumerate() {
            assert_eq!(bytes[..8], (i as u64).to_le_bytes());
        }
    }

    #[test]
    fn scan_records_pin_failure_instead_of_skipping_page() {
        // Regression: HeapScan used to `if let Ok(..)` the pin and silently
        // drop the whole page's records — an index rebuilt from such a scan
        // would be missing entries. The scan must fuse and record instead.
        let mut h = heap(8);
        for i in 0..30u64 {
            h.insert(&record(i)).unwrap();
        }
        assert!(h.num_pages() >= 3);
        let bad = h.page_ids()[1];
        h.pool().clear_cache().unwrap();
        h.pool()
            .with_disk(|d| d.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(bad))));
        let mut scan = h.scan();
        let got: Vec<(Rid, Vec<u8>)> = (&mut scan).collect();
        // Everything up to the bad page was yielded; nothing after it.
        assert!(got.iter().all(|(rid, _)| rid.page < bad));
        assert_eq!(
            scan.take_error(),
            Some(StorageError::InjectedFault(bad)),
            "scan must record the pin failure"
        );
        assert_eq!(scan.take_error(), None, "error is taken once");
        assert_eq!(scan.next(), None, "fused after error");
        // dump() is the loss-free path: it propagates the same error.
        assert_eq!(h.dump().unwrap_err(), StorageError::InjectedFault(bad));
        // Clearing the fault restores a complete scan.
        h.pool().with_disk(|d| d.clear_fault_plan());
        assert_eq!(h.dump().unwrap().len(), 30);
    }

    #[test]
    fn scan_uses_chained_io() {
        let mut h = heap(32);
        for i in 0..200u64 {
            h.insert(&record(i)).unwrap();
        }
        h.pool().clear_cache().unwrap();
        h.pool().reset_stats();
        let n = h.scan().count();
        assert_eq!(n, 200);
        let s = h.pool().disk_stats();
        // ~29 pages at 7 records/page; chained in chunks => far fewer
        // positionings than pages.
        assert!(s.total_random() * 4 <= s.pages_read, "{s:?}");
    }

    #[test]
    fn bulk_delete_sorted_matches_single_deletes() {
        let mut h = heap(16);
        let rids: Vec<Rid> = (0..100).map(|i| h.insert(&record(i)).unwrap()).collect();
        let mut victims: Vec<Rid> = rids.iter().copied().step_by(3).collect();
        victims.sort();
        let deleted = h.bulk_delete_sorted(&victims).unwrap();
        assert_eq!(deleted.len(), victims.len());
        for ((rid, bytes), &v) in deleted.iter().zip(&victims) {
            assert_eq!(*rid, v);
            assert!(!bytes.is_empty());
        }
        assert_eq!(h.len(), 100 - victims.len());
        for &v in &victims {
            assert!(h.get(v).is_err());
        }
        h.verify_fsm().unwrap();
    }

    #[test]
    fn auditing_a_clean_heap_writes_nothing() {
        // Regression: `audit_fsm` pinned every page for write just to read
        // its free space, so each audit dirtied the whole heap.
        let mut h = heap(16);
        for i in 0..100 {
            h.insert(&record(i)).unwrap();
        }
        h.pool().flush_all().unwrap();
        h.pool().reset_stats();
        assert_eq!(h.audit_fsm().unwrap(), vec![]);
        h.pool().flush_all().unwrap();
        assert_eq!(h.pool().pool_stats().writebacks, 0);
    }

    #[test]
    fn bulk_delete_probe_matches_sorted_variant() {
        let mut h1 = heap(16);
        let mut h2 = heap(16);
        let rids1: Vec<Rid> = (0..80).map(|i| h1.insert(&record(i)).unwrap()).collect();
        let rids2: Vec<Rid> = (0..80).map(|i| h2.insert(&record(i)).unwrap()).collect();
        assert_eq!(rids1, rids2);
        let victims: Vec<Rid> = rids1.iter().copied().filter(|r| r.slot % 2 == 0).collect();
        let a = h1.bulk_delete_sorted(&victims).unwrap();
        let set: HashSet<Rid> = victims.iter().copied().collect();
        let b = h2.bulk_delete_probe(&set).unwrap();
        assert_eq!(a, b);
        assert_eq!(h1.len(), h2.len());
    }

    #[test]
    fn bulk_delete_sorted_is_one_pass() {
        let mut h = heap(64);
        let rids: Vec<Rid> = (0..500).map(|i| h.insert(&record(i)).unwrap()).collect();
        let victims: Vec<Rid> = rids.iter().copied().step_by(2).collect();
        h.pool().clear_cache().unwrap();
        h.pool().reset_stats();
        h.bulk_delete_sorted(&victims).unwrap();
        let pool_stats = h.pool().pool_stats();
        // Every page pinned at most once plus prefetch: misses bounded by
        // page count.
        assert!(pool_stats.misses as usize <= h.num_pages());
        // And one pass on the way out: the dirty pages (all 72 of them,
        // every other record is a victim) leave in chains, not one by one.
        // The chain the first eviction writes is carried on to the disk
        // head over the 3 pages read-ahead staged past the sweep; the sweep
        // dirties those next, so they are written twice.
        h.pool().flush_all().unwrap();
        let d = h.pool().disk_stats();
        assert_eq!(h.num_pages(), 72);
        assert_eq!(
            (h.pool().pool_stats().writebacks, d.pages_written),
            (72, 75)
        );
        assert!(
            (d.random_writes + d.sequential_writes) * 8 <= d.pages_written,
            "{d:?}"
        );
    }

    #[test]
    fn deleting_missing_rid_is_error() {
        let mut h = heap(8);
        let rid = h.insert(&record(1)).unwrap();
        h.delete(rid).unwrap();
        assert_eq!(h.delete(rid).unwrap_err(), StorageError::SlotEmpty(rid));
    }

    #[test]
    fn lenient_bulk_delete_skips_missing() {
        let mut h = heap(8);
        let rids: Vec<Rid> = (0..30).map(|i| h.insert(&record(i)).unwrap()).collect();
        h.delete(rids[3]).unwrap();
        h.delete(rids[7]).unwrap();
        let mut victims = rids[..10].to_vec();
        victims.sort_unstable();
        let out = h.bulk_delete_sorted(&victims).unwrap();
        assert_eq!(out.len(), 8, "two were already gone");
        assert!(out
            .iter()
            .all(|(rid, _)| *rid != rids[3] && *rid != rids[7]));
        assert_eq!(h.len(), 20);
        // A re-run finds nothing left to delete.
        assert_eq!(h.bulk_delete_sorted(&victims).unwrap(), vec![]);
        assert_eq!(h.len(), 20);
        h.verify_fsm().unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// `get_sorted` is `get` mapped over the list, errors included: the
        /// first RID whose `get` fails fails the whole read with that error.
        /// Per record: 0 = not asked, 1 = asked, 2 = asked twice, 3 =
        /// deleted, then asked (when `deletes`; else not asked).
        #[test]
        fn get_sorted_equals_get_mapped(
            lens in proptest::collection::vec(1usize..600, 1..150),
            picks in proptest::collection::vec(0u8..4, 150),
            deletes in proptest::prelude::any::<bool>(),
            frames in 4usize..24,
        ) {
            let mut h = heap(frames);
            let rids: Vec<Rid> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| h.insert(&vec![i as u8; len]).unwrap())
                .collect();
            let mut asked = Vec::new();
            for (&rid, &pick) in rids.iter().zip(&picks) {
                let times = match pick {
                    0 => 0,
                    2 => 2,
                    3 if !deletes => 0,
                    3 => {
                        h.delete(rid).unwrap();
                        1
                    }
                    _ => 1,
                };
                asked.extend(std::iter::repeat_n(rid, times));
            }
            asked.sort_unstable();
            h.pool().clear_cache().unwrap();
            let expect: StorageResult<Vec<Vec<u8>>> = asked.iter().map(|&r| h.get(r)).collect();
            proptest::prop_assert_eq!(h.get_sorted(&asked), expect);
        }
    }

    #[test]
    fn get_sorted_serves_a_dense_list_with_chained_reads() {
        // 1 000 records on ~143 pages, every third one asked for: each page
        // holds two or three of them, so one chained sweep serves the list.
        let mut h = heap(32);
        let rids: Vec<Rid> = (0..1000).map(|i| h.insert(&record(i)).unwrap()).collect();
        let picks: Vec<Rid> = rids.iter().copied().step_by(3).collect();
        h.pool().clear_cache().unwrap();
        h.pool().reset_stats();
        let got = h.get_sorted(&picks).unwrap();
        assert_eq!(got.len(), picks.len());
        for (bytes, rid) in got.iter().zip(&picks) {
            let i = rids.iter().position(|r| r == rid).unwrap() as u64;
            assert_eq!(bytes[..8], i.to_le_bytes());
        }
        let d = h.pool().disk_stats();
        let pages = h.num_pages() as u64;
        assert!(
            d.random_reads * 8 <= pages,
            "{} positioned reads for {pages} pages: {d:?}",
            d.random_reads
        );
        assert_eq!(h.pool().pool_stats().misses, 0, "every page was staged");
    }

    #[test]
    fn restored_counters_and_recount_match_reality() {
        let mut h = heap(16);
        let rids: Vec<Rid> = (0..60).map(|i| h.insert(&record(i)).unwrap()).collect();
        for r in rids.iter().step_by(3) {
            h.delete(*r).unwrap();
        }
        h.pool().flush_all().unwrap();
        let (n, fsm) = (h.len(), h.fsm_entries());
        assert_eq!(n, 40);
        assert_eq!(fsm.len(), h.num_pages());

        // Restoring logged values reads nothing.
        h.restore_counters(usize::MAX / 2, &[]);
        let reads = h.pool().disk_stats().pages_read;
        h.restore_counters(n, &fsm);
        assert_eq!(h.pool().disk_stats().pages_read, reads);
        assert_eq!((h.len(), h.fsm_entries()), (n, fsm.clone()));
        h.verify_fsm().unwrap();

        // The walk finds the same values on disk.
        h.restore_counters(usize::MAX / 2, &[]);
        h.pool().crash();
        assert_eq!(h.recount().unwrap(), 40);
        assert_eq!(h.fsm_entries(), fsm);
        for (i, r) in rids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(h.get(*r).is_err());
            } else {
                assert_eq!(h.get(*r).unwrap(), record(i as u64));
            }
        }
    }

    #[test]
    fn scrub_destroys_deleted_records_and_keeps_live_ones() {
        // High-entropy tags: a physical byte-scan for them cannot collide
        // with slot-directory metadata or other small integers.
        let tag = |i: u64| 0xDEAD_BEEF_0000_0000u64 | (i * 0x0101);
        let mut h = heap(16);
        let rids: Vec<Rid> = (0..40)
            .map(|i| h.insert(&record(tag(i))).unwrap())
            .collect();
        let victims: Vec<Rid> = rids.iter().copied().step_by(2).collect();
        h.bulk_delete_sorted(&victims).unwrap();
        let (pages, zeroed) = h.scrub().unwrap();
        assert_eq!(pages, h.num_pages());
        assert!(zeroed >= victims.len() * 4, "zeroed {zeroed}");
        h.pool().flush_all().unwrap();
        // Survivors read back intact; victims stay gone; FSM consistent.
        for (i, &rid) in rids.iter().enumerate() {
            if i % 2 == 0 {
                assert!(h.get(rid).is_err());
            } else {
                assert_eq!(h.get(rid).unwrap(), record(tag(i as u64)));
            }
        }
        h.verify_fsm().unwrap();
        // No victim tag survives anywhere on the heap's disk pages.
        let page_ids = h.page_ids().to_vec();
        h.pool().with_disk(|d| {
            for &pid in &page_ids {
                let img = d.peek(pid).unwrap();
                for i in (0..40u64).step_by(2) {
                    let t = tag(i).to_le_bytes();
                    assert!(
                        !img.windows(8).any(|w| w == t),
                        "victim tag {i} survives on page {pid}"
                    );
                }
            }
        });
    }

    #[test]
    fn release_empty_pages_shrinks_heap_and_fsm() {
        let mut h = heap(16);
        let rids: Vec<Rid> = (0..35).map(|i| h.insert(&record(i)).unwrap()).collect();
        let n_pages = h.num_pages();
        assert!(n_pages >= 5);
        // Empty out the records of the second and fourth pages.
        let victims: Vec<PageId> = vec![h.page_ids()[1], h.page_ids()[3]];
        for &rid in &rids {
            if victims.contains(&rid.page) {
                h.delete(rid).unwrap();
            }
        }
        let released = h.release_empty_pages().unwrap();
        assert_eq!(released, victims);
        assert_eq!(h.num_pages(), n_pages - 2);
        for &pid in &victims {
            assert_eq!(h.fsm_free(pid), None, "released page left the FSM");
            assert!(!h.fsm_pages().contains(&pid));
        }
        // The survivors are all still there, scan order intact.
        let live: Vec<Rid> = h.scan().map(|(rid, _)| rid).collect();
        assert_eq!(live.len(), h.len());
        assert!(live.windows(2).all(|w| w[0] < w[1]));
        h.verify_fsm().unwrap();
        // After reclaim the released pages are recycled and spliced back
        // into the page list at their sorted positions.
        for &pid in &victims {
            assert!(h.pool().reclaim_page(pid).unwrap());
        }
        for i in 100..114u64 {
            h.insert(&record(i)).unwrap();
        }
        let ids = h.page_ids().to_vec();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "page list sorted: {ids:?}"
        );
        assert!(
            ids.contains(&victims[0]),
            "recycled page back in scan order"
        );
        let live: Vec<Rid> = h.scan().map(|(rid, _)| rid).collect();
        assert!(live.windows(2).all(|w| w[0] < w[1]), "RID order preserved");
        h.verify_fsm().unwrap();
    }

    #[test]
    fn refill_after_a_bulk_delete_walks_the_heap_once_in_page_order() {
        // The sliding-window shape at heap level: fill, delete every
        // fourth record (one or two free slots on every page), then insert
        // as many records as were deleted from a cold 32-frame pool. The
        // last page — where the insert cursor rests — is left full, so the
        // refill starts at the lowest page with room and never wraps.
        let mut h = heap(32);
        let rids: Vec<Rid> = (0..1400).map(|i| h.insert(&record(i)).unwrap()).collect();
        let last = *h.page_ids().last().unwrap();
        let victims: Vec<Rid> = rids
            .iter()
            .copied()
            .step_by(4)
            .filter(|r| r.page != last)
            .collect();
        h.bulk_delete_sorted(&victims).unwrap();
        let n_pages = h.num_pages();
        h.pool().clear_cache().unwrap();
        h.pool().reset_stats();
        let refill: Vec<Rid> = (0..victims.len() as u64)
            .map(|i| h.insert(&record(10_000 + i)).unwrap())
            .collect();
        h.pool().flush_all().unwrap();
        assert_eq!(h.num_pages(), n_pages, "freed slots absorb the refill");
        assert!(
            refill.windows(2).all(|w| w[0].page <= w[1].page),
            "one pass in page order"
        );
        let mut touched: Vec<PageId> = refill.iter().map(|r| r.page).collect();
        touched.dedup();
        let d = h.pool().disk_stats();
        assert!(
            (d.random_reads + d.random_writes) * 4 <= touched.len() as u64,
            "{} positioned accesses for {} pages: {d:?}",
            d.random_reads + d.random_writes,
            touched.len()
        );
        h.verify_fsm().unwrap();
    }

    #[test]
    fn the_insert_stream_bridges_full_pages_between_its_windows() {
        // Sixteen full pages of seven records; one slot freed on pages 0,
        // 1, 2, 11 and 12. The refill's first window stages 0..=2, its
        // second starts at 11: the full pages 3..=10 between them are
        // read too, so the second chain continues at the head and the
        // flush writes the pages out as one chain.
        let refill = |foreign_page: bool| {
            let mut h = heap(32);
            for i in 0..7 * 16 {
                if foreign_page && h.num_pages() == 6 && i % 7 == 0 {
                    h.pool().allocate(StructureId::Index(1), 0);
                }
                h.insert(&record(i)).unwrap();
            }
            let pages = h.page_ids().to_vec();
            assert_eq!(pages.len(), 16);
            for i in [0, 1, 2, 11, 12] {
                h.delete(Rid::new(pages[i], 0)).unwrap();
            }
            h.pool().clear_cache().unwrap();
            h.pool().reset_stats();
            let rids: Vec<Rid> = (0..5)
                .map(|i| h.insert(&record(100 + i)).unwrap())
                .collect();
            let want: Vec<PageId> = [0, 1, 2, 11, 12].map(|i| pages[i]).to_vec();
            assert_eq!(rids.iter().map(|r| r.page).collect::<Vec<_>>(), want);
            h.pool().flush_all().unwrap();
            let d = h.pool().disk_stats();
            (
                (d.random_reads, d.sequential_reads, d.pages_read),
                (d.random_writes, d.sequential_writes, d.pages_written),
            )
        };
        assert_eq!(refill(false), ((1, 1, 13), (1, 0, 13)));
        // A page that is not the heap's sits between the windows: the
        // insert stream stages only heap pages, so the chains split.
        assert_eq!(refill(true), ((2, 0, 5), (2, 0, 5)));
    }

    #[test]
    fn freed_space_is_reused() {
        let mut h = heap(8);
        for i in 0..14 {
            h.insert(&record(i)).unwrap();
        }
        let pages_before = h.num_pages();
        let victim = Rid::new(h.page_ids()[0], 2);
        h.delete(victim).unwrap();
        let rid = h.insert(&record(99)).unwrap();
        assert_eq!(rid.page, victim.page, "freed slot page should be reused");
        assert_eq!(h.num_pages(), pages_before);
    }
}
