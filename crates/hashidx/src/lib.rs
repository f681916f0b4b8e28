#![warn(missing_docs)]

//! Static hash index with overflow chains.
//!
//! The paper restricts its bulk-delete algorithms to B⁺-trees and states
//! that "in our prototype, other kinds of indices are updated in the
//! traditional way" (§5), naming hash tables first among the structures
//! left to future work. This crate supplies that other kind of index — a
//! bucket-array hash index — and extends the paper's operator to it:
//! [`HashIndex::bulk_delete`] is the partitioned-hash plan of Fig. 5 turned
//! inside out. The *deleted entries* are partitioned by bucket and the
//! buckets visited in page order, so a bulk delete sweeps each chain once
//! instead of walking one chain per victim. Record-at-a-time maintenance
//! ([`HashIndex::insert`], [`HashIndex::delete`]) stays for the callers
//! that have one record in hand.
//!
//! Layout: a fixed bucket directory (catalog metadata) points at bucket
//! pages; each bucket page holds `(key, rid)` entries and an overflow
//! pointer:
//!
//! ```text
//! 0..2   n_entries (u16)
//! 2..4   reserved
//! 4..8   overflow page (u32, NO_PAGE if none)
//! 8..    entries of (key u64, rid u64), 16 bytes each, unordered
//! ```

use std::sync::Arc;

use bd_storage::page::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use bd_storage::{BufferPool, PageId, ReadAhead, Rid, StorageResult, StructureId, PAGE_SIZE};

/// Key type (matches the B-tree's).
pub type Key = u64;

const NO_PAGE: u32 = u32::MAX;
const HDR: usize = 8;
const ENTRY: usize = 16;

/// Entries per bucket page.
pub const BUCKET_CAP: usize = (PAGE_SIZE - HDR) / ENTRY;

fn entry_off(i: usize) -> usize {
    HDR + i * ENTRY
}

fn page_n(buf: &[u8]) -> usize {
    get_u16(buf, 0) as usize
}

fn page_set_n(buf: &mut [u8], n: usize) {
    put_u16(buf, 0, n as u16);
}

fn page_overflow(buf: &[u8]) -> Option<PageId> {
    let p = get_u32(buf, 4);
    (p != NO_PAGE).then_some(p)
}

fn page_set_overflow(buf: &mut [u8], p: Option<PageId>) {
    put_u32(buf, 4, p.unwrap_or(NO_PAGE));
}

fn page_entry(buf: &[u8], i: usize) -> (Key, Rid) {
    (
        get_u64(buf, entry_off(i)),
        Rid::from_u64(get_u64(buf, entry_off(i) + 8)),
    )
}

fn page_set_entry(buf: &mut [u8], i: usize, e: (Key, Rid)) {
    put_u64(buf, entry_off(i), e.0);
    put_u64(buf, entry_off(i) + 8, e.1.to_u64());
}

/// Multiplicative hash (Fibonacci hashing) — good spread for the
/// workload's integer keys.
fn bucket_of(key: Key, n_buckets: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n_buckets
}

/// A static hash index of `(key, rid)` entries.
pub struct HashIndex {
    pool: Arc<BufferPool>,
    buckets: Vec<PageId>,
    n_entries: usize,
    owner: StructureId,
}

impl HashIndex {
    /// Create an index with `n_buckets` bucket pages (allocated
    /// contiguously), owned by `owner` in the page catalog.
    pub fn create(
        pool: Arc<BufferPool>,
        n_buckets: usize,
        owner: StructureId,
    ) -> StorageResult<Self> {
        assert!(n_buckets > 0);
        let first = pool.allocate_contiguous(n_buckets, owner);
        pool.with_disk(|disk| {
            disk.write_chain(first, n_buckets, |_, page| {
                page_set_n(&mut page[..], 0);
                page_set_overflow(&mut page[..], None);
            })
        })?;
        Ok(HashIndex {
            pool,
            buckets: (0..n_buckets as PageId).map(|i| first + i).collect(),
            n_entries: 0,
            owner,
        })
    }

    /// Size the bucket count for an expected entry count at ~70% fill.
    pub fn with_capacity(
        pool: Arc<BufferPool>,
        expected: usize,
        owner: StructureId,
    ) -> StorageResult<Self> {
        let buckets = (expected as f64 / (BUCKET_CAP as f64 * 0.7))
            .ceil()
            .max(1.0) as usize;
        HashIndex::create(pool, buckets, owner)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.n_entries
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n_entries == 0
    }

    /// Number of bucket pages (excluding overflow pages).
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The structure this index's pages are catalogued under.
    pub fn owner(&self) -> StructureId {
        self.owner
    }

    /// Every page the index owns: bucket pages plus their overflow chains,
    /// in chain-walk order. Media recovery uses this to classify a corrupt
    /// page id as belonging to a specific hash index.
    pub fn pages(&self) -> StorageResult<Vec<PageId>> {
        let mut out = Vec::with_capacity(self.buckets.len());
        for &bucket in &self.buckets {
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                let r = self.pool.pin_read(p)?;
                out.push(p);
                pid = page_overflow(&r[..]);
            }
        }
        Ok(out)
    }

    /// Insert an entry (duplicates allowed).
    pub fn insert(&mut self, key: Key, rid: Rid) -> StorageResult<()> {
        let mut pid = self.buckets[bucket_of(key, self.buckets.len())];
        loop {
            let mut w = self.pool.pin_write(pid)?;
            let n = page_n(&w[..]);
            if n < BUCKET_CAP {
                page_set_entry(&mut w[..], n, (key, rid));
                page_set_n(&mut w[..], n + 1);
                self.n_entries += 1;
                return Ok(());
            }
            match page_overflow(&w[..]) {
                Some(next) => {
                    drop(w);
                    pid = next;
                }
                None => {
                    // Chain a fresh overflow page.
                    let (new_pid, mut nw) = self.pool.new_page(self.owner, pid)?;
                    page_set_n(&mut nw[..], 1);
                    page_set_overflow(&mut nw[..], None);
                    page_set_entry(&mut nw[..], 0, (key, rid));
                    drop(nw);
                    page_set_overflow(&mut w[..], Some(new_pid));
                    self.n_entries += 1;
                    return Ok(());
                }
            }
        }
    }

    /// All RIDs under `key`.
    pub fn search(&self, key: Key) -> StorageResult<Vec<Rid>> {
        let mut out = Vec::new();
        let mut pid = Some(self.buckets[bucket_of(key, self.buckets.len())]);
        while let Some(p) = pid {
            let r = self.pool.pin_read(p)?;
            for i in 0..page_n(&r[..]) {
                let (k, rid) = page_entry(&r[..], i);
                if k == key {
                    out.push(rid);
                }
            }
            pid = page_overflow(&r[..]);
        }
        Ok(out)
    }

    /// Delete exactly `(key, rid)` — one chain walk, for callers with one
    /// record in hand. Pages are searched under a read pin and only the
    /// page holding the entry is dirtied, so a miss writes nothing back.
    /// Returns `true` if the entry existed.
    pub fn delete(&mut self, key: Key, rid: Rid) -> StorageResult<bool> {
        let mut pid = Some(self.buckets[bucket_of(key, self.buckets.len())]);
        while let Some(p) = pid {
            // Pause point: between chain pages, no pin held (the previous
            // iteration's guard dropped at the end of its block).
            bd_storage::pacer::checkpoint()?;
            let r = self.pool.pin_read(p)?;
            let n = page_n(&r[..]);
            if let Some(i) = (0..n).find(|&i| page_entry(&r[..], i) == (key, rid)) {
                // Swap-remove with the last entry of this page.
                let mut w = r.upgrade();
                let last = page_entry(&w[..], n - 1);
                page_set_entry(&mut w[..], i, last);
                page_set_n(&mut w[..], n - 1);
                self.n_entries -= 1;
                return Ok(true);
            }
            pid = page_overflow(&r[..]);
        }
        Ok(false)
    }

    /// Sort `entries` into the order [`HashIndex::bulk_delete`] sweeps
    /// them: by bucket, then `(key, rid)`. Bucket pages are allocated
    /// contiguously, so any contiguous slice of the result is a contiguous
    /// range of primary pages — which is what lets a caller that deletes in
    /// chunks (the WAL driver's progress records) hand each chunk a short
    /// monotone sweep, with the same chunk boundaries on every run.
    pub fn sort_for_sweep(&self, entries: &mut [(Key, Rid)]) {
        let n = self.buckets.len();
        entries.sort_unstable_by_key(|&(key, rid)| (bucket_of(key, n), key, rid));
    }

    /// Delete every `(key, rid)` entry of `entries` — the hash-index arm
    /// of a bulk delete, as one bucket-ordered sweep. Returns how many
    /// entries existed.
    ///
    /// The entries are sorted by bucket in memory, then the chains are
    /// swept **level by level**: level 0 is the primary page of every
    /// bucket that has victims, level *k + 1* the overflow pages of the
    /// level-*k* pages whose bucket still has unfound victims. Each level
    /// is visited in page-id order through [`ReadAhead`], so it arrives in
    /// chained reads and its dirty pages leave in chained write-behind.
    /// A page is searched under a read pin, dirtied only if it holds a
    /// victim, and loses all its victims in that one visit; no chain page
    /// is pinned twice.
    ///
    /// An entry that is not there is a no-op, and each list entry removes
    /// at most one index entry, exactly as a [`HashIndex::delete`] per
    /// entry would. That makes the pass idempotent: re-running it after a
    /// crash finds the already-deleted victims absent and writes nothing.
    pub fn bulk_delete(&mut self, entries: &[(Key, Rid)]) -> StorageResult<usize> {
        let mut victims = entries.to_vec();
        self.sort_for_sweep(&mut victims);
        let mut found = vec![false; victims.len()];
        let n_buckets = self.buckets.len();

        // Level 0: (page, this bucket's slice of `victims`, still unfound).
        let mut level: Vec<(PageId, std::ops::Range<usize>, usize)> = Vec::new();
        let mut lo = 0;
        while lo < victims.len() {
            let bucket = bucket_of(victims[lo].0, n_buckets);
            let len = victims[lo..].partition_point(|e| bucket_of(e.0, n_buckets) == bucket);
            level.push((self.buckets[bucket], lo..lo + len, len));
            lo += len;
        }

        let mut removed = 0;
        let mut survivors: Vec<(Key, Rid)> = Vec::with_capacity(BUCKET_CAP);
        while !level.is_empty() {
            level.sort_unstable_by_key(|&(pid, ..)| pid);
            let mut ra = ReadAhead::new(self.pool.clone());
            ra.plan(level.iter().map(|&(pid, ..)| pid));
            let mut next = Vec::new();
            for (pid, range, mut unfound) in level {
                // Pause point: between pages, no pin held.
                bd_storage::pacer::checkpoint()?;
                ra.before_pin(pid);
                let r = self.pool.pin_read(pid)?;
                let n = page_n(&r[..]);
                survivors.clear();
                for i in 0..n {
                    let e = page_entry(&r[..], i);
                    // Equal list entries are adjacent; each claims one hit.
                    let first = range.start + victims[range.clone()].partition_point(|v| *v < e);
                    let hit = (first..range.end)
                        .take_while(|&j| victims[j] == e)
                        .find(|&j| !found[j]);
                    match hit {
                        Some(j) => {
                            found[j] = true;
                            unfound -= 1;
                        }
                        None => survivors.push(e),
                    }
                }
                let overflow = page_overflow(&r[..]);
                if survivors.len() < n {
                    let mut w = r.upgrade();
                    for (i, &e) in survivors.iter().enumerate() {
                        page_set_entry(&mut w[..], i, e);
                    }
                    page_set_n(&mut w[..], survivors.len());
                    removed += n - survivors.len();
                    self.n_entries -= n - survivors.len();
                }
                if unfound > 0 {
                    next.extend(overflow.map(|p| (p, range, unfound)));
                }
            }
            level = next;
        }
        Ok(removed)
    }

    /// Read every chain page in bucket order and hand its image to
    /// `visit`. Pause point between chain pages, with no pin held.
    fn read_chains(&self, mut visit: impl FnMut(&[u8])) -> StorageResult<()> {
        for &bucket in &self.buckets {
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                bd_storage::pacer::checkpoint()?;
                let r = self.pool.pin_read(p)?;
                visit(&r[..]);
                pid = page_overflow(&r[..]);
            }
        }
        Ok(())
    }

    /// All entries, in arbitrary order (consistency checks).
    pub fn scan(&self) -> StorageResult<Vec<(Key, Rid)>> {
        let mut out = Vec::with_capacity(self.n_entries);
        self.read_chains(|buf| out.extend((0..page_n(buf)).map(|i| page_entry(buf, i))))?;
        Ok(out)
    }

    /// Recount entries from the disk state: one walk of every chain,
    /// counting in place. Media recovery uses it when a tear is found
    /// after the statement committed; an interrupted statement's recovery
    /// sets the counter from the log instead ([`HashIndex::set_len`]).
    pub fn recount(&mut self) -> StorageResult<usize> {
        let mut n = 0;
        self.read_chains(|buf| n += page_n(buf))?;
        self.n_entries = n;
        Ok(n)
    }

    /// Overwrite the entry counter: recovery sets it to a value derived
    /// from the log instead of walking the chains.
    pub fn set_len(&mut self, n: usize) {
        self.n_entries = n;
    }

    /// Dump every bucket's overflow chain and check the structure's
    /// invariants: every entry must hash to the bucket whose chain holds it,
    /// chain pages must respect [`BUCKET_CAP`], and the in-memory entry
    /// counter must match the on-disk entry count. Violations are returned
    /// as human-readable strings (the audit harness folds them into its
    /// report); I/O failures surface as errors.
    pub fn audit(&self) -> StorageResult<HashAudit> {
        let mut chains = Vec::with_capacity(self.buckets.len());
        let mut violations = Vec::new();
        let mut total = 0usize;
        for (b, &bucket) in self.buckets.iter().enumerate() {
            let mut pages = Vec::new();
            let mut entries = Vec::new();
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                let r = self.pool.pin_read(p)?;
                let n = page_n(&r[..]);
                if n > BUCKET_CAP {
                    violations.push(format!("bucket {b} page {p} holds {n} > cap {BUCKET_CAP}"));
                }
                for i in 0..n.min(BUCKET_CAP) {
                    let (k, rid) = page_entry(&r[..], i);
                    if bucket_of(k, self.buckets.len()) != b {
                        violations.push(format!(
                            "bucket {b} page {p} holds key {k} that hashes to bucket {}",
                            bucket_of(k, self.buckets.len())
                        ));
                    }
                    entries.push((k, rid));
                }
                pages.push(p);
                pid = page_overflow(&r[..]);
                if pages.len() > 1_000_000 {
                    violations.push(format!("bucket {b} chain does not terminate"));
                    break;
                }
            }
            total += entries.len();
            chains.push(BucketChain {
                bucket: b,
                pages,
                entries,
            });
        }
        if total != self.n_entries {
            violations.push(format!(
                "entry counter says {} but chains hold {total}",
                self.n_entries
            ));
        }
        Ok(HashAudit { chains, violations })
    }

    /// Scrub every chain page: zero all bytes beyond the live entry region.
    /// [`HashIndex::delete`] swap-removes, so the former last entry's
    /// `(key, rid)` image survives beyond `n_entries` until this pass
    /// destroys it. Returns the number of pages that held stale bytes.
    pub fn scrub(&mut self) -> StorageResult<usize> {
        let mut dirtied = 0;
        for &bucket in &self.buckets {
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                // Pause point: between chain pages, no pin held.
                bd_storage::pacer::checkpoint()?;
                let mut w = self.pool.pin_write(p)?;
                let buf = &mut w[..];
                let n = page_n(buf);
                let tail = entry_off(n.min(BUCKET_CAP));
                if buf[tail..].iter().any(|&b| b != 0) {
                    buf[tail..].fill(0);
                    dirtied += 1;
                }
                pid = page_overflow(buf);
            }
        }
        Ok(dirtied)
    }

    /// Longest overflow chain (diagnostics).
    pub fn max_chain_len(&self) -> StorageResult<usize> {
        let mut max = 0;
        for &bucket in &self.buckets {
            let mut len = 0;
            let mut pid = Some(bucket);
            while let Some(p) = pid {
                len += 1;
                let r = self.pool.pin_read(p)?;
                pid = page_overflow(&r[..]);
            }
            max = max.max(len);
        }
        Ok(max)
    }
}

/// One bucket's chain as found on disk by [`HashIndex::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketChain {
    /// Bucket number.
    pub bucket: usize,
    /// Pages of the chain, bucket page first.
    pub pages: Vec<PageId>,
    /// Entries in chain order.
    pub entries: Vec<(Key, Rid)>,
}

/// Result of [`HashIndex::audit`]: the full chain dump plus any violated
/// invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashAudit {
    /// Per-bucket chain contents.
    pub chains: Vec<BucketChain>,
    /// Human-readable invariant violations (empty = structurally sound).
    pub violations: Vec<String>,
}

impl HashAudit {
    /// All entries across every chain, unsorted.
    pub fn entries(&self) -> Vec<(Key, Rid)> {
        self.chains.iter().flat_map(|c| c.entries.clone()).collect()
    }
}

// Hash-index arms are dispatched to worker threads by the phase-task
// executor; the handle must stay `Send` (see the matching assertion on
// `bd_btree::BTree`).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<HashIndex>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::{CostModel, SimDisk};

    fn pool() -> Arc<BufferPool> {
        BufferPool::new(SimDisk::new(CostModel::default()), 128)
    }

    fn rid(i: u64) -> Rid {
        Rid::new(i as u32, (i % 7) as u16)
    }

    #[test]
    fn insert_search_delete() {
        let mut h = HashIndex::create(pool(), 4, StructureId::Hash(0)).unwrap();
        for k in 0..100u64 {
            h.insert(k, rid(k)).unwrap();
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.search(42).unwrap(), vec![rid(42)]);
        assert_eq!(h.search(1000).unwrap(), Vec::<Rid>::new());
        assert!(h.delete(42, rid(42)).unwrap());
        assert!(!h.delete(42, rid(42)).unwrap());
        assert_eq!(h.search(42).unwrap(), Vec::<Rid>::new());
        assert_eq!(h.len(), 99);
    }

    #[test]
    fn duplicates_supported() {
        let mut h = HashIndex::create(pool(), 2, StructureId::Hash(0)).unwrap();
        for i in 0..5u16 {
            h.insert(7, Rid::new(1, i)).unwrap();
        }
        let mut rids = h.search(7).unwrap();
        rids.sort();
        assert_eq!(rids.len(), 5);
        assert!(h.delete(7, Rid::new(1, 2)).unwrap());
        assert_eq!(h.search(7).unwrap().len(), 4);
    }

    #[test]
    fn pages_lists_buckets_and_overflow_chains() {
        let mut h = HashIndex::create(pool(), 2, StructureId::Hash(0)).unwrap();
        assert_eq!(h.pages().unwrap().len(), 2, "bucket pages only");
        // One bucket overflows: pages() must pick up the chained page.
        let n = (BUCKET_CAP * 2 + BUCKET_CAP / 2) as u64;
        for k in 0..n {
            h.insert(k, rid(k)).unwrap();
        }
        let pages = h.pages().unwrap();
        assert!(pages.len() > 2, "overflow pages included: {pages:?}");
        let audit = h.audit().unwrap();
        let mut from_audit: Vec<PageId> =
            audit.chains.iter().flat_map(|c| c.pages.clone()).collect();
        let mut got = pages.clone();
        from_audit.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, from_audit, "pages() agrees with the audit dump");
    }

    #[test]
    fn overflow_chains_grow_and_shrink_logically() {
        // One bucket forces overflow beyond BUCKET_CAP entries.
        let mut h = HashIndex::create(pool(), 1, StructureId::Hash(0)).unwrap();
        let n = (BUCKET_CAP * 3) as u64;
        for k in 0..n {
            h.insert(k, rid(k)).unwrap();
        }
        assert!(h.max_chain_len().unwrap() >= 3);
        for k in 0..n {
            assert_eq!(h.search(k).unwrap(), vec![rid(k)], "key {k}");
        }
        for k in 0..n {
            assert!(h.delete(k, rid(k)).unwrap());
        }
        assert!(h.is_empty());
        assert_eq!(h.scan().unwrap(), Vec::<(Key, Rid)>::new());
    }

    /// A pacer whose hook records the pool's pinned frames at checkpoint
    /// `at`: the walker is stopped there, inside the hook.
    fn pinned_at(
        p: &Arc<BufferPool>,
        at: u64,
    ) -> (bd_storage::Pacer, Arc<std::sync::Mutex<Option<usize>>>) {
        let pinned = Arc::new(std::sync::Mutex::new(None));
        let pacer = {
            let (p, pinned) = (p.clone(), pinned.clone());
            bd_storage::Pacer::with_hook(move |n| {
                if n == at {
                    *pinned.lock().unwrap() = Some(p.pinned_frames());
                }
                Ok(())
            })
        };
        (pacer, pinned)
    }

    #[test]
    fn paused_mid_chain_delete_holds_no_pins_and_matches_uninterrupted() {
        // One bucket forces a long overflow chain, so every delete walks
        // several pages and crosses a checkpoint per page: checkpoint 7 lands
        // mid-hash-chain. Paused there (in the hook) ⇒ zero pinned frames;
        // run on ⇒ the exact state an uninterrupted run produces.
        let n = (BUCKET_CAP * 4) as u64;
        let mut reference = HashIndex::create(pool(), 1, StructureId::Hash(0)).unwrap();
        let p = pool();
        let mut h = HashIndex::create(p.clone(), 1, StructureId::Hash(0)).unwrap();
        for k in 0..n {
            reference.insert(k, rid(k)).unwrap();
            h.insert(k, rid(k)).unwrap();
        }
        let victims: Vec<Key> = (0..n).step_by(2).collect();
        for &k in &victims {
            assert!(reference.delete(k, rid(k)).unwrap());
        }

        let (pacer, pinned) = pinned_at(&p, 7);
        {
            let _g = pacer.enter();
            for &k in &victims {
                assert!(h.delete(k, rid(k)).unwrap());
            }
        }
        assert_eq!(
            *pinned.lock().unwrap(),
            Some(0),
            "paused mid-chain with a pin held, or never paused"
        );

        assert_eq!(h.len(), reference.len());
        let mut got = h.scan().unwrap();
        let mut expect = reference.scan().unwrap();
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect, "resumed delete diverged");
    }

    #[test]
    fn absent_delete_leaves_the_chain_clean() {
        // A miss walks the whole 4-page chain. It must do so under read
        // pins: a write pin dirties on acquire, and every page walked would
        // be written back unchanged.
        let p = pool();
        let mut h = HashIndex::create(p.clone(), 1, StructureId::Hash(0)).unwrap();
        let n = (BUCKET_CAP * 4) as u64;
        for k in 0..n {
            h.insert(k, rid(k)).unwrap();
        }
        assert_eq!(h.max_chain_len().unwrap(), 4);
        p.flush_all().unwrap();
        p.reset_stats();
        assert!(!h.delete(n + 1, rid(0)).unwrap());
        assert_eq!(h.bulk_delete(&[(n + 1, rid(0)), (0, rid(1))]).unwrap(), 0);
        p.flush_all().unwrap();
        assert_eq!(p.pool_stats().writebacks, 0, "a miss dirtied the chain");
        // A hit dirties exactly the page that held the entry.
        assert!(h.delete(n - 1, rid(n - 1)).unwrap());
        p.flush_all().unwrap();
        assert_eq!(p.pool_stats().writebacks, 1);
    }

    fn sorted_scan(h: &HashIndex) -> Vec<(Key, Rid)> {
        let mut entries = h.scan().unwrap();
        entries.sort_unstable();
        entries
    }

    #[test]
    fn bulk_delete_sweeps_a_table_larger_than_the_pool_once() {
        // 120 buckets of ~3 pages behind a 16-frame pool. One statement
        // must read no page twice and position the head per chain of
        // pages, not per victim.
        let p = BufferPool::new(SimDisk::new(CostModel::default()), 16);
        let mut h = HashIndex::create(p.clone(), 120, StructureId::Hash(0)).unwrap();
        let n = (120 * BUCKET_CAP * 5 / 2) as u64;
        for k in 0..n {
            h.insert(k, rid(k)).unwrap();
        }
        let chain_pages = h.pages().unwrap().len() as u64;
        assert!(chain_pages > 300, "{chain_pages} pages");
        let victims: Vec<(Key, Rid)> = (0..n).step_by(5).map(|k| (k, rid(k))).collect();
        p.clear_cache().unwrap();
        p.reset_stats();
        assert_eq!(h.bulk_delete(&victims).unwrap(), victims.len());
        p.flush_all().unwrap();
        let d = p.disk_stats();
        assert!(
            d.pages_read <= chain_pages,
            "read {} of {chain_pages} chain pages",
            d.pages_read
        );
        let random = d.random_reads + d.random_writes;
        assert!(
            random * 10 <= victims.len() as u64,
            "{random} random I/Os for {} victims",
            victims.len()
        );
        assert_eq!(h.len(), n as usize - victims.len());
        let audit = h.audit().unwrap();
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
        assert!(sorted_scan(&h).iter().all(|&(k, _)| k % 5 != 0));
    }

    #[test]
    fn paused_mid_sweep_holds_no_pins_and_matches_uninterrupted() {
        // The twin of the chain-walk test above for the set-oriented pass:
        // a four-bucket index with three-page chains crosses a checkpoint
        // per page, so checkpoint 7 lands inside level 1 of the sweep.
        let n = (4 * BUCKET_CAP * 5 / 2) as u64;
        let mut reference = HashIndex::create(pool(), 4, StructureId::Hash(0)).unwrap();
        let p = pool();
        let mut h = HashIndex::create(p.clone(), 4, StructureId::Hash(0)).unwrap();
        for k in 0..n {
            reference.insert(k, rid(k)).unwrap();
            h.insert(k, rid(k)).unwrap();
        }
        let victims: Vec<(Key, Rid)> = (0..n).step_by(2).map(|k| (k, rid(k))).collect();
        assert_eq!(reference.bulk_delete(&victims).unwrap(), victims.len());

        let (pacer, pinned) = pinned_at(&p, 7);
        {
            let _g = pacer.enter();
            assert_eq!(h.bulk_delete(&victims).unwrap(), victims.len());
        }
        assert_eq!(
            *pinned.lock().unwrap(),
            Some(0),
            "paused mid-sweep with a pin held, or never paused"
        );

        assert!(pacer.checks() > 7, "the sweep ended before the trip point");
        assert_eq!(h.len(), reference.len());
        assert_eq!(
            sorted_scan(&h),
            sorted_scan(&reference),
            "resumed sweep diverged"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The sweep is the delete loop: over a list with absent pairs and
        /// repeated pairs, both remove the same entries and report the
        /// same count — on the first run and on a lenient re-run.
        #[test]
        fn bulk_delete_matches_a_delete_loop(
            keys in proptest::collection::vec(0u64..400, 1..1500),
            picks in proptest::collection::vec((0u64..500, 0u64..3), 0..600),
            n_buckets in 1usize..6,
        ) {
            let mut swept = HashIndex::create(pool(), n_buckets, StructureId::Hash(0)).unwrap();
            let mut looped = HashIndex::create(pool(), n_buckets, StructureId::Hash(0)).unwrap();
            for (i, &k) in keys.iter().enumerate() {
                // Few distinct keys and RIDs: the index holds repeated
                // keys and, now and then, a repeated `(key, rid)` pair.
                let r = rid(i as u64 % 3);
                swept.insert(k, r).unwrap();
                looped.insert(k, r).unwrap();
            }
            // Keys ≥ 400 are absent; a small domain repeats list entries.
            let list: Vec<(Key, Rid)> = picks.iter().map(|&(k, r)| (k, rid(r))).collect();
            for _rerun in 0..2 {
                let mut by_loop = 0;
                for &(k, r) in &list {
                    by_loop += looped.delete(k, r).unwrap() as usize;
                }
                proptest::prop_assert_eq!(swept.bulk_delete(&list).unwrap(), by_loop);
                proptest::prop_assert_eq!(swept.len(), looped.len());
                proptest::prop_assert_eq!(sorted_scan(&swept), sorted_scan(&looped));
                proptest::prop_assert!(swept.audit().unwrap().violations.is_empty());
            }
        }
    }

    #[test]
    fn scrub_destroys_swap_removed_entry_images() {
        let tag = |i: u64| 0xFEED_FACE_0000_0000u64 | (i * 0x0101);
        let mut h = HashIndex::create(pool(), 2, StructureId::Hash(0)).unwrap();
        let n = (BUCKET_CAP + BUCKET_CAP / 2) as u64;
        for i in 0..n {
            h.insert(tag(i), rid(i)).unwrap();
        }
        let victims: Vec<u64> = (0..n).step_by(2).collect();
        for &i in &victims {
            assert!(h.delete(tag(i), rid(i)).unwrap());
        }
        // Swap-remove leaves stale images beyond n_entries on some page.
        let dirtied = h.scrub().unwrap();
        assert!(dirtied > 0, "delete left no residue to scrub?");
        h.pool.flush_all().unwrap();
        // Logical state intact, physical images gone.
        for i in 0..n {
            let expect = if i % 2 == 0 { vec![] } else { vec![rid(i)] };
            assert_eq!(h.search(tag(i)).unwrap(), expect, "key {i}");
        }
        let pages = h.pages().unwrap();
        h.pool.with_disk(|d| {
            for &p in &pages {
                let img = d.peek(p).unwrap();
                for &i in &victims {
                    let t = tag(i).to_le_bytes();
                    assert!(
                        !img.windows(8).any(|w| w == t),
                        "victim key {i} survives on page {p}"
                    );
                }
            }
        });
        assert_eq!(h.scrub().unwrap(), 0, "second scrub finds nothing");
    }

    #[test]
    fn scan_returns_every_entry_once() {
        let mut h = HashIndex::with_capacity(pool(), 1000, StructureId::Hash(0)).unwrap();
        for k in 0..1000u64 {
            h.insert(k * 3, rid(k)).unwrap();
        }
        let mut scanned = h.scan().unwrap();
        scanned.sort_unstable();
        let mut expect: Vec<(Key, Rid)> = (0..1000u64).map(|k| (k * 3, rid(k))).collect();
        expect.sort_unstable();
        assert_eq!(scanned, expect);
    }

    #[test]
    fn with_capacity_keeps_chains_short() {
        let mut h = HashIndex::with_capacity(pool(), 10_000, StructureId::Hash(0)).unwrap();
        for k in 0..10_000u64 {
            h.insert(k, rid(k)).unwrap();
        }
        assert!(
            h.max_chain_len().unwrap() <= 3,
            "chains: {}",
            h.max_chain_len().unwrap()
        );
    }

    #[test]
    fn audit_dumps_chains_and_flags_misplaced_entries() {
        let mut h = HashIndex::create(pool(), 4, StructureId::Hash(0)).unwrap();
        for k in 0..200u64 {
            h.insert(k, rid(k)).unwrap();
        }
        let audit = h.audit().unwrap();
        assert!(audit.violations.is_empty(), "{:?}", audit.violations);
        let mut got = audit.entries();
        got.sort_unstable();
        let mut expect = h.scan().unwrap();
        expect.sort_unstable();
        assert_eq!(got, expect);

        // Plant a misplaced entry: write a key into a bucket it does not
        // hash to, behind the index's back.
        let misplaced = (0u64..).find(|&k| bucket_of(k, 4) != 0).unwrap();
        let p0 = h.buckets[0];
        {
            let mut w = h.pool.pin_write(p0).unwrap();
            let n = page_n(&w[..]);
            assert!(n < BUCKET_CAP);
            page_set_entry(&mut w[..], n, (misplaced, Rid::new(7, 7)));
            page_set_n(&mut w[..], n + 1);
        }
        h.n_entries += 1;
        let audit = h.audit().unwrap();
        assert!(
            audit
                .violations
                .iter()
                .any(|v| v.contains("hashes to bucket")),
            "{:?}",
            audit.violations
        );
    }

    #[test]
    fn audit_flags_counter_drift() {
        let mut h = HashIndex::create(pool(), 2, StructureId::Hash(0)).unwrap();
        for k in 0..20u64 {
            h.insert(k, rid(k)).unwrap();
        }
        h.n_entries += 1; // simulate a lost update to the counter
        let audit = h.audit().unwrap();
        assert!(
            audit.violations.iter().any(|v| v.contains("counter")),
            "{:?}",
            audit.violations
        );
    }

    #[test]
    fn model_equivalence_under_mixed_ops() {
        use std::collections::HashSet;
        let mut h = HashIndex::create(pool(), 8, StructureId::Hash(0)).unwrap();
        let mut model: HashSet<(Key, Rid)> = HashSet::new();
        let mut x = 99u64;
        for _ in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x % 200;
            let r = rid(x % 50);
            if x.is_multiple_of(3) {
                let existed = h.delete(k, r).unwrap();
                assert_eq!(existed, model.remove(&(k, r)));
            } else if model.insert((k, r)) {
                h.insert(k, r).unwrap();
            }
        }
        let mut scanned = h.scan().unwrap();
        scanned.sort_unstable();
        let mut expect: Vec<(Key, Rid)> = model.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(scanned, expect);
    }
}
