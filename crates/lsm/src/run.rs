//! Immutable sorted runs on contiguous disk pages.
//!
//! A run is the unit the LSM engine flushes and compacts: a key-sorted
//! sequence of *items* — puts (key + record bytes), point tombstones
//! (key), and range tombstones (`[lo, hi]`, stored at their `lo`
//! position) — packed into a contiguous page extent written with one
//! chained sequential write (the same bulk-build idiom as the B-tree's
//! bottom-up load). Alongside the pages the run keeps in-memory metadata:
//! per-page **fence keys** (first key of each page, so a point lookup
//! touches exactly one page), a [`Bloom`] filter over its point keys, and
//! the delete-awareness counters compaction's victim selection reads
//! (tombstone count, sequence number, oldest tombstone age).
//!
//! Page format: `u16` item count, then items back to back — tag byte
//! (0 = put, 1 = point tombstone, 2 = range tombstone), `u64` key, then
//! the fixed-length record for puts or the `u64` high key for range
//! tombstones.

use std::sync::Arc;

use bd_btree::Key;
use bd_storage::{
    pacer, BufferPool, PageId, ReadAhead, StorageError, StorageResult, StructureId, PAGE_SIZE,
};

use crate::bloom::Bloom;

/// One logical item in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A live record (encoded with the table's schema).
    Put(Vec<u8>),
    /// A point tombstone: the key is deleted as of this run's sequence.
    Del,
    /// A range tombstone covering `lo ..= hi` (the item's key is `lo`).
    RangeDel(Key),
}

impl Item {
    fn encoded_len(&self, record_len: usize) -> usize {
        1 + 8
            + match self {
                Item::Put(_) => record_len,
                Item::Del => 0,
                Item::RangeDel(_) => 8,
            }
    }
}

/// An item as it lies on a pinned page: a put borrows its record bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ItemRef<'a> {
    Put(&'a [u8]),
    Del,
    RangeDel(Key),
}

impl ItemRef<'_> {
    fn to_item(self) -> Item {
        match self {
            ItemRef::Put(rec) => Item::Put(rec.to_vec()),
            ItemRef::Del => Item::Del,
            ItemRef::RangeDel(hi) => Item::RangeDel(hi),
        }
    }
}

const PAGE_HEADER: usize = 2;

/// An immutable sorted run: `n_pages` contiguous pages starting at
/// `first_page`, plus the in-memory metadata reads and compaction use.
#[derive(Debug, Clone)]
pub struct Run {
    /// First page of the contiguous extent.
    pub first_page: PageId,
    /// Extent length in pages.
    pub n_pages: usize,
    /// First key stored on each page (`fences[i]` belongs to page
    /// `first_page + i`); ascending.
    pub fences: Vec<Key>,
    /// Smallest key in the run (including range-tombstone `lo`s).
    pub min_key: Key,
    /// Largest key in the run (including range-tombstone `hi`s).
    pub max_key: Key,
    /// Number of puts.
    pub puts: usize,
    /// Number of point tombstones.
    pub point_tombs: usize,
    /// The run's range tombstones `[lo, hi]`, ascending by `lo`.
    pub range_tombs: Vec<(Key, Key)>,
    /// Membership filter over the run's point keys (puts + tombstones).
    pub bloom: Bloom,
    /// Creation sequence: larger = newer. Shadowing is resolved by level
    /// order first and this sequence within level 0.
    pub seq: u64,
    /// Sequence of the oldest tombstone this run carries (inherited
    /// through merges), or `None` when tombstone-free. Drives the FADE
    /// purge deadline.
    pub oldest_tomb_seq: Option<u64>,
    /// Fixed record length of puts (from the table schema).
    pub record_len: usize,
}

impl Run {
    /// Total items (puts + point tombstones + range tombstones).
    pub fn items(&self) -> usize {
        self.puts + self.point_tombs + self.range_tombs.len()
    }

    /// Total tombstones (point + range).
    pub fn tombstones(&self) -> usize {
        self.point_tombs + self.range_tombs.len()
    }

    /// Write a run from `items` (sorted by key, at most one put/point
    /// tombstone per key). Pages are allocated contiguously under `owner`
    /// and written with one chained sequential write.
    pub fn write(
        pool: &Arc<BufferPool>,
        owner: StructureId,
        record_len: usize,
        items: &[(Key, Item)],
        seq: u64,
        oldest_tomb_seq: Option<u64>,
        bloom_bits_per_key: usize,
    ) -> StorageResult<Run> {
        debug_assert!(items.windows(2).all(|w| w[0].0 <= w[1].0), "run unsorted");
        assert!(!items.is_empty(), "empty runs are never written");

        // Greedy packing: page boundaries become fence keys.
        let pages = layout_pages(items, record_len);

        let n_pages = pages.len();
        let first_page = pool.allocate_contiguous(n_pages, owner);
        pool.with_disk(|disk| {
            disk.write_chain(first_page, n_pages, |pid, page| {
                let chunk = pages[(pid - first_page) as usize];
                let mut pos = PAGE_HEADER;
                page[..2].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
                for (key, item) in chunk {
                    page[pos] = match item {
                        Item::Put(_) => 0,
                        Item::Del => 1,
                        Item::RangeDel(_) => 2,
                    };
                    page[pos + 1..pos + 9].copy_from_slice(&key.to_le_bytes());
                    pos += 9;
                    match item {
                        Item::Put(rec) => {
                            debug_assert_eq!(rec.len(), record_len);
                            page[pos..pos + record_len].copy_from_slice(rec);
                            pos += record_len;
                        }
                        Item::Del => {}
                        Item::RangeDel(hi) => {
                            page[pos..pos + 8].copy_from_slice(&hi.to_le_bytes());
                            pos += 8;
                        }
                    }
                }
                page[pos..].fill(0);
            })
        })?;

        let mut bloom = Bloom::with_capacity(items.len(), bloom_bits_per_key);
        let mut puts = 0;
        let mut point_tombs = 0;
        let mut range_tombs = Vec::new();
        let mut max_key = items[items.len() - 1].0;
        for (key, item) in items {
            match item {
                Item::Put(_) => {
                    puts += 1;
                    bloom.insert(*key);
                }
                Item::Del => {
                    point_tombs += 1;
                    bloom.insert(*key);
                }
                Item::RangeDel(hi) => {
                    range_tombs.push((*key, *hi));
                    max_key = max_key.max(*hi);
                }
            }
        }
        Ok(Run {
            first_page,
            n_pages,
            fences: pages.iter().map(|c| c[0].0).collect(),
            min_key: items[0].0,
            max_key,
            puts,
            point_tombs,
            range_tombs,
            bloom,
            seq,
            oldest_tomb_seq,
            record_len,
        }
        .into_checked())
    }

    fn into_checked(self) -> Run {
        debug_assert!(self.fences.windows(2).all(|w| w[0] <= w[1]));
        self
    }

    /// True when `key` could be stored in this run (fence range + filter).
    pub fn may_contain(&self, key: Key) -> bool {
        key >= self.min_key && key <= self.max_key && self.bloom.may_contain(key)
    }

    /// True when `[lo, hi]` overlaps the run's key range.
    pub fn overlaps(&self, lo: Key, hi: Key) -> bool {
        lo <= self.max_key && hi >= self.min_key
    }

    /// The membership pass over this run: `found(j, item)` runs for each
    /// `wanted[j]` (ascending, distinct) the run holds a put or a point
    /// tombstone for. Range tombstones are *not* consulted here — the table
    /// layer applies them by recency. Keys the fence range or the filter
    /// rejects cost nothing; the pages the rest map to are planned into one
    /// read-ahead and each pinned once, in page order, with a pacer
    /// checkpoint between pages and no pin held across them.
    pub(crate) fn probe(
        &self,
        pool: &Arc<BufferPool>,
        wanted: &[Key],
        mut found: impl FnMut(usize, ItemRef<'_>),
    ) -> StorageResult<()> {
        // Each key's page is the last one whose fence is <= key.
        // [`layout_pages`] keeps equal-key groups on one page, but a group
        // bigger than a page is force-split — so when the fence *equals* the
        // key, the key's items may start on an earlier page; walk back to the
        // first page that can hold them. Keys ascend, so the ranges do too.
        let mut pages: Vec<usize> = Vec::new();
        for &key in wanted.iter().filter(|&&k| self.may_contain(k)) {
            let Some(last) = self.fences.partition_point(|&f| f <= key).checked_sub(1) else {
                continue;
            };
            let mut first = last;
            while first > 0 && self.fences[first] == key {
                first -= 1;
            }
            let from = pages.last().map_or(first, |&p| first.max(p + 1));
            pages.extend(from..=last);
        }
        let pid_of = |page_idx: usize| self.first_page + page_idx as PageId;
        let mut ra = ReadAhead::new(pool.clone());
        ra.plan(pages.iter().map(|&p| pid_of(p)));
        // One merge of the visited pages' items against `wanted`.
        let mut next = 0;
        for (i, &page_idx) in pages.iter().enumerate() {
            if i > 0 {
                pacer::checkpoint()?;
            }
            let pid = pid_of(page_idx);
            ra.before_pin(pid);
            let guard = pool.pin_read(pid)?;
            for_each_item(&guard[..], self.record_len, pid, |key, item| {
                while next < wanted.len() && wanted[next] < key {
                    next += 1;
                }
                if wanted.get(next) == Some(&key) && !matches!(item, ItemRef::RangeDel(_)) {
                    found(next, item);
                }
            })?;
        }
        Ok(())
    }

    /// Point items (puts and point tombstones) with `lo <= key <= hi`, in
    /// key order. Range tombstones are skipped — callers read them from
    /// [`Run::range_tombs`] metadata, which also covers tombstones whose
    /// `lo` anchor falls *before* the scanned window. Fence keys bound the
    /// page walk to the overlapping prefix/suffix; a pacer checkpoint runs
    /// between pages with no pin held.
    pub fn scan_range(
        &self,
        pool: &Arc<BufferPool>,
        lo: Key,
        hi: Key,
    ) -> StorageResult<Vec<(Key, Item)>> {
        if !self.overlaps(lo, hi) {
            return Ok(Vec::new());
        }
        // First page that can hold `lo` .. last page whose fence is <= hi.
        // As in [`Run::probe`], a fence equal to `lo` can mean items at
        // `lo` straddle from the preceding page (force-split equal-key
        // group); back up past every such page.
        let mut first = self.fences.partition_point(|&f| f <= lo).saturating_sub(1);
        while first > 0 && self.fences[first] == lo {
            first -= 1;
        }
        let last = match self.fences.partition_point(|&f| f <= hi) {
            0 => return Ok(Vec::new()),
            p => p - 1,
        };
        let mut out = Vec::new();
        for (i, page_idx) in (first..=last).enumerate() {
            if i > 0 {
                pacer::checkpoint()?;
            }
            let pid = self.first_page + page_idx as PageId;
            let items = {
                let guard = pool.pin_read(pid)?;
                parse_page(&guard[..], self.record_len, pid)?
            };
            for (k, item) in items {
                if k > hi {
                    return Ok(out);
                }
                if k >= lo && !matches!(item, Item::RangeDel(_)) {
                    out.push((k, item));
                }
            }
        }
        Ok(out)
    }

    /// Read the whole run back, page by page, with a pacer checkpoint
    /// between pages and no pin held across them.
    pub fn read_all(&self, pool: &Arc<BufferPool>) -> StorageResult<Vec<(Key, Item)>> {
        let mut cursor = RunCursor::open(pool.clone(), self);
        let mut out = Vec::with_capacity(self.items());
        while let Some(entry) = cursor.next_item()? {
            out.push(entry);
        }
        Ok(out)
    }
}

/// Greedy page layout shared by [`Run::write`] and [`partition_items`]:
/// pack sorted items into pages front to back, but **never start a new
/// page between equal-key items** — a put and a range tombstone anchored
/// at the same key must share a page, or the fence of the following page
/// would equal the key and a fence-guided point lookup would miss the
/// earlier item. The only exception is an equal-key group that cannot fit
/// on one page by itself; [`Run::probe`] / [`Run::scan_range`] handle
/// that straddle by also visiting preceding same-fence pages.
fn layout_pages(items: &[(Key, Item)], record_len: usize) -> Vec<&[(Key, Item)]> {
    let mut pages: Vec<&[(Key, Item)]> = Vec::new();
    let mut start = 0;
    let mut used = PAGE_HEADER;
    for (i, (key, item)) in items.iter().enumerate() {
        let len = item.encoded_len(record_len);
        assert!(PAGE_HEADER + len <= PAGE_SIZE, "item exceeds a page");
        if used + len > PAGE_SIZE {
            // Back the split up to the start of the current equal-key
            // group, unless the group (plus this item) overflows a page
            // on its own — then a forced mid-group split is the only
            // layout that fits.
            let mut split = i;
            while split > start && items[split - 1].0 == *key {
                split -= 1;
            }
            let group: usize = items[split..i]
                .iter()
                .map(|(_, it)| it.encoded_len(record_len))
                .sum();
            if split == start || PAGE_HEADER + group + len > PAGE_SIZE {
                split = i;
            }
            pages.push(&items[start..split]);
            start = split;
            used = PAGE_HEADER
                + items[start..i]
                    .iter()
                    .map(|(_, it)| it.encoded_len(record_len))
                    .sum::<usize>();
        }
        used += len;
    }
    pages.push(&items[start..]);
    pages
}

/// Split sorted items into chunks that each pack into at most `max_pages`
/// pages under the same greedy layout [`Run::write`] uses — the partition
/// step that keeps runs at SST-file granularity, so a compaction never
/// rewrites more than the victim plus the partitions it overlaps.
///
/// A chunk boundary is never placed between equal-key items: sibling runs
/// sharing a key would overlap (`max_key == min_key`) and break the level
/// non-overlap invariant. When a boundary would land inside an equal-key
/// group, the whole group moves into the next chunk.
pub fn partition_items(
    items: Vec<(Key, Item)>,
    record_len: usize,
    max_pages: usize,
) -> Vec<Vec<(Key, Item)>> {
    let max_pages = max_pages.max(1);
    // Chunk at every `max_pages`-th page boundary of the shared layout;
    // those boundaries already avoid equal-key splits except when a
    // single group overflows a page, which the walk-back below fixes.
    let mut breaks: Vec<usize> = Vec::new();
    {
        let pages = layout_pages(&items, record_len);
        let mut idx = 0;
        for (pi, page) in pages.iter().enumerate() {
            if pi > 0 && pi % max_pages == 0 {
                breaks.push(idx);
            }
            idx += page.len();
        }
    }
    let mut chunks: Vec<Vec<(Key, Item)>> = Vec::with_capacity(breaks.len() + 1);
    {
        let mut prev = 0;
        let mut rest = items;
        for mut b in breaks {
            // Move a straddling equal-key group wholly into the next
            // chunk; drop the break when the group swallows the chunk.
            while b > prev && rest[b - prev - 1].0 == rest[b - prev].0 {
                b -= 1;
            }
            if b > prev {
                let tail = rest.split_off(b - prev);
                chunks.push(rest);
                rest = tail;
                prev = b;
            }
        }
        chunks.push(rest);
    }
    // A range tombstone reaching past its partition would make sibling
    // partitions overlap (its `hi` extends `max_key`). Split it at each
    // boundary — the two halves cover exactly the same keys.
    for i in 0..chunks.len().saturating_sub(1) {
        let next_first = chunks[i + 1][0].0;
        let mut kept = Vec::with_capacity(chunks[i].len());
        let mut carried = Vec::new();
        for (lo, item) in std::mem::take(&mut chunks[i]) {
            match item {
                Item::RangeDel(hi) if hi >= next_first => {
                    carried.push((next_first, Item::RangeDel(hi)));
                    if lo < next_first {
                        kept.push((lo, Item::RangeDel(next_first - 1)));
                    }
                }
                other => kept.push((lo, other)),
            }
        }
        chunks[i] = kept;
        chunks[i + 1].splice(0..0, carried);
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// Walk a page's items in order without copying a record. Bytes that are
/// not this format — an unknown tag, or an item count or a record that
/// runs past the page — are [`StorageError::CorruptPage`], not a panic.
fn for_each_item(
    page: &[u8],
    record_len: usize,
    pid: PageId,
    mut f: impl FnMut(Key, ItemRef<'_>),
) -> StorageResult<()> {
    let corrupt = || StorageError::CorruptPage(pid);
    let count = u16::from_le_bytes([page[0], page[1]]) as usize;
    let mut pos = PAGE_HEADER;
    for _ in 0..count {
        let head = page.get(pos..pos + 9).ok_or_else(corrupt)?;
        let key = Key::from_le_bytes(head[1..].try_into().expect("eight key bytes"));
        pos += 9;
        let (item, len) = match head[0] {
            0 => {
                let rec = page.get(pos..pos + record_len).ok_or_else(corrupt)?;
                (ItemRef::Put(rec), record_len)
            }
            1 => (ItemRef::Del, 0),
            2 => {
                let hi = page.get(pos..pos + 8).ok_or_else(corrupt)?;
                let hi = Key::from_le_bytes(hi.try_into().expect("eight key bytes"));
                (ItemRef::RangeDel(hi), 8)
            }
            _ => return Err(corrupt()),
        };
        pos += len;
        f(key, item);
    }
    Ok(())
}

fn parse_page(page: &[u8], record_len: usize, pid: PageId) -> StorageResult<Vec<(Key, Item)>> {
    let mut items = Vec::new();
    for_each_item(page, record_len, pid, |key, item| {
        items.push((key, item.to_item()))
    })?;
    Ok(items)
}

/// Streaming reader over one run: pins one page at a time, parses it,
/// drops the pin, and calls [`pacer::checkpoint`] between pages — the
/// pattern every long scan in the workspace follows, so compaction merges
/// and full scans are pausable with zero pins held while parked.
pub struct RunCursor {
    pool: Arc<BufferPool>,
    first_page: PageId,
    n_pages: usize,
    record_len: usize,
    next_page: usize,
    buffered: std::vec::IntoIter<(Key, Item)>,
}

impl RunCursor {
    /// Open a cursor at the start of `run`. It stages nothing ahead: a
    /// compaction interleaves one cursor per input run on a small pool, so
    /// pages staged for one are evicted by the next before they are pinned,
    /// while a page-by-page walk of an extent is already head-contiguous.
    pub fn open(pool: Arc<BufferPool>, run: &Run) -> RunCursor {
        RunCursor {
            pool,
            first_page: run.first_page,
            n_pages: run.n_pages,
            record_len: run.record_len,
            next_page: 0,
            buffered: Vec::new().into_iter(),
        }
    }

    /// Next item in key order, or `None` at the end of the run.
    pub fn next_item(&mut self) -> StorageResult<Option<(Key, Item)>> {
        loop {
            if let Some(entry) = self.buffered.next() {
                return Ok(Some(entry));
            }
            if self.next_page >= self.n_pages {
                return Ok(None);
            }
            if self.next_page > 0 {
                pacer::checkpoint()?;
            }
            let pid = self.first_page + self.next_page as PageId;
            self.next_page += 1;
            let items = {
                let guard = self.pool.pin_read(pid)?;
                parse_page(&guard[..], self.record_len, pid)?
            };
            self.buffered = items.into_iter();
        }
    }

    /// The key the next item would have, without consuming it.
    pub fn peek_key(&mut self) -> StorageResult<Option<Key>> {
        if let Some((k, _)) = self.buffered.as_slice().first() {
            return Ok(Some(*k));
        }
        // Force the next page into the buffer, then peek.
        match self.next_item()? {
            None => Ok(None),
            Some(entry) => {
                let key = entry.0;
                // Push back: rebuild the iterator with the entry first.
                let mut rest: Vec<(Key, Item)> = vec![entry];
                rest.extend(self.buffered.by_ref());
                self.buffered = rest.into_iter();
                Ok(Some(key))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::{CostModel, SimDisk};

    fn pool() -> Arc<BufferPool> {
        BufferPool::with_byte_budget(SimDisk::new(CostModel::default()), 1 << 20)
    }

    /// The run's point item for `key`: a membership pass of one key.
    fn search(run: &Run, pool: &Arc<BufferPool>, key: Key) -> Option<Item> {
        let mut hit = None;
        run.probe(pool, &[key], |_, item| hit = Some(item.to_item()))
            .unwrap();
        hit
    }

    /// Items whose greedy layout, were it key-oblivious, would end a page
    /// exactly at `Put(straddle_key)` with the same key's range tombstone
    /// overflowing onto the next page (the resurrect-after-range-delete
    /// straddle): `n` puts fill the page to within a tombstone's width of
    /// the end, then the tombstone, then trailing puts.
    fn straddle_items(record_len: usize) -> (Key, Vec<(Key, Item)>) {
        let put_len = 1 + 8 + record_len;
        let n = (PAGE_SIZE - PAGE_HEADER) / put_len;
        let used = PAGE_HEADER + n * put_len;
        let tomb_len = 1 + 8 + 8;
        assert!(
            used <= PAGE_SIZE && used + tomb_len > PAGE_SIZE,
            "geometry drifted: {used} of {PAGE_SIZE}"
        );
        let straddle_key = n as Key - 1;
        let mut items: Vec<(Key, Item)> = (0..n as Key)
            .map(|k| (k, Item::Put(vec![k as u8; record_len])))
            .collect();
        items.push((straddle_key, Item::RangeDel(straddle_key)));
        for k in n as Key..n as Key + 20 {
            items.push((k, Item::Put(vec![k as u8; record_len])));
        }
        (straddle_key, items)
    }

    #[test]
    fn equal_key_put_and_range_tombstone_share_a_page() {
        // A resurrected put followed by a same-key-anchored range
        // tombstone (memtable drain order) must not be split across a
        // page boundary: the follower page's fence would equal the key
        // and a fence-guided search would miss the put, silently reading
        // a live key as deleted.
        let record_len = 64;
        let pool = pool();
        let (key, items) = straddle_items(record_len);
        let run = Run::write(
            &pool,
            StructureId::lsm_of(0),
            record_len,
            &items,
            1,
            Some(1),
            10,
        )
        .unwrap();
        assert!(run.n_pages >= 2, "must span pages: {}", run.n_pages);
        let put = Item::Put(vec![key as u8; record_len]);
        assert_eq!(search(&run, &pool, key), Some(put.clone()));
        assert_eq!(
            run.scan_range(&pool, key, key + 5).unwrap().first(),
            Some(&(key, put)),
            "range scan anchored at the straddle key must keep the put"
        );
        // Every other key stays reachable too.
        for (k, item) in &items {
            if matches!(item, Item::Put(_)) {
                assert_eq!(search(&run, &pool, *k).as_ref(), Some(item), "key {k}");
            }
        }
    }

    #[test]
    fn oversized_equal_key_group_straddles_but_stays_readable() {
        // A single equal-key group bigger than a page *must* be split;
        // search/scan then walk back across the same-fence pages instead
        // of trusting the fence index alone.
        let record_len = 64;
        let pool = pool();
        let mut items: Vec<(Key, Item)> = (0..30u64)
            .map(|k| (k, Item::Put(vec![k as u8; record_len])))
            .collect();
        // ~5.1 KB of tombstones anchored at one key: forces a mid-group
        // page split whatever the packer does.
        for _ in 0..300 {
            items.push((30, Item::RangeDel(31)));
        }
        items.push((30, Item::RangeDel(30)));
        items.sort_by_key(|(k, _)| *k);
        let at_30 = items
            .iter()
            .position(|(k, _)| *k == 30)
            .expect("key present");
        items.insert(at_30, (30, Item::Put(vec![30u8; record_len])));
        for k in 31..60u64 {
            items.push((k, Item::Put(vec![k as u8; record_len])));
        }
        let run = Run::write(
            &pool,
            StructureId::lsm_of(0),
            record_len,
            &items,
            1,
            Some(1),
            10,
        )
        .unwrap();
        assert!(
            run.fences.windows(2).any(|w| w[0] == w[1] || w[1] == 30),
            "group must straddle for this test to bite: {:?}",
            run.fences
        );
        assert_eq!(
            search(&run, &pool, 30),
            Some(Item::Put(vec![30u8; record_len]))
        );
        assert_eq!(
            run.scan_range(&pool, 30, 35).unwrap().first(),
            Some(&(30, Item::Put(vec![30u8; record_len])))
        );
    }

    #[test]
    fn partition_never_splits_equal_key_groups() {
        // A chunk boundary between a put and its same-key range tombstone
        // would give sibling runs max_key == min_key — overlapping runs,
        // which the structural audit rejects. Includes an oversized
        // equal-key group so the boundary walk-back (not just the
        // equal-key-aware page layout) is exercised.
        let record_len = 64;
        let mut items: Vec<(Key, Item)> = Vec::new();
        for k in 0..200u64 {
            items.push((k, Item::Put(vec![0u8; record_len])));
            items.push((k, Item::RangeDel(k)));
        }
        for _ in 0..300 {
            items.push((100, Item::RangeDel(100)));
        }
        items.sort_by_key(|(k, _)| *k);
        let chunks = partition_items(items, record_len, 1);
        assert!(chunks.len() > 3, "must partition: {}", chunks.len());
        for w in chunks.windows(2) {
            let max_prev = w[0]
                .iter()
                .map(|(k, it)| match it {
                    Item::RangeDel(hi) => *hi,
                    _ => *k,
                })
                .max()
                .unwrap();
            let min_next = w[1][0].0;
            assert!(
                max_prev < min_next,
                "sibling chunks overlap: max {max_prev} >= min {min_next}"
            );
        }
    }

    #[test]
    fn partitioning_splits_range_tombstones_at_boundaries() {
        // ~56 put items per page at record_len 64; force several pages.
        let record_len = 64;
        let mut items: Vec<(Key, Item)> = (0..300u64)
            .map(|k| (k * 2, Item::Put(vec![0u8; record_len])))
            .collect();
        items.push((1, Item::RangeDel(597)));
        items.sort_by_key(|(k, _)| *k);
        let chunks = partition_items(items, record_len, 2);
        assert!(chunks.len() > 1, "must partition");
        for w in chunks.windows(2) {
            let next_first = w[1][0].0;
            for (lo, item) in &w[0] {
                if let Item::RangeDel(hi) = item {
                    assert!(*hi < next_first, "tombstone [{lo}, {hi}] crosses boundary");
                }
            }
        }
        // Coverage is preserved: the tombstone pieces still span [1, 597].
        let pieces: Vec<(Key, Key)> = chunks
            .iter()
            .flatten()
            .filter_map(|(lo, item)| match item {
                Item::RangeDel(hi) => Some((*lo, *hi)),
                _ => None,
            })
            .collect();
        assert!(pieces.len() > 1, "tombstone must have been split");
        assert_eq!(pieces.first().unwrap().0, 1);
        assert_eq!(pieces.last().unwrap().1, 597);
        for w in pieces.windows(2) {
            assert_eq!(w[1].0, w[0].1 + 1, "pieces must tile without gaps");
        }
    }
}
