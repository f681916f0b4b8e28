//! Immutable sorted runs on contiguous disk pages.
//!
//! A run is the unit the LSM engine flushes and compacts: a sequence of
//! *items* — puts (key + record bytes) and point tombstones (key) — with
//! **one item per key, in strictly ascending key order**, packed into a
//! contiguous page extent written with one chained sequential write (the
//! same bulk-build idiom as the B-tree's bottom-up load). Alongside the
//! pages the run keeps in-memory metadata: per-page **fence keys** (first
//! key of each page, so a point lookup touches exactly one page), a
//! [`Bloom`] filter over its keys, and the delete-awareness counters
//! compaction's victim selection reads (tombstone count, sequence number,
//! oldest tombstone age).
//!
//! Page format: `u16` item count, then items back to back — tag byte
//! (0 = put, 1 = tombstone), `u64` key, then the fixed-length record for
//! puts. Any other tag is a corrupt page.

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
}

impl Item {
    fn encoded_len(&self, record_len: usize) -> usize {
        1 + 8
            + match self {
                Item::Put(_) => record_len,
                Item::Del => 0,
            }
    }
}

/// An item as it lies on a pinned page: a put borrows its record bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ItemRef<'a> {
    Put(&'a [u8]),
    Del,
}

impl ItemRef<'_> {
    fn to_item(self) -> Item {
        match self {
            ItemRef::Put(rec) => Item::Put(rec.to_vec()),
            ItemRef::Del => Item::Del,
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
    /// `first_page + i`); strictly ascending.
    pub fences: Vec<Key>,
    /// Smallest key in the run.
    pub min_key: Key,
    /// Largest key in the run.
    pub max_key: Key,
    /// Number of puts.
    pub puts: usize,
    /// Number of tombstones.
    pub tombs: usize,
    /// Membership filter over the run's keys (puts + tombstones).
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

/// Bloom-filter budget per key in each run's filter.
const BLOOM_BITS_PER_KEY: usize = 8;

impl Run {
    /// Total items (puts + tombstones).
    pub fn items(&self) -> usize {
        self.puts + self.tombs
    }

    /// Write a run from `items` (strictly ascending keys, so one item per
    /// key). Pages are allocated contiguously under `owner` and written
    /// with one chained sequential write. A record too long for a page is
    /// [`StorageError::RecordTooLarge`].
    pub fn write(
        pool: &Arc<BufferPool>,
        owner: StructureId,
        record_len: usize,
        items: &[(Key, Item)],
        seq: u64,
        oldest_tomb_seq: Option<u64>,
    ) -> StorageResult<Run> {
        debug_assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "run unsorted");
        // `flush` skips an empty memtable and `partition_items` yields no
        // empty chunk, so every caller passes at least one item.
        debug_assert!(!items.is_empty(), "empty runs are never written");
        // A put is a tombstone's tag and key followed by the record.
        let max = PAGE_SIZE - PAGE_HEADER - Item::Del.encoded_len(record_len);
        if record_len > max {
            return Err(StorageError::RecordTooLarge {
                len: record_len,
                max,
            });
        }

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
                    };
                    page[pos + 1..pos + 9].copy_from_slice(&key.to_le_bytes());
                    pos += 9;
                    if let Item::Put(rec) = item {
                        debug_assert_eq!(rec.len(), record_len);
                        page[pos..pos + record_len].copy_from_slice(rec);
                        pos += record_len;
                    }
                }
                page[pos..].fill(0);
            })
        })?;

        let mut bloom = Bloom::with_capacity(items.len(), BLOOM_BITS_PER_KEY);
        for (key, _) in items {
            bloom.insert(*key);
        }
        let puts = items
            .iter()
            .filter(|(_, it)| matches!(it, Item::Put(_)))
            .count();
        Ok(Run {
            first_page,
            n_pages,
            fences: pages.iter().map(|c| c[0].0).collect(),
            min_key: items[0].0,
            max_key: items[items.len() - 1].0,
            puts,
            tombs: items.len() - puts,
            bloom,
            seq,
            oldest_tomb_seq,
            record_len,
        })
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
    /// `wanted[j]` (ascending, distinct) the run holds an item for. Keys
    /// the fence range or the filter rejects cost nothing; the pages the
    /// rest map to are planned into one read-ahead and each pinned once, in
    /// page order, with a pacer checkpoint between pages and no pin held
    /// across them.
    pub(crate) fn probe(
        &self,
        pool: &Arc<BufferPool>,
        wanted: &[Key],
        mut found: impl FnMut(usize, ItemRef<'_>),
    ) -> StorageResult<()> {
        // Each key's page is the last one whose fence is <= key. Keys
        // ascend, so the pages do too.
        let mut pages: Vec<usize> = Vec::new();
        for &key in wanted.iter().filter(|&&k| self.may_contain(k)) {
            let page = self.fences.partition_point(|&f| f <= key) - 1;
            if pages.last() != Some(&page) {
                pages.push(page);
            }
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
                if wanted.get(next) == Some(&key) {
                    found(next, item);
                }
            })?;
        }
        Ok(())
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
/// pack sorted items into pages front to back, starting a new page when
/// the next item does not fit. An item too long for any page gets a page
/// of its own; [`Run::write`] rejects it before it writes a byte.
fn layout_pages(items: &[(Key, Item)], record_len: usize) -> Vec<&[(Key, Item)]> {
    let mut pages: Vec<&[(Key, Item)]> = Vec::new();
    let mut start = 0;
    let mut used = PAGE_HEADER;
    for (i, (_, item)) in items.iter().enumerate() {
        let len = item.encoded_len(record_len);
        if used + len > PAGE_SIZE && i > start {
            pages.push(&items[start..i]);
            start = i;
            used = PAGE_HEADER;
        }
        used += len;
    }
    if start < items.len() {
        pages.push(&items[start..]);
    }
    pages
}

/// Split sorted items into chunks that each pack into at most `max_pages`
/// pages under the same greedy layout [`Run::write`] uses — the partition
/// step that keeps runs at SST-file granularity, so a compaction never
/// rewrites more than the victim plus the partitions it overlaps. Keys
/// are distinct, so sibling chunks never overlap.
pub fn partition_items(
    items: Vec<(Key, Item)>,
    record_len: usize,
    max_pages: usize,
) -> Vec<Vec<(Key, Item)>> {
    let lens: Vec<usize> = layout_pages(&items, record_len)
        .chunks(max_pages.max(1))
        .map(|chunk| chunk.iter().map(|page| page.len()).sum())
        .collect();
    let mut rest = items.into_iter();
    lens.into_iter()
        .map(|n| rest.by_ref().take(n).collect())
        .collect()
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
        let head: [u8; 9] = page
            .get(pos..pos + 9)
            .and_then(|head| head.try_into().ok())
            .ok_or_else(corrupt)?;
        let [tag, key @ ..] = head;
        let key = Key::from_le_bytes(key);
        pos += 9;
        let (item, len) = match tag {
            0 => {
                let rec = page.get(pos..pos + record_len).ok_or_else(corrupt)?;
                (ItemRef::Put(rec), record_len)
            }
            1 => (ItemRef::Del, 0),
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
/// and full scans hold zero pins whenever a pacer's hook runs.
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

    #[test]
    fn partitions_tile_the_items_at_the_page_cap() {
        // ~56 put items per page at record_len 64; force several pages.
        let record_len = 64;
        let items: Vec<(Key, Item)> = (0..300u64)
            .map(|k| (k * 2, Item::Put(vec![0u8; record_len])))
            .collect();
        let chunks = partition_items(items.clone(), record_len, 2);
        assert!(chunks.len() > 1, "must partition");
        for chunk in &chunks {
            assert!(layout_pages(chunk, record_len).len() <= 2);
        }
        assert_eq!(chunks.concat(), items, "chunks tile the input in order");
        assert!(partition_items(Vec::new(), record_len, 2).is_empty());
    }

    #[test]
    fn a_record_longer_than_a_page_is_an_error() {
        use bd_storage::{CostModel, SimDisk};
        let pool = BufferPool::with_byte_budget(SimDisk::new(CostModel::default()), 1 << 20);
        let owner = StructureId::lsm_of(0);
        let record_len = PAGE_SIZE;
        let items = vec![(1, Item::Put(vec![0u8; record_len])), (2, Item::Del)];
        assert_eq!(layout_pages(&items, record_len).len(), 2);
        let err = Run::write(&pool, owner, record_len, &items, 1, None).unwrap_err();
        assert_eq!(
            err,
            StorageError::RecordTooLarge {
                len: record_len,
                max: PAGE_SIZE - PAGE_HEADER - 9,
            }
        );
        assert!(
            pool.catalog().pages_of(owner).is_empty(),
            "nothing allocated"
        );
    }
}
