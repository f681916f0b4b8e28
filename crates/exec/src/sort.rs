//! External merge sort with a bounded memory budget.
//!
//! The vertical plans sort "the (small) lists of keys and RIDs" (§2.2.1)
//! before merging them into tables and indices. In the paper's experiments
//! the delete list usually fits in memory ("table D can always be sorted in
//! one pass in main memory"), but the sorter also handles the spill case:
//! quicksorted runs are written to [`TempSegment`]s (sequential, bypassing
//! the buffer pool) and merged k-way, with multi-pass merging when the
//! fan-in exceeds what the budget can buffer.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use bd_storage::{
    BufferPool, Rid, SegmentReader, SegmentWriter, StorageError, StorageResult, TempSegment,
};

use bd_btree::Key;

/// Fixed-size record that can live in a sort run.
///
/// The codecs below and the sorter's per-item methods are `#[inline]`: the
/// sort is instantiated in each calling crate, and without the hint how
/// fast its per-item path runs depends on how that crate's code happens to
/// be split into code-generation units.
pub trait Rec: Copy + Ord {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Serialize into `dst` (exactly `SIZE` bytes).
    fn encode(&self, dst: &mut [u8]);
    /// Deserialize from `src` (exactly `SIZE` bytes).
    fn decode(src: &[u8]) -> Self;
}

impl Rec for u64 {
    const SIZE: usize = 8;
    #[inline]
    fn encode(&self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(src: &[u8]) -> Self {
        u64::from_le_bytes(src.try_into().expect("8 bytes"))
    }
}

impl Rec for (Key, Rid) {
    const SIZE: usize = 16;
    #[inline]
    fn encode(&self, dst: &mut [u8]) {
        dst[..8].copy_from_slice(&self.0.to_le_bytes());
        dst[8..].copy_from_slice(&self.1.to_u64().to_le_bytes());
    }
    #[inline]
    fn decode(src: &[u8]) -> Self {
        (
            u64::from_le_bytes(src[..8].try_into().expect("8 bytes")),
            Rid::from_u64(u64::from_le_bytes(src[8..].try_into().expect("8 bytes"))),
        )
    }
}

/// Sort by RID first (used to order delete lists in table-scan order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ByRid(pub Rid, pub Key);

impl Rec for ByRid {
    const SIZE: usize = 16;
    #[inline]
    fn encode(&self, dst: &mut [u8]) {
        dst[..8].copy_from_slice(&self.0.to_u64().to_le_bytes());
        dst[8..].copy_from_slice(&self.1.to_le_bytes());
    }
    #[inline]
    fn decode(src: &[u8]) -> Self {
        ByRid(
            Rid::from_u64(u64::from_le_bytes(src[..8].try_into().expect("8 bytes"))),
            u64::from_le_bytes(src[8..].try_into().expect("8 bytes")),
        )
    }
}

/// Counters describing one sort execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Items sorted.
    pub items: usize,
    /// Spilled runs generated (0 = fully in memory).
    pub runs: usize,
    /// Extra merge passes beyond the final one.
    pub merge_passes: usize,
}

/// Bounded-memory external sorter.
pub struct ExternalSorter<T: Rec> {
    pool: Arc<BufferPool>,
    budget_bytes: usize,
    buf: Vec<T>,
    runs: Vec<TempSegment>,
    stats: SortStats,
}

impl<T: Rec> ExternalSorter<T> {
    /// Sorter allowed to hold `budget_bytes` of items in memory at once.
    pub fn new(pool: Arc<BufferPool>, budget_bytes: usize) -> Self {
        let cap = (budget_bytes / T::SIZE).max(64);
        ExternalSorter {
            pool,
            budget_bytes,
            buf: Vec::with_capacity(cap.min(1 << 20)),
            runs: Vec::new(),
            stats: SortStats::default(),
        }
    }

    /// Items the in-memory buffer may hold.
    fn mem_items(&self) -> usize {
        (self.budget_bytes / T::SIZE).max(64)
    }

    /// Add one item.
    #[inline]
    pub fn push(&mut self, item: T) -> StorageResult<()> {
        self.buf.push(item);
        self.stats.items += 1;
        if self.buf.len() >= self.mem_items() {
            self.spill()?;
        }
        Ok(())
    }

    /// Add many items.
    pub fn extend(&mut self, items: impl IntoIterator<Item = T>) -> StorageResult<()> {
        for i in items {
            self.push(i)?;
        }
        Ok(())
    }

    #[inline]
    fn spill(&mut self) -> StorageResult<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        // Pause point: before writing a run (temp segments bypass the
        // buffer pool, so no pin is ever held here).
        bd_storage::pacer::checkpoint()?;
        self.buf.sort_unstable();
        let mut w = SegmentWriter::new(self.pool.clone());
        let mut enc = vec![0u8; T::SIZE];
        for item in &self.buf {
            item.encode(&mut enc);
            w.write(&enc)?;
        }
        self.runs.push(w.finish()?);
        self.stats.runs += 1;
        self.buf.clear();
        Ok(())
    }

    /// Merge fan-in the budget can buffer (each open run double-buffers
    /// ~64 KiB of chained reads).
    fn fan_in(&self) -> usize {
        (self.budget_bytes / (64 * 1024)).max(2)
    }

    /// Finish and return the sorted stream plus stats.
    pub fn finish(mut self) -> StorageResult<(SortedStream<T>, SortStats)> {
        if self.runs.is_empty() {
            // Everything fit in memory: one in-place sort.
            self.buf.sort_unstable();
            let stats = self.stats;
            return Ok((
                SortedStream {
                    inner: StreamInner::Mem(std::mem::take(&mut self.buf).into_iter()),
                    error: None,
                    fused: false,
                },
                stats,
            ));
        }
        self.spill()?;
        // Multi-pass merge down to a final fan-in.
        let fan_in = self.fan_in();
        while self.runs.len() > fan_in {
            let batch: Vec<TempSegment> = self.runs.drain(..fan_in).collect();
            let mut merge: KWayMerge<T> = KWayMerge::new(&self.pool, batch)?;
            let mut w = SegmentWriter::new(self.pool.clone());
            let mut enc = vec![0u8; T::SIZE];
            while let Some(item) = merge.next_item()? {
                item.encode(&mut enc);
                w.write(&enc)?;
            }
            self.runs.push(w.finish()?);
            self.stats.merge_passes += 1;
        }
        let merge = KWayMerge::new(&self.pool, std::mem::take(&mut self.runs))?;
        let stats = self.stats;
        Ok((
            SortedStream {
                inner: StreamInner::Merge(merge),
                error: None,
                fused: false,
            },
            stats,
        ))
    }
}

impl<T: Rec> Drop for ExternalSorter<T> {
    /// Runs not handed off to a merge (an abandoned sorter, or a `finish`
    /// that failed partway) must not leak their temp pages.
    fn drop(&mut self) {
        for run in &self.runs {
            run.free(&self.pool);
        }
    }
}

enum StreamInner<T: Rec> {
    /// Fully in-memory result.
    Mem(std::vec::IntoIter<T>),
    /// Streaming k-way merge over spilled runs.
    Merge(KWayMerge<T>),
}

/// Sorted output of an [`ExternalSorter`].
///
/// The spilled-run path does real I/O, so iteration can fail mid-merge.
/// [`SortedStream::into_vec`] is the loss-free path: it surfaces any read
/// error as a `Result`. The `Iterator` impl (needed by merge-join style
/// consumers) cannot return errors through its items; instead it *fuses and
/// records*: on the first error the stream permanently ends and the error is
/// held for the caller to retrieve via [`SortedStream::take_error`]. It is a
/// bug for a caller to drain the iterator without checking `take_error()` —
/// a recorded error means the sorted output was truncated mid-merge.
pub struct SortedStream<T: Rec> {
    inner: StreamInner<T>,
    error: Option<StorageError>,
    /// Set when an error ended iteration; stays set after `take_error` so
    /// the stream never resumes past a known-lost item.
    fused: bool,
}

impl<T: Rec> SortedStream<T> {
    /// Drain the stream into a vector.
    pub fn into_vec(mut self) -> StorageResult<Vec<T>> {
        if self.fused {
            // The stream already lost items to an error; never hand back a
            // truncated vector, even if the error was taken separately.
            return Err(self.error.take().unwrap_or(StorageError::SegmentExhausted));
        }
        match self.inner {
            StreamInner::Mem(it) => Ok(it.collect()),
            StreamInner::Merge(mut m) => {
                let mut out = Vec::new();
                while let Some(item) = m.next_item()? {
                    out.push(item);
                }
                Ok(out)
            }
        }
    }

    /// The error that fused the stream, if any.
    pub fn error(&self) -> Option<&StorageError> {
        self.error.as_ref()
    }

    /// Take the error that fused the stream. Callers draining via the
    /// `Iterator` impl must check this after exhaustion: `Some(_)` means
    /// the stream ended early and the sorted output is incomplete.
    pub fn take_error(&mut self) -> Option<StorageError> {
        self.error.take()
    }
}

impl<T: Rec> Iterator for SortedStream<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.fused {
            return None;
        }
        match &mut self.inner {
            StreamInner::Mem(it) => it.next(),
            StreamInner::Merge(m) => match m.next_item() {
                Ok(item) => item,
                Err(e) => {
                    self.error = Some(e);
                    self.fused = true;
                    None
                }
            },
        }
    }
}

struct RunCursor<T: Rec> {
    pool: Arc<BufferPool>,
    reader: SegmentReader,
    /// The run being consumed; taken (and its pages freed) on exhaustion.
    seg: Option<TempSegment>,
    buf: Vec<u8>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Rec> RunCursor<T> {
    #[inline]
    fn next(&mut self) -> StorageResult<Option<T>> {
        if self.reader.remaining() == 0 {
            self.release();
            return Ok(None);
        }
        self.reader.read_exact(&mut self.buf)?;
        Ok(Some(T::decode(&self.buf)))
    }

    /// Return the run's temp pages to the catalog (idempotent).
    fn release(&mut self) {
        if let Some(seg) = self.seg.take() {
            seg.free(&self.pool);
        }
    }
}

impl<T: Rec> Drop for RunCursor<T> {
    /// A merge dropped mid-stream (an abandoned [`SortedStream`], a failed
    /// merge pass) still frees every run it was consuming.
    fn drop(&mut self) {
        self.release();
    }
}

/// Streaming k-way merge over sorted runs.
pub struct KWayMerge<T: Rec> {
    cursors: Vec<RunCursor<T>>,
    heap: BinaryHeap<Reverse<(T, usize)>>,
}

impl<T: Rec> KWayMerge<T> {
    fn new(pool: &Arc<BufferPool>, runs: Vec<TempSegment>) -> StorageResult<Self> {
        let mut cursors: Vec<RunCursor<T>> = runs
            .into_iter()
            .map(|seg| RunCursor {
                pool: pool.clone(),
                reader: seg.reader(pool.clone()),
                seg: Some(seg),
                buf: vec![0u8; T::SIZE],
                _marker: std::marker::PhantomData,
            })
            .collect();
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (i, c) in cursors.iter_mut().enumerate() {
            if let Some(item) = c.next()? {
                heap.push(Reverse((item, i)));
            }
        }
        Ok(KWayMerge { cursors, heap })
    }

    #[inline]
    fn next_item(&mut self) -> StorageResult<Option<T>> {
        // Pause point: between merge outputs; run cursors read through
        // temp segments, never through pinned frames.
        bd_storage::pacer::checkpoint()?;
        match self.heap.pop() {
            None => Ok(None),
            Some(Reverse((item, i))) => {
                if let Some(next) = self.cursors[i].next()? {
                    self.heap.push(Reverse((next, i)));
                }
                Ok(Some(item))
            }
        }
    }
}

/// Convenience: sort `items` under `budget_bytes`, returning a vector.
pub fn sort_all<T: Rec>(
    pool: Arc<BufferPool>,
    items: impl IntoIterator<Item = T>,
    budget_bytes: usize,
) -> StorageResult<(Vec<T>, SortStats)> {
    let mut s = ExternalSorter::new(pool, budget_bytes);
    s.extend(items)?;
    let (stream, stats) = s.finish()?;
    Ok((stream.into_vec()?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::{CostModel, SimDisk};

    fn pool() -> Arc<BufferPool> {
        BufferPool::new(SimDisk::new(CostModel::default()), 64)
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x
            })
            .collect()
    }

    #[test]
    fn in_memory_sort() {
        let items = pseudo_random(1000, 7);
        let (sorted, stats) = sort_all(pool(), items.clone(), 1 << 20).unwrap();
        let mut expect = items;
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert_eq!(stats.runs, 0);
    }

    #[test]
    fn spilling_sort_matches_in_memory() {
        let items = pseudo_random(50_000, 42);
        // 64 KiB budget => 8192 u64s per run => ~7 runs.
        let (sorted, stats) = sort_all(pool(), items.clone(), 64 * 1024).unwrap();
        let mut expect = items;
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert!(stats.runs >= 6, "expected spills, got {stats:?}");
    }

    #[test]
    fn multi_pass_merge_under_tiny_budget() {
        let items = pseudo_random(200_000, 3);
        // 64 KiB budget: fan-in = 2, ~25 runs => multiple merge passes.
        let (sorted, stats) = sort_all(pool(), items.clone(), 64 * 1024).unwrap();
        let mut expect = items;
        expect.sort_unstable();
        assert_eq!(sorted.len(), expect.len());
        assert_eq!(sorted, expect);
        assert!(stats.merge_passes > 0, "{stats:?}");
    }

    #[test]
    fn duplicates_survive() {
        let mut items = pseudo_random(10_000, 9);
        items.extend_from_slice(&items.clone()); // every item twice
        let (sorted, _) = sort_all(pool(), items.clone(), 32 * 1024).unwrap();
        let mut expect = items;
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn key_rid_pairs_sort_composite() {
        let mut items: Vec<(Key, Rid)> = Vec::new();
        for i in (0..5000u64).rev() {
            items.push((i % 100, Rid::new(i as u32, (i % 5) as u16)));
        }
        let (sorted, _) = sort_all(pool(), items.clone(), 16 * 1024).unwrap();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sorted.len(), items.len());
    }

    #[test]
    fn by_rid_orders_by_rid_first() {
        let items = vec![
            ByRid(Rid::new(5, 0), 1),
            ByRid(Rid::new(1, 2), 9),
            ByRid(Rid::new(1, 1), 3),
        ];
        let (sorted, _) = sort_all(pool(), items, 1 << 16).unwrap();
        let rids: Vec<Rid> = sorted.iter().map(|b| b.0).collect();
        assert_eq!(rids, vec![Rid::new(1, 1), Rid::new(1, 2), Rid::new(5, 0)]);
    }

    #[test]
    fn empty_input() {
        let (sorted, stats) = sort_all::<u64>(pool(), [], 1024).unwrap();
        assert!(sorted.is_empty());
        assert_eq!(stats.items, 0);
    }

    #[test]
    fn spilling_sort_frees_every_temp_page() {
        use bd_storage::StructureId;
        let p = pool();
        let items = pseudo_random(50_000, 42);
        let (sorted, stats) = sort_all(p.clone(), items, 64 * 1024).unwrap();
        assert!(stats.runs >= 6, "must actually spill: {stats:?}");
        assert_eq!(sorted.len(), 50_000);
        assert!(
            p.catalog().pages_of(StructureId::Temp).is_empty(),
            "spilled sort runs must not leak Temp pages"
        );
    }

    #[test]
    fn multi_pass_merge_frees_intermediate_runs() {
        use bd_storage::StructureId;
        let p = pool();
        let items = pseudo_random(200_000, 3);
        let (_, stats) = sort_all(p.clone(), items, 64 * 1024).unwrap();
        assert!(stats.merge_passes > 0, "{stats:?}");
        assert!(
            p.catalog().pages_of(StructureId::Temp).is_empty(),
            "intermediate merge runs must be freed as they are drained"
        );
    }

    #[test]
    fn dropped_stream_frees_unconsumed_runs() {
        use bd_storage::StructureId;
        let p = pool();
        let mut sorter = ExternalSorter::new(p.clone(), 64 * 1024);
        sorter.extend(pseudo_random(50_000, 11)).unwrap();
        let (mut stream, stats) = sorter.finish().unwrap();
        assert!(stats.runs >= 2);
        // Consume a few items, then abandon the stream mid-merge.
        for _ in 0..10 {
            let _ = stream.next();
        }
        drop(stream);
        assert!(
            p.catalog().pages_of(StructureId::Temp).is_empty(),
            "an abandoned merge must free its runs"
        );
    }

    #[test]
    fn abandoned_sorter_frees_spilled_runs() {
        use bd_storage::StructureId;
        let p = pool();
        let mut sorter = ExternalSorter::new(p.clone(), 64 * 1024);
        sorter.extend(pseudo_random(30_000, 13)).unwrap();
        assert!(!p.catalog().pages_of(StructureId::Temp).is_empty());
        drop(sorter);
        assert!(
            p.catalog().pages_of(StructureId::Temp).is_empty(),
            "a sorter dropped before finish() must free its spills"
        );
    }

    #[test]
    fn spill_io_is_sequential() {
        let p = pool();
        p.reset_stats();
        let items = pseudo_random(100_000, 5);
        let _ = sort_all(p.clone(), items, 64 * 1024).unwrap();
        let s = p.disk_stats();
        assert!(
            s.total_random() * 4 <= s.total_ios(),
            "sort spill should be mostly chained: {s:?}"
        );
    }
}
