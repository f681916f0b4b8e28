//! Temporary segments: sequential scratch space for external-sort runs.
//!
//! Sort runs deliberately bypass the buffer pool — spilling a run must not
//! evict the working set, and runs are written once and read once, strictly
//! sequentially. A [`SegmentWriter`] streams bytes onto freshly allocated
//! contiguous pages (charged as chained sequential writes); a
//! [`SegmentReader`] streams them back (chained sequential reads).

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::disk::{PageId, PAGE_SIZE};
use crate::error::{StorageError, StorageResult};
use crate::owner::StructureId;

/// How many pages a segment writer/reader moves per chained I/O.
const CHUNK_PAGES: usize = 8;

/// A finished temporary segment: its pages in write order plus a byte
/// length. Each extent is contiguous; a segment written without competing
/// allocations coalesces to a single extent, while sort arms spilling
/// concurrently against the shared disk produce several (their chunk
/// allocations interleave).
#[derive(Debug, Clone)]
pub struct TempSegment {
    extents: Vec<(PageId, usize)>, // (first page, page count), write order
    num_pages: usize,
    len_bytes: usize,
}

impl TempSegment {
    /// Total payload bytes stored.
    pub fn len_bytes(&self) -> usize {
        self.len_bytes
    }

    /// Number of disk pages occupied.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Number of contiguous extents (1 unless allocations interleaved).
    pub fn num_extents(&self) -> usize {
        self.extents.len()
    }

    /// Open a sequential reader over the segment.
    pub fn reader(&self, pool: Arc<BufferPool>) -> SegmentReader {
        SegmentReader {
            pool,
            seg: self.clone(),
            buf: Vec::new(),
            buf_off: 0,
            next: Vec::new(),
            ext_idx: 0,
            ext_off: 0,
            bytes_left: self.len_bytes,
        }
    }

    /// Release the segment's pages back to the catalog, one page at a time.
    ///
    /// Deliberately *not* `free_owned(StructureId::Temp)`: that would free
    /// every temp page on the disk, including the live runs of sort arms
    /// spilling concurrently. Page-level freeing is idempotent, so a
    /// segment freed twice (an explicit drain followed by a drop-time
    /// sweep) is harmless.
    pub fn free(&self, pool: &BufferPool) {
        pool.with_disk(|disk| {
            for &(first, n) in &self.extents {
                for i in 0..n {
                    disk.free_page(first + i as PageId);
                }
            }
        });
    }
}

/// Streaming writer building a [`TempSegment`].
pub struct SegmentWriter {
    pool: Arc<BufferPool>,
    chunk: Vec<u8>,
    pages: Vec<(PageId, usize)>, // (first page, page count) per flushed chunk
    len_bytes: usize,
}

impl SegmentWriter {
    /// Begin a new segment.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        SegmentWriter {
            pool,
            chunk: Vec::with_capacity(CHUNK_PAGES * PAGE_SIZE),
            pages: Vec::new(),
            len_bytes: 0,
        }
    }

    /// Append raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> StorageResult<()> {
        self.len_bytes += bytes.len();
        self.chunk.extend_from_slice(bytes);
        while self.chunk.len() >= CHUNK_PAGES * PAGE_SIZE {
            self.flush_pages(CHUNK_PAGES)?;
        }
        Ok(())
    }

    fn flush_pages(&mut self, n_pages: usize) -> StorageResult<()> {
        let bytes = n_pages * PAGE_SIZE;
        debug_assert!(self.chunk.len() >= bytes || n_pages == self.chunk.len().div_ceil(PAGE_SIZE));
        let first = self.pool.allocate_contiguous(n_pages, StructureId::Temp);
        let chunk = &mut self.chunk;
        self.pool.with_disk(|disk| {
            disk.write_chain(first, n_pages, |pid, page| {
                let i = (pid - first) as usize;
                let start = i * PAGE_SIZE;
                let end = ((i + 1) * PAGE_SIZE).min(chunk.len());
                if start < chunk.len() {
                    page[..end - start].copy_from_slice(&chunk[start..end]);
                }
            })
        })?;
        let consumed = bytes.min(self.chunk.len());
        self.chunk.drain(..consumed);
        self.pages.push((first, n_pages));
        Ok(())
    }

    /// Flush remaining bytes and return the finished segment.
    ///
    /// Every flush allocates contiguous pages, but separate flushes may not
    /// be adjacent if other allocations interleave (concurrent sort arms
    /// spilling against the shared disk). Adjacent flushes are coalesced, so
    /// the common serial case yields one extent; the reader handles both.
    pub fn finish(mut self) -> StorageResult<TempSegment> {
        if !self.chunk.is_empty() {
            let n = self.chunk.len().div_ceil(PAGE_SIZE);
            self.flush_pages(n)?;
        }
        let mut extents: Vec<(PageId, usize)> = Vec::new();
        let mut total_pages = 0;
        for &(f, n) in &self.pages {
            total_pages += n;
            match extents.last_mut() {
                Some((pf, pn)) if *pf + *pn as PageId == f => *pn += n,
                _ => extents.push((f, n)),
            }
        }
        Ok(TempSegment {
            extents,
            num_pages: total_pages,
            len_bytes: self.len_bytes,
        })
    }
}

/// Streaming reader over a [`TempSegment`], double-buffered: each chained
/// read fills the front buffer *and* a same-size read-ahead buffer, so run
/// consumption drains one while the next is already on board and a k-way
/// merge pays half the positionings per run.
pub struct SegmentReader {
    pool: Arc<BufferPool>,
    seg: TempSegment,
    buf: Vec<u8>,
    buf_off: usize,
    next: Vec<u8>,
    ext_idx: usize,
    ext_off: usize,
    bytes_left: usize,
}

impl SegmentReader {
    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes_left
    }

    fn refill(&mut self) -> StorageResult<()> {
        // The read-ahead buffer from the previous chain becomes the front
        // buffer without touching the disk.
        if !self.next.is_empty() {
            std::mem::swap(&mut self.buf, &mut self.next);
            self.next.clear();
            self.buf_off = 0;
            return Ok(());
        }
        let Some(&(ext_first, ext_len)) = self.seg.extents.get(self.ext_idx) else {
            return Err(StorageError::SegmentExhausted);
        };
        // Chained reads stay within one contiguous extent; crossing into the
        // next extent is a fresh chain (honestly charged as a new positioning
        // — the pages really are discontiguous on the simulated platter).
        let n = (2 * CHUNK_PAGES).min(ext_len - self.ext_off);
        let split = CHUNK_PAGES.min(n);
        let first = ext_first + self.ext_off as PageId;
        self.buf.clear();
        self.buf_off = 0;
        let buf = &mut self.buf;
        let next = &mut self.next;
        let read = self.pool.with_disk(|disk| {
            disk.read_chain(first, n, |pid, page| {
                if ((pid - first) as usize) < split {
                    buf.extend_from_slice(&page[..]);
                } else {
                    next.extend_from_slice(&page[..]);
                }
            })
        });
        if let Err(e) = read {
            // A torn page fails the chain part-way: drop what it delivered,
            // so a later read starts the chain over.
            self.buf.clear();
            self.next.clear();
            return Err(e);
        }
        self.ext_off += n;
        if self.ext_off == ext_len {
            self.ext_idx += 1;
            self.ext_off = 0;
        }
        Ok(())
    }

    /// Read exactly `dst.len()` bytes.
    pub fn read_exact(&mut self, dst: &mut [u8]) -> StorageResult<()> {
        if dst.len() > self.bytes_left {
            return Err(StorageError::SegmentExhausted);
        }
        let mut filled = 0;
        while filled < dst.len() {
            if self.buf_off >= self.buf.len() {
                self.refill()?;
            }
            let take = (dst.len() - filled).min(self.buf.len() - self.buf_off);
            dst[filled..filled + take]
                .copy_from_slice(&self.buf[self.buf_off..self.buf_off + take]);
            self.buf_off += take;
            filled += take;
        }
        self.bytes_left -= dst.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{CostModel, SimDisk};

    fn pool() -> Arc<BufferPool> {
        BufferPool::new(SimDisk::new(CostModel::default()), 16)
    }

    #[test]
    fn roundtrip_small() {
        let pool = pool();
        let mut w = SegmentWriter::new(pool.clone());
        w.write(b"hello segment").unwrap();
        let seg = w.finish().unwrap();
        assert_eq!(seg.len_bytes(), 13);
        let mut r = seg.reader(pool);
        let mut buf = [0u8; 13];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello segment");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_multi_chunk() {
        let pool = pool();
        let data: Vec<u8> = (0..CHUNK_PAGES * PAGE_SIZE * 2 + 777)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut w = SegmentWriter::new(pool.clone());
        // Write in awkward pieces.
        for piece in data.chunks(1000) {
            w.write(piece).unwrap();
        }
        let seg = w.finish().unwrap();
        assert_eq!(seg.len_bytes(), data.len());
        let mut r = seg.reader(pool);
        let mut out = vec![0u8; data.len()];
        // Read in different awkward pieces.
        for piece in out.chunks_mut(313) {
            r.read_exact(piece).unwrap();
        }
        assert_eq!(out, data);
    }

    #[test]
    fn read_past_end_is_error() {
        let pool = pool();
        let mut w = SegmentWriter::new(pool.clone());
        w.write(&[1, 2, 3]).unwrap();
        let seg = w.finish().unwrap();
        let mut r = seg.reader(pool);
        let mut buf = [0u8; 4];
        assert_eq!(
            r.read_exact(&mut buf).unwrap_err(),
            StorageError::SegmentExhausted
        );
    }

    #[test]
    fn segment_io_is_sequential() {
        let pool = pool();
        pool.reset_stats();
        let data = vec![7u8; CHUNK_PAGES * PAGE_SIZE * 3];
        let mut w = SegmentWriter::new(pool.clone());
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();
        let mut r = seg.reader(pool.clone());
        let mut out = vec![0u8; data.len()];
        r.read_exact(&mut out).unwrap();
        let s = pool.disk_stats();
        // 3 chained writes + 3 chained reads; at most one positioning each.
        assert!(s.total_random() <= 6, "random ios: {}", s.total_random());
        assert_eq!(s.pages_written, (data.len() / PAGE_SIZE) as u64);
    }

    #[test]
    fn interleaved_allocations_yield_multi_extent_segment() {
        // Two writers spilling alternately (as concurrent sort arms do):
        // each one's flushes land on discontiguous pages, so the finished
        // segments carry multiple extents and must still round-trip.
        let pool = pool();
        let data_a: Vec<u8> = (0..CHUNK_PAGES * PAGE_SIZE * 3 + 99)
            .map(|i| (i % 241) as u8)
            .collect();
        let data_b: Vec<u8> = (0..CHUNK_PAGES * PAGE_SIZE * 3 + 41)
            .map(|i| (i % 239) as u8)
            .collect();
        let mut w_a = SegmentWriter::new(pool.clone());
        let mut w_b = SegmentWriter::new(pool.clone());
        let step = CHUNK_PAGES * PAGE_SIZE;
        for i in 0..3 {
            w_a.write(&data_a[i * step..((i + 1) * step).min(data_a.len())])
                .unwrap();
            w_b.write(&data_b[i * step..((i + 1) * step).min(data_b.len())])
                .unwrap();
        }
        w_a.write(&data_a[3 * step..]).unwrap();
        w_b.write(&data_b[3 * step..]).unwrap();
        let seg_a = w_a.finish().unwrap();
        let seg_b = w_b.finish().unwrap();
        assert!(seg_a.num_extents() > 1, "flushes interleaved");
        assert!(seg_b.num_extents() > 1, "flushes interleaved");
        for (seg, data) in [(seg_a, data_a), (seg_b, data_b)] {
            let mut r = seg.reader(pool.clone());
            let mut out = vec![0u8; data.len()];
            r.read_exact(&mut out).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn free_releases_every_page_but_only_its_own() {
        let pool = pool();
        let mut w_a = SegmentWriter::new(pool.clone());
        w_a.write(&vec![1u8; CHUNK_PAGES * PAGE_SIZE + 5]).unwrap();
        let seg_a = w_a.finish().unwrap();
        let mut w_b = SegmentWriter::new(pool.clone());
        w_b.write(&vec![2u8; PAGE_SIZE]).unwrap();
        let seg_b = w_b.finish().unwrap();
        let temp_pages = pool.catalog().pages_of(StructureId::Temp).len();
        assert_eq!(temp_pages, seg_a.num_pages() + seg_b.num_pages());
        // Freeing one segment must not touch the other's live pages.
        seg_a.free(&pool);
        assert_eq!(
            pool.catalog().pages_of(StructureId::Temp).len(),
            seg_b.num_pages()
        );
        let mut r = seg_b.reader(pool.clone());
        let mut out = vec![0u8; PAGE_SIZE];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, vec![2u8; PAGE_SIZE]);
        seg_b.free(&pool);
        seg_b.free(&pool); // double free is a no-op
        assert!(pool.catalog().pages_of(StructureId::Temp).is_empty());
    }

    #[test]
    fn reader_double_buffers_within_an_extent() {
        let pool = pool();
        let data = vec![9u8; CHUNK_PAGES * PAGE_SIZE * 4];
        let mut w = SegmentWriter::new(pool.clone());
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();
        assert_eq!(seg.num_extents(), 1);
        pool.reset_stats();
        let mut r = seg.reader(pool.clone());
        let mut out = vec![0u8; data.len()];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, data);
        let s = pool.disk_stats();
        // 32 pages in double-chunk chains of 16: two chains, not four.
        assert_eq!(s.pages_read, 32);
        assert!(s.total_random() <= 2, "random ios: {}", s.total_random());
    }

    #[test]
    fn a_torn_page_fails_the_chain_and_the_next_read_starts_it_over() {
        use crate::fault::{FaultPlan, FaultSpec};
        let pool = pool();
        let data: Vec<u8> = (0..CHUNK_PAGES * PAGE_SIZE * 2)
            .map(|i| (i % 253) as u8)
            .collect();
        // The segment's fourth page tears as it is written.
        let torn = pool.with_disk(|d| d.num_pages()) as PageId + 3;
        pool.with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_page(torn).torn()))
        });
        let mut w = SegmentWriter::new(pool.clone());
        w.write(&data).unwrap();
        let seg = w.finish().unwrap();
        let mut r = seg.reader(pool.clone());
        let mut out = vec![0u8; data.len()];
        // The chain delivered three pages before the fourth failed it.
        assert_eq!(
            r.read_exact(&mut out[..PAGE_SIZE]),
            Err(StorageError::ChecksumMismatch(torn))
        );
        // Accept the torn image: the reader starts the chain over and
        // returns exactly what the disk holds, the three pages once.
        pool.with_disk(|d| d.accept_torn_page(torn)).unwrap();
        r.read_exact(&mut out).unwrap();
        let mut expect = data;
        let tail = torn as usize * PAGE_SIZE + PAGE_SIZE / 2..(torn as usize + 1) * PAGE_SIZE;
        expect[tail].fill(0);
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_segment() {
        let pool = pool();
        let w = SegmentWriter::new(pool.clone());
        let seg = w.finish().unwrap();
        assert_eq!(seg.len_bytes(), 0);
        assert_eq!(seg.num_pages(), 0);
        let mut r = seg.reader(pool);
        r.read_exact(&mut []).unwrap();
    }
}
