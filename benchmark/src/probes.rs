//! Probes: short direct call loops into the storage layers that sit below
//! every span, on a synthetic page stream sized to the workload's pool.
//! They give the host cost of one page, one hit, one miss, one pacer
//! check and one lock, none of which a span around a whole pass can
//! separate.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bd_storage::{pacer, BufferPool, CostModel, Pacer, PageId, SimDisk, StructureId};
use bd_txn::{LockManager, LockMode};

use crate::common::err;
use crate::metrics::Metrics;

/// Pages each probe touches; enough for a stable mean, a few tens of
/// milliseconds in all.
const TOUCHES: usize = 40_000;

fn ns_per(op_count: usize, start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / op_count as f64
}

/// A pool of `frames` frames over a disk of `pages` allocated pages.
fn pool_over(frames: usize, pages: usize) -> (Arc<BufferPool>, PageId) {
    let mut disk = SimDisk::new(CostModel::default());
    let first = disk.allocate_contiguous(pages, StructureId::Table);
    (BufferPool::new(disk, frames.max(2)), first)
}

/// Pin `touches` pages of `first..first + span` round robin.
fn pin_stream(pool: &BufferPool, first: PageId, span: usize, touches: usize) -> Result<(), String> {
    for i in 0..touches {
        let page = pool.pin_read(first + (i % span) as PageId).map_err(err)?;
        black_box(page[0]);
    }
    Ok(())
}

pub fn run(pool_frames: usize, m: &mut Metrics) -> Result<(), String> {
    let frames = pool_frames.max(8);

    // Disk: 8-page chains, the read-ahead window, read then written back.
    {
        let mut disk = SimDisk::new(CostModel::default());
        let pages = 4 * frames;
        let first = disk.allocate_contiguous(pages, StructureId::Table);
        let chains = TOUCHES / 16;
        let start = Instant::now();
        for i in 0..chains {
            let at = first + ((i * 8) % (pages - 8)) as PageId;
            let mut sum = 0u8;
            disk.read_chain(at, 8, |_, page| sum = sum.wrapping_add(page[0]))
                .map_err(err)?;
            disk.write_chain(at, 8, |_, page| page[0] = sum)
                .map_err(err)?;
        }
        m.set("storage.disk.host_ns_per_page", ns_per(chains * 16, start));
    }

    // Buffer pool, hit path: a resident set half the pool's size.
    {
        let resident = (frames / 2).max(1);
        let (pool, first) = pool_over(frames, resident);
        pin_stream(&pool, first, resident, resident)?;
        let start = Instant::now();
        pin_stream(&pool, first, resident, TOUCHES)?;
        m.set("storage.buffer.host_ns_per_hit", ns_per(TOUCHES, start));
    }

    // Miss path: a cyclic stream four times the pool, so every pin evicts.
    {
        let span = 4 * frames;
        let (pool, first) = pool_over(frames, span);
        pin_stream(&pool, first, span, span)?;
        let start = Instant::now();
        pin_stream(&pool, first, span, TOUCHES)?;
        m.set("storage.buffer.host_ns_per_miss", ns_per(TOUCHES, start));
    }

    // The same stream from two threads on disjoint ranges of one pool: what
    // the pool's two global mutexes cost two bulk-delete arms.
    {
        let span = 4 * frames;
        let (pool, first) = pool_over(frames, 2 * span);
        let start = Instant::now();
        std::thread::scope(|s| {
            let halves: Vec<_> = (0..2)
                .map(|half| {
                    let pool = &pool;
                    s.spawn(move || {
                        pin_stream(pool, first + (half * span) as PageId, span, TOUCHES / 2)
                    })
                })
                .collect();
            halves
                .into_iter()
                .try_for_each(|h| h.join().expect("probe thread panicked"))
        })?;
        m.set("storage.buffer.host_ns_per_miss_2t", ns_per(TOUCHES, start));
    }

    // Pacer: one installed, running pacer.
    {
        let checks = 25 * TOUCHES;
        let pacer = Pacer::new();
        let _pace = pacer.enter();
        let start = Instant::now();
        for _ in 0..checks {
            pacer::checkpoint().map_err(err)?;
        }
        m.set("storage.pacer.host_ns_per_check", ns_per(checks, start));
    }

    // Lock manager: uncontended shared acquire + release.
    {
        let locks = LockManager::new(Duration::from_secs(1));
        let start = Instant::now();
        for txn in 0..TOUCHES as u64 {
            locks
                .acquire(txn, 0, LockMode::Shared)
                .map_err(|e| format!("{e:?}"))?;
            locks.release_all(txn);
        }
        m.set("txn.lock.host_ns_per_acquire", ns_per(TOUCHES, start));
    }
    Ok(())
}
