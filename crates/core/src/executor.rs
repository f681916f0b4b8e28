//! The phase-task executor: runs a delete plan as a DAG of [`PhaseTask`]s.
//!
//! §2.2's observation is that the vertical strategy decomposes a bulk
//! delete into *independent per-structure operations*: after the base-table
//! pass produced the deleted-record stream, the `⋈̄` on each remaining
//! index touches pages no other arm touches. The executor exploits exactly
//! that independence:
//!
//! * **serial phases** (`sort D`, the key-predicate probe `⋈̄`, the table
//!   `⋈̄`, and unique-index arms, which §3.1 sequences first) run in plan
//!   order on the calling thread;
//! * **fan-out groups** — one [`PhaseTask`] per remaining secondary index
//!   and per hash index — run concurrently on scoped worker threads
//!   against the shared, thread-safe `Arc<BufferPool>`.
//!
//! Every task runs under its own [`IoScope`], so the report can show both
//! the *serial* simulated clock (the disk's global sum — the 1999 cost
//! model is untouched per arm) and the *critical-path* clock (concurrent
//! arms overlap; each group costs its slowest arm).
//!
//! One claim loop runs a group, on the calling thread when one worker
//! suffices and on each scoped worker otherwise: arms are claimed in
//! submission order, and after the first failure no further arm starts
//! while arms already running finish. All workers are joined before
//! anything else happens, so no page pin outlives the run. The lowest-index
//! error is returned, and phase rows are recorded in submission order, so
//! neither depends on arm completion order. A fault is retried only by the
//! buffer pool's bounded retry.
//!
//! **Cooperative pacing**: the executor snapshots the
//! [`Pacer`](bd_storage::Pacer)s installed on the calling thread
//! ([`bd_storage::pacer::installed`]) and re-installs them on every worker
//! it spawns, so a statement driver that wraps the whole strategy call in
//! [`Pacer::enter`](bd_storage::Pacer::enter) counts the checkpoints of the
//! serial phases *and* the dispatched arms on one handle, and its hook
//! runs on whichever thread reaches each of them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use bd_storage::{DiskStats, IoScope, StorageResult};

use crate::report::PhaseRow;

/// Boxed body of one task, movable to a worker thread.
type TaskBody<'env> = Box<dyn FnOnce() -> StorageResult<()> + Send + 'env>;

/// One schedulable unit of the delete DAG: a named body that may be
/// dispatched to a worker thread. Bodies own (or exclusively borrow) the
/// structure they mutate — dispatching an arm hands that structure to one
/// worker, which is what makes the fan-out safe.
pub struct PhaseTask<'env> {
    name: String,
    body: TaskBody<'env>,
}

impl<'env> PhaseTask<'env> {
    /// A task running `body` once under the label `name`.
    pub fn new(
        name: impl Into<String>,
        body: impl FnOnce() -> StorageResult<()> + Send + 'env,
    ) -> Self {
        PhaseTask {
            name: name.into(),
            body: Box::new(body),
        }
    }

    /// The task's display label.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Executes the phase DAG of one strategy run: serial phases in order,
/// fan-out groups on up to `workers` scoped threads. Each phase's I/O is
/// attributed through its own [`IoScope`], which stays correct when arms
/// run concurrently.
pub struct PhaseExecutor {
    /// One row per executed phase, in plan order.
    rows: Vec<PhaseRow>,
    workers: usize,
    next_group: u32,
}

impl PhaseExecutor {
    /// An executor allowed `workers` concurrent arms (1 = fully serial;
    /// fan-out groups then run their arms sequentially in task order,
    /// which produces the identical physical state).
    pub fn new(workers: usize) -> Self {
        PhaseExecutor {
            rows: Vec::new(),
            workers: workers.max(1),
            next_group: 0,
        }
    }

    /// Worker budget of this executor.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run one serial phase on the calling thread. The row is recorded
    /// even when `body` fails, so partial runs still render a truthful
    /// breakdown.
    pub fn serial<T>(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce() -> StorageResult<T>,
    ) -> StorageResult<T> {
        let scope = IoScope::new();
        let result = {
            let _guard = scope.enter();
            body()
        };
        self.rows.push(PhaseRow {
            name: name.into(),
            io: scope.stats(),
            group: None,
        });
        result
    }

    /// Run a group of independent arms, concurrently when `workers > 1`.
    ///
    /// After a failure no further arm starts; arms already running finish.
    /// Every worker is joined, then the lowest-index error is returned.
    /// Rows for every task (an arm that never started reads zero I/O) are
    /// recorded in submission order.
    pub fn fan_out(&mut self, tasks: Vec<PhaseTask<'_>>) -> StorageResult<()> {
        let group = self.next_group;
        self.next_group += 1;
        let workers = self.workers.min(tasks.len());
        let (names, bodies): (Vec<String>, Vec<TaskBody<'_>>) =
            tasks.into_iter().map(|t| (t.name, t.body)).unzip();
        // No body runs while either lock is held, so neither can be
        // poisoned by a body's panic.
        let queue = Mutex::new(bodies.into_iter().enumerate());
        let done: Mutex<Vec<(usize, DiskStats, StorageResult<()>)>> = Mutex::new(Vec::new());
        // A stop flag that publishes no data (results travel through `done`),
        // so `Relaxed` suffices.
        let failed = AtomicBool::new(false);
        let claim_loop = || {
            while !failed.load(Ordering::Relaxed) {
                let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((i, body)) = claimed else { break };
                let scope = IoScope::new();
                let result = {
                    let _guard = scope.enter();
                    body()
                };
                if result.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                let mut done = done.lock().unwrap_or_else(PoisonError::into_inner);
                done.push((i, scope.stats(), result));
            }
        };
        if workers <= 1 {
            claim_loop();
        } else {
            // Hand the calling thread's pacers to every worker: arms share
            // the statement's counter and hook even though they run on
            // fresh threads with empty thread-local stacks.
            let pacers = bd_storage::pacer::installed();
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let _pace: Vec<_> = pacers.iter().map(|p| p.enter()).collect();
                        claim_loop();
                    });
                }
            });
        }

        let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
        done.sort_by_key(|&(i, ..)| i);
        let mut done = done.into_iter().peekable();
        let mut outcome = Ok(());
        for (i, name) in names.into_iter().enumerate() {
            let io = match done.next_if(|&(j, ..)| j == i) {
                Some((_, io, result)) => {
                    outcome = outcome.and(result);
                    io
                }
                None => DiskStats::default(),
            };
            self.rows.push(PhaseRow {
                name,
                io,
                group: Some(group),
            });
        }
        outcome
    }

    /// Consume the executor, yielding the phase rows in plan order.
    pub fn into_rows(self) -> Vec<PhaseRow> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::{
        BufferPool, CostModel, FaultPlan, FaultSpec, SimDisk, StorageError, StructureId,
    };
    use std::sync::Arc;

    fn pool_with_pages(n: usize) -> (Arc<BufferPool>, u32) {
        let mut disk = SimDisk::new(CostModel::default());
        let first = disk.allocate_contiguous(n, StructureId::Table);
        (BufferPool::new(disk, n.max(2)), first)
    }

    #[test]
    fn serial_phases_attribute_io_per_phase() {
        let (pool, first) = pool_with_pages(4);
        let mut exec = PhaseExecutor::new(1);
        exec.serial("one", || {
            let _ = pool.pin_read(first)?;
            Ok(())
        })
        .unwrap();
        exec.serial("two", || {
            let _ = pool.pin_read(first + 1)?;
            let _ = pool.pin_read(first + 2)?;
            Ok(())
        })
        .unwrap();
        let rows = exec.into_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].io.pages_read, 1);
        assert_eq!(rows[1].io.pages_read, 2);
        assert!(rows.iter().all(|r| r.group.is_none()));
    }

    #[test]
    fn fan_out_runs_every_arm_and_orders_rows() {
        let (pool, first) = pool_with_pages(16);
        let mut exec = PhaseExecutor::new(4);
        let tasks: Vec<PhaseTask> = (0..4u32)
            .map(|t| {
                let pool = pool.clone();
                PhaseTask::new(format!("arm {t}"), move || {
                    for i in 0..=t {
                        let _ = pool.pin_read(first + t * 4 + i)?;
                    }
                    Ok(())
                })
            })
            .collect();
        exec.fan_out(tasks).unwrap();
        let rows = exec.into_rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["arm 0", "arm 1", "arm 2", "arm 3"]);
        for (t, row) in rows.iter().enumerate() {
            assert_eq!(row.io.pages_read, t as u64 + 1, "per-arm attribution");
            assert_eq!(row.group, Some(0));
        }
    }

    #[test]
    fn a_failing_arm_lets_running_siblings_finish_and_surfaces_its_error() {
        let (pool, first) = pool_with_pages(64);
        pool.with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(first + 32)))
        });
        let mut exec = PhaseExecutor::new(2);
        let (failed_tx, failed_rx) = std::sync::mpsc::channel();
        // Claimed first, so it is running when its sibling fails: it reads
        // one page, waits for the failure, then reads its other seven.
        let sibling = {
            let pool = pool.clone();
            PhaseTask::new("sibling", move || {
                let _ = pool.pin_read(first)?;
                failed_rx
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .expect("the failing arm runs on the other worker");
                for i in 1..8 {
                    let _ = pool.pin_read(first + i)?;
                }
                Ok(())
            })
        };
        let failer = {
            let pool = pool.clone();
            PhaseTask::new("failer", move || {
                let result = pool.pin_read(first + 32).map(drop);
                failed_tx.send(()).unwrap();
                result
            })
        };
        let err = exec.fan_out(vec![sibling, failer]).unwrap_err();
        assert_eq!(err, StorageError::InjectedFault(first + 32));
        assert_eq!(pool.pinned_frames(), 0, "no pins survive the failure");
        let rows = exec.into_rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["sibling", "failer"], "both arms reported");
        assert_eq!(rows[0].io.pages_read, 8, "the running sibling finished");
    }

    #[test]
    fn pacer_pauses_fan_out_arms_at_a_pin_free_point() {
        use bd_storage::Pacer;
        use std::sync::Barrier;
        let (pool, first) = pool_with_pages(32);
        // The hook holds both arms at their first checkpoint: the first
        // barrier proves both arrived, the second keeps either from
        // pinning before the other has looked.
        let barrier = Arc::new(Barrier::new(2));
        let pinned = Arc::new(Mutex::new(Vec::new()));
        let pacer = {
            let (pool, barrier, pinned) = (pool.clone(), barrier.clone(), pinned.clone());
            Pacer::with_hook(move |n| {
                if n <= 2 {
                    barrier.wait();
                    pinned.lock().unwrap().push(pool.pinned_frames());
                    barrier.wait();
                }
                Ok(())
            })
        };
        // The driver installs the pacer once; fan_out re-installs it on
        // every worker thread it spawns.
        let _g = pacer.enter();
        let mut exec = PhaseExecutor::new(2);
        let tasks: Vec<PhaseTask> = (0..2u32)
            .map(|t| {
                let pool = pool.clone();
                PhaseTask::new(format!("arm {t}"), move || {
                    for i in 0..8 {
                        bd_storage::pacer::checkpoint()?;
                        let _ = pool.pin_read(first + t * 8 + i)?;
                    }
                    Ok(())
                })
            })
            .collect();
        exec.fan_out(tasks).unwrap();
        assert_eq!(*pinned.lock().unwrap(), [0, 0], "held arms hold no pins");
        assert_eq!(pacer.checks(), 16);
    }

    #[test]
    fn pacer_cancel_aborts_fan_out_arms() {
        use bd_storage::Pacer;
        let (pool, first) = pool_with_pages(8);
        let pacer = Pacer::with_hook(|_| Err(StorageError::Cancelled));
        let _g = pacer.enter();
        let mut exec = PhaseExecutor::new(2);
        let mk = |pid: u32| {
            let pool = pool.clone();
            PhaseTask::new(format!("arm {pid}"), move || {
                bd_storage::pacer::checkpoint()?;
                let _ = pool.pin_read(pid)?;
                Ok(())
            })
        };
        let err = exec.fan_out(vec![mk(first), mk(first + 1)]).unwrap_err();
        assert_eq!(err, StorageError::Cancelled);
        assert_eq!(pool.pinned_frames(), 0);
    }

    #[test]
    fn serial_fallback_matches_task_order_and_stops_after_error() {
        let (pool, first) = pool_with_pages(8);
        pool.with_disk(|d| {
            d.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(first + 1)))
        });
        let mut exec = PhaseExecutor::new(1);
        let mk = |pid: u32| {
            let pool = pool.clone();
            PhaseTask::new(format!("arm {pid}"), move || {
                let _ = pool.pin_read(pid)?;
                Ok(())
            })
        };
        let err = exec
            .fan_out(vec![mk(first), mk(first + 1), mk(first + 2)])
            .unwrap_err();
        assert_eq!(err, StorageError::InjectedFault(first + 1));
        let rows = exec.into_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].io.pages_read, 0, "arm after the failure skipped");
    }
}
