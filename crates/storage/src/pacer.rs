//! Cooperative pacing for long page-visit loops.
//!
//! A bulk delete visits tens of thousands of pages; at production scale it
//! must share the machine with foreground traffic. A [`Pacer`] is the
//! cooperative-scheduling handle threaded through every page-visit loop
//! (B-tree leaf walks, heap passes, hash-chain walks, sort/merge): the loop
//! calls [`checkpoint`] *between* page visits — never while it holds a page
//! pin — and the pacer decides whether the loop keeps running, parks on a
//! condvar until resumed, or aborts with
//! [`StorageError::Cancelled`](crate::StorageError::Cancelled).
//!
//! The contract mirrors VectorChord's `bulkdelete` `check()`/`delay()`
//! threading: the *caller* guarantees every checkpoint is a quiescent point
//! (no pinned frames, no half-rewritten page), and the pacer guarantees a
//! paused worker burns no CPU (parked wait, not a spin) and a cancelled
//! worker unwinds through the normal `Result` path.
//!
//! Pacers install like [`crate::IoScope`]s: [`Pacer::enter`] pushes the
//! handle onto a thread-local stack for the duration of a guard, and the
//! free function [`checkpoint`] consults every installed pacer. Deep loops
//! therefore need no extra parameters — the executor installs the pacer
//! around each task body and the storage/index/exec loops below it inherit
//! it, exactly like I/O attribution.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{StorageError, StorageResult};

const RUNNING: u8 = 0;
const PAUSED: u8 = 1;
const CANCELLED: u8 = 2;

#[derive(Default)]
struct Inner {
    /// RUNNING / PAUSED / CANCELLED. Transitions only under `lock`; read
    /// lock-free on the checkpoint fast path.
    state: AtomicU8,
    lock: Mutex<()>,
    cond: Condvar,
    /// Total checkpoints observed (all threads).
    checks: AtomicU64,
    /// Auto-pause trip: when non-zero and `checks` reaches it, the
    /// checkpoint that crossed the threshold pauses the pacer itself.
    /// Deterministic "pause mid-walk" for tests and fault campaigns.
    pause_at: AtomicU64,
    /// Workers currently parked inside a checkpoint.
    parked: AtomicUsize,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pacer")
            .field("state", &self.state)
            .field("checks", &self.checks)
            .field("parked", &self.parked)
            .finish_non_exhaustive()
    }
}

/// Shared pause/cancel handle for cooperative page-visit loops.
///
/// Clones share state: the controller keeps one clone and calls
/// [`Pacer::pause`] / [`Pacer::resume`] / [`Pacer::cancel`]; workers install
/// another via [`Pacer::enter`] and hit [`checkpoint`] between page visits.
#[derive(Debug, Clone, Default)]
pub struct Pacer {
    inner: Arc<Inner>,
}

impl Pacer {
    /// A fresh, running pacer.
    pub fn new() -> Self {
        Pacer::default()
    }

    fn state(&self) -> u8 {
        self.inner.state.load(Ordering::Acquire)
    }

    /// Ask every worker to park at its next checkpoint. No-op after
    /// [`Pacer::cancel`].
    pub fn pause(&self) {
        let _g = self.inner.lock.lock();
        let _ =
            self.inner
                .state
                .compare_exchange(RUNNING, PAUSED, Ordering::AcqRel, Ordering::Acquire);
        self.inner.cond.notify_all();
    }

    /// Wake every parked worker and let checkpoints pass again. Also clears
    /// a pending [`Pacer::pause_after`] trip. No-op after [`Pacer::cancel`].
    pub fn resume(&self) {
        let _g = self.inner.lock.lock();
        self.inner.pause_at.store(0, Ordering::Release);
        let _ =
            self.inner
                .state
                .compare_exchange(PAUSED, RUNNING, Ordering::AcqRel, Ordering::Acquire);
        self.inner.cond.notify_all();
    }

    /// Abort: every worker — parked or running — fails its next checkpoint
    /// with [`StorageError::Cancelled`]. Final: a cancelled pacer never
    /// runs again.
    pub fn cancel(&self) {
        let _g = self.inner.lock.lock();
        self.inner.state.store(CANCELLED, Ordering::Release);
        self.inner.cond.notify_all();
    }

    /// Arrange for the pacer to pause itself once `n` more checkpoints have
    /// been observed (the checkpoint that crosses the threshold parks).
    /// Deterministic mid-walk pausing for tests and fault campaigns.
    pub fn pause_after(&self, n: u64) {
        let target = self.inner.checks.load(Ordering::Acquire) + n.max(1);
        self.inner.pause_at.store(target, Ordering::Release);
    }

    /// Whether the pacer is currently paused.
    pub fn is_paused(&self) -> bool {
        self.state() == PAUSED
    }

    /// Total checkpoints observed across all workers.
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Acquire)
    }

    /// Workers currently parked inside a checkpoint.
    pub fn parked(&self) -> usize {
        self.inner.parked.load(Ordering::Acquire)
    }

    /// Block (parked, not spinning) until at least `n` workers are parked,
    /// the pause request disappears, or `timeout` passes. Returns `true`
    /// when `n` workers were seen parked. A pending [`Pacer::pause_after`]
    /// trip counts as a pause request — the controller may call this right
    /// after arming the trip, before any worker has crossed it. The
    /// controller uses this to know a paused delete has actually reached a
    /// quiescent point (zero pinned frames) before inspecting or crashing
    /// the pool.
    pub fn wait_parked(&self, n: usize, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.inner.lock.lock();
        loop {
            if self.inner.parked.load(Ordering::Acquire) >= n {
                return true;
            }
            let trip_pending = self.inner.pause_at.load(Ordering::Acquire) != 0;
            if self.state() != PAUSED && !trip_pending {
                return false;
            }
            if self.inner.cond.wait_until(&mut guard, deadline).timed_out() {
                return self.inner.parked.load(Ordering::Acquire) >= n;
            }
        }
    }

    /// Install this pacer on the current thread; [`checkpoint`] consults it
    /// while the guard lives. Nested installs all get checked.
    pub fn enter(&self) -> PaceGuard {
        self.install(false)
    }

    /// Install with **deferred cancellation**: checkpoints in this scope
    /// still park on pause (page-granular), but a [`Pacer::cancel`] does
    /// not fail them — it reads as "keep running" (and wakes a parked
    /// checkpoint). A caller running a multi-structure critical section
    /// (e.g. one chunk of a chunked live delete: probe index + heap + hash
    /// indices must move together) installs this way so the section is
    /// pausable at page granularity yet atomic under cancellation; the
    /// caller observes the cancel itself at the next plain
    /// [`Pacer::check`] between sections. Scoped to this thread — the
    /// executor's [`installed`] snapshot re-installs in full mode.
    pub fn enter_defer_cancel(&self) -> PaceGuard {
        self.install(true)
    }

    fn install(&self, defer_cancel: bool) -> PaceGuard {
        CURRENT.with(|stack| {
            stack.borrow_mut().push(Installed {
                pacer: self.clone(),
                defer_cancel,
            })
        });
        PaceGuard { _priv: () }
    }

    /// One cooperative scheduling point. The caller must hold **no page
    /// pins**: a parked worker may stay parked indefinitely, and the pause
    /// contract is that a paused bulk operation leaves the buffer pool
    /// fully unpinned.
    pub fn check(&self) -> StorageResult<()> {
        self.check_inner(false)
    }

    fn check_inner(&self, defer_cancel: bool) -> StorageResult<()> {
        let n = self.inner.checks.fetch_add(1, Ordering::AcqRel) + 1;
        let trip = self.inner.pause_at.load(Ordering::Acquire);
        if trip != 0 && n >= trip {
            // Only the first crossing flips the state; later checkpoints
            // see PAUSED and park below. Pause first, clear the trip
            // second: `wait_parked` treats "trip pending" as a pause
            // request, so at no instant may both reads say "running, no
            // trip".
            self.pause();
            self.inner.pause_at.store(0, Ordering::Release);
        }
        if self.state() == RUNNING {
            return Ok(());
        }
        let mut guard = self.inner.lock.lock();
        loop {
            match self.state() {
                RUNNING => return Ok(()),
                CANCELLED => {
                    return if defer_cancel {
                        Ok(())
                    } else {
                        Err(StorageError::Cancelled)
                    };
                }
                _ => {
                    self.inner.parked.fetch_add(1, Ordering::AcqRel);
                    self.inner.cond.notify_all(); // wake wait_parked watchers
                    self.inner.cond.wait(&mut guard);
                    self.inner.parked.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
    }
}

#[derive(Clone)]
struct Installed {
    pacer: Pacer,
    defer_cancel: bool,
}

thread_local! {
    static CURRENT: RefCell<Vec<Installed>> = const { RefCell::new(Vec::new()) };
}

/// Clone of the pacers installed on the current thread, outermost first.
/// The phase-task executor snapshots this before dispatching arms to
/// worker threads and re-installs the snapshot (via [`Pacer::enter`]) on
/// each worker, so dispatched arms observe the same pause/cancel state as
/// the serial phases of the statement. Deferred-cancel installs
/// ([`Pacer::enter_defer_cancel`]) propagate in full mode: that install is
/// scoped to one serial critical section and never spans a fan-out.
pub fn installed() -> Vec<Pacer> {
    CURRENT.with(|stack| stack.borrow().iter().map(|e| e.pacer.clone()).collect())
}

/// RAII guard deactivating a [`Pacer::enter`] on drop.
#[must_use = "the pacer is only installed while the guard lives"]
pub struct PaceGuard {
    _priv: (),
}

impl Drop for PaceGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The cooperative scheduling point every page-visit loop calls between
/// page visits (with no pins held). No-op when no pacer is installed on
/// this thread, or inside [`crate::io_scope::bypass_cancel`] — error-path
/// cleanup must neither park nor abort.
pub fn checkpoint() -> StorageResult<()> {
    if crate::io_scope::bypassing() {
        return Ok(());
    }
    CURRENT.with(|stack| {
        // The common case is an empty stack (no pacer installed): one
        // borrow, no allocation, no atomics.
        for e in stack.borrow().iter() {
            e.pacer.check_inner(e.defer_cancel)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_a_noop_without_a_pacer() {
        checkpoint().unwrap();
    }

    #[test]
    fn pause_parks_and_resume_wakes() {
        let pacer = Pacer::new();
        pacer.pause();
        let worker = {
            let pacer = pacer.clone();
            std::thread::spawn(move || {
                let _g = pacer.enter();
                let mut rounds = 0u32;
                for _ in 0..8 {
                    checkpoint().unwrap();
                    rounds += 1;
                }
                rounds
            })
        };
        assert!(
            pacer.wait_parked(1, Duration::from_secs(5)),
            "worker must park at its first checkpoint"
        );
        assert_eq!(pacer.parked(), 1);
        pacer.resume();
        assert_eq!(worker.join().unwrap(), 8);
        assert_eq!(pacer.parked(), 0);
    }

    #[test]
    fn cancel_fails_running_and_parked_workers() {
        let pacer = Pacer::new();
        pacer.pause();
        let worker = {
            let pacer = pacer.clone();
            std::thread::spawn(move || {
                let _g = pacer.enter();
                checkpoint()
            })
        };
        assert!(pacer.wait_parked(1, Duration::from_secs(5)));
        pacer.cancel();
        assert_eq!(worker.join().unwrap(), Err(StorageError::Cancelled));
        // A cancelled pacer fails immediately, parked or not.
        let _g = pacer.enter();
        assert_eq!(checkpoint(), Err(StorageError::Cancelled));
    }

    #[test]
    fn pause_after_trips_mid_run() {
        let pacer = Pacer::new();
        pacer.pause_after(5);
        let worker = {
            let pacer = pacer.clone();
            std::thread::spawn(move || {
                let _g = pacer.enter();
                let mut done = 0u64;
                while done < 20 {
                    checkpoint().unwrap();
                    done += 1;
                }
                done
            })
        };
        assert!(pacer.wait_parked(1, Duration::from_secs(5)));
        assert!(pacer.is_paused());
        assert_eq!(pacer.checks(), 5, "parked exactly at the trip point");
        pacer.resume();
        assert_eq!(worker.join().unwrap(), 20);
    }

    #[test]
    fn bypass_cancel_skips_pacing() {
        let pacer = Pacer::new();
        pacer.cancel();
        let _g = pacer.enter();
        // Error-path cleanup must run to completion even under a cancelled
        // pacer.
        crate::io_scope::bypass_cancel(|| checkpoint().unwrap());
        assert_eq!(checkpoint(), Err(StorageError::Cancelled));
    }

    #[test]
    fn defer_cancel_scope_pauses_but_survives_cancel() {
        let pacer = Pacer::new();
        pacer.pause();
        let worker = {
            let pacer = pacer.clone();
            std::thread::spawn(move || {
                let _g = pacer.enter_defer_cancel();
                // Parks on the pause; the cancel below must wake it and
                // read as "keep running" rather than fail the section.
                for _ in 0..4 {
                    checkpoint().unwrap();
                }
            })
        };
        assert!(pacer.wait_parked(1, Duration::from_secs(5)));
        pacer.cancel();
        worker.join().unwrap();
        // Outside the deferred scope the cancel is fatal as usual.
        let _g = pacer.enter();
        assert_eq!(checkpoint(), Err(StorageError::Cancelled));
    }

    #[test]
    fn resume_clears_a_pending_trip() {
        let pacer = Pacer::new();
        pacer.pause_after(1);
        pacer.resume();
        let _g = pacer.enter();
        for _ in 0..10 {
            checkpoint().unwrap();
        }
        assert!(!pacer.is_paused());
    }
}
