//! Per-task I/O accounting.
//!
//! The phase-task executor runs independent `⋈̄` arms of a bulk delete on
//! worker threads against one shared [`crate::SimDisk`]. The disk's global
//! [`DiskStats`] keep summing every charge — that sum is the *serial*
//! simulated clock. To additionally report the *critical-path* clock (what
//! the arms would cost if they truly overlapped), every charge is also
//! attributed to the [`IoScope`]s active on the charging thread.
//!
//! An [`IoScope`] holds one counter; every thread that enters it charges
//! that counter, so a scope shared across threads still sums all of their
//! I/O. Scopes nest: a charge is recorded into every scope on the current
//! thread's stack, so a whole-run scope and a per-phase scope can coexist.

use std::cell::RefCell;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::disk::DiskStats;

/// A per-task I/O tracker: enter it on any thread doing work for the task,
/// read its counters after the task joins.
#[derive(Debug, Default)]
pub struct IoScope {
    stats: Arc<Mutex<DiskStats>>,
}

impl IoScope {
    /// A scope with zeroed counters.
    pub fn new() -> Self {
        IoScope::default()
    }

    /// Activate this scope on the current thread. Disk charges made while
    /// the guard lives are attributed to this scope in addition to the
    /// disk's global counters.
    pub fn enter(&self) -> ScopeGuard {
        ACTIVE.with(|stack| stack.borrow_mut().push(self.stats.clone()));
        ScopeGuard { _priv: () }
    }

    /// The counters charged so far.
    pub fn stats(&self) -> DiskStats {
        *self.stats.lock()
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<Arc<Mutex<DiskStats>>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard deactivating the scope on the current thread.
#[must_use = "the scope is only active while the guard lives"]
pub struct ScopeGuard {
    _priv: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Attribute a charge to every scope active on this thread (no-op when none
/// is). Called by the simulated disk with the disk lock held.
pub(crate) fn record(delta: &DiskStats) {
    ACTIVE.with(|stack| {
        for stats in stack.borrow().iter() {
            stats.lock().merge(delta);
        }
    });
}

thread_local! {
    static BYPASS_CANCEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with [`crate::pacer::checkpoint`] suspended on this thread: it
/// neither counts nor runs a pacer's hook, so it never fails with
/// `Cancelled`. I/O is still charged and attributed to active scopes. Used
/// by error-path cleanup (e.g. a bulk-delete arm detaching its
/// already-freed leaves after a fault or a hook's cancel) that must finish
/// a small, bounded amount of I/O to leave the structure consistent.
pub fn bypass_cancel<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            BYPASS_CANCEL.with(|b| b.set(prev));
        }
    }
    let _restore = Restore(BYPASS_CANCEL.with(|b| b.replace(true)));
    f()
}

/// Whether this thread is inside [`bypass_cancel`], where pacer checkpoints
/// are suspended.
pub(crate) fn bypassing() -> bool {
    BYPASS_CANCEL.with(|b| b.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::disk::{CostModel, SimDisk};

    fn pool_with_pages(n: usize) -> (std::sync::Arc<BufferPool>, u32) {
        let mut disk = SimDisk::new(CostModel::default());
        let first = disk.allocate_contiguous(n, crate::StructureId::Table);
        (BufferPool::new(disk, n.max(2)), first)
    }

    #[test]
    fn scope_attributes_only_charges_inside_guard() {
        let (pool, first) = pool_with_pages(4);
        let _ = pool.pin_read(first).unwrap(); // outside any scope
        pool.clear_cache().unwrap();
        let scope = IoScope::new();
        {
            let _g = scope.enter();
            let _ = pool.pin_read(first + 1).unwrap();
        }
        let _ = pool.pin_read(first + 2).unwrap(); // after the guard dropped
        let s = scope.stats();
        assert_eq!(s.pages_read, 1);
        assert!(s.sim_ms > 0.0);
    }

    #[test]
    fn nested_scopes_both_record() {
        let (pool, first) = pool_with_pages(2);
        let outer = IoScope::new();
        let inner = IoScope::new();
        {
            let _og = outer.enter();
            let _ = pool.pin_read(first).unwrap();
            {
                let _ig = inner.enter();
                let _ = pool.pin_read(first + 1).unwrap();
            }
        }
        assert_eq!(outer.stats().pages_read, 2);
        assert_eq!(inner.stats().pages_read, 1);
    }

    #[test]
    fn shards_merge_across_threads() {
        let (pool, first) = pool_with_pages(8);
        let scope = IoScope::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let pool = pool.clone();
                let scope = &scope;
                s.spawn(move || {
                    let _g = scope.enter();
                    let _ = pool.pin_read(first + t).unwrap();
                });
            }
        });
        assert_eq!(scope.stats().pages_read, 4);
    }

    #[test]
    fn global_stats_unaffected_by_scopes() {
        let (pool, first) = pool_with_pages(2);
        pool.reset_stats();
        let scope = IoScope::new();
        let _g = scope.enter();
        let _ = pool.pin_read(first).unwrap();
        drop(_g);
        assert_eq!(pool.disk_stats().pages_read, scope.stats().pages_read);
    }
}
