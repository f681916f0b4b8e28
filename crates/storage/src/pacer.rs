//! Cooperative checkpoints for long page-visit loops.
//!
//! Every page-visit loop (B-tree leaf walks, heap passes, hash-chain walks,
//! sort/merge) calls [`checkpoint`] *between* page visits, never while it
//! holds a pin. An installed [`Pacer`] counts each checkpoint and, if it
//! carries a hook ([`Pacer::with_hook`]), calls the hook there with the
//! 1-based checkpoint number, on the thread that reached it. This is
//! VectorChord's `bulkdelete(.., check: impl Fn(), ..)`: the walker
//! guarantees a quiescent point (no pinned frame, no half-rewritten page),
//! the caller decides what runs there — foreground work, an assertion, or
//! an error such as [`StorageError::Cancelled`] that unwinds the loop
//! through the normal `Result` path.
//!
//! Pacers install like [`crate::IoScope`]s: [`Pacer::enter`] pushes the
//! handle onto a thread-local stack for the guard's lifetime, so deep loops
//! need no extra parameter, and the executor re-installs the caller's
//! pacers on each fan-out worker ([`installed`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{StorageError, StorageResult};

type Hook = dyn Fn(u64) -> StorageResult<()> + Send + Sync;

#[derive(Default)]
struct Inner {
    /// Checkpoints observed, across all threads.
    checks: AtomicU64,
    hook: Option<Box<Hook>>,
}

/// Shared checkpoint counter with an optional same-thread hook. Clones
/// share the counter and the hook.
#[derive(Clone, Default)]
pub struct Pacer {
    inner: Arc<Inner>,
}

impl Pacer {
    /// A pacer that only counts checkpoints.
    pub fn new() -> Self {
        Pacer::default()
    }

    /// A pacer that calls `hook(n)` at its `n`-th checkpoint, on the thread
    /// that reached it; an `Err` from the hook fails that checkpoint. The
    /// hook must not install a pacer on its own thread.
    pub fn with_hook(hook: impl Fn(u64) -> StorageResult<()> + Send + Sync + 'static) -> Self {
        let hook: Option<Box<Hook>> = Some(Box::new(hook));
        Pacer {
            inner: Arc::new(Inner {
                hook,
                ..Inner::default()
            }),
        }
    }

    /// Total checkpoints observed across all threads.
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }

    /// Install this pacer on the current thread; [`checkpoint`] consults it
    /// while the guard lives. Nested installs all get checked.
    pub fn enter(&self) -> PaceGuard {
        self.install(false)
    }

    /// Install with **deferred cancellation**: inside this scope a hook's
    /// `Err(Cancelled)` reads as `Ok`, so a multi-structure section (one
    /// live-delete chunk, one erasure-campaign step) is atomic under a
    /// cancel. The caller sees the cancel at its next plain
    /// [`Pacer::check`] between sections.
    pub fn enter_defer_cancel(&self) -> PaceGuard {
        self.install(true)
    }

    fn install(&self, defer_cancel: bool) -> PaceGuard {
        CURRENT.with(|stack| stack.borrow_mut().push((self.clone(), defer_cancel)));
        PaceGuard(())
    }

    /// One checkpoint, outside any install. The caller must hold no pins.
    pub fn check(&self) -> StorageResult<()> {
        self.check_inner(false)
    }

    fn check_inner(&self, defer_cancel: bool) -> StorageResult<()> {
        let n = self.inner.checks.fetch_add(1, Ordering::Relaxed) + 1;
        match &self.inner.hook {
            None => Ok(()),
            Some(hook) => match hook(n) {
                Err(StorageError::Cancelled) if defer_cancel => Ok(()),
                r => r,
            },
        }
    }
}

thread_local! {
    /// Installed pacers, outermost first, each with its defer-cancel flag.
    static CURRENT: RefCell<Vec<(Pacer, bool)>> = const { RefCell::new(Vec::new()) };
}

/// Clone of the pacers installed on the current thread, outermost first.
/// The phase-task executor re-installs these with [`Pacer::enter`] on each
/// fan-out worker, so arms share the statement's counter and hook. A
/// deferred-cancel install is re-installed in full mode: it is scoped to
/// one serial section and never spans a fan-out.
pub fn installed() -> Vec<Pacer> {
    CURRENT.with(|stack| stack.borrow().iter().map(|(p, _)| p.clone()).collect())
}

/// RAII guard deactivating a [`Pacer::enter`] on drop.
#[must_use = "the pacer is only installed while the guard lives"]
pub struct PaceGuard(());

impl Drop for PaceGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| stack.borrow_mut().pop());
    }
}

/// The checkpoint every page-visit loop calls between page visits (with no
/// pins held). No-op when no pacer is installed on this thread, or inside
/// [`crate::io_scope::bypass_cancel`]: error-path cleanup neither counts
/// nor runs a hook.
pub fn checkpoint() -> StorageResult<()> {
    if crate::io_scope::bypassing() {
        return Ok(());
    }
    CURRENT.with(|stack| {
        // The common case is an empty stack (no pacer installed): one
        // borrow, no allocation, no atomics.
        for (pacer, defer_cancel) in stack.borrow().iter() {
            pacer.check_inner(*defer_cancel)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn checkpoint_is_a_noop_without_a_pacer() {
        checkpoint().unwrap();
    }

    #[test]
    fn the_hook_sees_each_checkpoint_on_the_checkpointing_thread() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let pacer = {
            let seen = seen.clone();
            Pacer::with_hook(move |n| {
                seen.lock().unwrap().push((n, std::thread::current().id()));
                Ok(())
            })
        };
        let _g = pacer.enter();
        for _ in 0..3 {
            checkpoint().unwrap();
        }
        pacer.check().unwrap();
        let me = std::thread::current().id();
        assert_eq!(*seen.lock().unwrap(), [(1, me), (2, me), (3, me), (4, me)]);
        assert_eq!(pacer.checks(), 4);
    }

    #[test]
    fn a_hook_at_n_runs_mid_walk_and_the_walk_goes_on() {
        let at_trip = Arc::new(AtomicU64::new(0));
        let pacer = {
            let at_trip = at_trip.clone();
            Pacer::with_hook(move |n| {
                if n == 5 {
                    at_trip.fetch_add(n, Ordering::Relaxed);
                }
                Ok(())
            })
        };
        let _g = pacer.enter();
        for _ in 0..20 {
            checkpoint().unwrap();
        }
        assert_eq!(at_trip.load(Ordering::Relaxed), 5, "ran once, at 5");
        assert_eq!(pacer.checks(), 20);
    }

    #[test]
    fn a_hook_error_fails_checkpoint_and_check() {
        let pacer = Pacer::with_hook(|n| {
            if n == 2 {
                Err(StorageError::InjectedFault(7))
            } else {
                Ok(())
            }
        });
        let _g = pacer.enter();
        checkpoint().unwrap();
        assert_eq!(checkpoint(), Err(StorageError::InjectedFault(7)));
        pacer.check().unwrap();
        let cancelling = Pacer::with_hook(|_| Err(StorageError::Cancelled));
        assert_eq!(cancelling.check(), Err(StorageError::Cancelled));
    }

    #[test]
    fn defer_cancel_scope_reads_cancelled_as_ok() {
        let pacer = Pacer::with_hook(|n| {
            if n >= 2 {
                Err(StorageError::Cancelled)
            } else {
                Ok(())
            }
        });
        {
            let _g = pacer.enter_defer_cancel();
            for _ in 0..4 {
                checkpoint().unwrap();
            }
        }
        assert_eq!(pacer.checks(), 4, "deferred checkpoints still count");
        // Outside the deferred scope the cancel is fatal as usual.
        assert_eq!(pacer.check(), Err(StorageError::Cancelled));
        let _g = pacer.enter();
        assert_eq!(checkpoint(), Err(StorageError::Cancelled));
    }

    #[test]
    fn defer_cancel_passes_other_hook_errors() {
        let pacer = Pacer::with_hook(|_| Err(StorageError::InjectedFault(3)));
        let _g = pacer.enter_defer_cancel();
        assert_eq!(checkpoint(), Err(StorageError::InjectedFault(3)));
    }

    #[test]
    fn bypass_cancel_skips_pacing() {
        let pacer = Pacer::with_hook(|_| Err(StorageError::Cancelled));
        let _g = pacer.enter();
        // Error-path cleanup runs to completion under a cancelling hook:
        // the hook does not run and the count does not move.
        crate::io_scope::bypass_cancel(|| checkpoint().unwrap());
        assert_eq!(pacer.checks(), 0);
        assert_eq!(checkpoint(), Err(StorageError::Cancelled));
        assert_eq!(pacer.checks(), 1);
    }
}
