//! Byte-accounted memory budget for sort and hash workspaces.
//!
//! The paper's prototype shares one memory allotment between page caching
//! and sorting ("The bulk deletion algorithm uses this main memory not only
//! for caching but also to carry out sorting", §4.1). The buffer pool takes
//! its share as frames; operators reserve workspace bytes here, so a hash
//! `⋈̄` whose RID set overruns the workspace fails with `BudgetExceeded`.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::{StorageError, StorageResult};

/// Shared byte budget with reserve/release accounting.
#[derive(Debug)]
pub struct MemoryBudget {
    cap: usize,
    used: AtomicUsize,
}

impl MemoryBudget {
    /// Budget with `cap` bytes.
    pub fn new(cap: usize) -> Self {
        MemoryBudget {
            cap,
            used: AtomicUsize::new(0),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.cap.saturating_sub(self.used())
    }

    /// Reserve `bytes`, failing if the budget would be exceeded.
    pub fn reserve(&self, bytes: usize) -> StorageResult<Reservation<'_>> {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let new = cur.saturating_add(bytes);
            if new > self.cap {
                return Err(StorageError::BudgetExceeded {
                    requested: bytes,
                    available: self.cap - cur,
                });
            }
            match self
                .used
                .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    return Ok(Reservation {
                        budget: self,
                        bytes,
                    })
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

/// RAII reservation; releases its bytes on drop.
#[derive(Debug)]
pub struct Reservation<'a> {
    budget: &'a MemoryBudget,
    bytes: usize,
}

impl Reservation<'_> {
    /// Size of this reservation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Grow the reservation in place.
    pub fn grow(&mut self, extra: usize) -> StorageResult<()> {
        let r = self.budget.reserve(extra)?;
        std::mem::forget(r);
        self.bytes += extra;
        Ok(())
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.budget.used.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let b = MemoryBudget::new(1000);
        let r = b.reserve(600).unwrap();
        assert_eq!(b.used(), 600);
        assert_eq!(b.available(), 400);
        drop(r);
        assert_eq!(b.used(), 0);
        assert_eq!(b.available(), 1000);
    }

    #[test]
    fn over_reservation_fails() {
        let b = MemoryBudget::new(100);
        let _r = b.reserve(80).unwrap();
        let err = b.reserve(30).unwrap_err();
        assert_eq!(
            err,
            StorageError::BudgetExceeded {
                requested: 30,
                available: 20
            }
        );
    }

    #[test]
    fn grow_extends_reservation() {
        let b = MemoryBudget::new(100);
        let mut r = b.reserve(40).unwrap();
        r.grow(50).unwrap();
        assert_eq!(r.bytes(), 90);
        assert_eq!(b.used(), 90);
        assert!(r.grow(20).is_err());
        drop(r);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn concurrent_reservations_respect_cap() {
        let b = MemoryBudget::new(1000);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let b = &b;
                    s.spawn(move || {
                        let mut got = 0usize;
                        for _ in 0..100 {
                            if let Ok(r) = b.reserve(10) {
                                got += 10;
                                std::mem::forget(r); // keep it reserved
                            }
                        }
                        got
                    })
                })
                .collect();
            let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(total <= 1000);
            assert_eq!(b.used(), total);
        });
    }
}
