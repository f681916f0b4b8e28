//! Programmable fault injection for the simulated disk.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultSpec`]s plus an optional
//! crash point. Every disk access (a `read`, `write`, `read_chain` or
//! `write_chain` call counts as one access) is evaluated against the plan
//! before it is charged:
//!
//! * a **crash point** makes the access — and every access after it — fail
//!   with [`StorageError::SimulatedCrash`], modelling process death at a
//!   precise point of the I/O stream (the crash-at-every-I/O campaign
//!   sweeps this point across a whole run). Inside a chained write the
//!   point can name a page: the pages before it reach the platter, the
//!   rest do not;
//! * a matching **persistent** fault fails the access with
//!   [`StorageError::InjectedFault`] forever (a dead sector);
//! * a matching **transient** fault fails the next `failures` matching
//!   accesses, then heals (a timeout the buffer pool's bounded retry can
//!   ride out);
//! * a **torn write** lets the access succeed and be charged, but persists
//!   only a prefix of the page image while recording the checksum of the
//!   *intended* content — the corruption is latent until a later read
//!   fails with [`StorageError::ChecksumMismatch`].
//!
//! [`StorageError::SimulatedCrash`]: crate::StorageError::SimulatedCrash
//! [`StorageError::InjectedFault`]: crate::StorageError::InjectedFault
//! [`StorageError::ChecksumMismatch`]: crate::StorageError::ChecksumMismatch

use crate::disk::PageId;

/// Direction of the disk access a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `read` / `read_chain`.
    Read,
    /// `write` / `write_chain`.
    Write,
}

/// What arms a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Any matching access touching this page (chains match if the page
    /// lies inside the chained range).
    Page(PageId),
    /// Page `page` (0-based) of the `access`-th disk access overall
    /// (1-based, counted across both ops). An access of fewer pages is not
    /// matched, so a write-behind chain of forty pages offers forty
    /// distinct torn points, not one.
    NthAccess {
        /// Which access.
        access: u64,
        /// Which of its pages.
        page: u32,
    },
}

/// Failure mode of an armed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fails every matching access until the plan is cleared.
    Persistent,
    /// Fails the next `failures` matching accesses, then succeeds.
    Transient {
        /// How many matching accesses fail before the fault heals.
        failures: u32,
    },
    /// The next matching write is charged and acknowledged but persists
    /// only half the page; detected by checksum on a later read.
    TornWrite,
}

/// One programmed fault: trigger × op × kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What arms the fault.
    pub trigger: FaultTrigger,
    /// Which access direction it applies to.
    pub op: FaultOp,
    /// How it fails.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Persistent read fault on `pid` (the old `fail_reads_at` behaviour).
    pub fn read_page(pid: PageId) -> Self {
        FaultSpec {
            trigger: FaultTrigger::Page(pid),
            op: FaultOp::Read,
            kind: FaultKind::Persistent,
        }
    }

    /// Persistent write fault on `pid`.
    pub fn write_page(pid: PageId) -> Self {
        FaultSpec {
            trigger: FaultTrigger::Page(pid),
            op: FaultOp::Write,
            kind: FaultKind::Persistent,
        }
    }

    /// Fault armed on the n-th write access (1-based, global counter); a
    /// chained write is hit on its first page.
    pub fn write_at_access(n: u64) -> Self {
        FaultSpec::write_at_access_page(n, 0)
    }

    /// Fault armed on page `page` (0-based) of the n-th write access.
    pub fn write_at_access_page(n: u64, page: u32) -> Self {
        FaultSpec {
            trigger: FaultTrigger::NthAccess { access: n, page },
            op: FaultOp::Write,
            kind: FaultKind::Persistent,
        }
    }

    /// Make the fault transient: fail `failures` times, then heal.
    pub fn transient(mut self, failures: u32) -> Self {
        self.kind = FaultKind::Transient { failures };
        self
    }

    /// Make the fault a torn write (forces the op to `Write`).
    pub fn torn(mut self) -> Self {
        self.op = FaultOp::Write;
        self.kind = FaultKind::TornWrite;
        self
    }
}

/// Mutable state of one programmed fault inside the disk.
#[derive(Debug, Clone)]
struct FaultSlot {
    spec: FaultSpec,
    /// Matching accesses left to fail (transient / torn countdown;
    /// `u32::MAX` ≈ forever for persistent faults).
    remaining: u32,
}

/// What the plan decided for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultOutcome {
    /// Fail with `InjectedFault(pid)`.
    Fail(PageId),
    /// Proceed, but persist this page's image only partially.
    Torn(PageId),
    /// Fail with `SimulatedCrash` (and keep failing forever) once the
    /// first `persisted` pages of this access have reached the platter.
    Crash {
        /// Pages of this access written before the crash; 0 for a read
        /// and for every access after the crash point.
        persisted: u32,
    },
}

/// A programmable set of faults plus an optional crash point.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    slots: Vec<FaultSlot>,
    /// Crash point: access number and page within it.
    crash_at: Option<(u64, u32)>,
    /// Access number and page offset at which the plan first struck (a slot
    /// firing or the crash point).
    landed: Option<(u64, u32)>,
}

impl FaultPlan {
    /// An empty plan (no faults, no crash point).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a programmed fault (builder style).
    pub fn inject(mut self, spec: FaultSpec) -> Self {
        let remaining = match spec.kind {
            FaultKind::Persistent => u32::MAX,
            FaultKind::Transient { failures } => failures,
            FaultKind::TornWrite => 1,
        };
        self.slots.push(FaultSlot { spec, remaining });
        self
    }

    /// Crash the disk at access number `n` (1-based): that access and every
    /// one after it fail with [`StorageError::SimulatedCrash`].
    ///
    /// [`StorageError::SimulatedCrash`]: crate::StorageError::SimulatedCrash
    pub fn crash_at_access(self, n: u64) -> Self {
        self.crash_at_access_page(n, 0)
    }

    /// Crash the disk inside access number `n` (1-based), before its page
    /// `page` (0-based): if that access is a chained write of more than
    /// `page` pages, the pages before `page` are persisted and the rest are
    /// lost. An access with no such page (any read, when `page > 0`)
    /// completes, and the crash falls on the access after it.
    pub fn crash_at_access_page(mut self, n: u64, page: u32) -> Self {
        self.crash_at = Some((n, page));
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty() && self.crash_at.is_none()
    }

    /// Where the plan first struck: the access number and the page offset
    /// inside that access of the torn or failed page, or of the first page
    /// a crash kept off the platter. `None` while nothing has struck. A
    /// sweep reads this to learn whether the point it armed exists — page 7
    /// of a five-page chain does not — and which point to arm next.
    pub fn landed(&self) -> Option<(u64, u32)> {
        self.landed
    }

    /// Decide the fate of one access covering pages `[first, first + n)`.
    /// `access` is the 1-based global access number.
    pub(crate) fn evaluate(
        &mut self,
        op: FaultOp,
        first: PageId,
        n: u32,
        access: u64,
    ) -> Option<FaultOutcome> {
        if let Some((c, page)) = self.crash_at {
            let mid_chain = op == FaultOp::Write && page < n;
            if access > c || (access == c && (page == 0 || mid_chain)) {
                let persisted = if access == c { page } else { 0 };
                self.landed.get_or_insert((access, persisted));
                return Some(FaultOutcome::Crash { persisted });
            }
        }
        let range = first..first + n;
        for slot in &mut self.slots {
            if slot.remaining == 0 || slot.spec.op != op {
                continue;
            }
            let pid = match slot.spec.trigger {
                FaultTrigger::Page(p) if range.contains(&p) => p,
                FaultTrigger::NthAccess { access: k, page } if access == k && page < n => {
                    first + page
                }
                _ => continue,
            };
            slot.remaining = slot.remaining.saturating_sub(1);
            self.landed.get_or_insert((access, pid - first));
            return Some(match slot.spec.kind {
                FaultKind::TornWrite => FaultOutcome::Torn(pid),
                _ => FaultOutcome::Fail(pid),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fault_heals_after_k_failures() {
        let mut plan = FaultPlan::new().inject(FaultSpec::read_page(7).transient(2));
        assert_eq!(
            plan.evaluate(FaultOp::Read, 7, 1, 1),
            Some(FaultOutcome::Fail(7))
        );
        assert_eq!(
            plan.evaluate(FaultOp::Read, 7, 1, 2),
            Some(FaultOutcome::Fail(7))
        );
        assert_eq!(plan.evaluate(FaultOp::Read, 7, 1, 3), None, "healed");
    }

    #[test]
    fn persistent_fault_never_heals_and_ignores_other_ops() {
        let mut plan = FaultPlan::new().inject(FaultSpec::read_page(3));
        for access in 1..50 {
            assert_eq!(plan.evaluate(FaultOp::Write, 3, 1, access), None);
            assert_eq!(
                plan.evaluate(FaultOp::Read, 3, 1, access),
                Some(FaultOutcome::Fail(3))
            );
        }
    }

    #[test]
    fn chain_access_matches_page_inside_range() {
        let mut plan = FaultPlan::new().inject(FaultSpec::read_page(10));
        assert_eq!(
            plan.evaluate(FaultOp::Read, 8, 2, 1),
            None,
            "chain ends at 9"
        );
        assert_eq!(
            plan.evaluate(FaultOp::Read, 8, 4, 2),
            Some(FaultOutcome::Fail(10))
        );
    }

    #[test]
    fn crash_point_is_persistent_from_that_access_on() {
        let mut plan = FaultPlan::new().crash_at_access(5);
        assert_eq!(plan.evaluate(FaultOp::Read, 0, 1, 4), None);
        assert_eq!(
            plan.evaluate(FaultOp::Write, 0, 1, 5),
            Some(FaultOutcome::Crash { persisted: 0 })
        );
        assert_eq!(
            plan.evaluate(FaultOp::Read, 0, 1, 6),
            Some(FaultOutcome::Crash { persisted: 0 })
        );
        assert_eq!(plan.landed(), Some((5, 0)));
    }

    #[test]
    fn crash_point_inside_a_chain_persists_the_prefix_or_slides() {
        let mut plan = FaultPlan::new().crash_at_access_page(2, 3);
        assert_eq!(plan.evaluate(FaultOp::Write, 10, 8, 1), None);
        assert_eq!(
            plan.evaluate(FaultOp::Write, 10, 8, 2),
            Some(FaultOutcome::Crash { persisted: 3 })
        );
        assert_eq!(plan.landed(), Some((2, 3)));
        // A three-page chain has no page 3, and neither has a read: the
        // access completes and the crash falls on the next one.
        for op in [FaultOp::Write, FaultOp::Read] {
            let mut plan = FaultPlan::new().crash_at_access_page(2, 3);
            assert_eq!(plan.evaluate(op, 10, 3, 2), None);
            assert_eq!(plan.landed(), None);
            assert_eq!(
                plan.evaluate(FaultOp::Write, 20, 8, 3),
                Some(FaultOutcome::Crash { persisted: 0 })
            );
            assert_eq!(plan.landed(), Some((3, 0)));
        }
    }

    #[test]
    fn nth_access_page_addresses_one_page_of_a_chain() {
        let mut plan = FaultPlan::new().inject(FaultSpec::write_at_access_page(2, 4).torn());
        assert_eq!(plan.evaluate(FaultOp::Write, 10, 8, 1), None);
        assert_eq!(
            plan.evaluate(FaultOp::Write, 10, 8, 2),
            Some(FaultOutcome::Torn(14))
        );
        assert_eq!(plan.landed(), Some((2, 4)));
        // A chain too short to have the page is not hit at all.
        let mut plan = FaultPlan::new().inject(FaultSpec::write_at_access_page(2, 4).torn());
        assert_eq!(plan.evaluate(FaultOp::Write, 10, 4, 2), None);
        assert_eq!(plan.landed(), None);
    }

    #[test]
    fn nth_access_trigger_fires_exactly_once() {
        let mut plan = FaultPlan::new().inject(FaultSpec::write_at_access(3));
        assert_eq!(plan.evaluate(FaultOp::Write, 1, 1, 2), None);
        assert_eq!(
            plan.evaluate(FaultOp::Write, 1, 1, 3),
            Some(FaultOutcome::Fail(1))
        );
        assert_eq!(plan.evaluate(FaultOp::Write, 1, 1, 4), None);
    }
}
