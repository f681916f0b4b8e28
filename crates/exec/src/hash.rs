//! Byte-accounted hash workspaces for the hash-based `⋈̄` plans.
//!
//! The classic-hash plan (Fig. 4) "is particularly attractive if the hash
//! table really fits into physical main memory; in fact, it is only
//! necessary that the RIDs (without any keys) fit into main memory".
//! [`RidSet`] is that structure: a RID hash set whose construction reserves
//! its footprint against a [`MemoryBudget`], so "fits in memory" is
//! enforced rather than assumed: a set that overruns the workspace fails
//! with `BudgetExceeded`.

use std::collections::HashSet;

use bd_storage::budget::Reservation;
use bd_storage::{MemoryBudget, Rid, StorageResult};

/// Estimated bytes per RID entry in a hash set (payload + table overhead).
pub const BYTES_PER_RID: usize = 24;

/// Footprint a [`RidSet`] over `n` RIDs will reserve.
pub fn rid_set_bytes(n: usize) -> usize {
    n * BYTES_PER_RID
}

/// A RID hash set holding a budget reservation for its lifetime.
#[derive(Debug)]
pub struct RidSet<'a> {
    set: HashSet<Rid>,
    _reservation: Reservation<'a>,
}

impl<'a> RidSet<'a> {
    /// Build from an iterator of RIDs, reserving against `budget`.
    pub fn build(
        budget: &'a MemoryBudget,
        rids: impl IntoIterator<Item = Rid>,
    ) -> StorageResult<Self> {
        let set: HashSet<Rid> = rids.into_iter().collect();
        let reservation = budget.reserve(rid_set_bytes(set.len()))?;
        Ok(RidSet {
            set,
            _reservation: reservation,
        })
    }

    /// Membership probe.
    pub fn contains(&self, rid: Rid) -> bool {
        self.set.contains(&rid)
    }

    /// Number of RIDs.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Access the raw set (for handing to index-side probe operators).
    pub fn as_set(&self) -> &HashSet<Rid> {
        &self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::StorageError;

    #[test]
    fn rid_set_probes() {
        let budget = MemoryBudget::new(1 << 20);
        let rids = [Rid::new(1, 0), Rid::new(2, 3)];
        let set = RidSet::build(&budget, rids).unwrap();
        assert!(set.contains(Rid::new(1, 0)));
        assert!(!set.contains(Rid::new(1, 1)));
        assert_eq!(set.len(), 2);
        assert_eq!(budget.used(), rid_set_bytes(2));
    }

    #[test]
    fn rid_set_respects_budget() {
        let budget = MemoryBudget::new(10 * BYTES_PER_RID);
        let rids: Vec<Rid> = (0..11u32).map(|i| Rid::new(i, 0)).collect();
        let err = RidSet::build(&budget, rids).unwrap_err();
        assert!(matches!(err, StorageError::BudgetExceeded { .. }));
        // Nothing leaks on failure.
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn releasing_set_frees_budget() {
        let budget = MemoryBudget::new(1 << 16);
        {
            let _set = RidSet::build(&budget, (0..100u32).map(|i| Rid::new(i, 0))).unwrap();
            assert!(budget.used() > 0);
        }
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn duplicate_rids_counted_once() {
        let budget = MemoryBudget::new(1 << 20);
        let rids = vec![Rid::new(1, 0); 50];
        let set = RidSet::build(&budget, rids).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(budget.used(), rid_set_bytes(1));
    }
}
