//! Range partitioning for the partitioned-hash `⋈̄` plan (Fig. 5).
//!
//! "If the RID list is very large and the size of the hash table exceeds
//! the size of the available main memory, then range partitioning can be
//! applied ... partition the RID-list into partitions that fit into main
//! memory and then carry out the bulk delete for each partition
//! individually." Because the target index is ordered by key, each key
//! range maps to a contiguous leaf range — "I_B and I_C can be range
//! partitioned without any cost".

use bd_storage::Rid;

use bd_btree::Key;

/// One key-range partition of a delete list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Lowest key in the partition.
    pub lo: Key,
    /// Highest key in the partition (inclusive).
    pub hi: Key,
    /// The `(key, rid)` pairs of the partition (sorted).
    pub entries: Vec<(Key, Rid)>,
}

impl Partition {
    /// The RIDs of this partition (probe-set input).
    pub fn rids(&self) -> impl Iterator<Item = Rid> + '_ {
        self.entries.iter().map(|e| e.1)
    }
}

/// Split a *sorted* `(key, rid)` list into partitions of at most
/// `max_per_partition` entries. Returns partitions in key order covering
/// every input entry exactly once.
///
/// Adjacent partitions may share a boundary key when duplicates straddle a
/// cut; the probe is by RID, so overlap in key ranges is harmless.
pub fn range_partitions(sorted: &[(Key, Rid)], max_per_partition: usize) -> Vec<Partition> {
    assert!(
        max_per_partition > 0,
        "partitions must hold at least 1 entry"
    );
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input unsorted");
    sorted
        .chunks(max_per_partition)
        .map(|chunk| Partition {
            lo: chunk[0].0,
            hi: chunk[chunk.len() - 1].0,
            entries: chunk.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: u64) -> Vec<(Key, Rid)> {
        (0..n).map(|k| (k, Rid::new(k as u32, 0))).collect()
    }

    #[test]
    fn partitions_cover_everything_in_order() {
        let input = entries(100);
        let parts = range_partitions(&input, 30);
        assert_eq!(parts.len(), 4);
        let flat: Vec<_> = parts.iter().flat_map(|p| p.entries.clone()).collect();
        assert_eq!(flat, input);
        // Key ranges are ordered and non-overlapping for unique keys.
        for w in parts.windows(2) {
            assert!(w[0].hi < w[1].lo);
        }
    }

    #[test]
    fn single_partition_when_it_fits() {
        let input = entries(10);
        let parts = range_partitions(&input, 100);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].lo, 0);
        assert_eq!(parts[0].hi, 9);
    }

    #[test]
    fn empty_input_no_partitions() {
        assert!(range_partitions(&[], 10).is_empty());
    }

    #[test]
    fn duplicate_keys_may_straddle() {
        let input: Vec<(Key, Rid)> = (0..10u16).map(|s| (5, Rid::new(0, s))).collect();
        let parts = range_partitions(&input, 4);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.lo == 5 && p.hi == 5));
        let total: usize = parts.iter().map(|p| p.entries.len()).sum();
        assert_eq!(total, 10);
    }
}
