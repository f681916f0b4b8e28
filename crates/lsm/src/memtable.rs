//! The mutable in-memory level.
//!
//! A sorted map from key to the newest in-memory version (a put or a
//! point tombstone) plus the pending range tombstones. Writes are
//! upserts: a put over a tombstone resurrects the key, a tombstone over a
//! put buries it — the flush emits only the *newest* version per key,
//! which is all the run format stores.
//!
//! A range delete is applied eagerly to the memtable's own entries (the
//! tombstone is newer than all of them, so they are simply dropped) and
//! recorded as a pending `[lo, hi]` tombstone that the flush writes into
//! the run to shadow everything in the older levels.

use std::collections::BTreeMap;

use bd_btree::Key;

use crate::run::Item;

/// One buffered version of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemEntry {
    /// The key holds this encoded record.
    Put(Vec<u8>),
    /// The key is deleted.
    Del,
}

/// The in-memory write buffer: newest version per key + pending range
/// tombstones.
#[derive(Debug, Clone, Default)]
pub struct Memtable {
    entries: BTreeMap<Key, MemEntry>,
    range_tombs: Vec<(Key, Key)>,
}

impl Memtable {
    /// Empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Buffered items (point entries + range tombstones) — the flush
    /// trigger compares this against the configured capacity.
    pub fn len(&self) -> usize {
        self.entries.len() + self.range_tombs.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.range_tombs.is_empty()
    }

    /// Number of buffered tombstones (point + range).
    pub fn tombstones(&self) -> usize {
        self.range_tombs.len()
            + self
                .entries
                .values()
                .filter(|e| matches!(e, MemEntry::Del))
                .count()
    }

    /// Upsert a record.
    pub fn put(&mut self, key: Key, record: Vec<u8>) {
        self.entries.insert(key, MemEntry::Put(record));
    }

    /// Bury a key under a point tombstone.
    pub fn delete(&mut self, key: Key) {
        self.entries.insert(key, MemEntry::Del);
    }

    /// Bury `lo ..= hi`: drops the memtable's own entries in the range
    /// (the tombstone is newer than all of them) and records the range
    /// tombstone for the older levels. An inverted range (`lo > hi`) is
    /// empty and a no-op, matching the B-tree engine's `delete_range`.
    pub fn delete_range(&mut self, lo: Key, hi: Key) {
        if lo > hi {
            return;
        }
        let doomed: Vec<Key> = self.entries.range(lo..=hi).map(|(k, _)| *k).collect();
        for k in doomed {
            self.entries.remove(&k);
        }
        self.range_tombs.push((lo, hi));
    }

    /// The newest buffered version of `key`, if any. `None` means the
    /// memtable has no opinion — unless a buffered range tombstone covers
    /// the key, in which case the verdict is `Some(Del)`.
    pub fn get(&self, key: Key) -> Option<&MemEntry> {
        if let Some(e) = self.entries.get(&key) {
            return Some(e);
        }
        if self
            .range_tombs
            .iter()
            .any(|&(lo, hi)| lo <= key && key <= hi)
        {
            return Some(&MemEntry::Del);
        }
        None
    }

    /// The buffered range tombstones, in insertion order.
    pub fn range_tombs(&self) -> &[(Key, Key)] {
        &self.range_tombs
    }

    /// Point entries in `lo ..= hi`, key-ascending; empty when `lo > hi`.
    pub fn range(&self, lo: Key, hi: Key) -> Vec<(Key, MemEntry)> {
        if lo > hi {
            return Vec::new();
        }
        self.entries
            .range(lo..=hi)
            .map(|(k, e)| (*k, e.clone()))
            .collect()
    }

    /// Drain into the sorted item list a flush writes as a level-0 run:
    /// one item per point entry, plus one range-tombstone item at each
    /// `lo`. Returns an empty vec when nothing is buffered.
    pub fn drain_sorted(&mut self) -> Vec<(Key, Item)> {
        let mut items: Vec<(Key, Item)> = std::mem::take(&mut self.entries)
            .into_iter()
            .map(|(k, e)| match e {
                MemEntry::Put(rec) => (k, Item::Put(rec)),
                MemEntry::Del => (k, Item::Del),
            })
            .collect();
        for (lo, hi) in std::mem::take(&mut self.range_tombs) {
            items.push((lo, Item::RangeDel(hi)));
        }
        items.sort_by_key(|(k, _)| *k);
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_bury_resurrect_and_range_kill() {
        let mut m = Memtable::new();
        m.put(5, vec![1]);
        m.put(7, vec![2]);
        m.delete(5);
        assert_eq!(m.get(5), Some(&MemEntry::Del));
        m.put(5, vec![3]);
        assert_eq!(m.get(5), Some(&MemEntry::Put(vec![3])));

        m.delete_range(4, 6);
        assert_eq!(m.get(5), Some(&MemEntry::Del), "range tombstone covers 5");
        assert_eq!(m.get(7), Some(&MemEntry::Put(vec![2])));
        assert_eq!(m.get(4), Some(&MemEntry::Del), "covers absent keys too");
        assert_eq!(m.get(9), None);

        let items = m.drain_sorted();
        assert!(m.is_empty());
        assert_eq!(items, vec![(4, Item::RangeDel(6)), (7, Item::Put(vec![2]))]);
    }

    #[test]
    fn inverted_ranges_are_empty_no_ops() {
        let mut m = Memtable::new();
        m.put(5, vec![1]);
        m.delete_range(10, 5);
        assert_eq!(m.get(5), Some(&MemEntry::Put(vec![1])), "nothing deleted");
        assert!(m.range_tombs().is_empty(), "no tombstone recorded");
        assert!(m.range(10, 5).is_empty());
        assert_eq!(m.len(), 1);
    }
}
