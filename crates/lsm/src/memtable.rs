//! The mutable in-memory level.
//!
//! A sorted map from key to the newest in-memory version: a put or a
//! point tombstone. Writes are upserts: a put over a tombstone resurrects
//! the key, a tombstone over a put buries it — the flush emits only the
//! *newest* version per key, which is all the run format stores.

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

/// The in-memory write buffer: newest version per key.
#[derive(Debug, Clone, Default)]
pub struct Memtable {
    entries: BTreeMap<Key, MemEntry>,
}

impl Memtable {
    /// Buffered entries — the flush trigger compares this against the
    /// configured capacity.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Upsert a record.
    pub fn put(&mut self, key: Key, record: Vec<u8>) {
        self.entries.insert(key, MemEntry::Put(record));
    }

    /// Bury a key under a point tombstone.
    pub fn delete(&mut self, key: Key) {
        self.entries.insert(key, MemEntry::Del);
    }

    /// The newest buffered version of `key`, or `None` when the memtable
    /// has no opinion.
    pub fn get(&self, key: Key) -> Option<&MemEntry> {
        self.entries.get(&key)
    }

    /// Every buffered version, key-ascending.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &MemEntry)> {
        self.entries.iter().map(|(k, e)| (*k, e))
    }

    /// Drain into the item list a flush writes as a level-0 run: one item
    /// per key, key-ascending. Empty when nothing is buffered.
    pub fn drain_sorted(&mut self) -> Vec<(Key, Item)> {
        std::mem::take(&mut self.entries)
            .into_iter()
            .map(|(k, e)| match e {
                MemEntry::Put(rec) => (k, Item::Put(rec)),
                MemEntry::Del => (k, Item::Del),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_bury_and_resurrect() {
        let mut m = Memtable::default();
        m.put(5, vec![1]);
        m.put(7, vec![2]);
        m.delete(5);
        assert_eq!(m.get(5), Some(&MemEntry::Del));
        m.put(5, vec![3]);
        assert_eq!(m.get(5), Some(&MemEntry::Put(vec![3])));
        m.delete(4);
        assert_eq!(m.get(9), None);

        let items = m.drain_sorted();
        assert!(m.is_empty());
        assert_eq!(
            items,
            vec![
                (4, Item::Del),
                (5, Item::Put(vec![3])),
                (7, Item::Put(vec![2]))
            ]
        );
    }
}
