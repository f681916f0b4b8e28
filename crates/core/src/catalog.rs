//! Tables, indices, and their metadata.

use bd_btree::{BTree, BTreeConfig};
use bd_hashidx::HashIndex;
use bd_storage::{HeapFile, PageId, Rid};

use crate::tuple::{attr_name, Schema};

/// Metadata of one index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    /// Display name, e.g. `I_A`.
    pub name: String,
    /// Attribute the index is keyed on (0 = `A`).
    pub attr: usize,
    /// Unique constraint — processed first and brought back online early
    /// during concurrent bulk deletes (§3.1).
    pub unique: bool,
    /// True when the base table is physically ordered by this attribute,
    /// so RID order implies key order (Experiment 5).
    pub clustered: bool,
    /// Node fanout configuration (Experiment 3's height knob).
    pub config: BTreeConfig,
}

impl IndexDef {
    /// A non-unique, unclustered index on `attr` with default fanout.
    pub fn secondary(attr: usize) -> Self {
        IndexDef {
            name: format!("I_{}", attr_name(attr)),
            attr,
            unique: false,
            clustered: false,
            config: BTreeConfig::default(),
        }
    }

    /// Mark unique.
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// Mark clustered.
    pub fn clustered(mut self) -> Self {
        self.clustered = true;
        self
    }

    /// Override the fanout configuration.
    pub fn with_config(mut self, config: BTreeConfig) -> Self {
        self.config = config;
        self
    }
}

/// One index: metadata plus the backing B-link tree.
pub struct Index {
    /// Index metadata.
    pub def: IndexDef,
    /// The tree.
    pub tree: BTree,
}

/// Metadata of one hash index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashIndexDef {
    /// Display name, e.g. `H_D`.
    pub name: String,
    /// Attribute the index is keyed on (0 = `A`).
    pub attr: usize,
}

/// One hash index: metadata plus the backing structure. The paper's
/// bulk-delete algorithms are B-tree-only ("this work was restricted to
/// B+-trees"); here the set-oriented drivers delete from a hash index in
/// one bucket-ordered sweep ([`HashIndex::bulk_delete`]) and only the
/// record-at-a-time paths walk one chain per record.
pub struct HashIdx {
    /// Index metadata.
    pub def: HashIndexDef,
    /// The hash table.
    pub index: HashIndex,
}

/// One table: schema, heap file, and indices.
pub struct Table {
    /// Display name.
    pub name: String,
    /// Record layout.
    pub schema: Schema,
    /// Base storage (the paper's `R(RID, A, B, C, ...)`).
    pub heap: HeapFile,
    /// B-tree indices (bulk-deletable).
    pub indices: Vec<Index>,
    /// Hash indices (bulk-deleted by bucket sweep).
    pub hash_indices: Vec<HashIdx>,
}

impl Table {
    /// Find the index on `attr`.
    pub fn index_on(&self, attr: usize) -> Option<&Index> {
        self.indices.iter().find(|i| i.def.attr == attr)
    }

    /// Find the index on `attr`, mutably.
    pub fn index_on_mut(&mut self, attr: usize) -> Option<&mut Index> {
        self.indices.iter_mut().find(|i| i.def.attr == attr)
    }

    /// Position of the index on `attr` in `indices`.
    pub fn index_pos(&self, attr: usize) -> Option<usize> {
        self.indices.iter().position(|i| i.def.attr == attr)
    }

    /// Find the hash index on `attr`.
    pub fn hash_index_on(&self, attr: usize) -> Option<&HashIdx> {
        self.hash_indices.iter().find(|i| i.def.attr == attr)
    }

    /// The table's counters as they stand in memory.
    pub fn counters(&self) -> TableCounters {
        TableCounters {
            heap_records: self.heap.len(),
            fsm: self.heap.fsm_entries(),
            trees: self
                .indices
                .iter()
                .map(|i| (i.def.attr, i.tree.len()))
                .collect(),
            hashes: self
                .hash_indices
                .iter()
                .map(|h| (h.def.attr, h.index.len()))
                .collect(),
        }
    }

    /// Overwrite the table's counters with `c`, reading no page. A tree or
    /// hash index `c` does not name keeps its counter.
    pub fn restore_counters(&mut self, c: &TableCounters) {
        self.heap.restore_counters(c.heap_records, &c.fsm);
        for &(attr, n) in &c.trees {
            if let Some(index) = self.index_on_mut(attr) {
                index.tree.set_len(n);
            }
        }
        for &(attr, n) in &c.hashes {
            if let Some(h) = self.hash_indices.iter_mut().find(|h| h.def.attr == attr) {
                h.index.set_len(n);
            }
        }
    }
}

/// What a restart loses of a table: the counters that live only in
/// memory. The logged driver records them when a statement begins, so
/// recovery can derive the final values instead of walking the table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableCounters {
    /// Live heap records.
    pub heap_records: usize,
    /// The heap's free-space map: `(page, usable free bytes)` in page
    /// order.
    pub fsm: Vec<(PageId, usize)>,
    /// `(attr, entries)` of each B-tree index.
    pub trees: Vec<(usize, usize)>,
    /// `(attr, entries)` of each hash index.
    pub hashes: Vec<(usize, usize)>,
}

impl TableCounters {
    /// The counters once the live records at `deleted` — each
    /// `record_len` bytes, with one entry in every index — are gone. Every
    /// count falls by their number. A delete clears only the record's
    /// slot entry, so each page's usable free space grows by exactly
    /// `record_len` per record deleted from it.
    pub fn after_delete(&self, deleted: &[Rid], record_len: usize) -> TableCounters {
        let n = deleted.len();
        let mut fsm = self.fsm.clone();
        for rid in deleted {
            if let Ok(i) = fsm.binary_search_by_key(&rid.page, |&(pid, _)| pid) {
                fsm[i].1 += record_len;
            }
        }
        let less = |counts: &[(usize, usize)]| -> Vec<(usize, usize)> {
            counts
                .iter()
                .map(|&(attr, e)| (attr, e.saturating_sub(n)))
                .collect()
        };
        TableCounters {
            heap_records: self.heap_records.saturating_sub(n),
            fsm,
            trees: less(&self.trees),
            hashes: less(&self.hashes),
        }
    }
}
