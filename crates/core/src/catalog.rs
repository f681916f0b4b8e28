//! Tables, indices, and their metadata.

use bd_btree::{BTree, BTreeConfig};
use bd_hashidx::HashIndex;
use bd_storage::HeapFile;

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
    /// Bulk-load fill factor used when (re)building the index.
    pub fill: f64,
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
            fill: 1.0,
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

    /// Override the bulk-load fill factor.
    pub fn with_fill(mut self, fill: f64) -> Self {
        self.fill = fill;
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
}
