//! The `Database` facade: pool + workspace + tables.

use std::sync::Arc;

use bd_btree::{bulk_load, BTree, Key};
use bd_exec::sort_all;
use bd_hashidx::HashIndex;
use bd_storage::{
    BufferPool, CostModel, HeapFile, MemoryBudget, Rid, SimDisk, StorageResult, StructureId,
};

use crate::catalog::{Index, IndexDef, Table};
use crate::constraint::ForeignKey;
use crate::error::{DbError, DbResult};
use crate::tuple::{Schema, Tuple};

/// Identifier of a table within a [`Database`].
pub type TableId = usize;

/// Memory configuration. The simulated disk always runs the default
/// [`CostModel`], the paper's 1999 disk.
///
/// The paper's prototype shares one allotment between page caching and sort
/// workspace ("this main memory [is used] not only for caching but also to
/// carry out sorting"). [`DatabaseConfig::with_total_memory`] splits a total
/// budget 3/4 buffer pool, 1/4 sort/hash workspace; both halves can also be
/// set explicitly.
#[derive(Debug, Clone, Copy)]
pub struct DatabaseConfig {
    /// Bytes for the buffer pool (page cache).
    pub pool_bytes: usize,
    /// Bytes for sort runs and hash tables.
    pub workspace_bytes: usize,
}

impl DatabaseConfig {
    /// Split `bytes` into 3/4 pool, 1/4 workspace.
    pub fn with_total_memory(bytes: usize) -> Self {
        DatabaseConfig {
            pool_bytes: bytes / 4 * 3,
            workspace_bytes: bytes / 4,
        }
    }
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        // The paper's default: 10 MB total.
        DatabaseConfig::with_total_memory(10 << 20)
    }
}

/// An embedded single-node database over the simulated disk.
pub struct Database {
    pool: Arc<BufferPool>,
    workspace: Arc<MemoryBudget>,
    tables: Vec<Table>,
    foreign_keys: Vec<ForeignKey>,
}

impl Database {
    /// Fresh database with the given memory configuration.
    pub fn new(config: DatabaseConfig) -> Self {
        let disk = SimDisk::new(CostModel::default());
        Database {
            pool: BufferPool::with_byte_budget(disk, config.pool_bytes),
            workspace: Arc::new(MemoryBudget::new(config.workspace_bytes)),
            tables: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The sort/hash workspace budget.
    pub fn workspace(&self) -> &Arc<MemoryBudget> {
        &self.workspace
    }

    /// Create an empty table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> TableId {
        let heap = HeapFile::create(self.pool.clone());
        self.tables.push(Table {
            name: name.to_string(),
            schema,
            heap,
            indices: Vec::new(),
            hash_indices: Vec::new(),
        });
        self.tables.len() - 1
    }

    /// Number of tables in the catalog.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Access a table.
    pub fn table(&self, id: TableId) -> DbResult<&Table> {
        self.tables.get(id).ok_or(DbError::NoSuchTable(id))
    }

    /// Access a table mutably.
    pub fn table_mut(&mut self, id: TableId) -> DbResult<&mut Table> {
        self.tables.get_mut(id).ok_or(DbError::NoSuchTable(id))
    }

    /// Insert a tuple, maintaining every index. Enforces unique
    /// constraints. Returns the new RID.
    pub fn insert(&mut self, id: TableId, tuple: &Tuple) -> DbResult<Rid> {
        let table = self.tables.get_mut(id).ok_or(DbError::NoSuchTable(id))?;
        let bytes = table.schema.encode(tuple)?;
        for index in &table.indices {
            if index.def.unique && !index.tree.search(tuple.attr(index.def.attr))?.is_empty() {
                return Err(DbError::DuplicateKey {
                    attr: index.def.attr,
                    key: tuple.attr(index.def.attr),
                });
            }
        }
        let rid = table.heap.insert(&bytes)?;
        for index in &mut table.indices {
            index.tree.insert(tuple.attr(index.def.attr), rid)?;
        }
        for h in &mut table.hash_indices {
            h.index.insert(tuple.attr(h.def.attr), rid)?;
        }
        Ok(rid)
    }

    /// Read the tuple at `rid`.
    pub fn get(&self, id: TableId, rid: Rid) -> DbResult<Tuple> {
        let table = self.table(id)?;
        let bytes = table.heap.get(rid)?;
        Ok(table.schema.decode(&bytes))
    }

    /// Look up RIDs by key through the index on `attr`.
    pub fn lookup(&self, id: TableId, attr: usize, key: Key) -> DbResult<Vec<Rid>> {
        let table = self.table(id)?;
        let index = table.index_on(attr).ok_or(DbError::NoSuchIndex { attr })?;
        Ok(index.tree.search(key)?)
    }

    /// Build an index described by `def` over the current table contents
    /// ([`build_index`]).
    pub fn create_index(&mut self, id: TableId, def: IndexDef) -> DbResult<()> {
        let sort_bytes = self.workspace.capacity().max(4096);
        let table = self.tables.get_mut(id).ok_or(DbError::NoSuchTable(id))?;
        if table.index_on(def.attr).is_some() {
            return Err(DbError::IndexExists { attr: def.attr });
        }
        let owner = StructureId::index_of(id, def.attr);
        let tree = build_index(
            &self.pool,
            &table.heap,
            table.schema,
            &def,
            owner,
            sort_bytes,
        )?;
        table.indices.push(Index { def, tree });
        Ok(())
    }

    /// Build a hash index on `attr` over the current table contents
    /// ([`build_hash`]). Every bulk-delete driver then maintains it with one
    /// bucket-ordered sweep per statement.
    pub fn create_hash_index(&mut self, id: TableId, attr: usize) -> DbResult<()> {
        let table = self.tables.get_mut(id).ok_or(DbError::NoSuchTable(id))?;
        if table.hash_index_on(attr).is_some() {
            return Err(DbError::IndexExists { attr });
        }
        let owner = StructureId::hash_of(id, attr);
        let index = build_hash(&self.pool, &table.heap, table.schema, attr, owner)?;
        table.hash_indices.push(crate::catalog::HashIdx {
            def: crate::catalog::HashIndexDef {
                name: format!("H_{}", crate::tuple::attr_name(attr)),
                attr,
            },
            index,
        });
        Ok(())
    }

    /// Register a referential constraint (checked by
    /// [`crate::strategy::vertical_with_constraints`]).
    pub fn add_foreign_key(&mut self, fk: ForeignKey) {
        self.foreign_keys.push(fk);
    }

    /// Constraints whose *parent* side is any attribute of `tid`.
    pub fn foreign_keys_on_table(&self, tid: TableId) -> Vec<ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.parent == tid)
            .cloned()
            .collect()
    }

    /// `DELETE FROM <table> WHERE <attr> IN (<keys>)` — the crate's
    /// front-door API: enforces registered referential constraints
    /// vertically and early, then executes the sort/merge vertical bulk
    /// delete ([`crate::plan_sort_merge`]) on every table of the cascade.
    pub fn delete_in(
        &mut self,
        id: TableId,
        attr: usize,
        keys: &[Key],
    ) -> DbResult<crate::strategy::DeleteOutcome> {
        crate::strategy::vertical_with_constraints(
            self,
            id,
            attr,
            keys,
            bd_btree::ReorgPolicy::FreeAtEmpty,
        )
    }

    /// Do to table `id` what a restart does: its counters live only in
    /// memory ([`crate::TableCounters`]), so they are lost. They are set to
    /// junk rather than zero, so a recovery that trusts one without
    /// restoring it leaves a counter the audits reject. The fault sweeps
    /// call this after every simulated restart.
    pub fn scramble_counters(&mut self, id: TableId) -> DbResult<()> {
        const JUNK: usize = usize::MAX / 2;
        let table = self.table_mut(id)?;
        let mut junk = table.counters();
        junk.heap_records = JUNK;
        junk.fsm.clear();
        for (_, n) in junk.trees.iter_mut().chain(&mut junk.hashes) {
            *n = JUNK;
        }
        table.restore_counters(&junk);
        Ok(())
    }

    /// Full consistency check: [`crate::audit_table`] as a `Result`. Every
    /// index holds exactly one entry per heap record, keyed by that
    /// record's attribute value, every entry counter agrees, and each
    /// structure's invariants hold. Expensive; used by tests and after
    /// recovery. A divergence is a [`DbError::Audit`] with the rendered
    /// report, naming each structure that diverged.
    pub fn check_consistency(&self, id: TableId) -> DbResult<()> {
        let report = crate::audit::audit_table(self, id)?;
        if report.is_clean() {
            Ok(())
        } else {
            Err(DbError::Audit(report.render()))
        }
    }
}

/// Build `def`'s B-tree over `heap`'s rows, its pages owned by `owner`:
/// heap scan → external sort in `sort_bytes` → bottom-up bulk load. Index
/// creation, drop & create's rebuilds and media recovery all build here.
pub fn build_index(
    pool: &Arc<BufferPool>,
    heap: &HeapFile,
    schema: Schema,
    def: &IndexDef,
    owner: StructureId,
    sort_bytes: usize,
) -> StorageResult<BTree> {
    let mut scan = heap.scan();
    let entries = (&mut scan).map(|(rid, bytes)| (schema.attr_of(&bytes, def.attr), rid));
    let (sorted, _) = sort_all(pool.clone(), entries, sort_bytes)?;
    // A fused scan means the sorted entry list is missing records: the
    // index must not be built from it.
    if let Some(e) = scan.take_error() {
        return Err(e);
    }
    bulk_load(pool.clone(), def.config, &sorted, 1.0, owner)
}

/// Build a hash index on `attr` over `heap`'s rows, its pages owned by
/// `owner`: one insert per record, sized by the rows read (the heap's own
/// count may not be recounted yet after a crash).
pub fn build_hash(
    pool: &Arc<BufferPool>,
    heap: &HeapFile,
    schema: Schema,
    attr: usize,
    owner: StructureId,
) -> StorageResult<HashIndex> {
    let rows = heap.dump()?;
    let mut index = HashIndex::with_capacity(pool.clone(), rows.len().max(64), owner)?;
    for (rid, bytes) in rows {
        index.insert(schema.attr_of(&bytes, attr), rid)?;
    }
    Ok(index)
}

/// Borrow the pieces a delete strategy needs from one table, splitting the
/// borrow so heap and indices can be mutated independently.
pub struct TableParts<'a> {
    /// Record layout.
    pub schema: Schema,
    /// The heap.
    pub heap: &'a mut HeapFile,
    /// All B-tree indices.
    pub indices: &'a mut Vec<Index>,
    /// All hash indices (one bucket sweep each under the vertical
    /// strategies, one chain walk per record under the horizontal ones).
    pub hash_indices: &'a mut Vec<crate::catalog::HashIdx>,
}

impl Database {
    /// Split-borrow a table for strategy execution.
    pub fn parts(
        &mut self,
        id: TableId,
    ) -> DbResult<(TableParts<'_>, Arc<MemoryBudget>, Arc<BufferPool>)> {
        let workspace = self.workspace.clone();
        let pool = self.pool.clone();
        let table = self.tables.get_mut(id).ok_or(DbError::NoSuchTable(id))?;
        Ok((
            TableParts {
                schema: table.schema,
                heap: &mut table.heap,
                indices: &mut table.indices,
                hash_indices: &mut table.hash_indices,
            },
            workspace,
            pool,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db() -> (Database, TableId) {
        let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
        let tid = db.create_table("R", Schema::new(3, 64));
        (db, tid)
    }

    fn row(a: u64, b: u64, c: u64) -> Tuple {
        Tuple::new(vec![a, b, c])
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let (mut db, tid) = small_db();
        db.create_index(tid, IndexDef::secondary(0).unique())
            .unwrap();
        db.create_index(tid, IndexDef::secondary(1)).unwrap();
        let rid = db.insert(tid, &row(1, 10, 100)).unwrap();
        assert_eq!(db.get(tid, rid).unwrap(), row(1, 10, 100));
        assert_eq!(db.lookup(tid, 0, 1).unwrap(), vec![rid]);
        assert_eq!(db.lookup(tid, 1, 10).unwrap(), vec![rid]);
        db.check_consistency(tid).unwrap();
    }

    #[test]
    fn unique_constraint_enforced() {
        let (mut db, tid) = small_db();
        db.create_index(tid, IndexDef::secondary(0).unique())
            .unwrap();
        db.insert(tid, &row(5, 1, 1)).unwrap();
        let err = db.insert(tid, &row(5, 2, 2)).unwrap_err();
        assert_eq!(err, DbError::DuplicateKey { attr: 0, key: 5 });
        // Non-unique attribute duplicates are fine.
        db.insert(tid, &row(6, 1, 1)).unwrap();
        db.check_consistency(tid).unwrap();
    }

    #[test]
    fn create_index_over_existing_data() {
        let (mut db, tid) = small_db();
        for i in 0..500u64 {
            db.insert(tid, &row(i, i % 13, i % 7)).unwrap();
        }
        db.create_index(tid, IndexDef::secondary(1)).unwrap();
        let rids = db.lookup(tid, 1, 5).unwrap();
        assert_eq!(rids.len(), (0..500u64).filter(|i| i % 13 == 5).count());
        db.check_consistency(tid).unwrap();
    }

    #[test]
    fn duplicate_index_rejected() {
        let (mut db, tid) = small_db();
        db.create_index(tid, IndexDef::secondary(0)).unwrap();
        assert_eq!(
            db.create_index(tid, IndexDef::secondary(0)).unwrap_err(),
            DbError::IndexExists { attr: 0 }
        );
    }

    #[test]
    fn a_phantom_index_entry_is_an_audit_error() {
        let (mut db, tid) = small_db();
        db.create_index(tid, IndexDef::secondary(1)).unwrap();
        for i in 0..50u64 {
            db.insert(tid, &row(i, i % 7, 0)).unwrap();
        }
        db.table_mut(tid).unwrap().indices[0]
            .tree
            .insert(999_999, Rid::new(0, 0))
            .unwrap();
        let Err(DbError::Audit(detail)) = db.check_consistency(tid) else {
            panic!("a phantom entry must fail the check");
        };
        assert!(detail.contains("1 only in index I_B"), "{detail}");
        assert!(detail.contains("999999"), "{detail}");
    }

    #[test]
    fn bad_table_id() {
        let (db, _) = small_db();
        assert!(matches!(db.table(9), Err(DbError::NoSuchTable(9))));
    }
}
