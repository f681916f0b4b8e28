//! Engine-generic table interface.
//!
//! The paper's design-space argument — horizontal vs vertical vs
//! drop-and-create — was made over B-tree storage. Replaying it onto other
//! storage layouts (an LSM tree, where bulk delete becomes tombstone writes
//! plus delete-aware compaction) needs a seam between "a keyed table of
//! tuples" and "the structure that stores it". [`TableEngine`] is that
//! seam, cut to what the `lsm` experiment and its gates call: build
//! (insert, bulk load), point lookup, bulk delete by key list, and the
//! two audit hooks the differential harness drives.
//!
//! The contract is a *keyed* table: attribute 0 is the primary key, keys
//! are unique (inserting a duplicate is [`DbError::DuplicateKey`]), and
//! the audit dump returns rows in key order. That makes two engines
//! directly comparable: [`audit_engine_equivalence`] diffs their sorted
//! logical dumps row by row and folds in each engine's own structural
//! self-audit, the same shape as
//! [`audit_equivalence`](crate::audit::audit_equivalence) between two
//! B-tree databases.
//!
//! [`BtreeEngine`] adapts the existing [`Database`] (heap + B-link tree
//! indices, vertical bulk deletes) to the trait; the `bd-lsm` crate
//! provides the delete-aware LSM implementation.

use bd_btree::Key;

use crate::audit::{audit_catalog, audit_table, AuditReport};
use crate::db::{Database, DatabaseConfig, TableId};
use crate::error::{DbError, DbResult};
use crate::report::RunReport;
use crate::strategy;
use crate::tuple::{Schema, Tuple};

/// A storage engine serving one keyed table of [`Tuple`]s.
///
/// Attribute 0 is the unique primary key. Implementations charge all I/O
/// to the shared [`BufferPool`](bd_storage::BufferPool) cost model and
/// call [`bd_storage::pacer::checkpoint`] between page visits in their
/// long passes, so engines are comparable under `measure` and run a
/// [`Pacer`](bd_storage::Pacer)'s hook between pages.
pub trait TableEngine {
    /// Short stable name for reports ("btree", "lsm").
    fn name(&self) -> &'static str;

    /// Insert one row. Duplicate keys are [`DbError::DuplicateKey`].
    fn insert(&mut self, tuple: &Tuple) -> DbResult<()>;

    /// Bulk-build from rows (any order, keys unique). The engine may use
    /// a faster path than repeated [`TableEngine::insert`].
    fn bulk_load(&mut self, rows: &[Tuple]) -> DbResult<()> {
        for t in rows {
            self.insert(t)?;
        }
        Ok(())
    }

    /// Point lookup: the row with key `key`, if live.
    fn lookup(&mut self, key: Key) -> DbResult<Option<Tuple>>;

    /// Bulk delete by key list (absent keys are no-ops). Returns the
    /// measured cost report with [`RunReport::deleted`] set to the number
    /// of rows that existed and were deleted.
    fn bulk_delete(&mut self, keys: &[Key]) -> DbResult<RunReport>;

    /// The engine's logical contents for differential comparison: every
    /// live row, key-sorted. It must bypass caches of convenience (it is
    /// the ground truth the audit trusts).
    fn audit_dump(&mut self) -> DbResult<Vec<Tuple>>;

    /// The engine's own structural invariants (tree/run shape, page
    /// catalog agreement). Clean report = internally consistent.
    fn audit_self(&mut self) -> DbResult<AuditReport>;
}

/// Logical `audit_equivalence` between two engines: identical sorted
/// dumps, plus each side's structural self-audit folded into the report
/// under `"<name> self-audit"` findings.
pub fn audit_engine_equivalence<'e>(
    a: &'e mut dyn TableEngine,
    b: &'e mut dyn TableEngine,
) -> DbResult<AuditReport> {
    let mut report = AuditReport::default();
    let rows_a = a.audit_dump()?;
    let rows_b = b.audit_dump()?;
    if rows_a != rows_b {
        let only_a: Vec<&Tuple> = rows_a.iter().filter(|t| !rows_b.contains(t)).collect();
        let only_b: Vec<&Tuple> = rows_b.iter().filter(|t| !rows_a.contains(t)).collect();
        let sample = |v: &[&Tuple]| -> String {
            v.iter()
                .take(3)
                .map(|t| format!("{:?}", t.attrs))
                .collect::<Vec<_>>()
                .join(", ")
        };
        report.push(
            "engine dump",
            format!(
                "{} has {} rows, {} has {} rows; {} only in {} (e.g. {}), {} only in {} (e.g. {})",
                a.name(),
                rows_a.len(),
                b.name(),
                rows_b.len(),
                only_a.len(),
                a.name(),
                sample(&only_a),
                only_b.len(),
                b.name(),
                sample(&only_b),
            ),
        );
    }
    for (engine, side) in [(a, "a"), (b, "b")] {
        let name = engine.name();
        for f in engine.audit_self()?.findings {
            report.push(
                format!("{name}({side}) self-audit: {}", f.structure),
                f.detail,
            );
        }
    }
    Ok(report)
}

/// The B-tree engine: a one-table [`Database`] (heap + unique B-link tree
/// on the key attribute) behind the [`TableEngine`] interface. Bulk
/// deletes run the paper's vertical sort/merge plan.
pub struct BtreeEngine {
    db: Database,
    tid: TableId,
    workers: usize,
}

impl BtreeEngine {
    /// A fresh engine: one table of `schema`, a unique index on attribute
    /// 0, `total_memory` bytes of simulated memory, `workers` bulk-delete
    /// arms.
    pub fn new(schema: Schema, total_memory: usize, workers: usize) -> DbResult<BtreeEngine> {
        let mut db = Database::new(DatabaseConfig::with_total_memory(total_memory));
        let tid = db.create_table("engine", schema);
        db.create_index(tid, crate::catalog::IndexDef::secondary(0).unique())?;
        Ok(BtreeEngine { db, tid, workers })
    }

    /// Wrap an existing database table (it must have a unique index on
    /// attribute 0 — the probe index every strategy needs).
    pub fn from_db(db: Database, tid: TableId, workers: usize) -> BtreeEngine {
        BtreeEngine { db, tid, workers }
    }
}

impl TableEngine for BtreeEngine {
    fn name(&self) -> &'static str {
        "btree"
    }

    fn insert(&mut self, tuple: &Tuple) -> DbResult<()> {
        self.db.insert(self.tid, tuple).map(|_| ())
    }

    fn lookup(&mut self, key: Key) -> DbResult<Option<Tuple>> {
        let table = self.db.table(self.tid)?;
        let tree = &table
            .index_on(0)
            .ok_or(DbError::NoProbeIndex { attr: 0 })?
            .tree;
        let rids = tree.search(key).map_err(DbError::Storage)?;
        match rids.first() {
            Some(&rid) => {
                let bytes = table.heap.get(rid).map_err(DbError::Storage)?;
                Ok(Some(table.schema.decode(&bytes)))
            }
            None => Ok(None),
        }
    }

    fn bulk_delete(&mut self, keys: &[Key]) -> DbResult<RunReport> {
        let out = strategy::vertical_sort_merge(&mut self.db, self.tid, 0, keys, self.workers)?;
        Ok(out.report)
    }

    fn audit_dump(&mut self) -> DbResult<Vec<Tuple>> {
        // Ground truth is the heap, not the index: a divergence between
        // them is the self-audit's job to flag, not the dump's to hide.
        let table = self.db.table(self.tid)?;
        let mut rows: Vec<Tuple> = table
            .heap
            .dump()
            .map_err(DbError::Storage)?
            .into_iter()
            .map(|(_, bytes)| table.schema.decode(&bytes))
            .collect();
        rows.sort_by(|x, y| x.attrs.cmp(&y.attrs));
        Ok(rows)
    }

    fn audit_self(&mut self) -> DbResult<AuditReport> {
        let mut report = audit_table(&self.db, self.tid)?;
        report
            .findings
            .extend(audit_catalog(&self.db, self.tid)?.findings);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: u64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(vec![i * 2, i % 7, i])).collect()
    }

    fn engine(n: u64) -> BtreeEngine {
        let mut e = BtreeEngine::new(Schema::new(3, 64), 1 << 20, 1).unwrap();
        e.bulk_load(&rows(n)).unwrap();
        e
    }

    #[test]
    fn btree_engine_keyed_contract() {
        let mut e = engine(500);
        assert_eq!(e.lookup(10).unwrap(), Some(Tuple::new(vec![10, 5, 5])));
        assert_eq!(e.lookup(11).unwrap(), None, "odd keys never inserted");
        let err = e.insert(&Tuple::new(vec![10, 0, 0])).unwrap_err();
        assert_eq!(err, DbError::DuplicateKey { attr: 0, key: 10 });
        assert_eq!(e.audit_dump().unwrap().len(), 500);
    }

    #[test]
    fn btree_engine_deletes_and_self_audits() {
        let mut e = engine(400);
        let report = e.bulk_delete(&[0, 2, 4, 999]).unwrap();
        assert_eq!(report.deleted, 3, "999 is absent");
        let report = e
            .bulk_delete(&(50..100).map(|i| i * 2).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(report.deleted, 50);
        assert_eq!(e.audit_dump().unwrap().len(), 400 - 3 - 50);
        assert!(e.audit_self().unwrap().is_clean());
    }

    #[test]
    fn identical_engines_are_equivalent_and_divergence_is_reported() {
        let mut a = engine(300);
        let mut b = engine(300);
        let eq = audit_engine_equivalence(&mut a, &mut b).unwrap();
        assert!(eq.is_clean(), "{eq}");

        b.bulk_delete(&[42]).unwrap();
        let eq = audit_engine_equivalence(&mut a, &mut b).unwrap();
        assert!(!eq.is_clean(), "a still holds key 42");
        assert!(eq.render().contains("engine dump"));
    }
}
