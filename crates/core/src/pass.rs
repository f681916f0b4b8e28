//! Fig. 3, written once: the probe index, then the table, then one `⋈̄` per
//! remaining structure, unique indices first (§3.1.3). The three drivers —
//! offline ([`crate::strategy::vertical`]), logged (`bd-wal`, §3.2) and live
//! (`bd-txn`, §3.1) — differ only in where a pass pauses: never, at a
//! checkpoint, or at a lock release. They share [`pass_order`], [`split`],
//! the chunked [`Victims::run`] with its pace hook between chunks, and
//! [`project`]. How each victim list is built and ordered stays with the
//! caller, because that choice is I/O: the offline and live drivers sort
//! with the charged external sort, the logged one in memory from its
//! durable rows.

use bd_btree::{bulk_delete_sorted, Key, ReorgPolicy};
use bd_storage::{HeapFile, Rid, StorageResult, StructureId};

use crate::catalog::{HashIdx, Index, Table};
use crate::db::TableParts;
use crate::error::{DbError, DbResult};
use crate::plan::DeletePlan;
use crate::tuple::Schema;

/// The §3.1 pass order of `plan` over `table`: the probe index, the table,
/// the plan's B-tree steps with the unique ones first, then every hash
/// index by attribute. The second value is the length of the serial prefix
/// (probe, table, unique trees); the passes after it are independent of
/// each other. B-trees are named `Index(attr)` and hash indices
/// `Hash(attr)`, by plain attribute number.
///
/// Fails if the probe index or a planned index is missing (a stale plan).
pub fn pass_order(table: &Table, plan: &DeletePlan) -> DbResult<(Vec<StructureId>, usize)> {
    let attr = plan.probe_attr;
    table.index_on(attr).ok_or(DbError::NoProbeIndex { attr })?;
    let mut trees: Vec<(bool, usize)> = plan
        .index_steps
        .iter()
        .map(|s| {
            table
                .index_on(s.attr)
                .map(|i| (i.def.unique, s.attr))
                .ok_or(DbError::NoSuchIndex { attr: s.attr })
        })
        .collect::<DbResult<_>>()?;
    // Stable, so the plan's order survives within each class.
    trees.sort_by_key(|&(unique, _)| !unique);
    let mut hashes: Vec<usize> = table.hash_indices.iter().map(|h| h.def.attr).collect();
    hashes.sort_unstable();
    let n_serial = 2 + trees.iter().filter(|&&(unique, _)| unique).count();
    let order = [StructureId::Probe, StructureId::Table]
        .into_iter()
        .chain(trees.iter().map(|&(_, a)| StructureId::Index(a as u16)))
        .chain(hashes.into_iter().map(|a| StructureId::Hash(a as u16)))
        .collect();
    Ok((order, n_serial))
}

/// The deleted rows' `(key, RID)` projection on `attr`, in row order.
pub fn project(
    rows: &[(Rid, Vec<u8>)],
    schema: Schema,
    attr: usize,
) -> impl Iterator<Item = (Key, Rid)> + '_ {
    rows.iter()
        .map(move |(rid, bytes)| (schema.attr_of(bytes, attr), *rid))
}

/// One structure of a pass order, borrowed apart from the others, with
/// the victim list its pass deletes.
pub enum Victims<'a> {
    /// A B-tree index (the probe or a secondary): `(key, RID)` in key order.
    Tree(&'a mut Index, Vec<(Key, Rid)>),
    /// The base table: RIDs in RID order.
    Heap(&'a mut HeapFile, Vec<Rid>),
    /// A hash index: `(key, RID)` in any order. The pass sorts them into
    /// bucket-sweep order, so every chunk is a contiguous run of buckets.
    Hash(&'a mut HashIdx, Vec<(Key, Rid)>),
}

impl Victims<'_> {
    /// Delete the victims from `start` on, `chunk` at a time, and return the
    /// heap's deleted rows (none for an index). Between two chunks
    /// `sink(done)` runs with no page pinned: the pace hook where the logged
    /// driver flushes and logs its progress. Every structure's delete is
    /// lenient towards entries already gone, so a chunk a crash interrupted
    /// can run again.
    pub fn run(
        &mut self,
        start: usize,
        chunk: usize,
        policy: ReorgPolicy,
        mut sink: impl FnMut(usize) -> StorageResult<()>,
    ) -> StorageResult<Vec<(Rid, Vec<u8>)>> {
        let total = match self {
            Victims::Tree(_, pairs) => pairs.len(),
            Victims::Heap(_, rids) => rids.len(),
            Victims::Hash(h, pairs) => {
                h.index.sort_for_sweep(pairs);
                pairs.len()
            }
        };
        let mut rows = Vec::new();
        let mut done = start.min(total);
        loop {
            let end = done.saturating_add(chunk).min(total);
            match self {
                Victims::Tree(index, pairs) => {
                    bulk_delete_sorted(&mut index.tree, &pairs[done..end], policy)?;
                }
                Victims::Heap(heap, rids) => {
                    rows.append(&mut heap.bulk_delete_sorted(&rids[done..end])?);
                }
                Victims::Hash(h, pairs) => {
                    h.index.bulk_delete(&pairs[done..end])?;
                }
            }
            done = end;
            if done == total {
                return Ok(rows);
            }
            sink(done)?;
        }
    }
}

/// Borrow the structures `order` names out of `parts`, apart from each
/// other and in `order`'s order, each with an empty victim list for the
/// caller to fill. The index on `probe_attr` answers to
/// [`StructureId::Probe`], every other B-tree to `Index(attr)`.
///
/// Panics if `order` names a structure the table does not have.
pub fn split<'t>(
    parts: TableParts<'t>,
    probe_attr: usize,
    order: &[StructureId],
) -> Vec<Victims<'t>> {
    let rank = |s: StructureId| order.iter().position(|&o| o == s);
    let mut out: Vec<(usize, Victims<'t>)> = Vec::with_capacity(order.len());
    if let Some(r) = rank(StructureId::Table) {
        out.push((r, Victims::Heap(parts.heap, Vec::new())));
    }
    for index in parts.indices.iter_mut() {
        let attr = index.def.attr;
        let role = if attr == probe_attr {
            StructureId::Probe
        } else {
            StructureId::Index(attr as u16)
        };
        if let Some(r) = rank(role) {
            out.push((r, Victims::Tree(index, Vec::new())));
        }
    }
    for h in parts.hash_indices.iter_mut() {
        if let Some(r) = rank(StructureId::Hash(h.def.attr as u16)) {
            out.push((r, Victims::Hash(h, Vec::new())));
        }
    }
    assert_eq!(out.len(), order.len(), "a pass names no structure");
    out.sort_by_key(|&(r, _)| r);
    out.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::db::{Database, DatabaseConfig};
    use crate::planner::plan_sort_merge;
    use crate::tuple::Tuple;

    #[test]
    fn order_is_probe_table_unique_rest_hashes_whatever_the_catalog_order() {
        let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
        let tid = db.create_table("R", Schema::new(5, 64));
        for i in 0..50u64 {
            db.insert(tid, &Tuple::new(vec![i, i % 7, i, i % 3, i % 5]))
                .unwrap();
        }
        db.create_index(tid, IndexDef::secondary(1)).unwrap();
        db.create_hash_index(tid, 4).unwrap();
        db.create_index(tid, IndexDef::secondary(0).unique())
            .unwrap();
        db.create_hash_index(tid, 3).unwrap();
        db.create_index(tid, IndexDef::secondary(2).unique())
            .unwrap();
        let table = db.table(tid).unwrap();
        let (order, n_serial) = pass_order(table, &plan_sort_merge(table, 0).unwrap()).unwrap();
        use StructureId::*;
        assert_eq!(order, [Probe, Table, Index(2), Index(1), Hash(3), Hash(4)]);
        assert_eq!(n_serial, 3);
        let names: Vec<String> = split(db.parts(tid).unwrap().0, 0, &order)
            .iter()
            .map(|v| match v {
                Victims::Tree(index, _) => index.def.name.clone(),
                Victims::Heap(..) => "R".into(),
                Victims::Hash(h, _) => h.def.name.clone(),
            })
            .collect();
        assert_eq!(names, ["I_A", "R", "I_C", "I_B", "H_D", "H_E"]);
    }
}
