//! The delete strategies the paper compares.
//!
//! * [`horizontal`] — the traditional record-at-a-time executor: probe the
//!   index on the delete attribute per key, delete the record from the
//!   heap, and "immediately remove it from all indices", each removal a
//!   root-to-leaf traversal. With `presort = true` this is the paper's
//!   `sorted/trad` series; with `false`, `not sorted/trad`.
//! * [`drop_create`] — drop all secondary indices, run the (sorted)
//!   traditional delete against the remaining probe index, then rebuild the
//!   dropped indices by scan + sort + bulk load (the Fig. 1/8 baseline).
//! * [`vertical`] — the paper's contribution: delete *per structure*, one
//!   set-oriented `⋈̄` at a time, following a [`DeletePlan`].
//!
//! The vertical and drop&create strategies run on the
//! [`PhaseExecutor`](crate::executor::PhaseExecutor): the serial prefix
//! (sort `D`, the key-predicate `⋈̄`, the table pass, and §3.1's
//! unique-index arms) in plan order, then one independent arm per remaining
//! secondary index and hash index. Every entry point takes a
//! `workers: usize` — `1` runs the arms on the caller's thread, `> 1`
//! dispatches them to worker threads; because each arm touches only its own
//! structure's pages, the physical result is identical to the serial run —
//! only the critical-path clock shrinks.
//!
//! Every strategy returns the same [`DeleteOutcome`] and leaves the table
//! and indices in exactly equivalent states (property-tested, and audited
//! serial-vs-parallel).

use std::sync::Arc;
use std::sync::Mutex;

use bd_btree::{bulk_delete_by_keys, bulk_delete_probe, bulk_delete_sorted, Key, ReorgPolicy};
use bd_exec::{range_partitions, sort_all, ByRid, RidSet, BYTES_PER_RID};
use bd_storage::{BufferPool, MemoryBudget, Rid, StorageResult, StructureId};

use crate::catalog::{HashIdx, Index, IndexDef};
use crate::db::{Database, TableId};
use crate::error::{DbError, DbResult};
use crate::executor::{PhaseExecutor, PhaseTask};
use crate::plan::{DeletePlan, IndexMethod, TableMethod};
use crate::planner::plan_sort_merge;
use crate::report::{measure, DegradeEvent, PhaseRow, RunReport};
use crate::tuple::{Schema, Tuple};

/// What a strategy deleted, plus its cost report.
#[derive(Debug)]
pub struct DeleteOutcome {
    /// Cost report (simulated time, I/O counters).
    pub report: RunReport,
    /// The deleted rows, in the order the strategy removed them from the
    /// heap (available for archiving or bulk re-insertion).
    pub deleted: Vec<(Rid, Tuple)>,
}

/// What the table-and-index passes of a strategy hand back to `measure`:
/// the deleted rows, the per-phase I/O rows the executor recorded, and any
/// graceful-degradation events.
type RowsAndPhases = (Vec<(Rid, Tuple)>, Vec<PhaseRow>, Vec<DegradeEvent>);

/// The planner's per-index steps, as `(position in catalog, ⋈̄ method)`.
type IndexSteps = Vec<(usize, IndexMethod)>;

fn probe_pos(indices: &[Index], attr: usize) -> DbResult<usize> {
    indices
        .iter()
        .position(|i| i.def.attr == attr)
        .ok_or(DbError::NoProbeIndex { attr })
}

/// Traditional horizontal delete (`sorted/trad` when `presort`, else
/// `not sorted/trad`).
pub fn horizontal(
    db: &mut Database,
    tid: TableId,
    probe_attr: usize,
    d_keys: &[Key],
    presort: bool,
) -> DbResult<DeleteOutcome> {
    let (parts, ws, pool) = db.parts(tid)?;
    let pos = probe_pos(parts.indices, probe_attr)?;
    let schema = parts.schema;
    let heap = parts.heap;
    let indices = parts.indices;
    let hash_indices = parts.hash_indices;
    let label = if presort {
        "sorted/trad"
    } else {
        "not sorted/trad"
    };

    let (deleted, mut report) = measure(&pool, label, || {
        let keys: Vec<Key> = if presort {
            sort_all(
                pool.clone(),
                d_keys.iter().copied(),
                ws.capacity().max(4096),
            )?
            .0
        } else {
            d_keys.to_vec()
        };
        let mut deleted: Vec<(Rid, Tuple)> = Vec::new();
        for &key in &keys {
            // Find the victims through the probe index, then delete the
            // record and immediately remove it from every index —
            // one root-to-leaf traversal per index per record.
            let rids = indices[pos].tree.search(key)?;
            for rid in rids {
                let bytes = heap.delete(rid)?;
                for index in indices.iter_mut() {
                    let k = schema.attr_of(&bytes, index.def.attr);
                    let existed = index.tree.delete_one(k, rid)?;
                    debug_assert!(existed, "index entry missing for rid {rid}");
                }
                for h in hash_indices.iter_mut() {
                    h.index.delete(schema.attr_of(&bytes, h.def.attr), rid)?;
                }
                deleted.push((rid, schema.decode(&bytes)));
            }
        }
        Ok(deleted)
    })?;
    report.deleted = deleted.len();
    Ok(DeleteOutcome { report, deleted })
}

/// How `drop & create` rebuilds the dropped indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildMode {
    /// Scan + external sort + bottom-up bulk load (what a modern system,
    /// and the commercial RDBMS of Fig. 1, does).
    BulkLoad,
    /// Record-at-a-time inserts into a fresh tree (the paper's prototype:
    /// "Apparently, creating indices is slower in our prototype than in
    /// the commercial database system" — Fig. 8's drop&create series).
    InsertEach,
}

/// The *drop & create* baseline: drop secondary indices, delete with the
/// probe index only (sorted traditional), rebuild the dropped indices.
///
/// With `workers > 1` the rebuild arms are dispatched to up to `workers`
/// threads — each dropped index is rebuilt independently (scan + sort +
/// load touch only that index's pages and scratch segments); `workers = 1`
/// runs everything on the caller's thread.
pub fn drop_create(
    db: &mut Database,
    tid: TableId,
    probe_attr: usize,
    d_keys: &[Key],
    rebuild: RebuildMode,
    workers: usize,
) -> DbResult<DeleteOutcome> {
    let (parts, ws, pool) = db.parts(tid)?;
    probe_pos(parts.indices, probe_attr)?; // validate before measuring
    let schema = parts.schema;
    let heap = parts.heap;
    let indices = parts.indices;
    let hash_indices = parts.hash_indices;

    let ((deleted, phases, events), mut report) = measure(&pool, "drop&create", || {
        execute_drop_create(
            &pool,
            &ws,
            tid,
            schema,
            heap,
            indices,
            hash_indices,
            probe_attr,
            d_keys,
            rebuild,
            workers,
        )
    })?;
    report.deleted = deleted.len();
    report.phases = phases;
    report.workers = workers.max(1);
    report.events = events;
    Ok(DeleteOutcome { report, deleted })
}

#[allow(clippy::too_many_arguments)] // split borrows of one table
fn execute_drop_create(
    pool: &Arc<BufferPool>,
    ws: &Arc<MemoryBudget>,
    tid: TableId,
    schema: Schema,
    heap: &mut bd_storage::HeapFile,
    indices: &mut Vec<Index>,
    hash_indices: &mut [HashIdx],
    probe_attr: usize,
    d_keys: &[Key],
    rebuild: RebuildMode,
    workers: usize,
) -> StorageResult<RowsAndPhases> {
    let ws_bytes = ws.capacity().max(4096);
    let mut exec = PhaseExecutor::new(workers);

    // Drop every index except the probe index (still needed to find the
    // records to delete). Catalog-only: no I/O, no phase row.
    let mut dropped: Vec<IndexDef> = Vec::new();
    let mut i = 0;
    while i < indices.len() {
        if indices[i].def.attr != probe_attr {
            dropped.push(indices.remove(i).def);
        } else {
            i += 1;
        }
    }
    let pos = indices
        .iter()
        .position(|ix| ix.def.attr == probe_attr)
        .expect("probe index kept");
    debug_assert!(pos == 0 || pos < indices.len());

    // Sorted traditional delete against heap + probe index.
    let keys: Vec<Key> = exec.serial("sort(D)", || {
        Ok(sort_all(pool.clone(), d_keys.iter().copied(), ws_bytes)?.0)
    })?;
    let deleted: Vec<(Rid, Tuple)> = exec.serial("trad delete (probe+heap)", || {
        let mut deleted: Vec<(Rid, Tuple)> = Vec::new();
        for &key in &keys {
            let rids = indices[pos].tree.search(key)?;
            for rid in rids {
                let bytes = heap.delete(rid)?;
                let k = schema.attr_of(&bytes, probe_attr);
                indices[pos].tree.delete_one(k, rid)?;
                for h in hash_indices.iter_mut() {
                    h.index.delete(schema.attr_of(&bytes, h.def.attr), rid)?;
                }
                deleted.push((rid, schema.decode(&bytes)));
            }
        }
        Ok(deleted)
    })?;

    // Re-create the dropped indices — one independent arm per index. Each
    // arm scans the (now immutable) heap and builds only its own tree, so
    // the arms are safe to dispatch concurrently.
    let n_arms = dropped.len();
    if n_arms > 0 {
        let concurrency = workers.clamp(1, n_arms);
        let arm_bytes = if concurrency > 1 {
            (ws_bytes / concurrency).max(4096)
        } else {
            ws_bytes
        };
        let heap: &bd_storage::HeapFile = heap;
        let slots: Vec<Mutex<Option<Index>>> = (0..n_arms).map(|_| Mutex::new(None)).collect();
        let mut tasks: Vec<PhaseTask> = Vec::new();
        for (slot, def) in slots.iter().zip(dropped) {
            let tag = match rebuild {
                RebuildMode::BulkLoad => "bulk load",
                RebuildMode::InsertEach => "insert each",
            };
            let name = format!("rebuild {} ({tag})", def.name);
            let pool = pool.clone();
            tasks.push(PhaseTask::new(name, move || {
                let tree = match rebuild {
                    RebuildMode::BulkLoad => {
                        let mut scan = heap.scan();
                        let entries =
                            (&mut scan).map(|(rid, bytes)| (schema.attr_of(&bytes, def.attr), rid));
                        let (sorted, _) = sort_all(pool.clone(), entries, arm_bytes)?;
                        // A fused scan would rebuild the index without the
                        // unread pages' records — abort instead.
                        if let Some(e) = scan.take_error() {
                            return Err(e);
                        }
                        bd_btree::bulk_load(
                            pool.clone(),
                            def.config,
                            &sorted,
                            def.fill,
                            StructureId::index_of(tid, def.attr),
                        )?
                    }
                    RebuildMode::InsertEach => {
                        let mut tree = bd_btree::BTree::create(
                            pool.clone(),
                            def.config,
                            StructureId::index_of(tid, def.attr),
                        )?;
                        for (rid, bytes) in heap.dump()? {
                            tree.insert(schema.attr_of(&bytes, def.attr), rid)?;
                        }
                        tree
                    }
                };
                // Clone: the body is `FnMut` so a degradation re-run can
                // rebuild from scratch; `def` must survive the first call.
                *slot.lock().expect("rebuild slot lock") = Some(Index {
                    def: def.clone(),
                    tree,
                });
                Ok(())
            }));
        }
        exec.fan_out(tasks)?;
        for slot in slots {
            let index = slot
                .into_inner()
                .expect("rebuild slot lock")
                .expect("rebuild arm completed");
            indices.push(index);
        }
    }
    let (rows, events) = exec.into_parts();
    Ok((deleted, rows, events))
}

/// The vertical (set-oriented) bulk delete, following `plan`.
///
/// With `workers > 1` the independent `⋈̄` arms (non-unique secondary
/// indices and hash indices) are dispatched to up to `workers` threads;
/// `workers = 1` runs them on the caller's thread.
///
/// §3.1's ordering is preserved either way: unique-index arms run first,
/// serially, so they come back online before the fan-out. The physical end
/// state is identical to the serial run; the report additionally carries
/// the critical-path clock ([`RunReport::critical_path_ms`]).
pub fn vertical(
    db: &mut Database,
    tid: TableId,
    d_keys: &[Key],
    plan: &DeletePlan,
    policy: ReorgPolicy,
    workers: usize,
) -> DbResult<DeleteOutcome> {
    let (parts, ws, pool) = db.parts(tid)?;
    let pos = probe_pos(parts.indices, plan.probe_attr)?;
    // Resolve index-step positions up front (plan may be stale).
    let step_pos: Vec<(usize, IndexMethod)> = plan
        .index_steps
        .iter()
        .map(|s| {
            parts
                .indices
                .iter()
                .position(|i| i.def.attr == s.attr)
                .map(|p| (p, s.method))
                .ok_or(DbError::NoSuchIndex { attr: s.attr })
        })
        .collect::<DbResult<_>>()?;
    let schema = parts.schema;
    let heap = parts.heap;
    let indices = parts.indices;
    let hash_indices = parts.hash_indices;
    let table_method = plan.table;

    let ((deleted, phases, events), mut report) = measure(&pool, "bulk delete", || {
        execute_vertical(
            &pool,
            &ws,
            schema,
            heap,
            indices,
            hash_indices,
            pos,
            &step_pos,
            table_method,
            d_keys,
            policy,
            workers,
        )
    })?;
    report.deleted = deleted.len();
    report.phases = phases;
    report.workers = workers.max(1);
    report.events = events;
    Ok(DeleteOutcome { report, deleted })
}

/// One downstream index `⋈̄` arm: consume the deleted-record stream and
/// remove the matching entries from `index` by `method`. Runs unchanged on
/// the caller's thread (serial phases, unique arms) or on a worker.
#[allow(clippy::too_many_arguments)] // one arm's full environment, passed by value to workers
fn run_index_arm(
    pool: &Arc<BufferPool>,
    ws: &MemoryBudget,
    sort_bytes: usize,
    schema: Schema,
    index: &mut Index,
    method: IndexMethod,
    deleted_rows: &[(Rid, Vec<u8>)],
    policy: ReorgPolicy,
) -> StorageResult<()> {
    let attr = index.def.attr;
    let tree = &mut index.tree;
    match method {
        IndexMethod::SortMerge { presort } => {
            let pairs: Vec<(Key, Rid)> = if presort {
                let proj = deleted_rows
                    .iter()
                    .map(|(rid, bytes)| (schema.attr_of(bytes, attr), *rid));
                sort_all(pool.clone(), proj, sort_bytes)?.0
            } else {
                // Clustered downstream index: RID order implies key
                // order, so the projection arrives sorted.
                let pairs: Vec<(Key, Rid)> = deleted_rows
                    .iter()
                    .map(|(rid, bytes)| (schema.attr_of(bytes, attr), *rid))
                    .collect();
                debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
                pairs
            };
            bulk_delete_sorted(tree, &pairs, policy)?;
        }
        IndexMethod::ClassicHash => {
            // "On a single-processor machine the same hash table can be
            // used" — we rebuild it per index; the footprint is
            // identical and the build is CPU-only. Concurrent arms each
            // hold a reservation against the shared workspace budget, so
            // oversubscription fails honestly instead of silently.
            let set = RidSet::build(ws, deleted_rows.iter().map(|e| e.0))?;
            bulk_delete_probe(tree, set.as_set(), None, policy)?;
        }
        IndexMethod::PartitionedHash => {
            let proj = deleted_rows
                .iter()
                .map(|(rid, bytes)| (schema.attr_of(bytes, attr), *rid));
            let (pairs, _) = sort_all(pool.clone(), proj, sort_bytes)?;
            let per_part = (sort_bytes / BYTES_PER_RID).max(1);
            for part in range_partitions(&pairs, per_part) {
                let set = RidSet::build(ws, part.rids())?;
                bulk_delete_probe(tree, set.as_set(), Some((part.lo, part.hi)), policy)?;
            }
        }
    }
    Ok(())
}

fn method_tag(method: IndexMethod) -> &'static str {
    match method {
        IndexMethod::SortMerge { .. } => "sort/merge",
        IndexMethod::ClassicHash => "hash probe",
        IndexMethod::PartitionedHash => "partitioned hash",
    }
}

#[allow(clippy::too_many_arguments)] // split borrows of one table
fn execute_vertical(
    pool: &Arc<BufferPool>,
    ws: &Arc<MemoryBudget>,
    schema: Schema,
    heap: &mut bd_storage::HeapFile,
    indices: &mut [Index],
    hash_indices: &mut [HashIdx],
    probe: usize,
    steps: &[(usize, IndexMethod)],
    table_method: TableMethod,
    d_keys: &[Key],
    policy: ReorgPolicy,
    workers: usize,
) -> StorageResult<RowsAndPhases> {
    let ws_bytes = ws.capacity().max(4096);
    let mut exec = PhaseExecutor::new(workers);

    // Step 1: sort D on the probe key (sort_D in Fig. 3).
    let keys: Vec<Key> = exec.serial("sort(D)", || {
        Ok(sort_all(pool.clone(), d_keys.iter().copied(), ws_bytes)?.0)
    })?;

    // Step 2: D ⋈̄ I_A — key-predicate sort/merge bulk delete; its output is
    // the list of (A, RID) entries removed.
    let deleted_a = exec.serial(
        format!("bd {} (key merge)", indices[probe].def.name),
        || bulk_delete_by_keys(&mut indices[probe].tree, &keys, policy),
    )?;

    // Step 3: ⋈̄ R — delete the records from the base table.
    let deleted_rows: Vec<(Rid, Vec<u8>)> = exec.serial("bd R (table)", || match table_method {
        TableMethod::Merge { presort } => {
            let rids: Vec<Rid> = if presort {
                let (sorted, _) = sort_all(
                    pool.clone(),
                    deleted_a.iter().map(|&(k, r)| ByRid(r, k)),
                    ws_bytes,
                )?;
                sorted.into_iter().map(|b| b.0).collect()
            } else {
                // Clustered probe index: already in RID order.
                let rids: Vec<Rid> = deleted_a.iter().map(|e| e.1).collect();
                debug_assert!(rids.windows(2).all(|w| w[0] <= w[1]));
                rids
            };
            heap.bulk_delete_sorted(&rids)
        }
        TableMethod::HashProbe => {
            let set = RidSet::build(ws, deleted_a.iter().map(|e| e.1))?;
            heap.bulk_delete_probe(set.as_set())
        }
    })?;

    // Step 4: pipe the deleted rows into one ⋈̄ per remaining index.
    //
    // §3.1: unique indices first, serially — they can be brought back
    // online before anything else runs. The planner already orders them
    // first in `index_steps`; the partition below keeps that guarantee
    // even against a hand-built plan.
    let (unique_steps, fan_steps): (IndexSteps, IndexSteps) = steps
        .iter()
        .copied()
        .partition(|&(ipos, _)| indices[ipos].def.unique);

    for &(ipos, method) in &unique_steps {
        let name = format!("bd {} ({})", indices[ipos].def.name, method_tag(method));
        let index = &mut indices[ipos];
        let deleted_rows = &deleted_rows;
        exec.serial(name, || {
            run_index_arm(
                pool,
                ws,
                ws_bytes,
                schema,
                index,
                method,
                deleted_rows,
                policy,
            )
        })?;
    }

    // The fan-out group: one arm per remaining secondary index, plus one
    // per hash index (one bucket-ordered sweep each — the chains of one
    // hash index are independent of every other structure). Arms borrow
    // disjoint structures, so the group can run on worker threads.
    let n_arms = fan_steps.len() + hash_indices.len();
    if n_arms > 0 {
        let concurrency = workers.clamp(1, n_arms);
        // Concurrent arms split the sort workspace; the serial path keeps
        // the full budget (bit-identical to the pre-executor behaviour).
        let arm_bytes = if concurrency > 1 {
            (ws_bytes / concurrency).max(4096)
        } else {
            ws_bytes
        };

        // Disjoint `&mut Index` borrows for the fan-out arms, re-ordered
        // to match plan order (iter_mut yields catalog order).
        let rank_of = |ipos: usize| fan_steps.iter().position(|&(p, _)| p == ipos);
        let mut arm_indices: Vec<(usize, &mut Index)> = indices
            .iter_mut()
            .enumerate()
            .filter_map(|(i, ix)| rank_of(i).map(|r| (r, ix)))
            .collect();
        arm_indices.sort_by_key(|&(r, _)| r);

        let deleted_rows = &deleted_rows;
        let ws: &MemoryBudget = ws;
        let mut tasks: Vec<PhaseTask> = Vec::new();
        for ((_, index), &(_, method)) in arm_indices.into_iter().zip(fan_steps.iter()) {
            let name = format!("bd {} ({})", index.def.name, method_tag(method));
            let pool = pool.clone();
            tasks.push(PhaseTask::new(name, move || {
                run_index_arm(
                    &pool,
                    ws,
                    arm_bytes,
                    schema,
                    index,
                    method,
                    deleted_rows,
                    policy,
                )
            }));
        }
        for h in hash_indices.iter_mut() {
            let name = format!("{} (bucket sweep)", h.def.name);
            let attr = h.def.attr;
            tasks.push(PhaseTask::new(name, move || {
                let entries: Vec<(Key, Rid)> = deleted_rows
                    .iter()
                    .map(|(rid, bytes)| (schema.attr_of(bytes, attr), *rid))
                    .collect();
                h.index.bulk_delete(&entries)?;
                Ok(())
            }));
        }
        exec.fan_out(tasks)?;
    }

    let (rows, events) = exec.into_parts();
    Ok((
        deleted_rows
            .into_iter()
            .map(|(rid, bytes)| (rid, schema.decode(&bytes)))
            .collect(),
        rows,
        events,
    ))
}

/// Vertical bulk delete with referential-integrity enforcement: every
/// registered constraint on `(tid, probe_attr)` is processed *vertically
/// and early* — one read-only sorted merge per child index — before any
/// destructive pass, "so that no work needs to be undone if an integrity
/// constraint fails" (§2.2).
///
/// CASCADE closure is computed by [`crate::erasure::plan_cascade`]'s
/// worklist fixpoint, so constraint *cycles* (self-referencing tables,
/// mutually referencing tables) terminate with the complete delete set —
/// the previous depth-first walk guarded revisits with a visited set and
/// silently dropped keys discovered on a second visit, leaving dangling
/// references. Execution order is children first, root last, and a
/// RESTRICT anywhere in the graph aborts during planning with nothing
/// modified. Returns the root table's outcome.
pub fn vertical_with_constraints(
    db: &mut Database,
    tid: TableId,
    probe_attr: usize,
    d_keys: &[Key],
    policy: ReorgPolicy,
) -> DbResult<DeleteOutcome> {
    let plan = crate::erasure::plan_cascade(db, tid, probe_attr, d_keys)?;
    let root = plan
        .root_pos(tid, probe_attr)
        .expect("root step always present");
    let mut outcomes = crate::erasure::run_cascade(db, &plan, policy)?;
    Ok(outcomes.swap_remove(root))
}

/// The paper's benchmark configuration: vertical with sort/merge `⋈̄`s
/// everywhere ("We will only present results that were obtained using
/// sorting and merging"), with `workers` `⋈̄` arms (see [`vertical`]).
pub fn vertical_sort_merge(
    db: &mut Database,
    tid: TableId,
    probe_attr: usize,
    d_keys: &[Key],
    workers: usize,
) -> DbResult<DeleteOutcome> {
    let plan = plan_sort_merge(db.table(tid)?, probe_attr)?;
    vertical(db, tid, d_keys, &plan, ReorgPolicy::FreeAtEmpty, workers)
}
