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
//! [`PhaseExecutor`](crate::executor::PhaseExecutor). The vertical one is
//! [`run_passes`] over the [`pass`](crate::pass) core: the serial prefix
//! (the key-predicate `⋈̄`, the table pass, and §3.1's unique-index arms) in
//! pass order, then one independent arm per remaining secondary index and
//! hash index. Every entry point takes a `workers: usize` — `1` runs the
//! arms on the caller's thread, `> 1` dispatches them to worker threads;
//! because each arm touches only its own structure's pages, the physical
//! result is identical to the serial run — only the critical-path clock
//! shrinks.
//!
//! Every strategy returns the same [`DeleteOutcome`] and leaves the table
//! and indices in exactly equivalent states (property-tested, and audited
//! serial-vs-parallel).

use std::sync::Arc;
use std::sync::Mutex;

use bd_btree::{bulk_delete_by_keys, bulk_delete_probe, Key, ReorgPolicy};
use bd_exec::{range_partitions, sort_all, ByRid, RidSet, BYTES_PER_RID};
use bd_storage::{BufferPool, MemoryBudget, Rid, StorageResult, StructureId};

use crate::catalog::Index;
use crate::db::{build_index, Database, TableId, TableParts};
use crate::error::{DbError, DbResult};
use crate::executor::{PhaseExecutor, PhaseTask};
use crate::pass::{pass_order, project, split, Victims};
use crate::plan::{DeletePlan, IndexMethod, TableMethod};
use crate::planner::plan_sort_merge;
use crate::report::{measure, RunReport};
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

fn probe_pos(indices: &[Index], attr: usize) -> DbResult<usize> {
    indices
        .iter()
        .position(|i| i.def.attr == attr)
        .ok_or(DbError::NoProbeIndex { attr })
}

/// The record-at-a-time delete both horizontal baselines share: each key's
/// victims through the probe index `parts.indices[probe]`, then each victim
/// out of the heap and immediately out of every index and hash index the
/// table has — one root-to-leaf traversal per index per record.
fn delete_each(
    parts: &mut TableParts<'_>,
    probe: usize,
    keys: &[Key],
) -> StorageResult<Vec<(Rid, Tuple)>> {
    let schema = parts.schema;
    let mut deleted: Vec<(Rid, Tuple)> = Vec::new();
    for &key in keys {
        for rid in parts.indices[probe].tree.search(key)? {
            let bytes = parts.heap.delete(rid)?;
            for index in parts.indices.iter_mut() {
                let k = schema.attr_of(&bytes, index.def.attr);
                let existed = index.tree.delete_one(k, rid)?;
                debug_assert!(existed, "index entry missing for rid {rid}");
            }
            for h in parts.hash_indices.iter_mut() {
                h.index.delete(schema.attr_of(&bytes, h.def.attr), rid)?;
            }
            deleted.push((rid, schema.decode(&bytes)));
        }
    }
    Ok(deleted)
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
    let (mut parts, ws, pool) = db.parts(tid)?;
    let pos = probe_pos(parts.indices, probe_attr)?;
    let ws_bytes = ws.capacity().max(4096);
    let label = if presort {
        "sorted/trad"
    } else {
        "not sorted/trad"
    };

    let (deleted, mut report) = measure(&pool, label, || {
        let keys: Vec<Key> = if presort {
            sort_all(pool.clone(), d_keys.iter().copied(), ws_bytes)?.0
        } else {
            d_keys.to_vec()
        };
        delete_each(&mut parts, pos, &keys)
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
    let (mut parts, ws, pool) = db.parts(tid)?;
    let pos = probe_pos(parts.indices, probe_attr)?; // validate before measuring
    let ws_bytes = ws.capacity().max(4096);

    let ((deleted, phases), mut report) = measure(&pool, "drop&create", || {
        let mut exec = PhaseExecutor::new(workers);
        // Drop every index except the probe index (still needed to find the
        // records to delete), which is left alone at position 0.
        // Catalog-only: no I/O, no phase row.
        let probe = parts.indices.remove(pos);
        let dropped = std::mem::replace(parts.indices, vec![probe]);

        // Sorted traditional delete against heap + probe index.
        let keys: Vec<Key> = exec.serial("sort(D)", || {
            Ok(sort_all(pool.clone(), d_keys.iter().copied(), ws_bytes)?.0)
        })?;
        let deleted = exec.serial("trad delete (probe+heap)", || {
            delete_each(&mut parts, 0, &keys)
        })?;

        // Re-create the dropped indices — one independent arm per index.
        // Each arm scans the (now immutable) heap and builds only its own
        // tree, so the arms are safe to dispatch concurrently.
        let n_arms = dropped.len();
        let concurrency = workers.clamp(1, n_arms.max(1));
        let arm_bytes = if concurrency > 1 {
            (ws_bytes / concurrency).max(4096)
        } else {
            ws_bytes
        };
        let (heap, schema) = (&*parts.heap, parts.schema);
        let slots: Vec<Mutex<Option<Index>>> = (0..n_arms).map(|_| Mutex::new(None)).collect();
        let mut tasks: Vec<PhaseTask> = Vec::new();
        for (slot, def) in slots.iter().zip(dropped.into_iter().map(|ix| ix.def)) {
            let tag = match rebuild {
                RebuildMode::BulkLoad => "bulk load",
                RebuildMode::InsertEach => "insert each",
            };
            let name = format!("rebuild {} ({tag})", def.name);
            let pool = pool.clone();
            tasks.push(PhaseTask::new(name, move || {
                // Drop for real: free the old tree's pages before building.
                let owner = StructureId::index_of(tid, def.attr);
                pool.free_owned(owner);
                let tree = match rebuild {
                    RebuildMode::BulkLoad => {
                        build_index(&pool, heap, schema, &def, owner, arm_bytes)?
                    }
                    RebuildMode::InsertEach => {
                        let mut tree = bd_btree::BTree::create(pool.clone(), def.config, owner)?;
                        for (rid, bytes) in heap.dump()? {
                            tree.insert(schema.attr_of(&bytes, def.attr), rid)?;
                        }
                        tree
                    }
                };
                *slot.lock().expect("rebuild slot lock") = Some(Index { def, tree });
                Ok(())
            }));
        }
        exec.fan_out(tasks)?;
        for slot in slots {
            let index = slot.into_inner().expect("rebuild slot lock");
            parts.indices.push(index.expect("rebuild arm completed"));
        }
        let phases = exec.into_rows();
        Ok((deleted, phases))
    })?;
    report.deleted = deleted.len();
    report.phases = phases;
    report.workers = workers.max(1);
    Ok(DeleteOutcome { report, deleted })
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
    // Resolve the pass order up front (the plan may be stale).
    let (order, n_serial) = pass_order(db.table(tid)?, plan)?;
    let (parts, ws, pool) = db.parts(tid)?;
    let schema = parts.schema;
    let passes = split(parts, plan.probe_attr, &order);
    let ws_bytes = ws.capacity().max(4096);

    let ((deleted, phases), mut report) = measure(&pool, "bulk delete", || {
        let mut exec = PhaseExecutor::new(workers);
        // Sort D on the probe key (sort_D in Fig. 3).
        let keys: Vec<Key> = exec.serial("sort(D)", || {
            Ok(sort_all(pool.clone(), d_keys.iter().copied(), ws_bytes)?.0)
        })?;
        let rows = run_passes(
            &mut exec, &pool, &ws, schema, plan, passes, n_serial, &keys, policy,
        )?;
        let phases = exec.into_rows();
        let deleted: Vec<(Rid, Tuple)> = rows
            .into_iter()
            .map(|(rid, bytes)| (rid, schema.decode(&bytes)))
            .collect();
        Ok((deleted, phases))
    })?;
    report.deleted = deleted.len();
    report.phases = phases;
    report.workers = workers.max(1);
    Ok(DeleteOutcome { report, deleted })
}

/// Fig. 3 on `exec` for the sorted delete keys, over the `passes` that
/// [`split`] hands out for a [`pass_order`] of `plan` (or a subsequence of
/// one that keeps its first `n_serial`). The serial prefix runs one phase
/// at a time: `D ⋈̄ I_probe` by key merge, `⋈̄ R` by the plan's table
/// method, then each unique B-tree. The rest form one fan-out group, one
/// arm per structure, on up to `exec.workers()` threads. Returns the heap's
/// deleted rows.
///
/// The offline statement runs it once. The live driver runs it once per
/// chunk of keys, with the non-unique B-trees left out until its
/// propagation phase.
#[allow(clippy::too_many_arguments)] // one table's passes plus the statement
pub fn run_passes(
    exec: &mut PhaseExecutor,
    pool: &Arc<BufferPool>,
    ws: &MemoryBudget,
    schema: Schema,
    plan: &DeletePlan,
    passes: Vec<Victims<'_>>,
    n_serial: usize,
    keys: &[Key],
    policy: ReorgPolicy,
) -> StorageResult<Vec<(Rid, Vec<u8>)>> {
    let ws_bytes = ws.capacity().max(4096);
    let method_of = |index: &Index| {
        plan.index_steps
            .iter()
            .find(|s| s.attr == index.def.attr)
            .expect("the pass order comes from the plan")
            .method
    };
    let mut passes = passes.into_iter();
    let (Some(Victims::Tree(probe, _)), Some(Victims::Heap(heap, _))) =
        (passes.next(), passes.next())
    else {
        unreachable!("a pass order starts with the probe index and the table")
    };

    // D ⋈̄ I_probe — key-predicate sort/merge bulk delete; its output is the
    // list of (key, RID) entries removed.
    let deleted_a = exec.serial(format!("bd {} (key merge)", probe.def.name), || {
        bulk_delete_by_keys(&mut probe.tree, keys, policy)
    })?;

    // ⋈̄ R — delete the records from the base table.
    let rows = exec.serial("bd R (table)", || match plan.table {
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
            Victims::Heap(heap, rids).run(0, usize::MAX, policy, |_| Ok(()))
        }
        TableMethod::HashProbe => {
            let set = RidSet::build(ws, deleted_a.iter().map(|e| e.1))?;
            heap.bulk_delete_probe(set.as_set())
        }
    })?;

    // §3.1: unique indices next, serially — they can be brought back
    // online before anything else runs.
    let mut rest: Vec<Victims<'_>> = passes.collect();
    let fan = rest.split_off(n_serial - 2);
    for pass in rest {
        let Victims::Tree(index, _) = pass else {
            unreachable!("the serial prefix ends with the unique B-trees")
        };
        let method = method_of(index);
        let name = format!("bd {} ({})", index.def.name, method_tag(method));
        exec.serial(name, || {
            run_index_arm(pool, ws, ws_bytes, schema, index, method, &rows, policy)
        })?;
    }

    // The fan-out group: one arm per remaining secondary index, plus one
    // per hash index (one bucket-ordered sweep each — the chains of one
    // hash index are independent of every other structure). Arms borrow
    // disjoint structures, so the group can run on worker threads.
    if !fan.is_empty() {
        let concurrency = exec.workers().clamp(1, fan.len());
        // Concurrent arms split the sort workspace; the serial path keeps
        // the full budget (bit-identical to the pre-executor behaviour).
        let arm_bytes = if concurrency > 1 {
            (ws_bytes / concurrency).max(4096)
        } else {
            ws_bytes
        };
        let rows = &rows;
        let tasks: Vec<PhaseTask> = fan
            .into_iter()
            .map(|pass| match pass {
                Victims::Tree(index, _) => {
                    let method = method_of(index);
                    let name = format!("bd {} ({})", index.def.name, method_tag(method));
                    let pool = pool.clone();
                    PhaseTask::new(name, move || {
                        run_index_arm(&pool, ws, arm_bytes, schema, index, method, rows, policy)
                    })
                }
                Victims::Hash(h, _) => {
                    let name = format!("{} (bucket sweep)", h.def.name);
                    PhaseTask::new(name, move || {
                        let entries = project(rows, schema, h.def.attr).collect();
                        Victims::Hash(&mut *h, entries).run(0, usize::MAX, policy, |_| Ok(()))?;
                        Ok(())
                    })
                }
                Victims::Heap(..) => unreachable!("the table pass is in the serial prefix"),
            })
            .collect();
        exec.fan_out(tasks)?;
    }
    Ok(rows)
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
    let proj = project(deleted_rows, schema, index.def.attr);
    match method {
        IndexMethod::SortMerge { presort } => {
            let pairs: Vec<(Key, Rid)> = if presort {
                sort_all(pool.clone(), proj, sort_bytes)?.0
            } else {
                // Clustered downstream index: RID order implies key
                // order, so the projection arrives sorted.
                let pairs: Vec<(Key, Rid)> = proj.collect();
                debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
                pairs
            };
            Victims::Tree(index, pairs).run(0, usize::MAX, policy, |_| Ok(()))?;
        }
        IndexMethod::ClassicHash => {
            // "On a single-processor machine the same hash table can be
            // used" — we rebuild it per index; the footprint is
            // identical and the build is CPU-only. Concurrent arms each
            // hold a reservation against the shared workspace budget, so
            // oversubscription fails honestly instead of silently.
            let set = RidSet::build(ws, deleted_rows.iter().map(|e| e.0))?;
            bulk_delete_probe(&mut index.tree, set.as_set(), None, policy)?;
        }
        IndexMethod::PartitionedHash => {
            let (pairs, _) = sort_all(pool.clone(), proj, sort_bytes)?;
            let per_part = (sort_bytes / BYTES_PER_RID).max(1);
            let tree = &mut index.tree;
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
