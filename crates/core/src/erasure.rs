//! Cascading erasure: plan the full delete closure over the foreign-key
//! graph, execute it step by step, physically scrub every surface, and
//! prove the erased values are gone.
//!
//! The paper's constraint section (§2.2) checks integrity *vertically and
//! early*; this module extends that idea into a compliance-grade pipeline:
//!
//! 1. [`plan_cascade`] — a **fixpoint** computation over the FK graph. Key
//!    sets per `(table, attr)` node only grow, and the loop runs until no
//!    set grows, so CASCADE *cycles* (self-referencing tables, mutually
//!    referencing tables) terminate with the complete delete closure. A
//!    naive per-edge visited set is not enough: revisiting a node with
//!    newly discovered keys must *merge* them, not drop them.
//! 2. [`run_cascade`] — execute the plan, children before parents, each
//!    step one vertical bulk delete.
//! 3. [`scrub_database`] — destroy the physical residue a logically
//!    complete delete leaves behind (heap slack, tree slack and stale
//!    separators, hash swap-remove images, freed pages).
//! 4. [`verify_erasure`] — byte-scan every disk surface for sensitive
//!    values and report any residue ([`ErasureReport`]).
//!
//! The WAL-integrated campaign driver (durable manifest, crash-resumable
//! steps, log redaction) lives in `bd-wal`; it is built from these pieces.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use bd_btree::{Key, ReorgPolicy};
use bd_storage::{PageId, Rid, PAGE_SIZE};

use crate::db::{Database, TableId};
use crate::error::{DbError, DbResult};
use crate::strategy::DeleteOutcome;
use crate::tuple::Tuple;

/// One table's share of a cascading erasure: bulk-delete every row whose
/// `attr` value is in `keys` (sorted, deduplicated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeStep {
    /// Target table.
    pub table: TableId,
    /// Probe attribute (must be indexed).
    pub attr: usize,
    /// Sorted, deduplicated key closure for this node.
    pub keys: Vec<Key>,
}

/// The complete delete closure of one `DELETE` statement over the FK
/// graph, in execution order (children before parents, root last; inside
/// a cycle the order is discovery-based — any order is correct because
/// every step's key set is already the full fixpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadePlan {
    /// Steps in execution order.
    pub steps: Vec<CascadeStep>,
    /// True when the CASCADE edges actually used form a cycle.
    pub cyclic: bool,
}

impl CascadePlan {
    /// Position of the statement's root step within [`CascadePlan::steps`].
    pub fn root_pos(&self, table: TableId, attr: usize) -> Option<usize> {
        self.steps
            .iter()
            .position(|s| s.table == table && s.attr == attr)
    }
}

/// Read-only victim resolution: the rows a bulk delete of `keys` on
/// `(tid, attr)` would remove, with their RIDs, in RID order. One sorted
/// merge over the probe index's leaf chain (the read-only analogue of the
/// key-predicate bulk delete), then one read-ahead pass over the heap pages
/// holding the victims ([`bd_storage::HeapFile::get_sorted`]). `keys` need
/// not be sorted. The WAL driver materializes its victim rows with this.
pub fn victim_rows(
    db: &Database,
    tid: TableId,
    attr: usize,
    keys: &[Key],
) -> DbResult<Vec<(Rid, Tuple)>> {
    let table = db.table(tid)?;
    let index = table.index_on(attr).ok_or(DbError::NoProbeIndex { attr })?;
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut rids: Vec<Rid> = bd_btree::lookup_keys_sorted(&index.tree, &sorted)?
        .into_iter()
        .map(|(_, rid)| rid)
        .collect();
    rids.sort_unstable();
    let records = table.heap.get_sorted(&rids)?;
    Ok(rids
        .into_iter()
        .zip(records)
        .map(|(rid, bytes)| (rid, table.schema.decode(&bytes)))
        .collect())
}

/// Compute the delete closure of `DELETE FROM tid WHERE attr IN d_keys`
/// over every registered foreign key — read-only.
///
/// RESTRICT constraints abort here, before any destructive work, exactly
/// as §2.2 prescribes ("no work needs to be undone"). CASCADE constraints
/// grow the closure; a worklist fixpoint guarantees termination and
/// completeness even when the constraint graph is cyclic.
pub fn plan_cascade(
    db: &Database,
    tid: TableId,
    attr: usize,
    d_keys: &[Key],
) -> DbResult<CascadePlan> {
    type Node = (TableId, usize);
    let root: Node = (tid, attr);
    // Validate the root probe index up front (even for an empty key list).
    db.table(tid)?
        .index_on(attr)
        .ok_or(DbError::NoProbeIndex { attr })?;

    let mut sets: BTreeMap<Node, BTreeSet<Key>> = BTreeMap::new();
    let mut discovery: Vec<Node> = vec![root];
    sets.insert(root, d_keys.iter().copied().collect());
    let mut edges: BTreeSet<(Node, Node)> = BTreeSet::new();
    let mut work: Vec<(Node, Vec<Key>)> = vec![(root, sets[&root].iter().copied().collect())];

    // Worklist fixpoint: each item is a node plus the keys *newly* added
    // to it. Key sets grow monotonically and are bounded by the keys
    // physically present in the child indices, so the loop terminates.
    while let Some(((t, a), delta)) = work.pop() {
        let fks = db.foreign_keys_on_table(t);
        if fks.is_empty() {
            continue;
        }
        let rows = victim_rows(db, t, a, &delta)?;
        for fk in fks {
            let mut vals: Vec<Key> = rows.iter().map(|(_, r)| r.attr(fk.parent_attr)).collect();
            vals.sort_unstable();
            vals.dedup();
            if vals.is_empty() {
                continue;
            }
            // RESTRICT: errors right here. CASCADE: the referencing child
            // keys, or None when nothing references the vanishing values.
            if let Some(child_keys) = crate::constraint::enforce(db, &fk, &vals)? {
                let child: Node = (fk.child, fk.child_attr);
                edges.insert(((t, a), child));
                let set = sets.entry(child).or_insert_with(|| {
                    discovery.push(child);
                    BTreeSet::new()
                });
                let fresh: Vec<Key> = child_keys.into_iter().filter(|k| set.insert(*k)).collect();
                if !fresh.is_empty() {
                    work.push((child, fresh));
                }
            }
        }
    }

    // Cycle detection over the used edges (DFS, three colours).
    let mut adj: HashMap<Node, Vec<Node>> = HashMap::new();
    for &(p, c) in &edges {
        adj.entry(p).or_default().push(c);
    }
    let cyclic = has_cycle(&discovery, &adj);

    // Execution order: children before parents. `depth` is the longest
    // root distance along used edges, relaxed at most |nodes| sweeps (the
    // cap makes cyclic graphs converge to *a* deterministic order; the
    // fixpoint key sets make any order correct).
    let mut depth: HashMap<Node, usize> = discovery.iter().map(|&n| (n, 0)).collect();
    let cap = discovery.len();
    for _ in 0..cap {
        let mut changed = false;
        for &(p, c) in &edges {
            let d = (depth[&p] + 1).min(cap);
            if depth[&c] < d {
                depth.insert(c, d);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut order: Vec<(usize, usize, Node)> = discovery
        .iter()
        .enumerate()
        .map(|(i, &n)| (depth[&n], i, n))
        .collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let steps = order
        .into_iter()
        .map(|(_, _, node)| CascadeStep {
            table: node.0,
            attr: node.1,
            keys: sets[&node].iter().copied().collect(),
        })
        .collect();
    Ok(CascadePlan { steps, cyclic })
}

fn has_cycle(
    nodes: &[(TableId, usize)],
    adj: &HashMap<(TableId, usize), Vec<(TableId, usize)>>,
) -> bool {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut colour: HashMap<(TableId, usize), u8> = nodes.iter().map(|&n| (n, WHITE)).collect();
    for &start in nodes {
        if colour[&start] != WHITE {
            continue;
        }
        // Iterative DFS: (node, next child index).
        let mut stack: Vec<((TableId, usize), usize)> = vec![(start, 0)];
        colour.insert(start, GREY);
        while let Some(&mut (node, ref mut i)) = stack.last_mut() {
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *i < children.len() {
                let child = children[*i];
                *i += 1;
                match colour.get(&child).copied().unwrap_or(WHITE) {
                    GREY => return true,
                    WHITE => {
                        colour.insert(child, GREY);
                        stack.push((child, 0));
                    }
                    _ => {}
                }
            } else {
                colour.insert(node, BLACK);
                stack.pop();
            }
        }
    }
    false
}

/// Execute a cascade plan: one vertical bulk delete per step, in plan
/// order. Returns one [`DeleteOutcome`] per step (same order).
pub fn run_cascade(
    db: &mut Database,
    plan: &CascadePlan,
    policy: ReorgPolicy,
) -> DbResult<Vec<DeleteOutcome>> {
    let mut outcomes = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        outcomes.push(run_cascade_step(db, step, policy, 1)?);
    }
    Ok(outcomes)
}

/// Execute a single step of a cascade plan with up to `workers` threads
/// for the independent index arms (serial when `workers <= 1`).
pub fn run_cascade_step(
    db: &mut Database,
    step: &CascadeStep,
    policy: ReorgPolicy,
    workers: usize,
) -> DbResult<DeleteOutcome> {
    let p = crate::planner::plan_sort_merge(db.table(step.table)?, step.attr)?;
    crate::strategy::vertical(db, step.table, &step.keys, &p, policy, workers)
}

/// What [`scrub_database`] visited and destroyed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Heap pages visited.
    pub heap_pages: usize,
    /// Non-zero heap bytes destroyed (deleted-record images, compaction
    /// residue).
    pub heap_bytes: usize,
    /// Every B-tree page visited by the per-level chain walks — freed
    /// pages still threaded into a sibling chain are in here, and the
    /// free-page sweep must *not* wholesale-zero them (their headers keep
    /// the chains walkable); their slack is scrubbed by the tree pass.
    pub tree_pages: Vec<PageId>,
    /// Non-zero tree slack bytes destroyed.
    pub tree_slack_bytes: usize,
    /// Inner separators rewritten off deleted boundary keys.
    pub seps_tightened: usize,
    /// Hash pages whose swap-remove slack was destroyed.
    pub hash_pages: usize,
    /// Free pages zeroed wholesale.
    pub free_pages_zeroed: usize,
}

/// Destroy the physical residue of every logically deleted record in the
/// whole database: heap slack, tree slack + stale separators, hash
/// swap-remove images, then every catalogued-free page not still threaded
/// into a tree's sibling chain.
///
/// Pacer checkpoints run between pages, so a scrub cancelled by a pacer's
/// hook stops at a page boundary with everything it already scrubbed
/// durable.
pub fn scrub_database(db: &mut Database) -> DbResult<ScrubReport> {
    let mut rep = ScrubReport::default();
    for tid in 0..db.n_tables() {
        let (parts, _ws, _pool) = db.parts(tid)?;
        let (pages, bytes) = parts.heap.scrub()?;
        rep.heap_pages += pages;
        rep.heap_bytes += bytes;
        for index in parts.indices.iter_mut() {
            let t = bd_btree::scrub::scrub(&mut index.tree)?;
            rep.tree_pages.extend(t.pages);
            rep.tree_slack_bytes += t.slack_bytes;
            rep.seps_tightened += t.seps_tightened;
        }
        for h in parts.hash_indices.iter_mut() {
            rep.hash_pages += h.index.scrub()?;
        }
    }

    // Free-page sweep. The zeroing writes bypass the buffer pool (they go
    // straight to the disk), so flush and drop the cache first — no frame
    // may outlive the bytes it mirrors, or a later write-behind chain could
    // bridge over it and put the erased bytes back.
    db.pool().clear_cache()?;
    let chained: HashSet<PageId> = rep.tree_pages.iter().copied().collect();
    for pid in db.pool().catalog().free_pages() {
        if chained.contains(&pid) {
            continue;
        }
        bd_storage::pacer::checkpoint()?;
        db.pool().with_disk(|d| d.write(pid, &[0u8; PAGE_SIZE]))?;
        rep.free_pages_zeroed += 1;
    }
    Ok(rep)
}

/// One sensitive value found on a surface it should have vanished from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residue {
    /// Where (`page 12`, `wal`, ...).
    pub surface: String,
    /// The value found.
    pub value: u64,
}

/// The proof-of-deletion verdict: which sensitive values still have byte
/// images anywhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErasureReport {
    /// Sensitive values the caller asked about.
    pub sensitive: usize,
    /// Values excluded because a *surviving* row still legitimately holds
    /// them (a shared attribute value is not residue).
    pub excluded_survivors: usize,
    /// Every `(surface, value)` hit. Empty ⇒ proof holds.
    pub residue: Vec<Residue>,
}

impl ErasureReport {
    /// True when no sensitive value survives on any surface.
    pub fn is_clean(&self) -> bool {
        self.residue.is_empty()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        if self.is_clean() {
            format!(
                "erasure proof holds: {} sensitive values ({} shared with survivors), zero residue",
                self.sensitive, self.excluded_survivors
            )
        } else {
            let mut s = format!(
                "erasure proof FAILS: {} residue hits over {} sensitive values\n",
                self.residue.len(),
                self.sensitive
            );
            for r in &self.residue {
                s.push_str(&format!("  {:#018x} on {}\n", r.value, r.surface));
            }
            s
        }
    }
}

/// All attribute values of every row a cascade plan will delete, plus the
/// plan's own key closure. Read-only — call *before* [`run_cascade`].
pub fn collect_sensitive(db: &Database, plan: &CascadePlan) -> DbResult<Vec<u64>> {
    let mut out: BTreeSet<u64> = BTreeSet::new();
    for step in &plan.steps {
        for (_, row) in victim_rows(db, step.table, step.attr, &step.keys)? {
            out.extend(row.attrs.iter().copied());
        }
        out.extend(step.keys.iter().copied());
    }
    Ok(out.into_iter().collect())
}

/// Every attribute value still held by a surviving row of any table.
pub fn surviving_values(db: &Database) -> DbResult<HashSet<u64>> {
    let mut out = HashSet::new();
    for tid in 0..db.n_tables() {
        let table = db.table(tid)?;
        for (_rid, bytes) in table.heap.dump()? {
            out.extend(table.schema.decode(&bytes).attrs);
        }
    }
    Ok(out)
}

/// Scan `img` for any little-endian `u64` image of a target value, at
/// every byte offset, recording at most one hit per (surface, value).
pub fn scan_surface(surface: &str, img: &[u8], targets: &HashSet<u64>, out: &mut Vec<Residue>) {
    if targets.is_empty() {
        return;
    }
    let mut seen: HashSet<u64> = HashSet::new();
    for w in img.windows(8) {
        let v = u64::from_le_bytes(w.try_into().expect("8-byte window"));
        if targets.contains(&v) && seen.insert(v) {
            out.push(Residue {
                surface: surface.to_string(),
                value: v,
            });
        }
    }
}

/// The proof of deletion: flush the pool, subtract values surviving rows
/// still legitimately hold, then byte-scan **every** page image and any
/// extra surfaces the caller supplies (e.g. the raw WAL bytes) for the
/// remaining sensitive values.
pub fn verify_erasure(
    db: &Database,
    sensitive: &[u64],
    extra_surfaces: &[(&str, &[u8])],
) -> DbResult<ErasureReport> {
    db.pool().flush_all()?;
    let survivors = surviving_values(db)?;
    let targets: HashSet<u64> = sensitive
        .iter()
        .copied()
        .filter(|v| !survivors.contains(v))
        .collect();
    let mut residue = Vec::new();
    db.pool().with_disk(|d| {
        for pid in 0..d.num_pages() as PageId {
            if let Some(img) = d.peek(pid) {
                scan_surface(&format!("page {pid}"), img, &targets, &mut residue);
            }
        }
    });
    for (name, bytes) in extra_surfaces {
        scan_surface(name, bytes, &targets, &mut residue);
    }
    Ok(ErasureReport {
        sensitive: sensitive.len(),
        excluded_survivors: sensitive.len() - targets.len(),
        residue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::constraint::ForeignKey;
    use crate::db::DatabaseConfig;
    use crate::tuple::Schema;

    // High-entropy ids so byte scans cannot collide with metadata.
    fn tag(ns: u64, i: u64) -> u64 {
        0xACE0_0000_0000_0000 | (ns << 40) | (i * 0x0101 + 1)
    }

    fn db_with_tables(n: usize) -> (Database, Vec<TableId>) {
        let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
        let tids = (0..n)
            .map(|i| {
                let tid = db.create_table(&format!("T{i}"), Schema::new(3, 64));
                db.create_index(tid, IndexDef::secondary(0).unique())
                    .unwrap();
                db.create_index(tid, IndexDef::secondary(1)).unwrap();
                tid
            })
            .collect();
        (db, tids)
    }

    fn count_rows(db: &Database, tid: TableId) -> usize {
        db.table(tid).unwrap().heap.dump().unwrap().len()
    }

    /// A self-referencing CASCADE chain: row i's attr1 references row
    /// i-1's attr0. Deleting the chain head must delete the whole chain —
    /// the old visited-set guard dropped every key discovered after the
    /// first revisit of (T, attr1).
    #[test]
    fn self_referencing_cascade_deletes_whole_chain() {
        let (mut db, tids) = db_with_tables(1);
        let t = tids[0];
        db.add_foreign_key(ForeignKey::cascade("fk_self", t, 0, t, 1));
        let n = 24u64;
        // Chain: attr1 of row i = attr0 of row i-1; head references itself.
        for i in 0..n {
            let parent = if i == 0 { tag(0, 0) } else { tag(0, i - 1) };
            db.insert(t, &Tuple::new(vec![tag(0, i), parent, 7]))
                .unwrap();
        }
        // Unrelated survivor rows.
        for i in 100..110u64 {
            db.insert(t, &Tuple::new(vec![tag(0, i), tag(0, 99), 7]))
                .unwrap();
        }

        let plan = plan_cascade(&db, t, 0, &[tag(0, 0)]).unwrap();
        assert!(plan.cyclic, "head references itself: cycle");
        // Closure covers every chain id (n ids through the attr1 node).
        let closure: BTreeSet<Key> = plan
            .steps
            .iter()
            .flat_map(|s| s.keys.iter().copied())
            .collect();
        for i in 0..n - 1 {
            assert!(closure.contains(&tag(0, i)), "chain id {i} missing");
        }

        // The head self-references, so the (T, attr1) child step already
        // removes it; the root step then finds nothing left — overlapping
        // steps are benign because bulk deletes tolerate absent keys.
        let out = db.delete_in(t, 0, &[tag(0, 0)]).unwrap();
        assert_eq!(out.deleted.len(), 0, "head removed by the child step");
        assert_eq!(count_rows(&db, t), 10, "whole chain gone, survivors stay");
        db.check_consistency(t).unwrap();
        // No dangling references: every attr1 value still present belongs
        // to a surviving attr0 (or is the survivor sentinel).
        for (_, bytes) in db.table(t).unwrap().heap.dump().unwrap() {
            let row = db.table(t).unwrap().schema.decode(&bytes);
            assert_eq!(row.attr(1), tag(0, 99));
        }
    }

    /// Two tables CASCADE into each other; the closure alternates between
    /// them. The fixpoint must terminate and cover both sides.
    #[test]
    fn mutually_referencing_tables_reach_fixpoint() {
        let (mut db, tids) = db_with_tables(2);
        let (a, b) = (tids[0], tids[1]);
        db.add_foreign_key(ForeignKey::cascade("fk_ab", a, 0, b, 1));
        db.add_foreign_key(ForeignKey::cascade("fk_ba", b, 0, a, 1));
        let n = 10u64;
        // a_i references b_{i-1}; b_i references a_i. Deleting a_0 walks
        // the whole ladder.
        for i in 0..n {
            let parent = if i == 0 { tag(2, 0) } else { tag(2, i - 1) };
            db.insert(a, &Tuple::new(vec![tag(1, i), parent, 1]))
                .unwrap();
            db.insert(b, &Tuple::new(vec![tag(2, i), tag(1, i), 2]))
                .unwrap();
        }

        let plan = plan_cascade(&db, a, 0, &[tag(1, 0)]).unwrap();
        assert!(plan.cyclic);
        db.delete_in(a, 0, &[tag(1, 0)]).unwrap();
        assert_eq!(count_rows(&db, a), 0, "every a row is in the closure");
        assert_eq!(count_rows(&db, b), 0, "every b row is in the closure");
        db.check_consistency(a).unwrap();
        db.check_consistency(b).unwrap();
    }

    /// A RESTRICT edge anywhere below the root aborts during planning,
    /// before any destructive work.
    #[test]
    fn restrict_below_cascade_aborts_with_nothing_modified() {
        let (mut db, tids) = db_with_tables(3);
        let (a, b, c) = (tids[0], tids[1], tids[2]);
        db.add_foreign_key(ForeignKey::cascade("fk_ab", a, 0, b, 1));
        db.add_foreign_key(ForeignKey::restrict("fk_bc", b, 0, c, 1));
        db.insert(a, &Tuple::new(vec![tag(3, 1), 0, 0])).unwrap();
        db.insert(b, &Tuple::new(vec![tag(4, 1), tag(3, 1), 0]))
            .unwrap();
        db.insert(c, &Tuple::new(vec![tag(5, 1), tag(4, 1), 0]))
            .unwrap();

        let err = db.delete_in(a, 0, &[tag(3, 1)]).unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
        assert_eq!(count_rows(&db, a), 1);
        assert_eq!(count_rows(&db, b), 1);
        assert_eq!(count_rows(&db, c), 1);
        for &t in &[a, b, c] {
            db.check_consistency(t).unwrap();
        }
    }

    /// Acyclic chains order children first, root last.
    #[test]
    fn plan_orders_children_before_parents() {
        let (mut db, tids) = db_with_tables(3);
        let (a, b, c) = (tids[0], tids[1], tids[2]);
        db.add_foreign_key(ForeignKey::cascade("fk_ab", a, 0, b, 1));
        db.add_foreign_key(ForeignKey::cascade("fk_bc", b, 0, c, 1));
        db.insert(a, &Tuple::new(vec![tag(6, 1), 0, 0])).unwrap();
        db.insert(b, &Tuple::new(vec![tag(7, 1), tag(6, 1), 0]))
            .unwrap();
        db.insert(c, &Tuple::new(vec![tag(8, 1), tag(7, 1), 0]))
            .unwrap();

        let plan = plan_cascade(&db, a, 0, &[tag(6, 1)]).unwrap();
        assert!(!plan.cyclic);
        let order: Vec<TableId> = plan.steps.iter().map(|s| s.table).collect();
        assert_eq!(order, vec![c, b, a], "deepest child first, root last");
        assert_eq!(plan.root_pos(a, 0), Some(2));
    }

    /// End-to-end single-table proof: delete, scrub, verify zero residue
    /// on every page.
    #[test]
    fn scrub_then_verify_proves_erasure() {
        let (mut db, tids) = db_with_tables(1);
        let t = tids[0];
        db.create_hash_index(t, 2).unwrap();
        let n = 400u64;
        for i in 0..n {
            db.insert(t, &Tuple::new(vec![tag(9, i), tag(10, i), tag(11, i)]))
                .unwrap();
        }
        let d_keys: Vec<Key> = (0..n / 2).map(|i| tag(9, i)).collect();
        let plan = plan_cascade(&db, t, 0, &d_keys).unwrap();
        let sensitive = collect_sensitive(&db, &plan).unwrap();
        assert_eq!(sensitive.len(), (n as usize / 2) * 3);

        // Before scrubbing, the delete alone must leave residue — the
        // whole reason this subsystem exists.
        run_cascade(&mut db, &plan, ReorgPolicy::FreeAtEmpty).unwrap();
        let before = verify_erasure(&db, &sensitive, &[]).unwrap();
        assert!(
            !before.is_clean(),
            "logical delete should leave physical residue"
        );

        let rep = scrub_database(&mut db).unwrap();
        assert!(rep.heap_bytes > 0);
        let after = verify_erasure(&db, &sensitive, &[]).unwrap();
        assert!(after.is_clean(), "{}", after.render());
        db.check_consistency(t).unwrap();
    }

    /// Values shared with surviving rows are excluded, not reported.
    #[test]
    fn verifier_subtracts_survivor_values() {
        let (mut db, tids) = db_with_tables(1);
        let t = tids[0];
        let shared = tag(12, 7);
        db.insert(t, &Tuple::new(vec![tag(12, 1), shared, 0]))
            .unwrap();
        db.insert(t, &Tuple::new(vec![tag(12, 2), shared, 0]))
            .unwrap();
        let plan = plan_cascade(&db, t, 0, &[tag(12, 1)]).unwrap();
        let sensitive = collect_sensitive(&db, &plan).unwrap();
        assert!(sensitive.contains(&shared));
        run_cascade(&mut db, &plan, ReorgPolicy::FreeAtEmpty).unwrap();
        scrub_database(&mut db).unwrap();
        let rep = verify_erasure(&db, &sensitive, &[]).unwrap();
        assert!(rep.excluded_survivors >= 1, "shared value excluded");
        assert!(rep.is_clean(), "{}", rep.render());
    }
}
