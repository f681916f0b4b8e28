//! Differential audit harness.
//!
//! The paper's correctness claim is that every delete strategy — horizontal,
//! drop&create, and the vertical set-oriented plans — is a drop-in
//! replacement for the others. [`Database::check_consistency`] asserts a
//! *single* database agrees with itself; this module goes further:
//!
//! * [`ShadowDb`] — a tiny in-memory model database that mirrors every
//!   insert and delete. [`ShadowDb::diff`] compares the model
//!   against the real engine structure by structure (heap record multiset,
//!   exact B-tree entry lists plus all structural invariants, FSM-vs-page
//!   occupancy, hash-chain contents) and reports each divergence.
//! * [`audit_equivalence`] — a differential checker asserting that two
//!   databases, typically the same workload executed under two different
//!   delete strategies, are in equivalent physical state.
//! * [`AuditReport`] — the structured result: one [`AuditFinding`] per
//!   divergence, naming the structure and describing the diff.
//!
//! Unlike `check_consistency`, nothing here panics on divergence: the
//! harness accumulates findings so a single run reports *every* broken
//! structure, which is what makes planted-corruption self-tests and the
//! every-driver diff (`tests/strategy_equivalence.rs`) useful.

use std::collections::BTreeMap;
use std::fmt;

use bd_btree::{verify, verify::TreeAudit, Key};
use bd_storage::Rid;

use crate::db::{Database, TableId};
use crate::error::DbResult;
use crate::tuple::{attr_name, Schema, Tuple};

/// Maximum diverging items quoted per finding (the full counts are always
/// reported; samples keep reports readable at scale).
const SAMPLE: usize = 5;

/// One divergence found by the audit harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// The structure that diverged, e.g. `heap`, `btree I_B`, `hash H_D`,
    /// `fsm`, `catalog`.
    pub structure: String,
    /// Human-readable description of the diff.
    pub detail: String,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.structure, self.detail)
    }
}

/// Structured result of an audit: empty means the compared states are
/// equivalent (or the audited database matches its model).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Every divergence found, in structure order.
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// True when no divergence was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Record a finding against `structure`.
    pub fn push(&mut self, structure: impl Into<String>, detail: impl Into<String>) {
        self.findings.push(AuditFinding {
            structure: structure.into(),
            detail: detail.into(),
        });
    }

    /// Render the report for humans (one line per finding).
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "audit clean: no divergence".to_string();
        }
        let mut out = format!("audit found {} divergence(s):\n", self.findings.len());
        for f in &self.findings {
            out.push_str(&format!("  {f}\n"));
        }
        out
    }

    /// Turn a clean report into `Ok(())` and a dirty one into `Err(self)`
    /// (test-friendly: `.into_result().unwrap()`).
    pub fn into_result(self) -> Result<(), AuditReport> {
        if self.is_clean() {
            Ok(())
        } else {
            Err(self)
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl std::error::Error for AuditReport {}

/// Describe how two sorted multisets diverge: counts plus a bounded sample
/// of the elements unique to each side. `None` when they are equal.
fn diff_sorted<T: Ord + Clone + fmt::Debug>(
    ours: &[T],
    theirs: &[T],
    our_name: &str,
    their_name: &str,
) -> Option<String> {
    if ours == theirs {
        return None;
    }
    let mut only_ours = Vec::new();
    let mut only_theirs = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < ours.len() || j < theirs.len() {
        match (ours.get(i), theirs.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                only_ours.push(a.clone());
                i += 1;
            }
            (Some(_), Some(b)) => {
                only_theirs.push(b.clone());
                j += 1;
            }
            (Some(a), None) => {
                only_ours.push(a.clone());
                i += 1;
            }
            (None, Some(b)) => {
                only_theirs.push(b.clone());
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    let mut msg = format!(
        "{our_name} has {} entries, {their_name} has {}",
        ours.len(),
        theirs.len()
    );
    if !only_ours.is_empty() {
        msg.push_str(&format!(
            "; {} only in {our_name}, e.g. {:?}",
            only_ours.len(),
            &only_ours[..only_ours.len().min(SAMPLE)]
        ));
    }
    if !only_theirs.is_empty() {
        msg.push_str(&format!(
            "; {} only in {their_name}, e.g. {:?}",
            only_theirs.len(),
            &only_theirs[..only_theirs.len().min(SAMPLE)]
        ));
    }
    Some(msg)
}

/// Audit the internal consistency of one table: B-tree invariants,
/// FSM-vs-occupancy, hash-chain structure, and index-vs-heap agreement.
/// This is the structured (non-panicking) sibling of
/// [`Database::check_consistency`]; both the shadow diff and the
/// equivalence check run it on each side first.
pub fn audit_table(db: &Database, tid: TableId) -> DbResult<AuditReport> {
    let mut report = AuditReport::default();
    let table = db.table(tid)?;
    let heap_rows: Vec<(Rid, Tuple)> = table
        .heap
        .dump()?
        .into_iter()
        .map(|(rid, bytes)| (rid, table.schema.decode(&bytes)))
        .collect();

    // FSM vs actual page occupancy.
    for m in table.heap.audit_fsm()? {
        report.push(
            "fsm",
            format!(
                "page {}: recorded {:?} free bytes, actual {}",
                m.page, m.recorded, m.actual
            ),
        );
    }

    // Every B-tree: structural invariants + entries match the heap.
    for index in &table.indices {
        let name = format!("btree {}", index.def.name);
        match verify::audit(&index.tree) {
            Err(v) => report.push(&name, v.to_string()),
            Ok(audit) => {
                let mut expect: Vec<(Key, Rid)> = heap_rows
                    .iter()
                    .map(|(rid, t)| (t.attr(index.def.attr), *rid))
                    .collect();
                expect.sort_unstable();
                if let Some(diff) = diff_sorted(&audit.entries, &expect, "index", "heap") {
                    report.push(&name, diff);
                }
            }
        }
    }

    // Every hash index: chain invariants + entries match the heap.
    for h in &table.hash_indices {
        let name = format!("hash {}", h.def.name);
        let audit = h.index.audit()?;
        for v in &audit.violations {
            report.push(&name, v.clone());
        }
        let mut got = audit.entries();
        got.sort_unstable();
        let mut expect: Vec<(Key, Rid)> = heap_rows
            .iter()
            .map(|(rid, t)| (t.attr(h.def.attr), *rid))
            .collect();
        expect.sort_unstable();
        if let Some(diff) = diff_sorted(&got, &expect, "index", "heap") {
            report.push(&name, diff);
        }
    }

    // Heap record counter.
    if table.heap.len() != heap_rows.len() {
        report.push(
            "heap",
            format!(
                "record counter says {} but {} records are on disk",
                table.heap.len(),
                heap_rows.len()
            ),
        );
    }
    Ok(report)
}

/// Audit the page catalog against reality for one table.
///
/// Walks every structure's real page set — the heap's page list, each
/// B-tree's child-pointer reachability, each hash index's bucket chains —
/// and checks the invariants media recovery depends on:
///
/// * every reachable page is catalogued to exactly the structure that
///   reaches it (so a torn page condemns the right structure);
/// * no page is reachable from two structures;
/// * every catalog-*free* page is unreachable (so healing a free page
///   without a rebuild is always safe);
/// * the heap's FSM tracks exactly the walked heap pages (the catalog, the
///   FSM, and the page walk agree on what the table owns).
///
/// Owned-but-unreachable pages are legal and not reported: leaf compaction
/// and base-node packing abandon pages without freeing them, and a
/// collapsed root stays catalogued so checkpoint restores stay valid.
pub fn audit_catalog(db: &Database, tid: TableId) -> DbResult<AuditReport> {
    use bd_storage::{PageId, StructureId};
    let mut report = AuditReport::default();
    let table = db.table(tid)?;
    let catalog = db.pool().catalog();

    let mut reachable: BTreeMap<PageId, StructureId> = BTreeMap::new();
    let mut claim = |report: &mut AuditReport, pid: PageId, owner: StructureId| {
        if let Some(prev) = reachable.insert(pid, owner) {
            if prev != owner {
                report.push(
                    "catalog",
                    format!("page {pid} is reachable from both {prev} and {owner}"),
                );
            }
        }
    };
    for &pid in table.heap.page_ids() {
        claim(&mut report, pid, StructureId::Table);
    }
    for index in &table.indices {
        let owner = StructureId::index_of(tid, index.def.attr);
        for pid in index.tree.pages()? {
            claim(&mut report, pid, owner);
        }
    }
    for h in &table.hash_indices {
        let owner = StructureId::hash_of(tid, h.def.attr);
        for pid in h.index.pages()? {
            claim(&mut report, pid, owner);
        }
    }

    // Reachable ⇒ owned by exactly that structure.
    for (&pid, &owner) in &reachable {
        match catalog.owner(pid) {
            Some(o) if o == owner => {}
            Some(o) => report.push(
                "catalog",
                format!("page {pid} is reachable from {owner} but catalogued as {o}"),
            ),
            None => report.push(
                "catalog",
                format!("page {pid} is reachable from {owner} but catalogued as free"),
            ),
        }
    }
    // Free ⇒ unreachable (the dual; covers free pages nothing walks).
    for pid in catalog.free_pages() {
        if let Some(owner) = reachable.get(&pid) {
            report.push(
                "catalog",
                format!("page {pid} is catalogued as free but reachable from {owner}"),
            );
        }
    }
    // FSM ↔ page walk: every heap page has a free-space entry.
    for &pid in table.heap.page_ids() {
        if table.heap.fsm_free(pid).is_none() {
            report.push(
                "catalog",
                format!("heap page {pid} is missing from the free-space map"),
            );
        }
    }
    // The dual: every FSM entry names a current heap page. A stale entry
    // for a released (possibly recycled) page would let `next_fit` steer
    // an insert into a page the table no longer owns.
    {
        let heap_pages: std::collections::BTreeSet<PageId> =
            table.heap.page_ids().iter().copied().collect();
        for pid in table.heap.fsm_pages() {
            if !heap_pages.contains(&pid) {
                report.push(
                    "catalog",
                    format!("free-space map tracks page {pid}, which is not a heap page"),
                );
            }
        }
    }
    Ok(report)
}

/// What [`audit_equivalence_with`] compares beyond logical content.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditOptions {
    /// Also compare each matched B-tree's *physical shape* — height,
    /// per-leaf fill profile, and detached-empty-leaf count from
    /// [`TreeAudit`] (never page ids, which are allocator-dependent).
    ///
    /// Two different strategies legitimately produce different layouts for
    /// the same logical state (incremental maintenance vs. a packed bulk
    /// load), so this is off by default; turn it on for *same-strategy
    /// determinism* checks, where the runs must be physically identical.
    pub physical_shape: bool,
}

impl AuditOptions {
    /// Logical content only (the default).
    pub fn logical() -> Self {
        AuditOptions::default()
    }

    /// Logical content plus physical B-tree shape.
    pub fn with_physical_shape() -> Self {
        AuditOptions {
            physical_shape: true,
        }
    }
}

/// Describe how two tree shapes diverge (height, leaf-fill profile,
/// detached empty leaves). `None` when the shapes agree. Page ids are
/// deliberately ignored: two identical delete histories may still place
/// leaves on different physical pages.
fn shape_diff(a: &TreeAudit, b: &TreeAudit, a_name: &str, b_name: &str) -> Option<String> {
    if a.height != b.height {
        return Some(format!(
            "{a_name} has height {}, {b_name} has {}",
            a.height, b.height
        ));
    }
    if a.detached_empty_leaves != b.detached_empty_leaves {
        return Some(format!(
            "{a_name} has {} detached empty leaves, {b_name} has {}",
            a.detached_empty_leaves, b.detached_empty_leaves
        ));
    }
    if a.leaf_fill != b.leaf_fill {
        if a.leaf_fill.len() != b.leaf_fill.len() {
            return Some(format!(
                "{a_name} has {} reachable leaves, {b_name} has {}",
                a.leaf_fill.len(),
                b.leaf_fill.len()
            ));
        }
        let (i, (fa, fb)) = a
            .leaf_fill
            .iter()
            .zip(&b.leaf_fill)
            .enumerate()
            .find(|(_, (x, y))| x != y)
            .expect("profiles differ");
        return Some(format!(
            "leaf fill profiles diverge at leaf {i}: {a_name} holds {fa} entries, {b_name} {fb}"
        ));
    }
    None
}

/// Differential physical-state equivalence between two databases holding
/// the same table — typically the same build + workload executed under two
/// different delete strategies. Checks, per structure:
///
/// * the exact heap record multiset `(rid, bytes)`;
/// * each B-tree's exact entry list (after verifying all invariants on
///   both sides) — physical node layout is allowed to differ, the logical
///   content is not;
/// * each hash index's entry multiset and chain invariants;
/// * FSM-vs-occupancy consistency on both sides;
/// * the catalogs describe the same set of indices.
pub fn audit_equivalence(db_a: &Database, db_b: &Database, tid: TableId) -> DbResult<AuditReport> {
    audit_equivalence_with(db_a, db_b, tid, AuditOptions::logical())
}

/// [`audit_equivalence`] with explicit [`AuditOptions`]; the physical-shape
/// mode additionally diffs each matched B-tree's [`TreeAudit`] layout.
pub fn audit_equivalence_with(
    db_a: &Database,
    db_b: &Database,
    tid: TableId,
    opts: AuditOptions,
) -> DbResult<AuditReport> {
    let mut report = AuditReport::default();
    let ta = db_a.table(tid)?;
    let tb = db_b.table(tid)?;

    // Per-side internal consistency first: a divergence between two sides
    // is uninterpretable if one side is internally broken.
    for (side, db) in [("A", db_a), ("B", db_b)] {
        for f in audit_table(db, tid)?.findings {
            report.push(f.structure, format!("side {side}: {}", f.detail));
        }
    }

    // Exact heap record multiset, in RID order.
    let heap_a = ta.heap.dump()?;
    let heap_b = tb.heap.dump()?;
    if heap_a != heap_b {
        let rids_a: Vec<Rid> = heap_a.iter().map(|&(r, _)| r).collect();
        let rids_b: Vec<Rid> = heap_b.iter().map(|&(r, _)| r).collect();
        if let Some(diff) = diff_sorted(&rids_a, &rids_b, "A", "B") {
            report.push("heap", diff);
        } else {
            // Same RIDs, different bytes: quote the first differing record.
            for ((rid, a), (_, b)) in heap_a.iter().zip(&heap_b) {
                if a != b {
                    report.push(
                        "heap",
                        format!(
                            "record {rid} differs: A={:?}.. B={:?}..",
                            &a[..a.len().min(16)],
                            &b[..b.len().min(16)]
                        ),
                    );
                    break;
                }
            }
        }
    }

    // Catalogs must describe the same indices.
    let names_a: Vec<&str> = ta.indices.iter().map(|i| i.def.name.as_str()).collect();
    let names_b: Vec<&str> = tb.indices.iter().map(|i| i.def.name.as_str()).collect();
    if names_a != names_b {
        report.push(
            "catalog",
            format!("A has B-tree indices {names_a:?}, B has {names_b:?}"),
        );
    }

    // Exact entry lists per matched B-tree.
    for ia in &ta.indices {
        let Some(ib) = tb.index_on(ia.def.attr) else {
            continue; // already reported as a catalog divergence
        };
        let name = format!("btree {}", ia.def.name);
        let (aa, ab) = match (verify::audit(&ia.tree), verify::audit(&ib.tree)) {
            (Ok(a), Ok(b)) => (a, b),
            // Invariant violations were already reported per side.
            _ => continue,
        };
        if let Some(diff) = diff_sorted(&aa.entries, &ab.entries, "A", "B") {
            report.push(&name, diff);
        }
        if opts.physical_shape {
            if let Some(diff) = shape_diff(&aa, &ab, "A", "B") {
                report.push(format!("{name} (shape)"), diff);
            }
        }
    }

    // Hash index entry multisets.
    let hnames_a: Vec<&str> = ta
        .hash_indices
        .iter()
        .map(|h| h.def.name.as_str())
        .collect();
    let hnames_b: Vec<&str> = tb
        .hash_indices
        .iter()
        .map(|h| h.def.name.as_str())
        .collect();
    if hnames_a != hnames_b {
        report.push(
            "catalog",
            format!("A has hash indices {hnames_a:?}, B has {hnames_b:?}"),
        );
    }
    for ha in &ta.hash_indices {
        let Some(hb) = tb.hash_index_on(ha.def.attr) else {
            continue;
        };
        let name = format!("hash {}", ha.def.name);
        let mut ea = ha.index.scan()?;
        let mut eb = hb.index.scan()?;
        ea.sort_unstable();
        eb.sort_unstable();
        if let Some(diff) = diff_sorted(&ea, &eb, "A", "B") {
            report.push(&name, diff);
        }
    }

    Ok(report)
}

/// Shadow model of one table: the rows the engine *should* hold, keyed by
/// RID, plus which attributes are indexed.
#[derive(Debug, Clone, Default)]
struct ShadowTable {
    schema: Option<Schema>,
    rows: BTreeMap<Rid, Tuple>,
    btree_attrs: Vec<usize>,
    hash_attrs: Vec<usize>,
}

/// In-memory model database for differential testing.
///
/// Mirror every mutation you apply to the real [`Database`] (the engine's
/// `insert` returns the [`Rid`] to mirror with), then call
/// [`ShadowDb::diff`]: it independently derives the expected state of every
/// structure from the model and compares it against what the engine's
/// heap, B-trees, FSM and hash chains actually hold.
#[derive(Debug, Clone, Default)]
pub struct ShadowDb {
    tables: Vec<ShadowTable>,
}

impl ShadowDb {
    /// Empty model.
    pub fn new() -> Self {
        ShadowDb::default()
    }

    /// Snapshot the current state of `db`'s table `tid` into a fresh model
    /// (convenient starting point when the build phase is already trusted).
    pub fn mirror_of(db: &Database, tid: TableId) -> DbResult<ShadowDb> {
        let mut shadow = ShadowDb::new();
        let table = db.table(tid)?;
        while shadow.tables.len() <= tid {
            shadow.tables.push(ShadowTable::default());
        }
        let st = &mut shadow.tables[tid];
        st.schema = Some(table.schema);
        st.btree_attrs = table.indices.iter().map(|i| i.def.attr).collect();
        st.hash_attrs = table.hash_indices.iter().map(|h| h.def.attr).collect();
        for (rid, bytes) in table.heap.dump()? {
            st.rows.insert(rid, table.schema.decode(&bytes));
        }
        Ok(shadow)
    }

    fn table_mut(&mut self, tid: TableId) -> &mut ShadowTable {
        while self.tables.len() <= tid {
            self.tables.push(ShadowTable::default());
        }
        &mut self.tables[tid]
    }

    /// Mirror of [`Database::create_table`].
    pub fn create_table(&mut self, tid: TableId, schema: Schema) {
        self.table_mut(tid).schema = Some(schema);
    }

    /// Mirror of [`Database::create_index`].
    pub fn create_index(&mut self, tid: TableId, attr: usize) {
        self.table_mut(tid).btree_attrs.push(attr);
    }

    /// Mirror of [`Database::create_hash_index`].
    pub fn create_hash_index(&mut self, tid: TableId, attr: usize) {
        self.table_mut(tid).hash_attrs.push(attr);
    }

    /// Mirror of [`Database::insert`] (pass the RID the engine returned).
    pub fn insert(&mut self, tid: TableId, rid: Rid, tuple: Tuple) {
        self.table_mut(tid).rows.insert(rid, tuple);
    }

    /// Mirror of a single-record delete.
    pub fn delete(&mut self, tid: TableId, rid: Rid) -> Option<Tuple> {
        self.table_mut(tid).rows.remove(&rid)
    }

    /// Mirror of `DELETE FROM tid WHERE attr IN keys` — the model's own
    /// semantics, computed independently of any engine strategy. Returns
    /// the deleted rows in RID order.
    pub fn delete_in(&mut self, tid: TableId, attr: usize, keys: &[Key]) -> Vec<(Rid, Tuple)> {
        let keyset: std::collections::HashSet<Key> = keys.iter().copied().collect();
        let st = self.table_mut(tid);
        let victims: Vec<Rid> = st
            .rows
            .iter()
            .filter(|(_, t)| keyset.contains(&t.attr(attr)))
            .map(|(&rid, _)| rid)
            .collect();
        victims
            .into_iter()
            .map(|rid| (rid, st.rows.remove(&rid).expect("victim exists")))
            .collect()
    }

    /// Rows the model holds for `tid`, in RID order.
    pub fn rows(&self, tid: TableId) -> Vec<(Rid, Tuple)> {
        self.tables
            .get(tid)
            .map(|t| t.rows.iter().map(|(&r, t)| (r, t.clone())).collect())
            .unwrap_or_default()
    }

    /// Number of rows the model holds for `tid`.
    pub fn len(&self, tid: TableId) -> usize {
        self.tables.get(tid).map(|t| t.rows.len()).unwrap_or(0)
    }

    /// True when the model holds no rows for `tid`.
    pub fn is_empty(&self, tid: TableId) -> bool {
        self.len(tid) == 0
    }

    /// Diff the model against the real engine, structure by structure:
    /// heap record multiset, each B-tree's exact entries (plus structural
    /// invariants), FSM-vs-occupancy, and hash-chain contents.
    pub fn diff(&self, db: &Database, tid: TableId) -> DbResult<AuditReport> {
        // Internal-consistency findings (invariants, FSM, counters) first.
        let mut report = audit_table(db, tid)?;
        let table = db.table(tid)?;
        let empty = ShadowTable::default();
        let st = self.tables.get(tid).unwrap_or(&empty);

        // Heap: exact (rid, tuple) list in RID order.
        let got_rows: Vec<(Rid, Tuple)> = table
            .heap
            .dump()?
            .into_iter()
            .map(|(rid, bytes)| (rid, table.schema.decode(&bytes)))
            .collect();
        let want_rows: Vec<(Rid, Tuple)> = st.rows.iter().map(|(&r, t)| (r, t.clone())).collect();
        if got_rows != want_rows {
            let got_rids: Vec<Rid> = got_rows.iter().map(|&(r, _)| r).collect();
            let want_rids: Vec<Rid> = want_rows.iter().map(|&(r, _)| r).collect();
            if let Some(diff) = diff_sorted(&got_rids, &want_rids, "engine", "model") {
                report.push("heap", diff);
            } else {
                for ((rid, a), (_, b)) in got_rows.iter().zip(&want_rows) {
                    if a != b {
                        report.push(
                            "heap",
                            format!("record {rid} differs: engine={a:?}, model={b:?}"),
                        );
                        break;
                    }
                }
            }
        }

        // Catalog: the engine must index exactly the attrs the model says.
        let got_attrs: Vec<usize> = table.indices.iter().map(|i| i.def.attr).collect();
        if got_attrs != st.btree_attrs {
            report.push(
                "catalog",
                format!(
                    "engine has B-trees on attrs {got_attrs:?}, model expects {:?}",
                    st.btree_attrs
                ),
            );
        }
        let got_hash: Vec<usize> = table.hash_indices.iter().map(|h| h.def.attr).collect();
        if got_hash != st.hash_attrs {
            report.push(
                "catalog",
                format!(
                    "engine has hash indices on attrs {got_hash:?}, model expects {:?}",
                    st.hash_attrs
                ),
            );
        }

        // Each index the model expects: derive the exact entry multiset.
        for &attr in &st.btree_attrs {
            let name = format!("btree I_{}", attr_name(attr));
            let Some(index) = table.index_on(attr) else {
                continue; // reported above
            };
            let Ok(audit) = verify::audit(&index.tree) else {
                continue; // invariant violation already reported by audit_table
            };
            let mut expect: Vec<(Key, Rid)> = st
                .rows
                .iter()
                .map(|(&rid, t)| (t.attr(attr), rid))
                .collect();
            expect.sort_unstable();
            if let Some(diff) = diff_sorted(&audit.entries, &expect, "engine", "model") {
                report.push(&name, diff);
            }
        }
        for &attr in &st.hash_attrs {
            let name = format!("hash H_{}", attr_name(attr));
            let Some(h) = table.hash_index_on(attr) else {
                continue;
            };
            let mut got = h.index.scan()?;
            got.sort_unstable();
            let mut expect: Vec<(Key, Rid)> = st
                .rows
                .iter()
                .map(|(&rid, t)| (t.attr(attr), rid))
                .collect();
            expect.sort_unstable();
            if let Some(diff) = diff_sorted(&got, &expect, "engine", "model") {
                report.push(&name, diff);
            }
        }

        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_btree::{BTree, BTreeConfig};
    use bd_storage::{BufferPool, CostModel, SimDisk, StructureId};

    fn tree_with(keys: impl Iterator<Item = Key>) -> BTree {
        let pool = BufferPool::new(SimDisk::new(CostModel::default()), 128);
        let mut tree =
            BTree::create(pool, BTreeConfig::with_fanout(8), StructureId::Index(0)).unwrap();
        for k in keys {
            tree.insert(k, Rid::new(0, (k % 1000) as u16)).unwrap();
        }
        tree
    }

    #[test]
    fn shape_diff_ignores_page_ids_but_sees_layout() {
        // Same (key, rid) set, same insertion order: identical shape.
        let a = verify::audit(&tree_with((0..400).rev())).unwrap();
        let b = verify::audit(&tree_with((0..400).rev())).unwrap();
        assert_eq!(shape_diff(&a, &b, "A", "B"), None);

        // Same (key, rid) set, inserted from both ends inward: identical
        // logical entries, height and leaf count, but the split history
        // packs the leaves differently. (Ascending keys would not do: their
        // splits fill every node, so the tree is a level shorter and the
        // diff names the height.)
        let c = verify::audit(&tree_with((0..200).flat_map(|i| [i, 399 - i]))).unwrap();
        assert_eq!(a.entries, c.entries, "logical content agrees");
        assert_eq!(a.height, c.height);
        let diff = shape_diff(&a, &c, "A", "B").expect("layouts must differ");
        assert!(diff.contains("leaf"), "diff names the layout: {diff}");
    }

    #[test]
    fn shape_diff_reports_height_first() {
        let small = verify::audit(&tree_with(0..8)).unwrap();
        let tall = verify::audit(&tree_with(0..400)).unwrap();
        let diff = shape_diff(&small, &tall, "A", "B").unwrap();
        assert!(diff.contains("height"), "{diff}");
    }

    fn catalog_db() -> (Database, TableId) {
        let mut db = Database::new(crate::db::DatabaseConfig::default());
        let schema = Schema::new(3, 64);
        let tid = db.create_table("t", schema);
        for i in 0..500u64 {
            db.insert(tid, &Tuple::new(vec![i * 10, i * 7, i * 3]))
                .unwrap();
        }
        db.create_index(tid, crate::catalog::IndexDef::secondary(0))
            .unwrap();
        db.create_index(tid, crate::catalog::IndexDef::secondary(1))
            .unwrap();
        db.create_hash_index(tid, 2).unwrap();
        (db, tid)
    }

    #[test]
    fn catalog_audit_is_clean_after_build_and_bulk_delete() {
        let (mut db, tid) = catalog_db();
        audit_catalog(&db, tid).unwrap().into_result().unwrap();
        let keys: Vec<Key> = (0..500u64).step_by(2).map(|i| i * 10).collect();
        db.delete_in(tid, 0, &keys).unwrap();
        audit_catalog(&db, tid).unwrap().into_result().unwrap();
    }

    #[test]
    fn catalog_audit_flags_a_reachable_page_marked_free() {
        let (db, tid) = catalog_db();
        let pid = db.table(tid).unwrap().indices[0].tree.root_page();
        db.pool().free_page(pid);
        let report = audit_catalog(&db, tid).unwrap();
        assert!(
            report.findings.iter().any(|f| f.detail.contains("free")),
            "freeing a live root must be caught: {report}"
        );
    }

    #[test]
    fn catalog_audit_flags_a_page_owned_by_the_wrong_structure() {
        let (db, tid) = catalog_db();
        let pid = db.table(tid).unwrap().indices[0].tree.root_page();
        db.pool()
            .with_disk(|d| d.set_page_owner(pid, StructureId::Hash(9)));
        let report = audit_catalog(&db, tid).unwrap();
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.detail.contains("catalogued as hash(9)")),
            "wrong owner must be caught: {report}"
        );
    }

    #[test]
    fn catalog_audit_allows_owned_but_unreachable_pages() {
        let (mut db, tid) = catalog_db();
        // Delete everything: trees collapse, abandoning owned pages.
        let keys: Vec<Key> = (0..500u64).map(|i| i * 10).collect();
        db.delete_in(tid, 0, &keys).unwrap();
        audit_catalog(&db, tid).unwrap().into_result().unwrap();
    }
}
