//! The recoverable bulk-delete driver: checkpoints, crash injection, and
//! roll-forward recovery (§3.2).
//!
//! Protocol:
//!
//! 1. **Materialize** — before any destructive work, the victim rows are
//!    resolved read-only (probe-index lookups + heap reads) and written to
//!    the log ("the results of the join variants ... should be materialized
//!    to stable storage"). Every later pass is derived from this durable
//!    list, which makes each pass idempotent.
//! 2. **Structure passes** — probe index, base table, then the remaining
//!    indices (unique first). After each pass all dirty pages are flushed
//!    and a checkpoint record is logged ("checkpoints are especially
//!    advisable when the processing of one structure is finished").
//! 3. **Recovery** — after a crash, the analysis pass finds the incomplete
//!    bulk delete, restores tree metadata from the last checkpoint and the
//!    table's counters from the statement's begin record, and **finishes
//!    the bulk deletion instead of rolling it back**, exactly as §3.2
//!    prescribes. It reads no page beyond the redo itself. Pending
//!    side-files are applied only after the bulk delete completes.

use std::sync::Mutex;

use bd_btree::{BTree, Key, ReorgPolicy};
use bd_core::erasure::victim_rows;
use bd_core::{
    build_hash, build_index, pass_order, plan_sort_merge, split, Database, DbError, PhaseExecutor,
    PhaseTask, TableCounters, TableId, Victims,
};
use bd_storage::{BufferPool, PageId, Rid, StorageError};
use bd_txn::sidefile::{apply_ops, SideOp};

use crate::log::LogManager;
use crate::record::{LogRecord, MaterializedRow, StructureId, TreeMeta};

/// Where the crash injector fires during [`run_bulk_delete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// After the victim rows were materialized and checkpointed.
    AfterMaterialize,
    /// After structure pass `i` ran but *before* its completion was logged
    /// or its pages flushed (the hard case: partial, unlogged work).
    MidStructure(usize),
    /// After structure pass `i` was logged and checkpointed.
    AfterStructure(usize),
    /// After the `n`-th mid-structure progress record of pass `i` was
    /// logged (exercises resume-from-progress).
    AtProgress(usize, usize),
    /// Inside a disk access: the [`bd_storage::FaultPlan`]'s crash point
    /// fired ([`StorageError::SimulatedCrash`]). Unlike the sites above,
    /// this one can land anywhere — mid-chunk, mid-flush, inside a
    /// concurrent fan-out arm — which is exactly what the
    /// crash-at-every-I/O campaign sweeps over.
    InIo,
}

/// One-shot crash injector.
#[derive(Debug, Default, Clone, Copy)]
pub struct CrashInjector {
    /// Where to crash, if anywhere.
    pub site: Option<CrashSite>,
}

impl CrashInjector {
    /// Crash at `site`.
    pub fn at(site: CrashSite) -> Self {
        CrashInjector { site: Some(site) }
    }

    /// No crash.
    pub fn none() -> Self {
        CrashInjector::default()
    }
}

/// Driver errors.
#[derive(Debug)]
pub enum WalError {
    /// Engine error.
    Db(DbError),
    /// A crash fired (injector site or the disk's crash point); the
    /// database must be recovered.
    Crashed(CrashSite),
    /// The crash-at-every-I/O campaign found a crash point whose recovered
    /// state diverged from the fault-free reference run.
    Divergence {
        /// 1-based disk access the crash was injected at.
        crash_point: u64,
        /// The equivalence audit's findings.
        details: String,
    },
    /// A log record failed to decode (unknown tag or truncated bytes):
    /// the log is corrupt and recovery cannot trust it.
    CorruptLog(String),
    /// The page catalog names an owner no page can have: `Probe` is a
    /// pass's role, its pages are catalogued under their index.
    CorruptCatalog {
        /// The page.
        page: PageId,
        /// The owner the catalog names.
        owner: StructureId,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Db(e) => write!(f, "{e}"),
            WalError::Crashed(site) => write!(f, "simulated crash at {site:?}"),
            WalError::Divergence {
                crash_point,
                details,
            } => write!(
                f,
                "recovery diverged after a crash at disk access {crash_point}: {details}"
            ),
            WalError::CorruptLog(detail) => write!(f, "corrupt log record: {detail}"),
            WalError::CorruptCatalog { page, owner } => {
                write!(f, "corrupt page catalog: page {page} is owned by {owner}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<DbError> for WalError {
    fn from(e: DbError) -> Self {
        // A disk-level crash point is a crash, not an engine error: the
        // caller must run recovery, exactly as for an injector site.
        match e {
            DbError::Storage(StorageError::SimulatedCrash) => WalError::Crashed(CrashSite::InIo),
            e => WalError::Db(e),
        }
    }
}

impl From<StorageError> for WalError {
    fn from(e: StorageError) -> Self {
        WalError::from(DbError::Storage(e))
    }
}

/// One structure pass: its position in the pass order (what a [`CrashSite`]
/// names) and the structure.
type Pass = (usize, StructureId);

/// The sort/merge plan's [`pass_order`] over table `tid`, numbered, and the
/// length of its serial prefix. Deterministic, so recovery re-derives it.
fn passes(db: &Database, tid: TableId, probe_attr: usize) -> Result<(Vec<Pass>, usize), WalError> {
    let table = db.table(tid)?;
    let (order, n_serial) = pass_order(table, &plan_sort_merge(table, probe_attr)?)?;
    Ok((order.into_iter().enumerate().collect(), n_serial))
}

/// Read-only victim resolution ([`victim_rows`]: one sorted merge over the
/// probe index's leaves, one read-ahead pass over the heap), as log rows.
fn materialize(
    db: &Database,
    tid: TableId,
    probe_attr: usize,
    keys: &[Key],
) -> Result<Vec<MaterializedRow>, WalError> {
    let rows = victim_rows(db, tid, probe_attr, keys)?;
    Ok(rows
        .into_iter()
        .map(|(rid, row)| MaterializedRow {
            rid,
            attrs: row.attrs,
        })
        .collect())
}

/// Flush everything and log a checkpoint with current tree metadata.
fn checkpoint(db: &mut Database, tid: TableId, log: &LogManager) -> Result<(), WalError> {
    db.pool().flush_all().map_err(DbError::Storage)?;
    let table = db.table(tid)?;
    let trees = table
        .indices
        .iter()
        .map(|i| TreeMeta {
            attr: i.def.attr as u16,
            root: i.tree.root_page(),
            height: i.tree.height() as u16,
        })
        .collect();
    log.append(&LogRecord::Checkpoint { trees });
    log.append(&LogRecord::CatalogSnapshot {
        catalog: db.pool().catalog(),
    });
    Ok(())
}

/// Victims processed between two mid-structure progress records.
const PROGRESS_CHUNK: usize = 2048;

/// The injector plus the slot a site fired *inside a pass* is parked in
/// while the error travels back through the executor as
/// [`StorageError::SimulatedCrash`] (a [`PhaseTask`] body can only return a
/// storage error, and may run on a worker thread).
struct Trip {
    crash: CrashInjector,
    fired: Mutex<Option<CrashSite>>,
}

impl Trip {
    fn new(crash: CrashInjector) -> Self {
        Trip {
            crash,
            fired: Mutex::new(None),
        }
    }

    fn at(&self, here: CrashSite) -> Result<(), WalError> {
        if self.crash.site == Some(here) {
            return Err(WalError::Crashed(here));
        }
        Ok(())
    }

    fn in_pass(&self, here: CrashSite) -> Result<(), StorageError> {
        self.at(here).map_err(|_| {
            *self.fired.lock().expect("crash site slot") = Some(here);
            StorageError::SimulatedCrash
        })
    }

    /// An injector site inside a pass travels back as `SimulatedCrash` plus
    /// the slot. A disk-level crash point (`FaultPlan::crash_at_access`)
    /// firing inside a pass's I/O also surfaces as `SimulatedCrash` but
    /// never touches the slot — by contract the empty slot maps to
    /// [`CrashSite::InIo`] via `From` (pinned by
    /// `arm_crash_with_empty_site_slot_maps_to_in_io` in tests/campaign.rs).
    fn surface(&self, e: StorageError) -> WalError {
        if e == StorageError::SimulatedCrash {
            if let Some(site) = *self.fired.lock().expect("crash site slot") {
                return WalError::Crashed(site);
            }
        }
        e.into()
    }
}

/// What every pass of one logged statement shares. Each pass derives its
/// victim list from the durable `rows`, which is what makes it idempotent
/// and its chunk boundaries the same before and after a crash.
struct Statement<'a> {
    tid: TableId,
    probe_attr: usize,
    rows: &'a [MaterializedRow],
    log: &'a LogManager,
    trip: Trip,
}

impl Statement<'_> {
    /// Borrow every structure `group` names out of table `tid`, apart from
    /// each other and in `group` order, each with its victim list built
    /// from the durable rows and sorted in memory.
    fn victims_of<'t>(
        &self,
        db: &'t mut Database,
        group: &[Pass],
    ) -> Result<Vec<(Pass, Victims<'t>)>, WalError> {
        let order: Vec<StructureId> = group.iter().map(|&(_, phase)| phase).collect();
        let pairs = |attr: usize| -> Vec<(Key, Rid)> {
            self.rows.iter().map(|r| (r.attrs[attr], r.rid)).collect()
        };
        let (parts, ..) = db.parts(self.tid)?;
        let mut passes = split(parts, self.probe_attr, &order);
        for pass in &mut passes {
            match pass {
                Victims::Tree(index, list) => {
                    *list = pairs(index.def.attr);
                    list.sort_unstable();
                }
                Victims::Heap(_, rids) => *rids = self.rows.iter().map(|r| r.rid).collect(),
                Victims::Hash(h, list) => *list = pairs(h.def.attr),
            }
        }
        Ok(group.iter().copied().zip(passes).collect())
    }

    /// The one structure pass from victim `start` on (0 outside recovery),
    /// chunked: after every [`PROGRESS_CHUNK`] victims the dirty pages are
    /// flushed and a [`LogRecord::Progress`] is written, so a crash loses at
    /// most the chunk in flight ("the last processed RID or key-value ...
    /// stored in the log ... will speed up recovery"). The final flush makes
    /// the last chunk durable *before* `StructureDone` is logged: a
    /// disk-level crash between pass and flush must re-run the pass on
    /// recovery, never skip it.
    fn run_pass(
        &self,
        pool: &BufferPool,
        (idx, phase): Pass,
        start: usize,
        victims: &mut Victims<'_>,
    ) -> Result<(), StorageError> {
        let mut progress_records = 0usize;
        victims.run(start, PROGRESS_CHUNK, ReorgPolicy::FreeAtEmpty, |done| {
            // This pass holds no pin here, and `flush_all` writes every
            // frame no one pins: a serial pass's chunk is durable before
            // the progress record claims it. A fan-out arm's is not quite:
            // a sibling arm may pin one of its pages through the flush, so
            // recovery backs such an arm off one chunk (see
            // `resume_point`).
            pool.flush_all()?;
            self.log.append(&LogRecord::Progress {
                structure: phase,
                done: done as u32,
            });
            progress_records += 1;
            self.trip
                .in_pass(CrashSite::AtProgress(idx, progress_records))
        })?;
        self.trip.in_pass(CrashSite::MidStructure(idx))?;
        pool.flush_all()?;
        self.log
            .append(&LogRecord::StructureDone { structure: phase });
        Ok(())
    }

    /// Run the passes of `group` from victim `start` on as one executor
    /// fan-out — in order on the
    /// caller's thread when the group or `workers` is 1 — then log one
    /// checkpoint covering all of them ("checkpoints are especially
    /// advisable when the processing of one structure is finished"). A
    /// crashed pass fails the statement and leaves the rest to
    /// [`recover`].
    fn run_group(
        &self,
        db: &mut Database,
        group: &[Pass],
        start: usize,
        workers: usize,
    ) -> Result<(), WalError> {
        if group.is_empty() {
            return Ok(());
        }
        let pool = db.pool().clone();
        let tasks = self
            .victims_of(db, group)?
            .into_iter()
            .map(|(pass, mut victims)| {
                let pool = &pool;
                PhaseTask::new(format!("wal bd {:?}", pass.1), move || {
                    self.run_pass(pool, pass, start, &mut victims)
                })
            })
            .collect();
        PhaseExecutor::new(workers)
            .fan_out(tasks)
            .map_err(|e| self.trip.surface(e))?;
        checkpoint(db, self.tid, self.log)?;
        group
            .iter()
            .try_for_each(|&(idx, _)| self.trip.at(CrashSite::AfterStructure(idx)))
    }
}

/// Run a recoverable bulk delete, logging every step. On a simulated crash
/// the error carries the site; the caller then simulates volatile-memory
/// loss (`db.pool().crash()`) and calls [`recover`].
pub fn run_bulk_delete(
    db: &mut Database,
    tid: TableId,
    probe_attr: usize,
    d_keys: &[Key],
    log: &LogManager,
    crash: CrashInjector,
) -> Result<usize, WalError> {
    run_bulk_delete_parallel(db, tid, probe_attr, d_keys, log, crash, 1)
}

/// [`run_bulk_delete`] with up to `workers` threads — the recoverable
/// analogue of the strategy layer's `workers`. The serial prefix (probe,
/// table, unique indices — §3.1's ordering) runs one pass at a time with a
/// checkpoint after each; the remaining structures (non-unique B-tree
/// indices and every hash index) form one fan-out group whose arms log
/// their own progress and completion records into the shared log, with one
/// group checkpoint after the join. At `workers = 1` the arms run in order
/// on the caller's thread.
pub fn run_bulk_delete_parallel(
    db: &mut Database,
    tid: TableId,
    probe_attr: usize,
    d_keys: &[Key],
    log: &LogManager,
    crash: CrashInjector,
    workers: usize,
) -> Result<usize, WalError> {
    let mut keys = d_keys.to_vec();
    keys.sort_unstable();
    keys.dedup();
    log.append(&LogRecord::BulkBegin {
        probe_attr: probe_attr as u16,
        keys: keys.clone(),
        counters: db.table(tid)?.counters(),
    });

    let rows = materialize(db, tid, probe_attr, &keys)?;
    log.append(&LogRecord::RowsMaterialized { rows: rows.clone() });
    checkpoint(db, tid, log)?;
    let stmt = Statement {
        tid,
        probe_attr,
        rows: &rows,
        log,
        trip: Trip::new(crash),
    };
    stmt.trip.at(CrashSite::AfterMaterialize)?;

    // The serial prefix one pass at a time, then the fan-out suffix.
    let (all, n_serial) = passes(db, tid, probe_attr)?;
    for group in all[..n_serial].chunks(1).chain([&all[n_serial..]]) {
        stmt.run_group(db, group, 0, workers)?;
    }

    log.append(&LogRecord::BulkCommit);
    Ok(rows.len())
}

/// Recover after a crash: finish any incomplete bulk delete (roll forward),
/// then apply pending side-file operations (§3.2: "the side-files are
/// applied to the indices when the bulk deleter has finished"). Returns the
/// number of victim rows the completed bulk delete covered (0 if the log
/// held no incomplete bulk delete).
pub fn recover(
    db: &mut Database,
    tid: TableId,
    log: &LogManager,
    pending_side_ops: &[(usize, Vec<SideOp>)],
) -> Result<usize, WalError> {
    recover_media(db, tid, log, pending_side_ops, &[]).map(|(n, _)| n)
}

/// Which structures of the table lost pages to media damage, as classified
/// by the page catalog: one entry per damaged structure, never "all the
/// B-trees".
#[derive(Debug, Default)]
struct MediaDamage {
    /// A heap page tore.
    heap: bool,
    /// The home table's B-tree indices (by attribute) that lost a page.
    tree_attrs: Vec<usize>,
    /// The home table's hash indices (by attribute) whose chains lost a
    /// page.
    hash_attrs: Vec<usize>,
    /// `(table, attr)` of *other* tables' damaged B-trees, then hash
    /// indices. A multi-statement erasure campaign can surface another
    /// table's latent tear long after that table's step committed; the
    /// table-scoped owner tag names both the table and the attribute, so
    /// each is rebuilt precisely.
    foreign_trees: Vec<(TableId, usize)>,
    foreign_hashes: Vec<(TableId, usize)>,
}

impl MediaDamage {
    fn is_empty(&self) -> bool {
        !self.heap
            && self.tree_attrs.is_empty()
            && self.hash_attrs.is_empty()
            && self.foreign_trees.is_empty()
            && self.foreign_hashes.is_empty()
    }

    /// File each damaged structure, named by its table-scoped owner tag,
    /// under the list its rebuild runs from: the home table's heap, trees
    /// and hash indices by attribute, another table's structures as they
    /// are. Tags that name no rebuildable structure are ignored.
    fn absorb(&mut self, owners: &[StructureId], home: TableId) {
        for &s in owners {
            let list = match s {
                StructureId::Table => {
                    self.heap = true;
                    continue;
                }
                StructureId::Index(_) => (&mut self.tree_attrs, &mut self.foreign_trees),
                StructureId::Hash(_) => (&mut self.hash_attrs, &mut self.foreign_hashes),
                StructureId::Probe | StructureId::Temp | StructureId::Lsm(_) => continue,
            };
            match s.scoped_parts() {
                Some((t, a)) if t == home => list.0.push(a),
                Some(foreign) => list.1.push(foreign),
                None => {}
            }
        }
        for list in [&mut self.tree_attrs, &mut self.hash_attrs] {
            list.sort_unstable();
            list.dedup();
        }
        for list in [&mut self.foreign_trees, &mut self.foreign_hashes] {
            list.sort_unstable();
            list.dedup();
        }
    }

    /// True when `s`'s on-disk pages were damaged: its logged progress
    /// cannot be trusted and its pass must re-run from scratch. The probe
    /// phase runs over the probe *index*, so damage to `Index(probe_attr)`
    /// covers it.
    fn covers(&self, s: StructureId, probe_attr: usize) -> bool {
        match s {
            StructureId::Table => self.heap,
            StructureId::Probe => self.tree_attrs.contains(&probe_attr),
            StructureId::Index(a) => self.tree_attrs.contains(&(a as usize)),
            StructureId::Hash(a) => self.hash_attrs.contains(&(a as usize)),
            StructureId::Temp | StructureId::Lsm(_) => false,
        }
    }
}

/// What media recovery did, for reporting and for the fault campaigns'
/// structure-precision assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MediaRecovery {
    /// Attributes of B-tree indices rebuilt by bulk load.
    pub rebuilt_trees: Vec<usize>,
    /// Attributes of hash indices rebuilt by re-insertion.
    pub rebuilt_hashes: Vec<usize>,
    /// A torn heap page was healed in place (the table pass re-runs; the
    /// heap itself is never rebuilt).
    pub heap_damaged: bool,
    /// Torn pages that were *free* in the catalog: healed, nothing rebuilt.
    pub healed_free: usize,
    /// Torn scratch (`Temp`) and LSM run pages: healed and skipped, their
    /// contents are outside the bulk delete's structures.
    pub healed_scratch: usize,
}

impl MediaRecovery {
    /// Total structures rebuilt (B-trees plus hash chains).
    pub fn structures_rebuilt(&self) -> usize {
        self.rebuilt_trees.len() + self.rebuilt_hashes.len()
    }
}

/// Heal and classify torn pages **by catalog lookup**. Each corrupt page's
/// current (half-written) image is accepted so the page is readable again,
/// then its catalogued owner decides what recovery must do: a free page
/// needs nothing, a heap page re-runs the table pass, an index or hash page
/// condemns exactly that one structure. This replaces the old heuristics
/// (heap page-list membership, hash chain walks, "anything else is the
/// B-trees") that rebuilt every tree for any unattributed tear.
fn classify_media_damage(
    db: &mut Database,
    home: TableId,
    corrupt: &[PageId],
    report: &mut MediaRecovery,
) -> Result<MediaDamage, WalError> {
    let mut damage = MediaDamage::default();
    if corrupt.is_empty() {
        return Ok(damage);
    }
    accept_torn_pages(db, corrupt)?;
    let catalog = db.pool().catalog();
    let mut owners = Vec::new();
    for &pid in corrupt {
        match catalog.owner(pid) {
            None => report.healed_free += 1,
            Some(StructureId::Temp) | Some(StructureId::Lsm(_)) => report.healed_scratch += 1,
            Some(owner @ StructureId::Probe) => {
                return Err(WalError::CorruptCatalog { page: pid, owner })
            }
            Some(s) => owners.push(s),
        }
    }
    damage.absorb(&owners, home);
    report.heap_damaged = damage.heap;
    Ok(damage)
}

/// Accept each torn page's current (half-written) image so the page reads
/// again; what the image is worth is the caller's decision.
pub(crate) fn accept_torn_pages(db: &Database, corrupt: &[PageId]) -> Result<(), WalError> {
    db.pool()
        .with_disk(|d| corrupt.iter().try_for_each(|&pid| d.accept_torn_page(pid)))
        .map_err(WalError::from)
}

/// Run `body` inside a durable maintenance bracket on `structure` (a
/// table-scoped owner tag, e.g. [`StructureId::index_of`]'s result).
/// [`LogRecord::MaintainBegin`] is appended first; after a successful run
/// the dirty pages are flushed and the bracket is closed with
/// [`LogRecord::MaintainEnd`]. Maintenance rewrites pages without logging
/// their images, so on an error or crash the bracket stays open and the
/// next [`recover`] rebuilds the structure from the heap instead of
/// trusting a half-applied rewrite.
pub fn with_maintenance_bracket<T>(
    db: &mut Database,
    log: &LogManager,
    structure: StructureId,
    body: impl FnOnce(&mut Database) -> Result<T, WalError>,
) -> Result<T, WalError> {
    log.append(&LogRecord::MaintainBegin { structure });
    let out = body(db)?;
    db.pool().flush_all().map_err(DbError::Storage)?;
    log.append(&LogRecord::MaintainEnd { structure });
    Ok(out)
}

/// One durable maintenance cycle over table `tid`: release empty heap
/// pages, run each index's pack pass to completion and sweep its inner
/// chains inside that index's maintenance bracket, then recycle free pages
/// and prewarm. Only the bracketed phases rewrite live pages without
/// logging them; heap release is detach-only and recycling writes only
/// free pages, so a crash there needs no rebuild at all.
pub fn run_maintenance_cycle(
    db: &mut Database,
    tid: TableId,
    log: &LogManager,
    m: &mut bd_core::Maintainer,
) -> Result<(), WalError> {
    m.release_heap(db, tid)?;
    let attrs: Vec<usize> = db.table(tid)?.indices.iter().map(|i| i.def.attr).collect();
    for &attr in &attrs {
        with_maintenance_bracket(db, log, StructureId::index_of(tid, attr), |db| {
            while !m.pack_index(db, tid, attr)? {}
            m.sweep_index(db, tid, attr)?;
            Ok(())
        })?;
    }
    m.recycle(db)?;
    m.prewarm(db)?;
    m.end_cycle();
    Ok(())
}

/// Structures with an open maintenance bracket: a `MaintainBegin` not
/// followed by a matching `MaintainEnd`. Their pages may hold a
/// half-applied maintenance rewrite and cannot be trusted.
fn unclosed_maintenance(records: &[LogRecord]) -> Vec<StructureId> {
    let mut open: Vec<StructureId> = Vec::new();
    for r in records {
        match r {
            LogRecord::MaintainBegin { structure } if !open.contains(structure) => {
                open.push(*structure);
            }
            LogRecord::MaintainEnd { structure } => open.retain(|s| s != structure),
            _ => {}
        }
    }
    open
}

/// Position in `records` of the last `BulkBegin` when no `BulkCommit`
/// follows it: the statement a crash interrupted.
pub(crate) fn open_statement(records: &[LogRecord]) -> Option<usize> {
    let begin = records
        .iter()
        .rposition(|r| matches!(r, LogRecord::BulkBegin { .. }))?;
    let committed = records[begin + 1..]
        .iter()
        .any(|r| matches!(r, LogRecord::BulkCommit));
    (!committed).then_some(begin)
}

/// The structures a lost write may have left holding a catalog-free page:
/// the owners, in the log's last [`LogRecord::CatalogSnapshot`], of the
/// pages that are free now. Each snapshot follows a flush, so a page freed
/// before it was detached on disk; only a page freed since can still be
/// reachable. `None` when the log holds no snapshot: every structure is
/// suspect.
fn freed_since_snapshot(db: &Database, records: &[LogRecord]) -> Option<Vec<StructureId>> {
    let snapshot = records.iter().rev().find_map(|r| match r {
        LogRecord::CatalogSnapshot { catalog } => Some(catalog),
        _ => None,
    })?;
    let now = db.pool().catalog();
    let mut owners = Vec::new();
    for pid in 0..snapshot.len() as PageId {
        if now.owner(pid).is_some() {
            continue;
        }
        if let Some(owner) = snapshot.owner(pid).filter(|o| !owners.contains(o)) {
            owners.push(owner);
        }
    }
    Some(owners)
}

/// Re-own any catalog-free page that is still reachable from a structure.
///
/// A catalog free is durable disk metadata the instant it happens, but the
/// page writes that *detach* the freed page (parent patch, sibling unlink)
/// go through cached frames and can be lost at a crash. The redo passes are
/// lenient and may find nothing left to delete in such a page, leaving it
/// referenced yet free. Walking the structure and re-owning what it
/// reaches restores the catalog invariant "free ⇒ unreachable" that the
/// audit (and the next media recovery) depends on. Only the `suspects`
/// ([`freed_since_snapshot`]) are walked; `None` walks every structure.
fn reconcile_catalog(
    db: &mut Database,
    tid: TableId,
    suspects: Option<&[StructureId]>,
) -> Result<(), WalError> {
    let walk = |s: StructureId| suspects.is_none_or(|set| set.contains(&s));
    let table = db.table(tid)?;
    let mut reachable: Vec<(PageId, StructureId)> = Vec::new();
    if walk(StructureId::Table) {
        for &pid in table.heap.page_ids() {
            reachable.push((pid, StructureId::Table));
        }
    }
    for ix in &table.indices {
        let owner = StructureId::index_of(tid, ix.def.attr);
        if walk(owner) {
            for pid in ix.tree.pages().map_err(DbError::Storage)? {
                reachable.push((pid, owner));
            }
        }
    }
    for h in &table.hash_indices {
        let owner = StructureId::hash_of(tid, h.def.attr);
        if walk(owner) {
            for pid in h.index.pages().map_err(DbError::Storage)? {
                reachable.push((pid, owner));
            }
        }
    }
    db.pool().with_disk(|d| {
        for (pid, owner) in reachable {
            if d.catalog().owner(pid).is_none() {
                d.set_page_owner(pid, owner);
            }
        }
    });
    Ok(())
}

/// Restore table `tid`'s handles after a restart: tree roots and heights
/// from the last checkpoint (`trees`), and the counters. An interrupted
/// statement's counters are its `BulkBegin`'s (`logged`), set without
/// reading a page. A statement that committed before a tear was found has
/// none to trust, so its counters are recounted from the surviving pages.
/// Damaged structures are skipped: their checkpointed metadata points into
/// torn pages, and they are rebuilt from the heap instead.
fn restore_handles(
    db: &mut Database,
    tid: TableId,
    damage: &MediaDamage,
    trees: &[TreeMeta],
    logged: Option<&TableCounters>,
) -> Result<(), WalError> {
    let table = db.table_mut(tid)?;
    for meta in trees {
        let attr = meta.attr as usize;
        if damage.tree_attrs.contains(&attr) {
            continue;
        }
        let entries = logged
            .and_then(|c| c.trees.iter().find(|&&(a, _)| a == attr))
            .map_or(0, |&(_, n)| n);
        if let Some(index) = table.index_on_mut(attr) {
            index.tree = BTree::restore(
                index.tree.pool().clone(),
                index.def.config,
                meta.root,
                meta.height as usize,
                StructureId::index_of(tid, attr),
                entries,
            );
        }
    }
    if let Some(counters) = logged {
        table.restore_counters(counters);
        return Ok(());
    }
    for index in &mut table.indices {
        if !damage.tree_attrs.contains(&index.def.attr) {
            index.tree.recount().map_err(DbError::Storage)?;
        }
    }
    table.heap.recount().map_err(DbError::Storage)?;
    for h in &mut table.hash_indices {
        if !damage.hash_attrs.contains(&h.def.attr) {
            h.index.recount().map_err(DbError::Storage)?;
        }
    }
    Ok(())
}

/// Where pass `idx` of the pass order resumes, given the victims its last
/// durable progress record claims. A pass of the serial prefix
/// (`idx < n_serial`) runs alone and flushes with no pin held before it
/// logs progress, so every claimed victim is on disk and it resumes exactly
/// there. A fan-out arm's flush can skip a frame a sibling arm holds
/// pinned, leaving part of the claimed chunk unflushed: it backs off one
/// chunk and re-runs it (the passes are lenient, so re-running is safe).
fn resume_point(idx: usize, n_serial: usize, claimed: usize) -> usize {
    if idx < n_serial {
        claimed
    } else {
        claimed.saturating_sub(PROGRESS_CHUNK)
    }
}

/// [`recover`] extended with media recovery for torn pages. `corrupt` names
/// pages whose reads failed with [`StorageError::ChecksumMismatch`] (or
/// that a scrub found damaged).
///
/// An interrupted statement is finished from the log alone: its
/// `BulkBegin` carries the table's counters from before it, and the
/// materialized rows say what the statement removes, so the final
/// counters are derived ([`TableCounters::after_delete`]) rather than
/// recounted; each pass resumes at its last progress record
/// ([`resume_point`]); and the catalog check walks only the structures
/// that lost a page since the last snapshot ([`reconcile_catalog`]). Past
/// the log, recovery reads only what the redo passes read.
///
/// Beyond the crash protocol, this pass:
///
/// 1. heals each torn page (accepts the half-written image so it reads),
/// 2. looks the page up in the page catalog and **rebuilds only the
///    structure that owns it** — the torn image is never trusted; a damaged
///    B-tree is bulk-loaded and a damaged hash index re-inserted from the
///    surviving heap, while a torn *free* page is healed with no rebuild at
///    all,
/// 3. discards the damaged structures' logged progress so their passes
///    re-run from the WAL's materialized rows, even when the log already
///    shows `BulkCommit` (commit promises logical durability; a torn page
///    is media damage discovered later; the counters are then recounted),
/// 4. finishes by reconciling the catalog against the structures that may
///    have lost a page (see [`reconcile_catalog`]).
///
/// A torn *heap* page needs no rebuild: deletes only clear slot directory
/// entries in the page's first half, so the healed image is a valid slotted
/// page and the re-run table pass re-clears whatever the tear resurrected.
/// Expects to run after `db.pool().crash()` — cache loss is what surfaces
/// tears in the first place.
///
/// Returns the number of victim rows the completed bulk delete covered and
/// the [`MediaRecovery`] report (what was rebuilt, what was healed for
/// free), which the fault sweeps use to prove recovery never rebuilds an
/// undamaged structure.
pub fn recover_media(
    db: &mut Database,
    tid: TableId,
    log: &LogManager,
    pending_side_ops: &[(usize, Vec<SideOp>)],
    corrupt: &[PageId],
) -> Result<(usize, MediaRecovery), WalError> {
    let mut report = MediaRecovery::default();
    let mut damage = classify_media_damage(db, tid, corrupt, &mut report)?;
    let records = log.records()?;
    // Before a rebuild frees anything: the pages freed since the last
    // snapshot are the only ones a lost write can have left reachable.
    let suspects = freed_since_snapshot(db, &records);
    // An open maintenance bracket means the daemon's unlogged page rewrite
    // may be half-applied: the bracketed structure is damage, rebuilt from
    // the heap exactly like a torn page's owner.
    let open_maintenance = unclosed_maintenance(&records);
    damage.absorb(&open_maintenance, tid);
    let close_brackets = |log: &LogManager| {
        for &s in &open_maintenance {
            log.append(&LogRecord::MaintainEnd { structure: s });
        }
    };
    // Analysis: locate the last BulkBegin and what followed it.
    let begin = records.iter().enumerate().rev().find_map(|(i, r)| match r {
        LogRecord::BulkBegin {
            probe_attr,
            keys,
            counters,
        } => Some((i, *probe_attr as usize, keys, counters)),
        _ => None,
    });
    let Some((begin_idx, probe_attr, keys, counters)) = begin else {
        rebuild_damaged(db, tid, &damage, &mut report)?;
        apply_side(db, tid, pending_side_ops)?;
        if !damage.is_empty() {
            reconcile_catalog(db, tid, suspects.as_deref())?;
            db.pool().flush_all().map_err(DbError::Storage)?;
        }
        close_brackets(log);
        return Ok((0, report));
    };
    let tail = &records[begin_idx + 1..];
    let committed = tail.iter().any(|r| matches!(r, LogRecord::BulkCommit));
    if committed && damage.is_empty() {
        apply_side(db, tid, pending_side_ops)?;
        close_brackets(log);
        return Ok((0, report));
    }

    let mut rows: Option<Vec<MaterializedRow>> = None;
    let mut done: Vec<StructureId> = Vec::new();
    let mut last_ckpt: &[TreeMeta] = &[];
    let mut progress: std::collections::HashMap<StructureId, usize> =
        std::collections::HashMap::new();
    for r in tail {
        match r {
            LogRecord::RowsMaterialized { rows: r } => rows = Some(r.clone()),
            LogRecord::StructureDone { structure } => done.push(*structure),
            LogRecord::Checkpoint { trees } => last_ckpt = trees,
            LogRecord::Progress { structure, done } => {
                let e = progress.entry(*structure).or_insert(0);
                *e = (*e).max(*done as usize);
            }
            _ => {}
        }
    }
    // A media-damaged structure is rebuilt below; its logged completion and
    // progress describe pages that no longer exist.
    done.retain(|s| !damage.covers(*s, probe_attr));
    progress.retain(|s, _| !damage.covers(*s, probe_attr));

    let logged = (!committed).then_some(counters);
    restore_handles(db, tid, &damage, last_ckpt, logged)?;
    rebuild_damaged(db, tid, &damage, &mut report)?;

    // Redo: finish the bulk delete from the materialized rows.
    let rows = match rows {
        Some(r) => r,
        None => {
            // Crash hit before materialization was logged: no destructive
            // work has happened; materialize now.
            let r = materialize(db, tid, probe_attr, keys)?;
            log.append(&LogRecord::RowsMaterialized { rows: r.clone() });
            checkpoint(db, tid, log)?;
            r
        }
    };
    let stmt = Statement {
        tid,
        probe_attr,
        rows: &rows,
        log,
        trip: Trip::new(CrashInjector::none()),
    };
    let (order, n_serial) = passes(db, tid, probe_attr)?;
    for (idx, phase) in order {
        if done.contains(&phase) {
            continue;
        }
        let claimed = progress.get(&phase).copied().unwrap_or(0);
        let start = resume_point(idx, n_serial, claimed);
        stmt.run_group(db, &[(idx, phase)], start, 1)?;
    }
    log.append(&LogRecord::BulkCommit);
    if let Some(before) = logged {
        // Every victim is gone: the counters follow from the logged ones.
        let rids: Vec<Rid> = rows.iter().map(|r| r.rid).collect();
        let table = db.table_mut(tid)?;
        let after = before.after_delete(&rids, table.schema.record_len);
        table.restore_counters(&after);
    }

    apply_side(db, tid, pending_side_ops)?;
    reconcile_catalog(db, tid, suspects.as_deref())?;
    db.pool().flush_all().map_err(DbError::Storage)?;
    close_brackets(log);
    Ok((rows.len(), report))
}

/// Rebuild each damaged structure from the surviving heap: the structure's
/// old pages are returned to the free set first (the rebuild allocates
/// fresh ones), then a B-tree is bulk-loaded and a hash index re-inserted.
/// Foreign damage (another table's structure, identified by its
/// table-scoped owner tag) is rebuilt the same way from *its* table's heap.
fn rebuild_damaged(
    db: &mut Database,
    tid: TableId,
    damage: &MediaDamage,
    report: &mut MediaRecovery,
) -> Result<(), WalError> {
    for &attr in &damage.tree_attrs {
        rebuild_tree(db, tid, attr, report)?;
    }
    for &attr in &damage.hash_attrs {
        rebuild_hash(db, tid, attr, report)?;
    }
    for &(t, attr) in &damage.foreign_trees {
        rebuild_tree(db, t, attr, report)?;
    }
    for &(t, attr) in &damage.foreign_hashes {
        rebuild_hash(db, t, attr, report)?;
    }
    Ok(())
}

fn rebuild_tree(
    db: &mut Database,
    tid: TableId,
    attr: usize,
    report: &mut MediaRecovery,
) -> Result<(), WalError> {
    let pool = db.pool().clone();
    let sort_bytes = db.workspace().capacity().max(4096);
    let table = db.table_mut(tid)?;
    let Some(pos) = table.index_pos(attr) else {
        return Ok(());
    };
    let owner = StructureId::index_of(tid, attr);
    pool.free_owned(owner);
    let def = &table.indices[pos].def;
    let tree = build_index(&pool, &table.heap, table.schema, def, owner, sort_bytes)
        .map_err(DbError::Storage)?;
    table.indices[pos].tree = tree;
    report.rebuilt_trees.push(attr);
    Ok(())
}

fn rebuild_hash(
    db: &mut Database,
    tid: TableId,
    attr: usize,
    report: &mut MediaRecovery,
) -> Result<(), WalError> {
    let pool = db.pool().clone();
    let table = db.table_mut(tid)?;
    let Some(pos) = table.hash_indices.iter().position(|h| h.def.attr == attr) else {
        return Ok(());
    };
    let owner = StructureId::hash_of(tid, attr);
    pool.free_owned(owner);
    table.hash_indices[pos].index =
        build_hash(&pool, &table.heap, table.schema, attr, owner).map_err(DbError::Storage)?;
    report.rebuilt_hashes.push(attr);
    Ok(())
}

/// Heal every torn page and rebuild whatever structure owns it, whichever
/// table that is — the erasure campaign's recovery path for damage that
/// surfaces *outside* any single statement's roll-forward (a latent tear
/// read back during the whole-database scrub phase). Heap and scratch
/// pages are healed in place: heap deletes only clear slot-directory
/// entries and scrub writes never change live bytes, so the accepted torn
/// image plus a re-scrub is already correct.
pub(crate) fn heal_and_rebuild(
    db: &mut Database,
    home: TableId,
    corrupt: &[PageId],
) -> Result<MediaRecovery, WalError> {
    let mut report = MediaRecovery::default();
    let damage = classify_media_damage(db, home, corrupt, &mut report)?;
    rebuild_damaged(db, home, &damage, &mut report)?;
    Ok(report)
}

fn apply_side(
    db: &mut Database,
    tid: TableId,
    pending: &[(usize, Vec<SideOp>)],
) -> Result<(), WalError> {
    let table = db.table_mut(tid)?;
    for (attr, ops) in pending {
        if let Some(index) = table.index_on_mut(*attr) {
            apply_ops(&mut index.tree, ops).map_err(DbError::Storage)?;
        }
    }
    Ok(())
}
