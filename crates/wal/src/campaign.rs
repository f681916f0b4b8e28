//! The fault sweeps: the executable proof of §3.2's roll-forward recovery.
//!
//! [`sweep`] runs a *target* — a recoverable bulk delete ([`BulkDelete`])
//! or a whole erasure campaign ([`ErasureCampaign`]) — once fault-free to
//! obtain a reference state, then moves a [`Fault`] over every successive
//! disk access of the run, and over every page of each chained write:
//! rebuild the database, arm the fault at page `k` of the `n`-th access,
//! run, discard volatile memory (`pool.crash()`, and the interrupted
//! table's counters: [`Database::scramble_counters`]), let the target recover,
//! and let the target check the recovered state against the reference. The
//! sweep ends at the first position the run never reaches. The target's `workers` select serial or fan-out execution; the
//! harness is the same for both.

use bd_btree::Key;
use bd_core::{audit_catalog, audit_equivalence, CascadePlan, Database, DbError, TableId};
use bd_storage::{FaultPlan, FaultSpec, Pacer, PageId, StorageError};

use crate::driver::{
    accept_torn_pages, open_statement, recover_media, run_bulk_delete_parallel, CrashInjector,
    MediaRecovery, WalError,
};
use crate::erasure::{recover_campaign, run_erasure_campaign};
use crate::log::LogManager;
use crate::record::LogRecord;

/// The fault a [`sweep`] moves over the access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// [`FaultPlan::crash_at_access_page`]: the access fails and the run
    /// dies; everything not yet on stable storage is lost. Inside a chained
    /// write the pages before the point are on stable storage, the rest
    /// are not.
    Crash,
    /// [`FaultSpec::write_at_access_page`]`.torn()`: the write is
    /// acknowledged but persists only half the page, with the checksum
    /// recording the *intended* image. Arms only on writes; a sweep
    /// position that lands on a read tears nothing and is skipped.
    TornWrite,
}

impl Fault {
    fn plan(self, access: u64, page: u32) -> FaultPlan {
        match self {
            Fault::Crash => FaultPlan::new().crash_at_access_page(access, page),
            Fault::TornWrite => {
                FaultPlan::new().inject(FaultSpec::write_at_access_page(access, page).torn())
            }
        }
    }
}

/// What a [`sweep`] runs, recovers and checks. `tid` is whatever table id
/// the sweep's `build` returned (the cascade root for an erasure campaign).
pub trait SweepTarget {
    /// Called on every freshly built, flushed database before a fault is
    /// armed: derive whatever `run` needs from the pre-statement state.
    /// Returns the number of logged statements the run will execute
    /// (default: nothing to derive, one statement).
    fn prepare(&mut self, _db: &Database, _tid: TableId) -> Result<usize, WalError> {
        Ok(1)
    }

    /// Run the logged workload; returns the victim rows deleted.
    fn run(&self, db: &mut Database, tid: TableId, log: &LogManager) -> Result<usize, WalError>;

    /// The table whose bulk statement `log` shows begun and not committed:
    /// the one whose counters a restart loses and recovery must rebuild
    /// (default: `tid`, if the log holds an open statement).
    fn interrupted(&self, log: &LogManager, tid: TableId) -> Result<Option<TableId>, WalError> {
        Ok(open_statement(&log.records()?).map(|_| tid))
    }

    /// Restart after fault point `point`: the pool has lost its frames and
    /// `corrupt` names the pages a scrub found torn (empty after a crash).
    /// Must leave the workload complete.
    fn recover(
        &self,
        db: &mut Database,
        tid: TableId,
        log: &LogManager,
        corrupt: &[PageId],
        point: u64,
    ) -> Result<MediaRecovery, WalError>;

    /// Audit `db` against the fault-free `reference`; any finding is a
    /// [`WalError::Divergence`] at `point`. The sweep also holds the
    /// reference itself to this check (as point 0).
    fn check(
        &self,
        reference: &Database,
        db: &Database,
        tid: TableId,
        log: &LogManager,
        point: u64,
    ) -> Result<(), WalError>;
}

/// What a completed sweep covered.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Fault points that damaged the run and were recovered: crash points
    /// for [`Fault::Crash`]; for [`Fault::TornWrite`], tears that corrupted
    /// a page detectably (its post-run disk checksum mismatched, or the run
    /// itself died on the mismatch read). At every one the target's check
    /// passed.
    pub recovered_points: usize,
    /// Tears that left no detectable damage. Bulk-delete writes often
    /// change only a page's front half (a heap delete clears slot
    /// directory entries), and a tear preserves exactly the front half —
    /// the persisted image equals the intended one. A later full rewrite
    /// of the page also heals a tear before anything reads it.
    pub silent_points: usize,
    /// Disk accesses of the fault-free run (the sweep's upper bound).
    pub fault_free_accesses: u64,
    /// Victim rows the fault-free run deleted.
    pub deleted: usize,
    /// Logged statements per run (the cascade's manifest steps; 1 for a
    /// single bulk delete).
    pub steps: usize,
    /// Structures rebuilt across every recovered point (B-trees bulk-loaded
    /// plus hash chains re-inserted), as far as the target's recovery
    /// attributes them. With catalog-precise classification this is at most
    /// one per torn point.
    pub structures_rebuilt: usize,
    /// The worst single point's rebuild count: one page has one owner, so
    /// the catalog pins this at ≤ 1 for a torn write.
    pub max_rebuilt_per_point: usize,
    /// Torn pages that were free in the catalog and were healed with no
    /// rebuild at all.
    pub healed_free: usize,
}

/// Sweep `fault` over every disk access of `target`'s run.
///
/// `build` must deterministically reconstruct the same database and return
/// the same [`TableId`] on every call. The sweep starts at access
/// `start + 1` — a late `start` targets the tail of the access stream (the
/// hash passes run last), which is how a test covers resume-from-progress
/// deep into a pass without paying for the thousands of earlier points of
/// a large table — and ends at the first position the run never reaches;
/// `limit` optionally caps the number of *recovered* points for smoke runs.
///
/// A position is a page of an access: write-behind leaves dirty pages in
/// chains of dozens, and a fault that could only hit a chain's first page,
/// or crash a chain all-or-nothing, would thin the sweep as the chains
/// grow. After a run the disk says where the fault landed; the next
/// position is the page after that one. A position that does not exist
/// (page 5 of a three-page chain; any page but the first of a read) lets
/// a tear slide off — the sweep moves to the next access — and lets a crash
/// slide onto the next access's first page, where that run is counted.
///
/// One outcome match covers both faults. `Ok` with nothing landed: the run
/// outran the sweep point (done) or the position did not exist (skipped).
/// `Ok` with a fired tear: the damage, if any survived later rewrites, is
/// latent — surface it the way a restart would (drop the cache, scrub the
/// disk with [`corrupt_pages`]) and media-recover. `Crashed`: recover.
/// `ChecksumMismatch`: the run read the torn page back and died on it —
/// scrub and media-recover. Every recovered point must pass the target's
/// check; the first that does not is returned as [`WalError::Divergence`].
///
/// [`corrupt_pages`]: bd_storage::SimDisk::corrupt_pages
pub fn sweep<F, T>(
    mut build: F,
    target: &mut T,
    fault: Fault,
    start: u64,
    limit: Option<usize>,
) -> Result<SweepReport, WalError>
where
    F: FnMut() -> (Database, TableId),
    T: SweepTarget + ?Sized,
{
    let accesses = |db: &Database| db.pool().with_disk(|d| d.accesses());
    // The pre-statement state must be on stable storage before the run: a
    // crash on the statement's first access discards only the statement's
    // work, not the table build sitting dirty in the pool.
    let mut fresh = |target: &mut T| -> Result<(Database, TableId, usize, u64), WalError> {
        let (db, tid) = build();
        db.pool().flush_all()?;
        let steps = target.prepare(&db, tid)?;
        let c0 = accesses(&db);
        Ok((db, tid, steps, c0))
    };

    // Reference: the same workload, no faults.
    let (mut reference, tid, steps, c0) = fresh(target)?;
    let ref_log = LogManager::new();
    let deleted = target.run(&mut reference, tid, &ref_log)?;
    let mut report = SweepReport {
        fault_free_accesses: accesses(&reference) - c0,
        deleted,
        steps,
        ..SweepReport::default()
    };
    target.check(&reference, &reference, tid, &ref_log, 0)?;

    // Volatile memory is gone; stable storage (disk pages + log) survives.
    // That includes the interrupted table's counters: they are scrambled,
    // so recovery must rebuild them from what survives. Clear the plan so
    // recovery runs fault-free.
    let restart = |db: &mut Database, target: &T, log: &LogManager| -> Result<(), WalError> {
        db.pool().crash();
        db.pool().with_disk(|d| d.clear_fault_plan());
        if let Some(t) = target.interrupted(log, tid)? {
            db.scramble_counters(t)?;
        }
        Ok(())
    };
    let scrub = |db: &Database| db.pool().with_disk(|d| d.corrupt_pages());
    let (mut n, mut page) = (start + 1, 0);
    while limit.is_none_or(|lim| report.recovered_points < lim) {
        let (mut db, tid_n, _, c0) = fresh(target)?;
        assert_eq!(tid, tid_n, "build() must be deterministic");
        let log = LogManager::new();
        db.pool()
            .with_disk(|d| d.set_fault_plan(fault.plan(c0 + n, page)));
        let run = target.run(&mut db, tid, &log);
        let used = accesses(&db) - c0;
        let Some((access, at)) = db.pool().with_disk(|d| d.fault_plan_landed()) else {
            run?;
            if n >= used {
                break;
            }
            (n, page) = (n + 1, 0);
            continue;
        };
        (n, page) = (access - c0, at + 1);
        let corrupt = match run {
            Ok(_) => {
                restart(&mut db, target, &log)?;
                let corrupt = scrub(&db);
                if corrupt.is_empty() {
                    report.silent_points += 1;
                    continue;
                }
                corrupt
            }
            Err(WalError::Crashed(_))
            | Err(WalError::Db(DbError::Storage(StorageError::SimulatedCrash))) => {
                restart(&mut db, target, &log)?;
                Vec::new()
            }
            Err(WalError::Db(DbError::Storage(StorageError::ChecksumMismatch(_)))) => {
                restart(&mut db, target, &log)?;
                scrub(&db)
            }
            Err(e) => return Err(e),
        };
        let media = target.recover(&mut db, tid, &log, &corrupt, n)?;
        let rebuilt = media.structures_rebuilt();
        report.structures_rebuilt += rebuilt;
        report.max_rebuilt_per_point = report.max_rebuilt_per_point.max(rebuilt);
        report.healed_free += media.healed_free;
        target.check(&reference, &db, tid, &log, n)?;
        report.recovered_points += 1;
    }
    Ok(report)
}

/// `Err(Divergence)` at `point` with `details`, unless `clean`.
fn ensure(clean: bool, point: u64, details: impl FnOnce() -> String) -> Result<(), WalError> {
    if clean {
        return Ok(());
    }
    Err(WalError::Divergence {
        crash_point: point,
        details: details(),
    })
}

/// The equivalence and catalog audits of table `t` must both be clean.
fn audit_table_at(
    reference: &Database,
    db: &Database,
    t: TableId,
    point: u64,
) -> Result<(), WalError> {
    let eq = audit_equivalence(reference, db, t)?;
    ensure(eq.is_clean(), point, || format!("table {t}: {eq}"))?;
    let cat = audit_catalog(db, t)?;
    ensure(cat.is_clean(), point, || {
        format!("table {t} catalog audit after recovery: {cat}")
    })
}

/// Sweep target: one recoverable bulk delete
/// ([`run_bulk_delete_parallel`]), recovered by [`recover_media`] — which
/// heals torn pages and **rebuilds** the owning structures from the
/// surviving heap and the WAL's materialized rows — and checked with
/// `audit_equivalence` and `audit_catalog`.
#[derive(Debug, Clone, Copy)]
pub struct BulkDelete<'a> {
    /// Attribute of the probe index.
    pub probe_attr: usize,
    /// The delete list `D`.
    pub d_keys: &'a [Key],
    /// Worker budget of the driver's fan-out group.
    pub workers: usize,
}

impl SweepTarget for BulkDelete<'_> {
    fn run(&self, db: &mut Database, tid: TableId, log: &LogManager) -> Result<usize, WalError> {
        run_bulk_delete_parallel(
            db,
            tid,
            self.probe_attr,
            self.d_keys,
            log,
            CrashInjector::none(),
            self.workers,
        )
    }

    fn recover(
        &self,
        db: &mut Database,
        tid: TableId,
        log: &LogManager,
        corrupt: &[PageId],
        _point: u64,
    ) -> Result<MediaRecovery, WalError> {
        recover_media(db, tid, log, &[], corrupt).map(|(_, media)| media)
    }

    fn check(
        &self,
        reference: &Database,
        db: &Database,
        tid: TableId,
        _log: &LogManager,
        point: u64,
    ) -> Result<(), WalError> {
        audit_table_at(reference, db, tid, point)
    }
}

/// Sweep target: a whole erasure campaign — the cascade's bulk deletes, the
/// physical scrub, and the commit tail — for the cascading delete closure
/// of `DELETE FROM root WHERE root_attr IN d_keys`.
///
/// `build` must reconstruct the same multi-table database (with its
/// foreign keys) and return the cascade root's table id. At every fault
/// point the campaign is recovered with [`recover_campaign`] and must run
/// to completion: the recovered state must match the fault-free reference
/// on every campaign table, the catalog audits must be clean, and the
/// proof-of-deletion — checked against a sensitive list held *outside* the
/// database, since redaction destroys the log's copy — must find zero
/// residue.
///
/// Tears surfaced while the campaign is open recover through
/// [`recover_campaign`], which heals the pages, rebuilds what the
/// in-flight step damaged, and re-runs the scrub. Tears that stay latent
/// past commit (the damage sits in a page nothing re-read, scrub-phase
/// writes included) are healed and re-scrubbed: scrub writes never change
/// live bytes, so accepting the torn image and re-running the scrub
/// restores both structure and proof.
#[derive(Debug)]
pub struct ErasureCampaign<'a> {
    root_attr: usize,
    d_keys: &'a [Key],
    workers: usize,
    /// Planned on the reference build: the cascade, its sensitive values,
    /// and the tables it touches.
    planned: Option<(CascadePlan, Vec<u64>, Vec<TableId>)>,
}

impl<'a> ErasureCampaign<'a> {
    /// A campaign erasing `d_keys` of the root's `root_attr`, each step
    /// run with `workers`.
    pub fn new(root_attr: usize, d_keys: &'a [Key], workers: usize) -> Self {
        ErasureCampaign {
            root_attr,
            d_keys,
            workers,
            planned: None,
        }
    }

    fn planned(&self) -> &(CascadePlan, Vec<u64>, Vec<TableId>) {
        self.planned
            .as_ref()
            .expect("sweep prepares before it runs")
    }
}

impl SweepTarget for ErasureCampaign<'_> {
    /// Plan the cascade and capture its sensitive values (on every build,
    /// so each run starts from the same pool contents as the reference).
    fn prepare(&mut self, db: &Database, root: TableId) -> Result<usize, WalError> {
        let plan = bd_core::plan_cascade(db, root, self.root_attr, self.d_keys)?;
        let sensitive = bd_core::collect_sensitive(db, &plan)?;
        let steps = plan.steps.len();
        match &self.planned {
            Some((reference_plan, ..)) => {
                assert_eq!(*reference_plan, plan, "cascade plan must be deterministic")
            }
            None => {
                let mut tables: Vec<TableId> = plan.steps.iter().map(|s| s.table).collect();
                tables.sort_unstable();
                tables.dedup();
                self.planned = Some((plan, sensitive, tables));
            }
        }
        Ok(steps)
    }

    fn run(&self, db: &mut Database, _root: TableId, log: &LogManager) -> Result<usize, WalError> {
        let (plan, ..) = self.planned();
        run_erasure_campaign(db, plan, log, self.workers, &Pacer::new()).map(|out| out.deleted)
    }

    /// The open statement is the step after the last sealed one.
    fn interrupted(&self, log: &LogManager, _root: TableId) -> Result<Option<TableId>, WalError> {
        let records = log.records()?;
        let sealed = records
            .iter()
            .filter(|r| matches!(r, LogRecord::CampaignStepDone { .. }))
            .count();
        let (plan, ..) = self.planned();
        Ok(open_statement(&records)
            .and_then(|_| plan.steps.get(sealed))
            .map(|step| step.table))
    }

    fn recover(
        &self,
        db: &mut Database,
        _root: TableId,
        log: &LogManager,
        corrupt: &[PageId],
        point: u64,
    ) -> Result<MediaRecovery, WalError> {
        if recover_campaign(db, log, self.workers, corrupt)?.is_none() {
            // Legitimate only when the fault surfaced after the campaign
            // closed — in the proof's own post-commit scan, the one reader
            // that touches pages nothing else re-reads, or as a tear that
            // stayed latent through commit. The begin record is redacted
            // at commit, so "nothing to resume" must come with the commit
            // marker. Every step and the scrub were flushed before it, so
            // after a crash the disk is already the final state.
            let committed = log
                .records()?
                .iter()
                .any(|r| matches!(r, LogRecord::CampaignCommit { .. }));
            ensure(committed, point, || {
                "faulted campaign not found open in the log".into()
            })?;
            if !corrupt.is_empty() {
                // Nothing to resume, only physical healing: accept the
                // torn images and re-run the idempotent whole-database
                // scrub (it re-derives every byte it writes).
                accept_torn_pages(db, corrupt)?;
                bd_core::scrub_database(db)?;
                db.pool().flush_all()?;
            }
        }
        Ok(MediaRecovery::default())
    }

    /// Audits every campaign table and re-proves the deletion with the
    /// externally held sensitive list — the post-redaction log no longer
    /// remembers it, exactly as designed.
    fn check(
        &self,
        reference: &Database,
        db: &Database,
        _root: TableId,
        log: &LogManager,
        point: u64,
    ) -> Result<(), WalError> {
        let (_, sensitive, tables) = self.planned();
        let raw = log.raw_bytes();
        let proof = bd_core::verify_erasure(db, sensitive, &[("wal", &raw)])?;
        ensure(proof.is_clean(), point, || {
            format!("erasure proof: {}", proof.render())
        })?;
        tables
            .iter()
            .try_for_each(|&t| audit_table_at(reference, db, t, point))
    }
}
