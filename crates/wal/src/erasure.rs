//! Durable erasure campaigns: crash-safe cascading deletes with
//! proof-of-deletion.
//!
//! A plain cascading delete ([`bd_core::run_cascade`]) is logically
//! correct but neither *durable* (a crash mid-cascade strands the
//! referential graph half-deleted, with no record of what remained to do)
//! nor *physically complete* (deleted bytes survive on heap slack, index
//! slack, separators, free pages — and in the WAL itself, whose
//! delete lists and materialized victim rows are key-bearing records).
//!
//! [`run_erasure_campaign`] fixes both:
//!
//! 1. the full cascade is planned up front and persisted as a **campaign
//!    manifest** ([`LogRecord::CampaignBegin`]) — recovery never re-plans
//!    against a half-deleted foreign-key graph;
//! 2. each table's bulk delete runs through the §3.2 recoverable driver
//!    and is sealed with a [`LogRecord::CampaignStepDone`];
//! 3. after the last step a whole-database physical scrub destroys every
//!    residual key image, the log's own key-bearing records are redacted
//!    **in place** ([`LogManager::redact_before`]), and a
//!    [`LogRecord::CampaignCommit`] closes the campaign;
//! 4. [`bd_core::verify_erasure`] then proves the deletion: a byte-level
//!    scan of every page and the raw log for any surviving sensitive
//!    value.
//!
//! A crash at any I/O recovers into the same campaign:
//! [`recover_campaign`] finds the open manifest, rolls the in-flight
//! step's bulk run forward with the ordinary WAL recovery, runs the
//! remaining steps, and re-runs the scrub (every scrub write is designed
//! to be idempotent and torn-write-benign — see the heap scrub's
//! non-moving contract and the B-tree scrub's canonical separators).
//!
//! Cancellation is cooperative via a [`Pacer`] hook: a cancel observed
//! between steps appends [`LogRecord::CampaignCancelled`] — the completed
//! prefix is durable and consistent, and recovery treats the campaign as
//! closed.

use std::collections::BTreeSet;

use bd_core::{
    collect_sensitive, erasure::victim_rows, scrub_database, verify_erasure, CascadePlan, Database,
    DbError, ErasureReport, ScrubReport, TableId,
};
use bd_storage::{io_scope::bypass_cancel, Pacer, PageId};

use crate::driver::{recover_media, run_bulk_delete_parallel, CrashInjector, WalError};
use crate::log::LogManager;
use crate::record::{CampaignStep, LogRecord, Lsn};

/// Tags of key-bearing records scrubbed at campaign commit: `BulkBegin`
/// (1, the delete list), `RowsMaterialized` (2, every victim attribute),
/// and `CampaignBegin` (8, the manifest's key closure).
pub const KEY_BEARING_TAGS: [u8; 3] = [1, 2, 8];

/// What a completed (or recovered) erasure campaign accomplished.
#[derive(Debug)]
pub struct ErasureOutcome {
    /// Campaign identifier as recorded in the log.
    pub id: u64,
    /// Manifest steps this call executed (a recovery that found every
    /// step already sealed reports 0 and only re-runs the scrub).
    pub steps_run: usize,
    /// Victim rows deleted by the steps this call executed.
    pub deleted: usize,
    /// What the physical scrub destroyed.
    pub scrub: ScrubReport,
    /// Key-bearing log records redacted at commit.
    pub redacted: usize,
    /// The proof of deletion over every surface, the raw log included.
    pub report: ErasureReport,
}

fn manifest_steps(plan: &CascadePlan) -> Vec<CampaignStep> {
    plan.steps
        .iter()
        .map(|s| CampaignStep {
            table: s.table as u32,
            attr: s.attr as u16,
            keys: s.keys.clone(),
        })
        .collect()
}

/// Run a durable erasure campaign for a pre-planned cascade.
///
/// The manifest is logged before any other work, so every later crash
/// point recovers into this campaign via [`recover_campaign`]. `workers`
/// is each step's bulk-delete worker budget. The `pacer`'s hook runs at
/// every checkpoint: the pacer is checked with nothing in flight between
/// steps (a hook's cancel there seals the campaign with a
/// [`LogRecord::CampaignCancelled`] naming the committed prefix) and
/// installed around each step's body with deferred cancellation — a step,
/// once begun, either completes or crashes, it is never abandoned half-run
/// by a cancel.
pub fn run_erasure_campaign(
    db: &mut Database,
    plan: &CascadePlan,
    log: &LogManager,
    workers: usize,
    pacer: &Pacer,
) -> Result<ErasureOutcome, WalError> {
    let id = log.len() as u64;
    log.append(&LogRecord::CampaignBegin {
        id,
        steps: manifest_steps(plan),
    });
    // Sensitive values must be captured while the victim rows still
    // exist. A crash from here on re-derives the same set from the
    // manifest, the logged victim rows, and the still-live remainder.
    let sensitive = collect_sensitive(db, plan)?;

    let mut deleted = 0usize;
    for (i, step) in plan.steps.iter().enumerate() {
        // Checkpoint between steps: nothing in flight. The
        // completed prefix is durable (each step's driver flushes before
        // its commit), so a cancel here leaves a consistent database and
        // a manifest that says exactly how far the campaign got.
        if let Err(e) = pacer.check() {
            log.append(&LogRecord::CampaignCancelled {
                id,
                completed: i as u32,
            });
            return Err(DbError::from(e).into());
        }
        deleted += {
            let _pace = pacer.enter_defer_cancel();
            run_bulk_delete_parallel(
                db,
                step.table,
                step.attr,
                &step.keys,
                log,
                CrashInjector::none(),
                workers,
            )?
        };
        log.append(&LogRecord::CampaignStepDone { id, step: i as u32 });
    }

    let (scrub, redacted, report) = finish_campaign(db, log, id, &sensitive)?;
    Ok(ErasureOutcome {
        id,
        steps_run: plan.steps.len(),
        deleted,
        scrub,
        redacted,
        report,
    })
}

/// The campaign's obligated tail: physical scrub, log redaction, commit
/// marker, then the proof. Runs under [`bypass_cancel`] — every step is
/// already committed, so a cancel arriving now must not strand a
/// fully-deleted campaign uncommitted (mirroring the live deleter's
/// phase-2 contract).
fn finish_campaign(
    db: &mut Database,
    log: &LogManager,
    id: u64,
    sensitive: &[u64],
) -> Result<(ScrubReport, usize, ErasureReport), WalError> {
    let (scrub, redacted) = bypass_cancel(|| -> Result<_, WalError> {
        let scrub = scrub_database(db)?;
        let redacted = log.redact_before(log.len() as Lsn, &KEY_BEARING_TAGS);
        log.append(&LogRecord::CampaignCommit { id });
        Ok((scrub, redacted))
    })?;
    let raw = log.raw_bytes();
    let report = verify_erasure(db, sensitive, &[("wal", &raw)])?;
    Ok((scrub, redacted, report))
}

/// Resume an interrupted erasure campaign after a crash.
///
/// Analysis finds the most recent [`LogRecord::CampaignBegin`] with no
/// matching commit or cancel (a *committed* campaign's begin record has
/// been redacted away, so it cannot even be found — redaction doubles as
/// the idempotence guard). Returns `Ok(None)` when there is nothing to
/// resume; `corrupt` names torn pages discovered after the crash.
///
/// Recovery proceeds in manifest order:
///
/// 1. the in-flight step's bulk run is rolled forward by the ordinary
///    WAL [`recover_media`] (heals torn pages, rebuilds damaged
///    structures, redoes the phases from the logged victim rows);
/// 2. the remaining steps run exactly as the original campaign would
///    have run them;
/// 3. the scrub/redact/commit/verify tail re-runs from scratch — every
///    scrub write is idempotent, and a separator garbled by a torn write
///    is *repaired* by the canonical rewrite.
///
/// If the crash hit the scrub phase itself (every step already sealed),
/// torn pages are healed and the re-scrub restores them: scrub writes
/// never move live bytes, so a half-persisted scrub page is logically
/// identical to its pre-scrub self.
pub fn recover_campaign(
    db: &mut Database,
    log: &LogManager,
    workers: usize,
    corrupt: &[PageId],
) -> Result<Option<ErasureOutcome>, WalError> {
    let records = log.records()?;
    let Some(begin_idx) = records
        .iter()
        .rposition(|r| matches!(r, LogRecord::CampaignBegin { .. }))
    else {
        return Ok(None);
    };
    let (id, steps) = match &records[begin_idx] {
        LogRecord::CampaignBegin { id, steps } => (*id, steps.clone()),
        _ => unreachable!("rposition matched CampaignBegin"),
    };
    let tail = &records[begin_idx + 1..];
    let closed = tail.iter().any(|r| {
        matches!(r,
            LogRecord::CampaignCommit { id: c } if *c == id)
            || matches!(r,
            LogRecord::CampaignCancelled { id: c, .. } if *c == id)
    });
    if closed {
        return Ok(None);
    }
    let completed = tail
        .iter()
        .filter(|r| matches!(r, LogRecord::CampaignStepDone { id: c, .. } if *c == id))
        .count();

    // Re-derive the sensitive set without the victim rows the campaign
    // already destroyed: the manifest holds every step's key closure, and
    // each started step logged its victim rows before destructive work.
    let mut sensitive: BTreeSet<u64> = BTreeSet::new();
    for s in &steps {
        sensitive.extend(s.keys.iter().copied());
    }
    for r in tail {
        if let LogRecord::RowsMaterialized { rows } = r {
            for row in rows {
                sensitive.extend(row.attrs.iter().copied());
            }
        }
    }

    let mut deleted = 0usize;
    let mut steps_run = 0usize;
    if completed < steps.len() {
        // The crash hit step `completed` (its BulkBegin is the log's
        // last: steps run strictly in sequence, and a step's commit and
        // its StepDone are appended back-to-back with no I/O between).
        // Ordinary WAL recovery rolls that bulk run forward, healing and
        // rebuilding from any torn pages — which can only belong to the
        // in-flight table, the only one being written.
        let cur = &steps[completed];
        deleted += recover_media(db, cur.table as TableId, log, &[], corrupt)?.0;
        // Steps that never started (or only partially ran) still have
        // victims live in the recovered database; fold their attributes
        // into the proof set. (Rows the in-flight step already removed
        // were captured from its RowsMaterialized record above.)
        for s in &steps[completed..] {
            for (_, row) in victim_rows(db, s.table as TableId, s.attr as usize, &s.keys)? {
                sensitive.extend(row.attrs.iter().copied());
            }
        }
        // Re-run the in-flight step rather than just sealing it: if the
        // crash landed before the step's own BulkBegin (e.g. during the
        // campaign's sensitive-value capture), recovery above had nothing
        // to roll forward and the step must run for real. When recovery
        // *did* finish it, the re-run materializes zero victims and
        // no-ops — bulk deletes tolerate absent keys.
        for (i, s) in steps.iter().enumerate().skip(completed) {
            deleted += run_bulk_delete_parallel(
                db,
                s.table as TableId,
                s.attr as usize,
                &s.keys,
                log,
                CrashInjector::none(),
                workers,
            )?;
            log.append(&LogRecord::CampaignStepDone { id, step: i as u32 });
            steps_run += 1;
        }
    } else if !corrupt.is_empty() {
        // Crash with every step sealed: the tear either hit a scrub-phase
        // write (benign — scrub writes never change live bytes, so the
        // healed image plus the re-scrub below is already correct) or is
        // a step-era tear surfacing late, e.g. a page whose *final* flush
        // tore and that nothing re-read until the scrub swept it. The
        // page catalog's table-scoped owner tags attribute either case
        // precisely: index and hash pages rebuild from their own table's
        // surviving heap, heap/free/scratch pages heal in place.
        let last = steps.last().map(|s| s.table as TableId).unwrap_or(0);
        crate::driver::heal_and_rebuild(db, last, corrupt)?;
    }

    let sens: Vec<u64> = sensitive.into_iter().collect();
    let (scrub, redacted, report) = finish_campaign(db, log, id, &sens)?;
    Ok(Some(ErasureOutcome {
        id,
        steps_run,
        deleted,
        scrub,
        redacted,
        report,
    }))
}
