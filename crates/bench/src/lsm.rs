//! The engine experiment: the paper's delete design space replayed over
//! log-structured storage.
//!
//! Three arms, same rows, same delete sets, same (scaled) memory budget
//! (no drop&create arm: the table has one index, so there is nothing to
//! drop and the arm would be `sorted/trad` under another name):
//!
//! * **bulk delete** — the B-tree engine running the paper's vertical
//!   sort/merge plan (the winner of the original evaluation);
//! * **lsm tombstone** — the delete-aware LSM engine: the delete writes
//!   point tombstones (after one sorted membership pass per run) plus
//!   whatever flushes and FADE compactions the write triggers. This is the
//!   *deferred*
//!   cost: some tombstones still sit in the tree when it returns;
//! * **lsm purged** — the same LSM delete plus [`LsmTable::purge_all`]:
//!   compaction forced until every tombstone is physically dropped. This
//!   is the LSM's *total* bill, the number comparable to the B-tree arms
//!   (which leave no deferred work behind).
//!
//! Every LSM arm is differentially audited against its B-tree twin with
//! [`audit_engine_equivalence`] before its numbers are accepted — a
//! diverging engine's timings are meaningless.

use bd_core::engine::{audit_engine_equivalence, BtreeEngine, TableEngine};
use bd_core::report::measure;
use bd_core::{DbError, DbResult, RunReport};
use bd_lsm::{LsmConfig, LsmTable};
use bd_workload::TableSpec;

use crate::experiments::pct;
use crate::snapshot::BenchPoint;
use crate::{mem_bytes, ExperimentReport, PointConfig, StrategyKind};

/// LSM knobs for a bench point: the memtable plays the role the paper's
/// sort/hash workspace plays for the B-tree (1/4 of the memory budget),
/// everything else at defaults.
pub fn lsm_config(total_memory: usize, record_len: usize) -> LsmConfig {
    LsmConfig {
        memtable_capacity: (total_memory / 4 / (record_len + 9)).max(64),
        ..LsmConfig::default()
    }
}

/// One measured LSM cell: the tombstone-write report and the purge report.
pub struct LsmCell {
    /// The deferred-cost arm (tombstones + triggered compactions).
    pub tombstone: RunReport,
    /// The purge continuation (forced compaction to zero tombstones).
    pub purge: RunReport,
}

/// Run one delete fraction through the LSM engine, differentially audited
/// against a B-tree engine fed the identical workload.
pub fn lsm_point(cfg: &PointConfig, fraction: f64) -> DbResult<LsmCell> {
    let spec = TableSpec::paper_scaled()
        .with_rows(cfg.rows)
        .with_seed(cfg.seed);
    let rows = spec.generate_rows();
    let total_memory = mem_bytes(cfg.paper_mem_mb, cfg.rows);

    // The B-tree twin reuses the normal point build (heap + unique index).
    let (db, w) = cfg.build()?;
    let d = w.delete_set(fraction, cfg.seed.wrapping_add(1));
    let mut btree = BtreeEngine::from_db(db, w.tid, cfg.workers.max(1));
    btree.bulk_delete(&d)?;

    let mut lsm = LsmTable::new(
        spec.schema(),
        total_memory,
        lsm_config(total_memory, spec.schema().record_len),
    );
    lsm.bulk_load(&rows)?;
    let mut tombstone = lsm.bulk_delete(&d)?;

    let pool = lsm.pool().clone();
    let (_, mut purge) =
        measure(&pool, "lsm purged", || lsm.purge_all()).map_err(DbError::Storage)?;
    purge.deleted = tombstone.deleted;
    // The purge arm's bill includes the tombstone write that preceded it.
    purge.io.merge(&tombstone.io);

    let eq = audit_engine_equivalence(&mut btree, &mut lsm)?;
    if !eq.is_clean() {
        return Err(DbError::Audit(format!(
            "lsm diverged from btree at {fraction}: {}",
            eq.render()
        )));
    }
    let pages = lsm.audit_pages();
    if !pages.is_clean() {
        return Err(DbError::Audit(format!(
            "lsm page catalog dirty at {fraction}: {}",
            pages.render()
        )));
    }

    tombstone.workers = 1;
    Ok(LsmCell { tombstone, purge })
}

/// The three-way engine comparison over delete fractions (fig7's sweep
/// replayed through the engine seam).
pub fn lsm_experiment(rows: usize, workers: usize) -> DbResult<ExperimentReport> {
    let cfg = PointConfig::base(rows, workers);
    let mut cells = Vec::new();
    for f in [0.05, 0.10, 0.15, 0.20] {
        let x = pct(f);
        let bulk = crate::run_point(&cfg, StrategyKind::Bulk, f)?;
        let lsm = lsm_point(&cfg, f)?;
        for (label, r) in [
            (StrategyKind::Bulk.label(), &bulk),
            ("lsm tombstone", &lsm.tombstone),
            ("lsm purged", &lsm.purge),
        ] {
            cells.push(BenchPoint::from_report("lsm", &x, label, r));
        }
    }
    Ok(ExperimentReport {
        id: "lsm",
        title: format!(
            "engine comparison: {rows} rows, B-tree vertical vs \
             delete-aware LSM (tombstone write, forced purge), 5 MB memory"
        ),
        x_label: "deleted tuples",
        notes: "the LSM arms grow with the fraction: the membership probe is \
                one sorted pass per run, and the tombstones follow in key \
                order, so each flush spans a narrow key range and compacts \
                only the partitions under it; what grows is those flushes \
                and compactions. The B-tree vertical plan barely grows: at \
                20000 rows the tombstone arm undercuts it at 5% (by 15%) and \
                costs more from 10% on, at 100000 rows the B-tree is \
                cheapest at every fraction, and the purged arm stays above \
                it at every fraction at both sizes; purging every remaining \
                tombstone adds only the residual compactions on top of the \
                tombstone arm; every LSM cell is audit-equivalent to its \
                B-tree twin and its page catalog is clean"
            .into(),
        points: cells,
    })
}
