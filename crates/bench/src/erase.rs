//! Retention-window erasure over the sliding-window warehouse (§1).
//!
//! The paper's warehouse keeps "a window of, say, all the sales
//! information of the last six months"; each sweep point here erases the
//! oldest `w` months of sales *and their line items* (FK CASCADE) twice:
//!
//! * **cascade** — the plain cascading bulk delete (logical deletion
//!   only, what the paper's executor gives you);
//! * **campaign** — the durable erasure campaign: WAL manifest, resumable
//!   steps, whole-database physical scrub, log redaction, and the
//!   proof-of-deletion verifier, which must come back clean.
//!
//! The gap between the two series is the I/O price of compliance-grade
//! deletion at each retention window.

use bd_btree::{Key, ReorgPolicy};
use bd_core::{
    plan_cascade, run_cascade_step, Database, DatabaseConfig, DbError, ForeignKey, IndexDef,
    RunReport, Schema, TableId, Tuple,
};
use bd_storage::{IoScope, Pacer, PoolStats};
use bd_wal::{run_erasure_campaign, LogManager, WalError};

use crate::snapshot::BenchPoint;
use crate::ExperimentReport;

/// Months the warehouse window holds.
pub const WINDOW_MONTHS: u64 = 6;
/// Line items per sale (the CASCADE fan-out).
pub const LINE_ITEMS_PER_SALE: u64 = 2;
/// Months erased per sweep point — the retention windows measured.
pub const ERASED_MONTHS: &[u64] = &[1, 2, 3];

// Every stored value is high-entropy: the proof-of-deletion byte-scans
// whole page images, so small integers (a month number, a row counter)
// would collide with page metadata and slot offsets.
fn sale_id(m: u64, n: u64) -> u64 {
    0x5A1E_0000_0000_0000 | (m << 40) | (n * 0x0101 + 1)
}
fn month_code(m: u64) -> u64 {
    0xE0AA_0000_0000_0000 | (m * 0x0101_0101 + 7)
}
fn product_code(p: u64) -> u64 {
    0xB00C_0000_0000_0000 | ((p % 97) * 0x0101_0101 + 5)
}
fn item_id(m: u64, seq: u64) -> u64 {
    0x17EA_0000_0000_0000 | (m << 40) | (seq * 0x0101 + 1)
}
fn item_amount(m: u64, seq: u64) -> u64 {
    0xA0CE_0000_0000_0000 | (m << 40) | (seq * 0x0101 + 3)
}

/// Build the warehouse: `sales(sale_id, month, product)` with a unique
/// probe index, a month index, and a hash index on product; and
/// `line_items(item_id, sale_id, amount)` CASCADE-referencing sales.
///
/// Returns `(db, sales, line_items)`. Deterministic for a given
/// `(sales_per_month, pool_bytes)` — the fault sweeps rebuild through it.
pub fn build_warehouse(sales_per_month: u64, pool_bytes: usize) -> (Database, TableId, TableId) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(pool_bytes));
    let sales = db.create_table("sales", Schema::new(3, 64));
    db.create_index(sales, IndexDef::secondary(0).unique())
        .unwrap();
    db.create_index(sales, IndexDef::secondary(1)).unwrap();
    db.create_hash_index(sales, 2).unwrap();
    let items = db.create_table("line_items", Schema::new(3, 64));
    db.create_index(items, IndexDef::secondary(0).unique())
        .unwrap();
    db.create_index(items, IndexDef::secondary(1)).unwrap();
    db.add_foreign_key(ForeignKey::cascade("fk_sale_items", sales, 0, items, 1));
    for m in 0..WINDOW_MONTHS {
        for n in 0..sales_per_month {
            let id = sale_id(m, n);
            db.insert(
                sales,
                &Tuple::new(vec![
                    id,
                    month_code(m),
                    product_code(m * sales_per_month + n),
                ]),
            )
            .unwrap();
            for k in 0..LINE_ITEMS_PER_SALE {
                let seq = n * LINE_ITEMS_PER_SALE + k;
                db.insert(
                    items,
                    &Tuple::new(vec![item_id(m, seq), id, item_amount(m, seq)]),
                )
                .unwrap();
            }
        }
    }
    (db, sales, items)
}

/// The sale ids of the oldest `w` months — the roll-out victim set.
pub fn victim_ids(w: u64, sales_per_month: u64) -> Vec<Key> {
    (0..w)
        .flat_map(|m| (0..sales_per_month).map(move |n| sale_id(m, n)))
        .collect()
}

/// Run `body` against a cold cache and account its I/O into a
/// [`RunReport`] (mirrors [`bd_core::measure`], with the WAL error type).
/// The I/O is taken by a scope, not by a difference of the disk's
/// counters: a cascade step runs through `bd_core::measure`, which resets
/// them, so a difference would keep only the last step.
fn measured(
    db: &mut Database,
    strategy: &str,
    workers: usize,
    body: impl FnOnce(&mut Database) -> Result<usize, WalError>,
) -> Result<RunReport, WalError> {
    let pool = db.pool().clone();
    pool.clear_cache().map_err(DbError::from)?;
    pool.reset_stats();
    let scope = IoScope::new();
    let deleted = {
        let _io = scope.enter();
        let deleted = body(db)?;
        pool.flush_all().map_err(DbError::from)?;
        deleted
    };
    let io = scope.stats();
    Ok(RunReport {
        strategy: strategy.to_string(),
        deleted,
        io,
        phases: Vec::new(),
        workers,
        pool: pool.pool_stats(),
        events: Vec::new(),
        foreground: None,
    })
}

/// The retention-window sweep: for each erased-months point, the plain
/// cascade and the full erasure campaign over a fresh warehouse — every
/// campaign's proof-of-deletion must come back clean.
pub fn erase_experiment(rows: usize, workers: usize) -> Result<ExperimentReport, WalError> {
    let spm = (rows as u64 / WINDOW_MONTHS).max(16);
    let pool_bytes = crate::mem_bytes(5.0, rows.max(1));
    let mut points = Vec::new();

    for &w in ERASED_MONTHS {
        let d = victim_ids(w, spm);
        let expect = (w * spm * (1 + LINE_ITEMS_PER_SALE)) as usize;
        let x = format!("{w}mo");

        let (mut db, sales, _) = build_warehouse(spm, pool_bytes);
        // Each step's `measure` resets the pool's counters: sum them.
        let mut steps_pool = PoolStats::default();
        let mut plain = measured(&mut db, "cascade", workers, |db| {
            let plan = plan_cascade(db, sales, 0, &d)?;
            let mut n = 0;
            for step in &plan.steps {
                let out = run_cascade_step(db, step, ReorgPolicy::FreeAtEmpty, workers)?;
                steps_pool.merge(&out.report.pool);
                n += out.deleted.len();
            }
            Ok(n)
        })?;
        plain.pool = steps_pool;

        let (mut db, sales, _) = build_warehouse(spm, pool_bytes);
        let campaign = measured(&mut db, "campaign", workers, |db| {
            let plan = plan_cascade(db, sales, 0, &d)?;
            let log = LogManager::new();
            let out = run_erasure_campaign(db, &plan, &log, workers, &Pacer::new())?;
            if !out.report.is_clean() {
                return Err(WalError::Divergence {
                    crash_point: 0,
                    details: format!("erasure proof at {w} months: {}", out.report.render()),
                });
            }
            Ok(out.deleted)
        })?;

        for r in [&plain, &campaign] {
            if r.deleted != expect {
                return Err(WalError::Divergence {
                    crash_point: 0,
                    details: format!(
                        "{} at {w} months deleted {} rows, expected {expect}",
                        r.strategy, r.deleted
                    ),
                });
            }
            points.push(BenchPoint::from_report("erase", &x, &r.strategy, r));
        }
    }

    Ok(ExperimentReport {
        id: "erase",
        title: format!(
            "retention-window erasure: warehouse of {} sales x {WINDOW_MONTHS} months, \
             {LINE_ITEMS_PER_SALE} line items/sale (CASCADE)",
            spm * WINDOW_MONTHS
        ),
        x_label: "months erased",
        notes: "expected: campaign > cascade at every window (the scrub reads \
             every live page and zeroes the freed ones, and the proof \
             re-scans the database); both grow with months erased. Every \
             campaign proof clean: zero erased-key residue on any surface."
            .to_string(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_sweep_proves_every_window() {
        let report = erase_experiment(600, 1).unwrap();
        assert_eq!(report.series(), vec!["cascade", "campaign"]);
        assert_eq!(report.xs().len(), ERASED_MONTHS.len());
        assert_eq!(report.points.len(), 2 * ERASED_MONTHS.len());
        // The campaign's physical scrub and proof cost real I/O on top of
        // the cascade at every window.
        for x in report.xs() {
            let [cascade, campaign] = ["cascade", "campaign"].map(|s| report.cell(x, s).unwrap());
            assert!(
                campaign > cascade,
                "{x}: campaign ({campaign}) not above cascade ({cascade})"
            );
        }
    }
}
