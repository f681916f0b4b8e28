//! The online experiment: foreground latency under an offline versus a
//! live (chunked, paced) bulk delete.
//!
//! The paper's §3.1 concurrency-control section argues bulk deletion must
//! coexist with updaters; this experiment quantifies the difference. For
//! each delete fraction it runs the same foreground mix (point reads,
//! range scans, inserts) twice — once against the blocking offline
//! statement, once against [`TxnDb::bulk_delete_live`] — and reports the
//! foreground p50/p95/p99 per op class next to the delete's own I/O cost.
//! Every run is model-checked against a [`ShadowDb`] (victims deleted,
//! foreground inserts applied) before its numbers are accepted.

use bd_core::{RunReport, ShadowDb};
use bd_storage::Pacer;
use bd_txn::{PropagationMode, TxnDb};
use bd_workload::{run_with_foreground, DeleteDriver, FgConfig};

use crate::experiments::pct;
use crate::snapshot::BenchPoint;
use crate::{ExperimentReport, PointConfig};

/// Delete fractions the live sweep measures (the acceptance floor is two).
pub const LIVE_FRACTIONS: &[f64] = &[0.05, 0.15];

/// Keys per exclusive span of the live driver.
pub const LIVE_CHUNK: usize = 512;

/// Foreground threads beside the delete.
pub const FG_THREADS: usize = 4;

fn driver_label(driver: DeleteDriver) -> &'static str {
    match driver {
        DeleteDriver::Offline(_) => "offline",
        DeleteDriver::Live { .. } => "live",
    }
}

/// Run one `(fraction, driver)` cell: build the full vertical structure
/// (unique probe index, two secondary B-trees, one hash index), start the
/// foreground pool, run the delete, and model-check the end state.
fn run_cell(rows: usize, fraction: f64, driver: DeleteDriver) -> Result<RunReport, String> {
    let point = PointConfig {
        n_secondary: 2,
        ..PointConfig::base(rows, 1)
    };
    let (mut db, w) = point.build().map_err(|e| e.to_string())?;
    db.create_hash_index(w.tid, 3).map_err(|e| e.to_string())?;
    let mut shadow = ShadowDb::mirror_of(&db, w.tid).map_err(|e| e.to_string())?;
    let victims = w.delete_set(fraction, point.seed.wrapping_add(1));

    let tdb = TxnDb::new(db);
    let pool = tdb.with(|db| db.pool().clone());
    pool.clear_cache().map_err(|e| e.to_string())?;
    pool.reset_stats();
    let before = pool.disk_stats();
    let run = run_with_foreground(
        &tdb,
        &w,
        &victims,
        driver,
        FgConfig {
            threads: FG_THREADS,
            seed: point.seed ^ 0xF0,
            ..FgConfig::default()
        },
        &Pacer::new(),
    )
    .map_err(|e| e.to_string())?;
    pool.flush_all().map_err(|e| e.to_string())?;
    let io = pool.disk_stats().since(&before);

    shadow.delete_in(w.tid, 0, &victims);
    for (rid, tuple) in run.inserted {
        shadow.insert(w.tid, rid, tuple);
    }
    let diff = tdb
        .with(|db| shadow.diff(db, w.tid))
        .map_err(|e| e.to_string())?;
    if !diff.is_clean() {
        return Err(format!(
            "{} {:.0}%: end state diverged from the model: {diff}",
            driver_label(driver),
            fraction * 100.0
        ));
    }
    tdb.with(|db| db.check_consistency(w.tid))
        .map_err(|e| e.to_string())?;

    Ok(RunReport {
        strategy: driver_label(driver).to_string(),
        deleted: run.deleted,
        io,
        phases: Vec::new(),
        workers: 1,
        pool: pool.pool_stats(),
        events: Vec::new(),
        foreground: Some(run.foreground),
    })
}

/// The full sweep: every [`LIVE_FRACTIONS`] fraction, offline then live,
/// both drivers propagating the non-probe non-unique indices through the
/// side file. The delete itself is serial whatever `_workers` says; the
/// threads are the foreground's.
pub fn live_experiment(rows: usize, _workers: usize) -> Result<ExperimentReport, String> {
    let drivers = [
        DeleteDriver::Offline(PropagationMode::SideFile),
        DeleteDriver::Live {
            mode: PropagationMode::SideFile,
            chunk: LIVE_CHUNK,
        },
    ];
    let mut points = Vec::new();
    for &fraction in LIVE_FRACTIONS {
        let x = pct(fraction);
        for driver in drivers {
            let cell = run_cell(rows, fraction, driver)?;
            points.push(BenchPoint::from_report("live", &x, &cell.strategy, &cell));
        }
    }
    Ok(ExperimentReport {
        id: "live",
        title: format!(
            "offline vs live bulk delete under foreground traffic: {rows} rows, \
             {FG_THREADS} threads of point reads / range scans / inserts"
        ),
        x_label: "% deleted",
        notes: format!(
            "live = {LIVE_CHUNK}-key exclusive spans with pacer checkpoints; \
             both drivers side-file the non-probe secondary indices; every \
             cell's end state is diffed against a shadow model; foreground \
             percentiles per op class follow"
        ),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded end-to-end sweep: both drivers at both fractions finish,
    /// model-check clean, and every point carries non-empty foreground
    /// percentiles for all three op classes.
    #[test]
    fn live_sweep_reports_foreground_percentiles() {
        let report = live_experiment(4_000, 1).expect("sweep");
        assert_eq!(report.xs().len(), LIVE_FRACTIONS.len());
        assert_eq!(report.points.len(), 2 * LIVE_FRACTIONS.len());
        for p in &report.points {
            assert!(
                !p.foreground.is_empty(),
                "{} {} has no fg data",
                p.strategy,
                p.x
            );
            let classes: Vec<&str> = p.foreground.iter().map(|c| c.class.as_str()).collect();
            for want in ["point_read", "range_scan", "insert"] {
                assert!(
                    classes.contains(&want),
                    "{} {} missing {want}",
                    p.strategy,
                    p.x
                );
            }
            for c in &p.foreground {
                assert!(c.ops > 0);
                assert!(c.p50_us <= c.p95_us && c.p95_us <= c.p99_us && c.p99_us <= c.max_us);
            }
        }
    }
}
