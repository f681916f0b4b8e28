//! `plans` — §4's remark, measured: the `⋈̄` methods differ "much [less]
//! than the differences between the horizontal and vertical approach".
//!
//! The 3-index paper table at two memory budgets × three delete fractions,
//! each cell built and audited as the figures' cells are. The front door's
//! plan ([`plan_sort_merge`]) runs beside the Fig. 4/5 plans forced by hand
//! and beside itself under the two §2.3 policies no other experiment
//! clocks. The verdict is the reason there is one planner; the notes are
//! computed from the cells, so the gate pins the remark to the digit.

use bd_btree::ReorgPolicy::{self, BaseNodePack, CompactLeaves, FreeAtEmpty};
use bd_core::IndexMethod::{self, ClassicHash, PartitionedHash};
use bd_core::TableMethod::{self, HashProbe};
use bd_core::{plan_sort_merge, strategy, DbError, DbResult, RunReport};
use bd_storage::StorageError;

use crate::snapshot::BenchPoint;
use crate::{distinct, experiments::pct, run_point_with, ExperimentReport, PointConfig};

/// The front door's series: sort/merge everywhere, free-at-empty.
const FRONT_DOOR: &str = "sort/merge";

/// Every series: label, forced table method, index method forced on every
/// downstream step (such a series is held to [`MAX_LEAD`]), §2.3 policy.
const SERIES: [(&str, Option<TableMethod>, Option<IndexMethod>, ReorgPolicy); 6] = [
    (FRONT_DOOR, None, None, FreeAtEmpty),
    ("classic hash", None, Some(ClassicHash), FreeAtEmpty),
    ("partitioned hash", None, Some(PartitionedHash), FreeAtEmpty),
    ("hash probe", Some(HashProbe), None, FreeAtEmpty),
    ("compact leaves", None, None, CompactLeaves),
    ("base-node pack", None, None, BaseNodePack),
];

/// The verdict's one constant: how far (as a ratio of simulated clocks) the
/// front door may trail an index-method cell before the experiment fails.
pub const MAX_LEAD: f64 = 1.05;

/// One measured cell as the verdict reads it: `(x, series, sim-minutes)`.
type Cell<'a> = (&'a str, &'a str, f64);

/// A forced plan's outcome as a cell: a RID set that overran the workspace
/// is an absent cell (that plan does not exist at that budget); every other
/// error is the experiment's.
fn cell_of(outcome: DbResult<RunReport>) -> DbResult<Option<RunReport>> {
    match outcome {
        Err(DbError::Storage(StorageError::BudgetExceeded { .. })) => Ok(None),
        other => other.map(Some),
    }
}

/// The extreme `num ÷ den` of `pairs` (the largest under `sign = 1.0`, the
/// smallest under `-1.0`), rendered `1.0027 at 2 MB / 1%`.
fn extreme(pairs: &[(&str, f64, f64)], sign: f64) -> String {
    let best = pairs
        .iter()
        .map(|&(x, num, den)| (x, num / den))
        .max_by(|a, b| (sign * a.1).total_cmp(&(sign * b.1)));
    best.map_or("no cell".into(), |(x, r)| format!("{r:.4} at {x}"))
}

/// Hold the front door to every index-method cell and summarise the grid.
/// `Err` names each cell where sort/merge trails by more than [`MAX_LEAD`];
/// `Ok` is the notes: every cell to the digit, then per series the range of
/// its ratio to the front door over the rows where both have a cell.
fn verdict(cells: &[Cell]) -> Result<String, String> {
    let at = |x: &str, s: &str| cells.iter().find(|c| c.0 == x && c.1 == s).map(|c| c.2);
    let xs = distinct(cells.iter().map(|c| c.0));
    let mut notes = format!("sim-min per row above ({}):\n", xs.join(" | "));
    for (series, ..) in SERIES {
        let digits = xs.iter().map(|x| match at(x, series) {
            Some(v) => format!("{v:>10.6}"),
            None => format!("{:>10}", "-"),
        });
        notes += &format!("  {series:<18}{}\n", digits.collect::<String>());
    }
    let mut failures = Vec::new();
    for (series, _, index, policy) in &SERIES[1..] {
        // A reorg series is the front door's own plan: its surcharge reads
        // policy ÷ free-at-empty; a method's lead reads sort/merge ÷ method.
        let (num, den) = match policy {
            FreeAtEmpty => (FRONT_DOOR, *series),
            _ => (*series, FRONT_DOOR),
        };
        let pairs: Vec<_> = xs
            .iter()
            .filter_map(|x| Some((*x, at(x, num)?, at(x, den)?)))
            .collect();
        for &(x, front, forced) in &pairs {
            if index.is_some() && front / forced > MAX_LEAD {
                failures.push(format!(
                    "{FRONT_DOOR} is {:.4}x behind {series} at {x} \
                     ({front:.6} vs {forced:.6} sim-min; limit {MAX_LEAD}x)",
                    front / forced
                ));
            }
        }
        notes += &format!(
            "{num} ÷ {den}: highest {}, lowest {}\n",
            extreme(&pairs, 1.0),
            extreme(&pairs, -1.0)
        );
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    Ok(notes + &format!("[{FRONT_DOOR} is within {MAX_LEAD}x of every index-method cell]"))
}

/// Run the method grid at `rows` scale with `workers` `⋈̄` arms. Errors on
/// an execution or audit failure (other than a forced plan that does not
/// fit) and on a failed [`verdict`].
pub fn plans_experiment(rows: usize, workers: usize) -> Result<ExperimentReport, String> {
    let mut points = Vec::new();
    for mb in [2.0, 10.0] {
        let cfg = PointConfig {
            n_secondary: 2,
            paper_mem_mb: mb,
            workers,
            ..PointConfig::base(rows)
        };
        for f in [0.01, 0.05, 0.15] {
            let x = format!("{mb:.0} MB / {}", pct(f));
            for (series, table, index, policy) in SERIES {
                let run = run_point_with(&cfg, f, |db, tid, d| {
                    let mut plan = plan_sort_merge(db.table(tid)?, 0)?;
                    plan.table = table.unwrap_or(plan.table);
                    if let Some(method) = index {
                        plan.index_steps.iter_mut().for_each(|s| s.method = method);
                    }
                    Ok(strategy::vertical(db, tid, d, &plan, policy, workers)?.report)
                });
                if let Some(report) = cell_of(run).map_err(|e| e.to_string())? {
                    points.push(BenchPoint::from_report("plans", &x, series, &report));
                }
            }
        }
    }
    let cells: Vec<Cell> = points
        .iter()
        .map(|p| (p.x.as_str(), p.strategy.as_str(), p.sim_minutes))
        .collect();
    Ok(ExperimentReport {
        id: "plans",
        title: format!("⋈̄ methods and reorg policies: {rows} rows, 3 indices"),
        x_label: "memory / deleted",
        notes: verdict(&cells)?,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: &str = "2 MB / 1%";
    const Y: &str = "10 MB / 1%";

    #[test]
    fn six_percent_ahead_fails_naming_the_cell_and_four_passes() {
        let err = verdict(&[(X, FRONT_DOOR, 0.106), (X, "classic hash", 0.1)]).unwrap_err();
        for needle in ["classic hash", X, "0.106000", "0.100000", "1.0600x"] {
            assert!(err.contains(needle), "`{needle}` not in: {err}");
        }
        let notes = verdict(&[(X, FRONT_DOOR, 0.104), (X, "classic hash", 0.1)]).unwrap();
        assert!(notes.contains("classic hash: highest 1.0400 at 2 MB / 1%"));
    }

    #[test]
    fn an_absent_cell_is_skipped_not_zero() {
        let grid = [
            (X, FRONT_DOOR, 0.2),
            (Y, FRONT_DOOR, 0.1),
            (Y, "classic hash", 0.099),
        ];
        let notes = verdict(&grid).unwrap();
        assert!(notes.contains("classic hash: highest 1.0101 at 10 MB / 1%"));
        assert!(notes.contains("  classic hash               -  0.099000\n"));
        assert!(notes.contains("partitioned hash: highest no cell, lowest no cell"));
    }

    #[test]
    fn hash_probe_and_reorg_cells_only_inform() {
        let notes = verdict(&[
            (X, FRONT_DOOR, 0.2),
            (X, "hash probe", 0.1),
            (X, "base-node pack", 0.5),
            (Y, FRONT_DOOR, 0.1),
            (Y, "hash probe", 0.4),
        ])
        .expect("neither series is held to the limit");
        assert!(notes.contains("hash probe: highest 2.0000 at 2 MB / 1%, lowest 0.2500 at 10 MB"));
        assert!(notes.contains("base-node pack ÷ sort/merge: highest 2.5000 at 2 MB / 1%"));
    }

    #[test]
    fn only_an_overrun_workspace_is_an_absent_cell() {
        let overrun = StorageError::BudgetExceeded {
            requested: 28_800,
            available: 16_384,
        };
        assert!(cell_of(Err(DbError::Storage(overrun))).unwrap().is_none());
        let other = DbError::NoSuchIndex { attr: 2 };
        assert_eq!(cell_of(Err(other.clone())).unwrap_err(), other);
    }

    /// 10 000 rows is the smallest scale where a set does not fit: at 2 000
    /// `mem_bytes` clamps both budgets to 64 KiB and every plan exists.
    #[test]
    fn plans_that_do_not_fit_are_absent_and_the_verdict_still_holds() {
        let report = plans_experiment(10_000, 1).expect("verdict holds at 10 000 rows");
        let x = "2 MB / 15%";
        let at = |s: &str| report.points.iter().any(|p| p.x == x && p.strategy == s);
        assert!(at(FRONT_DOOR) && at("partitioned hash"));
        assert!(!at("classic hash") && !at("hash probe"));
        let rendered = report.render();
        let row = rendered.lines().find(|l| l.starts_with(x)).unwrap();
        assert_eq!(row.matches(" -").count(), 2, "{row}");
    }
}
