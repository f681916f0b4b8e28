#![warn(missing_docs)]

//! Experiment harness: builds the paper's benchmark database at a chosen
//! scale, runs each delete strategy, and prints the tables/figures of §4.
//!
//! Scaling: the paper's table is 1,000,000 × 512 B (512 MB) with 2–10 MB of
//! memory. The default reproduction scale is `rows = 100_000` (1/10) with
//! memory scaled by the same factor, preserving every ratio the experiments
//! depend on (delete fraction, memory/table, records/page). Reported times
//! are *simulated minutes* from the disk cost model — the paper's y-axis —
//! plus raw I/O counts.

pub mod erase;
pub mod experiments;
pub mod lsm;
pub mod maintain;
pub mod plans;
pub mod snapshot;

use bd_btree::BTreeConfig;
use bd_core::{Database, DatabaseConfig, DbResult, IndexDef, RunReport, TableId};
use bd_workload::{TableSpec, Workload};

use bd_btree::Key;

/// Paper scale in rows (used to scale memory budgets proportionally).
pub const PAPER_ROWS: usize = 1_000_000;

/// Scale memory the paper quotes in MB down to the chosen row count.
pub fn mem_bytes(paper_mb: f64, rows: usize) -> usize {
    let scale = rows as f64 / PAPER_ROWS as f64;
    ((paper_mb * 1024.0 * 1024.0 * scale) as usize).max(64 * 1024)
}

/// Configuration of one experiment point.
#[derive(Debug, Clone, Copy)]
pub struct PointConfig {
    /// Table rows.
    pub rows: usize,
    /// Memory budget as the paper quotes it, in MB (scaled by `rows`).
    pub paper_mem_mb: f64,
    /// Number of secondary indices beyond `I_A` (attributes B, C, ...).
    pub n_secondary: usize,
    /// Physically sort the table by A (Experiment 5).
    pub cluster_a: bool,
    /// Override node fanout of every index (Experiment 3's height knob).
    pub fanout: Option<usize>,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads for the independent `⋈̄` arms (1 = serial; the
    /// physical result is identical either way, only the critical-path
    /// clock changes).
    pub workers: usize,
}

impl PointConfig {
    /// The common configuration: 1 unclustered index on A, 5 MB memory.
    pub fn base(rows: usize, workers: usize) -> Self {
        PointConfig {
            rows,
            paper_mem_mb: 5.0,
            n_secondary: 0,
            cluster_a: false,
            fanout: None,
            seed: 42,
            workers,
        }
    }

    fn tree_config(&self) -> BTreeConfig {
        match self.fanout {
            Some(f) => BTreeConfig::with_fanout(f),
            None => BTreeConfig::default(),
        }
    }

    /// Build the database and workload for this point.
    pub fn build(&self) -> DbResult<(Database, Workload)> {
        let mut spec = TableSpec::paper_scaled()
            .with_rows(self.rows)
            .with_seed(self.seed);
        if self.cluster_a {
            spec = spec.clustered_by(0);
        }
        let mut db = Database::new(DatabaseConfig::with_total_memory(mem_bytes(
            self.paper_mem_mb,
            self.rows,
        )));
        let w = spec.build(&mut db)?;
        w.attach_index(
            &mut db,
            IndexDef::secondary(0)
                .unique()
                .with_config(self.tree_config()),
        )?;
        for attr in 1..=self.n_secondary {
            w.attach_index(
                &mut db,
                IndexDef::secondary(attr).with_config(self.tree_config()),
            )?;
        }
        Ok((db, w))
    }
}

/// The strategies the paper's figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// `sorted/trad` — traditional with D sorted first.
    SortedTrad,
    /// `not sorted/trad` — traditional, D in arrival order.
    NotSortedTrad,
    /// `drop & create` with a modern bulk-load rebuild (Fig. 1's
    /// commercial system).
    DropCreate,
    /// `drop & create` with record-at-a-time index rebuild (the paper's
    /// prototype, Fig. 8).
    DropCreateInsertRebuild,
    /// `bulk delete` — the vertical sort/merge plan.
    Bulk,
    /// `bulk delete` fed an already-sorted D (Table 1's `sorted/bulk`).
    BulkPresorted,
}

impl StrategyKind {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyKind::SortedTrad => "sorted/trad",
            StrategyKind::NotSortedTrad => "not sorted/trad",
            StrategyKind::DropCreate => "drop&create",
            StrategyKind::DropCreateInsertRebuild => "drop/create",
            StrategyKind::Bulk => "bulk delete",
            StrategyKind::BulkPresorted => "sorted/bulk",
        }
    }

    /// Run this strategy with the independent `⋈̄` / rebuild arms allowed
    /// `workers` threads. The horizontal strategies have no independent
    /// arms and ignore `workers`.
    pub fn run_workers(
        &self,
        db: &mut Database,
        tid: TableId,
        d_keys: &[Key],
        workers: usize,
    ) -> DbResult<RunReport> {
        use bd_core::{strategy as s, RebuildMode::*};
        let outcome = match self {
            StrategyKind::SortedTrad => s::horizontal(db, tid, 0, d_keys, true)?,
            StrategyKind::NotSortedTrad => s::horizontal(db, tid, 0, d_keys, false)?,
            StrategyKind::DropCreate => s::drop_create(db, tid, 0, d_keys, BulkLoad, workers)?,
            StrategyKind::DropCreateInsertRebuild => {
                s::drop_create(db, tid, 0, d_keys, InsertEach, workers)?
            }
            StrategyKind::Bulk => s::vertical_sort_merge(db, tid, 0, d_keys, workers)?,
            StrategyKind::BulkPresorted => {
                let mut sorted = d_keys.to_vec();
                sorted.sort_unstable();
                s::vertical_sort_merge(db, tid, 0, &sorted, workers)?
            }
        };
        Ok(outcome.report)
    }
}

/// Run one `(point, strategy, fraction)` cell on a freshly built database,
/// verifying consistency afterwards.
pub fn run_point(
    cfg: &PointConfig,
    strategy: StrategyKind,
    delete_fraction: f64,
) -> DbResult<RunReport> {
    run_point_with(cfg, delete_fraction, |db, tid, d| {
        strategy.run_workers(db, tid, d, cfg.workers.max(1))
    })
}

/// [`run_point`] for any statement: build the point, draw its delete set,
/// run `statement` over them, verify consistency afterwards.
pub fn run_point_with(
    cfg: &PointConfig,
    delete_fraction: f64,
    statement: impl FnOnce(&mut Database, TableId, &[Key]) -> DbResult<RunReport>,
) -> DbResult<RunReport> {
    let (mut db, w) = cfg.build()?;
    let d = w.delete_set(delete_fraction, cfg.seed.wrapping_add(1));
    let report = statement(&mut db, w.tid, &d)?;
    db.check_consistency(w.tid)?;
    Ok(report)
}

/// One experiment's measured cells plus what is printed around them. The
/// rendered table is derived from `points`: one row per distinct x, one
/// column per distinct series label, both in first-measured order.
#[derive(Debug, Clone, Default)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `fig7`.
    pub id: &'static str,
    /// Paper caption.
    pub title: String,
    /// X-axis label.
    pub x_label: &'static str,
    /// The verdict the experiment reached beside its table, as printed:
    /// for a figure, each shape claim with its measured ratio and bound,
    /// then `[verdict held]` or `[verdict skipped below N rows]`. Compared
    /// to the character by the gate.
    pub notes: String,
    /// Every measured cell, in the order measured.
    pub points: Vec<snapshot::BenchPoint>,
}

/// Suffix of a series' critical-path column (see [`ExperimentReport::series`]).
const CRIT: &str = " crit";

fn distinct<'a>(names: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut out = Vec::new();
    for n in names {
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

impl ExperimentReport {
    /// The table's rows: distinct x values in first-measured order.
    pub fn xs(&self) -> Vec<&str> {
        distinct(self.points.iter().map(|p| p.x.as_str()))
    }

    /// The table's columns: each series label, followed by `<label> crit`
    /// when any of its cells ran concurrent arms (its critical path — the
    /// simulated time with the arms overlapped — differs from its serial
    /// clock).
    pub fn series(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in distinct(self.points.iter().map(|p| p.strategy.as_str())) {
            out.push(s.to_string());
            let mut cells = self.points.iter().filter(|p| p.strategy == s);
            if cells.any(|p| p.crit_path_minutes != p.sim_minutes) {
                out.push(format!("{s}{CRIT}"));
            }
        }
        out
    }

    /// Simulated minutes at `(x-row, series)`; a `<label> crit` series reads
    /// the critical-path clock.
    pub fn cell(&self, x: &str, series: &str) -> Option<f64> {
        let (strategy, crit) = match series.strip_suffix(CRIT) {
            Some(s) => (s, true),
            None => (series, false),
        };
        let p = self
            .points
            .iter()
            .find(|p| p.x == x && p.strategy == strategy)?;
        Some(if crit {
            p.crit_path_minutes
        } else {
            p.sim_minutes
        })
    }

    /// Render as an aligned text table (the `repro` binary's output). Each
    /// column is at least as wide as its widest label plus one space, so
    /// long labels never run into their neighbours.
    pub fn render(&self) -> String {
        let series = self.series();
        let xs = self.xs();
        let first = xs.iter().chain([&self.x_label]);
        let first = first.map(|l| l.chars().count() + 1).fold(24, usize::max);
        let widths: Vec<usize> = series
            .iter()
            .map(|s| (s.chars().count() + 1).max(20))
            .collect();
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.id, self.title));
        out.push_str(&format!("{:<first$}", self.x_label));
        for (s, w) in series.iter().zip(&widths) {
            out.push_str(&format!("{s:>w$}"));
        }
        out.push('\n');
        out.push_str(&"-".repeat(first + widths.iter().sum::<usize>()));
        out.push('\n');
        for x in xs {
            out.push_str(&format!("{x:<first$}"));
            for (s, &w) in series.iter().zip(&widths) {
                match self.cell(x, s) {
                    Some(v) => out.push_str(&format!("{v:>digits$.2} min", digits = w - 4)),
                    None => out.push_str(&format!("{:>w$}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("note: {}\n", self.notes));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot::BenchPoint;

    /// fig10's series and a long row label: every column keeps a space
    /// before its neighbour, and every line of the table is as wide as its
    /// header.
    #[test]
    fn long_labels_keep_their_columns_apart() {
        let row = "index height 3 (fanout 32)";
        let point = |strategy: &str, sim_minutes| BenchPoint {
            x: row.into(),
            strategy: strategy.into(),
            sim_minutes,
            crit_path_minutes: sim_minutes,
            ..BenchPoint::default()
        };
        let report = ExperimentReport {
            id: "fig10",
            x_label: "deleted tuples",
            points: vec![
                point("sorted/trad/unclust", 1.5),
                point("not sorted/trad/clust", 2.25),
            ],
            ..ExperimentReport::default()
        };
        let text = report.render();
        let lines: Vec<&str> = text.lines().collect();
        let header = lines[1];
        assert!(
            header.ends_with(" sorted/trad/unclust not sorted/trad/clust"),
            "{text}"
        );
        assert!(lines[3].starts_with(&format!("{row} ")), "{text}");
        // Each cell ends where its column's label does.
        let end = |line: &str, s: &str| line.find(s).map(|i| i + s.len());
        for (label, cell) in [("unclust", "1.50 min"), ("clust", "2.25 min")] {
            let label = end(header, &format!("trad/{label}"));
            assert_eq!(label, end(lines[3], cell), "{text}");
        }
        for line in &lines[2..4] {
            assert_eq!(line.chars().count(), header.chars().count(), "{text}");
        }
    }
}
