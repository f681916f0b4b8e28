//! One runner per table/figure of the paper's evaluation (§4) plus the
//! motivation figure (§1), and the registry of every experiment `repro`
//! can run.
//!
//! Each figure's shape is its verdict (`FIG7` for fig7): claims over the
//! figure's own cells, held wherever the figure runs and printed, with what
//! they measured, as the figure's notes.

use crate::erase::erase_experiment;
use crate::live::live_experiment;
use crate::lsm::lsm_experiment;
use crate::maintain::maintain_experiment;
use crate::snapshot::BenchPoint;
use crate::StrategyKind::{self, *};
use crate::{run_point, ExperimentReport, PointConfig};

/// What every experiment is: `(rows, workers)` in, measured cells out. An
/// experiment that reaches a verdict beside its numbers (a shape, an audit,
/// a proof, a space budget) fails as a whole when the verdict does.
pub type Experiment = fn(usize, usize) -> Outcome;

/// An experiment's cells, or why it failed.
pub type Outcome = Result<ExperimentReport, String>;

fn text<E: ToString>(r: Result<ExperimentReport, E>) -> Outcome {
    r.map_err(|e| e.to_string())
}

/// Every experiment id `repro` accepts. The first [`PAPER_FIGURES`] are the
/// paper's own figures in paper order — what `all` stands for.
pub const REGISTRY: &[(&str, Experiment)] = &[
    ("fig1", fig1),
    ("fig7", fig7),
    ("fig8", fig8),
    ("table1", table1),
    ("fig9", fig9),
    ("fig10", fig10),
    ("live", |r, w| text(live_experiment(r, w))),
    ("erase", |r, w| text(erase_experiment(r, w))),
    ("maintain", |r, w| text(maintain_experiment(r, w))),
    ("lsm", |r, w| text(lsm_experiment(r, w))),
    ("plans", crate::plans::plans_experiment),
];

/// How many leading [`REGISTRY`] entries reproduce a figure of the paper.
pub const PAPER_FIGURES: usize = 6;

/// A delete fraction as an x value: `0.15` is `15%`.
pub(crate) fn pct(f: f64) -> String {
    format!("{:.0}%", f * 100.0)
}

/// A figure's verdict: `min_rows`, the smallest table its shape holds on,
/// and its claims. A claim reads `lhs < rhs` or `lhs > rhs`, optionally
/// followed by ` at row, row, …`. Each side is terms joined by ` ÷ `; a
/// term is a number, `series@row`, or a series at each row the claim
/// lists. A row `#n` is the report's n-th row.
type Verdict = (usize, &'static [&'static str]);

/// `report`'s simulated minutes at `(x, series)`; a missing cell is an `Err`.
fn cell(report: &ExperimentReport, x: &str, series: &str) -> Result<f64, String> {
    let xs = report.xs();
    let nth = |n: &str| xs.get(n.parse::<usize>().ok()?.checked_sub(1)?).copied();
    let row = x.strip_prefix('#').and_then(nth).unwrap_or(x);
    let missing = || format!("{}: no cell at {row} / {series}", report.id);
    report.cell(row, series).ok_or_else(missing)
}

/// One side of a claim at `row`: its terms, left to right, divided.
fn side(report: &ExperimentReport, expr: &str, row: &str) -> Result<f64, String> {
    let mut terms = expr.split(" ÷ ").map(|term| match term.parse::<f64>() {
        Ok(number) => Ok(number),
        Err(_) => {
            let (series, x) = term.split_once('@').unwrap_or((term, row));
            cell(report, x, series)
        }
    });
    let first = terms.next().unwrap_or(Ok(1.0))?;
    terms.try_fold(first, |value, term| Ok(value / term?))
}

/// Hold `report`'s cells to one claim: `Ok((line, held))`, the line being
/// the claim as written, then its left side at each row (beside its right
/// side when that is measured too), then `FAILS` if any row breaks it.
fn claim(report: &ExperimentReport, spec: &str) -> Result<(String, bool), String> {
    let (sides, rows) = spec.split_once(" at ").unwrap_or((spec, ""));
    let below = sides.contains(" < ");
    let (lhs, rhs) = sides
        .split_once(if below { " < " } else { " > " })
        .ok_or_else(|| format!("`{spec}` compares nothing"))?;
    let (mut held, mut measured) = (true, Vec::new());
    for row in rows.split(", ") {
        let (l, r) = (side(report, lhs, row)?, side(report, rhs, row)?);
        held &= if below { l < r } else { l > r };
        let vs = rhs.parse::<f64>().is_err().then(|| format!(" vs {r:.4}"));
        measured.push(format!("{l:.4}{}", vs.unwrap_or_default()));
    }
    let flag = if held { "" } else { " FAILS" };
    Ok((format!("{spec}: {}{flag}", measured.join(", ")), held))
}

/// Hold `report`, measured on a table of `rows` rows, to `verdict`, and
/// write its claims with what they measured into the notes, ending
/// `[verdict held]`, or `[verdict skipped below N rows]` under `min_rows`
/// (not a pass). `Err` names each claim that failed at or above
/// `min_rows`, or a cell a claim needs and the report lacks.
fn judge(rows: usize, verdict: Verdict, mut report: ExperimentReport) -> Outcome {
    let (min_rows, claims) = verdict;
    let (mut notes, mut failed) = (String::new(), Vec::new());
    for spec in claims {
        let (line, held) = claim(&report, spec)?;
        notes += &format!("{line}\n");
        failed.extend((!held).then_some(line));
    }
    let outcome = if rows < min_rows {
        format!("[verdict skipped below {min_rows} rows]")
    } else if failed.is_empty() {
        "[verdict held]".into()
    } else {
        return Err(format!("verdict failed: {}", failed.join("; ")));
    };
    report.notes = notes + &outcome;
    Ok(report)
}

/// One cell to measure: `(x, series label, point, strategy, fraction)`.
type Cell = (String, &'static str, PointConfig, StrategyKind, f64);

/// Each strategy at each `(x, point, fraction)`, filed under its label.
fn cross(points: Vec<(String, PointConfig, f64)>, strategies: &[StrategyKind]) -> Vec<Cell> {
    let cells = points.into_iter().flat_map(|(x, cfg, f)| {
        strategies
            .iter()
            .map(move |&s| (x.clone(), s.label(), cfg, s, f))
    });
    cells.collect()
}

/// Measure every cell, in order, and hold them to the figure's verdict.
fn sweep(
    (id, title, x_label): (&'static str, String, &'static str),
    cells: Vec<Cell>,
    verdict: Verdict,
) -> Outcome {
    let rows = cells.first().map_or(0, |c| c.2.rows);
    let mut points = Vec::new();
    for (x, label, cfg, strategy, fraction) in cells {
        let report = run_point(&cfg, strategy, fraction).map_err(|e| e.to_string())?;
        points.push(BenchPoint::from_report(id, &x, label, &report));
    }
    let report = ExperimentReport {
        id,
        title,
        x_label,
        points,
        ..Default::default()
    };
    judge(rows, verdict, report)
}

/// Drop & create wins from 1 % here; the paper has it winning beyond
/// roughly 5 % (DESIGN.md §3).
const FIG1: Verdict = (
    2_000,
    &[
        "sorted/trad@15% ÷ sorted/trad@1% > 8",
        "drop&create@15% ÷ drop&create@1% < sorted/trad@15% ÷ sorted/trad@1%",
        "sorted/trad ÷ drop&create > 2 at 15%",
    ],
);

/// Figure 1 (introduction): commercial-RDBMS-style bulk deletes — the
/// traditional plan vs. drop & create on a 3-index table, varying the
/// delete fraction (1/5/10/15 %).
pub fn fig1(rows: usize, workers: usize) -> Outcome {
    let mut cfg = PointConfig::base(rows, workers);
    cfg.n_secondary = 2;
    let points = [0.01, 0.05, 0.10, 0.15].map(|f| (pct(f), cfg, f)).to_vec();
    let title = format!("bulk deletes, traditional RDBMS style: {rows} rows, 3 indices");
    let cells = cross(points, &[SortedTrad, DropCreate]);
    sweep(("fig1", title, "deleted tuples"), cells, FIG1)
}

/// The gap grows to an order of magnitude at 20 %; bulk stays nearly flat.
const FIG7: Verdict = (
    2_000,
    &[
        "sorted/trad ÷ bulk delete > 1 at 5%, 10%, 15%, 20%",
        "not sorted/trad ÷ sorted/trad > 1 at 5%, 10%, 15%, 20%",
        "not sorted/trad ÷ bulk delete > 8 at 20%",
        "not sorted/trad@20% ÷ bulk delete@20% > not sorted/trad@5% ÷ bulk delete@5%",
        "bulk delete@20% ÷ bulk delete@5% < 2",
    ],
);

/// Figure 7 (Experiment 1): vary the number of deleted records; 1
/// unclustered index, 5 MB (scaled) memory.
pub fn fig7(rows: usize, workers: usize) -> Outcome {
    let cfg = PointConfig::base(rows, workers);
    let points = [0.05, 0.10, 0.15, 0.20].map(|f| (pct(f), cfg, f)).to_vec();
    let title = format!("vary deletes: {rows} rows, 1 unclustered index, 5 MB memory");
    let cells = cross(points, &[SortedTrad, NotSortedTrad, Bulk]);
    sweep(("fig7", title, "deleted tuples"), cells, FIG7)
}

/// Drop/create (record-at-a-time rebuild, as in the paper's prototype) is
/// claimed from two indices on: with one there is nothing to drop, so its
/// cell is sorted/trad by construction (kept because the paper plots it).
const FIG8: Verdict = (
    10_000,
    &[
        "sorted/trad@3 ÷ sorted/trad@1 > 2",
        "bulk delete@3 ÷ bulk delete@1 < 1.5",
        "drop/create ÷ sorted/trad > 1 at 2, 3",
        "drop/create ÷ not sorted/trad > 1 at 2, 3",
        "sorted/trad ÷ bulk delete > 3 at 1, 2, 3",
    ],
);

/// Figure 8 (Experiment 2): vary the number of indices (1/2/3); 15 %
/// deletes, 5 MB (scaled) memory.
pub fn fig8(rows: usize, workers: usize) -> Outcome {
    let points = (1..=3usize).map(|n| {
        let mut cfg = PointConfig::base(rows, workers);
        cfg.n_secondary = n - 1;
        (format!("{n}"), cfg, 0.15)
    });
    let title = format!("vary indices: {rows} rows, unclustered, 5 MB memory, 15% deletes");
    let strategies = [SortedTrad, NotSortedTrad, DropCreateInsertRebuild, Bulk];
    let cells = cross(points.collect(), &strategies);
    sweep(("fig8", title, "number of indexes"), cells, FIG8)
}

/// `#1` is the short tree's row, `#2` the tall tree's.
const TABLE1: Verdict = (
    2_000,
    &[
        "bulk delete@#2 ÷ bulk delete@#1 < 1.3",
        "sorted/bulk ÷ bulk delete < 1.25 at #1",
        "sorted/bulk ÷ bulk delete > 0.75 at #1",
        "not sorted/trad@#2 ÷ not sorted/trad@#1 > 1",
    ],
);

/// Table 1 (Experiment 3): vary the index height via fanout; 1 unclustered
/// index, 15 % deletes, 5 MB (scaled) memory.
///
/// The paper shrinks keys-per-node (512 → 100) to grow the height from 3 to
/// 4 at 1 M rows; with 4 KiB pages we use the default fanout for the short
/// tree and a reduced fanout for the tall one, and report the measured
/// heights. A small table can reach one height under both fanouts: the
/// labels then name the fanout too, so every cell keeps its identity, and
/// from `min_rows` on the tie fails the verdict.
pub fn table1(rows: usize, workers: usize) -> Outcome {
    let mut points = Vec::new();
    for fanout in [None, Some(32)] {
        let mut cfg = PointConfig::base(rows, workers);
        cfg.fanout = fanout;
        let (db, w) = cfg.build().map_err(|e| e.to_string())?;
        let table = db.table(w.tid).map_err(|e| e.to_string())?;
        let index = table.index_on(0).expect("the point's build indexes A");
        points.push((format!("index height {}", index.tree.height()), cfg, 0.15));
    }
    if points[0].0 == points[1].0 {
        if rows >= TABLE1.0 {
            return Err(format!("table1: both fanouts give {}", points[0].0));
        }
        let height = points[0].0.replace("index ", "");
        points[0].0 = format!("{height} (full fanout)");
        points[1].0 = format!("{height} (fanout 32)");
    }
    let title = format!("vary index height: {rows} rows, 1 unclustered index, 15% deletes");
    let cells = cross(points, &[BulkPresorted, Bulk, SortedTrad, NotSortedTrad]);
    sweep(("table1", title, "configuration"), cells, TABLE1)
}

/// Bulk is not flat since write-behind: 2.5× is DESIGN.md §3's bound.
const FIG9: Verdict = (
    10_000,
    &[
        "bulk delete@2 MB ÷ bulk delete@10 MB < 2.5",
        "not sorted/trad@2 MB ÷ not sorted/trad@10 MB > 1",
        "sorted/trad ÷ bulk delete > 5 at 2 MB, 6 MB, 10 MB",
        "not sorted/trad ÷ sorted/trad > 1 at 2 MB, 6 MB, 10 MB",
    ],
);

/// Figure 9 (Experiment 4): vary available memory (2/6/10 MB, scaled);
/// 1 unclustered index, 15 % deletes.
pub fn fig9(rows: usize, workers: usize) -> Outcome {
    let points = [2.0, 6.0, 10.0].map(|mb| {
        let mut cfg = PointConfig::base(rows, workers);
        cfg.paper_mem_mb = mb;
        (format!("{mb:.0} MB"), cfg, 0.15)
    });
    let title = format!("vary memory: {rows} rows, 1 unclustered index, 15% deletes");
    let cells = cross(points.to_vec(), &[SortedTrad, NotSortedTrad, Bulk]);
    sweep(("fig9", title, "main memory"), cells, FIG9)
}

/// Bulk beats clustered sorted/trad 3–7× here, where the paper has it
/// slightly behind (DESIGN.md §3); the claim is the paper's "almost as well".
const FIG10: Verdict = (
    10_000,
    &[
        "sorted/trad/unclust ÷ sorted/trad/clust > 1.5 at 6%, 10%, 15%, 20%",
        "not sorted/trad/clust ÷ sorted/trad/clust > 2 at 6%, 10%, 15%, 20%",
        "bulk delete ÷ sorted/trad/clust < 1.5 at 6%, 10%, 15%, 20%",
    ],
);

/// Figure 10 (Experiment 5): clustered index on A (table sorted by A);
/// vary delete fraction; plus the unclustered sorted/trad baseline.
pub fn fig10(rows: usize, workers: usize) -> Outcome {
    let unclustered = PointConfig::base(rows, workers);
    let mut clustered = unclustered;
    clustered.cluster_a = true;
    let series = [
        ("sorted/trad/clust", clustered, SortedTrad),
        ("sorted/trad/unclust", unclustered, SortedTrad),
        ("not sorted/trad/clust", clustered, NotSortedTrad),
        ("bulk delete", clustered, Bulk),
    ];
    let cells = [0.06, 0.10, 0.15, 0.20]
        .iter()
        .flat_map(|&f| series.map(|(label, cfg, strategy)| (pct(f), label, cfg, strategy, f)));
    let title = format!("clustered index: {rows} rows, 1 index, 5 MB memory");
    sweep(("fig10", title, "deleted tuples"), cells.collect(), FIG10)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic cells on which every claim holds: per figure `id: rows`,
    /// then `series = simulated minutes per row`.
    const GRIDS: &str = "
fig1: 1%, 5%, 10%, 15%
sorted/trad = 0.27 1.2 2.4 3.6
drop&create = 0.17 0.52 0.94 1.4
fig7: 5%, 10%, 15%, 20%
sorted/trad = 0.45 0.87 1.3 1.7
not sorted/trad = 0.78 1.6 2.3 3.1
bulk delete = 0.078 0.084 0.087 0.087
fig8: 1, 2, 3
sorted/trad = 1.3 2.4 3.6
not sorted/trad = 2.3 3.6 4.8
drop/create = 1.3 4.6 7.9
bulk delete = 0.087 0.09 0.093
table1: index height 2, index height 3
sorted/bulk = 0.087 0.1
bulk delete = 0.087 0.1
not sorted/trad = 2.3 2.9
fig9: 2 MB, 6 MB, 10 MB
sorted/trad = 1.3 1.3 1.3
not sorted/trad = 2.4 2.3 2.2
bulk delete = 0.11 0.076 0.06
fig10: 6%, 10%, 15%, 20%
sorted/trad/clust = 0.32 0.37 0.35 0.3
sorted/trad/unclust = 0.53 0.87 1.3 1.7
not sorted/trad/clust = 0.94 1.6 2.4 3.1
bulk delete = 0.079 0.083 0.086 0.086";

    /// Each grid as a report, beside its figure's verdict.
    fn grids() -> Vec<(ExperimentReport, Verdict)> {
        let mut verdicts = [FIG1, FIG7, FIG8, TABLE1, FIG9, FIG10].into_iter();
        let (mut grids, mut xs) = (Vec::<(ExperimentReport, Verdict)>::new(), Vec::new());
        for line in GRIDS.lines().skip(1) {
            if let Some((id, rows)) = line.split_once(": ") {
                xs = rows.split(", ").collect();
                let report = ExperimentReport {
                    id,
                    ..ExperimentReport::default()
                };
                grids.push((report, verdicts.next().unwrap()));
                continue;
            }
            let (series, minutes) = line.split_once(" = ").unwrap();
            let points = &mut grids.last_mut().unwrap().0.points;
            for (x, m) in xs.iter().zip(minutes.split(' ')) {
                let (x, strategy, sim_minutes) = (x.to_string(), series.into(), m.parse().unwrap());
                points.push(BenchPoint {
                    x,
                    strategy,
                    sim_minutes,
                    ..BenchPoint::default()
                });
            }
        }
        grids
    }

    #[test]
    fn each_broken_claim_fails_by_name_and_a_missing_cell_is_an_err() {
        for (mut report, verdict) in grids() {
            let min_rows = verdict.0;
            let skipped = format!("[verdict skipped below {min_rows} rows]");
            let held = judge(min_rows, verdict, report.clone()).unwrap().notes;
            assert!(held.ends_with("\n[verdict held]"), "{held}");
            // Moving a claim's first cell a hundredfold across its bound
            // fails the claim by name; below `min_rows` it is printed only.
            for claim in verdict.1 {
                let (sides, rows) = claim.split_once(" at ").unwrap_or((claim, ""));
                let term = sides.split(" ÷ ").next().unwrap();
                let first_row = rows.split(", ").next().unwrap();
                let (series, x) = term.split_once('@').unwrap_or((term, first_row));
                let x = x
                    .strip_prefix('#')
                    .map_or(x, |n| report.xs()[n.parse::<usize>().unwrap() - 1]);
                let mut broken = report.clone();
                let cell = broken
                    .points
                    .iter_mut()
                    .find(|p| p.x == x && p.strategy == series);
                cell.unwrap().sim_minutes *= if sides.contains(" < ") { 100.0 } else { 0.01 };
                let err = judge(min_rows, verdict, broken.clone()).unwrap_err();
                assert!(
                    err.contains(&format!("{claim}: ")) && err.contains("FAILS"),
                    "{err}"
                );
                let small = judge(min_rows - 1, verdict, broken).unwrap().notes;
                assert!(small.contains(&format!("{claim}: ")) && small.ends_with(&skipped));
            }
            report.points.pop();
            let err = judge(min_rows, verdict, report).unwrap_err();
            assert!(err.contains("no cell at"), "{err}");
        }
    }

    /// Both fanouts reach height 2 at 500 rows: the labels name the fanout,
    /// so the two configurations keep eight distinct cells.
    #[test]
    fn tied_heights_keep_distinct_cells() {
        let report = table1(500, 1).unwrap();
        let cells: std::collections::HashSet<_> =
            report.points.iter().map(|p| (&p.x, &p.strategy)).collect();
        assert_eq!(cells.len(), 8, "{:?}", report.xs());
    }
}
