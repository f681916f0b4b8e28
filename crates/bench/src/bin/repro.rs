//! `repro` — regenerate the paper's tables and figures, and gate them.
//!
//! ```text
//! repro [<id>|all]... [--rows N] [--parallel N] [--phases]
//!       [--bench-json PATH] [--check-bench PATH]
//! ```
//!
//! Every sweep is an experiment id from one registry
//! ([`bd_bench::experiments::REGISTRY`]); ids run in the order given, `all`
//! (the default) stands for the paper's six, and each experiment that
//! reaches a verdict beside its numbers fails — and exits 1 — when the
//! verdict does:
//!
//! * `fig1 fig7 fig8 table1 fig9 fig10` — the paper's figures (§1, §4),
//!   each held to its shape claims ([`bd_bench::experiments`]);
//! * `live`, `erase`, `maintain`, `lsm`, `plans` — foreground latency
//!   beside an offline and a live delete, retention-window erasure with its
//!   proof of deletion, steady-state space with and without the
//!   maintenance daemon, the B-tree plan beside a delete-aware LSM, and the
//!   `⋈̄` methods and §2.3 policies side by side. Each module's doc
//!   ([`bd_bench::live`] and its siblings) says what it measures and what
//!   its verdict holds.
//!
//! Default scale is 100,000 rows (1/10 of the paper with all ratios
//! preserved); `--rows 1000000` runs the paper's full scale. Output times
//! are simulated minutes from the disk cost model.
//!
//! `--parallel N` allows the independent `⋈̄` / rebuild arms of the bulk
//! strategies N worker threads. Parallel runs produce the identical
//! physical state (the arms touch disjoint structures); a series whose arms
//! overlapped gains a `crit` column — the simulated time if the arms truly
//! overlap — next to the serial clock.
//!
//! `--phases` additionally prints the per-`⋈̄` I/O breakdown of one bulk
//! delete at the chosen scale (`∥` marks arms of a concurrent group).
//!
//! `--bench-json PATH` additionally dumps every measured cell of the run as
//! a snapshot whose header records how to regenerate it (ids, rows). The
//! committed `BENCH.json` is `repro all erase maintain lsm plans --rows
//! 20000 --bench-json BENCH.json`; its `git diff` is a PR's before/after.
//!
//! `--check-bench PATH` is the gate: it reads that header, re-runs exactly
//! those experiments at those rows with one worker, and compares every
//! field of every cell and every experiment's notes as printed; a verdict
//! that fails on the re-run exits 1 before any comparison. The simulated
//! clock is deterministic, so nothing is tolerated: it prints one
//! line per divergence (`lsm/5%/lsm tombstone.sim_minutes: 0.332365 →
//! 0.351514`), plus missing and extra cells, and exits 1 if there is any. A
//! snapshot taken with `--parallel` or holding a `live` cell is refused
//! (exit 2): threaded cells do not repeat.
//!
//! The drivers' equivalence audits and the fault sweeps are not modes of
//! this binary: they run in the test suite (`tests/strategy_equivalence.rs`,
//! `tests/driver_streams.rs`, `crates/wal/tests/campaign.rs`).

use bd_bench::experiments::{Experiment, PAPER_FIGURES, REGISTRY};
use bd_bench::snapshot::{self, Snapshot};
use bd_bench::ExperimentReport;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut rows: usize = 100_000;
    let mut workers: usize = 1;
    let mut show_phases = false;
    let mut bench_json: Option<String> = None;
    let mut check_bench: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--phases" => show_phases = true,
            "--rows" => {
                i += 1;
                rows = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--parallel" => {
                i += 1;
                workers = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&w| w >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--bench-json" => {
                i += 1;
                bench_json = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--check-bench" => {
                i += 1;
                check_bench = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            name => which.push(name.to_string()),
        }
        i += 1;
    }

    // The gate re-runs what the baseline's header says it holds.
    let baseline = check_bench.map(|path| {
        let read = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Snapshot::read(&text))
            .and_then(|snap| snap.refuse_as_baseline().map(|()| snap));
        match read {
            Ok(snap) => (path, snap),
            Err(e) => {
                eprintln!("`{path}` cannot serve as a baseline: {e}");
                std::process::exit(2);
            }
        }
    });
    if let Some((_, snap)) = &baseline {
        (which, rows, workers) = (snap.ids.clone(), snap.rows, 1);
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let mut selected: Vec<(&str, Experiment)> = Vec::new();
    for id in &which {
        match REGISTRY.iter().find(|(name, _)| name == id) {
            Some(entry) => selected.push(*entry),
            None if id == "all" => selected.extend(&REGISTRY[..PAPER_FIGURES]),
            None => {
                eprintln!("unknown experiment `{id}`");
                usage()
            }
        }
    }

    println!(
        "Efficient Bulk Deletes in Relational Databases (ICDE 2001) — reproduction\n\
         scale: {rows} rows x 512 B; memory budgets scaled by rows/1M; times are\n\
         simulated minutes under the 1999-era disk cost model\n"
    );
    if workers > 1 {
        println!(
            "parallel arms: {workers} workers; `crit` columns give the \
             simulated time with concurrent `⋈̄` arms overlapped\n"
        );
    }
    if show_phases {
        print_phases(rows, workers);
    }
    let mut reports: Vec<ExperimentReport> = Vec::new();
    for (id, run) in selected {
        let started = std::time::Instant::now();
        match run(rows, workers) {
            Ok(report) => {
                println!("{}", report.render());
                eprintln!(
                    "[{} finished in {:.1}s wall]",
                    id,
                    started.elapsed().as_secs_f32()
                );
                reports.push(report);
            }
            Err(e) => {
                eprintln!("{id} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let json = snapshot::to_json(rows, workers, &reports);
    let cells: usize = reports.iter().map(|r| r.points.len()).sum();
    if let Some(path) = bench_json {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("failed to write bench snapshot `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!("[bench snapshot: {cells} cells -> {path}]");
    }
    if let Some((path, snap)) = baseline {
        let fresh = Snapshot::read(&json).expect("the writer's own output parses");
        let lines = snap.diff(&fresh);
        if !lines.is_empty() {
            for line in &lines {
                println!("{line}");
            }
            eprintln!("`{path}`: {} divergence(s) from the re-run", lines.len());
            std::process::exit(1);
        }
        println!("`{path}` ok: {cells} cells re-run and identical");
    }
}

fn print_phases(rows: usize, workers: usize) {
    use bd_bench::{run_point, PointConfig, StrategyKind};
    let cfg = PointConfig {
        n_secondary: 2,
        ..PointConfig::base(rows, workers)
    };
    match run_point(&cfg, StrategyKind::Bulk, 0.15) {
        Ok(report) => {
            println!("per-phase breakdown (bulk delete, 15% of {rows} rows, 3 indices):");
            print!("{}", report.phase_breakdown());
            if workers > 1 {
                println!(
                    "  serial clock {:.2} min; critical path {:.2} min ({} workers)",
                    report.sim_minutes(),
                    report.critical_path_minutes(),
                    workers,
                );
            }
            println!();
        }
        Err(e) => eprintln!("phase breakdown failed: {e}"),
    }
}

fn usage() -> ! {
    let ids: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "usage: repro [{}|all]... [--rows N] [--parallel N] [--phases] \
         [--bench-json PATH] [--check-bench PATH]",
        ids.join("|")
    );
    std::process::exit(2);
}
