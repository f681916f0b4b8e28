//! `repro` — regenerate the paper's tables and figures, and gate them.
//!
//! ```text
//! repro [<id>|all]... [--rows N] [--parallel N] [--phases]
//!       [--bench-json PATH] [--check-bench PATH] [--audit] [--faults]
//! ```
//!
//! Every sweep is an experiment id from one registry
//! ([`bd_bench::experiments::REGISTRY`]); ids run in the order given, `all`
//! (the default) stands for the paper's six, and each experiment that
//! reaches a verdict beside its numbers fails — and exits 1 — when the
//! verdict does:
//!
//! * `fig1 fig7 fig8 table1 fig9 fig10` — the paper's figures (§1, §4);
//! * `live` — the same foreground mix (point reads, range scans, inserts on
//!   4 threads) against the blocking offline delete and against the chunked
//!   live driver (`TxnDb::bulk_delete_live`), at two delete fractions; every
//!   cell's end state is diffed against a shadow model, and the per-class
//!   foreground p50/p95/p99 follow the table;
//! * `erase` — the §1 sliding-window warehouse (sales + CASCADE line items)
//!   erases its oldest 1/2/3 months as a plain cascading bulk delete and as
//!   a durable erasure campaign (WAL manifest, physical scrub, log
//!   redaction, proof-of-deletion — which must come back clean), then a
//!   bounded crash/torn-write sample of the campaign fault sweep must
//!   recover and re-prove at every point;
//! * `maintain` — a sliding-window workload (delete the oldest quarter,
//!   refill, repeat) with and without the incremental maintenance daemon:
//!   the daemon's end state must keep its in-use pages within 10% of a
//!   fresh bulk load of the same live rows, and the unmaintained arm's file
//!   must be strictly larger — the space leak the daemon exists to stop;
//! * `lsm` — fig7's delete-fraction sweep replayed through the engine seam:
//!   B-tree vertical bulk delete vs the delete-aware LSM's tombstone write
//!   (deferred cost) and the same plus a forced purge (total cost); every
//!   LSM cell is differentially audited against a B-tree twin
//!   (`audit_engine_equivalence`) and its page catalog checked for leaks;
//! * `plans` — §4's remark that the `⋈̄` methods differ little, measured: the
//!   front door's sort/merge plan beside classic hash, partitioned hash and
//!   hash probe forced by hand and beside itself under the two §2.3
//!   reorganization policies, at 2/10 MB × 1/5/15 % deletes on the 3-index
//!   table; a forced plan whose RID set overruns the workspace is an absent
//!   cell, and the run fails if sort/merge is more than 1.05× behind any
//!   index-method cell.
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
//! field of every cell and every experiment's notes as printed. The
//! simulated clock is deterministic, so nothing is tolerated: it prints one
//! line per divergence (`lsm/5%/lsm tombstone.sim_minutes: 0.332365 →
//! 0.351514`), plus missing and extra cells, and exits 1 if there is any. A
//! snapshot taken with `--parallel` or holding a `live` cell is refused
//! (exit 2): threaded cells do not repeat.
//!
//! `--audit` runs the differential audit harness instead of the
//! experiments: the same build + delete workload is executed horizontally
//! and vertically in two separate databases, and every storage structure
//! (heap record multiset, B-tree entries and invariants, FSM accounting,
//! hash chains) is diffed across the two executions — and then again
//! between a serial and a parallel vertical run, and between the vertical
//! run and the same statement through the WAL driver, through the blocking
//! concurrent driver (`TxnDb::bulk_delete`) and through the chunked live
//! driver (`TxnDb::bulk_delete_live`, 512 keys per chunk, no foreground).
//! Exits non-zero and prints the per-structure diff on divergence. It also
//! prints the vertical run's hash-arm phase row as random I/Os per victim
//! and exits non-zero above 0.2 (the arm is a bucket sweep, not a chain
//! walk per victim), the logged run's simulated clock over the vertical
//! run's, exiting non-zero above 3.0 (the logged delete reads the heap
//! through read-ahead too), the blocking run's clock over the vertical
//! run's, and the live run's, exiting non-zero above 1.5 (its chunks follow
//! the heap and its hash index is swept once).
//!
//! `--faults` runs the fault-injection demo instead of the experiments:
//! a transient disk fault is planted under one fan-out arm of a parallel
//! vertical delete (the statement must ride it out via buffer-pool retries
//! plus the executor's serial degradation, bit-identical to the fault-free
//! run), followed by a crash-at-every-I/O campaign smoke over the WAL
//! driver — serial and parallel — where every crash point must recover to
//! the reference state, and a torn-write campaign smoke where each swept
//! write persists only half a page and media recovery must rebuild the
//! damaged structure back to the reference state. Exits non-zero on any
//! divergence.

use bd_bench::experiments::{Experiment, PAPER_FIGURES, REGISTRY};
use bd_bench::snapshot::{self, Snapshot};
use bd_bench::ExperimentReport;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut rows: usize = 100_000;
    let mut workers: usize = 1;
    let mut show_phases = false;
    let mut run_audit = false;
    let mut run_faults = false;
    let mut bench_json: Option<String> = None;
    let mut check_bench: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--phases" => show_phases = true,
            "--audit" => run_audit = true,
            "--faults" => run_faults = true,
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

    if run_audit {
        audit(rows, workers);
        return;
    }
    if run_faults {
        faults(rows, workers);
        return;
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
        workers,
        ..PointConfig::base(rows)
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

/// Differential strategy-equivalence audit: run the same workload
/// horizontally and vertically (and vertically again with parallel arms,
/// logged, and through the blocking and the live concurrent driver), then
/// diff all physical structures pairwise.
fn audit(rows: usize, workers: usize) {
    use bd_core::prelude::*;
    use bd_core::{audit_equivalence, IndexDef};
    use bd_workload::TableSpec;

    let rows = rows.min(20_000); // the audit is O(n log n) in host time
    let par_workers = if workers > 1 { workers } else { 3 };
    println!(
        "differential audit: horizontal vs vertical vs vertical/parallel({par_workers}) \
         vs logged vs blocking vs live, {rows} rows of 512 B, 15% delete, 3 B-tree indices + 1 hash \
         index"
    );
    // 48 pool frames: none of the four indices fits, so every strategy
    // runs under eviction and the hash-arm figure below can tell a sweep
    // from a chain walk per victim (which paid 1.03 here; the hash index
    // does not see the row width). Rows as wide as the paper's put one or
    // two victims on most heap pages, with gaps between them: the shape in
    // which reading the heap per victim, not per chain, shows.
    let build = |seed: u64| {
        let mut db = Database::new(DatabaseConfig::with_total_memory(256 << 10));
        let spec = TableSpec {
            record_len: 512,
            ..TableSpec::tiny(rows)
        };
        let w = spec.with_seed(seed).build(&mut db).unwrap();
        w.attach_index(&mut db, IndexDef::secondary(0).unique())
            .unwrap();
        w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
        w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
        db.create_hash_index(w.tid, 3).unwrap();
        (db, w)
    };
    let check = |label: &str, report: bd_core::DbResult<bd_core::AuditReport>| match report {
        Ok(report) if report.is_clean() => {
            println!("[{label}] {report}");
        }
        Ok(report) => {
            eprintln!("[{label}] {report}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("[{label}] audit aborted: {e}");
            std::process::exit(1);
        }
    };
    let (mut db_a, w_a) = build(1);
    let (mut db_b, _) = build(1);
    let (mut db_c, _) = build(1);
    let d = w_a.delete_set(0.15, 2);
    strategy::horizontal(&mut db_a, w_a.tid, 0, &d, true).unwrap();
    let vertical = strategy::vertical_sort_merge(&mut db_b, w_a.tid, 0, &d, 1).unwrap();
    strategy::vertical_sort_merge(&mut db_c, w_a.tid, 0, &d, par_workers).unwrap();
    check(
        "horizontal vs vertical",
        audit_equivalence(&db_a, &db_b, w_a.tid),
    );
    check(
        "vertical serial vs parallel",
        audit_equivalence(&db_b, &db_c, w_a.tid),
    );
    // The hash arm is a sweep: it positions the head per chain of pages,
    // not per victim.
    const HASH_ARM_LIMIT: f64 = 0.2;
    for h in &db_b.table(w_a.tid).unwrap().hash_indices {
        let arm = vertical
            .report
            .phases
            .iter()
            .find(|p| p.name.starts_with(&h.def.name))
            .expect("every hash index has a phase row");
        let per_victim = arm.io.total_random() as f64 / d.len() as f64;
        println!(
            "[{}] {per_victim:.4} random I/Os per victim (limit {HASH_ARM_LIMIT})",
            arm.name
        );
        if per_victim > HASH_ARM_LIMIT {
            eprintln!("[{}] the hash arm is paying per victim again", arm.name);
            std::process::exit(1);
        }
    }

    // The fourth arm: the same statement through the WAL driver, uncrashed.
    // It must leave the vertical run's structures, and logging may add the
    // checkpoints' flushes and the progress chunks' restarts, not a slower
    // way of reading the heap. Its clock is read before the audit, which
    // reads the logged database too: 1.20x here, 5.56x with a heap read per
    // victim to materialize the rows and a table pass without read-ahead.
    const LOGGED_LIMIT: f64 = 3.0;
    let (mut db_d, _) = build(1);
    let pool = db_d.pool().clone();
    pool.clear_cache().unwrap();
    pool.reset_stats();
    let log = bd_wal::LogManager::new();
    let crash = bd_wal::CrashInjector::none();
    bd_wal::run_bulk_delete(&mut db_d, w_a.tid, 0, &d, &log, crash).unwrap();
    pool.flush_all().unwrap();
    let ratio = pool.disk_stats().sim_ms / vertical.report.io.sim_ms;
    check(
        "vertical vs logged",
        audit_equivalence(&db_b, &db_d, w_a.tid),
    );
    println!("[logged] {ratio:.3}x the vertical run's simulated clock (limit {LOGGED_LIMIT:.1})");
    if ratio > LOGGED_LIMIT {
        eprintln!("[logged] the logged delete reads the heap the slow way again");
        std::process::exit(1);
    }

    // The fifth arm: the blocking concurrent driver, which runs the same
    // pass core with all of `D` in one exclusive span and no foreground.
    // Its clock too is read before its audit.
    let (db_e, _) = build(1);
    let pool = db_e.pool().clone();
    pool.clear_cache().unwrap();
    pool.reset_stats();
    let txn = bd_txn::TxnDb::new(db_e);
    txn.bulk_delete(w_a.tid, 0, &d, bd_txn::PropagationMode::SideFile)
        .unwrap();
    pool.flush_all().unwrap();
    let ratio = pool.disk_stats().sim_ms / vertical.report.io.sim_ms;
    txn.with(|db_e| {
        check(
            "vertical vs blocking",
            audit_equivalence(&db_b, db_e, w_a.tid),
        )
    });
    println!("[blocking] {ratio:.3}x the vertical run's simulated clock");

    // The sixth arm: the chunked live driver, with no foreground. Its
    // chunks are cut along the heap and its hash index swept once, so it
    // pays about the blocking price: 1.16x at 20 000 rows (6 chunks), 4.12x
    // when each key-ordered chunk re-walked the heap and the hash buckets.
    const LIVE_LIMIT: f64 = 1.5;
    const LIVE_CHUNK: usize = 512;
    let (db_f, _) = build(1);
    let pool = db_f.pool().clone();
    pool.clear_cache().unwrap();
    pool.reset_stats();
    let txn = bd_txn::TxnDb::new(db_f);
    let mode = bd_txn::PropagationMode::SideFile;
    txn.bulk_delete_live(w_a.tid, 0, &d, mode, LIVE_CHUNK, &bd_storage::Pacer::new())
        .unwrap();
    pool.flush_all().unwrap();
    let ratio = pool.disk_stats().sim_ms / vertical.report.io.sim_ms;
    txn.with(|db_f| check("vertical vs live", audit_equivalence(&db_b, db_f, w_a.tid)));
    println!("[live] {ratio:.3}x the vertical run's simulated clock (limit {LIVE_LIMIT:.1})");
    if ratio > LIVE_LIMIT {
        eprintln!("[live] the live delete's chunks re-walk the heap again");
        std::process::exit(1);
    }
}

/// Fault-injection demo: a transient fault ridden out by retry + serial
/// degradation, then a crash-at-every-I/O campaign smoke for both drivers.
fn faults(rows: usize, workers: usize) {
    use bd_core::prelude::*;
    use bd_core::{audit_equivalence, IndexDef};
    use bd_storage::{FaultPlan, FaultSpec};
    use bd_wal::{sweep, BulkDelete, Fault};
    use bd_workload::TableSpec;

    let rows = rows.min(5_000); // the campaign rebuilds the db per crash point
    let par_workers = if workers > 1 { workers } else { 3 };
    let build = |mem: usize| {
        let mut db = Database::new(DatabaseConfig::with_total_memory(mem));
        let w = TableSpec::tiny(rows).build(&mut db).unwrap();
        w.attach_index(&mut db, IndexDef::secondary(0).unique())
            .unwrap();
        w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
        w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
        (db, w)
    };

    // Part 1: a transient fault under one fan-out arm. The buffer pool's
    // bounded retry is outlasted (6 consecutive failures vs. 4 attempts
    // per pin), so the arm dies, siblings are cancelled, and the executor
    // re-runs the group serially — the statement must still commit with a
    // state bit-identical to the fault-free run.
    println!(
        "fault demo: transient fault under a fan-out arm, {rows} rows, \
         33% delete, {par_workers} workers"
    );
    let (mut db_ref, w) = build(4 << 20);
    let (mut db_faulty, _) = build(4 << 20);
    let d = w.delete_set(0.33, 7);
    let clean = strategy::vertical_sort_merge(&mut db_ref, w.tid, 0, &d, par_workers)
        .expect("fault-free run");
    let bad = db_faulty
        .table(w.tid)
        .unwrap()
        .index_on(1)
        .unwrap()
        .tree
        .first_leaf()
        .unwrap();
    db_faulty.pool().with_disk(|disk| {
        disk.set_fault_plan(FaultPlan::new().inject(FaultSpec::read_page(bad).transient(6)))
    });
    match strategy::vertical_sort_merge(&mut db_faulty, w.tid, 0, &d, par_workers) {
        Ok(out) => {
            println!("{}", out.report.summary());
            print!("{}", out.report.phase_breakdown());
            let eq = audit_equivalence(&db_ref, &db_faulty, w.tid).unwrap();
            if !eq.is_clean() || out.deleted != clean.deleted {
                eprintln!("[faults] degraded run diverged from fault-free run: {eq}");
                std::process::exit(1);
            }
            println!(
                "[faults] degraded run bit-identical to fault-free run \
                 ({} retries, {} degradation event(s))\n",
                out.report.io.retries,
                out.report.events.len()
            );
        }
        Err(e) => {
            eprintln!("[faults] transient fault aborted the statement: {e}");
            std::process::exit(1);
        }
    }

    // Part 2: crash-at-every-I/O campaign smoke over the WAL drivers. The
    // tiny pool (24 frames) keeps the working set uncached so the sweep
    // covers real read and write accesses, not just the final flush.
    let campaign_rows = rows.min(1_500);
    let d: Vec<u64> = {
        let mut db = Database::new(DatabaseConfig::with_total_memory(4 << 20));
        let w = TableSpec::tiny(campaign_rows).build(&mut db).unwrap();
        w.a_values.iter().copied().step_by(3).collect()
    };
    // The campaign table carries a B-tree per attribute *and* a hash index
    // on attr 3, so the sweep also covers the hash phase (it runs last).
    let campaign_build = || {
        let mut db = Database::new(DatabaseConfig::with_total_memory(96 << 10));
        let w = TableSpec::tiny(campaign_rows).build(&mut db).unwrap();
        w.attach_index(&mut db, IndexDef::secondary(0).unique())
            .unwrap();
        w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
        w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
        db.create_hash_index(w.tid, 3).unwrap();
        (db, w.tid)
    };

    // ... and Part 3, the torn-write smoke: the write-side mirror of the
    // crash sweep, same harness. Each position tears one write (half the
    // page persists under a checksum recording the intended image); media
    // recovery heals the page, rebuilds the owning structure from the heap,
    // and must converge to the fault-free state. Bounded for smoke: 25
    // crash points, 10 surfaced tears.
    for (fault, limit) in [(Fault::Crash, 25), (Fault::TornWrite, 10)] {
        for (label, workers) in [("serial", 1usize), ("parallel", par_workers)] {
            let started = std::time::Instant::now();
            let mut target = BulkDelete {
                probe_attr: 0,
                d_keys: &d,
                workers,
            };
            let report = match sweep(campaign_build, &mut target, fault, 0, Some(limit)) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("[faults] {label} {fault:?} sweep failed: {e}");
                    std::process::exit(1);
                }
            };
            let wall = started.elapsed().as_secs_f32();
            match fault {
                Fault::Crash => println!(
                    "[faults] {label} campaign smoke: {} crash points recovered \
                     ({} fault-free accesses, {} rows deleted) in {wall:.1}s wall",
                    report.recovered_points, report.fault_free_accesses, report.deleted,
                ),
                Fault::TornWrite => println!(
                    "[faults] {label} torn-write smoke: {} tears media-recovered, \
                     {} silent, {} rows deleted in {wall:.1}s wall",
                    report.recovered_points, report.silent_points, report.deleted,
                ),
            }
        }
    }

    // Part 4: replica ride-out. Per-page mirror copies absorb a torn write
    // without media recovery — the retry policy repairs the torn primary
    // from its intact second copy. Every mirror write is charged honestly
    // as `DiskStats::replica_writes` (the replica lives on its own media).
    {
        use bd_storage::StructureId;
        use bd_wal::{run_bulk_delete, CrashInjector, LogManager};
        let (mut db, w) = build(4 << 20);
        let d = w.delete_set(0.33, 7);
        db.pool().flush_all().unwrap();
        db.pool().with_disk(|disk| disk.enable_replicas());
        // Tear the first write to a live page of the B-tree on attr 1.
        let victim = db
            .pool()
            .with_disk(|disk| disk.catalog().pages_of(StructureId::Index(1))[0]);
        db.pool().with_disk(|disk| {
            disk.set_fault_plan(FaultPlan::new().inject(FaultSpec::write_page(victim).torn()))
        });
        let log = LogManager::new();
        let deleted = run_bulk_delete(&mut db, w.tid, 0, &d, &log, CrashInjector::none())
            .expect("replica ride-out run");
        let fired = db.pool().with_disk(|disk| disk.fault_plan_fired());
        db.pool().crash();
        db.pool().with_disk(|disk| disk.clear_fault_plan());
        db.check_consistency(w.tid).unwrap();
        let scrub = db.pool().with_disk(|disk| disk.corrupt_pages());
        let stats = db.pool().with_disk(|disk| disk.stats());
        if fired == 0 || !scrub.is_empty() {
            eprintln!(
                "[faults] replica ride-out failed: fired={fired}, \
                 {} pages still corrupt",
                scrub.len()
            );
            std::process::exit(1);
        }
        println!(
            "[faults] replica ride-out: {deleted} rows deleted through a torn \
             write, scrub clean after restart; cost model charged {} primary \
             page writes + {} mirror writes (replica_writes), {} repair \
             retries",
            stats.pages_written, stats.replica_writes, stats.retries
        );
    }
}

fn usage() -> ! {
    let ids: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "usage: repro [{}|all]... [--rows N] [--parallel N] [--phases] \
         [--bench-json PATH] [--check-bench PATH] [--audit] [--faults]",
        ids.join("|")
    );
    std::process::exit(2);
}
