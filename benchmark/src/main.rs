//! Two-clock benchmark of the bulk-delete engine.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload heap5 --seed 42 --seconds 15 --trace 0
//! ```
//!
//! One process runs one workload: it generates the inputs from `--seed`,
//! repeats {fresh build, one statement, verification} for `--seconds`,
//! discards the first repetition as warm-up, and prints every metric by
//! name with its unit, then the result as one JSON object on the last
//! line. `--trace 0` measures the end-to-end metrics with no span
//! recorded; `--trace 1` adds one traced repetition, the twins, baselines
//! and probes behind the per-layer metrics, and writes the span file.
//! See `README.md` beside this package for every metric and workload.

mod calib;
mod common;
mod gen;
mod host;
mod json;
mod live;
mod lsm;
mod metrics;
mod offline;
mod probes;
mod stats;
mod trace;
mod wal;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::{Rep, SimClock, Workload};
use json::Json;
use metrics::{Metrics, Notes};
use stats::Summary;
use trace::Tracer;

/// Warm repetitions every median rests on, however short `--seconds` is.
const MIN_WARM_REPS: usize = 5;
/// A run gives up adding repetitions after this many seconds even when it
/// has fewer than the minimum, so that it ends within the driver's limit.
const HARD_LIMIT_S: f64 = 120.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: bd-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--trace-file <path>]",
        metrics::WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        trace_file: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-file" => args.trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn make_workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "heap5" => Box::new(offline::Offline::heap5(seed)),
        "arms15" => Box::new(offline::Offline::arms15(seed)),
        "wal15" => Box::new(wal::Wal15::new(seed)),
        "live15" => Box::new(live::Live15::new(seed)),
        "lsm10" => Box::new(lsm::Lsm10::new(seed)),
        "window4" => Box::new(window::Window4::new(seed)),
        _ => unreachable!("workload names are checked when the arguments are parsed"),
    }
}

/// Everything one run adds up across its repetitions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    verify_s: f64,
}

impl Tally {
    fn add(&mut self, what: &str, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed();
        self.verify_s += rep.verify_s;
        for f in &rep.failures {
            println!("FAILED ({what}): {f}");
        }
    }

    fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        println!("FAILED: {message}");
    }
}

/// Untraced repetitions until `seconds` have passed and at least
/// [`MIN_WARM_REPS`] follow the warm-up. Returns them all, warm-up first.
fn run_reps(wl: &mut dyn Workload, seconds: f64, tally: &mut Tally) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let cpu_before = host::cpu_seconds()?;
        let mut rep = wl.rep(&mut Tracer::off())?;
        let cpu_after = host::cpu_seconds()?;
        rep.cpu_s = (cpu_after.0 - cpu_before.0, cpu_after.1 - cpu_before.1);
        tally.add(&format!("rep {}", reps.len()), &rep);
        reps.push(rep);
        let elapsed = start.elapsed().as_secs_f64();
        if (reps.len() > MIN_WARM_REPS && elapsed >= seconds) || elapsed >= HARD_LIMIT_S {
            return Ok(reps);
        }
    }
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<44} {value:>16.6} {unit:<11} {note}");
}

fn run(args: &Args) -> Result<bool, String> {
    let run_start = Instant::now();
    let mut wl = make_workload(&args.workload, args.seed);
    println!(
        "workload {}  seed {}  inputs_fnv {:016x}  threads available {}",
        args.workload,
        args.seed,
        wl.inputs_fnv(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("{}", wl.describe());

    let mut tally = Tally::default();
    let mut m = Metrics::default();
    if args.trace {
        wl.keep_reference();
    }
    let mut reps = run_reps(wl.as_mut(), args.seconds, &mut tally)?;
    let cold = reps.remove(0);
    let warm = reps;

    let same = |f: fn(&Rep) -> f64| warm.iter().all(|r| f(r) == f(&cold));
    let repeats = same(|r| r.sim_ms) && same(|r| r.space_pages_per_krow());
    if wl.sim_clock() == SimClock::Exact && !repeats {
        let sims: Vec<f64> = warm.iter().map(|r| r.sim_ms).collect();
        tally.fail(format!(
            "simulated metrics differ across repetitions: cold {} ms, warm {sims:?}",
            cold.sim_ms
        ));
    }

    println!(
        "-- end to end (medians of {} warm repetitions; rep 0 discarded)",
        warm.len()
    );
    type Pick = fn(&Rep) -> f64;
    let summaries: [(&'static str, Pick); 6] = [
        ("setup_s", |r| r.setup_s),
        ("sim_min", |r| r.sim_ms / 60_000.0),
        ("wall_rel", |r| r.wall_rel()),
        ("space_pages_per_krow", |r| r.space_pages_per_krow()),
        // Not end-to-end metrics: the two host times wall_rel is the
        // quotient of, as measured.
        ("wall_s", |r| r.wall_s),
        ("reference loop", |r| r.calib_s),
    ];
    for (name, f) in summaries {
        let s = Summary::of(warm.iter().map(f).collect());
        let note = match (name, wl.sim_clock()) {
            ("sim_min", SimClock::Exact) if repeats => {
                format!("exact: the same on all {} repetitions", s.n + 1)
            }
            ("sim_min", SimClock::SerialTwin) => {
                "n 1: the one-worker twin's clock (core.executor.serial_sim_min)".into()
            }
            _ => s.note(),
        };
        match metrics::END_TO_END.iter().find(|(d, _)| d.name == name) {
            Some((def, _)) => {
                m.set(name, s.median);
                print_metric(name, s.median, def.unit, &note);
            }
            None => print_metric(name, s.median, "s", &note),
        }
    }
    let walls: Vec<String> = std::iter::once(&cold)
        .chain(&warm)
        .map(|r| format!("{:.4}", r.wall_s))
        .collect();
    println!(
        "wall_s of every repetition, rep 0 first: {}",
        walls.join(" ")
    );

    let mut notes = layer_medians(&warm, &mut m);
    let remarks = live::pooled_fg_metrics(&warm, &mut m, &mut notes);
    if args.trace {
        traced_run(
            args,
            wl.as_mut(),
            &cold,
            warm,
            &mut m,
            &mut notes,
            &mut tally,
        )?;
    } else {
        let rss = host::peak_rss_mb()?;
        m.set("peak_rss_mb", rss);
        print_metric("peak_rss_mb", rss, "MB", "VmHWM at exit");
        println!("-- per layer, what the untraced repetitions read (no bound)");
        print_layers(&m, &notes);
    }
    for remark in remarks {
        println!("{remark}");
    }

    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_share {failed_share} ({} of {} operations)   run took {:.1} s",
        tally.failed,
        tally.attempted,
        run_start.elapsed().as_secs_f64()
    );
    let correct = tally.failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", m.result(args.trace)?),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

/// Medians over the warm repetitions of every per-layer value each of them
/// read, and beside each its quartiles and sample count.
fn layer_medians(warm: &[Rep], m: &mut Metrics) -> Notes {
    let mut notes = Notes::new();
    for &(name, _) in &warm[0].layer {
        let values = warm
            .iter()
            .flat_map(|r| r.layer.iter().filter(|l| l.0 == name).map(|l| l.1));
        let s = Summary::of(values.collect());
        m.set(name, s.median);
        notes.insert(name, s.note());
    }
    notes
}

fn print_layers(m: &Metrics, notes: &Notes) {
    for def in metrics::PER_LAYER {
        if let Some(v) = m.get(def.name) {
            let note = notes.get(def.name).map_or("", String::as_str);
            print_metric(def.name, v, def.unit, note);
        }
    }
}

/// The part of a `--trace 1` run that follows the untraced repetitions.
fn traced_run(
    args: &Args,
    wl: &mut dyn Workload,
    cold: &Rep,
    mut warm: Vec<Rep>,
    m: &mut Metrics,
    notes: &mut Notes,
    tally: &mut Tally,
) -> Result<(), String> {
    let wall = Summary::of(warm.iter().map(|r| r.wall_s).collect());
    let sim = Summary::of(warm.iter().map(|r| r.sim_ms).collect());

    let mut tracer = Tracer::on();
    let traced = wl.rep(&mut tracer)?;
    tally.add("traced rep", &traced);

    // The last warm repetition stands for the untraced statement, with its
    // two clocks replaced by the warm medians.
    let mut untraced = warm.pop().expect("at least one warm repetition");
    untraced.wall_s = wall.median;
    untraced.sim_ms = sim.median;

    m.set("host.wall_s", wall.median);
    notes.insert("host.wall_s", wall.note());
    m.set("host.cold_over_warm", cold.wall_s / wall.median);
    m.set("host.trace_overhead", traced.wall_s / wall.median);
    m.set(
        "host.trace_sim_gap",
        (traced.sim_ms - untraced.sim_ms).abs() / untraced.sim_ms,
    );
    disk_and_pool_metrics(&untraced, m);
    // What only the traced repetition reads; a value the untraced ones
    // read too stays their median.
    for &(name, value) in &traced.layer {
        if m.get(name).is_none() {
            m.set(name, value);
        }
    }

    let extra = wl.layers(&tracer, &untraced, m)?;
    tally.add("layers", &extra);
    let gap = m.get("host.trace_sim_gap").unwrap_or(0.0);
    if gap > 0.01 {
        tally.fail(format!(
            "traced statement's simulated clock is {gap} away from the untraced one (limit 0.01)"
        ));
    }
    probes::run(wl.pool_frames(), m)?;

    // Host accounting last, so it covers the whole run. The warm-up's own
    // kernel share is kept apart: first-touch page faults of a fresh
    // process land there and nowhere else.
    let sys_share = |(user, sys): (f64, f64)| sys / (user + sys).max(f64::MIN_POSITIVE);
    let (user, sys) = host::cpu_seconds()?;
    m.set("host.cpu_s", user + sys);
    m.set("host.sys_share", sys_share((user, sys)));
    m.set("host.cold_sys_share", sys_share(cold.cpu_s));
    m.set("host.verify_wall_s", tally.verify_s);
    let per_rep: Vec<String> = std::iter::once(cold)
        .chain(&warm)
        .chain([&untraced])
        .map(|r| format!("{:.2}+{:.2}", r.cpu_s.0, r.cpu_s.1))
        .collect();
    println!(
        "CPU user+sys seconds of every untraced repetition, rep 0 first: {}",
        per_rep.join(" ")
    );

    let path = args.trace_file.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            "benchmark/trace-out/{}-{}.json",
            args.workload, args.seed
        ))
    });
    write_spans(&path, &tracer, &args.workload, warm.len() + 2)?;

    println!(
        "-- per layer (traced repetition, twins, probes; {} spans in {})",
        tracer.spans.len(),
        path.display()
    );
    print_layers(m, notes);
    Ok(())
}

/// `storage.disk.*`, `storage.buffer.*` and `storage.readahead.*` counts
/// of one untraced statement.
fn disk_and_pool_metrics(rep: &Rep, m: &mut Metrics) {
    let io = &rep.io;
    m.set("storage.disk.random_reads", io.random_reads as f64);
    m.set("storage.disk.seq_reads", io.sequential_reads as f64);
    m.set("storage.disk.random_writes", io.random_writes as f64);
    m.set("storage.disk.seq_writes", io.sequential_writes as f64);
    m.set("storage.disk.pages_read", io.pages_read as f64);
    m.set("storage.disk.pages_written", io.pages_written as f64);
    m.set("storage.disk.retries", io.retries as f64);
    let per = |pages: u64, accesses: u64| pages as f64 / accesses.max(1) as f64;
    m.set(
        "storage.disk.pages_per_write_access",
        per(io.pages_written, io.random_writes + io.sequential_writes),
    );
    m.set(
        "storage.disk.pages_per_read_access",
        per(io.pages_read, io.random_reads + io.sequential_reads),
    );
    let pool = &rep.pool;
    m.set("storage.buffer.hits", pool.hits as f64);
    m.set("storage.buffer.misses", pool.misses as f64);
    m.set("storage.buffer.prefetched", pool.prefetched as f64);
    m.set("storage.buffer.writebacks", pool.writebacks as f64);
    m.set("storage.buffer.hit_rate", pool.hit_rate());
    m.set(
        "storage.readahead.staged_share",
        per(pool.prefetched, pool.prefetched + pool.misses),
    );
}

/// The span file: a JSON array, one span per line, in start order.
fn write_spans(path: &PathBuf, tracer: &Tracer, workload: &str, rep: usize) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let lines: Vec<String> = tracer
        .to_json(workload, rep)
        .iter()
        .map(Json::render)
        .collect();
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
