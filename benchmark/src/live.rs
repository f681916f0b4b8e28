//! `live15`: the online driver. One thread runs the chunked live delete;
//! a second is the benchmark's own closed-loop foreground client — one
//! client, no think time, each operation sent when the previous one
//! returned — walking an operation stream generated from the seed.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bd_btree::Key;
use bd_core::{ShadowDb, TableId, Tuple};
use bd_storage::{BufferPool, DiskStats, IoScope, Pacer, Rid};
use bd_txn::{PropagationMode, TxnDb, TxnResult};

use crate::common::{
    check_consistency, err, finish_rep, flush_metrics, search_probe, timed, verify_against_model,
    FgSample, Rep, SimClock, TableShape, Workload,
};
use crate::gen::{self, FgOp};
use crate::metrics::{Metrics, Notes};
use crate::trace::Tracer;

const ROWS: usize = 50_000;
const SHARE: f64 = 0.15;
/// Keys per exclusive span of the live delete.
const CHUNK: usize = 512;
/// Operations generated for the client; it uses as many as fit beside the
/// delete, which is far fewer.
const OPS: usize = 200_000;
const CLASSES: [&str; 3] = ["read", "scan", "insert"];

pub struct Live15 {
    seed: u64,
    shape: TableShape,
    rows: Vec<Tuple>,
    d: Vec<Key>,
    fnv: u64,
    client: ClientThread,
    keep: bool,
    /// End state of the last untraced repetition.
    reference_db: Option<Arc<TxnDb>>,
}

/// What the client thread brings back.
#[derive(Default)]
struct ClientOut {
    samples: Vec<FgSample>,
    inserted: Vec<(Rid, Tuple)>,
    attempts: u64,
    lock_timeouts: u64,
    failures: Vec<String>,
}

/// What one delete beside one client measured.
struct LiveOut {
    delete_s: f64,
    delete_io: DiskStats,
    deleted: usize,
    chunks: usize,
    pacer_checks: u64,
    /// Whether the two threads were seen running at the same time when
    /// the statement started.
    parallel: bool,
    client: ClientOut,
}

#[derive(Clone, Copy)]
enum Driver {
    /// `TxnDb::bulk_delete_live`: short exclusive spans.
    Live,
    /// `TxnDb::bulk_delete`: one exclusive span, the "before" row.
    Offline,
}

/// The part of the inputs the client works from.
struct ClientInputs {
    ops: Vec<FgOp>,
    d_set: HashSet<Key>,
    n_attrs: usize,
}

/// What the two threads of one statement share.
#[derive(Default)]
struct Rendezvous {
    /// Odd: the delete thread served, the client has to return; even: the
    /// client returned.
    ball: AtomicU64,
    /// The statement starts.
    go: AtomicBool,
    /// The delete ended.
    done: AtomicBool,
}

impl Rendezvous {
    /// The delete thread's side of the meeting before a statement. The
    /// host is slow to move a thread to the idle CPU: a thread that has
    /// just woken often shares the waker's CPU for up to a second, and a
    /// statement that starts then measures two threads taking turns, not
    /// two threads — 12 % off on the wall clock. So the two spin a ball
    /// back and forth until the exchanges come faster than any time slice
    /// allows, which both proves they run at the same time and keeps both
    /// runnable so that the host does move one. Returns whether that was
    /// seen before giving up.
    fn meet(&self) -> bool {
        const ROUND: Duration = Duration::from_millis(5);
        const EXCHANGES_WHEN_PARALLEL: u32 = 500;
        const GIVE_UP: Duration = Duration::from_secs(3);
        let start = Instant::now();
        let mut ball = 0;
        let parallel = 'meeting: loop {
            let round = Instant::now();
            let mut exchanges = 0;
            while round.elapsed() < ROUND {
                ball += 2;
                self.ball.store(ball - 1, Ordering::Release);
                while self.ball.load(Ordering::Acquire) != ball {
                    // A client that never returns the ball has died; its
                    // missing result fails the statement.
                    if start.elapsed() >= 2 * GIVE_UP {
                        break 'meeting false;
                    }
                    std::hint::spin_loop();
                }
                exchanges += 1;
            }
            if exchanges >= EXCHANGES_WHEN_PARALLEL {
                break true;
            }
            if start.elapsed() >= GIVE_UP {
                break false;
            }
        };
        self.go.store(true, Ordering::Release);
        parallel
    }

    /// The client's side: return every ball until the statement starts.
    fn answer(&self) {
        while !self.go.load(Ordering::Acquire) {
            let ball = self.ball.load(Ordering::Acquire);
            if ball % 2 == 1 {
                self.ball.store(ball + 1, Ordering::Release);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One statement's worth of work for the client thread.
struct Job {
    tdb: Arc<TxnDb>,
    tid: TableId,
    pool: Arc<BufferPool>,
    meeting: Arc<Rendezvous>,
    tracer: Tracer,
}

/// The client thread. It lives as long as the workload, so that from the
/// second statement on the host has long since given it a CPU of its own.
struct ClientThread {
    jobs: Option<mpsc::Sender<Job>>,
    results: mpsc::Receiver<(ClientOut, Tracer)>,
    thread: Option<JoinHandle<()>>,
}

impl ClientThread {
    fn spawn(inputs: ClientInputs) -> Self {
        let (jobs, inbox) = mpsc::channel::<Job>();
        let (outbox, results) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for mut job in inbox {
                job.meeting.answer();
                let out = inputs.run(
                    &job.tdb,
                    job.tid,
                    &job.pool,
                    &job.meeting.done,
                    &mut job.tracer,
                );
                if outbox.send((out, job.tracer)).is_err() {
                    return;
                }
            }
        });
        ClientThread {
            jobs: Some(jobs),
            results,
            thread: Some(thread),
        }
    }
}

impl Drop for ClientThread {
    fn drop(&mut self) {
        // Closing the channel ends the thread's loop.
        self.jobs.take();
        if let Some(thread) = self.thread.take() {
            // A panic of the client already failed the statement it served.
            let _ = thread.join();
        }
    }
}

impl ClientInputs {
    /// One foreground operation, retried while it times out on a lock,
    /// checked against what the delete list allows it to see.
    fn op(&self, tdb: &TxnDb, tid: TableId, op: &FgOp, out: &mut ClientOut) -> Result<(), String> {
        fn retry<T>(
            out: &mut ClientOut,
            mut op: impl FnMut() -> TxnResult<T>,
        ) -> Result<T, String> {
            loop {
                out.attempts += 1;
                match op() {
                    Ok(v) => return Ok(v),
                    Err(e) if e.is_lock_timeout() => out.lock_timeouts += 1,
                    Err(e) => return Err(err(e)),
                }
            }
        }
        match *op {
            FgOp::Read(key) => {
                let rows = retry(out, || {
                    let txn = tdb.begin();
                    let r = tdb.read(txn, tid, 0, key);
                    tdb.commit(txn);
                    r
                })?;
                // A survivor reads back exactly once, a victim at most once.
                let ok = if self.d_set.contains(&key) {
                    rows.len() <= 1
                } else {
                    rows.len() == 1
                };
                if !ok {
                    return Err(format!("read of key {key} returned {} rows", rows.len()));
                }
            }
            FgOp::Scan(lo, hi) => {
                let rows = retry(out, || {
                    let txn = tdb.begin();
                    let r = tdb.range_read(txn, tid, 0, lo, hi);
                    tdb.commit(txn);
                    r
                })?;
                let mut seen = HashSet::new();
                for row in &rows {
                    let k = row.attr(0);
                    if !(lo..=hi).contains(&k) || !seen.insert(k) {
                        return Err(format!("scan {lo}..={hi} leaked or repeated key {k}"));
                    }
                }
            }
            FgOp::Insert(i) => {
                let tuple = gen::fresh_row(ROWS, self.n_attrs, i);
                let rid = retry(out, || {
                    let txn = tdb.begin();
                    let r = tdb.insert(txn, tid, &tuple);
                    tdb.commit(txn);
                    r
                })?;
                out.inserted.push((rid, tuple));
            }
        }
        Ok(())
    }

    /// The client loop: operations back to back until the delete is done.
    fn run(
        &self,
        tdb: &TxnDb,
        tid: TableId,
        pool: &BufferPool,
        done: &AtomicBool,
        t: &mut Tracer,
    ) -> ClientOut {
        let mut out = ClientOut::default();
        for op in &self.ops {
            if done.load(Ordering::Acquire) {
                break;
            }
            let class = match op {
                FgOp::Read(_) => 0,
                FgOp::Scan(..) => 1,
                FgOp::Insert(_) => 2,
            };
            let start = Instant::now();
            let result = t.span("txn.live", format!("fg {}", CLASSES[class]), pool, |_| {
                self.op(tdb, tid, op, &mut out)
            });
            out.samples.push(FgSample {
                class: class as u8,
                latency_ns: start.elapsed().as_nanos() as u64,
            });
            if let Err(e) = result {
                out.failures.push(e);
            }
        }
        out
    }
}

impl Live15 {
    pub fn new(seed: u64) -> Self {
        // The same table shape as `wal15`.
        let shape = crate::wal::shape();
        let rows = gen::rows(seed, ROWS, shape.n_attrs);
        let d = gen::delete_set(seed, &rows, SHARE);
        let ops = gen::fg_ops(seed, ROWS, OPS);
        let fnv = gen::fingerprint(&rows, &d, &ops);
        let client = ClientThread::spawn(ClientInputs {
            ops,
            d_set: d.iter().copied().collect(),
            n_attrs: shape.n_attrs,
        });
        Live15 {
            seed,
            shape,
            rows,
            d,
            fnv,
            client,
            keep: false,
            reference_db: None,
        }
    }

    /// Count what the client attempted and check the end state against the
    /// model with the delete and the client's inserts applied.
    fn settle(
        &self,
        rep: &mut Rep,
        mut shadow: ShadowDb,
        client: ClientOut,
        tdb: &TxnDb,
        tid: TableId,
    ) {
        rep.attempted += client.attempts;
        rep.failed_quiet += client.lock_timeouts;
        rep.failures.extend(client.failures);
        shadow.delete_in(tid, 0, &self.d);
        for (rid, tuple) in client.inserted {
            shadow.insert(tid, rid, tuple);
        }
        tdb.with(|db| verify_against_model(rep, &shadow, db, tid));
    }

    /// One delete on this thread, inside its own `IoScope`, beside the
    /// client on its thread; both start together.
    fn run_beside_client(
        &self,
        tdb: &Arc<TxnDb>,
        tid: TableId,
        pool: &Arc<BufferPool>,
        driver: Driver,
        t: &mut Tracer,
    ) -> Result<LiveOut, String> {
        let meeting = Arc::new(Rendezvous::default());
        let pacer = Pacer::new();
        let jobs = self.client.jobs.as_ref().expect("open until dropped");
        jobs.send(Job {
            tdb: tdb.clone(),
            tid,
            pool: pool.clone(),
            meeting: meeting.clone(),
            tracer: t.fork(1_000_000),
        })
        .map_err(|_| "the client thread is gone")?;
        let parallel = meeting.meet();

        let scope = IoScope::new();
        let (result, delete_s) = timed(|| {
            let _io = scope.enter();
            match driver {
                Driver::Live => t.span("txn.live", "bulk_delete_live", pool, |_| {
                    tdb.bulk_delete_live(tid, 0, &self.d, PropagationMode::SideFile, CHUNK, &pacer)
                        .map(|s| (s.deleted, s.chunks))
                }),
                Driver::Offline => t.span("txn.live", "bulk_delete (offline)", pool, |_| {
                    tdb.bulk_delete(tid, 0, &self.d, PropagationMode::SideFile)
                        .map(|deleted| (deleted, 1))
                }),
            }
        });
        meeting.done.store(true, Ordering::Release);
        let (client, client_tracer) = self
            .client
            .results
            .recv()
            .map_err(|_| "the client thread panicked")?;
        t.absorb(client_tracer);
        let (deleted, chunks) = result.map_err(err)?;
        Ok(LiveOut {
            delete_s,
            delete_io: scope.stats(),
            deleted,
            chunks,
            pacer_checks: pacer.checks(),
            parallel,
            client,
        })
    }
}

impl Workload for Live15 {
    fn inputs_fnv(&self) -> u64 {
        self.fnv
    }

    fn describe(&self) -> String {
        format!(
            "{ROWS} rows x 512 B, unique I_A + 2 B-trees + 1 hash index, memory {} KB ({} pool frames), |D| = {}, chunk {CHUNK}; 1 closed-loop client, mix 6:2:2 read/scan/insert",
            self.shape.memory / 1024,
            self.shape.pool_frames(),
            self.d.len()
        )
    }

    fn sim_clock(&self) -> SimClock {
        SimClock::Threaded
    }

    fn pool_frames(&self) -> usize {
        self.shape.pool_frames()
    }

    fn keep_reference(&mut self) {
        self.keep = true;
    }

    fn rep(&mut self, t: &mut Tracer) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let (built, setup_s) = timed(|| self.shape.build(&self.rows));
        let (db, tid) = built?;
        rep.setup_s = setup_s;
        let shadow = ShadowDb::mirror_of(&db, tid).map_err(err)?;
        let pool = db.pool().clone();
        let tdb = TxnDb::new(db);

        pool.clear_cache().map_err(err)?;
        pool.reset_stats();
        rep.begin_statement();
        let (mut out, flush_io, flush_s) = t.span("txn.live", "statement", &pool, |t| {
            let out = self.run_beside_client(&tdb, tid, &pool, Driver::Live, t)?;
            // The statement ends flushed; the flush also carries out what
            // the client's inserts dirtied.
            let scope = IoScope::new();
            let (flushed, flush_s) = timed(|| {
                let _io = scope.enter();
                t.span("storage.buffer", "flush_all", &pool, |_| pool.flush_all())
            });
            flushed.map_err(err)?;
            Ok::<_, String>((out, scope.stats(), flush_s))
        })?;
        rep.end_statement();
        rep.wall_s = out.delete_s + flush_s;
        rep.io = out.delete_io;
        rep.io.merge(&flush_io);
        rep.pool = pool.pool_stats();
        rep.sim_ms = rep.io.sim_ms;
        if out.deleted != self.d.len() {
            rep.failures.push(format!(
                "statement deleted {} of {} rows",
                out.deleted,
                self.d.len()
            ));
        }
        rep.fg = std::mem::take(&mut out.client.samples);
        rep.fg_window_s = out.delete_s;
        rep.layer.extend([
            ("txn.live.chunks", out.chunks as f64),
            ("txn.lock.timeouts", out.client.lock_timeouts as f64),
            ("storage.pacer.checks", out.pacer_checks as f64),
            ("txn.live.ran_parallel", out.parallel as u8 as f64),
        ]);

        let (_, verify_s) = timed(|| self.settle(&mut rep, shadow, out.client, &tdb, tid));
        rep.verify_s = verify_s;
        tdb.with(|db| finish_rep(&mut rep, db, tid))?;
        if self.keep && !t.is_on() {
            self.reference_db = Some(tdb);
        }
        Ok(rep)
    }

    fn layers(&mut self, traced: &Tracer, untraced: &Rep, m: &mut Metrics) -> Result<Rep, String> {
        let mut rep = Rep::default();
        flush_metrics(traced, m);
        let reference = self.reference_db.as_ref().ok_or("no reference kept")?;
        reference.with(|db| search_probe(db, 0, &self.d, self.seed, m))?;

        // The "before" row: the same client against the blocking statement.
        let (db, tid) = self.shape.build(&self.rows)?;
        let shadow = ShadowDb::mirror_of(&db, tid).map_err(err)?;
        let pool = db.pool().clone();
        let tdb = TxnDb::new(db);
        pool.clear_cache().map_err(err)?;
        pool.reset_stats();
        rep.attempted += 1;
        let out = self.run_beside_client(&tdb, tid, &pool, Driver::Offline, &mut Tracer::off())?;
        let flush_scope = IoScope::new();
        {
            let _io = flush_scope.enter();
            pool.flush_all().map_err(err)?;
        }
        let offline_sim_ms = out.delete_io.sim_ms + flush_scope.stats().sim_ms;
        m.set("txn.live.sim_vs_offline", untraced.sim_ms / offline_sim_ms);
        // One closed-loop client is stalled once by the one exclusive span,
        // so the stall is a single sample: compare maxima, not percentiles.
        let stall_ns = out.client.samples.iter().map(|s| s.latency_ns).max();
        m.set(
            "txn.live.offline_fg_max_ms",
            stall_ns.unwrap_or(0) as f64 / 1e6,
        );
        self.settle(&mut rep, shadow, out.client, &tdb, tid);
        tdb.with(|db| rep.check("offline twin is consistent", check_consistency(db, tid)));
        Ok(rep)
    }
}

/// The `p`-th percentile of sorted samples: the smallest sample with at
/// least `p` of them at or below it. 0 when there are none.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The issue's floor under a p99 (so that 20 samples lie beyond it): one
/// that rests on fewer is printed as unresolved.
const RESOLVED_SAMPLES: usize = 2000;
/// A p99 over fewer samples than this is not reported at all.
const MIN_SAMPLES: usize = 100;

/// `txn.live.fg_*` from the foreground samples of every warm untraced
/// repetition pooled together: one repetition's p99 is a single stall, the
/// pool's has several samples beyond it. Every p99 is printed with its
/// sample count (`notes`), marked unresolved below [`RESOLVED_SAMPLES`] and
/// dropped, with a remark, below [`MIN_SAMPLES`]. Returns the remarks.
pub fn pooled_fg_metrics(warm: &[Rep], m: &mut Metrics, notes: &mut Notes) -> Vec<String> {
    let samples: Vec<FgSample> = warm.iter().flat_map(|r| r.fg.iter().copied()).collect();
    if samples.is_empty() {
        return Vec::new();
    }
    let window_s: f64 = warm.iter().map(|r| r.fg_window_s).sum();
    let sorted_of = |class: Option<u8>| -> Vec<u64> {
        let mut v: Vec<u64> = samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.latency_ns)
            .collect();
        v.sort_unstable();
        v
    };
    let all = sorted_of(None);
    let pooled = format!("n {} of {} warm repetitions", all.len(), warm.len());
    m.set("txn.live.fg_samples", all.len() as f64);
    m.set("txn.live.fg_p50_us", percentile(&all, 0.50) as f64 / 1e3);
    m.set("txn.live.fg_max_ms", percentile(&all, 1.0) as f64 / 1e6);
    m.set("txn.live.fg_ops_per_s", all.len() as f64 / window_s);
    notes.insert("txn.live.fg_p50_us", pooled.clone());
    notes.insert("txn.live.fg_ops_per_s", pooled);

    let mut remarks = Vec::new();
    for (class, name) in [
        (None, "txn.live.fg_p99_ms"),
        (Some(0), "txn.live.read_p99_ms"),
        (Some(1), "txn.live.scan_p99_ms"),
        (Some(2), "txn.live.insert_p99_ms"),
    ] {
        let sorted = sorted_of(class);
        let n = sorted.len();
        if n < MIN_SAMPLES {
            remarks.push(format!(
                "{name} dropped: {n} samples, fewer than {MIN_SAMPLES}"
            ));
            continue;
        }
        m.set(name, percentile(&sorted, 0.99) as f64 / 1e6);
        let mark = if n < RESOLVED_SAMPLES {
            format!("  UNRESOLVED: fewer than {RESOLVED_SAMPLES} samples")
        } else {
            String::new()
        };
        notes.insert(name, format!("n {n}{mark}"));
    }
    remarks
}
