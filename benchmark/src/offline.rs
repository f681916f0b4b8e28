//! `heap5` and `arms15`: the offline vertical sort/merge statement,
//! `strategy::vertical_sort_merge`, on two table shapes chosen so that
//! different layers do the work.

use bd_btree::Key;
use bd_core::{strategy, Database, RebuildMode, RunReport, ShadowDb, Tuple};
use bd_storage::Pacer;

use crate::common::{
    close_rep, err, guard, mem_bytes, replay_metrics, search_probe, staged_replay,
    statement_span_sim_s, timed, verify_against_model, verify_equivalent, Rep, ReplayStats,
    SimClock, TableShape, Workload,
};
use crate::gen;
use crate::metrics::Metrics;
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Heap5,
    Arms15,
}

pub struct Offline {
    kind: Kind,
    seed: u64,
    shape: TableShape,
    workers: usize,
    rows: Vec<Tuple>,
    d: Vec<Key>,
    fnv: u64,
    keep: bool,
    /// End state of the last untraced repetition.
    reference: Option<Database>,
    /// What the traced repetition's replay added up.
    replay: Option<ReplayStats>,
    /// The threaded statement's twin on one worker, run once.
    serial: Option<SerialTwin>,
}

/// The statement of a threaded workload on one worker. How the host
/// schedules two arms decides how often they move each other's disk head,
/// so the threaded statement's simulated clocks move by a fifth between
/// spells of the host and can hold no bound; on one worker the clock is
/// exact. The bounded `sim_min` of the threaded workload is therefore this
/// twin's, which no change to the executor or to how arms share the pool
/// can move. The threaded statement gives the wall clock, the end state
/// and its own two clocks, per-layer and unbounded.
struct SerialTwin {
    /// Serial clock in simulated milliseconds.
    sim_ms: f64,
    /// The critical path the phase rows would give if the arms of a
    /// fan-out group overlapped without disturbing each other: serial
    /// phases sum, a group contributes its slowest arm. Computed here, not
    /// measured: no statement ran this way.
    ideal_crit_sim_ms: f64,
    wall_s: f64,
    /// The end state, kept in a traced run for the differential audit.
    db: Option<Database>,
}

/// Serial clock minus what each fan-out group would save by overlapping.
fn ideal_critical_path_ms(report: &RunReport) -> f64 {
    let mut groups: Vec<u32> = report.phases.iter().filter_map(|p| p.group).collect();
    groups.dedup();
    let saved: f64 = groups
        .into_iter()
        .map(|g| {
            let arms = report.phases.iter().filter(|p| p.group == Some(g));
            let (sum, max) = arms.fold((0.0, 0.0f64), |(sum, max), p| {
                (sum + p.io.sim_ms, max.max(p.io.sim_ms))
            });
            sum - max
        })
        .sum();
    report.sim_ms() - saved
}

impl Offline {
    /// Paper table (512 B × 10 attributes), the paper's 5 MB scaled, a
    /// unique B-tree on A, D = a random 5 % of A, one worker.
    pub fn heap5(seed: u64) -> Self {
        const ROWS: usize = 100_000;
        Offline::new(
            Kind::Heap5,
            seed,
            TableShape {
                n_attrs: 10,
                record_len: 512,
                memory: mem_bytes(5.0, ROWS),
                n_btrees: 1,
                hash_attr: None,
            },
            ROWS,
            0.05,
            1,
        )
    }

    /// Narrow table (64 B × 6 attributes), 1.28 bytes of memory per row
    /// (the 256 KB of 200 k rows), unique index on A plus four non-unique
    /// B-trees, D = 15 %, two workers.
    pub fn arms15(seed: u64) -> Self {
        const ROWS: usize = 150_000;
        Offline::new(
            Kind::Arms15,
            seed,
            TableShape {
                n_attrs: 6,
                record_len: 64,
                memory: 192 * 1024,
                n_btrees: 5,
                hash_attr: None,
            },
            ROWS,
            0.15,
            2,
        )
    }

    fn new(
        kind: Kind,
        seed: u64,
        shape: TableShape,
        n_rows: usize,
        share: f64,
        workers: usize,
    ) -> Self {
        let rows = gen::rows(seed, n_rows, shape.n_attrs);
        let d = gen::delete_set(seed, &rows, share);
        let fnv = gen::fingerprint(&rows, &d, &[]);
        Offline {
            kind,
            seed,
            shape,
            workers,
            rows,
            d,
            fnv,
            keep: false,
            reference: None,
            replay: None,
            serial: None,
        }
    }

    /// Run the serial twin: fresh build, the statement on one worker, the
    /// model check.
    fn serial_twin(&self, rep: &mut Rep) -> Result<SerialTwin, String> {
        let (mut db, tid) = self.shape.build(&self.rows)?;
        let mut shadow = ShadowDb::mirror_of(&db, tid).map_err(err)?;
        rep.attempted += 1;
        let (out, wall_s) = timed(|| strategy::vertical_sort_merge(&mut db, tid, 0, &self.d, 1));
        let report = out.map_err(err)?.report;
        shadow.delete_in(tid, 0, &self.d);
        verify_against_model(rep, &shadow, &db, tid);
        Ok(SerialTwin {
            sim_ms: report.sim_ms(),
            ideal_crit_sim_ms: ideal_critical_path_ms(&report),
            wall_s,
            db: self.keep.then_some(db),
        })
    }
}

impl Workload for Offline {
    fn inputs_fnv(&self) -> u64 {
        self.fnv
    }

    fn describe(&self) -> String {
        format!(
            "{} rows x {} B ({} attrs), {} B-trees, memory {} KB ({} pool frames), |D| = {}, workers = {}",
            self.rows.len(),
            self.shape.record_len,
            self.shape.n_attrs,
            self.shape.n_btrees,
            self.shape.memory / 1024,
            self.shape.pool_frames(),
            self.d.len(),
            self.workers
        )
    }

    fn sim_clock(&self) -> SimClock {
        if self.workers == 1 {
            SimClock::Exact
        } else {
            SimClock::SerialTwin
        }
    }

    fn pool_frames(&self) -> usize {
        self.shape.pool_frames()
    }

    fn keep_reference(&mut self) {
        self.keep = true;
    }

    fn rep(&mut self, t: &mut Tracer) -> Result<Rep, String> {
        let mut rep = Rep::default();
        if self.workers > 1 && self.serial.is_none() {
            self.serial = Some(self.serial_twin(&mut rep)?);
        }
        let (built, setup_s) = timed(|| self.shape.build(&self.rows));
        let (mut db, tid) = built?;
        rep.setup_s = setup_s;
        let mut shadow = ShadowDb::mirror_of(&db, tid).map_err(err)?;

        rep.begin_statement();
        if t.is_on() {
            // The pacer only counts: nothing ever pauses it.
            let pacer = Pacer::new();
            let (stats, wall_s) = {
                let _pace = pacer.enter();
                timed(|| staged_replay(&mut db, tid, &self.d, t))
            };
            let stats = stats?;
            rep.wall_s = wall_s;
            rep.sim_ms = statement_span_sim_s(t) * 1e3;
            let statement = t.last().expect("replay recorded its statement span");
            rep.io = statement.io;
            rep.pool = statement
                .pool
                .expect("no step of the replay resets the pool's counters");
            rep.layer
                .push(("storage.pacer.checks", pacer.checks() as f64));
            if stats.deleted != self.d.len() {
                rep.failures.push(format!(
                    "replay deleted {} of {} rows",
                    stats.deleted,
                    self.d.len()
                ));
            }
            self.replay = Some(stats);
        } else {
            let (out, wall_s) =
                timed(|| strategy::vertical_sort_merge(&mut db, tid, 0, &self.d, self.workers));
            let report = out.map_err(err)?.report;
            rep.wall_s = wall_s;
            match &self.serial {
                None => rep.sim_ms = report.sim_ms(),
                Some(serial) => {
                    rep.sim_ms = serial.sim_ms;
                    rep.layer.extend([
                        ("core.executor.threaded_sim_min", report.sim_minutes()),
                        ("core.executor.crit_sim_min", report.critical_path_minutes()),
                        ("core.executor.sim_penalty", report.sim_ms() / serial.sim_ms),
                    ]);
                }
            }
            rep.io = report.io;
            rep.pool = report.pool;
            if report.deleted != self.d.len() {
                rep.failures.push(format!(
                    "statement deleted {} of {} rows",
                    report.deleted,
                    self.d.len()
                ));
            }
            rep.layer
                .push(("core.executor.degrade_events", report.events.len() as f64));
            let arms: Vec<f64> = report
                .phases
                .iter()
                .filter(|p| p.group.is_some())
                .map(|p| p.io.sim_ms)
                .collect();
            let slowest = arms.iter().copied().fold(0.0, f64::max);
            if slowest > 0.0 {
                rep.layer
                    .push(("core.executor.overlap", arms.iter().sum::<f64>() / slowest));
            }
        }

        rep.end_statement();

        let (_, verify_s) = timed(|| {
            shadow.delete_in(tid, 0, &self.d);
            verify_against_model(&mut rep, &shadow, &db, tid);
        });
        rep.verify_s = verify_s;
        close_rep(&mut rep, db, tid, t.is_on(), self.keep, &mut self.reference)?;
        Ok(rep)
    }

    fn layers(&mut self, traced: &Tracer, untraced: &Rep, m: &mut Metrics) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let stats = self.replay.as_ref().ok_or("no traced repetition ran")?;
        let reference = self.reference.as_ref().ok_or("no reference kept")?;
        replay_metrics(traced, stats, m);
        search_probe(reference, 0, &self.d, self.seed, m)?;
        let share = m.get("storage.heap.sim_share").unwrap_or(0.0);

        match self.kind {
            Kind::Heap5 => {
                // The paper's baseline on the same inputs, which doubles as
                // the differential reference.
                let (mut db, tid) = self.shape.build(&self.rows)?;
                let trad = strategy::horizontal(&mut db, tid, 0, &self.d, true)
                    .map_err(err)?
                    .report;
                verify_equivalent(&mut rep, "bulk vs sorted/trad", reference, &db, tid);
                let speedup = trad.sim_ms() / untraced.sim_ms;
                m.set("core.strategy.trad_sim_min", trad.sim_minutes());
                m.set("core.strategy.speedup_vs_trad", speedup);

                rep.check(
                    "shape: heap pass >= 0.9 of the sim clock",
                    guard(share >= 0.9, share),
                );
                rep.check(
                    "shape: speedup vs sorted/trad >= 2",
                    guard(speedup >= 2.0, speedup),
                );
                let sort_sim = m.get("exec.sort.sim_s").unwrap_or(0.0);
                rep.check("shape: sorts do no I/O", guard(sort_sim == 0.0, sort_sim));
            }
            Kind::Arms15 => {
                let serial = self.serial.as_ref().ok_or("no serial twin ran")?;
                let serial_db = serial.db.as_ref().ok_or("no serial end state kept")?;
                verify_equivalent(&mut rep, "2 workers vs serial", reference, serial_db, 0);
                m.set("core.executor.serial_sim_min", serial.sim_ms / 60_000.0);
                m.set(
                    "core.executor.ideal_crit_sim_min",
                    serial.ideal_crit_sim_ms / 60_000.0,
                );
                m.set(
                    "core.executor.wall_speedup",
                    serial.wall_s / untraced.wall_s,
                );

                let (mut db, tid) = self.shape.build(&self.rows)?;
                let dc = strategy::drop_create(&mut db, tid, 0, &self.d, RebuildMode::BulkLoad, 1)
                    .map_err(err)?
                    .report;
                verify_equivalent(&mut rep, "bulk vs drop&create", reference, &db, tid);
                m.set("core.strategy.dropcreate_sim_min", dc.sim_minutes());
                m.set(
                    "core.strategy.speedup_vs_dropcreate",
                    dc.sim_ms() / untraced.sim_ms,
                );

                rep.check(
                    "shape: heap pass <= 0.5 of the sim clock",
                    guard(share <= 0.5, share),
                );
                let runs = m.get("exec.sort.runs").unwrap_or(0.0);
                rep.check("shape: sorts spill", guard(runs > 0.0, runs));
            }
        }
        Ok(rep)
    }
}
