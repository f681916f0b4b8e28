//! `wal15`: the durable driver. A logged bulk delete is crashed at its
//! third progress record inside the table pass, the pool loses its frames,
//! and recovery rolls the statement forward.

use std::time::Instant;

use bd_btree::Key;
use bd_core::{Database, ShadowDb, Tuple};
use bd_storage::Pacer;
use bd_wal::{recover, run_bulk_delete, CrashInjector, CrashSite, LogManager, WalError};

use crate::common::{
    check_consistency, close_rep, err, flush_metrics, mem_bytes, replay_metrics, search_probe,
    staged_replay, statement_span_sim_s, timed, verify_against_model, verify_equivalent, Rep,
    SimClock, TableShape, Workload,
};
use crate::gen;
use crate::metrics::Metrics;
use crate::trace::Tracer;

/// Paper table; 15 % of it is more than three of the driver's 2048-victim
/// progress chunks, so the crash site below exists.
const ROWS: usize = 50_000;
const SHARE: f64 = 0.15;
/// Pass 1 is the table pass (pass 0 the probe index); its third progress
/// record is logged with 3 × 2048 victims done.
const CRASH: CrashSite = CrashSite::AtProgress(1, 3);

pub fn shape() -> TableShape {
    TableShape {
        n_attrs: 10,
        record_len: 512,
        memory: mem_bytes(5.0, ROWS),
        n_btrees: 3,
        hash_attr: Some(3),
    }
}

pub struct Wal15 {
    seed: u64,
    shape: TableShape,
    rows: Vec<Tuple>,
    d: Vec<Key>,
    fnv: u64,
    keep: bool,
    reference: Option<Database>,
}

impl Wal15 {
    pub fn new(seed: u64) -> Self {
        let shape = shape();
        let rows = gen::rows(seed, ROWS, shape.n_attrs);
        let d = gen::delete_set(seed, &rows, SHARE);
        let fnv = gen::fingerprint(&rows, &d, &[]);
        Wal15 {
            seed,
            shape,
            rows,
            d,
            fnv,
            keep: false,
            reference: None,
        }
    }
}

impl Workload for Wal15 {
    fn inputs_fnv(&self) -> u64 {
        self.fnv
    }

    fn describe(&self) -> String {
        format!(
            "{ROWS} rows x 512 B, unique I_A + 2 B-trees + 1 hash index, memory {} KB ({} pool frames), |D| = {}, crash at {CRASH:?}",
            self.shape.memory / 1024,
            self.shape.pool_frames(),
            self.d.len()
        )
    }

    fn sim_clock(&self) -> SimClock {
        SimClock::Exact
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
        let (mut db, tid) = built?;
        rep.setup_s = setup_s;
        let mut shadow = ShadowDb::mirror_of(&db, tid).map_err(err)?;
        let pool = db.pool().clone();
        let log = LogManager::new();
        // Counts checkpoints in the traced repetition; never pauses.
        let pacer = Pacer::new();
        let _pace = t.is_on().then(|| pacer.enter());

        pool.clear_cache().map_err(err)?;
        pool.reset_stats();
        rep.begin_statement();
        let start = Instant::now();
        let (attempt_sim_ms, attempt_s, recovered) =
            t.span("wal.driver", "statement", &pool, |t| {
                let crashed = t.span("wal.driver", "run_bulk_delete (crashed)", &pool, |_| {
                    run_bulk_delete(&mut db, tid, 0, &self.d, &log, CrashInjector::at(CRASH))
                });
                match crashed {
                    Err(WalError::Crashed(site)) if site == CRASH => {}
                    Err(e) => return Err(err(e)),
                    Ok(_) => return Err(format!("the statement ran past {CRASH:?}")),
                }
                let attempt_sim_ms = pool.disk_stats().sim_ms;
                let attempt_s = start.elapsed().as_secs_f64();
                t.span("storage.buffer", "crash", &pool, |_| pool.crash());
                let recovered = t
                    .span("wal.recover", "recover", &pool, |_| {
                        recover(&mut db, tid, &log, &[])
                    })
                    .map_err(err)?;
                t.span("storage.buffer", "flush_all", &pool, |_| pool.flush_all())
                    .map_err(err)?;
                Ok((attempt_sim_ms, attempt_s, recovered))
            })?;
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.end_statement();
        rep.io = pool.disk_stats();
        rep.pool = pool.pool_stats();
        rep.sim_ms = rep.io.sim_ms;
        if recovered != self.d.len() {
            rep.failures.push(format!(
                "recovery covered {recovered} of {} rows",
                self.d.len()
            ));
        }
        let recover_sim_ms = rep.sim_ms - attempt_sim_ms;
        rep.layer.extend([
            ("wal.log.records", log.len() as f64),
            ("wal.log.bytes", log.byte_len() as f64),
            (
                "wal.log.bytes_per_row",
                log.byte_len() as f64 / self.d.len() as f64,
            ),
            ("wal.driver.attempt_sim_s", attempt_sim_ms / 1e3),
            ("wal.driver.attempt_wall_ms", attempt_s * 1e3),
            ("wal.recover.sim_s", recover_sim_ms / 1e3),
            ("wal.recover.wall_ms", (rep.wall_s - attempt_s) * 1e3),
            ("wal.recover.redone_rows", recovered as f64),
            ("wal.recover.sim_share", recover_sim_ms / rep.sim_ms),
        ]);
        if t.is_on() {
            rep.layer
                .push(("storage.pacer.checks", pacer.checks() as f64));
        }

        let (_, verify_s) = timed(|| {
            shadow.delete_in(tid, 0, &self.d);
            verify_against_model(&mut rep, &shadow, &db, tid);
        });
        rep.verify_s = verify_s;
        close_rep(&mut rep, db, tid, t.is_on(), self.keep, &mut self.reference)?;
        Ok(rep)
    }

    fn layers(&mut self, traced: &Tracer, _untraced: &Rep, m: &mut Metrics) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let reference = self.reference.as_ref().ok_or("no reference kept")?;
        rep.check(
            "recovered state is consistent",
            check_consistency(reference, 0),
        );
        search_probe(reference, 0, &self.d, self.seed, m)?;

        // The uncrashed logged twin: the audit reference, and what logging
        // costs when nothing goes wrong.
        let (mut db, tid) = self.shape.build(&self.rows)?;
        let pool = db.pool().clone();
        pool.clear_cache().map_err(err)?;
        pool.reset_stats();
        run_bulk_delete(
            &mut db,
            tid,
            0,
            &self.d,
            &LogManager::new(),
            CrashInjector::none(),
        )
        .map_err(err)?;
        pool.flush_all().map_err(err)?;
        let logged_sim_ms = pool.disk_stats().sim_ms;
        verify_equivalent(&mut rep, "recovered vs uncrashed twin", reference, &db, tid);
        drop(db);

        // The unlogged vertical statement on the same inputs, as a staged
        // replay: the layer profile under the driver, hash arm included.
        let (mut db, tid) = self.shape.build(&self.rows)?;
        let mut twin = Tracer::on();
        let stats = staged_replay(&mut db, tid, &self.d, &mut twin)?;
        verify_equivalent(&mut rep, "recovered vs unlogged twin", reference, &db, tid);
        replay_metrics(&twin, &stats, m);
        flush_metrics(traced, m);
        m.set("wal.driver.logged_sim_min", logged_sim_ms / 60_000.0);
        m.set(
            "wal.driver.logging_overhead",
            logged_sim_ms / (statement_span_sim_s(&twin) * 1e3),
        );
        Ok(rep)
    }
}
