//! `window4`: the §1 sliding-window user. Four rounds of {vertical bulk
//! delete of the oldest quarter of A, refill by `Database::insert`, one
//! maintenance cycle}; the whole table turns over once.

use bd_btree::Key;
use bd_core::{
    strategy, Database, Maintainer, MaintenanceConfig, MaintenanceReport, TableId, Tuple,
};
use bd_storage::{IoScope, Pacer};

use crate::common::{
    check_consistency, close_rep, err, flush_metrics, in_use_pages, mem_bytes, search_probe, timed,
    Rep, SimClock, TableShape, Workload,
};
use crate::gen;
use crate::metrics::Metrics;
use crate::trace::{add_pool, pool_since, Tracer};

const ROWS: usize = 32_000;
const ROUNDS: usize = 4;
const WINDOW: usize = ROWS / ROUNDS;

pub struct Window4 {
    seed: u64,
    shape: TableShape,
    rows: Vec<Tuple>,
    /// The table's A values, oldest (smallest) first.
    keys: Vec<Key>,
    /// What the table must hold after the last round, in key order.
    fresh: Vec<Tuple>,
    fnv: u64,
    keep: bool,
    reference: Option<Database>,
}

impl Window4 {
    pub fn new(seed: u64) -> Self {
        let shape = TableShape {
            n_attrs: 10,
            record_len: 512,
            memory: mem_bytes(5.0, ROWS),
            n_btrees: 3,
            hash_attr: None,
        };
        let rows = gen::rows(seed, ROWS, shape.n_attrs);
        let mut keys: Vec<Key> = rows.iter().map(|t| t.attr(0)).collect();
        keys.sort_unstable();
        let fresh = (0..ROWS)
            .map(|i| gen::fresh_row(ROWS, shape.n_attrs, i))
            .collect();
        let fnv = gen::fingerprint(&rows, &keys, &[]);
        Window4 {
            seed,
            shape,
            rows,
            keys,
            fresh,
            fnv,
            keep: false,
            reference: None,
        }
    }

    /// One maintenance cycle. Untraced it is the driver's own
    /// `run_cycle`; traced it is the same cycle driven phase by phase
    /// through the maintainer's granular public functions, one span each.
    fn cycle(
        &self,
        db: &mut Database,
        tid: TableId,
        maintainer: &mut Maintainer,
        t: &mut Tracer,
    ) -> Result<(), String> {
        if !t.is_on() {
            return maintainer.run_cycle(db).map_err(err);
        }
        let pool = db.pool().clone();
        let attrs: Vec<usize> = (0..self.shape.n_btrees).collect();
        loop {
            t.span("core.maintain", "release_heap", &pool, |_| {
                maintainer.release_heap(db, tid)
            })
            .map_err(err)?;
            let mut all_done = true;
            for &attr in &attrs {
                let done = t
                    .span("core.maintain", format!("pack_index {attr}"), &pool, |_| {
                        maintainer.pack_index(db, tid, attr)
                    })
                    .map_err(err)?;
                all_done &= done;
            }
            if all_done {
                break;
            }
        }
        for &attr in &attrs {
            t.span(
                "core.maintain",
                format!("sweep_index {attr}"),
                &pool,
                |_| maintainer.sweep_index(db, tid, attr),
            )
            .map_err(err)?;
        }
        t.span("core.maintain", "recycle", &pool, |_| {
            maintainer.recycle(db)
        })
        .map_err(err)?;
        t.span("core.maintain", "prewarm", &pool, |_| {
            maintainer.prewarm(db)
        })
        .map_err(err)?;
        maintainer.end_cycle();
        Ok(())
    }
}

impl Workload for Window4 {
    fn inputs_fnv(&self) -> u64 {
        self.fnv
    }

    fn describe(&self) -> String {
        format!(
            "{ROWS} rows x 512 B, unique I_A + 2 B-trees, memory {} KB ({} pool frames), {ROUNDS} rounds of {WINDOW} deleted + {WINDOW} inserted + 1 maintenance cycle",
            self.shape.memory / 1024,
            self.shape.pool_frames()
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
        let pool = db.pool().clone();
        let mut maintainer = Maintainer::new(MaintenanceConfig::default());
        let pacer = Pacer::new();
        let _pace = t.is_on().then(|| pacer.enter());

        // `vertical_sort_merge` resets the disk's counters every round, so
        // the statement's clock is taken by a scope, not by a difference.
        let scope = IoScope::new();
        rep.begin_statement();
        let (ran, wall_s) = timed(|| {
            let _io = scope.enter();
            t.span("core.strategy", "statement", &pool, |t| {
                for round in 0..ROUNDS {
                    let window = round * WINDOW..(round + 1) * WINDOW;
                    let d = &self.keys[window.clone()];
                    let out = t
                        .span_measured(
                            "core.strategy",
                            format!("round {round} delete"),
                            &pool,
                            |_| strategy::vertical_sort_merge(&mut db, tid, 0, d, 1),
                            |out| out.as_ref().ok().map(|o| o.report.pool),
                        )
                        .map_err(err)?;
                    if out.report.deleted != WINDOW {
                        return Err(format!(
                            "round {round} deleted {} of {WINDOW} rows",
                            out.report.deleted
                        ));
                    }
                    add_pool(&mut rep.pool, &out.report.pool);
                    drop(out);

                    let pool_before = pool.pool_stats();
                    t.span("core.db", format!("round {round} refill"), &pool, |_| {
                        self.fresh[window]
                            .iter()
                            .try_for_each(|row| db.insert(tid, row).map(|_| ()))
                    })
                    .map_err(err)?;

                    t.span(
                        "core.maintain",
                        format!("round {round} cycle"),
                        &pool,
                        |t| self.cycle(&mut db, tid, &mut maintainer, t),
                    )?;
                    add_pool(&mut rep.pool, &pool_since(pool_before, pool.pool_stats()));
                }
                t.span("storage.buffer", "flush_all", &pool, |_| pool.flush_all())
                    .map_err(err)
            })
        });
        ran?;
        rep.end_statement();
        rep.wall_s = wall_s;
        rep.io = scope.stats();
        rep.sim_ms = rep.io.sim_ms;
        let MaintenanceReport {
            pages_reclaimed,
            heap_pages_released,
            pack_pages_freed,
            ..
        } = *maintainer.report();
        rep.layer.extend([
            ("core.maintain.pages_reclaimed", pages_reclaimed as f64),
            (
                "core.maintain.heap_pages_released",
                heap_pages_released as f64,
            ),
            ("core.maintain.pack_pages_freed", pack_pages_freed as f64),
        ]);
        if t.is_on() {
            rep.layer
                .push(("storage.pacer.checks", pacer.checks() as f64));
        }

        let (_, verify_s) = timed(|| {
            rep.audit("catalog", bd_core::audit_catalog(&db, tid).map_err(err));
            rep.check("check_consistency", check_consistency(&db, tid));
            // Every original row is gone and exactly the fresh rows remain.
            let held = db.table(tid).map_err(err).and_then(|table| {
                let mut rows: Vec<Tuple> = table
                    .heap
                    .dump()
                    .map_err(err)?
                    .into_iter()
                    .map(|(_, bytes)| table.schema.decode(&bytes))
                    .collect();
                rows.sort_by_key(|r| r.attr(0));
                Ok(rows)
            });
            rep.check(
                "model diff",
                held.and_then(|rows| {
                    if rows == self.fresh {
                        Ok(())
                    } else {
                        Err(format!(
                            "the heap holds {} rows, not the fresh ones",
                            rows.len()
                        ))
                    }
                }),
            );
        });
        rep.verify_s = verify_s;
        close_rep(&mut rep, db, tid, t.is_on(), self.keep, &mut self.reference)?;
        Ok(rep)
    }

    fn layers(&mut self, traced: &Tracer, untraced: &Rep, m: &mut Metrics) -> Result<Rep, String> {
        let rep = Rep::default();
        flush_metrics(traced, m);
        let reference = self.reference.as_ref().ok_or("no reference kept")?;
        let fresh_keys: Vec<Key> = self.fresh.iter().map(|t| t.attr(0)).collect();
        search_probe(reference, 0, &fresh_keys, self.seed, m)?;

        let inserted = (ROUNDS * WINDOW) as f64;
        let refills: Vec<_> = traced.select("core.db", "round").collect();
        m.set(
            "core.db.insert_us_per_row",
            refills.iter().map(|s| s.wall_ms()).sum::<f64>() * 1e3 / inserted,
        );
        m.set(
            "core.db.insert_sim_ms_per_row",
            refills.iter().map(|s| s.io.sim_ms).sum::<f64>() / inserted,
        );

        let cycles: Vec<_> = traced.select("core.maintain", "round").collect();
        m.set(
            "core.maintain.sim_s",
            cycles.iter().map(|s| s.sim_s()).sum(),
        );
        m.set(
            "core.maintain.wall_ms",
            cycles.iter().map(|s| s.wall_ms()).sum(),
        );

        // The densest layout we know how to build: a fresh build of
        // exactly the rows the statement leaves.
        let (fresh_db, _) = self.shape.build(&self.fresh)?;
        m.set(
            "core.maintain.space_vs_fresh",
            untraced.in_use_pages as f64 / in_use_pages(fresh_db.pool()) as f64,
        );
        Ok(rep)
    }
}
