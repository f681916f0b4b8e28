//! `lsm10`: the delete-aware LSM engine. The statement is the tombstone
//! write (`TableEngine::bulk_delete`, one membership probe per key) plus
//! `purge_all`, the deferred bill. No heap or B-tree code runs.

use bd_btree::Key;
use bd_core::engine::{audit_engine_equivalence, BtreeEngine, TableEngine};
use bd_core::{measure, Tuple};
use bd_lsm::{LsmConfig, LsmTable};
use bd_storage::{IoScope, Pacer};

use crate::common::{
    err, guard, in_use_pages, mem_bytes, timed, Rep, SimClock, TableShape, Workload,
};
use crate::gen;
use crate::metrics::Metrics;
use crate::trace::{add_pool, Tracer};

const ROWS: usize = 30_000;
const SHARE: f64 = 0.10;
/// Point lookups of the read-path probe, half of them on deleted keys.
const LOOKUPS: usize = 1000;

pub struct Lsm10 {
    seed: u64,
    shape: TableShape,
    rows: Vec<Tuple>,
    d: Vec<Key>,
    /// The rows the statement must leave, in key order.
    survivors: Vec<Tuple>,
    fnv: u64,
    keep: bool,
    reference: Option<LsmTable>,
}

impl Lsm10 {
    pub fn new(seed: u64) -> Self {
        let shape = TableShape {
            n_attrs: 10,
            record_len: 512,
            memory: mem_bytes(5.0, ROWS),
            n_btrees: 1,
            hash_attr: None,
        };
        let rows = gen::rows(seed, ROWS, shape.n_attrs);
        let d = gen::delete_set(seed, &rows, SHARE);
        let fnv = gen::fingerprint(&rows, &d, &[]);
        let deleted: std::collections::HashSet<Key> = d.iter().copied().collect();
        let mut survivors: Vec<Tuple> = rows
            .iter()
            .filter(|t| !deleted.contains(&t.attr(0)))
            .cloned()
            .collect();
        survivors.sort_by_key(|t| t.attr(0));
        Lsm10 {
            seed,
            shape,
            rows,
            d,
            survivors,
            fnv,
            keep: false,
            reference: None,
        }
    }

    /// The engine's knobs as `bd_bench::lsm::lsm_config` sets them: the
    /// memtable takes the quarter of memory the B-tree engine gives its
    /// sort workspace.
    fn config(&self) -> LsmConfig {
        LsmConfig {
            memtable_capacity: (self.shape.memory / 4 / (self.shape.record_len + 9)).max(64),
            ..LsmConfig::default()
        }
    }

    /// 1000 point lookups between delete and purge, half on deleted keys:
    /// the read path a probe-batching change must not tax.
    fn lookup_probe(&self, lsm: &mut LsmTable, rep: &mut Rep) -> Result<(), String> {
        let mut rng = gen::SplitMix64::new(self.seed ^ 0x100C);
        let scope = IoScope::new();
        {
            let _io = scope.enter();
            for i in 0..LOOKUPS {
                let (key, live) = if i % 2 == 0 {
                    (self.d[rng.below(self.d.len() as u64) as usize], false)
                } else {
                    let t = &self.survivors[rng.below(self.survivors.len() as u64) as usize];
                    (t.attr(0), true)
                };
                if lsm.lookup(key).map_err(err)?.is_some() != live {
                    return Err(format!(
                        "lookup of key {key} disagrees with the delete list"
                    ));
                }
            }
        }
        rep.layer
            .push(("lsm.lookup.sim_ms", scope.stats().sim_ms / LOOKUPS as f64));
        Ok(())
    }
}

impl Workload for Lsm10 {
    fn inputs_fnv(&self) -> u64 {
        self.fnv
    }

    fn describe(&self) -> String {
        format!(
            "{ROWS} rows x 512 B bulk-loaded into LsmTable, memory {} KB ({} pool frames, memtable {} entries), |D| = {}",
            self.shape.memory / 1024,
            self.shape.pool_frames(),
            self.config().memtable_capacity,
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
        let (built, setup_s) = timed(|| {
            let mut lsm = LsmTable::new(self.shape.schema(), self.shape.memory, self.config());
            lsm.bulk_load(&self.rows).map(|_| lsm)
        });
        let mut lsm = built.map_err(err)?;
        rep.setup_s = setup_s;
        let pool = lsm.pool().clone();
        let pacer = Pacer::new();
        let _pace = t.is_on().then(|| pacer.enter());

        rep.begin_statement();
        let (delete, delete_s) = timed(|| {
            t.span_measured(
                "lsm.table",
                "bulk_delete",
                &pool,
                |_| lsm.bulk_delete(&self.d),
                |r| r.as_ref().ok().map(|report| report.pool),
            )
        });
        let delete = delete.map_err(err)?;
        let before_purge = lsm.lsm_stats();
        if t.is_on() {
            self.lookup_probe(&mut lsm, &mut rep)?;
        }
        let (purge, purge_s) = timed(|| {
            t.span_measured(
                "lsm.table",
                "purge_all",
                &pool,
                |_| measure(&pool, "lsm purge", || lsm.purge_all()),
                |r| r.as_ref().ok().map(|(_, report)| report.pool),
            )
        });
        let (_, purge) = purge.map_err(err)?;
        rep.end_statement();

        rep.wall_s = delete_s + purge_s;
        rep.io = delete.io;
        rep.io.merge(&purge.io);
        rep.pool = delete.pool;
        add_pool(&mut rep.pool, &purge.pool);
        rep.sim_ms = rep.io.sim_ms;
        if delete.deleted != self.d.len() {
            rep.failures.push(format!(
                "statement deleted {} of {} rows",
                delete.deleted,
                self.d.len()
            ));
        }
        let after = lsm.lsm_stats();
        let keys = self.d.len() as f64;
        rep.layer.extend([
            ("lsm.delete.sim_s", delete.sim_ms() / 1e3),
            ("lsm.delete.wall_ms", delete_s * 1e3),
            ("lsm.purge.sim_s", purge.sim_ms() / 1e3),
            ("lsm.purge.wall_ms", purge_s * 1e3),
            (
                "lsm.probe.pages_read_per_key",
                delete.io.pages_read as f64 / keys,
            ),
            ("lsm.probe.misses_per_key", delete.pool.misses as f64 / keys),
            ("lsm.flushes", after.flushes as f64),
            ("lsm.compactions", after.compactions as f64),
            ("lsm.runs", after.runs as f64),
            ("lsm.pages", after.pages as f64),
            (
                "lsm.tombstones_before_purge",
                before_purge.tombstones as f64,
            ),
        ]);
        if t.is_on() {
            rep.layer
                .push(("storage.pacer.checks", pacer.checks() as f64));
        }

        let (_, verify_s) = timed(|| {
            // The engine's logical contents against the benchmark's own
            // model of them, then its structure and its page catalog.
            let dump = lsm.audit_dump().map_err(err);
            rep.check(
                "model diff",
                dump.and_then(|rows| {
                    if rows == self.survivors {
                        Ok(())
                    } else {
                        Err(format!(
                            "engine holds {} rows, the model {}",
                            rows.len(),
                            self.survivors.len()
                        ))
                    }
                }),
            );
            rep.audit("lsm structure", lsm.audit_structure().map_err(err));
            rep.audit("lsm pages", Ok(lsm.audit_pages()));
            if after.tombstones != 0 {
                rep.failures
                    .push(format!("{} tombstones survive the purge", after.tombstones));
            }
        });
        rep.verify_s = verify_s;
        rep.in_use_pages = in_use_pages(&pool);
        rep.live_rows = self.survivors.len();
        if self.keep && !t.is_on() {
            self.reference = Some(lsm);
        }
        Ok(rep)
    }

    fn layers(&mut self, _traced: &Tracer, untraced: &Rep, m: &mut Metrics) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let reference = self.reference.as_mut().ok_or("no reference kept")?;

        // The B-tree twin: the same rows and delete list through the
        // vertical plan, the differential reference across engines.
        let (db, tid) = self.shape.build(&self.rows)?;
        let mut btree = BtreeEngine::from_db(db, tid, 1);
        let bulk = btree.bulk_delete(&self.d).map_err(err)?;
        rep.audit(
            "lsm vs btree twin",
            audit_engine_equivalence(&mut btree, reference).map_err(err),
        );
        let vs_btree = untraced.sim_ms / bulk.sim_ms();
        m.set("lsm.vs_btree", vs_btree);
        rep.check(
            "shape: the LSM pays more than the B-tree twin",
            guard(vs_btree > 1.0, vs_btree),
        );
        Ok(rep)
    }
}
