//! What the six workloads share: the repetition record, table building,
//! verification helpers and the staged replay of the Fig. 3 plan.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bd_btree::{bulk_delete_by_keys, bulk_delete_sorted, Key, ReorgPolicy};
use bd_core::{
    audit_catalog, audit_equivalence, plan_sort_merge, AuditReport, Database, DatabaseConfig,
    IndexDef, IndexMethod, Schema, ShadowDb, TableId, TableMethod, Tuple,
};
use bd_exec::{sort_all, ByRid, SortStats};
use bd_storage::{BufferPool, DiskStats, PoolStats, Rid};

use crate::metrics::Metrics;
use crate::trace::Tracer;

/// Rows of the paper's table (§4.1); memory budgets scale from it.
const PAPER_ROWS: usize = 1_000_000;

/// The paper's memory figure (MB at 1,000,000 rows) scaled to `rows`, as
/// `bd_bench::mem_bytes` scales it.
pub fn mem_bytes(paper_mb: f64, rows: usize) -> usize {
    let scale = rows as f64 / PAPER_ROWS as f64;
    ((paper_mb * 1024.0 * 1024.0 * scale) as usize).max(64 * 1024)
}

/// One foreground operation as the `live15` client saw it.
#[derive(Clone, Copy)]
pub struct FgSample {
    /// 0 point read, 1 range scan, 2 insert.
    pub class: u8,
    pub latency_ns: u64,
}

/// What one repetition (fresh build + one statement + verification)
/// measured.
#[derive(Default)]
pub struct Rep {
    /// Host seconds of the fresh build.
    pub setup_s: f64,
    /// Host seconds of the statement.
    pub wall_s: f64,
    /// Simulated milliseconds of the statement, serial clock.
    pub sim_ms: f64,
    /// Disk counters of the statement.
    pub io: DiskStats,
    /// Pool counters of the statement.
    pub pool: PoolStats,
    /// Catalog pages in use once the statement ended.
    pub in_use_pages: usize,
    /// Live rows once the statement ended.
    pub live_rows: usize,
    /// Host seconds of the verification.
    pub verify_s: f64,
    /// Operations attempted (statements, audits, foreground attempts).
    pub attempted: u64,
    /// Operations that failed, with what went wrong.
    pub failures: Vec<String>,
    /// Extra failed attempts that carry no message (lock-timeout retries).
    pub failed_quiet: u64,
    /// Per-layer values the repetition read from public report structs.
    pub layer: Vec<(&'static str, f64)>,
    /// `(user, system)` CPU seconds of the whole repetition, set by the
    /// harness.
    pub cpu_s: (f64, f64),
    /// Host seconds of the reference loop, mean of the pass just before
    /// the statement and the pass just after it.
    pub calib_s: f64,
    /// Foreground samples and the host seconds they were taken in.
    pub fg: Vec<FgSample>,
    pub fg_window_s: f64,
}

impl Rep {
    /// Open the statement: count it and time the reference loop.
    pub fn begin_statement(&mut self) {
        self.attempted += 1;
        self.calib_s = crate::calib::pass();
    }

    /// Close the statement: the reference loop again.
    pub fn end_statement(&mut self) {
        self.calib_s = (self.calib_s + crate::calib::pass()) / 2.0;
    }

    /// Host time of the statement in passes of the reference loop.
    pub fn wall_rel(&self) -> f64 {
        self.wall_s / self.calib_s
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64 + self.failed_quiet
    }

    /// Count one audit: a clean report passes, a dirty one fails with its
    /// findings.
    pub fn audit(&mut self, what: &str, report: Result<AuditReport, String>) {
        self.attempted += 1;
        match report {
            Ok(r) if r.is_clean() => {}
            Ok(r) => self.failures.push(format!("{what}: {}", r.render())),
            Err(e) => self.failures.push(format!("{what}: {e}")),
        }
    }

    /// Count one check that passes or fails with a message.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    pub fn space_pages_per_krow(&self) -> f64 {
        self.in_use_pages as f64 / (self.live_rows as f64 / 1000.0)
    }
}

/// Where a workload's `sim_min` comes from, which decides how it is checked
/// and printed.
#[derive(Clone, Copy, PartialEq)]
pub enum SimClock {
    /// The statement runs on one thread: its simulated clock and its space
    /// must read the same on every repetition, the warm-up included.
    Exact,
    /// The statement is threaded and its clock moves with the host's
    /// scheduling: the median of the warm repetitions.
    Threaded,
    /// The statement is threaded; `sim_min` is not its clock but the serial
    /// clock of its one-worker twin, run once per process.
    SerialTwin,
}

/// One of the six workloads: its generated inputs plus how to run them.
pub trait Workload {
    /// Fingerprint of the generated inputs.
    fn inputs_fnv(&self) -> u64;

    /// One line describing the frozen sizes.
    fn describe(&self) -> String;

    fn sim_clock(&self) -> SimClock;

    /// One repetition. With the tracer on, the statement records spans
    /// (and, where the untraced statement is a single public call, runs as
    /// a staged replay of it), and the end state is also compared with the
    /// database [`Workload::keep_reference`] asked to be kept.
    fn rep(&mut self, tracer: &mut Tracer) -> Result<Rep, String>;

    /// Keep the end state of the next untraced repetitions as the
    /// reference the traced one is audited against.
    fn keep_reference(&mut self);

    /// Per-layer metrics that need more than one repetition gives: twins
    /// and baselines on the same inputs, shape guards, and values read
    /// from the traced repetition's spans. `untraced` is the last warm
    /// untraced repetition with its two clocks replaced by the warm
    /// medians; `m` already holds the warm medians of every value the
    /// repetitions put in [`Rep::layer`]. Guard and audit failures go into
    /// the returned record.
    fn layers(&mut self, traced: &Tracer, untraced: &Rep, m: &mut Metrics) -> Result<Rep, String>;

    /// Frames of the workload's buffer pool (the probes size themselves
    /// to it).
    fn pool_frames(&self) -> usize;
}

pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// A shape guard: passes when `ok`, else fails naming what was measured.
pub fn guard(ok: bool, value: f64) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("measured {value}"))
    }
}

/// Time `body` in host seconds.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = body();
    (value, t0.elapsed().as_secs_f64())
}

/// Shape of a workload's table and indices.
#[derive(Clone, Copy)]
pub struct TableShape {
    pub n_attrs: usize,
    pub record_len: usize,
    /// Total memory in bytes (3/4 pool, 1/4 sort workspace).
    pub memory: usize,
    /// B-tree indices on attributes `0..n_btrees`; the one on A is unique.
    pub n_btrees: usize,
    /// Hash index on this attribute, if any.
    pub hash_attr: Option<usize>,
}

impl TableShape {
    pub fn schema(&self) -> Schema {
        Schema::new(self.n_attrs, self.record_len)
    }

    pub fn pool_frames(&self) -> usize {
        self.memory / 4 * 3 / bd_storage::PAGE_SIZE
    }

    /// The fresh build: heap by insert, then each index bottom-up from a
    /// scan, as the paper's set-up does.
    pub fn build(&self, rows: &[Tuple]) -> Result<(Database, TableId), String> {
        let mut db = Database::new(DatabaseConfig::with_total_memory(self.memory));
        let tid = db.create_table("R", self.schema());
        for row in rows {
            db.insert(tid, row).map_err(err)?;
        }
        db.create_index(tid, IndexDef::secondary(0).unique())
            .map_err(err)?;
        for attr in 1..self.n_btrees {
            db.create_index(tid, IndexDef::secondary(attr))
                .map_err(err)?;
        }
        if let Some(attr) = self.hash_attr {
            db.create_hash_index(tid, attr).map_err(err)?;
        }
        db.pool().flush_all().map_err(err)?;
        Ok((db, tid))
    }
}

/// Catalog pages that have an owner.
pub fn in_use_pages(pool: &BufferPool) -> usize {
    let catalog = pool.catalog();
    catalog.len() - catalog.n_free()
}

/// `check_consistency` asserts; turn a failed assertion into a message.
pub fn check_consistency(db: &Database, tid: TableId) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| db.check_consistency(tid))) {
        Ok(r) => r.map_err(err),
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "check_consistency panicked".into())),
    }
}

/// The model check every B-tree workload ends a repetition with: the
/// engine must hold exactly what the model holds, structure by structure,
/// and its page catalog must agree with what the structures reach.
pub fn verify_against_model(rep: &mut Rep, shadow: &ShadowDb, db: &Database, tid: TableId) {
    rep.audit("model diff", shadow.diff(db, tid).map_err(err));
    rep.audit("catalog", audit_catalog(db, tid).map_err(err));
}

/// Differential audit of two end states of the same inputs.
pub fn verify_equivalent(rep: &mut Rep, what: &str, a: &Database, b: &Database, tid: TableId) {
    rep.audit(what, audit_equivalence(a, b, tid).map_err(err));
}

/// Fill in the fields every B-tree repetition reads off the database.
pub fn finish_rep(rep: &mut Rep, db: &Database, tid: TableId) -> Result<(), String> {
    rep.in_use_pages = in_use_pages(db.pool());
    rep.live_rows = db.table(tid).map_err(err)?.heap.len();
    Ok(())
}

/// The tail every B-tree repetition shares: a traced repetition's end state
/// is audited against the kept reference, the database's size is read, and
/// an untraced repetition becomes the reference when one is to be kept.
pub fn close_rep(
    rep: &mut Rep,
    db: Database,
    tid: TableId,
    traced: bool,
    keep: bool,
    reference: &mut Option<Database>,
) -> Result<(), String> {
    if let (true, Some(reference)) = (traced, reference.as_ref()) {
        let (_, verify_s) =
            timed(|| verify_equivalent(rep, "traced vs untraced", reference, &db, tid));
        rep.verify_s += verify_s;
    }
    finish_rep(rep, &db, tid)?;
    if keep && !traced {
        *reference = Some(db);
    }
    Ok(())
}

/// What the staged replay adds up across its sorts.
#[derive(Default)]
pub struct ReplayStats {
    pub sort: SortStats,
    pub deleted: usize,
}

fn add_sort(total: &mut SortStats, s: SortStats) {
    total.items += s.items;
    total.runs += s.runs;
    total.merge_passes += s.merge_passes;
}

/// The vertical sort/merge statement of Fig. 3 driven step by step from
/// outside, one span per step, serially:
/// `sort(D)` → `D ⋈̄ I_A` → RID sort → `⋈̄ R` → per index projection sort +
/// `⋈̄ I_x` → per hash index → `flush_all`.
///
/// It issues the calls `strategy::vertical_sort_merge(.., workers = 1)`
/// issues, in its order, inside the cold-cache bracket `bd_core::measure`
/// puts around them, so on the same inputs the spans must add up to that
/// statement's simulated clock (`host.trace_sim_gap`).
pub fn staged_replay(
    db: &mut Database,
    tid: TableId,
    d: &[Key],
    t: &mut Tracer,
) -> Result<ReplayStats, String> {
    let policy = ReorgPolicy::FreeAtEmpty;
    let pool = db.pool().clone();
    let plan = t.span("core.planner", "plan_sort_merge", &pool, |_| {
        plan_sort_merge(db.table(tid)?, 0)
    });
    let plan = plan.map_err(err)?;
    if plan.table != (TableMethod::Merge { presort: true }) {
        return Err("staged replay expects an unclustered sort/merge plan".into());
    }
    let (parts, ws, _) = db.parts(tid).map_err(err)?;
    let ws_bytes = ws.capacity().max(4096);
    let schema = parts.schema;
    let mut stats = ReplayStats::default();

    pool.clear_cache().map_err(err)?;
    pool.reset_stats();
    t.span("core.strategy", "vertical (staged replay)", &pool, |t| {
        let (keys, s) = t
            .span("exec.sort", "sort(D)", &pool, |_| {
                sort_all(pool.clone(), d.iter().copied(), ws_bytes)
            })
            .map_err(err)?;
        add_sort(&mut stats.sort, s);

        let probe = parts
            .indices
            .iter_mut()
            .find(|i| i.def.attr == 0)
            .ok_or("no index on A")?;
        let deleted_a = t
            .span("btree.bulk", "bulk_delete_by_keys I_A", &pool, |_| {
                bulk_delete_by_keys(&mut probe.tree, &keys, policy)
            })
            .map_err(err)?;

        let (by_rid, s) = t
            .span("exec.sort", "sort(RID)", &pool, |_| {
                sort_all(
                    pool.clone(),
                    deleted_a.iter().map(|&(k, r)| ByRid(r, k)),
                    ws_bytes,
                )
            })
            .map_err(err)?;
        add_sort(&mut stats.sort, s);
        let rids: Vec<Rid> = by_rid.into_iter().map(|b| b.0).collect();
        let rows = t
            .span("storage.heap", "bulk_delete_sorted", &pool, |_| {
                parts.heap.bulk_delete_sorted(&rids)
            })
            .map_err(err)?;
        stats.deleted = rows.len();

        for step in &plan.index_steps {
            if step.method != (IndexMethod::SortMerge { presort: true }) {
                return Err("staged replay expects unclustered sort/merge arms".into());
            }
            let attr = step.attr;
            let index = parts
                .indices
                .iter_mut()
                .find(|i| i.def.attr == attr)
                .ok_or("planned index is gone")?;
            let name = index.def.name.clone();
            let (pairs, s) = t
                .span("exec.sort", format!("sort(proj {name})"), &pool, |_| {
                    let proj = rows
                        .iter()
                        .map(|(rid, bytes)| (schema.attr_of(bytes, attr), *rid));
                    sort_all(pool.clone(), proj, ws_bytes)
                })
                .map_err(err)?;
            add_sort(&mut stats.sort, s);
            t.span(
                "btree.bulk",
                format!("bulk_delete_sorted {name}"),
                &pool,
                |_| bulk_delete_sorted(&mut index.tree, &pairs, policy),
            )
            .map_err(err)?;
        }
        for h in parts.hash_indices.iter_mut() {
            let attr = h.def.attr;
            let entries: Vec<(Key, Rid)> = rows
                .iter()
                .map(|(rid, bytes)| (schema.attr_of(bytes, attr), *rid))
                .collect();
            t.span(
                "hashidx",
                format!("bulk_delete {}", h.def.name),
                &pool,
                |_| h.index.bulk_delete(&entries),
            )
            .map_err(err)?;
        }
        t.span("storage.buffer", "flush_all", &pool, |_| pool.flush_all())
            .map_err(err)
    })?;
    Ok(stats)
}

/// Per-layer metrics every staged replay yields, read off its spans.
pub fn replay_metrics(t: &Tracer, stats: &ReplayStats, m: &mut Metrics) {
    let total_sim_s = statement_span_sim_s(t);
    let victims = stats.deleted.max(1) as f64;

    let sum = |layer: &str, prefix: &str, f: &dyn Fn(&crate::trace::Span) -> f64| -> f64 {
        t.select(layer, prefix).map(f).sum()
    };
    m.set(
        "core.planner.plan_us",
        sum("core.planner", "", &|s| s.wall_ms() * 1e3),
    );

    m.set("exec.sort.sim_s", sum("exec.sort", "", &|s| s.sim_s()));
    m.set("exec.sort.wall_ms", sum("exec.sort", "", &|s| s.wall_ms()));
    m.set("exec.sort.items", stats.sort.items as f64);
    m.set("exec.sort.runs", stats.sort.runs as f64);
    m.set("exec.sort.merge_passes", stats.sort.merge_passes as f64);

    let heap_sim = sum("storage.heap", "", &|s| s.sim_s());
    m.set("storage.heap.sim_s", heap_sim);
    m.set(
        "storage.heap.wall_ms",
        sum("storage.heap", "", &|s| s.wall_ms()),
    );
    m.set("storage.heap.sim_share", heap_sim / total_sim_s);
    m.set(
        "storage.heap.ios_per_victim",
        sum("storage.heap", "", &|s| s.io.total_ios() as f64) / victims,
    );

    m.set(
        "btree.bulk.probe_sim_s",
        sum("btree.bulk", "bulk_delete_by_keys", &|s| s.sim_s()),
    );
    m.set(
        "btree.bulk.probe_wall_ms",
        sum("btree.bulk", "bulk_delete_by_keys", &|s| s.wall_ms()),
    );
    let arms: Vec<&crate::trace::Span> = t.select("btree.bulk", "bulk_delete_sorted").collect();
    let arms_sim: f64 = arms.iter().map(|s| s.sim_s()).sum();
    m.set("btree.bulk.arms_sim_s", arms_sim);
    m.set(
        "btree.bulk.arm_max_sim_s",
        arms.iter().map(|s| s.sim_s()).fold(0.0, f64::max),
    );
    m.set(
        "btree.bulk.arms_wall_ms",
        arms.iter().map(|s| s.wall_ms()).sum(),
    );
    if !arms.is_empty() {
        let ios: f64 = arms.iter().map(|s| s.io.total_ios() as f64).sum();
        m.set(
            "btree.bulk.leaf_ios_per_victim",
            ios / (victims * arms.len() as f64),
        );
    }

    let hash: Vec<&crate::trace::Span> = t.select("hashidx", "bulk_delete").collect();
    if !hash.is_empty() {
        m.set(
            "hashidx.bulk_delete.sim_s",
            hash.iter().map(|s| s.sim_s()).sum(),
        );
        m.set(
            "hashidx.bulk_delete.wall_ms",
            hash.iter().map(|s| s.wall_ms()).sum(),
        );
        let random: f64 = hash.iter().map(|s| s.io.total_random() as f64).sum();
        m.set(
            "hashidx.bulk_delete.random_ios_per_row",
            random / (victims * hash.len() as f64),
        );
    }
    flush_metrics(t, m);
}

/// Simulated seconds of the traced statement: its top-level spans of the
/// statement layers (everything but the planner, which does no I/O).
pub fn statement_span_sim_s(t: &Tracer) -> f64 {
    t.spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.sim_s())
        .sum()
}

/// `storage.buffer.flush_*` from the traced statement's final flush.
pub fn flush_metrics(t: &Tracer, m: &mut Metrics) {
    if let Some(flush) = t.select("storage.buffer", "flush_all").last() {
        m.set("storage.buffer.flush_sim_s", flush.sim_s());
        m.set("storage.buffer.flush_wall_ms", flush.wall_ms());
    }
}

/// `btree.tree.search_sim_ms`: 1000 cold point searches through the index
/// on A of the post-statement tree, keys drawn from `keys`.
pub fn search_probe(
    db: &Database,
    tid: TableId,
    keys: &[Key],
    seed: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    const SEARCHES: u64 = 1000;
    let pool = db.pool().clone();
    let table = db.table(tid).map_err(err)?;
    let tree = &table.index_on(0).ok_or("no index on A")?.tree;
    pool.clear_cache().map_err(err)?;
    let mut rng = crate::gen::SplitMix64::new(seed ^ 0x5EA2C4);
    let scope = bd_storage::IoScope::new();
    {
        let _guard = scope.enter();
        for _ in 0..SEARCHES {
            tree.search(keys[rng.below(keys.len() as u64) as usize])
                .map_err(err)?;
        }
    }
    m.set(
        "btree.tree.search_sim_ms",
        scope.stats().sim_ms / SEARCHES as f64,
    );
    Ok(())
}
