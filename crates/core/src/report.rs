//! Run reports: simulated time and I/O counters per strategy execution.
//!
//! A run carries two simulated clocks:
//!
//! * the **serial** clock — the sum of every disk charge, exactly what the
//!   1999 cost model accumulates (the paper's y-axis);
//! * the **critical-path** clock — what the run would cost if the arms of
//!   each fan-out group truly overlapped: serial phases sum, concurrent
//!   phases contribute only their maximum.
//!
//! The per-arm cost model is untouched; the critical path simply removes
//! the overlap of independent per-structure `⋈̄` arms.

use std::sync::Arc;

use bd_storage::{BufferPool, DiskStats, IoScope, PoolStats, StorageResult};

pub use crate::audit::{AuditFinding, AuditReport};

/// An arm re-run after a fault. The executor never re-runs an arm (a fault
/// is retried only by the buffer pool), so none is recorded; the type keeps
/// [`RunReport::events`] in shape for callers that count it.
#[derive(Debug, Clone)]
pub struct DegradeEvent {
    /// Fan-out group the failure occurred in.
    pub group: u32,
    /// Label of the arm whose failure triggered the re-run.
    pub failed_arm: String,
    /// Display form of the originating error.
    pub error: String,
    /// Labels of the arms re-run.
    pub reran: Vec<String>,
    /// Whether every re-run completed.
    pub recovered: bool,
}

/// One phase (task) of a strategy execution: a named unit of work with the
/// I/O its [`IoScope`] attributed to it.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase label, e.g. `sort(D)` or `bd I_B (sort/merge)`.
    pub name: String,
    /// I/O attributed to this phase's scope.
    pub io: DiskStats,
    /// Fan-out group id: rows sharing a group are independent arms that
    /// run concurrently when the executor is given workers. `None` marks a
    /// serial phase.
    pub group: Option<u32>,
}

/// Records one [`PhaseRow`] per executed phase, each under its own
/// [`IoScope`] — correct under concurrency, unlike the global
/// stats-delta closure it replaces (concurrent arms would attribute each
/// other's I/O to whichever phase read the counters last).
#[derive(Debug, Default)]
pub struct PhaseTimer {
    rows: Vec<PhaseRow>,
}

impl PhaseTimer {
    /// An empty timer.
    pub fn new() -> Self {
        PhaseTimer::default()
    }

    /// Run `body` as one serial phase, attributing its I/O via a fresh
    /// [`IoScope`]. The row is recorded even when `body` fails, so partial
    /// runs still render a truthful breakdown.
    pub fn phase<T>(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce() -> StorageResult<T>,
    ) -> StorageResult<T> {
        let scope = IoScope::new();
        let result = {
            let _guard = scope.enter();
            body()
        };
        self.rows.push(PhaseRow {
            name: name.into(),
            io: scope.stats(),
            group: None,
        });
        result
    }

    /// Append an externally produced row (the executor's fan-out arms).
    pub fn push_row(&mut self, row: PhaseRow) {
        self.rows.push(row);
    }

    /// Rows recorded so far.
    pub fn rows(&self) -> &[PhaseRow] {
        &self.rows
    }

    /// Consume the timer, yielding its rows in execution order.
    pub fn into_rows(self) -> Vec<PhaseRow> {
        self.rows
    }
}

/// Sub-buckets per power of two: 2^3 = 8 gives ≤ 12.5% relative error on
/// reported percentiles, at 8 counters per octave.
const HIST_SUB_BITS: u32 = 3;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;
/// Buckets 0..HIST_SUB hold the exact values 0..8 µs; above that, one
/// octave per power of two up to u64::MAX.
const HIST_BUCKETS: usize = HIST_SUB * (64 - HIST_SUB_BITS as usize + 1);

/// Log-bucketed latency histogram (microseconds).
///
/// Fixed footprint, mergeable across threads, percentile queries with
/// bounded (≤ 12.5%) relative error — the usual shape for foreground
/// latency reporting, where exact values matter less than stable tails.
/// Workload workers each record into their own histogram and the driver
/// [`LatencyHistogram::merge`]s them on join.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50_us", &self.percentile(50.0))
            .field("p99_us", &self.percentile(99.0))
            .field("max_us", &self.max)
            .finish()
    }
}

fn hist_bucket(v: u64) -> usize {
    if v < HIST_SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - HIST_SUB_BITS)) & (HIST_SUB as u64 - 1)) as usize;
    (msb - HIST_SUB_BITS + 1) as usize * HIST_SUB + sub
}

/// Inclusive upper edge of a bucket (what percentile queries report).
fn hist_edge(bucket: usize) -> u64 {
    if bucket < HIST_SUB {
        return bucket as u64;
    }
    let octave = (bucket / HIST_SUB) as u32 - 1 + HIST_SUB_BITS;
    let sub = (bucket % HIST_SUB) as u64;
    let base = 1u64 << octave;
    let step = base >> HIST_SUB_BITS;
    // (base - 1) first: the top octave's last edge is exactly u64::MAX and
    // `base + 8 * step` would wrap.
    (base - 1) + (sub + 1) * step
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Record one latency sample, in microseconds.
    pub fn record(&mut self, micros: u64) {
        self.counts[hist_bucket(micros)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(micros);
        self.max = self.max.max(micros);
    }

    /// Fold `other`'s samples into this histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded sample (exact, not bucketed), in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max
    }

    /// Mean of all samples, in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100), in microseconds: the upper
    /// edge of the first bucket whose cumulative count covers `p` percent
    /// of samples, clamped to the exact observed maximum. Returns 0 on an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let need = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= need {
                return hist_edge(bucket).min(self.max);
            }
        }
        self.max
    }
}

/// Foreground latency percentiles per operation class, observed while a
/// bulk delete ran under live traffic.
#[derive(Debug, Clone, Default)]
pub struct ForegroundReport {
    /// `(op class, histogram)` in first-recorded order, e.g.
    /// `point_read`, `range_scan`, `insert`.
    pub classes: Vec<(String, LatencyHistogram)>,
}

impl ForegroundReport {
    /// An empty report.
    pub fn new() -> Self {
        ForegroundReport::default()
    }

    /// The histogram for `class`, created on first use.
    pub fn class_mut(&mut self, class: &str) -> &mut LatencyHistogram {
        if let Some(i) = self.classes.iter().position(|(n, _)| n == class) {
            return &mut self.classes[i].1;
        }
        self.classes
            .push((class.to_string(), LatencyHistogram::new()));
        &mut self.classes.last_mut().expect("just pushed").1
    }

    /// The histogram for `class`, if any samples were recorded.
    pub fn class(&self, class: &str) -> Option<&LatencyHistogram> {
        self.classes
            .iter()
            .find(|(n, _)| n == class)
            .map(|(_, h)| h)
    }

    /// Fold every class of `other` into this report.
    pub fn merge(&mut self, other: &ForegroundReport) {
        for (name, hist) in &other.classes {
            self.class_mut(name).merge(hist);
        }
    }

    /// Total samples across all classes.
    pub fn total_ops(&self) -> u64 {
        self.classes.iter().map(|(_, h)| h.count()).sum()
    }

    /// Rendered percentile table, one line per op class.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, h) in &self.classes {
            out.push_str(&format!(
                "  fg {:<12} n {:>7}  p50 {:>7} µs  p95 {:>7} µs  p99 {:>7} µs  max {:>8} µs\n",
                name,
                h.count(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max_us(),
            ));
        }
        out
    }
}

/// Outcome of one delete-strategy execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Strategy label, e.g. `sorted/trad` or `bulk delete`.
    pub strategy: String,
    /// Records deleted from the base table.
    pub deleted: usize,
    /// Disk counters accumulated by the run (after a cold-cache reset).
    pub io: DiskStats,
    /// Per-phase I/O breakdown: one row per task of the phase DAG, in plan
    /// order (stable regardless of arm completion order).
    pub phases: Vec<PhaseRow>,
    /// Worker threads the phase-task executor was allowed (1 = serial).
    pub workers: usize,
    /// Buffer-pool counters for the run (hits, misses, prefetched pins,
    /// writebacks) — the cache-warmth side of the same I/O story `io` tells.
    pub pool: PoolStats,
    /// Arm re-runs. Always empty: no executor path re-runs an arm; the
    /// field stays for callers that count it.
    pub events: Vec<DegradeEvent>,
    /// Foreground latency percentiles per op class, when the run executed
    /// under live traffic (`None` for offline runs).
    pub foreground: Option<ForegroundReport>,
}

impl RunReport {
    /// Simulated elapsed milliseconds — the *serial* clock (sum of every
    /// disk charge, as the paper's single-disk cost model accumulates it).
    pub fn sim_ms(&self) -> f64 {
        self.io.sim_ms
    }

    /// Simulated elapsed minutes — the unit the paper's figures report.
    pub fn sim_minutes(&self) -> f64 {
        self.io.sim_ms / 60_000.0
    }

    /// Simulated milliseconds along the critical path: serial phases sum;
    /// each fan-out group contributes only its slowest arm. Equal to
    /// [`RunReport::sim_ms`] when the run was serial (`workers <= 1`).
    pub fn critical_path_ms(&self) -> f64 {
        if self.workers <= 1 {
            return self.io.sim_ms;
        }
        let mut saved = 0.0;
        let groups: Vec<u32> = {
            let mut g: Vec<u32> = self.phases.iter().filter_map(|p| p.group).collect();
            g.dedup();
            g
        };
        for gid in groups {
            let arms = self.phases.iter().filter(|p| p.group == Some(gid));
            let (mut sum, mut max) = (0.0f64, 0.0f64);
            for arm in arms {
                sum += arm.io.sim_ms;
                max = max.max(arm.io.sim_ms);
            }
            saved += sum - max;
        }
        self.io.sim_ms - saved
    }

    /// Critical-path simulated minutes.
    pub fn critical_path_minutes(&self) -> f64 {
        self.critical_path_ms() / 60_000.0
    }

    /// Multi-line phase breakdown (empty string when not instrumented).
    /// Concurrent arms are marked with `∥`.
    pub fn phase_breakdown(&self) -> String {
        let mut out = String::new();
        for row in &self.phases {
            let marker = if row.group.is_some() { "∥ " } else { "  " };
            out.push_str(&format!(
                "  {}{:<28} {:>8.2} s  ios {:>8} (random {:>6})\n",
                marker,
                row.name,
                row.io.sim_ms / 1000.0,
                row.io.total_ios(),
                row.io.total_random(),
            ));
            if row.io.retries > 0 {
                out.push_str(&format!("      ({} I/O retries)\n", row.io.retries));
            }
        }
        if let Some(fg) = &self.foreground {
            out.push_str(&fg.table());
        }
        out
    }

    /// One summary line (adds the critical-path clock for parallel runs).
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{:<16} deleted {:>8}  sim {:>9.2} min  ios {:>9} (random {:>8}, read {:>9}, write {:>9})",
            self.strategy,
            self.deleted,
            self.sim_minutes(),
            self.io.total_ios(),
            self.io.total_random(),
            self.io.pages_read,
            self.io.pages_written,
        );
        if self.workers > 1 {
            line.push_str(&format!(
                "  crit-path {:>9.2} min ({} workers)",
                self.critical_path_minutes(),
                self.workers,
            ));
        }
        if self.io.retries > 0 {
            line.push_str(&format!("  retries {}", self.io.retries));
        }
        line
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Run `body` against a cold cache and account its I/O (including the final
/// flush of dirty pages, which belongs to the run).
pub fn measure<T>(
    pool: &Arc<BufferPool>,
    strategy: &str,
    body: impl FnOnce() -> StorageResult<T>,
) -> StorageResult<(T, RunReport)> {
    pool.clear_cache()?;
    pool.reset_stats();
    let before = pool.disk_stats();
    let value = body()?;
    pool.flush_all()?;
    let io = pool.disk_stats().since(&before);
    Ok((
        value,
        RunReport {
            strategy: strategy.to_string(),
            deleted: 0,
            io,
            phases: Vec::new(),
            workers: 1,
            pool: pool.pool_stats(),
            events: Vec::new(),
            foreground: None,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::{CostModel, SimDisk, StructureId};

    #[test]
    fn measure_accounts_io_and_flush() {
        let mut disk = SimDisk::new(CostModel::default());
        let first = disk.allocate_contiguous(4, StructureId::Table);
        let pool = BufferPool::new(disk, 8);
        let (_, report) = measure(&pool, "probe", || {
            let mut w = pool.pin_write(first)?;
            w[0] = 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(report.io.pages_read, 1);
        assert_eq!(report.io.pages_written, 1, "flush counted");
        assert!(report.sim_ms() > 0.0);
        assert!(report.summary().contains("probe"));
    }

    #[test]
    fn measure_starts_cold() {
        let mut disk = SimDisk::new(CostModel::default());
        let first = disk.allocate_contiguous(2, StructureId::Table);
        let pool = BufferPool::new(disk, 8);
        let _ = pool.pin_read(first).unwrap();
        let (_, report) = measure(&pool, "x", || {
            let _ = pool.pin_read(first)?;
            Ok(())
        })
        .unwrap();
        // The pre-measure pin must not make the in-measure pin a cache hit.
        assert_eq!(report.io.pages_read, 1);
    }

    #[test]
    fn phase_timer_attributes_io_per_phase() {
        let mut disk = SimDisk::new(CostModel::default());
        let first = disk.allocate_contiguous(4, StructureId::Table);
        let pool = BufferPool::new(disk, 8);
        let mut timer = PhaseTimer::new();
        timer
            .phase("one", || {
                let _ = pool.pin_read(first)?;
                Ok(())
            })
            .unwrap();
        timer
            .phase("two", || {
                let _ = pool.pin_read(first + 1)?;
                let _ = pool.pin_read(first + 2)?;
                Ok(())
            })
            .unwrap();
        let rows = timer.into_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].io.pages_read, 1);
        assert_eq!(rows[1].io.pages_read, 2);
        assert!(rows.iter().all(|r| r.group.is_none()));
    }

    #[test]
    fn histogram_percentiles_have_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max_us(), 10_000);
        for (p, exact) in [(50.0, 5_000u64), (95.0, 9_500), (99.0, 9_900)] {
            let got = h.percentile(p);
            assert!(
                got >= exact && got as f64 <= exact as f64 * 1.125 + 1.0,
                "p{p}: got {got}, exact {exact}"
            );
        }
        assert_eq!(h.percentile(100.0), 10_000);
        assert!((h.mean_us() - 5_000.5).abs() < 1e-6);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.percentile(20.0), 0);
        assert_eq!(h.percentile(100.0), 7);
        assert_eq!(h.percentile(60.0), 2);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        let mut x = 12345u64;
        for i in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x % 1_000_000;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max_us(), all.max_us());
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(a.percentile(p), all.percentile(p), "p{p}");
        }
    }

    #[test]
    fn histogram_extremes_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.percentile(100.0), u64::MAX);
        assert_eq!(h.percentile(1.0), 0);
        let empty = LatencyHistogram::new();
        assert_eq!(empty.percentile(99.0), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn foreground_report_merges_and_renders_per_class() {
        let mut a = ForegroundReport::new();
        a.class_mut("point_read").record(120);
        a.class_mut("insert").record(340);
        let mut b = ForegroundReport::new();
        b.class_mut("point_read").record(90);
        b.class_mut("range_scan").record(1000);
        a.merge(&b);
        assert_eq!(a.total_ops(), 4);
        assert_eq!(a.class("point_read").unwrap().count(), 2);
        let table = a.table();
        for class in ["point_read", "insert", "range_scan"] {
            assert!(table.contains(class), "{table}");
        }
    }

    #[test]
    fn critical_path_removes_group_overlap() {
        fn ms(sim_ms: f64) -> DiskStats {
            DiskStats {
                sim_ms,
                ..DiskStats::default()
            }
        }
        let report = RunReport {
            strategy: "x".into(),
            deleted: 0,
            io: ms(100.0),
            phases: vec![
                PhaseRow {
                    name: "serial".into(),
                    io: ms(40.0),
                    group: None,
                },
                PhaseRow {
                    name: "arm a".into(),
                    io: ms(35.0),
                    group: Some(0),
                },
                PhaseRow {
                    name: "arm b".into(),
                    io: ms(25.0),
                    group: Some(0),
                },
            ],
            workers: 2,
            pool: PoolStats::default(),
            events: Vec::new(),
            foreground: None,
        };
        // saved = (35 + 25) - 35 = 25; crit = 100 - 25 = 75.
        assert!((report.critical_path_ms() - 75.0).abs() < 1e-9);
        let serial = RunReport {
            workers: 1,
            ..report.clone()
        };
        assert!((serial.critical_path_ms() - serial.sim_ms()).abs() < 1e-9);
    }
}
