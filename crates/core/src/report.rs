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

use bd_storage::{BufferPool, DiskStats, PoolStats, StorageResult};

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
/// I/O its [`IoScope`](bd_storage::IoScope) attributed to it.
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
