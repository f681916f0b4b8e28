//! The benchmark's contract as the program knows it: workloads, end-to-end
//! metrics with their regression bounds, per-layer metrics. The result line
//! is built from this table, and a test holds `BENCHMARK.json` against it.

use std::collections::BTreeMap;

use crate::json::Json;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`. Read only by the test that holds
    /// `BENCHMARK.json` against this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

/// Seconds one run measures (`--seconds`, `run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: &[&str] = &["heap5", "arms15", "wal15", "live15", "lsm10", "window4"];

/// `(definition, bound)`: the share of the parent's median by which the
/// metric may get worse.
pub const END_TO_END: &[(Def, f64)] = &[
    (d("setup_s", "s", "lower"), 0.25),
    (d("sim_min", "min", "lower"), 0.05),
    (d("wall_rel", "x", "lower"), 0.10),
    (d("peak_rss_mb", "MB", "lower"), 0.05),
    (d("space_pages_per_krow", "pages/krow", "lower"), 0.02),
];

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

pub const PER_LAYER: &[Def] = &[
    d("storage.disk.random_reads", "count", "lower"),
    d("storage.disk.seq_reads", "count", "lower"),
    d("storage.disk.random_writes", "count", "lower"),
    d("storage.disk.seq_writes", "count", "lower"),
    d("storage.disk.pages_read", "pages", "lower"),
    d("storage.disk.pages_written", "pages", "lower"),
    d("storage.disk.retries", "count", "lower"),
    d("storage.disk.pages_per_write_access", "pages", "higher"),
    d("storage.disk.pages_per_read_access", "pages", "higher"),
    d("storage.disk.host_ns_per_page", "ns", "lower"),
    d("storage.buffer.hits", "count", "higher"),
    d("storage.buffer.misses", "count", "lower"),
    d("storage.buffer.prefetched", "count", "higher"),
    d("storage.buffer.writebacks", "count", "lower"),
    d("storage.buffer.hit_rate", "ratio", "higher"),
    d("storage.buffer.host_ns_per_hit", "ns", "lower"),
    d("storage.buffer.host_ns_per_miss", "ns", "lower"),
    d("storage.buffer.host_ns_per_miss_2t", "ns", "lower"),
    d("storage.buffer.flush_sim_s", "s", "lower"),
    d("storage.buffer.flush_wall_ms", "ms", "lower"),
    d("storage.readahead.staged_share", "ratio", "higher"),
    d("storage.heap.sim_s", "s", "lower"),
    d("storage.heap.wall_ms", "ms", "lower"),
    d("storage.heap.sim_share", "ratio", "lower"),
    d("storage.heap.ios_per_victim", "count", "lower"),
    d("storage.pacer.checks", "count", "lower"),
    d("storage.pacer.host_ns_per_check", "ns", "lower"),
    d("exec.sort.sim_s", "s", "lower"),
    d("exec.sort.wall_ms", "ms", "lower"),
    d("exec.sort.items", "count", "lower"),
    d("exec.sort.runs", "count", "lower"),
    d("exec.sort.merge_passes", "count", "lower"),
    d("btree.bulk.probe_sim_s", "s", "lower"),
    d("btree.bulk.probe_wall_ms", "ms", "lower"),
    d("btree.bulk.arms_sim_s", "s", "lower"),
    d("btree.bulk.arm_max_sim_s", "s", "lower"),
    d("btree.bulk.arms_wall_ms", "ms", "lower"),
    d("btree.bulk.leaf_ios_per_victim", "count", "lower"),
    d("btree.tree.search_sim_ms", "ms", "lower"),
    d("core.db.insert_us_per_row", "us", "lower"),
    d("core.db.insert_sim_ms_per_row", "ms", "lower"),
    d("hashidx.bulk_delete.sim_s", "s", "lower"),
    d("hashidx.bulk_delete.wall_ms", "ms", "lower"),
    d("hashidx.bulk_delete.random_ios_per_row", "count", "lower"),
    d("core.planner.plan_us", "us", "lower"),
    d("core.strategy.trad_sim_min", "min", "lower"),
    d("core.strategy.speedup_vs_trad", "ratio", "higher"),
    d("core.strategy.dropcreate_sim_min", "min", "lower"),
    d("core.strategy.speedup_vs_dropcreate", "ratio", "higher"),
    d("core.executor.serial_sim_min", "min", "lower"),
    d("core.executor.ideal_crit_sim_min", "min", "lower"),
    d("core.executor.threaded_sim_min", "min", "lower"),
    d("core.executor.crit_sim_min", "min", "lower"),
    d("core.executor.sim_penalty", "ratio", "lower"),
    d("core.executor.wall_speedup", "ratio", "higher"),
    d("core.executor.overlap", "ratio", "higher"),
    d("core.executor.degrade_events", "count", "lower"),
    d("core.maintain.sim_s", "s", "lower"),
    d("core.maintain.wall_ms", "ms", "lower"),
    d("core.maintain.pages_reclaimed", "pages", "higher"),
    d("core.maintain.heap_pages_released", "pages", "higher"),
    d("core.maintain.pack_pages_freed", "pages", "higher"),
    d("core.maintain.space_vs_fresh", "ratio", "lower"),
    d("wal.log.records", "count", "lower"),
    d("wal.log.bytes", "bytes", "lower"),
    d("wal.log.bytes_per_row", "bytes", "lower"),
    d("wal.driver.logged_sim_min", "min", "lower"),
    d("wal.driver.logging_overhead", "ratio", "lower"),
    d("wal.driver.attempt_sim_s", "s", "lower"),
    d("wal.driver.attempt_wall_ms", "ms", "lower"),
    d("wal.recover.sim_s", "s", "lower"),
    d("wal.recover.wall_ms", "ms", "lower"),
    d("wal.recover.redone_rows", "count", "lower"),
    d("wal.recover.sim_share", "ratio", "lower"),
    d("txn.live.fg_p50_us", "us", "lower"),
    d("txn.live.fg_p99_ms", "ms", "lower"),
    d("txn.live.fg_ops_per_s", "1/s", "higher"),
    d("txn.live.fg_samples", "count", "higher"),
    d("txn.live.fg_max_ms", "ms", "lower"),
    d("txn.live.read_p99_ms", "ms", "lower"),
    d("txn.live.scan_p99_ms", "ms", "lower"),
    d("txn.live.insert_p99_ms", "ms", "lower"),
    d("txn.live.chunks", "count", "lower"),
    d("txn.live.ran_parallel", "count", "higher"),
    d("txn.live.sim_vs_offline", "ratio", "lower"),
    d("txn.live.offline_fg_max_ms", "ms", "lower"),
    d("txn.lock.timeouts", "count", "lower"),
    d("txn.lock.host_ns_per_acquire", "ns", "lower"),
    d("lsm.delete.sim_s", "s", "lower"),
    d("lsm.delete.wall_ms", "ms", "lower"),
    d("lsm.purge.sim_s", "s", "lower"),
    d("lsm.purge.wall_ms", "ms", "lower"),
    d("lsm.probe.pages_read_per_key", "pages", "lower"),
    d("lsm.probe.misses_per_key", "count", "lower"),
    d("lsm.flushes", "count", "lower"),
    d("lsm.compactions", "count", "lower"),
    d("lsm.runs", "count", "lower"),
    d("lsm.pages", "pages", "lower"),
    d("lsm.tombstones_before_purge", "count", "lower"),
    d("lsm.lookup.sim_ms", "ms", "lower"),
    d("lsm.vs_btree", "ratio", "lower"),
    d("host.wall_s", "s", "lower"),
    d("host.cpu_s", "s", "lower"),
    d("host.sys_share", "ratio", "lower"),
    d("host.cold_sys_share", "ratio", "lower"),
    d("host.cold_over_warm", "ratio", "lower"),
    d("host.trace_overhead", "ratio", "lower"),
    d("host.trace_sim_gap", "ratio", "lower"),
    d("host.verify_wall_s", "s", "lower"),
];

/// What to print beside a metric's value: quartiles, sample count, marks.
pub type Notes = BTreeMap<&'static str, String>;

/// Named values gathered during a run. Setting a name the table above does
/// not list is a bug in the benchmark and panics.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(def, _)| def.name == name)
                || PER_LAYER.iter().any(|def| def.name == name),
            "metric {name} is not in the benchmark's table"
        );
        // An empty f64 sum is -0.0; print it as 0.
        self.values.insert(name, value + 0.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (all must have been measured) or every per-layer metric (a layer
    /// the workload never entered reads 0).
    pub fn result(&self, per_layer: bool) -> Result<Json, String> {
        let defs: Vec<&Def> = if per_layer {
            PER_LAYER.iter().collect()
        } else {
            END_TO_END.iter().map(|(def, _)| def).collect()
        };
        let mut fields = Vec::new();
        for def in defs {
            let value = match self.get(def.name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {} is {v}", def.name)),
                None if per_layer => 0.0,
                None => return Err(format!("metric {} was not measured", def.name)),
            };
            fields.push((
                def.name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
            ));
        }
        Ok(Json::Obj(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The limits the driver's contract puts on `BENCHMARK.json`.
    #[test]
    fn table_is_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|(d, _)| d.name));
        names.extend(PER_LAYER.iter().map(|d| d.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|(d, _)| (d.name, d.unit, d.better) == ("setup_s", "s", "lower")));
        for def in END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER) {
            assert!(def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(def.better == "lower" || def.better == "higher");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` lists exactly this table: one workload or metric
    /// per line, in the table's order.
    #[test]
    fn benchmark_json_is_this_table() {
        let file = include_str!("../../BENCHMARK.json");
        let mut expected: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{w}\", \"why\": "))
            .collect();
        expected.extend(END_TO_END.iter().map(|(d, bound)| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name, d.unit, d.better
            )
        }));
        expected.extend(PER_LAYER.iter().map(|d| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            )
        }));
        let listed: Vec<&str> = file
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\""))
            .collect();
        assert_eq!(listed.len(), expected.len());
        for (line, want) in listed.iter().zip(&expected) {
            assert!(line.starts_with(want.as_str()), "{line} is not {want}");
        }
        // A `why` is one line of at most 200 characters.
        for line in &listed[..WORKLOADS.len()] {
            let why = line.split("\"why\": ").nth(1).expect("checked above");
            assert!(why.chars().count() <= 200 + "\"\"}".len(), "{line}");
        }
        assert!(file.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        assert!(file.len() <= 64 * 1024);
    }

    #[test]
    fn result_needs_every_end_to_end_metric_and_zero_fills_layers() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        assert!(m.result(false).is_err());
        let Json::Obj(fields) = m.result(true).expect("per-layer result") else {
            panic!("metrics render as an object");
        };
        assert_eq!(fields.len(), PER_LAYER.len());
    }
}
