//! The bench snapshot (`BENCH.json`) and the gate that re-checks it.
//!
//! `repro <ids> --bench-json PATH` dumps every measured `(experiment, x,
//! strategy)` cell of a run, one per line, under a header that records
//! what is needed to regenerate the file: the experiment ids (each with
//! its `notes`), the row count and the worker count. `repro --check-bench
//! PATH` reads that header, re-runs exactly that at one worker and
//! compares the two documents with [`Snapshot::diff`] — every field of
//! every cell *as printed*. The simulated clock is deterministic, so there
//! is no tolerance: one moved digit is one divergence line.
//!
//! ```json
//! {
//!   "schema": 2,
//!   "rows": 20000,
//!   "workers": 1,
//!   "experiments": [
//!     {"id": "fig7", "notes": "sorted/trad ÷ bulk delete > 1: 5.7019 at 5%\n..."}
//!   ],
//!   "points": [
//!     {"experiment": "fig7", "x": "5%", "strategy": "bulk delete", "deleted": 1000, ...}
//!   ]
//! }
//! ```
//!
//! No serde is vendored. The writer prints one object per line, so the
//! reader is a line splitter that keeps every value as the text it was
//! printed as; nothing is re-typed, and a missing field is a divergence
//! like any other.

use bd_core::RunReport;

use crate::ExperimentReport;

/// One measured `(experiment, x, strategy)` cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchPoint {
    /// Experiment id, e.g. `fig7`.
    pub experiment: String,
    /// X-axis value, e.g. `15%` or `2` (indices).
    pub x: String,
    /// Series label, e.g. `bulk delete`.
    pub strategy: String,
    /// Records deleted.
    pub deleted: u64,
    /// Serial simulated clock, minutes.
    pub sim_minutes: f64,
    /// Critical-path simulated clock, minutes (= serial when serial).
    pub crit_path_minutes: f64,
    /// Positioned (head-moving) read accesses.
    pub random_reads: u64,
    /// Sequential-successor read accesses.
    pub sequential_reads: u64,
    /// Positioned write accesses.
    pub random_writes: u64,
    /// Sequential-successor write accesses.
    pub sequential_writes: u64,
    /// Pages transferred by reads.
    pub pages_read: u64,
    /// Pages transferred by writes.
    pub pages_written: u64,
    /// Transient-fault retries.
    pub retries: u64,
    /// Buffer-pool pins served warm.
    pub pool_hits: u64,
    /// Buffer-pool pins that read from disk.
    pub pool_misses: u64,
    /// First pins of prefetched pages.
    pub pool_prefetched: u64,
    /// Dirty pages written back.
    pub pool_writebacks: u64,
    /// Warm-hit fraction of all pins (prefetched pins are not warm).
    pub buffer_hit_rate: f64,
}

impl BenchPoint {
    /// Flatten one [`RunReport`] into the cell `(experiment, x, strategy)`.
    /// The series label is the caller's: two series may run the same
    /// strategy (and so share `report.strategy`) under different inputs.
    pub fn from_report(experiment: &str, x: &str, strategy: &str, report: &RunReport) -> Self {
        BenchPoint {
            experiment: experiment.to_string(),
            x: x.to_string(),
            strategy: strategy.to_string(),
            deleted: report.deleted as u64,
            sim_minutes: report.sim_minutes(),
            crit_path_minutes: report.critical_path_minutes(),
            random_reads: report.io.random_reads,
            sequential_reads: report.io.sequential_reads,
            random_writes: report.io.random_writes,
            sequential_writes: report.io.sequential_writes,
            pages_read: report.io.pages_read,
            pages_written: report.io.pages_written,
            retries: report.io.retries,
            pool_hits: report.pool.hits,
            pool_misses: report.pool.misses,
            pool_prefetched: report.pool.prefetched,
            pool_writebacks: report.pool.writebacks,
            buffer_hit_rate: report.pool.hit_rate(),
        }
    }

    fn to_json(&self) -> String {
        let fields = [
            format!("\"experiment\": \"{}\"", esc(&self.experiment)),
            format!("\"x\": \"{}\"", esc(&self.x)),
            format!("\"strategy\": \"{}\"", esc(&self.strategy)),
            format!("\"deleted\": {}", self.deleted),
            format!("\"sim_minutes\": {}", num(self.sim_minutes)),
            format!("\"crit_path_minutes\": {}", num(self.crit_path_minutes)),
            format!("\"random_reads\": {}", self.random_reads),
            format!("\"sequential_reads\": {}", self.sequential_reads),
            format!("\"random_writes\": {}", self.random_writes),
            format!("\"sequential_writes\": {}", self.sequential_writes),
            format!("\"pages_read\": {}", self.pages_read),
            format!("\"pages_written\": {}", self.pages_written),
            format!("\"retries\": {}", self.retries),
            format!("\"pool_hits\": {}", self.pool_hits),
            format!("\"pool_misses\": {}", self.pool_misses),
            format!("\"pool_prefetched\": {}", self.pool_prefetched),
            format!("\"pool_writebacks\": {}", self.pool_writebacks),
            format!("\"buffer_hit_rate\": {}", num(self.buffer_hit_rate)),
        ];
        format!("{{{}}}", fields.join(", "))
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn num(v: f64) -> String {
    // JSON has no NaN/Infinity; a snapshot must stay parseable regardless.
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_string()
    }
}

/// Serialise one `repro` run — the experiments in the order they ran —
/// as the snapshot document described in the module docs.
pub fn to_json(rows: usize, workers: usize, reports: &[ExperimentReport]) -> String {
    let experiments: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"id\": \"{}\", \"notes\": \"{}\"}}",
                r.id,
                esc(&r.notes)
            )
        })
        .collect();
    let points: Vec<String> = reports
        .iter()
        .flat_map(|r| &r.points)
        .map(|p| format!("    {}", p.to_json()))
        .collect();
    format!(
        "{{\n  \"schema\": 2,\n  \"rows\": {rows},\n  \"workers\": {workers},\n  \
         \"experiments\": [\n{}\n  ],\n  \"points\": [\n{}\n  ]\n}}\n",
        experiments.join(",\n"),
        points.join(",\n")
    )
}

/// One line of a snapshot: an experiment's notes (`fig7`) or a measured
/// cell (`fig7/5%/bulk delete`), with its remaining fields as printed.
#[derive(Debug)]
struct Entry {
    name: String,
    fields: Vec<(String, String)>,
}

/// What [`Snapshot::diff`] prints for a field one side does not have.
const ABSENT: &str = "(absent)";

impl Entry {
    fn get(&self, key: &str) -> &str {
        let found = self.fields.iter().find(|(k, _)| k == key);
        found.map_or(ABSENT, |(_, v)| v)
    }
}

/// A snapshot document as read back from its text.
#[derive(Debug)]
pub struct Snapshot {
    /// Table rows the run used.
    pub rows: usize,
    /// Worker threads the run used.
    pub workers: usize,
    /// Experiment ids in the order they ran.
    pub ids: Vec<String>,
    entries: Vec<Entry>,
}

/// Index of the quote closing the string that opens at `b[open]`.
fn string_end(b: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < b.len() && b[i] != b'"' {
        i += if b[i] == b'\\' { 2 } else { 1 };
    }
    i.min(b.len())
}

/// Split one snapshot line into its `"key": value` pairs. Values stay the
/// text they were printed as; strings lose their quotes, not their escapes.
fn fields(line: &str) -> Vec<(String, String)> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(open) = (i..b.len()).find(|&j| b[j] == b'"') {
        let close = string_end(b, open);
        let start = (close + 1..b.len())
            .find(|&j| b[j] != b':' && b[j] != b' ')
            .unwrap_or(b.len());
        let mut end = start;
        while end < b.len() {
            match b[end] {
                b'"' => end = string_end(b, end),
                b',' | b']' | b'}' => break,
                _ => {}
            }
            end += 1;
        }
        let end = end.min(b.len());
        let value = line[start..end].trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .unwrap_or(value);
        out.push((line[open + 1..close].to_string(), value.to_string()));
        i = end + 1;
    }
    out
}

impl Snapshot {
    /// Read a snapshot document back. `Err` names what is malformed.
    pub fn read(text: &str) -> Result<Snapshot, String> {
        let (mut schema, mut rows, mut workers) = (None, None, None);
        let mut ids = Vec::new();
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let mut f = fields(line);
            match f.first().map(|(k, _)| k.as_str()) {
                Some("schema") => schema = Some(f.remove(0).1),
                Some("rows") => rows = f[0].1.parse().ok(),
                Some("workers") => workers = f[0].1.parse().ok(),
                Some("id") => {
                    let name = f.remove(0).1;
                    ids.push(name.clone());
                    entries.push(Entry { name, fields: f });
                }
                Some("experiment") => {
                    if f.len() < 3 || f[1].0 != "x" || f[2].0 != "strategy" {
                        return Err(format!(
                            "line {}: a cell starts with experiment, x, strategy",
                            n + 1
                        ));
                    }
                    let name = format!("{}/{}/{}", f[0].1, f[1].1, f[2].1);
                    entries.push(Entry {
                        name,
                        fields: f.split_off(3),
                    });
                }
                _ => {} // the brackets around the two arrays
            }
        }
        if schema.as_deref() != Some("2") {
            return Err(format!(
                "schema is {}, expected 2 (a file `repro --bench-json` wrote)",
                schema.as_deref().unwrap_or("absent")
            ));
        }
        Ok(Snapshot {
            rows: rows.ok_or("no `rows` in the header")?,
            workers: workers.ok_or("no `workers` in the header")?,
            ids,
            entries,
        })
    }

    /// Why this snapshot cannot serve as a baseline, if it cannot: only
    /// single-threaded cells repeat to the digit, and two cells under one
    /// identity cannot be told apart.
    pub fn refuse_as_baseline(&self) -> Result<(), String> {
        if self.workers > 1 {
            return Err(format!(
                "taken with {} workers: threaded cells do not repeat",
                self.workers
            ));
        }
        if self.ids.is_empty() {
            return Err("no experiments recorded".to_string());
        }
        for (i, e) in self.entries.iter().enumerate() {
            if self.entries[..i].iter().any(|o| o.name == e.name) {
                return Err(format!("two cells are both named {}", e.name));
            }
        }
        Ok(())
    }

    /// Compare `fresh` against this snapshot, one line per divergence:
    /// `experiment/x/strategy.field: old → new` for a field that differs,
    /// plus one line per cell missing from `fresh` and per cell only in it.
    /// Equal snapshots give no lines.
    pub fn diff(&self, fresh: &Snapshot) -> Vec<String> {
        let mut out = Vec::new();
        for old in &self.entries {
            let Some(new) = fresh.entries.iter().find(|e| e.name == old.name) else {
                out.push(format!("{}: missing from the re-run", old.name));
                continue;
            };
            let only_new = new.fields.iter().filter(|(k, _)| old.get(k) == ABSENT);
            for (key, _) in old.fields.iter().chain(only_new) {
                let (was, is) = (old.get(key), new.get(key));
                if was != is {
                    out.push(format!("{}.{key}: {was} → {is}", old.name));
                }
            }
        }
        for new in &fresh.entries {
            if !self.entries.iter().any(|e| e.name == new.name) {
                out.push(format!("{}: not in the baseline", new.name));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(x: &str, strategy: &str) -> BenchPoint {
        BenchPoint {
            experiment: "fig7".into(),
            x: x.into(),
            strategy: strategy.into(),
            deleted: 15_000,
            sim_minutes: 1.25,
            crit_path_minutes: 1.25,
            random_reads: 100,
            sequential_reads: 9_000,
            random_writes: 50,
            sequential_writes: 4_000,
            pages_read: 9_100,
            pages_written: 4_050,
            retries: 0,
            pool_hits: 20,
            pool_misses: 900,
            pool_prefetched: 8_200,
            pool_writebacks: 4_050,
            buffer_hit_rate: 0.002192,
        }
    }

    fn report(points: Vec<BenchPoint>) -> ExperimentReport {
        ExperimentReport {
            id: "fig7",
            title: "unit".into(),
            x_label: "deleted tuples",
            notes: "a \"quoted\", comma-laden note:\nsecond line".into(),
            points,
        }
    }

    fn sample() -> Vec<BenchPoint> {
        vec![point("5%", "bulk delete"), point("5%", "sorted/trad")]
    }

    fn read(points: Vec<BenchPoint>) -> Snapshot {
        Snapshot::read(&to_json(20_000, 1, &[report(points)])).expect("parses")
    }

    #[test]
    fn equal_snapshots_give_no_lines() {
        let snap = read(sample());
        assert_eq!((snap.rows, snap.workers), (20_000, 1));
        assert_eq!(snap.ids, vec!["fig7"]);
        snap.refuse_as_baseline().expect("a fine baseline");
        assert_eq!(snap.diff(&read(sample())), Vec::<String>::new());
    }

    #[test]
    fn one_perturbed_field_is_the_one_line() {
        let mut moved = sample();
        moved[1].sim_minutes = 1.250001;
        assert_eq!(
            read(sample()).diff(&read(moved)),
            vec!["fig7/5%/sorted/trad.sim_minutes: 1.250000 → 1.250001"]
        );
        let mut noted = report(sample());
        noted.notes.push('!');
        let fresh = Snapshot::read(&to_json(20_000, 1, &[noted])).unwrap();
        let lines = read(sample()).diff(&fresh);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("fig7.notes: a \\\"quoted\\\", comma"));
    }

    #[test]
    fn missing_extra_and_fieldless_cells_are_named() {
        let mut fresh = sample();
        fresh[1].strategy = "not sorted/trad".into();
        assert_eq!(
            read(sample()).diff(&read(fresh)),
            vec![
                "fig7/5%/sorted/trad: missing from the re-run",
                "fig7/5%/not sorted/trad: not in the baseline"
            ]
        );
        // A field dropped from a hand-edited baseline is a divergence too.
        let edited = to_json(20_000, 1, &[report(sample())]).replacen("\"retries\": 0, ", "", 1);
        assert_eq!(
            Snapshot::read(&edited).unwrap().diff(&read(sample())),
            vec!["fig7/5%/bulk delete.retries: (absent) → 0"]
        );
    }

    #[test]
    fn threaded_and_duplicate_baselines_are_refused() {
        let threaded = Snapshot::read(&to_json(20_000, 3, &[report(sample())])).unwrap();
        assert!(threaded
            .refuse_as_baseline()
            .unwrap_err()
            .contains("3 workers"));

        let twice = vec![point("5%", "bulk delete"), point("5%", "bulk delete")];
        let err = read(twice).refuse_as_baseline().unwrap_err();
        assert!(err.contains("both named fig7/5%/bulk delete"), "{err}");
    }

    #[test]
    fn other_documents_are_rejected() {
        assert!(Snapshot::read("").is_err());
        assert!(Snapshot::read("{\"schema\": 1, \"label\": \"old\"}").is_err());
        let cell = to_json(1, 1, &[report(sample())]).replacen("\"x\": \"5%\", ", "", 1);
        assert!(Snapshot::read(&cell).unwrap_err().contains("line 9"));
    }
}
