//! The steady-state space experiment: does the maintenance daemon stop
//! the space leak?
//!
//! A sliding-window workload (delete the oldest quarter of the keys, bulk
//! the same number of fresh rows back in, repeat) is run twice from the
//! same build — once with [`Maintainer::run_cycle`] after every round
//! ("daemon on") and once without ("daemon off"). Without recycling,
//! every freed index page is stranded: fresh inserts extend the file and
//! the disk footprint grows without bound even though the live row count
//! never changes. With the daemon, packed leaves and recycled pages feed
//! the next round's allocations and the footprint plateaus.
//!
//! Each round files five cells: the delete in both arms, the daemon's
//! cycle, and the refill in both arms (`refill off`, `refill on`), each
//! measured from a cold cache through its final flush.
//!
//! The verdict compares three databases at the end of the sweep:
//!
//! * **daemon on** — in-use pages must land within 10% of **fresh**, a
//!   database bulk-loaded from scratch with exactly the same live rows
//!   (the paper's `drop & create` end state, the densest layout we know
//!   how to build);
//! * **daemon off** — its file must be strictly larger than the daemon's,
//!   or there was no leak to stop.
//!
//! Both arms are audited (`check_consistency` + `audit_catalog`) before
//! any number is reported, and a failed verdict fails the experiment.

use bd_core::{
    audit_catalog, measure, strategy, Database, DatabaseConfig, DbError, DbResult, IndexDef,
    Maintainer, MaintenanceConfig, RunReport, TableId, Tuple,
};

use bd_btree::Key;
use bd_workload::TableSpec;

use crate::snapshot::BenchPoint;
use crate::{mem_bytes, ExperimentReport};

/// Sliding-window rounds; each deletes the oldest `rows / WINDOWS` keys
/// and inserts as many fresh ones, so the sweep turns over the whole table
/// twice. Rounds after the first `WINDOWS` delete rows that were inserted
/// after recycling began, into pages the daemon handed back.
pub const ROUNDS: usize = 8;

/// The window is a quarter of the table.
const WINDOWS: usize = 4;

/// Page accounting of one database at a point in time.
#[derive(Debug, Clone, Copy)]
struct SpaceUse {
    /// Pages the catalog holds an owner for (heap + index + hash).
    in_use: usize,
    /// Pages the backing file spans (the allocation frontier — what the
    /// leak grows).
    file: usize,
}

fn space(db: &Database) -> SpaceUse {
    let cat = db.pool().catalog();
    SpaceUse {
        in_use: cat.len() - cat.n_free(),
        file: db.pool().with_disk(|d| d.num_pages()),
    }
}

/// The steady-state verdict the sweep exists to prove, rendered with its
/// numbers. `Err` carries the failed comparison.
fn verdict(
    on: SpaceUse,
    off: SpaceUse,
    fresh: SpaceUse,
    reclaimed: usize,
    cycles: u64,
) -> Result<String, String> {
    if reclaimed == 0 {
        return Err("the daemon reclaimed no pages at all".into());
    }
    if off.file <= on.file {
        return Err(format!(
            "no leak demonstrated: daemon-off file {} pages <= daemon-on {}",
            off.file, on.file
        ));
    }
    let budget = fresh.in_use + fresh.in_use / 10;
    if on.in_use > budget {
        return Err(format!(
            "daemon-on keeps {} pages in use; a fresh bulk load of the \
             same rows needs {} (budget {budget}, +10%)",
            on.in_use, fresh.in_use
        ));
    }
    Ok(format!(
        "space after {ROUNDS} rounds / {cycles} daemon cycles:\n\
         \x20 daemon on   {:>6} pages in use, {:>6} in file ({reclaimed} reclaimed)\n\
         \x20 daemon off  {:>6} pages in use, {:>6} in file\n\
         \x20 fresh load  {:>6} pages in use, {:>6} in file\n\
         daemon-on in-use is within 10% of a fresh bulk load; \
         daemon-off file is {} pages larger than daemon-on",
        on.in_use,
        on.file,
        off.in_use,
        off.file,
        fresh.in_use,
        fresh.file,
        off.file - on.file,
    ))
}

/// One arm of the sweep: the paper-scaled table with the usual vertical
/// index set (unique probe on A, plain B-trees on B and C).
fn build_arm(rows: usize, seed: u64) -> DbResult<(Database, TableId)> {
    let mut db = Database::new(DatabaseConfig::with_total_memory(mem_bytes(5.0, rows)));
    let w = TableSpec::paper_scaled()
        .with_rows(rows)
        .with_seed(seed)
        .build(&mut db)?;
    w.attach_index(&mut db, IndexDef::secondary(0).unique())?;
    w.attach_index(&mut db, IndexDef::secondary(1))?;
    w.attach_index(&mut db, IndexDef::secondary(2))?;
    Ok((db, w.tid))
}

/// A fresh row for slot `i` of the insert stream. Generated attribute
/// values are multiples of 10 in `0..rows*10`, so `(rows + i) * 10` can
/// never collide with a live key on any attribute.
fn fresh_row(rows: usize, i: usize, n_attrs: usize) -> Tuple {
    let base = ((rows + i) as Key) * 10;
    Tuple::new((0..n_attrs as Key).map(|a| base + a * 2).collect())
}

/// Account `body`'s I/O as [`measure`] does for a strategy (cold cache,
/// reset counters, flush at the end).
fn measured(
    db: &mut Database,
    label: &str,
    body: impl FnOnce(&mut Database) -> DbResult<()>,
) -> DbResult<RunReport> {
    let mut ran = Ok(());
    let pool = db.pool().clone();
    let ((), report) = measure(&pool, label, || {
        ran = body(db);
        Ok(())
    })?;
    ran.map(|()| report)
}

/// Bulk-load a brand-new database holding exactly `db`'s live rows — the
/// densest end state we can name, used as the steady-state yardstick.
fn fresh_copy(db: &Database, tid: TableId, rows: usize) -> DbResult<Database> {
    let table = db.table(tid)?;
    let schema = table.schema;
    let live: Vec<Tuple> = table
        .heap
        .dump()?
        .into_iter()
        .map(|(_, bytes)| {
            Tuple::new(
                (0..schema.n_attrs)
                    .map(|a| schema.attr_of(&bytes, a))
                    .collect(),
            )
        })
        .collect();
    let mut fresh = Database::new(DatabaseConfig::with_total_memory(mem_bytes(5.0, rows)));
    let ftid = fresh.create_table("R_fresh", schema);
    for t in &live {
        fresh.insert(ftid, t)?;
    }
    fresh.create_index(ftid, IndexDef::secondary(0).unique())?;
    fresh.create_index(ftid, IndexDef::secondary(1))?;
    fresh.create_index(ftid, IndexDef::secondary(2))?;
    fresh.pool().flush_all().map_err(DbError::from)?;
    Ok(fresh)
}

/// Run the sliding-window sweep at `rows` scale. Errors on an execution
/// or audit failure and on a failed space [`verdict`]; the verdict's page
/// counts ride in the report's notes. The sweep is serial whatever
/// `_workers` says.
pub fn maintain_experiment(rows: usize, _workers: usize) -> DbResult<ExperimentReport> {
    let (mut db_on, tid) = build_arm(rows, 42)?;
    let (mut db_off, _) = build_arm(rows, 42)?;
    let n_attrs = db_on.table(tid)?.schema.n_attrs;

    // Delete in key order: each round evicts the current oldest window,
    // exactly the §1 sliding-window warehouse shape. Fresh keys are larger
    // than every generated one, so the key order is the generated keys,
    // sorted, then the refills in insertion order.
    let window = rows / WINDOWS;
    let mut victims: Vec<Key> = TableSpec::paper_scaled()
        .with_rows(rows)
        .generate_rows()
        .iter()
        .map(|r| r.attr(0))
        .collect();
    victims.sort_unstable();
    victims.extend((0..ROUNDS * window).map(|i| fresh_row(rows, i, 1).attr(0)));

    let mut maintainer = Maintainer::new(MaintenanceConfig::default());
    let mut points = Vec::new();
    let mut cell = |x: &str, label: &str, r: &RunReport| {
        points.push(BenchPoint::from_report("maintain", x, label, r));
    };
    for round in 0..ROUNDS {
        let d = &victims[round * window..(round + 1) * window];
        let x = format!("round {}", round + 1);

        let off = strategy::vertical_sort_merge(&mut db_off, tid, 0, d, 1)?;
        cell(&x, "daemon off", &off.report);
        let on = strategy::vertical_sort_merge(&mut db_on, tid, 0, d, 1)?;
        cell(&x, "daemon on", &on.report);
        let cycle = measured(&mut db_on, "maintenance", |db| maintainer.run_cycle(db))?;
        cell(&x, "maintenance", &cycle);

        // Refill both arms so the live row count never changes; the
        // daemon's arm must satisfy these inserts from recycled pages.
        let fresh: Vec<Tuple> = (0..window)
            .map(|i| fresh_row(rows, round * window + i, n_attrs))
            .collect();
        let refill = |db: &mut Database| -> DbResult<()> {
            fresh.iter().try_for_each(|t| db.insert(tid, t).map(|_| ()))
        };
        cell(&x, "refill off", &measured(&mut db_off, "refill", refill)?);
        cell(&x, "refill on", &measured(&mut db_on, "refill", refill)?);
    }

    // Settling cycles: the last round's inserts have not seen the daemon
    // yet, and packing may need a second pass to converge.
    for x in ["settle 1", "settle 2"] {
        let cycle = measured(&mut db_on, "maintenance", |db| maintainer.run_cycle(db))?;
        cell(x, "maintenance", &cycle);
    }

    for db in [&db_on, &db_off] {
        db.check_consistency(tid)?;
        let cat = audit_catalog(db, tid)?;
        if !cat.is_clean() {
            return Err(DbError::Audit(format!(
                "maintain sweep left a dirty catalog: {:?}",
                cat.findings
            )));
        }
    }

    let fresh_db = fresh_copy(&db_on, tid, rows)?;
    db_on.pool().flush_all().map_err(DbError::from)?;
    db_off.pool().flush_all().map_err(DbError::from)?;
    let space_verdict = verdict(
        space(&db_on),
        space(&db_off),
        space(&fresh_db),
        maintainer.report().pages_reclaimed,
        maintainer.report().cycles,
    )
    .map_err(DbError::Audit)?;

    Ok(ExperimentReport {
        id: "maintain",
        title: format!(
            "steady-state space under a sliding window: {rows} rows, \
             {ROUNDS} rounds of delete-oldest-quarter + refill"
        ),
        x_label: "window round",
        notes: format!(
            "expected: both delete arms cost the same while they delete \
             generated rows (rounds 1-{WINDOWS}; the daemon runs after, not \
             during), and the daemon arm's is cheaper once they delete \
             refilled rows; the maintenance column is the upkeep \
             price and the refill columns the price of inserting the \
             window back; the space verdict is the point\n{space_verdict}\n\
             [steady state held]"
        ),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded end-to-end sweep: the daemon arm plateaus within 10% of
    /// a fresh bulk load while the unmaintained arm leaks (or the
    /// experiment fails), and the verdict rides in the notes.
    #[test]
    fn sliding_window_sweep_reaches_steady_state() {
        let report = maintain_experiment(8_000, 1).expect("steady-state verdict");
        assert_eq!(report.xs().len(), ROUNDS + 2);
        assert_eq!(report.points.len(), 5 * ROUNDS + 2);
        assert!(report.notes.contains("[steady state held]"));
        assert!(report.notes.contains(" reclaimed)"));
        assert!(report
            .notes
            .contains(&format!("{} daemon cycles", ROUNDS + 2)));
        // Upkeep and refill are paid I/O: every measured cycle and refill
        // moved real pages.
        for p in &report.points {
            if p.strategy == "maintenance" || p.strategy.starts_with("refill") {
                assert!(p.sim_minutes > 0.0, "{} {} cost nothing", p.x, p.strategy);
            }
        }
    }

    #[test]
    fn verdict_fails_without_a_leak_or_over_budget() {
        let use_of = |in_use, file| SpaceUse { in_use, file };
        let (fresh, off) = (use_of(100, 120), use_of(130, 200));
        assert!(verdict(use_of(110, 150), off, fresh, 40, 6).is_ok());
        let over = verdict(use_of(111, 150), off, fresh, 40, 6).unwrap_err();
        assert!(over.contains("budget 110"), "{over}");
        let no_leak = verdict(use_of(100, 200), off, fresh, 40, 6).unwrap_err();
        assert!(no_leak.contains("no leak"), "{no_leak}");
        assert!(verdict(use_of(100, 150), off, fresh, 0, 6).is_err());
    }
}
