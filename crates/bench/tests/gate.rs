//! The gate over the whole registry: every experiment runs, and so holds
//! its verdict, at 2 000 rows; every cell has its own identity; and what
//! `--bench-json` writes reads back equal to itself.

use bd_bench::experiments::{self, REGISTRY};
use bd_bench::snapshot::{to_json, Snapshot};

#[test]
fn every_id_round_trips_with_distinct_cell_identities() {
    let reports: Vec<_> = REGISTRY
        .iter()
        .map(|(id, run)| run(2_000, 1).unwrap_or_else(|e| panic!("{id}: {e}")))
        .collect();
    assert_eq!(reports.len(), 10);

    // Each verdict holds from its own `min_rows` on; plans is a grid.
    let min_rows = [
        ("fig1", 2_000),
        ("fig7", 2_000),
        ("fig8", 10_000),
        ("table1", 2_000),
        ("fig9", 10_000),
        ("fig10", 10_000),
        ("erase", 3_000),
        ("maintain", 2_000),
        ("lsm", 20_000),
    ];
    for (r, (id, min)) in reports.iter().zip(min_rows) {
        assert_eq!(r.id, id);
        let outcome = if min <= 2_000 {
            "[verdict held]".to_string()
        } else {
            format!("[verdict skipped below {min} rows]")
        };
        assert!(r.notes.contains(&outcome), "{id}: {}", r.notes);
    }

    let mut seen = std::collections::HashSet::new();
    for p in reports.iter().flat_map(|r| &r.points) {
        let identity = (p.experiment.clone(), p.x.clone(), p.strategy.clone());
        assert!(
            seen.insert(identity),
            "two cells at {}/{}/{}",
            p.experiment,
            p.x,
            p.strategy
        );
    }

    let json = to_json(2_000, 1, &reports);
    let (a, b) = (
        Snapshot::read(&json).unwrap(),
        Snapshot::read(&json).unwrap(),
    );
    assert_eq!(a.ids.len(), 10);
    assert_eq!(a.diff(&b), Vec::<String>::new());
    // One worker, one cell per identity: a re-run can be held to it.
    a.refuse_as_baseline()
        .expect("a one-worker run is a baseline");
}

#[test]
fn fig8_parallel_crit_path_beats_serial_clock() {
    let parallel = experiments::fig8(2_000, 3).unwrap();
    // With 3 indices the fan-out group has two concurrent arms, so the
    // critical path is strictly below the serial clock; with 1 index
    // there is nothing to overlap and the clocks agree.
    let crit3 = parallel.cell("3", "bulk delete crit").unwrap();
    let serial3 = parallel.cell("3", "bulk delete").unwrap();
    assert!(
        crit3 < serial3,
        "critical path must be strictly below serial ({crit3} !< {serial3})"
    );
    let crit1 = parallel.cell("1", "bulk delete crit").unwrap();
    let serial1 = parallel.cell("1", "bulk delete").unwrap();
    assert!((crit1 - serial1).abs() < 1e-9, "no arms, no overlap");
}
