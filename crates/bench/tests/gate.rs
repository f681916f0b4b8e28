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
    assert_eq!(reports.len(), 11);

    // fig8, fig9 and fig10 take their shape from 10 000 rows on.
    let skipped = "[verdict skipped below 10000 rows]";
    for (r, held) in reports.iter().zip([true, true, false, true, false, false]) {
        let outcome = if held { "[verdict held]" } else { skipped };
        assert!(r.notes.ends_with(outcome), "{}: {}", r.id, r.notes);
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
    assert_eq!(a.ids.len(), 11);
    assert_eq!(a.diff(&b), Vec::<String>::new());
    // The live cells carry foreground arrays: fine to write and to read,
    // refused as something a re-run could be held to.
    assert!(a.refuse_as_baseline().unwrap_err().contains("live/"));
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
