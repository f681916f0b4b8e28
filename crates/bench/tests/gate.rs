//! The gate over the whole registry: every cell has its own identity, and
//! what `--bench-json` writes reads back equal to itself.

use bd_bench::experiments::REGISTRY;
use bd_bench::snapshot::{to_json, Snapshot};

#[test]
fn every_id_round_trips_with_distinct_cell_identities() {
    let reports: Vec<_> = REGISTRY
        .iter()
        .map(|(id, run)| run(2_000, 1).unwrap_or_else(|e| panic!("{id}: {e}")))
        .collect();
    assert_eq!(reports.len(), 11);

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
