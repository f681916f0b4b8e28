//! Shape tests: at a reduced scale, each experiment must exhibit the
//! qualitative behaviour the paper reports. These guard the reproduction
//! against regressions in the cost model or the strategies.

use bd_bench::experiments;

const ROWS: usize = 10_000;

#[test]
fn fig1_traditional_grows_drop_create_flatter() {
    let r = experiments::fig1(ROWS, 1).unwrap();
    let trad_1 = r.value("1%", "sorted/trad");
    let trad_15 = r.value("15%", "sorted/trad");
    let dc_1 = r.value("1%", "drop&create");
    let dc_15 = r.value("15%", "drop&create");
    assert!(trad_15 > 8.0 * trad_1, "traditional must grow sharply");
    // drop&create grows with the (1-index) delete portion but much more
    // slowly than the 3-index traditional plan, and wins decisively at
    // higher fractions.
    assert!(
        dc_15 / dc_1 < trad_15 / trad_1,
        "drop&create must grow more slowly than traditional"
    );
    assert!(dc_15 * 2.0 < trad_15, "drop&create wins clearly at 15%");
}

#[test]
fn fig7_bulk_dominates_and_gap_grows() {
    let r = experiments::fig7(ROWS, 1).unwrap();
    for x in ["5%", "10%", "15%", "20%"] {
        let bulk = r.value(x, "bulk delete");
        let sorted = r.value(x, "sorted/trad");
        let notsorted = r.value(x, "not sorted/trad");
        assert!(bulk < sorted, "{x}: bulk must beat sorted/trad");
        assert!(
            sorted < notsorted,
            "{x}: sorting D must help the traditional plan"
        );
    }
    // The gap grows with the delete fraction, reaching ~an order of
    // magnitude at 20% (paper: "by almost one order of magnitude").
    let gap_5 = r.value("5%", "not sorted/trad") / r.value("5%", "bulk delete");
    let gap_20 = r.value("20%", "not sorted/trad") / r.value("20%", "bulk delete");
    assert!(gap_20 > gap_5, "gap must widen with the delete fraction");
    assert!(
        gap_20 >= 8.0,
        "expected ~order-of-magnitude at 20%, got {gap_20:.1}x"
    );
    // Bulk is roughly flat.
    let bulk_5 = r.value("5%", "bulk delete");
    let bulk_20 = r.value("20%", "bulk delete");
    assert!(bulk_20 < 2.0 * bulk_5, "bulk must stay nearly flat");
}

#[test]
fn fig8_bulk_advantage_grows_with_indices() {
    let r = experiments::fig8(ROWS, 1).unwrap();
    // Traditional grows with index count; bulk nearly flat.
    assert!(r.value("3", "sorted/trad") > 2.0 * r.value("1", "sorted/trad"));
    assert!(r.value("3", "bulk delete") < 1.5 * r.value("1", "bulk delete"));
    // The paper's prototype finding: drop/create (record-at-a-time
    // rebuild) is the worst series once secondary indices exist.
    for x in ["2", "3"] {
        let dc = r.value(x, "drop/create");
        assert!(dc > r.value(x, "sorted/trad"), "{x} indices");
        assert!(dc > r.value(x, "not sorted/trad"), "{x} indices");
    }
    // Bulk wins everywhere.
    for x in ["1", "2", "3"] {
        assert!(r.value(x, "bulk delete") < r.value(x, "sorted/trad") / 3.0);
    }
}

#[test]
fn table1_bulk_height_independent_traditional_not() {
    let r = experiments::table1(ROWS, 1).unwrap();
    let rows = r.xs();
    assert_eq!(rows.len(), 2);
    let (short, tall) = (rows[0].to_string(), rows[1].to_string());
    assert_ne!(short, tall, "the two configurations must differ in height");
    // Bulk: nearly height-independent, and identical with pre-sorted D
    // (paper Table 1 shows the same value for sorted/bulk and bulk).
    let b_short = r.value(&short, "bulk delete");
    let b_tall = r.value(&tall, "bulk delete");
    assert!(
        b_tall < 1.3 * b_short,
        "bulk must be nearly height-independent"
    );
    let sb_short = r.value(&short, "sorted/bulk");
    assert!((sb_short - b_short).abs() / b_short < 0.25);
    // Traditional: grows with height.
    assert!(r.value(&tall, "not sorted/trad") > r.value(&short, "not sorted/trad"));
}

#[test]
fn fig9_bulk_flat_traditional_memory_sensitive() {
    let r = experiments::fig9(ROWS, 1).unwrap();
    let b2 = r.value("2 MB", "bulk delete");
    let b10 = r.value("10 MB", "bulk delete");
    assert!(b2 < 1.5 * b10, "bulk must work with very little memory");
    // not-sorted/trad improves with memory.
    assert!(r.value("2 MB", "not sorted/trad") > r.value("10 MB", "not sorted/trad"));
    // Ordering holds at every budget.
    for x in ["2 MB", "6 MB", "10 MB"] {
        assert!(r.value(x, "bulk delete") < r.value(x, "sorted/trad"));
        assert!(r.value(x, "sorted/trad") < r.value(x, "not sorted/trad"));
    }
}

#[test]
fn fig10_clustering_is_traditionals_best_case() {
    let r = experiments::fig10(ROWS, 1).unwrap();
    for x in ["6%", "10%", "15%", "20%"] {
        // Clustering helps sorted/trad massively (paper: its best case).
        assert!(
            r.value(x, "sorted/trad/clust") < r.value(x, "sorted/trad/unclust") / 1.5,
            "{x}: clustering must help the sorted traditional plan"
        );
        // not-sorted/trad stays poor even clustered.
        assert!(r.value(x, "not sorted/trad/clust") > r.value(x, "sorted/trad/clust") * 2.0);
        // Bulk stays competitive with traditional's best case (paper:
        // "performs almost as well"; ours is even faster).
        assert!(r.value(x, "bulk delete") <= r.value(x, "sorted/trad/clust") * 1.5);
    }
}

#[test]
fn fig8_parallel_crit_path_beats_serial_clock() {
    let parallel = experiments::fig8(ROWS, 3).unwrap();
    // (The per-arm cost model is unchanged, but interleaved arms move the
    // simulated disk head differently, so the global serial clock is not
    // bit-identical across worker counts — only the physical end state is.)
    // With 3 indices the fan-out group has two concurrent arms, so the
    // critical path is strictly below the serial clock; with 1 index
    // there is nothing to overlap and the clocks agree.
    let crit3 = parallel.value("3", "bulk delete crit");
    let serial3 = parallel.value("3", "bulk delete");
    assert!(
        crit3 < serial3,
        "critical path must be strictly below serial ({crit3} !< {serial3})"
    );
    let crit1 = parallel.value("1", "bulk delete crit");
    let serial1 = parallel.value("1", "bulk delete");
    assert!((crit1 - serial1).abs() < 1e-9, "no arms, no overlap");
}
