//! Full-paper-scale smoke test (1,000,000 × 512 B). Ignored by default —
//! run with `cargo test --release -- --ignored` (about a minute per
//! experiment on a laptop). `fig7` holds its own shape verdict as it runs;
//! this test adds the paper's absolute numbers.

use bd_bench::experiments;

#[test]
#[ignore = "full paper scale: ~1 minute in release, far slower in debug"]
fn fig7_at_paper_scale_matches_paper_shape() {
    let r = experiments::fig7(1_000_000, 1).unwrap();
    // Paper's Table 1 column (the 15% point of Fig. 7, in minutes):
    // sorted/trad 64.65, not sorted/trad 102.05, bulk 24.87.
    let sorted = r.cell("15%", "sorted/trad").unwrap();
    let notsorted = r.cell("15%", "not sorted/trad").unwrap();
    let bulk = r.cell("15%", "bulk delete").unwrap();
    assert!(
        (sorted - 64.65).abs() / 64.65 < 0.5,
        "sorted/trad at 15%: measured {sorted:.1} min vs paper 64.65"
    );
    assert!(
        (notsorted - 102.05).abs() / 102.05 < 0.5,
        "not-sorted/trad at 15%: measured {notsorted:.1} min vs paper 102.05"
    );
    // Our bulk is faster than the paper's (leaf-skipping merge); it must
    // still be the clear winner and stay under the paper's own number.
    assert!(bulk < sorted / 2.0);
    assert!(bulk < 24.87 * 1.5);
}
