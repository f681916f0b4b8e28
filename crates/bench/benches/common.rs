//! Shared Criterion scaffolding for the ablation benches.
//!
//! Criterion measures *wall time* at a reduced scale to keep iteration
//! cheap; the `repro` binary regenerates the paper's figures on the
//! simulated clock.

use std::time::Duration;

/// Rows per benchmark point (kept small: Criterion re-runs the setup once
/// per iteration).
pub const BENCH_ROWS: usize = 5_000;

/// Apply fast timing settings (setup dominates, so long measurement
/// windows only multiply table builds).
pub fn tune(g: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
}
