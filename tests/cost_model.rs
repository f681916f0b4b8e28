//! Cost-model accuracy tests: the optimizer's estimates must track the
//! measured simulated time closely enough to rank plans correctly.

use bulk_delete::prelude::*;

use bd_core::{horizontal_cost, plan_cost, plan_delete_costed, plan_sort_merge, CostEnv};
use bd_workload::TableSpec;

fn build(n: usize, n_secondary: usize, mem: usize) -> (Database, bd_workload::Workload) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(mem));
    let w = TableSpec::paper_scaled()
        .with_rows(n)
        .with_seed(5)
        .build(&mut db)
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    for a in 1..=n_secondary {
        w.attach_index(&mut db, IndexDef::secondary(a)).unwrap();
    }
    (db, w)
}

fn env(db: &Database, tid: TableId, n_delete: usize) -> CostEnv {
    CostEnv::of(
        db.table(tid).unwrap(),
        n_delete,
        db.workspace().capacity(),
        db.pool().capacity() * 4096,
    )
}

/// |log2(estimate / measured)| <= log2(limit)
fn within_factor(estimate: f64, measured: f64, limit: f64) -> bool {
    estimate <= measured * limit && measured <= estimate * limit
}

/// Estimate the sort/merge vertical plan on `db`, run it, and hold the two
/// within the factor.
fn check_vertical(mut db: Database, w: &bd_workload::Workload, frac: f64) {
    let d = w.delete_set(frac, 9);
    let plan = plan_sort_merge(db.table(w.tid).unwrap(), 0).unwrap();
    let est = plan_cost(db.table(w.tid).unwrap(), &plan, &env(&db, w.tid, d.len()))
        .unwrap()
        .sim_ms(&CostModel::default());
    let out = bd_core::strategy::vertical(&mut db, w.tid, &d, &plan, ReorgPolicy::FreeAtEmpty, 1)
        .unwrap();
    let measured = out.report.sim_ms();
    assert!(
        within_factor(est, measured, 3.0),
        "vertical at {frac}: estimated {est:.0} ms vs measured {measured:.0} ms"
    );
}

/// The same for the horizontal plan.
fn check_horizontal(mut db: Database, w: &bd_workload::Workload, frac: f64, presort: bool) {
    let d = w.delete_set(frac, 9);
    let est = horizontal_cost(db.table(w.tid).unwrap(), presort, &env(&db, w.tid, d.len()))
        .sim_ms(&CostModel::default());
    let out = bd_core::strategy::horizontal(&mut db, w.tid, 0, &d, presort).unwrap();
    let measured = out.report.sim_ms();
    assert!(
        within_factor(est, measured, 3.0),
        "horizontal at {frac}, presort {presort}: estimated {est:.0} ms vs measured {measured:.0} ms"
    );
}

#[test]
fn vertical_estimate_tracks_measurement() {
    for frac in [0.05, 0.20] {
        let (db, w) = build(20_000, 2, 1 << 20);
        check_vertical(db, &w, frac);
    }
}

#[test]
fn horizontal_estimate_tracks_measurement() {
    for presort in [false, true] {
        let (db, w) = build(20_000, 1, 1 << 20);
        check_horizontal(db, &w, 0.15, presort);
    }
}

/// One B-tree and one hash index behind a pool the chains do not fit in:
/// the hash arm is most of the horizontal clock and none of it may be
/// missing from either estimate.
#[test]
fn estimates_price_the_hash_index() {
    let hashed = || {
        let (mut db, w) = build(20_000, 0, 256 << 10);
        db.create_hash_index(w.tid, 1).unwrap();
        (db, w)
    };
    for frac in [0.01, 0.05, 0.15] {
        let (db, w) = hashed();
        check_vertical(db, &w, frac);
        let (db, w) = hashed();
        check_horizontal(db, &w, frac, true);
    }
}

#[test]
fn estimates_rank_vertical_far_below_horizontal() {
    let (db, w) = build(20_000, 2, 1 << 20);
    let d_len = 3_000;
    let e = env(&db, w.tid, d_len);
    let cm = CostModel::default();
    let plan = plan_sort_merge(db.table(w.tid).unwrap(), 0).unwrap();
    let vertical = plan_cost(db.table(w.tid).unwrap(), &plan, &e)
        .unwrap()
        .sim_ms(&cm);
    let horizontal = horizontal_cost(db.table(w.tid).unwrap(), false, &e).sim_ms(&cm);
    assert!(
        vertical * 3.0 < horizontal,
        "optimizer must see the order-of-magnitude gap: {vertical:.0} vs {horizontal:.0}"
    );
}

#[test]
fn costed_planner_returns_executable_cheapest_plan() {
    let (mut db, w) = build(10_000, 2, 1 << 20);
    let d = w.delete_set(0.10, 3);
    let (plan, estimate) = plan_delete_costed(
        db.table(w.tid).unwrap(),
        0,
        d.len(),
        db.workspace().capacity(),
        db.pool().capacity() * 4096,
    )
    .unwrap();
    assert!(estimate.pages_read > 0.0);
    let out = bd_core::strategy::vertical(&mut db, w.tid, &d, &plan, ReorgPolicy::FreeAtEmpty, 1)
        .unwrap();
    assert_eq!(out.deleted.len(), d.len());
    db.check_consistency(w.tid).unwrap();
    // The cost-based choice is at least as cheap (by its own estimate) as
    // forced sort/merge.
    let e = env(&db, w.tid, d.len());
    let cm = CostModel::default();
    let sm = plan_sort_merge(db.table(w.tid).unwrap(), 0).unwrap();
    let sm_cost = plan_cost(db.table(w.tid).unwrap(), &sm, &e)
        .unwrap()
        .sim_ms(&cm);
    let chosen_cost = plan_cost(db.table(w.tid).unwrap(), &plan, &e)
        .unwrap()
        .sim_ms(&cm);
    assert!(chosen_cost <= sm_cost * 1.0001);
}

#[test]
fn estimates_scale_with_delete_fraction_for_horizontal() {
    let (db, w) = build(10_000, 1, 1 << 20);
    let cm = CostModel::default();
    let small = horizontal_cost(db.table(w.tid).unwrap(), false, &env(&db, w.tid, 500)).sim_ms(&cm);
    let large =
        horizontal_cost(db.table(w.tid).unwrap(), false, &env(&db, w.tid, 2_000)).sim_ms(&cm);
    assert!(large > 2.0 * small, "horizontal cost must grow ~linearly");
}
