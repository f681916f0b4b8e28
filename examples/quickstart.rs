//! Quickstart: create a table with indices, run a bulk `DELETE ... WHERE A
//! IN (...)` under the sort/merge plan, and compare against the traditional
//! record-at-a-time executor.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bulk_delete::prelude::*;

fn main() -> DbResult<()> {
    // One simulated database per strategy so each starts from the same
    // physical state.
    let build = || -> DbResult<(Database, TableId, Vec<Key>)> {
        let mut db = Database::new(DatabaseConfig::with_total_memory(2 << 20));
        let tid = db.create_table("R", Schema::new(4, 128));
        db.create_index(tid, IndexDef::secondary(0).unique())?; // I_A (key)
        db.create_index(tid, IndexDef::secondary(1))?; // I_B
        db.create_index(tid, IndexDef::secondary(2))?; // I_C
        let mut d = Vec::new();
        for i in 0..50_000u64 {
            // A unique; B, C, D with duplicates.
            db.insert(tid, &Tuple::new(vec![i * 2, i % 997, i % 83, i % 7]))?;
            if i % 5 == 0 {
                d.push(i * 2); // delete 20% of the rows
            }
        }
        Ok((db, tid, d))
    };

    // Traditional horizontal delete (what most systems do).
    let (mut db, tid, d) = build()?;
    let trad = strategy::horizontal(&mut db, tid, 0, &d, false)?;
    db.check_consistency(tid)?;
    println!("{}", trad.report.summary());

    // Vertical bulk delete under the sort/merge plan.
    let (mut db, tid, d) = build()?;
    let plan = bd_core::plan_sort_merge(db.table(tid)?, 0)?;
    let bulk = strategy::vertical(&mut db, tid, &d, &plan, ReorgPolicy::FreeAtEmpty, 1)?;
    db.check_consistency(tid)?;
    println!("{}", bulk.report.summary());
    println!("\n{}", plan.render(db.table(tid)?));

    let speedup = trad.report.sim_ms() / bulk.report.sim_ms();
    println!("vertical bulk delete is {speedup:.1}x faster (simulated time)");
    assert_eq!(trad.deleted.len(), bulk.deleted.len());
    Ok(())
}
