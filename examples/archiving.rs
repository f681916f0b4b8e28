//! Archiving — the paper's motivating application (§1).
//!
//! "Data which are not needed for every-day operations are demoted from the
//! database (disks) to tertiary storage (tapes)." Step 1 selects the
//! victims ("find all orders which were processed more than three months
//! ago"); step 2 — this example — bulk-deletes them, writing the returned
//! rows to an archive.
//!
//! The orders table is indexed on order id (unique), order date, and ship
//! date, so simple single-dimension partitioning would not help (§1.1:
//! "partitioning will not help if some bulk deletes are carried out
//! according to the order date and some ... to the ship date"). Note the
//! extra predicate too: only *fully processed* old orders are archived.
//!
//! ```sh
//! cargo run --release --example archiving
//! ```

use bulk_delete::prelude::*;

const ORDER_ID: usize = 0;
const ORDER_DATE: usize = 1; // day number
const SHIP_DATE: usize = 2;
const STATUS: usize = 3; // 0 = processed, 1 = open

fn main() -> DbResult<()> {
    let mut db = Database::new(DatabaseConfig::with_total_memory(2 << 20));
    let tid = db.create_table("orders", Schema::new(4, 128));
    db.create_index(tid, IndexDef::secondary(ORDER_ID).unique())?;
    db.create_index(tid, IndexDef::secondary(ORDER_DATE))?;
    db.create_index(tid, IndexDef::secondary(SHIP_DATE))?;

    // Three years of orders, ~40 per day; 2% remain open forever.
    let days = 3 * 365u64;
    let mut id = 0u64;
    for day in 0..days {
        for n in 0..40u64 {
            let status = u64::from((id * 7 + n).is_multiple_of(50));
            let ship = day + 1 + (id % 5);
            db.insert(tid, &Tuple::new(vec![id, day, ship, status]))?;
            id += 1;
        }
    }
    println!("orders loaded: {}", db.table(tid)?.heap.len());

    // Step 1 (the archiving query): orders older than ~3 months that are
    // fully processed. We answer it with the order-date index.
    let cutoff = days - 90;
    let table = db.table(tid)?;
    let old_orders = table
        .index_on(ORDER_DATE)
        .unwrap()
        .tree
        .range(0, cutoff - 1)?;
    let mut archive_ids = Vec::new();
    for (_, rid) in old_orders {
        let t = db.get(tid, rid)?;
        if t.attr(STATUS) == 0 {
            archive_ids.push(t.attr(ORDER_ID));
        }
    }
    println!(
        "archiving {} of {} orders (processed, older than day {cutoff})",
        archive_ids.len(),
        db.table(tid)?.heap.len()
    );

    // Step 2: bulk delete by order id; the outcome carries the full rows,
    // which go to the archive ("tape").
    let plan = bd_core::plan_sort_merge(db.table(tid)?, ORDER_ID)?;
    let outcome = strategy::vertical(
        &mut db,
        tid,
        &archive_ids,
        &plan,
        ReorgPolicy::FreeAtEmpty,
        1,
    )?;
    println!("\n{}", plan.render(db.table(tid)?));
    println!("{}", outcome.report.summary());

    let mut tape: Vec<Vec<u8>> = Vec::new();
    let schema = db.table(tid)?.schema;
    for (_, row) in &outcome.deleted {
        tape.push(schema.encode(row)?);
    }
    println!(
        "archived {} orders ({} KB) to tape; {} orders remain online",
        tape.len(),
        tape.len() * schema.record_len / 1024,
        db.table(tid)?.heap.len()
    );

    db.check_consistency(tid)?;
    // Open orders older than the cutoff survived the archive run.
    let survivors = db
        .table(tid)?
        .index_on(ORDER_DATE)
        .unwrap()
        .tree
        .range(0, cutoff - 1)?;
    assert!(!survivors.is_empty(), "open old orders must remain");
    for (_, rid) in survivors {
        assert_eq!(db.get(tid, rid)?.attr(STATUS), 1);
    }
    println!("all remaining pre-cutoff orders are open ones — archive is consistent");
    Ok(())
}
