//! Crash recovery (§3.2): a bulk delete crashes halfway through its index
//! passes; restart *finishes* the deletion (roll-forward) instead of
//! rolling it back, then applies the pending side-file.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use bulk_delete::prelude::*;

use bd_txn::SideOp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new(DatabaseConfig::with_total_memory(2 << 20));
    let tid = db.create_table("R", Schema::new(3, 64));
    db.create_index(tid, IndexDef::secondary(0).unique())?;
    db.create_index(tid, IndexDef::secondary(1))?;
    db.create_index(tid, IndexDef::secondary(2))?;
    let mut victims = Vec::new();
    for i in 0..20_000u64 {
        db.insert(tid, &Tuple::new(vec![i, i % 251, i % 13]))?;
        if i % 4 == 0 {
            victims.push(i);
        }
    }
    println!(
        "loaded 20000 rows; bulk delete of {} rows will crash mid-flight",
        victims.len()
    );

    // An updater inserts a row while index B is offline for the bulk
    // delete: the heap record and the online indices are written directly,
    // and the index-B change is captured in a side-file. §3.2 says the
    // side-file is applied *after* the bulk delete finishes, which during
    // recovery means after the roll-forward. (The logged driver holds the
    // database exclusively while it runs, so the updater goes first here.)
    let new_row = Tuple::new(vec![777_777, 888_888, 5]);
    let rid = {
        let (parts, _, _) = db.parts(tid)?;
        let bytes = parts.schema.encode(&new_row)?;
        let rid = parts.heap.insert(&bytes)?;
        for index in parts.indices.iter_mut() {
            if index.def.attr != 1 {
                index.tree.insert(new_row.attr(index.def.attr), rid)?;
            }
        }
        rid
    };
    let pending = vec![(
        1usize,
        vec![SideOp::Insert {
            key: new_row.attr(1),
            rid,
        }],
    )];

    // Run with a crash injected in the middle of the first secondary-index
    // pass: the probe index and the table are already done, the index pass
    // is half-flushed, and nothing about it is in the log.
    let log = LogManager::new();
    let crash = CrashInjector::at(CrashSite::MidStructure(2));
    let err = run_bulk_delete(&mut db, tid, 0, &victims, &log, crash).unwrap_err();
    println!("crashed as injected: {err}");
    println!("log holds {} records ({} bytes)", log.len(), log.byte_len());

    // Power failure: the buffer pool's dirty pages are gone, and so are the
    // table's in-memory counters.
    db.pool().crash();
    db.scramble_counters(tid)?;
    println!("volatile state discarded; only the disk and the log survive");

    let finished = recover(&mut db, tid, &log, &pending)?;
    println!("recovery rolled the bulk delete FORWARD: {finished} rows completed");

    db.check_consistency(tid)?;
    let remaining = db.table(tid)?.heap.len();
    assert_eq!(remaining, 20_000 - victims.len() + 1);
    println!("state matches a crash-free run: {remaining} rows, all indices consistent");

    // The side-file op landed, after the deletions.
    let table = db.table(tid)?;
    let hit = table.index_on(1).unwrap().tree.search(new_row.attr(1))?;
    assert_eq!(hit, vec![rid]);
    println!("pending side-file entry applied last, as the paper prescribes");

    // A second restart finds a committed log: recovery is a no-op.
    db.pool().crash();
    assert_eq!(recover(&mut db, tid, &log, &[])?, 0);
    println!("second restart: nothing to do (bulk delete committed)");
    Ok(())
}
