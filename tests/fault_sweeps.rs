//! Tier-1 reach into the one fault harness (`bd_wal::sweep`): a bounded
//! sweep of each fault over each target. The full sweeps — every disk
//! access, both worker counts — live in `crates/wal/tests`.

use bd_bench::erase::{build_warehouse, victim_ids};
use bd_wal::{sweep, BulkDelete, ErasureCampaign, Fault};
use bulk_delete::prelude::*;

const LIMIT: usize = 8;

/// A crash sweep recovers exactly `LIMIT` points (every access is a crash
/// point); a torn-write sweep stops there or at the end of the run, and
/// counts the tears that left no damage separately.
fn assert_bounded(fault: Fault, report: &bd_wal::SweepReport) {
    match fault {
        Fault::Crash => assert_eq!(report.recovered_points, LIMIT, "{report:?}"),
        Fault::TornWrite => {
            assert!((1..=LIMIT).contains(&report.recovered_points), "{report:?}");
            assert!(
                report.recovered_points + report.silent_points >= LIMIT,
                "{report:?}"
            );
        }
    }
}

/// A pool far smaller than the working set, so the run issues real reads
/// and writes to sweep over; B-trees on three attributes and a hash index.
fn table() -> (Database, TableId) {
    let mut db = Database::new(DatabaseConfig::with_total_memory(96 << 10));
    let w = TableSpec::tiny(600).build(&mut db).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(0).unique())
        .unwrap();
    w.attach_index(&mut db, IndexDef::secondary(1)).unwrap();
    w.attach_index(&mut db, IndexDef::secondary(2)).unwrap();
    db.create_hash_index(w.tid, 3).unwrap();
    (db, w.tid)
}

#[test]
fn bulk_delete_recovers_under_both_faults() {
    let d: Vec<u64> = {
        let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 20));
        let w = TableSpec::tiny(600).build(&mut db).unwrap();
        w.a_values.iter().copied().step_by(3).collect()
    };
    for fault in [Fault::Crash, Fault::TornWrite] {
        let mut target = BulkDelete {
            probe_attr: 0,
            d_keys: &d,
            workers: 1,
        };
        let report = sweep(table, &mut target, fault, 0, Some(LIMIT)).unwrap();
        assert_bounded(fault, &report);
        assert_eq!(report.deleted, d.len());
        assert_eq!(report.steps, 1);
        assert!(report.max_rebuilt_per_point <= 1, "{fault:?}: {report:?}");
    }
}

#[test]
fn erasure_campaign_recovers_under_both_faults() {
    const SALES_PER_MONTH: u64 = 12;
    let warehouse = || {
        let (db, sales, _) = build_warehouse(SALES_PER_MONTH, 32 << 10);
        (db, sales)
    };
    let d = victim_ids(1, SALES_PER_MONTH);
    for fault in [Fault::Crash, Fault::TornWrite] {
        let mut target = ErasureCampaign::new(0, &d, 1);
        let report = sweep(warehouse, &mut target, fault, 0, Some(LIMIT)).unwrap();
        assert_bounded(fault, &report);
        assert_eq!(report.steps, 2, "sales + line_items cascade");
        assert!(report.deleted > d.len(), "the cascade reaches line items");
    }
}
