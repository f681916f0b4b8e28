//! The LSM delete's I/O, pinned on `repro lsm`'s 10 % point (20 000 rows,
//! the 5 MB-scaled budget, the experiment's delete list).
//!
//! The write side — every tombstone, flush and compaction the delete
//! triggers — is pinned exactly. Tombstones go in key order, so each
//! memtable flush spans a narrow key range and its compactions rewrite
//! only the runs under it; the pin holds that stream. The read side is
//! bounded: the membership probe is one sorted pass per run, not a
//! positioned read per key.

use bd_bench::lsm::lsm_config;
use bd_bench::mem_bytes;
use bulk_delete::lsm::LsmStats;
use bulk_delete::prelude::*;

const ROWS: usize = 20_000;
const SEED: u64 = 42;

#[test]
fn lsm_delete_writes_are_pinned_and_its_probes_are_batched() {
    let spec = TableSpec::paper_scaled().with_rows(ROWS).with_seed(SEED);
    let rows = spec.generate_rows();
    // `Workload::build` would also fill a heap; the delete list needs only
    // the A values, in row order.
    let w = Workload {
        spec,
        tid: 0,
        a_values: rows.iter().map(|r| r.attr(0)).collect(),
    };
    let d = w.delete_set(0.10, SEED.wrapping_add(1));
    let memory = mem_bytes(5.0, ROWS);
    let mut lsm = LsmTable::new(
        spec.schema(),
        memory,
        lsm_config(memory, spec.schema().record_len),
    );
    lsm.bulk_load(&rows).unwrap();
    let report = lsm.bulk_delete(&d).unwrap();
    let io = &report.io;

    assert_eq!(report.deleted, d.len());
    assert_eq!(io.pages_written, 3_049, "{io:?}");
    assert_eq!(io.random_writes + io.sequential_writes, 64, "{io:?}");
    assert_eq!(
        lsm.lsm_stats(),
        LsmStats {
            memtable: 0,
            levels: 2,
            runs: 23,
            pages: 2586,
            puts: 18_080,
            tombstones: 80,
            flushes: 33,
            compactions: 12,
        }
    );
    assert!(io.random_reads <= 150, "{io:?}");
}
