//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * reorganization policy during bulk deletion (§2.3): none vs
//!   free-at-empty vs full leaf compaction;
//! * the `⋈̄` method on secondary indices (§2.2): sort/merge vs classic
//!   hash vs partitioned hash;
//! * the base-table `⋈̄` method: sorted merge vs hash probe;
//! * chained prefetch: bulk delete over a contiguous (freshly loaded) leaf
//!   extent vs a fragmented tree.

mod common;

use bd_bench::{prepare, PointConfig, StrategyKind};
use bd_btree::ReorgPolicy;
use bd_core::{strategy, DeletePlan, IndexMethod, IndexStep, TableMethod};
use common::{tune, BENCH_ROWS};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn plan(method: IndexMethod, table: TableMethod) -> DeletePlan {
    DeletePlan {
        probe_attr: 0,
        table,
        index_steps: vec![IndexStep { attr: 1, method }, IndexStep { attr: 2, method }],
    }
}

fn bench_reorg(c: &mut Criterion) {
    let cfg = PointConfig {
        n_secondary: 2,
        ..PointConfig::base(BENCH_ROWS)
    };
    let mut g = c.benchmark_group("ablation_reorg");
    tune(&mut g);
    for (name, policy) in [
        ("none", ReorgPolicy::None),
        ("free-at-empty", ReorgPolicy::FreeAtEmpty),
        ("compact-leaves", ReorgPolicy::CompactLeaves),
        ("base-node-pack", ReorgPolicy::BaseNodePack),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || prepare(&cfg, 0.5),
                |(mut db, tid, d)| {
                    let p = bd_core::plan_sort_merge(db.table(tid).unwrap(), 0).unwrap();
                    strategy::vertical(&mut db, tid, &d, &p, policy, 1).unwrap();
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn bench_index_method(c: &mut Criterion) {
    // Classic hash needs the RID set to fit the workspace: give this group
    // the paper's roomiest budget (the method comparison, not memory
    // starvation, is the subject here).
    let cfg = PointConfig {
        n_secondary: 2,
        paper_mem_mb: 40.0,
        ..PointConfig::base(BENCH_ROWS)
    };
    let mut g = c.benchmark_group("ablation_index_method");
    tune(&mut g);
    for (name, method) in [
        ("sort-merge", IndexMethod::SortMerge { presort: true }),
        ("classic-hash", IndexMethod::ClassicHash),
        (
            "partitioned-hash",
            IndexMethod::PartitionedHash { partitions: 4 },
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || prepare(&cfg, 0.15),
                |(mut db, tid, d)| {
                    let p = plan(method, TableMethod::Merge { presort: true });
                    strategy::vertical(&mut db, tid, &d, &p, ReorgPolicy::FreeAtEmpty, 1).unwrap();
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn bench_table_method(c: &mut Criterion) {
    // The hash-probe table step needs its RID set to fit the workspace.
    let cfg = PointConfig {
        n_secondary: 0,
        paper_mem_mb: 40.0,
        ..PointConfig::base(BENCH_ROWS)
    };
    let mut g = c.benchmark_group("ablation_table_method");
    tune(&mut g);
    for (name, table) in [
        ("sorted-merge", TableMethod::Merge { presort: true }),
        ("hash-probe", TableMethod::HashProbe),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || prepare(&cfg, 0.15),
                |(mut db, tid, d)| {
                    let p = DeletePlan {
                        probe_attr: 0,
                        table,
                        index_steps: vec![],
                    };
                    strategy::vertical(&mut db, tid, &d, &p, ReorgPolicy::FreeAtEmpty, 1).unwrap();
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn bench_prefetch(c: &mut Criterion) {
    let cfg = PointConfig::base(BENCH_ROWS);
    let mut g = c.benchmark_group("ablation_chained_prefetch");
    tune(&mut g);
    for fragmented in [false, true] {
        let name = if fragmented {
            "fragmented-leaves"
        } else {
            "contiguous-leaves"
        };
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let (mut db, tid, d) = prepare(&cfg, 0.15);
                    if fragmented {
                        // One insert past a full leaf splits it, clearing
                        // the contiguous extent => no chained prefetch.
                        let t = db.table_mut(tid).unwrap();
                        let idx = t.index_on_mut(0).unwrap();
                        idx.tree.insert(1, bd_storage::Rid::new(0, 0)).unwrap();
                        idx.tree.delete_one(1, bd_storage::Rid::new(0, 0)).unwrap();
                        assert!(!t.index_on(0).unwrap().tree.has_contiguous_leaves());
                    }
                    (db, tid, d)
                },
                |(mut db, tid, d)| {
                    StrategyKind::Bulk.run(&mut db, tid, &d).unwrap();
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn bench_hash_index_sweep(c: &mut Criterion) {
    // The paper's prototype updates non-B-tree indices "in the traditional
    // way" even inside a vertical bulk delete; here each hash index is one
    // bucket-ordered sweep. Measure what two of them add to the statement.
    let cfg = PointConfig {
        n_secondary: 1,
        ..PointConfig::base(BENCH_ROWS)
    };
    let mut g = c.benchmark_group("ablation_hash_index_sweep");
    tune(&mut g);
    for n_hash in [0usize, 2] {
        g.bench_function(format!("{n_hash}-hash-indices"), |b| {
            b.iter_batched(
                || {
                    let (mut db, tid, d) = prepare(&cfg, 0.15);
                    for attr in 0..n_hash {
                        db.create_hash_index(tid, 2 + attr).unwrap();
                    }
                    (db, tid, d)
                },
                |(mut db, tid, d)| {
                    StrategyKind::Bulk.run(&mut db, tid, &d).unwrap();
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_reorg,
    bench_index_method,
    bench_table_method,
    bench_prefetch,
    bench_hash_index_sweep
);
criterion_main!(benches);
