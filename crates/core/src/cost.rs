//! I/O cost estimation for delete plans.
//!
//! §2.1 says the `⋈̄` method/order/predicate decisions are made "by the
//! query optimizer depending on the size of the table/index, the number of
//! records to be deleted, and the size of the main memory buffer pool", and
//! that a dynamic-programming optimizer "can easily be extended for this
//! purpose". This module supplies the cost side of that statement: page-I/O
//! estimates for every `⋈̄` method and for the traditional plan, priced
//! through the same [`CostModel`] the simulated disk charges, so estimated
//! and measured simulated time are directly comparable.

use bd_storage::{CostModel, PAGE_SIZE};

use crate::catalog::{HashIdx, Index, Table};
use crate::error::{DbError, DbResult};
use crate::plan::{DeletePlan, IndexMethod, TableMethod};

/// Pages moved per chained I/O (mirrors the scan chunk used by the
/// executors).
const CHAIN: f64 = 8.0;

/// An I/O estimate, decomposed the same way [`bd_storage::DiskStats`]
/// reports measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostEstimate {
    /// Estimated page transfers (reads).
    pub pages_read: f64,
    /// Estimated page transfers (writes).
    pub pages_written: f64,
    /// Estimated positioning operations (random accesses).
    pub positionings: f64,
}

impl CostEstimate {
    /// Price this estimate in simulated milliseconds under `cm`.
    pub fn sim_ms(&self, cm: &CostModel) -> f64 {
        self.positionings * cm.positioning_ms()
            + (self.pages_read + self.pages_written) * cm.transfer_ms
    }

    /// Component-wise sum.
    pub fn plus(self, other: CostEstimate) -> CostEstimate {
        CostEstimate {
            pages_read: self.pages_read + other.pages_read,
            pages_written: self.pages_written + other.pages_written,
            positionings: self.positionings + other.positionings,
        }
    }
}

/// Table- and workload-level quantities the formulas share.
#[derive(Debug, Clone, Copy)]
pub struct CostEnv {
    /// Records to delete.
    pub n_delete: usize,
    /// Live records in the table.
    pub n_rows: usize,
    /// Heap pages.
    pub heap_pages: usize,
    /// Sort/hash workspace bytes.
    pub workspace_bytes: usize,
    /// Buffer-pool bytes (drives cache-hit estimates for the traditional
    /// plan and the write-back turn-overs of a sweep).
    pub pool_bytes: usize,
}

impl CostEnv {
    /// Derive the environment from a table.
    pub fn of(table: &Table, n_delete: usize, workspace_bytes: usize, pool_bytes: usize) -> Self {
        CostEnv {
            n_delete,
            n_rows: table.heap.len(),
            heap_pages: table.heap.num_pages().max(1),
            workspace_bytes: workspace_bytes.max(1),
            pool_bytes,
        }
    }

    /// Deleted fraction of the table.
    fn fraction(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            (self.n_delete as f64 / self.n_rows as f64).min(1.0)
        }
    }

    /// Expected fraction of pages holding `per_page` records that contain
    /// at least one victim: `1 - (1 - f)^per_page`.
    fn affected(&self, per_page: f64) -> f64 {
        1.0 - (1.0 - self.fraction()).powf(per_page)
    }
}

fn leaves_of(index: &Index) -> f64 {
    (index.tree.len() as f64 / index.def.config.leaf_cap as f64).max(1.0)
}

/// Pages in a hash index's chains, from the catalog alone: every bucket's
/// chain is as long as an even spread of the entries makes it.
fn chain_pages_of(h: &HashIdx) -> f64 {
    let buckets = h.index.n_buckets() as f64;
    let per_bucket = h.index.len() as f64 / buckets;
    buckets * (per_bucket / bd_hashidx::BUCKET_CAP as f64).ceil().max(1.0)
}

/// One direction of a sorted sweep over a `span` of pages that wants the
/// fraction `want` of them: `(pages moved, positionings)`.
///
/// Read-ahead and write-behind chain the same way. A chain runs on over
/// unwanted pages while the gap is no longer than the cost model's
/// breakeven `g` ([`CostModel::breakeven_pages`]) and ends at a longer one.
/// With gaps geometric in `r = 1 - want`, the share of unwanted pages that
/// sit in bridged gaps is `1 - (g+1)·r^g + g·r^(g+1)`, and a wanted page
/// follows an unbridged gap with probability `r^(g+1)`. Down to a few
/// percent wanted that is the whole span in one chain; a handful of victims
/// in a large table degrade to one positioned page each.
fn chained(span: f64, want: f64, cm: &CostModel) -> (f64, f64) {
    let g = cm.breakeven_pages() as f64;
    let r = 1.0 - want;
    let bridged = 1.0 - (g + 1.0) * r.powf(g) + g * r.powf(g + 1.0);
    (span * (want + r * bridged), span * want * r.powf(g + 1.0))
}

/// A sorted sweep over `span` pages that pins the fraction `pinned` of them
/// (1.0 for a scan or a leaf walk) and dirties the fraction `dirty`: the
/// pinned pages come in by chained read-ahead, the dirty ones leave by
/// chained write-behind, both bridging short gaps. The pool turns over once
/// per pool-full of pages read, and each turn-over moves the head to the
/// write-back and back to the sweep: one positioning pair.
fn sweep(span: f64, pinned: f64, dirty: f64, env: &CostEnv) -> CostEstimate {
    let cm = CostModel::default();
    let (pages_read, read_breaks) = chained(span, pinned, &cm);
    let (pages_written, write_breaks) = chained(span, dirty, &cm);
    let pool_pages = (env.pool_bytes as f64 / PAGE_SIZE as f64).max(1.0);
    CostEstimate {
        pages_read,
        pages_written,
        positionings: read_breaks + write_breaks + 2.0 * pages_read / pool_pages,
    }
}

/// Cost of sorting `items` fixed-size records under the workspace budget
/// (zero I/O when everything fits in memory; two sequential passes per
/// merge level otherwise).
pub fn sort_cost(items: usize, item_bytes: usize, env: &CostEnv) -> CostEstimate {
    let bytes = items * item_bytes;
    if bytes <= env.workspace_bytes {
        return CostEstimate::default();
    }
    let pages = (bytes as f64 / PAGE_SIZE as f64).ceil();
    let runs = (bytes as f64 / env.workspace_bytes as f64).ceil();
    let fan_in = (env.workspace_bytes as f64 / (32.0 * 1024.0)).max(2.0);
    let levels = 1.0 + (runs.ln() / fan_in.ln()).ceil().max(0.0);
    CostEstimate {
        pages_read: pages * levels,
        pages_written: pages * levels,
        positionings: 2.0 * levels * pages / CHAIN,
    }
}

/// Cost of one `⋈̄` over an index with the given method.
pub fn index_bd_cost(index: &Index, method: IndexMethod, env: &CostEnv) -> CostEstimate {
    let leaves = leaves_of(index);
    let per_leaf = index.def.config.leaf_cap as f64;
    let dirty = env.affected(per_leaf);
    match method {
        IndexMethod::SortMerge { presort } => {
            // Random keys span the whole leaf level: the merge pass visits
            // every leaf.
            let sort = if presort {
                sort_cost(env.n_delete, 16, env)
            } else {
                CostEstimate::default()
            };
            sort.plus(sweep(leaves, 1.0, dirty, env))
        }
        IndexMethod::ClassicHash => {
            // Full leaf scan probing the shared RID hash table.
            sweep(leaves, 1.0, dirty, env)
        }
        IndexMethod::PartitionedHash { partitions } => {
            // Each partition descends once, then scans its leaf range.
            let descents = partitions as f64 * (index.tree.height() as f64 - 1.0);
            sweep(leaves, 1.0, dirty, env).plus(CostEstimate {
                pages_read: descents,
                pages_written: 0.0,
                positionings: descents,
            })
        }
    }
}

/// Cost of the base-table `⋈̄`.
pub fn table_bd_cost(table_method: TableMethod, env: &CostEnv) -> CostEstimate {
    let per_page = env.n_rows as f64 / env.heap_pages as f64;
    let dirty = env.affected(per_page);
    match table_method {
        TableMethod::Merge { presort } => {
            // Only affected pages are pinned.
            let sort = if presort {
                sort_cost(env.n_delete, 16, env)
            } else {
                CostEstimate::default()
            };
            sort.plus(sweep(env.heap_pages as f64, dirty, dirty, env))
        }
        TableMethod::HashProbe => sweep(env.heap_pages as f64, 1.0, dirty, env),
    }
}

/// Cost of one hash index's bucket sweep: the chain pages that hold a
/// victim are pinned, and every pinned page is dirtied.
fn hash_bd_cost(h: &HashIdx, env: &CostEnv) -> CostEstimate {
    let pages = chain_pages_of(h);
    let hit = env.affected(h.index.len() as f64 / pages);
    sweep(pages, hit, hit, env)
}

/// Estimated cost of a whole vertical plan (probe-index key merge + table
/// step + one `⋈̄` per downstream index + one sweep per hash index).
pub fn plan_cost(table: &Table, plan: &DeletePlan, env: &CostEnv) -> DbResult<CostEstimate> {
    let probe = table
        .index_on(plan.probe_attr)
        .ok_or(DbError::NoProbeIndex {
            attr: plan.probe_attr,
        })?;
    // Sort D (8-byte keys), then key-merge over the probe index.
    let mut total = sort_cost(env.n_delete, 8, env);
    total = total.plus(index_bd_cost(
        probe,
        IndexMethod::SortMerge { presort: false },
        env,
    ));
    total = total.plus(table_bd_cost(plan.table, env));
    for step in &plan.index_steps {
        let index = table
            .index_on(step.attr)
            .ok_or(DbError::NoSuchIndex { attr: step.attr })?;
        total = total.plus(index_bd_cost(index, step.method, env));
    }
    for h in &table.hash_indices {
        total = total.plus(hash_bd_cost(h, env));
    }
    Ok(total)
}

/// Estimated cost of the traditional (horizontal) plan: one probe-index
/// descent per key, a random heap read+write per record, one root-to-leaf
/// traversal per index per record and one chain walk per hash index per
/// record. Sorting D first converts the probe-leaf accesses into a
/// near-sequential sweep.
pub fn horizontal_cost(table: &Table, presort: bool, env: &CostEnv) -> CostEstimate {
    let n = env.n_delete as f64;
    // The pool is shared by every index's leaves or chains plus the heap's
    // hot set; credit each structure a proportional slice.
    let structures = table.indices.len() + table.hash_indices.len() + 1;
    let pool_pages = (env.pool_bytes as f64 / PAGE_SIZE as f64).max(1.0) / structures as f64;
    let mut total = if presort {
        sort_cost(env.n_delete, 8, env)
    } else {
        CostEstimate::default()
    };
    for index in &table.indices {
        let leaves = leaves_of(index);
        // Inner nodes stay cached; leaf hit rate depends on pool size (and
        // on sortedness for the probe index's access pattern).
        let probe_like = presort && index.def.attr == 0;
        let leaf_miss = if probe_like || index.def.clustered {
            // Sorted keys walk the leaves nearly in order: each leaf is
            // missed once.
            (leaves / n).min(1.0)
        } else {
            (1.0 - pool_pages / leaves).max(0.0)
        };
        let per_leaf = index.def.config.leaf_cap as f64;
        let dirty_leaves = leaves * env.affected(per_leaf);
        total = total.plus(CostEstimate {
            pages_read: n * leaf_miss,
            pages_written: dirty_leaves,
            positionings: n * leaf_miss + dirty_leaves / CHAIN,
        });
    }
    for h in &table.hash_indices {
        // A walk that misses reads its chain page and evicts a page an
        // earlier walk dirtied: one positioned read and write each.
        let miss = n * (1.0 - pool_pages / chain_pages_of(h)).max(0.0);
        total = total.plus(CostEstimate {
            pages_read: miss,
            pages_written: miss,
            positionings: 2.0 * miss,
        });
    }
    // Heap: a random read per record (sorted D does not sort RIDs), plus
    // clustered write-back of affected pages.
    let per_page = env.n_rows as f64 / env.heap_pages as f64;
    let heap_hit = (pool_pages / env.heap_pages as f64).min(1.0);
    let affected = env.heap_pages as f64 * env.affected(per_page);
    total.plus(CostEstimate {
        pages_read: n * (1.0 - heap_hit),
        pages_written: affected,
        positionings: n * (1.0 - heap_hit) + affected / CHAIN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_pricing_matches_components() {
        let e = CostEstimate {
            pages_read: 100.0,
            pages_written: 50.0,
            positionings: 10.0,
        };
        let cm = CostModel::default();
        let expect = 10.0 * cm.positioning_ms() + 150.0 * cm.transfer_ms;
        assert!((e.sim_ms(&cm) - expect).abs() < 1e-9);
    }

    #[test]
    fn sort_cost_zero_when_in_memory() {
        let env = CostEnv {
            n_delete: 1000,
            n_rows: 10_000,
            heap_pages: 100,
            workspace_bytes: 1 << 20,
            pool_bytes: 1 << 20,
        };
        assert_eq!(sort_cost(1000, 8, &env), CostEstimate::default());
        // Spilling sorts cost more with more data.
        let small = sort_cost(200_000, 8, &env);
        let big = sort_cost(800_000, 8, &env);
        assert!(big.pages_read > small.pages_read);
    }

    #[test]
    fn chained_sweep_spans_dense_plans_and_positions_sparse_ones() {
        let cm = CostModel::default();
        // Every third page wanted: gaps of two are always bridged, the
        // whole span moves and no chain ends.
        let (pages, breaks) = chained(9_000.0, 1.0 / 3.0, &cm);
        assert!((pages - 9_000.0).abs() < 1.0, "{pages}");
        assert!(breaks < 0.1, "{breaks}");
        // One page in a thousand: nothing is bridged, each wanted page is
        // its own positioned access.
        let (pages, breaks) = chained(9_000.0, 0.001, &cm);
        assert!((9.0..14.0).contains(&pages), "{pages}");
        assert!((8.5..9.0).contains(&breaks), "{breaks}");
        // Nothing wanted, nothing moved; everything wanted, one chain.
        assert_eq!(chained(9_000.0, 0.0, &cm), (0.0, 0.0));
        assert_eq!(chained(9_000.0, 1.0, &cm), (9_000.0, 0.0));
    }

    #[test]
    fn affected_fraction_saturates() {
        let env = CostEnv {
            n_delete: 5_000,
            n_rows: 10_000,
            heap_pages: 1_250,
            workspace_bytes: 1 << 20,
            pool_bytes: 1 << 20,
        };
        // 50% deletes, 8 records/page => nearly every page affected.
        assert!(env.affected(8.0) > 0.99);
        let env0 = CostEnv { n_delete: 0, ..env };
        assert_eq!(env0.affected(8.0), 0.0);
    }
}
