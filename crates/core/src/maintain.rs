//! Background maintenance daemon: free-page recycling, incremental leaf
//! packing, and prewarming.
//!
//! A delete-heavy workload leaks space three ways: emptied-but-attached
//! heap pages whose FSM entries go stale, sparse B-tree leaves left behind
//! by free-at-empty reorganization, and catalog-free pages the allocator
//! never reuses (page ids only ever grew before this module). The
//! [`Maintainer`] closes the loop as a *low-priority background service*:
//! its work is cut into small paced rounds — every inner loop calls
//! [`bd_storage::pacer::checkpoint`] between page visits — so a foreground
//! phase can run it in the gaps between its own chunks (see the
//! maintenance hook on the transactional frontend), and a pacer's hook can
//! run work or cancel it at any page boundary.
//!
//! One maintenance **cycle** is:
//!
//! 1. **Heap release** — [`bd_storage::HeapFile::release_empty_pages`]
//!    drops record-free heap pages from the page list *and* the free-space
//!    map (fixing the FSM/catalog drift where `next_fit` could steer an
//!    insert into a released page).
//! 2. **Incremental packing** — an [`IncrementalPacker`] per B-tree index
//!    walks the base level a few subtrees per round, shifting live leaf
//!    entries left in place and freeing emptied trailing leaves. Unlike the
//!    stop-the-world `CompactLeaves`, a round that ends or is cancelled
//!    leaves a consistent packed prefix and the pass resumes behind a key
//!    cursor.
//! 3. **Recycle** — once every packer finished its pass,
//!    [`bd_btree::sweep_detached_inners`] unlinks catalog-free nodes from
//!    the inner sibling chains; any catalog-free page *not* still threaded
//!    into a leaf chain is then durably zeroed and handed to the allocator
//!    ([`bd_storage::BufferPool::reclaim_page`]), so the next allocation
//!    reuses it instead of growing the file. Zero-on-reuse keeps erasure
//!    proofs honest: a recycled page can never resurrect deleted bytes.
//! 4. **Prewarm** — [`bd_btree::BTree::prewarm`] reloads each index's hot
//!    upper levels into the buffer pool, restoring the working set the
//!    delete phase (or a crash) just evicted.
//!
//! The chained-leaf exclusion in step 3 is load-bearing: an all-zero page
//! decodes as an empty leaf whose right sibling is page 0, so a freed leaf
//! still threaded into a live sibling chain must keep its bytes until a
//! later pack pass has rewritten the chain around it. Pages freed *during*
//! a cycle therefore wait at most one more cycle before they recycle.

use std::collections::{HashMap, HashSet};

use bd_btree::{sweep_detached_inners, IncrementalPacker, LeafPages};
use bd_storage::PageId;

use crate::db::{Database, TableId};
use crate::error::{DbError, DbResult};

/// Budgets for one maintenance round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceConfig {
    /// Base subtrees each index's packer advances per round. Smaller values
    /// yield to the foreground more often; the pass just takes more rounds.
    pub pack_subtrees: usize,
    /// Page budget for each index's end-of-cycle prewarm (0 disables it).
    pub prewarm_pages: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            pack_subtrees: 8,
            prewarm_pages: 64,
        }
    }
}

/// Cumulative counters across every round a [`Maintainer`] has run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Rounds run.
    pub rounds: u64,
    /// Full cycles completed (every packer finished, recycle + prewarm ran).
    pub cycles: u64,
    /// Empty heap pages released (page list + FSM entry dropped, page
    /// freed).
    pub heap_pages_released: usize,
    /// Base subtrees packed by the incremental packers.
    pub subtrees_packed: usize,
    /// Leaf and base pages freed by packing.
    pub pack_pages_freed: usize,
    /// Freed inner nodes unlinked from level chains before recycling.
    pub inners_unlinked: usize,
    /// Free pages durably zeroed and returned to the allocator.
    pub pages_reclaimed: usize,
    /// Index pages prewarmed into the buffer pool.
    pub pages_prewarmed: usize,
}

/// The incremental maintenance daemon. Create one per database and call
/// [`Maintainer::run_round`] whenever the foreground has a gap; every round
/// is internally paced, so an installed [`bd_storage::Pacer`]'s hook runs
/// between its page visits and may cancel it there.
#[derive(Debug, Default)]
pub struct Maintainer {
    cfg: MaintenanceConfig,
    /// One resumable pack pass per `(table, indexed attribute)`.
    packers: HashMap<(TableId, usize), IncrementalPacker>,
    report: MaintenanceReport,
}

impl Maintainer {
    /// A fresh daemon with the given round budgets.
    pub fn new(cfg: MaintenanceConfig) -> Self {
        Maintainer {
            cfg,
            ..Maintainer::default()
        }
    }

    /// Cumulative counters so far.
    pub fn report(&self) -> &MaintenanceReport {
        &self.report
    }

    /// Run one bounded maintenance round: release empty heap pages, advance
    /// every unfinished pack pass by the configured subtree budget, and —
    /// when all passes completed — finish the cycle (sweep, recycle,
    /// prewarm) and rewind the packers for the next one. Returns `true`
    /// when this round completed a cycle.
    pub fn run_round(&mut self, db: &mut Database) -> DbResult<bool> {
        self.report.rounds += 1;
        for tid in 0..db.n_tables() {
            self.release_heap(db, tid)?;
        }
        let mut all_done = true;
        for tid in 0..db.n_tables() {
            let attrs: Vec<usize> = db.table(tid)?.indices.iter().map(|i| i.def.attr).collect();
            for attr in attrs {
                if !self.pack_index(db, tid, attr)? {
                    all_done = false;
                }
            }
        }
        if !all_done {
            return Ok(false);
        }
        self.finish_cycle(db)?;
        Ok(true)
    }

    /// Run rounds until a full cycle completes. An installed pacer's hook
    /// runs at each checkpoint inside a round; a hook that returns
    /// [`bd_storage::StorageError::Cancelled`] unwinds the call.
    pub fn run_cycle(&mut self, db: &mut Database) -> DbResult<()> {
        while !self.run_round(db)? {}
        Ok(())
    }

    /// Release record-free heap pages of one table (page list + free-space
    /// map entry dropped, page freed). Detach-only: no live page is
    /// rewritten, so a crash anywhere inside leaves the heap consistent.
    pub fn release_heap(&mut self, db: &mut Database, tid: TableId) -> DbResult<usize> {
        let (parts, _, _) = db.parts(tid)?;
        let released = parts.heap.release_empty_pages().map_err(DbError::Storage)?;
        self.report.heap_pages_released += released.len();
        Ok(released.len())
    }

    /// Advance one index's pack pass by the configured subtree budget.
    /// Returns `true` once the pass has walked its whole base level. Unlike
    /// the other phases this *rewrites live pages without logging them*, so
    /// a durable caller must run it under a WAL maintenance bracket.
    pub fn pack_index(&mut self, db: &mut Database, tid: TableId, attr: usize) -> DbResult<bool> {
        let packer = self.packers.entry((tid, attr)).or_default();
        if packer.is_done() {
            return Ok(true);
        }
        let (parts, _, _) = db.parts(tid)?;
        let tree = &mut parts
            .indices
            .iter_mut()
            .find(|i| i.def.attr == attr)
            .ok_or(DbError::NoProbeIndex { attr })?
            .tree;
        let p = packer
            .step(tree, self.cfg.pack_subtrees)
            .map_err(DbError::Storage)?;
        self.report.subtrees_packed += p.subtrees;
        self.report.pack_pages_freed += p.pages_freed;
        Ok(p.done)
    }

    /// Unlink catalog-free nodes from one index's inner sibling chains.
    /// Rewrites live sibling pointers — bracket like [`Maintainer::pack_index`].
    pub fn sweep_index(&mut self, db: &mut Database, tid: TableId, attr: usize) -> DbResult<usize> {
        let table = db.table(tid)?;
        let ix = table
            .indices
            .iter()
            .find(|i| i.def.attr == attr)
            .ok_or(DbError::NoProbeIndex { attr })?;
        let n = sweep_detached_inners(&ix.tree).map_err(DbError::Storage)?;
        self.report.inners_unlinked += n;
        Ok(n)
    }

    /// Durably zero and return to the allocator every catalog-free page not
    /// still threaded into some leaf sibling chain. Only call after every
    /// index's inner chains were swept this cycle. Writes only free pages,
    /// so it needs no bracket: a crash or tear mid-zero leaves a free page
    /// with stale or torn bytes, which the next cycle (or media recovery)
    /// handles with no rebuild.
    pub fn recycle(&mut self, db: &mut Database) -> DbResult<usize> {
        // A freed leaf still threaded into some tree's sibling chain (the
        // completed pack pass detaches its own tree's, but pages freed
        // mid-cycle remain chained) keeps its bytes until a later cycle.
        let mut chained: HashSet<PageId> = HashSet::new();
        for tid in 0..db.n_tables() {
            let table = db.table(tid)?;
            for ix in &table.indices {
                for pid in LeafPages::new(&ix.tree).map_err(DbError::Storage)? {
                    chained.insert(pid.map_err(DbError::Storage)?);
                }
            }
        }
        let mut reclaimed = 0usize;
        for pid in db.pool().reclaimable_pages() {
            bd_storage::pacer::checkpoint().map_err(DbError::Storage)?;
            if chained.contains(&pid) {
                continue;
            }
            if db.pool().reclaim_page(pid).map_err(DbError::Storage)? {
                reclaimed += 1;
            }
        }
        self.report.pages_reclaimed += reclaimed;
        Ok(reclaimed)
    }

    /// Reload every index's hot upper levels into the buffer pool, up to
    /// the configured page budget per index. Read-only.
    pub fn prewarm(&mut self, db: &Database) -> DbResult<usize> {
        let mut warmed = 0usize;
        if self.cfg.prewarm_pages == 0 {
            return Ok(0);
        }
        for tid in 0..db.n_tables() {
            let table = db.table(tid)?;
            for ix in &table.indices {
                warmed += ix
                    .tree
                    .prewarm(self.cfg.prewarm_pages)
                    .map_err(DbError::Storage)?;
            }
        }
        self.report.pages_prewarmed += warmed;
        Ok(warmed)
    }

    /// Rewind every pack pass and count a completed cycle. Call once the
    /// cycle's sweep/recycle/prewarm tail has run.
    pub fn end_cycle(&mut self) {
        for p in self.packers.values_mut() {
            p.reset();
        }
        self.report.cycles += 1;
    }

    /// End-of-cycle work, once every pack pass has walked its whole tree:
    /// unlink freed inners from the level chains, recycle every free page
    /// not still threaded into a leaf chain, prewarm the hot levels, and
    /// rewind the packers.
    fn finish_cycle(&mut self, db: &mut Database) -> DbResult<()> {
        // Inner chains first: after the sweep, the only chain references
        // into catalog-free pages left anywhere are lazy *leaves*.
        for tid in 0..db.n_tables() {
            let attrs: Vec<usize> = db.table(tid)?.indices.iter().map(|i| i.def.attr).collect();
            for attr in attrs {
                self.sweep_index(db, tid, attr)?;
            }
        }
        self.recycle(db)?;
        self.prewarm(db)?;
        self.end_cycle();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::db::DatabaseConfig;
    use crate::strategy;
    use crate::tuple::{Schema, Tuple};
    use bd_btree::BTreeConfig;

    // High-entropy keys so the erasure byte scan cannot collide with page
    // metadata or shifted images of small live values.
    fn skey(i: u64) -> u64 {
        0xACE7_0000_0000_0000 | (i * 0x0101 + 1)
    }

    fn row(k: u64) -> Tuple {
        Tuple::new(vec![k, k % 97, k % 7])
    }

    /// Small fanout so every index has many base subtrees (a real
    /// incremental pass, not a single-step one).
    fn db_with_keys(keys: impl Iterator<Item = u64>) -> (Database, TableId) {
        let mut db = Database::new(DatabaseConfig::with_total_memory(1 << 22));
        let tid = db.create_table("R", Schema::new(3, 64));
        let cfg = BTreeConfig::with_fanout(16);
        db.create_index(tid, IndexDef::secondary(0).unique().with_config(cfg))
            .unwrap();
        db.create_index(tid, IndexDef::secondary(1).with_config(cfg))
            .unwrap();
        for k in keys {
            db.insert(tid, &row(k)).unwrap();
        }
        (db, tid)
    }

    fn file_pages(db: &Database) -> usize {
        db.pool().with_disk(|d| d.num_pages())
    }

    #[test]
    fn cycle_recycles_pages_and_bounds_growth() {
        // Sliding-window workload: each round deletes the oldest 2000 keys
        // and inserts 2000 fresh ones, so the live set stays at 4000 rows.
        // Without recycling the file grows by roughly a window per round.
        const N: u64 = 4000;
        const W: u64 = 2000;
        let (mut db, tid) = db_with_keys(0..N);
        let mut m = Maintainer::new(MaintenanceConfig::default());

        for r in 0..4u64 {
            let d: Vec<u64> = (r * W..(r + 1) * W).collect();
            strategy::vertical_sort_merge(&mut db, tid, 0, &d, 1).unwrap();
            m.run_cycle(&mut db).unwrap();
            db.check_consistency(tid).unwrap();
            let audit = crate::audit::audit_catalog(&db, tid).unwrap();
            assert!(audit.is_clean(), "{:?}", audit.findings);
            for k in N + r * W..N + (r + 1) * W {
                db.insert(tid, &row(k)).unwrap();
            }
        }
        // One settling cycle: pages freed during the last cycle recycle in
        // the next one.
        m.run_cycle(&mut db).unwrap();
        m.run_cycle(&mut db).unwrap();

        let rep = *m.report();
        assert!(rep.cycles >= 6);
        assert!(rep.pages_reclaimed > 0, "{rep:?}");
        assert!(rep.subtrees_packed > 0, "{rep:?}");
        assert!(rep.heap_pages_released > 0, "{rep:?}");
        assert!(rep.pages_prewarmed > 0, "{rep:?}");

        // Steady state: the whole file (live pages + recyclable slack) stays
        // within 2x of a freshly loaded copy of the same live rows, instead
        // of accumulating four rounds of leaked windows.
        let live_keys = 4 * W..N + 4 * W;
        let (fresh, _) = db_with_keys(live_keys);
        let (total, fresh_total) = (file_pages(&db), file_pages(&fresh));
        assert!(
            total <= fresh_total * 2,
            "steady-state file is {total} pages vs freshly loaded {fresh_total}"
        );

        // And the allocator actually draws from the recycled set: another
        // window of inserts must not grow the file page-for-page.
        let before = file_pages(&db);
        let reusable = db.pool().n_reusable();
        for k in N + 4 * W..N + 4 * W + 500 {
            db.insert(tid, &row(k)).unwrap();
        }
        let grown = file_pages(&db) - before;
        assert!(
            grown == 0 || reusable == 0,
            "file grew by {grown} pages while {reusable} recycled pages sat idle"
        );
    }

    #[test]
    fn recycled_pages_pass_erasure_verification() {
        let (mut db, tid) = db_with_keys((0..2000).map(skey));
        // Delete rows carrying a sensitive middle band of attribute-0 keys.
        let sensitive: Vec<u64> = (500..1500).map(skey).collect();
        strategy::vertical_sort_merge(&mut db, tid, 0, &sensitive, 1).unwrap();
        let mut m = Maintainer::new(MaintenanceConfig::default());
        m.run_cycle(&mut db).unwrap();
        assert!(m.report().pages_reclaimed > 0);
        // Scrub live-page residue, then prove deletion: the recycled pages
        // were zeroed through the durable write path, so no deleted value
        // survives anywhere — including pages the allocator already reused.
        crate::erasure::scrub_database(&mut db).unwrap();
        let report = crate::erasure::verify_erasure(&db, &sensitive, &[]).unwrap();
        assert!(report.is_clean(), "residue: {:?}", report.residue);
        db.check_consistency(tid).unwrap();
    }

    #[test]
    fn paused_maintenance_leaves_a_consistent_database() {
        let (mut db, tid) = db_with_keys(0..3000);
        let d: Vec<u64> = (0..3000u64).filter(|k| k % 3 != 0).collect();
        strategy::vertical_sort_merge(&mut db, tid, 0, &d, 1).unwrap();

        let mut m = Maintainer::new(MaintenanceConfig {
            pack_subtrees: 1,
            prewarm_pages: 16,
        });
        // Stop after every single round: each stop is a consistent state.
        let mut rounds = 0;
        loop {
            let done = m.run_round(&mut db).unwrap();
            db.check_consistency(tid).unwrap();
            let audit = crate::audit::audit_catalog(&db, tid).unwrap();
            assert!(audit.is_clean(), "{:?}", audit.findings);
            rounds += 1;
            assert!(rounds < 10_000, "maintenance does not converge");
            if done {
                break;
            }
        }
        assert!(rounds > 1, "expected a multi-round incremental pass");
    }
}
