//! The leveled, delete-aware LSM table.
//!
//! Shape: a [`Memtable`] on top, then level 0 (overlapping runs, one per
//! flush, newest last) and deeper levels of non-overlapping runs sorted
//! by key. Writes go to the memtable; a full memtable flushes to a new
//! level-0 run; an over-full level compacts one **victim** run down by
//! merging it with the overlapping runs one level deeper.
//!
//! Delete-awareness lives in the victim selection, after Lethe's FADE:
//! instead of round-robining or picking the fullest run, each run is
//! scored `tombstones * (1 + age)` where age is measured in flush /
//! compaction ticks since the run's oldest tombstone entered the tree.
//! Runs dragging old deletes down win, so tombstones sink — and the
//! puts they shadow get purged — ahead of delete-free data. On top of
//! the score, any tombstone older than [`LsmConfig::purge_deadline`]
//! *forces* its run to compact even when its level is under capacity,
//! which bounds how long a deleted row can remain physically readable
//! (the paper's "bulk deletes should reclaim space promptly" argument,
//! restated for log-structured storage).
//!
//! Tombstones are dropped when a merge writes into the deepest populated
//! level — below that there is nothing left to shadow.

use std::collections::BTreeMap;
use std::sync::Arc;

use bd_btree::Key;
use bd_core::audit::AuditReport;
use bd_core::error::{DbError, DbResult};
use bd_core::report::{measure, RunReport};
use bd_core::tuple::{Schema, Tuple};
use bd_core::TableEngine;
use bd_storage::{
    pacer, BufferPool, CostModel, PageId, SimDisk, StorageResult, StructureId, PAGE_SIZE,
};

use crate::memtable::{MemEntry, Memtable};
use crate::run::{partition_items, Item, ItemRef, Run, RunCursor};
use crate::LsmConfig;

/// Size and shape of the LSM tree, for reports and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// Items buffered in the memtable.
    pub memtable: usize,
    /// Number of levels with at least one run.
    pub levels: usize,
    /// Total runs across all levels.
    pub runs: usize,
    /// Total pages owned by runs.
    pub pages: usize,
    /// Total puts stored in runs (including shadowed versions).
    pub puts: usize,
    /// Total tombstones still buffered in runs.
    pub tombstones: usize,
    /// Flushes performed over the table's lifetime.
    pub flushes: usize,
    /// Compactions performed over the table's lifetime.
    pub compactions: usize,
}

/// A delete-aware LSM table over the shared simulated-disk stack.
pub struct LsmTable {
    pool: Arc<BufferPool>,
    schema: Schema,
    owner: StructureId,
    cfg: LsmConfig,
    mem: Memtable,
    /// `levels[0]` holds overlapping flush runs, newest last; deeper
    /// levels hold non-overlapping runs sorted by `min_key`.
    levels: Vec<Vec<Run>>,
    /// Monotonic tick: bumped once per flush and once per compaction.
    /// Run sequence numbers and tombstone ages are measured in it.
    seq: u64,
    flushes: usize,
    compactions: usize,
}

impl LsmTable {
    /// A fresh table with its own simulated disk. `total_memory` is split
    /// like [`DatabaseConfig::with_total_memory`](bd_core::DatabaseConfig):
    /// 3/4 buffer pool, with the memtable playing the workspace role —
    /// so LSM and B-tree engines bench against equal cache budgets.
    pub fn new(schema: Schema, total_memory: usize, cfg: LsmConfig) -> LsmTable {
        LsmTable {
            pool: BufferPool::with_byte_budget(
                SimDisk::new(CostModel::default()),
                total_memory / 4 * 3,
            ),
            schema,
            owner: StructureId::lsm_of(0),
            cfg,
            mem: Memtable::default(),
            levels: Vec::new(),
            seq: 0,
            flushes: 0,
            compactions: 0,
        }
    }

    /// The shared buffer pool (for `measure` and audits).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Current shape.
    pub fn lsm_stats(&self) -> LsmStats {
        let all = self.levels.iter().flatten();
        LsmStats {
            memtable: self.mem.len(),
            levels: self.levels.iter().filter(|l| !l.is_empty()).count(),
            runs: self.levels.iter().map(Vec::len).sum(),
            pages: all.clone().map(|r| r.n_pages).sum(),
            puts: all.clone().map(|r| r.puts).sum(),
            tombstones: all.map(|r| r.tombs).sum(),
            flushes: self.flushes,
            compactions: self.compactions,
        }
    }

    // ---- writes ------------------------------------------------------

    fn put_raw(&mut self, key: Key, record: Vec<u8>) -> StorageResult<()> {
        self.mem.put(key, record);
        self.maybe_flush()
    }

    fn delete_raw(&mut self, key: Key) -> StorageResult<()> {
        self.mem.delete(key);
        self.maybe_flush()
    }

    fn maybe_flush(&mut self) -> StorageResult<()> {
        if self.mem.len() >= self.cfg.memtable_capacity {
            self.flush()?;
        }
        Ok(())
    }

    /// Flush the memtable to a new level-0 run, then compact until every
    /// level is within shape and no tombstone is past its purge deadline.
    pub fn flush(&mut self) -> StorageResult<()> {
        let items = self.mem.drain_sorted();
        if items.is_empty() {
            return Ok(());
        }
        self.seq += 1;
        let has_tombs = items.iter().any(|(_, it)| !matches!(it, Item::Put(_)));
        let run = Run::write(
            &self.pool,
            self.owner,
            self.schema.record_len,
            &items,
            self.seq,
            has_tombs.then_some(self.seq),
            self.cfg.bloom_bits_per_key,
        )?;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(run);
        self.flushes += 1;
        self.compact_to_shape()
    }

    // ---- compaction --------------------------------------------------

    /// Tombstone age of `run` in ticks, 0 when tombstone-free.
    fn tomb_age(&self, run: &Run) -> u64 {
        run.oldest_tomb_seq
            .map(|o| self.seq.saturating_sub(o))
            .unwrap_or(0)
    }

    /// FADE score: tombstone count weighted by tombstone age. Higher =
    /// more urgent to push down.
    fn fade_score(&self, run: &Run) -> u64 {
        run.tombs as u64 * (1 + self.tomb_age(run))
    }

    /// True when `run` carries a tombstone past the purge deadline.
    fn past_deadline(&self, run: &Run) -> bool {
        self.tomb_age(run) >= self.cfg.purge_deadline
    }

    /// Run-count capacity of a level: `fanout^(level+1)`, the geometric
    /// growth leveled LSMs use (runs are size-bounded partitions, so run
    /// count stands in for level bytes).
    fn max_runs(&self, level: usize) -> usize {
        self.cfg.fanout.saturating_pow(level as u32 + 1).max(1)
    }

    /// Compact until no level exceeds the fanout and no tombstone is past
    /// the purge deadline. Tombstones sink one level per merge and are
    /// dropped at the bottom, so this terminates.
    pub fn compact_to_shape(&mut self) -> StorageResult<()> {
        loop {
            let Some((level, idx)) = self.pick_victim() else {
                return Ok(());
            };
            self.compact_run(level, idx)?;
        }
    }

    /// The next run to push down, or `None` when the tree is in shape:
    /// first any run past the purge deadline (deepest level last, so
    /// upper-level deadlines are not starved by re-triggering lower
    /// ones), else the best FADE score in any over-full level.
    fn pick_victim(&self) -> Option<(usize, usize)> {
        for (l, runs) in self.levels.iter().enumerate() {
            if let Some(i) = (0..runs.len()).find(|&i| self.past_deadline(&runs[i])) {
                return Some((l, i));
            }
        }
        for (l, runs) in self.levels.iter().enumerate() {
            if runs.len() > self.max_runs(l) {
                let best = (0..runs.len()).max_by_key(|&i| {
                    // Prefer high FADE scores; among delete-free runs
                    // prefer the oldest, so compaction still rotates.
                    (self.fade_score(&runs[i]), u64::MAX - runs[i].seq)
                })?;
                return Some((l, best));
            }
        }
        None
    }

    /// Merge the victim with the overlapping runs one level deeper and
    /// write the result there. Level 0 runs overlap *each other*, so
    /// recency within level 0 is run order — compacting one of them past
    /// its siblings would invert newest-wins. Level 0 therefore always
    /// compacts as a whole (`idx` only names the trigger run); deeper
    /// levels move exactly `levels[level][idx]`. Tombstones are dropped
    /// when the output level is the deepest populated one.
    fn compact_run(&mut self, level: usize, idx: usize) -> StorageResult<()> {
        let victims: Vec<Run> = if level == 0 {
            let mut l0 = std::mem::take(&mut self.levels[0]);
            // Stored oldest-first; merge ranks are newest-first.
            l0.reverse();
            l0
        } else {
            vec![self.levels[level].remove(idx)]
        };
        let lo = victims.iter().map(|r| r.min_key).min().expect("victims");
        let hi = victims.iter().map(|r| r.max_key).max().expect("victims");
        if self.levels.len() <= level + 1 {
            self.levels.push(Vec::new());
        }
        // Everything under the victims' key hull merges too, so the
        // output run cannot overlap what stays behind at level+1.
        let below = &mut self.levels[level + 1];
        let overlapping: Vec<Run> = {
            let mut picked = Vec::new();
            let mut i = 0;
            while i < below.len() {
                if below[i].overlaps(lo, hi) {
                    picked.push(below.remove(i));
                } else {
                    i += 1;
                }
            }
            picked
        };
        // Victims shadow everything they merge with: rank 0 is newest.
        let mut inputs: Vec<Run> = victims;
        inputs.extend(overlapping);

        let drop_tombs = self.levels.iter().skip(level + 2).all(Vec::is_empty);
        let merged = self.merge_runs(&inputs, drop_tombs)?;

        self.seq += 1;
        self.compactions += 1;
        let survivors_tomb_seq = if drop_tombs {
            None
        } else {
            inputs.iter().filter_map(|r| r.oldest_tomb_seq).min()
        };
        // Write the merge output as size-bounded partitions so the next
        // compaction down is bounded too.
        for chunk in partition_items(merged, self.schema.record_len, self.cfg.max_run_pages) {
            let has_tombs = chunk.iter().any(|(_, it)| !matches!(it, Item::Put(_)));
            let run = Run::write(
                &self.pool,
                self.owner,
                self.schema.record_len,
                &chunk,
                self.seq,
                if has_tombs { survivors_tomb_seq } else { None },
                self.cfg.bloom_bits_per_key,
            )?;
            let below = &mut self.levels[level + 1];
            let at = below.partition_point(|r| r.min_key < run.min_key);
            below.insert(at, run);
        }
        // Retire the inputs, pacer-pausable between runs.
        for (i, run) in inputs.iter().enumerate() {
            if i > 0 {
                pacer::checkpoint()?;
            }
            for p in 0..run.n_pages {
                self.pool.free_page(run.first_page + p as PageId);
            }
        }
        Ok(())
    }

    /// K-way newest-wins merge. `inputs[0]` is newest; deeper inputs are
    /// mutually non-overlapping level-(l+1) runs. A run holds one item per
    /// key, so the newest rank's item wins and drops at most one older
    /// version from each older rank.
    fn merge_runs(&self, inputs: &[Run], drop_tombs: bool) -> StorageResult<Vec<(Key, Item)>> {
        let mut cursors: Vec<RunCursor> = inputs
            .iter()
            .map(|r| RunCursor::open(self.pool.clone(), r))
            .collect();
        let mut out: Vec<(Key, Item)> = Vec::new();

        loop {
            // Smallest next key, preferring the newest rank on ties.
            let mut next: Option<(Key, usize)> = None;
            for (rank, cur) in cursors.iter_mut().enumerate() {
                if let Some(k) = cur.peek_key()? {
                    if next.map(|(nk, _)| k < nk).unwrap_or(true) {
                        next = Some((k, rank));
                    }
                }
            }
            let Some((key, rank)) = next else {
                return Ok(out);
            };
            let (_, item) = cursors[rank].next_item()?.expect("peeked");
            // Discard shadowed versions of the key in older ranks before
            // they can win a later round.
            for other in cursors.iter_mut().skip(rank + 1) {
                if other.peek_key()? == Some(key) {
                    other.next_item()?;
                }
            }
            if matches!(item, Item::Put(_)) || !drop_tombs {
                out.push((key, item));
            }
        }
    }

    /// Force every buffered and stored tombstone through compaction until
    /// all deletes are physically purged (the "pay the whole bill now"
    /// arm the bench compares against the B-tree's eager merge). Returns
    /// the number of compactions it took.
    pub fn purge_all(&mut self) -> StorageResult<usize> {
        self.flush()?;
        let before = self.compactions;
        while let Some((l, i)) = self.find_tombstoned_run() {
            self.compact_run(l, i)?;
            self.compact_to_shape()?;
        }
        Ok(self.compactions - before)
    }

    fn find_tombstoned_run(&self) -> Option<(usize, usize)> {
        for (l, runs) in self.levels.iter().enumerate() {
            if let Some(i) = (0..runs.len()).find(|&i| runs[i].tombs > 0) {
                return Some((l, i));
            }
        }
        None
    }

    // ---- reads -------------------------------------------------------

    /// Runs in newest-to-oldest order: level 0 newest-first, then each
    /// deeper level (rank among non-overlapping runs is irrelevant).
    fn runs_newest_first(&self) -> impl Iterator<Item = &Run> {
        let l0 = self.levels.first().map(|l| l.as_slice()).unwrap_or(&[]);
        l0.iter().rev().chain(self.levels.iter().skip(1).flatten())
    }

    /// The newest verdict for each of `keys` (ascending, distinct):
    /// `live(i, record)` runs once for each `keys[i]` whose newest version
    /// is a put, and never for a key that is deleted or was never inserted.
    /// The memtable decides first. Then each run, newest first, decides the
    /// keys still open that it holds an item for.
    fn resolve(&self, keys: &[Key], mut live: impl FnMut(usize, &[u8])) -> StorageResult<()> {
        let mut open: Vec<usize> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            match self.mem.get(key) {
                Some(MemEntry::Put(rec)) => live(i, rec),
                Some(MemEntry::Del) => {}
                None => open.push(i),
            }
        }
        for run in self.runs_newest_first() {
            if open.is_empty() {
                break;
            }
            let wanted: Vec<Key> = open.iter().map(|&i| keys[i]).collect();
            let mut decided = vec![false; open.len()];
            run.probe(&self.pool, &wanted, |j, item| {
                decided[j] = true;
                if let ItemRef::Put(rec) = item {
                    live(open[j], rec);
                }
            })?;
            open = open
                .iter()
                .zip(decided)
                .filter(|&(_, decided)| !decided)
                .map(|(&i, _)| i)
                .collect();
        }
        Ok(())
    }

    /// Newest verdict for `key`: the record if live, `None` if deleted or
    /// never inserted.
    fn lookup_raw(&self, key: Key) -> StorageResult<Option<Vec<u8>>> {
        let mut record = None;
        self.resolve(&[key], |_, rec| record = Some(rec.to_vec()))?;
        Ok(record)
    }

    // ---- audits ------------------------------------------------------

    /// Structural self-audit: run metadata vs pages, level invariants,
    /// and page-catalog agreement. Clean report = internally consistent.
    pub fn audit_structure(&mut self) -> StorageResult<AuditReport> {
        let mut report = AuditReport::default();
        let pool = self.pool.clone();
        for (l, runs) in self.levels.iter().enumerate() {
            for (i, run) in runs.iter().enumerate() {
                let name = format!("lsm run L{l}#{i}");
                if run.fences.len() != run.n_pages {
                    report.push(&name, "fence count != page count");
                }
                if run.fences.windows(2).any(|w| w[0] > w[1]) {
                    report.push(&name, "fence keys out of order");
                }
                let items = run.read_all(&pool)?;
                if items.windows(2).any(|w| w[0].0 >= w[1].0) {
                    report.push(&name, "keys not strictly ascending on disk");
                }
                if items.len() != run.items() {
                    report.push(
                        &name,
                        format!(
                            "metadata counts {} items, pages hold {}",
                            run.items(),
                            items.len()
                        ),
                    );
                }
                for (k, _) in &items {
                    if !run.bloom.may_contain(*k) {
                        report.push(&name, format!("bloom false negative for key {k}"));
                    }
                }
                if items.first().map(|(k, _)| *k) != Some(run.min_key) {
                    report.push(&name, "min_key disagrees with first item");
                }
                if items.last().map(|(k, _)| *k) != Some(run.max_key) {
                    report.push(&name, "max_key disagrees with last item");
                }
                if run.tombs > 0 && run.oldest_tomb_seq.is_none() {
                    report.push(&name, "tombstones present but oldest_tomb_seq unset");
                }
                if run.tombs == 0 && run.oldest_tomb_seq.is_some() {
                    report.push(&name, "tombstone-free but oldest_tomb_seq set");
                }
            }
            if l >= 1 {
                for w in runs.windows(2) {
                    if w[1].min_key <= w[0].max_key {
                        report.push(
                            format!("lsm level {l}"),
                            format!(
                                "runs overlap: [{}, {}] then [{}, {}]",
                                w[0].min_key, w[0].max_key, w[1].min_key, w[1].max_key
                            ),
                        );
                    }
                }
            }
        }
        report.findings.extend(self.audit_pages().findings);
        Ok(report)
    }

    /// Page-catalog agreement: the catalog's idea of this structure's
    /// pages must be exactly the union of live run extents.
    pub fn audit_pages(&self) -> AuditReport {
        let mut report = AuditReport::default();
        let mut expected: Vec<PageId> = self
            .levels
            .iter()
            .flatten()
            .flat_map(|r| (0..r.n_pages).map(move |p| r.first_page + p as PageId))
            .collect();
        expected.sort_unstable();
        if expected.windows(2).any(|w| w[0] == w[1]) {
            report.push("lsm catalog", "two runs claim the same page");
        }
        let mut actual = self.pool.catalog().pages_of(self.owner);
        actual.sort_unstable();
        if expected != actual {
            let missing = expected.iter().filter(|p| !actual.contains(p)).count();
            let stray = actual.iter().filter(|p| !expected.contains(p)).count();
            report.push(
                "lsm catalog",
                format!(
                    "catalog owns {} pages, runs cover {} ({} missing from catalog, {} stray)",
                    actual.len(),
                    expected.len(),
                    missing,
                    stray
                ),
            );
        }
        report
    }
}

impl TableEngine for LsmTable {
    fn name(&self) -> &'static str {
        "lsm"
    }

    fn insert(&mut self, tuple: &Tuple) -> DbResult<()> {
        let key = tuple.attr(0);
        if self.lookup_raw(key).map_err(DbError::Storage)?.is_some() {
            return Err(DbError::DuplicateKey { attr: 0, key });
        }
        let rec = self.schema.encode(tuple)?;
        self.put_raw(key, rec).map_err(DbError::Storage)
    }

    fn bulk_load(&mut self, rows: &[Tuple]) -> DbResult<()> {
        if self.mem.is_empty() && self.levels.iter().all(Vec::is_empty) && !rows.is_empty() {
            // Fast path mirroring the B-tree's bottom-up build: one
            // sorted run written straight into level 1.
            let mut items = Vec::with_capacity(rows.len());
            for t in rows {
                items.push((t.attr(0), Item::Put(self.schema.encode(t)?)));
            }
            items.sort_by_key(|(k, _)| *k);
            if let Some(w) = items.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(DbError::DuplicateKey {
                    attr: 0,
                    key: w[0].0,
                });
            }
            self.seq += 1;
            let chunks = partition_items(items, self.schema.record_len, self.cfg.max_run_pages);
            let mut runs = Vec::with_capacity(chunks.len());
            for chunk in chunks {
                runs.push(
                    Run::write(
                        &self.pool,
                        self.owner,
                        self.schema.record_len,
                        &chunk,
                        self.seq,
                        None,
                        self.cfg.bloom_bits_per_key,
                    )
                    .map_err(DbError::Storage)?,
                );
            }
            // Place the partitions at the shallowest level that can hold
            // them all, leaving level 0 free for flushes.
            let mut level = 1;
            while self.max_runs(level) < runs.len() {
                level += 1;
            }
            self.levels = vec![Vec::new(); level + 1];
            self.levels[level] = runs;
            self.flushes += 1;
            return Ok(());
        }
        for t in rows {
            self.insert(t)?;
        }
        Ok(())
    }

    fn lookup(&mut self, key: Key) -> DbResult<Option<Tuple>> {
        Ok(self
            .lookup_raw(key)
            .map_err(DbError::Storage)?
            .map(|rec| self.schema.decode(&rec)))
    }

    fn bulk_delete(&mut self, keys: &[Key]) -> DbResult<RunReport> {
        let pool = self.pool.clone();
        let (deleted, mut report) = measure(&pool, "lsm tombstone", || {
            // Resolve every key before writing any tombstone: one sorted
            // membership pass per run, as the vertical delete merges a
            // sorted D against each structure. Absent keys get no ghost
            // tombstone and the deleted count stays exact.
            let mut sorted = keys.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let mut live = vec![false; sorted.len()];
            self.resolve(&sorted, |i, _| live[i] = true)?;
            // Tombstones go in the caller's order, so the flushes and the
            // compactions they trigger are those of a key-at-a-time delete,
            // and a cancel leaves a prefix of that order.
            let mut deleted = 0;
            for (i, &key) in keys.iter().enumerate() {
                if i > 0 {
                    pacer::checkpoint()?;
                }
                let at = sorted.binary_search(&key).expect("sorted holds every key");
                if std::mem::take(&mut live[at]) {
                    self.delete_raw(key)?;
                    deleted += 1;
                }
            }
            self.flush()?;
            Ok(deleted)
        })
        .map_err(DbError::Storage)?;
        report.deleted = deleted;
        Ok(report)
    }

    fn audit_dump(&mut self) -> DbResult<Vec<Tuple>> {
        // Newest wins: the memtable, then each run newest first; the first
        // version met of a key decides it.
        let mut newest: BTreeMap<Key, Option<Vec<u8>>> = self
            .mem
            .iter()
            .map(|(key, entry)| match entry {
                MemEntry::Put(rec) => (key, Some(rec.clone())),
                MemEntry::Del => (key, None),
            })
            .collect();
        for run in self.runs_newest_first() {
            for (key, item) in run.read_all(&self.pool).map_err(DbError::Storage)? {
                newest.entry(key).or_insert(match item {
                    Item::Put(rec) => Some(rec),
                    Item::Del => None,
                });
            }
        }
        Ok(newest
            .into_values()
            .flatten()
            .map(|rec| self.schema.decode(&rec))
            .collect())
    }

    fn audit_self(&mut self) -> DbResult<AuditReport> {
        self.audit_structure().map_err(DbError::Storage)
    }
}

// Keep the page-size assumption visible at compile time: a record plus
// item header must fit a page, and schemas in this workspace are small.
const _: () = assert!(PAGE_SIZE > 512);

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::StorageError;

    fn rows(n: u64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(vec![i * 2, i % 7, i])).collect()
    }

    fn table(n: u64) -> LsmTable {
        let mut t = LsmTable::new(Schema::new(3, 64), 1 << 20, LsmConfig::tiny());
        t.bulk_load(&rows(n)).unwrap();
        t
    }

    #[test]
    fn keyed_contract_and_duplicates() {
        let mut t = table(500);
        assert_eq!(t.lookup(10).unwrap(), Some(Tuple::new(vec![10, 5, 5])));
        assert_eq!(t.lookup(11).unwrap(), None);
        let err = t.insert(&Tuple::new(vec![10, 0, 0])).unwrap_err();
        assert_eq!(err, DbError::DuplicateKey { attr: 0, key: 10 });
        assert_eq!(t.audit_dump().unwrap(), rows(500));
        assert!(t.audit_self().unwrap().is_clean());
    }

    #[test]
    fn inserts_flush_and_compact_with_clean_audits() {
        let mut t = LsmTable::new(Schema::new(3, 64), 1 << 20, LsmConfig::tiny());
        for r in rows(600) {
            t.insert(&r).unwrap();
        }
        let s = t.lsm_stats();
        assert!(s.flushes >= 4, "tiny memtable must have flushed: {s:?}");
        assert!(s.compactions >= 1, "fanout 3 must have compacted: {s:?}");
        assert_eq!(t.audit_dump().unwrap().len(), 600);
        let report = t.audit_self().unwrap();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn deletes_are_shadowed_then_purged() {
        let mut t = table(400);
        let doomed: Vec<Key> = (0..100).map(|i| i * 8).collect();
        let report = t.bulk_delete(&doomed).unwrap();
        assert_eq!(report.deleted, 100);
        assert_eq!(report.strategy, "lsm tombstone");
        for &k in &doomed {
            assert_eq!(t.lookup(k).unwrap(), None, "key {k} must read deleted");
        }
        assert_eq!(t.audit_dump().unwrap().len(), 300);

        // The purge deadline forces tombstones to the bottom where they
        // are dropped, physically reclaiming the deleted rows.
        for _ in 0..10 {
            t.insert(&Tuple::new(vec![10_001 + t.seq, 0, 0])).unwrap();
            t.flush().unwrap();
        }
        let s = t.lsm_stats();
        assert_eq!(s.tombstones, 0, "deadline must purge tombstones: {s:?}");
        assert_eq!(t.audit_dump().unwrap().len(), 310);
        let report = t.audit_self().unwrap();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn ghost_deletes_write_no_tombstones() {
        let mut t = table(50);
        let report = t.bulk_delete(&[1, 3, 5, 999_999]).unwrap();
        assert_eq!(report.deleted, 0, "odd keys were never inserted");
        assert_eq!(t.lsm_stats().tombstones, 0);
    }

    #[test]
    fn purge_all_pays_the_whole_bill() {
        let mut t = table(400);
        t.bulk_delete(&(0..150).map(|i| i * 4).collect::<Vec<_>>())
            .unwrap();
        let compactions = t.purge_all().unwrap();
        assert!(compactions > 0, "tombstones were buffered, purge must work");
        assert_eq!(t.lsm_stats().tombstones, 0);
        assert_eq!(t.audit_dump().unwrap().len(), 250);
        let report = t.audit_self().unwrap();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn levels_are_partitioned_into_bounded_runs() {
        let t = table(2000);
        let s = t.lsm_stats();
        assert!(s.runs > 4, "2000 rows at 2 pages/run must partition: {s:?}");
        for runs in &t.levels {
            for run in runs {
                assert!(run.n_pages <= t.cfg.max_run_pages, "{}", run.n_pages);
            }
        }
    }

    #[test]
    fn hostile_run_pages_are_errors_not_panics() {
        let record_len = 64;
        // Each image carries a valid checksum and garbage contents.
        let mut unknown_tag = [0u8; PAGE_SIZE];
        unknown_tag[..2].copy_from_slice(&1u16.to_le_bytes());
        unknown_tag[2] = 7;
        let mut count_past_page = [0u8; PAGE_SIZE];
        count_past_page[..2].copy_from_slice(&u16::MAX.to_le_bytes());
        count_past_page[2..].fill(1);
        // Puts packed one past what fits: the last record crosses the end.
        let mut record_past_end = [0u8; PAGE_SIZE];
        let puts = (PAGE_SIZE - 2) / (9 + record_len) + 1;
        record_past_end[..2].copy_from_slice(&(puts as u16).to_le_bytes());
        // Tag 2 with a well-formed key 0 and high key 9: a range
        // tombstone, which a run never holds.
        let mut range_tag = [0u8; PAGE_SIZE];
        range_tag[..2].copy_from_slice(&1u16.to_le_bytes());
        range_tag[2] = 2;
        range_tag[11..19].copy_from_slice(&9u64.to_le_bytes());
        for (name, image) in [
            ("unknown tag", unknown_tag),
            ("count past the page", count_past_page),
            ("record past the end", record_past_end),
            ("range tombstone tag", range_tag),
        ] {
            let mut t = table(500);
            let (pid, key) = {
                let run = t.levels.iter().flatten().next().expect("a loaded run");
                (run.first_page, run.fences[0])
            };
            t.pool.with_disk(|d| d.write(pid, &image)).unwrap();
            t.pool.clear_cache().unwrap();
            let corrupt = StorageError::CorruptPage(pid);
            assert_eq!(
                t.lookup(key),
                Err(DbError::Storage(corrupt.clone())),
                "{name}"
            );
            assert_eq!(
                t.bulk_delete(&[key]).unwrap_err(),
                DbError::Storage(corrupt.clone()),
                "{name}"
            );
            assert_eq!(
                t.audit_dump(),
                Err(DbError::Storage(corrupt.clone())),
                "{name}"
            );
            assert_eq!(t.audit_structure().unwrap_err(), corrupt, "{name}");
        }
    }

    #[test]
    fn structure_audit_catches_a_repeated_key() {
        let mut t = table(300);
        assert!(t.audit_structure().unwrap().is_clean());
        // Give the first run's second item its first item's key: counts,
        // fences and the filter still agree, only the key order breaks.
        let pid = t.levels.iter().flatten().next().expect("a run").first_page;
        let mut image = [0u8; PAGE_SIZE];
        t.pool.with_disk(|d| d.read(pid, &mut image)).unwrap();
        let second = 2 + 9 + t.schema.record_len;
        image.copy_within(3..11, second + 1);
        t.pool.with_disk(|d| d.write(pid, &image)).unwrap();
        t.pool.clear_cache().unwrap();
        let report = t.audit_structure().unwrap();
        assert!(
            report.render().contains("keys not strictly ascending"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn catalog_audit_catches_a_leak() {
        let mut t = table(300);
        t.bulk_delete(&[0, 2, 4]).unwrap();
        assert!(t.audit_pages().is_clean());
        // Forget a run without freeing its pages: the catalog now owns
        // pages no live run covers.
        let run = t
            .levels
            .iter_mut()
            .find(|l| !l.is_empty())
            .unwrap()
            .remove(0);
        let report = t.audit_pages();
        assert!(!report.is_clean());
        assert!(report.render().contains("stray"), "{}", report.render());
        // Restore so drop paths stay consistent.
        t.levels[0].push(run);
    }
}
