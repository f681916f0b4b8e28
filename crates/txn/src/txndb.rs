//! Concurrent database wrapper: bulk deletes running alongside updater
//! transactions, per the protocol of §3.1.
//!
//! There is one delete path, [`TxnDb::bulk_delete_live`]; the blocking
//! [`TxnDb::bulk_delete`] is that path with all of `D` in one chunk. Its
//! timeline:
//!
//! 0. if `D` spans more than one chunk, deal its keys into chunks in the
//!    heap order of their rows (one read-only merge against the probe
//!    index), so each chunk deletes one stretch of the heap;
//! 1. per chunk, acquire the **exclusive table lock**; inside the first
//!    exclusive span switch the non-unique secondary indices offline ("X
//!    lock, then indices off-line");
//! 2. still under the lock, run the pass core's serial prefix for the
//!    chunk's keys — the probe index, the base table and all **unique
//!    indices** (unique first, so the constraint stays checkable) —
//!    exactly as the offline statement runs them
//!    ([`bd_core::strategy::run_passes`]);
//! 3. commit the chunk: release the table lock — "As soon as table R and
//!    all unique indices are processed ... the lock on R is released"; the
//!    probe and unique indices are only ever modified under it, so they
//!    never leave service;
//! 4. after the last chunk, sweep each hash index once over every deleted
//!    row, then propagate the deletions to the offline indices while
//!    updaters run, capturing their changes per [`PropagationMode`]:
//!    * **side-file** — updater changes are logged and replayed; appends
//!      continue during catch-up; a final quiesce drains the tail;
//!    * **direct** — updaters install changes into the offline tree
//!      directly, marking inserted entries *undeletable* so the bulk
//!      deleter cannot remove a re-used `(key, RID)`.
//!
//! Gates go offline only under the table X lock, so a transaction holding
//! the S lock with a gate online keeps it online for as long as it holds
//! the lock. Readers therefore wait at the gate *before* taking S
//! ([`TxnDb::read`]): parking on an offline gate with S held would stall
//! the deleter's next chunk until the lock timeout.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use bd_btree::{lookup_keys_sorted, Key, RangeCursor, ReorgPolicy};
use bd_core::strategy::run_passes;
use bd_core::{
    pass_order, plan_sort_merge, project, split, Database, DbError, DbResult, HashIdx, Index,
    PhaseExecutor, TableId, Tuple, Victims,
};
use bd_exec::{sort_all, ByRid};
use bd_storage::{io_scope::bypass_cancel, BufferPool, Pacer, Rid, StorageResult, StructureId};

use crate::error::TxnResult;
use crate::gate::{IndexGate, IndexState};
use crate::lock::{LockManager, LockMode, TxnId};
use crate::sidefile::{apply_ops, SideFile, SideOp};

/// How updater changes reach offline indices (§3.1.1 vs §3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationMode {
    /// Log updater changes to side-files, replay before going online.
    SideFile,
    /// Install updater changes directly with undeletable marks.
    Direct,
}

/// Batch size for side-file catch-up; below this the side-file is
/// quiesced and drained ("when nearly the whole side-file is processed").
const CATCHUP_BATCH: usize = 64;

/// `(key, rid)` entries a [`TxnDb::range_read`] harvests per db-mutex span.
const RANGE_BATCH: usize = 64;

/// What a [`TxnDb::bulk_delete_live`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveDeleteStats {
    /// Records deleted from the base table.
    pub deleted: usize,
    /// Exclusive chunk spans the delete was split into.
    pub chunks: usize,
}

type IndexKey = (TableId, usize);

/// Thread-safe database with the §3.1 bulk-delete protocol.
pub struct TxnDb {
    db: Mutex<Database>,
    locks: LockManager,
    gates: Mutex<HashMap<IndexKey, Arc<IndexGate>>>,
    sidefiles: Mutex<HashMap<IndexKey, Arc<SideFile>>>,
    undeletable: Mutex<HashSet<(usize, Key, Rid)>>,
    /// Serializes whole bulk-delete operations: a second bulk delete must
    /// not take indices offline while the first is still propagating.
    bulk_serial: Mutex<()>,
    /// Optional background-maintenance slice run between live-delete
    /// chunks, while no table lock is held (see [`TxnDb::set_maintenance`]).
    maintenance: Mutex<Option<MaintenanceHook>>,
    next_txn: AtomicU64,
}

/// A resumable maintenance step (typically
/// [`bd_core::Maintainer::run_round`] behind a closure).
pub type MaintenanceHook = Box<dyn FnMut(&mut Database) -> DbResult<()> + Send>;

impl TxnDb {
    /// Wrap a database for concurrent use.
    pub fn new(db: Database) -> Arc<Self> {
        Arc::new(TxnDb {
            db: Mutex::new(db),
            locks: LockManager::default(),
            gates: Mutex::new(HashMap::new()),
            sidefiles: Mutex::new(HashMap::new()),
            undeletable: Mutex::new(HashSet::new()),
            bulk_serial: Mutex::new(()),
            maintenance: Mutex::new(None),
            next_txn: AtomicU64::new(1),
        })
    }

    /// Install (or clear) the incremental-maintenance hook. When set, every
    /// between-chunk pause point of [`TxnDb::bulk_delete_live`] runs one
    /// slice of it under the db mutex but outside any table lock, so page
    /// recycling and leaf packing interleave with the delete instead of
    /// waiting for an offline window.
    pub fn set_maintenance(&self, hook: Option<MaintenanceHook>) {
        *self.maintenance.lock() = hook;
    }

    /// Run setup/inspection code against the underlying database.
    pub fn with<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.lock())
    }

    /// Start a transaction.
    pub fn begin(&self) -> TxnId {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// Commit: release all locks.
    pub fn commit(&self, txn: TxnId) {
        self.locks.release_all(txn);
    }

    fn gate(&self, key: IndexKey) -> Arc<IndexGate> {
        self.gates.lock().entry(key).or_default().clone()
    }

    fn sidefile(&self, key: IndexKey) -> Arc<SideFile> {
        self.sidefiles.lock().entry(key).or_default().clone()
    }

    /// Take the table S lock with the index on `attr` — the caller's access
    /// path — online: wait at the gate first, take S, re-check under it,
    /// and release and retry if the index went offline in between. Only a
    /// lock this call itself took is released; a transaction already inside
    /// the table keeps its lock (strict 2PL) and waits at the gate holding
    /// it.
    fn lock_shared_online(&self, txn: TxnId, tid: TableId, attr: usize) -> TxnResult<()> {
        let gate = self.gate((tid, attr));
        if self.locks.holds(txn, tid) {
            gate.wait_online();
            return Ok(());
        }
        loop {
            gate.wait_online();
            self.locks.acquire(txn, tid, LockMode::Shared)?;
            if gate.is_online() {
                return Ok(());
            }
            self.locks.release(txn, tid);
        }
    }

    /// Updater insert: checks every unique index (they never go offline),
    /// routes changes to offline non-unique indices via side-file or direct
    /// propagation.
    pub fn insert(&self, txn: TxnId, tid: TableId, tuple: &Tuple) -> TxnResult<Rid> {
        self.locks.acquire(txn, tid, LockMode::Shared)?;
        let mut db = self.db.lock();
        let table = db.table_mut(tid)?;
        let bytes = table.schema.encode(tuple)?;
        for index in table.indices.iter().filter(|i| i.def.unique) {
            let key = tuple.attr(index.def.attr);
            if !index.tree.search(key)?.is_empty() {
                return Err(DbError::DuplicateKey {
                    attr: index.def.attr,
                    key,
                }
                .into());
            }
        }
        let rid = table.heap.insert(&bytes)?;
        let schema = table.schema;
        for h in &mut table.hash_indices {
            h.index.insert(schema.attr_of(&bytes, h.def.attr), rid)?;
        }
        for index in &mut table.indices {
            let attr = index.def.attr;
            let key = schema.attr_of(&bytes, attr);
            match self.gate((tid, attr)).state() {
                IndexState::Online => index.tree.insert(key, rid)?,
                IndexState::OfflineSideFile => {
                    if self
                        .sidefile((tid, attr))
                        .append(SideOp::Insert { key, rid })
                        .is_err()
                    {
                        // Quiesced under our feet; the gate flips online
                        // momentarily — install directly.
                        index.tree.insert(key, rid)?;
                    }
                }
                IndexState::OfflineDirect => {
                    index.tree.insert(key, rid)?;
                    self.undeletable.lock().insert((attr, key, rid));
                }
            }
        }
        Ok(rid)
    }

    /// Updater point delete by probe key. Returns deleted RIDs.
    pub fn delete_row(
        &self,
        txn: TxnId,
        tid: TableId,
        probe_attr: usize,
        key: Key,
    ) -> TxnResult<Vec<Rid>> {
        // The probe index must be usable as an access path.
        self.lock_shared_online(txn, tid, probe_attr)?;
        let mut db = self.db.lock();
        let table = db.table_mut(tid)?;
        let schema = table.schema;
        let rids = table
            .index_on(probe_attr)
            .ok_or(DbError::NoProbeIndex { attr: probe_attr })?
            .tree
            .search(key)?;
        for &rid in &rids {
            let bytes = table.heap.delete(rid)?;
            for h in &mut table.hash_indices {
                h.index.delete(schema.attr_of(&bytes, h.def.attr), rid)?;
            }
            for index in &mut table.indices {
                let attr = index.def.attr;
                let k = schema.attr_of(&bytes, attr);
                match self.gate((tid, attr)).state() {
                    IndexState::Online => {
                        index.tree.delete_one(k, rid)?;
                    }
                    IndexState::OfflineSideFile => {
                        if self
                            .sidefile((tid, attr))
                            .append(SideOp::Delete { key: k, rid })
                            .is_err()
                        {
                            index.tree.delete_one(k, rid)?;
                        }
                    }
                    IndexState::OfflineDirect => {
                        index.tree.delete_one(k, rid)?;
                        self.undeletable.lock().remove(&(attr, k, rid));
                    }
                }
            }
        }
        Ok(rids)
    }

    /// Read tuples by key through the index on `attr` (waits while that
    /// index is offline — "the off-line indices cannot be used as access
    /// paths").
    pub fn read(&self, txn: TxnId, tid: TableId, attr: usize, key: Key) -> TxnResult<Vec<Tuple>> {
        self.lock_shared_online(txn, tid, attr)?;
        let db = self.db.lock();
        let table = db.table(tid)?;
        let rids = table
            .index_on(attr)
            .ok_or(DbError::NoSuchIndex { attr })?
            .tree
            .search(key)?;
        rids.into_iter()
            .map(|rid| {
                Ok(table
                    .schema
                    .decode(&table.heap.get(rid).map_err(DbError::from)?))
            })
            .collect()
    }

    /// Range read `lo..=hi` through the index on `attr`, batch-wise: a
    /// B-link [`RangeCursor`] harvests up to [`RANGE_BATCH`] entries per
    /// db-mutex span and fetches their rows under the *same* span (so a
    /// harvested RID can never dangle), then drops the mutex before the
    /// next batch. Between batches the cursor holds no page pin, so a
    /// [`TxnDb::bulk_delete_live`] chunk — or any updater — may
    /// reorganise the tree under it; the cursor resumes by re-pinning its
    /// remembered leaf and chasing right pointers.
    pub fn range_read(
        &self,
        txn: TxnId,
        tid: TableId,
        attr: usize,
        lo: Key,
        hi: Key,
    ) -> TxnResult<Vec<Tuple>> {
        self.lock_shared_online(txn, tid, attr)?;
        let mut cursor = {
            let db = self.db.lock();
            let table = db.table(tid)?;
            let index = table.index_on(attr).ok_or(DbError::NoSuchIndex { attr })?;
            RangeCursor::new(&index.tree, lo, hi).map_err(DbError::from)?
        };
        let mut out = Vec::new();
        while !cursor.done() {
            let db = self.db.lock();
            let table = db.table(tid)?;
            let index = table.index_on(attr).ok_or(DbError::NoSuchIndex { attr })?;
            let batch = cursor
                .next_batch(&index.tree, RANGE_BATCH)
                .map_err(DbError::from)?;
            for (_, rid) in batch {
                out.push(
                    table
                        .schema
                        .decode(&table.heap.get(rid).map_err(DbError::from)?),
                );
            }
        }
        Ok(out)
    }

    /// The sorted, distinct `keys` in the heap order of their rows: one
    /// read-only merge against the probe index under the table S lock,
    /// the hits sorted by RID with the charged external sort, each key at
    /// its first RID, then the keys the index does not hold. Runs with no
    /// pacer installed, so it adds no checkpoint to the statement's count.
    fn heap_order(
        &self,
        tid: TableId,
        probe_attr: usize,
        keys: &[Key],
        pool: &Arc<BufferPool>,
        ws_bytes: usize,
    ) -> TxnResult<Vec<Key>> {
        let txn = self.begin();
        self.locks.acquire(txn, tid, LockMode::Shared)?;
        let hits = (|| -> TxnResult<Vec<(Key, Rid)>> {
            let db = self.db.lock();
            let table = db.table(tid)?;
            let index = table
                .index_on(probe_attr)
                .ok_or(DbError::NoProbeIndex { attr: probe_attr })?;
            Ok(lookup_keys_sorted(&index.tree, keys).map_err(DbError::from)?)
        })();
        self.locks.release_all(txn);
        let hits = hits?;
        let (by_rid, _) = sort_all(
            pool.clone(),
            hits.into_iter().map(|(k, r)| ByRid(r, k)),
            ws_bytes,
        )?;
        let mut placed = HashSet::with_capacity(keys.len());
        let mut out: Vec<Key> = by_rid
            .into_iter()
            .map(|b| b.1)
            .filter(|&k| placed.insert(k))
            .collect();
        out.extend(keys.iter().filter(|k| !placed.contains(k)));
        Ok(out)
    }

    /// Online (chunked) bulk delete: the §3.1 protocol re-cut for live
    /// foreground traffic.
    ///
    /// `D` is sorted once, then processed in chunks of `chunk` keys. Each
    /// chunk runs the pass core's serial prefix — the probe index, the heap
    /// and every unique index — inside one short exclusive span (table
    /// lock + db mutex), then releases both so foreground transactions
    /// interleave. Deletes commute — `D` equals the disjoint union of its
    /// chunks — so after every chunk those structures are exactly the
    /// state a smaller bulk delete would have left, and the probe and
    /// unique indices never leave service.
    ///
    /// When `D` spans more than one chunk, the chunks are cut along the
    /// heap, not along the key: `D` is first merged read-only against the
    /// probe index (under the table S lock), and its keys are dealt out in
    /// the RID order of their rows, keys the index does not hold last. Each
    /// chunk then deletes one stretch of the heap instead of re-walking all
    /// of it. That order only decides which keys travel together; every
    /// chunk still finds its own victims through the probe index under X.
    ///
    /// Non-unique secondary indices go offline for the whole run (their
    /// `⋈̄` only pays off set-oriented) and are caught up in a phase-2
    /// propagation: the accumulated deleted-row stream is applied chunked
    /// and the side-file (in [`PropagationMode::SideFile`]) replayed. Each
    /// hash index is swept once in phase 2 too, before those trees, with
    /// no gate and no side-file: nothing here reads through a hash index
    /// or checks a constraint with one, and its bulk delete removes at most
    /// one entry per victim, so a foreground insert that re-used a victim's
    /// RID under the same hash value keeps its own entry.
    ///
    /// The `pacer` governs the run cooperatively: between chunks it is
    /// checked with no locks held (the natural pause point — a parked
    /// deleter stalls no foreground work), and it is installed around each
    /// chunk body so every page-visit loop inside checkpoints too (a pause
    /// landing there parks with zero pinned frames, though it holds the
    /// chunk's locks until resumed). Cancelling stops before the next
    /// chunk; already-deleted chunks are *committed*, so phase-2
    /// propagation for them always completes (it runs under
    /// [`bypass_cancel`]) and the indices come back online consistent —
    /// the statement then fails with `Cancelled` having deleted a prefix
    /// of `D`.
    pub fn bulk_delete_live(
        &self,
        tid: TableId,
        probe_attr: usize,
        d_keys: &[Key],
        mode: PropagationMode,
        chunk: usize,
        pacer: &Pacer,
    ) -> TxnResult<LiveDeleteStats> {
        let _serial = self.bulk_serial.lock();
        let chunk = chunk.max(1);
        let (pool, ws_bytes, schema, plan, order, n_serial) = {
            let db = self.db.lock();
            let table = db.table(tid)?;
            let plan = plan_sort_merge(table, probe_attr)?;
            let (order, n_serial) = pass_order(table, &plan)?;
            (
                db.pool().clone(),
                db.workspace().capacity().max(4096),
                table.schema,
                plan,
                order,
                n_serial,
            )
        };
        let (mut keys, _) = sort_all(pool.clone(), d_keys.iter().copied(), ws_bytes)?;
        keys.dedup();
        if keys.len() > chunk {
            keys = self.heap_order(tid, probe_attr, &keys, &pool, ws_bytes)?;
        }

        // Each chunk runs the serial prefix. The rest of the order waits
        // for phase 2: the non-unique B-trees offline, the hash indices
        // untouched until their one sweep.
        let (serial, rest) = order.split_at(n_serial);
        let (mut offline_attrs, mut hash_attrs) = (Vec::new(), Vec::new());
        for &s in rest {
            match s {
                StructureId::Index(a) => offline_attrs.push(a as usize),
                StructureId::Hash(a) => hash_attrs.push(a as usize),
                _ => unreachable!("the serial prefix holds the probe and the table"),
            }
        }
        let offline_state = match mode {
            PropagationMode::SideFile => IndexState::OfflineSideFile,
            PropagationMode::Direct => IndexState::OfflineDirect,
        };

        // Phase 1: the serial prefix per chunk, each under its own short
        // exclusive span. Rows accumulate for phase 2 even if a later chunk
        // fails or is cancelled — they are committed.
        let mut deleted_rows: Vec<(Rid, Vec<u8>)> = Vec::new();
        let mut chunks = 0usize;
        let run: TxnResult<()> = (|| {
            for part in keys.chunks(chunk) {
                let mut part = part.to_vec();
                part.sort_unstable();
                // Pause point between chunks: no table lock, no db mutex —
                // a parked deleter blocks no foreground transaction.
                pacer.check().map_err(DbError::from)?;
                // One maintenance slice per pause point, paced like the
                // delete itself so a parked delete parks its upkeep too.
                if let Some(hook) = self.maintenance.lock().as_mut() {
                    let mut db = self.db.lock();
                    hook(&mut db)?;
                }
                let txn = self.begin();
                self.locks.acquire(txn, tid, LockMode::Exclusive)?;
                if chunks == 0 {
                    // "X lock, then indices off-line" (§3.1): flipped under
                    // the first exclusive span, never before it, so no
                    // reader can be inside the table when its access path
                    // goes away.
                    for &attr in &offline_attrs {
                        self.sidefile((tid, attr)).reset();
                        self.gate((tid, attr)).set(offline_state);
                    }
                }
                let chunk_res: TxnResult<()> = (|| {
                    let mut db = self.db.lock();
                    // Deep page-visit loops below checkpoint against this
                    // pacer (leaf walks, heap passes, sorts), so a pause
                    // parks mid-chunk at a pin-free point. The install
                    // defers cancellation: probe index, heap and unique
                    // indices must move together, so a cancel lets the
                    // chunk finish and is observed at the next
                    // between-chunk `check` instead.
                    let _pace = pacer.enter_defer_cancel();
                    let (parts, ws, pool) = db.parts(tid)?;
                    let passes = split(parts, probe_attr, serial);
                    let rows = run_passes(
                        &mut PhaseExecutor::new(1),
                        &pool,
                        &ws,
                        schema,
                        &plan,
                        passes,
                        n_serial,
                        &part,
                        ReorgPolicy::FreeAtEmpty,
                    )?;
                    deleted_rows.extend(rows);
                    Ok(())
                })();
                self.locks.release_all(txn);
                chunk_res?;
                chunks += 1;
            }
            Ok(())
        })();

        // Phase 2: propagate the committed deletes to the hash indices and
        // the offline trees, chunked so no db-mutex span outlasts a chunk's
        // worth of work. This tail is obligated — the heap rows are gone —
        // so it runs under `bypass_cancel`: a cancelled or failed run still
        // brings every index back online consistent with the prefix it
        // deleted.
        let span = chunk.max(CATCHUP_BATCH);
        let cleanup: TxnResult<()> = bypass_cancel(|| {
            // One db-mutex span of work on the offline index on `attr`.
            let on_index = |attr: usize, work: &mut dyn FnMut(&mut Index) -> StorageResult<()>| {
                let mut db = self.db.lock();
                let index = db.table_mut(tid)?.index_on_mut(attr);
                TxnResult::Ok(work(index.expect("index present"))?)
            };
            // The same on the hash index on `attr`.
            let on_hash = |attr: usize, work: &mut dyn FnMut(&mut HashIdx) -> StorageResult<()>| {
                let mut db = self.db.lock();
                let mut hashes = db.table_mut(tid)?.hash_indices.iter_mut();
                let h = hashes.find(|h| h.def.attr == attr);
                TxnResult::Ok(work(h.expect("hash index present"))?)
            };
            // One bucket sweep per hash index, in spans of contiguous
            // buckets.
            for &attr in &hash_attrs {
                let mut entries: Vec<(Key, Rid)> = project(&deleted_rows, schema, attr).collect();
                on_hash(attr, &mut |h| {
                    h.index.sort_for_sweep(&mut entries);
                    Ok(())
                })?;
                for part in entries.chunks(span) {
                    on_hash(attr, &mut |h| {
                        h.index.bulk_delete(part)?;
                        Ok(())
                    })?;
                }
            }
            for &attr in &offline_attrs {
                let proj: Vec<(Key, Rid)> = {
                    let undeletable = self.undeletable.lock();
                    project(&deleted_rows, schema, attr)
                        .filter(|&(k, r)| !undeletable.contains(&(attr, k, r)))
                        .collect()
                };
                let (pairs, _) = sort_all(pool.clone(), proj, ws_bytes)?;
                for part in pairs.chunks(span) {
                    on_index(attr, &mut |index| {
                        let mut pass = Victims::Tree(index, part.to_vec());
                        pass.run(0, usize::MAX, ReorgPolicy::FreeAtEmpty, |_| Ok(()))?;
                        Ok(())
                    })?;
                }
                match mode {
                    PropagationMode::SideFile => {
                        let sf = self.sidefile((tid, attr));
                        loop {
                            let batch = sf.drain_batch(CATCHUP_BATCH);
                            let done = batch.len() < CATCHUP_BATCH;
                            if !batch.is_empty() {
                                on_index(attr, &mut |index| apply_ops(&mut index.tree, &batch))?;
                            }
                            if done {
                                break;
                            }
                        }
                        let tail = sf.quiesce_and_drain();
                        on_index(attr, &mut |index| apply_ops(&mut index.tree, &tail))?;
                        self.gate((tid, attr)).set(IndexState::Online);
                        sf.reset();
                    }
                    PropagationMode::Direct => {
                        self.undeletable.lock().retain(|&(a, _, _)| a != attr);
                        self.gate((tid, attr)).set(IndexState::Online);
                    }
                }
            }
            Ok(())
        });
        // Safety sweep: no gate may stay offline past this point, or
        // foreground waiters hang forever.
        for &attr in &offline_attrs {
            self.gate((tid, attr)).set(IndexState::Online);
        }
        run?;
        cleanup?;
        Ok(LiveDeleteStats {
            deleted: deleted_rows.len(),
            chunks,
        })
    }

    /// Concurrent bulk delete following the §3.1 protocol: the live path
    /// with all of `D` in one exclusive span and nobody pacing it. Blocks
    /// until every index is back online. Returns the number of deleted
    /// records.
    pub fn bulk_delete(
        &self,
        tid: TableId,
        probe_attr: usize,
        d_keys: &[Key],
        mode: PropagationMode,
    ) -> TxnResult<usize> {
        self.bulk_delete_live(tid, probe_attr, d_keys, mode, usize::MAX, &Pacer::new())
            .map(|stats| stats.deleted)
    }
}
