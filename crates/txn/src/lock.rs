//! Table-level lock manager.
//!
//! The paper argues fine-grained locking is pointless for bulk deletes:
//! "database systems employing lock escalation would switch to an exclusive
//! lock on the base table, anyway. ... Therefore, our bulk deletion process
//! locks table R exclusively" (§3.1). This manager provides shared /
//! exclusive table locks with writer priority (a parked exclusive request
//! blocks new shared grants, so a stream of readers cannot starve the
//! bulk deleter) and timeout-based deadlock resolution.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Transaction identifier.
pub type TxnId = u64;

/// Lockable resource (table id).
pub type ResourceId = usize;

/// Requested lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers, record-level updaters outside bulk deletion).
    Shared,
    /// Exclusive (the bulk deleter's table lock).
    Exclusive,
}

/// Lock acquisition failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The wait exceeded the timeout (deadlock suspicion).
    Timeout {
        /// Waiting transaction.
        txn: TxnId,
        /// Contested resource.
        resource: ResourceId,
    },
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Timeout { txn, resource } => {
                write!(f, "txn {txn} timed out waiting for resource {resource}")
            }
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Default)]
struct LockState {
    sharers: Vec<TxnId>,
    exclusive: Option<TxnId>,
    /// Exclusive requesters currently parked on this resource. A *new*
    /// shared request is held back while this is non-empty (writer
    /// priority): without it a continuous stream of readers starves the
    /// bulk deleter's table lock indefinitely. Re-acquisition by an
    /// existing holder stays compatible so readers already in can finish.
    waiting_exclusive: Vec<TxnId>,
}

impl LockState {
    fn compatible(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => {
                (self.exclusive.is_none() || self.exclusive == Some(txn))
                    && (self.waiting_exclusive.is_empty()
                        || self.sharers.contains(&txn)
                        || self.exclusive == Some(txn))
            }
            LockMode::Exclusive => {
                (self.exclusive.is_none() || self.exclusive == Some(txn))
                    && self.sharers.iter().all(|&t| t == txn)
            }
        }
    }

    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                if !self.sharers.contains(&txn) {
                    self.sharers.push(txn);
                }
            }
            LockMode::Exclusive => self.exclusive = Some(txn),
        }
    }
}

/// Shared/exclusive lock table.
pub struct LockManager {
    table: Mutex<HashMap<ResourceId, LockState>>,
    cv: Condvar,
    timeout: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(Duration::from_secs(10))
    }
}

impl LockManager {
    /// Manager whose waits give up after `timeout`.
    pub fn new(timeout: Duration) -> Self {
        LockManager {
            table: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            timeout,
        }
    }

    /// Acquire `mode` on `resource` for `txn`, blocking until granted or
    /// timed out. Re-acquisition and shared→exclusive upgrade (when `txn`
    /// is the only holder) are supported.
    pub fn acquire(
        &self,
        txn: TxnId,
        resource: ResourceId,
        mode: LockMode,
    ) -> Result<(), LockError> {
        let deadline = Instant::now() + self.timeout;
        let mut table = self.table.lock();
        let mut registered = false;
        loop {
            let state = table.entry(resource).or_default();
            if state.compatible(txn, mode) {
                if registered {
                    state.waiting_exclusive.retain(|&t| t != txn);
                }
                state.grant(txn, mode);
                // Waking sharers parked behind this txn's own (now
                // satisfied) exclusive registration.
                self.cv.notify_all();
                return Ok(());
            }
            if mode == LockMode::Exclusive && !registered {
                state.waiting_exclusive.push(txn);
                registered = true;
            }
            if self.cv.wait_until(&mut table, deadline).timed_out() {
                if registered {
                    if let Some(state) = table.get_mut(&resource) {
                        state.waiting_exclusive.retain(|&t| t != txn);
                    }
                    self.cv.notify_all();
                }
                return Err(LockError::Timeout { txn, resource });
            }
        }
    }

    /// Release everything `txn` holds on `resource`.
    pub fn release(&self, txn: TxnId, resource: ResourceId) {
        let mut table = self.table.lock();
        if let Some(state) = table.get_mut(&resource) {
            state.sharers.retain(|&t| t != txn);
            if state.exclusive == Some(txn) {
                state.exclusive = None;
            }
        }
        self.cv.notify_all();
    }

    /// Release everything `txn` holds anywhere (transaction end).
    pub fn release_all(&self, txn: TxnId) {
        let mut table = self.table.lock();
        for state in table.values_mut() {
            state.sharers.retain(|&t| t != txn);
            if state.exclusive == Some(txn) {
                state.exclusive = None;
            }
        }
        self.cv.notify_all();
    }

    /// True if `txn` holds a lock of either mode on `resource`.
    pub fn holds(&self, txn: TxnId, resource: ResourceId) -> bool {
        self.table
            .lock()
            .get(&resource)
            .map(|s| s.exclusive == Some(txn) || s.sharers.contains(&txn))
            .unwrap_or(false)
    }

    /// True if `txn` holds an exclusive lock on `resource`.
    pub fn holds_exclusive(&self, txn: TxnId, resource: ResourceId) -> bool {
        self.table
            .lock()
            .get(&resource)
            .map(|s| s.exclusive == Some(txn))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::default();
        lm.acquire(1, 0, LockMode::Shared).unwrap();
        lm.acquire(2, 0, LockMode::Shared).unwrap();
        lm.release_all(1);
        lm.release_all(2);
    }

    #[test]
    fn exclusive_excludes_shared() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(1, 0, LockMode::Exclusive).unwrap();
        assert!(matches!(
            lm.acquire(2, 0, LockMode::Shared),
            Err(LockError::Timeout { txn: 2, .. })
        ));
        lm.release(1, 0);
        lm.acquire(2, 0, LockMode::Shared).unwrap();
    }

    #[test]
    fn reacquire_and_upgrade() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(1, 0, LockMode::Shared).unwrap();
        // Sole sharer may upgrade.
        lm.acquire(1, 0, LockMode::Exclusive).unwrap();
        assert!(lm.holds_exclusive(1, 0));
        // Exclusive holder may re-acquire shared.
        lm.acquire(1, 0, LockMode::Shared).unwrap();
    }

    #[test]
    fn upgrade_blocked_by_other_sharer() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(1, 0, LockMode::Shared).unwrap();
        lm.acquire(2, 0, LockMode::Shared).unwrap();
        assert!(lm.acquire(1, 0, LockMode::Exclusive).is_err());
    }

    #[test]
    fn waiting_thread_wakes_on_release() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        lm.acquire(1, 7, LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || lm2.acquire(2, 7, LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(20));
        lm.release(1, 7);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn locks_are_per_resource() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.acquire(1, 0, LockMode::Exclusive).unwrap();
        lm.acquire(2, 1, LockMode::Exclusive).unwrap();
    }

    /// Writer priority: a continuous stream of short shared holders must
    /// not starve a parked exclusive request — new sharers queue behind it.
    #[test]
    fn reader_stream_cannot_starve_an_exclusive_waiter() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for t in 0..3u64 {
            let lm = lm.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let mut txn = 100 + t * 1000;
                while !stop.load(Ordering::Acquire) {
                    lm.acquire(txn, 0, LockMode::Shared).unwrap();
                    lm.release_all(txn);
                    txn += 1;
                }
            }));
        }
        // Let the reader stream saturate the resource, then demand it.
        std::thread::sleep(Duration::from_millis(30));
        let granted = lm.acquire(1, 0, LockMode::Exclusive);
        stop.store(true, Ordering::Release);
        let still_holding = lm.holds_exclusive(1, 0);
        lm.release_all(1);
        for r in readers {
            r.join().unwrap();
        }
        granted.expect("exclusive request starved by readers");
        assert!(still_holding);
    }

    /// A sharer already admitted before the exclusive request queued can
    /// re-acquire (it is not deadlocked by the writer-priority gate), and
    /// the waiter's registration is withdrawn on timeout so later sharers
    /// proceed.
    #[test]
    fn writer_priority_allows_existing_sharers_and_clears_on_timeout() {
        let lm = Arc::new(LockManager::new(Duration::from_millis(80)));
        lm.acquire(1, 0, LockMode::Shared).unwrap();
        let lm2 = lm.clone();
        let waiter = std::thread::spawn(move || lm2.acquire(2, 0, LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(20));
        // Existing holder passes the gate; a newcomer blocks behind the
        // parked writer and is admitted only once the writer withdraws
        // (txn 1 never releases, so the waiter times out at ~80 ms).
        lm.acquire(1, 0, LockMode::Shared).unwrap();
        let t0 = Instant::now();
        lm.acquire(3, 0, LockMode::Shared).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "newcomer sharer jumped the writer-priority gate"
        );
        assert!(waiter.join().unwrap().is_err());
    }
}
