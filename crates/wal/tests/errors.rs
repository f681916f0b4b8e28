//! Display strings and `From` conversions of the recovery error type.
//!
//! Callers match on these (the campaign distinguishes `Crashed` from
//! everything else) and operators read them; both contracts are pinned
//! here so a refactor cannot silently change them.

use bd_core::DbError;
use bd_storage::{Rid, StorageError};
use bd_wal::{CrashSite, WalError};

#[test]
fn disk_crash_becomes_crashed_in_io() {
    // The disk's crash point surfaces as a *crash*, never an engine error:
    // the caller must run recovery, exactly as for an injector site.
    let via_db = WalError::from(DbError::Storage(StorageError::SimulatedCrash));
    assert!(matches!(via_db, WalError::Crashed(CrashSite::InIo)));
    let via_storage = WalError::from(StorageError::SimulatedCrash);
    assert!(matches!(via_storage, WalError::Crashed(CrashSite::InIo)));
}

#[test]
fn other_storage_errors_stay_engine_errors() {
    let e = WalError::from(StorageError::InjectedFault(7));
    assert!(
        matches!(
            e,
            WalError::Db(DbError::Storage(StorageError::InjectedFault(7)))
        ),
        "got {e:?}"
    );
    let e = WalError::from(DbError::NoProbeIndex { attr: 3 });
    assert!(matches!(e, WalError::Db(DbError::NoProbeIndex { attr: 3 })));
}

#[test]
fn wal_error_display_strings() {
    assert_eq!(
        WalError::Crashed(CrashSite::InIo).to_string(),
        "simulated crash at InIo"
    );
    let d = WalError::Divergence {
        crash_point: 42,
        details: "audit found 1 divergence(s)".into(),
    };
    assert_eq!(
        d.to_string(),
        "recovery diverged after a crash at disk access 42: audit found 1 divergence(s)"
    );
    // Db errors pass their inner Display through untouched.
    let inner = DbError::Storage(StorageError::SimulatedCrash);
    assert_eq!(WalError::Db(inner.clone()).to_string(), inner.to_string());
    assert_eq!(
        WalError::CorruptLog("unknown record tag 9".into()).to_string(),
        "corrupt log record: unknown record tag 9"
    );
}

#[test]
fn storage_fault_display_strings() {
    assert_eq!(
        StorageError::InjectedFault(9).to_string(),
        "injected fault at page 9"
    );
    assert_eq!(
        StorageError::ChecksumMismatch(4).to_string(),
        "checksum mismatch at page 4: torn write detected"
    );
    assert_eq!(
        StorageError::CorruptPage(5).to_string(),
        "page 5 does not decode: corrupt contents"
    );
    assert_eq!(
        StorageError::SimulatedCrash.to_string(),
        "simulated crash: disk unavailable past the crash point"
    );
    assert_eq!(
        StorageError::Cancelled.to_string(),
        "task cancelled: its pacer was cancelled"
    );
    // The retry-relevant errors are distinguishable by value, which is what
    // the buffer pool's retry filter relies on.
    assert_ne!(
        StorageError::InjectedFault(1),
        StorageError::ChecksumMismatch(1)
    );
    assert!(StorageError::SlotEmpty(Rid::new(2, 3))
        .to_string()
        .contains("empty"));
}
