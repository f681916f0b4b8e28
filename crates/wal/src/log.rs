//! The log manager: an append-only, force-on-append record log.
//!
//! The log models stable storage: anything appended survives a simulated
//! crash (which discards only the buffer pool). Records are stored
//! length-prefixed in one byte buffer to keep the encoding honest.

use parking_lot::Mutex;

use crate::driver::WalError;
use crate::record::{LogRecord, Lsn};

#[derive(Default)]
struct Inner {
    buf: Vec<u8>,
    offsets: Vec<(usize, usize)>, // (start, len) per record
}

/// Append-only record log.
#[derive(Default)]
pub struct LogManager {
    inner: Mutex<Inner>,
}

impl LogManager {
    /// Empty log.
    pub fn new() -> Self {
        LogManager::default()
    }

    /// Append a record (forced: durable immediately). Returns its LSN.
    pub fn append(&self, record: &LogRecord) -> Lsn {
        let mut inner = self.inner.lock();
        let bytes = record.encode();
        let start = inner.buf.len();
        inner
            .buf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        inner.buf.extend_from_slice(&bytes);
        inner.offsets.push((start + 4, bytes.len()));
        (inner.offsets.len() - 1) as Lsn
    }

    /// Append pre-encoded record bytes without validating them. Fault-
    /// injection tests corrupt the log through this; [`LogManager::append`]
    /// is the honest path.
    pub fn append_raw(&self, bytes: &[u8]) -> Lsn {
        let mut inner = self.inner.lock();
        let start = inner.buf.len();
        inner
            .buf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        inner.buf.extend_from_slice(bytes);
        inner.offsets.push((start + 4, bytes.len()));
        (inner.offsets.len() - 1) as Lsn
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.lock().offsets.len()
    }

    /// True if no records were appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode every record in order (recovery's analysis pass). A record
    /// that fails to decode surfaces as [`WalError::CorruptLog`].
    pub fn records(&self) -> Result<Vec<LogRecord>, WalError> {
        let inner = self.inner.lock();
        inner
            .offsets
            .iter()
            .map(|&(start, len)| LogRecord::decode(&inner.buf[start..start + len]))
            .collect()
    }

    /// Total bytes in the log (diagnostics).
    pub fn byte_len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// A copy of the raw log bytes. The erasure verifier scans this as one
    /// of its proof surfaces: after redaction no erased key may remain
    /// anywhere in the log image.
    pub fn raw_bytes(&self) -> Vec<u8> {
        self.inner.lock().buf.clone()
    }

    /// Scrub every record with LSN `< before` whose tag is in `tags`,
    /// overwriting its payload **in place** with a [`LogRecord::Redacted`]
    /// marker plus zero padding. Record offsets and lengths are preserved,
    /// so LSNs and the byte layout of untouched records never move — the
    /// log stays decodable end to end. Returns how many records were
    /// redacted.
    ///
    /// This is the erasure campaign's commit-time step: the delete lists
    /// and materialized victim rows the WAL needed for crash recovery are
    /// themselves key-bearing surfaces, and once the campaign commits they
    /// must stop retaining the erased values.
    pub fn redact_before(&self, before: Lsn, tags: &[u8]) -> usize {
        let mut inner = self.inner.lock();
        let mut redacted = 0;
        for lsn in 0..(before as usize).min(inner.offsets.len()) {
            let (start, len) = inner.offsets[lsn];
            // A one-byte slot cannot hold the [11, original_tag] marker;
            // no key-bearing record is that small.
            if len < 2 {
                continue;
            }
            let tag = inner.buf[start];
            if !tags.contains(&tag) || tag == 11 {
                continue;
            }
            inner.buf[start] = 11; // Redacted
            inner.buf[start + 1] = tag;
            inner.buf[start + 2..start + len].fill(0);
            redacted += 1;
        }
        redacted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::StructureId;

    #[test]
    fn append_and_replay() {
        let log = LogManager::new();
        let l0 = log.append(&LogRecord::BulkBegin {
            probe_attr: 0,
            keys: vec![1, 2, 3],
            counters: Default::default(),
        });
        let l1 = log.append(&LogRecord::StructureDone {
            structure: StructureId::Table,
        });
        let l2 = log.append(&LogRecord::BulkCommit);
        assert_eq!((l0, l1, l2), (0, 1, 2));
        let records = log.records().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2], LogRecord::BulkCommit);
        assert!(matches!(records[0], LogRecord::BulkBegin { ref keys, .. } if keys.len() == 3));
    }

    #[test]
    fn log_is_byte_backed() {
        let log = LogManager::new();
        log.append(&LogRecord::BulkCommit);
        assert!(log.byte_len() >= 5);
    }

    #[test]
    fn corrupt_record_surfaces_from_records() {
        let log = LogManager::new();
        log.append(&LogRecord::BulkCommit);
        log.append_raw(&[99, 1, 2, 3]); // unknown tag
        assert!(matches!(log.records(), Err(WalError::CorruptLog(_))));
    }

    #[test]
    fn redact_scrubs_key_bearing_records_in_place() {
        let log = LogManager::new();
        log.append(&LogRecord::BulkBegin {
            probe_attr: 0,
            keys: vec![0xDEAD_BEEF_CAFE_F00D, 7],
            counters: Default::default(),
        });
        log.append(&LogRecord::StructureDone {
            structure: StructureId::Table,
        });
        log.append(&LogRecord::BulkCommit);
        let bytes_before = log.byte_len();

        let n = log.redact_before(log.len() as Lsn, &[1, 2, 8]);
        assert_eq!(n, 1, "only the BulkBegin bears keys");
        // Layout untouched: same byte length, every record still decodes.
        assert_eq!(log.byte_len(), bytes_before);
        let records = log.records().unwrap();
        assert_eq!(records[0], LogRecord::Redacted { original_tag: 1 });
        assert_eq!(records[2], LogRecord::BulkCommit);
        // The key value is gone from the raw image.
        let raw = log.raw_bytes();
        let needle = 0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes();
        assert!(
            !raw.windows(8).any(|w| w == needle),
            "redaction must remove the key bytes from the log image"
        );
        // Idempotent: a second pass finds nothing left to scrub.
        assert_eq!(log.redact_before(log.len() as Lsn, &[1, 2, 8]), 0);
    }

    #[test]
    fn redact_respects_the_lsn_bound() {
        let log = LogManager::new();
        log.append(&LogRecord::BulkBegin {
            probe_attr: 0,
            keys: vec![1],
            counters: Default::default(),
        });
        let bound = log.append(&LogRecord::BulkCommit);
        log.append(&LogRecord::BulkBegin {
            probe_attr: 0,
            keys: vec![2],
            counters: Default::default(),
        });
        // Redact strictly before the commit: the later BulkBegin survives.
        assert_eq!(log.redact_before(bound, &[1]), 1);
        let records = log.records().unwrap();
        assert_eq!(records[0], LogRecord::Redacted { original_tag: 1 });
        assert!(matches!(records[2], LogRecord::BulkBegin { ref keys, .. } if keys == &[2]));
    }
}
