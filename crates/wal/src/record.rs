//! Log records and their wire encoding.
//!
//! The records implement §3.2's recipe: the delete list and the "results of
//! the join variants" are "materialized to stable storage"; checkpoints
//! record structure metadata and progress "especially ... when the
//! processing of one structure (R, I_A, I_B, or I_C) is finished".

use crate::driver::WalError;
use bd_btree::Key;
use bd_core::TableCounters;
use bd_storage::{PageCatalog, Rid};

// `StructureId` used to be defined here; it now lives at the bottom of the
// dependency graph (allocation tags pages with it) and is re-exported so
// existing `bd_wal::record::StructureId` paths keep working.
pub use bd_storage::StructureId;

/// Log sequence number (record index in this prototype).
pub type Lsn = u64;

/// One materialized victim row: its RID and all attribute values (enough
/// to re-derive every downstream index's delete pairs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedRow {
    /// Record id.
    pub rid: Rid,
    /// All attribute values of the row.
    pub attrs: Vec<Key>,
}

/// One table's share of an erasure campaign, as persisted in the
/// campaign manifest: delete `keys` from `table` probing on `attr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStep {
    /// Target table (the `TableId` as a plain index).
    pub table: u32,
    /// Probe attribute within that table.
    pub attr: u16,
    /// Sorted delete keys for this step.
    pub keys: Vec<Key>,
}

/// Durable metadata of one tree at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeMeta {
    /// Indexed attribute.
    pub attr: u16,
    /// Root page.
    pub root: u32,
    /// Tree height.
    pub height: u16,
}

/// WAL record kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A bulk delete started: the sorted delete list `D` and the table's
    /// counters before it. Recovery derives the final counters from these
    /// and the materialized rows instead of walking the table.
    BulkBegin {
        /// Attribute the delete predicate names.
        probe_attr: u16,
        /// Sorted delete keys.
        keys: Vec<Key>,
        /// The table's counters before the statement.
        counters: TableCounters,
    },
    /// The victim rows, materialized before any destructive work.
    RowsMaterialized {
        /// Victim rows in RID order.
        rows: Vec<MaterializedRow>,
    },
    /// Fuzzy checkpoint: all dirty pages were flushed; tree metadata as of
    /// this point.
    Checkpoint {
        /// Per-index durable metadata.
        trees: Vec<TreeMeta>,
    },
    /// Mid-structure progress: every victim up to and including position
    /// `done` (in the materialized row order for that structure) has been
    /// processed and flushed. "The last processed RID or key-value ...
    /// stored in the log ... will speed up recovery."
    Progress {
        /// Which structure.
        structure: StructureId,
        /// Victims processed so far.
        done: u32,
    },
    /// One structure's bulk delete pass completed.
    StructureDone {
        /// Which structure.
        structure: StructureId,
    },
    /// The bulk delete committed.
    BulkCommit,
    /// Snapshot of the page → owner catalog, appended alongside each
    /// checkpoint. Media recovery classifies torn pages against it when the
    /// disk's live catalog is unavailable.
    CatalogSnapshot {
        /// The full page → owner map.
        catalog: PageCatalog,
    },
    /// An erasure campaign started: the full cascade manifest, planned
    /// up front so recovery can resume the campaign without re-planning
    /// against a half-deleted referential graph.
    CampaignBegin {
        /// Campaign identifier (unique within this log).
        id: u64,
        /// Every table's delete step, in execution order.
        steps: Vec<CampaignStep>,
    },
    /// Step `step` of campaign `id` finished (its bulk delete committed).
    CampaignStepDone {
        /// Campaign identifier.
        id: u64,
        /// Zero-based index into the manifest's step list.
        step: u32,
    },
    /// Campaign `id` committed: every step ran, the database was scrubbed,
    /// and key-bearing log records were redacted.
    CampaignCommit {
        /// Campaign identifier.
        id: u64,
    },
    /// A record whose payload was scrubbed at campaign commit. Only the
    /// original tag survives; the rest of the slot is zero padding so the
    /// log's byte layout (offsets, lengths) is untouched by redaction.
    Redacted {
        /// Tag of the record this slot used to hold.
        original_tag: u8,
    },
    /// Campaign `id` was cancelled after `completed` steps. The completed
    /// prefix is committed and consistent; the remaining steps never ran.
    CampaignCancelled {
        /// Campaign identifier.
        id: u64,
        /// Number of manifest steps that finished before the cancel.
        completed: u32,
    },
    /// The maintenance daemon started restructuring `structure` (incremental
    /// leaf packing / page recycling). Maintenance rewrites pages without
    /// logging their images, so an unclosed bracket at recovery means the
    /// structure may hold a half-applied rewrite and must be rebuilt from
    /// the heap.
    MaintainBegin {
        /// Structure under maintenance.
        structure: StructureId,
    },
    /// The maintenance pass over `structure` finished and its pages were
    /// flushed; the bracket opened by the matching
    /// [`LogRecord::MaintainBegin`] is closed.
    MaintainEnd {
        /// Structure under maintenance.
        structure: StructureId,
    },
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Bounds-checked slice of the next `n` bytes; a truncated buffer is a
    /// decode error, never a panic.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        let avail = self.buf.len() - self.pos;
        if avail < n {
            return Err(WalError::CorruptLog(format!(
                "record truncated at byte {}: need {n} more, {avail} available",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Check that at least `n` more bytes exist without consuming them
    /// (guards length-prefixed loops against absurd counts from corrupt
    /// prefixes before anything is allocated).
    fn need(&self, n: usize) -> Result<(), WalError> {
        let avail = self.buf.len() - self.pos;
        if avail < n {
            return Err(WalError::CorruptLog(format!(
                "record truncated at byte {}: need {n} more, {avail} available",
                self.pos
            )));
        }
        Ok(())
    }
    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WalError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

impl LogRecord {
    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            LogRecord::BulkBegin {
                probe_attr,
                keys,
                counters,
            } => {
                out.push(1);
                put_u16(&mut out, *probe_attr);
                put_u32(&mut out, keys.len() as u32);
                for k in keys {
                    put_u64(&mut out, *k);
                }
                encode_counters(&mut out, counters);
            }
            LogRecord::RowsMaterialized { rows } => {
                out.push(2);
                put_u32(&mut out, rows.len() as u32);
                if let Some(first) = rows.first() {
                    put_u16(&mut out, first.attrs.len() as u16);
                } else {
                    put_u16(&mut out, 0);
                }
                for row in rows {
                    put_u64(&mut out, row.rid.to_u64());
                    for a in &row.attrs {
                        put_u64(&mut out, *a);
                    }
                }
            }
            LogRecord::Checkpoint { trees } => {
                out.push(3);
                put_u32(&mut out, trees.len() as u32);
                for t in trees {
                    put_u16(&mut out, t.attr);
                    put_u32(&mut out, t.root);
                    put_u16(&mut out, t.height);
                }
            }
            LogRecord::StructureDone { structure } => {
                out.push(4);
                encode_structure(&mut out, *structure);
            }
            LogRecord::BulkCommit => out.push(5),
            LogRecord::Progress { structure, done } => {
                out.push(6);
                put_u32(&mut out, *done);
                encode_structure(&mut out, *structure);
            }
            LogRecord::CatalogSnapshot { catalog } => {
                out.push(7);
                catalog.encode(&mut out);
            }
            LogRecord::CampaignBegin { id, steps } => {
                out.push(8);
                put_u64(&mut out, *id);
                put_u32(&mut out, steps.len() as u32);
                for s in steps {
                    put_u32(&mut out, s.table);
                    put_u16(&mut out, s.attr);
                    put_u32(&mut out, s.keys.len() as u32);
                    for k in &s.keys {
                        put_u64(&mut out, *k);
                    }
                }
            }
            LogRecord::CampaignStepDone { id, step } => {
                out.push(9);
                put_u64(&mut out, *id);
                put_u32(&mut out, *step);
            }
            LogRecord::CampaignCommit { id } => {
                out.push(10);
                put_u64(&mut out, *id);
            }
            LogRecord::Redacted { original_tag } => {
                out.push(11);
                out.push(*original_tag);
            }
            LogRecord::CampaignCancelled { id, completed } => {
                out.push(12);
                put_u64(&mut out, *id);
                put_u32(&mut out, *completed);
            }
            LogRecord::MaintainBegin { structure } => {
                out.push(13);
                encode_structure(&mut out, *structure);
            }
            LogRecord::MaintainEnd { structure } => {
                out.push(14);
                encode_structure(&mut out, *structure);
            }
        }
        out
    }

    /// Deserialize from bytes produced by [`LogRecord::encode`].
    ///
    /// Corrupt input — an unknown tag, or a buffer truncated anywhere —
    /// is reported as [`WalError::CorruptLog`], never a panic: recovery
    /// reads the log after a crash and must fail cleanly on damage.
    pub fn decode(buf: &[u8]) -> Result<LogRecord, WalError> {
        let mut r = Reader { buf, pos: 0 };
        Ok(match r.u8()? {
            1 => {
                let probe_attr = r.u16()?;
                let n = r.u32()? as usize;
                r.need(n * 8)?;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(r.u64()?);
                }
                LogRecord::BulkBegin {
                    probe_attr,
                    keys,
                    counters: decode_counters(&mut r)?,
                }
            }
            2 => {
                let n = r.u32()? as usize;
                let n_attrs = r.u16()? as usize;
                r.need(n * (1 + n_attrs) * 8)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let rid = Rid::from_u64(r.u64()?);
                    let mut attrs = Vec::with_capacity(n_attrs);
                    for _ in 0..n_attrs {
                        attrs.push(r.u64()?);
                    }
                    rows.push(MaterializedRow { rid, attrs });
                }
                LogRecord::RowsMaterialized { rows }
            }
            3 => {
                let n = r.u32()? as usize;
                r.need(n * 8)?;
                let mut trees = Vec::with_capacity(n);
                for _ in 0..n {
                    trees.push(TreeMeta {
                        attr: r.u16()?,
                        root: r.u32()?,
                        height: r.u16()?,
                    });
                }
                LogRecord::Checkpoint { trees }
            }
            4 => LogRecord::StructureDone {
                structure: decode_structure(&mut r)?,
            },
            5 => LogRecord::BulkCommit,
            6 => {
                let done = r.u32()?;
                LogRecord::Progress {
                    structure: decode_structure(&mut r)?,
                    done,
                }
            }
            7 => {
                let mut pos = r.pos;
                let catalog = PageCatalog::decode(r.buf, &mut pos).ok_or_else(|| {
                    WalError::CorruptLog(
                        "catalog snapshot truncated or has unknown owner tag".into(),
                    )
                })?;
                LogRecord::CatalogSnapshot { catalog }
            }
            8 => {
                let id = r.u64()?;
                let n = r.u32()? as usize;
                // Each step costs at least 10 bytes (table + attr + count).
                r.need(n * 10)?;
                let mut steps = Vec::with_capacity(n);
                for _ in 0..n {
                    let table = r.u32()?;
                    let attr = r.u16()?;
                    let nk = r.u32()? as usize;
                    r.need(nk * 8)?;
                    let mut keys = Vec::with_capacity(nk);
                    for _ in 0..nk {
                        keys.push(r.u64()?);
                    }
                    steps.push(CampaignStep { table, attr, keys });
                }
                LogRecord::CampaignBegin { id, steps }
            }
            9 => LogRecord::CampaignStepDone {
                id: r.u64()?,
                step: r.u32()?,
            },
            10 => LogRecord::CampaignCommit { id: r.u64()? },
            11 => {
                // Redaction overwrites a record slot in place, so trailing
                // zero padding out to the original length is expected and
                // deliberately NOT an error.
                LogRecord::Redacted {
                    original_tag: r.u8()?,
                }
            }
            12 => LogRecord::CampaignCancelled {
                id: r.u64()?,
                completed: r.u32()?,
            },
            13 => LogRecord::MaintainBegin {
                structure: decode_structure(&mut r)?,
            },
            14 => LogRecord::MaintainEnd {
                structure: decode_structure(&mut r)?,
            },
            t => return Err(WalError::CorruptLog(format!("unknown record tag {t}"))),
        })
    }
}

/// Heap records (u64), then the FSM as `(page u32, free u32)` pairs, then
/// the trees' and the hash indices' `(attr u16, entries u64)` pairs; each
/// list is prefixed by its u32 length.
fn encode_counters(out: &mut Vec<u8>, c: &TableCounters) {
    put_u64(out, c.heap_records as u64);
    put_u32(out, c.fsm.len() as u32);
    for &(pid, free) in &c.fsm {
        put_u32(out, pid);
        put_u32(out, free as u32);
    }
    for counts in [&c.trees, &c.hashes] {
        put_u32(out, counts.len() as u32);
        for &(attr, n) in counts {
            put_u16(out, attr as u16);
            put_u64(out, n as u64);
        }
    }
}

fn decode_counters(r: &mut Reader<'_>) -> Result<TableCounters, WalError> {
    let heap_records = r.u64()? as usize;
    let n = r.u32()? as usize;
    r.need(n * 8)?;
    let mut fsm = Vec::with_capacity(n);
    for _ in 0..n {
        fsm.push((r.u32()?, r.u32()? as usize));
    }
    let mut counts = || -> Result<Vec<(usize, usize)>, WalError> {
        let n = r.u32()? as usize;
        r.need(n * 10)?;
        (0..n)
            .map(|_| Ok((r.u16()? as usize, r.u64()? as usize)))
            .collect()
    };
    let trees = counts()?;
    let hashes = counts()?;
    Ok(TableCounters {
        heap_records,
        fsm,
        trees,
        hashes,
    })
}

fn encode_structure(out: &mut Vec<u8>, s: StructureId) {
    out.push(s.tag());
    if let Some(a) = s.attr() {
        put_u16(out, a);
    }
}

fn decode_structure(r: &mut Reader<'_>) -> Result<StructureId, WalError> {
    let tag = r.u8()?;
    let attr = if StructureId::tag_has_attr(tag) {
        r.u16()?
    } else {
        0
    };
    StructureId::from_tag(tag, attr)
        .ok_or_else(|| WalError::CorruptLog(format!("unknown structure tag {tag}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: LogRecord) {
        assert_eq!(LogRecord::decode(&r.encode()).unwrap(), r);
    }

    fn counters() -> TableCounters {
        TableCounters {
            heap_records: 40_000,
            fsm: vec![(0, 12), (1, 4092), (7, 0)],
            trees: vec![(0, 40_000), (2, 39_999)],
            hashes: vec![(3, 40_000)],
        }
    }

    #[test]
    fn all_records_roundtrip() {
        roundtrip(LogRecord::BulkBegin {
            probe_attr: 0,
            keys: vec![1, u64::MAX, 42],
            counters: counters(),
        });
        roundtrip(LogRecord::RowsMaterialized {
            rows: vec![
                MaterializedRow {
                    rid: Rid::new(3, 4),
                    attrs: vec![10, 20, 30],
                },
                MaterializedRow {
                    rid: Rid::new(9, 1),
                    attrs: vec![7, 8, 9],
                },
            ],
        });
        roundtrip(LogRecord::RowsMaterialized { rows: vec![] });
        roundtrip(LogRecord::Checkpoint {
            trees: vec![
                TreeMeta {
                    attr: 0,
                    root: 17,
                    height: 3,
                },
                TreeMeta {
                    attr: 2,
                    root: 400,
                    height: 4,
                },
            ],
        });
        roundtrip(LogRecord::StructureDone {
            structure: StructureId::Probe,
        });
        roundtrip(LogRecord::StructureDone {
            structure: StructureId::Table,
        });
        roundtrip(LogRecord::StructureDone {
            structure: StructureId::Index(5),
        });
        roundtrip(LogRecord::StructureDone {
            structure: StructureId::Hash(3),
        });
        roundtrip(LogRecord::Progress {
            structure: StructureId::Hash(1),
            done: 2048,
        });
        roundtrip(LogRecord::BulkCommit);
        roundtrip(LogRecord::StructureDone {
            structure: StructureId::Temp,
        });
        roundtrip(LogRecord::StructureDone {
            structure: StructureId::Lsm(2),
        });
        roundtrip(LogRecord::MaintainBegin {
            structure: StructureId::lsm_of(1),
        });
        let mut catalog = PageCatalog::new();
        catalog.note_alloc(0, 4, StructureId::Table);
        catalog.note_alloc(4, 2, StructureId::Index(1));
        catalog.free(2);
        roundtrip(LogRecord::CatalogSnapshot { catalog });
        roundtrip(LogRecord::CatalogSnapshot {
            catalog: PageCatalog::new(),
        });
        roundtrip(LogRecord::Progress {
            structure: StructureId::Index(3),
            done: 123_456,
        });
        roundtrip(LogRecord::Progress {
            structure: StructureId::Table,
            done: 0,
        });
        roundtrip(LogRecord::CampaignBegin {
            id: 7,
            steps: vec![
                CampaignStep {
                    table: 0,
                    attr: 0,
                    keys: vec![1, 2, u64::MAX],
                },
                CampaignStep {
                    table: 3,
                    attr: 2,
                    keys: vec![],
                },
            ],
        });
        roundtrip(LogRecord::CampaignBegin {
            id: 0,
            steps: vec![],
        });
        roundtrip(LogRecord::CampaignStepDone { id: 7, step: 1 });
        roundtrip(LogRecord::CampaignCommit { id: 7 });
        roundtrip(LogRecord::Redacted { original_tag: 1 });
        roundtrip(LogRecord::CampaignCancelled {
            id: 7,
            completed: 2,
        });
        roundtrip(LogRecord::MaintainBegin {
            structure: StructureId::Index(4),
        });
        roundtrip(LogRecord::MaintainBegin {
            structure: StructureId::Table,
        });
        roundtrip(LogRecord::MaintainEnd {
            structure: StructureId::Index(4),
        });
        roundtrip(LogRecord::MaintainEnd {
            structure: StructureId::Hash(1),
        });
    }

    #[test]
    fn redacted_ignores_trailing_padding() {
        // Redaction keeps the slot length: [11, orig, 0, 0, ...] must
        // decode as Redacted regardless of how much padding follows.
        let mut bytes = LogRecord::Redacted { original_tag: 2 }.encode();
        bytes.extend_from_slice(&[0u8; 37]);
        assert_eq!(
            LogRecord::decode(&bytes).unwrap(),
            LogRecord::Redacted { original_tag: 2 }
        );
    }

    #[test]
    fn empty_key_list() {
        roundtrip(LogRecord::BulkBegin {
            probe_attr: 3,
            keys: vec![],
            counters: TableCounters::default(),
        });
    }

    fn is_corrupt(buf: &[u8]) -> bool {
        matches!(LogRecord::decode(buf), Err(WalError::CorruptLog(_)))
    }

    #[test]
    fn unknown_record_tag_is_a_decode_error() {
        assert!(is_corrupt(&[9, 0, 0, 0]));
        assert!(is_corrupt(&[0]), "tag 0 was never assigned");
        assert!(is_corrupt(&[]), "an empty buffer has no tag");
    }

    #[test]
    fn unknown_structure_tag_is_a_decode_error() {
        assert!(is_corrupt(&[4, 7]), "StructureDone with structure tag 7");
        // Tag 5 named the retired R-tree's pages: a full payload after it
        // does not make it known again.
        assert!(is_corrupt(&[4, 5, 2, 0]), "retired structure tag 5");
        // Lsm claimed tag 6; the next unassigned tag still fails, and a
        // truncated Lsm payload is corruption, not a panic.
        assert!(is_corrupt(&[4, 6]), "Lsm with its u16 payload cut off");
        assert!(is_corrupt(&[4, 6, 2]), "Lsm with half its u16 payload");
    }

    #[test]
    fn truncation_anywhere_is_a_decode_error_not_a_panic() {
        let victims = [
            LogRecord::BulkBegin {
                probe_attr: 1,
                keys: vec![10, 20, 30],
                counters: counters(),
            },
            LogRecord::RowsMaterialized {
                rows: vec![MaterializedRow {
                    rid: Rid::new(3, 4),
                    attrs: vec![10, 20, 30],
                }],
            },
            LogRecord::Checkpoint {
                trees: vec![TreeMeta {
                    attr: 0,
                    root: 17,
                    height: 3,
                }],
            },
            LogRecord::Progress {
                structure: StructureId::Hash(2),
                done: 7,
            },
            LogRecord::StructureDone {
                structure: StructureId::Index(5),
            },
            {
                let mut catalog = PageCatalog::new();
                catalog.note_alloc(0, 3, StructureId::Hash(1));
                LogRecord::CatalogSnapshot { catalog }
            },
            LogRecord::CampaignBegin {
                id: 9,
                steps: vec![CampaignStep {
                    table: 1,
                    attr: 0,
                    keys: vec![5, 6],
                }],
            },
            LogRecord::CampaignStepDone { id: 9, step: 0 },
            LogRecord::CampaignCommit { id: 9 },
            LogRecord::Redacted { original_tag: 8 },
            LogRecord::CampaignCancelled {
                id: 9,
                completed: 1,
            },
            LogRecord::MaintainBegin {
                structure: StructureId::Index(2),
            },
            LogRecord::MaintainEnd {
                structure: StructureId::Index(2),
            },
            LogRecord::StructureDone {
                structure: StructureId::Lsm(3),
            },
        ];
        for rec in victims {
            let bytes = rec.encode();
            for len in 0..bytes.len() {
                assert!(
                    is_corrupt(&bytes[..len]),
                    "{rec:?} truncated to {len}/{} bytes must fail cleanly",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn wire_format_is_stable_across_versions() {
        // Byte-level pins of the pre-Hash encodings: tags 0..=2 keep their
        // meaning, Hash extends the structure tag space at 3. A log written
        // before this version decodes identically today.
        assert_eq!(
            LogRecord::decode(&[4, 1]).unwrap(),
            LogRecord::StructureDone {
                structure: StructureId::Table
            }
        );
        assert_eq!(
            LogRecord::decode(&[4, 2, 5, 0]).unwrap(),
            LogRecord::StructureDone {
                structure: StructureId::Index(5)
            }
        );
        assert_eq!(
            LogRecord::decode(&[6, 7, 0, 0, 0, 0]).unwrap(),
            LogRecord::Progress {
                structure: StructureId::Probe,
                done: 7
            }
        );
        assert_eq!(LogRecord::decode(&[5]).unwrap(), LogRecord::BulkCommit);
        // And the new variant's wire form, pinned so future versions stay
        // compatible with logs written today.
        assert_eq!(
            LogRecord::StructureDone {
                structure: StructureId::Hash(3)
            }
            .encode(),
            vec![4, 3, 3, 0]
        );
        // Lsm extends the structure tag space at 6, same shape as Hash:
        // one byte of tag, little-endian u16 payload.
        assert_eq!(
            LogRecord::StructureDone {
                structure: StructureId::Lsm(2)
            }
            .encode(),
            vec![4, 6, 2, 0]
        );
        assert_eq!(
            LogRecord::decode(&[4, 6, 2, 0]).unwrap(),
            LogRecord::StructureDone {
                structure: StructureId::Lsm(2)
            }
        );
        // Campaign manifest records, pinned byte-for-byte: a campaign log
        // written today must recover under every future version.
        assert_eq!(
            LogRecord::CampaignBegin {
                id: 1,
                steps: vec![CampaignStep {
                    table: 2,
                    attr: 3,
                    keys: vec![4],
                }],
            }
            .encode(),
            vec![
                8, // tag
                1, 0, 0, 0, 0, 0, 0, 0, // id
                1, 0, 0, 0, // n_steps
                2, 0, 0, 0, // table
                3, 0, // attr
                1, 0, 0, 0, // n_keys
                4, 0, 0, 0, 0, 0, 0, 0, // key
            ]
        );
        assert_eq!(
            LogRecord::CampaignStepDone { id: 1, step: 2 }.encode(),
            vec![9, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]
        );
        assert_eq!(
            LogRecord::CampaignCommit { id: 1 }.encode(),
            vec![10, 1, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(
            LogRecord::Redacted { original_tag: 2 }.encode(),
            vec![11, 2]
        );
        assert_eq!(
            LogRecord::CampaignCancelled {
                id: 1,
                completed: 2
            }
            .encode(),
            vec![12, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]
        );
        // A statement's begin record, pinned: probe attribute, keys, then
        // the table's counters (heap records, FSM pairs, tree and hash
        // entry counts).
        assert_eq!(
            LogRecord::BulkBegin {
                probe_attr: 2,
                keys: vec![5],
                counters: TableCounters {
                    heap_records: 9,
                    fsm: vec![(4, 600)],
                    trees: vec![(2, 9)],
                    hashes: vec![],
                },
            }
            .encode(),
            vec![
                1, // tag
                2, 0, // probe_attr
                1, 0, 0, 0, // n_keys
                5, 0, 0, 0, 0, 0, 0, 0, // key
                9, 0, 0, 0, 0, 0, 0, 0, // heap records
                1, 0, 0, 0, // n_fsm
                4, 0, 0, 0, 88, 2, 0, 0, // page 4, 600 free
                1, 0, 0, 0, // n_trees
                2, 0, 9, 0, 0, 0, 0, 0, 0, 0, // attr 2, 9 entries
                0, 0, 0, 0, // n_hashes
            ]
        );
        // Maintenance brackets, pinned: tag byte, then the structure
        // encoding shared with StructureDone/Progress.
        assert_eq!(
            LogRecord::MaintainBegin {
                structure: StructureId::Index(5)
            }
            .encode(),
            vec![13, 2, 5, 0]
        );
        assert_eq!(
            LogRecord::MaintainEnd {
                structure: StructureId::Index(5)
            }
            .encode(),
            vec![14, 2, 5, 0]
        );
    }
}
