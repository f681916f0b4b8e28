//! Property test: every log record survives an encode/decode roundtrip.

use proptest::prelude::*;

use bd_core::TableCounters;
use bd_storage::Rid;
use bd_wal::{LogRecord, MaterializedRow, StructureId, TreeMeta};

fn structure_strategy() -> impl Strategy<Value = StructureId> {
    prop_oneof![
        Just(StructureId::Probe),
        Just(StructureId::Table),
        any::<u16>().prop_map(StructureId::Index),
        any::<u16>().prop_map(StructureId::Hash),
        any::<u16>().prop_map(StructureId::Lsm),
    ]
}

/// Every field at its full wire range: counts are u64, FSM pages and free
/// bytes u32, attributes u16.
fn counters_strategy() -> impl Strategy<Value = TableCounters> {
    let counts = || {
        prop::collection::vec((any::<u16>(), any::<u64>()), 0..6).prop_map(|v| {
            v.into_iter()
                .map(|(attr, n)| (attr as usize, n as usize))
                .collect::<Vec<_>>()
        })
    };
    (
        any::<u64>(),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..20),
        counts(),
        counts(),
    )
        .prop_map(|(heap_records, fsm, trees, hashes)| TableCounters {
            heap_records: heap_records as usize,
            fsm: fsm
                .into_iter()
                .map(|(pid, free)| (pid, free as usize))
                .collect(),
            trees,
            hashes,
        })
}

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    let begin = (
        any::<u16>(),
        prop::collection::vec(any::<u64>(), 0..50),
        counters_strategy(),
    )
        .prop_map(|(probe_attr, keys, counters)| LogRecord::BulkBegin {
            probe_attr,
            keys,
            counters,
        });
    let rows =
        (1usize..6, prop::collection::vec(any::<u64>(), 0..40)).prop_map(|(n_attrs, flat)| {
            let rows = flat
                .chunks(n_attrs)
                .filter(|c| c.len() == n_attrs)
                .enumerate()
                .map(|(i, attrs)| MaterializedRow {
                    rid: Rid::new(i as u32, (i % 8) as u16),
                    attrs: attrs.to_vec(),
                })
                .collect();
            LogRecord::RowsMaterialized { rows }
        });
    let ckpt =
        prop::collection::vec((any::<u16>(), any::<u32>(), 1u16..10), 0..8).prop_map(|trees| {
            LogRecord::Checkpoint {
                trees: trees
                    .into_iter()
                    .map(|(attr, root, height)| TreeMeta { attr, root, height })
                    .collect(),
            }
        });
    let done = structure_strategy().prop_map(|structure| LogRecord::StructureDone { structure });
    let progress = (structure_strategy(), any::<u32>())
        .prop_map(|(structure, done)| LogRecord::Progress { structure, done });
    prop_oneof![
        begin,
        rows,
        ckpt,
        done,
        progress,
        Just(LogRecord::BulkCommit)
    ]
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(record in record_strategy()) {
        let bytes = record.encode();
        prop_assert_eq!(LogRecord::decode(&bytes).unwrap(), record);
    }

    #[test]
    fn log_manager_replays_any_sequence(
        records in prop::collection::vec(record_strategy(), 0..30)
    ) {
        let log = bd_wal::LogManager::new();
        for r in &records {
            log.append(r);
        }
        prop_assert_eq!(log.records().unwrap(), records);
    }

    // Decoding never panics: arbitrary garbage and arbitrary truncations
    // of valid encodings both yield Ok or Err, never an abort.
    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = LogRecord::decode(&bytes);
    }

    #[test]
    fn decode_never_panics_on_truncation(record in record_strategy(), cut in 0usize..100) {
        let bytes = record.encode();
        let cut = cut.min(bytes.len());
        let _ = LogRecord::decode(&bytes[..bytes.len() - cut]);
    }
}
