//! Golden bytes: the WAL and snapshot formats, pinned.
//!
//! `WAL` and `SNAPSHOT` were written by the store as it stood before
//! `crc32` became table-driven and the snapshot decoder bulk-built its
//! map (commit 2d02020), when every record was a frame of its own. They
//! must decode to the records and state below, and encoding those must
//! reproduce them byte for byte — so a store directory written by any
//! earlier build opens under this one. The reverse no longer holds: a
//! commit now writes its batch as one frame (`BATCH_WAL`, the same three
//! records), which a build from before batch frames turns down as a bad
//! length. **Never regenerate them**: a mismatch means the on-disk
//! format moved.

use watchmen_store::{
    decode_snapshot, encode_snapshot, scan_log, Dir, LogScanReport, MemDir, RepState,
    ReputationStore, StorePolicy, StoreRecord, WAL_FILE,
};

const WAL: &str = "\
    57455250190000003c58cfb7010000000000000001efcdab89674523011c00000002000000\
    57455250190000000e81366e0200000000000000011032547698badcfe0500000023000000\
    574552501900000040e229de0300000000000000021032547698badcfe6b03000000000000";

/// One commit of `RECORDS`: a single 71-byte frame, first seq 1.
const BATCH_WAL: &str = "\
    574552503b000000163a5891010000000000000001efcdab89674523011c00000002000000\
    011032547698badcfe0500000023000000021032547698badcfe6b03000000000000";

const SNAPSHOT: &str = "\
    57534e500100000003000000000000000200000000000000\
    efcdab89674523011c0000000000000002000000000000000000000000\
    1032547698badcfe05000000000000002300000000000000016b030000\
    8c377f84";

const STATE_DIGEST: &str = "d2fbd509fa58a079b24b390fea934b2b507a23e2f7abfdd25203bdb7958099b9";

const RECORDS: [StoreRecord; 3] = [
    StoreRecord::Outcome { seq: 1, identity: 0x0123_4567_89AB_CDEF, ok: 28, failed: 2 },
    StoreRecord::Outcome { seq: 2, identity: 0xFEDC_BA98_7654_3210, ok: 5, failed: 35 },
    StoreRecord::Ban { seq: 3, identity: 0xFEDC_BA98_7654_3210, suspicion_permille: 875 },
];

fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).expect("ascii"), 16).expect("hex"))
        .collect()
}

fn folded() -> RepState {
    let mut state = RepState::new();
    for record in &RECORDS {
        assert!(state.apply(record));
    }
    state
}

#[test]
fn golden_wal_decodes_and_re_encodes_exactly() {
    let wal = unhex(WAL);
    let (records, report) = scan_log(&wal);
    assert_eq!(records, RECORDS);
    assert_eq!(report, LogScanReport { records: 3, ..LogScanReport::default() });
    let again: Vec<u8> = RECORDS.iter().flat_map(StoreRecord::encode_frame).collect();
    assert_eq!(again, wal);
}

#[test]
fn golden_batch_frame_decodes_and_a_commit_re_encodes_it_exactly() {
    let wal = unhex(BATCH_WAL);
    let (records, report) = scan_log(&wal);
    assert_eq!(records, RECORDS);
    assert_eq!(report, LogScanReport { records: 3, ..LogScanReport::default() });

    // The Ban is the one the default policy derives from the second
    // outcome, so noting the two outcomes and committing writes it all.
    let mut dir = MemDir::new();
    let (mut store, _) =
        ReputationStore::open(Box::new(dir.clone()), StorePolicy::default()).expect("open");
    for record in RECORDS {
        if let StoreRecord::Outcome { identity, ok, failed, .. } = record {
            store.note_outcome(identity, ok, failed);
        }
    }
    let receipt = store.commit().expect("commit");
    assert_eq!((receipt.records, receipt.new_bans), (3, vec![(RECORDS[2].identity(), 875)]));
    assert_eq!(dir.read(WAL_FILE).expect("read"), Some(wal));
    assert_eq!(store.state(), &folded());
}

#[test]
fn golden_snapshot_decodes_and_re_encodes_exactly() {
    let image = unhex(SNAPSHOT);
    let state = decode_snapshot(&image).expect("golden image decodes");
    assert_eq!(state, folded());
    assert_eq!(state.digest().to_vec(), unhex(STATE_DIGEST));
    assert_eq!(encode_snapshot(&state), image);
}
