//! Write-ahead-log scanning: the recovery path's core.
//!
//! [`scan_log`] walks a byte image of the WAL and extracts every
//! decodable record, tolerating the three corruption shapes a crashed
//! writer leaves behind:
//!
//! * **torn tail** — the final frame was mid-write; decoding hits a
//!   truncated frame with no frame magic after it and the scan stops,
//!   counting the dangling bytes;
//! * **bit flips** — a frame's CRC (or magic/length) fails mid-log;
//!   that frame's records are lost whole, and the scan *resyncs* by
//!   searching forward for the next frame magic and continues,
//!   counting the corrupt episode and skipped bytes. A torn frame that
//!   a reopened store appended behind is the same shape: it claims
//!   more bytes than it holds, and the frames after it still count;
//! * **duplicated batches** — a commit retried after a failed fsync
//!   appends the same records twice; the scan surfaces both copies and
//!   the seq-guarded fold in [`crate::state::RepState`] drops the
//!   replays.
//!
//! Scanning never panics and never errors: the worst input yields zero
//! records and a full accounting in the [`LogScanReport`].

use crate::record::{decode_frame, FrameError, StoreRecord, FRAME_MAGIC};

/// What a log scan found, beyond the records themselves.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LogScanReport {
    /// Records decoded successfully.
    pub records: u64,
    /// Corruption episodes mid-log (bad CRC/magic/length/payload
    /// followed by a successful resync or end of log).
    pub corrupt_episodes: u64,
    /// Bytes skipped while resyncing past corruption.
    pub skipped_bytes: u64,
    /// Dangling bytes at the tail that never formed a full frame.
    pub torn_tail_bytes: u64,
}

/// Scans a WAL image, returning every decodable record in file order
/// plus the corruption accounting.
#[must_use]
pub fn scan_log(bytes: &[u8]) -> (Vec<StoreRecord>, LogScanReport) {
    let mut records = Vec::new();
    let report = scan_frames(bytes, |frame| records.extend_from_slice(frame));
    (records, report)
}

/// [`scan_log`] without the list: hands each intact frame's records to
/// `visit`, in file order — how recovery folds a log without holding a
/// copy of it.
pub(crate) fn scan_frames(bytes: &[u8], mut visit: impl FnMut(&[StoreRecord])) -> LogScanReport {
    let magic = FRAME_MAGIC.to_le_bytes();
    let mut frame = Vec::new();
    let mut report = LogScanReport::default();
    let mut offset = 0usize;
    while offset < bytes.len() {
        frame.clear();
        match decode_frame(&bytes[offset..], &mut frame) {
            Ok(used) => {
                visit(&frame);
                report.records += frame.len() as u64;
                offset += used;
            }
            Err(error) => {
                // A frame cut short with no frame start after it is the
                // torn tail. Anything else is corruption: scan forward
                // for the next plausible frame start.
                let next = find_magic(&bytes[offset + 1..], &magic).map(|at| offset + 1 + at);
                if error == FrameError::Truncated && next.is_none() {
                    report.torn_tail_bytes += (bytes.len() - offset) as u64;
                    break;
                }
                let resume = next.unwrap_or(bytes.len());
                report.corrupt_episodes += 1;
                report.skipped_bytes += (resume - offset) as u64;
                offset = resume;
            }
        }
    }
    report
}

/// First offset of `magic` in `haystack`, if any.
fn find_magic(haystack: &[u8], magic: &[u8; 4]) -> Option<usize> {
    haystack.windows(4).position(|w| w == magic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_frames;

    fn outcome(seq: u64, identity: u64, ok: u32, failed: u32) -> StoreRecord {
        StoreRecord::Outcome { seq, identity, ok, failed }
    }

    fn log_of(records: &[StoreRecord]) -> Vec<u8> {
        records.iter().flat_map(StoreRecord::encode_frame).collect()
    }

    #[test]
    fn clean_log_scans_fully() {
        let records = vec![outcome(1, 10, 9, 1), outcome(2, 11, 8, 2), outcome(3, 10, 7, 3)];
        let (got, report) = scan_log(&log_of(&records));
        assert_eq!(got, records);
        assert_eq!(report, LogScanReport { records: 3, ..LogScanReport::default() });
    }

    #[test]
    fn empty_log_is_fine() {
        let (got, report) = scan_log(&[]);
        assert!(got.is_empty());
        assert_eq!(report, LogScanReport::default());
    }

    #[test]
    fn torn_tail_is_cut_and_counted_at_every_length() {
        let records = vec![outcome(1, 1, 5, 5), outcome(2, 2, 6, 4)];
        let full = log_of(&records);
        let tail = outcome(3, 3, 7, 3).encode_frame();
        for cut in 1..tail.len() {
            let mut torn = full.clone();
            torn.extend_from_slice(&tail[..cut]);
            let (got, report) = scan_log(&torn);
            assert_eq!(got, records, "cut {cut}");
            assert_eq!(report.records, 2);
            assert_eq!(report.torn_tail_bytes, cut as u64, "cut {cut}");
            assert_eq!(report.corrupt_episodes, 0, "a torn tail is not corruption");
        }
    }

    #[test]
    fn bit_flip_mid_log_resyncs_to_later_records() {
        let records = vec![outcome(1, 1, 5, 5), outcome(2, 2, 6, 4), outcome(3, 3, 7, 3)];
        let mut bytes = log_of(&records);
        // Flip one payload bit of the middle record.
        let mid = records[0].encode_frame().len() + 20;
        bytes[mid] ^= 0x10;
        let (got, report) = scan_log(&bytes);
        assert_eq!(got, vec![records[0], records[2]], "scan must reach the last valid record");
        assert_eq!(report.corrupt_episodes, 1);
        assert!(report.skipped_bytes > 0);
    }

    /// Three frames written the way commits write them: seqs 1–3, 4–7
    /// (the one the tests below damage) and 8–9.
    fn three_batches() -> (Vec<u8>, Vec<StoreRecord>, std::ops::Range<usize>) {
        let batch = |seqs: std::ops::RangeInclusive<u64>| -> Vec<StoreRecord> {
            seqs.map(|seq| outcome(seq, seq % 3, 9, 1)).collect()
        };
        let (a, b, c) = (batch(1..=3), batch(4..=7), batch(8..=9));
        let mut bytes = encode_frames(&a);
        let middle = bytes.len()..bytes.len() + encode_frames(&b).len();
        bytes.extend(encode_frames(&b));
        bytes.extend(encode_frames(&c));
        (bytes, [a, c].concat(), middle)
    }

    #[test]
    fn bit_flip_in_a_multi_record_frame_loses_that_frame_alone() {
        let (bytes, survivors, middle) = three_batches();
        assert_eq!(scan_log(&bytes).1.records, 9);
        for at in middle.clone() {
            let mut bent = bytes.clone();
            bent[at] ^= 0x04;
            let (got, report) = scan_log(&bent);
            assert_eq!(got, survivors, "flip at {at}");
            let expected = LogScanReport {
                records: 5,
                corrupt_episodes: 1,
                skipped_bytes: middle.len() as u64,
                torn_tail_bytes: 0,
            };
            assert_eq!(report, expected, "flip at {at}");
        }
    }

    #[test]
    fn a_length_beyond_the_cap_is_corruption_not_a_torn_tail() {
        let (bytes, survivors, middle) = three_batches();
        // On the 17-byte grid and longer than what follows, so a scan
        // that believed it would call the rest of the log a torn tail.
        for records in [257u32, 1_000, 200_000] {
            let mut bent = bytes.clone();
            bent[middle.start + 4..middle.start + 8]
                .copy_from_slice(&(8 + 17 * records).to_le_bytes());
            let (got, report) = scan_log(&bent);
            assert_eq!(got, survivors, "{records} records claimed");
            assert_eq!(report.corrupt_episodes, 1);
            assert_eq!(report.skipped_bytes, middle.len() as u64);
            assert_eq!(report.torn_tail_bytes, 0);
        }
    }

    #[test]
    fn cutting_a_multi_record_frame_anywhere_is_a_torn_tail() {
        let (bytes, _, middle) = three_batches();
        let kept = scan_log(&bytes[..middle.start]).0;
        for cut in middle.start + 1..middle.end {
            let (got, report) = scan_log(&bytes[..cut]);
            assert_eq!(got, kept, "cut at {cut}");
            let torn = (cut - middle.start) as u64;
            let expected =
                LogScanReport { records: 3, torn_tail_bytes: torn, ..LogScanReport::default() };
            assert_eq!(report, expected, "cut at {cut}");
        }
    }

    #[test]
    fn a_torn_frame_with_frames_appended_behind_it_is_skipped() {
        // A reopened store appends behind a torn tail: the torn frame
        // claims more bytes than the short frame after it supplies, and
        // that frame must still be read.
        let (bytes, _, middle) = three_batches();
        let later = encode_frames(&[outcome(4, 7, 9, 1)]);
        for cut in middle.start + 1..middle.end {
            let mut log = bytes[..cut].to_vec();
            log.extend_from_slice(&later);
            let (got, report) = scan_log(&log);
            assert_eq!(got[3..], [outcome(4, 7, 9, 1)], "cut at {cut}");
            let expected = LogScanReport {
                records: 4,
                corrupt_episodes: 1,
                skipped_bytes: (cut - middle.start) as u64,
                torn_tail_bytes: 0,
            };
            assert_eq!(report, expected, "cut at {cut}");
        }
    }

    #[test]
    fn garbage_between_records_is_skipped() {
        let a = outcome(1, 1, 1, 1);
        let b = outcome(2, 2, 2, 2);
        let mut bytes = a.encode_frame();
        bytes.extend_from_slice(b"not a frame at all");
        bytes.extend_from_slice(&b.encode_frame());
        let (got, report) = scan_log(&bytes);
        assert_eq!(got, vec![a, b]);
        assert_eq!(report.corrupt_episodes, 1);
        assert_eq!(report.skipped_bytes, 18);
    }

    #[test]
    fn pure_garbage_never_panics() {
        let mut junk = Vec::new();
        let mut x: u64 = 0x1234_5678;
        for _ in 0..4096 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            junk.push((x >> 32) as u8);
        }
        let (got, report) = scan_log(&junk);
        assert!(got.is_empty() || report.corrupt_episodes > 0);
    }
}
