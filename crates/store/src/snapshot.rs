//! Snapshot encoding: one self-validating image of the folded state.
//!
//! Compaction writes the whole [`RepState`] as a single checksummed
//! blob so recovery can skip replaying the log's prefix. The format is
//! belt-and-braces: a magic, a version, explicit entry count, and a
//! trailing CRC-32 over everything before it — a truncated or
//! bit-flipped snapshot fails closed (recovery falls back to the other
//! snapshot slot, or to full-log replay) instead of loading garbage.
//!
//! ```text
//! ┌───────┬─────────┬─────────────┬───────┬───────────────┬───────┐
//! │ magic │ version │ applied_seq │ count │ count entries │ crc32 │
//! │  u32  │   u32   │     u64     │  u64  │   29 B each   │  u32  │
//! └───────┴─────────┴─────────────┴───────┴───────────────┴───────┘
//! ```
//!
//! Entries are written in ascending identity order, which is the order
//! [`RepState`] keeps them in, so a decode pushes them straight into its
//! columns. Three readers share one validation of everything around the
//! entries: [`decode_snapshot`] rebuilds the state, [`CheckedImage`]
//! validates now and rebuilds later — recovery checks both slots but
//! builds a state only from the fresher valid one — and
//! [`snapshot_matches`] checks an image against a state the caller
//! already holds without building anything (compaction's read-back). At
//! 262 144 identities the image is 7.6 MB.

use std::slice::ChunksExact;

use crate::record::crc32;
use crate::state::{IdentityEntry, RepState};

/// Snapshot magic: `WSNP` little-endian.
pub const SNAP_MAGIC: u32 = 0x504E_5357;

/// Current snapshot format version.
pub const SNAP_VERSION: u32 = 1;

const HEADER_LEN: usize = 4 + 4 + 8 + 8;
const ENTRY_LEN: usize = 8 + 8 + 8 + 1 + 4;

/// Why a snapshot image was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than a header + CRC, or shorter than its entry count
    /// implies — a truncated write.
    Truncated,
    /// Bad magic or unsupported version.
    BadHeader,
    /// The trailing CRC does not match the image.
    BadCrc,
}

/// Serialises the state as a snapshot image.
#[must_use]
pub fn encode_snapshot(state: &RepState) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + state.len() * ENTRY_LEN + 4);
    out.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&state.applied_seq().to_le_bytes());
    out.extend_from_slice(&(state.len() as u64).to_le_bytes());
    // Each entry is written in place into a body sized up front; the
    // state's iterator is a chain of slice runs, which `for_each` walks
    // as plain loops.
    let body = out.len();
    out.resize(body + state.len() * ENTRY_LEN, 0);
    out[body..].chunks_exact_mut(ENTRY_LEN).zip(state.iter()).for_each(|(entry, (id, e))| {
        entry[0..8].copy_from_slice(&id.to_le_bytes());
        entry[8..16].copy_from_slice(&e.ok.to_le_bytes());
        entry[16..24].copy_from_slice(&e.failed.to_le_bytes());
        entry[24] = u8::from(e.banned);
        entry[25..29].copy_from_slice(&e.ban_suspicion_permille.to_le_bytes());
    });
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates everything about an image except what its entries say:
/// length, trailing CRC, magic, version, and that the entry count
/// accounts for exactly the bytes present (computed with checked
/// arithmetic — the count is the image's own claim). Returns
/// `applied_seq` and the raw entries, [`ENTRY_LEN`] bytes each.
fn parse_image(bytes: &[u8]) -> Result<(u64, ChunksExact<'_, u8>), SnapshotError> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(SnapshotError::Truncated);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != crc {
        return Err(SnapshotError::BadCrc);
    }
    let magic = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
    let version = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    if magic != SNAP_MAGIC || version != SNAP_VERSION {
        return Err(SnapshotError::BadHeader);
    }
    let applied_seq = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    let count = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"));
    let implied_len = usize::try_from(count)
        .ok()
        .and_then(|count| count.checked_mul(ENTRY_LEN))
        .and_then(|entries| entries.checked_add(HEADER_LEN));
    if implied_len != Some(body.len()) {
        return Err(SnapshotError::Truncated);
    }
    Ok((applied_seq, body[HEADER_LEN..].chunks_exact(ENTRY_LEN)))
}

fn parse_entry(e: &[u8]) -> (u64, IdentityEntry) {
    (
        u64::from_le_bytes(e[0..8].try_into().expect("8 bytes")),
        IdentityEntry {
            ok: u64::from_le_bytes(e[8..16].try_into().expect("8 bytes")),
            failed: u64::from_le_bytes(e[16..24].try_into().expect("8 bytes")),
            banned: e[24] != 0,
            ban_suspicion_permille: u32::from_le_bytes(e[25..29].try_into().expect("4 bytes")),
        },
    )
}

/// Builds the state a validated image describes.
///
/// The strictly ascending run [`encode_snapshot`] writes goes straight
/// into the state's columns. Anything else is collected into a map
/// first: `BTreeMap`'s `FromIterator` stable-sorts by identity and
/// builds bottom-up, the last of any repeated identity winning, so an
/// image in any order decodes to the state one insert per entry would
/// give.
fn build_state(applied_seq: u64, raw: ChunksExact<'_, u8>) -> RepState {
    RepState::from_ascending(raw.clone().map(parse_entry), applied_seq)
        .unwrap_or_else(|| RepState::from_parts(raw.map(parse_entry).collect(), applied_seq))
}

/// Parses and validates a snapshot image.
///
/// # Errors
///
/// A [`SnapshotError`] naming the first violated invariant; the caller
/// treats any error as "this slot is unusable" and falls back.
pub fn decode_snapshot(bytes: &[u8]) -> Result<RepState, SnapshotError> {
    let (applied_seq, raw) = parse_image(bytes)?;
    Ok(build_state(applied_seq, raw))
}

/// An image that has passed every check [`decode_snapshot`] makes, and
/// its bytes: what recovery holds while it looks at the other slot, so
/// that only the image it keeps is ever built into a state.
pub(crate) struct CheckedImage {
    bytes: Vec<u8>,
    applied_seq: u64,
}

impl CheckedImage {
    /// Validates `bytes` as [`decode_snapshot`] would.
    pub(crate) fn check(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let (applied_seq, _) = parse_image(&bytes)?;
        Ok(CheckedImage { bytes, applied_seq })
    }

    /// The image's replay cursor.
    pub(crate) fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// The state [`decode_snapshot`] returns for these bytes.
    pub(crate) fn decode(self) -> RepState {
        // `check` established that exactly the entries lie between the
        // header and the trailing CRC.
        let entries = &self.bytes[HEADER_LEN..self.bytes.len() - 4];
        build_state(self.applied_seq, entries.chunks_exact(ENTRY_LEN))
    }
}

/// Whether `bytes` is a valid image of exactly `state`: every check
/// [`decode_snapshot`] makes, then `applied_seq`, the count and each
/// entry compared in step with `state`'s own ascending iteration — one
/// pass, nothing built. This is compaction's read-back verification.
/// It accepts what decode-then-compare accepts, except an image whose
/// identities are not strictly ascending (which could still decode to
/// an equal map); [`encode_snapshot`] never writes one.
#[must_use]
pub fn snapshot_matches(bytes: &[u8], state: &RepState) -> bool {
    let Ok((applied_seq, mut raw)) = parse_image(bytes) else {
        return false;
    };
    // The state's iterator drives (it walks its slice runs as plain
    // loops under `all`); the lengths were compared first, so the image
    // runs out exactly when the state does.
    applied_seq == state.applied_seq()
        && raw.len() == state.len()
        && state.iter().all(|(&id, &entry)| raw.next().map(parse_entry) == Some((id, entry)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::StoreRecord;

    fn sample_state() -> RepState {
        let mut state = RepState::new();
        state.apply(&StoreRecord::Outcome { seq: 1, identity: 42, ok: 100, failed: 3 });
        state.apply(&StoreRecord::Outcome { seq: 2, identity: 7, ok: 10, failed: 40 });
        state.apply(&StoreRecord::Ban { seq: 3, identity: 7, suspicion_permille: 800 });
        state
    }

    #[test]
    fn snapshot_round_trips() {
        let state = sample_state();
        let bytes = encode_snapshot(&state);
        let back = decode_snapshot(&bytes).expect("round trip");
        assert_eq!(back, state);
        assert_eq!(back.digest(), state.digest());
    }

    #[test]
    fn empty_state_round_trips() {
        let state = RepState::new();
        let back = decode_snapshot(&encode_snapshot(&state)).expect("round trip");
        assert_eq!(back, state);
    }

    /// Recomputes the trailing CRC after a test edited the body.
    fn reseal(image: &mut [u8]) {
        let at = image.len() - 4;
        let crc = crc32(&image[..at]);
        image[at..].copy_from_slice(&crc.to_le_bytes());
    }

    /// The image's `i`-th entry.
    fn entry_range(i: usize) -> std::ops::Range<usize> {
        HEADER_LEN + i * ENTRY_LEN..HEADER_LEN + (i + 1) * ENTRY_LEN
    }

    #[test]
    fn overflowing_entry_count_fails_closed() {
        // count * 29 wraps to 34, so with 34 bytes after the header the
        // wrapped product even agrees with the image's length.
        let count = u64::MAX / ENTRY_LEN as u64 + 2;
        let mut image = Vec::new();
        image.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
        image.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        image.extend_from_slice(&0u64.to_le_bytes());
        image.extend_from_slice(&count.to_le_bytes());
        image.extend_from_slice(&[0u8; 34 + 4]);
        assert_eq!(count.wrapping_mul(ENTRY_LEN as u64), 34);
        reseal(&mut image);
        assert_eq!(decode_snapshot(&image), Err(SnapshotError::Truncated));
        assert!(!snapshot_matches(&image, &RepState::new()));
    }

    #[test]
    fn unsorted_and_duplicated_entries_decode_as_inserts_would() {
        // Three entries out of order, the first identity repeated: the
        // later copy wins, exactly as one insert per entry gives. std
        // documents no winner among equal keys; this test pins it.
        let mut a = RepState::new();
        a.apply(&StoreRecord::Outcome { seq: 1, identity: 9, ok: 1, failed: 0 });
        a.apply(&StoreRecord::Outcome { seq: 2, identity: 4, ok: 2, failed: 0 });
        a.apply(&StoreRecord::Outcome { seq: 3, identity: 6, ok: 3, failed: 0 });
        let mut image = encode_snapshot(&a); // 4, 6, 9
        let (first, last) = (image[entry_range(0)].to_vec(), image[entry_range(2)].to_vec());
        image[entry_range(0)].copy_from_slice(&last); // 9, 6, 9'
        image[entry_range(2)].copy_from_slice(&first); // 9, 6, 4
        image[entry_range(0)][8] = 77; // the early 9 says ok=77…
        image[entry_range(1)][..8].copy_from_slice(&9u64.to_le_bytes()); // …the later 9 ok=3
        reseal(&mut image);
        let state = decode_snapshot(&image).expect("valid image");
        assert_eq!(state.len(), 2);
        assert_eq!(state.entry(9).expect("tracked").ok, 3);
        assert_eq!(state.entry(4).expect("tracked").ok, 2);
    }

    #[test]
    fn one_pass_verify_accepts_exactly_the_encoded_state() {
        for state in [RepState::new(), sample_state()] {
            assert!(snapshot_matches(&encode_snapshot(&state), &state));
        }
        let state = sample_state();
        let image = encode_snapshot(&state);
        for cut in 0..image.len() {
            assert!(!snapshot_matches(&image[..cut], &state), "cut at {cut}");
        }
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut bent = image.clone();
                bent[byte] ^= 1 << bit;
                assert!(!snapshot_matches(&bent, &state), "flip at {byte}.{bit}");
            }
        }
    }

    #[test]
    fn one_pass_verify_rejects_valid_images_of_another_state() {
        let state = sample_state(); // identities 7 and 42
        let image = encode_snapshot(&state);
        let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut image = image.clone();
            edit(&mut image);
            reseal(&mut image);
            assert!(decode_snapshot(&image).is_ok(), "the edit must leave a valid image");
            image
        };

        let wrong_seq = edited(&|image| image[8] ^= 1);
        assert!(!snapshot_matches(&wrong_seq, &state));

        // One field at a time: identity, ok, failed, banned, permille.
        for offset in [0, 8, 16, 24, 25] {
            let changed = edited(&|image| image[entry_range(1)][offset] ^= 1);
            assert!(!snapshot_matches(&changed, &state), "field at {offset}");
        }

        // Same two entries, swapped: decodes to an equal map, but no
        // encoder writes it, and the lockstep walk refuses it.
        let swapped = edited(&|image| {
            let first = image[entry_range(0)].to_vec();
            image.copy_within(entry_range(1), HEADER_LEN);
            image[entry_range(1)].copy_from_slice(&first);
        });
        assert_eq!(decode_snapshot(&swapped).expect("valid"), state);
        assert!(!snapshot_matches(&swapped, &state));

        // An entry written twice (count raised to match).
        let duplicated = edited(&|image| {
            let last = image[entry_range(1)].to_vec();
            let at = image.len() - 4;
            image.splice(at..at, last);
            image[16..24].copy_from_slice(&3u64.to_le_bytes());
        });
        assert_eq!(decode_snapshot(&duplicated).expect("valid"), state);
        assert!(!snapshot_matches(&duplicated, &state));

        // And a state one record further on.
        let mut later = state.clone();
        later.apply(&StoreRecord::Outcome { seq: 4, identity: 42, ok: 1, failed: 0 });
        assert!(!snapshot_matches(&image, &later));
    }

    #[test]
    fn entries_in_the_columns_or_in_recent_write_and_verify_alike() {
        // All in `recent`; all in the columns (an ascending image decodes
        // there); and columns plus one identity in `recent`.
        let merged = sample_state();
        let columns = decode_snapshot(&encode_snapshot(&merged)).expect("valid");
        let mut mixed = columns.clone();
        mixed.apply(&StoreRecord::Outcome { seq: 4, identity: 9, ok: 5, failed: 5 });

        assert_eq!(encode_snapshot(&columns), encode_snapshot(&merged));
        let image = encode_snapshot(&columns);
        assert!(snapshot_matches(&image, &columns) && snapshot_matches(&image, &merged));
        assert!(
            !snapshot_matches(&image, &mixed)
                && !snapshot_matches(&encode_snapshot(&mixed), &columns)
        );
        for byte in HEADER_LEN..image.len() - 4 {
            let mut bent = image.clone();
            bent[byte] ^= 0x01;
            reseal(&mut bent);
            assert!(!snapshot_matches(&bent, &columns), "edit at {byte}");
        }
    }

    #[test]
    fn truncation_at_every_length_fails_closed() {
        let bytes = encode_snapshot(&sample_state());
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut} must be rejected");
        }
    }

    #[test]
    fn every_single_bit_flip_fails_closed() {
        let bytes = encode_snapshot(&sample_state());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bent = bytes.clone();
                bent[byte] ^= 1 << bit;
                assert!(decode_snapshot(&bent).is_err(), "flip at {byte}.{bit} must be rejected");
            }
        }
    }
}
