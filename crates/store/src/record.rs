//! The durable record format: checksummed, length-prefixed frames.
//!
//! Every entry in the write-ahead log is one frame holding the records
//! of one commit whose sequence numbers run consecutively:
//!
//! ```text
//! ┌─────────────┬──────────────┬─────────────┬─────────────────────────────┐
//! │ magic (u32) │ len (u32 LE) │ crc32 (u32) │ payload (len = 8 + 17·n B)  │
//! └─────────────┴──────────────┴─────────────┴─────────────────────────────┘
//! payload: first seq (u64) │ n × (kind u8 │ identity u64 │ a u32 │ b u32)
//! ```
//!
//! The CRC (IEEE 802.3, the zlib polynomial) covers the payload; the
//! magic lets recovery *resync* after a corrupted frame by scanning
//! forward for the next plausible frame instead of abandoning the rest
//! of the log. Record `i` of a frame has sequence number `first + i` —
//! the idempotence key: replaying a record whose seq the state has
//! already applied is a no-op. Each record is a [`StoreRecord`]: a kind
//! tag, the 64-bit cross-match identity (a player's public key scalar)
//! and two kind-specific words. A commit starts a new frame at any gap
//! in its sequence numbers and after 256 records, so no
//! plausible length field spans more than ≈ 4.4 KB, and [`decode_frame`]
//! turns down any other length as [`FrameError::BadLength`]. A
//! one-record frame is byte for byte the frame every earlier build wrote
//! for each record, so their logs scan unchanged.
//!
//! [`crc32`] has two kernels and one answer. Slicing-by-8 over tables
//! built at compile time ([`crc32_table`]) runs everywhere. On `x86_64`
//! the private `clmul` module folds 64 bytes a step with the CPU's
//! carry-less multiply, roughly ten times as fast; `crc32` asks the CPU
//! once per process whether it has the instruction
//! (`is_x86_feature_detected!`) and uses that kernel for inputs of 64
//! bytes and more — snapshot images and every frame of four records or
//! more: a compaction checksums the whole image twice, recovery once.
//! One- to three-record payloads, the last few bytes of a long input and
//! every other CPU stay on the tables, which are also the reference the
//! kernel is tested against, next to the bit-at-a-time definition
//! ([`crc32_bitwise`]). Nothing selects between the kernels but the CPU
//! and the input's length.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;

/// Frame magic: `WREP` little-endian ("Watchmen REPutation").
pub const FRAME_MAGIC: u32 = 0x5052_4557;

/// Frame header width: magic, length, CRC.
const HEADER_LEN: usize = 12;

/// One record inside a frame's payload: kind tag, identity, two words.
const RECORD_LEN: usize = 17;

/// The most records one frame holds (a 4 372-byte frame).
const FRAME_CAP: usize = 256;

/// Payload width of a one-record frame: the first seq and one record.
pub const PAYLOAD_LEN: usize = 8 + RECORD_LEN;

/// Full width of a one-record frame (magic + len + crc + payload).
pub const FRAME_LEN: usize = HEADER_LEN + PAYLOAD_LEN;

/// One durable reputation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreRecord {
    /// A match's aggregated interaction outcome for one identity: how
    /// many of its interactions the match rated acceptable vs failed
    /// (the paper's per-player tagging, folded per match).
    Outcome {
        /// Record sequence number (strictly increasing per store).
        seq: u64,
        /// The subject's cross-match identity (public-key scalar).
        identity: u64,
        /// Interactions rated acceptable.
        ok: u32,
        /// Interactions rated failed (suspicious).
        failed: u32,
    },
    /// A durable ban decision for one identity. Bans are explicit
    /// records — recovery never *invents* one from counts, so a torn
    /// tail can lose an unacknowledged ban but can never fabricate a
    /// false one.
    Ban {
        /// Record sequence number (strictly increasing per store).
        seq: u64,
        /// The banned identity.
        identity: u64,
        /// The suspicion that triggered the ban, in permille.
        suspicion_permille: u32,
    },
}

impl StoreRecord {
    /// The record's sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match *self {
            StoreRecord::Outcome { seq, .. } | StoreRecord::Ban { seq, .. } => seq,
        }
    }

    /// The record's subject identity.
    #[must_use]
    pub fn identity(&self) -> u64 {
        match *self {
            StoreRecord::Outcome { identity, .. } | StoreRecord::Ban { identity, .. } => identity,
        }
    }

    /// The record's place in a frame's payload (its seq is implied).
    fn encode_body(&self) -> [u8; RECORD_LEN] {
        let mut out = [0u8; RECORD_LEN];
        let (kind, identity, a, b) = match *self {
            StoreRecord::Outcome { identity, ok, failed, .. } => (1u8, identity, ok, failed),
            StoreRecord::Ban { identity, suspicion_permille, .. } => {
                (2u8, identity, suspicion_permille, 0)
            }
        };
        out[0] = kind;
        out[1..9].copy_from_slice(&identity.to_le_bytes());
        out[9..13].copy_from_slice(&a.to_le_bytes());
        out[13..17].copy_from_slice(&b.to_le_bytes());
        out
    }

    /// The record `body` encodes at `seq`. `None` on a bad kind tag —
    /// corruption the CRC happened not to catch.
    fn decode_body(seq: u64, body: &[u8]) -> Option<Self> {
        let identity = u64::from_le_bytes(body[1..9].try_into().ok()?);
        let a = u32::from_le_bytes(body[9..13].try_into().ok()?);
        let b = u32::from_le_bytes(body[13..17].try_into().ok()?);
        match body[0] {
            1 => Some(StoreRecord::Outcome { seq, identity, ok: a, failed: b }),
            2 if b == 0 => Some(StoreRecord::Ban { seq, identity, suspicion_permille: a }),
            _ => None,
        }
    }

    /// Encodes the record as a one-record frame ([`FRAME_LEN`] bytes).
    #[must_use]
    pub fn encode_frame(&self) -> Vec<u8> {
        encode_frames(std::slice::from_ref(self))
    }
}

/// Encodes `records` as WAL frames, in order: one frame per run of
/// consecutive sequence numbers, cut after `FRAME_CAP` records — how a
/// commit builds one buffer, with one CRC per frame, for its batch.
pub(crate) fn encode_frames(records: &[StoreRecord]) -> Vec<u8> {
    let frames = records.len().div_ceil(FRAME_CAP);
    let mut out = Vec::with_capacity(frames * (HEADER_LEN + 8) + records.len() * RECORD_LEN);
    let mut rest = records;
    while let Some(first) = rest.first() {
        let run = 1 + rest
            .windows(2)
            .take(FRAME_CAP - 1)
            .take_while(|pair| pair[0].seq().checked_add(1) == Some(pair[1].seq()))
            .count();
        let (frame, tail) = rest.split_at(run);
        let start = out.len();
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&((8 + run * RECORD_LEN) as u32).to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        out.extend_from_slice(&first.seq().to_le_bytes());
        for record in frame {
            out.extend_from_slice(&record.encode_body());
        }
        let crc = crc32(&out[start + HEADER_LEN..]);
        out[start + 8..start + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        rest = tail;
    }
    out
}

/// Why a frame failed to decode at some offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than the frame needs — a torn tail (or a
    /// resync that ran off the end).
    Truncated,
    /// The magic word does not match.
    BadMagic,
    /// The length field is not `8 + 17·n` for `1 ≤ n ≤ 256`.
    BadLength,
    /// The checksum does not match the payload.
    BadCrc,
    /// CRC passed but a record's kind tag is invalid, or the frame's
    /// sequence numbers run past `u64::MAX`.
    BadPayload,
}

/// Tries to decode one frame at the start of `bytes`. On success appends
/// its records to `out` and returns the number of bytes consumed; on
/// failure leaves `out` as it was — a frame's records land whole or not
/// at all.
///
/// # Errors
///
/// A [`FrameError`] naming the first violated invariant.
pub fn decode_frame(bytes: &[u8], out: &mut Vec<StoreRecord>) -> Result<usize, FrameError> {
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let records = len.checked_sub(8).filter(|body| body % RECORD_LEN == 0).map(|b| b / RECORD_LEN);
    let Some(n) = records.filter(|n| (1..=FRAME_CAP).contains(n)) else {
        return Err(FrameError::BadLength);
    };
    let Some(payload) = bytes.get(HEADER_LEN..HEADER_LEN + len) else {
        return Err(FrameError::Truncated);
    };
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    let first = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    if first.checked_add(n as u64 - 1).is_none() {
        return Err(FrameError::BadPayload);
    }
    let kept = out.len();
    for (i, body) in payload[8..].chunks_exact(RECORD_LEN).enumerate() {
        match StoreRecord::decode_body(first + i as u64, body) {
            Some(record) => out.push(record),
            None => {
                out.truncate(kept);
                return Err(FrameError::BadPayload);
            }
        }
    }
    Ok(HEADER_LEN + len)
}

/// The reflected IEEE 802.3 / zlib polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Eight shift-xor steps: the CRC register after consuming one byte
/// whose XOR with the register's low byte is `low`, with the register's
/// upper bits left out (they only shift). This is the definition; the
/// tables below are nothing but its values.
const fn crc32_bitwise_byte(low: u32) -> u32 {
    let mut cur = low & 0xFF;
    let mut bit = 0;
    while bit < 8 {
        cur = if cur & 1 != 0 { CRC_POLY ^ (cur >> 1) } else { cur >> 1 };
        bit += 1;
    }
    cur
}

/// `CRC_TABLES[0][b]` is [`crc32_bitwise_byte`]`(b)`, the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is that byte's contribution
/// after `k` further zero bytes have shifted through, so eight lookups
/// — one per table — advance the register over eight input bytes at
/// once (slicing-by-8). 8 KiB, evaluated at compile time.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        tables[0][b] = crc32_bitwise_byte(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected) on the fastest
/// kernel this CPU has for this length: carry-less-multiply folding over
/// the largest multiple of 16 bytes of an input of 64 bytes or more,
/// where the CPU has it, and the tables ([`crc32_table`]) for the rest
/// and for everything else. Every frame and snapshot checksum is the
/// `u32` the bit-at-a-time definition computes — the formats never moved
/// when a kernel was added — and the tests hold both kernels to it on
/// every length and alignment.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((folded, tail)) = clmul::try_fold(!0, bytes) {
        return !table_update(folded, tail);
    }
    crc32_table(bytes)
}

/// [`crc32`] by slicing-by-8 alone, whatever the CPU: the only kernel
/// off `x86_64` or without `pclmulqdq`, and the reference the folding
/// kernel is tested against. Public only for `micro_kernels`, which
/// times it beside [`crc32`].
#[doc(hidden)]
#[must_use]
pub fn crc32_table(bytes: &[u8]) -> u32 {
    !table_update(!0, bytes)
}

/// Advances the raw register `crc` over `bytes`: eight bytes per step
/// through eight 256-entry tables evaluated at compile time (table `k`
/// holds each byte's contribution after `k` further bytes have shifted
/// through the register), the tail bytewise through the first.
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// [`crc32`] one bit at a time, straight from the polynomial: the
/// specification. Nothing on a store path calls it.
#[doc(hidden)]
#[must_use]
pub fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = crc32_bitwise_byte(crc ^ u32::from(b)) ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard zlib/IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    /// Every kernel this build and CPU have, by name. `crc32` is the
    /// folding kernel wherever it is available and the tables elsewhere,
    /// so the table path is held to the definition on every host.
    const KERNELS: [(&str, Kernel); 2] = [("dispatched", crc32), ("tables", crc32_table)];
    type Kernel = fn(&[u8]) -> u32;

    #[test]
    fn every_kernel_agrees_with_bitwise_on_every_length_and_alignment() {
        let mut rng = watchmen_crypto::rng::SplitMix64::new(0x0c2c_3217);
        let data: Vec<u8> = (0..600 + 16).map(|_| rng.next_u64() as u8).collect();
        for (name, kernel) in KERNELS {
            for vector in [&b""[..], b"123456789", b"hello"] {
                assert_eq!(kernel(vector), crc32_bitwise(vector), "{name}");
            }
            for start in 0..16 {
                for len in 0..=600 {
                    let slice = &data[start..start + len];
                    assert_eq!(kernel(slice), crc32_bitwise(slice), "{name} at {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn every_kernel_agrees_with_bitwise_on_long_buffers() {
        // Around the four-lane loop's block size, a page, and a
        // snapshot-sized image that ends mid-block.
        let mut rng = watchmen_crypto::rng::SplitMix64::new(0x636c_6d75);
        let data: Vec<u8> = (0..(1 << 20) + 7).map(|_| rng.next_u64() as u8).collect();
        for len in [1023, 1024, 1025, 4096, data.len()] {
            let expected = crc32_bitwise(&data[..len]);
            for (name, kernel) in KERNELS {
                assert_eq!(kernel(&data[..len]), expected, "{name} len {len}");
            }
        }
    }

    #[test]
    fn records_round_trip_through_frames() {
        let records = [
            StoreRecord::Outcome { seq: 1, identity: 0xDEAD_BEEF, ok: 28, failed: 2 },
            StoreRecord::Ban { seq: 2, identity: 7, suspicion_permille: 412 },
            StoreRecord::Outcome { seq: u64::MAX, identity: u64::MAX, ok: u32::MAX, failed: 0 },
        ];
        for record in records {
            let frame = record.encode_frame();
            assert_eq!(frame.len(), FRAME_LEN);
            let mut decoded = Vec::new();
            assert_eq!(decode_frame(&frame, &mut decoded), Ok(FRAME_LEN));
            assert_eq!(decoded, [record]);
        }
    }

    fn outcomes(seqs: impl IntoIterator<Item = u64>) -> Vec<StoreRecord> {
        seqs.into_iter()
            .map(|seq| StoreRecord::Outcome { seq, identity: seq ^ 0x5A5A, ok: 9, failed: 1 })
            .collect()
    }

    /// Walks `bytes` frame by frame: each frame's decoded records.
    fn frames_of(bytes: &[u8]) -> Vec<Vec<StoreRecord>> {
        let mut frames = Vec::new();
        let mut offset = 0;
        while offset < bytes.len() {
            let mut records = Vec::new();
            offset += decode_frame(&bytes[offset..], &mut records).expect("whole frames");
            frames.push(records);
        }
        frames
    }

    #[test]
    fn a_batch_is_one_frame_per_consecutive_run_of_at_most_the_cap() {
        let mut records = outcomes(1..=3);
        records.push(StoreRecord::Ban { seq: 4, identity: 93, suspicion_permille: 875 });
        let bytes = encode_frames(&records);
        assert_eq!(bytes.len(), HEADER_LEN + 8 + 4 * RECORD_LEN);
        assert_eq!(frames_of(&bytes), [records.clone()]);
        // The payload's first eight bytes carry the first seq alone.
        assert_eq!(bytes[HEADER_LEN..HEADER_LEN + 8], 1u64.to_le_bytes());

        // A gap starts a new frame, and so does the cap.
        let gapped = outcomes((10..13).chain(20..22));
        assert_eq!(frames_of(&encode_frames(&gapped)), [&gapped[..3], &gapped[3..]]);
        let long = outcomes(1..=2 * FRAME_CAP as u64 + 1);
        let bytes = encode_frames(&long);
        let sizes: Vec<usize> = frames_of(&bytes).iter().map(Vec::len).collect();
        assert_eq!(sizes, [FRAME_CAP, FRAME_CAP, 1]);
        assert_eq!(bytes.len(), 3 * (HEADER_LEN + 8) + long.len() * RECORD_LEN);

        // A full frame: 4 372 bytes, its length field the largest accepted.
        let full = encode_frames(&long[..FRAME_CAP]);
        assert_eq!(full.len(), 4_372);
        assert_eq!(full, bytes[..4_372]);
    }

    #[test]
    fn lengths_off_the_record_grid_or_beyond_the_cap_are_bad() {
        let frame = encode_frames(&outcomes(1..=2));
        // Long enough for any accepted length, so only the field decides.
        let with_len = |len: u32| {
            let mut bent = frame.clone();
            bent[4..8].copy_from_slice(&len.to_le_bytes());
            bent.resize(HEADER_LEN + 8 + RECORD_LEN * FRAME_CAP, 0);
            bent
        };
        for len in [0, 7, 8, 24, 26, 8 + 17 * 257, 8 + 17 * 1000, u32::MAX] {
            assert_eq!(decode_frame(&with_len(len), &mut Vec::new()), Err(FrameError::BadLength));
        }
        for n in [1, 3, 255, 256] {
            let len = (8 + RECORD_LEN * n) as u32;
            assert_eq!(decode_frame(&with_len(len), &mut Vec::new()), Err(FrameError::BadCrc));
        }
    }

    #[test]
    fn sequence_numbers_may_not_run_past_the_last_u64() {
        let last = outcomes([u64::MAX]);
        assert_eq!(frames_of(&encode_frames(&last)), [last]);
        // Two records claiming to start at u64::MAX, resealed.
        let mut frame = encode_frames(&outcomes([1, 2]));
        frame[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&frame[HEADER_LEN..]);
        frame[8..12].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_frame(&frame, &mut Vec::new()), Err(FrameError::BadPayload));
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let one = vec![StoreRecord::Outcome { seq: 99, identity: 1234, ok: 10, failed: 3 }];
        let mut three = outcomes(7..9);
        three.push(StoreRecord::Ban { seq: 9, identity: 5, suspicion_permille: 700 });
        for records in [one, three] {
            let frame = encode_frames(&records);
            for byte in 0..frame.len() {
                for bit in 0..8 {
                    let mut bent = frame.clone();
                    bent[byte] ^= 1 << bit;
                    let mut decoded = Vec::new();
                    if let Ok(used) = decode_frame(&bent, &mut decoded) {
                        panic!("flip at {byte}.{bit} decoded {used} B as {decoded:?}")
                    }
                    assert!(decoded.is_empty(), "a rejected frame leaves nothing behind");
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_truncated_or_bad() {
        let one = StoreRecord::Ban { seq: 5, identity: 42, suspicion_permille: 900 }.encode_frame();
        for frame in [one, encode_frames(&outcomes(1..=40))] {
            for cut in 0..frame.len() {
                assert_eq!(
                    decode_frame(&frame[..cut], &mut Vec::new()),
                    Err(FrameError::Truncated),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn bad_kind_is_rejected_even_with_valid_crc() {
        let mut frame = encode_frames(&outcomes(1..=3));
        frame[HEADER_LEN + 8 + 2 * RECORD_LEN] = 9; // the last record's kind
        let crc = crc32(&frame[HEADER_LEN..]);
        frame[8..12].copy_from_slice(&crc.to_le_bytes());
        let mut decoded = outcomes([100]);
        assert_eq!(decode_frame(&frame, &mut decoded), Err(FrameError::BadPayload));
        assert_eq!(decoded, outcomes([100]), "no record of a bad frame is kept");
    }
}
