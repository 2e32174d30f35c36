//! The durable record format: checksummed, length-prefixed frames.
//!
//! Every entry in the write-ahead log is one frame:
//!
//! ```text
//! ┌─────────────┬──────────────┬──────────────┬─────────────────┐
//! │ magic (u32) │ len (u32 LE) │ crc32 (u32)  │ payload (len B) │
//! └─────────────┴──────────────┴──────────────┴─────────────────┘
//! ```
//!
//! The CRC (IEEE 802.3, the zlib polynomial) covers the payload; the
//! magic lets recovery *resync* after a corrupted record by scanning
//! forward for the next plausible frame instead of abandoning the rest
//! of the log. Payloads are fixed-width [`StoreRecord`] encodings: a
//! sequence number (the idempotence key — replaying a record whose seq
//! the state has already applied is a no-op), a kind tag, the 64-bit
//! cross-match identity (a player's public key scalar), and two
//! kind-specific words.
//!
//! [`crc32`] has two kernels and one answer. Slicing-by-8 over tables
//! built at compile time ([`crc32_table`]) runs everywhere. On `x86_64`
//! the private `clmul` module folds 64 bytes a step with the CPU's
//! carry-less multiply, roughly ten times as fast; `crc32` asks the CPU
//! once per process whether it has the instruction
//! (`is_x86_feature_detected!`) and uses that kernel for inputs of 64
//! bytes and more — snapshot images, in practice: a compaction checksums
//! the whole image twice, recovery once. The 25-byte frame payloads, the
//! last few bytes of a long input and every other CPU stay on the
//! tables, which are also the reference the kernel is tested against,
//! next to the bit-at-a-time definition ([`crc32_bitwise`]). Nothing
//! selects between the kernels but the CPU and the input's length.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul;

/// Frame magic: `WREP` little-endian ("Watchmen REPutation").
pub const FRAME_MAGIC: u32 = 0x5052_4557;

/// Fixed payload width of every record kind.
pub const PAYLOAD_LEN: usize = 25;

/// Full frame width (magic + len + crc + payload).
pub const FRAME_LEN: usize = 12 + PAYLOAD_LEN;

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

    /// Encodes the fixed-width payload (no frame header).
    #[must_use]
    pub fn encode_payload(&self) -> [u8; PAYLOAD_LEN] {
        let mut out = [0u8; PAYLOAD_LEN];
        let (seq, kind, identity, a, b) = match *self {
            StoreRecord::Outcome { seq, identity, ok, failed } => (seq, 1u8, identity, ok, failed),
            StoreRecord::Ban { seq, identity, suspicion_permille } => {
                (seq, 2u8, identity, suspicion_permille, 0)
            }
        };
        out[0..8].copy_from_slice(&seq.to_le_bytes());
        out[8] = kind;
        out[9..17].copy_from_slice(&identity.to_le_bytes());
        out[17..21].copy_from_slice(&a.to_le_bytes());
        out[21..25].copy_from_slice(&b.to_le_bytes());
        out
    }

    /// Decodes a fixed-width payload. `None` on a bad kind tag or
    /// width — corruption the CRC happened not to catch.
    #[must_use]
    pub fn decode_payload(payload: &[u8]) -> Option<Self> {
        if payload.len() != PAYLOAD_LEN {
            return None;
        }
        let seq = u64::from_le_bytes(payload[0..8].try_into().ok()?);
        let kind = payload[8];
        let identity = u64::from_le_bytes(payload[9..17].try_into().ok()?);
        let a = u32::from_le_bytes(payload[17..21].try_into().ok()?);
        let b = u32::from_le_bytes(payload[21..25].try_into().ok()?);
        match kind {
            1 => Some(StoreRecord::Outcome { seq, identity, ok: a, failed: b }),
            2 if b == 0 => Some(StoreRecord::Ban { seq, identity, suspicion_permille: a }),
            _ => None,
        }
    }

    /// Encodes the record as a full frame (header + payload).
    #[must_use]
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_LEN);
        self.encode_frame_into(&mut out);
        out
    }

    /// Appends the record's full frame to `out` — how a commit builds
    /// one buffer for the whole batch.
    pub(crate) fn encode_frame_into(&self, out: &mut Vec<u8>) {
        let payload = self.encode_payload();
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
}

/// Why a frame failed to decode at some offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than a full frame needs — a torn tail (or a
    /// resync that ran off the end).
    Truncated,
    /// The magic word does not match.
    BadMagic,
    /// The length field is not a plausible payload length.
    BadLength,
    /// The checksum does not match the payload.
    BadCrc,
    /// CRC passed but the payload's kind tag is invalid.
    BadPayload,
}

/// Tries to decode one frame at the start of `bytes`. On success returns
/// the record and the number of bytes consumed.
///
/// # Errors
///
/// A [`FrameError`] naming the first violated invariant.
pub fn decode_frame(bytes: &[u8]) -> Result<(StoreRecord, usize), FrameError> {
    if bytes.len() < 12 {
        return Err(FrameError::Truncated);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    if len != PAYLOAD_LEN {
        return Err(FrameError::BadLength);
    }
    if bytes.len() < 12 + len {
        return Err(FrameError::Truncated);
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let payload = &bytes[12..12 + len];
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    match StoreRecord::decode_payload(payload) {
        Some(record) => Ok((record, 12 + len)),
        None => Err(FrameError::BadPayload),
    }
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
            let (decoded, used) = decode_frame(&frame).expect("round trip");
            assert_eq!(decoded, record);
            assert_eq!(used, FRAME_LEN);
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let record = StoreRecord::Outcome { seq: 99, identity: 1234, ok: 10, failed: 3 };
        let frame = record.encode_frame();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bent = frame.clone();
                bent[byte] ^= 1 << bit;
                match decode_frame(&bent) {
                    Err(_) => {}
                    Ok((decoded, _)) => {
                        panic!("flip at {byte}.{bit} decoded as {decoded:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_truncated_or_bad() {
        let frame =
            StoreRecord::Ban { seq: 5, identity: 42, suspicion_permille: 900 }.encode_frame();
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut]), Err(FrameError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn bad_kind_is_rejected_even_with_valid_crc() {
        let record = StoreRecord::Outcome { seq: 1, identity: 2, ok: 3, failed: 4 };
        let mut payload = record.encode_payload().to_vec();
        payload[8] = 9; // invalid kind
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(decode_frame(&frame), Err(FrameError::BadPayload));
    }
}
