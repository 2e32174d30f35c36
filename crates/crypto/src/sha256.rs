//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! The compression function exists twice. [`compress_scalar`] is portable
//! Rust and runs everywhere. On `x86_64` the private `sha_ni` module holds
//! a second one on the CPU's SHA extensions (`sha256rnds2`, `sha256msg1`,
//! `sha256msg2`), about four times as fast; [`compress`] asks the CPU once
//! per process whether it has them (`is_x86_feature_detected!`) and uses
//! the scalar function when it does not. Nothing selects between them but
//! that observation. The scalar function stays because it is the only
//! path on every other CPU and the reference the hardware one is tested
//! against: the tests below drive the NIST vectors through it directly
//! and compare the two block by block.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni;

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first eight primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// An incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use watchmen_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffer_len: 0, total_len: 0 }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }
        // Whole blocks are compressed where they lie, never copied, and
        // in one call, so the state changes layout once for all of them
        // (and not at all for the short pieces a signature's prefix
        // arrives in).
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length in
        // the last eight bytes of a block — a second block if the length
        // no longer fits behind the data.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer = [0; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, std::slice::from_ref(&self.buffer));
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses `blocks` into `state`, in order, on the fastest path this
/// CPU has. Public only for `micro_kernels`, which times it beside
/// [`compress_scalar`].
#[doc(hidden)]
pub fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::try_compress(state, blocks) {
        return;
    }
    for block in blocks {
        compress_scalar(state, block);
    }
}

/// The SHA-256 compression function in portable Rust: 64 rounds, fully
/// unrolled, over a rolling 16-word message schedule (word `i ≥ 16`
/// overwrites word `i − 16`, the only one it no longer needs). Public
/// only for `micro_kernels`.
#[doc(hidden)]
pub fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round with the working variables named in their current
    // rotation: it updates `d` and `h` in place, and the caller rotates
    // the names instead of moving eight registers.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {{
            const I: usize = $i;
            if I >= 16 {
                let w15 = w[(I + 1) % 16];
                let w2 = w[(I + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[I % 16] =
                    w[I % 16].wrapping_add(s0).wrapping_add(w[(I + 9) % 16]).wrapping_add(s1);
            }
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = $g ^ ($e & ($f ^ $g));
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[I])
                .wrapping_add(w[I % 16]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) | ($c & ($a | $b));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        }};
    }
    macro_rules! rounds8 {
        ($i:expr) => {
            round!(a, b, c, d, e, f, g, h, $i);
            round!(h, a, b, c, d, e, f, g, $i + 1);
            round!(g, h, a, b, c, d, e, f, $i + 2);
            round!(f, g, h, a, b, c, d, e, $i + 3);
            round!(e, f, g, h, a, b, c, d, $i + 4);
            round!(d, e, f, g, h, a, b, c, $i + 5);
            round!(c, d, e, f, g, h, a, b, $i + 6);
            round!(b, c, d, e, f, g, h, a, $i + 7);
        };
    }
    rounds8!(0);
    rounds8!(8);
    rounds8!(16);
    rounds8!(24);
    rounds8!(32);
    rounds8!(40);
    rounds8!(48);
    rounds8!(56);

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let d = watchmen_crypto::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// One-shot SHA-256 on [`compress_scalar`] alone, whatever the CPU.
    fn sha256_scalar(data: &[u8]) -> String {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize(padded.len().next_multiple_of(64), 0);
        if padded.len() - data.len() < 9 {
            padded.resize(padded.len() + 64, 0);
        }
        let bit_len = (data.len() as u64) * 8;
        let at = padded.len() - 8;
        padded[at..].copy_from_slice(&bit_len.to_be_bytes());
        let mut state = H0;
        for block in padded.as_chunks::<64>().0 {
            compress_scalar(&mut state, block);
        }
        state.iter().map(|word| format!("{word:08x}")).collect()
    }

    #[test]
    fn nist_vectors_on_the_scalar_path() {
        assert_eq!(
            sha256_scalar(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_scalar(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_scalar(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            sha256_scalar(&vec![b'a'; 1_000_000]),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_compress_agrees_with_scalar() {
        use crate::rng::Xoshiro256;

        if !sha_ni::try_compress(&mut [0; 8], &[]) {
            println!("skipped: this CPU has no SHA extensions, the scalar path is the only one");
            return;
        }
        let agree = |state: [u32; 8], blocks: &[[u8; 64]]| {
            let (mut scalar, mut hardware) = (state, state);
            for block in blocks {
                compress_scalar(&mut scalar, block);
            }
            assert!(sha_ni::try_compress(&mut hardware, blocks));
            assert_eq!(scalar, hardware, "state {state:08x?}, blocks {blocks:02x?}");
        };

        let mut rng = Xoshiro256::new(0x5a_256);
        let mut random_state = move || {
            let mut state = [0u32; 8];
            state.fill_with(|| rng.next_u64() as u32);
            state
        };
        let mut rng = Xoshiro256::new(0xb10c);
        let mut random_block = move || {
            let mut block = [0u8; 64];
            block.fill_with(|| rng.next_u64() as u8);
            block
        };
        for _ in 0..10_000 {
            agree(random_state(), &[random_block()]);
        }
        for edge in [[0x00u8; 64], [0xff; 64]] {
            agree(H0, &[edge]);
            agree([0; 8], &[edge]);
            agree([u32::MAX; 8], &[edge]);
            agree(random_state(), &[edge]);
        }
        // Several blocks in one call: the state stays in the
        // instructions' layout from the first block to the last.
        for count in 0..=9 {
            let blocks: Vec<[u8; 64]> = (0..count).map(|_| random_block()).collect();
            agree(random_state(), &blocks);
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the padding boundary (55/56/63/64 bytes).
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"hello"), sha256(b"hellp"));
        assert_ne!(sha256(b"a"), sha256(b"aa"));
    }

    #[test]
    fn default_equals_new() {
        let a = Sha256::default().finalize();
        let b = Sha256::new().finalize();
        assert_eq!(a, b);
    }
}
