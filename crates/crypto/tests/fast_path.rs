//! The table-driven signature path and the unrolled SHA-256 must be
//! indistinguishable from the schemes they replaced: same signature bytes,
//! same verdicts, same digests.
//!
//! Three layers of evidence:
//!
//! * known answers — keys and signatures produced by the original
//!   square-and-multiply implementation, committed as constants;
//! * a differential test of `sign`/`verify` against [`reference`], an
//!   independent implementation on the generic `pow_mod` path and the
//!   original rolled SHA-256;
//! * SHA-256 against the same rolled reference at every short length and
//!   every `update` split.
//!
//! `sha256`/`Sha256` here run whichever `compress` the CPU selects (the
//! SHA extensions where it has them); the scalar one is pinned by the
//! crate's own unit tests, which compare the two block by block.
//!
//! The differential test runs 100 000 cases in release builds (ci.sh runs
//! this file with `--release`) and a shorter prefix in debug builds.

use watchmen_crypto::rng::Xoshiro256;
use watchmen_crypto::schnorr::{
    Keypair, PublicKey, Signature, VerifyingKey, GROUP_ORDER, SIGNATURE_LEN,
};
use watchmen_crypto::{sha256, Sha256};

/// The implementation this crate shipped before the fast path, kept as the
/// oracle: SHA-256 with a 64-word schedule and a rolled round loop,
/// Schnorr on `pow_mod`/`mul_mod` with one division per multiplication.
mod reference {
    use std::sync::OnceLock;

    use watchmen_crypto::field::{mul_mod, pow_mod};
    use watchmen_crypto::schnorr::{GENERATOR, GROUP_ORDER, MODULUS};

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

    /// The round constants, derived rather than copied so the oracle
    /// shares no table with the code under test: the first 32 fractional
    /// bits of the cube roots of the first 64 primes.
    fn round_constants() -> &'static [u32; 64] {
        static K: OnceLock<[u32; 64]> = OnceLock::new();
        K.get_or_init(derive_round_constants)
    }

    fn derive_round_constants() -> [u32; 64] {
        let mut k = [0u32; 64];
        let mut found = 0;
        let mut n = 2u64;
        while found < 64 {
            if (2..n).take_while(|d| d * d <= n).all(|d| !n.is_multiple_of(d)) {
                // floor(cbrt(n) · 2³²) mod 2³², by integer bisection on
                // r³ ≤ n · 2⁹⁶.
                let target = (n as u128) << 96;
                let (mut lo, mut hi) = (0u128, 1u128 << 36);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if mid * mid * mid <= target {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                k[found] = lo as u32;
                found += 1;
            }
            n += 1;
        }
        k
    }

    fn compress(state: &mut [u32; 8], k: &[u32; 64], block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(k[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// One-shot SHA-256 of the concatenation of `parts`.
    pub fn sha256(parts: &[&[u8]]) -> [u8; 32] {
        let mut padded = parts.concat();
        let bit_len = (padded.len() as u64) * 8;
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&bit_len.to_be_bytes());
        let k = round_constants();
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress(&mut state, k, block);
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn leading_u64(digest: &[u8; 32]) -> u64 {
        u64::from_be_bytes(digest[..8].try_into().unwrap())
    }

    fn challenge(r: u64, public: u64, message: &[u8]) -> u64 {
        let digest =
            sha256(&[b"watchmen-schnorr-v1", &r.to_be_bytes(), &public.to_be_bytes(), message]);
        leading_u64(&digest) % GROUP_ORDER
    }

    /// The secret scalar `Keypair::from_secret_scalar(raw)` settles on.
    pub fn secret_of(raw: u64) -> u64 {
        1 + raw % (GROUP_ORDER - 1)
    }

    pub fn public_of(secret: u64) -> u64 {
        pow_mod(GENERATOR, secret, MODULUS)
    }

    /// `(e, s)` of the deterministic signature of `message` under `secret`.
    pub fn sign(secret: u64, message: &[u8]) -> (u64, u64) {
        let digest = sha256(&[b"watchmen-nonce-v1", &secret.to_be_bytes(), message]);
        let k = 1 + leading_u64(&digest) % (GROUP_ORDER - 1);
        let r = pow_mod(GENERATOR, k, MODULUS);
        let e = challenge(r, public_of(secret), message);
        let s =
            ((k as u128 + mul_mod(secret, e, GROUP_ORDER) as u128) % GROUP_ORDER as u128) as u64;
        (e, s)
    }

    pub fn verify(public: u64, message: &[u8], e: u64, s: u64) -> bool {
        if e >= GROUP_ORDER || s >= GROUP_ORDER {
            return false;
        }
        let gs = pow_mod(GENERATOR, s, MODULUS);
        let x_neg_e = pow_mod(public, GROUP_ORDER - e, MODULUS);
        challenge(mul_mod(gs, x_neg_e, MODULUS), public, message) == e
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn signature_of(e: u64, s: u64) -> Option<Signature> {
    let mut bytes = [0u8; SIGNATURE_LEN];
    bytes[..8].copy_from_slice(&e.to_be_bytes());
    bytes[8..].copy_from_slice(&s.to_be_bytes());
    Signature::from_bytes(&bytes)
}

fn scalars_of(sig: &Signature) -> (u64, u64) {
    let bytes = sig.to_bytes();
    (
        u64::from_be_bytes(bytes[..8].try_into().unwrap()),
        u64::from_be_bytes(bytes[8..].try_into().unwrap()),
    )
}

/// Both verification entry points, which must agree.
fn fast_verify(pk: PublicKey, prepared: &VerifyingKey, message: &[u8], sig: &Signature) -> bool {
    let one_shot = pk.verify(message, sig);
    assert_eq!(one_shot, prepared.verify(message, sig), "one-shot and prepared paths disagree");
    one_shot
}

// ---------------------------------------------------------------------
// Known answers, generated by the original implementation (commit d318759,
// `pow_mod` square-and-multiply and the rolled SHA-256) and never to be
// regenerated: a change that moves any of them changes bytes on the wire.
// ---------------------------------------------------------------------

/// `(Keypair::generate seed, public key)`.
const KNOWN_PUBLIC_KEYS: [(u64, u64); 10] = [
    (0x0, 0x208a_d408_d001_e8d5),
    (0x1, 0x28bd_968f_6f6f_c3aa),
    (0x2, 0x0be9_dd2c_1b07_e289),
    (0x2a, 0x0ba0_ca44_d9cb_497f),
    (0x7dd, 0x3ec8_50df_696a_0476),
    (0x1051, 0x18bc_78ed_e5f7_f5f8),
    (0xf1ee7, 0x1c19_53aa_3b16_332e),
    (0xdead_beef, 0x2bef_da73_ac30_76dd),
    (0xffff_ffff_ffff_fffe, 0x2fa8_7d33_4980_041d),
    (0xffff_ffff_ffff_ffff, 0x1a6e_4c18_0fe1_5af2),
];

/// `(Keypair::generate seed, message length, signature)`; the message of
/// entry `i` is [`known_message`]`(i, length)`. Lengths straddle the
/// SHA-256 block and padding boundaries of both hashes a signature takes.
///
/// The last three came with the hardware `compress`, generated by the
/// scalar build before it (commit ff2890a, itself held to the original
/// by the twenty above): a `State` datagram's 98 bytes, whose challenge
/// hash is three blocks, and two lengths at which the padding spills
/// into a block of its own — 56 bytes of message, and 21, which the
/// challenge's 35-byte prefix brings to 56.
const KNOWN_SIGNATURES: [(u64, usize, &str); 23] = [
    (0x0, 0, "0d087191e2626c6b01280cf98aa82064"),
    (0x1, 1, "0b0c2811783eae3b1c68c40bdf115daa"),
    (0x2, 7, "0f87d538477e59451de7efbd32f636ab"),
    (0x2a, 16, "1ef2da849d34ccb201c0404dd2a8454d"),
    (0x7dd, 27, "09ac637df489e51604fe82854917a5e4"),
    (0x1051, 28, "01eade5c1daeef9514cad3a424eedd98"),
    (0xf1ee7, 29, "1e8f0965518e794900f9dc57554270f5"),
    (0xdead_beef, 36, "12c11be66d7f1abc1eea31bc7f183c3c"),
    (0xffff_ffff_ffff_fffe, 37, "024d9ba63b74a77202f8f0c707f5f5b6"),
    (0xffff_ffff_ffff_ffff, 55, "01b58885543d9eb714160ee212a21e47"),
    (0x0, 64, "02ca15c201f32a890e63f578da3869fd"),
    (0x1, 81, "0aca35f404391b1e0945df1d1ed60b2e"),
    (0x2, 88, "08ae718a715ee3101a5cdf16864ebe6b"),
    (0x2a, 91, "07a35ca2ea23f5110c433514167c9019"),
    (0x7dd, 92, "15e8be2948e6c02d117699997d16235c"),
    (0x1051, 93, "1a8caec0afbd3d800b5ba0ff3830248e"),
    (0xf1ee7, 128, "0ffe7c1c1d93a03415f752d1064a70e7"),
    (0xdead_beef, 200, "12d3d816182f0cc10bdaa15e21abf5b0"),
    (0xffff_ffff_ffff_fffe, 255, "165abb082c47d3db1d88ad155dabfdf6"),
    (0xffff_ffff_ffff_ffff, 300, "03a657074f14ca38197d5db9b88fd550"),
    (0x0, 98, "0877416add779653119f140fa8661a5d"),
    (0x1, 56, "0fdc53d4ca7ed4bb090df31127d7af6d"),
    (0x2, 21, "05224967846acbeb116f6dc149fa9d54"),
];

fn known_message(index: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (j as u8).wrapping_mul(31).wrapping_add(index as u8 * 7 + 3)).collect()
}

#[test]
fn known_public_keys_are_unchanged() {
    for (seed, public) in KNOWN_PUBLIC_KEYS {
        let pk = Keypair::generate(seed).public();
        assert_eq!(pk.to_u64(), public, "seed {seed:#x}");
        assert_eq!(PublicKey::from_u64(public), Some(pk), "seed {seed:#x}");
    }
}

#[test]
fn known_signatures_are_unchanged() {
    for (i, (seed, len, sig_hex)) in KNOWN_SIGNATURES.into_iter().enumerate() {
        let keys = Keypair::generate(seed);
        let message = known_message(i, len);
        let sig = keys.sign(&message);
        assert_eq!(hex(&sig.to_bytes()), sig_hex, "vector {i}: seed {seed:#x}, {len} bytes");
        let prepared = VerifyingKey::new(keys.public());
        assert!(fast_verify(keys.public(), &prepared, &message, &sig), "vector {i}");
        // The same signature must not pass under any other known key.
        let (other_seed, _) = KNOWN_PUBLIC_KEYS[(i + 1) % KNOWN_PUBLIC_KEYS.len()];
        if other_seed != seed {
            let other = Keypair::generate(other_seed).public();
            assert!(!other.verify(&message, &sig), "vector {i} under seed {other_seed:#x}");
        }
    }
}

// ---------------------------------------------------------------------
// Differential: table-driven sign/verify against the reference.
// ---------------------------------------------------------------------

fn differential_cases() -> usize {
    if cfg!(debug_assertions) {
        4_000
    } else {
        100_000
    }
}

fn random_message(rng: &mut Xoshiro256) -> Vec<u8> {
    let len = rng.next_range(301);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn sign_and_verify_match_the_reference() {
    let mut rng = Xoshiro256::new(0x12_fa57);
    let mut accepted = 0usize;
    for case in 0..differential_cases() {
        let raw = rng.next_u64();
        let keys = Keypair::from_secret_scalar(raw);
        let secret = reference::secret_of(raw);
        let public = keys.public();
        assert_eq!(public.to_u64(), reference::public_of(secret), "case {case}: public key");
        let prepared = VerifyingKey::new(public);
        assert_eq!(prepared.public(), public);

        let message = random_message(&mut rng);
        let sig = keys.sign(&message);
        let (e, s) = scalars_of(&sig);
        assert_eq!((e, s), reference::sign(secret, &message), "case {case}: signature bytes");

        // One variation per case, by turns; every one is judged by both
        // implementations and the verdicts must agree.
        let (key, prepared, message, e, s, expect) = match case % 6 {
            0 => (public, prepared, message, e, s, Some(true)),
            1 => {
                let bad = (e + 1 + rng.next_range(GROUP_ORDER - 1)) % GROUP_ORDER;
                (public, prepared, message, bad, s, Some(false))
            }
            2 => {
                let bad = (s + 1 + rng.next_range(GROUP_ORDER - 1)) % GROUP_ORDER;
                (public, prepared, message, e, bad, Some(false))
            }
            3 => {
                let (e, s) = (rng.next_range(GROUP_ORDER), rng.next_range(GROUP_ORDER));
                (public, prepared, message, e, s, None)
            }
            4 => {
                let other = Keypair::from_secret_scalar(raw ^ (1 << rng.next_range(60))).public();
                (other, VerifyingKey::new(other), message, e, s, Some(false))
            }
            _ => {
                let mut tampered = message;
                if tampered.is_empty() {
                    tampered.push(0);
                } else {
                    let at = rng.next_range(tampered.len() as u64) as usize;
                    tampered[at] ^= 1 << rng.next_range(8);
                }
                (public, prepared, tampered, e, s, Some(false))
            }
        };
        let candidate = signature_of(e, s).expect("scalars in range");
        let verdict = fast_verify(key, &prepared, &message, &candidate);
        assert_eq!(
            verdict,
            reference::verify(key.to_u64(), &message, e, s),
            "case {case} (variation {}): e={e:#x} s={s:#x}",
            case % 6
        );
        if let Some(expect) = expect {
            assert_eq!(verdict, expect, "case {case} (variation {})", case % 6);
        }
        accepted += usize::from(verdict);
    }
    assert!(accepted >= differential_cases() / 6, "every untampered case must verify");
}

#[test]
fn edge_scalars_match_the_reference() {
    let q = GROUP_ORDER;
    let mut rng = Xoshiro256::new(0xed9e);
    for round in 0..200 {
        let keys = Keypair::from_secret_scalar(rng.next_u64());
        let public = keys.public();
        let prepared = VerifyingKey::new(public);
        let message = random_message(&mut rng);
        let (real_e, real_s) = scalars_of(&keys.sign(&message));
        let edges = [0, 1, 2, q / 2, q - 2, q - 1];
        for e in edges.into_iter().chain([real_e]) {
            for s in edges.into_iter().chain([real_s]) {
                let sig = signature_of(e, s).expect("in range");
                assert_eq!(
                    fast_verify(public, &prepared, &message, &sig),
                    reference::verify(public.to_u64(), &message, e, s),
                    "round {round}: e={e:#x} s={s:#x}"
                );
            }
        }
        // Out-of-range scalars never even decode, so no signature value
        // can carry them into `verify`; the reference refuses them too.
        for big in [q, q + 1, u64::MAX] {
            assert_eq!(signature_of(big, real_s), None);
            assert_eq!(signature_of(real_e, big), None);
            assert!(!reference::verify(public.to_u64(), &message, big, real_s));
            assert!(!reference::verify(public.to_u64(), &message, real_e, big));
        }
    }
}

// ---------------------------------------------------------------------
// SHA-256 against the rolled reference.
// ---------------------------------------------------------------------

#[test]
fn sha256_matches_the_reference_at_every_short_length() {
    let mut rng = Xoshiro256::new(0x5a);
    let data: Vec<u8> = (0..200).map(|_| rng.next_u64() as u8).collect();
    for len in 0..=data.len() {
        assert_eq!(sha256(&data[..len]), reference::sha256(&[&data[..len]]), "length {len}");
    }
}

#[test]
fn sha256_matches_the_reference_at_every_update_split() {
    let mut rng = Xoshiro256::new(0x5b);
    let data: Vec<u8> = (0..200).map(|_| rng.next_u64() as u8).collect();
    let expected = reference::sha256(&[&data]);
    for first in 0..=data.len() {
        // Two-way split, then a three-way one with a cut 64 bytes further
        // on, so some middle part is a whole unbuffered block.
        let mut h = Sha256::new();
        h.update(&data[..first]);
        h.update(&data[first..]);
        assert_eq!(h.finalize(), expected, "split at {first}");

        let second = (first + 64).min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..first]);
        h.update(&data[first..second]);
        h.update(&data[second..]);
        assert_eq!(h.finalize(), expected, "splits at {first} and {second}");
    }
    let mut h = Sha256::new();
    for byte in &data {
        h.update(std::slice::from_ref(byte));
    }
    assert_eq!(h.finalize(), expected, "byte at a time");
}

#[test]
fn sha256_matches_the_reference_on_long_inputs() {
    let mut rng = Xoshiro256::new(0x5c);
    for _ in 0..64 {
        let len = 200 + rng.next_range(4000) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(sha256(&data), reference::sha256(&[&data]), "length {len}");
    }
}
