//! Lightweight Schnorr signatures over a 63-bit safe-prime group.
//!
//! The paper signs every forwarded message with a ~100-bit "lightweight
//! digital signature" so that proxies cannot tamper, replay or spoof. This
//! module provides the equivalent: 16-byte signatures whose sign/verify
//! cost is a few microseconds — negligible against the 50 ms frame budget.
//!
//! The group is the order-`q` subgroup of quadratic residues of
//! `Z_p*` for the safe prime `p = 2q + 1` below; the generator is `g = 4`.
//! See the crate-level security disclaimer: 63-bit moduli are a research
//! stand-in, not real-world security.
//!
//! # Fast path
//!
//! Every exponentiation a signature needs runs division-free in
//! Montgomery form over a *comb table* (Lim–Lee): the 64-bit exponent is
//! cut into 4 rows of 16 bits, and entry `j` of a base's 16-entry table
//! holds the product of `base^(2^(16·r))` over the set bits `r` of `j`.
//! One exponentiation is then 15 squarings and 16 table multiplications
//! instead of ~92 divisions. The generator's table is computed at compile
//! time; a [`VerifyingKey`] carries the same table for one public key, so
//! `g^s · X^(q−e)` shares a single squaring chain. The results are the
//! same residues [`pow_mod`] produces, so signatures and verdicts are
//! bit-identical to the square-and-multiply scheme.

use std::fmt;

use crate::field::{add_mod, from_mont, mont_mul, mul_mod, pow_mod, to_mont, MONT_ONE};
use crate::rng::Xoshiro256;
use crate::sha256::Sha256;

/// The safe prime `p` (63 bits): `p = 2q + 1`.
pub const MODULUS: u64 = 4_611_686_018_427_394_499;
/// The prime group order `q = (p - 1) / 2`.
pub const GROUP_ORDER: u64 = 2_305_843_009_213_697_249;
/// The subgroup generator `g = 4` (a quadratic residue, hence of order `q`).
pub const GENERATOR: u64 = 4;

/// Encoded signature size in bytes (two 8-byte scalars ≈ the paper's
/// "100-bit" class).
pub const SIGNATURE_LEN: usize = 16;

/// Rows of a comb table: the exponent is read as this many interleaved
/// bit-strings.
const COMB_ROWS: usize = 4;
/// Columns of a comb table: bits per row, and table lookups per
/// exponentiation. `COMB_ROWS · COMB_COLS` covers a full `u64` exponent.
const COMB_COLS: usize = 16;
/// Entries in a comb table (`2^COMB_ROWS`): 128 bytes per base. A node
/// keeps one table per roster member, so the table stays this small on
/// purpose — a windowed 2 KB table per key would dominate a 48-player
/// match's heap.
const COMB_LEN: usize = 1 << COMB_ROWS;

/// The comb table of a Montgomery-form `base`: entry `j` is the product of
/// `base^(2^(COMB_COLS·r))` over the set bits `r` of `j` (entry 0 is one).
const fn comb_table(base: u64) -> [u64; COMB_LEN] {
    let mut table = [MONT_ONE; COMB_LEN];
    let mut row_base = base;
    let mut row = 0;
    while row < COMB_ROWS {
        let bit = 1 << row;
        // Entries [bit, 2·bit) are entries [0, bit) times this row's base.
        let mut j = 0;
        while j < bit {
            table[bit + j] = mont_mul(table[j], row_base);
            j += 1;
        }
        row += 1;
        let mut i = 0;
        while row < COMB_ROWS && i < COMB_COLS {
            row_base = mont_mul(row_base, row_base);
            i += 1;
        }
    }
    table
}

/// The table index column `col` of `exp` selects: bit `r` of the index is
/// bit `COMB_COLS·r + col` of the exponent.
fn comb_index(exp: u64, col: usize) -> usize {
    (0..COMB_ROWS)
        .fold(0, |index, row| index | ((exp >> (COMB_COLS * row + col)) as usize & 1) << row)
}

/// The generator's comb table, built at compile time.
static GENERATOR_COMB: [u64; COMB_LEN] = comb_table(to_mont(GENERATOR));

/// `g^exp mod p` over the generator's comb table, as a canonical residue.
fn generator_pow(exp: u64) -> u64 {
    let mut acc = MONT_ONE;
    for col in (0..COMB_COLS).rev() {
        acc = mont_mul(acc, acc);
        acc = mont_mul(acc, GENERATOR_COMB[comb_index(exp, col)]);
    }
    from_mont(acc)
}

/// A Schnorr public key.
///
/// # Examples
///
/// ```
/// use watchmen_crypto::schnorr::Keypair;
///
/// let keys = Keypair::generate(1);
/// let pk = keys.public();
/// assert!(pk.verify(b"msg", &keys.sign(b"msg")));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(u64);

/// A Schnorr secret key. Not `Copy`, to discourage accidental duplication.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(u64);

/// A keypair plus a deterministic nonce generator.
///
/// Nonces are derived per-signature from a hash of the secret key and the
/// message (deterministic signing à la RFC 6979), so no system randomness
/// is needed and signing is reproducible across simulation runs.
#[derive(Debug, Clone)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

/// A detached signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Challenge scalar `e = H(R ‖ X ‖ m) mod q`.
    e: u64,
    /// Response scalar `s = k + x·e mod q`.
    s: u64,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the scalar.
        f.write_str("SecretKey(<redacted>)")
    }
}

impl PublicKey {
    /// The group element as a raw scalar (for wire encoding).
    #[must_use]
    pub fn to_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs a public key from its wire encoding.
    ///
    /// Returns `None` if the value is not a valid group element (zero, one,
    /// or `≥ p`).
    #[must_use]
    pub fn from_u64(x: u64) -> Option<Self> {
        (x > 1 && x < MODULUS && pow_mod(x, GROUP_ORDER, MODULUS) == 1).then_some(PublicKey(x))
    }

    /// Verifies `sig` over `message`: the one-shot form of
    /// [`VerifyingKey::verify`], preparing the key's table on the spot.
    /// Callers that check many messages under one key should build the
    /// [`VerifyingKey`] once instead.
    #[must_use]
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        VerifyingKey::new(*self).verify(message, sig)
    }
}

/// A public key prepared for repeated verification: the key plus its comb
/// table (see the module docs), built once in ~60 multiplications.
///
/// # Examples
///
/// ```
/// use watchmen_crypto::schnorr::{Keypair, VerifyingKey};
///
/// let keys = Keypair::generate(1);
/// let vk = VerifyingKey::new(keys.public());
/// assert!(vk.verify(b"one", &keys.sign(b"one")));
/// assert!(vk.verify(b"two", &keys.sign(b"two")));
/// assert!(!vk.verify(b"two", &keys.sign(b"one")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyingKey {
    key: PublicKey,
    comb: [u64; COMB_LEN],
}

impl VerifyingKey {
    /// Prepares `key` for verification.
    #[must_use]
    pub fn new(key: PublicKey) -> Self {
        VerifyingKey { key, comb: comb_table(to_mont(key.0)) }
    }

    /// The key this table was built from.
    #[must_use]
    pub fn public(&self) -> PublicKey {
        self.key
    }

    /// Verifies `sig` over `message`.
    #[must_use]
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        if sig.e >= GROUP_ORDER || sig.s >= GROUP_ORDER {
            return false;
        }
        // R' = g^s · X^{-e};  X^{-e} = X^{q - e} because X has order q.
        let r = self.double_pow(sig.s, GROUP_ORDER - sig.e);
        challenge(r, self.key.0, message) == sig.e
    }

    /// `g^s · X^t mod p` as a canonical residue. Both exponentiations walk
    /// their combs down one squaring chain; each column's two table
    /// entries are multiplied together first, which keeps that product
    /// off the chain's dependency path.
    fn double_pow(&self, s: u64, t: u64) -> u64 {
        let mut acc = MONT_ONE;
        for col in (0..COMB_COLS).rev() {
            let column =
                mont_mul(GENERATOR_COMB[comb_index(s, col)], self.comb[comb_index(t, col)]);
            acc = mont_mul(mont_mul(acc, acc), column);
        }
        from_mont(acc)
    }
}

impl Keypair {
    /// Derives a keypair deterministically from a seed (e.g. a player id
    /// mixed with a game seed).
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from(seed, 0x5ee5_c0de);
        // x ∈ [1, q)
        let x = 1 + rng.next_range(GROUP_ORDER - 1);
        Keypair::from_secret_scalar(x)
    }

    /// Builds a keypair from a raw secret scalar, reducing it into `[1, q)`.
    #[must_use]
    pub fn from_secret_scalar(x: u64) -> Self {
        let x = 1 + (x % (GROUP_ORDER - 1));
        let public = PublicKey(generator_pow(x));
        Keypair { secret: SecretKey(x), public }
    }

    /// The public half.
    #[must_use]
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` with a deterministic per-message nonce.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        // k = H("nonce" ‖ x ‖ m) mod (q-1) + 1, never zero.
        let mut h = Sha256::new();
        h.update(b"watchmen-nonce-v1");
        h.update(&self.secret.0.to_be_bytes());
        h.update(message);
        let digest = h.finalize();
        let k =
            1 + (u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")) % (GROUP_ORDER - 1));
        let r = generator_pow(k);
        let e = challenge(r, self.public.0, message);
        let s = add_mod(k % GROUP_ORDER, mul_mod(self.secret.0, e, GROUP_ORDER), GROUP_ORDER);
        Signature { e, s }
    }
}

impl Signature {
    /// Encodes the signature into 16 bytes.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..8].copy_from_slice(&self.e.to_be_bytes());
        out[8..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Decodes a signature from its 16-byte encoding.
    ///
    /// Returns `None` if either scalar is out of range.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Option<Self> {
        let e = u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes"));
        let s = u64::from_be_bytes(bytes[8..].try_into().expect("8 bytes"));
        (e < GROUP_ORDER && s < GROUP_ORDER).then_some(Signature { e, s })
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig(e={:016x}, s={:016x})", self.e, self.s)
    }
}

/// Fiat–Shamir challenge `H(R ‖ X ‖ m) mod q`.
fn challenge(r: u64, public: u64, message: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(b"watchmen-schnorr-v1");
    h.update(&r.to_be_bytes());
    h.update(&public.to_be_bytes());
    h.update(message);
    let digest = h.finalize();
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")) % GROUP_ORDER
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::sub_mod;

    #[test]
    fn sign_verify_roundtrip() {
        let keys = Keypair::generate(42);
        for msg in [&b"a"[..], b"hello world", b"", &[0u8; 500]] {
            let sig = keys.sign(msg);
            assert!(keys.public().verify(msg, &sig));
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let keys = Keypair::generate(1);
        let sig = keys.sign(b"position: (1, 2, 3)");
        assert!(!keys.public().verify(b"position: (9, 2, 3)", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let alice = Keypair::generate(1);
        let mallory = Keypair::generate(2);
        let sig = alice.sign(b"msg");
        assert!(!mallory.public().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let keys = Keypair::generate(3);
        let sig = keys.sign(b"msg");
        let bad_e = Signature { e: sub_mod(sig.e, 1, GROUP_ORDER), ..sig };
        let bad_s = Signature { s: add_mod(sig.s, 1 % GROUP_ORDER, GROUP_ORDER), ..sig };
        assert!(!keys.public().verify(b"msg", &bad_e));
        assert!(!keys.public().verify(b"msg", &bad_s));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let keys = Keypair::generate(4);
        let good = keys.sign(b"msg");
        let prepared = VerifyingKey::new(keys.public());
        for big in [GROUP_ORDER, GROUP_ORDER + 1, u64::MAX] {
            for sig in [Signature { e: big, ..good }, Signature { s: big, ..good }] {
                assert!(!keys.public().verify(b"msg", &sig));
                assert!(!prepared.verify(b"msg", &sig));
            }
        }
    }

    /// Exponents that exercise every comb row and both ends of a column.
    const EDGE_EXPONENTS: [u64; 12] = [
        0,
        1,
        2,
        0xffff,
        0x1_0000,
        0x8000_8000_8000_8000,
        0x0001_0001_0001_0001,
        GROUP_ORDER - 1,
        GROUP_ORDER,
        MODULUS - 1,
        u64::MAX - 1,
        u64::MAX,
    ];

    #[test]
    fn generator_comb_matches_square_and_multiply() {
        let mut rng = Xoshiro256::new(91);
        let random = std::iter::repeat_with(|| rng.next_u64()).take(5_000);
        for exp in EDGE_EXPONENTS.into_iter().chain(random) {
            assert_eq!(generator_pow(exp), pow_mod(GENERATOR, exp, MODULUS), "g^{exp:#x}");
        }
    }

    #[test]
    fn double_pow_matches_square_and_multiply() {
        let mut rng = Xoshiro256::new(92);
        let reference = |x: u64, s: u64, t: u64| {
            mul_mod(pow_mod(GENERATOR, s, MODULUS), pow_mod(x, t, MODULUS), MODULUS)
        };
        for seed in 0..8 {
            let public = Keypair::generate(seed).public();
            let prepared = VerifyingKey::new(public);
            for s in EDGE_EXPONENTS {
                for t in EDGE_EXPONENTS {
                    assert_eq!(
                        prepared.double_pow(s, t),
                        reference(public.0, s, t),
                        "{s:#x} {t:#x}"
                    );
                }
            }
            for _ in 0..2_000 {
                let (s, t) = (rng.next_u64(), rng.next_u64());
                assert_eq!(prepared.double_pow(s, t), reference(public.0, s, t), "{s:#x} {t:#x}");
            }
        }
    }

    #[test]
    fn signing_is_deterministic() {
        let keys = Keypair::generate(5);
        assert_eq!(keys.sign(b"m"), keys.sign(b"m"));
        assert_ne!(keys.sign(b"m"), keys.sign(b"n"));
    }

    #[test]
    fn encoding_roundtrip() {
        let keys = Keypair::generate(6);
        let sig = keys.sign(b"encode me");
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), SIGNATURE_LEN);
        assert_eq!(Signature::from_bytes(&bytes), Some(sig));
        // Invalid scalars refuse to decode.
        let mut bad = bytes;
        bad[..8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert_eq!(Signature::from_bytes(&bad), None);
    }

    #[test]
    fn public_key_encoding_roundtrip() {
        let keys = Keypair::generate(7);
        let pk = keys.public();
        assert_eq!(PublicKey::from_u64(pk.to_u64()), Some(pk));
        assert_eq!(PublicKey::from_u64(0), None);
        assert_eq!(PublicKey::from_u64(1), None);
        assert_eq!(PublicKey::from_u64(MODULUS), None);
        // A non-residue is not in the subgroup. g is a QR; p - g is not
        // (since -1 is a non-residue mod a safe prime p ≡ 3 mod 4).
        assert_eq!(PublicKey::from_u64(MODULUS - GENERATOR), None);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = Keypair::generate(100);
        let b = Keypair::generate(101);
        assert_ne!(a.public(), b.public());
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let keys = Keypair::generate(8);
        let dbg = format!("{keys:?}");
        assert!(dbg.contains("redacted"));
    }
}
