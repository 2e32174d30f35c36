//! Modular arithmetic over 64-bit moduli.
//!
//! Supports the Schnorr signature scheme in [`crate::schnorr`]. All values
//! fit in `u64`; products use `u128` intermediates so no multi-precision
//! arithmetic is needed.
//!
//! Two layers live here. [`mul_mod`] and [`pow_mod`] work for any modulus
//! and pay one 128-by-64-bit division per multiplication: they are the
//! *reference path* — primality testing, public-key validation, and the
//! oracle the tests compare against. Signing and verification instead run
//! on the crate-private Montgomery routines below, fixed to the Schnorr
//! prime, which never divide.

use crate::schnorr::MODULUS;

/// `(a + b) mod m`.
///
/// # Panics
///
/// Panics in debug builds if `m == 0` or either operand is `≥ m`.
#[must_use]
pub fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0 && a < m && b < m);
    let (s, carried) = a.overflowing_add(b);
    if carried || s >= m {
        s.wrapping_sub(m)
    } else {
        s
    }
}

/// `(a - b) mod m`.
///
/// # Panics
///
/// Panics in debug builds if `m == 0` or either operand is `≥ m`.
#[must_use]
pub fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0 && a < m && b < m);
    if a >= b {
        a - b
    } else {
        m - (b - a)
    }
}

/// `(a * b) mod m` using a 128-bit intermediate.
///
/// Reference path: one hardware division per call. The signature hot path
/// multiplies in Montgomery form instead.
///
/// # Panics
///
/// Panics in debug builds if `m == 0`.
#[must_use]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `base^exp mod m` by square-and-multiply.
///
/// Reference path (see the module docs): generic in `m`, two [`mul_mod`]
/// divisions per exponent bit. `0^0` is defined as `1`.
///
/// # Panics
///
/// Panics in debug builds if `m == 0`.
#[must_use]
pub fn pow_mod(base: u64, mut exp: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    if m == 1 {
        return 0;
    }
    let mut result: u64 = 1;
    let mut base = base % m;
    while exp > 0 {
        if exp & 1 == 1 {
            result = mul_mod(result, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    result
}

/// Modular inverse of `a` modulo prime `p`, via Fermat's little theorem.
///
/// Returns `None` if `a ≡ 0 (mod p)`.
///
/// # Panics
///
/// Panics in debug builds if `p < 2`. The result is only an inverse when
/// `p` is prime, which callers must guarantee.
#[must_use]
pub fn inv_mod_prime(a: u64, p: u64) -> Option<u64> {
    debug_assert!(p >= 2);
    let a = a % p;
    (a != 0).then(|| pow_mod(a, p - 2, p))
}

/// Deterministic Miller–Rabin primality test, exact for all `u64` inputs
/// (uses the first twelve primes as witnesses, sufficient below `3.3·10^24`).
///
/// # Examples
///
/// ```
/// use watchmen_crypto::field::is_prime;
/// assert!(is_prime(2305843009213697249));
/// assert!(!is_prime(1 << 40));
/// ```
#[must_use]
pub fn is_prime(n: u64) -> bool {
    const WITNESSES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    if n < 2 {
        return false;
    }
    for &p in &WITNESSES {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for &a in &WITNESSES {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// `-MODULUS⁻¹ mod 2⁶⁴`, by Newton iteration (each step doubles the
/// number of correct low bits; an odd `p` is its own inverse mod 8).
const NEG_INV: u64 = {
    let mut inv = MODULUS;
    let mut i = 0;
    while i < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(MODULUS.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};

/// `1` in Montgomery form: `2⁶⁴ mod p`.
pub(crate) const MONT_ONE: u64 = ((1u128 << 64) % MODULUS as u128) as u64;

/// `2¹²⁸ mod p`, the factor that carries a value into Montgomery form.
const MONT_R2: u64 = ((MONT_ONE as u128 * MONT_ONE as u128) % MODULUS as u128) as u64;

/// Montgomery reduction: `t · 2⁻⁶⁴ mod p` for `t < p · 2⁶⁴`.
///
/// `p < 2⁶³`, so `t + m·p < 2¹²⁸` and the sum cannot overflow.
const fn mont_reduce(t: u128) -> u64 {
    let m = (t as u64).wrapping_mul(NEG_INV);
    let r = ((t + m as u128 * MODULUS as u128) >> 64) as u64;
    if r >= MODULUS {
        r - MODULUS
    } else {
        r
    }
}

/// Product of two Montgomery-form residues (each `< p`), in Montgomery
/// form. Division-free: three 64-bit multiplications.
pub(crate) const fn mont_mul(a: u64, b: u64) -> u64 {
    mont_reduce(a as u128 * b as u128)
}

/// Carries `a < p` into Montgomery form.
pub(crate) const fn to_mont(a: u64) -> u64 {
    mont_mul(a, MONT_R2)
}

/// Brings a Montgomery-form residue back to its canonical value in `[0, p)`.
pub(crate) const fn from_mont(a: u64) -> u64 {
    mont_reduce(a as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use crate::schnorr::{GENERATOR, GROUP_ORDER};

    #[test]
    fn add_sub_roundtrip() {
        let m = 97;
        for a in 0..m {
            for b in 0..m {
                assert_eq!(sub_mod(add_mod(a, b, m), b, m), a);
            }
        }
    }

    #[test]
    fn add_mod_near_the_top_of_u64() {
        let m = u64::MAX - 58;
        assert_eq!(add_mod(m - 1, m - 1, m), m - 2);
        assert_eq!(add_mod(m - 1, 1, m), 0);
        assert_eq!(add_mod(0, 0, m), 0);
        assert_eq!(add_mod(m - 1, 0, m), m - 1);
    }

    #[test]
    fn montgomery_constants_are_consistent() {
        assert_eq!(MODULUS.wrapping_mul(NEG_INV), u64::MAX, "p · (−p⁻¹) ≡ −1 mod 2⁶⁴");
        assert_eq!(from_mont(MONT_ONE), 1);
        assert_eq!(to_mont(1), MONT_ONE);
        assert_eq!(to_mont(0), 0);
    }

    #[test]
    fn montgomery_product_matches_the_reference() {
        let mut rng = Xoshiro256::new(77);
        let edges = [0, 1, 2, GENERATOR, MODULUS - 2, MODULUS - 1];
        let check = |a: u64, b: u64| {
            assert_eq!(from_mont(to_mont(a)), a);
            assert_eq!(
                from_mont(mont_mul(to_mont(a), to_mont(b))),
                mul_mod(a, b, MODULUS),
                "{a} · {b}"
            );
        };
        for a in edges {
            for b in edges {
                check(a, b);
            }
        }
        for _ in 0..20_000 {
            check(rng.next_range(MODULUS), rng.next_range(MODULUS));
        }
    }

    #[test]
    fn mul_mod_large_operands() {
        let m = u64::MAX - 58; // large prime
        let a = m - 1;
        assert_eq!(mul_mod(a, a, m), 1); // (-1)^2 = 1
    }

    #[test]
    fn pow_mod_small_cases() {
        assert_eq!(pow_mod(2, 10, 1_000_000), 1024);
        assert_eq!(pow_mod(0, 0, 7), 1);
        assert_eq!(pow_mod(5, 0, 7), 1);
        assert_eq!(pow_mod(5, 1, 7), 5);
        assert_eq!(pow_mod(7, 3, 1), 0);
    }

    #[test]
    fn fermat_little_theorem() {
        let p = 1_000_000_007u64;
        for a in [2u64, 42, 999_999_999] {
            assert_eq!(pow_mod(a, p - 1, p), 1);
        }
    }

    #[test]
    fn inverse_works() {
        let p = 1_000_000_007u64;
        for a in [1u64, 2, 12345, p - 1] {
            let inv = inv_mod_prime(a, p).unwrap();
            assert_eq!(mul_mod(a, inv, p), 1);
        }
        assert_eq!(inv_mod_prime(0, p), None);
        assert_eq!(inv_mod_prime(p, p), None);
    }

    #[test]
    fn primality_known_values() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(!is_prime(4));
        assert!(is_prime(1_000_000_007));
        assert!(!is_prime(1_000_000_007u64 * 3));
        // Strong pseudoprime to base 2: 3215031751 = 151 × 751 × 28351.
        assert!(!is_prime(3_215_031_751));
    }

    #[test]
    fn schnorr_group_parameters_are_sound() {
        // The hardcoded group: p = 2q + 1, both prime, g of order q.
        assert!(is_prime(MODULUS));
        assert!(is_prime(GROUP_ORDER));
        assert_eq!(MODULUS, 2 * GROUP_ORDER + 1);
        assert_eq!(pow_mod(GENERATOR, GROUP_ORDER, MODULUS), 1);
        assert_ne!(pow_mod(GENERATOR, 1, MODULUS), 1);
    }
}
