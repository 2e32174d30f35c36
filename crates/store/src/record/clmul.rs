//! CRC-32 by carry-less multiplication (`pclmulqdq`).
//!
//! The CRC register after a message is the message, as a polynomial over
//! GF(2), reduced modulo the CRC polynomial P. A long message need not be
//! reduced byte by byte: 128 bits of it, multiplied by `x^d mod P`, are
//! congruent to the same bits standing `d` positions further on, so a
//! lane can be *folded* forward over the next block with two 64 × 64-bit
//! carry-less multiplies and an xor. [`fold`] keeps four independent
//! 128-bit lanes in flight over each 64 bytes (the multiplies pipeline),
//! folds the four into one, walks the remaining 16-byte blocks, and
//! reduces the last 128 bits to the 32-bit register with one more fold
//! and a Barrett reduction — the scheme of Intel's "Fast CRC Computation
//! for Generic Polynomials Using PCLMULQDQ" in its bit-reflected form,
//! which is the form the IEEE 802.3 CRC uses.
//!
//! This and `watchmen_crypto`'s `sha256::sha_ni` are the two modules of
//! the workspace that may say `unsafe`, and for the same reason: the
//! kernel is an ordinary safe `#[target_feature]` function built from
//! safe intrinsics (bytes reach the vector registers through
//! `u64::from_le_bytes`, never through a pointer), and the single
//! `unsafe` operation is calling it from code compiled without those
//! features, in [`try_fold`], right after the CPU was asked whether it
//! has them.

use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};
use std::sync::OnceLock;

/// The shortest input [`try_fold`] takes: one block per lane.
const MIN_LEN: usize = 64;

// The fold multipliers, `x^d mod P` bit-reflected and shifted left once
// (the reflected product of two 64-bit operands sits one bit low in the
// 128-bit result; the shift puts it back). `d` is the distance the data
// moves plus or minus 32, for the high and low half of a lane. The
// `constants_derive_from_the_polynomial` test computes every one of them
// from `CRC_POLY`.
/// `x^(512 + 32) mod P`: the low half of a lane, four blocks on.
const K1: u64 = 0x01_5444_2bd4;
/// `x^(512 − 32) mod P`: the high half of a lane, four blocks on.
const K2: u64 = 0x01_c6e4_1596;
/// `x^(128 + 32) mod P`: the low half of a lane, one block on.
const K3: u64 = 0x01_7519_97d0;
/// `x^(128 − 32) mod P`: the high half of a lane, one block on.
const K4: u64 = 0x00_ccaa_009e;
/// `x^64 mod P`: folds 96 bits to 64.
const K5: u64 = 0x01_63cd_6124;
/// P itself, all 33 bits, reflected.
const P_X: u64 = 0x01_db71_0641;
/// `⌊x^64 / P⌋`, 33 bits, reflected: Barrett's µ.
const MU: u64 = 0x01_f701_1641;

/// Whether this CPU has everything [`fold`] is compiled with; asked once
/// per process.
fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("sse4.1")
    })
}

/// Advances the raw CRC register `crc` (no final inversion, as the table
/// loop carries it) over the largest multiple of 16 bytes at the front
/// of `bytes`, and returns it with the bytes left over. `None` for
/// inputs shorter than 64 bytes and on a CPU without carry-less multiply.
#[inline]
pub(super) fn try_fold(crc: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
    if bytes.len() < MIN_LEN || !available() {
        return None;
    }
    let (blocks, tail) = bytes.split_at(bytes.len() & !15);
    // SAFETY: `fold` is a safe function that is unsafe to call from here
    // only because it is compiled with the `pclmulqdq`, `sse2` and
    // `sse4.1` target features; `available()` has just confirmed that the
    // running CPU supports all three, and there is no other condition
    // (a length `fold` does not expect would make it panic, no more).
    Some((unsafe { fold(crc, blocks) }, tail))
}

/// Sixteen message bytes as one vector, the first byte lowest — which in
/// the reflected domain makes it the highest-order coefficient.
#[target_feature(enable = "sse2")]
fn load(block: &[u8]) -> __m128i {
    let (lo, hi) = block.split_at(8);
    _mm_set_epi64x(
        i64::from_le_bytes(hi.try_into().expect("eight bytes")),
        i64::from_le_bytes(lo.try_into().expect("eight bytes")),
    )
}

/// `lane` moved forward by the distance `k` encodes (low half times
/// `k`'s low word, high half times its high word), over `next`.
#[target_feature(enable = "pclmulqdq,sse2")]
fn fold_onto(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
    let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// The kernel; see the module docs. `bytes.len()` is a multiple of 16,
/// at least [`MIN_LEN`].
#[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
fn fold(crc: u32, bytes: &[u8]) -> u32 {
    let (head, mut rest) = bytes.split_at(MIN_LEN);
    // The register enters as the top coefficients of the first block.
    let mut x0 = _mm_xor_si128(load(&head[0..16]), _mm_cvtsi32_si128(crc as i32));
    let mut x1 = load(&head[16..32]);
    let mut x2 = load(&head[32..48]);
    let mut x3 = load(&head[48..64]);

    let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
    while let Some((block, tail)) = rest.split_first_chunk::<64>() {
        x0 = fold_onto(x0, k1k2, load(&block[0..16]));
        x1 = fold_onto(x1, k1k2, load(&block[16..32]));
        x2 = fold_onto(x2, k1k2, load(&block[32..48]));
        x3 = fold_onto(x3, k1k2, load(&block[48..64]));
        rest = tail;
    }

    // Four lanes into one, then whatever whole 16-byte blocks remain.
    let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
    let mut x = fold_onto(x0, k3k4, x1);
    x = fold_onto(x, k3k4, x2);
    x = fold_onto(x, k3k4, x3);
    for block in rest.chunks_exact(16) {
        x = fold_onto(x, k3k4, load(block));
    }

    // 128 bits to 64 in two steps: the low half folds over the high
    // one (K4), then the low word of that over the rest (K5).
    let low32 = _mm_set_epi64x(0, 0xffff_ffff);
    x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5 as i64)),
        _mm_srli_si128::<4>(x),
    );

    // Barrett: the quotient estimate from the low word times µ, times P,
    // cancels everything but the 32-bit remainder in lane 1.
    let poly = _mm_set_epi64x(MU as i64, P_X as i64);
    let t = _mm_and_si128(_mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly), low32);
    x = _mm_xor_si128(x, _mm_clmulepi64_si128::<0x00>(t, poly));
    _mm_extract_epi32::<1>(x) as u32
}

#[cfg(test)]
mod tests {
    use super::super::CRC_POLY;
    use super::*;

    /// `x^n mod P`, bit-reflected: the coefficient of `x^0` is bit 31.
    /// Multiplying by `x` shifts right, and a coefficient leaving at bit
    /// 0 is `x^32`, which is congruent to the polynomial's other terms.
    fn x_pow_mod_p(n: u32) -> u32 {
        let mut r = 1u32 << 31;
        for _ in 0..n {
            r = if r & 1 != 0 { (r >> 1) ^ CRC_POLY } else { r >> 1 };
        }
        r
    }

    /// The fold multiplier for distance `n`: see the constants' comment.
    fn k(n: u32) -> u64 {
        u64::from(x_pow_mod_p(n)) << 1
    }

    #[test]
    fn constants_derive_from_the_polynomial() {
        assert_eq!(K1, k(4 * 128 + 32));
        assert_eq!(K2, k(4 * 128 - 32));
        assert_eq!(K3, k(128 + 32));
        assert_eq!(K4, k(128 - 32));
        assert_eq!(K5, k(64));
        // All 33 bits of P, reflected: `CRC_POLY` is the low 32
        // coefficients with `x^0` at bit 31; `x^32` goes in at bit 0.
        assert_eq!(P_X, (u64::from(CRC_POLY) << 1) | 1);
        // ⌊x^64 / P⌋ by long division in the natural bit order (P's
        // `x^i` at bit `i`), then reflected across its 33 bits.
        let p = (1u128 << 32) | u128::from(CRC_POLY.reverse_bits());
        let (mut remainder, mut quotient) = (1u128 << 64, 0u64);
        for bit in (0..=32).rev() {
            if (remainder >> (bit + 32)) & 1 != 0 {
                remainder ^= p << bit;
                quotient |= 1 << bit;
            }
        }
        assert!(remainder < 1 << 32);
        assert_eq!(MU, quotient.reverse_bits() >> (64 - 33));
    }

    #[test]
    fn short_inputs_are_refused_and_the_tail_is_handed_back() {
        let data = [0u8; 96];
        for len in [0, 16, 48, 63] {
            assert_eq!(try_fold(!0, &data[..len]), None, "len {len}");
        }
        if available() {
            for len in [64, 65, 79, 80, 95, 96] {
                let (_, tail) = try_fold(!0, &data[..len]).expect("long enough");
                assert_eq!(tail.len(), len % 16, "len {len}");
            }
        }
    }
}
