//! SHA-256 compression on the x86 SHA extensions.
//!
//! The one module of the workspace that may say `unsafe`: the compression
//! routine is an ordinary safe `#[target_feature]` function built from
//! safe intrinsics, and the single `unsafe` operation is calling it from
//! code compiled without those features, in [`try_compress`], right after
//! the CPU was asked whether it has them.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8,
};
use std::sync::OnceLock;

use super::K;

/// Whether this CPU has everything [`compress`] is compiled with; asked
/// once per process.
fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    })
}

/// Compresses `blocks` into `state` on the SHA extensions and returns
/// `true`, or leaves `state` alone and returns `false` on a CPU without
/// them.
pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `compress` is a safe function that is unsafe to call from
    // here only because it is compiled with the `sha`, `sse2`, `ssse3`
    // and `sse4.1` target features; `available()` has just confirmed that
    // the running CPU supports all four, and there is no other condition.
    unsafe { compress(state, blocks) };
    true
}

/// Four consecutive 32-bit words as one vector, `words[0]` in lane 0.
#[target_feature(enable = "sse2")]
fn load(words: [u32; 4]) -> __m128i {
    _mm_set_epi32(words[3] as i32, words[2] as i32, words[1] as i32, words[0] as i32)
}

/// The inverse of [`load`].
#[target_feature(enable = "sse2,sse4.1")]
fn store(v: __m128i) -> [u32; 4] {
    [
        _mm_extract_epi32::<0>(v) as u32,
        _mm_extract_epi32::<1>(v) as u32,
        _mm_extract_epi32::<2>(v) as u32,
        _mm_extract_epi32::<3>(v) as u32,
    ]
}

/// Message words `4i..4i + 4` of `block`: big-endian in memory, one word
/// per lane in the vector.
#[target_feature(enable = "sse2,ssse3")]
fn message_words(block: &[u8; 64], i: usize) -> __m128i {
    let (lo, hi) = block[16 * i..16 * i + 16].split_at(8);
    let raw = _mm_set_epi64x(
        i64::from_le_bytes(hi.try_into().expect("eight bytes")),
        i64::from_le_bytes(lo.try_into().expect("eight bytes")),
    );
    // Reverse the bytes within each 32-bit lane.
    _mm_shuffle_epi8(raw, _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203))
}

/// The compression function over every block of `blocks` in turn.
///
/// `sha256rnds2` wants the working variables as two vectors, `ABEF` and
/// `CDGH` (high lane first), so the state is shuffled into that layout
/// once, stays there across all blocks, and is shuffled back at the end.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let dcba = load([state[0], state[1], state[2], state[3]]);
    let hgfe = load([state[4], state[5], state[6], state[7]]);
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut m0 = message_words(block, 0);
        let mut m1 = message_words(block, 1);
        let mut m2 = message_words(block, 2);
        let mut m3 = message_words(block, 3);

        // Rounds `4i..4i + 4`. `$cur` holds schedule words `4i..4i + 4`;
        // on the way the group finishes `$next` (words `4i + 4..`, whose
        // σ1 terms need `$cur`) and starts the σ0 half of `$prev`'s next
        // incarnation (words `4i + 12..`). The first groups have nothing
        // to finish and the last ones nothing left to start.
        macro_rules! rounds4 {
            ($i:expr, $cur:ident, $next:ident, $prev:ident) => {{
                const I: usize = $i;
                let wk =
                    _mm_add_epi32($cur, load([K[4 * I], K[4 * I + 1], K[4 * I + 2], K[4 * I + 3]]));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                if I >= 3 && I < 15 {
                    let w7 = _mm_alignr_epi8::<4>($cur, $prev);
                    $next = _mm_sha256msg2_epu32(_mm_add_epi32($next, w7), $cur);
                }
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
                if I >= 1 && I < 13 {
                    $prev = _mm_sha256msg1_epu32($prev, $cur);
                }
            }};
        }
        rounds4!(0, m0, m1, m3);
        rounds4!(1, m1, m2, m0);
        rounds4!(2, m2, m3, m1);
        rounds4!(3, m3, m0, m2);
        rounds4!(4, m0, m1, m3);
        rounds4!(5, m1, m2, m0);
        rounds4!(6, m2, m3, m1);
        rounds4!(7, m3, m0, m2);
        rounds4!(8, m0, m1, m3);
        rounds4!(9, m1, m2, m0);
        rounds4!(10, m2, m3, m1);
        rounds4!(11, m3, m0, m2);
        rounds4!(12, m0, m1, m3);
        rounds4!(13, m1, m2, m0);
        rounds4!(14, m2, m3, m1);
        rounds4!(15, m3, m0, m2);

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let [a, b, c, d] = store(_mm_blend_epi16::<0xf0>(feba, dchg));
    let [e, f, g, h] = store(_mm_alignr_epi8::<8>(dchg, feba));
    *state = [a, b, c, d, e, f, g, h];
}
