//! Cryptographic primitives for the Watchmen reproduction.
//!
//! The paper secures proxy-forwarded traffic with "lightweight (i.e., 100
//! bits, while state update messages are 700 bits on average) digital
//! signatures", and derives every player's proxy from a pseudo-random
//! number generator that all players evaluate identically. No cryptography
//! crates are available in this offline environment, so this crate builds
//! the required primitives from scratch:
//!
//! * [`Sha256`] — FIPS 180-4 SHA-256 (verified against NIST test vectors).
//! * [`hmac_sha256`] — RFC 2104 HMAC (verified against RFC 4231 vectors).
//! * [`schnorr`] — Schnorr signatures over a 63-bit safe-prime group,
//!   yielding 16-byte signatures: the same *size class* as the paper's
//!   100-bit scheme, with sign/verify costs far below the 50 ms frame
//!   budget.
//! * [`rng`] — SplitMix64 and Xoshiro256\*\* deterministic generators with a
//!   *stable, documented* output sequence. The verifiable proxy schedule
//!   depends on every node computing identical streams, so we do not use
//!   `rand`'s unspecified `StdRng` algorithm here.
//!
//! # Fast path
//!
//! Signing and verifying every forwarded update is the largest single cost
//! of a Watchmen frame, so [`schnorr`] never divides: residues of the
//! fixed prime are multiplied in Montgomery form ([`field`]), and every
//! exponentiation walks a 16-entry *comb table* — the exponent read as 4
//! rows × 16 columns, 15 squarings and 16 lookups. The generator's table
//! is a compile-time constant; [`schnorr::VerifyingKey`] holds the table
//! of one public key (128 bytes, built once in ~0.3 µs) so that
//! `g^s · X^(q−e)` shares a single squaring chain. The table stays at 16
//! entries because every node keeps one per roster member.
//! [`field::pow_mod`] and [`field::mul_mod`] remain as the generic
//! reference path (primality, key validation, test oracle); signatures
//! and verdicts are bit-identical between the two.
//!
//! With the exponentiation that cheap, the two hashes a signature takes
//! are most of its cost. [`Sha256`] compresses blocks where they lie, on
//! one of two functions with the same output: on an `x86_64` CPU that
//! reports the SHA extensions, `sha256rnds2`/`sha256msg1`/`sha256msg2`,
//! about four times as fast; everywhere else, and as the reference the
//! other is tested against, portable Rust fully unrolled over a rolling
//! 16-word schedule. The CPU is asked once per process and nothing else
//! selects: no feature, no flag. That hardware path is one of the
//! workspace's two uses of `unsafe` — one call of a `#[target_feature]`
//! function, in the private `sha256::sha_ni` module, straight after the
//! detection that makes it sound — so this crate is `deny(unsafe_code)`
//! with that module allowed. The other is the same shape one crate over:
//! `watchmen_store`'s carry-less-multiply CRC-32 (`record::clmul`), which
//! lives there because the checksum is part of the store's file format.
//! Every other crate stays `forbid`.
//!
//! # Security disclaimer
//!
//! The Schnorr group modulus is 63 bits: **this is a research stand-in**,
//! faithful to the paper's "lightweight signature" size/cost trade-off, and
//! is trivially breakable by a determined adversary. Swap in a curve of
//! proper size for anything beyond protocol research.
//!
//! # Examples
//!
//! ```
//! use watchmen_crypto::schnorr::Keypair;
//!
//! let keys = Keypair::generate(7);
//! let sig = keys.sign(b"state update");
//! assert!(keys.public().verify(b"state update", &sig));
//! assert!(!keys.public().verify(b"forged update", &sig));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
mod hmac;
pub mod rng;
pub mod schnorr;
mod sha256;

pub use hmac::hmac_sha256;
#[doc(hidden)]
pub use sha256::{compress as sha256_compress, compress_scalar as sha256_compress_scalar};
pub use sha256::{sha256, Sha256};
