//! Wire messages: envelopes, signatures and the binary codec.
//!
//! "To prevent proxies from tampering with the messages they forward —
//! namely updates, subscriptions and handoff messages — Watchmen uses
//! lightweight (i.e., 100 bits while state update messages are 700 bits on
//! average) digital signatures, and each player verifies the digital
//! signature of the messages it receives. This also prevents replaying and
//! spoofing."
//!
//! Every message is an [`Envelope`] (origin, sequence number, frame,
//! payload) signed into a [`SignedEnvelope`]. The sequence number makes
//! byte-identical replays detectable; the origin binding makes spoofing
//! detectable; the signature makes proxy tampering detectable.
//!
//! The `(origin, seq)` pair also gives every message a *causal trace id*
//! ([`Envelope::trace_id`]): a 64-bit identity recomputable at each hop
//! with zero extra wire bytes, so the origin's send, the proxy's relay and
//! a verdict's audit record all name the same id, and filtering a seeded
//! re-run's datagrams by it rebuilds the whole multi-hop journey.
//!
//! # The codec
//!
//! Every wire type writes its big-endian layout once, as the two halves of
//! the crate-private `Wire` trait. The payloads live by plane — `data`
//! (state, position, guidance, kill claims), `control` (subscriptions,
//! handoffs, acks) and `membership` (leaves, joins, bootstraps,
//! evictions) — and one tag table, indexed by the payload's wire tag, is
//! what [`Payload::label`], [`Payload::is_control`], the encoder and the
//! decoder all read.
//!
//! Decoding is strict: bytes decode only if encoding the result gives them
//! back. So a signature checked over the bytes received
//! ([`SignedEnvelope::verify_received`], the node's path) and one checked
//! over the re-encoded message ([`SignedEnvelope::verify`]) always agree:
//! the message acted on is exactly the one the bytes carry, and a relay
//! cannot pad or re-spell a datagram under the origin's signature.

mod control;
mod data;
mod membership;

use watchmen_crypto::schnorr::{Keypair, PublicKey, Signature, VerifyingKey, SIGNATURE_LEN};
use watchmen_game::PlayerId;
use watchmen_telemetry::TraceId;

use crate::dead_reckoning::Guidance;
use crate::subscription::SetKind;

pub use control::HandoffNotice;
pub use data::{KillClaim, PositionUpdate, StateUpdate};
pub use membership::{BootstrapEntry, BootstrapSnapshot, JoinTicket, MAX_BOOTSTRAP_ENTRIES};

/// One wire type's layout: `encode_into` appends it, `decode_from` reads
/// it back off the front of a buffer. Each type implements it once, and
/// composite types are built from their fields' impls.
pub(crate) trait Wire: Sized {
    /// Appends the value's encoding.
    fn encode_into(&self, b: &mut Vec<u8>);
    /// Reads one value, advancing `buf` past it.
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Splits off the first `N` bytes, or reports truncation.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Big-endian numbers.
macro_rules! wire_number {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode_into(&self, b: &mut Vec<u8>) {
                b.extend_from_slice(&self.to_be_bytes());
            }
            fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok(<$t>::from_be_bytes(take(buf)?))
            }
        }
    )*};
}

wire_number!(u8, u32, u64, i32, f64);

impl<const N: usize> Wire for [u8; N] {
    fn encode_into(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(self);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        take(buf)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.0.encode_into(b);
        self.1.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode_from(buf)?, B::decode_from(buf)?))
    }
}

impl Wire for PlayerId {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.0.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(PlayerId(u32::decode_from(buf)?))
    }
}

impl Wire for Signature {
    fn encode_into(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.to_bytes());
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Signature::from_bytes(&take(buf)?).ok_or(DecodeError::BadSignature)
    }
}

/// One payload kind: its report label, whether it rides the reliable
/// control plane, and how its body decodes.
struct Kind {
    label: &'static str,
    control: bool,
    decode: Decode,
}

type Decode = fn(&mut &[u8]) -> Result<Payload, DecodeError>;

impl Kind {
    const fn data(label: &'static str, decode: Decode) -> Self {
        Kind { label, control: false, decode }
    }

    const fn control(label: &'static str, decode: Decode) -> Self {
        Kind { label, control: true, decode }
    }
}

/// The tag table: row `t` is the payload kind whose wire tag is `t`
/// ([`Payload::tag`]).
const KINDS: [Kind; 12] = [
    Kind::data("state", |b| Ok(Payload::State(Wire::decode_from(b)?))),
    Kind::data("position", |b| Ok(Payload::Position(Wire::decode_from(b)?))),
    Kind::data("guidance", |b| Ok(Payload::Guidance(Wire::decode_from(b)?))),
    Kind::control("subscribe", |b| {
        let (target, kind) = Wire::decode_from(b)?;
        Ok(Payload::Subscribe { target, kind })
    }),
    Kind::control("unsubscribe", |b| {
        let (target, kind) = Wire::decode_from(b)?;
        Ok(Payload::Unsubscribe { target, kind })
    }),
    Kind::data("kill-claim", |b| Ok(Payload::Kill(Wire::decode_from(b)?))),
    Kind::control("handoff", |b| Ok(Payload::Handoff(Wire::decode_from(b)?))),
    Kind::control("ack", |b| Ok(Payload::Ack { ack_seq: Wire::decode_from(b)? })),
    Kind::control("leave", |b| Ok(Payload::Leave { effective_frame: Wire::decode_from(b)? })),
    Kind::control("join", |b| Ok(Payload::Join(Wire::decode_from(b)?))),
    Kind::control("bootstrap", |b| Ok(Payload::Bootstrap(Wire::decode_from(b)?))),
    Kind::control("evict", |b| {
        let (player, effective_frame) = Wire::decode_from(b)?;
        Ok(Payload::Evict { player, effective_frame })
    }),
];

/// Message payloads.
///
/// Every variant is a fixed-size `Copy` value so frames encode without
/// allocation; the rare `Bootstrap` variant dominates the enum's size,
/// which is fine — payloads live on the stack only briefly while being
/// (de)serialised, never in long-lived collections.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// Frequent full state (to IS subscribers, every frame).
    State(StateUpdate),
    /// Infrequent position-only (to others, 1 Hz).
    Position(PositionUpdate),
    /// Dead-reckoning guidance (to VS subscribers, 1 Hz).
    Guidance(Guidance),
    /// Subscribe the sender to `target`'s updates of the given kind.
    Subscribe {
        /// Whose updates are requested.
        target: PlayerId,
        /// IS or VS subscription.
        kind: SetKind,
    },
    /// Cancel a subscription.
    Unsubscribe {
        /// Whose updates are no longer wanted.
        target: PlayerId,
        /// Which subscription to cancel.
        kind: SetKind,
    },
    /// A kill claim for verification.
    Kill(KillClaim),
    /// A proxy handing its duty to its successor.
    Handoff(HandoffNotice),
    /// Acknowledges processing of a control message the acker received
    /// from the origin: `ack_seq` is that message's envelope sequence
    /// number. Acks complete the reliable-delivery loop for subscriptions
    /// and handoffs; they are not themselves acked.
    Ack {
        /// Envelope sequence number of the acknowledged control message.
        ack_seq: u64,
    },
    /// A graceful departure announcement: the sender plays on through
    /// `effective_frame - 1` and is removed from the roster at the first
    /// renewal boundary at or after `effective_frame` (exclusive
    /// boundary, like every other expiry in the protocol).
    Leave {
        /// First frame the sender no longer plays.
        effective_frame: u64,
    },
    /// A mid-game join announcement carrying the lobby-signed admission
    /// ticket. Sent by the joiner itself; veterans verify the envelope
    /// under the ticket's key after verifying the ticket under the lobby
    /// key.
    Join(JoinTicket),
    /// The joiner-bootstrap snapshot from the joiner's first proxy.
    Bootstrap(BootstrapSnapshot),
    /// A signed eviction notice for a silent player, announced by one of
    /// its plausible proxies. Carrying the effective boundary in signed
    /// traffic is what makes timeout evictions *deterministic*: every
    /// honest node applies the removal at the same renewal boundary even
    /// though their raw silence evidence differs by a relay period or two
    /// under loss. Receivers corroborate against their own `last_heard`
    /// before queueing, so a lone malicious announcer cannot evict a
    /// player the rest of the roster can hear.
    Evict {
        /// The silent player to remove.
        player: PlayerId,
        /// First frame the player is no longer a member (a renewal
        /// boundary at least one full epoch ahead of the announcement, so
        /// retransmissions can deliver the notice to everyone in time).
        effective_frame: u64,
    },
}

impl Payload {
    /// The payload's wire tag: its row in the tag table.
    fn tag(&self) -> u8 {
        match self {
            Payload::State(_) => 0,
            Payload::Position(_) => 1,
            Payload::Guidance(_) => 2,
            Payload::Subscribe { .. } => 3,
            Payload::Unsubscribe { .. } => 4,
            Payload::Kill(_) => 5,
            Payload::Handoff(_) => 6,
            Payload::Ack { .. } => 7,
            Payload::Leave { .. } => 8,
            Payload::Join(_) => 9,
            Payload::Bootstrap(_) => 10,
            Payload::Evict { .. } => 11,
        }
    }

    fn kind(&self) -> &'static Kind {
        &KINDS[usize::from(self.tag())]
    }

    /// A short label for reports and logs.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.kind().label
    }

    /// Control-plane payloads ride the reliable ack/retransmit layer and
    /// are processed idempotently: a duplicate (whether a retransmission
    /// or a network-level copy) is reprocessed and re-acked instead of
    /// being flagged by the anti-replay window, which stays reserved for
    /// *data* replay cheats.
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.kind().control
    }
}

/// The tag, then the body.
impl Wire for Payload {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.tag().encode_into(b);
        match self {
            Payload::State(s) => s.encode_into(b),
            Payload::Position(p) => p.encode_into(b),
            Payload::Guidance(g) => g.encode_into(b),
            Payload::Subscribe { target, kind } | Payload::Unsubscribe { target, kind } => {
                (*target, *kind).encode_into(b);
            }
            Payload::Kill(k) => k.encode_into(b),
            Payload::Handoff(h) => h.encode_into(b),
            Payload::Ack { ack_seq: n } | Payload::Leave { effective_frame: n } => n.encode_into(b),
            Payload::Join(t) => t.encode_into(b),
            Payload::Bootstrap(s) => s.encode_into(b),
            Payload::Evict { player, effective_frame } => {
                (*player, *effective_frame).encode_into(b)
            }
        }
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let tag = u8::decode_from(buf)?;
        let kind = KINDS.get(usize::from(tag)).ok_or(DecodeError::InvalidTag(tag))?;
        (kind.decode)(buf)
    }
}

/// An unsigned message: origin, anti-replay sequence number, generation
/// frame and payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Originating player.
    pub from: PlayerId,
    /// Strictly increasing per-origin sequence number (anti-replay).
    pub seq: u64,
    /// Frame the message was generated in.
    pub frame: u64,
    /// The payload.
    pub payload: Payload,
}

/// `from` (4 bytes), `seq` (8), `frame` (8), then the payload.
impl Wire for Envelope {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.from.encode_into(b);
        self.seq.encode_into(b);
        self.frame.encode_into(b);
        self.payload.encode_into(b);
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Envelope {
            from: Wire::decode_from(buf)?,
            seq: Wire::decode_from(buf)?,
            frame: Wire::decode_from(buf)?,
            payload: Wire::decode_from(buf)?,
        })
    }
}

impl Envelope {
    /// Serializes the envelope (without signature).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(96);
        self.encode_into(&mut b);
        b
    }

    /// Deserializes an envelope.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated, malformed or non-canonical
    /// input, and on input that goes on after the payload: a receiver
    /// checks the signature over the bytes it received, so bytes the
    /// decoder skipped would be signed without being part of the message.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut buf = bytes;
        let env = Self::decode_from(&mut buf)?;
        if !buf.is_empty() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(env)
    }

    /// Signs the envelope, producing the wire message.
    #[must_use]
    pub fn sign(self, keys: &Keypair) -> SignedEnvelope {
        let sig = keys.sign(&self.encode());
        SignedEnvelope { envelope: self, signature: sig }
    }

    /// Signs the envelope straight to wire bytes: encodes once, signs that
    /// buffer and appends the signature. Byte-identical to
    /// `self.sign(keys).encode()`, without the second encoding.
    #[must_use]
    pub fn sign_encoded(&self, keys: &Keypair) -> Vec<u8> {
        let mut bytes = self.encode();
        let sig = keys.sign(&bytes);
        sig.encode_into(&mut bytes);
        bytes
    }

    /// The encoded size in bytes (without signature).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }

    /// The message's causal trace id, derived from `(origin, seq)` — the
    /// fields the envelope already carries and the signature already
    /// covers, so relays cannot change it without breaking verification.
    #[must_use]
    pub fn trace_id(&self) -> TraceId {
        TraceId::from_origin_seq(self.from.0, self.seq)
    }
}

/// A signed wire message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignedEnvelope {
    /// The signed content.
    pub envelope: Envelope,
    /// The origin's signature over the encoded envelope.
    pub signature: Signature,
}

impl SignedEnvelope {
    /// Verifies the signature over the re-encoded envelope against the
    /// claimed origin's public key, preparing the key on the spot
    /// (one-off checks of a message held as a value).
    #[must_use]
    pub fn verify(&self, origin_key: &PublicKey) -> bool {
        VerifyingKey::new(*origin_key).verify(&self.envelope.encode(), &self.signature)
    }

    /// Verifies the signature over `bytes`, the datagram this message was
    /// decoded from, against the claimed origin's prepared key — the
    /// per-datagram path, fed from [`crate::roster::Roster::verifying_key`].
    /// Decoding is strict, so the bytes ahead of the signature are exactly
    /// the envelope's encoding: the signed bytes are the received ones,
    /// and nothing is re-encoded.
    #[must_use]
    pub fn verify_received(&self, bytes: &[u8], origin_key: &VerifyingKey) -> bool {
        debug_assert_eq!(self.encode(), bytes, "a decoded datagram re-encodes to its own bytes");
        let Some(signed) = bytes.len().checked_sub(SIGNATURE_LEN) else { return false };
        origin_key.verify(&bytes[..signed], &self.signature)
    }

    /// The signed message's causal trace id (see [`Envelope::trace_id`]).
    #[must_use]
    pub fn trace_id(&self) -> TraceId {
        self.envelope.trace_id()
    }

    /// Full wire size: envelope plus the ~100-bit signature.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        self.envelope.wire_size() + SIGNATURE_LEN
    }

    /// Serializes envelope + signature.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.envelope.encode();
        self.signature.encode_into(&mut out);
        out
    }

    /// Deserializes envelope + signature.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated, malformed, non-canonical or
    /// padded input (see [`Envelope::decode`]).
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let Some(split) = bytes.len().checked_sub(SIGNATURE_LEN) else {
            return Err(DecodeError::Truncated);
        };
        let (env_bytes, mut sig_bytes) = bytes.split_at(split);
        let envelope = Envelope::decode(env_bytes)?;
        let signature = Signature::decode_from(&mut sig_bytes)?;
        Ok(SignedEnvelope { envelope, signature })
    }
}

/// Codec errors: every input that does not decode lands in exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended early.
    Truncated,
    /// Unknown payload, weapon or subscription-kind tag.
    InvalidTag(u8),
    /// Signature scalars out of range (the envelope's or a join ticket's).
    BadSignature,
    /// Input continued past the end of the payload.
    TrailingBytes,
    /// An aim `Aim::new` would rewrite — a yaw outside `(-π, π]` or a
    /// pitch outside `[-π/2, π/2]`. It would re-encode to other bytes, so
    /// a relay could swap one encoding for another under the origin's
    /// signature.
    NonCanonical,
    /// A bootstrap snapshot claiming more than [`MAX_BOOTSTRAP_ENTRIES`].
    TooManyEntries(u8),
    /// A join ticket's public key is not a group element.
    InvalidKey,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("message truncated"),
            DecodeError::InvalidTag(t) => write!(f, "invalid tag {t:#04x}"),
            DecodeError::BadSignature => f.write_str("signature scalars out of range"),
            DecodeError::TrailingBytes => f.write_str("bytes after the payload"),
            DecodeError::NonCanonical => f.write_str("aim not in canonical form"),
            DecodeError::TooManyEntries(n) => write!(f, "bootstrap claims {n} entries"),
            DecodeError::InvalidKey => f.write_str("join key is not a group element"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use watchmen_game::WeaponKind;
    use watchmen_math::{Aim, Vec3};

    use super::*;

    // Every kind's bytes and label are pinned by `tests/golden_wire.rs`,
    // and its decoder fuzzed by `tests/wire_fuzz.rs`.

    #[test]
    fn control_kinds_are_the_reliable_ones() {
        let control: Vec<_> = KINDS.iter().filter(|k| k.control).map(|k| k.label).collect();
        let reliable =
            ["subscribe", "unsubscribe", "handoff", "ack", "leave", "join", "bootstrap", "evict"];
        assert_eq!(control, reliable);
    }

    #[test]
    fn state_update_size_matches_paper_class() {
        // ~700 bits ≈ 88 bytes in the paper; ours is the same order.
        let state = StateUpdate {
            position: Vec3::new(1.0, 2.0, 3.0),
            velocity: Vec3::new(-1.0, 0.5, 0.0),
            aim: Aim::new(0.7, -0.2),
            health: 85,
            armor: 40,
            weapon: WeaponKind::Railgun,
            ammo: 7,
        };
        let env = Envelope { from: PlayerId(0), seq: 1, frame: 1, payload: Payload::State(state) };
        let size = env.wire_size();
        assert!((80..130).contains(&size), "state update {size} bytes");
        // Signature overhead is small relative to the update.
        let signed = env.sign(&Keypair::generate(1));
        assert_eq!(signed.wire_size(), size + SIGNATURE_LEN);
        assert!(SIGNATURE_LEN * 4 < size, "signature should be light");
        let pos = Payload::Position(PositionUpdate { position: Vec3::ZERO });
        assert!(
            Envelope { payload: pos, ..env }.wire_size() * 2 < size,
            "position is much smaller"
        );
    }

    #[test]
    fn replayed_seq_is_detectable() {
        // Same payload, two different seqs: encodings differ, so a replay
        // of the exact bytes carries the old seq, which receivers track.
        let keys = Keypair::generate(9);
        let mk = |seq| {
            Envelope {
                from: PlayerId(1),
                seq,
                frame: 10,
                payload: Payload::Position(PositionUpdate { position: Vec3::X }),
            }
            .sign(&keys)
        };
        let first = mk(1);
        let second = mk(2);
        assert_ne!(first.encode(), second.encode());
        assert_ne!(first.signature, second.signature);
    }
}
