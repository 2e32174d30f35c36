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
//! with zero extra wire bytes, so the flight recorders at the origin, the
//! relaying proxy and every subscriber tag their events with the same id
//! and one identifier stitches the whole multi-hop journey together.

use watchmen_crypto::schnorr::{Keypair, PublicKey, Signature, VerifyingKey, SIGNATURE_LEN};
use watchmen_game::trace::PlayerFrame;
use watchmen_game::{PlayerId, WeaponKind};
use watchmen_math::{Aim, Vec3};
use watchmen_net::wire::{GetBytes, PutBytes};
use watchmen_telemetry::TraceId;

use crate::dead_reckoning::Guidance;
use crate::subscription::SetKind;

/// A full state update: the frequent (per-frame) message sent to
/// interest-set subscribers, "including the avatars position, aim,
/// ammunition, weapons, health, etc.".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateUpdate {
    /// Position.
    pub position: Vec3,
    /// Velocity.
    pub velocity: Vec3,
    /// Aim.
    pub aim: Aim,
    /// Health.
    pub health: i32,
    /// Armor.
    pub armor: i32,
    /// Weapon held.
    pub weapon: WeaponKind,
    /// Ammo remaining.
    pub ammo: u32,
}

impl From<&PlayerFrame> for StateUpdate {
    fn from(f: &PlayerFrame) -> Self {
        StateUpdate {
            position: f.position,
            velocity: f.velocity,
            aim: f.aim,
            health: f.health,
            armor: f.armor,
            weapon: f.weapon,
            ammo: f.ammo,
        }
    }
}

impl From<&StateUpdate> for PlayerFrame {
    fn from(s: &StateUpdate) -> Self {
        PlayerFrame {
            position: s.position,
            velocity: s.velocity,
            aim: s.aim,
            health: s.health,
            armor: s.armor,
            weapon: s.weapon,
            ammo: s.ammo,
        }
    }
}

/// The infrequent position-only update sent to *others*: "partial state
/// updates containing only the position of the avatars, sufficient to
/// determine the subscription type".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionUpdate {
    /// Position.
    pub position: Vec3,
}

/// A claim that the sender killed `victim` — cross-verified by proxies and
/// witnesses ("interactions such as hit and kill-claims are verified by
/// proxies and by players acting as witnesses").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillClaim {
    /// The claimed victim.
    pub victim: PlayerId,
    /// Weapon used.
    pub weapon: WeaponKind,
    /// Claimed attacker position at fire time.
    pub attacker_position: Vec3,
    /// Claimed victim position at impact.
    pub victim_position: Vec3,
}

/// A proxy's summary of one epoch of duty, handed to the next epoch's
/// proxy. Fixed-size: instead of embedding the chain of earlier summaries,
/// it carries the predecessor's digest, which the successor can verify
/// against the notice it received in the predecessor's own handoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffNotice {
    /// The supervised player whose duty transfers.
    pub player: PlayerId,
    /// The epoch the summary covers.
    pub epoch: u64,
    /// Frame at which `last_state` was actually observed by the sending
    /// proxy. Carried explicitly because the envelope frame only says when
    /// the notice was *sent*: under loss the observation can be several
    /// frames older, and stamping it with the send frame would make the
    /// successor compute impossible speeds from the player's very next
    /// update (a false teleport verdict).
    pub observed_frame: u64,
    /// The player's last known state.
    pub last_state: StateUpdate,
    /// Worst cheat rating observed this epoch (1 = clean).
    pub worst_rating: u8,
    /// Updates received from the player this epoch.
    pub updates_seen: u32,
    /// SHA-256 digest of the predecessor summary chain.
    pub predecessor_digest: [u8; 32],
}

impl HandoffNotice {
    /// SHA-256 of this notice's canonical wire encoding — what the
    /// successor embeds as its own `predecessor_digest`, chaining
    /// consecutive summaries. Because it covers the exact wire bytes, the
    /// digest is identical at sender and receiver and stable across
    /// retransmissions (which re-send the same bytes), so duplicates
    /// deduplicate to the same chain link.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let mut b = Vec::new();
        encode_payload(&mut b, &Payload::Handoff(*self));
        watchmen_crypto::sha256(&b)
    }
}

/// A lobby-signed admission ticket for a mid-game joiner.
///
/// The ticket solves the bootstrap chicken-and-egg of an unknown origin:
/// veterans have no directory entry for the joiner, so they cannot verify
/// its envelope signature — but the ticket carries the joiner's public
/// key under the *lobby's* signature, which every player can check. A
/// `Join` envelope is therefore verified in two steps: the ticket against
/// the lobby key, then the envelope against the ticket's key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinTicket {
    /// The id the lobby assigned the joiner — always the next dense
    /// index, so every node admitting the same joins derives the same
    /// directory.
    pub player: PlayerId,
    /// The joiner's public key, vouched for by the lobby.
    pub key: PublicKey,
    /// Earliest frame the join may take effect; the actual admission
    /// happens at the first proxy-renewal boundary at or after it, so all
    /// nodes grow their rosters at the same epoch.
    pub admit_frame: u64,
    /// The lobby's signature over (player, key, admit_frame).
    pub lobby_sig: Signature,
}

impl JoinTicket {
    /// The bytes the lobby signs.
    #[must_use]
    pub fn signing_bytes(player: PlayerId, key: PublicKey, admit_frame: u64) -> Vec<u8> {
        let mut b = Vec::with_capacity(20);
        b.put_u32(player.0);
        b.put_u64(key.to_u64());
        b.put_u64(admit_frame);
        b
    }

    /// Issues a ticket signed by the lobby's keypair.
    #[must_use]
    pub fn issue(lobby: &Keypair, player: PlayerId, key: PublicKey, admit_frame: u64) -> Self {
        let lobby_sig = lobby.sign(&Self::signing_bytes(player, key, admit_frame));
        JoinTicket { player, key, admit_frame, lobby_sig }
    }

    /// Verifies the lobby's signature.
    #[must_use]
    pub fn verify(&self, lobby_key: &PublicKey) -> bool {
        lobby_key
            .verify(&Self::signing_bytes(self.player, self.key, self.admit_frame), &self.lobby_sig)
    }
}

/// Maximum states a [`BootstrapSnapshot`] carries. The payload stays
/// `Copy` (like every other payload), so the snapshot is a fixed-capacity
/// array; a joiner learns the rest of the world from live traffic within
/// its first epoch.
pub const MAX_BOOTSTRAP_ENTRIES: usize = 8;

/// One player's last known state inside a bootstrap snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapEntry {
    /// Who the state describes.
    pub player: PlayerId,
    /// Frame the state was observed in.
    pub frame: u64,
    /// The state itself.
    pub state: StateUpdate,
}

impl Default for BootstrapEntry {
    fn default() -> Self {
        BootstrapEntry {
            player: PlayerId(0),
            frame: 0,
            state: StateUpdate {
                position: Vec3::ZERO,
                velocity: Vec3::ZERO,
                aim: Aim::default(),
                health: 0,
                armor: 0,
                weapon: WeaponKind::MachineGun,
                ammo: 0,
            },
        }
    }
}

/// The state snapshot a joiner's first proxy assembles from its retained
/// summaries and IS knowledge, so the newcomer converges within one epoch
/// instead of starting blind.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapSnapshot {
    /// The sender's roster epoch when the snapshot was taken.
    pub roster_epoch: u64,
    len: u8,
    entries: [BootstrapEntry; MAX_BOOTSTRAP_ENTRIES],
}

impl BootstrapSnapshot {
    /// An empty snapshot stamped with the sender's roster epoch.
    #[must_use]
    pub fn new(roster_epoch: u64) -> Self {
        BootstrapSnapshot {
            roster_epoch,
            len: 0,
            entries: [BootstrapEntry::default(); MAX_BOOTSTRAP_ENTRIES],
        }
    }

    /// Appends an entry; returns `false` (dropping it) once full.
    pub fn push(&mut self, entry: BootstrapEntry) -> bool {
        if (self.len as usize) < MAX_BOOTSTRAP_ENTRIES {
            self.entries[self.len as usize] = entry;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// The populated entries.
    #[must_use]
    pub fn entries(&self) -> &[BootstrapEntry] {
        &self.entries[..self.len as usize]
    }

    /// Number of populated entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the snapshot carries no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl PartialEq for BootstrapSnapshot {
    /// Compares only the populated prefix, so a decoded snapshot (whose
    /// spare slots are defaults) equals the original regardless of what
    /// the sender's spare slots held.
    fn eq(&self, other: &Self) -> bool {
        self.roster_epoch == other.roster_epoch && self.entries() == other.entries()
    }
}

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
    /// A short label for reports and logs.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Payload::State(_) => "state",
            Payload::Position(_) => "position",
            Payload::Guidance(_) => "guidance",
            Payload::Subscribe { .. } => "subscribe",
            Payload::Unsubscribe { .. } => "unsubscribe",
            Payload::Kill(_) => "kill-claim",
            Payload::Handoff(_) => "handoff",
            Payload::Ack { .. } => "ack",
            Payload::Leave { .. } => "leave",
            Payload::Join(_) => "join",
            Payload::Bootstrap(_) => "bootstrap",
            Payload::Evict { .. } => "evict",
        }
    }

    /// Control-plane payloads ride the reliable ack/retransmit layer and
    /// are processed idempotently: a duplicate (whether a retransmission
    /// or a network-level copy) is reprocessed and re-acked instead of
    /// being flagged by the anti-replay window, which stays reserved for
    /// *data* replay cheats.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Payload::Subscribe { .. }
                | Payload::Unsubscribe { .. }
                | Payload::Handoff(_)
                | Payload::Ack { .. }
                | Payload::Leave { .. }
                | Payload::Join(_)
                | Payload::Bootstrap(_)
                | Payload::Evict { .. }
        )
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

impl Envelope {
    /// Serializes the envelope (without signature).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(96);
        b.put_u32(self.from.0);
        b.put_u64(self.seq);
        b.put_u64(self.frame);
        encode_payload(&mut b, &self.payload);
        b
    }

    /// Deserializes an envelope.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated or malformed input, and on
    /// input that goes on after the payload: a signature is checked over
    /// the re-encoded envelope, so bytes the decoder skipped would ride
    /// along under it unsigned.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut buf = bytes;
        let env = decode_envelope(&mut buf)?;
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
        bytes.extend_from_slice(&sig.to_bytes());
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
    /// Verifies the signature against the claimed origin's public key,
    /// preparing the key on the spot (tickets, one-off checks).
    #[must_use]
    pub fn verify(&self, origin_key: &PublicKey) -> bool {
        self.verify_prepared(&VerifyingKey::new(*origin_key))
    }

    /// Verifies the signature against the claimed origin's prepared key —
    /// the per-datagram path, fed from [`crate::roster::Roster::verifying_key`].
    #[must_use]
    pub fn verify_prepared(&self, origin_key: &VerifyingKey) -> bool {
        origin_key.verify(&self.envelope.encode(), &self.signature)
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
        out.extend_from_slice(&self.signature.to_bytes());
        out
    }

    /// Deserializes envelope + signature.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncated, malformed or padded input
    /// (see [`Envelope::decode`]).
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < SIGNATURE_LEN {
            return Err(DecodeError::Truncated);
        }
        let (env_bytes, sig_bytes) = bytes.split_at(bytes.len() - SIGNATURE_LEN);
        let envelope = Envelope::decode(env_bytes)?;
        let sig_array: [u8; SIGNATURE_LEN] = sig_bytes.try_into().expect("split guarantees length");
        let signature = Signature::from_bytes(&sig_array).ok_or(DecodeError::BadSignature)?;
        Ok(SignedEnvelope { envelope, signature })
    }
}

/// Codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended early.
    Truncated,
    /// Unknown payload or enum tag.
    InvalidTag(u8),
    /// Signature scalars out of range.
    BadSignature,
    /// Input continued past the end of the payload.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("message truncated"),
            DecodeError::InvalidTag(t) => write!(f, "invalid tag {t:#04x}"),
            DecodeError::BadSignature => f.write_str("signature scalars out of range"),
            DecodeError::TrailingBytes => f.write_str("bytes after the payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_vec3(b: &mut Vec<u8>, v: Vec3) {
    b.put_f64(v.x);
    b.put_f64(v.y);
    b.put_f64(v.z);
}

fn put_weapon(b: &mut Vec<u8>, w: WeaponKind) {
    b.put_u8(match w {
        WeaponKind::MachineGun => 0,
        WeaponKind::Shotgun => 1,
        WeaponKind::RocketLauncher => 2,
        WeaponKind::Railgun => 3,
    });
}

fn put_set_kind(b: &mut Vec<u8>, k: SetKind) {
    b.put_u8(match k {
        SetKind::Interest => 0,
        SetKind::Vision => 1,
        SetKind::Others => 2,
    });
}

fn encode_payload(b: &mut Vec<u8>, p: &Payload) {
    match p {
        Payload::State(s) => {
            b.put_u8(0);
            put_vec3(b, s.position);
            put_vec3(b, s.velocity);
            b.put_f64(s.aim.yaw());
            b.put_f64(s.aim.pitch());
            b.put_i32(s.health);
            b.put_i32(s.armor);
            put_weapon(b, s.weapon);
            b.put_u32(s.ammo);
        }
        Payload::Position(p) => {
            b.put_u8(1);
            put_vec3(b, p.position);
        }
        Payload::Guidance(g) => {
            b.put_u8(2);
            put_vec3(b, g.position);
            put_vec3(b, g.velocity);
            b.put_f64(g.aim.yaw());
            b.put_f64(g.aim.pitch());
            put_vec3(b, g.predicted_position);
            b.put_u64(g.frame);
        }
        Payload::Subscribe { target, kind } => {
            b.put_u8(3);
            b.put_u32(target.0);
            put_set_kind(b, *kind);
        }
        Payload::Unsubscribe { target, kind } => {
            b.put_u8(4);
            b.put_u32(target.0);
            put_set_kind(b, *kind);
        }
        Payload::Kill(k) => {
            b.put_u8(5);
            b.put_u32(k.victim.0);
            put_weapon(b, k.weapon);
            put_vec3(b, k.attacker_position);
            put_vec3(b, k.victim_position);
        }
        Payload::Handoff(h) => {
            b.put_u8(6);
            b.put_u32(h.player.0);
            b.put_u64(h.epoch);
            b.put_u64(h.observed_frame);
            put_vec3(b, h.last_state.position);
            put_vec3(b, h.last_state.velocity);
            b.put_f64(h.last_state.aim.yaw());
            b.put_f64(h.last_state.aim.pitch());
            b.put_i32(h.last_state.health);
            b.put_i32(h.last_state.armor);
            put_weapon(b, h.last_state.weapon);
            b.put_u32(h.last_state.ammo);
            b.put_u8(h.worst_rating);
            b.put_u32(h.updates_seen);
            b.put_slice(&h.predecessor_digest);
        }
        Payload::Ack { ack_seq } => {
            b.put_u8(7);
            b.put_u64(*ack_seq);
        }
        Payload::Leave { effective_frame } => {
            b.put_u8(8);
            b.put_u64(*effective_frame);
        }
        Payload::Join(t) => {
            b.put_u8(9);
            b.put_u32(t.player.0);
            b.put_u64(t.key.to_u64());
            b.put_u64(t.admit_frame);
            b.put_slice(&t.lobby_sig.to_bytes());
        }
        Payload::Bootstrap(s) => {
            b.put_u8(10);
            b.put_u64(s.roster_epoch);
            b.put_u8(s.len);
            for e in s.entries() {
                b.put_u32(e.player.0);
                b.put_u64(e.frame);
                put_state(b, &e.state);
            }
        }
        Payload::Evict { player, effective_frame } => {
            b.put_u8(11);
            b.put_u32(player.0);
            b.put_u64(*effective_frame);
        }
    }
}

fn put_state(b: &mut Vec<u8>, s: &StateUpdate) {
    put_vec3(b, s.position);
    put_vec3(b, s.velocity);
    b.put_f64(s.aim.yaw());
    b.put_f64(s.aim.pitch());
    b.put_i32(s.health);
    b.put_i32(s.armor);
    put_weapon(b, s.weapon);
    b.put_u32(s.ammo);
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn get_vec3(buf: &mut &[u8]) -> Result<Vec3, DecodeError> {
    let mut b = take(buf, 24)?;
    Ok(Vec3::new(b.get_f64(), b.get_f64(), b.get_f64()))
}

fn get_state(buf: &mut &[u8]) -> Result<StateUpdate, DecodeError> {
    let position = get_vec3(buf)?;
    let velocity = get_vec3(buf)?;
    let mut a = take(buf, 16)?;
    let aim = Aim::new(a.get_f64(), a.get_f64());
    let mut hb = take(buf, 8)?;
    let health = hb.get_i32();
    let armor = hb.get_i32();
    let weapon = get_weapon(buf)?;
    let mut am = take(buf, 4)?;
    let ammo = am.get_u32();
    Ok(StateUpdate { position, velocity, aim, health, armor, weapon, ammo })
}

fn get_weapon(buf: &mut &[u8]) -> Result<WeaponKind, DecodeError> {
    match take(buf, 1)?[0] {
        0 => Ok(WeaponKind::MachineGun),
        1 => Ok(WeaponKind::Shotgun),
        2 => Ok(WeaponKind::RocketLauncher),
        3 => Ok(WeaponKind::Railgun),
        t => Err(DecodeError::InvalidTag(t)),
    }
}

fn get_set_kind(buf: &mut &[u8]) -> Result<SetKind, DecodeError> {
    match take(buf, 1)?[0] {
        0 => Ok(SetKind::Interest),
        1 => Ok(SetKind::Vision),
        2 => Ok(SetKind::Others),
        t => Err(DecodeError::InvalidTag(t)),
    }
}

fn decode_envelope(buf: &mut &[u8]) -> Result<Envelope, DecodeError> {
    let mut head = take(buf, 20)?;
    let from = PlayerId(head.get_u32());
    let seq = head.get_u64();
    let frame = head.get_u64();
    let tag = take(buf, 1)?[0];
    let payload = match tag {
        0 => {
            let position = get_vec3(buf)?;
            let velocity = get_vec3(buf)?;
            let mut a = take(buf, 16)?;
            let aim = Aim::new(a.get_f64(), a.get_f64());
            let mut hb = take(buf, 8)?;
            let health = hb.get_i32();
            let armor = hb.get_i32();
            let weapon = get_weapon(buf)?;
            let mut am = take(buf, 4)?;
            let ammo = am.get_u32();
            Payload::State(StateUpdate { position, velocity, aim, health, armor, weapon, ammo })
        }
        1 => Payload::Position(PositionUpdate { position: get_vec3(buf)? }),
        2 => {
            let position = get_vec3(buf)?;
            let velocity = get_vec3(buf)?;
            let mut a = take(buf, 16)?;
            let aim = Aim::new(a.get_f64(), a.get_f64());
            let predicted_position = get_vec3(buf)?;
            let mut fr = take(buf, 8)?;
            let frame = fr.get_u64();
            Payload::Guidance(Guidance { position, velocity, aim, predicted_position, frame })
        }
        3 => {
            let mut t = take(buf, 4)?;
            let target = PlayerId(t.get_u32());
            Payload::Subscribe { target, kind: get_set_kind(buf)? }
        }
        4 => {
            let mut t = take(buf, 4)?;
            let target = PlayerId(t.get_u32());
            Payload::Unsubscribe { target, kind: get_set_kind(buf)? }
        }
        5 => {
            let mut t = take(buf, 4)?;
            let victim = PlayerId(t.get_u32());
            let weapon = get_weapon(buf)?;
            Payload::Kill(KillClaim {
                victim,
                weapon,
                attacker_position: get_vec3(buf)?,
                victim_position: get_vec3(buf)?,
            })
        }
        6 => {
            let mut t = take(buf, 20)?;
            let player = PlayerId(t.get_u32());
            let epoch = t.get_u64();
            let observed_frame = t.get_u64();
            let position = get_vec3(buf)?;
            let velocity = get_vec3(buf)?;
            let mut a = take(buf, 16)?;
            let aim = Aim::new(a.get_f64(), a.get_f64());
            let mut hb = take(buf, 8)?;
            let health = hb.get_i32();
            let armor = hb.get_i32();
            let weapon = get_weapon(buf)?;
            let mut tail = take(buf, 9)?;
            let ammo = tail.get_u32();
            let worst_rating = tail.get_u8();
            let updates_seen = tail.get_u32();
            let digest_bytes = take(buf, 32)?;
            let mut predecessor_digest = [0u8; 32];
            predecessor_digest.copy_from_slice(digest_bytes);
            Payload::Handoff(HandoffNotice {
                player,
                epoch,
                observed_frame,
                last_state: StateUpdate { position, velocity, aim, health, armor, weapon, ammo },
                worst_rating,
                updates_seen,
                predecessor_digest,
            })
        }
        7 => {
            let mut a = take(buf, 8)?;
            Payload::Ack { ack_seq: a.get_u64() }
        }
        8 => {
            let mut a = take(buf, 8)?;
            Payload::Leave { effective_frame: a.get_u64() }
        }
        9 => {
            let mut h = take(buf, 20)?;
            let player = PlayerId(h.get_u32());
            let key = PublicKey::from_u64(h.get_u64()).ok_or(DecodeError::BadSignature)?;
            let admit_frame = h.get_u64();
            let sig_bytes = take(buf, SIGNATURE_LEN)?;
            let sig_array: [u8; SIGNATURE_LEN] =
                sig_bytes.try_into().expect("take guarantees length");
            let lobby_sig = Signature::from_bytes(&sig_array).ok_or(DecodeError::BadSignature)?;
            Payload::Join(JoinTicket { player, key, admit_frame, lobby_sig })
        }
        10 => {
            let mut h = take(buf, 9)?;
            let roster_epoch = h.get_u64();
            let count = h.get_u8();
            if count as usize > MAX_BOOTSTRAP_ENTRIES {
                return Err(DecodeError::InvalidTag(count));
            }
            let mut snapshot = BootstrapSnapshot::new(roster_epoch);
            for _ in 0..count {
                let mut e = take(buf, 12)?;
                let player = PlayerId(e.get_u32());
                let entry_frame = e.get_u64();
                let state = get_state(buf)?;
                snapshot.push(BootstrapEntry { player, frame: entry_frame, state });
            }
            Payload::Bootstrap(snapshot)
        }
        11 => {
            let mut h = take(buf, 12)?;
            let player = PlayerId(h.get_u32());
            Payload::Evict { player, effective_frame: h.get_u64() }
        }
        t => return Err(DecodeError::InvalidTag(t)),
    };
    Ok(Envelope { from, seq, frame, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> StateUpdate {
        StateUpdate {
            position: Vec3::new(1.0, 2.0, 3.0),
            velocity: Vec3::new(-1.0, 0.5, 0.0),
            aim: Aim::new(0.7, -0.2),
            health: 85,
            armor: 40,
            weapon: WeaponKind::Railgun,
            ammo: 7,
        }
    }

    fn all_payloads() -> Vec<Payload> {
        vec![
            Payload::State(sample_state()),
            Payload::Position(PositionUpdate { position: Vec3::new(9.0, 8.0, 7.0) }),
            Payload::Guidance(Guidance {
                position: Vec3::ZERO,
                velocity: Vec3::X,
                aim: Aim::new(1.0, 0.1),
                predicted_position: Vec3::new(2.0, 0.0, 0.0),
                frame: 123,
            }),
            Payload::Subscribe { target: PlayerId(9), kind: SetKind::Interest },
            Payload::Unsubscribe { target: PlayerId(3), kind: SetKind::Vision },
            Payload::Kill(KillClaim {
                victim: PlayerId(4),
                weapon: WeaponKind::Shotgun,
                attacker_position: Vec3::new(1.0, 1.0, 0.0),
                victim_position: Vec3::new(5.0, 1.0, 0.0),
            }),
            Payload::Handoff(HandoffNotice {
                player: PlayerId(6),
                epoch: 3,
                observed_frame: 117,
                last_state: sample_state(),
                worst_rating: 2,
                updates_seen: 40,
                predecessor_digest: [7u8; 32],
            }),
            Payload::Ack { ack_seq: 77 },
            Payload::Leave { effective_frame: 160 },
            Payload::Join(sample_ticket()),
            Payload::Bootstrap(sample_snapshot()),
            Payload::Evict { player: PlayerId(11), effective_frame: 240 },
        ]
    }

    fn sample_ticket() -> JoinTicket {
        let lobby = Keypair::generate(1000);
        let joiner = Keypair::generate(1001);
        JoinTicket::issue(&lobby, PlayerId(16), joiner.public(), 200)
    }

    fn sample_snapshot() -> BootstrapSnapshot {
        let mut s = BootstrapSnapshot::new(3);
        s.push(BootstrapEntry { player: PlayerId(2), frame: 140, state: sample_state() });
        s.push(BootstrapEntry { player: PlayerId(5), frame: 155, state: sample_state() });
        s
    }

    #[test]
    fn handoff_notice_digest_survives_the_wire() {
        // The successor recomputes the digest from the decoded notice:
        // it must equal the sender's, and a retransmission (the same
        // signed bytes again) must decode to the same digest, so
        // duplicates deduplicate to one chain link.
        let Payload::Handoff(notice) = all_payloads()[6] else { panic!("payload order") };
        let keys = Keypair::generate(42);
        let env =
            Envelope { from: PlayerId(6), seq: 9, frame: 117, payload: Payload::Handoff(notice) };
        let bytes = env.sign(&keys).encode();
        let decoded = SignedEnvelope::decode(&bytes).unwrap();
        let Payload::Handoff(got) = decoded.envelope.payload else { panic!("payload changed") };
        assert_eq!(got.digest(), notice.digest());
        let again = SignedEnvelope::decode(&bytes).unwrap();
        let Payload::Handoff(dup) = again.envelope.payload else { panic!("payload changed") };
        assert_eq!(dup.digest(), notice.digest());
        // A colluding middleman cannot launder the chain: rewriting the
        // verdict it received, or the link to its own predecessor, moves
        // the digest its successor embeds.
        let laundered = HandoffNotice { worst_rating: 1, ..notice };
        assert_ne!(laundered.digest(), notice.digest());
        let relinked = HandoffNotice { predecessor_digest: [0; 32], ..notice };
        assert_ne!(relinked.digest(), notice.digest());
    }

    #[test]
    fn control_payloads_are_classified() {
        let expected = [false, false, false, true, true, false, true, true, true, true, true, true];
        assert_eq!(all_payloads().len(), expected.len());
        for (payload, want) in all_payloads().iter().zip(expected) {
            assert_eq!(payload.is_control(), want, "{}", payload.label());
        }
    }

    #[test]
    fn join_ticket_verifies_under_the_lobby_key_only() {
        let lobby = Keypair::generate(1000);
        let joiner = Keypair::generate(1001);
        let ticket = JoinTicket::issue(&lobby, PlayerId(16), joiner.public(), 200);
        assert!(ticket.verify(&lobby.public()));
        // A non-lobby key does not vouch for the ticket.
        assert!(!ticket.verify(&joiner.public()));
        // Tampering with any field breaks the lobby signature.
        let mut forged = ticket;
        forged.player = PlayerId(17);
        assert!(!forged.verify(&lobby.public()));
        let mut forged = ticket;
        forged.admit_frame = 0;
        assert!(!forged.verify(&lobby.public()));
        let mut forged = ticket;
        forged.key = lobby.public();
        assert!(!forged.verify(&lobby.public()));
    }

    #[test]
    fn bootstrap_snapshot_capacity_and_equality() {
        let mut s = BootstrapSnapshot::new(7);
        assert!(s.is_empty());
        for i in 0..MAX_BOOTSTRAP_ENTRIES {
            assert!(s.push(BootstrapEntry {
                player: PlayerId(i as u32),
                frame: i as u64,
                state: sample_state(),
            }));
        }
        // Overflow is dropped, not a panic.
        assert!(!s.push(BootstrapEntry::default()));
        assert_eq!(s.len(), MAX_BOOTSTRAP_ENTRIES);
        // Equality covers only the populated prefix.
        let a = sample_snapshot();
        let mut b = sample_snapshot();
        assert_eq!(a, b);
        b.push(BootstrapEntry::default());
        assert_ne!(a, b);
    }

    #[test]
    fn envelope_roundtrip_all_payloads() {
        for payload in all_payloads() {
            let env = Envelope { from: PlayerId(2), seq: 42, frame: 1000, payload };
            let decoded = Envelope::decode(&env.encode()).unwrap();
            assert_eq!(env, decoded, "{}", payload.label());
        }
    }

    #[test]
    fn state_update_size_matches_paper_class() {
        // ~700 bits ≈ 88 bytes in the paper; ours is the same order.
        let env = Envelope {
            from: PlayerId(0),
            seq: 1,
            frame: 1,
            payload: Payload::State(sample_state()),
        };
        let size = env.wire_size();
        assert!((80..130).contains(&size), "state update {size} bytes");
        // Signature overhead is small relative to the update.
        let signed = env.sign(&Keypair::generate(1));
        assert_eq!(signed.wire_size(), size + SIGNATURE_LEN);
        assert!(SIGNATURE_LEN * 4 < size, "signature should be light");
    }

    #[test]
    fn position_update_is_much_smaller() {
        let state = Envelope {
            from: PlayerId(0),
            seq: 1,
            frame: 1,
            payload: Payload::State(sample_state()),
        };
        let pos = Envelope {
            from: PlayerId(0),
            seq: 1,
            frame: 1,
            payload: Payload::Position(PositionUpdate { position: Vec3::ZERO }),
        };
        assert!(pos.wire_size() * 2 < state.wire_size());
    }

    #[test]
    fn sign_verify_and_tamper() {
        let keys = Keypair::generate(5);
        let env = Envelope {
            from: PlayerId(1),
            seq: 7,
            frame: 99,
            payload: Payload::Position(PositionUpdate { position: Vec3::new(5.0, 5.0, 0.0) }),
        };
        let signed = env.sign(&keys);
        assert!(signed.verify(&keys.public()));

        // A forwarding proxy rewrites the position: signature breaks.
        let mut tampered = signed;
        tampered.envelope.payload =
            Payload::Position(PositionUpdate { position: Vec3::new(50.0, 5.0, 0.0) });
        assert!(!tampered.verify(&keys.public()));

        // A different origin key does not verify (spoofing).
        let other = Keypair::generate(6);
        assert!(!signed.verify(&other.public()));
    }

    #[test]
    fn signed_roundtrip() {
        let keys = Keypair::generate(8);
        let prepared = VerifyingKey::new(keys.public());
        for payload in all_payloads() {
            let env = Envelope { from: PlayerId(3), seq: 11, frame: 22, payload };
            let signed = env.sign(&keys);
            let decoded = SignedEnvelope::decode(&signed.encode()).unwrap();
            assert_eq!(signed, decoded);
            assert!(decoded.verify(&keys.public()));
            assert!(decoded.verify_prepared(&prepared));
            // The single-encode signer puts the same bytes on the wire.
            assert_eq!(env.sign_encoded(&keys), signed.encode());
        }
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

    #[test]
    fn padded_datagrams_do_not_decode() {
        // envelope ‖ junk ‖ signature: the signature still matches the
        // re-encoded envelope, so the padding has to fail at the decoder.
        let keys = Keypair::generate(5);
        for payload in all_payloads() {
            let env = Envelope { from: PlayerId(2), seq: 42, frame: 1000, payload };
            let mut bytes = env.encode();
            bytes.push(0);
            assert_eq!(Envelope::decode(&bytes), Err(DecodeError::TrailingBytes));
            bytes.extend_from_slice(&keys.sign(&env.encode()).to_bytes());
            assert_eq!(
                SignedEnvelope::decode(&bytes),
                Err(DecodeError::TrailingBytes),
                "{}",
                payload.label()
            );
        }
    }

    #[test]
    fn decode_errors() {
        assert_eq!(Envelope::decode(&[]), Err(DecodeError::Truncated));
        let env = Envelope {
            from: PlayerId(0),
            seq: 0,
            frame: 0,
            payload: Payload::Position(PositionUpdate { position: Vec3::ZERO }),
        };
        let mut bytes = env.encode();
        bytes[20] = 0xee; // payload tag
        assert_eq!(Envelope::decode(&bytes), Err(DecodeError::InvalidTag(0xee)));
        assert_eq!(SignedEnvelope::decode(&[0u8; 4]), Err(DecodeError::Truncated));
        assert!(!DecodeError::Truncated.to_string().is_empty());
    }
}
