//! Structure-aware mutation fuzzing of the message codec, per payload kind.
//!
//! The receive path's contract: whatever bytes arrive, decoding never
//! panics and either succeeds or names exactly one `DecodeError`; and
//! whatever decodes re-encodes to exactly the bytes received. A node
//! checks the signature over the bytes received, so a datagram that
//! decoded to something encoding differently would act on a message its
//! origin never signed; on every input that decodes, verifying the
//! received bytes and verifying the re-encoding give the same answer.
//! Each kind's valid datagram is mutated where its structure is:
//! every truncation, bytes grown or shrunk around the signature, swapped
//! tags, out-of-range enum bytes, bootstrap counts, join keys, signature
//! scalars and non-canonical aims — then havoc on top.

use std::f64::consts::{PI, TAU};

use watchmen_core::dead_reckoning::Guidance;
use watchmen_core::msg::{
    BootstrapEntry, BootstrapSnapshot, DecodeError, Envelope, HandoffNotice, JoinTicket, KillClaim,
    Payload, PositionUpdate, SignedEnvelope, StateUpdate, MAX_BOOTSTRAP_ENTRIES,
};
use watchmen_core::subscription::SetKind;
use watchmen_crypto::rng::Xoshiro256;
use watchmen_crypto::schnorr::{Keypair, VerifyingKey, SIGNATURE_LEN};
use watchmen_game::{PlayerId, WeaponKind};
use watchmen_math::{Aim, Vec3};

/// The envelope header (from, seq, frame) is 20 bytes; the tag follows.
const TAG_AT: usize = 20;
/// Payload bodies start here; the offsets below are relative to it.
const BODY_AT: usize = 21;
/// Inside a `StateUpdate`: the aim after position and velocity, the
/// weapon after aim, health and armor.
const STATE_AIM: usize = 48;
const STATE_WEAPON: usize = 72;
/// A bootstrap entry is player (4), frame (8) and a 77-byte state.
const ENTRY_LEN: usize = 89;

/// Where a kind keeps the bytes the decoder validates, relative to the
/// body.
#[derive(Default)]
struct Layout {
    aims: Vec<usize>,
    weapons: Vec<usize>,
    set_kind: Option<usize>,
    join_key: Option<usize>,
    lobby_sig: Option<usize>,
    bootstrap_count: Option<usize>,
}

fn layout(payload: &Payload) -> Layout {
    match payload {
        Payload::State(_) => {
            Layout { aims: vec![STATE_AIM], weapons: vec![STATE_WEAPON], ..Layout::default() }
        }
        Payload::Guidance(_) => Layout { aims: vec![48], ..Layout::default() },
        Payload::Subscribe { .. } | Payload::Unsubscribe { .. } => {
            Layout { set_kind: Some(4), ..Layout::default() }
        }
        Payload::Kill(_) => Layout { weapons: vec![4], ..Layout::default() },
        Payload::Handoff(_) => Layout {
            aims: vec![20 + STATE_AIM],
            weapons: vec![20 + STATE_WEAPON],
            ..Layout::default()
        },
        Payload::Join(_) => Layout { join_key: Some(4), lobby_sig: Some(20), ..Layout::default() },
        Payload::Bootstrap(s) => {
            let entry = |i: usize| 9 + i * ENTRY_LEN + 12;
            Layout {
                aims: (0..s.len()).map(|i| entry(i) + STATE_AIM).collect(),
                weapons: (0..s.len()).map(|i| entry(i) + STATE_WEAPON).collect(),
                bootstrap_count: Some(8),
                ..Layout::default()
            }
        }
        Payload::Position(_)
        | Payload::Ack { .. }
        | Payload::Leave { .. }
        | Payload::Evict { .. } => Layout::default(),
    }
}

fn f64_in(rng: &mut Xoshiro256, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn vec3(rng: &mut Xoshiro256) -> Vec3 {
    Vec3::new(f64_in(rng, -1e4, 1e4), f64_in(rng, -1e4, 1e4), f64_in(rng, -50.0, 50.0))
}

fn weapon(rng: &mut Xoshiro256) -> WeaponKind {
    [WeaponKind::MachineGun, WeaponKind::Shotgun, WeaponKind::RocketLauncher, WeaponKind::Railgun]
        [rng.next_range(4) as usize]
}

/// Any aim an honest node can hold: `Aim::new` of anything.
fn aim(rng: &mut Xoshiro256) -> Aim {
    Aim::new(f64_in(rng, -20.0, 20.0), f64_in(rng, -3.0, 3.0))
}

fn state(rng: &mut Xoshiro256) -> StateUpdate {
    StateUpdate {
        position: vec3(rng),
        velocity: vec3(rng),
        aim: aim(rng),
        health: rng.next_range(250) as i32 - 50,
        armor: rng.next_range(200) as i32,
        weapon: weapon(rng),
        ammo: rng.next_u64() as u32,
    }
}

/// A random payload of the kind whose tag is `tag`.
fn payload(rng: &mut Xoshiro256, tag: u64) -> Payload {
    let player = PlayerId(rng.next_range(64) as u32);
    let set_kind =
        [SetKind::Interest, SetKind::Vision, SetKind::Others][rng.next_range(3) as usize];
    match tag {
        0 => Payload::State(state(rng)),
        1 => Payload::Position(PositionUpdate { position: vec3(rng) }),
        2 => Payload::Guidance(Guidance {
            position: vec3(rng),
            velocity: vec3(rng),
            aim: aim(rng),
            predicted_position: vec3(rng),
            frame: rng.next_u64(),
        }),
        3 => Payload::Subscribe { target: player, kind: set_kind },
        4 => Payload::Unsubscribe { target: player, kind: set_kind },
        5 => Payload::Kill(KillClaim {
            victim: player,
            weapon: weapon(rng),
            attacker_position: vec3(rng),
            victim_position: vec3(rng),
        }),
        6 => Payload::Handoff(HandoffNotice {
            player,
            epoch: rng.next_u64(),
            observed_frame: rng.next_u64(),
            last_state: state(rng),
            worst_rating: rng.next_u64() as u8,
            updates_seen: rng.next_u64() as u32,
            predecessor_digest: std::array::from_fn(|_| rng.next_u64() as u8),
        }),
        7 => Payload::Ack { ack_seq: rng.next_u64() },
        8 => Payload::Leave { effective_frame: rng.next_u64() },
        9 => Payload::Join(JoinTicket::issue(
            &Keypair::generate(rng.next_u64()),
            player,
            Keypair::generate(rng.next_u64()).public(),
            rng.next_u64(),
        )),
        10 => {
            let mut s = BootstrapSnapshot::new(rng.next_u64());
            for _ in 0..rng.next_range(MAX_BOOTSTRAP_ENTRIES as u64 + 1) {
                s.push(BootstrapEntry { player, frame: rng.next_u64(), state: state(rng) });
            }
            Payload::Bootstrap(s)
        }
        _ => Payload::Evict { player, effective_frame: rng.next_u64() },
    }
}

/// A valid signed datagram of the kind whose tag is `tag`, and its
/// signer's keys.
fn datagram(rng: &mut Xoshiro256, tag: u64) -> (Payload, Vec<u8>, Keypair) {
    let payload = payload(rng, tag);
    let env = Envelope {
        from: PlayerId(rng.next_range(64) as u32),
        seq: rng.next_u64(),
        frame: rng.next_u64(),
        payload,
    };
    let keys = Keypair::generate(rng.next_u64());
    (payload, env.sign_encoded(&keys), keys)
}

/// Every outcome, in exactly one of eight buckets. No wildcard: a new
/// error variant must be given a bucket here.
fn bucket(r: &Result<SignedEnvelope, DecodeError>) -> usize {
    match r {
        Ok(_) => 0,
        Err(DecodeError::Truncated) => 1,
        Err(DecodeError::InvalidTag(_)) => 2,
        Err(DecodeError::BadSignature) => 3,
        Err(DecodeError::TrailingBytes) => 4,
        Err(DecodeError::NonCanonical) => 5,
        Err(DecodeError::TooManyEntries(_)) => 6,
        Err(DecodeError::InvalidKey) => 7,
    }
}

/// Decodes `bytes`, checks the contract — including that `keys` verify
/// the received bytes exactly when they verify the re-encoding — and
/// counts the outcome.
fn classify(
    bytes: &[u8],
    keys: &Keypair,
    seen: &mut [u64; 8],
) -> Result<SignedEnvelope, DecodeError> {
    let r = SignedEnvelope::decode(bytes);
    if let Ok(msg) = &r {
        assert_eq!(msg.encode(), bytes, "a decoded datagram must re-encode to its own bytes");
        let received = msg.verify_received(bytes, &VerifyingKey::new(keys.public()));
        assert_eq!(received, msg.verify(&keys.public()), "received vs re-encoded verify");
    }
    seen[bucket(&r)] += 1;
    r
}

fn put_f64(bytes: &mut [u8], at: usize, v: f64) {
    bytes[at..at + 8].copy_from_slice(&v.to_be_bytes());
}

/// The targeted mutations of one valid datagram, each with the one
/// outcome it must produce (`None`: any bucket will do).
fn targeted(
    rng: &mut Xoshiro256,
    payload: &Payload,
    wire: &[u8],
) -> Vec<(Vec<u8>, Option<DecodeError>)> {
    let mut out = Vec::new();
    let sig_at = wire.len() - SIGNATURE_LEN;
    let mut with = |f: &dyn Fn(&mut Vec<u8>), want: Option<DecodeError>| {
        let mut m = wire.to_vec();
        f(&mut m);
        out.push((m, want));
    };
    // Cut at every offset: the bytes that remain are all valid, so the
    // only thing wrong is the end.
    for len in 0..wire.len() {
        with(&|m| m.truncate(len), Some(DecodeError::Truncated));
    }
    // Grow or shrink around the signature.
    let n = 1 + rng.next_range(8) as usize;
    with(
        &|m| m.splice(sig_at..sig_at, vec![0xa5; n]).for_each(drop),
        Some(DecodeError::TrailingBytes),
    );
    with(&|m| m.extend(vec![0u8; n]), Some(DecodeError::TrailingBytes));
    let k = n.min(sig_at - BODY_AT);
    with(&|m| m.drain(sig_at - k..sig_at).for_each(drop), Some(DecodeError::Truncated));
    // Signature scalars out of range (e, then s).
    with(&|m| m[sig_at..sig_at + 8].fill(0xff), Some(DecodeError::BadSignature));
    with(&|m| m[sig_at + 8..].fill(0xff), Some(DecodeError::BadSignature));
    // Every other tag: an unknown one is refused by name; a known one may
    // happen to parse, and then must re-encode to the same bytes.
    let own = wire[TAG_AT];
    for t in (0..=255u8).filter(|t| *t != own) {
        let want = (t >= 12).then_some(DecodeError::InvalidTag(t));
        with(&|m| m[TAG_AT] = t, want);
    }
    let l = layout(payload);
    for &at in &l.weapons {
        let w = 4 + rng.next_range(252) as u8;
        with(&|m| m[BODY_AT + at] = w, Some(DecodeError::InvalidTag(w)));
    }
    if let Some(at) = l.set_kind {
        let k = 3 + rng.next_range(253) as u8;
        with(&|m| m[BODY_AT + at] = k, Some(DecodeError::InvalidTag(k)));
    }
    if let Some(at) = l.bootstrap_count {
        let c = MAX_BOOTSTRAP_ENTRIES as u8 + 1 + rng.next_range(247) as u8;
        for count in [MAX_BOOTSTRAP_ENTRIES as u8 + 1, c] {
            with(&|m| m[BODY_AT + at] = count, Some(DecodeError::TooManyEntries(count)));
        }
    }
    if let Some(at) = l.join_key {
        for key in [0u64, 1, u64::MAX] {
            let put = |m: &mut Vec<u8>| {
                m[BODY_AT + at..BODY_AT + at + 8].copy_from_slice(&key.to_be_bytes())
            };
            with(&put, Some(DecodeError::InvalidKey));
        }
    }
    if let Some(at) = l.lobby_sig {
        with(&|m| m[BODY_AT + at..BODY_AT + at + 8].fill(0xff), Some(DecodeError::BadSignature));
    }
    for &at in &l.aims {
        let (yaw_at, pitch_at) = (BODY_AT + at, BODY_AT + at + 8);
        let yaw = f64::from_be_bytes(wire[yaw_at..yaw_at + 8].try_into().expect("8 bytes"));
        for bad_yaw in [yaw + TAU, yaw - TAU, -PI, 4.0, f64::INFINITY] {
            with(&|m| put_f64(m, yaw_at, bad_yaw), Some(DecodeError::NonCanonical));
        }
        for bad_pitch in [3.0, -1.6, f64::NAN, f64::NEG_INFINITY] {
            with(&|m| put_f64(m, pitch_at, bad_pitch), Some(DecodeError::NonCanonical));
        }
    }
    out
}

#[test]
fn every_kind_survives_structured_mutation() {
    let mut rng = Xoshiro256::new(0x31_f22);
    let mut seen = [0u64; 8];
    for round in 0..24 {
        for tag in 0..12 {
            let (payload, wire, keys) = datagram(&mut rng, tag);
            let decoded = classify(&wire, &keys, &mut seen).expect("a signed datagram decodes");
            assert_eq!(decoded.envelope.payload, payload);
            assert!(decoded.verify(&keys.public()), "{} does not verify", payload.label());
            for (mutant, want) in targeted(&mut rng, &payload, &wire) {
                let got = classify(&mutant, &keys, &mut seen);
                if let Some(want) = want {
                    assert_eq!(got.err(), Some(want), "round {round}, {}", payload.label());
                }
            }
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "an outcome was never reached: {seen:?}");
}

/// Random havoc on valid datagrams of every kind, and plain garbage:
/// never a panic, and the re-encoding contract on whatever decodes.
#[test]
fn havoc_never_panics_and_decodes_only_what_it_re_encodes() {
    let mut rng = Xoshiro256::new(0xf422);
    let mut seen = [0u64; 8];
    for _ in 0..4000 {
        let tag = rng.next_range(12);
        let (_, mut bytes, keys) = datagram(&mut rng, tag);
        for _ in 0..rng.next_range(4) {
            match rng.next_range(4) {
                0 => {
                    let i = rng.next_range(bytes.len() as u64) as usize;
                    bytes[i] ^= (rng.next_u64() as u8) | 1;
                }
                1 => bytes.truncate(rng.next_range(bytes.len() as u64 + 1) as usize),
                2 => bytes.extend((0..1 + rng.next_range(9)).map(|_| rng.next_u64() as u8)),
                _ => bytes = (0..rng.next_range(300)).map(|_| rng.next_u64() as u8).collect(),
            }
            if bytes.is_empty() {
                break;
            }
        }
        let _ = classify(&bytes, &keys, &mut seen);
    }
    assert_eq!(seen.iter().sum::<u64>(), 4000, "every input lands in exactly one bucket");
}
