//! Randomized property tests for the core architecture's invariants,
//! driven by the workspace's deterministic [`Xoshiro256`] generator.

use watchmen_core::msg::{
    Envelope, HandoffNotice, KillClaim, Payload, PositionUpdate, SignedEnvelope, StateUpdate,
};
use watchmen_core::proxy::ProxySchedule;
use watchmen_core::rating::{rate_deviation, CheatRating, Confidence};
use watchmen_core::subscription::SetKind;
use watchmen_crypto::rng::Xoshiro256;
use watchmen_crypto::schnorr::Keypair;
use watchmen_game::{PlayerId, WeaponKind};
use watchmen_math::{Aim, Vec3};
use watchmen_telemetry::TraceId;

const CASES: usize = 128;

fn f64_in(rng: &mut Xoshiro256, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn arb_vec3(rng: &mut Xoshiro256) -> Vec3 {
    Vec3::new(f64_in(rng, -1e4, 1e4), f64_in(rng, -1e4, 1e4), f64_in(rng, -1e4, 1e4))
}

fn arb_weapon(rng: &mut Xoshiro256) -> WeaponKind {
    match rng.next_range(4) {
        0 => WeaponKind::MachineGun,
        1 => WeaponKind::Shotgun,
        2 => WeaponKind::RocketLauncher,
        _ => WeaponKind::Railgun,
    }
}

fn arb_state(rng: &mut Xoshiro256) -> StateUpdate {
    StateUpdate {
        position: arb_vec3(rng),
        velocity: arb_vec3(rng),
        aim: Aim::new(f64_in(rng, -3.1, 3.1), f64_in(rng, -1.5, 1.5)),
        health: rng.next_range(200) as i32,
        armor: rng.next_range(100) as i32,
        weapon: arb_weapon(rng),
        ammo: rng.next_range(1000) as u32,
    }
}

fn arb_payload(rng: &mut Xoshiro256) -> Payload {
    match rng.next_range(5) {
        0 => Payload::State(arb_state(rng)),
        1 => Payload::Position(PositionUpdate { position: arb_vec3(rng) }),
        2 => Payload::Subscribe {
            target: PlayerId(rng.next_range(64) as u32),
            kind: if rng.next_bool(0.5) { SetKind::Interest } else { SetKind::Vision },
        },
        3 => Payload::Kill(KillClaim {
            victim: PlayerId(rng.next_range(64) as u32),
            weapon: arb_weapon(rng),
            attacker_position: arb_vec3(rng),
            victim_position: arb_vec3(rng),
        }),
        _ => {
            let mut digest = [0u8; 32];
            for b in &mut digest {
                *b = rng.next_u64() as u8;
            }
            Payload::Handoff(HandoffNotice {
                player: PlayerId(rng.next_range(64) as u32),
                epoch: rng.next_range(100),
                observed_frame: rng.next_range(10_000),
                last_state: arb_state(rng),
                worst_rating: 1 + rng.next_range(10) as u8,
                updates_seen: rng.next_range(100) as u32,
                predecessor_digest: digest,
            })
        }
    }
}

#[test]
fn bitflip_always_breaks_signature() {
    let mut rng = Xoshiro256::new(44);
    for _ in 0..32 {
        let keys = Keypair::generate(rng.next_u64());
        let payload = arb_payload(&mut rng);
        let signed = Envelope { from: PlayerId(2), seq: 9, frame: 9, payload }.sign(&keys);
        let mut bytes = signed.encode();
        let idx = ((bytes.len() - 17) as f64 * rng.next_f64()) as usize; // within envelope
        bytes[idx] ^= 1 << rng.next_range(8);
        // Structural rejection (a decode error) is also acceptable.
        if let Ok(tampered) = SignedEnvelope::decode(&bytes) {
            assert!(!tampered.verify(&keys.public()));
        }
    }
}

#[test]
fn a_relay_cannot_rewrite_an_aim_under_the_origins_signature() {
    // A signed State's yaw sits after the 20-byte envelope header, the
    // tag, position and velocity; its pitch follows.
    const YAW_AT: usize = 21 + 48;
    const PITCH_AT: usize = YAW_AT + 8;
    let keys = Keypair::generate(7);
    let state = StateUpdate {
        position: Vec3::new(1.0, 2.0, 0.0),
        velocity: Vec3::ZERO,
        aim: Aim::new(0.0, std::f64::consts::FRAC_PI_2),
        health: 100,
        armor: 0,
        weapon: WeaponKind::MachineGun,
        ammo: 50,
    };
    let env = Envelope { from: PlayerId(1), seq: 3, frame: 40, payload: Payload::State(state) };
    let wire = env.sign_encoded(&keys);
    assert!(SignedEnvelope::decode(&wire).unwrap().verify(&keys.public()));
    // `Aim::new` maps yaw 2π to 0 and clamps pitch 3.0 to π/2, so a
    // decoder that normalised would re-encode either rewrite to the
    // signed bytes.
    for (at, value) in [(YAW_AT, std::f64::consts::TAU), (PITCH_AT, 3.0)] {
        let mut forged = wire.clone();
        forged[at..at + 8].copy_from_slice(&value.to_be_bytes());
        let verifies = SignedEnvelope::decode(&forged).is_ok_and(|m| m.verify(&keys.public()));
        assert!(!verifies, "offset {at} := {value} still verifies");
    }
}

#[test]
fn proxy_schedule_uniformity_rough() {
    let mut rng = Xoshiro256::new(47);
    for _ in 0..16 {
        let seed = rng.next_u64();
        let players = 4 + rng.next_range(20) as usize;
        let s = ProxySchedule::new(seed, players, 40);
        let target = PlayerId(0);
        let mut counts = vec![0u32; players];
        let epochs = 400u64;
        for e in 0..epochs {
            counts[s.proxy_of(target, e * 40).index()] += 1;
        }
        assert_eq!(counts[0], 0);
        let expected = epochs as f64 / (players - 1) as f64;
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64) < expected * 3.0 + 10.0,
                "player {i} drawn {c} times (expected ~{expected})"
            );
        }
    }
}

#[test]
fn rate_deviation_monotone_in_deviation() {
    let mut rng = Xoshiro256::new(48);
    for _ in 0..CASES {
        let tolerance = f64_in(&mut rng, 0.1, 1e4);
        let a = f64_in(&mut rng, 0.0, 1e5);
        let b = f64_in(&mut rng, 0.0, 1e5);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(rate_deviation(lo, tolerance) <= rate_deviation(hi, tolerance));
    }
}

#[test]
fn trace_id_survives_encode_sign_decode_relay() {
    // The causal trace id is derived from the signed (origin, seq) pair,
    // so every hop — encode, sign, decode, and a byte-identical relay —
    // must recompute the same id the origin had.
    let mut rng = Xoshiro256::new(50);
    for _ in 0..32 {
        let keys = Keypair::generate(rng.next_u64());
        let env = Envelope {
            from: PlayerId(rng.next_range(64) as u32),
            seq: 1 + rng.next_u64() % (1 << 40),
            frame: rng.next_range(100_000),
            payload: arb_payload(&mut rng),
        };
        let origin_id = env.trace_id();
        assert!(origin_id.is_some(), "live messages always carry an id");

        let signed = env.sign(&keys);
        assert_eq!(signed.trace_id(), origin_id, "signing changes nothing");

        // First hop: the proxy decodes the wire bytes.
        let wire = signed.encode();
        let at_proxy = SignedEnvelope::decode(&wire).unwrap();
        assert_eq!(at_proxy.trace_id(), origin_id, "decode changes nothing");

        // Second hop: the proxy relays the *original* signed bytes, and
        // the subscriber decodes those.
        let relayed = at_proxy.encode();
        assert_eq!(relayed, wire, "relay forwards byte-identical frames");
        let at_subscriber = SignedEnvelope::decode(&relayed).unwrap();
        assert_eq!(at_subscriber.trace_id(), origin_id);
        assert!(at_subscriber.verify(&keys.public()), "signature survives too");
    }
}

#[test]
fn trace_id_no_collisions_in_ten_thousand_messages() {
    // 10k distinct (origin, seq) pairs across 64 players must map to 10k
    // distinct trace ids (the mix is bijective for origin < 2^24,
    // seq < 2^40).
    let mut rng = Xoshiro256::new(51);
    let mut seen = std::collections::HashSet::with_capacity(10_000);
    let mut seqs = vec![0u64; 64];
    for _ in 0..10_000 {
        let origin = rng.next_range(64) as u32;
        seqs[origin as usize] += 1;
        let id = TraceId::from_origin_seq(origin, seqs[origin as usize]);
        assert!(id.is_some());
        assert!(seen.insert(id), "collision at origin {origin} seq {}", seqs[origin as usize]);
    }
}

#[test]
fn suspicion_bounded_and_monotone_in_score() {
    let mut rng = Xoshiro256::new(49);
    for _ in 0..CASES {
        let score_a = 1 + rng.next_range(10) as u8;
        let score_b = 1 + rng.next_range(10) as u8;
        let staleness = rng.next_range(1000);
        let mk = |s| CheatRating::new(s, Confidence::Proxy, staleness).suspicion();
        let (sa, sb) = (mk(score_a), mk(score_b));
        assert!((0.0..=1.0).contains(&sa));
        if score_a <= score_b {
            assert!(sa <= sb + 1e-12);
        }
    }
}
