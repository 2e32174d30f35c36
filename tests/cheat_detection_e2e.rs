//! End-to-end cheat detection: inject → verify → reputation → ban, plus
//! the cryptographic defenses exercised through real signed envelopes.

use watchmen::core::cheat::{CheatInjector, CheatKind};
use watchmen::core::msg::{Envelope, Payload, PositionUpdate, SignedEnvelope, StateUpdate};
use watchmen::core::proxy::ProxySchedule;
use watchmen::core::rating::{CheatRating, Confidence};
use watchmen::core::reputation::{Reputation, ThresholdReputation, WeightedReputation};
use watchmen::core::verify::Verifier;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::game::PlayerId;
use watchmen::math::Vec3;
use watchmen::sim::workload::standard_workload;
use watchmen::world::PhysicsConfig;

/// Runs the proxy-side position-verification pipeline over a trace with
/// `cheaters` speed-hacking at `rate`, returning the banned set.
fn run_pipeline(cheaters: &[u32], rate: f64, reputation: &mut dyn Reputation) -> Vec<PlayerId> {
    let config = WatchmenConfig::default();
    let physics = PhysicsConfig::default();
    let w = standard_workload(12, 7, 900);
    let verifier = Verifier::new(config, physics);
    let schedule = ProxySchedule::new(7, 12, config.proxy_period);
    let mut injector = CheatInjector::new(99, rate);

    for f in 1..w.trace.len() {
        let prev_states = &w.trace.frames[f - 1].states;
        let states = &w.trace.frames[f].states;
        for p in 0..12u32 {
            let pid = PlayerId(p);
            if !states[p as usize].is_alive() || !prev_states[p as usize].is_alive() {
                continue;
            }
            let prev = prev_states[p as usize].position;
            let mut next = states[p as usize].position;
            if cheaters.contains(&p) && injector.roll() {
                next = injector.speed_hack(prev, next, physics.max_step(0.05));
            }
            let proxy = schedule.proxy_of(pid, f as u64);
            let score = verifier.check_position(prev, next, 1, &w.map);
            let flagged = score >= 3;
            let rating = CheatRating::new(if flagged { 10 } else { 1 }, Confidence::Proxy, 0);
            reputation.report(proxy, pid, &rating);
        }
    }
    reputation.banned_players()
}

#[test]
fn threshold_reputation_bans_cheaters_not_honest() {
    let mut rep = ThresholdReputation::new(12, 0.95, 60);
    let banned = run_pipeline(&[2, 5], 0.10, &mut rep);
    assert!(banned.contains(&PlayerId(2)), "p2 not banned: {banned:?}");
    assert!(banned.contains(&PlayerId(5)), "p5 not banned: {banned:?}");
    assert_eq!(banned.len(), 2, "honest players banned: {banned:?}");
}

#[test]
fn weighted_reputation_bans_cheaters_not_honest() {
    let mut rep = WeightedReputation::new(12, 0.03, 50.0);
    let banned = run_pipeline(&[0], 0.10, &mut rep);
    assert!(banned.contains(&PlayerId(0)), "p0 not banned: {banned:?}");
    assert!(banned.len() <= 1, "honest players banned: {banned:?}");
}

#[test]
fn clean_game_bans_nobody() {
    let mut rep = ThresholdReputation::new(12, 0.95, 60);
    let banned = run_pipeline(&[], 0.0, &mut rep);
    assert!(banned.is_empty(), "banned in a clean game: {banned:?}");
}

#[test]
fn banned_cheaters_leave_the_proxy_pool() {
    let mut schedule = ProxySchedule::new(3, 12, 40);
    schedule.try_exclude_from(PlayerId(2), 0).expect("eleven others stay eligible");
    for epoch in 0..100 {
        for p in 0..12 {
            assert_ne!(schedule.proxy_of(PlayerId(p), epoch * 40), PlayerId(2));
        }
    }
}

#[test]
fn proxy_tampering_detected_through_real_envelopes() {
    // Player 1 publishes through proxy 2 to subscriber 3; the proxy
    // rewrites the position before forwarding. The subscriber's signature
    // check catches it.
    let keys_p1 = Keypair::generate(101);
    let update = Envelope {
        from: PlayerId(1),
        seq: 5,
        frame: 100,
        payload: Payload::Position(PositionUpdate { position: Vec3::new(10.0, 20.0, 0.0) }),
    }
    .sign(&keys_p1);

    // Honest forwarding: bytes pass through unchanged and verify.
    let wire = update.encode();
    let received = SignedEnvelope::decode(&wire).expect("decode");
    assert!(received.verify(&keys_p1.public()));

    // Malicious proxy: decode, mutate, re-encode (it cannot re-sign).
    let mut tampered = received;
    tampered.envelope.payload =
        Payload::Position(PositionUpdate { position: Vec3::new(99.0, 20.0, 0.0) });
    let tampered_wire = tampered.encode();
    let received_tampered = SignedEnvelope::decode(&tampered_wire).expect("decode");
    assert!(!received_tampered.verify(&keys_p1.public()), "tampering went undetected");
}

#[test]
fn replay_detected_by_sequence_tracking() {
    let keys = Keypair::generate(7);
    let mk = |seq: u64| {
        Envelope {
            from: PlayerId(4),
            seq,
            frame: seq * 2,
            payload: Payload::Position(PositionUpdate { position: Vec3::X }),
        }
        .sign(&keys)
    };
    // Receiver state machine: track the highest seq per origin.
    let mut last_seq: u64 = 0;
    let mut replays = 0;
    for msg in [mk(1), mk(2), mk(3), mk(2), mk(3), mk(4)] {
        assert!(msg.verify(&keys.public()));
        if msg.envelope.seq <= last_seq {
            replays += 1;
        } else {
            last_seq = msg.envelope.seq;
        }
    }
    assert_eq!(replays, 2);
}

#[test]
fn spoofed_origin_rejected_by_every_receiver() {
    let alice = Keypair::generate(1);
    let mallory = Keypair::generate(2);
    let forged = Envelope {
        from: PlayerId(0), // Alice's id
        seq: 1,
        frame: 1,
        payload: Payload::State(StateUpdate {
            position: Vec3::ZERO,
            velocity: Vec3::ZERO,
            aim: watchmen::math::Aim::default(),
            health: 100,
            armor: 0,
            weapon: watchmen::game::WeaponKind::Railgun,
            ammo: 99,
        }),
    }
    .sign(&mallory);
    // Every receiver resolves PlayerId(0) to Alice's public key.
    assert!(!forged.verify(&alice.public()));
}

#[test]
fn cheat_matrix_demonstrates_all_table_one_rows() {
    let w = standard_workload(12, 4, 120);
    let rows = watchmen::sim::cheat_matrix::run_cheat_matrix(&w, &WatchmenConfig::default(), 17);
    assert_eq!(rows.len(), CheatKind::ALL.len());
    for row in &rows {
        assert!(row.demonstrated, "{} demo failed: {}", row.kind, row.note);
    }
}
