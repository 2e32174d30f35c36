//! End-to-end cheat detection: secured nodes on a simulated network
//! verify each other, their reports feed the lobby's reputation, and the
//! lobby bans; plus the cryptographic defenses exercised through real
//! signed envelopes, Table I on the node replay, and the lobby's answer
//! to a Sybil flood.

use watchmen::core::cheat::CheatKind;
use watchmen::core::msg::{Envelope, Payload, PositionUpdate, SignedEnvelope, StateUpdate};
use watchmen::core::proxy::ProxySchedule;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::fleet::{run_fleet_specs, MatchReport, MatchSpec, PoolConfig};
use watchmen::game::PlayerId;
use watchmen::math::Vec3;
use watchmen::sim::cheat_matrix::{run_cheat_matrix, sybil_flood};
use watchmen::sim::workload::standard_workload;

/// The fleet's match shape: 16 bots on the open arena over an 8 ms
/// simnet, here played long enough for reputation to reach a verdict.
const PLAYERS: usize = 16;
const FRAMES: u64 = 400;
const SEED: u64 = 7;

/// Plays one fleet match with `cheaters` speed-hacking: every node's
/// suspicion reports feed the match lobby, which bans.
fn play(cheaters: &[u32]) -> MatchReport {
    let spec = cheaters
        .iter()
        .fold(MatchSpec::new(0, PLAYERS, FRAMES, SEED), |spec, &c| spec.with_cheater(c));
    let mut fleet = run_fleet_specs(vec![spec], &PoolConfig { workers: 1, max_local: 1 });
    fleet.reports.pop().expect("the match completed")
}

/// The seats whose interactions the nodes rated failed at least once.
fn failed_seats(report: &MatchReport) -> Vec<u32> {
    (0..)
        .zip(&report.outcomes)
        .filter_map(|(seat, &(_, _, failed))| (failed > 0).then_some(seat))
        .collect()
}

#[test]
fn threshold_reputation_bans_cheaters_not_honest() {
    let report = play(&[2, 5]);
    assert_eq!(report.banned, 2, "{}", report.summary_line());
    assert_eq!(failed_seats(&report), [2, 5], "{:?}", report.outcomes);
}

#[test]
fn clean_game_bans_nobody() {
    let report = play(&[]);
    assert_eq!(report.banned, 0, "{}", report.summary_line());
    assert_eq!(failed_seats(&report), [], "{:?}", report.outcomes);
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
    let rows = run_cheat_matrix(&w, &WatchmenConfig::default(), 17);
    assert_eq!(rows.len(), CheatKind::ALL.len());
    for row in &rows {
        if matches!(row.kind, CheatKind::RateAnalysis | CheatKind::Maphack) {
            // ROADMAP 5(d): a Subscribe's first hop is the subscriber's
            // proxy, sometimes the target itself. ROADMAP 5(f): the node
            // never unsubscribes, so a member keeps getting fresh States
            // about players who left its PVS. Fixing a leak flips its
            // assertion.
            assert!(row.count.is_some_and(|leak| leak.hits > 0), "{}", row.note);
            assert!(!row.demonstrated, "{}", row.note);
        } else {
            assert!(row.demonstrated, "{} demo failed: {}", row.kind, row.note);
        }
    }
}

/// The fixed seeds the Sybil flood runs at: every seed its gate has run
/// at. A flood costs well under a millisecond.
const SYBIL_SEEDS: [u64; 19] =
    [5, 7, 42, 43, 44, 77, 100, 101, 102, 103, 300, 301, 302, 303, 304, 305, 2013, 2014, 2015];

/// At every seed, every refused identity draws a severe `admission`
/// verdict, the honest joiners before and after the flood stay clean, and
/// the pressure escalates to 10 (`SybilFlood::check`).
#[test]
fn sybil_flood_flags_every_over_rate_identity() {
    for seed in SYBIL_SEEDS {
        let flood = sybil_flood(seed, &WatchmenConfig::default());
        assert_eq!(flood.check(), Ok(()), "seed {seed}");
    }
}
