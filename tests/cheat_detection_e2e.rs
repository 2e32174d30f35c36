//! End-to-end cheat detection: secured nodes on a simulated network
//! verify each other, their reports feed the lobby's reputation, and the
//! lobby bans; plus the cryptographic defenses exercised through real
//! signed envelopes.

use watchmen::core::cheat::CheatKind;
use watchmen::core::lobby::{GameLobby, LobbyEvent};
use watchmen::core::msg::{Envelope, Payload, PositionUpdate, SignedEnvelope, StateUpdate};
use watchmen::core::node::NodeEvent;
use watchmen::core::proxy::ProxySchedule;
use watchmen::core::sans_io::secured_cores;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::game::PlayerId;
use watchmen::math::Vec3;
use watchmen::net::{latency, SimNetwork};
use watchmen::sim::cluster::Cluster;
use watchmen::sim::workload::{match_workload, speed_hack, standard_workload};

/// The fleet's match shape: 16 bots on the open arena over an 8 ms
/// simnet, here played long enough for reputation to reach a verdict.
const PLAYERS: usize = 16;
const FRAMES: u64 = 400;
const SEED: u64 = 7;

/// Plays one match with `cheaters` speed-hacking, every node's
/// suspicion reports fed to the lobby as `lobby_match` does, and returns
/// the players the lobby banned.
fn play(cheaters: &[u32]) -> Vec<PlayerId> {
    let config = WatchmenConfig::default();
    let w = match_workload(PLAYERS, SEED, FRAMES);
    let keys: Vec<Keypair> = (0..PLAYERS).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
    let mut lobby = GameLobby::new(SEED, config, FRAMES + 1);
    for k in &keys {
        lobby.register(k.public());
    }
    lobby.start();
    let mut cluster = Cluster::new(
        secured_cores(&keys, lobby.directory(), None, SEED, config, &w.map),
        SimNetwork::new(PLAYERS, latency::constant(8.0), 0.0, SEED),
        config.frame_ms,
    );
    let mut banned = Vec::new();
    for frame in 0..FRAMES {
        cluster.step(
            frame,
            |i| {
                let mut state = w.trace.frames[frame as usize].states[i];
                if cheaters.contains(&(i as u32)) {
                    speed_hack(&mut state, frame);
                }
                state
            },
            |i, output| {
                for e in &output.events {
                    if let NodeEvent::Suspicion { subject, rating, .. } = e {
                        lobby.report(PlayerId(i as u32), *subject, rating);
                    }
                }
            },
        );
        for i in 0..PLAYERS {
            lobby.heartbeat(PlayerId(i as u32), frame);
        }
        for event in lobby.tick(frame) {
            if let LobbyEvent::Banned(p) = event {
                banned.push(p);
            }
        }
    }
    banned
}

#[test]
fn threshold_reputation_bans_cheaters_not_honest() {
    let mut banned = play(&[2, 5]);
    banned.sort_unstable();
    assert_eq!(banned, [PlayerId(2), PlayerId(5)], "banned: {banned:?}");
}

#[test]
fn clean_game_bans_nobody() {
    let banned = play(&[]);
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
