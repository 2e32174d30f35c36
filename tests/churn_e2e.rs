//! End-to-end churn tolerance: the [`churn_soak`] — a 16-veteran cluster
//! over a lossy [`watchmen::net::SimNetwork`] absorbing four mid-game
//! joins, two graceful leaves and two crash-evictions, all under 5%
//! burst loss — while every honest node keeps an **identical
//! epoch-versioned roster at every renewal boundary**, every joiner
//! receives its bootstrap snapshot and enters the veterans' pipelines
//! within one epoch, and **zero** cheat verdicts are raised against the
//! all-honest population.

use watchmen::core::lobby::{GameLobby, LobbyEvent};
use watchmen::core::msg::{BootstrapEntry, BootstrapSnapshot, Envelope, Payload, StateUpdate};
use watchmen::core::node::WatchmenNode;
use watchmen::core::proxy::ProxySchedule;
use watchmen::core::rating::{CheatRating, Confidence};
use watchmen::core::sans_io::{secured_cores, ProtocolCore};
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::game::trace::standard_trace;
use watchmen::game::PlayerId;
use watchmen::net::{latency, SimNetwork};
use watchmen::sim::cluster::Cluster;
use watchmen::sim::scenario::{
    churn_soak, soak_config, CHURN_CRASHED, CHURN_JOINERS, CHURN_LEAVES, CHURN_VETERANS,
};
use watchmen::sim::workload::standard_workload;
use watchmen::world::{maps, PhysicsConfig};

#[test]
fn churn_run_keeps_rosters_agreed_and_raises_no_false_verdicts() {
    let period = soak_config().proxy_period;
    let (cluster, outcome) = churn_soak();

    // --- (a) Roster agreement at every renewal boundary: every
    // online, active member holds the identical epoch and digest.
    assert_eq!(outcome.roster_divergence, None);
    assert!(outcome.boundaries >= 20, "only {} boundaries checked", outcome.boundaries);

    // --- (c) No false cheat verdicts and no signature rejections, ever.
    assert!(
        outcome.severe.is_empty(),
        "honest cluster raised severe verdicts:\n{}",
        outcome.severe.join("\n")
    );
    assert!(
        outcome.bad_signatures.is_empty(),
        "churn traffic scored as signature failures:\n{}",
        outcome.bad_signatures.join("\n")
    );
    // --- The full lifecycle actually ran (all joins, leaves and
    // evictions applied, every joiner converged), observed from a
    // veteran that survived to the end.
    outcome.report().check().unwrap();
    let mut split = outcome.clone();
    split.roster_divergence = Some("a doctored divergence".to_owned());
    assert_eq!(split.report().failing(), Some("roster_agreement"));

    // --- (b) Every joiner received its bootstrap within one epoch of its
    // admission boundary, and entered the veterans' pipelines.
    assert_eq!(outcome.admit_frames.len(), CHURN_JOINERS);
    for (j, &admit) in &outcome.admit_frames {
        let got = outcome
            .bootstrap_frames
            .get(j)
            .unwrap_or_else(|| panic!("joiner {j} (admitted at {admit}) never got a bootstrap"));
        assert!(
            *got <= admit + period,
            "joiner {j}: bootstrap at frame {got}, later than one epoch past admission {admit}"
        );
        let joiner = cluster.node(*j);
        assert!(joiner.is_active_member(), "joiner {j} never became active");
        assert!(joiner.churn_stats().bootstraps_received >= 1);
        // At least one other active node tracks the joiner's state — it
        // entered the interest/vision pipelines, not just the roster.
        let seen =
            cluster.cores.iter().flatten().any(|c| {
                c.id().index() != *j && c.node().known_state(PlayerId(*j as u32)).is_some()
            });
        assert!(seen, "no active node ever learned joiner {j}'s state");
    }

    let witness = cluster.node(0);
    for &(leaver, _) in &CHURN_LEAVES {
        assert!(!witness.roster().is_active(PlayerId(leaver as u32)));
    }
    for &c in &CHURN_CRASHED {
        assert!(!witness.roster().is_active(PlayerId(c as u32)));
    }
    // Exactly the 16 veterans minus 2 leavers minus 2 evicted, plus 4
    // joiners, remain active.
    assert_eq!(witness.roster().active_count(), CHURN_VETERANS - 4 + CHURN_JOINERS);

    // --- The loss plan actually bit, and conservation held throughout.
    let stats = cluster.net.stats();
    stats.assert_invariant("end of churn e2e");
    assert!(stats.dropped > 100, "loss plan never engaged: {stats:?}");

    // --- (d) Minimum-pool robustness is a unit-test concern
    // (`over_exclusion_degrades_instead_of_panicking`); here the
    // whole run completing under churn without a panic, with zero
    // abandoned control messages on surviving nodes, is the guarantee.
    for i in (0..cluster.cores.len()).filter(|&i| cluster.is_running(i)) {
        assert_eq!(
            cluster.node(i).control_stats().abandoned,
            0,
            "node {i} abandoned control traffic"
        );
    }
}

/// A `Bootstrap` is a joiner's first-proxy seed, nothing else: a member
/// cannot use one to plant far-future states (which freeze a player's copy
/// and blind the knowledge-break checks) or to move a replica's roster
/// epoch. A veteran never applies one; a joiner applies one only from its
/// plausible first proxies, and only entries no newer than the envelope.
#[test]
fn bootstraps_seed_only_a_joiner_from_its_first_proxy() {
    const N: usize = 6;
    const SEED: u64 = 31;
    let config = soak_config();
    let period = config.proxy_period;
    let map = maps::arena(32, 10.0);
    let mut lobby = GameLobby::new(SEED, config, config.membership_timeout_frames)
        .with_keys(Keypair::generate(SEED ^ 0x10bb));
    let keys: Vec<Keypair> = (0..=N).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
    for k in &keys[..N] {
        lobby.register(k.public());
    }
    lobby.start();
    let lobby_key = lobby.lobby_key().expect("lobby has keys");
    let mut veterans: Vec<ProtocolCore> =
        secured_cores(&keys[..N], lobby.directory(), Some(lobby_key), SEED, config, &map).collect();
    let states = &standard_trace(N, SEED, 1).frames[0].states;
    let state = |i: usize| StateUpdate::from(&states[i]);
    let signed = |from: usize, frame: u64, payload: Payload| {
        Envelope { from: PlayerId(from as u32), seq: 1, frame, payload }.sign_encoded(&keys[from])
    };
    let bootstrap = |entries: &[(usize, u64, StateUpdate)]| {
        let mut snapshot = BootstrapSnapshot::new(99);
        for &(i, frame, state) in entries {
            snapshot.push(BootstrapEntry { player: PlayerId(i as u32), frame, state });
        }
        Payload::Bootstrap(snapshot)
    };

    // A veteran that learned player 2 first-hand ignores member 1's
    // far-future copy of it and its roster epoch, but still acks.
    let vet = &mut veterans[0];
    vet.datagram(3, PlayerId(2), &signed(2, 3, Payload::State(state(2))));
    let before = (vet.node().known_state(PlayerId(2)).copied(), vet.node().roster_digest());
    let forged = StateUpdate { health: 1, ..state(3) };
    let out = vet.datagram(4, PlayerId(1), &signed(1, 4, bootstrap(&[(2, 1_000_000, forged)])));
    assert_eq!(out.datagrams.len(), 1, "the bootstrap is acked, stopping retransmits");
    assert!(out.events.is_empty(), "{:?}", out.events);
    let after = (vet.node().known_state(PlayerId(2)).copied(), vet.node().roster_digest());
    assert_eq!(after, before);
    assert_eq!(vet.node().roster_epoch(), 0);

    // A joiner: only its plausible first proxies may seed it, and only
    // with states no newer than the snapshot.
    let (id, ticket, roster) = lobby.admit_midgame(keys[N].public(), 10).expect("admission");
    let boundary = ticket.admit_frame.div_ceil(period) * period;
    let mut joiner = ProtocolCore::new(WatchmenNode::new_joining(
        id,
        keys[N].clone(),
        roster,
        ticket,
        lobby_key,
        SEED,
        config,
        map.clone(),
        PhysicsConfig::default(),
    ));
    let mut schedule = ProxySchedule::new(SEED, N, period);
    assert_eq!(schedule.admit_at(ticket.admit_frame.div_ceil(period)), id);
    let plausible: Vec<usize> =
        schedule.plausible_proxies(id, boundary).map(|p| p.index()).collect();
    let outsider = (0..N).find(|i| !plausible.contains(i)).expect("a non-proxy veteran");
    let (a, b) = (plausible[1], plausible[2]);
    let seed = bootstrap(&[(a, boundary - 1, state(a))]);
    joiner.datagram(boundary + 1, PlayerId(outsider as u32), &signed(outsider, boundary, seed));
    assert!(joiner.node().known_state(PlayerId(a as u32)).is_none(), "outsider seeded the joiner");
    let first = plausible[0];
    let seed = bootstrap(&[(a, boundary - 1, state(a)), (b, boundary + 500, state(b))]);
    let out = joiner.datagram(boundary + 1, PlayerId(first as u32), &signed(first, boundary, seed));
    assert_eq!(out.events.len(), 1, "{:?}", out.events);
    assert!(joiner.node().known_state(PlayerId(a as u32)).is_some());
    assert!(joiner.node().known_state(PlayerId(b as u32)).is_none(), "future-dated entry taken");
}

/// A lobby ban is the lobby's decision alone: no node applies it, so it
/// must not reach a joiner's roster snapshot. Eight veterans play over a
/// lossless 8 ms network; the lobby bans p3 at frame 50 and admits p8 at
/// frame 60 (active from the frame-120 boundary). Every running active
/// member, p3 included, must hold the same roster at every boundary.
#[test]
fn a_lobby_ban_before_a_join_keeps_rosters_agreed() {
    const VETERANS: usize = 8;
    const SEED: u64 = 77;
    const FRAMES: u64 = 320;
    let config = WatchmenConfig::default();
    let period = config.proxy_period;
    let workload = standard_workload(VETERANS + 1, SEED, FRAMES);
    let mut lobby = GameLobby::new(SEED, config, config.membership_timeout_frames)
        .with_keys(Keypair::generate(SEED ^ 0x10bb));
    let keys: Vec<Keypair> = (0..=VETERANS).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
    for k in &keys[..VETERANS] {
        lobby.register(k.public());
    }
    lobby.start();
    let lobby_key = lobby.lobby_key().expect("lobby has keys");
    let map = &workload.map;
    let mut cluster = Cluster::new(
        secured_cores(&keys[..VETERANS], lobby.directory(), Some(lobby_key), SEED, config, map),
        SimNetwork::new(VETERANS + 1, latency::constant(8.0), 0.0, SEED),
        config.frame_ms,
    );

    let mut boundaries = 0;
    for f in 0..FRAMES {
        if f == 50 {
            let cheat = CheatRating::new(10, Confidence::Proxy, 0);
            for _ in 0..40 {
                lobby.report(PlayerId(0), PlayerId(3), &cheat);
            }
            assert_eq!(lobby.tick(f), [LobbyEvent::Banned(PlayerId(3))]);
        }
        if f == 60 {
            let (id, ticket, roster) =
                lobby.admit_midgame(keys[VETERANS].public(), f).expect("admission");
            assert_eq!((id.index(), ticket.admit_frame), (VETERANS, 120));
            cluster.cores[VETERANS] = Some(ProtocolCore::new(WatchmenNode::new_joining(
                id,
                keys[VETERANS].clone(),
                roster,
                ticket,
                lobby_key,
                SEED,
                config,
                map.clone(),
                PhysicsConfig::default(),
            )));
        }
        cluster.step(f, |i| workload.trace.frames[f as usize].states[i], |_, _| {});

        if f > 0 && f % period == 0 {
            let views: Vec<(usize, u64, [u8; 32])> = (0..=VETERANS)
                .filter(|&i| cluster.is_running(i) && cluster.node(i).is_active_member())
                .map(|i| (i, cluster.node(i).roster_epoch(), cluster.node(i).roster_digest()))
                .collect();
            let (_, e0, d0) = views[0];
            assert!(
                views.iter().all(|&(_, e, d)| (e, d) == (e0, d0)),
                "boundary {f}: rosters split, (node, epoch) = {:?}",
                views.iter().map(|&(i, e, _)| (i, e)).collect::<Vec<_>>()
            );
            boundaries += 1;
        }
    }
    assert_eq!(boundaries, FRAMES.div_ceil(period) - 1);
    assert!(cluster.node(VETERANS).is_active_member(), "the joiner never became active");
}
