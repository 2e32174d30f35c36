#![allow(clippy::needless_range_loop)] // nodes/states are index-parallel

//! Drives a cluster of [`watchmen::core::sans_io::ProtocolCore`]s over an
//! in-memory message bus: the full player-side protocol with no global
//! knowledge, exactly as it would run over UDP.
//!
//! The bus here is *instant* — every hop of a frame's traffic lands
//! inside that frame — which `watchmen::sim::cluster` (one hop per
//! frame over the simnet) cannot express; these tests are about what a
//! node does with same-frame arrivals, so they keep their own loop.

use std::collections::VecDeque;

use watchmen::core::audit::AuditRecord;
use watchmen::core::msg::SignedEnvelope;
use watchmen::core::node::{NodeEvent, Outgoing, WatchmenNode};
use watchmen::core::sans_io::{secured_cores, ProtocolCore};
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::{Keypair, PublicKey};
use watchmen::game::trace::{standard_trace, GameTrace, PlayerFrame};
use watchmen::game::PlayerId;
use watchmen::sim::workload::speed_hack;
use watchmen::telemetry::TraceId;
use watchmen::world::maps;

/// An in-memory cluster: N cores plus a FIFO bus.
struct Cluster {
    cores: Vec<ProtocolCore>,
    /// (wire sender, destination, bytes)
    bus: VecDeque<(PlayerId, PlayerId, Vec<u8>)>,
    events: Vec<(PlayerId, NodeEvent)>,
    /// Every datagram put on the bus: (frame, wire sender, trace id).
    sent: Vec<(u64, PlayerId, TraceId)>,
}

impl Cluster {
    fn new(players: usize, seed: u64) -> Self {
        let keys: Vec<Keypair> = (0..players).map(|i| Keypair::generate(seed ^ i as u64)).collect();
        let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
        let map = maps::q3dm17_like();
        let cores =
            secured_cores(&keys, &directory, None, seed, WatchmenConfig::default(), &map).collect();
        Cluster { cores, bus: VecDeque::new(), events: Vec::new(), sent: Vec::new() }
    }

    fn enqueue(&mut self, frame: u64, from: PlayerId, outgoing: Vec<Outgoing>) {
        for o in outgoing {
            let trace = SignedEnvelope::decode(&o.bytes).map_or(TraceId::NONE, |m| m.trace_id());
            self.sent.push((frame, from, trace));
            self.bus.push_back((from, o.to, o.bytes));
        }
    }

    /// Runs one honest frame.
    fn run_frame(&mut self, frame: u64, trace: &GameTrace) {
        self.run_frame_with(frame, trace, |_, _| {});
    }

    /// Runs one frame: every node publishes the state `falsify(player,
    /// state)` leaves it with, then the bus drains fully (instant
    /// delivery — latency is exercised by the simnet tests).
    fn run_frame_with(
        &mut self,
        frame: u64,
        trace: &GameTrace,
        mut falsify: impl FnMut(usize, &mut PlayerFrame),
    ) {
        for i in 0..self.cores.len() {
            let mut state = trace.frames[frame as usize].states[i];
            falsify(i, &mut state);
            let output = self.cores[i].tick(frame, &state);
            for e in output.events {
                self.events.push((PlayerId(i as u32), e));
            }
            self.enqueue(frame, PlayerId(i as u32), output.datagrams);
        }
        // Drain with a safety cap against forwarding loops.
        let mut hops = 0;
        while let Some((sender, to, bytes)) = self.bus.pop_front() {
            hops += 1;
            assert!(hops < 2_000_000, "message storm: forwarding loop?");
            let output = self.cores[to.index()].datagram(frame, sender, &bytes);
            self.enqueue(frame, to, output.datagrams);
            for e in output.events {
                self.events.push((to, e));
            }
        }
    }

    fn deliveries_about(&self, about: PlayerId, class: &str) -> usize {
        self.events
            .iter()
            .filter(|(receiver, e)| {
                *receiver != about
                    && matches!(e, NodeEvent::Delivery { about: a, class: c, .. }
                        if *a == about && *c == class)
            })
            .count()
    }

    fn suspicions_about(&self, subject: PlayerId) -> Vec<&NodeEvent> {
        self.events
            .iter()
            .filter_map(|(_, e)| match e {
                NodeEvent::Suspicion { subject: s, .. } if *s == subject => Some(e),
                _ => None,
            })
            .collect()
    }
}

#[test]
fn nodes_learn_about_each_other_and_deliver_updates() {
    let trace = standard_trace(6, 5, 80);
    let mut cluster = Cluster::new(6, 5);
    for f in 0..80 {
        cluster.run_frame(f, &trace);
    }
    // Position updates reach everyone (implicit subscription), so every
    // node eventually knows every other.
    for p in 0..6u32 {
        for q in 0..6u32 {
            if p != q {
                assert!(
                    cluster.cores[p as usize].node().known_state(PlayerId(q)).is_some(),
                    "p{p} never learned about p{q}"
                );
            }
        }
    }
    // And state updates flow to interest-set subscribers.
    let total_state: usize =
        (0..6u32).map(|p| cluster.deliveries_about(PlayerId(p), "state")).sum();
    assert!(total_state > 200, "only {total_state} state deliveries");
    let total_guidance: usize =
        (0..6u32).map(|p| cluster.deliveries_about(PlayerId(p), "guidance")).sum();
    let total_pos: usize =
        (0..6u32).map(|p| cluster.deliveries_about(PlayerId(p), "position")).sum();
    assert!(total_pos > 0, "no position updates forwarded");
    // Guidance flows only once VS subscriptions exist; with 6 players on
    // a big map the VS is often empty, so just require no storm.
    assert!(total_guidance < total_state);
}

#[test]
fn honest_cluster_raises_no_high_confidence_alarms() {
    let trace = standard_trace(5, 9, 60);
    let mut cluster = Cluster::new(5, 9);
    for f in 0..60 {
        cluster.run_frame(f, &trace);
    }
    let severe: Vec<_> = cluster
        .events
        .iter()
        .filter(|(_, e)| match e {
            NodeEvent::Suspicion { rating, .. } => rating.is_suspicious(),
            NodeEvent::BadSignature { .. } | NodeEvent::Replay { .. } => true,
            _ => false,
        })
        .collect();
    assert!(severe.is_empty(), "honest run raised: {severe:?}");
}

#[test]
fn proxies_rotate_and_handoffs_arrive() {
    let trace = standard_trace(6, 11, 130);
    let mut cluster = Cluster::new(6, 11);
    for f in 0..130 {
        cluster.run_frame(f, &trace);
    }
    // 130 frames cover three proxy epochs (period 40): handoffs happen.
    let handoffs = cluster
        .events
        .iter()
        .filter(|(_, e)| matches!(e, NodeEvent::HandoffReceived { .. }))
        .count();
    assert!(handoffs > 0, "no handoffs across 3 epochs");
    // Supervision exists and rotates.
    let supervised: usize = cluster.cores.iter().map(|c| c.node().supervised().len()).sum();
    assert!(supervised > 0);
}

#[test]
fn successor_judges_the_first_move_of_an_epoch_against_the_handoff() {
    // Player 2's first update of epoch 1 goes to a proxy that has never
    // seen it first-hand: its only physics baseline is the state the
    // epoch-0 proxy handed off. A teleport there must still be caught,
    // by the successor, while the honest move is not.
    const EPOCH: u64 = 40;
    let cheater = PlayerId(2);
    let trace = standard_trace(6, 11, EPOCH + 1);
    let honest_at = trace.frames[EPOCH as usize].states[2].position;
    let far = (0..6)
        .map(|i| trace.frames[EPOCH as usize].states[i].position)
        .max_by(|a, b| a.distance(honest_at).total_cmp(&b.distance(honest_at)))
        .expect("six players");
    assert!(far.distance(honest_at) > 100.0, "players too bunched for the test");

    let run = |teleport: bool| {
        let mut cluster = Cluster::new(6, 11);
        for f in 0..EPOCH {
            cluster.run_frame(f, &trace);
        }
        let before = cluster.events.len();
        cluster.run_frame_with(EPOCH, &trace, |i, state| {
            if teleport && i == cheater.index() {
                state.position = far;
            }
        });
        let node = cluster.cores[cheater.index()].node();
        let (predecessor, successor) = (node.proxy(EPOCH - 1), node.proxy(EPOCH));
        assert_ne!(predecessor, successor, "the seed must rotate player 2's proxy");
        let handed_off = cluster.events[..before].iter().any(|(at, e)| {
            *at == successor
                && matches!(e, NodeEvent::HandoffReceived { player, .. } if *player == cheater)
        });
        assert!(handed_off, "the successor never received player 2's handoff");
        cluster.events[before..]
            .iter()
            .filter(|(at, e)| {
                *at == successor
                    && matches!(e, NodeEvent::Suspicion { subject, rating, check }
                        if *subject == cheater && *check == "position" && rating.is_suspicious())
            })
            .count()
    };
    assert!(run(true) > 0, "teleport across the epoch boundary went unflagged");
    assert_eq!(run(false), 0, "the honest first move of the epoch was flagged");
}

#[test]
fn tampering_proxy_is_caught_by_receivers() {
    let trace = standard_trace(4, 13, 10);
    let mut cluster = Cluster::new(4, 13);
    // Run a few frames honestly.
    for f in 0..5 {
        cluster.run_frame(f, &trace);
    }
    // Now inject a tampered message: take a node's outgoing state update,
    // flip a payload byte, and deliver it claiming to be forwarded.
    let out = cluster.cores[0].tick(5, &trace.frames[5].states[0]).datagrams;
    let victim = out.iter().find(|o| o.bytes.len() > 60).expect("a state update");
    let mut tampered = victim.bytes.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0xff;
    let events = cluster.cores[1].datagram(5, PlayerId(2), &tampered).events;
    assert!(
        events.iter().any(|e| matches!(e, NodeEvent::BadSignature { .. })),
        "tampered bytes accepted: {events:?}"
    );
}

#[test]
fn replayed_bytes_are_flagged() {
    let trace = standard_trace(4, 17, 10);
    let mut cluster = Cluster::new(4, 17);
    let out = cluster.cores[0].tick(0, &trace.frames[0].states[0]).datagrams;
    let msg = out.first().expect("something sent").clone();
    // First delivery is fine…
    let first = cluster.cores[msg.to.index()].datagram(0, PlayerId(0), &msg.bytes).events;
    assert!(!first.iter().any(|e| matches!(e, NodeEvent::Replay { .. })));
    // …the byte-identical second one is a replay.
    let second = cluster.cores[msg.to.index()].datagram(0, PlayerId(0), &msg.bytes).events;
    assert!(second.iter().any(|e| matches!(e, NodeEvent::Replay { .. })), "{second:?}");
}

/// Player 2 lies: every 4th frame it reports a teleported position.
fn speed_hack_at(frame: u64) -> impl FnMut(usize, &mut PlayerFrame) {
    move |i, state| {
        if i == 2 {
            speed_hack(state, frame);
        }
    }
}

#[test]
fn speed_hacking_node_draws_proxy_suspicion() {
    let trace = standard_trace(5, 23, 120);
    let mut cluster = Cluster::new(5, 23);
    for f in 0..120 {
        cluster.run_frame_with(f, &trace, speed_hack_at(f));
    }
    let cheater_flags = cluster.suspicions_about(PlayerId(2));
    let severe_position = |events: &[&NodeEvent]| {
        events
            .iter()
            .filter(|e| {
                matches!(e, NodeEvent::Suspicion { rating, check, .. }
                    if rating.is_suspicious() && *check == "position")
            })
            .count()
    };
    assert!(
        severe_position(&cheater_flags) > 3,
        "speed hacker never strongly flagged: {} suspicions",
        cheater_flags.len()
    );
    // Honest players draw no severe *position* flags. (A cheater's faked
    // positions can poison the knowledge behind honest players'
    // subscription checks — collateral the reputation layer absorbs — but
    // the physics check itself must never misfire on honest movement.)
    for honest in [0u32, 1, 3, 4] {
        let flags = cluster.suspicions_about(PlayerId(honest));
        assert_eq!(severe_position(&flags), 0, "honest p{honest} flagged severely");
    }
}

#[test]
fn violations_are_audited_with_their_causal_chain() {
    use watchmen::core::audit::AuditKind;
    use watchmen::core::rating::SEVERE_SCORE;

    let trace = standard_trace(5, 23, 120);
    // Same speed-hack scenario as above: player 2 teleports.
    let (cluster, audit) = speed_hacked(&trace, |c| c);

    // Some proxy of player 2 must have audited severe position verdicts.
    let verdicts: Vec<_> = audit
        .iter()
        .filter(|r| {
            r.kind == AuditKind::Verdict
                && r.check == "position"
                && r.subject == 2
                && r.score >= SEVERE_SCORE
        })
        .collect();
    assert!(!verdicts.is_empty(), "no severe position verdict audited");

    // Each verdict names the offending message, and the run's own
    // datagrams carrying that trace id are its chain: p2's send first,
    // then any proxy relays, then the verdict, in frame order.
    let mut relayed = 0;
    for verdict in &verdicts {
        assert!(verdict.trace.is_some(), "verdict lost its trace id: {verdict:?}");
        let hops: Vec<(u64, PlayerId)> = cluster
            .sent
            .iter()
            .filter(|&&(_, _, t)| t == verdict.trace)
            .map(|&(frame, sender, _)| (frame, sender))
            .collect();
        let Some(&(sent_at, PlayerId(2))) = hops.first() else {
            panic!("the chain of {verdict:?} does not start with p2's send: {hops:?}");
        };
        let relays: Vec<u64> = hops.iter().filter(|h| h.1 != PlayerId(2)).map(|h| h.0).collect();
        assert!(relays.iter().all(|&f| f >= sent_at), "a relay before its send: {hops:?}");
        assert!(verdict.frame >= sent_at, "{verdict:?} before its send at frame {sent_at}");
        relayed += usize::from(!relays.is_empty());
    }
    // State updates fan out to subscribers once there are any.
    assert!(relayed > 0, "no proxy relayed an offending message");
}

/// Runs 5 nodes for 120 frames with player 2 speed-hacking, each node
/// passed through `build` first; returns the cluster and the audit
/// streams, drained every frame as an embedding driver does.
fn speed_hacked(
    trace: &GameTrace,
    build: impl Fn(WatchmenNode) -> WatchmenNode,
) -> (Cluster, Vec<AuditRecord>) {
    let mut cluster = Cluster::new(5, 23);
    cluster.cores =
        cluster.cores.into_iter().map(|c| ProtocolCore::new(build(c.into_node()))).collect();
    let mut audit = Vec::new();
    for f in 0..120 {
        cluster.run_frame_with(f, trace, speed_hack_at(f));
        audit.extend(cluster.cores.iter_mut().flat_map(ProtocolCore::drain_audit));
    }
    (cluster, audit)
}

/// `with_recorder_capacity` is a no-op kept for the benchmark ledger's
/// call: a node built through it runs exactly like one built without.
#[test]
fn the_recorder_shim_changes_nothing() {
    let trace = standard_trace(5, 23, 120);
    let (bare, bare_audit) = speed_hacked(&trace, |c| c);
    let (shimmed, shimmed_audit) = speed_hacked(&trace, |c| c.with_recorder_capacity(128));
    assert!(!bare_audit.is_empty());
    assert_eq!((bare.events, bare_audit), (shimmed.events, shimmed_audit));
}

#[test]
fn kill_claims_are_verified_by_proxies_and_witnesses() {
    use watchmen::core::msg::KillClaim;
    use watchmen::game::WeaponKind;

    let trace = standard_trace(6, 29, 40);
    let mut cluster = Cluster::new(6, 29);
    for f in 0..40 {
        cluster.run_frame(f, &trace);
    }
    // Player 0 fabricates a shotgun kill on the farthest player — far
    // beyond the weapon's 40-unit reach, an impossible claim by rule.
    let attacker_pos = trace.frames[39].states[0].position;
    let victim = (1..6u32)
        .max_by(|&a, &b| {
            let da = trace.frames[39].states[a as usize].position.distance(attacker_pos);
            let db = trace.frames[39].states[b as usize].position.distance(attacker_pos);
            da.partial_cmp(&db).unwrap()
        })
        .map(PlayerId)
        .unwrap();
    let victim_pos = trace.frames[39].states[victim.index()].position;
    assert!(victim_pos.distance(attacker_pos) > 60.0, "players too bunched for the test");
    let claim = KillClaim {
        victim,
        weapon: WeaponKind::Shotgun,
        attacker_position: attacker_pos,
        victim_position: victim_pos,
    };

    let out = cluster.cores[0].claim_kill(40, claim).datagrams;
    assert!(!out.is_empty());
    let mut flagged = false;
    for o in out {
        let output = cluster.cores[o.to.index()].datagram(40, PlayerId(0), &o.bytes);
        for e in &output.events {
            if matches!(e, NodeEvent::Suspicion { subject, check, rating }
                if *subject == PlayerId(0) && *check == "kill" && rating.is_suspicious())
            {
                flagged = true;
            }
        }
        // Witness forwarding can add further verifiers.
        for f2 in output.datagrams {
            let ev = cluster.cores[f2.to.index()].datagram(40, o.to, &f2.bytes).events;
            for e in &ev {
                if matches!(e, NodeEvent::Suspicion { subject, check, rating }
                    if *subject == PlayerId(0) && *check == "kill" && rating.is_suspicious())
                {
                    flagged = true;
                }
            }
        }
    }
    assert!(flagged, "fabricated kill claim went unflagged");
}
