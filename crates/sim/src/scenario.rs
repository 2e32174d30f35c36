//! The scripted soaks, each held once.
//!
//! A scenario is a fixed script — who crashes when, who joins, who
//! leaves — run on a [`Cluster`] of honest secured nodes over a faulted
//! simnet. Each returns the finished cluster (for assertions about
//! individual nodes) and a typed outcome whose [`Report`] is the summary
//! line and the gate: `tests/control_plane_e2e.rs` and
//! `tests/churn_e2e.rs` assert on it, and `examples/deathmatch.rs` exits
//! non-zero when it fails. All players are honest, so every severe
//! verdict is a false one.

use std::collections::BTreeMap;

use watchmen_core::lobby::GameLobby;
use watchmen_core::node::{ChurnStats, ControlPlaneStats, NodeEvent, Outgoing, WatchmenNode};
use watchmen_core::proxy::ProxySchedule;
use watchmen_core::sans_io::{secured_cores, CoreOutput, ProtocolCore};
use watchmen_core::WatchmenConfig;
use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_crypto::Sha256;
use watchmen_game::trace::GameTrace;
use watchmen_game::{GameConfig, PlayerId};
use watchmen_net::fault::{FaultPlan, GilbertElliott};
use watchmen_net::{latency, NetStats, SimNetwork};
use watchmen_telemetry::report::Report;
use watchmen_world::{maps, GameMap, PhysicsConfig};

use crate::cluster::{Cluster, Verdicts};

const FRAME_MS: f64 = 50.0;

/// The protocol configuration both soaks run: a proxy is presumed
/// crashed after two silent relay periods (40 frames) — quick enough
/// that the fallback engages inside the scripted crash window, but
/// tolerant of a single lost broadcast cycle (k = 1 flaps under 5% burst
/// loss, and a false crash presumption diverts traffic away from a live
/// proxy).
#[must_use]
pub fn soak_config() -> WatchmenConfig {
    let config = WatchmenConfig { proxy_liveness_k: 2, ..WatchmenConfig::default() };
    config.validate();
    config
}

/// An open arena: the soaks gate on *transport*-level recovery, and the
/// position checker's wall-geometry corner cases (corner-clip lerp
/// samples, platform landings) fire even on a perfectly honest q3dm17
/// trace — a physics-check concern, not a transport one.
fn soak_map() -> GameMap {
    maps::arena(32, 10.0)
}

fn soak_net(nodes: usize, plan: FaultPlan) -> SimNetwork<Vec<u8>> {
    let mut net = SimNetwork::new(nodes, latency::constant(8.0), 0.0, 77);
    net.set_fault_plan(plan);
    net
}

/// Appends one line per severe verdict in `output` to `severe`.
fn note_severe(severe: &mut Vec<String>, frame: u64, observer: usize, output: &CoreOutput) {
    for e in &output.events {
        if let NodeEvent::Suspicion { subject, rating, check } = e {
            if rating.is_suspicious() {
                severe.push(format!(
                    "frame {frame}: node {observer} rated p{} {}/10 on {check}",
                    subject.0, rating.score
                ));
            }
        }
    }
}

/// SHA-256 over every datagram a soak put on the wire — `(frame, slot,
/// to, bytes)` — and the `Debug` of every event, in `Cluster::step`
/// order: one value that moves if any wire byte or event does.
struct WireDigest(Sha256);

impl WireDigest {
    fn new() -> Self {
        WireDigest(Sha256::new())
    }

    fn fold(&mut self, frame: u64, slot: usize, datagrams: &[Outgoing], events: &[NodeEvent]) {
        for o in datagrams {
            self.0.update(&frame.to_le_bytes());
            self.0.update(&(slot as u64).to_le_bytes());
            self.0.update(&o.to.0.to_le_bytes());
            self.0.update(&(o.bytes.len() as u64).to_le_bytes());
            self.0.update(&o.bytes);
        }
        for e in events {
            self.0.update(format!("{e:?}\n").as_bytes());
        }
    }

    fn finish(self) -> [u8; 32] {
        self.0.finalize()
    }
}

// ---------------------------------------------------------------------
// Control plane under faults
// ---------------------------------------------------------------------

/// The fault plan `deathmatch` soaks under: 5% burst loss, 1%
/// duplication, a quarter of messages delayed by up to 40 ms (under one
/// frame, so reordering produces single-frame swaps, not multi-frame time
/// travel).
#[must_use]
pub fn default_fault_plan() -> FaultPlan {
    FaultPlan::new(9)
        .with_burst_loss(GilbertElliott::with_mean_loss(0.05))
        .with_duplication(0.01)
        .with_reordering(0.25, 40.0)
}

/// What [`control_plane_soak`] observed.
#[derive(Debug, Clone)]
pub struct ControlPlaneOutcome {
    /// One line per severe verdict raised (all false by construction).
    pub severe: Vec<String>,
    /// Handoff chains delivered.
    pub handoffs_received: u64,
    /// Every node's control-plane counters, summed.
    pub control: ControlPlaneStats,
    /// Handoff chains still unrecovered after the drain, summed.
    pub pending_handoffs: u64,
    /// The network's counters at the end of the run.
    pub net: NetStats,
    /// SHA-256 of every datagram and event of the run (see `WireDigest`).
    pub wire_digest: [u8; 32],
}

impl ControlPlaneOutcome {
    /// The `fault summary:` report. Its gate: the fault plan engaged, the
    /// reliable layer did real work, fully recovered and fell back around
    /// the crashed proxy, and nobody was falsely accused.
    #[must_use]
    pub fn report(&self) -> Report {
        let (c, net) = (&self.control, &self.net);
        Report::new("fault summary")
            .figure("retransmits", c.retransmits, c.retransmits > 0)
            .figure("acks", c.acks_received, true)
            .figure("fallbacks", c.proxy_fallbacks, c.proxy_fallbacks >= 1)
            .figure("abandoned", c.abandoned, c.abandoned == 0)
            .figure("pending_handoffs", self.pending_handoffs, self.pending_handoffs == 0)
            .figure("handoffs_received", self.handoffs_received, self.handoffs_received > 0)
            .figure("severe_false_verdicts", self.severe.len(), self.severe.is_empty())
            .figure("dup", net.duplicated, true)
            .figure("dropped", net.dropped, net.dropped > 0)
    }
}

/// Runs 16 secured nodes for eight proxy epochs plus a 60-frame drain
/// for retransmissions to finish, under `plan` plus a scripted crash —
/// frames 55..125, spanning the epoch boundary at 80 — of whichever node
/// the shared schedule makes player 0's proxy in epoch 2, so the
/// liveness fallback is always exercised.
#[must_use]
pub fn control_plane_soak(plan: FaultPlan) -> (Cluster, ControlPlaneOutcome) {
    const N: usize = 16;
    const SEED: u64 = 2013;
    const FRAMES: u64 = 320 + 60;
    let config = soak_config();
    let schedule = ProxySchedule::new(SEED, N, config.proxy_period);
    let crashed = schedule.proxy_of(PlayerId(0), 2 * config.proxy_period);
    let plan = plan.with_crash(crashed.index(), 55.0 * FRAME_MS, 125.0 * FRAME_MS);

    let keys: Vec<Keypair> = (0..N).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    let map = soak_map();
    let mut cluster = Cluster::new(
        secured_cores(&keys, &directory, None, SEED, config, &map),
        soak_net(N, plan),
        FRAME_MS,
    );
    let trace = GameTrace::record(GameConfig { map, ..GameConfig::default() }, N, SEED, FRAMES);

    let mut severe = Vec::new();
    let mut verdicts = Verdicts::default();
    let mut digest = WireDigest::new();
    for f in 0..FRAMES {
        // A crashed node does not tick at all; on recovery its own gap
        // detection resets its liveness view and suppresses the
        // partially-observed epoch's summary.
        cluster.step(
            f,
            |i| trace.frames[f as usize].states[i],
            |i, output| {
                assert!(
                    output.datagrams.iter().all(|o| o.to.index() != i),
                    "frame {f}: node {i} addressed a datagram to itself"
                );
                note_severe(&mut severe, f, i, output);
                digest.fold(f, i, &output.datagrams, &output.events);
                verdicts.note(&output.events);
            },
        );
    }

    let net = cluster.net.stats();
    net.assert_invariant("control-plane soak");
    let (mut control, mut pending_handoffs) = (ControlPlaneStats::default(), 0);
    for core in cluster.cores.iter().flatten() {
        control += core.node().control_stats();
        pending_handoffs += core.node().pending_handoffs() as u64;
    }
    let outcome = ControlPlaneOutcome {
        severe,
        handoffs_received: verdicts.handoffs_received,
        control,
        pending_handoffs,
        net,
        wire_digest: digest.finish(),
    };
    (cluster, outcome)
}

// ---------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------

/// Players present from frame 0 in the churn soak.
pub const CHURN_VETERANS: usize = 16;
/// Mid-game joiners, seated in slots `CHURN_VETERANS..`.
pub const CHURN_JOINERS: usize = 4;
/// Enough epochs (period 40) for all joins, both leaves, and the
/// membership-timeout evictions to be announced and applied, then a
/// drain period for retransmissions to finish.
const CHURN_FRAMES: u64 = 840 + 40;
/// The churn script, in frames. Windows are deliberately non-overlapping:
/// each join's lobby snapshot is taken while no departure delta is still
/// in flight (see DESIGN.md §10 on the snapshot/activation window). A
/// membership event roughly every other second is the densest the
/// one-epoch join window admits.
const JOIN_FRAMES: [u64; CHURN_JOINERS] = [50, 130, 210, 290];
/// `(slot, announce frame)` of each graceful leave.
pub const CHURN_LEAVES: [(usize, u64); 2] = [(3, 370), (5, 450)];
/// Slots that crash for good (and are evicted on membership timeout).
pub const CHURN_CRASHED: [usize; 2] = [7, 9];
const CRASH_FRAME: u64 = 530;

/// What [`churn_soak`] observed.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// The churn counters of veteran 0, who survives to the end.
    pub witness: ChurnStats,
    /// Joiners that got their bootstrap within one epoch of admission
    /// and became active members.
    pub joiners_converged: u64,
    /// Renewal boundaries at which roster agreement was checked.
    pub boundaries: u64,
    /// The first boundary at which two running active members held
    /// different rosters, if any.
    pub roster_divergence: Option<String>,
    /// One line per severe verdict raised (all false by construction).
    pub severe: Vec<String>,
    /// One line per signature rejection (none expected: churn traffic
    /// must never score as forgery).
    pub bad_signatures: Vec<String>,
    /// Joiner slot → the admission boundary on its ticket.
    pub admit_frames: BTreeMap<usize, u64>,
    /// Joiner slot → the frame its first bootstrap arrived.
    pub bootstrap_frames: BTreeMap<usize, u64>,
    /// SHA-256 of every datagram and event of the run, leave
    /// announcements included (see `WireDigest`).
    pub wire_digest: [u8; 32],
}

impl ChurnOutcome {
    /// The `churn summary:` report. Its gate: the whole lifecycle ran,
    /// every joiner converged, every running active member agreed on the
    /// roster at every boundary, and nobody was falsely accused.
    #[must_use]
    pub fn report(&self) -> Report {
        let w = &self.witness;
        let agreed = self.roster_divergence.is_none();
        Report::new("churn summary")
            .figure("joins", w.joins_applied, w.joins_applied == CHURN_JOINERS as u64)
            .figure("leaves", w.leaves_applied, w.leaves_applied == CHURN_LEAVES.len() as u64)
            .figure(
                "evictions",
                w.evictions_applied,
                w.evictions_applied == CHURN_CRASHED.len() as u64,
            )
            .figure(
                "joiners_converged",
                self.joiners_converged,
                self.joiners_converged == w.joins_applied,
            )
            .figure("boundaries", self.boundaries, true)
            .figure("roster_agreement", agreed, agreed)
            .figure("false_verdicts", self.severe.len(), self.severe.is_empty())
            .figure("bad_signatures", self.bad_signatures.len(), self.bad_signatures.is_empty())
    }
}

/// Runs [`CHURN_VETERANS`] secured nodes plus a lobby with signing keys
/// through [`CHURN_JOINERS`] mid-game joins, two graceful leaves and two
/// crash-evictions under 5% burst loss and 1% duplication, checking
/// roster agreement across all running active members at every renewal
/// boundary.
///
/// # Panics
///
/// Panics if the lobby refuses a scripted admission or hands out a
/// non-dense id.
#[must_use]
pub fn churn_soak() -> (Cluster, ChurnOutcome) {
    const TOTAL: usize = CHURN_VETERANS + CHURN_JOINERS;
    const SEED: u64 = 4177;
    let config = soak_config();
    let period = config.proxy_period;

    // The lobby owns admission: veterans register up front, joiners get
    // signed tickets mid-match.
    let mut lobby = GameLobby::new(SEED, config, config.membership_timeout_frames)
        .with_keys(Keypair::generate(SEED ^ 0x10bb));
    let keys: Vec<Keypair> = (0..TOTAL).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
    for k in &keys[..CHURN_VETERANS] {
        lobby.register(k.public());
    }
    lobby.start();
    let lobby_key = lobby.lobby_key().expect("lobby has keys");

    let mut plan = FaultPlan::new(0xc4)
        .with_burst_loss(GilbertElliott::with_mean_loss(0.05))
        .with_duplication(0.01);
    for (j, &f) in JOIN_FRAMES.iter().enumerate() {
        plan = plan.with_join(CHURN_VETERANS + j, f as f64 * FRAME_MS);
    }
    for &(leaver, announce) in &CHURN_LEAVES {
        // The node unplugs a few frames after its announced departure
        // boundary, leaving room for final acks.
        let unplug = ((announce.div_ceil(period) + 1) * period + 10) as f64 * FRAME_MS;
        plan = plan.with_leave(leaver, unplug);
    }
    for &c in &CHURN_CRASHED {
        plan = plan.with_crash(c, CRASH_FRAME as f64 * FRAME_MS, f64::INFINITY);
    }

    let map = soak_map();
    let mut cluster = Cluster::new(
        secured_cores(
            &keys[..CHURN_VETERANS],
            lobby.directory(),
            Some(lobby_key),
            SEED,
            config,
            &map,
        ),
        soak_net(TOTAL, plan),
        FRAME_MS,
    );
    let trace = GameTrace::record(
        GameConfig { map: map.clone(), ..GameConfig::default() },
        TOTAL,
        SEED,
        CHURN_FRAMES,
    );

    let (mut severe, mut bad_signatures) = (Vec::new(), Vec::new());
    let mut bootstrap_frames: BTreeMap<usize, u64> = BTreeMap::new();
    let mut admit_frames: BTreeMap<usize, u64> = BTreeMap::new();
    let mut roster_divergence = None;
    let mut boundaries = 0u64;
    let mut digest = WireDigest::new();

    for f in 0..CHURN_FRAMES {
        if let Some(j) = JOIN_FRAMES.iter().position(|&at| at == f) {
            let slot = CHURN_VETERANS + j;
            let (id, ticket, roster) =
                lobby.admit_midgame(keys[slot].public(), f).expect("mid-game admission");
            assert_eq!(id.index(), slot, "lobby must hand out dense ids");
            admit_frames.insert(slot, ticket.admit_frame);
            cluster.cores[slot] = Some(ProtocolCore::new(WatchmenNode::new_joining(
                id,
                keys[slot].clone(),
                roster,
                ticket,
                lobby_key,
                SEED,
                config,
                map.clone(),
                PhysicsConfig::default(),
            )));
        }
        for &(leaver, announce) in &CHURN_LEAVES {
            if f == announce {
                lobby.leave(PlayerId(leaver as u32), f);
                let out = cluster.cores[leaver].as_mut().expect("leaver exists").announce_leave(f);
                digest.fold(f, leaver, &out.datagrams, &out.events);
                cluster.send(leaver, out.datagrams);
            }
        }

        cluster.step(
            f,
            |i| trace.frames[f as usize].states[i],
            |i, output| {
                note_severe(&mut severe, f, i, output);
                digest.fold(f, i, &output.datagrams, &output.events);
                for e in &output.events {
                    match e {
                        NodeEvent::BadSignature { claimed_from } => {
                            bad_signatures
                                .push(format!("frame {f}: node {i} vs p{}", claimed_from.0));
                        }
                        NodeEvent::BootstrapReceived { .. } => {
                            bootstrap_frames.entry(i).or_insert(f);
                        }
                        _ => {}
                    }
                }
            },
        );

        // Roster agreement at every renewal boundary: every running,
        // active member holds the identical epoch and digest.
        if f > 0 && f % period == 0 {
            let mut views = (0..TOTAL)
                .filter(|&i| cluster.is_running(i) && cluster.node(i).is_active_member())
                .map(|i| (i, cluster.node(i).roster_epoch(), cluster.node(i).roster_digest()));
            let (first, e0, d0) = views.next().expect("someone is always running");
            if let Some((i, e, _)) = views.find(|&(_, e, d)| (e, d) != (e0, d0)) {
                roster_divergence.get_or_insert_with(|| {
                    format!(
                        "boundary {f}: node {i} roster (epoch {e}) diverged from node {first}'s \
                         (epoch {e0})"
                    )
                });
            }
            boundaries += 1;
        }
    }

    cluster.net.stats().assert_invariant("churn soak");
    let joiners_converged = admit_frames
        .iter()
        .filter(|&(&slot, &admit)| {
            bootstrap_frames.get(&slot).is_some_and(|&got| got <= admit + period)
                && cluster.node(slot).is_active_member()
        })
        .count() as u64;
    let outcome = ChurnOutcome {
        witness: cluster.node(0).churn_stats(),
        joiners_converged,
        boundaries,
        roster_divergence,
        severe,
        bad_signatures,
        admit_frames,
        bootstrap_frames,
        wire_digest: digest.finish(),
    };
    (cluster, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Under loss this heavy a handoff's scheduled successor looks crashed
    /// while the sender itself is the fallback draw; the retransmit used
    /// to address the sender's own id and trip the network's self-send
    /// assertion. Recovery is not expected at 39 % loss, only survival.
    #[test]
    fn no_node_addresses_itself_under_heavy_loss() {
        let plan = FaultPlan::new(0)
            .with_burst_loss(GilbertElliott::with_mean_loss(0.39))
            .with_duplication(0.2);
        let (_, outcome) = control_plane_soak(plan);
        assert!(outcome.net.dropped > 0 && outcome.control.retransmits > 0, "{}", outcome.report());
    }

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Both soaks, byte for byte: every datagram and event of the default
    /// fault plan and of the churn script, against digests captured before
    /// the node was split into components. Never regenerate these: a
    /// mismatch means a wire byte, an event or their order moved.
    #[test]
    fn soaks_match_the_capture() {
        let (_, control) = control_plane_soak(default_fault_plan());
        let (_, churn) = churn_soak();
        assert_eq!(
            [hex(control.wire_digest), hex(churn.wire_digest)],
            [
                "47d736921e80fb1f26ec0158e01c88bffbb4de237d16fcddfb493cbf1149a1d2",
                "5711574d0bbbc779bdd5685cfb76e9e0b286b424f9bd21d97d0a7cac96c20b9e",
            ]
        );
    }
}
