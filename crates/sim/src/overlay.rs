//! Message-flow drivers: replaying a recorded game over a simulated
//! network under each architecture.
//!
//! This is the reproduction of the paper's replay engine, which "can
//! replay game traces and generate the same network traffic repeatedly and
//! under different networking and proxy architectures to measure different
//! aspects of the performance (e.g., latency)". Three drivers share the
//! [`OverlayReport`] output:
//!
//! * [`run_watchmen`] — the shipped node: one secured
//!   [`watchmen_core::sans_io::ProtocolCore`] per player on a
//!   [`Cluster`], fed the trace frame by frame. Everything Watchmen does
//!   on the wire — signed updates routed player → proxy → subscribers,
//!   subscribe/unsubscribe, handoffs, acks, retransmits — is the node's
//!   own traffic; this module only counts it.
//! * [`run_donnybrook`] — the multi-resolution baseline: direct frequent
//!   updates to interest-set subscribers, dead reckoning to everyone else.
//! * [`run_client_server`] — the optimal-exposure baseline: one server
//!   relays frequent updates for PVS-visible avatars only.
//!
//! The baselines are not Watchmen and have no node, so they keep their
//! own minimal loops — on the node's clock and codec. All three consume
//! deliveries at frame boundaries, so **age = the frame in which the
//! receiver's game loop consumes an update − the frame it was generated
//! in**, and baseline messages weigh what [`Envelope::sign_encoded`]
//! produces for the same payload.
//!
//! [`run_witnesses`] (Figure 5) and Figure 4 ([`crate::disclosure`])
//! read the same node replay, under the King-like set, through one
//! read-only tap, the holdings table: per (holder, subject), the
//! generation frame of the latest consumed `state`, `guidance` and
//! `position` delivery, and each player's **effective proxy** per frame
//! — the destination of its own first `State` datagram that frame
//! (fallback draws under loss included). Figure 5 plays it with 1 %
//! loss, as Figure 7 does. Cheaters are players `0..c`, honest players
//! the rest, and at each sampled frame `f`, for each cheater `x` that
//! published its state in `f`:
//!
//! * `x`'s proxy is an honest proxy when it is not a cheater.
//! * An **IS witness** is an honest node other than that proxy whose
//!   latest `state` about `x` is under `LOSS_AGE_FRAMES` old.
//! * A **VS witness** is, otherwise, such a node whose latest `guidance`
//!   about `x` is under `GUIDANCE_PERIOD + LOSS_AGE_FRAMES` old.
//!
//! Frames before `OTHERS_PERIOD + LOSS_AGE_FRAMES` are not sampled:
//! subscriptions and the first guidance round are still settling.
//!
//! Figure 6 and Table I ([`crate::detection`]) play the same replay with
//! a cheater scripted through the replay's one hook, the crate-private
//! `Script`, which `()` leaves as recorded, and read the honest nodes'
//! `Subscribe`s off the same holdings table.

use watchmen_core::dead_reckoning::Guidance;
use watchmen_core::msg::{Envelope, Payload, SignedEnvelope, StateUpdate};
use watchmen_core::node::NodeEvent;
use watchmen_core::sans_io::{secured_cores, CoreOutput};
use watchmen_core::subscription::{compute_sets, NoRecency};
use watchmen_core::WatchmenConfig;
use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_game::trace::{GameTrace, PlayerFrame};
use watchmen_game::PlayerId;
use watchmen_math::stats::Histogram;
use watchmen_net::latency::{self, LatencyModel};
use watchmen_net::SimNetwork;
use watchmen_world::{potentially_visible_set, GameMap};

use crate::cluster::Cluster;
use crate::detection::Count;
use crate::report::render_table;
use crate::workload::Workload;

/// A baseline update on the simulated wire: about whom, generated when.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Update {
    about: PlayerId,
    gen_frame: u64,
}

/// Bytes `payload` occupies on the wire once the shipped codec has
/// enveloped and signed it.
fn signed_len(payload: Payload) -> usize {
    Envelope { from: PlayerId(0), seq: 0, frame: 0, payload }
        .sign_encoded(&Keypair::generate(0))
        .len()
}

/// [`signed_len`] of the frequent update carrying `state`.
pub(crate) fn state_len(state: &PlayerFrame) -> usize {
    signed_len(Payload::State(StateUpdate::from(state)))
}

/// Metrics from one overlay run — the raw material for Figure 7 and the
/// scalability table.
#[derive(Debug)]
pub struct OverlayReport {
    /// Which driver produced this.
    pub architecture: &'static str,
    /// Latency model name.
    pub latency_model: String,
    /// Frames replayed.
    pub frames: u64,
    /// Player count (excluding any server node).
    pub players: usize,
    /// Histogram of delivered-update ages in frames (Figure 7's PDF).
    pub ages: Histogram,
    /// Updates arriving `LOSS_AGE_FRAMES` or older, plus network drops,
    /// as a fraction of all updates sent to final consumers.
    pub late_or_lost: f64,
    /// Mean per-player upload in kbps.
    pub mean_up_kbps: f64,
    /// Maximum per-player upload in kbps.
    pub max_up_kbps: f64,
    /// Mean per-player download in kbps.
    pub mean_down_kbps: f64,
    /// Server upload in kbps (client/server only, else 0).
    pub server_up_kbps: f64,
    /// Total updates delivered to final consumers.
    pub updates_delivered: u64,
    /// Messages dropped by the network.
    pub network_dropped: u64,
}

impl OverlayReport {
    /// The fraction of delivered updates with age `< frames`.
    #[must_use]
    pub fn fraction_younger_than(&self, frames: u64) -> f64 {
        (0..frames.min(self.ages.buckets() as u64)).map(|i| self.ages.fraction(i as usize)).sum()
    }
}

/// Shared age/accounting state.
pub(crate) struct Metrics {
    ages: Histogram,
    delivered: u64,
    late: u64,
    loss_age: u64,
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            ages: Histogram::new(0.0, 10.0, 10),
            delivered: 0,
            late: 0,
            loss_age: WatchmenConfig::LOSS_AGE_FRAMES,
        }
    }

    /// One update generated in `gen_frame`, consumed by its receiver's
    /// game loop in `consume_frame`.
    fn record(&mut self, gen_frame: u64, consume_frame: u64) {
        let age = consume_frame.saturating_sub(gen_frame) as f64;
        self.ages.push(age);
        self.delivered += 1;
        if age >= self.loss_age as f64 {
            self.late += 1;
        }
    }
}

fn finish_report<T>(
    architecture: &'static str,
    net: &SimNetwork<T>,
    metrics: Metrics,
    players: usize,
    frames: u64,
    config: &WatchmenConfig,
    server: Option<usize>,
) -> OverlayReport {
    let elapsed_ms = frames as f64 * config.frame_ms;
    let ups: Vec<f64> = (0..players).map(|i| net.meter(i).up_kbps(elapsed_ms)).collect();
    let downs: Vec<f64> = (0..players).map(|i| net.meter(i).down_kbps(elapsed_ms)).collect();
    let dropped = net.stats().dropped;
    let denominator = (metrics.delivered + dropped).max(1);
    OverlayReport {
        architecture,
        latency_model: net.latency_name().to_owned(),
        frames,
        players,
        late_or_lost: (metrics.late + dropped) as f64 / denominator as f64,
        mean_up_kbps: ups.iter().sum::<f64>() / players as f64,
        max_up_kbps: ups.iter().copied().fold(0.0, f64::max),
        mean_down_kbps: downs.iter().sum::<f64>() / players as f64,
        server_up_kbps: server.map_or(0.0, |s| net.meter(s).up_kbps(elapsed_ms)),
        updates_delivered: metrics.delivered,
        network_dropped: dropped,
        ages: metrics.ages,
    }
}

/// Runs the full Watchmen architecture over the trace: the shipped
/// secured node, one per player, seated on a [`Cluster`].
///
/// # Panics
///
/// Panics if the trace has fewer than 2 players or is empty.
#[must_use]
pub fn run_watchmen(
    trace: &GameTrace,
    map: &GameMap,
    config: &WatchmenConfig,
    latency: Box<dyn LatencyModel>,
    loss_rate: f64,
    seed: u64,
) -> OverlayReport {
    let (cluster, metrics) = replay_watchmen(trace, map, config, latency, loss_rate, seed, &mut ());
    finish_report(
        "watchmen",
        &cluster.net,
        metrics,
        trace.players,
        trace.len() as u64,
        config,
        None,
    )
}

/// What a node replay does beside playing the recorded trace. Every
/// method defaults to nothing, so `()` replays the trace as recorded.
pub(crate) trait Script {
    /// Rewrites `slot`'s recorded `state` right before its tick in `frame`.
    fn state(&mut self, _frame: u64, _slot: usize, _state: &mut PlayerFrame) {}

    /// Runs once `frame`'s step is over; may put datagrams on the wire.
    fn after_step(&mut self, _frame: u64, _cluster: &mut Cluster) {}

    /// Sees every slot's output in `frame`; the datagrams it leaves in
    /// `output` are the ones that go on the wire.
    fn observe(&mut self, _frame: u64, _slot: usize, _output: &mut CoreOutput) {}
}

impl Script for () {}

/// Steps a cluster of secured nodes through the trace under `script`,
/// recording the age of every update a node's frame consumes.
pub(crate) fn replay_watchmen(
    trace: &GameTrace,
    map: &GameMap,
    config: &WatchmenConfig,
    latency: Box<dyn LatencyModel>,
    loss_rate: f64,
    seed: u64,
    script: &mut impl Script,
) -> (Cluster, Metrics) {
    assert!(trace.players >= 2 && !trace.is_empty());
    let n = trace.players;
    let keys: Vec<Keypair> = (0..n).map(|i| Keypair::generate(seed ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    let mut cluster = Cluster::new(
        secured_cores(&keys, &directory, None, seed, *config, map),
        SimNetwork::new(n, latency, loss_rate, seed),
        config.frame_ms,
    );
    let mut metrics = Metrics::new();
    for (frame, recorded) in (0u64..).zip(&trace.frames) {
        // Both closures need the script: the state hook runs right before
        // each tick, the observer after every handled output.
        let script = std::cell::RefCell::new(&mut *script);
        cluster.step(
            frame,
            |i| {
                let mut state = recorded.states[i];
                script.borrow_mut().state(frame, i, &mut state);
                state
            },
            |slot, output| {
                for event in &output.events {
                    if let NodeEvent::Delivery { gen_frame, .. } = event {
                        metrics.record(*gen_frame, frame);
                    }
                }
                script.borrow_mut().observe(frame, slot, output);
            },
        );
        script.into_inner().after_step(frame, &mut cluster);
    }
    (cluster, metrics)
}

/// Figure 5's witness counts for one coalition size (see the module
/// docs for the definitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WitnessRow {
    /// Number of colluding cheaters.
    pub coalition: usize,
    /// Fraction of sampled (cheater, frame) pairs whose effective proxy
    /// is honest (complete-information witness).
    pub honest_proxy_rate: f64,
    /// Average number of IS witnesses (frequent updates).
    pub avg_is_witnesses: f64,
    /// Average number of VS witnesses (dead reckoning only).
    pub avg_vs_witnesses: f64,
}

/// Figure 5 from one replay of the shipped node.
#[derive(Debug, Clone, PartialEq)]
pub struct WitnessReport {
    /// One row per coalition size, in the order asked for.
    pub rows: Vec<WitnessRow>,
    /// `Subscribe`s the nodes originated; hits are those whose first hop
    /// is their own target: the subscriber's proxy is the target, which
    /// so learns who watches it.
    pub subscribes: Count,
}

/// Replays the workload through the shipped node under the King-like set
/// with 1 % loss and reads Figure 5 off the traffic, for each coalition
/// size (cheaters are players `0..c`).
///
/// # Panics
///
/// Panics if any coalition size is zero or not smaller than the player
/// count.
#[must_use]
pub fn run_witnesses(
    workload: &Workload,
    coalitions: &[usize],
    config: &WatchmenConfig,
    seed: u64,
) -> WitnessReport {
    let n = workload.players();
    for &c in coalitions {
        assert!(c >= 1 && c < n, "coalition {c} out of range");
    }
    let mut tallies = vec![WitnessTally::default(); coalitions.len()];
    let holdings = replay_holdings(workload, config, 0.01, seed, |h| {
        for (&c, tally) in coalitions.iter().zip(&mut tallies) {
            tally.sample(h, c);
        }
    });
    let rows = coalitions
        .iter()
        .zip(&tallies)
        .map(|(&coalition, t)| {
            let samples = t.samples.max(1) as f64;
            WitnessRow {
                coalition,
                honest_proxy_rate: t.honest_proxy as f64 / samples,
                avg_is_witnesses: t.is as f64 / samples,
                avg_vs_witnesses: t.vs as f64 / samples,
            }
        })
        .collect();
    WitnessReport { rows, subscribes: holdings.subscribes }
}

/// Renders the Figure 5 series as a table.
#[must_use]
pub fn format_witness(rows: &[WitnessRow]) -> String {
    let header = ["colluders", "honest-proxy rate", "avg IS witnesses", "avg VS witnesses"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.coalition.to_string(),
                format!("{:.3}", r.honest_proxy_rate),
                format!("{:.2}", r.avg_is_witnesses),
                format!("{:.2}", r.avg_vs_witnesses),
            ]
        })
        .collect();
    render_table(&header, &body)
}

/// Per-coalition sums over the sampled (cheater, frame) pairs.
#[derive(Debug, Clone, Copy, Default)]
struct WitnessTally {
    samples: u64,
    honest_proxy: u64,
    is: u64,
    vs: u64,
}

impl WitnessTally {
    /// Tallies the frame `h` holds, with cheaters `0..c`.
    fn sample(&mut self, h: &Holdings, c: usize) {
        for cheater in (0..c).filter(|_| h.sampled()) {
            let Some(proxy) = h.proxy[cheater].map(PlayerId::index) else { continue };
            self.samples += 1;
            self.honest_proxy += u64::from(proxy >= c);
            for holder in (c..h.players).filter(|&holder| holder != proxy) {
                let held = h.held(holder, cheater);
                if held & FREQ != 0 {
                    self.is += 1;
                } else if held & DR != 0 {
                    self.vs += 1;
                }
            }
        }
    }
}

/// What a node holds about a player, as [`Holdings::held`] reads it: a
/// union of these bits.
pub(crate) const COMPLETE: u8 = 1;
pub(crate) const FREQ: u8 = 2;
pub(crate) const DR: u8 = 4;
pub(crate) const INFREQ: u8 = 8;

/// The one tap on the node replay (see the module docs): what every node
/// holds about every player in one frame, read off the nodes' outputs.
pub(crate) struct Holdings {
    players: usize,
    /// The frame whose outputs are being observed.
    pub(crate) frame: u64,
    /// Each player's effective proxy in `frame`.
    pub(crate) proxy: Vec<Option<PlayerId>>,
    /// `[holder * players + about]`: generation frame of the latest
    /// consumed `state`, `guidance` and `position` delivery.
    latest: Vec<[Option<u64>; 3]>,
    /// As [`WitnessReport::subscribes`].
    pub(crate) subscribes: Count,
}

impl Holdings {
    pub(crate) fn new(players: usize) -> Self {
        Holdings {
            players,
            frame: 0,
            proxy: vec![None; players],
            latest: vec![[None; 3]; players * players],
            subscribes: Count::default(),
        }
    }

    /// Whether the frame is sampled: past `OTHERS_PERIOD +
    /// LOSS_AGE_FRAMES`, when subscriptions and the first guidance round
    /// have settled.
    pub(crate) fn sampled(&self) -> bool {
        self.frame >= WatchmenConfig::OTHERS_PERIOD + WatchmenConfig::LOSS_AGE_FRAMES
    }

    /// What `holder` holds about `about` in the frame: [`COMPLETE`] as
    /// its effective proxy; [`FREQ`] with a `state` under
    /// `LOSS_AGE_FRAMES` old; [`DR`] with a `guidance` under
    /// `GUIDANCE_PERIOD + LOSS_AGE_FRAMES` old; [`INFREQ`] with any
    /// update, each carrying a position, under `OTHERS_PERIOD +
    /// LOSS_AGE_FRAMES` old.
    pub(crate) fn held(&self, holder: usize, about: usize) -> u8 {
        let latest = self.latest[holder * self.players + about];
        let fresh = |k: usize, window: u64| latest[k].is_some_and(|g| self.frame < g + window);
        let bit = |on: bool, bit: u8| if on { bit } else { 0 };
        let loss = WatchmenConfig::LOSS_AGE_FRAMES;
        let others = WatchmenConfig::OTHERS_PERIOD + loss;
        bit(self.proxy[about] == Some(PlayerId(holder as u32)), COMPLETE)
            | bit(fresh(0, loss), FREQ)
            | bit(fresh(1, WatchmenConfig::GUIDANCE_PERIOD + loss), DR)
            | bit((0..3).any(|k| fresh(k, others)), INFREQ)
    }

    /// Records what `slot`'s output in `frame` consumed and originated.
    pub(crate) fn observe(&mut self, frame: u64, slot: usize, output: &CoreOutput) {
        if frame != self.frame {
            self.frame = frame;
            self.proxy.fill(None);
        }
        for event in &output.events {
            let NodeEvent::Delivery { about, class, gen_frame } = *event else { continue };
            let Some(k) = ["state", "guidance", "position"].iter().position(|&c| c == class) else {
                continue;
            };
            let latest = &mut self.latest[slot * self.players + about.index()][k];
            *latest = (*latest).max(Some(gen_frame));
        }
        for datagram in &output.datagrams {
            let Ok(signed) = SignedEnvelope::decode(&datagram.bytes) else { continue };
            if signed.envelope.from.index() != slot {
                continue; // relayed, not originated here
            }
            match signed.envelope.payload {
                Payload::State(_) => {
                    self.proxy[slot].get_or_insert(datagram.to);
                }
                Payload::Subscribe { target, .. } => {
                    self.subscribes.of += 1;
                    self.subscribes.hits += u64::from(datagram.to == target);
                }
                _ => {}
            }
        }
    }
}

/// Replays the workload through the shipped node under the King-like set
/// with `loss_rate`, handing the holdings to `sample` once each frame's
/// outputs are all observed.
pub(crate) fn replay_holdings(
    workload: &Workload,
    config: &WatchmenConfig,
    loss_rate: f64,
    seed: u64,
    sample: impl FnMut(&Holdings),
) -> Holdings {
    struct Tap<F>(Holdings, F);
    impl<F: FnMut(&Holdings)> Script for Tap<F> {
        fn observe(&mut self, frame: u64, slot: usize, output: &mut CoreOutput) {
            if frame != self.0.frame {
                (self.1)(&self.0);
            }
            self.0.observe(frame, slot, output);
        }
    }
    let (trace, map, n) = (&workload.trace, &workload.map, workload.players());
    let mut tap = Tap(Holdings::new(n), sample);
    let _ =
        replay_watchmen(trace, map, config, latency::king_like(n, seed), loss_rate, seed, &mut tap);
    (tap.1)(&tap.0);
    tap.0
}

/// Runs the Donnybrook baseline: frequent updates direct to interest-set
/// subscribers, dead-reckoning broadcast to everyone else at 1 Hz.
///
/// # Panics
///
/// Panics if the trace has fewer than 2 players or is empty.
#[must_use]
pub fn run_donnybrook(
    trace: &GameTrace,
    map: &GameMap,
    config: &WatchmenConfig,
    latency: Box<dyn LatencyModel>,
    loss_rate: f64,
    seed: u64,
) -> OverlayReport {
    assert!(trace.players >= 2 && !trace.is_empty());
    let n = trace.players;
    let first = &trace.frames[0].states[0];
    let state_bytes = state_len(first);
    let guidance_bytes = signed_len(Payload::Guidance(Guidance::from_state(
        first,
        0,
        WatchmenConfig::GUIDANCE_PERIOD,
        config.frame_seconds(),
    )));
    let mut net: SimNetwork<Update> = SimNetwork::new(n, latency, loss_rate, seed);
    let mut metrics = Metrics::new();

    for (frame, recorded) in (0u64..).zip(&trace.frames) {
        for d in net.advance_to(frame as f64 * config.frame_ms) {
            metrics.record(d.payload.gen_frame, frame);
        }

        let states = &recorded.states;
        // Interest sets determine who receives whose frequent updates.
        for p in 0..n {
            let pid = PlayerId(p as u32);
            if !states[p].is_alive() {
                continue;
            }
            let sets = compute_sets(pid, states, map, config, &NoRecency);
            // Donnybrook: p receives frequent updates about its IS — the
            // *members* send them directly to p.
            for &member in &sets.interest {
                let update = Update { about: member, gen_frame: frame };
                net.send(member.index(), p, update, state_bytes);
            }
            // 1 Hz dead reckoning from p to everyone (not in their IS —
            // approximated as broadcast, the paper's lower bound remark).
            if config.is_guidance_frame(frame, p) {
                for q in (0..n).filter(|&q| q != p) {
                    net.send(p, q, Update { about: pid, gen_frame: frame }, guidance_bytes);
                }
            }
        }
    }

    finish_report("donnybrook", &net, metrics, n, trace.len() as u64, config, None)
}

/// Runs the optimal Client/Server baseline: every player sends its state
/// to the server each frame; the server relays to exactly the players
/// whose PVS contains the sender, and nothing else.
///
/// # Panics
///
/// Panics if the trace has fewer than 2 players or is empty.
#[must_use]
pub fn run_client_server(
    trace: &GameTrace,
    map: &GameMap,
    config: &WatchmenConfig,
    latency: Box<dyn LatencyModel>,
    loss_rate: f64,
    seed: u64,
) -> OverlayReport {
    assert!(trace.players >= 2 && !trace.is_empty());
    let n = trace.players;
    let server = n; // extra node
    let state_bytes = state_len(&trace.frames[0].states[0]);
    let mut net: SimNetwork<Update> = SimNetwork::new(n + 1, latency, loss_rate, seed);
    let mut metrics = Metrics::new();

    // Per-frame PVS cache: visibility is symmetric in open space but we
    // store the full per-observer sets; recomputed once per frame rather
    // than per delivery (PVS per delivery is quadratic in players).
    let mut pvs_cache: Vec<Vec<usize>> = Vec::new();

    for (frame, recorded) in (0u64..).zip(&trace.frames) {
        let states = &recorded.states;
        let positions: Vec<_> = states.iter().map(|s| s.position).collect();
        pvs_cache.clear();
        for q in 0..n {
            pvs_cache.push(potentially_visible_set(
                map,
                &positions,
                q,
                WatchmenConfig::VISION_RADIUS,
            ));
        }

        // The server runs a frame loop like everyone else: what reached
        // it during the last frame is relayed at this boundary.
        for d in net.advance_to(frame as f64 * config.frame_ms) {
            let update = d.payload;
            if d.to != server {
                metrics.record(update.gen_frame, frame);
                continue;
            }
            // Relay to players whose PVS contains `about`.
            let about = update.about.index();
            for q in 0..n {
                if q != about && states[q].is_alive() && pvs_cache[q].contains(&about) {
                    net.send(server, q, update, state_bytes);
                }
            }
        }

        for p in (0..n).filter(|&p| states[p].is_alive()) {
            net.send(
                p,
                server,
                Update { about: PlayerId(p as u32), gen_frame: frame },
                state_bytes,
            );
        }
    }

    finish_report("client-server", &net, metrics, n, trace.len() as u64, config, Some(server))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use watchmen_game::trace::standard_trace;
    use watchmen_world::maps;

    use crate::workload::standard_workload;

    fn small_inputs() -> (GameTrace, GameMap, WatchmenConfig) {
        (standard_trace(8, 3, 200), maps::q3dm17_like(), WatchmenConfig::default())
    }

    #[test]
    fn watchmen_delivers_updates_with_low_age() {
        let (trace, map, config) = small_inputs();
        let report = run_watchmen(&trace, &map, &config, latency::constant(20.0), 0.0, 7);
        assert!(report.updates_delivered > 1000, "{}", report.updates_delivered);
        // Two constant 20 ms hops = 40 ms < 1 frame budget for most.
        assert!(
            report.fraction_younger_than(3) > 0.9,
            "young fraction {}",
            report.fraction_younger_than(3)
        );
        assert!(report.mean_up_kbps > 0.0);
    }

    #[test]
    fn watchmen_loss_counts_drops() {
        let (trace, map, config) = small_inputs();
        let lossless = run_watchmen(&trace, &map, &config, latency::constant(20.0), 0.0, 7);
        let lossy = run_watchmen(&trace, &map, &config, latency::constant(20.0), 0.05, 7);
        assert_eq!(lossless.network_dropped, 0);
        assert!(lossy.network_dropped > 0);
        assert!(lossy.late_or_lost > lossless.late_or_lost);
    }

    #[test]
    fn donnybrook_delivers_one_hop_faster_legs() {
        let (trace, map, config) = small_inputs();
        let report = run_donnybrook(&trace, &map, &config, latency::constant(20.0), 0.0, 7);
        assert!(report.updates_delivered > 1000);
        // Single 20 ms hop: virtually everything inside 1 frame.
        assert!(report.fraction_younger_than(2) > 0.95);
    }

    #[test]
    fn client_server_relays_pvs_only() {
        let (trace, map, config) = small_inputs();
        let report = run_client_server(&trace, &map, &config, latency::constant(10.0), 0.0, 7);
        assert!(report.updates_delivered > 0);
        assert!(report.server_up_kbps > 0.0, "server should relay");
        // Two 10 ms hops stay within the budget.
        assert!(report.fraction_younger_than(3) > 0.9);
    }

    #[test]
    fn deterministic_runs() {
        let (trace, map, config) = small_inputs();
        let a = run_watchmen(&trace, &map, &config, latency::king_like(8, 5), 0.01, 5);
        let b = run_watchmen(&trace, &map, &config, latency::king_like(8, 5), 0.01, 5);
        assert_eq!(a.updates_delivered, b.updates_delivered);
        assert_eq!(a.network_dropped, b.network_dropped);
        assert_eq!(a.mean_up_kbps, b.mean_up_kbps);
        assert_eq!(a.late_or_lost, b.late_or_lost);
    }

    /// The report's bytes and drops are the network's own meters: every
    /// byte a node uploaded is downloaded by another once the wire drains.
    #[test]
    fn wire_accounting_is_the_networks() {
        let (trace, map, config) = small_inputs();
        let (mut cluster, _) =
            replay_watchmen(&trace, &map, &config, latency::constant(20.0), 0.0, 7, &mut ());
        let end = trace.len() as u64;
        cluster.deliver_until(end, (end + 1) as f64 * config.frame_ms, |_, _| {});
        let meters = || (0..trace.players).map(|i| cluster.net.meter(i));
        let up: u64 = meters().map(|m| m.up_bytes()).sum();
        let down: u64 = meters().map(|m| m.down_bytes()).sum();
        assert!(up > 0);
        assert_eq!(up, down);
        let stats = cluster.net.stats();
        assert_eq!((stats.in_flight, stats.dropped), (0, 0));
        stats.check_invariant().expect("sent == delivered");
    }

    /// One rule for all three architectures: age is the frame whose game
    /// loop consumes the update minus the frame that generated it.
    #[test]
    fn age_is_consuming_frame_minus_generating_frame() {
        let (trace, map, config) = small_inputs();
        // One 20 ms hop: sent by tick f, consumed by the receiver's f + 1.
        let direct = run_donnybrook(&trace, &map, &config, latency::constant(20.0), 0.0, 7);
        assert_eq!(direct.ages.bucket_count(1), direct.ages.count());
        // Player → proxy → subscriber over 2 × 20 ms: the proxy's frame
        // f + 1 consumes and relays, the subscriber's f + 2 consumes.
        let relayed = run_watchmen(&trace, &map, &config, latency::constant(20.0), 0.0, 7);
        let (at_proxy, at_subscriber) =
            (relayed.ages.bucket_count(1), relayed.ages.bucket_count(2));
        assert!(at_proxy > 0 && at_subscriber > 0, "{at_proxy} / {at_subscriber}");
        assert_eq!(at_proxy + at_subscriber, relayed.ages.count());
    }

    #[test]
    fn watchmen_bandwidth_beats_full_broadcast() {
        let (trace, map, config) = small_inputs();
        let report = run_watchmen(&trace, &map, &config, latency::constant(20.0), 0.0, 11);
        // Full mesh would be one signed state × (n−1) × 20 Hz per player
        // upstream. Watchmen's multi-resolution + proxy scheme must come
        // in well under the all-pairs bound for the publisher leg… but
        // proxies forward, so compare mean.
        let state_bits = state_len(&trace.frames[0].states[0]) as f64 * 8.0;
        let full_mesh_kbps = state_bits * 7.0 * 20.0 / 1000.0;
        assert!(
            report.mean_up_kbps < full_mesh_kbps,
            "mean {} vs mesh {}",
            report.mean_up_kbps,
            full_mesh_kbps
        );
    }

    /// One replay shared by the Figure 5 tests.
    fn witness_report() -> &'static WitnessReport {
        static REPORT: OnceLock<WitnessReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            // 800 frames = 20 proxy epochs: enough independent draws for
            // the honest-proxy rate to stabilize.
            let w = standard_workload(16, 3, 800);
            run_witnesses(&w, &[1, 2, 4, 8], &WatchmenConfig::default(), 9)
        })
    }

    #[test]
    fn honest_proxy_rate_matches_analytic() {
        // With c cheaters out of n, an honest proxy is drawn with
        // probability (n - c) / (n - 1).
        let rows = &witness_report().rows;
        let n = 16.0;
        for r in rows {
            let expected = (n - r.coalition as f64) / (n - 1.0);
            assert!(
                (r.honest_proxy_rate - expected).abs() < 0.15,
                "c={} rate {} expected {expected}",
                r.coalition,
                r.honest_proxy_rate
            );
        }
    }

    #[test]
    fn witnesses_shrink_with_coalition() {
        let rows = &witness_report().rows;
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.honest_proxy_rate < first.honest_proxy_rate);
        // Fewer honest observers → fewer witnesses on average.
        assert!(
            last.honest_proxy_rate + last.avg_is_witnesses + last.avg_vs_witnesses
                <= first.honest_proxy_rate + first.avg_is_witnesses + first.avg_vs_witnesses + 1.0
        );
    }

    #[test]
    fn there_are_witnesses_at_all() {
        let report = witness_report();
        let r = &report.rows[0];
        assert!(r.avg_is_witnesses + r.avg_vs_witnesses > 0.5, "expected some witnesses: {r:?}");
        // A subscription's first hop is the subscriber's proxy, which is
        // the target itself in about 1 / (n − 1) of them: the known
        // rate-analysis leak.
        let share = report.subscribes.rate();
        assert!((0.5 / 15.0..2.0 / 15.0).contains(&share), "{report:?}");
    }

    #[test]
    fn formatting_lists_all_rows() {
        let s = format_witness(&witness_report().rows);
        assert_eq!(s.lines().count(), 2 + 4);
        assert!(s.contains("honest-proxy"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_coalition_panics() {
        let w = standard_workload(4, 1, 10);
        let _ = run_witnesses(&w, &[4], &WatchmenConfig::default(), 1);
    }
}
