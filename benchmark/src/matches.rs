//! The benchmark-owned match loops: deliver, then tick, with a span
//! around every call into the program.
//!
//! The simnet loop is the loop of `fleet::cell::step_frame` and (with the
//! churn script and the adversary shim switched on) of
//! `tests/churn_e2e.rs`; the live loop is the one-pump-per-frame loop of
//! `net::live`'s tick contract. Nothing here reaches past a public
//! function of the program.

use std::hint::black_box;
use std::time::Instant;

use watchmen::core::audit::AuditRecord;
use watchmen::core::lobby::GameLobby;
use watchmen::core::msg::SignedEnvelope;
use watchmen::core::node::{NodeEvent, WatchmenNode};
use watchmen::core::sans_io::ProtocolCore;
use watchmen::core::verify::checks;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::game::trace::{GameTrace, PlayerFrame};
use watchmen::game::PlayerId;
use watchmen::net::live::LiveTransport;
use watchmen::net::{latency, SimNetwork};
use watchmen::sim::quality::{evaluate, GroundTruth, UNDETECTED};
use watchmen::sim::workload::{match_workload, standard_workload};
use watchmen::world::{GameMap, PhysicsConfig};

use crate::counts::{add_live, label_index, Counts, AGE_BUCKETS};
use crate::host::{self, Ops};
use crate::hostile::Hostile;
use crate::probe::{Layer, NoProbe, Probe};

/// Same trims as the fleet's match cell, so a benchmark match is the
/// fleet's unit of work.
const RECORDER_CAPACITY: usize = 128;
const LATENCY_MS: f64 = 8.0;
const CHEAT_OFFSET: f64 = 30.0;
const FIRST_CHEAT_FRAME: u64 = 4;
pub const CHEATER_SLOT: u32 = 2;
/// A scripted cheater must draw a severe verdict within this many frames
/// (`fleet::TTD_BUDGET_FRAMES`).
pub const TTD_BUDGET_FRAMES: u64 = watchmen::fleet::fleet::TTD_BUDGET_FRAMES;
const SEVERE: u8 = 6;
/// Datagrams of the first traced unit kept for the kernel replays.
const CORPUS_CAP: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// `sim::workload::match_workload`: the open 32-cell arena.
    Arena,
    /// `sim::workload::standard_workload`: q3dm17-like, with occlusion.
    Standard,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Simnet,
    Hostile,
    Live,
}

/// Everything that defines one match.
#[derive(Debug, Clone)]
pub struct MatchSpec {
    pub unit: u32,
    pub seed: u64,
    /// Players present from frame 0.
    pub players: usize,
    /// Frames driven (for `Hostile`, play plus the drain period).
    pub frames: u64,
    pub map: MapKind,
    pub transport: Transport,
    pub cheater: Option<u32>,
}

impl MatchSpec {
    /// Node slots of the match: the players present from frame 0 plus, on
    /// the hostile script, the mid-game joiners.
    pub fn nodes(&self) -> usize {
        self.players + if self.transport == Transport::Hostile { Hostile::JOINERS } else { 0 }
    }
}

/// Wire bytes of one match and the keys that signed them, kept for the
/// kernel replays.
#[derive(Debug, Default)]
pub struct Corpus {
    /// `(datagram bytes, origin)` for datagrams that decoded.
    pub datagrams: Vec<(Vec<u8>, u32)>,
    pub keys: Vec<Keypair>,
}

/// What one match produced.
#[derive(Debug)]
pub struct UnitResult {
    pub counts: Counts,
    /// Wall time of each frame, with its host-probe bracket.
    pub ticks: Ops,
    /// Everything before the first frame, likewise (one entry).
    pub setup: Ops,
    /// Part of set-up: recording the bot-AI trace.
    pub workload_build_ns: u64,
    /// Part of set-up: generating one keypair per player.
    pub keygen_ns: u64,
    /// After the last frame: the audit join against ground truth.
    pub evaluate_ns: u64,
    pub failures: Vec<String>,
}

struct Cluster {
    config: WatchmenConfig,
    cores: Vec<Option<ProtocolCore>>,
    lobby: GameLobby,
    trace: GameTrace,
    map: GameMap,
    keys: Vec<Keypair>,
    audit: Vec<AuditRecord>,
}

/// Per-origin sequence ranges seen, to count signed envelopes.
struct SeqRange {
    lo: Vec<u64>,
    hi: Vec<u64>,
}

impl SeqRange {
    fn new(n: usize) -> Self {
        SeqRange { lo: vec![u64::MAX; n], hi: vec![0; n] }
    }

    fn see(&mut self, origin: usize, seq: u64) {
        if origin < self.lo.len() {
            self.lo[origin] = self.lo[origin].min(seq);
            self.hi[origin] = self.hi[origin].max(seq);
        }
    }

    fn total(&self) -> u64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .filter(|(lo, _)| **lo != u64::MAX)
            .map(|(lo, hi)| hi - lo + 1)
            .sum()
    }
}

/// Traced runs only: decodes a delivered datagram through the public codec
/// to learn its label and origin. Returns the label index (0 if it does
/// not decode).
fn classify(
    bytes: &[u8],
    wire_sender: usize,
    counts: &mut Counts,
    seqs: &mut SeqRange,
    corpus: Option<&mut Corpus>,
) -> usize {
    let Ok(msg) = SignedEnvelope::decode(bytes) else {
        counts.undecodable += 1;
        return 0;
    };
    let label = label_index(msg.envelope.payload.label());
    counts.label[label] += 1;
    let origin = msg.envelope.from.index();
    seqs.see(origin, msg.envelope.seq);
    if label == 0 && origin == wire_sender {
        counts.checks_run += 1;
    }
    if let Some(cp) = corpus {
        if cp.datagrams.len() < CORPUS_CAP {
            cp.datagrams.push((bytes.to_vec(), origin as u32));
        }
    }
    label
}

/// Runs one match under `probe` and checks its outputs.
pub fn run_match<P: Probe>(
    spec: &MatchSpec,
    probe: &mut P,
    corpus: Option<&mut Corpus>,
) -> UnitResult {
    let setup_probe = host::probe();
    let setup_start = Instant::now();
    let total = spec.nodes();

    let build_start = Instant::now();
    let workload = match spec.map {
        MapKind::Arena => match_workload(total, spec.seed, spec.frames),
        MapKind::Standard => standard_workload(total, spec.seed, spec.frames),
    };
    let workload_build_ns = build_start.elapsed().as_nanos() as u64;

    let keygen_start = Instant::now();
    let keys: Vec<Keypair> = (0..total).map(|i| Keypair::generate(spec.seed ^ i as u64)).collect();
    let keygen_ns = keygen_start.elapsed().as_nanos() as u64;

    let config = match spec.transport {
        Transport::Hostile => WatchmenConfig { proxy_liveness_k: 2, ..WatchmenConfig::default() },
        _ => WatchmenConfig::default(),
    };
    config.validate();
    // In a bot match every player reports every frame, so the lobby's
    // heartbeat timeout only has to outlast silence the script creates.
    let timeout = match spec.transport {
        Transport::Hostile => config.membership_timeout_frames,
        _ => spec.frames + 1,
    };
    let mut lobby = GameLobby::new(spec.seed, config, timeout)
        .with_keys(Keypair::generate(spec.seed ^ 0xf1ee7));
    for k in keys.iter().take(spec.players) {
        lobby.register(k.public());
    }
    lobby.start();
    let lobby_key = lobby.lobby_key().expect("lobby has keys");

    let mut cores: Vec<Option<ProtocolCore>> = keys
        .iter()
        .take(spec.players)
        .enumerate()
        .map(|(i, k)| {
            Some(ProtocolCore::new(
                WatchmenNode::new(
                    PlayerId(i as u32),
                    k.clone(),
                    lobby.directory().to_vec(),
                    spec.seed,
                    config,
                    workload.map.clone(),
                    PhysicsConfig::default(),
                )
                .with_lobby_key(lobby_key)
                .with_recorder_capacity(RECORDER_CAPACITY),
            ))
        })
        .collect();
    cores.resize_with(total, || None);

    let mut cluster = Cluster {
        config,
        cores,
        lobby,
        trace: workload.trace,
        map: workload.map,
        keys,
        audit: Vec::new(),
    };

    let mut ledger = Ledger { spec, counts: Counts::new(), failures: Vec::new() };
    let set_up = (setup_start, setup_probe);
    let (ticks, setup) = match spec.transport {
        Transport::Live => run_live(&mut cluster, &mut ledger, probe, corpus, set_up),
        _ => run_sim(&mut cluster, &mut ledger, probe, corpus, set_up),
    };
    let evaluate_ns = finish(&cluster, &mut ledger);
    UnitResult {
        counts: ledger.counts,
        ticks,
        setup,
        workload_build_ns,
        keygen_ns,
        evaluate_ns,
        failures: ledger.failures,
    }
}

/// One match's tallies, and why it failed if it did.
pub struct Ledger<'a> {
    pub spec: &'a MatchSpec,
    pub counts: Counts,
    pub failures: Vec<String>,
}

impl Ledger<'_> {
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Tallies the events of one `datagram()`/`tick()` call at `observer`.
    /// Suspicion reports go to the lobby's reputation system, as in every
    /// driver in the repo.
    #[inline]
    pub fn events<P: Probe>(
        &mut self,
        events: &[NodeEvent],
        observer: usize,
        now: u64,
        lobby: &mut GameLobby,
        probe: &mut P,
    ) {
        let counts = &mut self.counts;
        for e in events {
            match e {
                NodeEvent::Delivery { gen_frame, .. } => {
                    counts.ev_delivery += 1;
                    let age = now.saturating_sub(*gen_frame) as usize;
                    counts.age_hist[age.min(AGE_BUCKETS - 1)] += 1;
                }
                NodeEvent::Suspicion { subject, rating, check } => {
                    counts.ev_suspicion += 1;
                    probe.lap(Layer::DriverEvents);
                    lobby.report(PlayerId(observer as u32), *subject, rating);
                    probe.lap(Layer::LobbyReport);
                    if rating.score >= SEVERE && Some(subject.0) != self.spec.cheater {
                        counts.false_verdicts += 1;
                        // DESIGN §11: the q3dm17-like map's wall geometry
                        // trips the position check (and the epoch summary
                        // that echoes it) on honest traces. Known, counted,
                        // not a failed op.
                        let known = self.spec.map == MapKind::Standard
                            && (*check == checks::POSITION || *check == checks::EPOCH_SUMMARY);
                        if !known && self.failures.len() < 8 {
                            self.failures.push(format!(
                                "frame {now}: node {observer} rated honest p{} {}/10 on {check}",
                                subject.0, rating.score
                            ));
                        }
                    }
                }
                NodeEvent::BadSignature { .. } => counts.ev_bad_signature += 1,
                NodeEvent::Replay { .. } => counts.ev_replay += 1,
                _ => {}
            }
        }
    }
}

/// Applies the scripted speed-hack every soak gate uses: a sideways
/// teleport no legal movement allows, every fourth frame.
fn scripted_state(spec: &MatchSpec, trace: &GameTrace, f: u64, i: usize) -> PlayerFrame {
    let mut state = trace.frames[f as usize].states[i];
    if spec.cheater == Some(i as u32) && f > 0 && f.is_multiple_of(4) {
        state.position.x += CHEAT_OFFSET;
    }
    state
}

/// The simnet loop: `fleet::cell::step_frame`, plus the churn script and
/// the adversary when the match is hostile. Returns the frame times and the
/// set-up time.
fn run_sim<P: Probe>(
    c: &mut Cluster,
    ledger: &mut Ledger<'_>,
    probe: &mut P,
    mut corpus: Option<&mut Corpus>,
    set_up: (Instant, u64),
) -> (Ops, Ops) {
    let spec = ledger.spec;
    let total = c.cores.len();
    let frame_ms = c.config.frame_ms;
    let net_seed = crate::stats::derive_seed(spec.seed, 0x6e65_7400, 0);
    let mut net: SimNetwork<Vec<u8>> =
        SimNetwork::new(total, latency::constant(LATENCY_MS), 0.0, net_seed);
    let mut hostile = (spec.transport == Transport::Hostile).then(|| Hostile::new(spec, &c.config));
    if let Some(h) = &hostile {
        net.set_fault_plan(h.fault_plan(frame_ms));
    }

    let mut ticks = Ops::with_capacity(spec.frames as usize);
    let mut seqs = SeqRange::new(total);
    let mut handled: Vec<(Vec<u8>, usize, u64)> =
        Vec::with_capacity(if P::TRACED { 1024 } else { 0 });
    let setup = end_of_set_up(set_up);

    for f in 0..spec.frames {
        let before = host::probe();
        probe.begin_frame(spec.unit, f);

        if let Some(h) = hostile.as_mut() {
            h.before_frame(f, c.parts(), &mut net, ledger, probe);
        }

        let deliveries = net.advance_to(f as f64 * frame_ms);
        probe.lap(Layer::SimAdvance);
        for mut d in deliveries {
            if net.is_crashed(d.to) || net.is_offline(d.to) {
                continue;
            }
            let Some(core) = c.cores[d.to].as_mut() else { continue };
            if let Some(h) = hostile.as_mut() {
                h.tamper_or_remember(f, &mut d, &mut ledger.counts);
            }
            let output = core.datagram(f, PlayerId(d.from as u32), &d.payload);
            let ns = probe.lap(Layer::Datagram);
            ledger.counts.datagrams_in += 1;
            ledger.counts.relay_out += output.datagrams.len() as u64;
            ledger.events(&output.events, d.to, f, &mut c.lobby, probe);
            probe.lap(Layer::DriverEvents);
            if !output.datagrams.is_empty() {
                for o in output.datagrams {
                    let size = o.bytes.len();
                    ledger.counts.wire_bytes += size as u64;
                    net.send(d.to, o.to.index(), o.bytes, size);
                }
                probe.lap(Layer::SimSend);
            }
            if P::TRACED {
                handled.push((d.payload, d.from, ns));
            }
        }
        if let Some(h) = hostile.as_mut() {
            h.redeliver_due(f, c.parts(), &mut net, ledger, probe);
        }

        for i in 0..total {
            if net.is_crashed(i) || net.is_offline(i) {
                continue;
            }
            let Some(core) = c.cores[i].as_mut() else { continue };
            let output = core.tick(f, &scripted_state(spec, &c.trace, f, i));
            probe.lap(Layer::NodeTick);
            ledger.counts.player_frames += 1;
            ledger.counts.tick_out += output.datagrams.len() as u64;
            if !output.events.is_empty() {
                ledger.events(&output.events, i, f, &mut c.lobby, probe);
                probe.lap(Layer::DriverEvents);
            }
            for o in output.datagrams {
                let size = o.bytes.len();
                ledger.counts.wire_bytes += size as u64;
                net.send(i, o.to.index(), o.bytes, size);
            }
            probe.lap(Layer::SimSend);
            c.lobby.heartbeat(PlayerId(i as u32), f);
        }
        black_box(c.lobby.tick(f));
        probe.lap(Layer::LobbyTick);
        c.drain_audit();
        probe.lap(Layer::AuditDrain);

        ledger.counts.in_flight_max = ledger.counts.in_flight_max.max(net.in_flight() as u64);
        let frame_ns = probe.end_frame();
        ticks.push(frame_ns, before, host::probe());

        // Traced runs: what the frame's datagrams were is worked out after
        // the frame, so decoding them costs the measured frame nothing.
        for (bytes, from, ns) in handled.drain(..) {
            let label =
                classify(&bytes, from, &mut ledger.counts, &mut seqs, corpus.as_deref_mut());
            probe.note_label(label, ns);
        }
        if let Some(h) = hostile.as_mut() {
            h.check_boundary(f, c.parts(), &net, ledger);
        }
    }

    match hostile {
        Some(h) => h.check_end(c.parts(), &net, ledger),
        // Final sweep, as the fleet's cell does it: deliver what is still
        // in flight, count verdicts, send nothing new. (The hostile script
        // ends with its own drain period of ordinary frames.)
        None => {
            let horizon = (spec.frames as f64 + 2.0) * frame_ms + 10.0 * LATENCY_MS;
            for d in net.advance_to(horizon) {
                let core = c.cores[d.to].as_mut().expect("every player is present");
                let output = core.datagram(spec.frames, PlayerId(d.from as u32), &d.payload);
                ledger.counts.datagrams_in += 1;
                ledger.events(&output.events, d.to, spec.frames, &mut c.lobby, &mut NoProbe::new());
            }
            c.drain_audit();
        }
    }

    ledger.counts.net = net.stats();
    if let Err(e) = ledger.counts.net.check_invariant() {
        ledger.fail(format!("NetStats invariant broken: {e}"));
    }
    ledger.counts.signs = seqs.total();
    if let Some(cp) = corpus {
        cp.keys = c.keys.clone();
    }
    (ticks, setup)
}

/// Set-up ends here: its wall time between the reading taken when it began
/// and one taken now.
fn end_of_set_up((start, before): (Instant, u64)) -> Ops {
    let mut setup = Ops::default();
    setup.push(start.elapsed().as_nanos() as u64, before, host::probe());
    setup
}

/// The parts of a cluster the hostile script touches.
pub struct ClusterParts<'a> {
    pub config: &'a WatchmenConfig,
    pub cores: &'a mut Vec<Option<ProtocolCore>>,
    pub lobby: &'a mut GameLobby,
    pub keys: &'a [Keypair],
    pub map: &'a GameMap,
}

impl Cluster {
    fn parts(&mut self) -> ClusterParts<'_> {
        ClusterParts {
            config: &self.config,
            cores: &mut self.cores,
            lobby: &mut self.lobby,
            keys: &self.keys,
            map: &self.map,
        }
    }

    /// Drains every emitter's audit buffer into the match stream, nodes by
    /// index first and the lobby last, as the fleet's cell does.
    fn drain_audit(&mut self) {
        for core in self.cores.iter_mut().flatten() {
            self.audit.append(&mut core.drain_audit());
        }
        self.audit.append(&mut self.lobby.drain_audit());
    }
}

/// The live loop: one `LiveTransport` per player on loopback UDP, one pump
/// per node per frame — pump, deliver, tick. Loopback delivery is
/// synchronous: what a node flushed is in the receiver's socket buffer
/// before the receiver's next pump.
#[allow(clippy::needless_range_loop)] // transports and cores are index-parallel
fn run_live<P: Probe>(
    c: &mut Cluster,
    ledger: &mut Ledger<'_>,
    probe: &mut P,
    mut corpus: Option<&mut Corpus>,
    set_up: (Instant, u64),
) -> (Ops, Ops) {
    let spec = ledger.spec;
    let players = spec.players;
    let mut transports: Vec<LiveTransport> = (0..players)
        .map(|i| LiveTransport::bind(i as u32, "127.0.0.1:0").expect("bind loopback UDP socket"))
        .collect();
    let addrs: Vec<_> =
        transports.iter().map(|t| t.local_addr().expect("bound socket has an address")).collect();
    for (i, t) in transports.iter_mut().enumerate() {
        for (j, addr) in addrs.iter().enumerate() {
            if i != j {
                t.register_peer(j as u32, *addr);
            }
        }
    }

    let mut ticks = Ops::with_capacity(spec.frames as usize);
    let mut seqs = SeqRange::new(players);
    let mut handled: Vec<(Vec<u8>, usize, u64)> =
        Vec::with_capacity(if P::TRACED { 1024 } else { 0 });
    let setup = end_of_set_up(set_up);

    for f in 0..spec.frames {
        let before = host::probe();
        probe.begin_frame(spec.unit, f);
        for i in 0..players {
            let inbound = transports[i].pump().unwrap_or_else(|e| {
                ledger.fail(format!("frame {f}: node {i} pump failed: {e}"));
                Vec::new()
            });
            probe.lap(Layer::LivePump);
            let core = c.cores[i].as_mut().expect("every player is present");
            for (sender, bytes) in inbound {
                let output = core.datagram(f, PlayerId(sender), &bytes);
                let ns = probe.lap(Layer::Datagram);
                ledger.counts.datagrams_in += 1;
                ledger.counts.relay_out += output.datagrams.len() as u64;
                ledger.events(&output.events, i, f, &mut c.lobby, probe);
                probe.lap(Layer::DriverEvents);
                if !output.datagrams.is_empty() {
                    for o in output.datagrams {
                        ledger.counts.wire_bytes += o.bytes.len() as u64;
                        transports[i].queue(o.to.0, o.bytes);
                    }
                    probe.lap(Layer::LiveQueue);
                }
                if P::TRACED {
                    handled.push((bytes, sender as usize, ns));
                }
            }
            let output = core.tick(f, &scripted_state(spec, &c.trace, f, i));
            probe.lap(Layer::NodeTick);
            ledger.counts.player_frames += 1;
            ledger.counts.tick_out += output.datagrams.len() as u64;
            if !output.events.is_empty() {
                ledger.events(&output.events, i, f, &mut c.lobby, probe);
                probe.lap(Layer::DriverEvents);
            }
            for o in output.datagrams {
                ledger.counts.wire_bytes += o.bytes.len() as u64;
                transports[i].queue(o.to.0, o.bytes);
            }
            probe.lap(Layer::LiveQueue);
            ledger.counts.queued_max = ledger.counts.queued_max.max(transports[i].queued() as u64);
            c.lobby.heartbeat(PlayerId(i as u32), f);
        }
        black_box(c.lobby.tick(f));
        probe.lap(Layer::LobbyTick);
        c.drain_audit();
        probe.lap(Layer::AuditDrain);
        let frame_ns = probe.end_frame();
        ticks.push(frame_ns, before, host::probe());

        for (bytes, from, ns) in handled.drain(..) {
            let label =
                classify(&bytes, from, &mut ledger.counts, &mut seqs, corpus.as_deref_mut());
            probe.note_label(label, ns);
        }
    }
    ledger.counts.signs = seqs.total();

    // Final sweep: two receive passes flush every queue and collect what
    // was still in a socket buffer; nothing new is sent.
    for _ in 0..2 {
        for (i, t) in transports.iter_mut().enumerate() {
            let core = c.cores[i].as_mut().expect("every player is present");
            for (sender, bytes) in t.pump().unwrap_or_default() {
                let output = core.datagram(spec.frames, PlayerId(sender), &bytes);
                ledger.counts.datagrams_in += 1;
                ledger.events(&output.events, i, spec.frames, &mut c.lobby, &mut NoProbe::new());
            }
        }
    }
    c.drain_audit();

    for t in &transports {
        add_live(&mut ledger.counts.live, &t.stats());
    }
    let l = ledger.counts.live;
    if l.queue_dropped + l.unroutable_dropped + l.malformed + l.truncated > 0 {
        ledger.fail(format!("live transport dropped or rejected traffic on loopback: {l:?}"));
    }
    if l.frames_in != l.frames_out {
        ledger.fail(format!(
            "loopback lost datagrams: {} sent, {} received",
            l.frames_out, l.frames_in
        ));
    }
    if let Some(cp) = corpus {
        cp.keys = c.keys.clone();
    }
    (ticks, setup)
}

/// Checks shared by every match — the audit join against ground truth, the
/// control plane at rest, no rejected traffic that nobody injected — and
/// the node counters. Returns the time the audit join took.
fn finish(c: &Cluster, ledger: &mut Ledger<'_>) -> u64 {
    let spec = ledger.spec;
    ledger.counts.units = 1;
    ledger.counts.frames = spec.frames;
    ledger.counts.audit_records = c.audit.len() as u64;
    for core in c.cores.iter().flatten() {
        let node = core.node();
        ledger.counts.add_node_stats(node.control_stats(), node.churn_stats());
    }

    let truth = GroundTruth {
        cheaters: spec.cheater.into_iter().collect(),
        first_cheat_frame: FIRST_CHEAT_FRAME,
        expected_check: checks::POSITION,
        expected_overrides: Vec::new(),
    };
    let start = Instant::now();
    let quality = evaluate(&truth, &c.audit);
    let evaluate_ns = start.elapsed().as_nanos() as u64;

    if quality.false_verdicts != ledger.counts.false_verdicts {
        ledger.fail(format!(
            "audit join counts {} false verdicts, the event stream {}",
            quality.false_verdicts, ledger.counts.false_verdicts
        ));
    }
    for (&ttd, cheater) in quality.ttd_frames.iter().zip(&truth.cheaters) {
        if ttd == UNDETECTED || ttd > TTD_BUDGET_FRAMES {
            ledger.fail(format!(
                "scripted cheater p{cheater} not convicted within {TTD_BUDGET_FRAMES} frames (ttd {ttd})"
            ));
        } else {
            ledger.counts.ttd.push(ttd);
        }
    }
    // The hostile script has its own, narrower versions of these two: only
    // surviving nodes must not abandon, and rejections must match injections.
    if spec.transport != Transport::Hostile {
        let n = &ledger.counts;
        if n.control.abandoned > 0 {
            ledger.fail(format!("{} control chains abandoned", n.control.abandoned));
        } else if n.ev_bad_signature + n.ev_replay + n.churn.stale_drops > 0 {
            ledger.fail(format!(
                "clean network, yet {} bad signatures, {} replays, {} stale drops",
                n.ev_bad_signature, n.ev_replay, n.churn.stale_drops
            ));
        }
    }
    evaluate_ns
}
