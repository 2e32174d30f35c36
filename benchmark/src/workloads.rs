//! The four match workloads: units of fixed work (one match each), run
//! until the time budget is spent, with exact counts taken over a fixed
//! prefix of units so they repeat bit for bit whatever the machine's speed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::catalog;
use crate::counts::{reported_labels, Counts};
use crate::host::Ops;
use crate::hostile;
use crate::kernels;
use crate::matches::{run_match, Corpus, MapKind, MatchSpec, Transport, UnitResult, CHEATER_SLOT};
use crate::pools;
use crate::probe::{Layer, NoProbe, SpanProbe};
use crate::report::Report;
use crate::stats::{median_f64, peak_rss_mb, percentile_u64, Samples};

/// ROADMAP item 1: the share of a frame no program layer accounts for.
pub const MAX_RESIDUAL_SHARE: f64 = 0.15;
pub const MAX_TRACE_OVERHEAD_PCT: f64 = 10.0;
const FRAME_MS: f64 = 50.0;

/// How long to measure and how many leading units feed the exact counts.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub counted_units: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    Match16,
    Match48,
    Hostile16,
    Live16,
}

impl MatchKind {
    pub fn from_name(name: &str) -> Option<Self> {
        [MatchKind::Match16, MatchKind::Match48, MatchKind::Hostile16, MatchKind::Live16]
            .into_iter()
            .find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            MatchKind::Match16 => "match16",
            MatchKind::Match48 => "match48",
            MatchKind::Hostile16 => "hostile16",
            MatchKind::Live16 => "live16",
        }
    }

    /// Units whose counts are reported: about a third of the default
    /// time budget on the reference sandbox.
    pub fn counted_units(self) -> u32 {
        match self {
            MatchKind::Match16 => 24,
            MatchKind::Match48 => 3,
            MatchKind::Hostile16 => 8,
            MatchKind::Live16 => 8,
        }
    }

    /// On traced runs every Nth unit is run a second time untraced: the
    /// same match, so the pair's frame medians differ by the tracing
    /// overhead alone. `match48` fits few units in a run, so it pairs all.
    fn control_every(self) -> u32 {
        match self {
            MatchKind::Match48 => 1,
            _ => 2,
        }
    }

    fn pool(self) -> &'static [u64] {
        match self {
            MatchKind::Match16 => &pools::MATCH16,
            MatchKind::Match48 => &pools::MATCH48,
            MatchKind::Hostile16 => &pools::HOSTILE16,
            MatchKind::Live16 => &pools::LIVE16,
        }
    }

    /// Whether a match on `match_seed` passes every check of this workload,
    /// with and without the scripted cheater (a pool entry can land on
    /// either kind of unit).
    pub fn runs_clean(self, match_seed: u64) -> bool {
        let variants = if self == MatchKind::Hostile16 { 1 } else { 2 };
        (0..variants).all(|unit| {
            let mut spec = self.spec(0, unit);
            spec.seed = match_seed;
            guarded(&spec, || run_match(&spec, &mut NoProbe::new(), None))
                .is_ok_and(|r| r.failures.is_empty())
        })
    }

    fn spec(self, seed: u64, unit: u32) -> MatchSpec {
        let tag = 0x6d61_7463_6800 + self as u64;
        let unit_seed = pools::pick(self.pool(), seed, tag, unit);
        // A scripted speed-hacker in every eighth match, as in the fleet.
        let cheater = unit.is_multiple_of(8).then_some(CHEATER_SLOT);
        let (players, frames, map, transport, cheater) = match self {
            MatchKind::Match16 => (16, 400, MapKind::Arena, Transport::Simnet, cheater),
            MatchKind::Match48 => (48, 400, MapKind::Standard, Transport::Simnet, cheater),
            MatchKind::Hostile16 => (
                16,
                hostile::PLAY_FRAMES + hostile::DRAIN_FRAMES,
                MapKind::Arena,
                Transport::Hostile,
                None,
            ),
            MatchKind::Live16 => (16, 400, MapKind::Arena, Transport::Live, cheater),
        };
        MatchSpec { unit, seed: unit_seed, players, frames, map, transport, cheater }
    }
}

/// Everything a run of match units accumulated.
struct MatchRun {
    prefix: Counts,
    all: Counts,
    ticks: Ops,
    /// Traced runs: the untraced controls' ticks, and per pair the traced
    /// over the untraced frame median.
    control_ticks: Ops,
    pair_ratios: Vec<f64>,
    setups: Ops,
    builds_s: Vec<f64>,
    keygen_us: Vec<f64>,
    evaluate_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    corpus: Corpus,
}

fn guarded(spec: &MatchSpec, run: impl FnOnce() -> UnitResult) -> Result<UnitResult, String> {
    catch_unwind(AssertUnwindSafe(run)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        format!("unit {} (seed {:#x}) panicked: {msg}", spec.unit, spec.seed)
    })
}

fn drive(
    kind: MatchKind,
    seed: u64,
    budget: Budget,
    mut probe: Option<&mut SpanProbe>,
) -> MatchRun {
    let mut run = MatchRun {
        prefix: Counts::new(),
        all: Counts::new(),
        ticks: Ops::with_capacity(1 << 16),
        control_ticks: Ops::default(),
        pair_ratios: Vec::new(),
        setups: Ops::default(),
        builds_s: Vec::new(),
        keygen_us: Vec::new(),
        evaluate_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        corpus: Corpus::default(),
    };
    let started = Instant::now();
    let mut unit = 0u32;
    while unit < budget.counted_units || started.elapsed().as_secs_f64() < budget.seconds {
        let spec = kind.spec(seed, unit);
        let result = match probe.as_deref_mut() {
            Some(p) => {
                let corpus = (unit == 0).then_some(&mut run.corpus);
                guarded(&spec, || run_match(&spec, p, corpus))
            }
            None => guarded(&spec, || run_match(&spec, &mut NoProbe::new(), None)),
        };
        run.attempted += 1;
        match result {
            Ok(r) => {
                if !r.failures.is_empty() {
                    run.failed += 1;
                    for f in r.failures.iter().take(3) {
                        if run.notes.len() < 12 {
                            run.notes.push(format!("unit {unit} (seed {:#x}): {f}", spec.seed));
                        }
                    }
                }
                let nodes = spec.nodes() as f64;
                run.setups.extend(&r.setup);
                run.builds_s.push(r.workload_build_ns as f64 / 1e9);
                run.keygen_us.push(r.keygen_ns as f64 / 1e3 / nodes);
                run.evaluate_ms.push(r.evaluate_ns as f64 / 1e6);
                run.all.add(&r.counts);
                if unit < budget.counted_units {
                    run.prefix.add(&r.counts);
                }
                if probe.is_some() && unit.is_multiple_of(kind.control_every()) {
                    if let Ok(c) = guarded(&spec, || run_match(&spec, &mut NoProbe::new(), None)) {
                        run.pair_ratios.push(
                            r.ticks.uncontended().percentile_ns(50.0) as f64
                                / c.ticks.uncontended().percentile_ns(50.0).max(1) as f64,
                        );
                        run.control_ticks.extend(&c.ticks);
                    }
                }
                run.ticks.extend(&r.ticks);
            }
            Err(note) => {
                run.failed += 1;
                run.notes.push(note);
            }
        }
        unit += 1;
    }
    run
}

/// The end-to-end metrics every workload derives from its op times and its
/// set-up times, both as on an uncontended core (see `host`).
/// `contention` is `Ops::contention` of the series the op times came from;
/// `peak_heap_mb` was read when the measured loop ended, before any
/// statistics were worked out.
pub fn set_end_to_end(
    report: &mut Report,
    peak_heap_mb: f64,
    times: &Samples,
    setups: &Samples,
    contention: (f64, f64),
) {
    let n = times.len() as u64;
    report.set("setup_s", setups.percentile_ns(50.0) as f64 / 1e9, setups.len() as u64);
    report.set("ops_per_sec", times.ops_per_sec(), n);
    report.set("op_ms_p50", times.percentile_ms(50.0), n);
    report.set_percentile("op_ms_p90", times.percentile_ms(90.0), n, times.beyond(90.0));
    report.set("peak_heap_mb", peak_heap_mb, 1);
    let (share, factor) = contention;
    report.notes.push(format!(
        "host: {:.0} % of the timed work ran on a contended core (median slowdown taken out: {factor:.2}x)",
        share * 100.0
    ));
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(kind: MatchKind, seed: u64, budget: Budget) -> Report {
    let run = drive(kind, seed, budget, None);
    let peak_heap_mb = crate::heap::peak_mb();
    let mut report = Report::new(kind.name(), false, seed, &catalog::END_TO_END);
    report.attempted = run.attempted;
    report.failed = run.failed;
    report.failure_notes = run.notes;
    set_end_to_end(
        &mut report,
        peak_heap_mb,
        &run.ticks.uncontended(),
        &run.setups.uncontended(),
        run.ticks.contention(),
    );
    report
}

/// The traced run: per-layer metrics, the kernel replays, the attribution.
pub fn run_traced(
    kind: MatchKind,
    seed: u64,
    budget: Budget,
    trace_path: &std::path::Path,
) -> Report {
    let mut probe = SpanProbe::new();
    let run = drive(kind, seed, budget, Some(&mut probe));
    let mut report = Report::new(kind.name(), true, seed, &catalog::PER_LAYER);
    report.attempted = run.attempted;
    report.failed = run.failed;
    report.failure_notes = run.notes.clone();

    report.set("peak_rss_mb", peak_rss_mb(), 1);
    exact_counts(&mut report, &run.prefix);
    kernels::replay_corpus(&mut report, &run.corpus);
    kernels::stateless(&mut report, seed);
    kernels::histogram_fidelity(&mut report, &run.ticks.wall());
    set_up_layers(&mut report, kind, &run);
    span_layers(&mut report, &probe, &run);

    if kind == MatchKind::Live16 {
        transport_cost(&mut report, seed, &run);
    }
    if let Err(e) = probe.write_jsonl(trace_path) {
        eprintln!("warning: could not write {}: {e}", trace_path.display());
    }
    report
}

/// Counts over the fixed prefix of units: identical on every run at one seed.
fn exact_counts(report: &mut Report, c: &Counts) {
    report.set("wire_bytes_per_player_s", c.wire_bytes_per_player_s(FRAME_MS), c.units);
    report.set("update_age_frames_p50", c.age_percentile(50.0) as f64, c.ev_delivery);
    report.set("update_age_frames_p99", c.age_percentile(99.0) as f64, c.ev_delivery);
    report.set("ttd_frames_p99", percentile_u64(&c.ttd, 99.0) as f64, c.ttd.len() as u64);

    for (i, label) in reported_labels() {
        report.set(&format!("core.msg.count.{label}"), c.label[i] as f64, 0);
    }
    // Every datagram that decodes is verified once, except the few from an
    // origin the receiver's roster does not know yet (hostile16 only),
    // which are dropped before the signature check.
    report.set("crypto.schnorr.verifies", (c.datagrams_in - c.undecodable) as f64, 0);
    report.set("crypto.schnorr.signs", c.signs as f64, 0);
    report.set("core.verify.checks_run", c.checks_run as f64, 0);
    report.set("core.verify.false_verdicts", c.false_verdicts as f64, 0);
    report.set("core.audit.records", c.audit_records as f64, 0);

    report.set("core.node.events.delivery", c.ev_delivery as f64, 0);
    report.set("core.node.events.bad_signature", c.ev_bad_signature as f64, 0);
    report.set("core.node.events.replay", c.ev_replay as f64, 0);
    report.set("core.node.events.suspicion", c.ev_suspicion as f64, 0);
    report.set("core.node.control.retransmits", c.control.retransmits as f64, 0);
    report.set("core.node.control.acks_sent", c.control.acks_sent as f64, 0);
    report.set("core.node.control.acks_received", c.control.acks_received as f64, 0);
    report.set("core.node.control.abandoned", c.control.abandoned as f64, 0);
    report.set("core.node.control.superseded", c.control.superseded as f64, 0);
    report.set("core.node.control.proxy_fallbacks", c.control.proxy_fallbacks as f64, 0);
    report.set("core.node.churn.stale_drops", c.churn.stale_drops as f64, 0);
    report.set("core.node.churn.joins_applied", c.churn.joins_applied as f64, 0);
    report.set("core.node.churn.evictions_applied", c.churn.evictions_applied as f64, 0);

    report.set("net.simnet.sent", c.net.sent as f64, 0);
    report.set("net.simnet.delivered", c.net.delivered as f64, 0);
    report.set("net.simnet.dropped", c.net.dropped as f64, 0);
    report.set("net.simnet.duplicated", c.net.duplicated as f64, 0);
    report.set("net.simnet.in_flight_max", c.in_flight_max as f64, 0);
    report.set("net.live.frames_in", c.live.frames_in as f64, 0);
    report.set("net.live.frames_out", c.live.frames_out as f64, 0);
    report.set("net.live.heartbeats_sent", c.live.heartbeats_sent as f64, 0);
    report.set("net.live.queue_dropped", c.live.queue_dropped as f64, 0);
    report.set("net.live.unroutable_dropped", c.live.unroutable_dropped as f64, 0);
    report.set("net.live.malformed", c.live.malformed as f64, 0);
    report.set("net.live.truncated", c.live.truncated as f64, 0);
    report.set("net.live.queued_max", c.queued_max as f64, 0);

    let out = c.relay_out + c.tick_out;
    if out > 0 {
        report.set("core.msg.wire_bytes_avg", c.wire_bytes as f64 / out as f64, out);
    }
    if c.datagrams_in > 0 {
        report.set(
            "core.sans_io.relay_fanout",
            c.relay_out as f64 / c.datagrams_in as f64,
            c.datagrams_in,
        );
    }
    if c.player_frames > 0 {
        report.set(
            "core.sans_io.out_per_tick",
            c.tick_out as f64 / c.player_frames as f64,
            c.player_frames,
        );
    }
    report.set("core.sans_io.offpath_share", c.offpath_share(), c.datagrams_in);
}

/// Layers timed in place during set-up and at match end.
fn set_up_layers(report: &mut Report, kind: MatchKind, run: &MatchRun) {
    let n = run.builds_s.len() as u64;
    report.set("sim.workload.build_s", median_f64(&run.builds_s), n);
    let spec = kind.spec(0, 0);
    let player_frames = (spec.nodes() as u64 * spec.frames) as f64;
    report.set(
        "game.trace.record_us_per_player_frame",
        median_f64(&run.builds_s) * 1e6 / player_frames,
        n,
    );
    report.set("crypto.schnorr.keygen_us", median_f64(&run.keygen_us), n);
    report.set("sim.quality.evaluate_ms", median_f64(&run.evaluate_ms), n);
}

/// Layers timed by spans, and what the spans say about the frame.
fn span_layers(report: &mut Report, probe: &SpanProbe, run: &MatchRun) {
    let secs = |l: Layer| probe.total_ns(l) as f64 / 1e9;
    let dg = probe.samples(Layer::Datagram);
    let nt = probe.samples(Layer::NodeTick);
    report.set("core.sans_io.datagram_s", secs(Layer::Datagram), dg.len() as u64);
    report.set("core.sans_io.datagram_us_p50", dg.percentile_us(50.0), dg.len() as u64);
    report.set_percentile(
        "core.sans_io.datagram_us_p99",
        dg.percentile_us(99.0),
        dg.len() as u64,
        dg.beyond(99.0),
    );
    for (i, label) in reported_labels() {
        let (calls, ns) = probe.by_label[i];
        if calls > 0 {
            report.set(
                &format!("core.sans_io.datagram_us.{label}"),
                ns as f64 / calls as f64 / 1e3,
                calls,
            );
        }
    }
    report.set("core.sans_io.tick_s", secs(Layer::NodeTick), nt.len() as u64);
    report.set("core.sans_io.tick_us_p50", nt.percentile_us(50.0), nt.len() as u64);
    report.set_percentile(
        "core.sans_io.tick_us_p99",
        nt.percentile_us(99.0),
        nt.len() as u64,
        nt.beyond(99.0),
    );
    report.set(
        "core.lobby.tick_s",
        secs(Layer::LobbyTick) + secs(Layer::LobbyReport),
        probe.calls(Layer::LobbyTick),
    );
    let admit = probe.samples(Layer::LobbyAdmit);
    report.set("core.lobby.admit_midgame_us", admit.percentile_us(50.0), admit.len() as u64);
    report.set("core.audit.drain_s", secs(Layer::AuditDrain), probe.calls(Layer::AuditDrain));
    report.set("net.simnet.advance_s", secs(Layer::SimAdvance), probe.calls(Layer::SimAdvance));
    report.set("net.simnet.send_s", secs(Layer::SimSend), probe.calls(Layer::SimSend));
    let pump = probe.samples(Layer::LivePump);
    report.set("net.live.pump_us_p50", pump.percentile_us(50.0), pump.len() as u64);
    report.set_percentile(
        "net.live.pump_us_p99",
        pump.percentile_us(99.0),
        pump.len() as u64,
        pump.beyond(99.0),
    );

    // --- Attribution over every traced frame of the run.
    let frames = run.ticks.len() as u64;
    let wall_ns = run.ticks.wall_ns() as f64;
    if wall_ns == 0.0 {
        return;
    }
    let times = run.ticks.uncontended();
    report.set_percentile(
        "attrib.tick_ms_p99",
        times.percentile_ms(99.0),
        frames,
        times.beyond(99.0),
    );
    let (share, factor) = run.ticks.contention();
    report.set("attrib.host_contended_share", share, frames);
    report.set("attrib.host_slowdown_p50", factor, frames);
    let driver_ns: u64 =
        Layer::ALL.iter().filter(|l| l.is_driver()).map(|l| probe.total_ns(*l)).sum();
    let residual = driver_ns as f64 / wall_ns;
    report.set("attrib.driver_residual_share", residual, frames);
    if residual > MAX_RESIDUAL_SHARE {
        report.gate_failures.push(format!(
            "driver residual {:.1} % of frame time exceeds {:.0} %",
            residual * 100.0,
            MAX_RESIDUAL_SHARE * 100.0
        ));
    }

    // Replayed cost per call × exact calls over the same frames. These are
    // estimates: a kernel replayed back to back runs warmer than in place.
    let a = &run.all;
    let us = |name: &str| report.get(name) * 1e3;
    let decodes = (a.datagrams_in - a.undecodable) as f64;
    let crypto_ns =
        us("crypto.schnorr.verify_us") * decodes + us("crypto.schnorr.sign_us") * a.signs as f64;
    let codec_ns = us("core.msg.decode_us") * a.datagrams_in as f64
        + us("core.msg.encode_us") * a.signs as f64;
    let players = if a.frames > 0 { a.player_frames as f64 / a.frames as f64 } else { 0.0 };
    let sets_us = if players > 32.0 {
        "core.subscription.compute_sets_us.48p"
    } else {
        "core.subscription.compute_sets_us.16p"
    };
    let kernels_ns = crypto_ns
        + codec_ns
        + us(sets_us) * a.player_frames as f64
        + us("core.verify.check_position_us") * a.checks_run as f64;
    let node_ns = (probe.total_ns(Layer::Datagram) + probe.total_ns(Layer::NodeTick)) as f64;
    report.set("attrib.crypto_share", crypto_ns / wall_ns, frames);
    report.set("attrib.codec_share", codec_ns / wall_ns, frames);
    report.set("attrib.node_other_share", (node_ns - kernels_ns) / wall_ns, frames);

    if !run.pair_ratios.is_empty() {
        // The median pair: a burst of outside load during one match of a
        // pair skews that pair only.
        let overhead = (median_f64(&run.pair_ratios) - 1.0) * 100.0;
        report.set("attrib.trace_overhead_pct", overhead, run.pair_ratios.len() as u64);
        if overhead > MAX_TRACE_OVERHEAD_PCT {
            report.gate_failures.push(format!(
                "tracing slows the median frame by {overhead:.1} %, more than {MAX_TRACE_OVERHEAD_PCT:.0} %"
            ));
        }
    }
}

/// `live16` only: the same matches over simnet, untraced, so that the
/// difference of the two untraced frame medians is the transport's cost.
fn transport_cost(report: &mut Report, seed: u64, run: &MatchRun) {
    let kind = MatchKind::Live16;
    let mut sim_ticks = Ops::default();
    for unit in (0..kind.counted_units()).step_by(kind.control_every() as usize) {
        let mut spec = kind.spec(seed, unit);
        spec.transport = Transport::Simnet;
        if let Ok(r) = guarded(&spec, || run_match(&spec, &mut NoProbe::new(), None)) {
            sim_ticks.extend(&r.ticks);
        }
    }
    if !sim_ticks.is_empty() && !run.control_ticks.is_empty() {
        let delta = run.control_ticks.uncontended().percentile_ms(50.0)
            - sim_ticks.uncontended().percentile_ms(50.0);
        report.set("net.live.transport_ms_per_tick", delta, sim_ticks.len() as u64);
    }
}
