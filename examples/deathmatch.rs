//! A full 48-player deathmatch on the q3dm17-like arena: the paper's
//! headline workload, with a live scoreboard, the Figure 1 presence
//! heatmap, a replay through one secured node per player over the
//! simnet, a small secured segment with a scripted cheater (whose
//! verdicts the audit stream reports, one traced back across the
//! flight recorders), the two scripted soaks of
//! `sim::scenario` (control plane under faults, churn — the run exits
//! non-zero if either fails its gate), and a final telemetry snapshot in
//! Prometheus text format.
//!
//! ```sh
//! cargo run --release --example deathmatch [players] [frames]
//! ```
//!
//! Set `WATCHMEN_TRACE=chrome:<path>` to also write the segment's merged
//! Chrome `trace_event` JSON (load it at `ui.perfetto.dev` or
//! `chrome://tracing`); any other value but `off` exits 2. Set
//! `WATCHMEN_METRICS_ADDR=127.0.0.1:9464` to serve the global registry
//! live on `/metrics` while the match runs: the node histograms as they
//! fill, and each run's counters once it ends
//! (`WATCHMEN_METRICS_HOLD_MS=<ms>` keeps it up after the final
//! snapshot). The control-plane soak runs under
//! `sim::scenario::default_fault_plan`.

use std::sync::Arc;

use watchmen::core::audit::{AuditKind, AuditRecord};
use watchmen::core::rating::SEVERE_SCORE;
use watchmen::core::sans_io::{secured_cores, ProtocolCore};
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::{Keypair, PublicKey};
use watchmen::game::heatmap::Heatmap;
use watchmen::game::trace::GameTrace;
use watchmen::game::{GameConfig, GameEvent};
use watchmen::net::{latency, SimNetwork};
use watchmen::sim::cluster::{Cluster, Verdicts};
use watchmen::sim::overlay::run_watchmen;
use watchmen::sim::scenario;
use watchmen::sim::workload::speed_hack;
use watchmen::telemetry::trace::EventKind;
use watchmen::telemetry::{
    causal_chain, export, global, FlightRecorder, MetricValue, MetricsServer, DEFAULT_CAPACITY,
};
use watchmen::world::{maps, GameMap};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        usage_error(&format!("expected at most 2 arguments, got {}", args.len()));
    }
    let players: usize = match args.first() {
        None => 48,
        Some(a) => a.parse().unwrap_or_else(|_| usage_error(&format!("bad players {a:?}"))),
    };
    let frames: u64 = match args.get(1) {
        None => 2400,
        Some(a) => a.parse().unwrap_or_else(|_| usage_error(&format!("bad frames {a:?}"))),
    };
    if players < 2 {
        usage_error("players must be >= 2");
    }
    let trace_mode = match std::env::var("WATCHMEN_TRACE") {
        Err(_) => TraceMode::Off,
        Ok(v) => TraceMode::parse(&v).unwrap_or_else(|e| usage_error(&e)),
    };

    // The live scrape endpoint over the process-wide registry, when
    // WATCHMEN_METRICS_ADDR asks for one.
    let metrics_server = match MetricsServer::from_env(Arc::new(|| global().snapshot())) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("metrics endpoint failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(server) = &metrics_server {
        println!("metrics endpoint listening on {}", server.local_addr());
    }

    let map = maps::q3dm17_like();
    println!("map: {map}");
    println!("{}\n", map.to_ascii());

    println!(
        "running a {players}-player deathmatch for {frames} frames ({}s of play)…",
        frames / 20
    );
    let config = GameConfig { map: map.clone(), ..GameConfig::default() };
    let trace = GameTrace::record(config, players, 2013, frames);

    // Event tally.
    let (mut shots, mut hits, mut kills, mut falls, mut pickups) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut scores = vec![0i64; players];
    for frame in &trace.frames {
        for e in &frame.events {
            match e {
                GameEvent::Shot { .. } => shots += 1,
                GameEvent::Hit { .. } => hits += 1,
                GameEvent::Kill { attacker, victim, .. } => {
                    kills += 1;
                    if attacker != victim {
                        scores[attacker.index()] += 1;
                    }
                }
                GameEvent::Fall { victim } => {
                    falls += 1;
                    scores[victim.index()] -= 1;
                }
                GameEvent::Pickup { .. } => pickups += 1,
                GameEvent::Respawn { .. } => {}
            }
        }
    }
    println!("events: {shots} shots, {hits} hits, {kills} kills, {falls} falls, {pickups} pickups");

    // Top 5 scoreboard.
    let mut board: Vec<(usize, i64)> = scores.iter().copied().enumerate().collect();
    board.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    println!("\ntop fraggers:");
    for (rank, (p, s)) in board.iter().take(5).enumerate() {
        println!("  {}. p{p} with {s} frags", rank + 1);
    }

    // Figure 1: the presence heatmap.
    let heat = Heatmap::from_trace(&map, &trace);
    println!("\npresence heatmap (log-normalized, '9' = hottest):");
    println!("{}", heat.to_ascii());
    println!(
        "\nconcentration: top decile of visited cells holds {:.0}% of presence (gini {:.2})",
        heat.top_share(0.1) * 100.0,
        heat.gini()
    );

    // --- Network replay: the same match through the shipped secured node,
    // one per player, over the simulated internet.
    let net_frames = frames.min(600);
    let mut net_trace = trace.clone();
    net_trace.frames.truncate(net_frames as usize);
    let watchmen_config = WatchmenConfig::default();
    println!(
        "\nreplaying {net_frames} frames through {players} secured nodes over the simnet \
         (king-like latency, 1% loss)…"
    );
    let report = run_watchmen(
        &net_trace,
        &map,
        &watchmen_config,
        latency::king_like(players, 2013),
        0.01,
        2013,
    );
    println!(
        "secured nodes: {} updates delivered, {} dropped, {:.1}% late-or-lost, \
         mean up {:.1} kbps (max {:.1}), mean down {:.1} kbps",
        report.updates_delivered,
        report.network_dropped,
        report.late_or_lost * 100.0,
        report.mean_up_kbps,
        report.max_up_kbps,
        report.mean_down_kbps,
    );

    // --- Secured segment: a small cluster of full secured nodes (signed
    // envelopes, proxy supervision, handoffs) over an 8 ms simnet, enough
    // frames to cross several proxy epochs.
    let cluster_size = players.clamp(3, 12);
    let cluster_frames = net_frames.min(130);
    println!(
        "\nrunning {cluster_size} secured nodes for {cluster_frames} frames \
         (signatures, proxies, handoffs; p2 speed-hacks, p1 replays)…"
    );
    let (recorders, audit) = run_secured_segment(&trace, &map, cluster_size, cluster_frames);
    report_violations(&recorders, &audit, &trace_mode);

    // --- The scripted soaks: 16 honest secured nodes over a faulted
    // simnet, first under burst loss, duplication, reordering and a proxy
    // crash, then through joins, leaves and crash-evictions. Each gates
    // itself.
    println!("\ncontrol-plane soak: 16 secured nodes under faults plus a scripted proxy crash…");
    let (soaked, faulted) = scenario::control_plane_soak(scenario::default_fault_plan());
    soaked.publish(global());
    let faulted = faulted.report();
    println!("{faulted}");
    println!("\nchurn soak: 16 veterans, 4 mid-game joins, 2 leaves, 2 crash-evictions…");
    let (soaked, churn) = scenario::churn_soak();
    soaked.publish(global());
    let churn = churn.report();
    println!("{churn}");
    if let Err(e) = faulted.check().and_then(|()| churn.check()) {
        eprintln!("soak FAILED: {e}");
        std::process::exit(1);
    }

    // --- Telemetry: the node histograms, and the counters published as
    // each run ended: the secured segment's nodes, network and verdicts,
    // and the soaks' nodes and networks.
    let snap = global().snapshot();
    println!("\ntelemetry highlights:");
    println!("  proxy handoffs sent:       {}", snap.counter_sum("proxy_handoffs_total"));
    println!("  network messages dropped:  {}", snap.counter_sum("net_messages_dropped_total"));
    if let Some(MetricValue::Histogram { count, p50, p99, .. }) = snap.get("node_tick_duration_ms")
    {
        println!("  node tick ms:              p50 {p50:.3}  p99 {p99:.3}  ({count} ticks)");
    }

    println!("\nfull snapshot (Prometheus text format):");
    print!("{}", export::prometheus_text(&snap));

    if let Some(server) = metrics_server {
        server.hold_then_stop();
    }
}

/// What `WATCHMEN_TRACE` asks the secured segment to write.
#[derive(Debug, PartialEq, Eq)]
enum TraceMode {
    /// Unset, blank or `off`: the printed report only.
    Off,
    /// `chrome:<path>`: also every node's events as one Chrome
    /// `trace_event` JSON file at `path`.
    Chrome(String),
}

impl TraceMode {
    /// Parses a `WATCHMEN_TRACE` value; anything else is an error that
    /// names the variable, so a typo cannot quietly turn tracing off.
    fn parse(value: &str) -> Result<TraceMode, String> {
        let v = value.trim();
        if v.is_empty() || v.eq_ignore_ascii_case("off") {
            return Ok(TraceMode::Off);
        }
        match v.strip_prefix("chrome:") {
            Some(path) if !path.is_empty() => Ok(TraceMode::Chrome(path.to_owned())),
            _ => Err(format!("WATCHMEN_TRACE={value:?} is not off or chrome:<path>")),
        }
    }
}

/// Rejects malformed CLI input loudly: silently soaking the default
/// workload under a typo'd argument burns minutes and gates on the wrong
/// run.
fn usage_error(reason: &str) -> ! {
    eprintln!("error: {reason}");
    eprintln!("usage: deathmatch [players] [frames]   (defaults: 48 players, 2400 frames)");
    std::process::exit(2);
}

/// Drives a small [`Cluster`] over a clean 8 ms simnet, feeding it the
/// first `cluster_size` players' recorded states — except player 2, who
/// speed-hacks every fourth frame, and player 1, whose first state update
/// is replayed verbatim once. Each node keeps a flight recorder; the
/// segment's counters go to the global registry when it ends. Returns
/// every node's flight recorder and the audit records drained from every
/// node after each frame.
fn run_secured_segment(
    trace: &GameTrace,
    map: &GameMap,
    cluster_size: usize,
    frames: u64,
) -> (Vec<Arc<FlightRecorder>>, Vec<AuditRecord>) {
    let seed = 2013u64;
    let config = WatchmenConfig::default();
    let keys: Vec<Keypair> =
        (0..cluster_size).map(|i| Keypair::generate(seed ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    let cores = secured_cores(&keys, &directory, None, seed, config, map)
        .map(|c| ProtocolCore::new(c.into_node().with_recorder_capacity(DEFAULT_CAPACITY)));
    let mut cluster = Cluster::new(
        cores,
        SimNetwork::new(cluster_size, latency::constant(8.0), 0.0, seed),
        config.frame_ms,
    );
    let mut verdicts = Verdicts::new(&[2]);
    let mut replayed: Option<(usize, Vec<u8>)> = None;
    let mut audit = Vec::new();
    for frame in 0..frames {
        // Half-way through, re-send p1's captured bytes: a replay cheat
        // the anti-replay window rejects and audits.
        if frame == frames / 2 {
            if let Some((to, bytes)) = replayed.take() {
                let size = bytes.len();
                cluster.net.send(1, to, bytes, size);
            }
        }
        cluster.step(
            frame,
            |i| {
                let mut state = trace.frames[frame as usize].states[i];
                // The scripted cheater: p2 reports a teleported position
                // every fourth frame, which its proxy's physics check flags.
                if i == 2 {
                    speed_hack(&mut state, frame);
                }
                state
            },
            |i, output| {
                verdicts.note(&output.events);
                if i == 1 && frame == 0 {
                    // Keep p1's first state update for the later replay
                    // (nothing is in flight yet, so this is its tick).
                    replayed = output
                        .datagrams
                        .iter()
                        .find(|o| o.bytes.len() > 60)
                        .map(|o| (o.to.index(), o.bytes.clone()));
                }
            },
        );
        audit.extend(cluster.cores.iter_mut().flatten().flat_map(|c| c.drain_audit()));
    }
    cluster.publish(global());
    verdicts.publish(global());
    let recorders = cluster.cores.iter().flatten().filter_map(|c| c.node().recorder()).collect();
    (recorders, audit)
}

/// Prints what the audit stream recorded in the secured segment: the
/// record count per kind, the first records, the cross-node causal chain
/// of the first severe position verdict on the cheater p2 that the
/// flight recorders still hold, and — per
/// `WATCHMEN_TRACE` — a merged Chrome trace file (`chrome:<path>`).
fn report_violations(recorders: &[Arc<FlightRecorder>], audit: &[AuditRecord], mode: &TraceMode) {
    let mut kinds: Vec<(&str, usize)> = Vec::new();
    for r in audit {
        match kinds.iter_mut().find(|(k, _)| *k == r.kind.label()) {
            Some((_, n)) => *n += 1,
            None => kinds.push((r.kind.label(), 1)),
        }
    }
    let by_kind: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!("\naudit records: {} ({})", audit.len(), by_kind.join(" "));
    for r in audit.iter().take(6) {
        println!("  {}", r.to_jsonl());
    }

    // Reconstruct the causal chain of one offending message across every
    // node: origin send → proxy relay → verifier's verdict. The rings
    // keep only recent events, so this is the first verdict whose
    // origin send and violation mark are both still retained.
    let refs: Vec<&FlightRecorder> = recorders.iter().map(Arc::as_ref).collect();
    let first = audit
        .iter()
        .filter(|r| {
            r.kind == AuditKind::Verdict
                && r.check == "position"
                && r.subject == 2
                && r.score >= SEVERE_SCORE
                && r.trace.is_some()
        })
        .map(|r| (r, causal_chain(&refs, r.trace)))
        .find(|(_, chain)| {
            [EventKind::Send, EventKind::Violation]
                .iter()
                .all(|k| chain.iter().any(|e| e.kind == *k))
        });
    if let Some((verdict, chain)) = first {
        println!(
            "\ncausal chain of the offending message (trace {}, \"{}\" on p{} by n{}):",
            verdict.trace, verdict.check, verdict.subject, verdict.node
        );
        for e in chain {
            println!("  {e}");
        }
    }

    match mode {
        TraceMode::Off => {
            println!("\n(set WATCHMEN_TRACE=chrome:<path> for the merged trace file)");
        }
        TraceMode::Chrome(path) => {
            let mut events = Vec::new();
            for r in &refs {
                events.extend(r.snapshot());
            }
            events.sort_by_key(|e| e.at_us);
            let json = export::chrome_trace(&events);
            match std::fs::write(path, &json) {
                Ok(()) => println!(
                    "\nwrote {} trace events to {path} (load at ui.perfetto.dev)",
                    events.len()
                ),
                Err(e) => eprintln!("\nfailed to write chrome trace to {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::TraceMode;

    #[test]
    fn trace_mode_parsing() {
        assert_eq!(
            TraceMode::parse("chrome:/tmp/t.json"),
            Ok(TraceMode::Chrome("/tmp/t.json".into()))
        );
        assert_eq!(TraceMode::parse(""), Ok(TraceMode::Off));
        assert_eq!(TraceMode::parse("off"), Ok(TraceMode::Off));
        for junk in ["bogus", "dump", "chrome:", "chrom:/x"] {
            let e = TraceMode::parse(junk).expect_err(junk);
            assert!(e.contains("WATCHMEN_TRACE"), "{e}");
        }
    }
}
