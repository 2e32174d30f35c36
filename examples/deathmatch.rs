//! A full 48-player deathmatch on the q3dm17-like arena: the paper's
//! headline workload, with a live scoreboard, the Figure 1 presence
//! heatmap, a replay through one secured node per player over the
//! simnet, a small secured segment with a scripted cheater (whose
//! violations trigger flight-recorder dumps), the two scripted soaks of
//! `sim::scenario` (control plane under faults, churn — the run exits
//! non-zero if either fails its gate), and a final telemetry snapshot in
//! Prometheus text format.
//!
//! ```sh
//! cargo run --release --example deathmatch [players] [frames]
//! ```
//!
//! Set `WATCHMEN_TRACE=dump` to print the violation dumps in full, or
//! `WATCHMEN_TRACE=chrome:<path>` to additionally write a merged Chrome
//! `trace_event` JSON (load it at `ui.perfetto.dev` or
//! `chrome://tracing`); any other value but `off` exits 2. Set
//! `WATCHMEN_METRICS_ADDR=127.0.0.1:9464` to serve the global registry
//! live on `/metrics` while the match runs
//! (`WATCHMEN_METRICS_HOLD_MS=<ms>` keeps it up after the final
//! snapshot). The control-plane soak runs under
//! `sim::scenario::default_fault_plan`.

use std::sync::Arc;

use watchmen::core::sans_io::secured_cores;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::{Keypair, PublicKey};
use watchmen::game::heatmap::Heatmap;
use watchmen::game::trace::GameTrace;
use watchmen::game::{GameConfig, GameEvent};
use watchmen::net::{latency, SimNetwork};
use watchmen::sim::cluster::Cluster;
use watchmen::sim::overlay::run_watchmen;
use watchmen::sim::scenario;
use watchmen::sim::workload::speed_hack;
use watchmen::telemetry::{
    causal_chain, export, global, FlightDump, FlightRecorder, MetricValue, MetricsServer,
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
    let metrics_server = match MetricsServer::from_env(
        Arc::new(|| global().snapshot()),
        Arc::new(|name| global().help_for(name)),
    ) {
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
    let (recorders, dumps) = run_secured_segment(&trace, &map, cluster_size, cluster_frames);
    report_violations(&recorders, &dumps, &trace_mode);

    // --- The scripted soaks: 16 honest secured nodes over a faulted
    // simnet, first under burst loss, duplication, reordering and a proxy
    // crash, then through joins, leaves and crash-evictions. Each gates
    // itself.
    println!("\ncontrol-plane soak: 16 secured nodes under faults plus a scripted proxy crash…");
    let faulted = scenario::control_plane_soak(scenario::default_fault_plan()).1.report();
    println!("{faulted}");
    println!("\nchurn soak: 16 veterans, 4 mid-game joins, 2 leaves, 2 crash-evictions…");
    let churn = scenario::churn_soak().1.report();
    println!("{churn}");
    if let Err(e) = faulted.check().and_then(|()| churn.check()) {
        eprintln!("soak FAILED: {e}");
        std::process::exit(1);
    }

    // --- Telemetry: what the instrumented layers recorded.
    let snap = global().snapshot();
    println!("\ntelemetry highlights:");
    println!("  proxy handoffs sent:       {}", snap.counter_sum("proxy_handoffs_total"));
    println!("  network messages dropped:  {}", snap.counter_sum("net_messages_dropped_total"));
    if let Some(MetricValue::Histogram { count, p50, p99, .. }) = snap.get("node_tick_duration_ms")
    {
        println!("  node tick ms:              p50 {p50:.3}  p99 {p99:.3}  ({count} ticks)");
    }

    println!("\nfull snapshot (Prometheus text format):");
    print!("{}", export::prometheus_text_with_help(&snap, &|n| global().help_for(n)));

    if let Some(server) = metrics_server {
        server.hold_then_stop();
    }
}

/// What `WATCHMEN_TRACE` asks the secured segment to write.
#[derive(Debug, PartialEq, Eq)]
enum TraceMode {
    /// Unset, blank or `off`: the dumps' one-line summaries only.
    Off,
    /// `dump`: every flight-recorder dump in full.
    Dump,
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
        if v.eq_ignore_ascii_case("dump") {
            return Ok(TraceMode::Dump);
        }
        match v.strip_prefix("chrome:") {
            Some(path) if !path.is_empty() => Ok(TraceMode::Chrome(path.to_owned())),
            _ => Err(format!("WATCHMEN_TRACE={value:?} is not off, dump or chrome:<path>")),
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
/// is replayed verbatim once. Returns every node's flight recorder and
/// the violation dumps they captured.
fn run_secured_segment(
    trace: &GameTrace,
    map: &GameMap,
    cluster_size: usize,
    frames: u64,
) -> (Vec<Arc<FlightRecorder>>, Vec<FlightDump>) {
    let seed = 2013u64;
    let config = WatchmenConfig::default();
    let keys: Vec<Keypair> =
        (0..cluster_size).map(|i| Keypair::generate(seed ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    let mut cluster = Cluster::new(
        secured_cores(&keys, &directory, None, seed, config, map),
        SimNetwork::new(cluster_size, latency::constant(8.0), 0.0, seed),
        config.frame_ms,
    );
    let mut replayed: Option<(usize, Vec<u8>)> = None;
    for frame in 0..frames {
        // Half-way through, re-send p1's captured bytes: a replay cheat
        // the anti-replay window rejects and dumps.
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
    }
    let recorders = cluster.cores.iter().flatten().map(|c| c.node().recorder()).collect();
    let dumps =
        cluster.cores.iter_mut().flatten().flat_map(|c| c.node_mut().take_flight_dumps()).collect();
    (recorders, dumps)
}

/// Prints what the flight recorders captured around the scripted
/// violations: a summary per dump, the cross-node causal chain of the
/// first position violation, and — per `WATCHMEN_TRACE` — either the full
/// dumps (`dump`) or a merged Chrome trace file (`chrome:<path>`).
fn report_violations(recorders: &[Arc<FlightRecorder>], dumps: &[FlightDump], mode: &TraceMode) {
    println!("\nflight-recorder violations captured: {}", dumps.len());
    for d in dumps.iter().take(6) {
        println!(
            "  {} on p{} ({} events retained, trace {})",
            d.reason,
            d.subject,
            d.events.len(),
            d.trace_id,
        );
    }

    // Reconstruct the causal chain of one offending message across every
    // node: origin send → proxy relay → verifier's verdict.
    let refs: Vec<&FlightRecorder> = recorders.iter().map(Arc::as_ref).collect();
    if let Some(dump) = dumps.iter().find(|d| d.trace_id.is_some()) {
        let chain = causal_chain(&refs, dump.trace_id);
        println!(
            "\ncausal chain of the offending message (trace {}, \"{}\"):",
            dump.trace_id, dump.reason
        );
        for e in &chain {
            println!("  {e}");
        }
    }

    match mode {
        TraceMode::Off => {
            println!("\n(set WATCHMEN_TRACE=dump or chrome:<path> for full trace output)");
        }
        TraceMode::Dump => {
            for d in dumps {
                println!("\n{d}");
            }
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
        assert_eq!(TraceMode::parse("dump"), Ok(TraceMode::Dump));
        assert_eq!(TraceMode::parse("DUMP"), Ok(TraceMode::Dump));
        assert_eq!(
            TraceMode::parse("chrome:/tmp/t.json"),
            Ok(TraceMode::Chrome("/tmp/t.json".into()))
        );
        assert_eq!(TraceMode::parse(""), Ok(TraceMode::Off));
        assert_eq!(TraceMode::parse("off"), Ok(TraceMode::Off));
        for junk in ["bogus", "chrome:", "chrom:/x"] {
            let e = TraceMode::parse(junk).expect_err(junk);
            assert!(e.contains("WATCHMEN_TRACE"), "{e}");
        }
    }
}
