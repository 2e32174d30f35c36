//! A full 48-player deathmatch on the q3dm17-like arena: the paper's
//! headline workload, with a live scoreboard, the Figure 1 presence
//! heatmap, a replay through one secured node per player over the
//! simnet, a small secured segment with a scripted cheater (whose
//! verdicts the audit stream reports, the first one traced back through
//! a seeded re-run of the segment), the two scripted soaks of
//! `sim::scenario` (control plane under faults, churn), and a final
//! telemetry snapshot in Prometheus text format. The run exits non-zero
//! if a soak fails its gate, if the re-run's audit stream differs from
//! the first run's, or if the traced verdict's chain has no send.
//!
//! ```sh
//! cargo run --release --example deathmatch [players] [frames]
//! ```
//!
//! Set `WATCHMEN_METRICS_ADDR=127.0.0.1:9464` to serve the run's registry
//! live on `/metrics` while the match runs: the secured segment's node
//! timings as they fill, and each run's counters once it ends
//! (`WATCHMEN_METRICS_HOLD_MS=<ms>` keeps it up after the final
//! snapshot). The control-plane soak runs under
//! `sim::scenario::default_fault_plan`.

use std::sync::Arc;

use watchmen::core::audit::{AuditKind, AuditRecord};
use watchmen::core::msg::SignedEnvelope;
use watchmen::core::rating::SEVERE_SCORE;
use watchmen::core::sans_io::{secured_cores, CoreOutput};
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
use watchmen::telemetry::{export, MetricValue, MetricsServer, Registry};
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

    // The run's registry, and the live scrape endpoint over it when
    // WATCHMEN_METRICS_ADDR asks for one.
    let registry = Arc::new(Registry::new());
    let scraped = Arc::clone(&registry);
    let metrics_server = match MetricsServer::from_env(Arc::new(move || scraped.snapshot())) {
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
    // Only this first run is timed into the registry; the re-run that
    // rebuilds the causal chain is not.
    let segment = |timed: Option<&Registry>, tap: &mut dyn FnMut(u64, usize, &CoreOutput)| {
        run_secured_segment(&trace, &map, cluster_size, cluster_frames, timed, tap)
    };
    let (cluster, verdicts, audit) = segment(Some(&registry), &mut |_, _, _| {});
    cluster.publish(&registry);
    verdicts.publish(&registry);
    report_audit(&audit);
    if let Err(e) = print_causal_chain(&audit, |tap| segment(None, tap)) {
        eprintln!("causal chain FAILED: {e}");
        std::process::exit(1);
    }

    // --- The scripted soaks: 16 honest secured nodes over a faulted
    // simnet, first under burst loss, duplication, reordering and a proxy
    // crash, then through joins, leaves and crash-evictions. Each gates
    // itself.
    println!("\ncontrol-plane soak: 16 secured nodes under faults plus a scripted proxy crash…");
    let (soaked, faulted) = scenario::control_plane_soak(scenario::default_fault_plan());
    soaked.publish(&registry);
    let faulted = faulted.report();
    println!("{faulted}");
    println!("\nchurn soak: 16 veterans, 4 mid-game joins, 2 leaves, 2 crash-evictions…");
    let (soaked, churn) = scenario::churn_soak();
    soaked.publish(&registry);
    let churn = churn.report();
    println!("{churn}");
    if let Err(e) = faulted.check().and_then(|()| churn.check()) {
        eprintln!("soak FAILED: {e}");
        std::process::exit(1);
    }

    // --- Telemetry: the secured segment's node timings, and the counters
    // published as each run ended: the secured segment's nodes, network
    // and verdicts, and the soaks' nodes and networks.
    let snap = registry.snapshot();
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
/// is replayed verbatim once. `tap(frame, slot, output)` sees every
/// output before it goes on the wire, and each call into a core is timed
/// into `timed` when given. The run is deterministic, so two calls put
/// the same datagrams on the wire. Returns the cluster, its verdicts and
/// the audit records drained from every node after each frame.
fn run_secured_segment(
    trace: &GameTrace,
    map: &GameMap,
    cluster_size: usize,
    frames: u64,
    timed: Option<&Registry>,
    tap: &mut dyn FnMut(u64, usize, &CoreOutput),
) -> (Cluster, Verdicts, Vec<AuditRecord>) {
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
    if let Some(registry) = timed {
        cluster.time_into(registry);
    }
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
                tap(frame, i, output);
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
    (cluster, verdicts, audit)
}

/// Prints what the audit stream recorded in the secured segment: the
/// record count per kind and the first records.
fn report_audit(audit: &[AuditRecord]) {
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
}

/// Prints the causal chain of the first severe `position` verdict on the
/// cheater p2 in `audit`, rebuilt by re-running the seeded segment
/// through `segment` and keeping every datagram whose trace id is the
/// verdict's: one sent by its origin's slot is the send, any other a
/// relay; then the audit records that name the trace. Fails when the
/// re-run's audit stream differs from `audit` or the chain has no send;
/// a segment too short to draw such a verdict has no chain to print.
fn print_causal_chain(
    audit: &[AuditRecord],
    segment: impl FnOnce(
        &mut dyn FnMut(u64, usize, &CoreOutput),
    ) -> (Cluster, Verdicts, Vec<AuditRecord>),
) -> Result<(), String> {
    let Some(verdict) = audit.iter().find(|r| {
        r.kind == AuditKind::Verdict
            && r.check == "position"
            && r.subject == 2
            && r.score >= SEVERE_SCORE
    }) else {
        println!("\n(no severe position verdict on p2 to trace)");
        return Ok(());
    };
    let (mut hops, mut sends) = (Vec::new(), 0);
    let (_, _, rerun) = segment(&mut |frame, slot, output| {
        let mut hop: Option<(bool, &str, String)> = None;
        for o in &output.datagrams {
            let Ok(msg) = SignedEnvelope::decode(&o.bytes) else { continue };
            if msg.trace_id() == verdict.trace {
                let env = msg.envelope;
                let send = env.from.index() == slot;
                let (_, _, to) = hop.get_or_insert((send, env.payload.label(), String::new()));
                to.push_str(&format!(" n{}", o.to.index()));
            }
        }
        if let Some((send, label, to)) = hop {
            sends += usize::from(send);
            let step = if send { "send" } else { "relay" };
            hops.push(format!("f{frame:<4} n{slot} {step:<5} {label} ->{to}"));
        }
    });
    if rerun != audit {
        return Err("the re-run's audit stream differs from the first run's".into());
    }
    println!(
        "\ncausal chain of the first severe \"{}\" verdict on p{} (trace {}, n{} at frame {}), \
         from a seeded re-run:",
        verdict.check, verdict.subject, verdict.trace, verdict.node, verdict.frame
    );
    for hop in &hops {
        println!("  {hop}");
    }
    if hops.len() == sends {
        println!("  (no relay: its proxy had no subscriber to forward it to)");
    }
    for r in audit.iter().filter(|r| r.trace == verdict.trace) {
        println!("  {}", r.to_jsonl());
    }
    if sends == 0 {
        return Err(format!("the chain of trace {} has no send", verdict.trace));
    }
    Ok(())
}
