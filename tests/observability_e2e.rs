//! End-to-end observability-plane properties.
//!
//! The audit stream contract: the verdict audit JSONL a fleet emits is a
//! pure function of the match specs — worker count and steal order are
//! invisible, so an operator can diff two runs byte-for-byte. Plus the
//! scrape contract: a live fleet's metrics endpoint serves well-formed
//! Prometheus exposition text with per-shard labels and the matches'
//! node metrics while matches run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use watchmen::fleet::{
    run_fleet_on, run_fleet_specs, run_fleet_specs_on, FleetConfig, FleetView, MatchSpec,
    PoolConfig, TTD_BUDGET_FRAMES,
};
use watchmen::telemetry::{MetricValue, MetricsServer};

/// A small audited fleet: honest matches plus scripted cheaters, sizes
/// varied so quanta interleave unevenly across workers.
fn audited_specs() -> Vec<MatchSpec> {
    let config = FleetConfig {
        matches: 8,
        players: 8,
        frames: 100,
        seed: 4242,
        cheat_every: 4,
        tick_quantum: 8,
        audit: true,
        ..FleetConfig::default()
    };
    let mut specs = config.specs();
    for (i, spec) in specs.iter_mut().enumerate() {
        if i % 3 == 0 {
            spec.frames = 130;
        }
    }
    specs
}

#[test]
fn audit_stream_is_byte_identical_across_worker_counts() {
    let baseline = run_fleet_specs(audited_specs(), &PoolConfig { workers: 1, max_local: 4 });
    let base_jsonl = baseline.audit_jsonl();
    assert!(!base_jsonl.is_empty(), "audited fleet produced no audit records");
    // Every line is tagged with its match id, is a JSON object, and
    // carries the keys downstream tooling joins on; both record kinds
    // appear in a fleet with cheaters.
    for line in base_jsonl.lines() {
        assert!(line.starts_with("{\"match\":"), "untagged audit line: {line}");
        assert!(line.ends_with('}'), "truncated audit line: {line}");
        for key in ["frame", "node", "kind", "check", "trace"] {
            assert!(line.contains(&format!("\"{key}\":")), "audit line lacks {key}: {line}");
        }
    }
    for kind in ["verdict", "rating_transition"] {
        assert!(base_jsonl.contains(&format!("\"kind\":\"{kind}\"")), "no {kind} record");
    }

    for workers in [2, 8] {
        let run = run_fleet_specs(audited_specs(), &PoolConfig { workers, max_local: 4 });
        assert_eq!(
            run.audit_jsonl(),
            base_jsonl,
            "audit stream must be byte-identical under {workers} workers"
        );
    }
}

#[test]
fn audit_stream_meets_the_detection_slo() {
    let run = run_fleet_specs(audited_specs(), &PoolConfig { workers: 2, max_local: 4 });
    let quality = run.detection_quality();
    assert_eq!(quality.injected, 2, "cheat_every=4 over 8 matches plants 2 cheaters");
    assert_eq!(quality.detected, quality.injected, "a planted cheater went undetected");
    assert_eq!(quality.false_verdicts, 0, "honest players drew severe verdicts");
    let p99 = quality.ttd_percentile(99.0).expect("detections have a ttd");
    assert!(p99 <= TTD_BUDGET_FRAMES, "ttd p99 {p99} blew the {TTD_BUDGET_FRAMES}-frame budget");
    let config = FleetConfig { matches: 8, cheat_every: 4, ..FleetConfig::default() };
    let [_, detection] = run.report(&config);
    assert_eq!(detection.failing(), None, "slo gate disagrees with the joined stats: {detection}");
    assert!(detection.get("position_tp").is_some(), "no per-check confusion: {detection}");
    // One late detection past the budget fails the report on that figure.
    let mut late = run;
    late.reports[0].quality.ttd_frames = vec![TTD_BUDGET_FRAMES + 1];
    assert_eq!(late.report(&config)[1].failing(), Some("ttd_p99"));
}

/// Scrape `path` from a live endpoint over a raw TCP socket.
fn scrape(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("http header/body split");
    (head.to_owned(), body.to_owned())
}

#[test]
fn live_endpoint_serves_prometheus_exposition_for_a_fleet() {
    let view = Arc::new(FleetView::new(2, 8));
    let scrape_view = Arc::clone(&view);
    let server = MetricsServer::bind("127.0.0.1:0", Arc::new(move || scrape_view.snapshot()))
        .expect("bind loopback endpoint");
    let addr = server.local_addr();

    // Before any match runs, the endpoint is already up: every planned
    // match shows as pending.
    let (_, before) = scrape(addr, "/metrics");
    assert!(
        before.contains("fleet_matches{state=\"pending\"} 8"),
        "pre-run scrape missing pending gauge:\n{before}"
    );

    let run = run_fleet_specs_on(audited_specs(), &PoolConfig { workers: 2, max_local: 4 }, &view);
    assert_eq!(run.completed(), 8);

    let (head, body) = scrape(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    assert!(head.contains("text/plain; version=0.0.4"), "bad content type: {head}");
    // Per-shard rollup labels survive into the exposition text.
    assert!(body.contains("fleet_quanta_total{shard=\"0\"}"), "missing shard 0:\n{body}");
    assert!(body.contains("fleet_quanta_total{shard=\"1\"}"), "missing shard 1:\n{body}");
    assert!(body.contains("fleet_matches{state=\"completed\"} 8"), "missing completion:\n{body}");
    // Conformance: every family has a TYPE line, and millisecond
    // histograms are exported under canonical `_seconds` names.
    assert!(body.lines().any(|l| l.starts_with("# TYPE fleet_quanta_total counter")));
    assert!(body.contains("_seconds_bucket{"), "histograms not exported in seconds:\n{body}");
    assert!(!body.contains("_ms_bucket"), "raw millisecond buckets leaked:\n{body}");

    // The matches' node counters and timing histograms come per shard.
    assert!(body.contains("node_messages_forwarded_total{shard="), "no node counters:\n{body}");
    assert!(
        body.contains("# TYPE node_tick_duration_seconds histogram"),
        "no node metrics:\n{body}"
    );
    assert!(body.contains("node_tick_duration_seconds_count{shard="), "unlabelled:\n{body}");
    // A scrape is readable without the source: the derived gauges, a
    // shard's counters and its histograms each carry one `# HELP` line,
    // right above their `# TYPE` line.
    let lines: Vec<&str> = body.lines().collect();
    for name in ["fleet_matches", "fleet_quanta_total", "node_tick_duration_seconds"] {
        let help = format!("# HELP {name} ");
        let at: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].starts_with(&help)).collect();
        assert_eq!(at.len(), 1, "{name} needs exactly one HELP line:\n{body}");
        let type_line = lines.get(at[0] + 1).copied().unwrap_or_default();
        assert!(type_line.starts_with(&format!("# TYPE {name} ")), "{name}: HELP, then TYPE");
    }

    let (health_head, health_body) = scrape(addr, "/healthz");
    assert!(health_head.starts_with("HTTP/1.1 200"), "healthz not ok: {health_head}");
    assert!(health_body.contains("ok"), "healthz body: {health_body}");

    let (missing_head, _) = scrape(addr, "/nope");
    assert!(missing_head.starts_with("HTTP/1.1 404"), "expected 404: {missing_head}");
}

/// A fleet's scrape counts its own fleet: a match publishes its node
/// counters into its shard's registry when it drains, and times its
/// nodes' calls into the shard running it, so two identical fleets run
/// back to back in one process read the same totals.
#[test]
fn a_fleet_scrape_counts_only_its_own_fleet() {
    let config = FleetConfig { matches: 4, players: 6, frames: 60, ..FleetConfig::default() };
    let scraped = || {
        let view = FleetView::for_config(&config);
        assert_eq!(run_fleet_on(&config, &view).completed(), 4);
        let snap = view.snapshot();
        let ticks: u64 = snap
            .entries
            .iter()
            .filter(|e| e.name == "node_tick_duration_ms")
            .map(|e| match e.value {
                MetricValue::Histogram { count, .. } => count,
                _ => 0,
            })
            .sum();
        (snap.counter_sum("node_messages_forwarded_total"), ticks)
    };
    let first = scraped();
    assert!(first.0 > 0, "the fleet's nodes forwarded nothing");
    assert_eq!(first.1, 4 * 6 * 60, "one tick per node per frame of this fleet");
    assert_eq!(scraped(), first, "the second fleet's scrape counts the first fleet too");
}

#[test]
fn observability_plane_does_not_change_match_outcomes() {
    // Same fleet with the plane fully on vs fully off: the game-visible
    // results (per-match summary lines) must be identical apart from the
    // audit counter itself.
    let mut on = audited_specs();
    for spec in &mut on {
        spec.observe = true;
    }
    let mut off = audited_specs();
    for spec in &mut off {
        spec.observe = false;
        spec.audit = false;
    }
    let pool = PoolConfig { workers: 2, max_local: 4 };
    let on_run = run_fleet_specs(on, &pool);
    let off_run = run_fleet_specs(off, &pool);
    let strip = |lines: String| -> Vec<String> {
        lines
            .lines()
            .map(|l| {
                l.split_whitespace()
                    .filter(|t| !t.starts_with("audit=") && !t.starts_with("ttd="))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    };
    assert_eq!(strip(on_run.match_lines()), strip(off_run.match_lines()));
    assert!(off_run.audit_jsonl().is_empty(), "disabled plane still emitted audit records");
}
