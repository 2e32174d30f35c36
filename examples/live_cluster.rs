//! A live Watchmen deathmatch across real OS processes.
//!
//! The parent process spawns one child process per player; each child
//! binds a `LiveTransport` (nonblocking batched UDP) on loopback, wraps
//! the identical sans-io `ProtocolCore` the simnet and fleet drivers
//! run, and plays a recorded deathmatch in real time — with one injected
//! speed-hacker whose proxy (a *different OS process*) must flag it.
//!
//! ```sh
//! cargo run --release --example live_cluster [players] [frames]
//! ```
//!
//! Defaults: 6 players, 240 frames. Knobs:
//!
//! * `WATCHMEN_LIVE_SEED` — workload/key/schedule seed (default 2013)
//! * `WATCHMEN_LIVE_PACE_MS` — real milliseconds per protocol frame
//!   (default 10; the protocol's own constants stay in frames, so pacing
//!   only scales wall clock)
//! * `WATCHMEN_LIVE_CHEATER` — player index scripted to speed-hack
//!   (default 2)
//!
//! The parent prints one `live summary:` report and exits non-zero
//! unless its gate holds: every process completed, the cheater (and
//! nobody else) drew severe verdicts, transport heartbeats flowed and no
//! datagram arrived malformed or truncated:
//!
//! ```text
//! live summary: players=6 frames=240 cheater=2 completed=6 severe=120 \
//!   detected=1 false_verdicts=0 heartbeats=458 malformed=0 truncated=0 queue_dropped=0
//! ```
//!
//! Rendezvous protocol (stdin/stdout lines, parent ↔ child):
//! child prints `ADDR <socketaddr>`; parent gathers all addresses and
//! writes `PEERS <addr0> <addr1> …`; child heartbeats until it has heard
//! every peer, prints `UP`; parent writes `GO` to everyone at once; the
//! match runs; child prints its counters as a `node <i> result:` report
//! line and exits. The parent reads that line back strictly: a missing
//! or non-numeric count fails the node.
//!
//! Every rendezvous step runs against a deadline: a child that crashes
//! (or wedges) fails the run immediately with a per-node diagnostic —
//! including its exit status — instead of hanging the parent on a pipe
//! read forever. `WATCHMEN_LIVE_DIE=<index>` makes that node exit right
//! after `ADDR` (a fault hook for exercising the failure path by hand).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use watchmen::core::node::{NodeEvent, WatchmenNode};
use watchmen::core::sans_io::ProtocolCore;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::game::PlayerId;
use watchmen::net::live::LiveTransport;
use watchmen::sim::workload::match_workload;
use watchmen::telemetry::report::{self, Report};
use watchmen::world::PhysicsConfig;

/// Extra frames after the playable match: one proxy epoch, enough for
/// the final epoch summaries and their verdicts to land.
const DRAIN_FRAMES: u64 = 40;

/// How far the scripted cheater teleports sideways, in world units —
/// the same magnitude every soak gate in this repo scripts.
const CHEAT_OFFSET: f64 = 30.0;

/// What each child reports and the parent sums, in order.
const NODE_FIGURES: [&str; 6] =
    ["severe", "false_verdicts", "heartbeats", "malformed", "truncated", "queue_dropped"];

fn node_title(index: usize) -> String {
    format!("node {index} result")
}

struct Knobs {
    players: usize,
    frames: u64,
    seed: u64,
    cheater: u32,
    pace_ms: u64,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

fn knobs_from_env(players: usize, frames: u64) -> Knobs {
    Knobs {
        players,
        frames,
        seed: env_u64("WATCHMEN_LIVE_SEED", 2013),
        cheater: env_u64("WATCHMEN_LIVE_CHEATER", 2) as u32,
        pace_ms: env_u64("WATCHMEN_LIVE_PACE_MS", 10),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__node") {
        // Child mode: `__node <index> <players> <frames>`.
        let index: usize = args[1].parse().expect("child index");
        let players: usize = args[2].parse().expect("child players");
        let frames: u64 = args[3].parse().expect("child frames");
        run_node(index, knobs_from_env(players, frames));
        return;
    }

    let players: usize = match args.first() {
        None => 6,
        Some(a) => a.parse().unwrap_or_else(|_| usage_error(&format!("bad players {a:?}"))),
    };
    let frames: u64 = match args.get(1) {
        None => 240,
        Some(a) => a.parse().unwrap_or_else(|_| usage_error(&format!("bad frames {a:?}"))),
    };
    if args.len() > 2 {
        usage_error(&format!("expected at most 2 arguments, got {}", args.len()));
    }
    if players < 3 {
        usage_error("players must be >= 3 (a cheater needs an honest proxy and witnesses)");
    }
    let knobs = knobs_from_env(players, frames);
    if knobs.cheater as usize >= players {
        usage_error("WATCHMEN_LIVE_CHEATER must be a player index");
    }
    run_parent(&knobs);
}

fn usage_error(reason: &str) -> ! {
    eprintln!("error: {reason}");
    eprintln!("usage: live_cluster [players] [frames]   (defaults: 6 players, 240 frames)");
    std::process::exit(2);
}

/// One spawned node process plus the channel its dedicated reader
/// thread feeds stdout lines into. The thread (not the parent) blocks
/// on the pipe, so the parent can put a deadline on every line and
/// name the node that died instead of hanging forever.
struct Node {
    child: Child,
    lines: mpsc::Receiver<String>,
}

impl Node {
    /// The next stdout line, or a diagnostic when the node crashed
    /// (channel disconnected — the reader thread saw EOF) or wedged
    /// past the deadline.
    fn next_line(&mut self, index: usize, what: &str, deadline: Instant) -> Result<String, String> {
        let wait = deadline.saturating_duration_since(Instant::now());
        match self.lines.recv_timeout(wait) {
            Ok(line) => Ok(line),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(format!("node {index}: no {what} line within {:.1}s", wait.as_secs_f64()))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let status = match self.child.try_wait() {
                    Ok(Some(status)) => format!("exited with {status}"),
                    Ok(None) => "closed stdout but is still running".to_owned(),
                    Err(e) => format!("is unwaitable: {e}"),
                };
                Err(format!("node {index}: {status} before sending {what}"))
            }
        }
    }

    /// Writes a rendezvous line to the node's stdin, diagnosing a
    /// crashed node (broken pipe) instead of panicking.
    fn send(&mut self, index: usize, line: &str) -> Result<(), String> {
        self.child
            .stdin
            .as_mut()
            .expect("child stdin piped")
            .write_all(line.as_bytes())
            .map_err(|e| format!("node {index}: stdin write failed ({e}) — did it crash?"))
    }
}

fn spawn_reader(stdout: ChildStdout) -> mpsc::Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    rx
}

/// Spawns the child fleet, runs the rendezvous, aggregates the results
/// and prints the `live summary:` gate line.
fn run_parent(knobs: &Knobs) {
    let exe = std::env::current_exe().expect("own executable path");
    println!(
        "spawning {} node processes on loopback ({} frames + {DRAIN_FRAMES} drain, \
         {}ms/frame, p{} speed-hacks)…",
        knobs.players, knobs.frames, knobs.pace_ms, knobs.cheater
    );

    let mut children: Vec<Node> = (0..knobs.players)
        .map(|i| {
            let mut child = Command::new(&exe)
                .arg("__node")
                .arg(i.to_string())
                .arg(knobs.players.to_string())
                .arg(knobs.frames.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn node process");
            let lines = spawn_reader(child.stdout.take().expect("child stdout"));
            Node { child, lines }
        })
        .collect();

    // Rendezvous 1: collect every child's ephemeral address. Binding a
    // loopback socket is fast; 10s is generous even under load.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut addrs: Vec<String> = Vec::with_capacity(knobs.players);
    let mut abort: Option<String> = None;
    for (i, node) in children.iter_mut().enumerate() {
        match node.next_line(i, "ADDR", deadline) {
            Ok(line) => match line.strip_prefix("ADDR ") {
                Some(addr) => addrs.push(addr.to_owned()),
                None => {
                    abort = Some(format!("node {i}: expected ADDR, got {line:?}"));
                    break;
                }
            },
            Err(reason) => {
                abort = Some(reason);
                break;
            }
        }
    }
    if let Some(reason) = abort {
        fail(&mut children, &reason);
    }

    // Rendezvous 2: everyone learns everyone, then confirms liveness.
    // Children give up after 10s themselves; the parent allows a little
    // extra so the child's own diagnostic wins when peers are down.
    let peers_line = format!("PEERS {}\n", addrs.join(" "));
    let deadline = Instant::now() + Duration::from_secs(15);
    for (i, node) in children.iter_mut().enumerate() {
        if let Err(reason) = node.send(i, &peers_line) {
            abort = Some(reason);
            break;
        }
    }
    for (i, node) in children.iter_mut().enumerate() {
        if abort.is_some() {
            break;
        }
        match node.next_line(i, "UP", deadline) {
            Ok(line) if line == "UP" => {}
            Ok(line) => abort = Some(format!("node {i}: expected UP, got {line:?}")),
            Err(reason) => abort = Some(reason),
        }
    }
    if let Some(reason) = abort {
        fail(&mut children, &reason);
    }

    // Rendezvous 3: start everyone as close to simultaneously as N pipe
    // writes allow.
    for (i, node) in children.iter_mut().enumerate() {
        if let Err(reason) = node.send(i, "GO\n") {
            abort = Some(reason);
            break;
        }
    }
    if let Some(reason) = abort {
        fail(&mut children, &reason);
    }
    let started = Instant::now();

    // Collect results. The match length is known exactly, so a node
    // that overruns its own runtime by 30s is wedged, not slow.
    let match_time = Duration::from_millis(knobs.pace_ms * (knobs.frames + DRAIN_FRAMES));
    let deadline = started + match_time + Duration::from_secs(30);
    let mut totals = [0u64; NODE_FIGURES.len()];
    let mut completed = 0usize;
    for (i, node) in children.iter_mut().enumerate() {
        let result = node.next_line(i, "result", deadline).and_then(|line| {
            let counts = report::read(&line, &node_title(i), NODE_FIGURES)
                .map_err(|e| format!("node {i}: {e}"))?;
            match node.child.wait() {
                Ok(status) if status.success() => Ok(counts),
                _ => Err(format!("node {i}: nonzero exit")),
            }
        });
        match result {
            Ok(counts) => {
                totals.iter_mut().zip(counts).for_each(|(total, n)| *total += n);
                completed += 1;
            }
            Err(reason) => {
                eprintln!("{reason}");
                let _ = node.child.kill();
            }
        }
    }

    println!(
        "match wall clock: {:.2}s across {} processes",
        started.elapsed().as_secs_f64(),
        knobs.players
    );
    let [severe, false_verdicts, heartbeats, malformed, truncated, queue_dropped] = totals;
    let summary = Report::new("live summary")
        .figure("players", knobs.players, true)
        .figure("frames", knobs.frames, true)
        .figure("cheater", u64::from(knobs.cheater), true)
        .figure("completed", completed, completed == knobs.players)
        .figure("severe", severe, true)
        .figure("detected", severe > 0, severe > 0)
        .figure("false_verdicts", false_verdicts, false_verdicts == 0)
        .figure("heartbeats", heartbeats, heartbeats > 0)
        .figure("malformed", malformed, malformed == 0)
        .figure("truncated", truncated, truncated == 0)
        .figure("queue_dropped", queue_dropped, true);
    println!("{summary}");
    if let Err(e) = summary.check() {
        eprintln!("live cluster FAILED: {e}");
        std::process::exit(1);
    }
}

fn fail(children: &mut [Node], reason: &str) -> ! {
    for node in children.iter_mut() {
        let _ = node.child.kill();
        let _ = node.child.wait();
    }
    eprintln!("live cluster aborted: {reason}");
    std::process::exit(1);
}

/// One player process: bind, rendezvous, then drive the sans-io core
/// over real UDP at a fixed frame cadence.
fn run_node(index: usize, knobs: Knobs) {
    let stdout = std::io::stdout();
    let stdin = std::io::stdin();

    let mut transport =
        LiveTransport::bind(index as u32, "127.0.0.1:0").expect("bind loopback socket");
    {
        let mut out = stdout.lock();
        writeln!(out, "ADDR {}", transport.local_addr().expect("local addr")).unwrap();
        out.flush().unwrap();
    }
    if env_u64("WATCHMEN_LIVE_DIE", u64::MAX) == index as u64 {
        // Scripted crash for exercising the parent's rendezvous
        // deadline: die right after ADDR, before ever heartbeating.
        eprintln!("node {index}: WATCHMEN_LIVE_DIE — crashing now");
        std::process::exit(7);
    }

    // Learn the full address book from the parent.
    let mut peers_line = String::new();
    stdin.lock().read_line(&mut peers_line).expect("PEERS line");
    let addrs: Vec<&str> =
        peers_line.trim().strip_prefix("PEERS ").expect("PEERS prefix").split(' ').collect();
    assert_eq!(addrs.len(), knobs.players, "address book covers every player");
    for (id, addr) in addrs.iter().enumerate() {
        if id != index {
            transport.register_peer(id as u32, addr.parse().expect("peer addr"));
        }
    }

    // Confirm mutual reachability: heartbeat until every peer was heard.
    let deadline = Instant::now() + Duration::from_secs(10);
    while transport.live_peers(u64::MAX) < knobs.players - 1 {
        assert!(Instant::now() < deadline, "node {index}: peers never came up");
        transport.beat().expect("heartbeat");
        transport.pump().expect("pump during rendezvous");
        std::thread::sleep(Duration::from_millis(2));
    }
    {
        let mut out = stdout.lock();
        writeln!(out, "UP").unwrap();
        out.flush().unwrap();
    }
    let mut go_line = String::new();
    stdin.lock().read_line(&mut go_line).expect("GO line");
    assert_eq!(go_line.trim(), "GO");

    // Everyone rebuilds the identical deterministic world from the seed:
    // same workload trace, same keys, same proxy schedule.
    let workload = match_workload(knobs.players, knobs.seed, knobs.frames);
    let keys: Vec<Keypair> =
        (0..knobs.players).map(|i| Keypair::generate(knobs.seed ^ i as u64)).collect();
    let directory: Vec<_> = keys.iter().map(Keypair::public).collect();
    let mut core = ProtocolCore::new(WatchmenNode::new(
        PlayerId(index as u32),
        keys[index].clone(),
        directory,
        knobs.seed,
        WatchmenConfig::default(),
        workload.map.clone(),
        PhysicsConfig::default(),
    ));

    let (mut severe, mut false_verdicts) = (0u64, 0u64);
    let tally = |events: &[NodeEvent], severe: &mut u64, false_verdicts: &mut u64| {
        for e in events {
            if let NodeEvent::Suspicion { subject, rating, .. } = e {
                if rating.is_suspicious() {
                    if subject.0 == knobs.cheater {
                        *severe += 1;
                    } else {
                        *false_verdicts += 1;
                    }
                }
            }
        }
    };

    let pace = Duration::from_millis(knobs.pace_ms);
    let start = Instant::now();
    let total = knobs.frames + DRAIN_FRAMES;
    for f in 0..total {
        // Deliver everything the wire brought since the last tick…
        for (sender, bytes) in transport.pump().expect("pump") {
            let out = core.datagram(f, PlayerId(sender), &bytes);
            tally(&out.events, &mut severe, &mut false_verdicts);
            for o in out.datagrams {
                transport.queue(o.to.0, o.bytes);
            }
        }
        // …then tick. During the drain the avatar holds its final
        // recorded state (standing still is legal), keeping the proxy
        // streams alive while late verdicts land.
        let mut state =
            workload.trace.frames[(f as usize).min(knobs.frames as usize - 1)].states[index];
        if index as u32 == knobs.cheater && f > 0 && f % 4 == 0 && f < knobs.frames {
            state.position.x += CHEAT_OFFSET;
        }
        let out = core.tick(f, &state);
        tally(&out.events, &mut severe, &mut false_verdicts);
        for o in out.datagrams {
            transport.queue(o.to.0, o.bytes);
        }
        transport.pump().expect("flush");

        // Absolute deadlines: sleep jitter must not accumulate into
        // cross-process frame skew.
        let next = start + pace * (f as u32 + 1);
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }

    let stats = transport.stats();
    let counts = [
        severe,
        false_verdicts,
        stats.heartbeats_received,
        stats.malformed,
        stats.truncated,
        stats.queue_dropped,
    ];
    let result = NODE_FIGURES
        .into_iter()
        .zip(counts)
        .fold(Report::new(node_title(index)), |r, (label, n)| r.figure(label, n, true));
    let mut out = stdout.lock();
    writeln!(out, "{result}").unwrap();
    out.flush().unwrap();
}
