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
//! Defaults: 6 players, 240 frames. The workload, keys and schedule
//! come from seed [`SEED`], each protocol frame takes [`PACE_MS`] real
//! milliseconds (the protocol's own constants stay in frames, so pacing
//! only scales wall clock), and player [`CHEATER`] speed-hacks.
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
//! Every rendezvous step waits on all children at once against a
//! deadline: a child that exits during a step aborts the run at once,
//! and a child that wedges aborts it at the deadline, instead of hanging
//! the parent on a pipe read forever. Every abort line first names each
//! child that has already exited, with its exit status.
//! `WATCHMEN_LIVE_DIE=<index>` makes that node exit with status 7 right
//! after `ADDR`; ci.sh runs it and requires the abort to name that node
//! and status. A value that is not a player index exits 2 before any
//! node starts.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use watchmen::core::node::{NodeEvent, WatchmenNode};
use watchmen::core::sans_io::ProtocolCore;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::game::PlayerId;
use watchmen::net::live::LiveTransport;
use watchmen::sim::workload::{match_workload, speed_hack};
use watchmen::telemetry::report::{self, Report};
use watchmen::world::PhysicsConfig;

/// Extra frames after the playable match: one proxy epoch, enough for
/// the final epoch summaries and their verdicts to land.
const DRAIN_FRAMES: u64 = 40;

/// What each child reports and the parent sums, in order.
const NODE_FIGURES: [&str; 6] =
    ["severe", "false_verdicts", "heartbeats", "malformed", "truncated", "queue_dropped"];

fn node_title(index: usize) -> String {
    format!("node {index} result")
}

/// Seeds the workload trace, the keys and the proxy schedule.
const SEED: u64 = 2013;

/// Real milliseconds per protocol frame.
const PACE_MS: u64 = 10;

/// The player scripted to speed-hack.
const CHEATER: u32 = 2;

/// The match every process plays.
struct Shape {
    players: usize,
    frames: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__node") {
        // Child mode: `__node <index> <players> <frames> [die]`.
        let index: usize = args[1].parse().expect("child index");
        let players: usize = args[2].parse().expect("child players");
        let frames: u64 = args[3].parse().expect("child frames");
        let die = args.get(4).is_some_and(|a| a == "die");
        run_node(index, Shape { players, frames }, die);
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
    let die = match std::env::var("WATCHMEN_LIVE_DIE") {
        Err(_) => None,
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(index) if index < players => Some(index),
            _ => usage_error(&format!("WATCHMEN_LIVE_DIE={v:?} is not a player index")),
        },
    };
    run_parent(Shape { players, frames }, die);
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
    /// The node's exit status, polling up to `grace` for a node on its
    /// way out: its pipes close a moment before its status is waitable.
    fn exited(&mut self, grace: Duration) -> Option<ExitStatus> {
        let until = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(1)),
                _ => return None,
            }
        }
    }

    /// Why the node's stdout reached EOF before it sent `what`.
    fn lost(&mut self, index: usize, what: &str) -> String {
        match self.exited(Duration::from_secs(1)) {
            Some(_) => format!("node {index} exited before sending {what}"),
            None => {
                format!("node {index} closed stdout but is still running before sending {what}")
            }
        }
    }

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
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.lost(index, what)),
        }
    }

    /// Writes a rendezvous line to the node's stdin, diagnosing a
    /// crashed node (broken pipe) instead of panicking.
    fn send(&mut self, index: usize, line: &str) -> Result<(), String> {
        let written =
            self.child.stdin.as_mut().expect("child stdin piped").write_all(line.as_bytes());
        written.map_err(|e| {
            // A broken pipe means the node is on its way out: reap its
            // status so the abort can name it.
            self.exited(Duration::from_secs(1));
            format!("node {index}: stdin write failed ({e})")
        })
    }
}

/// One rendezvous step: one line from every node, checked by `parse`.
/// All nodes are watched at once, so a node that exits while another is
/// still pending aborts the step at once rather than at the deadline.
fn gather<T>(
    children: &mut [Node],
    what: &str,
    deadline: Instant,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let mut got: Vec<Option<T>> = children.iter().map(|_| None).collect();
    loop {
        for (i, node) in children.iter_mut().enumerate() {
            if got[i].is_none() {
                match node.lines.try_recv() {
                    Ok(line) => {
                        let parsed = parse(&line);
                        got[i] =
                            Some(parsed.ok_or(format!("node {i}: expected {what}, got {line:?}"))?);
                    }
                    Err(mpsc::TryRecvError::Empty) => {}
                    Err(mpsc::TryRecvError::Disconnected) => return Err(node.lost(i, what)),
                }
            }
            if node.exited(Duration::ZERO).is_some() {
                return Err(format!("node {i} exited during the {what} step"));
            }
        }
        if got.iter().all(Option::is_some) {
            return Ok(got.into_iter().flatten().collect());
        }
        if let Some(i) = got.iter().position(Option::is_none).filter(|_| Instant::now() >= deadline)
        {
            return Err(format!("node {i}: no {what} line by the deadline"));
        }
        std::thread::sleep(Duration::from_millis(1));
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

/// Spawns the child fleet (node `die`, if any, told to crash after
/// `ADDR`), runs the rendezvous, aggregates the results and prints the
/// `live summary:` gate line.
fn run_parent(shape: Shape, die: Option<usize>) {
    let exe = std::env::current_exe().expect("own executable path");
    println!(
        "spawning {} node processes on loopback ({} frames + {DRAIN_FRAMES} drain, \
         {PACE_MS}ms/frame, p{CHEATER} speed-hacks)…",
        shape.players, shape.frames
    );

    let mut children: Vec<Node> = (0..shape.players)
        .map(|i| {
            let mut child = Command::new(&exe)
                .arg("__node")
                .arg(i.to_string())
                .arg(shape.players.to_string())
                .arg(shape.frames.to_string())
                .args((die == Some(i)).then_some("die"))
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
    let addrs = gather(&mut children, "ADDR", deadline, |line| {
        line.strip_prefix("ADDR ").map(str::to_owned)
    })
    .unwrap_or_else(|reason| fail(&mut children, &reason));

    // Rendezvous 2: everyone learns everyone, then confirms liveness.
    // Children give up after 10s themselves; the parent allows a little
    // extra so the child's own diagnostic wins when peers are down.
    let peers_line = format!("PEERS {}\n", addrs.join(" "));
    let deadline = Instant::now() + Duration::from_secs(15);
    let sent: Result<(), String> =
        children.iter_mut().enumerate().try_for_each(|(i, node)| node.send(i, &peers_line));
    sent.and_then(|()| gather(&mut children, "UP", deadline, |line| (line == "UP").then_some(())))
        .unwrap_or_else(|reason| fail(&mut children, &reason));

    // Rendezvous 3: start everyone as close to simultaneously as N pipe
    // writes allow.
    let sent: Result<(), String> =
        children.iter_mut().enumerate().try_for_each(|(i, node)| node.send(i, "GO\n"));
    sent.unwrap_or_else(|reason| fail(&mut children, &reason));
    let started = Instant::now();

    // Collect results. The match length is known exactly, so a node
    // that overruns its own runtime by 30s is wedged, not slow.
    let match_time = Duration::from_millis(PACE_MS * (shape.frames + DRAIN_FRAMES));
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
        shape.players
    );
    let [severe, false_verdicts, heartbeats, malformed, truncated, queue_dropped] = totals;
    let summary = Report::new("live summary")
        .figure("players", shape.players, true)
        .figure("frames", shape.frames, true)
        .figure("cheater", u64::from(CHEATER), true)
        .figure("completed", completed, completed == shape.players)
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

/// Aborts the run: names every child that has already exited, with its
/// status, ahead of `reason`, then kills the rest.
fn fail(children: &mut [Node], reason: &str) -> ! {
    let mut causes: Vec<String> = children
        .iter_mut()
        .enumerate()
        .filter_map(|(i, node)| {
            node.exited(Duration::ZERO).map(|s| format!("node {i} exited with {s}"))
        })
        .collect();
    causes.push(reason.to_owned());
    for node in children.iter_mut() {
        let _ = node.child.kill();
        let _ = node.child.wait();
    }
    eprintln!("live cluster aborted: {}", causes.join("; "));
    std::process::exit(1);
}

/// One player process: bind, rendezvous, then drive the sans-io core
/// over real UDP at a fixed frame cadence — or, when `die`, exit 7
/// right after `ADDR`.
fn run_node(index: usize, shape: Shape, die: bool) {
    let stdout = std::io::stdout();
    let stdin = std::io::stdin();

    let mut transport =
        LiveTransport::bind(index as u32, "127.0.0.1:0").expect("bind loopback socket");
    {
        let mut out = stdout.lock();
        writeln!(out, "ADDR {}", transport.local_addr().expect("local addr")).unwrap();
        out.flush().unwrap();
    }
    if die {
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
    assert_eq!(addrs.len(), shape.players, "address book covers every player");
    for (id, addr) in addrs.iter().enumerate() {
        if id != index {
            transport.register_peer(id as u32, addr.parse().expect("peer addr"));
        }
    }

    // Confirm mutual reachability: heartbeat until every peer was heard.
    let deadline = Instant::now() + Duration::from_secs(10);
    while transport.live_peers(u64::MAX) < shape.players - 1 {
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
    let workload = match_workload(shape.players, SEED, shape.frames);
    let keys: Vec<Keypair> =
        (0..shape.players).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
    let directory: Vec<_> = keys.iter().map(Keypair::public).collect();
    let mut core = ProtocolCore::new(WatchmenNode::new(
        PlayerId(index as u32),
        keys[index].clone(),
        directory,
        SEED,
        WatchmenConfig::default(),
        workload.map.clone(),
        PhysicsConfig::default(),
    ));

    let (mut severe, mut false_verdicts) = (0u64, 0u64);
    let tally = |events: &[NodeEvent], severe: &mut u64, false_verdicts: &mut u64| {
        for e in events {
            if let NodeEvent::Suspicion { subject, rating, .. } = e {
                if rating.is_suspicious() {
                    if subject.0 == CHEATER {
                        *severe += 1;
                    } else {
                        *false_verdicts += 1;
                    }
                }
            }
        }
    };

    let pace = Duration::from_millis(PACE_MS);
    let start = Instant::now();
    let total = shape.frames + DRAIN_FRAMES;
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
            workload.trace.frames[(f as usize).min(shape.frames as usize - 1)].states[index];
        if index as u32 == CHEATER && f < shape.frames {
            speed_hack(&mut state, f);
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
