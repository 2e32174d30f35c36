//! Kill-and-restart crash loop for the durable reputation store.
//!
//! ```sh
//! cargo run --release --example store_crashloop
//! ```
//!
//! The parent process spawns itself as a child
//! (`__child <dir> [<seed> <crash_at>]`) working through a deterministic
//! stream of report-outcome operations against a [`ReputationStore`]
//! on a real directory, committing (fsync) after every operation and
//! logging each *acknowledged* ban to `acked.txt` only after the
//! commit returns. Then it crashes the child, two ways:
//!
//! * **SIGKILL cycles** — the parent kills the child after a random
//!   few milliseconds, mid-run, with no warning;
//! * **scripted cycles** — the child runs its store through a
//!   [`FaultDir`] whose [`FaultSpec`] crashes on the `crash_at`-th I/O
//!   operation, and the fault shim aborts the process there (an append,
//!   fsync or snapshot replace — so crash points land *inside* commit
//!   and compaction paths deterministically).
//!
//! After every crash the parent re-opens the store and checks the
//! contract the store promises:
//!
//! 1. recovered per-identity counts equal a reference replay of the
//!    same operation prefix (no invented or lost reports);
//! 2. every ban acknowledged before the crash is still present
//!    (ack = durable);
//! 3. no identity outside the reference ban set is banned (a crash can
//!    never *create* a ban — no false bans);
//! 4. one commit after recovery converges the ban set exactly to the
//!    reference (torn-off unacknowledged bans are re-staged).
//!
//! A final fault-free cycle runs the stream to completion. The run
//! prints a `crashloop summary:` report and exits non-zero when its gate
//! fails: any divergence, a stream that did not finish, no ban ever
//! acknowledged, or no crash ever injected.
//!
//! The run has one shape: [`CYCLES`] crash cycles before the clean
//! finish, [`OPS`] operations in the stream, seed [`SEED`]. The store
//! lives in `WATCHMEN_STORE_DIR` (default: a fresh temporary directory),
//! emptied at the start.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use watchmen::store::{Dir, FaultDir, FaultSpec, FsDir, RepState, ReputationStore, StorePolicy};
use watchmen::telemetry::report::Report;

/// Identities in the deterministic stream (first `CHEATERS` cheat).
const POPULATION: u64 = 32;
/// Identities whose every outcome falls below the ban threshold.
const CHEATERS: u64 = 8;
/// Reports contributed by every operation — recovery divides the
/// report total by this to find how far the stream got.
const REPORTS_PER_OP: u64 = 10;
/// WAL size that triggers compaction inside the child's commit loop.
const COMPACT_WAL_BYTES: u64 = 8 * 1024;

/// Crash cycles before the clean final cycle.
const CYCLES: u64 = 8;
/// Operations in the deterministic stream.
const OPS: u64 = 3000;
/// Seeds the stream, the crash points and the kill delays.
const SEED: u64 = 2013;
/// Short-write probability of a scripted cycle, in permille: short
/// writes let the crash strand a *partial* frame on the real
/// filesystem (abort alone never tears a completed write), which
/// recovery must then skip.
const SHORT_PERMILLE: u32 = 150;

/// SplitMix64-style finalizer — one deterministic draw per operation,
/// independent of where in the stream a restarted child resumes.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// The i-th operation of the stream: `(identity, ok, failed)` with
/// `ok + failed == REPORTS_PER_OP`. Honest identities fail at most 1
/// report in 10 (≥ 90 % acceptable — never bannable under the default
/// 85 % threshold); cheaters fail 2–4 (≤ 80 % — always bannable once
/// they reach the report minimum).
fn op_record(seed: u64, i: u64) -> (u64, u32, u32) {
    let index = i % POPULATION;
    let identity = 1000 + index;
    let draw = mix(seed ^ 0xC0FF_EE00 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let failed = if index < CHEATERS { 2 + (draw % 3) as u32 } else { (draw % 2) as u32 };
    (identity, REPORTS_PER_OP as u32 - failed, failed)
}

/// How many whole operations a recovered state reflects. Every
/// operation lands exactly [`REPORTS_PER_OP`] reports in one record,
/// and recovery only ever applies whole records, so the report total
/// is always an exact multiple.
fn ops_applied(state: &RepState) -> u64 {
    let reports: u64 = state.iter().map(|(_, e)| e.total()).sum();
    assert!(
        reports.is_multiple_of(REPORTS_PER_OP),
        "recovered report total {reports} is not a multiple of {REPORTS_PER_OP} — \
         a partial record was applied",
    );
    reports / REPORTS_PER_OP
}

/// Replays operations `0..ops` into a fresh in-memory store — the
/// reference every recovered state is compared against.
fn reference_store(seed: u64, ops: u64) -> ReputationStore {
    let dir = watchmen::store::MemDir::new();
    let (mut store, _) = ReputationStore::open(Box::new(dir), StorePolicy::default())
        .expect("in-memory reference store cannot fail to open");
    for i in 0..ops {
        let (identity, ok, failed) = op_record(seed, i);
        store.note_outcome(identity, ok, failed);
    }
    store.commit().expect("in-memory reference commit cannot fail");
    store
}

/// Bans the child acknowledged: every *complete* line of `acked.txt`.
/// A crash can tear the final line; an ack is only an ack once its
/// newline reached the file.
fn read_acked(dir: &Path) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(dir.join("acked.txt")) else {
        return Vec::new();
    };
    let mut lines: Vec<&str> = text.split('\n').collect();
    lines.pop(); // "" after the final newline, or a torn fragment
    let mut acked: Vec<u64> = lines.iter().filter_map(|line| line.trim().parse().ok()).collect();
    acked.sort_unstable();
    acked.dedup();
    acked
}

// ---------------------------------------------------------------------
// Child: apply the stream until done or dead
// ---------------------------------------------------------------------

/// The child's arguments after `__child`: `<dir> [<seed> <crash_at>]`,
/// the fault shim's seed and crash point on a scripted cycle.
fn run_child(args: &[String]) -> ! {
    let num = |i: usize| -> u64 { args[i].parse().expect("child fault argument") };
    let dir_path = &args[0];
    let fs = FsDir::open(dir_path).expect("open store dir");
    let dir: Box<dyn Dir> = match args.len() {
        1 => Box::new(fs),
        3 => Box::new(FaultDir::new(fs, fault_spec(num(1), num(2)))),
        n => panic!("child takes a directory and optionally a seed and crash point, got {n} args"),
    };
    let (mut store, report) = match ReputationStore::open(dir, StorePolicy::default()) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("child: recovery failed: {e}");
            std::process::exit(2);
        }
    };
    let start = ops_applied(store.state());
    eprintln!(
        "child: recovered {start}/{OPS} ops (snapshot={}, wal_records={}, restaged_bans={})",
        report.snapshot_loaded, report.wal_records, report.restaged_bans,
    );

    let mut acks = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(Path::new(dir_path).join("acked.txt"))
        .expect("open ack log");

    for i in start..OPS {
        let (identity, ok, failed) = op_record(SEED, i);
        store.note_outcome(identity, ok, failed);
        match store.commit_and_maybe_compact(COMPACT_WAL_BYTES) {
            Ok(receipt) => {
                for (identity, suspicion) in &receipt.new_bans {
                    // Ack only after the commit fsync returned: from
                    // here on the ban must survive any crash.
                    writeln!(acks, "{identity}").expect("append ack");
                    acks.flush().expect("flush ack");
                    eprintln!("child: op {i}: acked ban of {identity} ({suspicion}‰)");
                }
            }
            Err(e) => {
                eprintln!("child: commit failed at op {i}: {e}");
                std::process::exit(3);
            }
        }
    }
    eprintln!("child: stream complete at op {OPS}");
    std::process::exit(0);
}

// ---------------------------------------------------------------------
// Parent: crash, recover, check — repeat
// ---------------------------------------------------------------------

/// What one recovery audit observed.
struct Audit {
    /// Whole operations the recovered state reflects.
    ops: u64,
    /// Contract violations found (0 on a healthy recovery).
    divergences: u64,
    /// Torn-off unacknowledged bans recovery re-staged.
    restaged: u64,
    /// The ban set after the convergence commit.
    banned: Vec<u64>,
}

/// One recovery audit after a crash (or after the clean finish).
fn verify(store_dir: &Path, acked: &[u64]) -> Audit {
    let mut divergences = 0u64;
    let mut fail = |what: String| {
        eprintln!("DIVERGENCE: {what}");
        divergences += 1;
    };

    let fs = FsDir::open(store_dir).expect("open store dir for verify");
    let (mut store, report) = match ReputationStore::open(Box::new(fs), StorePolicy::default()) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("DIVERGENCE: recovery failed outright: {e}");
            return Audit { ops: 0, divergences: 1, restaged: 0, banned: Vec::new() };
        }
    };
    let ops = ops_applied(store.state());
    let reference = reference_store(SEED, ops);

    // (1) Counts: the recovered prefix is exactly the replayed prefix.
    if store.state().counts_digest() != reference.state().counts_digest() {
        fail(format!("recovered counts at {ops} ops differ from reference replay"));
    }

    // (2) Acked bans survived the crash — before any new commit.
    for &identity in acked {
        if !store.is_banned(identity) {
            fail(format!("acked ban of {identity} lost after recovery at {ops} ops"));
        }
    }

    // (3) No false bans: recovered bans ⊆ reference bans.
    let reference_bans = reference.banned_identities();
    for identity in store.banned_identities() {
        if !reference_bans.contains(&identity) {
            fail(format!("false ban of {identity} appeared after recovery"));
        }
    }

    // (4) One commit converges: re-staged torn bans land, and the ban
    // set equals the reference exactly.
    store.commit().expect("post-recovery commit");
    if store.banned_identities() != reference_bans {
        fail(format!(
            "ban set did not converge at {ops} ops: recovered {:?} vs reference {reference_bans:?}",
            store.banned_identities(),
        ));
    }

    Audit { ops, divergences, restaged: report.restaged_bans, banned: store.banned_identities() }
}

/// The fault plan of a scripted cycle: crash on I/O op `crash_at`,
/// with short writes drawn from `seed`.
fn fault_spec(seed: u64, crash_at: u64) -> FaultSpec {
    FaultSpec {
        seed,
        crash_at_op: crash_at,
        short_permille: SHORT_PERMILLE,
        ..FaultSpec::default()
    }
}

/// Starts a child on `store_dir`, under the fault shim when `faults`
/// names a `(seed, crash_at)`.
fn spawn_child(store_dir: &Path, faults: Option<(u64, u64)>) -> std::process::Child {
    let exe = std::env::current_exe().expect("current exe");
    let mut command = Command::new(exe);
    command.arg("__child").arg(store_dir).stderr(std::process::Stdio::inherit());
    if let Some((seed, crash_at)) = faults {
        command.arg(seed.to_string()).arg(crash_at.to_string());
    }
    command.spawn().expect("spawn crashloop child")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__child") {
        run_child(&args[1..]);
    }

    let store_dir: PathBuf =
        std::env::var("WATCHMEN_STORE_DIR").map(PathBuf::from).unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("watchmen-crashloop-{}", std::process::id()))
        });
    // Each run starts from empty media so the op stream and crash
    // points are reproducible.
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).expect("create store dir");
    println!(
        "crashloop: {OPS} ops over {POPULATION} identities, {CYCLES} crash cycles, store at {}…",
        store_dir.display(),
    );

    let mut sigkills = 0u64;
    let mut aborts = 0u64;
    let mut clean_exits = 0u64;
    let mut divergences = 0u64;
    let mut restaged_total = 0u64;
    let mut progress = String::new();

    for cycle in 0..CYCLES {
        let scripted = cycle % 2 == 1;
        // Land crash points across the whole commit + compaction I/O
        // range: ops 10..~500 cover first-commit appends, fsyncs
        // mid-stream, and snapshot replaces.
        let faults = scripted.then(|| (SEED ^ cycle, 10 + mix(SEED ^ cycle) % 490));
        let mut child = spawn_child(&store_dir, faults);
        if !scripted {
            // Random few milliseconds of progress, then SIGKILL with
            // no warning — whatever write was in flight stays torn.
            let delay = 3 + mix(SEED ^ (cycle << 32)) % 60;
            std::thread::sleep(Duration::from_millis(delay));
            let _ = child.kill();
        }
        let status = child.wait().expect("wait for child");
        let outcome = match (status.code(), scripted) {
            (Some(0), _) => {
                clean_exits += 1;
                "finished early"
            }
            (_, true) => {
                aborts += 1;
                "aborted at scripted I/O op"
            }
            (_, false) => {
                sigkills += 1;
                "SIGKILLed mid-write"
            }
        };

        let acked = read_acked(&store_dir);
        let audit = verify(&store_dir, &acked);
        divergences += audit.divergences;
        restaged_total += audit.restaged;
        let _ = writeln!(
            progress,
            "cycle {cycle}: child {outcome} at {}/{OPS} ops, {} acked bans, \
             {} re-staged, {} divergences",
            audit.ops,
            acked.len(),
            audit.restaged,
            audit.divergences,
        );
    }
    print!("{progress}");

    // Clean final cycle: no faults, no kill — the stream must finish.
    let status = spawn_child(&store_dir, None).wait().expect("wait for final child");
    let completed = status.code() == Some(0);
    if !completed {
        eprintln!("DIVERGENCE: fault-free final cycle did not complete: {status}");
        divergences += 1;
    }
    let acked = read_acked(&store_dir);
    let audit = verify(&store_dir, &acked);
    divergences += audit.divergences;
    if completed && audit.ops != OPS {
        eprintln!("DIVERGENCE: final recovery sees {} ops, expected {OPS}", audit.ops);
        divergences += 1;
    }
    // Every cheater must end up banned, every honest identity clean.
    // (Acked is a *subset* of banned: a ban can become durable with
    // its acknowledgement torn off — durability is the contract, the
    // ack line is merely the client's receipt.)
    let expected_bans: Vec<u64> = (0..CHEATERS).map(|i| 1000 + i).collect();
    if completed && audit.banned != expected_bans {
        eprintln!("DIVERGENCE: final ban set {:?}, expected {expected_bans:?}", audit.banned);
        divergences += 1;
    }
    if acked.iter().any(|identity| !audit.banned.contains(identity)) {
        eprintln!("DIVERGENCE: acked bans {acked:?} not all present in {:?}", audit.banned);
        divergences += 1;
    }

    // A final cycle that did not complete already counts as a divergence.
    let crashes = sigkills + aborts;
    let summary = Report::new("crashloop summary")
        .figure("cycles", CYCLES, true)
        .figure("sigkills", sigkills, true)
        .figure("aborts", aborts, true)
        .figure("crashes", crashes, crashes > 0)
        .figure("finished_early", clean_exits, true)
        .figure("ops", audit.ops, audit.ops == OPS)
        .figure("acked_bans", acked.len(), !acked.is_empty())
        .figure("restaged", restaged_total, true)
        .figure("divergences", divergences, divergences == 0);
    println!("{summary}");
    if let Err(e) = summary.check() {
        eprintln!("crashloop FAILED: {e}");
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}
