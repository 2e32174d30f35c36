//! Population soak runner: thousands of matches over one persistent
//! identity population, with every match outcome folded into the
//! durable reputation store so bans cross match boundaries.
//!
//! ```sh
//! cargo run --release --example population_run
//! ```
//!
//! Defaults to 2 000 matches over 256 identities (~10% repeat
//! cheaters). Override with `WATCHMEN_POPULATION`, e.g.:
//!
//! ```sh
//! WATCHMEN_POPULATION="matches=5000,players=512,cheaters=150,seed=7" \
//!     cargo run --release --example population_run
//! ```
//!
//! Knobs: `matches`, `players`, `cheaters` (permille), `seed`,
//! `match_size`, `round_matches`, `reports`, `cheat_failed`,
//! `honest_failed`, `workers`, `max_local`, `compact_bytes`.
//!
//! The store persists to `WATCHMEN_STORE_DIR` (default: a fresh
//! directory under the system temp dir — re-run with the same dir and
//! the bans carry over). Prints a `population summary:` line and exits
//! non-zero unless the soak met its SLO (`PopulationResult::ok`: every
//! repeat cheater banned within the time-to-ban budget, no false ban,
//! bans refused later admissions) and the store both committed and
//! compacted on the way; with `WATCHMEN_BENCH_OUT=<dir>` set the run
//! also writes `BENCH_reputation.json` with time-to-ban percentiles and
//! the false-ban count.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use watchmen::bench::BenchRecord;
use watchmen::crypto::rng::SplitMix64;
use watchmen::fleet::{run_population, PopulationConfig};
use watchmen::store::{Dir, FsDir};

/// `run_population` consumes the store it opens, so the store's own
/// `StoreTimings::fsync_total` never reaches this file; the directory
/// does. This is the same measurement from the outside: the time spent
/// inside `sync`, which on real files is what durability costs.
struct SyncTimed {
    dir: FsDir,
    /// Relaxed: a statistic, read once after the run.
    sync_ns: Arc<AtomicU64>,
}

impl Dir for SyncTimed {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.dir.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<usize> {
        self.dir.append(name, bytes)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let started = Instant::now();
        let result = self.dir.sync(name);
        self.sync_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.dir.replace(name, bytes)
    }

    fn crash(&mut self, rng: &mut SplitMix64, flip_bits: bool) {
        self.dir.crash(rng, flip_bits);
    }
}

fn main() {
    let config = PopulationConfig::from_env().unwrap_or_default();
    let store_dir = std::env::var("WATCHMEN_STORE_DIR").unwrap_or_else(|_| {
        std::env::temp_dir()
            .join(format!("watchmen-population-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    println!(
        "population soak: {} matches over {} identities ({}‰ cheaters) on {} workers, \
         store at {store_dir}…",
        config.matches, config.players, config.cheater_permille, config.workers,
    );

    let dir = match FsDir::open(&store_dir) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("cannot open store dir {store_dir}: {e}");
            std::process::exit(1);
        }
    };
    let sync_ns = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let result =
        run_population(&config, Box::new(SyncTimed { dir, sync_ns: Arc::clone(&sync_ns) }));
    let elapsed = started.elapsed().as_secs_f64();

    println!("{}", result.summary_line());
    println!(
        "population soak: {} matches ({} aborted) in {elapsed:.2}s over {} rounds, \
         store: {} commits ({:.2} ms in fsync) / {} compactions ({:.2} ms mean) / {} B WAL",
        result.matches_run,
        result.matches_aborted,
        result.rounds,
        result.store_commits,
        sync_ns.load(Ordering::Relaxed) as f64 / 1e6,
        result.store_compactions,
        result.store_compaction_ms_mean,
        result.store_wal_bytes,
    );

    let ttb = |p: f64| result.ttb_percentile(p).map_or(f64::NAN, |v| v as f64);
    let record = BenchRecord::new("reputation")
        .with_u64("matches", result.matches_run)
        .with_u64("players", result.players as u64)
        .with_u64("cheaters", result.cheaters as u64)
        .with_u64("cheaters_banned", result.cheaters_banned as u64)
        .with_u64("false_bans", result.false_bans as u64)
        .with_f64("false_ban_rate", result.false_ban_rate())
        .with_f64("ttb_p50_matches", ttb(50.0))
        .with_f64("ttb_p90_matches", ttb(90.0))
        .with_f64("ttb_p99_matches", ttb(99.0))
        .with_u64("refused_admissions", result.refused_admissions)
        .with_u64("store_commits", result.store_commits)
        .with_u64("store_compactions", result.store_compactions)
        .with_u64("workers", config.workers as u64)
        .with_u64("ok", u64::from(result.ok()))
        .with_f64("elapsed_sec", elapsed);
    match record.save() {
        Ok(Some(path)) => println!("wrote bench record to {}", path.display()),
        Ok(None) => {
            println!("(set WATCHMEN_BENCH_OUT=<dir> to record BENCH_reputation.json)");
        }
        Err(e) => {
            eprintln!("failed to write bench record {}: {e}", record.file_name());
            std::process::exit(1);
        }
    }

    if !result.ok() {
        eprintln!("population SLO violated");
        std::process::exit(1);
    }
    if result.store_commits == 0 || result.store_compactions == 0 {
        eprintln!("the store never cycled through commit and compaction");
        std::process::exit(1);
    }
}
