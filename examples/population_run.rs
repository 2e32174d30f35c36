//! Population soak runner: thousands of matches over one persistent
//! identity population, with every match outcome folded into the
//! durable reputation store so bans cross match boundaries.
//!
//! ```sh
//! cargo run --release --example population_run
//! ```
//!
//! Runs 2 000 real matches (8 players × 160 frames each, the fleet's
//! `MatchCell`) over 256 identities, ~10% of them repeat cheaters
//! running the fleet's scripted speed-hack. Bans come from the nodes'
//! own verdicts through each match's lobby.
//!
//! The store persists to `WATCHMEN_STORE_DIR` (default: a fresh
//! directory under the system temp dir — re-run with the same dir and
//! the bans carry over). Prints the `population summary:` line of
//! `PopulationResult::report` and exits non-zero unless its gate holds
//! (every repeat cheater banned within the time-to-ban budget, no false
//! ban, bans refused later admissions, and the store both committed and
//! compacted on the way); with `WATCHMEN_BENCH_OUT=<dir>` set the run
//! also writes that report as `BENCH_reputation.json`.

use std::time::Instant;

use watchmen::fleet::{run_population, PopulationConfig};
use watchmen::store::FsDir;
use watchmen::telemetry::report;

fn main() {
    let config = PopulationConfig::default();
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
    let started = Instant::now();
    let result = run_population(&config, Box::new(dir));
    let elapsed = started.elapsed().as_secs_f64();

    let report = result.report();
    println!("{report}");
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let timings = result.store_timings;
    println!(
        "population soak: {} matches ({} aborted) in {elapsed:.2}s over {} rounds, \
         store: {} commits ({:.2} ms in fsync) / {} compactions ({:.2} ms mean) / {} B WAL",
        result.matches_run,
        result.matches_aborted,
        result.rounds,
        result.store_commits,
        ms(timings.fsync_total),
        result.store_compactions,
        ms(timings.compaction_total) / result.store_compactions.max(1) as f64,
        result.store_wal_bytes,
    );

    let verdict =
        report::save("reputation", std::slice::from_ref(&report)).and_then(|()| report.check());
    if let Err(e) = verdict {
        eprintln!("population soak FAILED: {e}");
        std::process::exit(1);
    }
}
