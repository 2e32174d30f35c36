//! Coordinated-adversary campaign runner: collusion, Sybil flood and
//! eclipse, soaked across seeds on the work-stealing pool and graded
//! against injected ground truth.
//!
//! ```sh
//! cargo run --release --example campaign_run
//! ```
//!
//! Defaults to 8 seeds per campaign kind (24 campaigns). Override with
//! `WATCHMEN_CAMPAIGN`, e.g.:
//!
//! ```sh
//! WATCHMEN_CAMPAIGN="runs=16,seed=2013,workers=4" \
//!     cargo run --release --example campaign_run
//! ```
//!
//! Knobs: `runs` (seeds per kind), `seed`, `workers`, `max_local`.
//!
//! Prints one line per run and one merged `campaign <name>:` SLO line
//! per kind, and exits non-zero unless every kind met its SLO (all
//! adversaries detected within the kind's time-to-detect budget, no
//! honest actor framed, no panic). With `WATCHMEN_BENCH_OUT=<dir>` set
//! the run also writes `BENCH_campaign.json` with per-kind adversary /
//! detection / false-verdict counts and time-to-detect percentiles.

use std::time::Instant;

use watchmen::bench::BenchRecord;
use watchmen::fleet::{run_campaign_soak, CampaignSoakConfig};
use watchmen::sim::campaign::CampaignKind;

fn main() {
    let config = CampaignSoakConfig::from_env().unwrap_or_default();
    println!(
        "campaign soak: {} kinds x {} seeds on {} workers (base seed {})…",
        CampaignKind::ALL.len(),
        config.runs_per_kind,
        config.workers,
        config.seed,
    );

    let started = Instant::now();
    let result = run_campaign_soak(&config);
    let elapsed = started.elapsed().as_secs_f64();

    for msg in &result.panics {
        println!("campaign panicked: {msg}");
    }
    for outcome in &result.outcomes {
        println!("seed {}: {}", outcome.seed, outcome.summary_line());
    }
    println!();
    print!("{}", result.summary_lines());
    println!(
        "campaign soak: {} campaigns in {elapsed:.2}s, ok={}",
        result.outcomes.len(),
        result.ok()
    );

    let mut record = BenchRecord::new("campaign")
        .with_u64("runs_per_kind", config.runs_per_kind)
        .with_u64("workers", config.workers as u64)
        .with_u64("campaigns", result.outcomes.len() as u64)
        .with_u64("panics", result.panics.len() as u64)
        .with_u64("ok", u64::from(result.ok()))
        .with_f64("elapsed_sec", elapsed);
    for kind in CampaignKind::ALL {
        let q = result.quality_for(kind);
        let name = kind.name().replace('-', "_");
        let ttd = |p: f64| q.ttd_percentile(p).map_or(f64::NAN, |v| v as f64);
        record = record
            .with_u64(&format!("{name}_adversaries"), q.injected)
            .with_u64(&format!("{name}_detected"), q.detected)
            .with_u64(&format!("{name}_false_verdicts"), q.false_verdicts)
            .with_f64(&format!("{name}_ttd_p50_frames"), ttd(50.0))
            .with_f64(&format!("{name}_ttd_p99_frames"), ttd(99.0))
            .with_u64(&format!("{name}_ttd_budget_frames"), kind.ttd_budget_frames());
    }
    match record.save() {
        Ok(Some(path)) => println!("wrote bench record to {}", path.display()),
        Ok(None) => {
            println!("(set WATCHMEN_BENCH_OUT=<dir> to record BENCH_campaign.json)");
        }
        Err(e) => {
            eprintln!("failed to write bench record {}: {e}", record.file_name());
            std::process::exit(1);
        }
    }

    if !result.ok() {
        eprintln!("campaign SLO violated");
        std::process::exit(1);
    }
}
