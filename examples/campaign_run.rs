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
//! Prints one `campaign <name>:` line per run, then one merged line per
//! kind and the `campaign soak:` line ([`CampaignSoakResult::report`]),
//! and exits non-zero unless every one of those gates holds (all
//! adversaries detected within the kind's time-to-detect budget, no
//! honest actor framed, no run missing its own SLO, no panic). With
//! `WATCHMEN_BENCH_OUT=<dir>` set the run also writes the merged reports
//! as `BENCH_campaign.json`.
//!
//! [`CampaignSoakResult::report`]: watchmen::fleet::CampaignSoakResult::report

use watchmen::fleet::{run_campaign_soak, CampaignSoakConfig};
use watchmen::sim::campaign::CampaignKind;
use watchmen::telemetry::report::{self, Report};

fn main() {
    let config = CampaignSoakConfig::from_env().unwrap_or_default();
    println!(
        "soaking {} campaign kinds x {} seeds on {} workers (base seed {})…",
        CampaignKind::ALL.len(),
        config.runs_per_kind,
        config.workers,
        config.seed,
    );

    let result = run_campaign_soak(&config);
    for msg in &result.panics {
        println!("campaign panicked: {msg}");
    }
    for outcome in &result.outcomes {
        println!("seed {}: {}", outcome.seed, outcome.report());
    }
    println!();
    let reports = result.report();
    for r in &reports {
        println!("{r}");
    }
    let verdict = report::save("campaign", &reports)
        .and_then(|()| reports.iter().try_for_each(Report::check));
    if let Err(e) = verdict {
        eprintln!("campaign soak FAILED: {e}");
        std::process::exit(1);
    }
}
