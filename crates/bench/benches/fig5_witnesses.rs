//! Figure 5: levels of information about cheaters available to honest
//! witnesses, read off a replay of the shipped node.

use watchmen_bench::{run_experiment, BenchParams};
use watchmen_core::WatchmenConfig;
use watchmen_sim::detection::Count;
use watchmen_sim::overlay::{format_witness, run_witnesses};
use watchmen_sim::report::pct;

fn main() {
    let params = BenchParams::from_env();
    run_experiment("fig5_witnesses", "Figure 5 (witness availability)", || {
        let workload = params.workload();
        let coalitions = [1usize, 2, 3, 4, 6, 8];
        let report = run_witnesses(&workload, &coalitions, &WatchmenConfig::default(), params.seed);
        let Count { hits, of } = report.subscribes;
        let share = pct(report.subscribes.rate());
        let rows = format_witness(&report.rows);
        format!("{rows}\nsubscribes whose first hop is their target: {hits} of {of} ({share})")
    });
}
