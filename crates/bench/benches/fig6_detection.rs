//! Figure 6: success rates of the verification mechanisms, graded on the
//! shipped node: one replay per scripted cheat, honest false positives
//! counted over all of them.

use watchmen_bench::{run_experiment, BenchParams};
use watchmen_core::WatchmenConfig;
use watchmen_sim::detection::{format_detection, run_detection};

fn main() {
    let params = BenchParams::from_env();
    run_experiment("fig6_detection", "Figure 6 (verification success rates)", || {
        let workload = params.workload();
        let rows = run_detection(&workload, &WatchmenConfig::default(), params.seed);
        format_detection(&rows)
    });
}
