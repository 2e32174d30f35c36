//! Ablation: the interest-set size ("given the limited attention span of
//! human players, the size of the IS can be fixed (e.g., 5)").
//!
//! Sweeps |IS| and reports the bandwidth / information-exposure trade-off
//! that motivates the fixed top-5 choice.

use watchmen_bench::{run_experiment, BenchParams};
use watchmen_core::WatchmenConfig;
use watchmen_net::latency;
use watchmen_sim::disclosure::{run_disclosure, Architecture, InfoClass};
use watchmen_sim::overlay::run_watchmen;
use watchmen_sim::report::render_table;

fn main() {
    let params = BenchParams::from_env();
    run_experiment("ablation_interest_size", "§III-A design choice (interest-set size)", || {
        let workload = params.workload();
        let mut rows = Vec::new();
        for k in [1usize, 3, 5, 8, 12] {
            let config = WatchmenConfig { interest_size: k, ..WatchmenConfig::default() };
            let report = run_watchmen(
                &workload.trace,
                &workload.map,
                &config,
                latency::constant(31.0),
                0.01,
                params.seed,
            );
            let disclosure = run_disclosure(
                &workload,
                Architecture::Watchmen,
                &[4],
                &config,
                params.seed,
                params.stride,
            );
            let detailed = disclosure.fraction(4, InfoClass::Complete)
                + disclosure.fraction(4, InfoClass::FreqAndDr)
                + disclosure.fraction(4, InfoClass::FreqOnly);
            rows.push(vec![
                format!("{k}"),
                format!("{:.1}", report.mean_up_kbps),
                format!("{:.1}", report.max_up_kbps),
                format!("{:.1}%", detailed * 100.0),
                format!("{:.1}%", report.fraction_younger_than(3) * 100.0),
            ]);
        }
        render_table(
            &[
                "|IS|",
                "mean up (kbps)",
                "max up (kbps)",
                "freq-grade exposure (c=4)",
                "fresh (<3 frames)",
            ],
            &rows,
        )
    });
}
