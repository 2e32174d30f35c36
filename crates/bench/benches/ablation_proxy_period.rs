//! Ablation: the proxy renewal period (§IV "the proxy period is chosen
//! long enough to be able to cross-check updates, but not long enough for
//! colluding cheaters to cooperate").
//!
//! Sweeps the period and reports the security/overhead trade-off: the
//! collusion exposure window, the handoff + subscription overhead, and
//! delivery freshness.

use watchmen_bench::{run_experiment, BenchParams};
use watchmen_core::WatchmenConfig;
use watchmen_net::latency;
use watchmen_sim::overlay::run_watchmen;
use watchmen_sim::report::render_table;

fn main() {
    let params = BenchParams::from_env();
    run_experiment("ablation_proxy_period", "§IV design choice (proxy renewal period)", || {
        let workload = params.workload();
        let mut rows = Vec::new();
        for period in [10u64, 20, 40, 80, 160] {
            let config = WatchmenConfig {
                proxy_period: period,
                subscription_retention: period,
                ..WatchmenConfig::default()
            };
            let report = run_watchmen(
                &workload.trace,
                &workload.map,
                &config,
                latency::king_like(workload.players(), params.seed),
                0.01,
                params.seed,
            );
            rows.push(vec![
                format!("{period}"),
                format!("{:.1} s", period as f64 * 0.05),
                format!("{:.1}", report.mean_up_kbps),
                format!("{:.1}", report.max_up_kbps),
                format!("{:.1}%", report.late_or_lost * 100.0),
                format!("{:.1}%", report.fraction_younger_than(3) * 100.0),
            ]);
        }
        render_table(
            &[
                "period (frames)",
                "collusion window",
                "mean up (kbps)",
                "max up (kbps)",
                "late-or-lost",
                "fresh (<3 frames)",
            ],
            &rows,
        )
    });
}
