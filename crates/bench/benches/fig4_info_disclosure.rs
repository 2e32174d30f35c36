//! Figure 4: information about players available to coalitions of
//! colluding cheaters, per architecture.

use watchmen_bench::{run_experiment, BenchParams};
use watchmen_core::WatchmenConfig;
use watchmen_sim::disclosure::{format_disclosure, run_disclosure, Architecture};

fn main() {
    let params = BenchParams::from_env();
    run_experiment(
        "fig4_info_disclosure",
        "Figure 4 (information disclosure under collusion)",
        || {
            let workload = params.workload();
            let config = WatchmenConfig::default();
            let coalitions = [1usize, 2, 3, 4, 6, 8];
            let mut out = Vec::new();
            for arch in Architecture::ALL {
                let report = run_disclosure(&workload, arch, &coalitions, &config, params.seed);
                out.push(format_disclosure(&report));
            }
            out.join("\n\n")
        },
    );
}
