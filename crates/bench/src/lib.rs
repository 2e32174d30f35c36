//! Shared parameters for the experiment benches.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md's experiment index). The headline workload is
//! the paper's: a 48-player deathmatch on the q3dm17-like map. Set
//! `WATCHMEN_QUICK=1` to run a scaled-down variant (16 players, shorter
//! traces) when iterating.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use watchmen_sim::workload::{standard_workload, Workload};

/// Experiment scale parameters.
#[derive(Debug, Clone, Copy)]
pub struct BenchParams {
    /// Player count (paper headline: 48).
    pub players: usize,
    /// Trace length in frames (1200 = one minute of play).
    pub frames: u64,
    /// Workload seed.
    pub seed: u64,
}

impl BenchParams {
    /// Full-scale parameters matching the paper, or a quick variant when
    /// `WATCHMEN_QUICK` is set in the environment.
    #[must_use]
    pub fn from_env() -> Self {
        if std::env::var_os("WATCHMEN_QUICK").is_some() {
            BenchParams { players: 16, frames: 400, seed: 42 }
        } else {
            BenchParams { players: 48, frames: 1200, seed: 42 }
        }
    }

    /// Builds the headline workload for these parameters.
    #[must_use]
    pub fn workload(&self) -> Workload {
        standard_workload(self.players, self.seed, self.frames)
    }
}

/// Prints a standard experiment banner and runs the body, reporting wall
/// time — so `cargo bench` output reads as a lab notebook.
///
/// Set `WATCHMEN_TELEMETRY=prom` (or `json`) in the environment to also
/// dump the global telemetry registry after the body runs — every
/// counter, gauge, and histogram the experiment touched.
pub fn run_experiment(name: &str, paper_ref: &str, body: impl FnOnce() -> String) {
    let params = BenchParams::from_env();
    println!("=== {name} ===");
    println!(
        "reproduces: {paper_ref} | workload: {} players, {} frames, seed {}",
        params.players, params.frames, params.seed
    );
    let start = Instant::now();
    let output = body();
    println!("{output}");
    println!("[{name} completed in {:.2?}]\n", start.elapsed());
    watchmen_telemetry::dump_from_env(name);
}
