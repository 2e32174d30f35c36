//! Campaign soak: coordinated-adversary campaigns at fleet scale.
//!
//! One [`CampaignCell`] wraps one scripted campaign
//! ([`watchmen_sim::campaign`]) as a pool [`Task`], so the work-stealing
//! scheduler can soak every [`CampaignKind`] across many seeds in
//! parallel — the coordinated-adversary analogue of the single-cheater
//! fleet soak. [`CampaignSoakResult::report`] merges per-kind detection
//! quality into one SLO report per campaign kind, in the shape
//! [`watchmen_sim::campaign::CampaignKind::report`] gives a single run,
//! plus the soak's own; `campaign_run` prints, records and exits on them.

use watchmen_core::WatchmenConfig;
use watchmen_sim::campaign::{run_campaign, CampaignKind, CampaignOutcome, CampaignSpec};
use watchmen_sim::quality::DetectionQuality;
use watchmen_telemetry::report::Report;
use watchmen_telemetry::spec;

use crate::pool::{default_workers, run_tasks, PoolConfig, Quantum, ShardContext, Task};

/// Shape of one campaign soak.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSoakConfig {
    /// Seeds per campaign kind (total runs = `3 × runs_per_kind`).
    pub runs_per_kind: u64,
    /// Base seed; run `i` of each kind derives `seed + i`.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Per-worker in-flight cap.
    pub max_local: usize,
}

impl Default for CampaignSoakConfig {
    fn default() -> Self {
        CampaignSoakConfig {
            runs_per_kind: 8,
            seed: 2013,
            workers: default_workers(),
            max_local: 8,
        }
    }
}

impl CampaignSoakConfig {
    /// Reads `WATCHMEN_CAMPAIGN` — a bare switch (`1`, `on`, `defaults`)
    /// for the default soak, or a comma-separated spec (see
    /// [`CampaignSoakConfig::from_spec`]). Returns `None` when unset or
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set but does not parse — a misspelled
    /// gate should fail loudly, not silently soak the wrong campaigns.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        spec::from_env_or_default("WATCHMEN_CAMPAIGN", Self::from_spec)
    }

    /// Parses a comma-separated spec over the defaults:
    /// `runs=8,seed=2013,workers=4,max_local=8`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown entry.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut config = CampaignSoakConfig::default();
        for pair in spec::pairs(spec) {
            let (key, value) = pair?;
            match key {
                "runs" => config.runs_per_kind = spec::num(key, value)?,
                "seed" => config.seed = spec::num(key, value)?,
                "workers" => config.workers = spec::num(key, value)?,
                "max_local" => config.max_local = spec::num(key, value)?,
                other => return Err(format!("unknown campaign knob {other:?}")),
            }
        }
        if config.runs_per_kind == 0 {
            return Err("runs must be ≥ 1".into());
        }
        if config.workers == 0 || config.max_local == 0 {
            return Err("workers and max_local must be ≥ 1".into());
        }
        Ok(config)
    }
}

/// One campaign scheduled on the pool.
#[derive(Debug)]
pub struct CampaignCell {
    spec: CampaignSpec,
    config: WatchmenConfig,
}

impl CampaignCell {
    /// Wraps one campaign spec for the scheduler.
    #[must_use]
    pub fn new(spec: CampaignSpec, config: WatchmenConfig) -> Self {
        CampaignCell { spec, config }
    }
}

impl Task for CampaignCell {
    type Output = CampaignOutcome;

    /// Campaigns are epoch-scripted and cheap (no per-frame simnet), so
    /// one campaign completes in a single quantum; the tick count it
    /// reports is its epoch span, keeping scheduler accounting honest.
    fn run_quantum(&mut self, cx: &ShardContext) -> Quantum<CampaignOutcome> {
        cx.registry.describe("fleet_campaign_runs_total", "campaigns completed on this shard");
        cx.registry.counter("fleet_campaign_runs_total").inc();
        Quantum::Complete {
            ticks: self.spec.epochs,
            output: run_campaign(&self.spec, &self.config),
        }
    }
}

/// What a campaign soak produced.
#[derive(Debug)]
pub struct CampaignSoakResult {
    /// Every completed campaign outcome, in submission order
    /// (kind-major, seed-minor).
    pub outcomes: Vec<CampaignOutcome>,
    /// Panic messages from campaigns that died (the workers survived).
    pub panics: Vec<String>,
}

impl CampaignSoakResult {
    /// The merged detection quality for one campaign kind.
    #[must_use]
    pub fn quality_for(&self, kind: CampaignKind) -> DetectionQuality {
        let mut merged = DetectionQuality::default();
        for outcome in self.outcomes.iter().filter(|o| o.kind == kind) {
            merged.merge(&outcome.quality);
        }
        merged
    }

    /// One report per campaign kind in catalog order — the kind's merged
    /// SLO plus `failed_runs`, the runs that missed their own — then the
    /// `campaign soak:` report, which gates on no campaign panicking.
    #[must_use]
    pub fn report(&self) -> Vec<Report> {
        let mut reports: Vec<Report> = CampaignKind::ALL
            .into_iter()
            .map(|kind| {
                let failed = self
                    .outcomes
                    .iter()
                    .filter(|o| o.kind == kind && o.report().check().is_err())
                    .count();
                kind.report(&self.quality_for(kind)).figure("failed_runs", failed, failed == 0)
            })
            .collect();
        let soak = Report::new("campaign soak")
            .figure("campaigns", self.outcomes.len(), true)
            .figure("panics", self.panics.len(), self.panics.is_empty());
        reports.push(soak);
        reports
    }
}

/// Runs every campaign kind across `runs_per_kind` seeds on the pool.
///
/// # Panics
///
/// Panics on a zero worker count or in-flight cap; campaign panics are
/// captured per cell, never propagated.
#[must_use]
pub fn run_campaign_soak(config: &CampaignSoakConfig) -> CampaignSoakResult {
    let watchmen = WatchmenConfig::default();
    let cells: Vec<CampaignCell> = CampaignKind::ALL
        .into_iter()
        .flat_map(|kind| {
            (0..config.runs_per_kind).map(move |i| {
                CampaignCell::new(CampaignSpec::standard(kind, config.seed + i), watchmen)
            })
        })
        .collect();
    let run =
        run_tasks(&PoolConfig { workers: config.workers, max_local: config.max_local }, cells);
    let mut outcomes = Vec::new();
    let mut panics = Vec::new();
    for outcome in run.outcomes {
        match outcome {
            crate::pool::TaskOutcome::Completed(o) => outcomes.push(o),
            crate::pool::TaskOutcome::Panicked(msg) => panics.push(msg),
        }
    }
    CampaignSoakResult { outcomes, panics }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_runs_every_kind_across_seeds_and_meets_slo() {
        let config = CampaignSoakConfig { runs_per_kind: 4, seed: 100, workers: 2, max_local: 4 };
        let result = run_campaign_soak(&config);
        assert!(result.panics.is_empty(), "{:?}", result.panics);
        assert_eq!(result.outcomes.len(), 12);
        for kind in CampaignKind::ALL {
            let q = result.quality_for(kind);
            assert!(q.injected > 0, "{kind}: nothing injected");
            assert_eq!(q.detected, q.injected, "{kind}: missed adversaries");
            assert_eq!(q.false_verdicts, 0, "{kind}: framed an honest actor");
        }
        for report in result.report() {
            assert_eq!(report.check(), Ok(()));
        }
    }

    #[test]
    fn reports_cover_every_kind_in_order() {
        let mut result = run_campaign_soak(&CampaignSoakConfig {
            runs_per_kind: 1,
            seed: 7,
            workers: 1,
            max_local: 2,
        });
        let titles: Vec<String> = result.report().iter().map(|r| r.title().to_owned()).collect();
        assert_eq!(
            titles,
            ["campaign collusion", "campaign sybil-flood", "campaign eclipse", "campaign soak"]
        );
        assert!(result.report().iter().all(|r| r.failing().is_none()));
        result.panics.push("a doctored panic".to_owned());
        assert_eq!(result.report()[3].failing(), Some("panics"));
        result.outcomes[0].quality.false_verdicts = 1;
        assert_eq!(result.report()[0].failing(), Some("false_verdicts"));
    }

    #[test]
    fn spec_parsing_overrides_defaults_and_rejects_junk() {
        let c = CampaignSoakConfig::from_spec("runs=3,seed=9,workers=2,max_local=4")
            .expect("valid spec");
        assert_eq!(c.runs_per_kind, 3);
        assert_eq!(c.seed, 9);
        assert_eq!(c.workers, 2);
        assert_eq!(c.max_local, 4);
        let d = CampaignSoakConfig::from_spec("seed=5").expect("partial spec keeps defaults");
        assert_eq!(d.runs_per_kind, CampaignSoakConfig::default().runs_per_kind);
        assert!(CampaignSoakConfig::from_spec("runs").is_err(), "missing value");
        assert!(CampaignSoakConfig::from_spec("bogus=1").is_err(), "unknown knob");
        assert!(CampaignSoakConfig::from_spec("runs=0").is_err(), "zero runs");
        assert!(CampaignSoakConfig::from_spec("workers=0").is_err(), "zero workers");
    }

    #[test]
    fn soak_is_deterministic_across_worker_counts() {
        let base = CampaignSoakConfig { runs_per_kind: 3, seed: 42, workers: 1, max_local: 2 };
        let one = run_campaign_soak(&base);
        let four = run_campaign_soak(&CampaignSoakConfig { workers: 4, ..base });
        assert_eq!(one.report(), four.report());
    }
}
