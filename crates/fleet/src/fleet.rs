//! Fleet lifecycle: spec generation, the run loop, and the fleet report.
//!
//! A fleet is `matches` independent Watchmen matches scheduled across
//! the work-stealing pool. Every match's seed derives deterministically
//! from the fleet seed (one [`SplitMix64`] draw per match id), every
//! cell is shared-nothing, and completed reports are keyed by match id —
//! so a fleet's [`FleetResult::match_lines`] is byte-identical for any
//! worker count, which is the cheat-evidence property the orchestrator
//! inherits from the protocol: results depend on inputs, never on
//! scheduling.
//!
//! Cheat injection follows the repo's soak convention: every
//! `cheat_every`-th match scripts player 2 as a speed-hacker, so the
//! fleet-wide gate can assert both directions at population scale —
//! injected cheaters detected, honest matches free of false verdicts.

use std::sync::Arc;

use watchmen_core::verify::checks;
use watchmen_crypto::rng::SplitMix64;
use watchmen_sim::quality::DetectionQuality;
use watchmen_telemetry::report::Report;
use watchmen_telemetry::{global, Registry, Snapshot};

use crate::cell::{MatchCell, MatchReport, MatchSpec};
use crate::pool::{default_workers, run_tasks_on, PoolConfig, TaskOutcome, WorkerStats};
use crate::rollup::{roll_up, FleetRollup};

/// Which player a cheater-match scripts as the speed-hacker — the same
/// slot the deathmatch example uses.
const CHEATER_SLOT: u32 = 2;

/// The detection-quality SLO budget: an injected cheater must draw its
/// first severe verdict within this many frames of its first cheating
/// frame (p99). The scripted speed-hack trips the proxy's physics check
/// within one epoch, so 32 frames leaves slack for simnet latency
/// without letting a regression hide.
pub const TTD_BUDGET_FRAMES: u64 = 32;

/// Everything that defines one fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Matches to run.
    pub matches: u64,
    /// Bots per match.
    pub players: usize,
    /// Playable frames per match.
    pub frames: u64,
    /// Worker threads.
    pub workers: usize,
    /// Per-worker in-flight match cap (bounds peak memory).
    pub max_local: usize,
    /// Frames a match advances per scheduler quantum.
    pub tick_quantum: u64,
    /// Fleet seed; every match seed derives from it.
    pub seed: u64,
    /// Script a cheater into every Nth match (0 = all-honest fleet).
    pub cheat_every: u64,
    /// Run the observability plane: audit collection plus the
    /// detection-quality join (default on; off is the plane-overhead
    /// probe mode).
    pub observe: bool,
    /// Retain each match's audit stream as JSONL in its report (default
    /// off — memory-heavy at population scale).
    pub audit: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            matches: 512,
            players: 16,
            frames: 160,
            workers: default_workers(),
            max_local: 8,
            tick_quantum: 16,
            seed: 2013,
            cheat_every: 8,
            observe: true,
            audit: false,
        }
    }
}

impl FleetConfig {
    /// Expands the config into one spec per match: seeds drawn from a
    /// [`SplitMix64`] over the fleet seed, a scripted cheater in every
    /// `cheat_every`-th match.
    #[must_use]
    pub fn specs(&self) -> Vec<MatchSpec> {
        let mut sm = SplitMix64::new(self.seed);
        (0..self.matches)
            .map(|id| {
                let mut spec = MatchSpec::new(id, self.players, self.frames, sm.next_u64())
                    .with_tick_quantum(self.tick_quantum);
                spec.observe = self.observe;
                spec.audit = self.audit;
                if self.cheat_every > 0 && id % self.cheat_every == 0 {
                    spec.with_cheater(CHEATER_SLOT)
                } else {
                    spec
                }
            })
            .collect()
    }
}

/// A live, scrapeable view of a running fleet's telemetry.
///
/// Created *before* the run and handed to [`run_fleet_on`], the view
/// holds the shard registries the pool workers record into, so a metrics
/// endpoint on another thread can [`FleetView::snapshot`] mid-soak: each
/// call re-merges every shard under a `shard=<i>` label, adds the
/// process-wide [`global`] registry the matches' nodes and simnets
/// record into (unlabelled, and counted since the process started: its
/// `node_*` and `net_*` series include every fleet and match the process
/// has run, not only this one), and derives `fleet_matches{state=…}`
/// lifecycle gauges from the scheduler counters. Cloning the view shares
/// the same registries.
#[derive(Debug, Clone)]
pub struct FleetView {
    shards: Vec<Arc<Registry>>,
    matches: u64,
}

impl FleetView {
    /// A view over `workers` fresh shard registries for a fleet of
    /// `matches` matches.
    #[must_use]
    pub fn new(workers: usize, matches: u64) -> Self {
        FleetView {
            shards: (0..workers.max(1)).map(|_| Arc::new(Registry::new())).collect(),
            matches,
        }
    }

    /// The view shaped for `config` (one shard per worker).
    #[must_use]
    pub fn for_config(config: &FleetConfig) -> Self {
        FleetView::new(config.workers, config.matches)
    }

    /// The shard registries (index = worker).
    #[must_use]
    pub fn shards(&self) -> &[Arc<Registry>] {
        &self.shards
    }

    /// A point-in-time merge of every shard, re-labelled `shard=<i>`, and
    /// of the [`global`] registry (process-wide since start), plus
    /// `fleet_matches{state="pending"|"completed"|"panicked"}` gauges.
    /// Safe to call at any time, including while the fleet runs.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let merged = Registry::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let label = i.to_string();
            merged.merge_labeled(shard, &[("shard", &label)]);
        }
        merged.merge_labeled(global(), &[]);
        let snap = merged.snapshot();
        let completed = snap.counter_sum("fleet_tasks_completed_total");
        let panicked = snap.counter_sum("fleet_tasks_panicked_total");
        let pending = self.matches.saturating_sub(completed + panicked);
        merged.gauge_with("fleet_matches", &[("state", "pending")]).set(pending as i64);
        merged.gauge_with("fleet_matches", &[("state", "completed")]).set(completed as i64);
        merged.gauge_with("fleet_matches", &[("state", "panicked")]).set(panicked as i64);
        merged.snapshot()
    }

    /// Help text for `name`, from whichever shard or the [`global`]
    /// registry described it (plus the view's own derived gauges).
    #[must_use]
    pub fn help_for(&self, name: &str) -> Option<&'static str> {
        if name == "fleet_matches" {
            return Some("matches by lifecycle state across the fleet");
        }
        self.shards.iter().find_map(|s| s.help_for(name)).or_else(|| global().help_for(name))
    }
}

/// What a fleet run produced: per-match reports, panic records,
/// scheduler stats and the telemetry rollup.
#[derive(Debug)]
pub struct FleetResult {
    /// Reports of completed matches, sorted by match id.
    pub reports: Vec<MatchReport>,
    /// `(match_id, panic message)` for matches that panicked, sorted by
    /// match id. The workers that ran them survived.
    pub panics: Vec<(u64, String)>,
    /// Per-worker scheduler counters.
    pub workers: Vec<WorkerStats>,
    /// Per-shard and fleet-wide tick latency.
    pub rollup: FleetRollup,
}

impl FleetResult {
    /// Matches that ran to completion.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.reports.len() as u64
    }

    /// Total frames advanced across every worker (including drained
    /// partial quanta).
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.workers.iter().map(|w| w.ticks).sum()
    }

    /// Tasks stolen across shard deques.
    #[must_use]
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Matches that scripted at least one cheater.
    #[must_use]
    pub fn cheater_matches(&self) -> u64 {
        self.reports.iter().filter(|r| r.cheaters > 0).count() as u64
    }

    /// Cheater matches whose every scripted cheater drew a severe
    /// verdict.
    #[must_use]
    pub fn detected_matches(&self) -> u64 {
        self.reports.iter().filter(|r| r.cheaters > 0 && r.detected).count() as u64
    }

    /// Severe verdicts against honest players, fleet-wide. The soak gate
    /// asserts zero.
    #[must_use]
    pub fn false_verdicts(&self) -> u64 {
        self.reports.iter().map(|r| r.false_verdicts).sum()
    }

    /// One deterministic line per match, sorted by match id — completed
    /// matches as their [`MatchReport::summary_line`], panicked matches
    /// as a `panicked` line. Byte-identical across worker counts for a
    /// fixed fleet seed.
    #[must_use]
    pub fn match_lines(&self) -> String {
        let mut lines: Vec<(u64, String)> = self
            .reports
            .iter()
            .map(|r| (r.match_id, r.summary_line()))
            .chain(self.panics.iter().map(|(id, msg)| (*id, format!("match {id}: panicked {msg}"))))
            .collect();
        lines.sort_by_key(|(id, _)| *id);
        let mut out = String::new();
        for (_, line) in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The fleet-wide detection-quality join: every completed match's
    /// [`MatchReport::quality`] merged into one confusion matrix and
    /// time-to-detect distribution.
    #[must_use]
    pub fn detection_quality(&self) -> DetectionQuality {
        let mut quality = DetectionQuality::default();
        for report in &self.reports {
            quality.merge(&report.quality);
        }
        quality
    }

    /// The fleet's two reports, gated against the config it ran:
    ///
    /// * `fleet summary:` — every configured match ran, none panicked, the
    ///   configured workers all ran, the cheat injection engaged, every
    ///   cheater match was detected inline and no honest player drew a
    ///   severe verdict;
    /// * `detection slo:` — the audit stream's join: every injected
    ///   cheater detected, time-to-detect p99 within
    ///   [`TTD_BUDGET_FRAMES`] (`-` when nobody cheated), and per check
    ///   `<check>_tp`/`_fp`/`_fn`, where no check may score a false
    ///   positive (their sum is the join's false-verdict count) and the
    ///   position check must score a true positive whenever cheaters were
    ///   scripted and the plane was on.
    ///
    /// Counters only, no timings; `fleet_soak` exits non-zero when either
    /// fails.
    #[must_use]
    pub fn report(&self, config: &FleetConfig) -> [Report; 2] {
        let cheating = config.cheat_every > 0;
        let (cheater_matches, detected_matches) = (self.cheater_matches(), self.detected_matches());
        let total = |f: fn(&MatchReport) -> u64| self.reports.iter().map(f).sum::<u64>();
        let matches = self.reports.len() + self.panics.len();
        let fleet = Report::new("fleet summary")
            .figure("matches", matches, matches as u64 == config.matches)
            .figure("completed", self.completed(), true)
            .figure("panicked", self.panics.len(), self.panics.is_empty())
            .figure("workers", self.workers.len(), self.workers.len() == config.workers)
            .figure("cheater_matches", cheater_matches, !cheating || cheater_matches > 0)
            .figure("detected_matches", detected_matches, detected_matches == cheater_matches)
            .figure("severe", total(|r| r.severe_verdicts), true)
            .figure("false_verdicts", self.false_verdicts(), self.false_verdicts() == 0)
            .figure("bad_signatures", total(|r| r.bad_signatures), true)
            .figure("banned", total(|r| r.banned), true)
            .figure("messages", total(|r| r.messages), true)
            .figure("ticks", self.total_ticks(), true)
            .figure("steals", self.total_steals(), true);

        let q = self.detection_quality();
        let p99 = q.ttd_percentile(99.0);
        let mut detection = Report::new("detection slo")
            .figure("injected", q.injected, true)
            .figure("detected", q.detected, q.detected == q.injected)
            .figure("ttd_p50", q.ttd_percentile(50.0), true)
            .figure("ttd_p99", p99, p99.is_none_or(|p| p <= TTD_BUDGET_FRAMES))
            .figure("budget", TTD_BUDGET_FRAMES, true);
        let mut per_check = q.per_check;
        per_check.entry(checks::POSITION).or_default();
        for (check, c) in per_check {
            let must_catch = check == checks::POSITION && config.observe && cheating;
            detection = detection
                .figure(format!("{check}_tp"), c.true_pos, !must_catch || c.true_pos > 0)
                .figure(format!("{check}_fp"), c.false_pos, c.false_pos == 0)
                .figure(format!("{check}_fn"), c.false_neg, true);
        }
        [fleet, detection]
    }

    /// The fleet's audit stream as JSONL, matches in id order, each line
    /// prefixed with its match id. Non-empty only when the fleet ran
    /// with `audit=1`; byte-identical across worker counts for a fixed
    /// seed — the property `tests/observability_e2e.rs` pins.
    #[must_use]
    pub fn audit_jsonl(&self) -> String {
        let mut out = String::new();
        for report in &self.reports {
            for line in &report.audit_lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// Runs a fleet from a config: expand specs, schedule, roll up.
#[must_use]
pub fn run_fleet(config: &FleetConfig) -> FleetResult {
    run_fleet_on(config, &FleetView::for_config(config))
}

/// Like [`run_fleet`], but records into the caller's [`FleetView`] so a
/// metrics endpoint can scrape the fleet while it runs.
///
/// # Panics
///
/// Panics if the view's shard count does not match `config.workers`.
#[must_use]
pub fn run_fleet_on(config: &FleetConfig, view: &FleetView) -> FleetResult {
    run_fleet_specs_on(
        config.specs(),
        &PoolConfig { workers: config.workers, max_local: config.max_local },
        view,
    )
}

/// The lower-level entry point tests use: run explicit specs on an
/// explicit pool shape.
///
/// # Panics
///
/// Panics on a zero worker count or in-flight cap; match panics are
/// captured per match, never propagated.
#[must_use]
pub fn run_fleet_specs(specs: Vec<MatchSpec>, pool: &PoolConfig) -> FleetResult {
    let matches = specs.len() as u64;
    run_fleet_specs_on(specs, pool, &FleetView::new(pool.workers, matches))
}

/// Runs explicit specs on an explicit pool shape, recording into the
/// caller's live [`FleetView`].
///
/// # Panics
///
/// Panics on a zero worker count or in-flight cap, or when the view's
/// shard count does not match `pool.workers`.
#[must_use]
pub fn run_fleet_specs_on(
    specs: Vec<MatchSpec>,
    pool: &PoolConfig,
    view: &FleetView,
) -> FleetResult {
    let ids: Vec<u64> = specs.iter().map(|s| s.match_id).collect();
    let cells: Vec<MatchCell> = specs.into_iter().map(MatchCell::new).collect();
    let run = run_tasks_on(pool, cells, view.shards().to_vec());

    let mut reports = Vec::new();
    let mut panics = Vec::new();
    for (slot, outcome) in run.outcomes.into_iter().enumerate() {
        match outcome {
            TaskOutcome::Completed(report) => reports.push(report),
            TaskOutcome::Panicked(msg) => panics.push((ids[slot], msg)),
        }
    }
    reports.sort_by_key(|r| r.match_id);
    panics.sort_by_key(|(id, _)| *id);
    FleetResult { reports, panics, workers: run.workers, rollup: roll_up(&run.shards) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_expansion_is_deterministic_and_seeded() {
        let config = FleetConfig { matches: 16, ..FleetConfig::default() };
        let a = config.specs();
        let b = config.specs();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        // Distinct seeds per match.
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16, "per-match seeds must be distinct");
        // Every 8th match carries the scripted cheater.
        for spec in &a {
            let expect = spec.match_id % 8 == 0;
            assert_eq!(!spec.cheaters.is_empty(), expect, "match {}", spec.match_id);
        }
    }

    #[test]
    fn cheat_every_zero_means_all_honest() {
        let config = FleetConfig { matches: 12, cheat_every: 0, ..FleetConfig::default() };
        assert!(config.specs().iter().all(|s| s.cheaters.is_empty()));
    }

    #[test]
    fn observability_knobs_propagate() {
        let specs =
            FleetConfig { matches: 3, observe: false, audit: true, ..FleetConfig::default() }
                .specs();
        assert!(specs.iter().all(|s| !s.observe && s.audit));
        // Defaults: plane on, JSONL retention off.
        let d = FleetConfig::default();
        assert!(d.observe && !d.audit);
    }

    #[test]
    fn detection_report_meets_the_slo_and_the_view_tracks_states() {
        let config = FleetConfig {
            matches: 4,
            players: 8,
            frames: 120,
            workers: 2,
            cheat_every: 2,
            seed: 77,
            ..FleetConfig::default()
        };
        let view = FleetView::for_config(&config);
        let result = run_fleet_on(&config, &view);

        let q = result.detection_quality();
        assert_eq!(q.injected, 2, "matches 0 and 2 script a cheater");
        assert_eq!(q.detected, 2, "{}", result.match_lines());
        assert_eq!(q.false_verdicts, 0);
        let [_, detection] = result.report(&config);
        assert_eq!(detection.check(), Ok(()));

        let line = detection.to_string();
        assert!(line.starts_with("detection slo: injected=2 detected=2 ttd_p50="), "{line}");
        assert!(line.contains(" position_tp="), "{line}");
        assert!(line.contains(" position_fp=0"), "{line}");

        // The live view: shard-labelled metrics plus lifecycle gauges,
        // settled now that the run is over.
        let snap = view.snapshot();
        assert!(snap.get_with("fleet_quanta_total", &[("shard", "0")]).is_some());
        use watchmen_telemetry::MetricValue;
        assert_eq!(
            snap.get_with("fleet_matches", &[("state", "completed")]),
            Some(&MetricValue::Gauge(4))
        );
        assert_eq!(
            snap.get_with("fleet_matches", &[("state", "pending")]),
            Some(&MetricValue::Gauge(0))
        );
        assert_eq!(
            view.help_for("fleet_matches"),
            Some("matches by lifecycle state across the fleet")
        );
        assert!(view.help_for("fleet_quanta_total").is_some(), "shard help must surface");
    }

    /// The gate `fleet_soak` exits on: a clean fleet passes it, and a
    /// fleet with one poisoned match — or one the config says should
    /// have had more matches, workers or cheaters — fails on that figure.
    #[test]
    fn gate_passes_a_clean_fleet_and_fails_a_poisoned_one() {
        let failing = |result: &FleetResult, config: &FleetConfig| {
            result.report(config).iter().find_map(|r| r.failing().map(str::to_owned))
        };
        let config = FleetConfig {
            matches: 4,
            players: 8,
            frames: 60,
            workers: 2,
            cheat_every: 2,
            seed: 77,
            ..FleetConfig::default()
        };
        let pool = PoolConfig { workers: config.workers, max_local: config.max_local };
        let clean = run_fleet(&config);
        assert_eq!(failing(&clean, &config), None, "{}", clean.match_lines());

        let mut specs = config.specs();
        specs[3] = specs[3].clone().poisoned_at(10);
        let poisoned = run_fleet_specs(specs, &pool);
        assert_eq!(failing(&poisoned, &config).as_deref(), Some("panicked"));

        let expect = |other: FleetConfig, label: &str| {
            assert_eq!(failing(&clean, &other).as_deref(), Some(label));
        };
        expect(FleetConfig { matches: 5, ..config.clone() }, "matches");
        expect(FleetConfig { workers: 4, ..config.clone() }, "workers");
        let honest = run_fleet(&FleetConfig { cheat_every: 0, ..config.clone() });
        assert_eq!(failing(&honest, &config).as_deref(), Some("cheater_matches"));
    }

    #[test]
    fn audit_jsonl_is_empty_unless_requested() {
        let config = FleetConfig {
            matches: 2,
            players: 8,
            frames: 60,
            workers: 1,
            cheat_every: 2,
            seed: 9,
            ..FleetConfig::default()
        };
        let silent = run_fleet(&config);
        assert!(silent.audit_jsonl().is_empty());
        let audited = run_fleet(&FleetConfig { audit: true, ..config });
        let jsonl = audited.audit_jsonl();
        assert!(!jsonl.is_empty());
        assert!(jsonl.lines().all(|l| l.starts_with("{\"match\":")), "every line tagged");
    }
}
