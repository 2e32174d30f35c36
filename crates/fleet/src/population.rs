//! Long-horizon population soak: cross-match bans over thousands of
//! matches.
//!
//! The paper's reputation system only pays off if a ban *persists*: "a
//! centralized game lobby that manages access and logins … can thus ban
//! the players". This module drives that loop at population scale — a
//! pool of identities plays match after match on the work-stealing
//! scheduler, each match's aggregated interaction outcomes feed the
//! durable [`ReputationStore`], and every subsequent match's lobby
//! loads the store's ban list, so a cheater banned in match *k* is
//! refused admission in match *k+1* onward.
//!
//! Matches here are *statistical*: each runs a real [`GameLobby`] (the
//! same registration, admission-refusal and reputation paths production
//! uses) but replaces the full protocol simulation with a seeded
//! detector model — cheaters draw failed interaction tags at the
//! detector's true-positive rate, honest players at its false-positive
//! rate. That keeps a 2 000-match horizon inside a CI budget while
//! exercising every store-facing surface for real.
//!
//! The soak measures the two quantities the store exists for:
//! **time-to-ban** (matches a repeat cheater plays before their ban
//! becomes durable) and the **false-ban rate** (honest identities
//! banned — the SLO is zero).

use std::collections::BTreeMap;
use std::sync::Arc;

use watchmen_core::lobby::{AdmitError, GameLobby};
use watchmen_core::rating::{CheatRating, Confidence};
use watchmen_core::WatchmenConfig;
use watchmen_crypto::rng::Xoshiro256;
use watchmen_crypto::schnorr::Keypair;
use watchmen_game::PlayerId;
use watchmen_store::{Dir, ReputationStore, StorePolicy};
use watchmen_telemetry::spec;

use crate::pool::{default_workers, run_tasks, PoolConfig, Quantum, ShardContext, Task};

/// The time-to-ban budget: a repeat cheater's ban must be durable
/// within this many of its own matches (p99).
pub const TTB_BUDGET_MATCHES: u64 = 20;

/// Shape of one population soak.
#[derive(Debug, Clone, Copy)]
pub struct PopulationConfig {
    /// Base seed; every stream derives from it.
    pub seed: u64,
    /// Population size (distinct identities).
    pub players: usize,
    /// Cheaters in the population, permille.
    pub cheater_permille: u32,
    /// Total matches to run.
    pub matches: u64,
    /// Players admitted per match.
    pub match_size: usize,
    /// Matches dispatched per scheduler round (the store folds between
    /// rounds, so this is also the ban-feedback latency in matches).
    pub round_matches: u64,
    /// Interaction reports each admitted player receives per match.
    pub reports_per_player: u32,
    /// Detector true-positive rate: P(report = failed | cheater),
    /// permille.
    pub cheat_failed_permille: u32,
    /// Detector false-positive rate: P(report = failed | honest),
    /// permille.
    pub honest_failed_permille: u32,
    /// Worker threads.
    pub workers: usize,
    /// Per-worker in-flight cap.
    pub max_local: usize,
    /// WAL size that triggers snapshot compaction between rounds.
    pub compact_wal_bytes: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            seed: 2013,
            players: 256,
            // ~10% of the population are repeat cheaters.
            cheater_permille: 100,
            matches: 2_000,
            match_size: 8,
            round_matches: 64,
            // 10 reports/match at a 30-report ban warm-up: a cheater
            // needs ≥3 matches before the policy can trip — time-to-ban
            // is a real distribution, not a constant 1.
            reports_per_player: 10,
            // 30% failed tags for cheaters (70% acceptable, under the
            // 85% threshold), 2% for honest (98% acceptable, safely
            // above it).
            cheat_failed_permille: 300,
            honest_failed_permille: 20,
            workers: default_workers(),
            max_local: 8,
            compact_wal_bytes: 64 * 1024,
        }
    }
}

impl PopulationConfig {
    /// Reads `WATCHMEN_POPULATION` — a bare switch (`1`, `on`,
    /// `defaults`) for the default soak, or a comma-separated spec (see
    /// [`PopulationConfig::from_spec`]). Returns `None` when unset or
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set but does not parse — a misspelled
    /// gate should fail loudly, not silently soak the wrong population.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        spec::from_env_or_default("WATCHMEN_POPULATION", Self::from_spec)
    }

    /// Parses a comma-separated spec over the defaults:
    /// `matches=2000,players=256,cheaters=100,seed=7,workers=4`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown entry.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut config = PopulationConfig::default();
        for pair in spec::pairs(spec) {
            let (key, value) = pair?;
            match key {
                "seed" => config.seed = spec::num(key, value)?,
                "players" => config.players = spec::num(key, value)?,
                "cheaters" => config.cheater_permille = spec::num(key, value)?,
                "matches" => config.matches = spec::num(key, value)?,
                "match_size" => config.match_size = spec::num(key, value)?,
                "round_matches" => config.round_matches = spec::num(key, value)?,
                "reports" => config.reports_per_player = spec::num(key, value)?,
                "cheat_failed" => config.cheat_failed_permille = spec::num(key, value)?,
                "honest_failed" => config.honest_failed_permille = spec::num(key, value)?,
                "workers" => config.workers = spec::num(key, value)?,
                "max_local" => config.max_local = spec::num(key, value)?,
                "compact_bytes" => config.compact_wal_bytes = spec::num(key, value)?,
                other => return Err(format!("unknown population knob {other:?}")),
            }
        }
        if config.players < config.match_size || config.match_size < 2 {
            return Err("need players ≥ match_size ≥ 2".into());
        }
        if config.matches == 0 || config.round_matches == 0 {
            return Err("matches and round_matches must be ≥ 1".into());
        }
        if config.reports_per_player == 0 {
            return Err("reports must be ≥ 1".into());
        }
        if config.cheater_permille > 1000
            || config.cheat_failed_permille > 1000
            || config.honest_failed_permille > 1000
        {
            return Err("permille knobs must be ≤ 1000".into());
        }
        if config.workers == 0 || config.max_local == 0 {
            return Err("workers and max_local must be ≥ 1".into());
        }
        Ok(config)
    }
}

/// One candidate offered to a match's lobby.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Population index (ground truth lives at this index).
    index: usize,
    /// The identity's keypair seed (keys are re-derived in the task; a
    /// `Keypair` is cheaper to re-generate than to send).
    key_seed: u64,
    /// Ground truth: does this identity cheat?
    cheater: bool,
}

/// What one statistical match produced.
#[derive(Debug, Clone)]
struct MatchOutput {
    /// Aggregated `(population index, ok, failed)` per admitted player.
    outcomes: Vec<(usize, u32, u32)>,
    /// Candidates refused for carrying a durable ban.
    refused_banned: u64,
    /// Whether the match aborted for lack of two admissible players.
    aborted: bool,
}

/// One statistical match scheduled on the pool: real lobby, modeled
/// detector.
struct MatchTask {
    seed: u64,
    config: PopulationConfig,
    candidates: Vec<Candidate>,
    banned: Arc<Vec<u64>>,
}

impl Task for MatchTask {
    type Output = MatchOutput;

    fn run_quantum(&mut self, cx: &ShardContext) -> Quantum<MatchOutput> {
        cx.registry.describe("fleet_population_matches_total", "population matches on this shard");
        cx.registry.counter("fleet_population_matches_total").inc();
        let output = run_match(self.seed, &self.config, &self.candidates, &self.banned);
        Quantum::Complete { ticks: u64::from(self.config.reports_per_player), output }
    }
}

/// Runs one match: admit candidates through the real lobby (banned
/// identities bounce off [`AdmitError::Banned`]), then draw each
/// admitted player's interaction tags from the detector model.
fn run_match(
    seed: u64,
    config: &PopulationConfig,
    candidates: &[Candidate],
    banned: &[u64],
) -> MatchOutput {
    let mut lobby = GameLobby::new(seed, WatchmenConfig::default(), 60)
        .with_banned_keys(banned.iter().copied());
    let mut admitted: Vec<Candidate> = Vec::with_capacity(config.match_size);
    let mut refused_banned = 0u64;
    for candidate in candidates {
        if admitted.len() == config.match_size {
            break;
        }
        match lobby.try_register(Keypair::generate(candidate.key_seed).public()) {
            Ok(_) => admitted.push(*candidate),
            Err(AdmitError::Banned { .. }) => refused_banned += 1,
            Err(other) => unreachable!("pre-start registration cannot {other}"),
        }
    }
    if admitted.len() < 2 {
        return MatchOutput { outcomes: Vec::new(), refused_banned, aborted: true };
    }
    lobby.start();

    let mut rng = Xoshiro256::seed_from(seed, 0xF0F0);
    for (i, candidate) in admitted.iter().enumerate() {
        let failed_permille = if candidate.cheater {
            config.cheat_failed_permille
        } else {
            config.honest_failed_permille
        };
        for _ in 0..config.reports_per_player {
            let failed = rng.next_range(1000) < u64::from(failed_permille);
            let rating = if failed {
                CheatRating::new(10, Confidence::Proxy, 0)
            } else {
                CheatRating::clean(Confidence::Proxy)
            };
            let reporter = PlayerId(((i + 1) % admitted.len()) as u32);
            lobby.report(reporter, PlayerId(i as u32), &rating);
        }
    }

    let outcomes = lobby
        .match_outcomes()
        .into_iter()
        .zip(&admitted)
        .map(|((_identity, ok, failed), candidate)| (candidate.index, ok as u32, failed as u32))
        .collect();
    MatchOutput { outcomes, refused_banned, aborted: false }
}

/// What a population soak produced.
#[derive(Debug, Clone)]
pub struct PopulationResult {
    /// Matches that ran (admitted ≥ 2 players).
    pub matches_run: u64,
    /// Matches aborted for lack of admissible players.
    pub matches_aborted: u64,
    /// Scheduler rounds (store fold points).
    pub rounds: u64,
    /// Population size.
    pub players: usize,
    /// Ground-truth cheaters in the population.
    pub cheaters: usize,
    /// Cheaters whose ban became durable.
    pub cheaters_banned: usize,
    /// Honest identities banned — the false-ban count (SLO: zero).
    pub false_bans: usize,
    /// Matches each banned cheater played before the ban landed,
    /// ascending.
    pub matches_to_ban: Vec<u64>,
    /// Admission attempts refused for a durable ban — the cross-match
    /// blocking actually firing.
    pub refused_admissions: u64,
    /// Store commits (one per round with records).
    pub store_commits: u64,
    /// Store snapshot compactions.
    pub store_compactions: u64,
    /// Mean wall-clock time of one compaction, milliseconds (0 with no
    /// compactions).
    pub store_compaction_ms_mean: f64,
    /// Final store WAL size, bytes.
    pub store_wal_bytes: u64,
}

impl PopulationResult {
    /// Time-to-ban percentile over banned cheaters, in matches played.
    #[must_use]
    pub fn ttb_percentile(&self, p: f64) -> Option<u64> {
        if self.matches_to_ban.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * (self.matches_to_ban.len() - 1) as f64).round() as usize;
        Some(self.matches_to_ban[rank.min(self.matches_to_ban.len() - 1)])
    }

    /// False bans per honest identity.
    #[must_use]
    pub fn false_ban_rate(&self) -> f64 {
        let honest = self.players - self.cheaters;
        if honest == 0 {
            0.0
        } else {
            self.false_bans as f64 / honest as f64
        }
    }

    /// The soak's SLO: every repeat cheater durably banned within
    /// [`TTB_BUDGET_MATCHES`] (p99), zero false bans, and the ban
    /// actually blocked later matchmaking.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.cheaters_banned == self.cheaters
            && self.false_bans == 0
            && (self.cheaters == 0 || self.refused_admissions > 0)
            && self.ttb_percentile(99.0).is_none_or(|p99| p99 <= TTB_BUDGET_MATCHES)
    }

    /// The one-line summary.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let (p50, p99) = (
            self.ttb_percentile(50.0).map_or_else(|| "none".into(), |v: u64| v.to_string()),
            self.ttb_percentile(99.0).map_or_else(|| "none".into(), |v: u64| v.to_string()),
        );
        format!(
            "population summary: matches={} players={} cheaters={} banned={} false_bans={} \
             ttb_p50={p50} ttb_p99={p99} refused={} commits={} compactions={} ok={}",
            self.matches_run,
            self.players,
            self.cheaters,
            self.cheaters_banned,
            self.false_bans,
            self.refused_admissions,
            self.store_commits,
            self.store_compactions,
            self.ok(),
        )
    }
}

/// Runs the population soak against `dir` (the store's storage — a
/// fresh directory per soak).
///
/// # Panics
///
/// Panics on an invalid config, on store I/O errors (the soak owns its
/// directory; an error there is a harness bug), and on a scheduler
/// panic leaking out of a match task.
#[must_use]
pub fn run_population(config: &PopulationConfig, dir: Box<dyn Dir>) -> PopulationResult {
    let watchmen = WatchmenConfig::default();
    let policy = StorePolicy {
        ban_threshold: watchmen.reputation_threshold,
        min_reports: watchmen.reputation_min_reports,
    };
    let (mut store, _recovery) = ReputationStore::open(dir, policy).expect("open store");

    // The population: identity i has key seed base+i; ground truth picks
    // cheaters by shuffle so they are spread over the index space.
    let key_base = config.seed.wrapping_mul(1_000_003);
    let cheater_count = config.players * config.cheater_permille as usize / 1000;
    let mut indices: Vec<usize> = (0..config.players).collect();
    let mut rng = Xoshiro256::seed_from(config.seed, 0xCAFE);
    rng.shuffle(&mut indices);
    let cheater_flags: Vec<bool> = {
        let mut flags = vec![false; config.players];
        for &i in indices.iter().take(cheater_count) {
            flags[i] = true;
        }
        flags
    };
    let identity_of: Vec<u64> = (0..config.players)
        .map(|i| Keypair::generate(key_base + i as u64).public().to_u64())
        .collect();
    let index_of: BTreeMap<u64, usize> =
        identity_of.iter().enumerate().map(|(i, &id)| (id, i)).collect();

    let mut matches_played = vec![0u64; config.players];
    let mut matches_to_ban = Vec::new();
    let mut false_bans = 0usize;
    let mut cheaters_banned = 0usize;
    let mut refused_admissions = 0u64;
    let mut matches_run = 0u64;
    let mut matches_aborted = 0u64;
    let mut rounds = 0u64;

    let mut remaining = config.matches;
    let mut match_seq = 0u64;
    while remaining > 0 {
        rounds += 1;
        let in_round = remaining.min(config.round_matches);
        remaining -= in_round;

        // Matchmaking: sample twice the roster from the whole population
        // (banned identities included — the lobby must refuse them) and
        // let each match's lobby admit the first match_size admissible.
        let banned = Arc::new(store.banned_identities());
        let tasks: Vec<MatchTask> = (0..in_round)
            .map(|_| {
                match_seq += 1;
                let mut pool: Vec<usize> = (0..config.players).collect();
                rng.shuffle(&mut pool);
                let candidates = pool
                    .into_iter()
                    .take(config.match_size * 2)
                    .map(|index| Candidate {
                        index,
                        key_seed: key_base + index as u64,
                        cheater: cheater_flags[index],
                    })
                    .collect();
                MatchTask {
                    seed: config.seed ^ match_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    config: *config,
                    candidates,
                    banned: Arc::clone(&banned),
                }
            })
            .collect();

        let run =
            run_tasks(&PoolConfig { workers: config.workers, max_local: config.max_local }, tasks);
        for outcome in run.outcomes {
            let output = match outcome {
                crate::pool::TaskOutcome::Completed(o) => o,
                crate::pool::TaskOutcome::Panicked(msg) => panic!("match task panicked: {msg}"),
            };
            refused_admissions += output.refused_banned;
            if output.aborted {
                matches_aborted += 1;
                continue;
            }
            matches_run += 1;
            for (index, ok, failed) in output.outcomes {
                matches_played[index] += 1;
                store.note_outcome(identity_of[index], ok, failed);
            }
        }

        // Fold the round into the durable store; the receipt's new bans
        // are exactly the decisions that became durable this round.
        let receipt = store.commit_and_maybe_compact(config.compact_wal_bytes).expect("commit");
        for (identity, _permille) in receipt.new_bans {
            let index = index_of[&identity];
            if cheater_flags[index] {
                cheaters_banned += 1;
                matches_to_ban.push(matches_played[index]);
            } else {
                false_bans += 1;
            }
        }
    }

    matches_to_ban.sort_unstable();
    let (stats, timings) = (store.stats(), store.timings());
    PopulationResult {
        matches_run,
        matches_aborted,
        rounds,
        players: config.players,
        cheaters: cheater_count,
        cheaters_banned,
        false_bans,
        matches_to_ban,
        refused_admissions,
        store_commits: stats.commits,
        store_compactions: stats.compactions,
        store_compaction_ms_mean: timings.compaction_total.as_secs_f64() * 1e3
            / stats.compactions.max(1) as f64,
        store_wal_bytes: store.wal_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_store::MemDir;

    fn small() -> PopulationConfig {
        PopulationConfig {
            seed: 7,
            players: 32,
            cheater_permille: 125, // 4 cheaters
            matches: 200,
            match_size: 6,
            round_matches: 25,
            workers: 2,
            max_local: 4,
            ..PopulationConfig::default()
        }
    }

    #[test]
    fn soak_bans_every_cheater_and_no_honest_player() {
        let result = run_population(&small(), Box::new(MemDir::new()));
        assert_eq!(result.cheaters, 4);
        assert_eq!(result.cheaters_banned, 4, "{}", result.summary_line());
        assert_eq!(result.false_bans, 0, "{}", result.summary_line());
        assert!(result.refused_admissions > 0, "bans never blocked matchmaking");
        assert!(result.ok(), "{}", result.summary_line());
        assert!(result.ttb_percentile(50.0).expect("bans exist") >= 3, "warm-up needs ≥3 matches");
        assert_eq!(result.matches_run + result.matches_aborted, 200);
        assert!(result.store_commits > 0);
    }

    #[test]
    fn soak_is_deterministic_across_worker_counts() {
        let one =
            run_population(&PopulationConfig { workers: 1, ..small() }, Box::new(MemDir::new()));
        let four =
            run_population(&PopulationConfig { workers: 4, ..small() }, Box::new(MemDir::new()));
        assert_eq!(one.summary_line(), four.summary_line());
        assert_eq!(one.matches_to_ban, four.matches_to_ban);
    }

    #[test]
    fn bans_persist_across_soak_restarts() {
        // Run half the matches, reopen the same media, run the rest: the
        // second soak inherits the first's bans (refusals from round 1).
        let dir = MemDir::new();
        let half = PopulationConfig { matches: 100, ..small() };
        let first = run_population(&half, Box::new(dir.clone()));
        let second = run_population(&half, Box::new(dir.clone()));
        assert!(first.cheaters_banned > 0, "{}", first.summary_line());
        // Identities banned in soak one are refused from soak two's very
        // first round.
        assert!(second.refused_admissions > 0, "{}", second.summary_line());
        assert_eq!(second.false_bans, 0);
    }

    #[test]
    fn spec_parsing_overrides_defaults_and_rejects_junk() {
        let c = PopulationConfig::from_spec("matches=500,players=64,cheaters=200,seed=9,workers=2")
            .expect("valid spec");
        assert_eq!(c.matches, 500);
        assert_eq!(c.players, 64);
        assert_eq!(c.cheater_permille, 200);
        assert_eq!(c.seed, 9);
        assert_eq!(c.workers, 2);
        assert_eq!(c.match_size, PopulationConfig::default().match_size);
        assert!(PopulationConfig::from_spec("bogus=1").is_err());
        assert!(PopulationConfig::from_spec("matches=0").is_err());
        assert!(PopulationConfig::from_spec("players=4,match_size=8").is_err());
        assert!(PopulationConfig::from_spec("cheaters=2000").is_err());
        // 2^32 + 100: a u64 parse cast to u32 wrapped this to a valid 100‰.
        assert!(PopulationConfig::from_spec("cheaters=4294967396").is_err());
    }
}
