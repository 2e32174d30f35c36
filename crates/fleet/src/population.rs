//! Long-horizon population soak: cross-match bans over thousands of
//! matches.
//!
//! The paper's reputation system only pays off if a ban *persists*: "a
//! centralized game lobby that manages access and logins … can thus ban
//! the players". This module drives that loop at population scale — a
//! pool of identities plays match after match, each match's interaction
//! outcomes feed the durable [`ReputationStore`], and every later match's
//! matchmaking loads the store's ban list, so a cheater banned in match
//! *k* is refused admission in match *k+1* onward.
//!
//! Every match is real. Matchmaking admits candidates through a
//! [`GameLobby`] loaded with the store's bans; the admitted identities
//! then play a fleet [`MatchCell`](crate::cell::MatchCell) — secured
//! nodes on a simnet, each admitted cheater running the fleet's scripted
//! speed-hack — whose lobby turns the nodes' own verdicts into the
//! per-identity outcomes the store folds in. A round of matches is one
//! [`run_fleet_specs`] batch on the work-stealing pool.
//!
//! The soak measures the two quantities the store exists for:
//! **time-to-ban** (matches a repeat cheater plays before their ban
//! becomes durable) and the **false-ban rate** (honest identities
//! banned — the SLO is zero).

use std::collections::BTreeMap;

use watchmen_core::lobby::{AdmitError, GameLobby};
use watchmen_core::WatchmenConfig;
use watchmen_crypto::rng::Xoshiro256;
use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_sim::quality::percentile;
use watchmen_store::{Dir, ReputationStore, StorePolicy, StoreTimings};
use watchmen_telemetry::report::Report;

use crate::cell::MatchSpec;
use crate::fleet::run_fleet_specs;
use crate::pool::{default_workers, PoolConfig};

/// The time-to-ban budget: a repeat cheater's ban must be durable
/// within this many of its own matches (p99).
pub const TTB_BUDGET_MATCHES: u64 = 20;

/// The fewest admitted players a match starts with: proxies supervise
/// third parties, the fleet's own floor.
const MIN_MATCH_PLAYERS: usize = 3;

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
    /// Playable frames per match: how much evidence one match yields.
    pub match_frames: u64,
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
            // The fleet's match length.
            match_frames: 160,
            workers: default_workers(),
            max_local: 8,
            compact_wal_bytes: 64 * 1024,
        }
    }
}

/// Matchmaking for one match: offers `candidates` (population indices,
/// banned identities included) to a lobby loaded with the durable ban
/// list and seats the first `match_size` it admits. Returns the seated
/// indices and the count refused with [`AdmitError::Banned`].
fn matchmake(
    seed: u64,
    match_size: usize,
    candidates: &[usize],
    keys: &[PublicKey],
    banned: &[u64],
) -> (Vec<usize>, u64) {
    let mut lobby =
        GameLobby::new(seed, WatchmenConfig::default(), 1).with_banned_keys(banned.iter().copied());
    let mut seated = Vec::with_capacity(match_size);
    let mut refused = 0;
    for &index in candidates {
        if seated.len() == match_size {
            break;
        }
        match lobby.try_register(keys[index]) {
            Ok(_) => seated.push(index),
            Err(AdmitError::Banned { .. }) => refused += 1,
            Err(other) => unreachable!("pre-start registration cannot {other}"),
        }
    }
    (seated, refused)
}

/// What a population soak produced.
#[derive(Debug, Clone)]
pub struct PopulationResult {
    /// Matches that ran (admitted ≥ 3 players).
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
    /// Wall-clock time the store spent in fsync and compacting — prose
    /// for the reader, never a report figure.
    pub store_timings: StoreTimings,
    /// Final store WAL size, bytes.
    pub store_wal_bytes: u64,
}

impl PopulationResult {
    /// Time-to-ban percentile over banned cheaters, in matches played
    /// (nearest-rank, like every other SLO percentile).
    #[must_use]
    pub fn ttb_percentile(&self, p: f64) -> Option<u64> {
        (!self.matches_to_ban.is_empty()).then(|| percentile(&self.matches_to_ban, p))
    }

    /// The `population summary:` report. Its gate: every repeat cheater
    /// durably banned within [`TTB_BUDGET_MATCHES`] (p99), zero false
    /// bans, the bans actually refused later matchmaking, and the store
    /// both committed and compacted.
    #[must_use]
    pub fn report(&self) -> Report {
        let p99 = self.ttb_percentile(99.0);
        Report::new("population summary")
            .figure("matches", self.matches_run, true)
            .figure("players", self.players, true)
            .figure("cheaters", self.cheaters, true)
            .figure("banned", self.cheaters_banned, self.cheaters_banned == self.cheaters)
            .figure("false_bans", self.false_bans, self.false_bans == 0)
            .figure("ttb_p50", self.ttb_percentile(50.0), true)
            .figure("ttb_p90", self.ttb_percentile(90.0), true)
            .figure("ttb_p99", p99, p99.is_none_or(|p| p <= TTB_BUDGET_MATCHES))
            .figure(
                "refused",
                self.refused_admissions,
                self.cheaters == 0 || self.refused_admissions > 0,
            )
            .figure("commits", self.store_commits, self.store_commits > 0)
            .figure("compactions", self.store_compactions, self.store_compactions > 0)
    }
}

/// Runs the population soak against `dir` (the store's storage — a
/// fresh directory per soak).
///
/// # Panics
///
/// Panics on an invalid config, on store I/O errors (the soak owns its
/// directory; an error there is a harness bug), and on a match that
/// panics.
#[must_use]
pub fn run_population(config: &PopulationConfig, dir: Box<dyn Dir>) -> PopulationResult {
    assert!(
        config.players >= config.match_size && config.match_size >= MIN_MATCH_PLAYERS,
        "need players ≥ match_size ≥ {MIN_MATCH_PLAYERS}"
    );
    assert!(config.cheater_permille <= 1000, "cheater_permille is at most 1000");
    assert!(config.round_matches > 0 && config.match_frames > 0);
    let policy = StorePolicy {
        ban_threshold: WatchmenConfig::REPUTATION_THRESHOLD,
        min_reports: WatchmenConfig::REPUTATION_MIN_REPORTS,
    };
    let (mut store, _recovery) = ReputationStore::open(dir, policy).expect("open store");
    let pool = PoolConfig { workers: config.workers, max_local: config.max_local };

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
    let keys: Vec<PublicKey> =
        (0..config.players).map(|i| Keypair::generate(key_base + i as u64).public()).collect();
    let index_of: BTreeMap<u64, usize> =
        keys.iter().enumerate().map(|(i, key)| (key.to_u64(), i)).collect();

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

        // Matchmaking: offer each match twice its roster, sampled from
        // the whole population (banned identities included — the lobby
        // must refuse them), and seat the admitted as a fleet match with
        // every seated cheater scripted.
        let banned = store.banned_identities();
        let mut specs = Vec::with_capacity(in_round as usize);
        for _ in 0..in_round {
            match_seq += 1;
            let seed = config.seed ^ match_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut candidates: Vec<usize> = (0..config.players).collect();
            rng.shuffle(&mut candidates);
            candidates.truncate(config.match_size * 2);
            let (seated, refused) = matchmake(seed, config.match_size, &candidates, &keys, &banned);
            refused_admissions += refused;
            if seated.len() < MIN_MATCH_PLAYERS {
                matches_aborted += 1;
                continue;
            }
            let mut spec = MatchSpec::new(match_seq, seated.len(), config.match_frames, seed);
            spec.key_seeds = seated.iter().map(|&i| key_base + i as u64).collect();
            for (seat, &index) in seated.iter().enumerate() {
                if cheater_flags[index] {
                    spec = spec.with_cheater(seat as u32);
                }
            }
            specs.push(spec);
        }

        let fleet = run_fleet_specs(specs, &pool);
        if let Some((id, msg)) = fleet.panics.first() {
            panic!("population match {id} panicked: {msg}");
        }
        for report in fleet.reports {
            matches_run += 1;
            for (identity, ok, failed) in report.outcomes {
                matches_played[index_of[&identity]] += 1;
                store.note_outcome(identity, ok as u32, failed as u32);
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
    let stats = store.stats();
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
        store_timings: store.timings(),
        store_wal_bytes: store.wal_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_store::MemDir;

    /// Short real matches, so the unit tests stay quick in debug builds.
    fn small() -> PopulationConfig {
        PopulationConfig {
            seed: 7,
            players: 16,
            cheater_permille: 125, // 2 cheaters
            matches: 16,
            match_size: 4,
            round_matches: 4,
            match_frames: 64,
            workers: 2,
            max_local: 4,
            // Small enough that the soak's gate sees the store compact.
            compact_wal_bytes: 512,
        }
    }

    #[test]
    fn soak_bans_every_cheater_and_no_honest_player() {
        let result = run_population(&small(), Box::new(MemDir::new()));
        assert_eq!(result.cheaters, 2);
        assert_eq!(result.cheaters_banned, 2, "{}", result.report());
        assert_eq!(result.false_bans, 0, "{}", result.report());
        assert!(result.refused_admissions > 0, "bans never blocked matchmaking");
        assert_eq!(result.report().check(), Ok(()));
        let framed = PopulationResult { false_bans: 1, ..result.clone() };
        assert_eq!(framed.report().failing(), Some("false_bans"));
        let slow =
            PopulationResult { matches_to_ban: vec![TTB_BUDGET_MATCHES + 1], ..result.clone() };
        assert_eq!(slow.report().failing(), Some("ttb_p99"));
        assert_eq!(result.matches_run + result.matches_aborted, 16);
        assert!(result.store_commits > 0);
    }

    /// The nodes' own verdicts over real matches: with nobody cheating,
    /// every identity's outcomes stay clean and nobody is banned.
    #[test]
    fn honest_population_bans_nobody() {
        let result = run_population(
            &PopulationConfig { cheater_permille: 0, ..small() },
            Box::new(MemDir::new()),
        );
        assert_eq!(result.cheaters, 0);
        assert_eq!(result.matches_run, 16, "{}", result.report());
        assert_eq!(result.false_bans, 0, "{}", result.report());
        assert_eq!(result.refused_admissions, 0);
        assert_eq!(result.report().check(), Ok(()));
    }

    #[test]
    fn soak_is_deterministic_across_worker_counts() {
        let one =
            run_population(&PopulationConfig { workers: 1, ..small() }, Box::new(MemDir::new()));
        let four =
            run_population(&PopulationConfig { workers: 4, ..small() }, Box::new(MemDir::new()));
        assert_eq!(one.report(), four.report());
        assert_eq!(one.matches_to_ban, four.matches_to_ban);
    }

    #[test]
    fn bans_persist_across_soak_restarts() {
        // Run half the matches, reopen the same media, run the rest: the
        // second soak inherits the first's bans (refusals from round 1).
        let dir = MemDir::new();
        let half = PopulationConfig { matches: 8, ..small() };
        let first = run_population(&half, Box::new(dir.clone()));
        let second = run_population(&half, Box::new(dir.clone()));
        assert!(first.cheaters_banned > 0, "{}", first.report());
        // Identities banned in soak one are refused from soak two's very
        // first round.
        assert!(second.refused_admissions > 0, "{}", second.report());
        assert_eq!(second.false_bans, 0);
    }

    /// One percentile rule: nearest-rank, as `sim::quality` computes
    /// every other SLO percentile. The old `round(p·(n−1))` index read 3.
    #[test]
    fn ttb_percentile_is_nearest_rank() {
        let result =
            run_population(&PopulationConfig { matches: 0, ..small() }, Box::new(MemDir::new()));
        let result = PopulationResult { matches_to_ban: vec![1, 2, 3, 4], ..result };
        assert_eq!(result.ttb_percentile(50.0), Some(2));
        assert_eq!(result.ttb_percentile(99.0), Some(4));
        assert_eq!(
            PopulationResult { matches_to_ban: Vec::new(), ..result }.ttb_percentile(50.0),
            None
        );
    }
}
