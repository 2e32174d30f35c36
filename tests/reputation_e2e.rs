//! End-to-end cross-match ban flow: a cheater earns a ban inside one
//! match's reputation system, the match outcome is persisted through
//! the durable store, the "service" restarts (the store recovers from
//! its files), and the next match's lobby refuses the same identity at
//! matchmaking — the paper's punishment loop, closed across process
//! lifetimes.

use watchmen::core::lobby::{key_tag, AdmitError, GameLobby};
use watchmen::core::rating::{CheatRating, Confidence};
use watchmen::core::reputation::ThresholdReputation;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::fleet::{run_fleet_specs, MatchReport, MatchSpec, PoolConfig};
use watchmen::game::PlayerId;
use watchmen::store::{FsDir, MemDir, ReputationStore, StorePolicy};

const SEED: u64 = 2013;
/// Long enough for a speed-hacker to cross the ban warm-up in one match.
const FRAMES: u64 = 120;

fn keys(n: usize) -> Vec<Keypair> {
    (0..n).map(|i| Keypair::generate(SEED ^ i as u64)).collect()
}

fn policy() -> StorePolicy {
    StorePolicy {
        ban_threshold: WatchmenConfig::REPUTATION_THRESHOLD,
        min_reports: WatchmenConfig::REPUTATION_MIN_REPORTS,
    }
}

/// Plays one fleet match on `match_seed` between the identities of
/// [`keys`], seat `i` keyed `SEED ^ i`, with `cheaters` speed-hacking.
/// Asserts that the nodes' verdicts failed exactly the cheaters and that
/// the match lobby banned each of them.
fn play_match(players: usize, cheaters: &[u32], match_seed: u64) -> MatchReport {
    let mut spec = MatchSpec::new(0, players, FRAMES, match_seed);
    spec.key_seeds = (0..players as u64).map(|i| SEED ^ i).collect();
    let spec = cheaters.iter().fold(spec, |spec, &c| spec.with_cheater(c));
    let mut fleet = run_fleet_specs(vec![spec], &PoolConfig { workers: 1, max_local: 1 });
    let report = fleet.reports.pop().expect("the match completed");
    assert_eq!(report.banned, cheaters.len() as u64, "{}", report.summary_line());
    for (seat, &(_, _, failed)) in (0..).zip(&report.outcomes) {
        assert_eq!(failed > 0, cheaters.contains(&seat), "seat {seat}: {:?}", report.outcomes);
    }
    report
}

/// Folds a match's outcomes into the store, as the population soak does.
fn persist(store: &mut ReputationStore, report: &MatchReport) {
    for &(identity, ok, failed) in &report.outcomes {
        store.note_outcome(identity, ok as u32, failed as u32);
    }
}

#[test]
fn ban_earned_in_one_match_blocks_matchmaking_in_the_next() {
    let players = keys(6);
    let cheater = 2;
    let media = MemDir::new();

    // Match 1: nobody is banned yet; the cheater plays and the match's
    // aggregated outcome is persisted at match end.
    let (mut store, _) =
        ReputationStore::open(Box::new(media.clone()), policy()).expect("open fresh store");
    persist(&mut store, &play_match(players.len(), &[cheater as u32], SEED));
    let receipt = store.commit().expect("persist match 1");
    let cheater_identity = players[cheater].public().to_u64();
    assert_eq!(
        receipt.new_bans.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
        vec![cheater_identity],
        "exactly the cheater crosses the durable ban threshold",
    );
    drop(store);

    // Service restart: a brand-new store instance recovers the ban
    // from the surviving files alone.
    let (store, report) =
        ReputationStore::open(Box::new(media.clone()), policy()).expect("recover store");
    assert!(report.wal_records > 0, "recovery replayed the persisted match");
    assert_eq!(store.banned_identities(), vec![cheater_identity]);

    // Match 2: matchmaking consults the recovered ban list. The cheater
    // is refused with a typed error and an audited verdict; everyone
    // else is admitted.
    let mut lobby = GameLobby::new(SEED + 1, WatchmenConfig::default(), 32)
        .with_banned_keys(store.banned_identities());
    let refused = lobby.try_register(players[cheater].public());
    assert_eq!(
        refused,
        Err(AdmitError::Banned { key_tag: key_tag(&players[cheater].public()) }),
        "the banned identity must be refused at registration",
    );
    for (i, key) in players.iter().enumerate() {
        if i != cheater {
            lobby.try_register(key.public()).expect("honest players admitted");
        }
    }
    let audit = lobby.drain_audit();
    assert!(
        audit.iter().any(|r| r.score == 10 && r.subject == key_tag(&players[cheater].public())),
        "the refusal leaves a severe admission verdict in the audit stream",
    );

    // The ban also blocks the mid-game side door.
    let mut lobby = lobby.with_keys(Keypair::generate(SEED ^ 0x10BB));
    lobby.start();
    let midgame = lobby.admit_midgame(players[cheater].public(), 10);
    assert!(
        matches!(midgame, Err(AdmitError::Banned { .. })),
        "the banned identity must be refused mid-game too",
    );
}

#[test]
fn honest_population_never_trips_the_durable_ban() {
    let (mut store, _) =
        ReputationStore::open(Box::new(MemDir::new()), policy()).expect("open fresh store");
    // Three consecutive all-honest matches between the same identities:
    // the nodes fail no interaction, so nobody may ever cross the
    // threshold.
    for round in 0..3 {
        persist(&mut store, &play_match(6, &[], SEED + round));
        let receipt = store.commit().expect("persist match");
        assert!(receipt.new_bans.is_empty(), "an honest match must not produce bans");
    }
    assert!(store.banned_identities().is_empty());
}

#[test]
fn cross_match_ban_survives_restart_on_real_files() {
    let players = keys(4);
    let cheater = 1;
    let dir = std::env::temp_dir().join(format!("watchmen-reputation-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cheater_identity = players[cheater].public().to_u64();
    {
        let fs = FsDir::open(&dir).expect("open store dir");
        let (mut store, _) =
            ReputationStore::open(Box::new(fs), policy()).expect("open store on real files");
        persist(&mut store, &play_match(players.len(), &[cheater as u32], SEED));
        let receipt = store.commit().expect("persist match");
        assert_eq!(receipt.new_bans.len(), 1);
        // Compact so the restart exercises the snapshot path as well.
        store.compact().expect("compact onto real files");
    }

    let fs = FsDir::open(&dir).expect("reopen store dir");
    let (store, report) =
        ReputationStore::open(Box::new(fs), policy()).expect("recover from files");
    assert!(report.snapshot_loaded, "restart recovered through the snapshot");
    assert_eq!(store.banned_identities(), vec![cheater_identity]);

    let mut lobby = GameLobby::new(SEED + 2, WatchmenConfig::default(), 32)
        .with_banned_keys(store.banned_identities());
    assert!(
        matches!(lobby.try_register(players[cheater].public()), Err(AdmitError::Banned { .. })),
        "ban recovered from disk must block matchmaking",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ban rule has two copies: the lobby's `ThresholdReputation`, fed
/// report by report, and the durable store's `StorePolicy::should_ban`,
/// fed the counts. They must agree at every `(ok, failed)` point, under
/// the default calibration and two others.
#[test]
fn lobby_and_store_ban_rules_agree_at_every_count() {
    const MAX: u64 = 120;
    let clean = CheatRating::clean(Confidence::Proxy);
    let failed_rating = CheatRating::new(10, Confidence::Proxy, 0);
    for policy in [
        policy(),
        StorePolicy { ban_threshold: 0.5, min_reports: 1 },
        StorePolicy { ban_threshold: 0.95, min_reports: 100 },
    ] {
        policy.validate();
        // Subject `ok` holds `ok` acceptable reports; every round below
        // adds one failed report to each subject.
        let mut rep =
            ThresholdReputation::new(MAX as usize + 1, policy.ban_threshold, policy.min_reports);
        for ok in 0..=MAX {
            for _ in 0..ok {
                rep.report(PlayerId(ok as u32), &clean);
            }
        }
        for failed in 0..=MAX {
            for ok in 0..=MAX {
                let subject = PlayerId(ok as u32);
                assert_eq!(rep.counts(subject), (ok, failed));
                assert_eq!(
                    rep.is_banned(subject),
                    policy.should_ban(ok, failed),
                    "{policy:?} at ok={ok} failed={failed}"
                );
                rep.report(subject, &failed_rating);
            }
        }
    }
}
