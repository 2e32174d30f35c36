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
use watchmen::game::PlayerId;
use watchmen::store::{FsDir, MemDir, ReputationStore, StorePolicy};

const SEED: u64 = 2013;

fn keys(n: usize) -> Vec<Keypair> {
    (0..n).map(|i| Keypair::generate(SEED ^ i as u64)).collect()
}

fn policy_from(config: &WatchmenConfig) -> StorePolicy {
    StorePolicy {
        ban_threshold: config.reputation_threshold,
        min_reports: config.reputation_min_reports,
    }
}

/// Plays one match: everyone earns `reports` verification reports, and
/// players listed in `cheaters` get suspicious ratings on most of them.
/// Returns the `(identity, acceptable, failed)` outcomes to persist.
fn play_match(
    banned: &[u64],
    players: &[Keypair],
    cheaters: &[usize],
    reports: u64,
) -> Vec<(u64, u64, u64)> {
    let mut lobby = GameLobby::new(SEED, WatchmenConfig::default(), 32)
        .with_banned_keys(banned.iter().copied());
    for key in players {
        lobby.try_register(key.public()).expect("honest roster admissible");
    }
    lobby.start();
    let clean = CheatRating::new(1, Confidence::Proxy, 0);
    let severe = CheatRating::new(9, Confidence::Proxy, 0);
    for (i, _) in players.iter().enumerate() {
        let subject = PlayerId(i as u32);
        let reporter = PlayerId(((i + 1) % players.len()) as u32);
        for r in 0..reports {
            // Cheaters fail 9 of 10 interactions; honest players none.
            let rating = if cheaters.contains(&i) && r % 10 != 0 { &severe } else { &clean };
            lobby.report(reporter, subject, rating);
        }
    }
    lobby.match_outcomes()
}

#[test]
fn ban_earned_in_one_match_blocks_matchmaking_in_the_next() {
    let players = keys(6);
    let cheater = 2;
    let config = WatchmenConfig::default();
    let media = MemDir::new();

    // Match 1: nobody is banned yet; the cheater plays and the match's
    // aggregated outcome is persisted at match end.
    let (mut store, _) = ReputationStore::open(Box::new(media.clone()), policy_from(&config))
        .expect("open fresh store");
    let outcomes = play_match(&store.banned_identities(), &players, &[cheater], 40);
    for (identity, ok, failed) in outcomes {
        store.note_outcome(identity, ok as u32, failed as u32);
    }
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
    let (store, report) = ReputationStore::open(Box::new(media.clone()), policy_from(&config))
        .expect("recover store");
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
    let players = keys(6);
    let config = WatchmenConfig::default();
    let (mut store, _) = ReputationStore::open(Box::new(MemDir::new()), policy_from(&config))
        .expect("open fresh store");
    // Three consecutive all-honest matches: plenty of reports, zero
    // suspicious ones — nobody may ever cross the threshold.
    for _ in 0..3 {
        let outcomes = play_match(&store.banned_identities(), &players, &[], 40);
        for (identity, ok, failed) in outcomes {
            store.note_outcome(identity, ok as u32, failed as u32);
        }
        let receipt = store.commit().expect("persist match");
        assert!(receipt.new_bans.is_empty(), "an honest match must not produce bans");
    }
    assert!(store.banned_identities().is_empty());
}

#[test]
fn cross_match_ban_survives_restart_on_real_files() {
    let players = keys(4);
    let cheater = 1;
    let config = WatchmenConfig::default();
    let dir = std::env::temp_dir().join(format!("watchmen-reputation-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cheater_identity = players[cheater].public().to_u64();
    {
        let fs = FsDir::open(&dir).expect("open store dir");
        let (mut store, _) = ReputationStore::open(Box::new(fs), policy_from(&config))
            .expect("open store on real files");
        let outcomes = play_match(&[], &players, &[cheater], 40);
        for (identity, ok, failed) in outcomes {
            store.note_outcome(identity, ok as u32, failed as u32);
        }
        let receipt = store.commit().expect("persist match");
        assert_eq!(receipt.new_bans.len(), 1);
        // Compact so the restart exercises the snapshot path as well.
        store.compact().expect("compact onto real files");
    }

    let fs = FsDir::open(&dir).expect("reopen store dir");
    let (store, report) =
        ReputationStore::open(Box::new(fs), policy_from(&config)).expect("recover from files");
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
    let default = WatchmenConfig::default();
    let clean = CheatRating::clean(Confidence::Proxy);
    let failed_rating = CheatRating::new(10, Confidence::Proxy, 0);
    for policy in [
        policy_from(&default),
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
