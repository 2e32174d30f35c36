//! Randomized property tests at the integration level: invariants that
//! must hold across the whole stack for arbitrary small games, driven by
//! the workspace's deterministic [`Xoshiro256`] generator.

use watchmen::core::proxy::ProxySchedule;
use watchmen::core::subscription::{compute_sets, NoRecency, SetKind};
use watchmen::core::WatchmenConfig;
use watchmen::game::trace::GameTrace;
use watchmen::game::{GameConfig, PlayerId};
use watchmen::net::latency;
use watchmen::sim::overlay::run_watchmen;
use watchmen::world::maps;
use watchmen_crypto::rng::Xoshiro256;

const CASES: usize = 12;

fn small_trace(players: usize, seed: u64, frames: u64) -> GameTrace {
    let config = GameConfig { map: maps::q3dm17_like(), ..GameConfig::default() };
    GameTrace::record(config, players, seed, frames)
}

#[test]
fn subscription_partition_is_total_and_disjoint() {
    let mut rng = Xoshiro256::new(51);
    for _ in 0..CASES {
        let players = 2 + rng.next_range(10) as usize;
        let seed = rng.next_range(1000);
        let trace = small_trace(players, seed, 30);
        let map = maps::q3dm17_like();
        let config = WatchmenConfig::default();
        let states = &trace.frames[29].states;
        for p in 0..players {
            let sets = compute_sets(PlayerId(p as u32), states, &map, &config, &NoRecency);
            assert_eq!(sets.len(), players - 1);
            assert!(sets.interest.len() <= config.interest_size);
            let mut all: Vec<PlayerId> =
                sets.interest.iter().chain(&sets.vision).chain(&sets.others).copied().collect();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), players - 1, "sets overlap");
            assert!(!all.contains(&PlayerId(p as u32)));
        }
    }
}

#[test]
fn proxy_schedule_total_never_self() {
    let mut rng = Xoshiro256::new(52);
    for _ in 0..CASES {
        let players = 2 + rng.next_range(30) as usize;
        let seed = rng.next_u64();
        let frame = rng.next_range(100_000);
        let schedule = ProxySchedule::new(seed, players, 40);
        for p in 0..players {
            let pid = PlayerId(p as u32);
            let proxy = schedule.proxy_of(pid, frame);
            assert_ne!(proxy, pid);
            assert!(proxy.index() < players);
            // Inverse consistency.
            assert!(schedule.clients_of(proxy, frame).contains(&pid));
        }
    }
}

#[test]
fn trace_codec_roundtrips_any_game() {
    let mut rng = Xoshiro256::new(53);
    for _ in 0..CASES {
        let players = 2 + rng.next_range(6) as usize;
        let seed = rng.next_range(500);
        let frames = 1 + rng.next_range(59);
        let trace = small_trace(players, seed, frames);
        let restored = GameTrace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(trace, restored);
    }
}

#[test]
fn overlay_conserves_messages() {
    let mut rng = Xoshiro256::new(54);
    for _ in 0..CASES {
        let players = 3 + rng.next_range(5) as usize;
        let seed = rng.next_range(200);
        let trace = small_trace(players, seed, 60);
        let map = maps::q3dm17_like();
        let config = WatchmenConfig::default();
        let report = run_watchmen(&trace, &map, &config, latency::constant(15.0), 0.0, seed);
        // With zero loss, nothing is dropped, and the update count is
        // bounded by what publishers could have generated.
        assert_eq!(report.network_dropped, 0);
        let max_updates = 60 * players as u64 * (1 + players as u64) * 3; // coarse upper bound
        assert!(report.updates_delivered <= max_updates);
    }
}

#[test]
fn kind_of_is_consistent_with_partition() {
    let mut rng = Xoshiro256::new(55);
    for _ in 0..CASES {
        let players = 2 + rng.next_range(8) as usize;
        let seed = rng.next_range(300);
        let trace = small_trace(players, seed, 20);
        let map = maps::q3dm17_like();
        let config = WatchmenConfig::default();
        let states = &trace.frames[19].states;
        let sets = compute_sets(PlayerId(0), states, &map, &config, &NoRecency);
        for t in &sets.interest {
            assert_eq!(sets.kind_of(*t), SetKind::Interest);
        }
        for t in &sets.vision {
            assert_eq!(sets.kind_of(*t), SetKind::Vision);
        }
        for t in &sets.others {
            assert_eq!(sets.kind_of(*t), SetKind::Others);
        }
    }
}
