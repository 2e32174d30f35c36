//! End-to-end fleet orchestration properties.
//!
//! The headline guarantee: a fleet's per-match output is a pure function
//! of its seed — scheduling (worker count, steal order, interleaving) is
//! invisible in the results. Plus the failure-isolation contract: one
//! poisoned match panics alone, its worker and the rest of the fleet
//! carry on.
//!
//! These run under plain `cargo test` (debug build), so the fleets here
//! are small; the population-scale run is the `fleet_soak` example ci.sh
//! drives in release mode.

use watchmen::fleet::{run_fleet_specs, FleetConfig, FleetResult, MatchSpec, PoolConfig};

fn mixed_config() -> FleetConfig {
    FleetConfig {
        matches: 10,
        players: 8,
        frames: 90,
        seed: 7177,
        cheat_every: 5,
        tick_quantum: 8,
        ..FleetConfig::default()
    }
}

/// A small mixed fleet: honest matches plus scripted cheaters, varied
/// sizes so quanta interleave unevenly across workers.
fn mixed_specs() -> Vec<MatchSpec> {
    let mut specs = mixed_config().specs();
    // Uneven lengths: long and short matches must coexist fairly.
    for (i, spec) in specs.iter_mut().enumerate() {
        if i % 3 == 0 {
            spec.frames = 140;
        }
    }
    specs
}

#[test]
fn fleet_results_are_identical_across_worker_counts() {
    let baseline = run_fleet_specs(mixed_specs(), &PoolConfig { workers: 1, max_local: 4 });
    let base_lines = baseline.match_lines();
    assert!(!base_lines.is_empty());
    assert_eq!(baseline.completed(), 10);

    for workers in [2, 8] {
        let run = run_fleet_specs(mixed_specs(), &PoolConfig { workers, max_local: 4 });
        assert_eq!(
            run.match_lines(),
            base_lines,
            "per-match output must be byte-identical under {workers} workers"
        );
        // The summary echoes two scheduling facts (worker count and
        // steal count); every simulation-derived figure matches.
        let strip = |r: &FleetResult| {
            let [fleet, detection] = r.report(&mixed_config());
            let line = fleet.to_string();
            let kept: Vec<&str> = line
                .split_whitespace()
                .filter(|t| !t.starts_with("workers=") && !t.starts_with("steals="))
                .collect();
            (kept.join(" "), detection)
        };
        assert_eq!(strip(&run), strip(&baseline));
    }
}

#[test]
fn fleet_detects_cheaters_without_false_verdicts() {
    let result = run_fleet_specs(mixed_specs(), &PoolConfig { workers: 4, max_local: 4 });
    assert_eq!(result.completed(), 10, "every match must finish");
    assert_eq!(result.cheater_matches(), 2, "matches 0 and 5 script a cheater");
    assert_eq!(
        result.detected_matches(),
        result.cheater_matches(),
        "every scripted cheater must draw a severe verdict: {}",
        result.match_lines()
    );
    assert_eq!(
        result.false_verdicts(),
        0,
        "honest players must never draw severe verdicts: {}",
        result.match_lines()
    );
}

#[test]
fn poisoned_match_is_isolated_from_the_fleet() {
    let mut specs = mixed_specs();
    specs[4] = specs[4].clone().poisoned_at(30);
    let result = run_fleet_specs(specs, &PoolConfig { workers: 2, max_local: 4 });

    assert_eq!(result.panics.len(), 1, "exactly the poisoned match fails");
    let (id, msg) = &result.panics[0];
    assert_eq!(*id, 4);
    assert!(msg.contains("scripted poison in match 4"), "{msg}");

    // The other nine completed on the same two workers — no worker died
    // with the match.
    assert_eq!(result.completed(), 9);
    assert!(result.reports.iter().all(|r| r.match_id != 4));
    let panicked: u64 = result.workers.iter().map(|w| w.panicked).sum();
    let completed: u64 = result.workers.iter().map(|w| w.completed).sum();
    assert_eq!(panicked, 1);
    assert_eq!(completed, 9);

    // And the panic line shows up deterministically in the match lines.
    assert!(result.match_lines().contains("match 4: panicked"));
}

#[test]
fn poisoned_match_lines_are_stable_across_worker_counts() {
    let poisoned = |workers: usize| {
        let mut specs = mixed_specs();
        specs[7] = specs[7].clone().poisoned_at(12);
        run_fleet_specs(specs, &PoolConfig { workers, max_local: 4 }).match_lines()
    };
    assert_eq!(poisoned(1), poisoned(4));
}

#[test]
fn rollup_covers_every_working_shard() {
    let result = run_fleet_specs(mixed_specs(), &PoolConfig { workers: 2, max_local: 8 });
    // Two busy workers: both shards must have recorded tick latency, and
    // the fleet-wide histogram must union them.
    assert_eq!(result.rollup.shard_ticks.len(), 2);
    let per_shard: u64 = result.rollup.shard_ticks.iter().flatten().map(|t| t.count).sum();
    let fleet = result.rollup.fleet_ticks.expect("fleet ticks recorded");
    assert_eq!(fleet.count, per_shard, "aggregate must union shard observations");
    assert_eq!(fleet.count, result.total_ticks(), "every frame is timed exactly once");
    assert!(result.rollup.worst_shard_tick_p99() > 0.0);
}
