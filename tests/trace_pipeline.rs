//! The trace pipeline end-to-end: record → serialize → deserialize →
//! analyze, as the paper's tracing module + replay engine do.

use watchmen::game::heatmap::Heatmap;
use watchmen::game::trace::{standard_trace, GameTrace};
use watchmen::game::GameConfig;
use watchmen::world::maps;

#[test]
fn record_serialize_replay_roundtrip() {
    let trace = standard_trace(8, 77, 400);
    let bytes = trace.to_bytes();
    let restored = GameTrace::from_bytes(&bytes).expect("decode");
    assert_eq!(trace, restored);

    // Replaying the restored trace yields identical derived analytics.
    let map = maps::q3dm17_like();
    let heat_a = Heatmap::from_trace(&map, &trace);
    let heat_b = Heatmap::from_trace(&map, &restored);
    assert_eq!(heat_a, heat_b);
}

#[test]
fn same_seed_same_trace_different_seed_different_trace() {
    let a = standard_trace(6, 1, 150);
    let b = standard_trace(6, 1, 150);
    let c = standard_trace(6, 2, 150);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn trace_respects_game_physics_invariants() {
    let config = GameConfig::default();
    let max_step = config.physics.max_step(0.05);
    let trace = GameTrace::record(config, 10, 13, 500);
    let map = maps::q3dm17_like();
    for f in 1..trace.len() {
        let respawned: Vec<usize> = trace.frames[f]
            .events
            .iter()
            .filter_map(|e| match e {
                watchmen::game::GameEvent::Respawn { player, .. } => Some(player.index()),
                _ => None,
            })
            .collect();
        for p in 0..10 {
            let prev = &trace.frames[f - 1].states[p];
            let next = &trace.frames[f].states[p];
            if !prev.is_alive() || !next.is_alive() || respawned.contains(&p) {
                continue;
            }
            let moved = next.position.horizontal_distance(prev.position);
            assert!(moved <= max_step + 1e-6, "p{p} moved {moved} in one frame at frame {f}");
            assert!(
                !map.tile_at(next.position).blocks_movement(),
                "p{p} inside a wall at frame {f}"
            );
            assert!(next.health <= 200 && next.health >= 0);
        }
    }
}

#[test]
fn heatmap_concentration_is_the_paper_regime() {
    // Figure 1's claim on the standard workload: presence is strongly
    // concentrated around items and respawn points.
    let trace = standard_trace(16, 21, 1200);
    let map = maps::q3dm17_like();
    let heat = Heatmap::from_trace(&map, &trace);
    assert!(heat.top_share(0.1) > 0.2, "top-decile share {}", heat.top_share(0.1));
    assert!(heat.gini() > 0.3, "gini {}", heat.gini());
}
