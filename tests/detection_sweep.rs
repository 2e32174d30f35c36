//! Multi-seed detection-quality sweep: the detection SLO — every
//! injected cheater detected, zero false verdicts — must hold at every
//! seed, not just the seeds the unit tests happen to pin. One axis
//! sweeps fleets of full matches with scripted single cheaters; the
//! other sweeps the Table I cheat matrix (every catalog kind, graded on
//! the node replay) and demands every row stays demonstrated, except the
//! rate-analysis and maphack leaks, which must stay measured above zero;
//! a third holds Figure 6's rows, read off the node replay, to the
//! figure's gate.

use watchmen::core::cheat::CheatKind;
use watchmen::core::WatchmenConfig;
use watchmen::fleet::{run_fleet, FleetConfig};
use watchmen::sim::cheat_matrix::{run_cheat_matrix, MatrixRow};
use watchmen::sim::detection::{check_rows, format_detection, run_detection};
use watchmen::sim::workload::standard_workload;

/// Eight spread-out seeds; none is the seed any unit test was tuned at.
const SEEDS: [u64; 8] = [1, 7, 33, 42, 101, 555, 901, 4099];

#[test]
fn fleet_detection_slo_holds_across_seeds() {
    for seed in SEEDS {
        let config = FleetConfig {
            matches: 4,
            players: 8,
            frames: 120,
            workers: 2,
            cheat_every: 2,
            seed,
            ..FleetConfig::default()
        };
        let result = run_fleet(&config);
        let [_, detection] = result.report(&config);
        let q = result.detection_quality();
        assert!(q.injected > 0, "seed {seed}: fleet scripted no cheaters");
        assert_eq!(q.detected, q.injected, "seed {seed}: {detection}");
        assert_eq!(q.false_verdicts, 0, "seed {seed}: {detection}");
        assert_eq!(detection.failing(), None, "seed {seed}: {detection}");
        // A fleet whose position check never fired fails on that figure.
        let mut blind = result;
        blind.reports.iter_mut().for_each(|r| r.quality.per_check.clear());
        assert_eq!(blind.report(&config)[1].failing(), Some("position_tp"), "seed {seed}");
    }
}

#[test]
fn every_cheat_kind_stays_demonstrated_across_seeds() {
    // Table I is ten node replays per seed: the seeds run two at a time,
    // on eight players.
    let config = WatchmenConfig::default();
    let table = |seed| run_cheat_matrix(&standard_workload(8, seed, 120), &config, seed);
    let tables: Vec<Vec<MatrixRow>> = std::thread::scope(|s| {
        let halves: Vec<_> = SEEDS
            .chunks(SEEDS.len() / 2)
            .map(|seeds| s.spawn(move || seeds.iter().map(|&seed| table(seed)).collect::<Vec<_>>()))
            .collect();
        halves.into_iter().flat_map(|h| h.join().expect("a seed's table panicked")).collect()
    });
    for (seed, rows) in SEEDS.iter().zip(&tables) {
        for row in rows {
            if matches!(row.kind, CheatKind::RateAnalysis | CheatKind::Maphack) {
                // ROADMAP 5(d): some Subscribes reach their own target
                // first. ROADMAP 5(f): fresh States about players outside
                // the member's PVS. Fixing a leak flips its assertion.
                let leak = row.count.expect("the leak is measured");
                assert!(leak.hits > 0 && !row.demonstrated, "seed {seed}: {}", row.note);
                continue;
            }
            assert!(
                row.demonstrated,
                "seed {seed}: {} no longer demonstrated — {}",
                row.kind, row.note
            );
        }
    }
}

#[test]
fn figure_six_rows_hold_across_seeds() {
    let config = WatchmenConfig::default();
    for seed in SEEDS {
        let rows = run_detection(&standard_workload(12, seed, 120), &config, seed);
        if let Err(e) = check_rows(&rows) {
            panic!("seed {seed}: {e}\n{}", format_detection(&rows));
        }
    }
}
