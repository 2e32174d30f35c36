//! End-to-end churn tolerance: the [`churn_soak`] — a 16-veteran cluster
//! over a lossy [`watchmen::net::SimNetwork`] absorbing four mid-game
//! joins, two graceful leaves and two crash-evictions, all under 5%
//! burst loss — while every honest node keeps an **identical
//! epoch-versioned roster at every renewal boundary**, every joiner
//! receives its bootstrap snapshot and enters the veterans' pipelines
//! within one epoch, and **zero** cheat verdicts are raised against the
//! all-honest population.

use watchmen::game::PlayerId;
use watchmen::sim::scenario::{
    churn_soak, soak_config, CHURN_CRASHED, CHURN_JOINERS, CHURN_LEAVES, CHURN_VETERANS,
};

#[test]
fn churn_run_keeps_rosters_agreed_and_raises_no_false_verdicts() {
    let period = soak_config().proxy_period;
    let (cluster, outcome) = churn_soak();

    // --- (a) Roster agreement at every renewal boundary: every
    // online, active member holds the identical epoch and digest.
    assert_eq!(outcome.roster_divergence, None);
    assert!(outcome.boundaries >= 20, "only {} boundaries checked", outcome.boundaries);

    // --- (c) No false cheat verdicts and no signature rejections, ever.
    assert!(
        outcome.severe.is_empty(),
        "honest cluster raised severe verdicts:\n{}",
        outcome.severe.join("\n")
    );
    assert!(
        outcome.bad_signatures.is_empty(),
        "churn traffic scored as signature failures:\n{}",
        outcome.bad_signatures.join("\n")
    );
    // --- The full lifecycle actually ran (all joins, leaves and
    // evictions applied, every joiner converged), observed from a
    // veteran that survived to the end.
    outcome.check().unwrap();

    // --- (b) Every joiner received its bootstrap within one epoch of its
    // admission boundary, and entered the veterans' pipelines.
    assert_eq!(outcome.admit_frames.len(), CHURN_JOINERS);
    for (j, &admit) in &outcome.admit_frames {
        let got = outcome
            .bootstrap_frames
            .get(j)
            .unwrap_or_else(|| panic!("joiner {j} (admitted at {admit}) never got a bootstrap"));
        assert!(
            *got <= admit + period,
            "joiner {j}: bootstrap at frame {got}, later than one epoch past admission {admit}"
        );
        let joiner = cluster.node(*j);
        assert!(joiner.is_active_member(), "joiner {j} never became active");
        assert!(joiner.churn_stats().bootstraps_received >= 1);
        // At least one other active node tracks the joiner's state — it
        // entered the interest/vision pipelines, not just the roster.
        let seen =
            cluster.cores.iter().flatten().any(|c| {
                c.id().index() != *j && c.node().known_state(PlayerId(*j as u32)).is_some()
            });
        assert!(seen, "no active node ever learned joiner {j}'s state");
    }

    let witness = cluster.node(0);
    for &(leaver, _) in &CHURN_LEAVES {
        assert!(!witness.roster().is_active(PlayerId(leaver as u32)));
    }
    for &c in &CHURN_CRASHED {
        assert!(!witness.roster().is_active(PlayerId(c as u32)));
    }
    // Exactly the 16 veterans minus 2 leavers minus 2 evicted, plus 4
    // joiners, remain active.
    assert_eq!(witness.roster().active_count(), CHURN_VETERANS - 4 + CHURN_JOINERS);

    // --- The loss plan actually bit, and conservation held throughout.
    let stats = cluster.net.stats();
    stats.assert_invariant("end of churn e2e");
    assert!(stats.dropped > 100, "loss plan never engaged: {stats:?}");

    // --- (d) Minimum-pool robustness is a unit-test concern
    // (`eviction_degrades_to_single_proxy_instead_of_aborting`); here the
    // whole run completing under churn without a panic, with zero
    // abandoned control messages on surviving nodes, is the guarantee.
    for i in (0..cluster.cores.len()).filter(|&i| cluster.is_running(i)) {
        assert_eq!(
            cluster.node(i).control_stats().abandoned,
            0,
            "node {i} abandoned control traffic"
        );
    }
}
