//! End-to-end exercise of the loss-tolerant control plane: the 16-node
//! [`control_plane_soak`] runs over [`watchmen::net::SimNetwork`] with a
//! hostile [`FaultPlan`] — Gilbert–Elliott burst loss, duplication,
//! reordering and one scripted proxy crash — and must still deliver
//! every handoff chain, fall back deterministically around the crashed
//! proxy, and raise **zero** severe cheat verdicts against the
//! all-honest population.

use watchmen::net::fault::{FaultPlan, GilbertElliott};
use watchmen::sim::scenario::{control_plane_soak, default_fault_plan};

#[test]
fn handoff_chains_survive_loss_duplication_and_a_proxy_crash() {
    let builder_plan = FaultPlan::new(0xeb10)
        .with_burst_loss(GilbertElliott::with_mean_loss(0.05))
        .with_duplication(0.01)
        // Extra delay stays under one frame so reordering produces
        // single-frame swaps, not multi-frame time travel.
        .with_reordering(0.25, 40.0);
    // Both plans that have gated the build: this test's own, and the one
    // `deathmatch` soaks under in ci.sh.
    for (name, plan) in [("builder", builder_plan), ("default plan", default_fault_plan())] {
        let (cluster, outcome) = control_plane_soak(plan);

        // --- No false cheat verdicts, ever.
        assert!(
            outcome.severe.is_empty(),
            "{name}: honest cluster raised severe verdicts:\n{}",
            outcome.severe.join("\n")
        );
        // --- The reliable layer did real work and fully recovered:
        // retransmissions happened, nothing was abandoned, the crashed
        // proxy triggered a fallback, handoff chains were delivered and
        // none is left pending.
        outcome.report().check().unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut framed = outcome.clone();
        framed.severe.push("a doctored verdict".to_owned());
        assert_eq!(framed.report().failing(), Some("severe_false_verdicts"), "{name}");
        for (i, core) in cluster.cores.iter().flatten().enumerate() {
            assert_eq!(
                core.node().pending_handoffs(),
                0,
                "{name}: node {i} has unrecovered chains"
            );
        }

        // --- The fault plan actually bit: bursts dropped messages, the
        // duplicator fired, and the conservation invariant held throughout.
        let stats = cluster.net.stats();
        stats.assert_invariant("end of control-plane e2e");
        assert!(stats.dropped > 100, "{name}: loss plan never engaged: {stats:?}");
        assert!(stats.duplicated > 0, "{name}: duplication plan never engaged: {stats:?}");
    }
}
