//! Pluggable network fault injection for the simulator.
//!
//! The paper's replay experiments simulate Bernoulli loss ("Message loss
//! is simulated with a rate of 1%"), but real WANs lose packets in
//! *bursts*, duplicate them, reorder them, and drop whole peers. A
//! [`FaultPlan`] bundles those behaviours so a [`crate::SimNetwork`] run
//! can exercise the control plane's recovery paths:
//!
//! * **Burst loss** via a two-state [`GilbertElliott`] channel.
//! * **Duplication** — an extra copy of a message is injected with its own
//!   independently-sampled latency (counted in
//!   [`crate::NetStats::duplicated`] so conservation still balances).
//! * **Reordering** — a fraction of messages receive extra delay, which
//!   swaps them past later sends.
//! * **Crash windows** — a node is silent for `[from_ms, to_ms)`: its
//!   sends are dropped at submit time and messages addressed to it are
//!   dropped at delivery time.
//! * **Churn gates** — a mid-match joiner's slot is offline before its
//!   join instant and a leaver's from its unplug instant; the protocol
//!   side (lobby tickets, `Join`/`Leave` announcements) is scripted by
//!   the harness that built the plan.
//!
//! Plans are built in code with the `with_*` builder. All state is
//! deterministic for a fixed seed, like the rest of the simulator.

use watchmen_crypto::rng::Xoshiro256;

use crate::NodeId;

/// A two-state Gilbert–Elliott burst-loss channel.
///
/// The channel is either in the *good* state (loss `loss_good`, usually 0)
/// or the *bad* state (loss `loss_bad`); per message it transitions
/// good→bad with probability `p_enter_bad` and bad→good with `p_exit_bad`,
/// producing the correlated loss runs that plain Bernoulli loss cannot.
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    /// P(good → bad) evaluated once per message sent.
    pub p_enter_bad: f64,
    /// P(bad → good) evaluated once per message sent.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Creates a channel from explicit transition and loss probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_enter_bad", p_enter_bad),
            ("p_exit_bad", p_exit_bad),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} {p} out of range");
        }
        GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad, in_bad: false }
    }

    /// A bursty channel with the given long-run mean loss rate: the bad
    /// state drops 50% of messages and lasts ~4 messages on average, and
    /// the entry probability is solved so the stationary loss equals
    /// `mean`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < mean < 0.4` (from there on the entry probability
    /// the solve yields reaches 1).
    #[must_use]
    pub fn with_mean_loss(mean: f64) -> Self {
        assert!(mean > 0.0 && mean < 0.4, "mean burst loss {mean} out of (0, 0.4)");
        let (loss_bad, p_exit_bad) = (0.5, 0.25);
        // Stationary P(bad) = p_enter / (p_enter + p_exit); mean loss =
        // P(bad) * loss_bad.
        let pi_bad = mean / loss_bad;
        let p_enter_bad = pi_bad * p_exit_bad / (1.0 - pi_bad);
        GilbertElliott::new(p_enter_bad, p_exit_bad, 0.0, loss_bad)
    }

    /// Advances the chain one message and returns whether it is dropped.
    fn step(&mut self, rng: &mut Xoshiro256) -> bool {
        if self.in_bad {
            if rng.next_bool(self.p_exit_bad) {
                self.in_bad = false;
            }
        } else if rng.next_bool(self.p_enter_bad) {
            self.in_bad = true;
        }
        rng.next_bool(if self.in_bad { self.loss_bad } else { self.loss_good })
    }
}

/// The direction of a scripted churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnKind {
    /// The node joins mid-match: offline before `at_ms`, online after.
    Join,
    /// The node departs: online before `at_ms`, offline from `at_ms` on.
    Leave,
}

/// A scripted mid-match membership change. The network layer only *gates
/// delivery* — a joiner's slot drops all traffic before its join instant,
/// a leaver's from its unplug instant. The harness that scripts the event
/// runs the protocol side itself: lobby admission + `Join` announcement at
/// a join, and a `Leave` announcement far enough *before* a leave's
/// `at_ms` that the departure is roster-applied by the time the node
/// unplugs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChurnEvent {
    /// The joining or leaving node.
    node: NodeId,
    /// Join or leave.
    kind: ChurnKind,
    /// The virtual millisecond the node appears (join) or unplugs
    /// (leave).
    at_ms: f64,
}

/// A node-silence window: the node neither sends nor receives during
/// `[from_ms, to_ms)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: NodeId,
    /// First virtual millisecond of silence (inclusive).
    pub from_ms: f64,
    /// End of the window (exclusive).
    pub to_ms: f64,
}

/// A deterministic bundle of network faults, attached to a
/// [`crate::SimNetwork`] via [`crate::SimNetwork::set_fault_plan`].
///
/// # Examples
///
/// ```
/// use watchmen_net::fault::{FaultPlan, GilbertElliott};
/// use watchmen_net::{latency, SimNetwork};
///
/// let plan = FaultPlan::new(7)
///     .with_burst_loss(GilbertElliott::with_mean_loss(0.05))
///     .with_duplication(0.01)
///     .with_reordering(0.25, 20.0)
///     .with_crash(3, 1_000.0, 2_000.0);
/// let mut net: SimNetwork<u32> = SimNetwork::new(8, latency::constant(5.0), 0.0, 1);
/// net.set_fault_plan(plan);
/// net.send(0, 1, 42, 90);
/// net.advance_to(100.0);
/// net.stats().assert_invariant("faulted send");
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    burst: Option<GilbertElliott>,
    duplicate_rate: f64,
    reorder_rate: f64,
    reorder_extra_ms: f64,
    crashes: Vec<CrashWindow>,
    churn: Vec<ChurnEvent>,
    rng: Xoshiro256,
}

impl FaultPlan {
    /// An empty (no-fault) plan with its own deterministic RNG stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            burst: None,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_extra_ms: 0.0,
            crashes: Vec::new(),
            churn: Vec::new(),
            rng: Xoshiro256::seed_from(seed, 0xfau64 << 32),
        }
    }

    /// Adds a Gilbert–Elliott burst-loss channel.
    #[must_use]
    pub fn with_burst_loss(mut self, channel: GilbertElliott) -> Self {
        self.burst = Some(channel);
        self
    }

    /// Duplicates each message with probability `rate` (the copy gets an
    /// independently-sampled latency).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    #[must_use]
    pub fn with_duplication(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "duplication rate {rate} out of range");
        self.duplicate_rate = rate;
        self
    }

    /// Delays each message by up to `extra_ms` additional milliseconds
    /// with probability `rate`, reordering it past later sends.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or `extra_ms` is negative.
    #[must_use]
    pub fn with_reordering(mut self, rate: f64, extra_ms: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "reorder rate {rate} out of range");
        assert!(extra_ms >= 0.0, "reorder delay must be non-negative");
        self.reorder_rate = rate;
        self.reorder_extra_ms = extra_ms;
        self
    }

    /// Silences `node` for `[from_ms, to_ms)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is inverted.
    #[must_use]
    pub fn with_crash(mut self, node: NodeId, from_ms: f64, to_ms: f64) -> Self {
        assert!(from_ms <= to_ms, "crash window inverted");
        self.crashes.push(CrashWindow { node, from_ms, to_ms });
        self
    }

    /// Scripts a mid-match join: `node`'s slot is offline (all traffic
    /// gated) before `at_ms` and live from `at_ms` on.
    #[must_use]
    pub fn with_join(mut self, node: NodeId, at_ms: f64) -> Self {
        self.churn.push(ChurnEvent { node, kind: ChurnKind::Join, at_ms });
        self
    }

    /// Scripts a departure: `node` unplugs at `at_ms` and its traffic is
    /// gated from then on. Drivers announce the protocol-level `Leave`
    /// early enough that the departure is roster-applied by `at_ms`.
    #[must_use]
    pub fn with_leave(mut self, node: NodeId, at_ms: f64) -> Self {
        self.churn.push(ChurnEvent { node, kind: ChurnKind::Leave, at_ms });
        self
    }

    /// Returns `true` if a churn event gates `node` at `now_ms`: before
    /// its join instant, or at/after its unplug instant. Both boundaries
    /// are half-open on the offline side — a joiner is live at exactly
    /// `at_ms`, a leaver gone at exactly `at_ms`.
    #[must_use]
    pub fn is_offline(&self, node: NodeId, now_ms: f64) -> bool {
        self.churn.iter().any(|c| {
            c.node == node
                && match c.kind {
                    ChurnKind::Join => now_ms < c.at_ms,
                    ChurnKind::Leave => now_ms >= c.at_ms,
                }
        })
    }

    /// The scripted crash windows.
    #[must_use]
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// Returns `true` if `node` is inside one of its crash windows.
    #[must_use]
    pub fn is_crashed(&self, node: NodeId, now_ms: f64) -> bool {
        self.crashes.iter().any(|c| c.node == node && now_ms >= c.from_ms && now_ms < c.to_ms)
    }

    /// Advances the burst channel one message; `true` means drop.
    pub(crate) fn burst_drop(&mut self) -> bool {
        match self.burst.as_mut() {
            Some(ge) => ge.step(&mut self.rng),
            None => false,
        }
    }

    /// Samples whether this message gets an extra duplicate copy.
    pub(crate) fn duplicate(&mut self) -> bool {
        self.duplicate_rate > 0.0 && self.rng.next_bool(self.duplicate_rate)
    }

    /// Extra delay for this delivery (0 when the reorder fault does not
    /// fire).
    pub(crate) fn reorder_extra(&mut self) -> f64 {
        if self.reorder_rate > 0.0 && self.rng.next_bool(self.reorder_rate) {
            self.rng.next_f64() * self.reorder_extra_ms
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gilbert_elliott_mean_loss_matches_empirical_rate() {
        let mut ge = GilbertElliott::with_mean_loss(0.05);
        let mut rng = Xoshiro256::seed_from(1, 2);
        let trials = 200_000;
        let dropped = (0..trials).filter(|_| ge.step(&mut rng)).count();
        let rate = dropped as f64 / f64::from(trials);
        assert!((0.04..0.06).contains(&rate), "empirical loss {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Consecutive drops should be far more common than under an
        // independent Bernoulli process with the same mean.
        let mut ge = GilbertElliott::with_mean_loss(0.05);
        let mut rng = Xoshiro256::seed_from(3, 4);
        let mut drops = Vec::with_capacity(100_000);
        for _ in 0..100_000 {
            drops.push(ge.step(&mut rng));
        }
        let pairs = drops.windows(2).filter(|w| w[0] && w[1]).count() as f64;
        let singles = drops.iter().filter(|&&d| d).count() as f64;
        // P(drop | previous dropped) under Bernoulli(0.05) would be 0.05;
        // the bad state's 0.5 loss with mean dwell 4 pushes it far higher.
        let conditional = pairs / singles;
        assert!(conditional > 0.2, "loss not bursty: P(drop|drop) = {conditional:.3}");
    }

    #[test]
    fn crash_windows_are_half_open() {
        let plan = FaultPlan::new(1).with_crash(2, 100.0, 200.0);
        assert!(!plan.is_crashed(2, 99.9));
        assert!(plan.is_crashed(2, 100.0));
        assert!(plan.is_crashed(2, 199.9));
        assert!(!plan.is_crashed(2, 200.0));
        assert!(!plan.is_crashed(3, 150.0));
    }

    #[test]
    fn churn_gating_is_half_open() {
        let plan = FaultPlan::new(1).with_join(5, 2000.0).with_leave(3, 4000.0);
        assert!(plan.is_offline(5, 1999.9), "joiner offline before its instant");
        assert!(!plan.is_offline(5, 2000.0), "joiner live at exactly its instant");
        assert!(!plan.is_offline(3, 3999.9), "leaver live until it unplugs");
        assert!(plan.is_offline(3, 4000.0), "leaver gone at exactly its instant");
        assert!(!plan.is_offline(0, 0.0), "unscripted nodes never gated");
    }

    #[test]
    fn new_plan_is_clean() {
        let mut plan = FaultPlan::new(1);
        assert!(!plan.burst_drop());
        assert!(!plan.duplicate());
        assert_eq!(plan.reorder_extra(), 0.0);
    }
}
