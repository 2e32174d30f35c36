//! The in-process discrete-event network simulator.

use std::sync::Arc;

use watchmen_crypto::rng::Xoshiro256;
use watchmen_telemetry::{Counter, Gauge, Histogram};

use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::{BandwidthMeter, EventQueue};

/// Index of a node (player machine) in the simulated network.
pub type NodeId = usize;

/// A message delivered by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<T> {
    /// Sender node.
    pub from: NodeId,
    /// Receiver node.
    pub to: NodeId,
    /// Virtual time the message was sent (ms).
    pub sent_ms: f64,
    /// Virtual time the message arrived (ms).
    pub deliver_ms: f64,
    /// The payload.
    pub payload: T,
    /// Wire size used for bandwidth accounting.
    pub bytes: usize,
}

/// Aggregate traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Messages submitted to the network.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped by the loss model, a fault plan, or delivery to a
    /// crashed node.
    pub dropped: u64,
    /// Extra copies injected by the duplication fault. Each copy also ends
    /// up delivered, dropped, or in flight, so it appears on the
    /// right-hand side of the conservation identity too.
    pub duplicated: u64,
    /// Messages accepted but not yet delivered.
    pub in_flight: u64,
}

impl NetStats {
    /// Conservation invariant: every submitted message — plus every extra
    /// copy the duplication fault injected — is delivered, dropped, or
    /// still queued; nothing is lost or double-counted.
    #[must_use]
    pub fn invariant_holds(&self) -> bool {
        self.sent + self.duplicated == self.delivered + self.dropped + self.in_flight
    }

    /// Like [`NetStats::invariant_holds`], but a failure carries the
    /// offending counts so the report is actionable.
    ///
    /// # Errors
    ///
    /// Returns the full accounting (`sent` vs `delivered + dropped +
    /// in_flight`, with each term) when conservation is violated.
    pub fn check_invariant(&self) -> Result<(), String> {
        if self.invariant_holds() {
            return Ok(());
        }
        Err(format!(
            "message conservation violated: sent={} + duplicated={} != delivered={} + \
             dropped={} + in_flight={} (= {}, off by {})",
            self.sent,
            self.duplicated,
            self.delivered,
            self.dropped,
            self.in_flight,
            self.delivered + self.dropped + self.in_flight,
            (self.sent + self.duplicated) as i128
                - (self.delivered + self.dropped + self.in_flight) as i128,
        ))
    }

    /// Asserts conservation, panicking with the offending counts and the
    /// caller's context instead of a bare boolean failure.
    ///
    /// # Panics
    ///
    /// Panics with the full accounting when the invariant is violated.
    pub fn assert_invariant(&self, context: &str) {
        if let Err(report) = self.check_invariant() {
            panic!("{context}: {report}");
        }
    }
}

/// Cached global-registry handles for the simulator's hot paths.
#[derive(Debug)]
struct SimNetMetrics {
    sent: Arc<Counter>,
    delivered: Arc<Counter>,
    dropped: Arc<Counter>,
    duplicated: Arc<Counter>,
    fault_dropped: Arc<Counter>,
    in_flight: Arc<Gauge>,
    latency_ms: Arc<Histogram>,
}

impl SimNetMetrics {
    fn new() -> Self {
        let t = watchmen_telemetry::global();
        t.describe("net_messages_sent_total", "messages submitted to the simulated network");
        t.describe("net_messages_delivered_total", "messages delivered by the simulated network");
        t.describe(
            "net_messages_dropped_total",
            "messages dropped by the loss model, a fault plan, or a crashed receiver",
        );
        t.describe(
            "net_messages_duplicated_total",
            "extra message copies injected by the duplication fault",
        );
        t.describe(
            "net_fault_drops_total",
            "messages dropped specifically by the fault plan (burst loss, crash, churn gate)",
        );
        t.describe("net_messages_in_flight", "messages queued but not yet delivered");
        t.describe("net_delivery_latency_ms", "virtual send-to-deliver latency");
        SimNetMetrics {
            sent: t.counter("net_messages_sent_total"),
            delivered: t.counter("net_messages_delivered_total"),
            dropped: t.counter("net_messages_dropped_total"),
            duplicated: t.counter("net_messages_duplicated_total"),
            fault_dropped: t.counter("net_fault_drops_total"),
            in_flight: t.gauge("net_messages_in_flight"),
            latency_ms: t.histogram("net_delivery_latency_ms"),
        }
    }
}

/// A virtual-time network connecting `n` nodes with a pluggable latency
/// model and Bernoulli loss, as in the paper's replay experiments
/// ("Message loss is simulated with a rate of 1%").
///
/// Time only moves forward via [`SimNetwork::advance_to`]; all state is
/// deterministic for a fixed seed.
///
/// # Examples
///
/// ```
/// use watchmen_net::{latency, SimNetwork};
///
/// let mut net: SimNetwork<u32> = SimNetwork::new(2, latency::constant(5.0), 0.0, 1);
/// net.send(0, 1, 99, 70);
/// assert!(net.advance_to(4.9).is_empty());
/// let got = net.advance_to(5.1);
/// assert_eq!(got[0].payload, 99);
/// ```
#[derive(Debug)]
pub struct SimNetwork<T> {
    n: usize,
    now_ms: f64,
    queue: EventQueue<Delivery<T>>,
    latency: Box<dyn LatencyModel>,
    loss_rate: f64,
    rng: Xoshiro256,
    meters: Vec<BandwidthMeter>,
    stats: NetStats,
    metrics: SimNetMetrics,
    /// Optional fault plan layered on top of the Bernoulli loss model.
    faults: Option<FaultPlan>,
}

impl<T> SimNetwork<T> {
    /// Creates a network of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `loss_rate` is outside `[0, 1]`.
    #[must_use]
    pub fn new(n: usize, latency: Box<dyn LatencyModel>, loss_rate: f64, seed: u64) -> Self {
        assert!(n > 0, "network needs at least one node");
        assert!((0.0..=1.0).contains(&loss_rate), "loss rate {loss_rate} out of range");
        SimNetwork {
            n,
            now_ms: 0.0,
            queue: EventQueue::new(),
            latency,
            loss_rate,
            rng: Xoshiro256::seed_from(seed, 0x10c0),
            meters: vec![BandwidthMeter::new(); n],
            stats: NetStats::default(),
            metrics: SimNetMetrics::new(),
            faults: None,
        }
    }

    /// Attaches a [`FaultPlan`] layered on top of the base Bernoulli loss:
    /// burst loss, duplication, reordering, crash windows and churn gates
    /// all draw from the plan's own deterministic RNG stream.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Returns `true` if the fault plan declares `node` crashed at the
    /// current virtual time — drivers use this to skip executing a
    /// crashed node's frame, mirroring how the network already silences
    /// its traffic.
    #[must_use]
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.is_crashed(node, self.now_ms))
    }

    /// Returns `true` if a scripted churn event gates `node` right now —
    /// a joiner before its join instant, a leaver after it unplugs.
    /// Drivers use this to skip executing the node's frame; the network
    /// independently drops its traffic.
    #[must_use]
    pub fn is_offline(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.is_offline(node, self.now_ms))
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Current virtual time in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Aggregate counters, including the current in-flight queue depth.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        NetStats { in_flight: self.queue.len() as u64, ..self.stats }
    }

    /// One node's bandwidth meter.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn meter(&self, node: NodeId) -> &BandwidthMeter {
        &self.meters[node]
    }

    /// The latency model's display name.
    #[must_use]
    pub fn latency_name(&self) -> &str {
        self.latency.name()
    }

    /// Submits a message of `bytes` from `from` to `to` at the current
    /// virtual time. Upload bandwidth is charged even if the loss model
    /// later drops the packet (the bits still left the uplink).
    ///
    /// The attached [`FaultPlan`], if any, runs before the base Bernoulli
    /// loss check: a crashed or churn-gated endpoint silences the
    /// message, the burst channel may drop it, the reorder fault may add
    /// extra delay, and the duplication fault may enqueue a second copy
    /// with its own latency sample (hence the `T: Clone` bound).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `from == to`.
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: T, bytes: usize)
    where
        T: Clone,
    {
        assert!(from < self.n && to < self.n, "node out of range");
        assert_ne!(from, to, "no self-sends; local delivery is free");
        self.stats.sent += 1;
        self.metrics.sent.inc();
        self.meters[from].record_up(bytes);
        let now = self.now_ms;
        let fault_drop = match self.faults.as_mut() {
            Some(plan) => {
                plan.is_crashed(from, now)
                    || plan.is_crashed(to, now)
                    || plan.is_offline(from, now)
                    || plan.is_offline(to, now)
                    || plan.burst_drop()
            }
            None => false,
        };
        if fault_drop {
            self.stats.dropped += 1;
            self.metrics.dropped.inc();
            self.metrics.fault_dropped.inc();
            return;
        }
        if self.rng.next_bool(self.loss_rate) {
            self.stats.dropped += 1;
            self.metrics.dropped.inc();
            return;
        }
        let mut copies = 1u32;
        if let Some(plan) = self.faults.as_mut() {
            if plan.duplicate() {
                copies = 2;
                self.stats.duplicated += 1;
                self.metrics.duplicated.inc();
            }
        }
        for _ in 0..copies {
            let mut delay = self.latency.sample_ms(from, to);
            if let Some(plan) = self.faults.as_mut() {
                delay += plan.reorder_extra();
            }
            let deliver_ms = now + delay;
            self.queue.push(
                deliver_ms,
                Delivery { from, to, sent_ms: now, deliver_ms, payload: payload.clone(), bytes },
            );
        }
        self.metrics.in_flight.set(self.queue.len() as i64);
    }

    /// Advances virtual time to `t_ms`, returning every message delivered
    /// on the way, in delivery order.
    ///
    /// # Panics
    ///
    /// Panics if `t_ms` would move time backwards.
    pub fn advance_to(&mut self, t_ms: f64) -> Vec<Delivery<T>> {
        assert!(t_ms >= self.now_ms, "time cannot go backwards ({t_ms} < {})", self.now_ms);
        self.now_ms = t_ms;
        let delivered = self.queue.drain_until(t_ms);
        let mut out = Vec::with_capacity(delivered.len());
        for (_, d) in delivered {
            // A receiver that crashed (or unplugged via a scripted churn
            // event) after the message was accepted eats it at delivery
            // time: in-flight moves to dropped, never to delivered, and
            // no download bandwidth is charged.
            if self.faults.as_ref().is_some_and(|f| {
                f.is_crashed(d.to, d.deliver_ms) || f.is_offline(d.to, d.deliver_ms)
            }) {
                self.stats.dropped += 1;
                self.metrics.dropped.inc();
                self.metrics.fault_dropped.inc();
                continue;
            }
            self.meters[d.to].record_down(d.bytes);
            self.stats.delivered += 1;
            self.metrics.delivered.inc();
            self.metrics.latency_ms.record(d.deliver_ms - d.sent_ms);
            out.push(d);
        }
        self.metrics.in_flight.set(self.queue.len() as i64);
        // Conservation must hold at every quiescent point; a violation
        // here panics with the offending counts rather than corrupting
        // downstream bandwidth figures silently.
        self.stats().assert_invariant("simnet advance_to");
        out
    }

    /// Messages still in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency;

    #[test]
    fn delivery_timing() {
        let mut net: SimNetwork<u8> = SimNetwork::new(3, latency::constant(10.0), 0.0, 1);
        net.send(0, 1, 1, 100);
        net.advance_to(5.0);
        net.send(0, 2, 2, 100);
        let batch = net.advance_to(16.0);
        // First message at t=10, second at t=15.
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].payload, 1);
        assert_eq!(batch[0].deliver_ms, 10.0);
        assert_eq!(batch[1].payload, 2);
        assert_eq!(batch[1].deliver_ms, 15.0);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn loss_rate_one_drops_everything() {
        let mut net: SimNetwork<u8> = SimNetwork::new(2, latency::constant(1.0), 1.0, 2);
        for _ in 0..50 {
            net.send(0, 1, 0, 10);
        }
        assert!(net.advance_to(100.0).is_empty());
        assert_eq!(net.stats().dropped, 50);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn loss_rate_statistics() {
        let mut net: SimNetwork<u8> = SimNetwork::new(2, latency::constant(1.0), 0.1, 3);
        for _ in 0..5000 {
            net.send(0, 1, 0, 10);
        }
        net.advance_to(10.0);
        let dropped = net.stats().dropped;
        assert!((350..650).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn bandwidth_charged_correctly() {
        let mut net: SimNetwork<u8> = SimNetwork::new(2, latency::constant(1.0), 0.0, 4);
        net.send(0, 1, 0, 250);
        net.send(0, 1, 0, 250);
        net.advance_to(10.0);
        assert_eq!(net.meter(0).up_bytes(), 500);
        assert_eq!(net.meter(1).down_bytes(), 500);
        assert_eq!(net.meter(0).down_bytes(), 0);
    }

    #[test]
    fn upload_charged_even_on_drop() {
        let mut net: SimNetwork<u8> = SimNetwork::new(2, latency::constant(1.0), 1.0, 5);
        net.send(0, 1, 0, 100);
        net.advance_to(10.0);
        assert_eq!(net.meter(0).up_bytes(), 100);
        assert_eq!(net.meter(1).down_bytes(), 0);
    }

    #[test]
    fn deterministic_for_seed() {
        let run = |seed| {
            let mut net: SimNetwork<u32> =
                SimNetwork::new(8, latency::king_like(8, seed), 0.01, seed);
            for i in 0..100u32 {
                net.send((i % 8) as usize, ((i + 1) % 8) as usize, i, 90);
            }
            net.advance_to(500.0)
                .into_iter()
                .map(|d| (d.payload, d.deliver_ms.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn conservation_invariant_holds_throughout_a_run() {
        // sent == delivered + dropped + in_flight at every observation
        // point, under loss and with messages still queued.
        let mut net: SimNetwork<u32> = SimNetwork::new(6, latency::king_like(6, 11), 0.05, 11);
        let mut rng = Xoshiro256::new(99);
        for step in 0..200u32 {
            let from = rng.next_range(6) as usize;
            let mut to = rng.next_range(6) as usize;
            if to == from {
                to = (to + 1) % 6;
            }
            net.send(from, to, step, 80);
            if step % 7 == 0 {
                net.advance_to(f64::from(step));
            }
            net.stats().assert_invariant("mid-run");
        }
        // Drain completely: in_flight reaches zero and the identity still
        // balances on final totals.
        net.advance_to(10_000.0);
        let s = net.stats();
        assert_eq!(s.in_flight, 0);
        s.assert_invariant("final");
        assert_eq!(s.sent, 200);
    }

    #[test]
    fn conservation_holds_on_a_deliberately_lossy_network() {
        // 40% Bernoulli loss: a large dropped count must still balance
        // against sent at every checkpoint and after the final drain.
        let mut net: SimNetwork<u32> = SimNetwork::new(4, latency::king_like(4, 21), 0.4, 21);
        for step in 0..500u32 {
            net.send((step % 4) as usize, ((step + 1) % 4) as usize, step, 90);
            if step % 13 == 0 {
                net.advance_to(f64::from(step) * 0.5);
                net.stats().assert_invariant("lossy checkpoint");
            }
        }
        net.advance_to(50_000.0);
        let s = net.stats();
        s.assert_invariant("lossy final");
        assert_eq!(s.in_flight, 0);
        assert!(s.dropped > 100, "expected heavy loss, got {}", s.dropped);
        assert_eq!(s.sent, 500);
        assert_eq!(s.delivered + s.dropped, 500);
    }

    #[test]
    fn invariant_failure_reports_the_offending_counts() {
        let bad = NetStats { sent: 100, delivered: 60, dropped: 10, in_flight: 20, duplicated: 0 };
        let report = bad.check_invariant().unwrap_err();
        assert!(report.contains("sent=100"), "{report}");
        assert!(report.contains("duplicated=0"), "{report}");
        assert!(report.contains("delivered=60"), "{report}");
        assert!(report.contains("dropped=10"), "{report}");
        assert!(report.contains("in_flight=20"), "{report}");
        assert!(report.contains("off by 10"), "{report}");
        assert!(NetStats { sent: 1, delivered: 1, ..NetStats::default() }
            .check_invariant()
            .is_ok());
    }

    #[test]
    fn invariant_balances_duplicates_explicitly() {
        // A duplicated message yields two deliveries from one send: the
        // identity only balances because `duplicated` appears on the left.
        let two_for_one =
            NetStats { sent: 10, delivered: 12, dropped: 0, in_flight: 0, duplicated: 2 };
        assert!(two_for_one.invariant_holds());
        // Forgetting the term (the old invariant) must fail loudly.
        let forgotten =
            NetStats { sent: 10, delivered: 12, dropped: 0, in_flight: 0, duplicated: 0 };
        assert!(!forgotten.invariant_holds());
        assert!(forgotten.check_invariant().unwrap_err().contains("off by -2"));
    }

    #[test]
    #[should_panic(expected = "sent=5 + duplicated=0 != delivered=1 + dropped=1 + in_flight=1")]
    fn assert_invariant_panics_with_counts() {
        NetStats { sent: 5, delivered: 1, dropped: 1, in_flight: 1, duplicated: 0 }
            .assert_invariant("unit test");
    }

    #[test]
    fn telemetry_mirrors_sim_counters() {
        let before = watchmen_telemetry::global().snapshot();
        let base = |name: &str| match before.get(name) {
            Some(watchmen_telemetry::MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        let (sent0, dropped0) =
            (base("net_messages_sent_total"), base("net_messages_dropped_total"));
        let mut net: SimNetwork<u8> = SimNetwork::new(2, latency::constant(1.0), 1.0, 13);
        for _ in 0..25 {
            net.send(0, 1, 0, 10);
        }
        let after = watchmen_telemetry::global().snapshot();
        let read = |name: &str| match after.get(name) {
            Some(watchmen_telemetry::MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        assert!(read("net_messages_sent_total") >= sent0 + 25);
        assert!(read("net_messages_dropped_total") >= dropped0 + 25);
    }

    #[test]
    fn duplication_fault_delivers_extra_copies_and_balances() {
        use crate::fault::FaultPlan;
        let mut net: SimNetwork<u32> = SimNetwork::new(2, latency::constant(5.0), 0.0, 31);
        net.set_fault_plan(FaultPlan::new(31).with_duplication(1.0));
        for i in 0..20u32 {
            net.send(0, 1, i, 50);
        }
        let got = net.advance_to(100.0);
        let s = net.stats();
        assert_eq!(s.sent, 20);
        assert_eq!(s.duplicated, 20, "rate-1.0 duplication must copy every message");
        assert_eq!(s.delivered, 40);
        assert_eq!(got.len(), 40);
        s.assert_invariant("full duplication");
    }

    #[test]
    fn crash_window_silences_sends_and_eats_deliveries() {
        use crate::fault::FaultPlan;
        let mut net: SimNetwork<u8> = SimNetwork::new(3, latency::constant(10.0), 0.0, 32);
        net.set_fault_plan(FaultPlan::new(32).with_crash(1, 20.0, 50.0));
        // In flight before the crash, delivered into the window: dropped
        // at delivery time.
        net.advance_to(15.0);
        net.send(0, 1, 1, 40);
        assert!(net.advance_to(30.0).is_empty(), "delivery into crash window must be eaten");
        assert!(net.is_crashed(1));
        // Sends from and to the crashed node during the window: dropped at
        // submit time.
        net.send(1, 2, 2, 40);
        net.send(2, 1, 3, 40);
        assert!(net.advance_to(55.0).is_empty());
        // After the window the node is reachable again.
        net.send(0, 1, 4, 40);
        let got = net.advance_to(70.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 4);
        let s = net.stats();
        assert_eq!((s.dropped, s.delivered, s.in_flight), (3, 1, 0));
        s.assert_invariant("crash window");
    }

    #[test]
    fn reordering_fault_inverts_delivery_order() {
        use crate::fault::FaultPlan;
        let mut net: SimNetwork<u32> = SimNetwork::new(2, latency::constant(5.0), 0.0, 34);
        net.set_fault_plan(FaultPlan::new(34).with_reordering(0.5, 80.0));
        let mut got: Vec<u32> = Vec::new();
        for i in 0..200u32 {
            net.send(0, 1, i, 30);
            got.extend(net.advance_to(f64::from(i + 1)).iter().map(|d| d.payload));
        }
        got.extend(net.advance_to(2_000.0).iter().map(|d| d.payload));
        assert_eq!(got.len(), 200, "reordering must not lose messages");
        let inversions = got.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(inversions > 10, "expected reordering, saw {inversions} inversions");
    }

    #[test]
    fn conservation_soaks_under_loss_duplication_and_reordering() {
        use crate::fault::{FaultPlan, GilbertElliott};
        let mut net: SimNetwork<u32> = SimNetwork::new(8, latency::king_like(8, 41), 0.01, 41);
        net.set_fault_plan(
            FaultPlan::new(41)
                .with_burst_loss(GilbertElliott::with_mean_loss(0.05))
                .with_duplication(0.05)
                .with_reordering(0.3, 60.0)
                .with_crash(5, 200.0, 600.0),
        );
        let mut rng = Xoshiro256::new(7);
        for step in 0..2_000u32 {
            let from = rng.next_range(8) as usize;
            let mut to = rng.next_range(8) as usize;
            if to == from {
                to = (to + 1) % 8;
            }
            net.send(from, to, step, 80);
            if step % 11 == 0 {
                // advance_to re-asserts the invariant internally at every
                // quiescent point.
                net.advance_to(f64::from(step));
            }
            net.stats().assert_invariant("soak checkpoint");
        }
        net.advance_to(50_000.0);
        let s = net.stats();
        s.assert_invariant("soak final");
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.sent, 2_000);
        assert!(s.duplicated > 20, "duplication never fired: {}", s.duplicated);
        assert!(s.dropped > 100, "burst loss + crash never fired: {}", s.dropped);
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_backwards_panics() {
        let mut net: SimNetwork<u8> = SimNetwork::new(2, latency::constant(1.0), 0.0, 6);
        net.advance_to(10.0);
        net.advance_to(5.0);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        let mut net: SimNetwork<u8> = SimNetwork::new(2, latency::constant(1.0), 0.0, 7);
        net.send(1, 1, 0, 10);
    }
}
