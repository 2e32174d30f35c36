//! The one match driver: N [`ProtocolCore`]s in the slots of a
//! [`Transport`], advanced frame by frame under the deliver-then-tick
//! contract of [`watchmen_core::sans_io`]. Every match loop calls
//! [`Cluster::step`] — over a [`SimNetwork`] (the default) the soaks in
//! [`crate::scenario`], the fleet's match cell, the figures, the
//! deathmatch and lobby examples; over a `LiveTransport` the live
//! example and the live e2e test, one seated slot each. What a frame
//! means is decided here, once:
//!
//! 1. everything the transport delivers by `frame × frame_ms` is
//!    handled, in arrival order, with `now_frame = frame`; whatever a
//!    handler emits (relays, acks) goes on the wire at that instant and
//!    arrives in a later frame;
//! 2. then every slot ticks, in index order, and the transport flushes.
//!
//! A slot is skipped — neither handles nor ticks — while it is empty
//! (a joiner not yet admitted, a live peer in another process), crashed,
//! or offline under the network's fault plan. The network independently
//! eats traffic to and from such slots; the skip models the dead process
//! not running. [`Verdicts`] classifies what the cores conclude.
//!
//! The cores read no clock. A driver that wants their latency names a
//! registry with [`Cluster::time_into`], and the cluster times each call
//! it makes into a core there; a cluster given none reads no clock either.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use watchmen_core::node::{NodeEvent, Outgoing, WatchmenNode};
use watchmen_core::sans_io::{CoreOutput, ProtocolCore};
use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_net::{SimNetwork, Transport};
use watchmen_telemetry::{Histogram, Registry};

/// The histograms [`Cluster::time_into`] records into, and their help
/// text: one observation per call into a core.
const TIMINGS: [(&str, &str); 2] = [
    ("node_tick_duration_ms", "wall time of one ProtocolCore::tick call"),
    ("node_handle_message_duration_ms", "wall time of one ProtocolCore::datagram call"),
];

/// N protocol cores on one transport. See the module docs.
/// Fields are public: scenarios seat joiners and send out-of-band
/// datagrams, tests inspect nodes and network counters after a run.
pub struct Cluster<T: Transport = SimNetwork<Vec<u8>>> {
    /// One entry per transport slot; `None` until a core is seated.
    pub cores: Vec<Option<ProtocolCore>>,
    /// The network between them.
    pub net: T,
    /// Milliseconds per protocol frame.
    pub frame_ms: f64,
    /// Where each `tick` and `datagram` call is timed, if anywhere.
    timers: Option<(Arc<Histogram>, Arc<Histogram>)>,
}

/// Runs `call`, recording its wall time in milliseconds into `hist` when
/// there is one; without one it reads no clock.
fn timed<R>(hist: Option<&Arc<Histogram>>, call: impl FnOnce() -> R) -> R {
    let Some(hist) = hist else { return call() };
    let started = Instant::now();
    let result = call();
    hist.record(started.elapsed().as_secs_f64() * 1000.0);
    result
}

impl<T: Transport> Cluster<T> {
    /// Seats `cores` in slots `0..`, leaving the rest of `net`'s slots
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if there are more cores than transport slots.
    #[must_use]
    pub fn new(cores: impl IntoIterator<Item = ProtocolCore>, net: T, frame_ms: f64) -> Self {
        let mut cores: Vec<Option<ProtocolCore>> = cores.into_iter().map(Some).collect();
        assert!(cores.len() <= net.slots(), "more cores than transport slots");
        cores.resize_with(net.slots(), || None);
        Cluster { cores, net, frame_ms, timers: None }
    }

    /// From now on, times each call this cluster makes into a core:
    /// `tick` into `registry`'s `node_tick_duration_ms`, `datagram` into
    /// its `node_handle_message_duration_ms`. The handles are the
    /// registry's own, so every cluster timed into one registry shares
    /// one pair of histograms.
    pub fn time_into(&mut self, registry: &Registry) {
        for (name, help) in TIMINGS {
            registry.describe(name, help);
        }
        self.timers = Some((registry.histogram(TIMINGS[0].0), registry.histogram(TIMINGS[1].0)));
    }

    /// The node in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    #[must_use]
    pub fn node(&self, slot: usize) -> &WatchmenNode {
        self.cores[slot].as_ref().expect("slot is seated").node()
    }

    /// Whether `slot` currently runs: seated and up.
    #[must_use]
    pub fn is_running(&self, slot: usize) -> bool {
        self.cores[slot].is_some() && self.net.is_up(slot)
    }

    /// Puts `datagrams` from `from` on the wire at the current instant.
    pub fn send(&mut self, from: usize, datagrams: Vec<Outgoing>) {
        for o in datagrams {
            self.net.send(from, o.to.index(), o.bytes);
        }
    }

    /// Hands everything delivered by `t_ms` to its running receiver at
    /// `frame`; `forward` decides whether what the handlers emit goes
    /// back on the wire. Returns how many deliveries were handed over.
    fn deliver(
        &mut self,
        frame: u64,
        t_ms: f64,
        on_output: &mut impl FnMut(usize, &mut CoreOutput),
        forward: bool,
    ) -> usize {
        let mut handed = 0;
        for d in self.net.deliver_until(t_ms) {
            if !self.is_running(d.to) {
                continue;
            }
            let core = self.cores[d.to].as_mut().expect("running slot is seated");
            let mut output = timed(self.timers.as_ref().map(|(_, ms)| ms), || {
                core.datagram(frame, PlayerId(d.from as u32), &d.payload)
            });
            handed += 1;
            on_output(d.to, &mut output);
            if forward {
                self.send(d.to, output.datagrams);
            }
        }
        handed
    }

    /// One frame: deliver everything due by `frame × frame_ms`, tick
    /// every running slot in index order with the state `state_of` gives
    /// it, then flush the transport. `on_output(slot, output)` sees every
    /// output — deliveries' and ticks' — before its datagrams go on the
    /// wire, and what it leaves in `output.datagrams` is what is sent.
    /// Returns how many deliveries were handed to a core.
    pub fn step(
        &mut self,
        frame: u64,
        mut state_of: impl FnMut(usize) -> PlayerFrame,
        mut on_output: impl FnMut(usize, &mut CoreOutput),
    ) -> usize {
        let handed = self.deliver(frame, frame as f64 * self.frame_ms, &mut on_output, true);
        for i in 0..self.cores.len() {
            if !self.is_running(i) {
                continue;
            }
            let state = state_of(i);
            let core = self.cores[i].as_mut().expect("running slot is seated");
            let mut output =
                timed(self.timers.as_ref().map(|(ms, _)| ms), || core.tick(frame, &state));
            on_output(i, &mut output);
            self.send(i, output.datagrams);
        }
        self.net.flush();
        handed
    }

    /// The end-of-match drain: deliver everything due by `horizon_ms`
    /// to its receiver at `frame`, reporting outputs but sending
    /// nothing — the match is over. Returns how many deliveries were
    /// handed to a core.
    pub fn deliver_until(
        &mut self,
        frame: u64,
        horizon_ms: f64,
        mut on_output: impl FnMut(usize, &mut CoreOutput),
    ) -> usize {
        self.deliver(frame, horizon_ms, &mut on_output, false)
    }
}

impl Cluster {
    /// Adds every seated node's counts and the network's to `registry`:
    /// a driver calls it once, when the run is over.
    pub fn publish(&self, registry: &Registry) {
        for core in self.cores.iter().flatten() {
            core.node().publish(registry);
        }
        self.net.stats().publish(registry);
    }
}

/// The event counts [`Verdicts::publish`] adds, and their help text.
const COUNTS: [(&str, &str); 3] = [
    ("node_bad_signatures_total", "messages rejected for signature failure"),
    ("node_replays_total", "messages rejected as replayed or stale"),
    ("proxy_handoffs_received_total", "handoff notices accepted from predecessors"),
];

/// The one verdict classifier: a severe rating
/// (`CheatRating::is_suspicious`, every gate's bar) on a scripted cheater
/// detects it, on anyone else it is a false verdict. It is also where a
/// run counts the events the nodes emit, once: rejections, suspicions by
/// check and handoffs received.
#[derive(Debug, Clone, Default)]
pub struct Verdicts {
    /// Each scripted cheater's id and the severe ratings it drew.
    per_cheater: Vec<(u32, u64)>,
    /// Severe ratings on players nobody scripted to cheat.
    pub false_verdicts: u64,
    /// Datagrams rejected for a bad signature.
    pub bad_signatures: u64,
    /// Datagrams rejected as replayed or stale.
    pub replays: u64,
    /// Ratings of every severity, per check.
    pub suspicions: BTreeMap<&'static str, u64>,
    /// Handoff notices accepted from a predecessor.
    pub handoffs_received: u64,
}

impl Verdicts {
    /// Nothing counted yet, for a match whose cheaters are `cheaters`.
    #[must_use]
    pub fn new(cheaters: &[u32]) -> Self {
        Verdicts { per_cheater: cheaters.iter().map(|&c| (c, 0)).collect(), ..Self::default() }
    }

    /// Classifies the severe ratings among `events` and counts the rest.
    pub fn note(&mut self, events: &[NodeEvent]) {
        for e in events {
            match *e {
                NodeEvent::Suspicion { subject, rating, check } => {
                    *self.suspicions.entry(check).or_default() += 1;
                    if !rating.is_suspicious() {
                        continue;
                    }
                    match self.per_cheater.iter_mut().find(|(c, _)| *c == subject.0) {
                        Some((_, n)) => *n += 1,
                        None => self.false_verdicts += 1,
                    }
                }
                NodeEvent::BadSignature { .. } => self.bad_signatures += 1,
                NodeEvent::Replay { .. } => self.replays += 1,
                NodeEvent::HandoffReceived { .. } => self.handoffs_received += 1,
                _ => {}
            }
        }
    }

    /// Adds the event counts to `registry`: a driver calls it once, when
    /// the run is over.
    pub fn publish(&self, registry: &Registry) {
        registry.add_counts(&COUNTS, [self.bad_signatures, self.replays, self.handoffs_received]);
        registry.describe("node_suspicions_total", "verification checks that flagged a player");
        for (&check, &n) in &self.suspicions {
            registry.counter_with("node_suspicions_total", &[("check", check)]).add(n);
        }
    }

    /// Severe ratings on all the cheaters together.
    #[must_use]
    pub fn severe(&self) -> u64 {
        self.per_cheater.iter().map(|&(_, n)| n).sum()
    }

    /// Whether there were cheaters and each drew a severe rating.
    #[must_use]
    pub fn detected(&self) -> bool {
        !self.per_cheater.is_empty() && self.per_cheater.iter().all(|&(_, n)| n > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use watchmen_core::rating::{CheatRating, Confidence};
    use watchmen_core::sans_io::secured_cores;
    use watchmen_core::verify::checks;
    use watchmen_core::WatchmenConfig;
    use watchmen_crypto::schnorr::{Keypair, PublicKey};
    use watchmen_net::fault::{FaultPlan, GilbertElliott};
    use watchmen_net::latency;

    use crate::workload::{match_workload, Workload};

    const N: usize = 5;
    const SEED: u64 = 0xc1;
    const FRAME_MS: f64 = 50.0;

    fn cluster(slots: usize, plan: FaultPlan) -> (Cluster, Workload) {
        let workload = match_workload(N, SEED, 60);
        let keys: Vec<Keypair> = (0..N).map(|i| Keypair::generate(SEED ^ i as u64)).collect();
        let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
        let mut net = SimNetwork::new(slots, latency::constant(8.0), 0.0, SEED);
        net.set_fault_plan(plan);
        let cores =
            secured_cores(&keys, &directory, None, SEED, WatchmenConfig::default(), &workload.map);
        (Cluster::new(cores, net, FRAME_MS), workload)
    }

    /// Steps frame `f`; returns what `on_output` saw, in order: `(slot,
    /// came from a delivery, generation frame of the newest update in it)`.
    fn step(c: &mut Cluster, w: &Workload, f: u64) -> Vec<(usize, bool, Option<u64>)> {
        // `state_of(i)` runs right before slot i's tick, so any output
        // seen from slot i before that came from a delivery.
        let ticked = RefCell::new(vec![false; c.cores.len()]);
        let mut log = Vec::new();
        c.step(
            f,
            |i| {
                ticked.borrow_mut()[i] = true;
                w.trace.frames[f as usize].states[i]
            },
            |i, out| {
                let newest = out.events.iter().filter_map(|e| match e {
                    NodeEvent::Delivery { gen_frame, .. } => Some(*gen_frame),
                    _ => None,
                });
                log.push((i, !ticked.borrow()[i], newest.max()));
            },
        );
        log
    }

    /// A datagram sent by the tick of frame `f` over an 8 ms link is
    /// handled with `now_frame = f + 1`, before any slot ticks `f + 1`.
    #[test]
    fn deliveries_are_handled_one_frame_later_and_before_the_tick() {
        let (mut c, w) = cluster(N, FaultPlan::new(1));
        let first = step(&mut c, &w, 0);
        assert_eq!(
            first.iter().map(|&(i, d, _)| (i, d)).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4].map(|i| (i, false))
        );
        assert!(c.net.stats().delivered == 0 && c.net.in_flight() > 0, "frame 0 is on the wire");

        let second = step(&mut c, &w, 1);
        let first_tick = second.iter().position(|&(_, delivery, _)| !delivery).unwrap();
        assert!(first_tick > 0, "frame 0's datagrams arrive in frame 1");
        assert!(
            second[first_tick..].iter().all(|&(_, delivery, _)| !delivery),
            "deliver, then tick"
        );
        assert!(second[..first_tick].iter().any(|&(.., newest)| newest == Some(0)));
    }

    /// Empty, crashed and offline slots neither handle nor tick, and a
    /// crashed one comes back when its window ends.
    #[test]
    fn idle_slots_neither_tick_nor_handle() {
        let plan = FaultPlan::new(1)
            .with_crash(1, 2.0 * FRAME_MS, 6.0 * FRAME_MS)
            .with_leave(3, 4.0 * FRAME_MS);
        let (mut c, w) = cluster(N + 1, plan); // slot 5 is never seated
        for f in 0..10 {
            let seen: Vec<usize> = step(&mut c, &w, f).iter().map(|&(i, ..)| i).collect();
            assert!(!seen.contains(&N), "frame {f}: the empty slot ran");
            assert_eq!(seen.contains(&1), !(2..6).contains(&f), "frame {f}: crash window");
            assert_eq!(seen.contains(&3), f < 4, "frame {f}: leaver");
        }
    }

    #[test]
    fn deliver_until_sends_nothing() {
        let (mut c, w) = cluster(N, FaultPlan::new(1));
        for f in 0..20 {
            step(&mut c, &w, f);
        }
        let before = c.net.stats();
        let mut handled = 0;
        c.deliver_until(20, 21.0 * FRAME_MS, |_, _| handled += 1);
        let after = c.net.stats();
        assert!(handled > 0 && handled == before.in_flight, "everything in flight was handed over");
        assert_eq!((after.sent, after.in_flight), (before.sent, 0), "the drain sent nothing");
    }

    #[test]
    fn conservation_holds_after_a_faulted_run() {
        let plan = FaultPlan::new(9)
            .with_burst_loss(GilbertElliott::with_mean_loss(0.05))
            .with_duplication(0.05)
            .with_reordering(0.25, 40.0)
            .with_crash(2, 500.0, 1500.0);
        let (mut c, w) = cluster(N, plan);
        for f in 0..60 {
            step(&mut c, &w, f);
        }
        let stats = c.net.stats();
        stats.assert_invariant("faulted cluster run");
        assert!(stats.dropped > 0 && stats.duplicated > 0, "the plan never engaged: {stats:?}");
    }

    /// A timed cluster records one observation per call into a core, and
    /// two clusters timed into one registry share its histograms.
    #[test]
    fn time_into_records_each_call_into_a_core() {
        let registry = Registry::new();
        let mut handed = 0;
        for _ in 0..2 {
            let (mut c, w) = cluster(N, FaultPlan::new(1));
            c.time_into(&registry);
            for f in 0..10 {
                handed += c.step(f, |i| w.trace.frames[f as usize].states[i], |_, _| {});
            }
        }
        assert!(handed > 0, "nothing was delivered");
        assert_eq!(registry.histogram("node_tick_duration_ms").count(), 2 * 10 * N as u64);
        assert_eq!(registry.histogram("node_handle_message_duration_ms").count(), handed as u64);
    }

    #[test]
    fn verdicts_classify_severe_ratings_by_subject() {
        let suspicion = |subject, score, check| NodeEvent::Suspicion {
            subject: PlayerId(subject),
            rating: CheatRating::new(score, Confidence::Proxy, 0),
            check,
        };
        let mut v = Verdicts::new(&[4, 2]);
        v.note(&[suspicion(2, 10, checks::POSITION)]);
        assert_eq!((v.per_cheater.clone(), v.false_verdicts), (vec![(4, 0), (2, 1)], 0), "cheater");
        v.note(&[suspicion(1, 10, checks::POSITION)]);
        assert_eq!((v.severe(), v.false_verdicts), (1, 1), "honest player");
        v.note(&[suspicion(4, 1, checks::EPOCH_SUMMARY), suspicion(3, 1, checks::EPOCH_SUMMARY)]);
        assert_eq!((v.severe(), v.false_verdicts), (1, 1), "clean epoch summaries");
        assert!(!v.detected(), "cheater 4 drew no severe rating");
        v.note(&[NodeEvent::BadSignature { claimed_from: PlayerId(1) }]);
        assert_eq!((v.bad_signatures, v.severe(), v.false_verdicts), (1, 1, 1), "bad signature");
        v.note(&[
            NodeEvent::Replay { from: PlayerId(3) },
            NodeEvent::HandoffReceived { player: PlayerId(2), worst_rating: 10 },
        ]);
        assert_eq!((v.replays, v.handoffs_received, v.suspicions[checks::POSITION]), (1, 1, 2));
        let registry = Registry::new();
        v.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_sum("node_suspicions_total"), 4, "position 2, epoch-summary 2");
        assert_eq!(snap.counter_sum("node_replays_total"), 1);
    }
}
