//! The one simnet match driver: N [`ProtocolCore`]s on a
//! [`SimNetwork`], advanced frame by frame under the deliver-then-tick
//! contract of [`watchmen_core::sans_io`]. Every in-process match — the
//! soaks in [`crate::scenario`], the fleet's match cell, the deathmatch
//! and lobby examples — calls [`Cluster::step`]; none of them touches
//! `SimNetwork::advance_to`. What a frame means is decided here, once:
//!
//! 1. virtual time moves to `frame × frame_ms` and everything the
//!    network delivers on the way is handled, in delivery order, with
//!    `now_frame = frame`; whatever a handler emits (relays, acks) goes
//!    on the wire at that instant and arrives in a later frame;
//! 2. then every slot ticks, in index order.
//!
//! A slot is skipped — neither handles nor ticks — while it is empty
//! (a joiner not yet admitted), crashed, or offline under the network's
//! fault plan. The network independently eats traffic to and from such
//! slots; the skip models the dead process not running.

use watchmen_core::node::{Outgoing, WatchmenNode};
use watchmen_core::sans_io::{CoreOutput, ProtocolCore};
use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_net::SimNetwork;

/// N protocol cores on one simulated network. See the module docs.
/// Fields are public: scenarios seat joiners and send out-of-band
/// datagrams, tests inspect nodes and network counters after a run.
pub struct Cluster {
    /// One slot per network node; `None` until a joiner is admitted.
    pub cores: Vec<Option<ProtocolCore>>,
    /// The network between them.
    pub net: SimNetwork<Vec<u8>>,
    /// Virtual milliseconds per protocol frame.
    pub frame_ms: f64,
}

impl Cluster {
    /// Seats `cores` in slots `0..`, leaving the rest of `net`'s nodes
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if there are more cores than network nodes.
    #[must_use]
    pub fn new(
        cores: impl IntoIterator<Item = ProtocolCore>,
        net: SimNetwork<Vec<u8>>,
        frame_ms: f64,
    ) -> Self {
        let mut cores: Vec<Option<ProtocolCore>> = cores.into_iter().map(Some).collect();
        assert!(cores.len() <= net.node_count(), "more cores than network nodes");
        cores.resize_with(net.node_count(), || None);
        Cluster { cores, net, frame_ms }
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

    /// Whether `slot` currently runs: seated, not crashed, not offline.
    #[must_use]
    pub fn is_running(&self, slot: usize) -> bool {
        self.cores[slot].is_some() && !self.net.is_crashed(slot) && !self.net.is_offline(slot)
    }

    /// Puts `datagrams` from `from` on the wire at the current instant.
    pub fn send(&mut self, from: usize, datagrams: Vec<Outgoing>) {
        for o in datagrams {
            let size = o.bytes.len();
            self.net.send(from, o.to.index(), o.bytes, size);
        }
    }

    /// Advances virtual time to `t_ms`, handing each delivery to its
    /// running receiver at `frame`; `forward` decides whether what the
    /// handlers emit goes back on the wire.
    fn deliver(
        &mut self,
        frame: u64,
        t_ms: f64,
        on_output: &mut impl FnMut(usize, &CoreOutput),
        forward: bool,
    ) {
        for d in self.net.advance_to(t_ms) {
            if !self.is_running(d.to) {
                continue;
            }
            let core = self.cores[d.to].as_mut().expect("running slot is seated");
            let output = core.datagram(frame, PlayerId(d.from as u32), &d.payload);
            on_output(d.to, &output);
            if forward {
                self.send(d.to, output.datagrams);
            }
        }
    }

    /// One frame: deliver everything due by `frame × frame_ms`, then tick
    /// every running slot in index order with the state `state_of` gives
    /// it. `on_output(slot, output)` sees every output — deliveries'
    /// and ticks' — before its datagrams go on the wire.
    pub fn step(
        &mut self,
        frame: u64,
        mut state_of: impl FnMut(usize) -> PlayerFrame,
        mut on_output: impl FnMut(usize, &CoreOutput),
    ) {
        self.deliver(frame, frame as f64 * self.frame_ms, &mut on_output, true);
        for i in 0..self.cores.len() {
            if !self.is_running(i) {
                continue;
            }
            let state = state_of(i);
            let output =
                self.cores[i].as_mut().expect("running slot is seated").tick(frame, &state);
            on_output(i, &output);
            self.send(i, output.datagrams);
        }
    }

    /// The end-of-match drain: deliver everything due by `horizon_ms`
    /// to its receiver at `frame`, reporting outputs but sending
    /// nothing — the match is over.
    pub fn deliver_until(
        &mut self,
        frame: u64,
        horizon_ms: f64,
        mut on_output: impl FnMut(usize, &CoreOutput),
    ) {
        self.deliver(frame, horizon_ms, &mut on_output, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use watchmen_core::node::NodeEvent;
    use watchmen_core::sans_io::secured_cores;
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
}
