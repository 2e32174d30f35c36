//! The `hostile16` script: the churn schedule of `tests/churn_e2e.rs`
//! over a faulted network, plus a benchmark-side adversary on the wire.
//!
//! The adversary only touches traffic that originates from the twelve
//! veterans who stay for the whole match, so that every injection maps to
//! exactly one event whatever the churn does around it: a flipped
//! signature bit is one `BadSignature`, a re-delivered data datagram is
//! one `Replay`. (Traffic from a departed or not-yet-admitted origin is
//! dropped as stale before either check, and would make the counts depend
//! on roster timing.)

use watchmen::core::msg::SignedEnvelope;
use watchmen::core::node::WatchmenNode;
use watchmen::core::sans_io::ProtocolCore;
use watchmen::core::WatchmenConfig;
use watchmen::game::PlayerId;
use watchmen::net::fault::{FaultPlan, GilbertElliott};
use watchmen::net::{Delivery, SimNetwork};
use watchmen::world::PhysicsConfig;

use crate::counts::{label_index, Counts};
use crate::matches::{ClusterParts, Ledger, MatchSpec};
use crate::probe::{Layer, Probe};
use crate::stats::{derive_seed, SplitMix64};

/// Frames of play before the drain period.
pub const PLAY_FRAMES: u64 = 840;
/// Frames of drain: retransmissions finish.
pub const DRAIN_FRAMES: u64 = 40;

const JOIN_FRAMES: [u64; Hostile::JOINERS] = [50, 130, 210, 290];
const LEAVES: [(usize, u64); 2] = [(3, 370), (5, 450)];
const CRASHED: [usize; 2] = [7, 9];
const CRASH_FRAME: u64 = 530;

/// Chance per delivered datagram, in permille, of each adversary move.
const TAMPER_PERMILLE: u64 = 10;
const REPLAY_PERMILLE: u64 = 10;
/// A remembered datagram is delivered again this many frames later.
const REPLAY_DELAY_FRAMES: u64 = 2;

struct PendingReplay {
    due: u64,
    to: usize,
    from: usize,
    label: usize,
    bytes: Vec<u8>,
}

pub struct Hostile {
    veterans: usize,
    period: u64,
    seed: u64,
    rng: SplitMix64,
    join_cursor: usize,
    pending: Vec<PendingReplay>,
    boundaries_checked: u64,
}

impl Hostile {
    pub const JOINERS: usize = 4;

    pub fn new(spec: &MatchSpec, config: &WatchmenConfig) -> Self {
        Hostile {
            veterans: spec.players,
            period: config.proxy_period,
            seed: spec.seed,
            rng: SplitMix64::new(derive_seed(spec.seed, 0x7368_696d, 0)),
            join_cursor: 0,
            pending: Vec::new(),
            boundaries_checked: 0,
        }
    }

    /// 5 % Gilbert–Elliott burst loss, 1 % duplication, reordering, the
    /// scripted joins, leaves and crashes.
    pub fn fault_plan(&self, frame_ms: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(derive_seed(self.seed, 0x6661_756c, 0))
            .with_burst_loss(GilbertElliott::with_mean_loss(0.05))
            .with_duplication(0.01)
            .with_reordering(0.25, 40.0);
        for (j, &f) in JOIN_FRAMES.iter().enumerate() {
            plan = plan.with_join(self.veterans + j, f as f64 * frame_ms);
        }
        for &(leaver, announce) in &LEAVES {
            // Unplug a few frames after the announced departure boundary,
            // leaving room for final acks.
            let unplug =
                ((announce.div_ceil(self.period) + 1) * self.period + 10) as f64 * frame_ms;
            plan = plan.with_leave(leaver, unplug);
        }
        for &c in &CRASHED {
            plan = plan.with_crash(c, CRASH_FRAME as f64 * frame_ms, f64::INFINITY);
        }
        plan
    }

    fn is_stable_veteran(&self, origin: usize) -> bool {
        origin < self.veterans
            && !CRASHED.contains(&origin)
            && !LEAVES.iter().any(|&(l, _)| l == origin)
    }

    /// The scripted churn due at frame `f`: mid-game admissions and leave
    /// announcements.
    pub fn before_frame<P: Probe>(
        &mut self,
        f: u64,
        parts: ClusterParts<'_>,
        net: &mut SimNetwork<Vec<u8>>,
        ledger: &mut Ledger<'_>,
        probe: &mut P,
    ) {
        if self.join_cursor < Self::JOINERS && f == JOIN_FRAMES[self.join_cursor] {
            let idx = self.veterans + self.join_cursor;
            self.join_cursor += 1;
            probe.lap(Layer::DriverScript);
            let admitted = parts.lobby.admit_midgame(parts.keys[idx].public(), f);
            probe.lap(Layer::LobbyAdmit);
            match admitted {
                Ok((id, ticket, roster)) if id.index() == idx => {
                    let lobby_key = parts.lobby.lobby_key().expect("lobby has keys");
                    parts.cores[idx] = Some(ProtocolCore::new(WatchmenNode::new_joining(
                        id,
                        parts.keys[idx].clone(),
                        roster,
                        ticket,
                        lobby_key,
                        self.seed,
                        *parts.config,
                        parts.map.clone(),
                        PhysicsConfig::default(),
                    )));
                    probe.lap(Layer::NodeChurn);
                }
                Ok((id, ..)) => {
                    ledger.fail(format!("frame {f}: lobby gave id {} to joiner {idx}", id.0))
                }
                Err(e) => ledger.fail(format!("frame {f}: mid-game admission refused: {e:?}")),
            }
        }
        for &(leaver, announce) in &LEAVES {
            if f == announce {
                probe.lap(Layer::DriverScript);
                parts.lobby.leave(PlayerId(leaver as u32), f);
                let out =
                    parts.cores[leaver].as_mut().expect("leaver is a veteran").announce_leave(f);
                probe.lap(Layer::NodeChurn);
                ledger.counts.tick_out += out.datagrams.len() as u64;
                for o in out.datagrams {
                    let size = o.bytes.len();
                    ledger.counts.wire_bytes += size as u64;
                    net.send(leaver, o.to.index(), o.bytes, size);
                }
                probe.lap(Layer::SimSend);
            }
        }
    }

    /// The adversary's two moves on a datagram about to be delivered: flip
    /// one signature bit, or remember it for a later re-delivery.
    pub fn tamper_or_remember(&mut self, f: u64, d: &mut Delivery<Vec<u8>>, counts: &mut Counts) {
        let tamper = self.rng.chance(TAMPER_PERMILLE);
        let remember = !tamper && self.rng.chance(REPLAY_PERMILLE);
        if !tamper && !remember {
            return;
        }
        let Ok(msg) = SignedEnvelope::decode(&d.payload) else { return };
        if !self.is_stable_veteran(msg.envelope.from.index()) {
            return;
        }
        let label = label_index(msg.envelope.payload.label());
        if tamper {
            let len = d.payload.len();
            let at =
                len - 1 - self.rng.below(watchmen::crypto::schnorr::SIGNATURE_LEN as u64) as usize;
            d.payload[at] ^= 1 << self.rng.below(8);
            counts.shim_tampered += 1;
        } else if !msg.envelope.payload.is_control() {
            // Control traffic is idempotent by design: a duplicate is
            // re-acked, not flagged, so only data makes a countable replay.
            self.pending.push(PendingReplay {
                due: f + REPLAY_DELAY_FRAMES,
                to: d.to,
                from: d.from,
                label,
                bytes: d.payload.clone(),
            });
        }
    }

    /// Re-delivers remembered datagrams that are due, to receivers still up.
    pub fn redeliver_due<P: Probe>(
        &mut self,
        f: u64,
        parts: ClusterParts<'_>,
        net: &mut SimNetwork<Vec<u8>>,
        ledger: &mut Ledger<'_>,
        probe: &mut P,
    ) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].due > f {
                i += 1;
                continue;
            }
            let r = self.pending.swap_remove(i);
            if net.is_crashed(r.to) || net.is_offline(r.to) {
                continue;
            }
            ledger.counts.shim_replayed += 1;
            // The same spans and tallies as a delivery in the main loop.
            let core = parts.cores[r.to].as_mut().expect("a datagram was delivered to it");
            probe.lap(Layer::DriverScript);
            let output = core.datagram(f, PlayerId(r.from as u32), &r.bytes);
            let ns = probe.lap(Layer::Datagram);
            probe.note_label(r.label, ns);
            if P::TRACED {
                ledger.counts.label[r.label] += 1;
            }
            ledger.counts.datagrams_in += 1;
            ledger.counts.relay_out += output.datagrams.len() as u64;
            ledger.events(&output.events, r.to, f, parts.lobby, probe);
            probe.lap(Layer::DriverEvents);
            for o in output.datagrams {
                let size = o.bytes.len();
                ledger.counts.wire_bytes += size as u64;
                net.send(r.to, o.to.index(), o.bytes, size);
            }
            probe.lap(Layer::SimSend);
        }
    }

    /// At every renewal boundary, every online active member must hold the
    /// identical roster epoch and digest. Runs between frames, untimed.
    pub fn check_boundary(
        &mut self,
        f: u64,
        parts: ClusterParts<'_>,
        net: &SimNetwork<Vec<u8>>,
        ledger: &mut Ledger<'_>,
    ) {
        if f == 0 || !f.is_multiple_of(self.period) {
            return;
        }
        let views: Vec<(usize, u64, [u8; 32])> = parts
            .cores
            .iter()
            .enumerate()
            .filter(|(i, _)| !net.is_crashed(*i) && !net.is_offline(*i))
            .filter_map(|(i, c)| {
                let n = c.as_ref()?.node();
                n.is_active_member().then(|| (i, n.roster_epoch(), n.roster_digest()))
            })
            .collect();
        if let Some(&(first, e0, d0)) = views.first() {
            for &(i, e, d) in &views {
                if (e, d) != (e0, d0) {
                    ledger.fail(format!(
                        "boundary {f}: node {i} roster (epoch {e}) diverged from node {first}'s (epoch {e0})"
                    ));
                    break;
                }
            }
        }
        self.boundaries_checked += 1;
    }

    /// After the drain: the whole lifecycle ran, the faults bit, and the
    /// rejected traffic is exactly what the adversary injected.
    pub fn check_end(
        &self,
        parts: ClusterParts<'_>,
        net: &SimNetwork<Vec<u8>>,
        ledger: &mut Ledger<'_>,
    ) {
        let counts = &ledger.counts;
        let mut fail = |msg: String| ledger.failures.push(msg);
        if self.boundaries_checked < 20 {
            fail(format!("only {} roster boundaries checked", self.boundaries_checked));
        }
        for j in self.veterans..self.veterans + Self::JOINERS {
            match parts.cores[j].as_ref().map(ProtocolCore::node) {
                Some(n) if n.is_active_member() && n.churn_stats().bootstraps_received >= 1 => {}
                Some(_) => fail(format!("joiner {j} never became an active, bootstrapped member")),
                None => fail(format!("joiner {j} was never admitted")),
            }
        }
        let witness = parts.cores[0].as_ref().expect("node 0 stays").node();
        let cs = witness.churn_stats();
        if (cs.joins_applied, cs.leaves_applied, cs.evictions_applied)
            != (Self::JOINERS as u64, LEAVES.len() as u64, CRASHED.len() as u64)
        {
            fail(format!("churn lifecycle incomplete at node 0: {cs:?}"));
        }
        let expected_active = self.veterans - LEAVES.len() - CRASHED.len() + Self::JOINERS;
        if witness.roster().active_count() != expected_active {
            fail(format!(
                "node 0 sees {} active members, expected {expected_active}",
                witness.roster().active_count()
            ));
        }
        let stats = net.stats();
        if stats.dropped <= 100 {
            fail(format!("loss plan never engaged: {stats:?}"));
        }
        for (i, c) in parts.cores.iter().enumerate() {
            if net.is_crashed(i) || net.is_offline(i) {
                continue;
            }
            if let Some(c) = c {
                let abandoned = c.node().control_stats().abandoned;
                if abandoned > 0 {
                    fail(format!("node {i} abandoned {abandoned} control chains"));
                }
            }
        }
        if counts.ev_bad_signature != counts.shim_tampered {
            fail(format!(
                "{} signatures tampered, {} BadSignature events",
                counts.shim_tampered, counts.ev_bad_signature
            ));
        }
        // The network's own 1 % duplication also re-delivers data
        // datagrams; each is one more Replay, bounded by `duplicated`.
        let lo = counts.shim_replayed;
        let hi = counts.shim_replayed + stats.duplicated;
        if counts.ev_replay < lo || counts.ev_replay > hi {
            fail(format!("{} Replay events, expected {lo}..={hi}", counts.ev_replay));
        }
    }
}
