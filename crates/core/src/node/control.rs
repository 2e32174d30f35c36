//! The reliable control plane — every control message this node signs
//! stays pending until acked, retransmitted or abandoned — and the
//! per-peer liveness view that decides when a proxy is presumed crashed
//! and traffic walks the shared schedule's fallback draws instead.

use std::collections::BTreeMap;

use watchmen_game::PlayerId;

use super::{Inbound, Outgoing, WatchmenNode};
use crate::msg::{Envelope, Payload};
use crate::proxy::ProxySchedule;
use crate::sans_io::CoreOutput;
use crate::WatchmenConfig;

/// Counters of the reliable control plane, per node. All monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlPlaneStats {
    /// Control messages re-sent after an ack timeout.
    pub retransmits: u64,
    /// Acks this node emitted for processed control messages.
    pub acks_sent: u64,
    /// Acks received that retired a pending control message.
    pub acks_received: u64,
    /// Control messages abandoned after the retry budget — the
    /// "unrecovered chain" counter; nonzero means a peer never answered.
    pub abandoned: u64,
    /// Pending control resolved without an ack: subscriptions the new
    /// epoch's refresh supersedes, traffic for a departed member, and
    /// retransmits whose fallback target turned out to be this node.
    pub superseded: u64,
    /// Times this node switched its own publishing to a fallback proxy
    /// after presuming the scheduled one crashed.
    pub proxy_fallbacks: u64,
}

/// Field-wise sum: how a driver totals its nodes' counters.
impl std::ops::AddAssign for ControlPlaneStats {
    fn add_assign(&mut self, other: Self) {
        self.retransmits += other.retransmits;
        self.acks_sent += other.acks_sent;
        self.acks_received += other.acks_received;
        self.abandoned += other.abandoned;
        self.superseded += other.superseded;
        self.proxy_fallbacks += other.proxy_fallbacks;
    }
}

/// Which reliable-control class a pending message belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlKind {
    Subscribe,
    Unsubscribe,
    Handoff,
    /// Churn lifecycle traffic (leave/join/evict/bootstrap): addressed to
    /// a specific peer, never re-routed through a proxy recomputation,
    /// and never superseded by an epoch turnover — membership changes
    /// stay pending until acked or abandoned.
    Direct,
}

/// An unacknowledged control message awaiting ack or retransmission.
#[derive(Debug, Clone)]
struct PendingControl {
    kind: ControlKind,
    /// Current destination (recomputed on retransmit — the responsible
    /// proxy may have fallen back since the original send).
    to: PlayerId,
    /// The exact signed bytes: every retransmission is byte-identical,
    /// so receivers can deduplicate and re-ack cheaply.
    bytes: Vec<u8>,
    /// Whose proxy the message must reach, and the frame whose epoch
    /// determines that proxy — the inputs to destination recomputation.
    route_player: PlayerId,
    route_frame: u64,
    /// Frame the envelope was generated in (for epoch supersession).
    sent_frame: u64,
    /// Retransmissions performed so far.
    attempts: u32,
    /// Frame at (or after) which the next retransmission fires.
    next_retry: u64,
}

#[derive(Debug)]
pub(super) struct Control {
    /// Unacked control messages keyed by envelope sequence number.
    pending: BTreeMap<u64, PendingControl>,
    stats: ControlPlaneStats,
    /// Per-peer liveness: the newest frame each peer produced evidence of
    /// life for (wire receipt or a verified signed envelope).
    pub(super) last_heard: Vec<u64>,
    /// The last frame this node ticked — gaps mean this node itself was
    /// down and its liveness view is stale.
    last_tick: Option<u64>,
    /// Whether the last frame published to a fallback proxy (edge-triggers
    /// the fallback counter so one outage counts once, not per frame).
    fallback_active: bool,
}

impl Control {
    pub(super) fn new(players: usize) -> Self {
        Control {
            pending: BTreeMap::new(),
            stats: ControlPlaneStats::default(),
            last_heard: vec![0; players],
            last_tick: None,
            fallback_active: false,
        }
    }

    /// Notes evidence that `peer` was alive at `frame` (ids beyond the
    /// roster — a joiner not yet admitted here — carry no liveness).
    pub(super) fn heard(&mut self, peer: PlayerId, frame: u64) {
        if let Some(heard) = self.last_heard.get_mut(peer.index()) {
            *heard = (*heard).max(frame);
        }
    }

    /// Advances the tick clock. A gap in this node's own tick sequence
    /// means *it* was down: its silence says nothing about the peers, so
    /// the liveness view resets to "everyone alive now" and `true` tells
    /// the caller its partially observed epoch must not be summarized
    /// (rating players on a partial update count would produce false
    /// cheat verdicts).
    pub(super) fn resume(&mut self, frame: u64) -> bool {
        let gap = self.last_tick.is_some_and(|t| frame > t + 1);
        if gap {
            self.last_heard.fill(frame);
            self.fallback_active = false;
        }
        self.last_tick = Some(frame);
        gap
    }

    /// Retires the pending control message an ack names. Any verified
    /// origin's ack is honored: a forged ack requires a directory private
    /// key, and its only effect is to stop retransmission (see DESIGN.md
    /// §9 for the caveat).
    pub(super) fn on_ack(&mut self, ack_seq: u64) {
        if self.pending.remove(&ack_seq).is_some() {
            self.stats.acks_received += 1;
        }
    }

    /// The new epoch's subscription refreshes supersede any pending
    /// subscription traffic from the finished epoch (its target proxy is
    /// obsolete); handoffs keep retrying until acked, and churn lifecycle
    /// traffic outlives boundaries by design.
    pub(super) fn supersede_finished_epoch(&mut self, schedule: &ProxySchedule, frame: u64) {
        let current = schedule.epoch_of(frame);
        self.supersede(|p| {
            matches!(p.kind, ControlKind::Handoff | ControlKind::Direct)
                || schedule.epoch_of(p.sent_frame) == current
        });
    }

    /// Pending control addressed to (or routed for) a departed member is
    /// superseded by its removal, not abandoned.
    pub(super) fn supersede_departed(&mut self, departed: PlayerId) {
        self.supersede(|p| p.to != departed && p.route_player != departed);
    }

    fn supersede(&mut self, keep: impl Fn(&PendingControl) -> bool) {
        let before = self.pending.len();
        self.pending.retain(|_, p| keep(p));
        self.stats.superseded += (before - self.pending.len()) as u64;
    }
}

impl WatchmenNode {
    /// Reliable-control-plane counters (retransmits, acks, fallbacks…).
    #[must_use]
    pub fn control_stats(&self) -> ControlPlaneStats {
        self.control.stats
    }

    /// Handoff notices still awaiting acknowledgement — the "unrecovered
    /// handoff chain" gauge: nonzero after a drain period means a summary
    /// chain link never reached a live successor.
    #[must_use]
    pub fn pending_handoffs(&self) -> usize {
        self.control.pending.values().filter(|p| p.kind == ControlKind::Handoff).count()
    }

    /// Whether `peer` has been silent past the liveness window, judged
    /// against `now_frame`. A node never presumes itself crashed, and a
    /// node that has itself just resumed from a gap trusts everyone until
    /// fresh evidence accumulates (its own silence is not the peers').
    fn presumed_crashed(&self, peer: PlayerId, now_frame: u64) -> bool {
        if peer == self.id {
            return false;
        }
        // A departed (or not-yet-admitted) member never serves: skip it
        // in fallback walks even when old-epoch draws still name it.
        if !self.roster.is_active(peer) {
            return true;
        }
        now_frame.saturating_sub(self.control.last_heard[peer.index()])
            > self.config.liveness_timeout_frames()
    }

    /// The proxy of `player` for the epoch containing frame `sched`, as
    /// this node would address it at frame `now`: the first of the
    /// plausible proxies ([`ProxySchedule::plausible_proxies`]) not
    /// presumed crashed, or the deepest fallback when all are. The walk is
    /// deterministic given a liveness view, and bounded, so every honest
    /// node lands within the same small plausible set without any
    /// election traffic.
    pub(super) fn effective_proxy(&self, player: PlayerId, sched: u64, now: u64) -> PlayerId {
        let mut last = player;
        for pick in self.schedule.plausible_proxies(player, sched) {
            if !self.presumed_crashed(pick, now) {
                return pick;
            }
            last = pick;
        }
        last
    }

    /// Whether this node is a plausible proxy of `player`: receivers
    /// accept duty for the whole plausible set.
    pub(super) fn plausibly_proxy_of(&self, player: PlayerId, sched_frame: u64) -> bool {
        player != self.id
            && self.schedule.plausible_proxies(player, sched_frame).any(|p| p == self.id)
    }

    /// This frame's publishing targets, `(scheduled, effective)`: the
    /// scheduled draw, or the next deterministic fallback draw when that
    /// pick looks crashed. The fallback counter edge-triggers so one
    /// outage counts once.
    pub(super) fn publish_target(&mut self, frame: u64) -> (PlayerId, PlayerId) {
        let scheduled = self.proxy(frame);
        let effective = self.effective_proxy(self.id, frame, frame);
        if effective == scheduled {
            self.control.fallback_active = false;
        } else if !self.control.fallback_active {
            self.control.fallback_active = true;
            self.control.stats.proxy_fallbacks += 1;
        }
        (scheduled, effective)
    }

    /// Signs `payload` from this node and queues it for `to`. Control
    /// messages enter the reliable layer: the exact signed bytes are kept
    /// so retransmissions are byte-identical, plus the routing inputs so
    /// a retransmit can re-target a fallback proxy.
    pub(super) fn sign_and_queue(
        &mut self,
        out: &mut CoreOutput,
        to: PlayerId,
        frame: u64,
        payload: Payload,
    ) {
        self.seq += 1;
        let env = Envelope { from: self.id, seq: self.seq, frame, payload };
        let bytes = env.sign_encoded(&self.keys);
        let route = match payload {
            Payload::Subscribe { .. } => Some((ControlKind::Subscribe, self.id, frame)),
            Payload::Unsubscribe { .. } => Some((ControlKind::Unsubscribe, self.id, frame)),
            Payload::Handoff(n) => {
                Some((ControlKind::Handoff, n.player, (n.epoch + 1) * self.config.proxy_period))
            }
            Payload::Leave { .. }
            | Payload::Join(_)
            | Payload::Evict { .. }
            | Payload::Bootstrap(_) => Some((ControlKind::Direct, to, frame)),
            _ => None,
        };
        if let Some((kind, route_player, route_frame)) = route {
            let pending = PendingControl {
                kind,
                to,
                bytes: bytes.clone(),
                route_player,
                route_frame,
                sent_frame: frame,
                attempts: 0,
                next_retry: frame + WatchmenConfig::RETRANSMIT_TIMEOUT_FRAMES,
            };
            self.control.pending.insert(self.seq, pending);
        }
        out.datagrams.push(Outgoing { to, bytes });
    }

    pub(super) fn ack(&mut self, rx: &mut Inbound<'_>) {
        self.queue_ack(rx.out, rx.now, rx.origin, rx.seq);
    }

    /// Queues an ack for control envelope `ack_seq` back to `to`.
    pub(super) fn queue_ack(
        &mut self,
        out: &mut CoreOutput,
        frame: u64,
        to: PlayerId,
        ack_seq: u64,
    ) {
        if to == self.id {
            return;
        }
        self.sign_and_queue(out, to, frame, Payload::Ack { ack_seq });
        self.control.stats.acks_sent += 1;
    }

    /// Retransmits unacked control messages whose ack timeout expired,
    /// with capped exponential backoff, re-routing each retry through the
    /// *current* effective proxy (churn traffic keeps its fixed
    /// destination). Messages that exhaust the retry budget are abandoned
    /// and counted — on a merely lossy network this never fires; it
    /// indicates a dead or unreachable peer.
    pub(super) fn drive_retransmits(&mut self, frame: u64, out: &mut CoreOutput) {
        let due: Vec<u64> = self
            .control
            .pending
            .iter()
            .filter(|(_, p)| frame >= p.next_retry)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in due {
            let p = &self.control.pending[&seq];
            if p.attempts >= WatchmenConfig::RETRANSMIT_MAX_ATTEMPTS {
                self.control.pending.remove(&seq);
                self.control.stats.abandoned += 1;
                continue;
            }
            let to = if p.kind == ControlKind::Direct {
                p.to
            } else {
                self.effective_proxy(p.route_player, p.route_frame, frame)
            };
            if to == self.id {
                // The scheduled target looks crashed and the fallback draw
                // is this node: it already holds the duty it was handing
                // over, so the chain is complete. Nothing is ever addressed
                // to oneself (the first send skips the same case).
                self.control.pending.remove(&seq);
                self.control.stats.superseded += 1;
                continue;
            }
            let p = self.control.pending.get_mut(&seq).expect("listed");
            p.attempts += 1;
            p.to = to;
            let backoff = (WatchmenConfig::RETRANSMIT_TIMEOUT_FRAMES << p.attempts.min(32))
                .min(WatchmenConfig::RETRANSMIT_BACKOFF_CAP_FRAMES);
            p.next_retry = frame + backoff;
            out.datagrams.push(Outgoing { to, bytes: p.bytes.clone() });
            self.control.stats.retransmits += 1;
        }
    }
}
