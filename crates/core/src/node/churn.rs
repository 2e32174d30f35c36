//! Membership churn: mid-game joins, graceful leaves and timeout
//! evictions, each carrying its *effective boundary* so every replica
//! applies it at the same renewal frame, and the joiner's bootstrap.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_game::PlayerId;
use watchmen_telemetry::Gauge;
use watchmen_world::{GameMap, PhysicsConfig};

use super::instrument::Tally;
use super::{Inbound, NodeEvent, ReplayWindow, WatchmenNode};
use crate::membership::MembershipTracker;
use crate::msg::{BootstrapSnapshot, JoinTicket, Payload, SignedEnvelope};
use crate::proxy::ProxySchedule;
use crate::roster::{MemberStatus, Roster, RosterDelta};
use crate::sans_io::CoreOutput;
use crate::WatchmenConfig;

/// Counters of the churn machinery, per node. All monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Mid-game joins applied to this node's roster.
    pub joins_applied: u64,
    /// Graceful leaves applied to this node's roster.
    pub leaves_applied: u64,
    /// Timeout evictions applied to this node's roster.
    pub evictions_applied: u64,
    /// Eviction notices this node announced as a plausible proxy.
    pub evictions_announced: u64,
    /// Bootstrap snapshots this node assembled for joiners.
    pub bootstraps_sent: u64,
    /// Bootstrap snapshots this node received as a joiner.
    pub bootstraps_received: u64,
    /// Messages dropped as superseded churn traffic: unknown or departed
    /// origins. These are *never* scored as cheating — a player removed
    /// from the roster at a boundary keeps emitting for a round-trip, and
    /// a joiner's traffic can outrun its admission by one boundary.
    pub stale_drops: u64,
}

#[derive(Debug)]
pub(super) struct Churn {
    /// The lobby's public key, needed to verify mid-game join tickets.
    /// Without it every join is refused.
    lobby_key: Option<PublicKey>,
    /// This node's own admission ticket (joining nodes only).
    ticket: Option<JoinTicket>,
    /// Whether this (joining) node has announced its ticket yet.
    join_announced: bool,
    /// Verified join tickets awaiting their admission boundary, keyed by
    /// the lobby-assigned id so they apply in dense order.
    pending_joins: BTreeMap<u32, JoinTicket>,
    /// Announced graceful departures awaiting their effective boundary.
    pending_leaves: BTreeMap<PlayerId, u64>,
    /// Corroborated eviction notices awaiting their effective boundary.
    pending_evicts: BTreeMap<PlayerId, u64>,
    /// Players this node has already announced an eviction for.
    announced_evictions: BTreeSet<PlayerId>,
    /// Suspicion tracker feeding timeout evictions from liveness
    /// evidence, on the (longer) membership timeout.
    membership: MembershipTracker,
    joins_applied: Tally,
    leaves_applied: Tally,
    evictions_applied: Tally,
    bootstraps_sent: Tally,
    bootstraps_received: Tally,
    pub(super) stale_drops: Tally,
    evictions_announced: u64,
    roster_active: Arc<Gauge>,
}

impl Churn {
    pub(super) fn new(players: usize, membership_timeout: u64) -> Self {
        Churn {
            lobby_key: None,
            ticket: None,
            join_announced: false,
            pending_joins: BTreeMap::new(),
            pending_leaves: BTreeMap::new(),
            pending_evicts: BTreeMap::new(),
            announced_evictions: BTreeSet::new(),
            membership: MembershipTracker::new(players, membership_timeout),
            joins_applied: Tally::new("node_roster_joins_total"),
            leaves_applied: Tally::new("node_roster_leaves_total"),
            evictions_applied: Tally::new("node_roster_evictions_total"),
            bootstraps_sent: Tally::new("node_bootstraps_sent_total"),
            bootstraps_received: Tally::new("node_bootstraps_received_total"),
            stale_drops: Tally::new("node_stale_drops_total"),
            evictions_announced: 0,
            roster_active: watchmen_telemetry::global().gauge("node_roster_active"),
        }
    }
}

/// Queues a departure for `boundary`, the earliest announced boundary
/// winning — the schedule's earliest-exclusion rule, so replicas converge
/// whichever duplicate notice they saw first.
fn queue_earliest(queue: &mut BTreeMap<PlayerId, u64>, player: PlayerId, boundary: u64) {
    queue.entry(player).and_modify(|e| *e = (*e).min(boundary)).or_insert(boundary);
}

impl WatchmenNode {
    /// Creates a node joining mid-game from a lobby snapshot.
    ///
    /// `roster` is the lobby's membership snapshot with this node already
    /// appended provisionally (see [`Roster::admit_provisional`]); the
    /// lobby-signed `ticket` names this node's id, key and admission
    /// frame. The node announces the ticket to every active member, plays
    /// no part in the protocol until the first renewal boundary at or
    /// after `ticket.admit_frame`, then flips active in lockstep with the
    /// veterans applying the same `Join` delta.
    ///
    /// # Panics
    ///
    /// Panics if the roster does not carry this node as its provisional
    /// last member, or the ticket does not match `id`/`keys`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new_joining(
        id: PlayerId,
        keys: Keypair,
        roster: Roster,
        ticket: JoinTicket,
        lobby_key: PublicKey,
        seed: u64,
        config: WatchmenConfig,
        map: GameMap,
        physics: PhysicsConfig,
    ) -> Self {
        assert_eq!(ticket.player, id, "ticket names a different player");
        assert_eq!(ticket.key, keys.public(), "ticket carries a different key");
        assert_eq!(
            id.index() + 1,
            roster.len(),
            "the joiner must be the roster's provisional last member"
        );
        assert_eq!(roster.status(id), Some(MemberStatus::Joining), "joiner must be provisional");
        // Rebuild the veterans' schedule from the shared seed: departed
        // members excluded (their exact exclusion epochs are unknowable
        // from a status snapshot, but any epoch at or before the
        // admission boundary yields identical draws for every epoch this
        // node will ever act in), and this node admitted at the ticket's
        // boundary — the same `admit_at` every veteran performs.
        let mut schedule = ProxySchedule::new(seed, roster.len() - 1, config.proxy_period);
        for i in 0..roster.len() - 1 {
            if roster.is_departed(PlayerId(i as u32)) {
                let _ = schedule.try_exclude_from(PlayerId(i as u32), 0);
            }
        }
        let admit_epoch = ticket.admit_frame.div_ceil(config.proxy_period);
        let assigned = schedule.admit_at(admit_epoch);
        assert_eq!(assigned, id, "lobby id must be the next dense index");
        let mut node = Self::from_parts(id, keys, roster, schedule, config, map, physics);
        node.control.last_heard.fill(ticket.admit_frame);
        node.churn.lobby_key = Some(lobby_key);
        node.churn.ticket = Some(ticket);
        node.churn.pending_joins.insert(id.0, ticket);
        node
    }

    /// Installs the lobby's public key, enabling mid-game join admission.
    #[must_use]
    pub fn with_lobby_key(mut self, key: PublicKey) -> Self {
        self.churn.lobby_key = Some(key);
        self
    }

    /// Churn counters (joins, leaves, evictions, bootstraps, stale drops).
    #[must_use]
    pub fn churn_stats(&self) -> ChurnStats {
        let c = &self.churn;
        ChurnStats {
            joins_applied: c.joins_applied.count,
            leaves_applied: c.leaves_applied.count,
            evictions_applied: c.evictions_applied.count,
            evictions_announced: c.evictions_announced,
            bootstraps_sent: c.bootstraps_sent.count,
            bootstraps_received: c.bootstraps_received.count,
            stale_drops: c.stale_drops.count,
        }
    }

    /// The node's current membership view.
    #[must_use]
    pub fn roster(&self) -> &Roster {
        &self.roster
    }

    /// The roster epoch (advances once per applied membership delta).
    #[must_use]
    pub fn roster_epoch(&self) -> u64 {
        self.roster.epoch()
    }

    /// Digest of the full membership view, for cross-node agreement
    /// checks at renewal boundaries.
    #[must_use]
    pub fn roster_digest(&self) -> [u8; 32] {
        self.roster.digest()
    }

    /// Whether this node is an active roster member (false while joining
    /// and after leaving/eviction).
    #[must_use]
    pub fn is_active_member(&self) -> bool {
        self.roster.is_active(self.id)
    }

    /// Announces this node's graceful departure to every active member.
    ///
    /// The departure takes effect at the first renewal boundary at least
    /// one full epoch ahead, so the reliable control plane has a whole
    /// epoch of retransmissions to deliver the notice — every honest node
    /// then removes this player at the *same* boundary. The node keeps
    /// playing (and serving its duties) until that boundary, then falls
    /// silent.
    pub(crate) fn announce_leave(&mut self, frame: u64) -> CoreOutput {
        let mut out = CoreOutput::default();
        if self.roster.is_active(self.id) {
            let period = self.config.proxy_period;
            let effective = (frame.div_ceil(period) + 1) * period;
            self.churn.pending_leaves.entry(self.id).or_insert(effective);
            self.broadcast(frame, Payload::Leave { effective_frame: effective }, self.id, &mut out);
        }
        out
    }

    /// One-shot announcement of this (joining) node's lobby ticket to
    /// every active member, via the reliable control plane.
    pub(super) fn announce_join(&mut self, frame: u64, out: &mut CoreOutput) {
        if self.churn.join_announced {
            return;
        }
        self.churn.join_announced = true;
        let ticket = self.churn.ticket.expect("a joining node holds its ticket");
        self.broadcast(frame, Payload::Join(ticket), self.id, out);
    }

    /// Signs `payload` to every active member but this node and `except`,
    /// each copy its own reliable control message.
    fn broadcast(&mut self, frame: u64, payload: Payload, except: PlayerId, out: &mut CoreOutput) {
        let me = self.id;
        for p in self.roster.active_players() {
            if p != me && p != except {
                self.sign_and_queue(out, p, frame, payload);
            }
        }
    }

    /// The boundary step of the churn machinery, run first thing on every
    /// renewal frame:
    ///
    /// 1. announce evictions of silent players this node plausibly
    ///    proxies ([`Self::announce_evictions`]);
    /// 2. apply every queued delta whose effective boundary has arrived:
    ///    departures exclude the player from the schedule *from the
    ///    announced epoch on* (history preserved for in-flight handoffs
    ///    and finished-epoch summaries), joins admit the next dense id at
    ///    the ticket's boundary;
    /// 3. drain state attached to departed members (duties, knowledge,
    ///    subscriptions, pending control), and send the bootstrap
    ///    snapshot to any joiner this node is first proxy of.
    pub(super) fn apply_roster_boundary(&mut self, frame: u64, out: &mut CoreOutput) {
        if self.roster.is_active(self.id) {
            self.announce_evictions(frame, out);
        }
        let (mut deltas, departed) = self.due_departures(frame);
        let joined = self.due_joins(frame, &mut deltas);
        if deltas.is_empty() {
            return;
        }
        let applied = self.roster.apply(&deltas);
        debug_assert_eq!(applied, deltas.len(), "pre-filtered deltas must all apply");
        for &j in &joined {
            if j != self.id {
                self.churn.joins_applied.inc();
            }
        }
        for &d in &departed {
            self.churn.pending_evicts.remove(&d);
            self.churn.pending_leaves.remove(&d);
            self.duty.forget(d);
            self.knowledge.forget(d);
            self.control.supersede_departed(d);
        }
        for &j in &joined {
            self.churn.pending_joins.remove(&j.0);
            // The joiner's first proxy reliably sends it the freshest known
            // states of up to `join_bootstrap_depth` active players, so its
            // interest/vision pipelines converge within its first epoch
            // instead of waiting out the 1 Hz trickle.
            if j != self.id && self.effective_proxy(j, frame, frame) == self.id {
                let depth = self.config.join_bootstrap_depth;
                let snapshot = self.knowledge.snapshot(&self.roster, j, depth);
                self.sign_and_queue(out, j, frame, Payload::Bootstrap(snapshot));
                self.churn.bootstraps_sent.inc();
            }
        }
        let active = self.roster.active_count();
        self.churn.roster_active.set(active as i64);
        out.events.push(NodeEvent::RosterChanged { epoch: self.roster.epoch(), active });
    }

    /// Feeds liveness evidence into the membership tracker and announces
    /// evictions for players this node plausibly proxies whose silence
    /// exceeded the membership timeout — only plausible proxies announce
    /// (a bounded announcer set, no election traffic), and the signed
    /// notice carries the effective boundary, which is what makes timeout
    /// evictions deterministic across nodes with (slightly) different
    /// evidence.
    fn announce_evictions(&mut self, frame: u64, out: &mut CoreOutput) {
        for i in 0..self.roster.len() {
            let p = PlayerId(i as u32);
            if p != self.id && self.roster.is_active(p) {
                self.churn.membership.observe(p, self.control.last_heard[p.index()]);
            }
        }
        let suspects: Vec<PlayerId> = self
            .churn
            .membership
            .suspects(frame)
            .into_iter()
            .filter(|&p| {
                p != self.id
                    && self.roster.is_active(p)
                    && !self.churn.announced_evictions.contains(&p)
                    && self.plausibly_proxy_of(p, frame)
            })
            .collect();
        for p in suspects {
            let effective = frame + self.config.proxy_period;
            self.churn.announced_evictions.insert(p);
            queue_earliest(&mut self.churn.pending_evicts, p, effective);
            self.churn.evictions_announced += 1;
            self.broadcast(frame, Payload::Evict { player: p, effective_frame: effective }, p, out);
        }
    }

    /// The departures due at `frame`, evictions first, each excluded from
    /// the schedule from its announced epoch on: `try_exclude_from` keeps
    /// the earliest across duplicate notices, so replicas converge even
    /// when racing announcers named different boundaries. A rejection
    /// means the pool would empty — the member leaves the roster but
    /// stays drawable: degraded mode.
    fn due_departures(&mut self, frame: u64) -> (Vec<RosterDelta>, Vec<PlayerId>) {
        let mut deltas: Vec<RosterDelta> = Vec::new();
        let mut departed: Vec<PlayerId> = Vec::new();
        for (&p, &eff) in &self.churn.pending_evicts {
            if eff <= frame && self.roster.is_active(p) {
                deltas.push(RosterDelta::Evict { player: p });
                departed.push(p);
                self.churn.evictions_applied.inc();
            }
        }
        for (&p, &eff) in &self.churn.pending_leaves {
            if eff <= frame && self.roster.is_active(p) && !departed.contains(&p) {
                deltas.push(RosterDelta::Leave { player: p });
                departed.push(p);
                self.churn.leaves_applied.inc();
            }
        }
        let period = self.config.proxy_period;
        for &p in &departed {
            let churn = &self.churn;
            let eff = churn.pending_evicts.get(&p).or_else(|| churn.pending_leaves.get(&p));
            let _ =
                self.schedule.try_exclude_from(p, eff.copied().unwrap_or(frame).div_ceil(period));
            self.churn.membership.remove_at(p, frame);
        }
        (deltas, departed)
    }

    /// Appends the joins due at `frame` to `deltas`, in dense id order,
    /// stopping at the first gap (the roster would refuse it; the ticket
    /// waits for the gap to fill), and returns the joined ids.
    fn due_joins(&mut self, frame: u64, deltas: &mut Vec<RosterDelta>) -> Vec<PlayerId> {
        let mut joined = Vec::new();
        let mut next_id = self.roster.len() as u32;
        for (&pid, ticket) in &self.churn.pending_joins {
            if ticket.admit_frame > frame {
                continue;
            }
            if pid < self.roster.len() as u32 {
                // Our own provisional entry (joining node): flip active.
                deltas.push(RosterDelta::Join { player: ticket.player, key: ticket.key });
                joined.push(ticket.player);
                continue;
            }
            if pid != next_id {
                break;
            }
            let admit_epoch = ticket.admit_frame.div_ceil(self.config.proxy_period);
            let assigned = self.schedule.admit_at(admit_epoch);
            debug_assert_eq!(assigned, ticket.player, "schedule and roster must agree on ids");
            self.replay.push(ReplayWindow::default());
            self.control.last_heard.push(frame);
            let _ = self.churn.membership.admit(frame);
            deltas.push(RosterDelta::Join { player: ticket.player, key: ticket.key });
            joined.push(ticket.player);
            next_id += 1;
        }
        joined
    }

    /// Admission check for a Join announcement from an unknown origin:
    /// the ticket must verify under the lobby key, name the claimed
    /// origin, and the envelope must verify under the ticket's key — the
    /// ticket vouches for the key, the key vouches for the envelope. A
    /// valid ticket is queued for its admission boundary and acked; an
    /// invalid one is a spoof attempt and scored as a bad signature.
    pub(super) fn consider_join(
        &mut self,
        frame: u64,
        msg: &SignedEnvelope,
        ticket: JoinTicket,
        out: &mut CoreOutput,
    ) {
        let origin = msg.envelope.from;
        let Some(lobby) = self.churn.lobby_key else {
            // No lobby key, no admission authority: superseded, not scored
            // (this node simply cannot judge the ticket).
            self.churn.stale_drops.inc();
            return;
        };
        let admissible = ticket.player == origin
            && origin.index() >= self.roster.len()
            && origin.index() < self.config.max_roster
            && ticket.verify(&lobby)
            && msg.verify(&ticket.key);
        if !admissible {
            out.events.push(NodeEvent::BadSignature { claimed_from: origin });
            return;
        }
        self.churn.pending_joins.insert(origin.0, ticket);
        self.queue_ack(out, frame, origin, msg.envelope.seq);
    }

    /// Queues a graceful departure for its announced boundary.
    /// Idempotent; always re-acked.
    pub(super) fn on_leave(&mut self, rx: &mut Inbound<'_>, effective_frame: u64) {
        if self.roster.is_active(rx.origin) {
            queue_earliest(&mut self.churn.pending_leaves, rx.origin, effective_frame);
        }
        self.ack(rx);
    }

    /// Corroborates an eviction notice against local evidence before
    /// queueing it: a lone (possibly malicious) announcer cannot evict a
    /// player this node can still hear. In honest runs the target is
    /// genuinely silent everywhere, so every node queues the same
    /// (player, boundary) pair.
    pub(super) fn on_evict(&mut self, rx: &mut Inbound<'_>, player: PlayerId, effective: u64) {
        if player != self.id
            && self.roster.is_active(player)
            && rx.now.saturating_sub(self.control.last_heard[player.index()])
                >= self.config.others_period
        {
            queue_earliest(&mut self.churn.pending_evicts, player, effective);
        }
        self.ack(rx);
    }

    /// A joiner-bootstrap snapshot. It is applied only by a node that
    /// joined mid-game (it holds a ticket), only from one of this node's
    /// plausible proxies at the envelope's frame — the set the sender's
    /// effective-proxy walk draws from; retransmits reuse the envelope —
    /// and only for entries no newer than the envelope. Anything else is
    /// a member trying to plant far-future states (which freeze a
    /// player's copy and blind the knowledge-break checks) or to move
    /// this node's roster epoch away from every honest replica: it is
    /// acked, to stop retransmits, and dropped.
    pub(super) fn on_bootstrap(&mut self, rx: &mut Inbound<'_>, snapshot: &BootstrapSnapshot) {
        let from_first_proxy = self.churn.ticket.is_some()
            && self.plausible_proxies(self.id, rx.gen_frame).any(|p| p == rx.origin);
        if from_first_proxy {
            for e in snapshot.entries() {
                if e.frame <= rx.gen_frame && self.roster.is_active(e.player) {
                    self.knowledge.learn(e.player, e.frame, e.state);
                }
            }
            // The sender's delta history may predate the lobby snapshot
            // this roster was built from; adopt its epoch so digests
            // converge (content already agrees at boundaries).
            self.roster.sync_epoch(snapshot.roster_epoch);
            if rx.fresh {
                self.churn.bootstraps_received.inc();
                let (from, entries) = (rx.origin, snapshot.entries().len() as u8);
                rx.out.events.push(NodeEvent::BootstrapReceived { from, entries });
            }
        }
        self.ack(rx);
    }
}
