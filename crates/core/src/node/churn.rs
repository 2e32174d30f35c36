//! Membership churn: mid-game joins, graceful leaves and timeout
//! evictions, each carrying its *effective boundary* so every replica
//! applies it at the same renewal frame, and the joiner's bootstrap.
//!
//! "Most architectures have to deal with churn. In our case, updates sent
//! between players also act as a heartbeat mechanism that easily
//! identifies the players that have been disconnected or left. These
//! nodes are removed in the next round, through an agreement protocol,
//! from the proxy pool." (§VI)
//!
//! The heartbeat is the control plane's per-peer `last_heard`: a player
//! silent for [`WatchmenConfig::membership_timeout_frames`] is announced
//! as a signed eviction by its plausible proxies, and every node applies
//! the eviction at the announced renewal boundary. The lobby reports its
//! own timeouts as [`crate::lobby::LobbyEvent::Disconnected`].

use std::collections::{BTreeMap, BTreeSet};

use watchmen_crypto::schnorr::{Keypair, PublicKey, VerifyingKey};
use watchmen_game::PlayerId;
use watchmen_world::{GameMap, PhysicsConfig};

use super::{Inbound, NodeEvent, ReplayWindow, WatchmenNode};
use crate::msg::{BootstrapSnapshot, JoinTicket, Payload, SignedEnvelope, MAX_BOOTSTRAP_ENTRIES};
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
    pub(super) stats: ChurnStats,
}

impl Churn {
    pub(super) fn new() -> Self {
        Churn {
            lobby_key: None,
            ticket: None,
            join_announced: false,
            pending_joins: BTreeMap::new(),
            pending_leaves: BTreeMap::new(),
            pending_evicts: BTreeMap::new(),
            announced_evictions: BTreeSet::new(),
            stats: ChurnStats::default(),
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
    /// last member, the ticket does not match `id`/`keys`, or `config`
    /// fails [`WatchmenConfig::validate`].
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
        config.validate();
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
        self.churn.stats
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
                self.churn.stats.joins_applied += 1;
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
            // states of up to `MAX_BOOTSTRAP_ENTRIES` active players, so
            // its interest/vision pipelines converge within its first epoch
            // instead of waiting out the 1 Hz trickle.
            if j != self.id && self.effective_proxy(j, frame, frame) == self.id {
                let snapshot = self.knowledge.snapshot(&self.roster, j, MAX_BOOTSTRAP_ENTRIES);
                self.sign_and_queue(out, j, frame, Payload::Bootstrap(snapshot));
                self.churn.stats.bootstraps_sent += 1;
            }
        }
        let active = self.roster.active_count();
        out.events.push(NodeEvent::RosterChanged { epoch: self.roster.epoch(), active });
    }

    /// Announces evictions for players this node plausibly proxies whose
    /// silence reached the membership timeout (last heard at `s`, timeout
    /// `t`: live through `s + t - 1`, suspect at exactly `s + t`) — only
    /// plausible proxies announce (a bounded announcer set, no election
    /// traffic), and the signed notice carries the effective boundary,
    /// which is what makes timeout evictions deterministic across nodes
    /// with (slightly) different evidence.
    fn announce_evictions(&mut self, frame: u64, out: &mut CoreOutput) {
        let timeout = self.config.membership_timeout_frames;
        let suspects: Vec<PlayerId> = (0..self.roster.len())
            .map(|i| PlayerId(i as u32))
            .filter(|&p| {
                p != self.id
                    && self.roster.is_active(p)
                    && frame.saturating_sub(self.control.last_heard[p.index()]) >= timeout
                    && !self.churn.announced_evictions.contains(&p)
                    && self.plausibly_proxy_of(p, frame)
            })
            .collect();
        for p in suspects {
            let effective = frame + self.config.proxy_period;
            self.churn.announced_evictions.insert(p);
            queue_earliest(&mut self.churn.pending_evicts, p, effective);
            self.churn.stats.evictions_announced += 1;
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
                self.churn.stats.evictions_applied += 1;
            }
        }
        for (&p, &eff) in &self.churn.pending_leaves {
            if eff <= frame && self.roster.is_active(p) && !departed.contains(&p) {
                deltas.push(RosterDelta::Leave { player: p });
                departed.push(p);
                self.churn.stats.leaves_applied += 1;
            }
        }
        let period = self.config.proxy_period;
        for &p in &departed {
            let churn = &self.churn;
            let eff = churn.pending_evicts.get(&p).or_else(|| churn.pending_leaves.get(&p));
            let _ =
                self.schedule.try_exclude_from(p, eff.copied().unwrap_or(frame).div_ceil(period));
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
        bytes: &[u8],
        ticket: JoinTicket,
        out: &mut CoreOutput,
    ) {
        let origin = msg.envelope.from;
        let Some(lobby) = self.churn.lobby_key else {
            // No lobby key, no admission authority: superseded, not scored
            // (this node simply cannot judge the ticket).
            self.churn.stats.stale_drops += 1;
            return;
        };
        let admissible = ticket.player == origin
            && origin.index() >= self.roster.len()
            && origin.index() < WatchmenConfig::MAX_ROSTER
            && ticket.verify(&lobby)
            && msg.verify_received(bytes, &VerifyingKey::new(ticket.key));
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
                >= WatchmenConfig::OTHERS_PERIOD
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
            && self.schedule.plausible_proxies(self.id, rx.gen_frame).any(|p| p == rx.origin);
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
                self.churn.stats.bootstraps_received += 1;
                let (from, entries) = (rx.origin, snapshot.entries().len() as u8);
                rx.out.events.push(NodeEvent::BootstrapReceived { from, entries });
            }
        }
        self.ack(rx);
    }
}
