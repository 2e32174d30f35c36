//! The per-player protocol endpoint: what a real game client embeds.
//!
//! [`WatchmenNode`] drives the complete player-side protocol from actual
//! wire messages, with no global knowledge beyond the shared seed and key
//! directory:
//!
//! * each frame it publishes the local avatar's signed state (plus 1 Hz
//!   guidance and position updates) to its current proxy, and maintains
//!   IS/VS subscriptions computed from *what it has learned from received
//!   messages* — not from ground truth;
//! * as a proxy it verifies incoming streams (signature, anti-replay,
//!   physics sanity, dissemination rate), forwards the original signed
//!   bytes to subscribers, and hands off at epoch boundaries;
//! * as a receiver it verifies signatures and sequence numbers and emits
//!   [`NodeEvent`]s for the application (deliveries) and the reputation
//!   layer (suspicions).
//!
//! Transport is abstracted to `(destination, bytes)` pairs so the same
//! node runs over [`watchmen_net::SimNetwork`], real UDP, or an in-memory
//! bus (see the crate tests).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_telemetry::trace::{EventKind, Phase, TraceEvent, TraceId};
use watchmen_telemetry::{
    Counter, FlightDump, FlightRecorder, FrameTimer, Gauge, Histogram, DEFAULT_CAPACITY,
};
use watchmen_world::{GameMap, PhysicsConfig};

use crate::audit::{AuditKind, AuditLog, AuditRecord};
use crate::dead_reckoning::Guidance;
use crate::membership::MembershipTracker;
use crate::msg::{
    BootstrapEntry, BootstrapSnapshot, Envelope, HandoffNotice, JoinTicket, Payload,
    PositionUpdate, SignedEnvelope, StateUpdate,
};
use crate::proxy::ProxySchedule;
use crate::rating::{CheatRating, Confidence, SEVERE_SCORE};
use crate::roster::{MemberStatus, Roster, RosterDelta};
use crate::subscription::{compute_sets, NoRecency, SetKind};
use crate::verify::{checks, Verifier};
use crate::WatchmenConfig;

/// Violation dumps retained per node before the oldest is discarded.
const MAX_FLIGHT_DUMPS: usize = 8;

/// The output of one [`WatchmenNode::begin_frame`] call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameOutput {
    /// Messages to transmit.
    pub outgoing: Vec<Outgoing>,
    /// Events for the application / reputation layer.
    pub events: Vec<NodeEvent>,
}

/// A wire message queued for sending.
#[derive(Debug, Clone, PartialEq)]
pub struct Outgoing {
    /// Destination player.
    pub to: PlayerId,
    /// Encoded [`SignedEnvelope`] bytes (forwarded bytes keep the origin's
    /// signature intact).
    pub bytes: Vec<u8>,
}

/// Events surfaced to the embedding application.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEvent {
    /// A verified update about another player arrived.
    Delivery {
        /// Who the update describes.
        about: PlayerId,
        /// The update class label (`"state"`, `"guidance"`, `"position"`).
        class: &'static str,
        /// The frame the update was generated in.
        gen_frame: u64,
    },
    /// A message failed signature verification (tampering or spoofing).
    BadSignature {
        /// The origin the message claimed.
        claimed_from: PlayerId,
    },
    /// A stale/duplicate sequence number arrived (replay).
    Replay {
        /// The replayed message's claimed origin.
        from: PlayerId,
    },
    /// A verification check flagged a supervised player.
    Suspicion {
        /// The flagged player.
        subject: PlayerId,
        /// The rating produced.
        rating: CheatRating,
        /// Which check fired.
        check: &'static str,
    },
    /// A handoff was received for a player this node now supervises.
    HandoffReceived {
        /// The supervised player.
        player: PlayerId,
        /// The predecessor's worst rating for longer-term follow-up.
        worst_rating: u8,
    },
    /// Membership deltas were applied at a renewal boundary.
    RosterChanged {
        /// The roster epoch after the change.
        epoch: u64,
        /// Active members after the change.
        active: usize,
    },
    /// A joiner-bootstrap snapshot arrived from this node's first proxy.
    BootstrapReceived {
        /// The proxy that assembled the snapshot.
        from: PlayerId,
        /// Player states the snapshot carried.
        entries: u8,
    },
}

/// Sliding-window anti-replay state for one origin: tolerates reordering
/// (multi-path forwarding legitimately delivers messages out of order)
/// while rejecting duplicates and stale sequence numbers.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayWindow {
    /// Highest sequence accepted (meaningful only once `seen` is set).
    high: u64,
    /// Bitmask of the 64 sequences at and below `high` (bit 0 = `high`).
    mask: u64,
    /// Whether any sequence has been accepted yet. A fresh window's
    /// `high == 0` must stay distinguishable from "accepted seq 0", or an
    /// origin whose counter legitimately starts at 0 has its very first
    /// message refused as a replay.
    seen: bool,
}

impl ReplayWindow {
    /// Accepts `seq` if fresh, recording it; returns `false` for
    /// duplicates and sequences older than the window.
    fn check_and_set(&mut self, seq: u64) -> bool {
        if !self.seen {
            self.seen = true;
            self.high = seq;
            self.mask = 1;
            return true;
        }
        if seq > self.high {
            let shift = seq - self.high;
            self.mask = if shift >= 64 { 0 } else { self.mask << shift };
            self.mask |= 1;
            self.high = seq;
            return true;
        }
        let offset = self.high - seq;
        if offset >= 64 {
            return false; // too old to distinguish from a replay
        }
        let bit = 1u64 << offset;
        if self.mask & bit != 0 {
            return false;
        }
        self.mask |= bit;
        true
    }
}

/// A parked subscription offense awaiting skew-free evidence.
#[derive(Debug, Clone, Copy)]
struct PendingSubCheck {
    /// The frame the subscriber computed the subscription on (its
    /// Subscribe envelope frame).
    sub_gen: u64,
    /// The subscriber's state from exactly `sub_gen`, once received —
    /// the cone the subscription was actually computed from.
    sub_state: Option<StateUpdate>,
}

/// Per-supervised-player proxy state.
#[derive(Debug, Clone, Default)]
struct ProxyDuty {
    /// Subscribers by kind, with expiry frames.
    is_subs: BTreeMap<PlayerId, u64>,
    vs_subs: BTreeMap<PlayerId, u64>,
    /// Updates seen from the player this epoch.
    updates_seen: u32,
    /// Worst rating this epoch.
    worst_rating: u8,
    /// Last state seen.
    last_state: Option<(u64, StateUpdate)>,
    /// Digest of the predecessor's handoff notice (zeros when this duty
    /// started without one) — embedded in this node's own handoff so
    /// consecutive summaries chain verifiably.
    predecessor_digest: [u8; 32],
}

impl ProxyDuty {
    /// Drops expired subscribers and returns those of `kind` still being
    /// served at `frame`. This is the *single* definition of the expiry
    /// boundary: a subscription installed at frame `f` with retention `r`
    /// carries expiry `f + r` and is served through frame `f + r - 1` — a
    /// subscriber whose expiry equals the current frame is no longer
    /// served (re-installing at the same frame re-arms it).
    /// [`SetKind::Others`] has no explicit subscriber list.
    fn live_subscribers(&mut self, kind: SetKind, frame: u64) -> Vec<PlayerId> {
        self.is_subs.retain(|_, &mut e| e > frame);
        self.vs_subs.retain(|_, &mut e| e > frame);
        match kind {
            SetKind::Interest => self.is_subs.keys().copied().collect(),
            SetKind::Vision => self.vs_subs.keys().copied().collect(),
            SetKind::Others => Vec::new(),
        }
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
    trace: TraceId,
}

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

/// Cached global-registry handles for the node's hot paths. Handles are
/// fetched once per node so per-frame recording is a couple of atomic
/// adds, never a registry lookup.
#[derive(Debug)]
struct NodeMetrics {
    tick_ms: Arc<Histogram>,
    subscription_phase_ms: Arc<Histogram>,
    publish_phase_ms: Arc<Histogram>,
    handoff_phase_ms: Arc<Histogram>,
    handle_message_ms: Arc<Histogram>,
    subscriptions_sent: Arc<Counter>,
    messages_forwarded: Arc<Counter>,
    handoffs_sent: Arc<Counter>,
    handoffs_received: Arc<Counter>,
    bad_signatures: Arc<Counter>,
    replays: Arc<Counter>,
    control_retransmits: Arc<Counter>,
    control_acks_sent: Arc<Counter>,
    control_acks_received: Arc<Counter>,
    control_abandoned: Arc<Counter>,
    proxy_fallbacks: Arc<Counter>,
    roster_active: Arc<Gauge>,
    joins_applied: Arc<Counter>,
    leaves_applied: Arc<Counter>,
    evictions_applied: Arc<Counter>,
    bootstraps_sent: Arc<Counter>,
    bootstraps_received: Arc<Counter>,
    stale_drops: Arc<Counter>,
}

impl NodeMetrics {
    fn new() -> Self {
        let t = watchmen_telemetry::global();
        t.describe("node_tick_duration_ms", "wall time of one begin_frame call");
        t.describe("node_tick_phase_duration_ms", "wall time of one begin_frame phase");
        t.describe("node_handle_message_duration_ms", "wall time of one handle_message call");
        t.describe("node_subscriptions_sent_total", "subscribe messages issued");
        t.describe("node_messages_forwarded_total", "signed messages forwarded as proxy");
        t.describe("proxy_handoffs_total", "handoff notices sent at epoch boundaries");
        t.describe("proxy_handoffs_received_total", "handoff notices accepted from predecessors");
        t.describe("node_bad_signatures_total", "messages rejected for signature failure");
        t.describe("node_replays_total", "messages rejected as replayed or stale");
        t.describe("node_suspicions_total", "verification checks that flagged a player");
        t.describe("node_control_retransmits_total", "control messages re-sent after ack timeout");
        t.describe("node_control_acks_sent_total", "acks emitted for processed control messages");
        t.describe(
            "node_control_acks_received_total",
            "acks that retired a pending control message",
        );
        t.describe("node_control_abandoned_total", "control messages given up on (unrecovered)");
        t.describe("node_proxy_fallbacks_total", "switches to a fallback proxy draw");
        t.describe("node_roster_active", "active roster members after the last boundary");
        t.describe("node_roster_joins_total", "mid-game joins applied at boundaries");
        t.describe("node_roster_leaves_total", "graceful leaves applied at boundaries");
        t.describe("node_roster_evictions_total", "timeout evictions applied at boundaries");
        t.describe("node_bootstraps_sent_total", "joiner-bootstrap snapshots assembled");
        t.describe("node_bootstraps_received_total", "joiner-bootstrap snapshots received");
        t.describe("node_stale_drops_total", "messages dropped as superseded churn traffic");
        let phase = |p: &str| t.histogram_with("node_tick_phase_duration_ms", &[("phase", p)]);
        NodeMetrics {
            tick_ms: t.histogram("node_tick_duration_ms"),
            subscription_phase_ms: phase("subscriptions"),
            publish_phase_ms: phase("publish"),
            handoff_phase_ms: phase("handoff"),
            handle_message_ms: t.histogram("node_handle_message_duration_ms"),
            subscriptions_sent: t.counter("node_subscriptions_sent_total"),
            messages_forwarded: t.counter("node_messages_forwarded_total"),
            handoffs_sent: t.counter("proxy_handoffs_total"),
            handoffs_received: t.counter("proxy_handoffs_received_total"),
            bad_signatures: t.counter("node_bad_signatures_total"),
            replays: t.counter("node_replays_total"),
            control_retransmits: t.counter("node_control_retransmits_total"),
            control_acks_sent: t.counter("node_control_acks_sent_total"),
            control_acks_received: t.counter("node_control_acks_received_total"),
            control_abandoned: t.counter("node_control_abandoned_total"),
            proxy_fallbacks: t.counter("node_proxy_fallbacks_total"),
            roster_active: t.gauge("node_roster_active"),
            joins_applied: t.counter("node_roster_joins_total"),
            leaves_applied: t.counter("node_roster_leaves_total"),
            evictions_applied: t.counter("node_roster_evictions_total"),
            bootstraps_sent: t.counter("node_bootstraps_sent_total"),
            bootstraps_received: t.counter("node_bootstraps_received_total"),
            stale_drops: t.counter("node_stale_drops_total"),
        }
    }

    /// Tallies the security-relevant events of one call: signature and
    /// replay rejections, accepted handoffs, and per-check suspicions
    /// (labelled by the closed set of check names).
    fn observe_events(&self, events: &[NodeEvent]) {
        for e in events {
            match e {
                NodeEvent::BadSignature { .. } => self.bad_signatures.inc(),
                NodeEvent::Replay { .. } => self.replays.inc(),
                NodeEvent::HandoffReceived { .. } => self.handoffs_received.inc(),
                NodeEvent::Suspicion { check, .. } => {
                    watchmen_telemetry::global()
                        .counter_with("node_suspicions_total", &[("check", check)])
                        .inc();
                }
                NodeEvent::Delivery { .. }
                | NodeEvent::RosterChanged { .. }
                | NodeEvent::BootstrapReceived { .. } => {}
            }
        }
    }
}

/// The player-side protocol endpoint. See the module docs.
#[derive(Debug)]
pub struct WatchmenNode {
    id: PlayerId,
    keys: Keypair,
    /// The epoch-versioned membership view (was a flat key directory):
    /// maps every id ever admitted to its key and lifecycle status.
    roster: Roster,
    schedule: ProxySchedule,
    config: WatchmenConfig,
    map: GameMap,
    verifier: Verifier,
    seq: u64,
    /// Anti-replay windows per origin.
    replay: Vec<ReplayWindow>,
    /// Proxy duties for players this node currently supervises.
    duties: BTreeMap<PlayerId, ProxyDuty>,
    /// This node's outgoing subscriptions with last-refresh frames.
    my_subs: BTreeMap<(PlayerId, SetKind), u64>,
    /// Best known state of every player, learned from received messages.
    known: BTreeMap<PlayerId, (u64, StateUpdate)>,
    /// Generation frame of the last *information discontinuity* seen in
    /// each player's knowledge stream: a death, a respawn, or a
    /// faster-than-physics jump (a respawn whose dead interval fell
    /// between two sightings). Near a discontinuity different observers
    /// legitimately hold wildly divergent copies of the player, so
    /// staleness-tolerance-based checks have no honest baseline.
    known_breaks: BTreeMap<PlayerId, u64>,
    /// Subscription offenses awaiting confirmation, keyed by
    /// (subscriber, target). A severe cone miss at arrival is usually
    /// knowledge skew — the Subscribe races the subscriber's same-frame
    /// state update (a respawn teleport makes the race spectacular), or
    /// the proxy's copy of the target predates a respawn. The severe
    /// verdict is deferred until evidence from both sides of the
    /// subscription frame is in hand (see [`Self::confirm_sub_offenses`]).
    sub_pending: BTreeMap<(PlayerId, PlayerId), PendingSubCheck>,
    /// Cached telemetry handles.
    metrics: NodeMetrics,
    /// Per-node flight recorder of trace events (sends, relays,
    /// deliveries, rejections, verdicts).
    recorder: Arc<FlightRecorder>,
    /// Violation dumps captured by [`Self::trace_events`], oldest first.
    flight_dumps: VecDeque<FlightDump>,
    /// Unacked control messages keyed by envelope sequence number.
    pending: BTreeMap<u64, PendingControl>,
    /// Reliable-control-plane counters.
    control_stats: ControlPlaneStats,
    /// Per-peer liveness: the newest frame each peer produced evidence of
    /// life for (wire receipt or a verified signed envelope).
    last_heard: Vec<u64>,
    /// The last frame [`Self::begin_frame`] ran for — gaps mean this node
    /// itself was down and its liveness view is stale.
    last_tick: Option<u64>,
    /// Epoch this node resumed in after a gap, if any: its duty counters
    /// missed that epoch's traffic, so the epoch summary is skipped once.
    resumed_epoch: Option<u64>,
    /// Whether the last frame published to a fallback proxy (edge-triggers
    /// the fallback counter so one outage counts once, not per frame).
    fallback_active: bool,
    /// Suspicion tracker feeding timeout evictions from `last_heard`
    /// evidence, on the (longer) membership timeout.
    membership: MembershipTracker,
    /// The lobby's public key, needed to verify mid-game join tickets.
    /// Without it every join is refused.
    lobby_key: Option<PublicKey>,
    /// This node's own admission ticket (joining nodes only).
    my_ticket: Option<JoinTicket>,
    /// Whether this (joining) node has announced its ticket yet.
    join_announced: bool,
    /// Verified join tickets awaiting their admission boundary, keyed by
    /// the lobby-assigned id so they apply in dense order.
    pending_joins: BTreeMap<u32, JoinTicket>,
    /// Announced graceful departures awaiting their effective boundary.
    pending_leaves: BTreeMap<PlayerId, u64>,
    /// Corroborated eviction notices awaiting their effective boundary
    /// (the earliest announced boundary wins, matching the schedule's
    /// earliest-exclusion rule, so replicas converge).
    pending_evicts: BTreeMap<PlayerId, u64>,
    /// Players this node has already announced an eviction for.
    announced_evictions: BTreeSet<PlayerId>,
    /// Churn counters.
    churn_stats: ChurnStats,
    /// The verdict audit stream: one structured record per detection
    /// decision, drained by the embedding driver
    /// ([`WatchmenNode::drain_audit`]).
    audit: AuditLog,
    /// The causal trace id of the message currently being handled, so
    /// decision sites reached from [`WatchmenNode::handle_message`] can
    /// stamp their audit records without threading the id through every
    /// call. [`TraceId::NONE`] outside message handling.
    audit_trace: TraceId,
}

impl WatchmenNode {
    /// Creates a node for `id`.
    ///
    /// `directory` maps every player id to its public key (distributed by
    /// the game lobby); `seed` is the shared game seed behind the
    /// verifiable proxy schedule.
    ///
    /// # Panics
    ///
    /// Panics if the directory has fewer than two entries or does not
    /// cover `id`.
    #[must_use]
    pub fn new(
        id: PlayerId,
        keys: Keypair,
        directory: Vec<PublicKey>,
        seed: u64,
        config: WatchmenConfig,
        map: GameMap,
        physics: PhysicsConfig,
    ) -> Self {
        assert!(directory.len() >= 2, "need at least two players");
        assert!(id.index() < directory.len(), "id outside directory");
        let players = directory.len();
        let schedule = ProxySchedule::new(seed, players, config.proxy_period);
        Self::from_parts(id, keys, Roster::new(directory), schedule, config, map, physics, 0)
    }

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
        let mut node =
            Self::from_parts(id, keys, roster, schedule, config, map, physics, ticket.admit_frame);
        node.lobby_key = Some(lobby_key);
        node.my_ticket = Some(ticket);
        node.pending_joins.insert(id.0, ticket);
        node
    }

    #[allow(clippy::too_many_arguments)]
    fn from_parts(
        id: PlayerId,
        keys: Keypair,
        roster: Roster,
        schedule: ProxySchedule,
        config: WatchmenConfig,
        map: GameMap,
        physics: PhysicsConfig,
        heard_floor: u64,
    ) -> Self {
        let players = roster.len();
        WatchmenNode {
            id,
            keys,
            roster,
            schedule,
            config,
            map,
            verifier: Verifier::new(config, physics),
            seq: 0,
            replay: vec![ReplayWindow::default(); players],
            duties: BTreeMap::new(),
            my_subs: BTreeMap::new(),
            known: BTreeMap::new(),
            known_breaks: BTreeMap::new(),
            sub_pending: BTreeMap::new(),
            metrics: NodeMetrics::new(),
            recorder: Arc::new(FlightRecorder::new(DEFAULT_CAPACITY)),
            flight_dumps: VecDeque::new(),
            pending: BTreeMap::new(),
            control_stats: ControlPlaneStats::default(),
            last_heard: vec![heard_floor; players],
            last_tick: None,
            resumed_epoch: None,
            fallback_active: false,
            membership: MembershipTracker::new(players, config.membership_timeout_frames),
            lobby_key: None,
            my_ticket: None,
            join_announced: false,
            pending_joins: BTreeMap::new(),
            pending_leaves: BTreeMap::new(),
            pending_evicts: BTreeMap::new(),
            announced_evictions: BTreeSet::new(),
            churn_stats: ChurnStats::default(),
            audit: AuditLog::default(),
            audit_trace: TraceId::NONE,
        }
    }

    /// Installs the lobby's public key, enabling mid-game join admission.
    #[must_use]
    pub fn with_lobby_key(mut self, key: PublicKey) -> Self {
        self.lobby_key = Some(key);
        self
    }

    /// Replaces the flight recorder with a fresh ring of `capacity`
    /// events. The default [`DEFAULT_CAPACITY`]-event ring costs tens of
    /// kilobytes per node — the right trade for a handful of
    /// nodes under a debugging microscope, but prohibitive when a fleet
    /// orchestrator keeps thousands of nodes alive at once. Call this
    /// immediately after construction, before any frame runs: handles
    /// already cloned out via [`WatchmenNode::recorder`] keep pointing at
    /// the old ring.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_recorder_capacity(mut self, capacity: usize) -> Self {
        self.recorder = Arc::new(FlightRecorder::new(capacity));
        self
    }

    /// This node's player id.
    #[must_use]
    pub fn id(&self) -> PlayerId {
        self.id
    }

    /// This node's current proxy.
    #[must_use]
    pub fn proxy(&self, frame: u64) -> PlayerId {
        self.schedule.proxy_of(self.id, frame)
    }

    /// The players this node currently holds proxy duties for.
    #[must_use]
    pub fn supervised(&self) -> Vec<PlayerId> {
        self.duties.keys().copied().collect()
    }

    /// Best known state of `player`, if any update has been received.
    #[must_use]
    pub fn known_state(&self, player: PlayerId) -> Option<&StateUpdate> {
        self.known.get(&player).map(|(_, s)| s)
    }

    /// A handle on this node's flight recorder, for cross-node causal
    /// chains ([`watchmen_telemetry::causal_chain`]) and Chrome-trace
    /// export.
    #[must_use]
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Drains the violation dumps captured so far, oldest first. A dump is
    /// captured whenever a suspicious verdict, signature failure or replay
    /// fires; at most [`MAX_FLIGHT_DUMPS`] are retained between drains.
    pub fn take_flight_dumps(&mut self) -> Vec<FlightDump> {
        self.flight_dumps.drain(..).collect()
    }

    /// Drains this node's verdict audit stream, oldest record first. The
    /// embedding driver should drain every frame; records past the
    /// buffer's capacity are dropped and counted
    /// ([`WatchmenNode::audit_dropped`]).
    pub fn drain_audit(&mut self) -> Vec<AuditRecord> {
        self.audit.drain()
    }

    /// Turns the audit stream on (the default) or off; off makes every
    /// decision-site push a cheap no-op, for overhead measurements.
    pub fn set_audit_enabled(&mut self, enabled: bool) {
        self.audit.set_enabled(enabled);
    }

    /// Audit records dropped because the buffer was full at push time.
    #[must_use]
    pub fn audit_dropped(&self) -> u64 {
        self.audit.dropped()
    }

    /// Reliable-control-plane counters (retransmits, acks, fallbacks…).
    #[must_use]
    pub fn control_stats(&self) -> ControlPlaneStats {
        self.control_stats
    }

    /// Churn counters (joins, leaves, evictions, bootstraps, stale drops).
    #[must_use]
    pub fn churn_stats(&self) -> ChurnStats {
        self.churn_stats
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

    /// Control messages still awaiting acknowledgement.
    #[must_use]
    pub fn pending_control(&self) -> usize {
        self.pending.len()
    }

    /// Handoff notices still awaiting acknowledgement — the "unrecovered
    /// handoff chain" gauge: nonzero after a drain period means a summary
    /// chain link never reached a live successor.
    #[must_use]
    pub fn pending_handoffs(&self) -> usize {
        self.pending.values().filter(|p| p.kind == ControlKind::Handoff).count()
    }

    /// The proxy this node would actually address for `player` at `frame`,
    /// after walking the fallback draws past presumed-crashed picks.
    #[must_use]
    pub fn effective_proxy_of(&self, player: PlayerId, frame: u64) -> PlayerId {
        self.effective_proxy(player, frame, frame)
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
        now_frame.saturating_sub(self.last_heard[peer.index()])
            > self.config.liveness_timeout_frames()
    }

    /// The proxy of `player` for the epoch containing `sched_frame`, as
    /// this node would address it at `now_frame`: the scheduled draw, or —
    /// when that pick is presumed crashed — the next distinct draw of the
    /// shared schedule PRNG, up to `proxy_fallback_depth` levels deep. The
    /// walk is deterministic given a liveness view, and bounded, so every
    /// honest node lands within the same small plausible set without any
    /// election traffic.
    fn effective_proxy(&self, player: PlayerId, sched_frame: u64, now_frame: u64) -> PlayerId {
        let depth = self.config.proxy_fallback_depth;
        for n in 0..=depth {
            let pick = self.schedule.nth_proxy_of(player, sched_frame, n as usize);
            if n == depth || !self.presumed_crashed(pick, now_frame) {
                return pick;
            }
        }
        unreachable!("loop returns at n == depth");
    }

    /// Whether this node is a *plausible* proxy of `player` for the epoch
    /// containing `sched_frame`: the scheduled pick or any fallback draw
    /// within `proxy_fallback_depth`. Receivers accept duty for the whole
    /// plausible set — membership depends only on the shared schedule, so
    /// a sender that fell back and the fallback proxy always agree even if
    /// their liveness views differ.
    fn plausibly_proxy_of(&self, player: PlayerId, sched_frame: u64) -> bool {
        if player == self.id {
            return false;
        }
        (0..=self.config.proxy_fallback_depth)
            .any(|n| self.schedule.nth_proxy_of(player, sched_frame, n as usize) == self.id)
    }

    /// Queues an ack for a processed control envelope back to its origin.
    fn queue_ack(&mut self, out: &mut Vec<Outgoing>, frame: u64, origin: PlayerId, ack_seq: u64) {
        if origin == self.id {
            return;
        }
        self.sign_and_queue(out, origin, frame, Payload::Ack { ack_seq });
        self.control_stats.acks_sent += 1;
        self.metrics.control_acks_sent.inc();
    }

    fn sign_and_queue(
        &mut self,
        out: &mut Vec<Outgoing>,
        to: PlayerId,
        frame: u64,
        payload: Payload,
    ) {
        self.seq += 1;
        let env = Envelope { from: self.id, seq: self.seq, frame, payload };
        let bytes = env.sign_encoded(&self.keys);
        // Control messages enter the reliable layer: remember the exact
        // signed bytes so retransmissions are byte-identical, plus the
        // routing inputs so a retransmit can re-target a fallback proxy.
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
            self.pending.insert(
                self.seq,
                PendingControl {
                    kind,
                    to,
                    bytes: bytes.clone(),
                    route_player,
                    route_frame,
                    sent_frame: frame,
                    attempts: 0,
                    next_retry: frame + self.config.retransmit_timeout_frames,
                    trace: env.trace_id(),
                },
            );
        }
        let phase = match payload {
            Payload::Subscribe { .. }
            | Payload::Unsubscribe { .. }
            | Payload::Ack { .. }
            | Payload::Leave { .. }
            | Payload::Join(_)
            | Payload::Evict { .. }
            | Payload::Bootstrap(_) => Phase::Subscription,
            Payload::Handoff(_) => Phase::Handoff,
            _ => Phase::Publish,
        };
        self.recorder.record(TraceEvent::point(
            env.trace_id(),
            self.id.0,
            self.id.0,
            frame,
            phase,
            EventKind::Send,
            payload.label(),
            bytes.len() as i64,
        ));
        out.push(Outgoing { to, bytes });
    }

    /// Runs the per-frame sender side: publishes updates, refreshes
    /// subscriptions, emits handoffs near epoch boundaries, and — at each
    /// boundary — emits one *epoch summary* rating per supervised player
    /// (score 1 when the epoch was clean), so the reputation layer sees
    /// successful interactions as well as failed ones ("each player tags
    /// the interactions he has with other players as successful … or as
    /// failed"). `my_state` is the local avatar's authoritative state.
    pub fn begin_frame(&mut self, frame: u64, my_state: &PlayerFrame) -> FrameOutput {
        let _tick = FrameTimer::start(&self.metrics.tick_ms);
        // A clone of the recorder handle keeps the span guards' borrows
        // off `self` while the phases below mutate it.
        let rec = Arc::clone(&self.recorder);
        let _tick_trace = rec.span(self.id.0, frame, Phase::Tick, "tick");
        let mut output = FrameOutput::default();
        let mut out = Vec::new();

        // --- Liveness bookkeeping. A gap in this node's own tick sequence
        // means *it* was down: its silence says nothing about the peers,
        // so the liveness view resets to "everyone alive now" and the
        // partially-observed epoch is flagged so its summary is skipped
        // (rating players on a partial update count would produce false
        // cheat verdicts).
        if self.last_tick.is_some_and(|t| frame > t + 1) {
            self.last_heard.fill(frame);
            self.resumed_epoch = Some(self.schedule.epoch_of(frame));
            self.fallback_active = false;
        }
        self.last_tick = Some(frame);

        // --- Churn lifecycle. A joining node announces its ticket and
        // waits: it neither publishes nor serves until the boundary that
        // admits it (where the same `Join` delta the veterans apply flips
        // it active). A departed node emits nothing at all.
        match self.roster.status(self.id) {
            Some(MemberStatus::Joining) => {
                self.announce_join(&mut out, frame);
                if frame > 0 && self.config.is_renewal_frame(frame) {
                    self.apply_roster_boundary(frame, &mut out, &mut output.events);
                }
                self.drive_retransmits(frame, &mut out);
                self.trace_events(frame, TraceId::NONE, &output.events);
                self.metrics.observe_events(&output.events);
                output.outgoing = out;
                return output;
            }
            Some(MemberStatus::Active) => {}
            _ => return output,
        }

        // Membership deltas apply first thing at a boundary, so the rest
        // of this frame — publishing, subscriptions, duty retention —
        // already runs against the new epoch's pool. Epoch summaries
        // below still resolve the *finished* epoch's draws, because the
        // schedule is epoch-versioned and never rewrites history.
        if frame > 0 && self.config.is_renewal_frame(frame) {
            self.apply_roster_boundary(frame, &mut out, &mut output.events);
            if !self.roster.is_active(self.id) {
                // This boundary applied our own departure.
                output.outgoing = out;
                return output;
            }
        }

        // Publish to the effective proxy: the scheduled draw, or the next
        // deterministic fallback draw when that pick looks crashed. The
        // fallback counter edge-triggers so one outage counts once.
        let scheduled_proxy = self.proxy(frame);
        let my_proxy = self.effective_proxy(self.id, frame, frame);
        if my_proxy != scheduled_proxy {
            if !self.fallback_active {
                self.fallback_active = true;
                self.control_stats.proxy_fallbacks += 1;
                self.metrics.proxy_fallbacks.inc();
                self.recorder.record(TraceEvent::point(
                    TraceId::NONE,
                    self.id.0,
                    my_proxy.0,
                    frame,
                    Phase::Publish,
                    EventKind::Mark,
                    "proxy-fallback",
                    i64::from(scheduled_proxy.0),
                ));
            }
        } else {
            self.fallback_active = false;
        }

        // Track self in the knowledge base so set computation has an
        // observer entry. Routed through `learn` so the node's own deaths
        // and respawns register as knowledge breaks too — this node may be
        // proxying a subscription that targets itself.
        self.learn(self.id, frame, StateUpdate::from(my_state));

        // --- Subscriptions from *learned* knowledge.
        let sub_span = FrameTimer::start(&self.metrics.subscription_phase_ms);
        let sub_trace = rec.span(self.id.0, frame, Phase::Subscription, "subscriptions");
        let sets = self.compute_local_sets(my_state);
        for (target, kind) in sets {
            let due = self
                .my_subs
                .get(&(target, kind))
                .is_none_or(|&last| frame >= last + self.config.subscription_retention / 2);
            if due {
                self.my_subs.insert((target, kind), frame);
                self.sign_and_queue(&mut out, my_proxy, frame, Payload::Subscribe { target, kind });
                self.metrics.subscriptions_sent.inc();
            }
        }
        self.my_subs.retain(|_, &mut last| frame < last + 4 * self.config.subscription_retention);
        sub_span.stop();
        drop(sub_trace);

        // --- Publications.
        let publish_span = FrameTimer::start(&self.metrics.publish_phase_ms);
        let publish_trace = rec.span(self.id.0, frame, Phase::Publish, "publish");
        self.sign_and_queue(&mut out, my_proxy, frame, Payload::State(StateUpdate::from(my_state)));
        // Under fallback, keep feeding the scheduled proxy too: the crash
        // presumption may be wrong (a lost broadcast cycle), and a live
        // scheduled proxy starved of states would convict this node of
        // rate-cheating at epoch end. If it is really dead the extra send
        // is a no-op.
        if my_proxy != scheduled_proxy {
            self.sign_and_queue(
                &mut out,
                scheduled_proxy,
                frame,
                Payload::State(StateUpdate::from(my_state)),
            );
        }
        if self.config.is_guidance_frame(frame, self.id.index()) {
            let g = Guidance::from_state(
                my_state,
                frame,
                self.config.guidance_period,
                self.config.frame_seconds(),
            );
            self.sign_and_queue(&mut out, my_proxy, frame, Payload::Guidance(g));
        }
        if self.config.is_others_frame(frame, self.id.index()) {
            self.sign_and_queue(
                &mut out,
                my_proxy,
                frame,
                Payload::Position(PositionUpdate { position: my_state.position }),
            );
        }
        publish_span.stop();
        drop(publish_trace);

        // --- Handoff: shortly before the boundary, ship summaries for all
        // duties whose successor is someone else.
        let handoff_span = FrameTimer::start(&self.metrics.handoff_phase_ms);
        let handoff_trace = rec.span(self.id.0, frame, Phase::Handoff, "handoff");
        let handoff_lead = (self.config.proxy_period / 4).max(1);
        let boundary = self.schedule.next_renewal(frame);
        if frame + handoff_lead == boundary {
            let epoch = self.schedule.epoch_of(frame);
            let duties: Vec<PlayerId> = self.duties.keys().copied().collect();
            for player in duties {
                // Address the successor as it will effectively serve: the
                // scheduled draw, or its fallback when that pick looks
                // crashed — the fallback accepts because it is in the
                // plausible set for the coming epoch.
                let successor = self.effective_proxy(player, boundary, frame);
                if successor == self.id {
                    continue;
                }
                let duty = &self.duties[&player];
                let Some((obs_frame, last_state)) = duty.last_state else { continue };
                // Only hand off duties actually observed this epoch. A
                // fallback draw that retained a duty but saw none of the
                // player's traffic would ship a stale state under a fresh
                // envelope frame, poisoning the successor's physics
                // baseline into false teleport verdicts.
                if self.schedule.epoch_of(obs_frame) != epoch {
                    continue;
                }
                let notice = HandoffNotice {
                    player,
                    epoch,
                    observed_frame: obs_frame,
                    last_state,
                    worst_rating: duty.worst_rating.max(1),
                    updates_seen: duty.updates_seen,
                    predecessor_digest: duty.predecessor_digest,
                };
                self.sign_and_queue(&mut out, successor, frame, Payload::Handoff(notice));
                self.metrics.handoffs_sent.inc();
            }
        }
        handoff_span.stop();
        drop(handoff_trace);

        // --- Epoch turnover: summarize the finished epoch for each duty
        // (clean epochs produce score-1 ratings, giving the reputation
        // layer its denominator), run the dissemination-rate check, then
        // drop duties this node no longer holds.
        if frame > 0 && self.config.is_renewal_frame(frame) {
            // A node that resumed from a downtime gap mid-epoch saw only
            // part of that epoch's traffic: skip its summary once rather
            // than rate supervised players on a partial count.
            let slept = self.resumed_epoch.take().is_some();
            let duties: Vec<PlayerId> = self.duties.keys().copied().collect();
            for player in duties {
                // Only summarize epochs this node was *scheduled* to serve
                // — a successor holding a freshly handed-off duty has not
                // seen the finished epoch's updates, and a fallback proxy
                // may have served only the tail of it.
                if slept || self.schedule.proxy_of(player, frame - 1) != self.id {
                    continue;
                }
                // A player silent for a whole relay period at summary time
                // is crashing (or crashed), not rate-cheating: a cheater
                // minimizing exposure still publishes *something* to stay
                // in the game, while total silence is the liveness layer's
                // problem. Withhold the rate verdict rather than convict
                // an unreachable peer.
                let silent = frame.saturating_sub(self.last_heard[player.index()])
                    >= self.config.others_period;
                let duty = self.duties.get_mut(&player).expect("listed");
                let rate_score = if silent {
                    1
                } else {
                    self.verifier.check_rate(self.config.proxy_period, u64::from(duty.updates_seen))
                };
                let score = duty.worst_rating.max(rate_score).max(1);
                output.events.push(NodeEvent::Suspicion {
                    subject: player,
                    rating: CheatRating::new(score, Confidence::Proxy, 0),
                    check: checks::EPOCH_SUMMARY,
                });
            }
            // Per-epoch accounting restarts for *every* retained duty, not
            // just the summarized ones: a fallback holder that skipped its
            // summary must not carry states counted last epoch into the
            // next one (the scheduled summarizer would read the inflated
            // count as update-flooding).
            let node = self.id.0;
            for (&player, duty) in &mut self.duties {
                if duty.worst_rating > 1 {
                    let prev_worst = duty.worst_rating;
                    self.audit.push_with(|| AuditRecord {
                        frame,
                        node,
                        subject: player.0,
                        kind: AuditKind::RatingTransition,
                        check: checks::EPOCH_SUMMARY,
                        score: 1,
                        confidence: Confidence::Proxy.label(),
                        trace: TraceId::NONE,
                        detail: format!("worst {prev_worst}->1 (epoch reset)"),
                    });
                }
                duty.worst_rating = 1;
                duty.updates_seen = 0;
            }
            // Keep every duty this node plausibly serves in the new epoch:
            // the scheduled pick *or* any fallback draw within depth, so a
            // fallback proxy retains the duty it may be asked to serve.
            let sched = &self.schedule;
            let depth = self.config.proxy_fallback_depth;
            let me = self.id;
            self.duties.retain(|&player, _| {
                (0..=depth).any(|n| sched.nth_proxy_of(player, frame, n as usize) == me)
            });
            // The new epoch's subscription refreshes supersede any pending
            // subscription traffic from the finished epoch (its target
            // proxy is obsolete); handoffs keep retrying until acked, and
            // churn lifecycle traffic outlives boundaries by design.
            let current_epoch = sched.epoch_of(frame);
            let before = self.pending.len();
            self.pending.retain(|_, p| {
                matches!(p.kind, ControlKind::Handoff | ControlKind::Direct)
                    || sched.epoch_of(p.sent_frame) == current_epoch
            });
            self.control_stats.superseded += (before - self.pending.len()) as u64;
        }

        self.drive_retransmits(frame, &mut out);

        self.trace_events(frame, TraceId::NONE, &output.events);
        self.metrics.observe_events(&output.events);
        output.outgoing = out;
        output
    }

    /// Broadcasts a signed kill claim through the proxy path so proxies
    /// and witnesses can verify it ("interactions such as hit and
    /// kill-claims are verified by proxies and by players acting as
    /// witnesses"). The claim goes to this node's proxy, which forwards it
    /// with the rest of the stream.
    pub fn claim_kill(&mut self, frame: u64, claim: crate::msg::KillClaim) -> Vec<Outgoing> {
        let mut out = Vec::new();
        let my_proxy = self.proxy(frame);
        self.sign_and_queue(&mut out, my_proxy, frame, Payload::Kill(claim));
        out
    }

    /// Announces this node's graceful departure to every active member.
    ///
    /// The departure takes effect at the first renewal boundary at least
    /// one full epoch ahead, so the reliable control plane has a whole
    /// epoch of retransmissions to deliver the notice — every honest node
    /// then removes this player at the *same* boundary. The node keeps
    /// playing (and serving its duties) until that boundary, then falls
    /// silent. Returns the announcement traffic; the effective frame is
    /// available from the returned envelopes or [`Self::leaving_at`].
    pub fn announce_leave(&mut self, frame: u64) -> Vec<Outgoing> {
        let mut out = Vec::new();
        if !self.roster.is_active(self.id) {
            return out;
        }
        let period = self.config.proxy_period;
        let effective = (frame.div_ceil(period) + 1) * period;
        self.pending_leaves.entry(self.id).or_insert(effective);
        let peers: Vec<PlayerId> =
            self.roster.active_players().into_iter().filter(|&p| p != self.id).collect();
        for p in peers {
            self.sign_and_queue(&mut out, p, frame, Payload::Leave { effective_frame: effective });
        }
        out
    }

    /// The boundary this node announced it will leave at, if any.
    #[must_use]
    pub fn leaving_at(&self) -> Option<u64> {
        self.pending_leaves.get(&self.id).copied()
    }

    /// One-shot announcement of this (joining) node's lobby ticket to
    /// every active member, via the reliable control plane.
    fn announce_join(&mut self, out: &mut Vec<Outgoing>, frame: u64) {
        if self.join_announced {
            return;
        }
        self.join_announced = true;
        let ticket = self.my_ticket.expect("a joining node holds its ticket");
        let peers: Vec<PlayerId> =
            self.roster.active_players().into_iter().filter(|&p| p != self.id).collect();
        for p in peers {
            self.sign_and_queue(out, p, frame, Payload::Join(ticket));
        }
    }

    /// The boundary step of the churn machinery, run first thing on every
    /// renewal frame:
    ///
    /// 1. feed `last_heard` evidence into the membership tracker and
    ///    *announce* evictions for players this node plausibly proxies
    ///    whose silence exceeded the membership timeout — the signed
    ///    notice carries the effective boundary, which is what makes
    ///    timeout evictions deterministic across nodes with (slightly)
    ///    different evidence;
    /// 2. apply every queued delta whose effective boundary has arrived:
    ///    departures exclude the player from the schedule *from the
    ///    announced epoch on* (history preserved for in-flight handoffs
    ///    and finished-epoch summaries), joins admit the next dense id at
    ///    the ticket's boundary;
    /// 3. drain state attached to departed members (duties, knowledge,
    ///    subscriptions, pending control), and send the bootstrap
    ///    snapshot to any joiner this node is first proxy of.
    fn apply_roster_boundary(
        &mut self,
        frame: u64,
        out: &mut Vec<Outgoing>,
        events: &mut Vec<NodeEvent>,
    ) {
        let period = self.config.proxy_period;

        // (1) Suspicion → announcement, only from plausible proxies of the
        // silent player (bounded announcer set, no election traffic).
        if self.roster.is_active(self.id) {
            for i in 0..self.roster.len() {
                let p = PlayerId(i as u32);
                if p != self.id && self.roster.is_active(p) {
                    self.membership.observe(p, self.last_heard[i]);
                }
            }
            let suspects: Vec<PlayerId> = self
                .membership
                .suspects(frame)
                .into_iter()
                .filter(|&p| {
                    p != self.id
                        && self.roster.is_active(p)
                        && !self.announced_evictions.contains(&p)
                        && self.plausibly_proxy_of(p, frame)
                })
                .collect();
            for p in suspects {
                let effective = frame + period;
                self.announced_evictions.insert(p);
                self.pending_evicts
                    .entry(p)
                    .and_modify(|e| *e = (*e).min(effective))
                    .or_insert(effective);
                self.churn_stats.evictions_announced += 1;
                let peers: Vec<PlayerId> = self
                    .roster
                    .active_players()
                    .into_iter()
                    .filter(|&q| q != self.id && q != p)
                    .collect();
                for q in peers {
                    self.sign_and_queue(
                        out,
                        q,
                        frame,
                        Payload::Evict { player: p, effective_frame: effective },
                    );
                }
            }
        }

        // (2) Collect the deltas due at this boundary. Departures first.
        let mut deltas: Vec<RosterDelta> = Vec::new();
        let mut departed: Vec<PlayerId> = Vec::new();
        let mut joined: Vec<PlayerId> = Vec::new();
        for (&p, &eff) in &self.pending_evicts {
            if eff <= frame && self.roster.is_active(p) {
                deltas.push(RosterDelta::Evict { player: p });
                departed.push(p);
                self.churn_stats.evictions_applied += 1;
                self.metrics.evictions_applied.inc();
            }
        }
        for (&p, &eff) in &self.pending_leaves {
            if eff <= frame && self.roster.is_active(p) && !departed.contains(&p) {
                deltas.push(RosterDelta::Leave { player: p });
                departed.push(p);
                self.churn_stats.leaves_applied += 1;
                self.metrics.leaves_applied.inc();
            }
        }
        // Exclude departures from the *announced* epoch (`try_exclude_from`
        // keeps the earliest across duplicate notices, so replicas
        // converge even when racing announcers named different
        // boundaries). A rejection means the pool would empty — the
        // member leaves the roster but stays drawable: degraded mode.
        for &p in &departed {
            let eff = self
                .pending_evicts
                .get(&p)
                .or_else(|| self.pending_leaves.get(&p))
                .copied()
                .unwrap_or(frame);
            let _ = self.schedule.try_exclude_from(p, eff.div_ceil(period));
            self.membership.remove_at(p, frame);
        }
        // Joins, in dense id order, stopping at the first gap (the roster
        // would refuse it; the ticket waits for the gap to fill).
        let mut next_id = self.roster.len() as u32;
        for (&pid, ticket) in &self.pending_joins.clone() {
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
            let admit_epoch = ticket.admit_frame.div_ceil(period);
            let assigned = self.schedule.admit_at(admit_epoch);
            debug_assert_eq!(assigned, ticket.player, "schedule and roster must agree on ids");
            self.replay.push(ReplayWindow::default());
            self.last_heard.push(frame);
            let _ = self.membership.admit(frame);
            deltas.push(RosterDelta::Join { player: ticket.player, key: ticket.key });
            joined.push(ticket.player);
            next_id += 1;
        }
        if deltas.is_empty() {
            return;
        }
        let applied = self.roster.apply(&deltas);
        debug_assert_eq!(applied, deltas.len(), "pre-filtered deltas must all apply");
        for &j in &joined {
            if j != self.id {
                self.churn_stats.joins_applied += 1;
                self.metrics.joins_applied.inc();
            }
        }

        // (3) Drain departed members' state and retire their queues.
        for &d in &departed {
            self.pending_evicts.remove(&d);
            self.pending_leaves.remove(&d);
            self.duties.remove(&d);
            self.known.remove(&d);
            self.known_breaks.remove(&d);
            self.my_subs.retain(|&(target, _), _| target != d);
            self.sub_pending.retain(|&(a, b), _| a != d && b != d);
            for duty in self.duties.values_mut() {
                duty.is_subs.remove(&d);
                duty.vs_subs.remove(&d);
            }
            // Pending control addressed to (or routed for) the departed
            // member is superseded by its removal, not abandoned.
            let before = self.pending.len();
            self.pending.retain(|_, p| p.to != d && p.route_player != d);
            self.control_stats.superseded += (before - self.pending.len()) as u64;
        }
        for &j in &joined {
            self.pending_joins.remove(&j.0);
            // First proxy of the joiner assembles the bootstrap snapshot.
            if j != self.id && self.effective_proxy(j, frame, frame) == self.id {
                self.send_bootstrap(out, frame, j);
            }
        }
        let active = self.roster.active_count();
        self.metrics.roster_active.set(active as i64);
        events.push(NodeEvent::RosterChanged { epoch: self.roster.epoch(), active });
    }

    /// Assembles and reliably sends the joiner-bootstrap snapshot: the
    /// freshest known states of up to `join_bootstrap_depth` active
    /// players, so the newcomer's interest/vision pipelines converge
    /// within its first epoch instead of waiting out the 1 Hz trickle.
    fn send_bootstrap(&mut self, out: &mut Vec<Outgoing>, frame: u64, joiner: PlayerId) {
        let mut entries: Vec<(u64, PlayerId, StateUpdate)> = self
            .known
            .iter()
            .filter(|&(&p, _)| p != joiner && self.roster.is_active(p))
            .map(|(&p, &(f, s))| (f, p, s))
            .collect();
        entries.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut snapshot = BootstrapSnapshot::new(self.roster.epoch());
        for (f, p, s) in entries.into_iter().take(self.config.join_bootstrap_depth) {
            snapshot.push(BootstrapEntry { player: p, frame: f, state: s });
        }
        self.sign_and_queue(out, joiner, frame, Payload::Bootstrap(snapshot));
        self.churn_stats.bootstraps_sent += 1;
        self.metrics.bootstraps_sent.inc();
    }

    /// Reliable control: retransmit unacked control messages whose ack
    /// timeout expired, with capped exponential backoff, re-routing each
    /// retry through the *current* effective proxy so retries chase a
    /// fallback (churn traffic keeps its fixed destination). Messages
    /// that exhaust the retry budget are abandoned and counted — on a
    /// merely lossy network this never fires; it indicates a dead or
    /// unreachable peer.
    fn drive_retransmits(&mut self, frame: u64, out: &mut Vec<Outgoing>) {
        let mut abandon: Vec<u64> = Vec::new();
        let mut resend: Vec<u64> = Vec::new();
        for (&seq, p) in &self.pending {
            if frame >= p.next_retry {
                if p.attempts >= self.config.retransmit_max_attempts {
                    abandon.push(seq);
                } else {
                    resend.push(seq);
                }
            }
        }
        for seq in abandon {
            let p = self.pending.remove(&seq).expect("listed");
            self.control_stats.abandoned += 1;
            self.metrics.control_abandoned.inc();
            self.recorder.record(TraceEvent::point(
                p.trace,
                self.id.0,
                p.to.0,
                frame,
                if p.kind == ControlKind::Handoff { Phase::Handoff } else { Phase::Subscription },
                EventKind::Mark,
                "control-abandoned",
                i64::from(p.attempts),
            ));
        }
        for seq in resend {
            let (route_player, route_frame, kind) = {
                let p = &self.pending[&seq];
                (p.route_player, p.route_frame, p.kind)
            };
            let to = if kind == ControlKind::Direct {
                self.pending[&seq].to
            } else {
                self.effective_proxy(route_player, route_frame, frame)
            };
            if to == self.id {
                // The scheduled target looks crashed and the fallback draw
                // is this node: it already holds the duty it was handing
                // over, so the chain is complete. Nothing is ever addressed
                // to oneself (`begin_frame` skips the same case on first
                // send).
                self.pending.remove(&seq);
                self.control_stats.superseded += 1;
                continue;
            }
            let p = self.pending.get_mut(&seq).expect("listed");
            p.attempts += 1;
            p.to = to;
            let backoff = (self.config.retransmit_timeout_frames << p.attempts.min(32))
                .min(self.config.retransmit_backoff_cap_frames);
            p.next_retry = frame + backoff;
            out.push(Outgoing { to, bytes: p.bytes.clone() });
            self.control_stats.retransmits += 1;
            self.metrics.control_retransmits.inc();
            self.recorder.record(TraceEvent::point(
                p.trace,
                self.id.0,
                to.0,
                frame,
                if kind == ControlKind::Handoff { Phase::Handoff } else { Phase::Subscription },
                EventKind::Send,
                "retransmit",
                p.bytes.len() as i64,
            ));
        }
    }

    /// The (target, kind) subscription list derived from learned state.
    fn compute_local_sets(&self, my_state: &PlayerFrame) -> Vec<(PlayerId, SetKind)> {
        // Build a dense state table from knowledge; unknown players stay
        // at an unreachable position so they classify as others.
        let far = watchmen_math::Vec3::new(-1e6, -1e6, 0.0);
        let states: Vec<PlayerFrame> = (0..self.roster.len())
            .map(|i| {
                let id = PlayerId(i as u32);
                if id == self.id {
                    return *my_state;
                }
                // Departed (and not-yet-admitted) members classify as
                // others-at-infinity: no subscriptions to ghosts.
                if !self.roster.is_active(id) {
                    return PlayerFrame { position: far, ..*my_state };
                }
                match self.known.get(&id) {
                    Some((_, s)) => PlayerFrame {
                        position: s.position,
                        velocity: s.velocity,
                        aim: s.aim,
                        health: s.health,
                        armor: s.armor,
                        weapon: s.weapon,
                        ammo: s.ammo,
                    },
                    None => PlayerFrame { position: far, ..*my_state },
                }
            })
            .collect();
        let sets = compute_sets(self.id, &states, &self.map, &self.config, &NoRecency);
        sets.interest
            .into_iter()
            .map(|t| (t, SetKind::Interest))
            .chain(sets.vision.into_iter().map(|t| (t, SetKind::Vision)))
            .collect()
    }

    /// Handles one received wire message. `wire_sender` is the transport-
    /// level sender (which differs from the envelope origin on forwarded
    /// messages). Returns messages to send and events for the application.
    pub fn handle_message(
        &mut self,
        frame: u64,
        wire_sender: PlayerId,
        bytes: &[u8],
    ) -> (Vec<Outgoing>, Vec<NodeEvent>) {
        let _span = FrameTimer::start(&self.metrics.handle_message_ms);
        let mut out = Vec::new();
        let mut events = Vec::new();

        // Any wire receipt is evidence the transport-level sender is alive
        // right now (even garbage bytes were emitted by *something* there).
        if wire_sender.index() < self.last_heard.len() {
            let heard = &mut self.last_heard[wire_sender.index()];
            *heard = (*heard).max(frame);
        }

        let Ok(msg) = SignedEnvelope::decode(bytes) else {
            events.push(NodeEvent::BadSignature { claimed_from: wire_sender });
            self.trace_events(frame, TraceId::NONE, &events);
            self.metrics.observe_events(&events);
            return (out, events);
        };
        // The causal trace id is recomputed from the signed (origin, seq)
        // pair at every hop — no extra wire bytes, tamper-evident.
        let trace = msg.trace_id();
        // Decision sites reached below (proxy verification, pending-check
        // resolution) stamp their audit records with this message's trace.
        self.audit_trace = trace;
        let origin = msg.envelope.from;
        let Some(origin_key) = self.roster.verifying_key(origin) else {
            // Unknown origin: the only admissible message is a Join
            // carrying a lobby-signed ticket — the ticket vouches for the
            // key, the key vouches for the envelope. Anything else is
            // churn-superseded traffic (e.g. a joiner's stream outrunning
            // its admission boundary here), dropped without scoring.
            if let Payload::Join(ticket) = msg.envelope.payload {
                self.consider_join(frame, origin, ticket, &msg, &mut out, &mut events);
            } else {
                self.churn_stats.stale_drops += 1;
                self.metrics.stale_drops.inc();
            }
            self.trace_events(frame, trace, &events);
            self.metrics.observe_events(&events);
            return (out, events);
        };
        if !msg.verify_prepared(origin_key) {
            events.push(NodeEvent::BadSignature { claimed_from: origin });
            self.trace_events(frame, trace, &events);
            self.metrics.observe_events(&events);
            return (out, events);
        }
        if self.roster.is_departed(origin) {
            // A member removed at a boundary keeps emitting for up to a
            // round-trip (its own removal reaches it last). Superseded,
            // never scored: churn must produce zero false verdicts.
            self.churn_stats.stale_drops += 1;
            self.metrics.stale_drops.inc();
            self.trace_events(frame, trace, &events);
            self.metrics.observe_events(&events);
            return (out, events);
        }

        // A verified signature proves the *origin* was alive at the
        // envelope's generation frame, however many hops relayed it since.
        {
            let heard = &mut self.last_heard[origin.index()];
            *heard = (*heard).max(msg.envelope.frame);
        }

        // Anti-replay, per origin: a sliding window tolerates the
        // reordering that multi-path forwarding causes, while duplicates
        // and stale sequences are rejected. Control messages bypass the
        // rejection: a duplicate there is a retransmission racing its own
        // ack, and must be re-processed (idempotently) and re-acked — not
        // flagged — or a single lost ack stalls the sender forever.
        let fresh = self.replay[origin.index()].check_and_set(msg.envelope.seq);
        if !fresh && !msg.envelope.payload.is_control() {
            events.push(NodeEvent::Replay { from: origin });
            self.trace_events(frame, trace, &events);
            self.metrics.observe_events(&events);
            return (out, events);
        }

        // "Origin's proxy" widens to the plausible set — any fallback draw
        // within depth — so duty acceptance stays schedule-only and agrees
        // between a fallen-back sender and the fallback proxy.
        let i_am_origins_proxy =
            wire_sender == origin && self.plausibly_proxy_of(origin, msg.envelope.frame);

        match msg.envelope.payload {
            Payload::State(update) => {
                if i_am_origins_proxy {
                    self.proxy_verify_and_account(origin, msg.envelope.frame, &update, &mut events);
                    // Forward the original signed bytes to IS subscribers.
                    let duty = self.duties.entry(origin).or_default();
                    for t in duty.live_subscribers(SetKind::Interest, frame) {
                        if t != origin && t != self.id {
                            out.push(Outgoing { to: t, bytes: bytes.to_vec() });
                        }
                    }
                }
                self.learn(origin, msg.envelope.frame, update);
                events.push(NodeEvent::Delivery {
                    about: origin,
                    class: "state",
                    gen_frame: msg.envelope.frame,
                });
            }
            Payload::Guidance(g) => {
                if i_am_origins_proxy {
                    let duty = self.duties.entry(origin).or_default();
                    for t in duty.live_subscribers(SetKind::Vision, frame) {
                        if t != origin && t != self.id {
                            out.push(Outgoing { to: t, bytes: bytes.to_vec() });
                        }
                    }
                }
                // Guidance carries position + velocity: learn those.
                self.learn_position(origin, msg.envelope.frame, g.position);
                events.push(NodeEvent::Delivery {
                    about: origin,
                    class: "guidance",
                    gen_frame: msg.envelope.frame,
                });
            }
            Payload::Position(p) => {
                if i_am_origins_proxy {
                    // Implicit broadcast to everyone without an explicit
                    // subscription.
                    let duty = self.duties.entry(origin).or_default();
                    let mut explicit = duty.live_subscribers(SetKind::Interest, frame);
                    explicit.extend(duty.live_subscribers(SetKind::Vision, frame));
                    for t in self.roster.active_players() {
                        if t != origin && t != self.id && !explicit.contains(&t) {
                            out.push(Outgoing { to: t, bytes: bytes.to_vec() });
                        }
                    }
                }
                self.learn_position(origin, msg.envelope.frame, p.position);
                events.push(NodeEvent::Delivery {
                    about: origin,
                    class: "position",
                    gen_frame: msg.envelope.frame,
                });
            }
            Payload::Subscribe { target, kind } => {
                // Two-hop control path: subscriber → subscriber's proxy →
                // target's proxy. The *installer* acks end-to-end, so the
                // origin keeps retransmitting until the install actually
                // happened, not merely until the first hop heard it.
                if !self.roster.is_active(target) {
                    // The target departed (or is not admitted yet): ack to
                    // stop the retransmissions, install nothing.
                    self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
                } else if i_am_origins_proxy {
                    // Verify the subscription is justified before relaying
                    // ("the proxy of a player p can verify whether a
                    // subscription of p to player q is justified") — only
                    // on first receipt, or every retransmission of one
                    // dubious subscribe re-raises the same suspicion.
                    if fresh {
                        self.verify_subscription(
                            frame,
                            msg.envelope.frame,
                            origin,
                            target,
                            kind,
                            &mut events,
                        );
                    }
                    if self.plausibly_proxy_of(target, msg.envelope.frame) {
                        self.install_subscription(origin, target, kind, frame);
                        self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
                    } else {
                        let target_proxy = self.effective_proxy(target, msg.envelope.frame, frame);
                        out.push(Outgoing { to: target_proxy, bytes: bytes.to_vec() });
                    }
                } else if self.plausibly_proxy_of(target, msg.envelope.frame) {
                    self.install_subscription(origin, target, kind, frame);
                    self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
                }
            }
            Payload::Unsubscribe { target, kind } => {
                if self.plausibly_proxy_of(target, msg.envelope.frame) {
                    if let Some(duty) = self.duties.get_mut(&target) {
                        match kind {
                            SetKind::Interest => {
                                duty.is_subs.remove(&origin);
                            }
                            SetKind::Vision => {
                                duty.vs_subs.remove(&origin);
                            }
                            SetKind::Others => {}
                        }
                    }
                    self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
                } else if i_am_origins_proxy {
                    let target_proxy = self.effective_proxy(target, msg.envelope.frame, frame);
                    out.push(Outgoing { to: target_proxy, bytes: bytes.to_vec() });
                }
            }
            Payload::Kill(claim) => {
                if i_am_origins_proxy {
                    // Forward to the claimant's IS subscribers — the
                    // witnesses best placed to verify.
                    let duty = self.duties.entry(origin).or_default();
                    for t in duty.live_subscribers(SetKind::Interest, frame) {
                        if t != origin && t != self.id {
                            out.push(Outgoing { to: t, bytes: bytes.to_vec() });
                        }
                    }
                }
                // Witness verification of kill claims.
                if let Some((seen_frame, victim_state)) = self.known.get(&claim.victim) {
                    let victim_frame = PlayerFrame {
                        position: victim_state.position,
                        velocity: victim_state.velocity,
                        aim: victim_state.aim,
                        health: victim_state.health,
                        armor: victim_state.armor,
                        weapon: victim_state.weapon,
                        ammo: victim_state.ammo,
                    };
                    let score = self.verifier.check_kill(&claim, &victim_frame, &self.map, 5);
                    if score > 1 {
                        let confidence =
                            if i_am_origins_proxy { Confidence::Proxy } else { Confidence::Vision };
                        let staleness = msg.envelope.frame.saturating_sub(*seen_frame);
                        events.push(NodeEvent::Suspicion {
                            subject: origin,
                            rating: CheatRating::new(score, confidence, staleness),
                            check: checks::KILL,
                        });
                    }
                }
            }
            Payload::Handoff(notice) => {
                // Accept handoffs for players this node *plausibly* serves
                // next epoch — the scheduled successor or any fallback
                // draw within depth, so a predecessor addressing a
                // fallback still lands the chain. Duplicates (a
                // retransmission racing its own ack) re-apply
                // idempotently and re-ack.
                let next_epoch_start = (notice.epoch + 1) * self.config.proxy_period;
                if !self.roster.is_active(notice.player) {
                    // The supervised player departed at a boundary while
                    // this handoff was in flight: its duty is drained, so
                    // ack the chain link and drop it.
                    self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
                } else if self.plausibly_proxy_of(notice.player, next_epoch_start) {
                    let digest = notice.digest();
                    let duty = self.duties.entry(notice.player).or_default();
                    // Record the state under the frame it was *observed*,
                    // never the (later) send frame, and never regress
                    // behind newer first-hand state — a retransmission
                    // arriving after live updates must not reinstate a
                    // stale baseline.
                    let obs = notice.observed_frame.min(msg.envelope.frame);
                    if duty.last_state.is_none_or(|(f, _)| f < obs) {
                        duty.last_state = Some((obs, notice.last_state));
                    }
                    // The predecessor's verdict travels in the
                    // HandoffReceived event (and the summary chain), not
                    // into this epoch's own accounting: folding it into
                    // `worst_rating` would re-report the same offense as a
                    // fresh verdict every epoch the chain survives.
                    duty.predecessor_digest = digest;
                    if fresh {
                        events.push(NodeEvent::HandoffReceived {
                            player: notice.player,
                            worst_rating: notice.worst_rating,
                        });
                    }
                    self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
                }
            }
            Payload::Ack { ack_seq } => {
                // Retires the matching pending control message. Any
                // verified origin's ack is honored: a forged ack requires
                // a directory private key, and its only effect is to stop
                // retransmission (see DESIGN.md §9 for the caveat).
                if self.pending.remove(&ack_seq).is_some() {
                    self.control_stats.acks_received += 1;
                    self.metrics.control_acks_received.inc();
                }
            }
            Payload::Leave { effective_frame } => {
                // Queue the graceful departure for its announced boundary
                // (earliest announcement wins, matching the schedule's
                // earliest-exclusion rule). Idempotent; always re-acked.
                if self.roster.is_active(origin) {
                    self.pending_leaves
                        .entry(origin)
                        .and_modify(|e| *e = (*e).min(effective_frame))
                        .or_insert(effective_frame);
                }
                self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
            }
            Payload::Join(_) => {
                // A Join from a *known* origin is a retransmission racing
                // the boundary that admitted it (or racing our ack):
                // nothing left to queue, just re-ack.
                self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
            }
            Payload::Evict { player, effective_frame } => {
                // Corroborate the notice against local evidence before
                // queueing: a lone (possibly malicious) announcer cannot
                // evict a player this node can still hear. In honest runs
                // the target is genuinely silent everywhere, so every
                // node queues the same (player, boundary) pair.
                let silent = player.index() < self.last_heard.len()
                    && frame.saturating_sub(self.last_heard[player.index()])
                        >= self.config.others_period;
                if player != self.id && self.roster.is_active(player) && silent {
                    self.pending_evicts
                        .entry(player)
                        .and_modify(|e| *e = (*e).min(effective_frame))
                        .or_insert(effective_frame);
                }
                self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
            }
            Payload::Bootstrap(snapshot) => {
                // The joiner's first proxy seeded us with its freshest
                // knowledge: learn every entry so interest/vision sets
                // converge within the first epoch.
                for e in snapshot.entries() {
                    if self.roster.is_active(e.player) {
                        self.learn(e.player, e.frame, e.state);
                    }
                }
                // The sender's delta history may predate the lobby
                // snapshot this roster was built from; adopt its epoch so
                // digests converge (content already agrees at boundaries).
                self.roster.sync_epoch(snapshot.roster_epoch);
                if fresh {
                    self.churn_stats.bootstraps_received += 1;
                    self.metrics.bootstraps_received.inc();
                    events.push(NodeEvent::BootstrapReceived {
                        from: origin,
                        entries: snapshot.entries().len() as u8,
                    });
                }
                self.queue_ack(&mut out, frame, origin, msg.envelope.seq);
            }
        }

        if !out.is_empty() {
            // One relay event per forward batch; `value` is the fan-out.
            self.recorder.record(TraceEvent::point(
                trace,
                self.id.0,
                origin.0,
                msg.envelope.frame,
                Phase::ProxyRelay,
                EventKind::Relay,
                msg.envelope.payload.label(),
                out.len() as i64,
            ));
        }
        self.trace_events(frame, trace, &events);
        self.metrics.messages_forwarded.add(out.len() as u64);
        self.metrics.observe_events(&events);
        (out, events)
    }

    /// Admission check for a Join announcement from an unknown origin:
    /// the ticket must verify under the lobby key, name the claimed
    /// origin, and the envelope must verify under the ticket's key. A
    /// valid ticket is queued for its admission boundary and acked; an
    /// invalid one is a spoof attempt and scored as a bad signature.
    fn consider_join(
        &mut self,
        frame: u64,
        origin: PlayerId,
        ticket: JoinTicket,
        msg: &SignedEnvelope,
        out: &mut Vec<Outgoing>,
        events: &mut Vec<NodeEvent>,
    ) {
        let Some(lobby) = self.lobby_key else {
            // No lobby key, no admission authority: superseded, not scored
            // (this node simply cannot judge the ticket).
            self.churn_stats.stale_drops += 1;
            self.metrics.stale_drops.inc();
            return;
        };
        let admissible = ticket.player == origin
            && origin.index() >= self.roster.len()
            && origin.index() < self.config.max_roster
            && ticket.verify(&lobby)
            && msg.verify(&ticket.key);
        if !admissible {
            events.push(NodeEvent::BadSignature { claimed_from: origin });
            return;
        }
        self.pending_joins.insert(origin.0, ticket);
        self.queue_ack(out, frame, origin, msg.envelope.seq);
    }

    /// Mirrors `events` into the flight recorder and captures a violation
    /// dump for each suspicious verdict, signature failure or replay, so
    /// the trace around every detection decision survives the ring.
    fn trace_events(&mut self, frame: u64, trace: TraceId, events: &[NodeEvent]) {
        let node = self.id.0;
        for e in events {
            match e {
                NodeEvent::Delivery { about, class, gen_frame } => {
                    self.recorder.record(TraceEvent::point(
                        trace,
                        node,
                        about.0,
                        *gen_frame,
                        Phase::Verify,
                        EventKind::Deliver,
                        class,
                        0,
                    ));
                }
                NodeEvent::BadSignature { claimed_from } => {
                    self.recorder.record(TraceEvent::point(
                        trace,
                        node,
                        claimed_from.0,
                        frame,
                        Phase::Verify,
                        EventKind::Reject,
                        "bad-signature",
                        0,
                    ));
                    self.audit.push(AuditRecord {
                        frame,
                        node,
                        subject: claimed_from.0,
                        kind: AuditKind::BadSignature,
                        check: "",
                        score: 0,
                        confidence: "",
                        trace,
                        detail: String::new(),
                    });
                    self.capture_dump("bad-signature", trace, claimed_from.0);
                }
                NodeEvent::Replay { from } => {
                    self.recorder.record(TraceEvent::point(
                        trace,
                        node,
                        from.0,
                        frame,
                        Phase::Verify,
                        EventKind::Reject,
                        "replay",
                        0,
                    ));
                    self.audit.push(AuditRecord {
                        frame,
                        node,
                        subject: from.0,
                        kind: AuditKind::Replay,
                        check: "",
                        score: 0,
                        confidence: "",
                        trace,
                        detail: String::new(),
                    });
                    self.capture_dump("replay", trace, from.0);
                }
                NodeEvent::Suspicion { subject, rating, check } => {
                    self.recorder.record(TraceEvent::point(
                        trace,
                        node,
                        subject.0,
                        frame,
                        Phase::Verify,
                        EventKind::Verdict,
                        check,
                        i64::from(rating.score),
                    ));
                    self.audit.push_with(|| AuditRecord {
                        frame,
                        node,
                        subject: subject.0,
                        kind: AuditKind::Verdict,
                        check,
                        score: rating.score,
                        confidence: rating.confidence.label(),
                        trace,
                        detail: format!("{rating}"),
                    });
                    if rating.is_suspicious() {
                        self.recorder.record(TraceEvent::point(
                            trace,
                            node,
                            subject.0,
                            frame,
                            Phase::Verify,
                            EventKind::Violation,
                            check,
                            i64::from(rating.score),
                        ));
                        self.capture_dump(check, trace, subject.0);
                    }
                }
                NodeEvent::HandoffReceived { player, worst_rating } => {
                    self.recorder.record(TraceEvent::point(
                        trace,
                        node,
                        player.0,
                        frame,
                        Phase::Handoff,
                        EventKind::Mark,
                        "handoff-received",
                        i64::from(*worst_rating),
                    ));
                }
                NodeEvent::RosterChanged { epoch, active } => {
                    self.recorder.record(TraceEvent::point(
                        trace,
                        node,
                        node,
                        frame,
                        Phase::Tick,
                        EventKind::Mark,
                        "roster-changed",
                        (*epoch as i64) << 16 | *active as i64,
                    ));
                }
                NodeEvent::BootstrapReceived { from, entries } => {
                    self.recorder.record(TraceEvent::point(
                        trace,
                        node,
                        from.0,
                        frame,
                        Phase::Subscription,
                        EventKind::Mark,
                        "bootstrap-received",
                        i64::from(*entries),
                    ));
                }
            }
        }
    }

    /// Snapshots the recorder around a violation into the bounded dump
    /// store (oldest dump evicted once [`MAX_FLIGHT_DUMPS`] are held).
    fn capture_dump(&mut self, reason: &str, trace: TraceId, subject: u32) {
        if self.flight_dumps.len() >= MAX_FLIGHT_DUMPS {
            self.flight_dumps.pop_front();
        }
        self.flight_dumps.push_back(self.recorder.dump(reason, trace, subject));
    }

    /// Proxy-side verification of a supervised player's state update.
    fn proxy_verify_and_account(
        &mut self,
        origin: PlayerId,
        gen_frame: u64,
        update: &StateUpdate,
        events: &mut Vec<NodeEvent>,
    ) {
        let previous = self.duties.get(&origin).and_then(|d| d.last_state);
        // Respawns teleport legally: skip physics checks while the player
        // was dead (health carried in the state updates makes the respawn
        // observable to the proxy).
        if let Some((prev_frame, prev_state)) = previous.filter(|(_, p)| p.health > 0) {
            let elapsed = gen_frame.saturating_sub(prev_frame).max(1);
            let score = self.verifier.check_position(
                prev_state.position,
                update.position,
                elapsed,
                &self.map,
            );
            if score > 1 {
                events.push(NodeEvent::Suspicion {
                    subject: origin,
                    rating: CheatRating::new(score, Confidence::Proxy, 0),
                    check: checks::POSITION,
                });
            }
            let aim_score = self.verifier.check_aim(prev_state.aim, update.aim, elapsed);
            if aim_score > 1 {
                events.push(NodeEvent::Suspicion {
                    subject: origin,
                    rating: CheatRating::new(aim_score, Confidence::Proxy, 0),
                    check: checks::AIM,
                });
            }
            let duty = self.duties.entry(origin).or_default();
            let prev_worst = duty.worst_rating;
            duty.worst_rating = duty.worst_rating.max(score).max(aim_score);
            let worst = duty.worst_rating;
            // Transitions to the clean baseline (0 → 1 on a duty's first
            // update) are initialization, not decisions — skip those.
            if worst > prev_worst && worst > 1 {
                let trace = self.audit_trace;
                self.audit.push_with(|| AuditRecord {
                    frame: gen_frame,
                    node: self.id.0,
                    subject: origin.0,
                    kind: AuditKind::RatingTransition,
                    check: if score >= aim_score { checks::POSITION } else { checks::AIM },
                    score: worst,
                    confidence: Confidence::Proxy.label(),
                    trace,
                    detail: format!("worst {prev_worst}->{worst}"),
                });
            }
        }
        let duty = self.duties.entry(origin).or_default();
        duty.updates_seen += 1;
        duty.last_state = Some((gen_frame, *update));
        self.confirm_sub_offenses(origin, gen_frame, update, events);
    }

    /// Re-judge parked subscription offenses once skew-free evidence is in
    /// hand. A parked offense resolves only when the proxy holds BOTH
    /// sides of the subscription frame: the subscriber's own state from
    /// exactly that frame (the cone the subscription was computed from —
    /// a Subscribe races its same-frame state update, and a respawn
    /// teleport makes the stale cone point across the map), and target
    /// knowledge generated at-or-after it (the pre-respawn copy of a
    /// target is equally misleading, and position-only corpse broadcasts
    /// hide the death). A miss that survives both is deliberate — the
    /// signature of a map hack probing unseen players — and earns the
    /// full score; a cone hit or an information discontinuity in the
    /// target's stream acquits silently (the capped rating from
    /// [`Self::verify_subscription`] already fed the reputation system).
    fn confirm_sub_offenses(
        &mut self,
        origin: PlayerId,
        gen_frame: u64,
        update: &StateUpdate,
        events: &mut Vec<NodeEvent>,
    ) {
        let pending: Vec<(PlayerId, PendingSubCheck)> = self
            .sub_pending
            .iter()
            .filter(|((subscriber, _), _)| *subscriber == origin)
            .map(|(&(_, target), &check)| (target, check))
            .collect();
        for (target, mut check) in pending {
            // Step 1: capture the subscriber's exact-frame state.
            if check.sub_state.is_none() {
                if gen_frame == check.sub_gen {
                    check.sub_state = Some(*update);
                    self.sub_pending.insert((origin, target), check);
                } else if gen_frame > check.sub_gen {
                    // The exact-frame state was lost in transit: without
                    // it the re-check would judge a cone the subscriber
                    // never claimed. Drop the parked offense.
                    self.sub_pending.remove(&(origin, target));
                    self.audit_pending_resolved(origin, gen_frame, 0, "dropped");
                    continue;
                } else {
                    continue; // pre-offense update; keep waiting
                }
            }
            let Some(sub_state) = check.sub_state else { continue };
            // Step 2: wait for target knowledge from at-or-after the
            // subscription frame, with a deadline so entries can't linger.
            if gen_frame.saturating_sub(check.sub_gen) > 4 * self.config.guidance_period {
                self.sub_pending.remove(&(origin, target));
                self.audit_pending_resolved(origin, gen_frame, 0, "expired");
                continue;
            }
            let Some(&(tgt_gen, target_state)) = self.known.get(&target) else {
                self.sub_pending.remove(&(origin, target));
                self.audit_pending_resolved(origin, gen_frame, 0, "target-departed");
                continue; // target departed since the offense
            };
            if tgt_gen < check.sub_gen {
                continue; // pre-offense target copy; keep waiting
            }
            // Step 3: both sides in hand — resolve.
            self.sub_pending.remove(&(origin, target));
            if target_state.health == 0 || self.recent_knowledge_break(target, gen_frame) {
                // death/respawn straddles the window: no baseline
                self.audit_pending_resolved(origin, gen_frame, 0, "no-baseline");
                continue;
            }
            let sub_frame = PlayerFrame {
                position: sub_state.position,
                velocity: sub_state.velocity,
                aim: sub_state.aim,
                health: sub_state.health,
                armor: sub_state.armor,
                weapon: sub_state.weapon,
                ammo: sub_state.ammo,
            };
            let raw =
                self.verifier.check_vs_subscription(&sub_frame, target_state.position, &self.map);
            if raw >= SEVERE_SCORE {
                self.audit_pending_resolved(origin, gen_frame, raw, "confirmed");
                events.push(NodeEvent::Suspicion {
                    subject: origin,
                    rating: CheatRating::new(raw, Confidence::Proxy, 0),
                    check: checks::SUBSCRIPTION,
                });
            } else {
                self.audit_pending_resolved(origin, gen_frame, raw, "acquitted");
            }
        }
    }

    /// Pushes one [`AuditKind::PendingResolved`] record for a parked
    /// subscription check reaching `outcome`.
    fn audit_pending_resolved(
        &mut self,
        subject: PlayerId,
        frame: u64,
        score: u8,
        outcome: &'static str,
    ) {
        let trace = self.audit_trace;
        let node = self.id.0;
        self.audit.push_with(|| AuditRecord {
            frame,
            node,
            subject: subject.0,
            kind: AuditKind::PendingResolved,
            check: checks::SUBSCRIPTION,
            score,
            confidence: Confidence::Proxy.label(),
            trace,
            detail: outcome.to_owned(),
        });
    }

    /// Proxy-side verification of an outgoing subscription. `frame` is the
    /// local frame the Subscribe arrived on; `sub_gen` is the frame the
    /// subscriber computed it on (its envelope frame).
    fn verify_subscription(
        &mut self,
        frame: u64,
        sub_gen: u64,
        subscriber: PlayerId,
        target: PlayerId,
        kind: SetKind,
        events: &mut Vec<NodeEvent>,
    ) {
        let (Some((sub_frame_no, sub_state)), Some((tgt_frame_no, target_state))) = (
            self.duties.get(&subscriber).and_then(|d| d.last_state),
            self.known.get(&target).copied(),
        ) else {
            return; // not enough information yet
        };
        // The geometric tolerance in the cone check covers one guidance
        // period of target movement. Under loss our knowledge of either
        // party can be older than that — then the check has no honest
        // baseline and a verdict would be guesswork, so skip it.
        let staleness_budget = self.config.guidance_period;
        if frame.saturating_sub(sub_frame_no) > staleness_budget
            || frame.saturating_sub(tgt_frame_no) > staleness_budget
        {
            return;
        }
        // A respawn teleports the target across the map, so observers
        // whose sightings straddle it disagree about its position by far
        // more than any speed-based tolerance. Until everyone has plausibly
        // seen the post-respawn state, the cone check has no honest
        // baseline: skip while our copy is dead (the respawn is still to
        // come) and for a window after a discontinuity in our stream.
        if target_state.health == 0 || self.recent_knowledge_break(target, frame) {
            return;
        }
        let sub_frame = PlayerFrame {
            position: sub_state.position,
            velocity: sub_state.velocity,
            aim: sub_state.aim,
            health: sub_state.health,
            armor: sub_state.armor,
            weapon: sub_state.weapon,
            ammo: sub_state.ammo,
        };
        let raw = match kind {
            SetKind::Interest | SetKind::Vision => {
                self.verifier.check_vs_subscription(&sub_frame, target_state.position, &self.map)
            }
            SetKind::Others => 1,
        };
        // A subscription is computed from the subscriber's state on its
        // envelope frame, but that state update usually rides the same
        // delivery batch and hasn't been processed yet — the check above
        // then compares the claimed cone against a one-frame-stale copy,
        // and an honest turn (or a respawn teleport) looks wildly
        // out-of-cone. Cap the rating below the severe threshold and park
        // the offense for re-judgement once skew-free evidence from both
        // sides of the subscription frame is in hand (see
        // confirm_sub_offenses).
        let score = if raw >= SEVERE_SCORE {
            let sub_state_exact = (sub_frame_no == sub_gen).then_some(sub_state);
            self.sub_pending.insert(
                (subscriber, target),
                PendingSubCheck { sub_gen, sub_state: sub_state_exact },
            );
            5
        } else {
            raw
        };
        if score > 1 {
            events.push(NodeEvent::Suspicion {
                subject: subscriber,
                rating: CheatRating::new(score, Confidence::Proxy, 0),
                check: checks::SUBSCRIPTION,
            });
        }
    }

    fn install_subscription(
        &mut self,
        subscriber: PlayerId,
        target: PlayerId,
        kind: SetKind,
        frame: u64,
    ) {
        let expiry = frame + self.config.subscription_retention;
        let duty = self.duties.entry(target).or_default();
        match kind {
            SetKind::Interest => {
                duty.is_subs.insert(subscriber, expiry);
            }
            SetKind::Vision => {
                duty.vs_subs.insert(subscriber, expiry);
            }
            SetKind::Others => {}
        }
    }

    /// Records a discontinuity in `player`'s knowledge stream if the step
    /// from the previous copy to the new one crosses a death (health edge)
    /// or covers more ground than physics allows — the signature of a
    /// respawn whose dead interval fell between two sightings.
    fn note_knowledge_break(
        &mut self,
        player: PlayerId,
        prev: &(u64, StateUpdate),
        frame: u64,
        health: i32,
        position: watchmen_math::Vec3,
    ) {
        let (prev_frame, prev_state) = prev;
        let dead_edge = prev_state.health == 0 || health == 0;
        let elapsed = frame.saturating_sub(*prev_frame).max(1);
        let max_travel =
            self.verifier.physics().max_speed * self.config.frame_seconds() * elapsed as f64 * 2.0;
        if dead_edge || prev_state.position.distance(position) > max_travel {
            self.known_breaks.insert(player, frame);
        }
    }

    /// Whether `player`'s knowledge stream showed a discontinuity recently
    /// enough (relative to `frame`) that other observers may still hold
    /// pre-discontinuity copies. The window covers a full others-cadence
    /// refresh on both sides plus transit.
    fn recent_knowledge_break(&self, player: PlayerId, frame: u64) -> bool {
        self.known_breaks
            .get(&player)
            .is_some_and(|&b| frame.saturating_sub(b) <= 2 * self.config.guidance_period)
    }

    fn learn(&mut self, player: PlayerId, frame: u64, update: StateUpdate) {
        if let Some(&prev) = self.known.get(&player) {
            if frame >= prev.0 {
                self.note_knowledge_break(player, &prev, frame, update.health, update.position);
            }
        }
        let entry = self.known.entry(player).or_insert((frame, update));
        if frame >= entry.0 {
            *entry = (frame, update);
        }
    }

    fn learn_position(&mut self, player: PlayerId, frame: u64, position: watchmen_math::Vec3) {
        if let Some(&prev) = self.known.get(&player) {
            if frame >= prev.0 {
                self.note_knowledge_break(player, &prev, frame, prev.1.health, position);
            }
        }
        match self.known.get_mut(&player) {
            Some(entry) if frame >= entry.0 => {
                entry.0 = frame;
                entry.1.position = position;
            }
            Some(_) => {}
            None => {
                // Synthesize a minimal record: position is all we know.
                let stub = StateUpdate {
                    position,
                    velocity: watchmen_math::Vec3::ZERO,
                    aim: watchmen_math::Aim::default(),
                    health: 100,
                    armor: 0,
                    weapon: watchmen_game::WeaponKind::MachineGun,
                    ammo: 0,
                };
                self.known.insert(player, (frame, stub));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_window_accepts_seq_zero_first() {
        // Regression: a fresh window used to reject sequence 0 outright,
        // because its zero-initialized `high` was indistinguishable from
        // "already accepted seq 0" — an origin whose counter starts at 0
        // had its very first message refused as a replay.
        let mut w = ReplayWindow::default();
        assert!(w.check_and_set(0), "first seq 0 must be accepted");
        assert!(!w.check_and_set(0), "second seq 0 is a real replay");
        assert!(w.check_and_set(1));
    }

    #[test]
    fn replay_window_accepts_seq_one_start() {
        // An origin starting at 1 (the common case): 1 is fresh, then 0
        // arriving late is an in-window reorder — accepted exactly once.
        let mut w = ReplayWindow::default();
        assert!(w.check_and_set(1));
        assert!(w.check_and_set(0), "late seq 0 is reordering, not replay");
        assert!(!w.check_and_set(0));
        assert!(!w.check_and_set(1));
    }

    #[test]
    fn replay_window_slides_and_rejects_stale() {
        let mut w = ReplayWindow::default();
        assert!(w.check_and_set(10));
        assert!(w.check_and_set(100));
        // 10 is now 90 behind: too old to distinguish from a replay.
        assert!(!w.check_and_set(10));
        assert!(!w.check_and_set(36), "64-entry window: 100-36 is outside");
        assert!(w.check_and_set(37), "exactly at the window edge");
        assert!(w.check_and_set(99));
        assert!(!w.check_and_set(99));
    }

    fn test_node() -> WatchmenNode {
        let players = 3;
        let keys: Vec<Keypair> = (0..players).map(|i| Keypair::generate(77 ^ i as u64)).collect();
        let directory: Vec<_> = keys.iter().map(Keypair::public).collect();
        WatchmenNode::new(
            PlayerId(0),
            keys.into_iter().next().expect("one key"),
            directory,
            77,
            WatchmenConfig::default(),
            watchmen_world::maps::arena(40, 10.0),
            watchmen_world::PhysicsConfig::default(),
        )
    }

    fn state_at(position: watchmen_math::Vec3, aim: watchmen_math::Aim) -> StateUpdate {
        StateUpdate {
            position,
            velocity: watchmen_math::Vec3::ZERO,
            aim,
            health: 100,
            armor: 0,
            weapon: watchmen_game::WeaponKind::MachineGun,
            ammo: 10,
        }
    }

    fn severe_subscription_count(events: &[NodeEvent]) -> usize {
        events
            .iter()
            .filter(|e| {
                matches!(e, NodeEvent::Suspicion { rating, check, .. }
                    if rating.is_suspicious() && *check == checks::SUBSCRIPTION)
            })
            .count()
    }

    #[test]
    fn map_hack_subscription_is_confirmed_severe() {
        // The subscriber claims interest in a target far behind it while
        // every copy involved is fresh and continuous: the offense parks
        // at a capped rating, then the exact-frame evidence confirms it.
        let mut node = test_node();
        let sub = PlayerId(1);
        let target = PlayerId(2);
        let looking_px = watchmen_math::Aim::default(); // +x
        let sub_state = state_at(watchmen_math::Vec3::new(200.0, 200.0, 0.0), looking_px);
        // 160 units straight *behind* the +x cone: deviation well past
        // 4x the guidance tolerance.
        let tgt_state = state_at(watchmen_math::Vec3::new(40.0, 200.0, 0.0), looking_px);
        node.duties.entry(sub).or_default().last_state = Some((10, sub_state));
        node.known.insert(target, (12, tgt_state));

        let mut events = Vec::new();
        node.verify_subscription(11, 10, sub, target, SetKind::Vision, &mut events);
        assert_eq!(severe_subscription_count(&events), 0, "offense must park, not sever");
        assert!(
            events.iter().any(|e| matches!(e, NodeEvent::Suspicion { rating, .. }
                if rating.score == 5)),
            "parked offense still rates a capped suspicion: {events:?}"
        );
        assert!(node.sub_pending.contains_key(&(sub, target)), "offense parked");

        // The proxy already held the subscriber's exact-frame state, so
        // the next supervised update resolves the pending check.
        let mut confirm_events = Vec::new();
        node.proxy_verify_and_account(sub, 11, &sub_state, &mut confirm_events);
        assert_eq!(severe_subscription_count(&confirm_events), 1, "{confirm_events:?}");
        assert!(node.sub_pending.is_empty(), "pending resolved");
    }

    #[test]
    fn respawn_race_subscription_is_acquitted() {
        // The subscriber respawned on the frame it subscribed: the proxy's
        // one-frame-stale copy puts its cone across the map, but the
        // exact-frame state shows the target dead ahead — acquit.
        let mut node = test_node();
        let sub = PlayerId(1);
        let target = PlayerId(2);
        let looking_px = watchmen_math::Aim::default();
        let pre_respawn = state_at(watchmen_math::Vec3::new(350.0, 350.0, 0.0), looking_px);
        let post_respawn = state_at(watchmen_math::Vec3::new(180.0, 200.0, 0.0), looking_px);
        let tgt_state = state_at(watchmen_math::Vec3::new(220.0, 200.0, 0.0), looking_px);
        node.duties.entry(sub).or_default().last_state = Some((9, pre_respawn));
        node.known.insert(target, (12, tgt_state));

        let mut events = Vec::new();
        node.verify_subscription(11, 10, sub, target, SetKind::Interest, &mut events);
        assert_eq!(severe_subscription_count(&events), 0);
        assert!(node.sub_pending.contains_key(&(sub, target)));

        // The exact-frame state lands: target 40 ahead, dead in the cone.
        let mut confirm_events = Vec::new();
        node.proxy_verify_and_account(sub, 10, &post_respawn, &mut confirm_events);
        assert_eq!(
            severe_subscription_count(&confirm_events),
            0,
            "honest respawn race must acquit: {confirm_events:?}"
        );
        assert!(node.sub_pending.is_empty(), "pending resolved either way");
    }

    #[test]
    fn target_respawn_break_suppresses_confirmation() {
        // The *target* teleports (death + respawn) inside the window: the
        // knowledge stream shows an impossible jump, so the re-check has
        // no honest baseline and the parked offense is dropped.
        let mut node = test_node();
        let sub = PlayerId(1);
        let target = PlayerId(2);
        let looking_px = watchmen_math::Aim::default();
        let sub_state = state_at(watchmen_math::Vec3::new(200.0, 200.0, 0.0), looking_px);
        let tgt_old = state_at(watchmen_math::Vec3::new(230.0, 200.0, 0.0), looking_px);
        node.duties.entry(sub).or_default().last_state = Some((10, sub_state));
        node.known.insert(target, (8, tgt_old));

        // The target's post-respawn copy lands: a 250-unit jump in four
        // frames registers as a knowledge break...
        node.learn(target, 12, state_at(watchmen_math::Vec3::new(30.0, 40.0, 0.0), looking_px));
        assert!(node.recent_knowledge_break(target, 12), "jump must register as a break");

        // ...so an offense resolved inside the break window acquits, even
        // though the fresh copies disagree wildly.
        let mut events = Vec::new();
        node.verify_subscription(11, 10, sub, target, SetKind::Vision, &mut events);
        let mut confirm_events = Vec::new();
        node.proxy_verify_and_account(sub, 11, &sub_state, &mut confirm_events);
        assert_eq!(
            severe_subscription_count(&confirm_events),
            0,
            "discontinuity must suppress the verdict: {confirm_events:?}"
        );
        assert!(node.sub_pending.is_empty());
    }

    #[test]
    fn subscription_expiry_boundary_is_exclusive() {
        // A subscriber with expiry f is served through f-1 and dropped at
        // exactly f — the boundary live_subscribers defines for all call
        // sites.
        let mut duty = ProxyDuty::default();
        duty.is_subs.insert(PlayerId(3), 50);
        assert_eq!(duty.live_subscribers(SetKind::Interest, 49), vec![PlayerId(3)]);
        assert!(duty.live_subscribers(SetKind::Interest, 50).is_empty());
        assert!(duty.is_subs.is_empty(), "expired entry is removed, not just hidden");
        // Others has no subscriber list regardless of contents.
        duty.vs_subs.insert(PlayerId(4), 100);
        assert!(duty.live_subscribers(SetKind::Others, 0).is_empty());
    }
}
