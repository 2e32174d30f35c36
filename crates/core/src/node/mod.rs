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
//! The node is driven only through [`crate::sans_io::ProtocolCore`]. This
//! module holds identity, keys, roster, schedule and the replay windows;
//! its tick is a list of phase calls, and its datagram path gates then
//! dispatches on [`Payload`] to one component per concern — `control`,
//! `churn`, `duty`, `knowledge`, `instrument` — each owning its state.

#![warn(clippy::too_many_lines)]

mod churn;
mod control;
mod duty;
mod instrument;
mod knowledge;

use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_telemetry::trace::TraceId;
use watchmen_world::{GameMap, PhysicsConfig};

pub use churn::ChurnStats;
pub use control::ControlPlaneStats;

use crate::dead_reckoning::Guidance;
use crate::msg::{KillClaim, Payload, PositionUpdate, SignedEnvelope, StateUpdate};
use crate::proxy::ProxySchedule;
use crate::rating::CheatRating;
use crate::roster::{MemberStatus, Roster};
use crate::sans_io::CoreOutput;
use crate::verify::Verifier;
use crate::WatchmenConfig;
use churn::Churn;
use control::Control;
use duty::Duty;
use instrument::Instrument;
use knowledge::Knowledge;

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

/// A datagram that passed the decode, signature, departed-origin and
/// replay gates, and the output its handling produces.
struct Inbound<'a> {
    /// The local frame it is handled at.
    now: u64,
    origin: PlayerId,
    /// Its envelope frame and sequence number.
    gen_frame: u64,
    seq: u64,
    /// First receipt: control duplicates pass the replay gate too, to be
    /// re-processed idempotently and re-acked.
    fresh: bool,
    /// Sent by the origin itself to one of its plausible proxies — this
    /// node, which therefore verifies and relays the stream. Plausible,
    /// not scheduled, so a fallen-back sender and the fallback agree.
    from_origin: bool,
    label: &'static str,
    trace: TraceId,
    /// The original signed bytes, forwarded verbatim.
    bytes: &'a [u8],
    /// How many times [`Inbound::forward`] relayed them.
    forwards: u64,
    out: &'a mut CoreOutput,
}

impl Inbound<'_> {
    fn deliver(&mut self) {
        let (about, class, gen_frame) = (self.origin, self.label, self.gen_frame);
        self.out.events.push(NodeEvent::Delivery { about, class, gen_frame });
    }

    fn forward(&mut self, to: PlayerId) {
        self.forwards += 1;
        self.out.datagrams.push(Outgoing { to, bytes: self.bytes.to_vec() });
    }
}

/// The player-side protocol endpoint. See the module docs.
#[derive(Debug)]
pub struct WatchmenNode {
    id: PlayerId,
    keys: Keypair,
    /// The epoch-versioned membership view: maps every id ever admitted
    /// to its key and lifecycle status.
    roster: Roster,
    schedule: ProxySchedule,
    config: WatchmenConfig,
    map: GameMap,
    verifier: Verifier,
    seq: u64,
    /// Anti-replay windows per origin.
    replay: Vec<ReplayWindow>,
    control: Control,
    churn: Churn,
    duty: Duty,
    knowledge: Knowledge,
    instrument: Instrument,
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
    /// cover `id`, or if `config` fails [`WatchmenConfig::validate`].
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
        config.validate();
        assert!(directory.len() >= 2, "need at least two players");
        assert!(id.index() < directory.len(), "id outside directory");
        let players = directory.len();
        let schedule = ProxySchedule::new(seed, players, config.proxy_period);
        Self::from_parts(id, keys, Roster::new(directory), schedule, config, map, physics)
    }

    fn from_parts(
        id: PlayerId,
        keys: Keypair,
        roster: Roster,
        schedule: ProxySchedule,
        config: WatchmenConfig,
        map: GameMap,
        physics: PhysicsConfig,
    ) -> Self {
        let players = roster.len();
        let verifier = Verifier::new(config, physics);
        WatchmenNode {
            instrument: Instrument::new(id.0),
            id,
            keys,
            roster,
            schedule,
            config,
            map,
            seq: 0,
            replay: vec![ReplayWindow::default(); players],
            control: Control::new(players),
            churn: Churn::new(),
            duty: Duty::new(),
            knowledge: Knowledge::new(players, &config, verifier.physics()),
            verifier,
        }
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

    /// Runs one frame for the local avatar in `my_state` (see [`Self::tick`]).
    pub(crate) fn begin_frame(&mut self, frame: u64, my_state: &PlayerFrame) -> CoreOutput {
        let mut out = CoreOutput::default();
        self.tick(frame, my_state, &mut out);
        self.instrument.observe(frame, TraceId::NONE, &out.events);
        out
    }

    /// The per-frame sender side. A joining node announces its ticket and
    /// waits: it neither publishes nor serves until the boundary that
    /// admits it (where the same `Join` delta the veterans apply flips it
    /// active). A departed node emits nothing at all. Membership deltas
    /// apply first thing at a boundary, so the rest of the frame already
    /// runs against the new epoch's pool; epoch summaries still resolve
    /// the *finished* epoch's draws, because the schedule is
    /// epoch-versioned and never rewrites history.
    fn tick(&mut self, frame: u64, my_state: &PlayerFrame, out: &mut CoreOutput) {
        if self.control.resume(frame) {
            self.duty.resumed_epoch = Some(self.schedule.epoch_of(frame));
        }
        let boundary = frame > 0 && self.config.is_renewal_frame(frame);
        match self.roster.status(self.id) {
            Some(MemberStatus::Joining) => {
                self.announce_join(frame, out);
                if boundary {
                    self.apply_roster_boundary(frame, out);
                }
                self.drive_retransmits(frame, out);
                return;
            }
            Some(MemberStatus::Active) => {}
            _ => return,
        }
        if boundary {
            self.apply_roster_boundary(frame, out);
            if !self.roster.is_active(self.id) {
                return; // this boundary applied our own departure
            }
        }
        let (scheduled_proxy, my_proxy) = self.publish_target(frame);
        // Self joins the knowledge base so set computation has an observer
        // entry, and its own deaths and respawns register as knowledge
        // breaks too: this node may be proxying a subscription that
        // targets itself.
        self.knowledge.learn(self.id, frame, StateUpdate::from(my_state));

        self.refresh_subscriptions(frame, my_state, my_proxy, out);
        self.publish_updates(frame, my_state, scheduled_proxy, my_proxy, out);
        self.send_handoffs(frame, out);

        if boundary {
            self.turn_epoch(frame, out);
        }
        self.drive_retransmits(frame, out);
    }

    /// The state update, plus 1 Hz guidance and position updates on this
    /// player's staggered frames.
    fn publish_updates(
        &mut self,
        frame: u64,
        my_state: &PlayerFrame,
        scheduled_proxy: PlayerId,
        my_proxy: PlayerId,
        out: &mut CoreOutput,
    ) {
        let state = Payload::State(StateUpdate::from(my_state));
        self.sign_and_queue(out, my_proxy, frame, state);
        // Under fallback, keep feeding the scheduled proxy too: the crash
        // presumption may be wrong (a lost broadcast cycle), and a live
        // scheduled proxy starved of states would convict this node of
        // rate-cheating at epoch end. If it is really dead the extra send
        // is a no-op.
        if my_proxy != scheduled_proxy {
            self.sign_and_queue(out, scheduled_proxy, frame, state);
        }
        if self.config.is_guidance_frame(frame, self.id.index()) {
            let (period, dt) = (WatchmenConfig::GUIDANCE_PERIOD, self.config.frame_seconds());
            let g = Guidance::from_state(my_state, frame, period, dt);
            self.sign_and_queue(out, my_proxy, frame, Payload::Guidance(g));
        }
        if self.config.is_others_frame(frame, self.id.index()) {
            let position = PositionUpdate { position: my_state.position };
            self.sign_and_queue(out, my_proxy, frame, Payload::Position(position));
        }
    }

    /// Broadcasts a signed kill claim through the proxy path so proxies
    /// and witnesses can verify it ("interactions such as hit and
    /// kill-claims are verified by proxies and by players acting as
    /// witnesses"). The claim goes to this node's proxy, which forwards it
    /// with the rest of the stream.
    pub(crate) fn claim_kill(&mut self, frame: u64, claim: KillClaim) -> CoreOutput {
        let mut out = CoreOutput::default();
        let my_proxy = self.proxy(frame);
        self.sign_and_queue(&mut out, my_proxy, frame, Payload::Kill(claim));
        out
    }

    /// Handles one received wire message. `sender` is the transport-level
    /// sender (which differs from the envelope origin on forwarded
    /// messages).
    pub(crate) fn handle_message(
        &mut self,
        frame: u64,
        sender: PlayerId,
        bytes: &[u8],
    ) -> CoreOutput {
        let mut out = CoreOutput::default();
        let trace = self.receive(frame, sender, bytes, &mut out);
        self.instrument.observe(frame, trace, &out.events);
        out
    }

    /// The datagram gates — decode, signature, departed origin, replay —
    /// then one dispatch. Returns the message's trace id (none when it
    /// did not decode).
    fn receive(
        &mut self,
        frame: u64,
        sender: PlayerId,
        bytes: &[u8],
        out: &mut CoreOutput,
    ) -> TraceId {
        // Any wire receipt is evidence the transport-level sender is alive
        // right now (even garbage bytes were emitted by *something* there).
        self.control.heard(sender, frame);
        let Ok(msg) = SignedEnvelope::decode(bytes) else {
            out.events.push(NodeEvent::BadSignature { claimed_from: sender });
            return TraceId::NONE;
        };
        let trace = msg.trace_id();
        let env = msg.envelope;
        let Some(origin_key) = self.roster.verifying_key(env.from) else {
            // Unknown origin: the only admissible message is a Join
            // carrying a lobby-signed ticket. Anything else is
            // churn-superseded traffic (e.g. a joiner's stream outrunning
            // its admission boundary here), dropped without scoring.
            match env.payload {
                Payload::Join(ticket) => self.consider_join(frame, &msg, bytes, ticket, out),
                _ => self.churn.stats.stale_drops += 1,
            }
            return trace;
        };
        if !msg.verify_received(bytes, origin_key) {
            out.events.push(NodeEvent::BadSignature { claimed_from: env.from });
            return trace;
        }
        if self.roster.is_departed(env.from) {
            // A member removed at a boundary keeps emitting for up to a
            // round-trip (its own removal reaches it last). Superseded,
            // never scored: churn must produce zero false verdicts.
            self.churn.stats.stale_drops += 1;
            return trace;
        }
        // A verified signature proves the *origin* was alive at the
        // envelope's generation frame, however many hops relayed it since.
        self.control.heard(env.from, env.frame);
        // Anti-replay, per origin: a sliding window tolerates the
        // reordering that multi-path forwarding causes. Control messages
        // bypass the rejection: a duplicate there is a retransmission
        // racing its own ack, and must be re-processed (idempotently) and
        // re-acked — not flagged — or one lost ack stalls the sender.
        let fresh = self.replay[env.from.index()].check_and_set(env.seq);
        if !fresh && !env.payload.is_control() {
            out.events.push(NodeEvent::Replay { from: env.from });
            return trace;
        }
        let mut rx = Inbound {
            now: frame,
            origin: env.from,
            gen_frame: env.frame,
            seq: env.seq,
            fresh,
            from_origin: sender == env.from && self.plausibly_proxy_of(env.from, env.frame),
            label: env.payload.label(),
            trace,
            bytes,
            forwards: 0,
            out,
        };
        self.dispatch(&mut rx, env.payload);
        self.instrument.relayed(&rx);
        trace
    }

    fn dispatch(&mut self, rx: &mut Inbound<'_>, payload: Payload) {
        match payload {
            Payload::State(update) => self.on_state(rx, update),
            Payload::Guidance(g) => self.on_guidance(rx, g.position),
            Payload::Position(p) => self.on_position(rx, p.position),
            Payload::Subscribe { target, kind } => self.on_subscribe(rx, target, kind),
            Payload::Unsubscribe { target, kind } => self.on_unsubscribe(rx, target, kind),
            Payload::Kill(claim) => self.on_kill(rx, &claim),
            Payload::Handoff(notice) => self.on_handoff(rx, &notice),
            Payload::Ack { ack_seq } => self.control.on_ack(ack_seq),
            Payload::Leave { effective_frame } => self.on_leave(rx, effective_frame),
            // A Join from a *known* origin is a retransmission racing the
            // boundary that admitted it (or racing our ack): just re-ack.
            Payload::Join(_) => self.ack(rx),
            Payload::Evict { player, effective_frame: at } => self.on_evict(rx, player, at),
            Payload::Bootstrap(snapshot) => self.on_bootstrap(rx, &snapshot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "subscription_retention")]
    fn zero_subscription_retention_is_refused() {
        // Retention 0 installs every subscription already expired, so the
        // interest-set relay would go silently dead: refuse the node.
        let keys: Vec<Keypair> = (0..2).map(Keypair::generate).collect();
        let directory = keys.iter().map(Keypair::public).collect();
        let config = WatchmenConfig { subscription_retention: 0, ..WatchmenConfig::default() };
        let map = watchmen_world::maps::arena(40, 10.0);
        let _ = WatchmenNode::new(
            PlayerId(0),
            keys[0].clone(),
            directory,
            7,
            config,
            map,
            PhysicsConfig::default(),
        );
    }

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
}
