//! Proxy duty: the players this node supervises — relaying their streams
//! to subscribers, verifying them (state, subscription and kill checks,
//! with parked subscription offenses), handing each duty to the next
//! epoch's proxy, and summarizing every epoch.

use std::collections::BTreeMap;
use std::sync::Arc;

use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_math::Vec3;
use watchmen_telemetry::trace::TraceId;
use watchmen_telemetry::Counter;

use super::{Inbound, NodeEvent, WatchmenNode};
use crate::audit::AuditKind;
use crate::msg::{HandoffNotice, KillClaim, Payload, StateUpdate};
use crate::proxy::ProxySchedule;
use crate::rating::{CheatRating, Confidence, SEVERE_SCORE};
use crate::sans_io::CoreOutput;
use crate::subscription::SetKind;
use crate::verify::checks;

/// Per-supervised-player proxy state.
#[derive(Debug, Clone, Default)]
pub(super) struct ProxyDuty {
    /// Subscribers by kind, with expiry frames.
    is_subs: BTreeMap<PlayerId, u64>,
    vs_subs: BTreeMap<PlayerId, u64>,
    /// Updates seen from the player this epoch.
    pub(super) updates_seen: u32,
    /// Worst rating this epoch.
    pub(super) worst_rating: u8,
    /// Last state seen.
    pub(super) last_state: Option<(u64, StateUpdate)>,
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
        self.subscribers_mut(kind).map_or_else(Vec::new, |subs| subs.keys().copied().collect())
    }

    /// The subscriber list of `kind` (none for [`SetKind::Others`]).
    fn subscribers_mut(&mut self, kind: SetKind) -> Option<&mut BTreeMap<PlayerId, u64>> {
        match kind {
            SetKind::Interest => Some(&mut self.is_subs),
            SetKind::Vision => Some(&mut self.vs_subs),
            SetKind::Others => None,
        }
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

#[derive(Debug)]
pub(super) struct Duty {
    /// Proxy duties for players this node currently supervises.
    duties: BTreeMap<PlayerId, ProxyDuty>,
    /// Epoch this node resumed in after a gap, if any: its duty counters
    /// missed that epoch's traffic, so the epoch summary is skipped once.
    pub(super) resumed_epoch: Option<u64>,
    /// Subscription offenses awaiting confirmation, keyed by (subscriber,
    /// target). A severe cone miss at arrival is usually knowledge skew —
    /// the Subscribe races the subscriber's same-frame state update (a
    /// respawn teleport makes the race spectacular), or the proxy's copy of
    /// the target predates a respawn. The severe verdict is deferred until
    /// evidence from both sides of the subscription frame is in hand (see
    /// [`WatchmenNode::confirm_sub_offenses`]).
    parked: BTreeMap<(PlayerId, PlayerId), PendingSubCheck>,
    handoffs_sent: Arc<Counter>,
}

impl Duty {
    pub(super) fn new() -> Self {
        Duty {
            duties: BTreeMap::new(),
            resumed_epoch: None,
            parked: BTreeMap::new(),
            handoffs_sent: watchmen_telemetry::global().counter("proxy_handoffs_total"),
        }
    }

    pub(super) fn entry(&mut self, player: PlayerId) -> &mut ProxyDuty {
        self.duties.entry(player).or_default()
    }

    pub(super) fn last_state(&self, player: PlayerId) -> Option<(u64, StateUpdate)> {
        self.duties.get(&player).and_then(|d| d.last_state)
    }

    /// Drops a departed member's duty, its subscriptions to others and
    /// the parked offenses it is party to.
    pub(super) fn forget(&mut self, departed: PlayerId) {
        self.duties.remove(&departed);
        for duty in self.duties.values_mut() {
            duty.is_subs.remove(&departed);
            duty.vs_subs.remove(&departed);
        }
        self.parked.retain(|&(a, b), _| a != departed && b != departed);
    }

    /// The handoff notice for `player`'s duty in `epoch`, if it was
    /// actually observed this epoch. A fallback draw that retained a duty
    /// but saw none of the player's traffic would ship a stale state under
    /// a fresh envelope frame, poisoning the successor's physics baseline
    /// into false teleport verdicts.
    fn notice(&self, sched: &ProxySchedule, player: PlayerId, epoch: u64) -> Option<HandoffNotice> {
        let duty = &self.duties[&player];
        let (observed_frame, last_state) = duty.last_state?;
        (sched.epoch_of(observed_frame) == epoch).then_some(HandoffNotice {
            player,
            epoch,
            observed_frame,
            last_state,
            worst_rating: duty.worst_rating.max(1),
            updates_seen: duty.updates_seen,
            predecessor_digest: duty.predecessor_digest,
        })
    }
}

/// Raises a proxy-confidence suspicion of `subject` on `check`.
fn proxy_verdict(events: &mut Vec<NodeEvent>, subject: PlayerId, score: u8, check: &'static str) {
    let rating = CheatRating::new(score, Confidence::Proxy, 0);
    events.push(NodeEvent::Suspicion { subject, rating, check });
}

impl WatchmenNode {
    /// The players this node currently holds proxy duties for.
    #[must_use]
    pub fn supervised(&self) -> Vec<PlayerId> {
        self.duty.duties.keys().copied().collect()
    }

    pub(super) fn relay_to_subscribers(&mut self, rx: &mut Inbound<'_>, kind: SetKind) {
        for t in self.duty.entry(rx.origin).live_subscribers(kind, rx.now) {
            if t != rx.origin && t != self.id {
                rx.forward(t);
            }
        }
    }

    pub(super) fn on_state(&mut self, rx: &mut Inbound<'_>, update: StateUpdate) {
        if rx.from_origin {
            self.proxy_verify_and_account(rx, &update);
            self.relay_to_subscribers(rx, SetKind::Interest);
        }
        self.knowledge.learn(rx.origin, rx.gen_frame, update);
        rx.deliver();
    }

    /// Guidance goes to VS subscribers; it carries position + velocity:
    /// learn those.
    pub(super) fn on_guidance(&mut self, rx: &mut Inbound<'_>, position: Vec3) {
        if rx.from_origin {
            self.relay_to_subscribers(rx, SetKind::Vision);
        }
        self.knowledge.learn_position(rx.origin, rx.gen_frame, position);
        rx.deliver();
    }

    /// Position updates go implicitly to every active member without an
    /// explicit subscription.
    pub(super) fn on_position(&mut self, rx: &mut Inbound<'_>, position: Vec3) {
        if rx.from_origin {
            let duty = self.duty.entry(rx.origin);
            let mut explicit = duty.live_subscribers(SetKind::Interest, rx.now);
            explicit.extend(duty.live_subscribers(SetKind::Vision, rx.now));
            for t in self.roster.active_players() {
                if t != rx.origin && t != self.id && !explicit.contains(&t) {
                    rx.forward(t);
                }
            }
        }
        self.knowledge.learn_position(rx.origin, rx.gen_frame, position);
        rx.deliver();
    }

    /// Two-hop subscription path: subscriber → subscriber's proxy →
    /// target's proxy. The *installer* acks end-to-end, so the origin
    /// keeps retransmitting until the install actually happened, not
    /// merely until the first hop heard it.
    pub(super) fn on_subscribe(&mut self, rx: &mut Inbound<'_>, target: PlayerId, kind: SetKind) {
        if !self.roster.is_active(target) {
            // The target departed (or is not admitted yet): ack to stop
            // the retransmissions, install nothing.
            self.ack(rx);
            return;
        }
        // Verify the subscription is justified before relaying ("the
        // proxy of a player p can verify whether a subscription of p to
        // player q is justified") — only on first receipt, or every
        // retransmission of one dubious subscribe re-raises the same
        // suspicion.
        if rx.from_origin && rx.fresh {
            self.verify_subscription(rx, target, kind);
        }
        if self.plausibly_proxy_of(target, rx.gen_frame) {
            let expiry = rx.now + self.config.subscription_retention;
            if let Some(subs) = self.duty.entry(target).subscribers_mut(kind) {
                subs.insert(rx.origin, expiry);
            }
            self.ack(rx);
        } else if rx.from_origin {
            rx.forward(self.effective_proxy(target, rx.gen_frame, rx.now));
        }
    }

    pub(super) fn on_unsubscribe(&mut self, rx: &mut Inbound<'_>, target: PlayerId, kind: SetKind) {
        if self.plausibly_proxy_of(target, rx.gen_frame) {
            let duty = self.duty.duties.get_mut(&target);
            if let Some(subs) = duty.and_then(|d| d.subscribers_mut(kind)) {
                subs.remove(&rx.origin);
            }
            self.ack(rx);
        } else if rx.from_origin {
            rx.forward(self.effective_proxy(target, rx.gen_frame, rx.now));
        }
    }

    /// Accepts a handoff for a player this node *plausibly* serves next
    /// epoch — the scheduled successor or any fallback draw within depth,
    /// so a predecessor addressing a fallback still lands the chain.
    /// Duplicates (a retransmission racing its own ack) re-apply
    /// idempotently and re-ack.
    pub(super) fn on_handoff(&mut self, rx: &mut Inbound<'_>, notice: &HandoffNotice) {
        let next_epoch_start = (notice.epoch + 1) * self.config.proxy_period;
        if !self.roster.is_active(notice.player) {
            // The supervised player departed at a boundary while this
            // handoff was in flight: its duty is drained, so ack the chain
            // link and drop it.
            self.ack(rx);
        } else if self.plausibly_proxy_of(notice.player, next_epoch_start) {
            let digest = notice.digest();
            let duty = self.duty.entry(notice.player);
            // Record the state under the frame it was *observed*, never
            // the (later) send frame, and never regress behind newer
            // first-hand state — a retransmission arriving after live
            // updates must not reinstate a stale baseline.
            let obs = notice.observed_frame.min(rx.gen_frame);
            if duty.last_state.is_none_or(|(f, _)| f < obs) {
                duty.last_state = Some((obs, notice.last_state));
            }
            // The predecessor's verdict travels in the HandoffReceived
            // event (and the summary chain), not into this epoch's own
            // accounting: folding it into `worst_rating` would re-report
            // the same offense as a fresh verdict every epoch the chain
            // survives.
            duty.predecessor_digest = digest;
            if rx.fresh {
                let (player, worst_rating) = (notice.player, notice.worst_rating);
                rx.out.events.push(NodeEvent::HandoffReceived { player, worst_rating });
            }
            self.ack(rx);
        }
    }

    /// The handoff phase: shortly before the boundary, ship a summary for
    /// every duty whose successor is someone else, addressed as that
    /// successor will effectively serve — the scheduled draw, or its
    /// fallback when that pick looks crashed (the fallback accepts
    /// because it is in the plausible set for the coming epoch).
    pub(super) fn send_handoffs(&mut self, frame: u64, out: &mut CoreOutput) {
        let boundary = self.schedule.next_renewal(frame);
        if frame + (self.config.proxy_period / 4).max(1) != boundary {
            return;
        }
        let epoch = self.schedule.epoch_of(frame);
        for player in self.supervised() {
            let successor = self.effective_proxy(player, boundary, frame);
            if successor == self.id {
                continue;
            }
            let Some(notice) = self.duty.notice(&self.schedule, player, epoch) else { continue };
            self.sign_and_queue(out, successor, frame, Payload::Handoff(notice));
            self.duty.handoffs_sent.inc();
        }
    }

    /// The epoch turnover: summarize the finished epoch for each duty
    /// (clean epochs produce score-1 ratings, giving the reputation layer
    /// its denominator — "each player tags the interactions he has with
    /// other players as successful … or as failed"), run the
    /// dissemination-rate check, then drop duties this node no longer
    /// holds and the finished epoch's subscription traffic.
    pub(super) fn turn_epoch(&mut self, frame: u64, out: &mut CoreOutput) {
        // A node that resumed from a downtime gap mid-epoch saw only part
        // of that epoch's traffic: skip its summary once rather than rate
        // supervised players on a partial count.
        let slept = self.duty.resumed_epoch.take().is_some();
        let (me, depth, period) =
            (self.id, self.config.proxy_fallback_depth, self.config.proxy_period);
        self.duty.duties.retain(|&player, duty| {
            // Only summarize epochs this node was *scheduled* to serve — a
            // successor holding a freshly handed-off duty has not seen the
            // finished epoch's updates, and a fallback proxy may have
            // served only the tail of it.
            if !slept && self.schedule.proxy_of(player, frame - 1) == me {
                // A player silent for a whole relay period at summary time
                // is crashing (or crashed), not rate-cheating: a cheater
                // minimizing exposure still publishes *something* to stay
                // in the game, while total silence is the liveness layer's
                // problem. Withhold the rate verdict rather than convict
                // an unreachable peer.
                let silent = frame.saturating_sub(self.control.last_heard[player.index()])
                    >= self.config.others_period;
                let rate = if silent {
                    1
                } else {
                    self.verifier.check_rate(period, duty.updates_seen.into())
                };
                let score = duty.worst_rating.max(rate).max(1);
                proxy_verdict(&mut out.events, player, score, checks::EPOCH_SUMMARY);
            }
            // Per-epoch accounting restarts for *every* retained duty, not
            // just the summarized ones: a fallback holder that skipped its
            // summary must not carry states counted last epoch into the
            // next one (the scheduled summarizer would read the inflated
            // count as update-flooding).
            let prev_worst = duty.worst_rating;
            if prev_worst > 1 {
                let proxy = Confidence::Proxy.label();
                let reset = (AuditKind::RatingTransition, checks::EPOCH_SUMMARY, 1, proxy);
                self.instrument.audit(frame, player.0, TraceId::NONE, reset, || {
                    format!("worst {prev_worst}->1 (epoch reset)")
                });
            }
            duty.worst_rating = 1;
            duty.updates_seen = 0;
            // Keep every duty this node plausibly serves in the new epoch:
            // the scheduled pick *or* any fallback draw within depth, so a
            // fallback proxy retains the duty it may be asked to serve.
            (0..=depth).any(|n| self.schedule.nth_proxy_of(player, frame, n as usize) == me)
        });
        self.control.supersede_finished_epoch(&self.schedule, frame);
    }

    /// Proxy-side verification and accounting of a supervised player's
    /// state update.
    pub(super) fn proxy_verify_and_account(&mut self, rx: &mut Inbound<'_>, update: &StateUpdate) {
        let (origin, gen_frame) = (rx.origin, rx.gen_frame);
        // Respawns teleport legally: skip physics checks while the player
        // was dead (health carried in the state updates makes the respawn
        // observable to the proxy).
        let previous = self.duty.last_state(origin).filter(|(_, p)| p.health > 0);
        if let Some((prev_frame, prev_state)) = previous {
            let elapsed = gen_frame.saturating_sub(prev_frame).max(1);
            let score = self.verifier.check_position(
                prev_state.position,
                update.position,
                elapsed,
                &self.map,
            );
            let aim_score = self.verifier.check_aim(prev_state.aim, update.aim, elapsed);
            for (score, check) in [(score, checks::POSITION), (aim_score, checks::AIM)] {
                if score > 1 {
                    proxy_verdict(&mut rx.out.events, origin, score, check);
                }
            }
            let duty = self.duty.entry(origin);
            let prev_worst = duty.worst_rating;
            duty.worst_rating = duty.worst_rating.max(score).max(aim_score);
            let worst = duty.worst_rating;
            // Transitions to the clean baseline (0 → 1 on a duty's first
            // update) are initialization, not decisions — skip those.
            if worst > prev_worst && worst > 1 {
                let check = if score >= aim_score { checks::POSITION } else { checks::AIM };
                let judged = (AuditKind::RatingTransition, check, worst, Confidence::Proxy.label());
                self.instrument.audit(gen_frame, origin.0, rx.trace, judged, || {
                    format!("worst {prev_worst}->{worst}")
                });
            }
        }
        let duty = self.duty.entry(origin);
        duty.updates_seen += 1;
        duty.last_state = Some((gen_frame, *update));
        self.confirm_sub_offenses(rx, update);
    }

    /// The cone check of a subscriber seen as `sub` against `target`, or
    /// `None` when it has no honest baseline at `frame`. A respawn
    /// teleports the target across the map, so observers whose sightings
    /// straddle it disagree about its position by far more than any
    /// speed-based tolerance: until everyone has plausibly seen the
    /// post-respawn state there is no verdict — while our copy is dead
    /// (the respawn is still to come) and for a window after a
    /// discontinuity in our stream.
    fn cone_check(
        &self,
        sub: &StateUpdate,
        target: PlayerId,
        at: &StateUpdate,
        frame: u64,
    ) -> Option<u8> {
        if at.health == 0 || self.knowledge.recent_break(target, frame) {
            return None;
        }
        Some(self.verifier.check_vs_subscription(&PlayerFrame::from(sub), at.position, &self.map))
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
    fn confirm_sub_offenses(&mut self, rx: &mut Inbound<'_>, update: &StateUpdate) {
        let (origin, gen_frame, trace) = (rx.origin, rx.gen_frame, rx.trace);
        let parked: Vec<(PlayerId, PendingSubCheck)> = self
            .duty
            .parked
            .iter()
            .filter(|((subscriber, _), _)| *subscriber == origin)
            .map(|(&(_, target), &check)| (target, check))
            .collect();
        let resolved = |node: &mut Self, score: u8, outcome: &'static str| {
            let proxy = Confidence::Proxy.label();
            let judged = (AuditKind::PendingResolved, checks::SUBSCRIPTION, score, proxy);
            node.instrument.audit(gen_frame, origin.0, trace, judged, || outcome.to_owned());
        };
        for (target, mut check) in parked {
            // Step 1: capture the subscriber's exact-frame state.
            if check.sub_state.is_none() {
                if gen_frame == check.sub_gen {
                    check.sub_state = Some(*update);
                    self.duty.parked.insert((origin, target), check);
                } else if gen_frame > check.sub_gen {
                    // The exact-frame state was lost in transit: without
                    // it the re-check would judge a cone the subscriber
                    // never claimed. Drop the parked offense.
                    self.duty.parked.remove(&(origin, target));
                    resolved(self, 0, "dropped");
                    continue;
                } else {
                    continue; // pre-offense update; keep waiting
                }
            }
            let Some(sub_state) = check.sub_state else { continue };
            // Step 2: wait for target knowledge from at-or-after the
            // subscription frame, with a deadline so entries can't linger.
            if gen_frame.saturating_sub(check.sub_gen) > 4 * self.config.guidance_period {
                self.duty.parked.remove(&(origin, target));
                resolved(self, 0, "expired");
                continue;
            }
            let Some((tgt_gen, target_state)) = self.knowledge.get(target) else {
                self.duty.parked.remove(&(origin, target));
                resolved(self, 0, "target-departed");
                continue; // target departed since the offense
            };
            if tgt_gen < check.sub_gen {
                continue; // pre-offense target copy; keep waiting
            }
            // Step 3: both sides in hand — resolve.
            self.duty.parked.remove(&(origin, target));
            match self.cone_check(&sub_state, target, &target_state, gen_frame) {
                None => resolved(self, 0, "no-baseline"),
                Some(raw) if raw >= SEVERE_SCORE => {
                    resolved(self, raw, "confirmed");
                    proxy_verdict(&mut rx.out.events, origin, raw, checks::SUBSCRIPTION);
                }
                Some(raw) => resolved(self, raw, "acquitted"),
            }
        }
    }

    /// Proxy-side verification of the subscription `rx` carries: it
    /// arrived at frame `rx.now` and was computed on frame `rx.gen_frame`.
    pub(super) fn verify_subscription(
        &mut self,
        rx: &mut Inbound<'_>,
        target: PlayerId,
        kind: SetKind,
    ) {
        let (frame, sub_gen, subscriber) = (rx.now, rx.gen_frame, rx.origin);
        let (Some((sub_frame_no, sub_state)), Some((tgt_frame_no, target_state))) =
            (self.duty.last_state(subscriber), self.knowledge.get(target))
        else {
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
        let Some(cone) = self.cone_check(&sub_state, target, &target_state, frame) else { return };
        let raw = if kind == SetKind::Others { 1 } else { cone };
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
            self.duty.parked.insert(
                (subscriber, target),
                PendingSubCheck { sub_gen, sub_state: sub_state_exact },
            );
            5
        } else {
            raw
        };
        if score > 1 {
            proxy_verdict(&mut rx.out.events, subscriber, score, checks::SUBSCRIPTION);
        }
    }

    /// A kill claim: as the claimant's proxy, forward it to the
    /// claimant's IS subscribers — the witnesses best placed to verify —
    /// and verify it against what this node knows of the victim.
    pub(super) fn on_kill(&mut self, rx: &mut Inbound<'_>, claim: &KillClaim) {
        if rx.from_origin {
            self.relay_to_subscribers(rx, SetKind::Interest);
        }
        let Some((seen_frame, victim)) = self.knowledge.get(claim.victim) else { return };
        let score = self.verifier.check_kill(claim, &PlayerFrame::from(&victim), &self.map, 5);
        if score > 1 {
            let confidence = if rx.from_origin { Confidence::Proxy } else { Confidence::Vision };
            let staleness = rx.gen_frame.saturating_sub(seen_frame);
            rx.out.events.push(NodeEvent::Suspicion {
                subject: rx.origin,
                rating: CheatRating::new(score, confidence, staleness),
                check: checks::KILL,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_crypto::schnorr::Keypair;
    use watchmen_game::WeaponKind;
    use watchmen_math::{Aim, Vec3};
    use watchmen_world::{maps, PhysicsConfig};

    use crate::sans_io::CoreOutput;
    use crate::WatchmenConfig;
    use watchmen_telemetry::trace::TraceId;

    const SUB: PlayerId = PlayerId(1);
    const TARGET: PlayerId = PlayerId(2);

    /// A node supervising `SUB` (last seen as `sub`) that knows `TARGET`
    /// as `target`, each copy stamped with its frame.
    fn node_with(sub: (u64, StateUpdate), target: (u64, StateUpdate)) -> WatchmenNode {
        let keys: Vec<Keypair> = (0..3).map(|i| Keypair::generate(77 ^ i)).collect();
        let directory = keys.iter().map(Keypair::public).collect();
        let (me, config) = (keys[0].clone(), WatchmenConfig::default());
        let (map, physics) = (maps::arena(40, 10.0), PhysicsConfig::default());
        let mut node = WatchmenNode::new(PlayerId(0), me, directory, 77, config, map, physics);
        node.duty.entry(SUB).last_state = Some(sub);
        node.knowledge.learn(TARGET, target.0, target.1);
        node
    }

    /// A live player at `(x, y)` looking along +x.
    fn at(x: f64, y: f64) -> StateUpdate {
        StateUpdate {
            position: Vec3::new(x, y, 0.0),
            velocity: Vec3::ZERO,
            aim: Aim::default(),
            health: 100,
            armor: 0,
            weapon: WeaponKind::MachineGun,
            ammo: 10,
        }
    }

    /// Runs `check` on a datagram from `SUB` generated at `gen_frame` and
    /// handled at `now`; returns the events it raised.
    fn from_sub(
        node: &mut WatchmenNode,
        (now, gen_frame): (u64, u64),
        check: impl FnOnce(&mut WatchmenNode, &mut Inbound<'_>),
    ) -> Vec<NodeEvent> {
        let mut out = CoreOutput::default();
        let mut rx = Inbound {
            now,
            origin: SUB,
            gen_frame,
            seq: 0,
            fresh: true,
            from_origin: true,
            label: "state",
            trace: TraceId::NONE,
            bytes: &[],
            out: &mut out,
        };
        check(node, &mut rx);
        out.events
    }

    /// `SUB`'s subscription to `TARGET`, computed at frame 10, arriving
    /// at frame 11.
    fn subscribe(node: &mut WatchmenNode, kind: SetKind) -> Vec<NodeEvent> {
        from_sub(node, (11, 10), |node, rx| node.verify_subscription(rx, TARGET, kind))
    }

    /// `SUB`'s supervised state update generated at `frame`.
    fn update(node: &mut WatchmenNode, frame: u64, state: StateUpdate) -> Vec<NodeEvent> {
        from_sub(node, (frame, frame), |node, rx| node.proxy_verify_and_account(rx, &state))
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
        // The target sits 160 units straight *behind* the +x cone:
        // deviation well past 4x the guidance tolerance.
        let mut node = node_with((10, at(200.0, 200.0)), (12, at(40.0, 200.0)));
        let events = subscribe(&mut node, SetKind::Vision);
        assert_eq!(severe_subscription_count(&events), 0, "offense must park, not sever");
        assert!(
            events.iter().any(|e| matches!(e, NodeEvent::Suspicion { rating, .. }
                if rating.score == 5)),
            "parked offense still rates a capped suspicion: {events:?}"
        );
        assert!(node.duty.parked.contains_key(&(SUB, TARGET)), "offense parked");

        // The proxy already held the subscriber's exact-frame state, so
        // the next supervised update resolves the pending check.
        let confirm_events = update(&mut node, 11, at(200.0, 200.0));
        assert_eq!(severe_subscription_count(&confirm_events), 1, "{confirm_events:?}");
        assert!(node.duty.parked.is_empty(), "pending resolved");
    }

    #[test]
    fn respawn_race_subscription_is_acquitted() {
        // The subscriber respawned on the frame it subscribed: the proxy's
        // one-frame-stale copy puts its cone across the map, but the
        // exact-frame state shows the target dead ahead — acquit.
        let mut node = node_with((9, at(350.0, 350.0)), (12, at(220.0, 200.0)));
        let events = subscribe(&mut node, SetKind::Interest);
        assert_eq!(severe_subscription_count(&events), 0);
        assert!(node.duty.parked.contains_key(&(SUB, TARGET)));

        // The exact-frame state lands: target 40 ahead, dead in the cone.
        let confirm_events = update(&mut node, 10, at(180.0, 200.0));
        assert_eq!(
            severe_subscription_count(&confirm_events),
            0,
            "honest respawn race must acquit: {confirm_events:?}"
        );
        assert!(node.duty.parked.is_empty(), "pending resolved either way");
    }

    #[test]
    fn target_respawn_break_suppresses_confirmation() {
        // The *target* teleports (death + respawn) inside the window: the
        // knowledge stream shows an impossible jump, so the re-check has
        // no honest baseline and the parked offense is dropped.
        let mut node = node_with((10, at(200.0, 200.0)), (8, at(230.0, 200.0)));

        // The target's post-respawn copy lands: a 250-unit jump in four
        // frames registers as a knowledge break...
        node.knowledge.learn(TARGET, 12, at(30.0, 40.0));
        assert!(node.knowledge.recent_break(TARGET, 12), "jump must register as a break");

        // ...so an offense resolved inside the break window acquits, even
        // though the fresh copies disagree wildly.
        subscribe(&mut node, SetKind::Vision);
        let confirm_events = update(&mut node, 11, at(200.0, 200.0));
        assert_eq!(
            severe_subscription_count(&confirm_events),
            0,
            "discontinuity must suppress the verdict: {confirm_events:?}"
        );
        assert!(node.duty.parked.is_empty());
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
