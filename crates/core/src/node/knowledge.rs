//! What this node has learned of every player from received messages,
//! the discontinuities in those streams, and the subscriptions it derives.

use std::collections::BTreeMap;

use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_math::Vec3;
use watchmen_world::PhysicsConfig;

use super::WatchmenNode;
use crate::msg::{BootstrapEntry, BootstrapSnapshot, Payload, StateUpdate};
use crate::roster::Roster;
use crate::sans_io::CoreOutput;
use crate::subscription::{compute_sets, NoRecency, SetKind};
use crate::WatchmenConfig;

/// Learned knowledge and this node's outgoing subscriptions.
#[derive(Debug)]
pub(super) struct Knowledge {
    /// Best known state of every player, learned from received messages,
    /// indexed by id; grown when a joiner past the table is learned.
    known: Vec<Option<(u64, StateUpdate)>>,
    /// Whether each `known` entry came from a full state. A position-only
    /// sighting carries the rest of the last state forward, health
    /// included, so its health says nothing. Indexed like `known`.
    full: Vec<bool>,
    /// Generation frame of the last *information discontinuity* seen in
    /// each player's knowledge stream: a death, a respawn, or a
    /// faster-than-physics jump (a respawn whose dead interval fell
    /// between two sightings). Near a discontinuity different observers
    /// legitimately hold wildly divergent copies of the player, so
    /// staleness-tolerance-based checks have no honest baseline. Indexed
    /// like `known`.
    breaks: Vec<Option<u64>>,
    /// This node's outgoing subscriptions with last-refresh frames.
    my_subs: BTreeMap<(PlayerId, SetKind), u64>,
    /// Legal travel in one frame at maximum speed.
    frame_travel: f64,
    /// How long after a discontinuity other observers may still hold
    /// pre-discontinuity copies: a full others-cadence refresh on both
    /// sides plus transit.
    break_window: u64,
    /// Subscribe messages issued.
    pub(super) subscriptions_sent: u64,
}

impl Knowledge {
    /// An empty table for a roster of `players`.
    pub(super) fn new(players: usize, config: &WatchmenConfig, physics: &PhysicsConfig) -> Self {
        Knowledge {
            known: vec![None; players],
            full: vec![false; players],
            breaks: vec![None; players],
            my_subs: BTreeMap::new(),
            frame_travel: physics.max_speed * config.frame_seconds(),
            break_window: 2 * WatchmenConfig::GUIDANCE_PERIOD,
            subscriptions_sent: 0,
        }
    }

    pub(super) fn get(&self, player: PlayerId) -> Option<(u64, StateUpdate)> {
        self.known.get(player.index()).copied().flatten()
    }

    /// Records the full state `update` as `player`'s state at `frame`
    /// unless a newer copy is already held (see [`Self::record`]).
    pub(super) fn learn(&mut self, player: PlayerId, frame: u64, update: StateUpdate) {
        self.record(player, frame, update, true);
    }

    /// Records `update` as `player`'s state at `frame` unless a newer
    /// copy is already held, noting a discontinuity in the stream if the
    /// step crosses a death (health edge) or covers more ground than
    /// physics allows — the signature of a respawn whose dead interval
    /// fell between two sightings.
    fn record(&mut self, player: PlayerId, frame: u64, update: StateUpdate, full: bool) {
        let i = player.index();
        if i >= self.known.len() {
            self.known.resize(i + 1, None);
            self.full.resize(i + 1, false);
            self.breaks.resize(i + 1, None);
        }
        if let Some((prev_frame, prev)) = self.known[i] {
            if frame < prev_frame {
                return;
            }
            let elapsed = frame.saturating_sub(prev_frame).max(1);
            let max_travel = self.frame_travel * elapsed as f64 * 2.0;
            if prev.health == 0
                || update.health == 0
                || prev.position.distance(update.position) > max_travel
            {
                self.breaks[i] = Some(frame);
            }
        }
        self.known[i] = Some((frame, update));
        self.full[i] = full;
    }

    /// Whether `player` is known dead before `frame`: the freshest
    /// sighting is a full state generated before `frame` that shows it
    /// dead. A state from `frame` on may show the very death a kill
    /// claim of `frame` reports, and a position-only sighting may follow
    /// a respawn it cannot show, so neither counts.
    pub(super) fn dead_before(&self, player: PlayerId, frame: u64) -> bool {
        let i = player.index();
        self.full.get(i).is_some_and(|&full| full)
            && self.known[i].is_some_and(|(seen, s)| seen < frame && s.health == 0)
    }

    /// Records a position-only sighting (guidance, others updates): the
    /// rest of the state stays as last known, or minimal when unknown.
    pub(super) fn learn_position(&mut self, player: PlayerId, frame: u64, position: Vec3) {
        let known = self.get(player).map(|(_, s)| s);
        let base = known.unwrap_or(StateUpdate {
            position,
            velocity: Vec3::ZERO,
            aim: watchmen_math::Aim::default(),
            health: 100,
            armor: 0,
            weapon: watchmen_game::WeaponKind::MachineGun,
            ammo: 0,
        });
        self.record(player, frame, StateUpdate { position, ..base }, false);
    }

    /// Whether `player`'s knowledge stream showed a discontinuity recently
    /// enough (relative to `frame`) that other observers may still hold
    /// pre-discontinuity copies.
    pub(super) fn recent_break(&self, player: PlayerId, frame: u64) -> bool {
        let last = self.breaks.get(player.index()).copied().flatten();
        last.is_some_and(|b| frame.saturating_sub(b) <= self.break_window)
    }

    pub(super) fn forget(&mut self, departed: PlayerId) {
        if let Some(slot) = self.known.get_mut(departed.index()) {
            *slot = None;
            self.full[departed.index()] = false;
            self.breaks[departed.index()] = None;
        }
        self.my_subs.retain(|&(target, _), _| target != departed);
    }

    /// The joiner-bootstrap snapshot: the freshest known states of up to
    /// `n` active players other than `joiner`, newest first.
    pub(super) fn snapshot(
        &self,
        roster: &Roster,
        joiner: PlayerId,
        n: usize,
    ) -> BootstrapSnapshot {
        let mut entries: Vec<(u64, PlayerId, StateUpdate)> = self
            .known
            .iter()
            .enumerate()
            .filter_map(|(i, k)| k.map(|(f, s)| (f, PlayerId(i as u32), s)))
            .filter(|&(_, p, _)| p != joiner && roster.is_active(p))
            .collect();
        entries.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut snapshot = BootstrapSnapshot::new(roster.epoch());
        for (f, p, s) in entries.into_iter().take(n) {
            snapshot.push(BootstrapEntry { player: p, frame: f, state: s });
        }
        snapshot
    }
}

impl WatchmenNode {
    /// Best known state of `player`, if any update has been received.
    #[must_use]
    pub fn known_state(&self, player: PlayerId) -> Option<&StateUpdate> {
        self.knowledge.known.get(player.index()).and_then(Option::as_ref).map(|(_, s)| s)
    }

    /// The (target, kind) subscription list derived from learned state.
    fn compute_local_sets(&self, my_state: &PlayerFrame) -> Vec<(PlayerId, SetKind)> {
        // Build a dense state table from knowledge; unknown players stay
        // at an unreachable position so they classify as others.
        let far = PlayerFrame { position: Vec3::new(-1e6, -1e6, 0.0), ..*my_state };
        let known = &self.knowledge.known;
        let states: Vec<PlayerFrame> = (0..self.roster.len())
            .map(|i| {
                let id = PlayerId(i as u32);
                if id == self.id {
                    return *my_state;
                }
                // Departed (and not-yet-admitted) members classify as
                // others-at-infinity: no subscriptions to ghosts.
                if !self.roster.is_active(id) {
                    return far;
                }
                known.get(i).and_then(Option::as_ref).map_or(far, |(_, s)| PlayerFrame::from(s))
            })
            .collect();
        let sets = compute_sets(self.id, &states, &self.map, &self.config, &NoRecency);
        sets.interest
            .into_iter()
            .map(|t| (t, SetKind::Interest))
            .chain(sets.vision.into_iter().map(|t| (t, SetKind::Vision)))
            .collect()
    }

    /// The subscription phase: subscribes through `my_proxy` to every
    /// target of the sets computed from *learned* knowledge, refreshing
    /// each at half the retention period, and forgets long-idle entries.
    pub(super) fn refresh_subscriptions(
        &mut self,
        frame: u64,
        my_state: &PlayerFrame,
        my_proxy: PlayerId,
        out: &mut CoreOutput,
    ) {
        let retention = self.config.subscription_retention;
        for (target, kind) in self.compute_local_sets(my_state) {
            let subs = &mut self.knowledge.my_subs;
            if subs.get(&(target, kind)).is_none_or(|&last| frame >= last + retention / 2) {
                subs.insert((target, kind), frame);
                self.sign_and_queue(out, my_proxy, frame, Payload::Subscribe { target, kind });
                self.knowledge.subscriptions_sent += 1;
            }
        }
        self.knowledge.my_subs.retain(|_, &mut last| frame < last + 4 * retention);
    }
}

#[cfg(test)]
mod tests {
    use watchmen_crypto::schnorr::Keypair;
    use watchmen_game::WeaponKind;
    use watchmen_math::Aim;

    use super::*;
    use crate::msg::KillClaim;
    use crate::node::duty::tests::{at as state_at, from_sub, node, TARGET};
    use crate::node::NodeEvent;

    fn at(x: f64) -> StateUpdate {
        StateUpdate {
            position: Vec3::new(x, 0.0, 0.0),
            velocity: Vec3::ZERO,
            aim: Aim::default(),
            health: 100,
            armor: 0,
            weapon: WeaponKind::MachineGun,
            ammo: 10,
        }
    }

    #[test]
    fn a_joiner_past_the_table_is_learned_then_forgotten() {
        // The table holds the three founders; the roster has since
        // admitted 3 and 4 mid-game.
        let mut k = Knowledge::new(3, &WatchmenConfig::default(), &PhysicsConfig::default());
        let roster = Roster::new((0..5).map(|i| Keypair::generate(i).public()).collect());
        let (veteran, joiner) = (PlayerId(1), PlayerId(4));
        let players = |s: BootstrapSnapshot| s.entries().iter().map(|e| e.player).collect();
        k.learn(veteran, 10, at(0.0));
        k.learn(joiner, 10, at(100.0));
        assert_eq!(k.get(joiner), Some((10, at(100.0))));
        assert!(!k.recent_break(joiner, 10));
        // Further in two frames than physics allows: a break.
        k.learn(joiner, 12, at(900.0));
        assert!(k.recent_break(joiner, 12));
        let snapshot: Vec<PlayerId> = players(k.snapshot(&roster, PlayerId(0), 8));
        assert_eq!(snapshot, [joiner, veteran], "newest first");
        let snapshot: Vec<PlayerId> = players(k.snapshot(&roster, joiner, 8));
        assert_eq!(snapshot, [veteran], "never the joiner its own state");
        // Its departure clears both tables, and the snapshot leaves it out.
        k.forget(joiner);
        assert_eq!(k.get(joiner), None);
        assert!(!k.recent_break(joiner, 12));
        let snapshot: Vec<PlayerId> = players(k.snapshot(&roster, PlayerId(0), 8));
        assert_eq!(snapshot, [veteran]);
        // An id never learned is past the table, and forgetting it is a no-op.
        k.forget(PlayerId(9));
        assert_eq!(k.get(PlayerId(9)), None);
    }

    /// The severe verdicts `SUB`'s railgun claim of frame `claim`, handled
    /// two frames later, draws for killing `TARGET` at (100, 200).
    fn severe_kills(node: &mut WatchmenNode, claim: u64) -> usize {
        let (victim, weapon) = (TARGET, WeaponKind::Railgun);
        let attacker_position = Vec3::new(50.0, 200.0, 0.0);
        let victim_position = Vec3::new(100.0, 200.0, 0.0);
        let kill = KillClaim { victim, weapon, attacker_position, victim_position };
        let events = from_sub(node, (claim + 2, claim), |node, rx| node.on_kill(rx, &kill));
        let ratings = events.iter().filter_map(|e| match e {
            NodeEvent::Suspicion { rating, .. } => Some(rating),
            _ => None,
        });
        ratings.filter(|r| r.is_suspicious()).count()
    }

    #[test]
    fn a_death_known_from_the_claim_frame_on_is_not_a_prior_death() {
        // The victim's state of the claim frame shows the very death
        // claimed: an honest kill, not a kill of the dead.
        let mut node = node(3);
        node.knowledge.learn(TARGET, 9, state_at(100.0, 200.0));
        node.knowledge.learn(TARGET, 10, StateUpdate { health: 0, ..state_at(100.0, 200.0) });
        assert_eq!(severe_kills(&mut node, 10), 0);
        assert_eq!(severe_kills(&mut node, 11), 1, "dead before the claim");
    }

    #[test]
    fn a_position_sighting_after_a_death_is_not_a_prior_death() {
        // Seen dead, then only by position after the respawn: the
        // sighting carries the dead state's health, which says nothing.
        let mut node = node(3);
        node.knowledge.learn(TARGET, 5, StateUpdate { health: 0, ..state_at(300.0, 300.0) });
        node.knowledge.learn_position(TARGET, 60, Vec3::new(100.0, 200.0, 0.0));
        assert_eq!(severe_kills(&mut node, 62), 0);
    }
}
