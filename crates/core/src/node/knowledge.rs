//! What this node has learned of every player from received messages,
//! the discontinuities in those streams, and the subscriptions it derives.

use std::collections::BTreeMap;
use std::sync::Arc;

use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_math::Vec3;
use watchmen_telemetry::Counter;
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
    /// Best known state of every player, learned from received messages.
    known: BTreeMap<PlayerId, (u64, StateUpdate)>,
    /// Generation frame of the last *information discontinuity* seen in
    /// each player's knowledge stream: a death, a respawn, or a
    /// faster-than-physics jump (a respawn whose dead interval fell
    /// between two sightings). Near a discontinuity different observers
    /// legitimately hold wildly divergent copies of the player, so
    /// staleness-tolerance-based checks have no honest baseline.
    breaks: BTreeMap<PlayerId, u64>,
    /// This node's outgoing subscriptions with last-refresh frames.
    my_subs: BTreeMap<(PlayerId, SetKind), u64>,
    /// Legal travel in one frame at maximum speed.
    frame_travel: f64,
    /// How long after a discontinuity other observers may still hold
    /// pre-discontinuity copies: a full others-cadence refresh on both
    /// sides plus transit.
    break_window: u64,
    subscriptions_sent: Arc<Counter>,
}

impl Knowledge {
    pub(super) fn new(config: &WatchmenConfig, physics: &PhysicsConfig) -> Self {
        Knowledge {
            known: BTreeMap::new(),
            breaks: BTreeMap::new(),
            my_subs: BTreeMap::new(),
            frame_travel: physics.max_speed * config.frame_seconds(),
            break_window: 2 * WatchmenConfig::GUIDANCE_PERIOD,
            subscriptions_sent: watchmen_telemetry::global()
                .counter("node_subscriptions_sent_total"),
        }
    }

    pub(super) fn get(&self, player: PlayerId) -> Option<(u64, StateUpdate)> {
        self.known.get(&player).copied()
    }

    /// Records `update` as `player`'s state at `frame` unless a newer
    /// copy is already held, noting a discontinuity in the stream if the
    /// step crosses a death (health edge) or covers more ground than
    /// physics allows — the signature of a respawn whose dead interval
    /// fell between two sightings.
    pub(super) fn learn(&mut self, player: PlayerId, frame: u64, update: StateUpdate) {
        if let Some(&(prev_frame, prev)) = self.known.get(&player) {
            if frame < prev_frame {
                return;
            }
            let elapsed = frame.saturating_sub(prev_frame).max(1);
            let max_travel = self.frame_travel * elapsed as f64 * 2.0;
            if prev.health == 0
                || update.health == 0
                || prev.position.distance(update.position) > max_travel
            {
                self.breaks.insert(player, frame);
            }
        }
        self.known.insert(player, (frame, update));
    }

    /// Records a position-only sighting (guidance, others updates): the
    /// rest of the state stays as last known, or minimal when unknown.
    pub(super) fn learn_position(&mut self, player: PlayerId, frame: u64, position: Vec3) {
        let known = self.known.get(&player).map(|&(_, s)| s);
        let base = known.unwrap_or(StateUpdate {
            position,
            velocity: Vec3::ZERO,
            aim: watchmen_math::Aim::default(),
            health: 100,
            armor: 0,
            weapon: watchmen_game::WeaponKind::MachineGun,
            ammo: 0,
        });
        self.learn(player, frame, StateUpdate { position, ..base });
    }

    /// Whether `player`'s knowledge stream showed a discontinuity recently
    /// enough (relative to `frame`) that other observers may still hold
    /// pre-discontinuity copies.
    pub(super) fn recent_break(&self, player: PlayerId, frame: u64) -> bool {
        self.breaks.get(&player).is_some_and(|&b| frame.saturating_sub(b) <= self.break_window)
    }

    pub(super) fn forget(&mut self, departed: PlayerId) {
        self.known.remove(&departed);
        self.breaks.remove(&departed);
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
            .filter(|&(&p, _)| p != joiner && roster.is_active(p))
            .map(|(&p, &(f, s))| (f, p, s))
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
        self.knowledge.known.get(&player).map(|(_, s)| s)
    }

    /// The (target, kind) subscription list derived from learned state.
    fn compute_local_sets(&self, my_state: &PlayerFrame) -> Vec<(PlayerId, SetKind)> {
        // Build a dense state table from knowledge; unknown players stay
        // at an unreachable position so they classify as others.
        let far = PlayerFrame { position: Vec3::new(-1e6, -1e6, 0.0), ..*my_state };
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
                self.knowledge.known.get(&id).map_or(far, |(_, s)| PlayerFrame::from(s))
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
                self.knowledge.subscriptions_sent.inc();
            }
        }
        self.knowledge.my_subs.retain(|_, &mut last| frame < last + 4 * retention);
    }
}
