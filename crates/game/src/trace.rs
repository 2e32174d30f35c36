//! Trace recording: the equivalent of the paper's Quake III tracing
//! module.
//!
//! A [`GameTrace`] records, for every frame, every player's position, aim,
//! velocity, health, armor, weapon and ammo, plus the frame's events (item
//! pickups, shots, hits, kills, falls, respawns). Traces drive every
//! experiment in the evaluation, exactly as in the paper ("a replay engine
//! … can replay game traces and generate the same network traffic
//! repeatedly and under different networking and proxy architectures").
//!
//! A trace is never stored: [`GameTrace::record`] is a pure function of
//! the game config, player count, seed and frame count, so every consumer
//! (another process included) re-derives the same trace from its seed.

use watchmen_math::{Aim, Vec3};

use crate::{GameConfig, GameEvent, GameSession, PlayerId, WeaponKind};

/// One player's state in one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayerFrame {
    /// World position.
    pub position: Vec3,
    /// Velocity (world units / s).
    pub velocity: Vec3,
    /// Aim.
    pub aim: Aim,
    /// Health (0 = dead).
    pub health: i32,
    /// Armor.
    pub armor: i32,
    /// Held weapon.
    pub weapon: WeaponKind,
    /// Ammo for the held weapon.
    pub ammo: u32,
}

impl PlayerFrame {
    /// Whether the player is alive this frame.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.health > 0
    }
}

/// Everything that happened in one frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameRecord {
    /// Player states, indexed by player id.
    pub states: Vec<PlayerFrame>,
    /// Events emitted during the frame.
    pub events: Vec<GameEvent>,
}

/// A complete recorded game.
#[derive(Debug, Clone, PartialEq)]
pub struct GameTrace {
    /// Number of players.
    pub players: usize,
    /// Per-frame records.
    pub frames: Vec<FrameRecord>,
}

impl GameTrace {
    /// Runs a fresh deathmatch for `frames` frames and records it.
    ///
    /// # Examples
    ///
    /// ```
    /// use watchmen_game::trace::GameTrace;
    /// use watchmen_game::GameConfig;
    ///
    /// let trace = GameTrace::record(GameConfig::default(), 8, 42, 50);
    /// assert_eq!(trace.frames.len(), 50);
    /// assert_eq!(trace.players, 8);
    /// ```
    #[must_use]
    pub fn record(config: GameConfig, players: usize, seed: u64, frames: u64) -> Self {
        let mut session = GameSession::deathmatch(config, players, seed);
        let mut records = Vec::with_capacity(frames as usize);
        for _ in 0..frames {
            let events = session.step().to_vec();
            let states = session
                .avatars()
                .iter()
                .map(|a| PlayerFrame {
                    position: a.position,
                    velocity: a.velocity,
                    aim: a.aim,
                    health: a.health,
                    armor: a.armor,
                    weapon: a.weapon,
                    ammo: a.ammo,
                })
                .collect();
            records.push(FrameRecord { states, events });
        }
        GameTrace { players, frames: records }
    }

    /// Number of recorded frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the trace has no frames.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The state of `player` at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn state(&self, frame: usize, player: PlayerId) -> &PlayerFrame {
        &self.frames[frame].states[player.index()]
    }

    /// All player positions at `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    #[must_use]
    pub fn positions(&self, frame: usize) -> Vec<Vec3> {
        self.frames[frame].states.iter().map(|s| s.position).collect()
    }
}

/// Records a default q3dm17-like deathmatch — the standard experiment
/// workload (48 players in the paper's headline runs).
///
/// # Examples
///
/// ```
/// let trace = watchmen_game::trace::standard_trace(8, 42, 20);
/// assert_eq!(trace.players, 8);
/// ```
#[must_use]
pub fn standard_trace(players: usize, seed: u64, frames: u64) -> GameTrace {
    GameTrace::record(GameConfig::default(), players, seed, frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_world::maps;

    fn tiny_trace() -> GameTrace {
        let config = GameConfig { map: maps::arena(16, 10.0), ..GameConfig::default() };
        GameTrace::record(config, 4, 9, 120)
    }

    #[test]
    fn record_shape() {
        let t = tiny_trace();
        assert_eq!(t.len(), 120);
        assert!(!t.is_empty());
        assert_eq!(t.players, 4);
        for f in &t.frames {
            assert_eq!(f.states.len(), 4);
        }
    }

    #[test]
    fn record_is_deterministic() {
        let config = GameConfig { map: maps::arena(16, 10.0), ..GameConfig::default() };
        let a = GameTrace::record(config.clone(), 4, 5, 60);
        let b = GameTrace::record(config, 4, 5, 60);
        assert_eq!(a, b);
    }

    #[test]
    fn state_accessors() {
        let t = tiny_trace();
        let s = t.state(10, PlayerId(2));
        assert!(s.position.is_finite());
        assert_eq!(t.positions(10).len(), 4);
    }
}
