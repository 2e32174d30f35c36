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
//! Traces serialize to a compact self-describing binary format
//! ([`GameTrace::to_bytes`] / [`GameTrace::from_bytes`]) so sessions can be
//! recorded once and replayed across processes.

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
    /// Name of the map played.
    pub map_name: String,
    /// Number of players.
    pub players: usize,
    /// The session seed (traces are reproducible from it).
    pub seed: u64,
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
        let map_name = config.map.name().to_owned();
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
        GameTrace { map_name, players, seed, frames: records }
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

    /// Serializes the trace to the compact binary format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = codec::Writer::new();
        w.bytes_with_len(self.map_name.as_bytes());
        w.u64(self.players as u64);
        w.u64(self.seed);
        w.u64(self.frames.len() as u64);
        for frame in &self.frames {
            debug_assert_eq!(frame.states.len(), self.players);
            for s in &frame.states {
                w.player_frame(s);
            }
            w.u64(frame.events.len() as u64);
            for e in &frame.events {
                w.event(e);
            }
        }
        w.into_bytes()
    }

    /// Deserializes a trace from [`GameTrace::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns [`TraceDecodeError`] if the input is truncated or contains
    /// invalid tags. A count the remaining bytes cannot hold is
    /// [`TraceDecodeError::Truncated`] before anything is reserved for it,
    /// so a short hostile header costs no more memory than its bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceDecodeError> {
        let mut r = codec::Reader::new(bytes);
        let map_name = String::from_utf8(r.bytes_with_len()?.to_vec())
            .map_err(|_| TraceDecodeError::InvalidUtf8)?;
        let players = r.u64()?;
        let seed = r.u64()?;
        // A frame holds every player's state and its event count.
        let frame_bytes = players.saturating_mul(codec::PLAYER_FRAME_BYTES).saturating_add(8);
        let frame_count = r.count(frame_bytes)?;
        let players = players as usize;
        let mut frames = Vec::with_capacity(frame_count);
        for _ in 0..frame_count {
            let mut states = Vec::with_capacity(players);
            for _ in 0..players {
                states.push(r.player_frame()?);
            }
            // Every event is at least its tag byte.
            let n_events = r.count(1)?;
            let mut events = Vec::with_capacity(n_events);
            for _ in 0..n_events {
                events.push(r.event()?);
            }
            frames.push(FrameRecord { states, events });
        }
        Ok(GameTrace { map_name, players, seed, frames })
    }
}

/// Errors from [`GameTrace::from_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The input ended before the structure was complete.
    Truncated,
    /// An enum tag byte had no defined meaning.
    InvalidTag(u8),
    /// The map name was not valid UTF-8.
    InvalidUtf8,
    /// A structurally invalid value was found.
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::Truncated => f.write_str("trace data truncated"),
            TraceDecodeError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            TraceDecodeError::InvalidUtf8 => f.write_str("map name is not valid utf-8"),
            TraceDecodeError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

mod codec {
    //! The compact binary codec for traces.

    use super::{PlayerFrame, TraceDecodeError};
    use crate::{GameEvent, PlayerId, WeaponKind};
    use watchmen_math::{Aim, Vec3};
    use watchmen_world::ItemKind;

    /// Encoded size of a [`PlayerFrame`]: six coordinates, yaw and pitch,
    /// health, armor, the weapon tag and ammo.
    pub const PLAYER_FRAME_BYTES: u64 = 8 * 8 + 4 + 4 + 1 + 4;

    pub struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        pub fn new() -> Self {
            Writer { buf: Vec::new() }
        }

        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }

        pub fn u8(&mut self, v: u8) {
            self.buf.push(v);
        }

        pub fn u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        pub fn u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        pub fn i32(&mut self, v: i32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        pub fn f64(&mut self, v: f64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        pub fn vec3(&mut self, v: Vec3) {
            self.f64(v.x);
            self.f64(v.y);
            self.f64(v.z);
        }

        pub fn bytes_with_len(&mut self, b: &[u8]) {
            self.u64(b.len() as u64);
            self.buf.extend_from_slice(b);
        }

        pub fn weapon(&mut self, w: WeaponKind) {
            self.u8(match w {
                WeaponKind::MachineGun => 0,
                WeaponKind::Shotgun => 1,
                WeaponKind::RocketLauncher => 2,
                WeaponKind::Railgun => 3,
            });
        }

        pub fn item(&mut self, k: ItemKind) {
            self.u8(match k {
                ItemKind::HealthPack => 0,
                ItemKind::MegaHealth => 1,
                ItemKind::Ammo => 2,
                ItemKind::Weapon => 3,
                ItemKind::Armor => 4,
            });
        }

        pub fn player_frame(&mut self, s: &PlayerFrame) {
            self.vec3(s.position);
            self.vec3(s.velocity);
            self.f64(s.aim.yaw());
            self.f64(s.aim.pitch());
            self.i32(s.health);
            self.i32(s.armor);
            self.weapon(s.weapon);
            self.u32(s.ammo);
        }

        pub fn event(&mut self, e: &GameEvent) {
            match e {
                GameEvent::Shot { attacker, weapon, origin, direction } => {
                    self.u8(0);
                    self.u32(attacker.0);
                    self.weapon(*weapon);
                    self.vec3(*origin);
                    self.vec3(*direction);
                }
                GameEvent::Hit { attacker, target, weapon, damage, distance } => {
                    self.u8(1);
                    self.u32(attacker.0);
                    self.u32(target.0);
                    self.weapon(*weapon);
                    self.i32(*damage);
                    self.f64(*distance);
                }
                GameEvent::Kill { attacker, victim, weapon, distance } => {
                    self.u8(2);
                    self.u32(attacker.0);
                    self.u32(victim.0);
                    self.weapon(*weapon);
                    self.f64(*distance);
                }
                GameEvent::Fall { victim } => {
                    self.u8(3);
                    self.u32(victim.0);
                }
                GameEvent::Pickup { player, kind, spawner } => {
                    self.u8(4);
                    self.u32(player.0);
                    self.item(*kind);
                    self.u64(*spawner as u64);
                }
                GameEvent::Respawn { player, position } => {
                    self.u8(5);
                    self.u32(player.0);
                    self.vec3(*position);
                }
            }
        }
    }

    pub struct Reader<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub fn new(data: &'a [u8]) -> Self {
            Reader { data, pos: 0 }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], TraceDecodeError> {
            if self.pos + n > self.data.len() {
                return Err(TraceDecodeError::Truncated);
            }
            let s = &self.data[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        pub fn u8(&mut self) -> Result<u8, TraceDecodeError> {
            Ok(self.take(1)?[0])
        }

        pub fn u32(&mut self) -> Result<u32, TraceDecodeError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
        }

        pub fn u64(&mut self) -> Result<u64, TraceDecodeError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
        }

        pub fn i32(&mut self) -> Result<i32, TraceDecodeError> {
            Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
        }

        pub fn f64(&mut self) -> Result<f64, TraceDecodeError> {
            Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
        }

        pub fn vec3(&mut self) -> Result<Vec3, TraceDecodeError> {
            Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
        }

        /// Reads a `u64` count of items that each take at least
        /// `min_bytes`: [`TraceDecodeError::Truncated`] if the rest of the
        /// input cannot hold that many.
        pub fn count(&mut self, min_bytes: u64) -> Result<usize, TraceDecodeError> {
            let n = self.u64()?;
            let left = (self.data.len() - self.pos) as u64;
            if n.saturating_mul(min_bytes) > left {
                return Err(TraceDecodeError::Truncated);
            }
            Ok(n as usize)
        }

        pub fn bytes_with_len(&mut self) -> Result<&'a [u8], TraceDecodeError> {
            let n = self.u64()? as usize;
            if n > 1 << 20 {
                return Err(TraceDecodeError::Corrupt("implausible string length"));
            }
            self.take(n)
        }

        pub fn weapon(&mut self) -> Result<WeaponKind, TraceDecodeError> {
            match self.u8()? {
                0 => Ok(WeaponKind::MachineGun),
                1 => Ok(WeaponKind::Shotgun),
                2 => Ok(WeaponKind::RocketLauncher),
                3 => Ok(WeaponKind::Railgun),
                t => Err(TraceDecodeError::InvalidTag(t)),
            }
        }

        pub fn item(&mut self) -> Result<ItemKind, TraceDecodeError> {
            match self.u8()? {
                0 => Ok(ItemKind::HealthPack),
                1 => Ok(ItemKind::MegaHealth),
                2 => Ok(ItemKind::Ammo),
                3 => Ok(ItemKind::Weapon),
                4 => Ok(ItemKind::Armor),
                t => Err(TraceDecodeError::InvalidTag(t)),
            }
        }

        pub fn player_frame(&mut self) -> Result<PlayerFrame, TraceDecodeError> {
            Ok(PlayerFrame {
                position: self.vec3()?,
                velocity: self.vec3()?,
                aim: Aim::new(self.f64()?, self.f64()?),
                health: self.i32()?,
                armor: self.i32()?,
                weapon: self.weapon()?,
                ammo: self.u32()?,
            })
        }

        pub fn event(&mut self) -> Result<GameEvent, TraceDecodeError> {
            match self.u8()? {
                0 => Ok(GameEvent::Shot {
                    attacker: PlayerId(self.u32()?),
                    weapon: self.weapon()?,
                    origin: self.vec3()?,
                    direction: self.vec3()?,
                }),
                1 => Ok(GameEvent::Hit {
                    attacker: PlayerId(self.u32()?),
                    target: PlayerId(self.u32()?),
                    weapon: self.weapon()?,
                    damage: self.i32()?,
                    distance: self.f64()?,
                }),
                2 => Ok(GameEvent::Kill {
                    attacker: PlayerId(self.u32()?),
                    victim: PlayerId(self.u32()?),
                    weapon: self.weapon()?,
                    distance: self.f64()?,
                }),
                3 => Ok(GameEvent::Fall { victim: PlayerId(self.u32()?) }),
                4 => Ok(GameEvent::Pickup {
                    player: PlayerId(self.u32()?),
                    kind: self.item()?,
                    spawner: self.u64()? as usize,
                }),
                5 => {
                    Ok(GameEvent::Respawn { player: PlayerId(self.u32()?), position: self.vec3()? })
                }
                t => Err(TraceDecodeError::InvalidTag(t)),
            }
        }
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

    #[test]
    fn binary_roundtrip() {
        let t = tiny_trace();
        let bytes = t.to_bytes();
        let back = GameTrace::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn binary_roundtrip_with_events() {
        // Longer q3dm17 trace to accumulate diverse events.
        let t = standard_trace(8, 3, 600);
        let total_events: usize = t.frames.iter().map(|f| f.events.len()).sum();
        assert!(total_events > 0, "expected events in 600 frames");
        let back = GameTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn truncated_input_errors() {
        let t = tiny_trace();
        let bytes = t.to_bytes();
        let err = GameTrace::from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
        assert_eq!(err, TraceDecodeError::Truncated);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn corrupt_tag_errors() {
        let t = tiny_trace();
        let mut bytes = t.to_bytes();
        // Corrupt a weapon tag deep in the stream: find the first frame's
        // first player's weapon byte. Header: 8 + map_name + 8 + 8 + 8.
        let header = 8 + t.map_name.len() + 24;
        let weapon_off = header + 3 * 8 + 3 * 8 + 2 * 8 + 4 + 4;
        bytes[weapon_off] = 0xff;
        let err = GameTrace::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, TraceDecodeError::InvalidTag(0xff));
    }

    #[test]
    fn empty_input_errors() {
        assert!(GameTrace::from_bytes(&[]).is_err());
    }

    #[test]
    fn frameless_trace_roundtrips() {
        let t = GameTrace::record(GameConfig::default(), 48, 1, 0);
        assert_eq!(GameTrace::from_bytes(&t.to_bytes()), Ok(t));
    }
}
