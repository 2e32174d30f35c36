//! Shared experiment workloads.
//!
//! The paper's headline runs use "a 48-player trace from a Quake III game
//! in the q3dm17 map"; [`standard_workload`] is the equivalent synthetic
//! trace, bundled with the map it was played on.

use watchmen_game::trace::{GameTrace, PlayerFrame};
use watchmen_game::GameConfig;
use watchmen_world::{maps, GameMap};

/// A trace plus the map it was recorded on — what every experiment
/// consumes.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The recorded game.
    pub trace: GameTrace,
    /// The map it was played on.
    pub map: GameMap,
}

impl Workload {
    /// Number of players.
    #[must_use]
    pub fn players(&self) -> usize {
        self.trace.players
    }

    /// Number of frames.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.trace.len()
    }
}

/// The paper's headline workload: a 48-player deathmatch on the
/// q3dm17-like map.
///
/// `frames` controls the length (the paper's sessions run minutes; 1200
/// frames = one minute of play).
///
/// # Examples
///
/// ```
/// let w = watchmen_sim::workload::standard_workload(8, 42, 50);
/// assert_eq!(w.players(), 8);
/// assert_eq!(w.frames(), 50);
/// ```
#[must_use]
pub fn standard_workload(players: usize, seed: u64, frames: u64) -> Workload {
    let map = maps::q3dm17_like();
    let config = GameConfig { map: map.clone(), ..GameConfig::default() };
    Workload { trace: GameTrace::record(config, players, seed, frames), map }
}

/// How far the scripted speed-hack teleports sideways, in world units —
/// far beyond any legal per-frame displacement, so the proxy's physics
/// check flags it deterministically.
pub const CHEAT_OFFSET: f64 = 30.0;

/// The first frame the scripted speed-hack fires on, and its period: it
/// fires on every positive multiple. Time-to-detect is measured from it.
pub const FIRST_CHEAT_FRAME: u64 = 4;

/// Whether a scripted cheat fires in `frame`: every positive multiple of
/// [`FIRST_CHEAT_FRAME`].
#[must_use]
pub fn cheat_fires(frame: u64) -> bool {
    frame > 0 && frame.is_multiple_of(FIRST_CHEAT_FRAME)
}

/// The scripted speed-hack every soak gate uses: on every fourth frame
/// after 0, `state` teleports [`CHEAT_OFFSET`] along x, which no legal
/// movement allows. The caller decides who cheats, and until when.
pub fn speed_hack(state: &mut PlayerFrame, frame: u64) {
    if cheat_fires(frame) {
        state.position.x += CHEAT_OFFSET;
    }
}

/// The scripted aimbot snap: on the frames [`speed_hack`] fires on, the
/// aim turns half a circle in yaw, which no legal rotation allows within
/// one frame.
pub fn aim_snap(state: &mut PlayerFrame, frame: u64) {
    if cheat_fires(frame) {
        state.aim = state.aim.rotated(std::f64::consts::PI, 0.0);
    }
}

/// The per-match workload a fleet cell plays: an open 32-cell arena, the
/// geometry the soak gates calibrate their zero-false-verdict assertion
/// on.
#[must_use]
pub fn match_workload(players: usize, seed: u64, frames: u64) -> Workload {
    let map = maps::arena(32, 10.0);
    let config = GameConfig { map: map.clone(), ..GameConfig::default() };
    Workload { trace: GameTrace::record(config, players, seed, frames), map }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_workload_shape() {
        let w = standard_workload(8, 1, 30);
        assert_eq!(w.players(), 8);
        assert_eq!(w.frames(), 30);
        assert_eq!(w.map.name(), "q3dm17-like");
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = standard_workload(4, 9, 20);
        let b = standard_workload(4, 9, 20);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn match_workload_is_deterministic_per_seed() {
        let a = match_workload(6, 31, 25);
        let b = match_workload(6, 31, 25);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.map.name(), "arena");
        let c = match_workload(6, 32, 25);
        assert_ne!(a.trace, c.trace, "distinct seeds must diverge");
    }

    /// SHA-256 of the frames' `Debug` text: every field, floats in their
    /// exact shortest round-trip form.
    fn trace_digest(w: &Workload) -> String {
        let text = format!("{:?}", w.trace.frames);
        watchmen_crypto::sha256(text.as_bytes()).iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Everything the bots record, at the ledger's shapes: `match48` at
    /// both seeds, `match16`, `hostile16` and a fleet cell. Captured
    /// before bot targeting was reordered, and carried over to this digest
    /// from traces that still matched the original capture; never
    /// regenerate these: a mismatch means a bot decision, a state or an
    /// event moved.
    #[test]
    fn traces_match_the_capture() {
        let digests = [
            trace_digest(&standard_workload(48, 2013, 400)),
            trace_digest(&standard_workload(48, 4177, 400)),
            trace_digest(&match_workload(16, 2013, 400)),
            trace_digest(&match_workload(20, 2013, 880)),
            trace_digest(&match_workload(16, 7, 160)),
        ];
        assert_eq!(
            digests,
            [
                "9eb76d207dcc18659703eb94b9b22eeb44dba42be119b0082580615bf5be6d8b",
                "7e0696565bb50eb6e61f2c400fad98c8c3ca950f19727dae1988d7973b508d0c",
                "639ca76d967fa2318c6f8452329cd0766d8f71587901c094172a90dddcfd73bb",
                "c8c5ae1dc1f670b9c76bb3a420a0d46ada5fdf9f71ed75f71cc39d746fb256be",
                "63fec8512da323deb302601e783097d23735effee40c1dc232f019a275d627a8",
            ]
        );
    }
}
