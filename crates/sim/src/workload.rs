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

/// A smaller, denser arena workload for quick tests.
#[must_use]
pub fn arena_workload(players: usize, seed: u64, frames: u64) -> Workload {
    let map = maps::arena(16, 10.0);
    let config = GameConfig { map: map.clone(), ..GameConfig::default() };
    Workload { trace: GameTrace::record(config, players, seed, frames), map }
}

/// Which map a [`WorkloadBuilder`] records on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MapChoice {
    /// The paper's q3dm17-like headline map.
    Standard,
    /// An open square arena of `cells`×`cells` tiles of `cell_size` world
    /// units — the map of choice for population-scale runs: open geometry
    /// keeps the position checker's wall corner cases out of play, so
    /// honest traffic scores clean.
    Arena {
        /// Tiles per side (≥ 4).
        cells: usize,
        /// Tile edge length in world units.
        cell_size: f64,
    },
}

/// How far the scripted speed-hack teleports sideways, in world units —
/// far beyond any legal per-frame displacement, so the proxy's physics
/// check flags it deterministically.
pub const CHEAT_OFFSET: f64 = 30.0;

/// The first frame the scripted speed-hack fires on, and its period: it
/// fires on every positive multiple. Time-to-detect is measured from it.
pub const FIRST_CHEAT_FRAME: u64 = 4;

/// The scripted speed-hack every soak gate uses: on every fourth frame
/// after 0, `state` teleports [`CHEAT_OFFSET`] along x, which no legal
/// movement allows. The caller decides who cheats, and until when.
pub fn speed_hack(state: &mut PlayerFrame, frame: u64) {
    if frame > 0 && frame.is_multiple_of(FIRST_CHEAT_FRAME) {
        state.position.x += CHEAT_OFFSET;
    }
}

/// A reusable per-match workload builder — what a multi-match
/// orchestrator calls thousands of times with distinct seeds. Identical
/// parameters always build identical workloads, so a match is fully
/// reproducible from its spec alone.
///
/// # Examples
///
/// ```
/// use watchmen_sim::workload::WorkloadBuilder;
///
/// let w = WorkloadBuilder::new(8).seed(7).frames(40).arena(16, 10.0).build();
/// assert_eq!(w.players(), 8);
/// assert_eq!(w.frames(), 40);
/// assert_eq!(w.map.name(), "arena");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadBuilder {
    players: usize,
    seed: u64,
    frames: u64,
    map: MapChoice,
}

impl WorkloadBuilder {
    /// Starts a builder for a `players`-bot match (seed 0, 1200 frames,
    /// 32-cell arena by default).
    #[must_use]
    pub fn new(players: usize) -> Self {
        WorkloadBuilder {
            players,
            seed: 0,
            frames: 1200,
            map: MapChoice::Arena { cells: 32, cell_size: 10.0 },
        }
    }

    /// Sets the workload seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trace length in frames.
    #[must_use]
    pub fn frames(mut self, frames: u64) -> Self {
        self.frames = frames;
        self
    }

    /// Records on an open arena map.
    #[must_use]
    pub fn arena(mut self, cells: usize, cell_size: f64) -> Self {
        self.map = MapChoice::Arena { cells, cell_size };
        self
    }

    /// Records on the q3dm17-like headline map.
    #[must_use]
    pub fn standard_map(mut self) -> Self {
        self.map = MapChoice::Standard;
        self
    }

    /// Records the trace and bundles it with its map.
    #[must_use]
    pub fn build(&self) -> Workload {
        let map = match self.map {
            MapChoice::Standard => maps::q3dm17_like(),
            MapChoice::Arena { cells, cell_size } => maps::arena(cells, cell_size),
        };
        let config = GameConfig { map: map.clone(), ..GameConfig::default() };
        Workload { trace: GameTrace::record(config, self.players, self.seed, self.frames), map }
    }
}

/// The per-match workload a fleet cell plays: an open 32-cell arena, the
/// geometry the soak gates calibrate their zero-false-verdict assertion
/// on.
#[must_use]
pub fn match_workload(players: usize, seed: u64, frames: u64) -> Workload {
    WorkloadBuilder::new(players).seed(seed).frames(frames).build()
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
    fn arena_workload_uses_arena() {
        let w = arena_workload(4, 1, 10);
        assert_eq!(w.map.name(), "arena");
    }

    #[test]
    fn builder_matches_free_functions() {
        let a = WorkloadBuilder::new(4).seed(9).frames(20).standard_map().build();
        let b = standard_workload(4, 9, 20);
        assert_eq!(a.trace, b.trace);
        let c = WorkloadBuilder::new(4).seed(9).frames(20).arena(16, 10.0).build();
        let d = arena_workload(4, 9, 20);
        assert_eq!(c.trace, d.trace);
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

    fn trace_digest(w: &Workload) -> String {
        watchmen_crypto::sha256(&w.trace.to_bytes()).iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every byte the bots record, at the ledger's shapes: `match48` at
    /// both seeds, `match16`, `hostile16` and a fleet cell. Captured
    /// before bot targeting was reordered; never regenerate these: a
    /// mismatch means a bot decision, a state or an event moved.
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
                "18685ad031e75f50df12337960fa6127df537e4cde35e2abd780ef003a57c9ec",
                "f0f275f2600d9d0673c89c084229a4ce63363128fcbb2aeaa3a7165dbf0218cf",
                "ca7b11115bef77c2d1455ca8a22b4a8cc731700088f3c6353db19f24b7961a92",
                "25f9bad468989956888e1b0d31bbe3cb24296e70a11849a63974c0859481a230",
                "2c8d5f793dd92222856bfde66a6f5a472473ccdaf63b1dd34425ba863ff7f860",
            ]
        );
    }
}
