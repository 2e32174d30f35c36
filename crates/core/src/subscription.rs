//! The three-set subscription model (Section III-A, Figure 2).
//!
//! Each player partitions every other player into:
//!
//! * **Interest set (IS)** — "the 5 avatars inside VS which catch the
//!   player's attention the most"; receives frequent (per-frame) state
//!   updates. IS members are removed from the VS.
//! * **Vision set (VS)** — "avatars inside a fixed-radius (±60 degrees)
//!   and angle spherical cone directed along the player's aim", excluding
//!   avatars behind walls; receives 1 Hz dead-reckoning guidance.
//! * **Others** — everyone else; receives 1 Hz position-only updates
//!   (implicit subscription, no request needed).

use std::fmt;

use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_math::{Cone, Vec3};
use watchmen_world::GameMap;

use crate::attention::{score, AttentionInput, AttentionWeights};
use crate::WatchmenConfig;

/// Which set a player falls into from an observer's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SetKind {
    /// Top-attention visible avatars: frequent full updates.
    Interest,
    /// Visible avatars outside the IS: dead-reckoning guidance.
    Vision,
    /// Everyone else: infrequent position updates.
    Others,
}

impl fmt::Display for SetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SetKind::Interest => "IS",
            SetKind::Vision => "VS",
            SetKind::Others => "others",
        })
    }
}

/// One observer's partition of all other players.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SetAssignment {
    /// Interest-set members, highest attention first.
    pub interest: Vec<PlayerId>,
    /// Vision-set members (IS excluded).
    pub vision: Vec<PlayerId>,
    /// Everyone else.
    pub others: Vec<PlayerId>,
}

impl SetAssignment {
    /// The set `player` belongs to.
    #[must_use]
    pub fn kind_of(&self, player: PlayerId) -> SetKind {
        if self.interest.contains(&player) {
            SetKind::Interest
        } else if self.vision.contains(&player) {
            SetKind::Vision
        } else {
            SetKind::Others
        }
    }

    /// Total number of classified players.
    #[must_use]
    pub fn len(&self) -> usize {
        self.interest.len() + self.vision.len() + self.others.len()
    }

    /// Returns `true` if no players were classified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The eye height used for visibility tests (avatars see from slightly
/// above their position).
const EYE_HEIGHT: f64 = 1.5;

/// Builds the observer's vision cone
/// ([`WatchmenConfig::VISION_HALF_ANGLE`], [`WatchmenConfig::VISION_RADIUS`]).
#[must_use]
pub fn vision_cone(observer: &PlayerFrame) -> Cone {
    Cone::new(
        observer.position + Vec3::Z * EYE_HEIGHT,
        observer.aim.direction(),
        WatchmenConfig::VISION_HALF_ANGLE,
        WatchmenConfig::VISION_RADIUS,
    )
}

/// Returns `true` if `candidate` is inside `observer`'s vision set region:
/// within the (slightly enlarged) cone *and* not behind a wall.
#[must_use]
pub fn in_vision(observer: &PlayerFrame, candidate: &PlayerFrame, map: &GameMap) -> bool {
    sees(&vision_cone(observer), candidate, map)
}

/// [`in_vision`] with the observer's cone already built; the cone's apex
/// is the observer's eye.
fn sees(cone: &Cone, candidate: &PlayerFrame, map: &GameMap) -> bool {
    let target = candidate.position + Vec3::Z * EYE_HEIGHT;
    cone.contains(target) && map.line_of_sight(cone.apex(), target)
}

/// A source of pairwise interaction recency, the third input of the
/// attention metric. No node keeps one yet: every caller passes
/// [`NoRecency`] (DESIGN §13, "Known gaps").
pub trait RecencySource {
    /// Frames since `a` and `b` last interacted, `None` if never.
    fn frames_since_interaction(&self, a: PlayerId, b: PlayerId) -> Option<u64>;
}

/// A recency source that reports "never" for every pair; useful in tests
/// and for architectures that ignore recency.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRecency;

impl RecencySource for NoRecency {
    fn frames_since_interaction(&self, _a: PlayerId, _b: PlayerId) -> Option<u64> {
        None
    }
}

/// Computes the full three-set partition for `observer_id`.
///
/// Dead candidates (health 0) are classified into *others* — they are not
/// rendered, so no detailed information about them is justified.
///
/// # Examples
///
/// ```
/// use watchmen_core::subscription::{compute_sets, NoRecency};
/// use watchmen_core::WatchmenConfig;
/// use watchmen_game::trace::standard_trace;
/// use watchmen_game::PlayerId;
/// use watchmen_world::maps;
///
/// let trace = standard_trace(8, 1, 10);
/// let map = maps::q3dm17_like();
/// let sets = compute_sets(
///     PlayerId(0),
///     &trace.frames[9].states,
///     &map,
///     &WatchmenConfig::default(),
///     &NoRecency,
/// );
/// assert_eq!(sets.len(), 7); // everyone but the observer is classified
/// ```
///
/// # Panics
///
/// Panics if `observer_id` is out of range for `states`.
#[must_use]
pub fn compute_sets(
    observer_id: PlayerId,
    states: &[PlayerFrame],
    map: &GameMap,
    config: &WatchmenConfig,
    recency: &dyn RecencySource,
) -> SetAssignment {
    let observer = &states[observer_id.index()];
    let weights = AttentionWeights::default();
    // One cone per observer: building it costs two sin/cos pairs.
    let cone = vision_cone(observer);

    // Visible candidates with their attention score.
    let mut visible: Vec<(PlayerId, f64)> = Vec::new();
    let mut others: Vec<PlayerId> = Vec::new();
    for (j, candidate) in states.iter().enumerate() {
        let id = PlayerId(j as u32);
        if id == observer_id {
            continue;
        }
        if candidate.is_alive() && observer.is_alive() && sees(&cone, candidate, map) {
            let s = score(
                &AttentionInput {
                    observer,
                    candidate,
                    frames_since_interaction: recency.frames_since_interaction(observer_id, id),
                },
                &weights,
            );
            visible.push((id, s));
        } else {
            others.push(id);
        }
    }

    // Top-k by attention become the IS ("avatars in a player's interest
    // set are automatically removed from its vision set"); ties break by
    // id for determinism.
    visible.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).expect("attention scores are finite").then_with(|| a.0.cmp(&b.0))
    });
    let k = config.interest_size.min(visible.len());
    let interest: Vec<PlayerId> = visible[..k].iter().map(|&(id, _)| id).collect();
    let vision: Vec<PlayerId> = visible[k..].iter().map(|&(id, _)| id).collect();

    SetAssignment { interest, vision, others }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_game::WeaponKind;
    use watchmen_math::Aim;
    use watchmen_world::maps;

    fn frame_at(pos: Vec3) -> PlayerFrame {
        PlayerFrame {
            position: pos,
            velocity: Vec3::ZERO,
            aim: Aim::default(), // looking +x
            health: 100,
            armor: 0,
            weapon: WeaponKind::MachineGun,
            ammo: 10,
        }
    }

    fn open_setup() -> (GameMap, WatchmenConfig) {
        (maps::arena(40, 10.0), WatchmenConfig::default())
    }

    #[test]
    fn partition_is_complete_and_disjoint() {
        let (map, config) = open_setup();
        // Observer at the center, 9 players scattered.
        let mut states = vec![frame_at(Vec3::new(200.0, 200.0, 0.0))];
        for k in 1..10 {
            let angle = k as f64 * 0.7;
            let r = 20.0 + k as f64 * 15.0;
            states.push(frame_at(Vec3::new(200.0 + r * angle.cos(), 200.0 + r * angle.sin(), 0.0)));
        }
        let sets = compute_sets(PlayerId(0), &states, &map, &config, &NoRecency);
        assert_eq!(sets.len(), 9);
        let mut all: Vec<PlayerId> =
            sets.interest.iter().chain(&sets.vision).chain(&sets.others).copied().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 9, "overlap between sets");
        assert!(!sets.interest.contains(&PlayerId(0)));
        assert!(!sets.is_empty());
    }

    #[test]
    fn interest_capped_at_config_size() {
        let (map, config) = open_setup();
        // 12 players straight ahead, all visible.
        let mut states = vec![frame_at(Vec3::new(50.0, 200.0, 0.0))];
        for k in 1..13 {
            states.push(frame_at(Vec3::new(50.0 + k as f64 * 10.0, 200.0, 0.0)));
        }
        let sets = compute_sets(PlayerId(0), &states, &map, &config, &NoRecency);
        assert_eq!(sets.interest.len(), 5);
        assert_eq!(sets.vision.len(), 7);
        assert!(sets.others.is_empty());
        // Nearest should outrank farthest.
        assert!(sets.interest.contains(&PlayerId(1)));
        assert!(!sets.interest.contains(&PlayerId(12)));
    }

    #[test]
    fn behind_is_others() {
        let (map, config) = open_setup();
        let states = vec![
            frame_at(Vec3::new(200.0, 200.0, 0.0)),
            frame_at(Vec3::new(150.0, 200.0, 0.0)), // behind (looking +x)
        ];
        let sets = compute_sets(PlayerId(0), &states, &map, &config, &NoRecency);
        assert_eq!(sets.kind_of(PlayerId(1)), SetKind::Others);
    }

    #[test]
    fn occluded_is_others() {
        let (mut map, config) = open_setup();
        map.fill_rect(22, 18, 22, 22, watchmen_world::Tile::Wall);
        let states = vec![
            frame_at(Vec3::new(200.0, 200.0, 0.0)),
            frame_at(Vec3::new(260.0, 200.0, 0.0)), // behind the wall
        ];
        let sets = compute_sets(PlayerId(0), &states, &map, &config, &NoRecency);
        assert_eq!(sets.kind_of(PlayerId(1)), SetKind::Others);
    }

    #[test]
    fn beyond_radius_is_others() {
        let (map, config) = open_setup();
        let states = vec![
            frame_at(Vec3::new(20.0, 200.0, 0.0)),
            frame_at(Vec3::new(20.0 + WatchmenConfig::VISION_RADIUS + 10.0, 200.0, 0.0)),
        ];
        let sets = compute_sets(PlayerId(0), &states, &map, &config, &NoRecency);
        assert_eq!(sets.kind_of(PlayerId(1)), SetKind::Others);
    }

    #[test]
    fn dead_players_are_others() {
        let (map, config) = open_setup();
        let mut dead = frame_at(Vec3::new(220.0, 200.0, 0.0));
        dead.health = 0;
        let states = vec![frame_at(Vec3::new(200.0, 200.0, 0.0)), dead];
        let sets = compute_sets(PlayerId(0), &states, &map, &config, &NoRecency);
        assert_eq!(sets.kind_of(PlayerId(1)), SetKind::Others);
    }

    #[test]
    fn recency_promotes_into_interest() {
        let (map, config) = open_setup();
        struct Fixed(PlayerId);
        impl RecencySource for Fixed {
            fn frames_since_interaction(&self, _a: PlayerId, b: PlayerId) -> Option<u64> {
                (b == self.0).then_some(0)
            }
        }
        // Six candidates at equal distance ahead; recency should break the
        // tie in favor of the recent interactor.
        let mut states = vec![frame_at(Vec3::new(200.0, 200.0, 0.0))];
        for k in 1..=6 {
            let dy = (k as f64 - 3.5) * 4.0;
            states.push(frame_at(Vec3::new(260.0, 200.0 + dy, 0.0)));
        }
        let no_recency = compute_sets(PlayerId(0), &states, &map, &config, &NoRecency);
        // Pick the one that would otherwise be excluded.
        let excluded = *no_recency.vision.first().expect("one candidate excluded from IS");
        let with = compute_sets(PlayerId(0), &states, &map, &config, &Fixed(excluded));
        assert!(with.interest.contains(&excluded), "recency should promote {excluded}");
    }

    #[test]
    fn set_kind_display() {
        assert_eq!(SetKind::Interest.to_string(), "IS");
        assert_eq!(SetKind::Vision.to_string(), "VS");
        assert_eq!(SetKind::Others.to_string(), "others");
    }
}
