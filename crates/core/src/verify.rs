//! The verification suite (Section V-A).
//!
//! "Each player can perform verifications of each other player. The types
//! of verifications and their accuracy depend on whether he is the other
//! player's proxy and/or whether he has the other player in his IS or VS."
//! The suite holds the checks the node runs: position updates, aim rate,
//! kill claims and subscriptions (the vision-cone check, for IS and VS
//! subscriptions alike), plus the dissemination-frequency check proxies
//! run at every epoch summary. Figure 6's guidance and IS attention-rank
//! checks have no node caller, so they are not here.
//!
//! Checks are *sanity checks*: approximate and cheap, returning 1–10
//! scores via [`crate::rating::rate_deviation`].

use watchmen_game::trace::PlayerFrame;
use watchmen_math::{Aim, Vec3};
use watchmen_world::{GameMap, PhysicsConfig};

use crate::msg::KillClaim;
use crate::rating::rate_deviation;
use crate::subscription::vision_cone;
use crate::WatchmenConfig;

/// Canonical names for the verification checks.
///
/// Suspicion events, audit records and detection reports all tag
/// verdicts with one of these strings, so an audit stream can be
/// filtered by check without guessing at ad-hoc labels.
pub mod checks {
    /// [`super::Verifier::check_position`] — speed/physics/map sanity.
    pub const POSITION: &str = "position";
    /// [`super::Verifier::check_aim`] — angular-rate sanity.
    pub const AIM: &str = "aim";
    /// [`super::Verifier::check_kill`] — kill-claim plausibility.
    pub const KILL: &str = "kill";
    /// [`super::Verifier::check_vs_subscription`] — subscription validity.
    pub const SUBSCRIPTION: &str = "subscription";
    /// [`super::Verifier::check_rate`] — dissemination frequency.
    pub const RATE: &str = "rate";
    /// The per-epoch aggregate the proxy publishes at schedule renewal.
    pub const EPOCH_SUMMARY: &str = "epoch-summary";
    /// [`crate::lobby::GameLobby::admit_midgame`] — mid-game join
    /// attempts beyond the admission-rate window.
    pub const ADMISSION: &str = "admission";

    /// Every check name, for exhaustive reports.
    pub const ALL: [&str; 7] = [POSITION, AIM, KILL, SUBSCRIPTION, RATE, EPOCH_SUMMARY, ADMISSION];
}

/// Slack multiplier on hard physics limits before an action is rated
/// suspicious (absorbs jitter, interpolation and message timing noise).
const PHYSICS_SLACK: f64 = 1.15;

/// Minimum frames a victim should have been in the attacker's IS for a
/// kill to look attended ("typically 4–10% of the kills had their target
/// in the IS for less than 2 out of 5 frames").
const MIN_IS_FRAMES_FOR_KILL: u64 = 2;

/// The verifier a player runs against peers: the frame rate and the
/// physics limits every check measures against.
///
/// # Examples
///
/// ```
/// use watchmen_core::verify::Verifier;
/// use watchmen_core::WatchmenConfig;
/// use watchmen_world::{maps, PhysicsConfig};
/// use watchmen_math::Vec3;
///
/// let v = Verifier::new(WatchmenConfig::default(), PhysicsConfig::default());
/// let map = maps::arena(40, 10.0);
/// let (a, b) = (Vec3::new(50.0, 50.0, 0.0), Vec3::new(51.0, 50.0, 0.0));
/// assert_eq!(v.check_position(a, b, 1, &map), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    config: WatchmenConfig,
    physics: PhysicsConfig,
}

impl Verifier {
    /// Creates a verifier.
    #[must_use]
    pub fn new(config: WatchmenConfig, physics: PhysicsConfig) -> Self {
        Verifier { config, physics }
    }

    /// The architecture configuration in use.
    #[must_use]
    pub fn config(&self) -> &WatchmenConfig {
        &self.config
    }

    /// The physics limits the checks measure against.
    #[must_use]
    pub fn physics(&self) -> &PhysicsConfig {
        &self.physics
    }

    /// **Position check**: are two successive position updates consistent
    /// with the maximum speed and the map ("gravity, limited velocity,
    /// angular speed, permitted position")?
    ///
    /// `frames_elapsed` is the number of frames between the updates.
    #[must_use]
    pub fn check_position(&self, prev: Vec3, next: Vec3, frames_elapsed: u64, map: &GameMap) -> u8 {
        let frames = frames_elapsed.max(1);
        // Standing inside a wall is never legal…
        if map.tile_at(next).blocks_movement() {
            return 10;
        }
        // …and neither is phasing through one: interior samples of the
        // straight path must not land inside wall tiles (an "action
        // repetition" style check — replaying the move against the map).
        // Sampling rather than exact ray-walking tolerates honest
        // wall-hugging movement that grazes a corner.
        let step = map.cell_size() / 2.0;
        let samples = ((prev.distance(next) / step).ceil() as usize).clamp(2, 32);
        for k in 1..samples {
            let t = k as f64 / samples as f64;
            if map.tile_at(prev.lerp(next, t)).blocks_movement() {
                return 9;
            }
        }
        let max_travel = self.physics.max_speed * self.config.frame_seconds() * frames as f64 * PHYSICS_SLACK
                // Falling adds vertical distance beyond run speed.
                + self.physics.gravity * (self.config.frame_seconds() * frames as f64).powi(2);
        rate_deviation(prev.distance(next), max_travel)
    }

    /// **Aim-rate check**: is the rotation between two aims possible within
    /// the maximum angular speed?
    #[must_use]
    pub fn check_aim(&self, prev: Aim, next: Aim, frames_elapsed: u64) -> u8 {
        let frames = frames_elapsed.max(1);
        let max_turn = self.physics.max_angular_speed
            * self.config.frame_seconds()
            * frames as f64
            * PHYSICS_SLACK;
        rate_deviation(prev.max_component_delta(next), max_turn.min(std::f64::consts::PI))
    }

    /// **Kill check**: "verifying the type of weapon, the distance, the
    /// visibility, and how long the attacker had the target in his IS".
    ///
    /// `victim_seen` is the verifier's freshest sighting of the victim;
    /// `victim_dead` whether it knew the victim dead before the claim
    /// frame; `frames_victim_in_attacker_is` how long the victim had been
    /// in the attacker's interest set.
    #[must_use]
    pub fn check_kill(
        &self,
        claim: &KillClaim,
        victim_seen: Vec3,
        victim_dead: bool,
        map: &GameMap,
        frames_victim_in_attacker_is: u64,
    ) -> u8 {
        let mut worst = 1u8;

        // Weapon range: a hard game rule — hits beyond the weapon's reach
        // are impossible, so any excess beyond a small slack flags.
        let distance = claim.attacker_position.distance(claim.victim_position);
        // Splash projectiles keep flying while the shooter retreats, so
        // the claimed kill distance gets flight-time slack.
        let range = if claim.weapon.splash_radius() > 0.0 {
            claim.weapon.max_range() * 1.4
        } else {
            claim.weapon.max_range()
        };
        if distance > range * 1.05 {
            worst = worst.max(rate_deviation(distance - range, 0.1 * range).max(6));
        }

        // Visibility: hitscan shots through walls are invalid; splash
        // weapons can legitimately kill around corners, so occlusion is
        // only a mild signal for them.
        let eye = claim.attacker_position + Vec3::Z * 1.5;
        let target = claim.victim_position + Vec3::Z * 1.5;
        if !map.line_of_sight(eye, target) {
            let los_score = if claim.weapon.splash_radius() > 0.0 { 4 } else { 9 };
            worst = worst.max(los_score);
        }

        // Claimed victim position vs what the verifier observed ("the
        // distance between the position of the rocket and that of the
        // target is used as a metric of the deviation").
        let observation_gap = claim.victim_position.distance(victim_seen);
        let gap_tolerance = self.physics.max_speed
            * self.config.frame_seconds()
            * WatchmenConfig::GUIDANCE_PERIOD as f64;
        worst = worst.max(rate_deviation(observation_gap, gap_tolerance));

        // Attention: kills on targets never attended to are suspicious
        // (aimbot signature), but only a sub-threshold hint on their own —
        // the paper observes 4–10% of *honest* kills in this situation.
        if frames_victim_in_attacker_is < MIN_IS_FRAMES_FOR_KILL {
            worst = worst.max(4);
        }

        // A dead victim cannot be killed again.
        if victim_dead {
            worst = worst.max(8);
        }

        worst
    }

    /// **VS-subscription check**: "a VS subscription is only valid if q is
    /// in p's vision cone. For incorrect VS subscriptions, the distance
    /// between q and p's vision cone is used as a metric of the
    /// deviation."
    ///
    /// `subscriber` is the proxy's knowledge of the subscribing player `p`;
    /// `target_position` its knowledge of `q`.
    #[must_use]
    pub fn check_vs_subscription(
        &self,
        subscriber: &PlayerFrame,
        target_position: Vec3,
        map: &GameMap,
    ) -> u8 {
        let cone = vision_cone(subscriber);
        let deviation = cone.deviation(target_position + Vec3::Z * 1.5);
        // Tolerance: one guidance period of target movement (the proxy's
        // information about q may be that stale).
        let tolerance = self.physics.max_speed
            * self.config.frame_seconds()
            * WatchmenConfig::GUIDANCE_PERIOD as f64;
        let mut score = rate_deviation(deviation, tolerance);
        // Subscribing through a wall leaks map-hack information even when
        // the cone geometry fits.
        let eye = subscriber.position + Vec3::Z * 1.5;
        if score == 1 && !map.line_of_sight(eye, target_position + Vec3::Z * 1.5) {
            score = 4; // conservative: occlusion knowledge may be stale
        }
        score
    }

    /// **Dissemination-frequency check**: "proxies can control whether a
    /// player sends timely updates". Under-sending (suppress-correct,
    /// blind-opponent, a look-ahead hold) and over-sending (fast-rate,
    /// flooding) both raise the score. `expected` is the proxy period,
    /// which [`WatchmenConfig::validate`] keeps positive.
    #[must_use]
    pub fn check_rate(&self, expected: u64, received: u64) -> u8 {
        let ratio = received as f64 / expected as f64;
        if ratio < 1.0 {
            // 10% missing tolerated (network loss); rate the shortfall.
            rate_deviation(1.0 - ratio, 0.10)
        } else {
            // 20% overshoot tolerated (timing jitter); rate the excess.
            rate_deviation(ratio - 1.0, 0.20)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_game::{PlayerId, WeaponKind};
    use watchmen_world::maps;

    fn verifier() -> Verifier {
        Verifier::new(WatchmenConfig::default(), PhysicsConfig::default())
    }

    fn frame_at(pos: Vec3) -> PlayerFrame {
        PlayerFrame {
            position: pos,
            velocity: Vec3::ZERO,
            aim: Aim::default(),
            health: 100,
            armor: 0,
            weapon: WeaponKind::MachineGun,
            ammo: 10,
        }
    }

    #[test]
    fn position_legal_speed_passes() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        // 2 units in one frame at max 40 u/s * 0.05 s = 2 u.
        let s = v.check_position(Vec3::new(50.0, 50.0, 0.0), Vec3::new(52.0, 50.0, 0.0), 1, &map);
        assert_eq!(s, 1);
    }

    #[test]
    fn position_speed_hack_flagged() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        // 20 units in one frame = 10x max speed.
        let s = v.check_position(Vec3::new(50.0, 50.0, 0.0), Vec3::new(70.0, 50.0, 0.0), 1, &map);
        assert!(s >= 9, "score {s}");
        // 1.5x speed is mildly suspicious, not maximal.
        let mild =
            v.check_position(Vec3::new(50.0, 50.0, 0.0), Vec3::new(53.5, 50.0, 0.0), 1, &map);
        assert!((2..9).contains(&mild), "mild score {mild}");
    }

    #[test]
    fn position_inside_wall_is_maximal() {
        let v = verifier();
        let mut map = maps::arena(40, 10.0);
        map.set_tile(10, 10, watchmen_world::Tile::Wall);
        let s =
            v.check_position(Vec3::new(104.0, 105.0, 0.0), Vec3::new(105.0, 105.0, 0.0), 1, &map);
        assert_eq!(s, 10);
    }

    #[test]
    fn position_wall_phasing_flagged() {
        let v = verifier();
        let mut map = maps::arena(40, 10.0);
        map.fill_rect(10, 1, 10, 38, watchmen_world::Tile::Wall);
        // Both endpoints legal, straight line crosses the wall.
        let s = v.check_position(Vec3::new(95.0, 50.0, 0.0), Vec3::new(115.0, 50.0, 0.0), 12, &map);
        assert!(s >= 9, "phased through a wall with score {s}");
    }

    #[test]
    fn position_multi_frame_scales() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        // 20 units over 10 frames = legal.
        let s = v.check_position(Vec3::new(50.0, 50.0, 0.0), Vec3::new(70.0, 50.0, 0.0), 10, &map);
        assert_eq!(s, 1);
    }

    #[test]
    fn aim_rate_check() {
        let v = verifier();
        // Default max angular speed 2π/s → 0.1π per frame ≈ 0.314 rad.
        assert_eq!(v.check_aim(Aim::new(0.0, 0.0), Aim::new(0.3, 0.0), 1), 1);
        let snap = v.check_aim(Aim::new(0.0, 0.0), Aim::new(3.0, 0.0), 1);
        assert!(snap >= 8, "snap aim score {snap}");
        // Over more frames the same turn is fine.
        assert_eq!(v.check_aim(Aim::new(0.0, 0.0), Aim::new(3.0, 0.0), 20), 1);
    }

    #[test]
    fn kill_in_range_visible_passes() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        let victim = Vec3::new(100.0, 50.0, 0.0);
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(100.0, 50.0, 0.0),
        };
        assert_eq!(v.check_kill(&claim, victim, false, &map, 10), 1);
    }

    #[test]
    fn kill_beyond_range_flagged() {
        let v = verifier();
        let map = maps::arena(100, 10.0);
        let victim = Vec3::new(500.0, 50.0, 0.0);
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Shotgun, // 40 u range
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(500.0, 50.0, 0.0),
        };
        assert_eq!(v.check_kill(&claim, victim, false, &map, 10), 10);
    }

    #[test]
    fn kill_through_wall_flagged() {
        let v = verifier();
        let mut map = maps::arena(40, 10.0);
        map.fill_rect(10, 1, 10, 38, watchmen_world::Tile::Wall);
        let victim = Vec3::new(150.0, 50.0, 0.0);
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(150.0, 50.0, 0.0),
        };
        assert!(v.check_kill(&claim, victim, false, &map, 10) >= 9);
    }

    #[test]
    fn kill_position_mismatch_flagged() {
        let v = verifier();
        let map = maps::arena(100, 10.0);
        // Verifier knows the victim is 400 units from the claimed spot.
        let victim = Vec3::new(500.0, 500.0, 0.0);
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(100.0, 50.0, 0.0),
        };
        assert!(v.check_kill(&claim, victim, false, &map, 10) >= 8);
    }

    #[test]
    fn kill_unattended_target_mildly_flagged() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        let victim = Vec3::new(100.0, 50.0, 0.0);
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(100.0, 50.0, 0.0),
        };
        let s = v.check_kill(&claim, victim, false, &map, 0);
        assert_eq!(s, 4); // a hint, below the flag threshold on its own
    }

    #[test]
    fn kill_on_dead_victim_flagged() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        let victim = Vec3::new(100.0, 50.0, 0.0);
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(100.0, 50.0, 0.0),
        };
        assert_eq!(v.check_kill(&claim, victim, false, &map, 10), 1);
        assert!(v.check_kill(&claim, victim, true, &map, 10) >= 8);
    }

    #[test]
    fn vs_subscription_inside_cone_passes() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        let sub = frame_at(Vec3::new(50.0, 200.0, 0.0)); // looking +x
        let s = v.check_vs_subscription(&sub, Vec3::new(120.0, 210.0, 0.0), &map);
        assert_eq!(s, 1);
    }

    #[test]
    fn vs_subscription_behind_flagged() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        let sub = frame_at(Vec3::new(200.0, 200.0, 0.0)); // looking +x
        let s = v.check_vs_subscription(&sub, Vec3::new(80.0, 200.0, 0.0), &map);
        assert!(s >= 5, "behind-cone score {s}");
    }

    #[test]
    fn rate_check_bounds() {
        let v = verifier();
        assert_eq!(v.check_rate(40, 40), 1);
        assert_eq!(v.check_rate(40, 38), 1); // 5% loss fine
        assert!(v.check_rate(40, 20) >= 9); // half missing
        assert!(v.check_rate(40, 80) >= 9); // fast-rate cheat
    }
}
