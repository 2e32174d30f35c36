//! The verification suite (Section V-A).
//!
//! "Each player can perform verifications of each other player. The types
//! of verifications and their accuracy depend on whether he is the other
//! player's proxy and/or whether he has the other player in his IS or VS."
//! The suite covers the five families evaluated in Figure 6 — position
//! updates, kill claims, guidance messages, IS subscriptions and VS
//! subscriptions — plus the dissemination-frequency checks proxies run.
//!
//! Checks are *sanity checks*: approximate, cheap, and calibrated against
//! honest behaviour (`a ≤ ā + σ_a`), returning 1–10 scores via
//! [`crate::rating::rate_deviation`].

use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_math::poly::Polyline;
use watchmen_math::stats::Running;
use watchmen_math::{Aim, Vec3};
use watchmen_world::{GameMap, PhysicsConfig};

use crate::attention::{score as attention_score, AttentionInput, AttentionWeights};
use crate::dead_reckoning::{guidance_deviation, Guidance};
use crate::msg::KillClaim;
use crate::rating::rate_deviation;
use crate::subscription::{vision_cone, RecencySource};
use crate::WatchmenConfig;

/// Canonical names for the verification checks.
///
/// Suspicion events, flight-recorder entries and detection reports all
/// tag verdicts with one of these strings, so a trace or dump can be
/// filtered by check without guessing at ad-hoc labels.
pub mod checks {
    /// [`super::Verifier::check_position`] — speed/physics/map sanity.
    pub const POSITION: &str = "position";
    /// [`super::Verifier::check_aim`] — angular-rate sanity.
    pub const AIM: &str = "aim";
    /// [`super::Verifier::check_guidance`] — dead-reckoning envelope.
    pub const GUIDANCE: &str = "guidance";
    /// [`super::Verifier::check_kill`] — kill-claim plausibility.
    pub const KILL: &str = "kill";
    /// [`super::Verifier::check_vs_subscription`] /
    /// [`super::Verifier::check_is_subscription`] — subscription validity.
    pub const SUBSCRIPTION: &str = "subscription";
    /// [`super::Verifier::check_rate`] — dissemination frequency.
    pub const RATE: &str = "rate";
    /// The per-epoch aggregate the proxy publishes at schedule renewal.
    pub const EPOCH_SUMMARY: &str = "epoch-summary";
    /// [`crate::collusion::SummaryCorroborator`] — a proxy's epoch
    /// summary contradicted by independent witness evidence.
    pub const COLLUSION: &str = "collusion";
    /// [`crate::lobby::GameLobby::admit_midgame`] — mid-game join
    /// attempts beyond the admission-rate window.
    pub const ADMISSION: &str = "admission";
    /// [`crate::schedule_guard::ScheduleBiasDetector`] — a claimed proxy
    /// assignment the shared schedule cannot produce, or fallback draws
    /// concentrating into a clique.
    pub const SCHEDULE: &str = "schedule";

    /// Every check name, for exhaustive reports.
    pub const ALL: [&str; 10] = [
        POSITION,
        AIM,
        GUIDANCE,
        KILL,
        SUBSCRIPTION,
        RATE,
        EPOCH_SUMMARY,
        COLLUSION,
        ADMISSION,
        SCHEDULE,
    ];
}

/// Slack multiplier on hard physics limits before an action is rated
/// suspicious (absorbs jitter, interpolation and message timing noise).
const PHYSICS_SLACK: f64 = 1.15;

/// Minimum frames a victim should have been in the attacker's IS for a
/// kill to look attended ("typically 4–10% of the kills had their target
/// in the IS for less than 2 out of 5 frames").
const MIN_IS_FRAMES_FOR_KILL: u64 = 2;

/// The stateful verifier a player runs against peers.
///
/// Holds the honest-behaviour baseline for guidance deviations, which the
/// paper calibrates from observed players ("the average value ā observed
/// for honest players plus … the observed standard deviation σ_a").
///
/// # Examples
///
/// ```
/// use watchmen_core::verify::Verifier;
/// use watchmen_core::WatchmenConfig;
/// use watchmen_world::PhysicsConfig;
///
/// let v = Verifier::new(WatchmenConfig::default(), PhysicsConfig::default());
/// assert_eq!(v.guidance_tolerance(), Verifier::DEFAULT_GUIDANCE_TOLERANCE);
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    config: WatchmenConfig,
    physics: PhysicsConfig,
    guidance_baseline: Running,
}

impl Verifier {
    /// Guidance-area tolerance used until enough honest observations have
    /// been collected.
    pub const DEFAULT_GUIDANCE_TOLERANCE: f64 = 60.0;

    /// Observations required before the calibrated baseline replaces the
    /// default tolerance.
    const MIN_BASELINE_SAMPLES: u64 = 20;

    /// Creates a verifier with an empty baseline.
    #[must_use]
    pub fn new(config: WatchmenConfig, physics: PhysicsConfig) -> Self {
        Verifier { config, physics, guidance_baseline: Running::new() }
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

    /// Feeds one honest guidance-deviation observation into the baseline.
    pub fn observe_honest_guidance(&mut self, area: f64) {
        self.guidance_baseline.push(area);
    }

    /// The current guidance acceptance threshold `ā + σ_a`.
    #[must_use]
    pub fn guidance_tolerance(&self) -> f64 {
        if self.guidance_baseline.count() < Self::MIN_BASELINE_SAMPLES {
            Self::DEFAULT_GUIDANCE_TOLERANCE
        } else {
            // Never collapse below a floor: honest play with near-zero
            // variance would otherwise flag every wiggle.
            self.guidance_baseline.tolerance(1.0).max(1.0)
        }
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

    /// **Guidance check**: does the trajectory the avatar actually followed
    /// stay within the honest envelope of its dead-reckoning prediction?
    /// (`(a − (ā + σ_a)) < 0` accepts.)
    ///
    /// Two signals are combined, both available to proxies ("guidance
    /// messages are compared against future frequent updates by the
    /// proxies as well as dead reckoning computed by proxies"):
    ///
    /// * the *area* between the predicted and actual trajectory, rated
    ///   against the calibrated honest envelope;
    /// * the claimed velocity against the instantaneous displacement in
    ///   the first following frame, rated against the maximum legal
    ///   acceleration (a fabricated velocity diverges immediately, while
    ///   honest claims match the very next frequent update).
    #[must_use]
    pub fn check_guidance(&self, guidance: &Guidance, actual: &Polyline) -> u8 {
        let dt = self.config.frame_seconds();
        let area = guidance_deviation(guidance, actual, dt);
        let area_score = rate_deviation(area, self.guidance_tolerance());

        let velocity_score = if actual.len() >= 2 {
            let observed = (actual.points()[1] - actual.points()[0]) / dt;
            let dev = (guidance.velocity - observed).horizontal().length();
            // One frame of maximum acceleration (the game enforces it),
            // plus a small absolute slack for collision response.
            let tolerance = self.physics.max_accel * dt * PHYSICS_SLACK + 2.0;
            rate_deviation(dev, tolerance)
        } else {
            1
        };

        area_score.max(velocity_score)
    }

    /// **Kill check**: "verifying the type of weapon, the distance, the
    /// visibility, and how long the attacker had the target in his IS".
    ///
    /// `victim_observed` is the verifier's best knowledge of the victim at
    /// claim time; `frames_victim_in_attacker_is` how long the victim had
    /// been in the attacker's interest set.
    #[must_use]
    pub fn check_kill(
        &self,
        claim: &KillClaim,
        victim_observed: &PlayerFrame,
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
        let observation_gap = claim.victim_position.distance(victim_observed.position);
        let gap_tolerance = self.physics.max_speed
            * self.config.frame_seconds()
            * self.config.guidance_period as f64;
        worst = worst.max(rate_deviation(observation_gap, gap_tolerance));

        // Attention: kills on targets never attended to are suspicious
        // (aimbot signature), but only a sub-threshold hint on their own —
        // the paper observes 4–10% of *honest* kills in this situation.
        if frames_victim_in_attacker_is < MIN_IS_FRAMES_FOR_KILL {
            worst = worst.max(4);
        }

        // A dead victim cannot be killed again.
        if !victim_observed.is_alive() {
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
        let cone = vision_cone(subscriber, &self.config);
        let deviation = cone.deviation(target_position + Vec3::Z * 1.5);
        // Tolerance: one guidance period of target movement (the proxy's
        // information about q may be that stale).
        let tolerance = self.physics.max_speed
            * self.config.frame_seconds()
            * self.config.guidance_period as f64;
        let mut score = rate_deviation(deviation, tolerance);
        // Subscribing through a wall leaks map-hack information even when
        // the cone geometry fits.
        let eye = subscriber.position + Vec3::Z * 1.5;
        if score == 1 && !map.line_of_sight(eye, target_position + Vec3::Z * 1.5) {
            score = 4; // conservative: occlusion knowledge may be stale
        }
        score
    }

    /// **IS-subscription check**: "for IS-subscriptions, a proxy computes
    /// interest with sufficient accuracy based on the attention metric."
    ///
    /// The target's attention *rank* among all candidates is compared to
    /// the interest-set size (with slack for information staleness).
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range for `states`.
    #[must_use]
    pub fn check_is_subscription(
        &self,
        subscriber_id: PlayerId,
        target_id: PlayerId,
        states: &[PlayerFrame],
        map: &GameMap,
        recency: &dyn RecencySource,
    ) -> u8 {
        let observer = &states[subscriber_id.index()];
        // "Only avatars in a player's vision set are considered as
        // candidates" — an IS subscription to an avatar outside the
        // (slightly enlarged) vision region is invalid outright, rated by
        // how far outside it lies.
        let target_state = &states[target_id.index()];
        if !crate::subscription::in_vision(observer, target_state, map, &self.config) {
            let cone = vision_cone(observer, &self.config);
            let deviation = cone.deviation(target_state.position + Vec3::Z * 1.5);
            let tolerance = self.physics.max_speed
                * self.config.frame_seconds()
                * self.config.guidance_period as f64;
            return rate_deviation(deviation, tolerance).max(6);
        }
        let weights = AttentionWeights::default();
        let mut scores: Vec<(PlayerId, f64)> = states
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != subscriber_id.index())
            .map(|(j, candidate)| {
                let id = PlayerId(j as u32);
                let s = attention_score(
                    &AttentionInput {
                        observer,
                        candidate,
                        frames_since_interaction: recency
                            .frames_since_interaction(subscriber_id, id),
                    },
                    &weights,
                );
                (id, s)
            })
            .collect();
        scores.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("finite attention").then_with(|| a.0.cmp(&b.0))
        });
        let rank = scores.iter().position(|&(id, _)| id == target_id).unwrap_or(scores.len());
        // Rank within interest_size + slack is justified; beyond that the
        // excess rank scales the score.
        let slack = 2;
        let limit = self.config.interest_size + slack;
        if rank < limit {
            1
        } else {
            rate_deviation(rank as f64, limit as f64)
        }
    }

    /// **Dissemination-frequency check**: "proxies can control whether a
    /// player sends timely updates". Under-sending (suppress-correct,
    /// blind-opponent, escaping) and over-sending (fast-rate) both raise
    /// the score.
    #[must_use]
    pub fn check_rate(&self, expected: u64, received: u64) -> u8 {
        if expected == 0 {
            return if received > 2 { rate_deviation(received as f64, 2.0) } else { 1 };
        }
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
    use watchmen_game::WeaponKind;
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
    fn guidance_calibration_and_check() {
        let mut v = verifier();
        for _ in 0..30 {
            v.observe_honest_guidance(10.0);
        }
        for _ in 0..30 {
            v.observe_honest_guidance(20.0);
        }
        // ā = 15, σ = 5 → tolerance 20.
        assert!((v.guidance_tolerance() - 20.0).abs() < 1e-9);

        let g = Guidance {
            position: Vec3::ZERO,
            velocity: Vec3::new(10.0, 0.0, 0.0),
            aim: Aim::default(),
            predicted_position: Vec3::new(10.0, 0.0, 0.0),
            frame: 0,
        };
        // Honest path: zero area.
        let honest: Polyline = (0..=20).map(|k| Vec3::new(k as f64 * 0.5, 0.0, 0.0)).collect();
        assert_eq!(v.check_guidance(&g, &honest), 1);
        // Teleporting path: large area.
        let bogus: Polyline = (0..=20).map(|k| Vec3::new(k as f64 * 0.5, 200.0, 0.0)).collect();
        assert!(v.check_guidance(&g, &bogus) >= 9);
    }

    #[test]
    fn kill_in_range_visible_passes() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        let victim = frame_at(Vec3::new(100.0, 50.0, 0.0));
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(100.0, 50.0, 0.0),
        };
        assert_eq!(v.check_kill(&claim, &victim, &map, 10), 1);
    }

    #[test]
    fn kill_beyond_range_flagged() {
        let v = verifier();
        let map = maps::arena(100, 10.0);
        let victim = frame_at(Vec3::new(500.0, 50.0, 0.0));
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Shotgun, // 40 u range
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(500.0, 50.0, 0.0),
        };
        assert_eq!(v.check_kill(&claim, &victim, &map, 10), 10);
    }

    #[test]
    fn kill_through_wall_flagged() {
        let v = verifier();
        let mut map = maps::arena(40, 10.0);
        map.fill_rect(10, 1, 10, 38, watchmen_world::Tile::Wall);
        let victim = frame_at(Vec3::new(150.0, 50.0, 0.0));
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(150.0, 50.0, 0.0),
        };
        assert!(v.check_kill(&claim, &victim, &map, 10) >= 9);
    }

    #[test]
    fn kill_position_mismatch_flagged() {
        let v = verifier();
        let map = maps::arena(100, 10.0);
        // Verifier knows the victim is 400 units from the claimed spot.
        let victim = frame_at(Vec3::new(500.0, 500.0, 0.0));
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(100.0, 50.0, 0.0),
        };
        assert!(v.check_kill(&claim, &victim, &map, 10) >= 8);
    }

    #[test]
    fn kill_unattended_target_mildly_flagged() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        let victim = frame_at(Vec3::new(100.0, 50.0, 0.0));
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(100.0, 50.0, 0.0),
        };
        let s = v.check_kill(&claim, &victim, &map, 0);
        assert_eq!(s, 4); // a hint, below the flag threshold on its own
    }

    #[test]
    fn kill_on_dead_victim_flagged() {
        let v = verifier();
        let map = maps::arena(40, 10.0);
        let mut victim = frame_at(Vec3::new(100.0, 50.0, 0.0));
        victim.health = 0;
        let claim = KillClaim {
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            attacker_position: Vec3::new(50.0, 50.0, 0.0),
            victim_position: Vec3::new(100.0, 50.0, 0.0),
        };
        assert!(v.check_kill(&claim, &victim, &map, 10) >= 8);
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
    fn is_subscription_near_target_passes_far_target_flagged() {
        let v = verifier();
        // Subscriber at origin looking +x; 10 candidates ahead at rising
        // distance. Subscribing to the nearest is fine; to the farthest is
        // not.
        let mut states = vec![frame_at(Vec3::new(20.0, 500.0, 0.0))];
        for k in 1..=10 {
            states.push(frame_at(Vec3::new(20.0 + k as f64 * 12.0, 500.0 + 0.1 * k as f64, 0.0)));
        }
        let map = maps::arena(100, 10.0);
        let ok = v.check_is_subscription(
            PlayerId(0),
            PlayerId(1),
            &states,
            &map,
            &crate::subscription::NoRecency,
        );
        assert_eq!(ok, 1);
        let bad = v.check_is_subscription(
            PlayerId(0),
            PlayerId(10),
            &states,
            &map,
            &crate::subscription::NoRecency,
        );
        assert!(bad > 1, "far-target IS-sub score {bad}");
    }

    #[test]
    fn rate_check_bounds() {
        let v = verifier();
        assert_eq!(v.check_rate(40, 40), 1);
        assert_eq!(v.check_rate(40, 38), 1); // 5% loss fine
        assert!(v.check_rate(40, 20) >= 9); // half missing
        assert!(v.check_rate(40, 80) >= 9); // fast-rate cheat
        assert_eq!(v.check_rate(0, 0), 1);
        assert!(v.check_rate(0, 50) >= 9); // unsolicited flood
    }
}
