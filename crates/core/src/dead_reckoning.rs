//! Dead reckoning: prediction-based low-rate updates.
//!
//! "Dead reckoning is the process of predicting the state of an avatar
//! based on past observations, thus allowing to reduce the frequency of
//! position updates while keeping the display smooth." Vision-set
//! subscribers receive one guidance message per second containing "the
//! avatar's expected next position and aim (computed locally) and its
//! current position, aim, rate of fire, etc.", and simulate the avatar in
//! between.

use watchmen_game::trace::PlayerFrame;
use watchmen_math::poly::{area_between, dead_reckon_path, Polyline};
use watchmen_math::{Aim, Vec3};

/// The payload of a guidance (dead-reckoning) message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guidance {
    /// Current position at emission time.
    pub position: Vec3,
    /// Current velocity, the basis of the prediction.
    pub velocity: Vec3,
    /// Current aim.
    pub aim: Aim,
    /// The predicted position one guidance period ahead (the "expected
    /// next position" the paper includes for client-side smoothing).
    pub predicted_position: Vec3,
    /// Frame the guidance was generated in.
    pub frame: u64,
}

impl Guidance {
    /// Builds a guidance message from a player's current state.
    #[must_use]
    pub fn from_state(state: &PlayerFrame, frame: u64, horizon_frames: u64, dt: f64) -> Self {
        Guidance {
            position: state.position,
            velocity: state.velocity,
            aim: state.aim,
            predicted_position: state.position + state.velocity * (horizon_frames as f64 * dt),
            frame,
        }
    }

    /// The full predicted trajectory over `frames` frames, used by
    /// verifiers to compare against what the avatar actually did.
    #[must_use]
    pub fn predicted_path(&self, frames: u64, dt: f64) -> Polyline {
        dead_reckon_path(self.position, self.velocity, frames as usize, dt)
    }
}

/// The deviation between a guidance message and the trajectory the avatar
/// actually followed over the same window: the paper's "area between the
/// simulated and the actual trajectory" metric, accepted while
/// `a ≤ ā + σ_a`.
///
/// `actual` must hold one sample per frame starting at the guidance frame.
///
/// # Examples
///
/// ```
/// use watchmen_core::dead_reckoning::{guidance_deviation, Guidance};
/// use watchmen_math::poly::Polyline;
/// use watchmen_math::{Aim, Vec3};
///
/// let g = Guidance {
///     position: Vec3::ZERO,
///     velocity: Vec3::new(10.0, 0.0, 0.0),
///     aim: Aim::default(),
///     predicted_position: Vec3::new(10.0, 0.0, 0.0),
///     frame: 0,
/// };
/// // The avatar actually followed the prediction exactly.
/// let actual: Polyline = (0..=20)
///     .map(|k| Vec3::new(k as f64 * 0.5, 0.0, 0.0))
///     .collect();
/// assert!(guidance_deviation(&g, &actual, 0.05) < 1e-9);
/// ```
#[must_use]
pub fn guidance_deviation(guidance: &Guidance, actual: &Polyline, dt: f64) -> f64 {
    if actual.is_empty() {
        return 0.0;
    }
    let frames = actual.len().saturating_sub(1) as u64;
    let predicted = guidance.predicted_path(frames, dt);
    area_between(&predicted, actual, (frames as usize + 1).max(8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_game::WeaponKind;

    fn moving_state(pos: Vec3, vel: Vec3) -> PlayerFrame {
        PlayerFrame {
            position: pos,
            velocity: vel,
            aim: Aim::default(),
            health: 100,
            armor: 0,
            weapon: WeaponKind::MachineGun,
            ammo: 10,
        }
    }

    #[test]
    fn from_state_predicts_linear_motion() {
        let s = moving_state(Vec3::ZERO, Vec3::new(20.0, 0.0, 0.0));
        let g = Guidance::from_state(&s, 100, 20, 0.05);
        assert_eq!(g.frame, 100);
        // 20 frames * 0.05 s * 20 u/s = 20 units ahead.
        assert!(g.predicted_position.approx_eq(Vec3::new(20.0, 0.0, 0.0), 1e-9));
    }

    #[test]
    fn deviation_zero_for_honest_linear_motion() {
        let s = moving_state(Vec3::ZERO, Vec3::new(10.0, 5.0, 0.0));
        let g = Guidance::from_state(&s, 0, 20, 0.05);
        let actual: Polyline = (0..=20).map(|k| s.velocity * (k as f64 * 0.05)).collect();
        assert!(guidance_deviation(&g, &actual, 0.05) < 1e-9);
    }

    #[test]
    fn deviation_grows_with_divergence() {
        let s = moving_state(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0));
        let g = Guidance::from_state(&s, 0, 20, 0.05);
        let small_turn: Polyline =
            (0..=20).map(|k| Vec3::new(k as f64 * 0.5, k as f64 * 0.05, 0.0)).collect();
        let big_turn: Polyline =
            (0..=20).map(|k| Vec3::new(k as f64 * 0.5, k as f64 * 0.4, 0.0)).collect();
        let small = guidance_deviation(&g, &small_turn, 0.05);
        let big = guidance_deviation(&g, &big_turn, 0.05);
        assert!(small > 0.0);
        assert!(big > small * 2.0);
    }

    #[test]
    fn teleport_has_large_deviation() {
        let s = moving_state(Vec3::ZERO, Vec3::ZERO);
        let g = Guidance::from_state(&s, 0, 20, 0.05);
        // Avatar claims to be 100 units away mid-window.
        let teleport: Polyline =
            vec![Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0), Vec3::new(100.0, 0.0, 0.0)]
                .into_iter()
                .collect();
        assert!(guidance_deviation(&g, &teleport, 0.05) > 50.0);
    }

    #[test]
    fn empty_actual_is_zero() {
        let s = moving_state(Vec3::ZERO, Vec3::X);
        let g = Guidance::from_state(&s, 0, 20, 0.05);
        assert_eq!(guidance_deviation(&g, &Polyline::new(), 0.05), 0.0);
    }

    #[test]
    fn predicted_path_shape() {
        let s = moving_state(Vec3::ZERO, Vec3::new(40.0, 0.0, 0.0));
        let g = Guidance::from_state(&s, 0, 20, 0.05);
        let path = g.predicted_path(20, 0.05);
        assert_eq!(path.len(), 21);
        assert!(path.points()[20].approx_eq(Vec3::new(40.0, 0.0, 0.0), 1e-9));
    }
}
