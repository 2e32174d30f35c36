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
}
