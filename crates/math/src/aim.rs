//! Yaw/pitch orientation with wrap-around arithmetic.

use std::f64::consts::{PI, TAU};
use std::fmt;

use crate::Vec3;

/// An aim direction expressed as yaw and pitch, both in radians.
///
/// * **Yaw** rotates around the vertical (`z`) axis: `0` looks along `+x`,
///   `π/2` along `+y`. Stored normalized into `(-π, π]`.
/// * **Pitch** tilts up/down: positive looks up. Clamped into `[-π/2, π/2]`.
///
/// # Examples
///
/// ```
/// use watchmen_math::{Aim, Vec3};
///
/// let aim = Aim::new(0.0, 0.0);
/// assert!(aim.direction().approx_eq(Vec3::X, 1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aim {
    yaw: f64,
    pitch: f64,
}

impl Aim {
    /// Creates an aim from raw yaw/pitch radians, normalizing yaw and
    /// clamping pitch.
    #[must_use]
    pub fn new(yaw: f64, pitch: f64) -> Self {
        Aim { yaw: wrap_angle(yaw), pitch: crate::clamp(pitch, -PI / 2.0, PI / 2.0) }
    }

    /// The aim whose direction best matches `dir`.
    ///
    /// Returns the default aim (yaw 0, pitch 0) for a (near-)zero vector.
    #[must_use]
    pub fn from_direction(dir: Vec3) -> Self {
        match dir.normalized() {
            Some(d) => Aim::new(d.y.atan2(d.x), d.z.asin()),
            None => Aim::default(),
        }
    }

    /// Yaw in radians, normalized into `(-π, π]`.
    #[must_use]
    pub fn yaw(self) -> f64 {
        self.yaw
    }

    /// Pitch in radians, in `[-π/2, π/2]`.
    #[must_use]
    pub fn pitch(self) -> f64 {
        self.pitch
    }

    /// The unit direction vector this aim looks along.
    #[must_use]
    pub fn direction(self) -> Vec3 {
        let (sy, cy) = self.yaw.sin_cos();
        let (sp, cp) = self.pitch.sin_cos();
        Vec3::new(cy * cp, sy * cp, sp)
    }

    /// Returns a new aim rotated by the given yaw/pitch deltas.
    #[must_use]
    pub fn rotated(self, d_yaw: f64, d_pitch: f64) -> Self {
        Aim::new(self.yaw + d_yaw, self.pitch + d_pitch)
    }

    /// Maximum per-axis angular change between the two aims; used by
    /// verification to bound angular speed.
    #[must_use]
    pub fn max_component_delta(self, other: Aim) -> f64 {
        let dy = wrap_angle(self.yaw - other.yaw).abs();
        let dp = (self.pitch - other.pitch).abs();
        dy.max(dp)
    }
}

impl fmt::Display for Aim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "yaw {:.1}° pitch {:.1}°", self.yaw.to_degrees(), self.pitch.to_degrees())
    }
}

/// Normalizes an angle into `(-π, π]`.
///
/// # Examples
///
/// ```
/// use std::f64::consts::PI;
/// let a = watchmen_math::wrap_angle(3.0 * PI);
/// assert!((a - PI).abs() < 1e-12);
/// ```
#[must_use]
pub fn wrap_angle(a: f64) -> f64 {
    let mut a = a % TAU;
    if a <= -PI {
        a += TAU;
    } else if a > PI {
        a -= TAU;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_angle_range() {
        for k in -5..=5 {
            let a = wrap_angle(0.3 + k as f64 * TAU);
            assert!((a - 0.3).abs() < 1e-9, "k={k} a={a}");
        }
        assert!((wrap_angle(PI) - PI).abs() < 1e-12);
        assert!((wrap_angle(-PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn direction_cardinals() {
        assert!(Aim::new(0.0, 0.0).direction().approx_eq(Vec3::X, 1e-12));
        assert!(Aim::new(PI / 2.0, 0.0).direction().approx_eq(Vec3::Y, 1e-12));
        assert!(Aim::new(0.0, PI / 2.0).direction().approx_eq(Vec3::Z, 1e-12));
    }

    #[test]
    fn direction_roundtrip() {
        for &(yaw, pitch) in &[(0.5, 0.2), (-2.0, -0.7), (3.0, 1.2), (-3.1, 0.0)] {
            let aim = Aim::new(yaw, pitch);
            let back = Aim::from_direction(aim.direction());
            assert!(back.direction().angle_between(aim.direction()) < 1e-9, "{aim} vs {back}");
        }
    }

    #[test]
    fn pitch_is_clamped() {
        let aim = Aim::new(0.0, 10.0);
        assert_eq!(aim.pitch(), PI / 2.0);
        let aim = Aim::new(0.0, -10.0);
        assert_eq!(aim.pitch(), -PI / 2.0);
    }

    #[test]
    fn from_zero_direction_is_default() {
        assert_eq!(Aim::from_direction(Vec3::ZERO), Aim::default());
    }

    #[test]
    fn rotation_accumulates_with_wrap() {
        let mut aim = Aim::new(PI - 0.1, 0.0);
        aim = aim.rotated(0.2, 0.0);
        assert!((aim.yaw() - (-PI + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn max_component_delta_handles_wrap() {
        let a = Aim::new(PI - 0.05, 0.0);
        let b = Aim::new(-PI + 0.05, 0.0);
        assert!(a.max_component_delta(b) < 0.11);
    }
}
