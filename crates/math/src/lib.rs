//! Geometric and statistical primitives for the Watchmen reproduction.
//!
//! This crate is the lowest layer of the workspace: it knows nothing about
//! games, networks or cheating. It provides:
//!
//! * [`Vec3`] — a small 3-D vector type used for positions, velocities and
//!   aim directions.
//! * [`Aim`] — yaw/pitch orientation with wrap-around arithmetic.
//! * [`Cone`] — the spherical vision cone used by the Watchmen vision set,
//!   including the *distance-to-cone* deviation metric used by subscription
//!   verification.
//! * [`Segment`] and [`Ray`] — closest-point and intersection queries.
//! * [`Aabb`] — axis-aligned boxes for map geometry.
//! * [`grid`] — 2-D cell indexing and DDA traversal used by occlusion
//!   raycasts.
//! * [`stats`] — histograms and percentiles used by the experiment
//!   harness.
//!
//! # Examples
//!
//! ```
//! use watchmen_math::{Vec3, Cone};
//!
//! let eye = Vec3::new(0.0, 0.0, 0.0);
//! let aim = Vec3::new(1.0, 0.0, 0.0);
//! let cone = Cone::new(eye, aim, 60f64.to_radians(), 100.0);
//! assert!(cone.contains(Vec3::new(50.0, 10.0, 0.0)));
//! assert!(!cone.contains(Vec3::new(-5.0, 0.0, 0.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aabb;
mod aim;
mod cone;
pub mod grid;
mod segment;
pub mod stats;
mod vec3;

pub use aabb::Aabb;
pub use aim::{wrap_angle, Aim};
pub use cone::Cone;
pub use segment::{Ray, Segment};
pub use vec3::Vec3;

/// A small tolerance used by geometric comparisons throughout the workspace.
pub const EPSILON: f64 = 1e-9;

/// Clamps `x` into `[lo, hi]`.
///
/// # Examples
///
/// ```
/// assert_eq!(watchmen_math::clamp(5.0, 0.0, 2.0), 2.0);
/// ```
///
/// # Panics
///
/// Panics in debug builds if `lo > hi`.
#[must_use]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
    x.max(lo).min(hi)
}

/// Linear interpolation between `a` and `b` with parameter `t ∈ [0, 1]`.
///
/// `t` outside the unit interval extrapolates.
///
/// # Examples
///
/// ```
/// assert_eq!(watchmen_math::lerp(0.0, 10.0, 0.25), 2.5);
/// ```
#[must_use]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(-1.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
        assert_eq!(clamp(2.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(3.0, 7.0, 0.0), 3.0);
        assert_eq!(lerp(3.0, 7.0, 1.0), 7.0);
        assert_eq!(lerp(3.0, 7.0, 0.5), 5.0);
    }
}
