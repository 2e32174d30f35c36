//! Line segments and rays with closest-point queries.

use std::fmt;

use crate::{Vec3, EPSILON};

/// A line segment between two points.
///
/// Used for projectile paths (hit/kill verification measures "the distance
/// between the position of the rocket and that of the target") and for
/// occlusion rays.
///
/// # Examples
///
/// ```
/// use watchmen_math::{Segment, Vec3};
///
/// let s = Segment::new(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0));
/// assert_eq!(s.distance_to_point(Vec3::new(5.0, 3.0, 0.0)), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub start: Vec3,
    /// End point.
    pub end: Vec3,
}

impl Segment {
    /// Creates a segment from start to end.
    #[must_use]
    pub const fn new(start: Vec3, end: Vec3) -> Self {
        Segment { start, end }
    }

    /// The segment's length.
    #[must_use]
    pub fn length(&self) -> f64 {
        self.start.distance(self.end)
    }

    /// The direction from start to end, or `None` for a degenerate segment.
    #[must_use]
    pub fn direction(&self) -> Option<Vec3> {
        (self.end - self.start).normalized()
    }

    /// The point at parameter `t ∈ [0, 1]` along the segment.
    #[must_use]
    pub fn point_at(&self, t: f64) -> Vec3 {
        self.start.lerp(self.end, t)
    }

    /// The parameter `t ∈ [0, 1]` of the point on the segment closest to `p`.
    #[must_use]
    pub fn closest_parameter(&self, p: Vec3) -> f64 {
        let d = self.end - self.start;
        let len2 = d.length_squared();
        if len2 <= EPSILON * EPSILON {
            return 0.0;
        }
        crate::clamp((p - self.start).dot(d) / len2, 0.0, 1.0)
    }

    /// The point on the segment closest to `p`.
    #[must_use]
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        self.point_at(self.closest_parameter(p))
    }

    /// The distance from `p` to the segment.
    #[must_use]
    pub fn distance_to_point(&self, p: Vec3) -> f64 {
        self.closest_point(p).distance(p)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.start, self.end)
    }
}

/// A half-infinite ray from an origin along a direction.
///
/// # Examples
///
/// ```
/// use watchmen_math::{Ray, Vec3};
///
/// let r = Ray::new(Vec3::ZERO, Vec3::X);
/// assert_eq!(r.point_at(3.0), Vec3::new(3.0, 0.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin.
    pub origin: Vec3,
    /// Normalized ray direction.
    pub dir: Vec3,
}

impl Ray {
    /// Creates a ray; the direction is normalized (zero falls back to `+x`).
    #[must_use]
    pub fn new(origin: Vec3, dir: Vec3) -> Self {
        Ray { origin, dir: dir.normalized_or(Vec3::X) }
    }

    /// The point at distance `t ≥ 0` along the ray.
    #[must_use]
    pub fn point_at(&self, t: f64) -> Vec3 {
        self.origin + self.dir * t
    }

    /// Distance along the ray of the closest approach to `p` (clamped ≥ 0).
    #[must_use]
    pub fn closest_parameter(&self, p: Vec3) -> f64 {
        (p - self.origin).dot(self.dir).max(0.0)
    }

    /// Distance from `p` to the ray.
    #[must_use]
    pub fn distance_to_point(&self, p: Vec3) -> f64 {
        self.point_at(self.closest_parameter(p)).distance(p)
    }
}

impl fmt::Display for Ray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} toward {}", self.origin, self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_closest_point_interior() {
        let s = Segment::new(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0));
        assert_eq!(s.closest_point(Vec3::new(4.0, 2.0, 0.0)), Vec3::new(4.0, 0.0, 0.0));
        assert_eq!(s.closest_parameter(Vec3::new(4.0, 2.0, 0.0)), 0.4);
    }

    #[test]
    fn segment_closest_point_clamps_to_endpoints() {
        let s = Segment::new(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0));
        assert_eq!(s.closest_point(Vec3::new(-5.0, 1.0, 0.0)), Vec3::ZERO);
        assert_eq!(s.closest_point(Vec3::new(15.0, 1.0, 0.0)), Vec3::new(10.0, 0.0, 0.0));
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Vec3::X, Vec3::X);
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.direction(), None);
        assert_eq!(s.closest_point(Vec3::ZERO), Vec3::X);
        assert_eq!(s.distance_to_point(Vec3::ZERO), 1.0);
    }

    #[test]
    fn ray_distance() {
        let r = Ray::new(Vec3::ZERO, Vec3::X);
        assert_eq!(r.distance_to_point(Vec3::new(5.0, 3.0, 0.0)), 3.0);
        // Behind the origin: closest point is the origin itself.
        assert_eq!(r.distance_to_point(Vec3::new(-4.0, 3.0, 0.0)), 5.0);
    }

    #[test]
    fn display_nonempty() {
        let s = Segment::new(Vec3::ZERO, Vec3::X);
        let r = Ray::new(Vec3::ZERO, Vec3::X);
        assert!(!format!("{s}").is_empty());
        assert!(!format!("{r}").is_empty());
    }
}
