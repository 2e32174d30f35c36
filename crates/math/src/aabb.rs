//! Axis-aligned bounding boxes.

use std::fmt;

use crate::Vec3;

/// An axis-aligned box, used for map geometry (walls, platforms) and
/// world bounds.
///
/// # Examples
///
/// ```
/// use watchmen_math::{Aabb, Vec3};
///
/// let b = Aabb::new(Vec3::ZERO, Vec3::splat(10.0));
/// assert!(b.contains(Vec3::splat(5.0)));
/// assert!(!b.contains(Vec3::splat(11.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    min: Vec3,
    max: Vec3,
}

impl Aabb {
    /// Creates a box from two opposite corners (in any order).
    #[must_use]
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb { min: a.min(b), max: a.max(b) }
    }

    /// The corner with the smallest coordinates.
    #[must_use]
    pub fn min(&self) -> Vec3 {
        self.min
    }

    /// The corner with the largest coordinates.
    #[must_use]
    pub fn max(&self) -> Vec3 {
        self.max
    }

    /// The box center.
    #[must_use]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// The box dimensions.
    #[must_use]
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Returns `true` if `p` is inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Returns `true` if the two boxes overlap (touching counts).
    #[must_use]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(10.0))
    }

    #[test]
    fn corners_normalized() {
        let b = Aabb::new(Vec3::splat(10.0), Vec3::ZERO);
        assert_eq!(b.min(), Vec3::ZERO);
        assert_eq!(b.max(), Vec3::splat(10.0));
        assert_eq!(b.center(), Vec3::splat(5.0));
        assert_eq!(b.size(), Vec3::splat(10.0));
    }

    #[test]
    fn containment() {
        let b = unit_box();
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::splat(10.0)));
        assert!(!b.contains(Vec3::new(5.0, 5.0, -0.1)));
    }

    #[test]
    fn intersection() {
        let a = unit_box();
        let b = Aabb::new(Vec3::splat(5.0), Vec3::splat(15.0));
        let c = Aabb::new(Vec3::splat(11.0), Vec3::splat(12.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }
}
