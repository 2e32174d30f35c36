//! Polyline trajectories and the *area between trajectories* metric.
//!
//! Dead-reckoning verification in the paper rates a guidance message by
//! comparing the trajectory it predicted against the trajectory the avatar
//! actually followed: "We use the area between the simulated and the actual
//! trajectory of the avatar as a metric of the deviation", and an update is
//! acceptable when `a ≤ ā + σ_a` over honest players.

use crate::Vec3;

/// A polyline trajectory: an ordered list of sampled positions.
///
/// # Examples
///
/// ```
/// use watchmen_math::poly::Polyline;
/// use watchmen_math::Vec3;
///
/// let line = Polyline::from_points(vec![Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)]);
/// assert_eq!(line.length(), 10.0);
/// assert_eq!(line.sample(0.5), Vec3::new(5.0, 0.0, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polyline {
    points: Vec<Vec3>,
}

impl Polyline {
    /// Creates an empty polyline.
    #[must_use]
    pub fn new() -> Self {
        Polyline::default()
    }

    /// Creates a polyline from a list of points.
    #[must_use]
    pub fn from_points(points: Vec<Vec3>) -> Self {
        Polyline { points }
    }

    /// Appends a point.
    pub fn push(&mut self, p: Vec3) {
        self.points.push(p);
    }

    /// The sampled points.
    #[must_use]
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Number of sampled points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the polyline has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total arc length.
    #[must_use]
    pub fn length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Samples the position at normalized arc-length parameter `u ∈ [0, 1]`.
    ///
    /// An empty polyline returns the origin; a single point returns that
    /// point. Parameters outside `[0, 1]` are clamped.
    #[must_use]
    pub fn sample(&self, u: f64) -> Vec3 {
        match self.points.len() {
            0 => Vec3::ZERO,
            1 => self.points[0],
            _ => {
                let total = self.length();
                if total <= crate::EPSILON {
                    return self.points[0];
                }
                let mut target = crate::clamp(u, 0.0, 1.0) * total;
                for w in self.points.windows(2) {
                    let seg_len = w[0].distance(w[1]);
                    if target <= seg_len {
                        let t = if seg_len > crate::EPSILON { target / seg_len } else { 0.0 };
                        return w[0].lerp(w[1], t);
                    }
                    target -= seg_len;
                }
                *self.points.last().expect("non-empty")
            }
        }
    }

    /// Samples the position at a *time* parameter `u ∈ [0, 1]`, interpreting
    /// the points as equally spaced in time rather than arc length.
    ///
    /// This matches how game trajectories are recorded (one sample per
    /// frame): frame `k` of `n` lives at `u = k / (n - 1)`.
    #[must_use]
    pub fn sample_by_time(&self, u: f64) -> Vec3 {
        match self.points.len() {
            0 => Vec3::ZERO,
            1 => self.points[0],
            n => {
                let t = crate::clamp(u, 0.0, 1.0) * (n - 1) as f64;
                let i = (t.floor() as usize).min(n - 2);
                let frac = t - i as f64;
                self.points[i].lerp(self.points[i + 1], frac)
            }
        }
    }
}

impl FromIterator<Vec3> for Polyline {
    fn from_iter<I: IntoIterator<Item = Vec3>>(iter: I) -> Self {
        Polyline { points: iter.into_iter().collect() }
    }
}

impl Extend<Vec3> for Polyline {
    fn extend<I: IntoIterator<Item = Vec3>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

/// The area between two trajectories, the paper's dead-reckoning deviation
/// metric.
///
/// Both trajectories are interpreted as time-parameterized (one sample per
/// frame) and the separation distance is trapezoid-integrated over `samples`
/// uniform time steps, scaled by the mean trajectory length. For two
/// straight, parallel trajectories of length `L` at distance `d` this is
/// exactly the geometric strip area `L·d`; for diverging trajectories it
/// grows with both divergence and duration, which is what the
/// `a ≤ ā + σ_a` acceptance test needs.
///
/// Degenerate cases: two empty/singleton trajectories give the (average
/// separation × 0 length) = 0 if they coincide, otherwise the mean
/// separation itself is returned so that discrepancies never vanish merely
/// because the avatar stood still.
///
/// # Examples
///
/// ```
/// use watchmen_math::poly::{area_between, Polyline};
/// use watchmen_math::Vec3;
///
/// let actual = Polyline::from_points(vec![Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)]);
/// let predicted = Polyline::from_points(vec![
///     Vec3::new(0.0, 2.0, 0.0),
///     Vec3::new(10.0, 2.0, 0.0),
/// ]);
/// let a = area_between(&actual, &predicted, 32);
/// assert!((a - 20.0).abs() < 1e-6); // 10 long × 2 apart
/// ```
#[must_use]
pub fn area_between(a: &Polyline, b: &Polyline, samples: usize) -> f64 {
    let samples = samples.max(2);
    let mut mean_sep = 0.0;
    for k in 0..samples {
        let u = k as f64 / (samples - 1) as f64;
        let d = a.sample_by_time(u).distance(b.sample_by_time(u));
        // Trapezoid weights: half at the ends.
        let w = if k == 0 || k == samples - 1 { 0.5 } else { 1.0 };
        mean_sep += d * w;
    }
    mean_sep /= (samples - 1) as f64;
    let len = f64::midpoint(a.length(), b.length());
    if len <= crate::EPSILON {
        mean_sep
    } else {
        mean_sep * len
    }
}

/// Builds the straight-line trajectory predicted by dead reckoning: start at
/// `pos`, move with constant `velocity` for `frames` steps of `dt` seconds.
///
/// # Examples
///
/// ```
/// use watchmen_math::poly::dead_reckon_path;
/// use watchmen_math::Vec3;
///
/// let path = dead_reckon_path(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 4, 0.05);
/// assert_eq!(path.len(), 5);
/// assert_eq!(*path.points().last().unwrap(), Vec3::new(0.2, 0.0, 0.0));
/// ```
#[must_use]
pub fn dead_reckon_path(pos: Vec3, velocity: Vec3, frames: usize, dt: f64) -> Polyline {
    (0..=frames).map(|k| pos + velocity * (k as f64 * dt)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight(y: f64) -> Polyline {
        Polyline::from_points(vec![
            Vec3::new(0.0, y, 0.0),
            Vec3::new(5.0, y, 0.0),
            Vec3::new(10.0, y, 0.0),
        ])
    }

    #[test]
    fn length_sums_segments() {
        assert_eq!(straight(0.0).length(), 10.0);
        assert_eq!(Polyline::new().length(), 0.0);
    }

    #[test]
    fn sample_arc_length() {
        let line = straight(0.0);
        assert_eq!(line.sample(0.0), Vec3::ZERO);
        assert_eq!(line.sample(1.0), Vec3::new(10.0, 0.0, 0.0));
        assert_eq!(line.sample(0.25), Vec3::new(2.5, 0.0, 0.0));
        // Clamped outside [0,1].
        assert_eq!(line.sample(2.0), Vec3::new(10.0, 0.0, 0.0));
        assert_eq!(line.sample(-1.0), Vec3::ZERO);
    }

    #[test]
    fn sample_degenerate() {
        assert_eq!(Polyline::new().sample(0.5), Vec3::ZERO);
        let single = Polyline::from_points(vec![Vec3::X]);
        assert_eq!(single.sample(0.5), Vec3::X);
        assert_eq!(single.sample_by_time(0.9), Vec3::X);
        let stationary = Polyline::from_points(vec![Vec3::X, Vec3::X]);
        assert_eq!(stationary.sample(0.7), Vec3::X);
    }

    #[test]
    fn sample_by_time_uses_indices() {
        // Uneven segment lengths: time sampling is index-based.
        let line = Polyline::from_points(vec![
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(100.0, 0.0, 0.0),
        ]);
        assert_eq!(line.sample_by_time(0.5), Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn area_between_parallel_strips() {
        let a = area_between(&straight(0.0), &straight(3.0), 64);
        assert!((a - 30.0).abs() < 1e-6, "{a}");
    }

    #[test]
    fn area_between_identical_is_zero() {
        assert_eq!(area_between(&straight(1.0), &straight(1.0), 16), 0.0);
    }

    #[test]
    fn area_between_symmetric() {
        let p = straight(0.0);
        let q = Polyline::from_points(vec![Vec3::ZERO, Vec3::new(8.0, 4.0, 0.0)]);
        let ab = area_between(&p, &q, 32);
        let ba = area_between(&q, &p, 32);
        assert!((ab - ba).abs() < 1e-9);
        assert!(ab > 0.0);
    }

    #[test]
    fn area_between_stationary_still_reports_separation() {
        let a = Polyline::from_points(vec![Vec3::ZERO, Vec3::ZERO]);
        let b = Polyline::from_points(vec![Vec3::new(7.0, 0.0, 0.0), Vec3::new(7.0, 0.0, 0.0)]);
        assert!((area_between(&a, &b, 8) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn dead_reckon_path_constant_velocity() {
        let p = dead_reckon_path(Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), 10, 0.05);
        assert_eq!(p.len(), 11);
        assert!(p.points()[5].approx_eq(Vec3::new(0.5, 0.0, 0.0), 1e-12));
    }

    #[test]
    fn collect_and_extend() {
        let mut line: Polyline = [Vec3::ZERO, Vec3::X].into_iter().collect();
        line.extend([Vec3::Y]);
        assert_eq!(line.len(), 3);
        assert!(!line.is_empty());
    }
}
