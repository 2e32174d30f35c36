//! Cheat ratings and confidence factors (Section V-A).
//!
//! "Each action is rated from 1 to 10 with regards to cheating probability
//! (10 most likely cheating, 1 most likely normal). … These ratings are
//! further modulated by a confidence factor … proxies are assigned high
//! confidence c_P, players that have the concerned avatar in their IS or
//! VS have medium-high c_IS and medium-low confidence c_VS respectively,
//! and other players have a low confidence c_O (c_P > c_IS > c_VS > c_O).
//! In addition, it takes into account the staleness of updates."

use std::fmt;

/// How well-placed the verifying player is to judge the action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Confidence {
    /// The verifier is the subject's proxy: complete information (c_P).
    Proxy,
    /// The verifier has the subject in its interest set (c_IS).
    Interest,
    /// The verifier has the subject in its vision set (c_VS).
    Vision,
    /// The verifier only receives infrequent position updates (c_O).
    Other,
}

impl Confidence {
    /// The confidence weight: `c_P > c_IS > c_VS > c_O`.
    #[must_use]
    pub fn weight(&self) -> f64 {
        match self {
            Confidence::Proxy => 1.0,
            Confidence::Interest => 0.75,
            Confidence::Vision => 0.5,
            Confidence::Other => 0.2,
        }
    }

    /// The paper's label for this vantage point (`c_P`…`c_O`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Confidence::Proxy => "c_P",
            Confidence::Interest => "c_IS",
            Confidence::Vision => "c_VS",
            Confidence::Other => "c_O",
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Frames of staleness beyond which a verifier's confidence halves
/// ("discrepancy of a new update with a very old guidance message is
/// assigned a very low confidence").
const STALENESS_HALF_LIFE_FRAMES: f64 = 40.0;

/// Scores at or above this are *severe*: flagged as suspected cheating,
/// counted by every soak gate, and weighed as evidence by the detectors
/// that corroborate other verifiers' reports.
pub const SEVERE_SCORE: u8 = 6;

/// One verification outcome: a 1–10 score with the verifier's confidence
/// and the staleness of the evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheatRating {
    /// 1 = most likely normal … 10 = most likely cheating.
    pub score: u8,
    /// The verifier's vantage point.
    pub confidence: Confidence,
    /// Age in frames of the oldest evidence used.
    pub staleness_frames: u64,
}

impl CheatRating {
    /// Creates a rating, clamping the score into `1..=10`.
    #[must_use]
    pub fn new(score: u8, confidence: Confidence, staleness_frames: u64) -> Self {
        CheatRating { score: score.clamp(1, 10), confidence, staleness_frames }
    }

    /// A clean rating (score 1) from the given vantage point.
    #[must_use]
    pub fn clean(confidence: Confidence) -> Self {
        CheatRating::new(1, confidence, 0)
    }

    /// Returns `true` if the action is flagged as suspected cheating
    /// (score at or above [`SEVERE_SCORE`]).
    #[must_use]
    pub fn is_suspicious(&self) -> bool {
        self.score >= SEVERE_SCORE
    }

    /// The confidence-and-staleness-modulated suspicion in `[0, 1]`:
    /// `(score−1)/9 · c · 2^(−staleness/half-life)`.
    #[must_use]
    pub fn suspicion(&self) -> f64 {
        let base = f64::from(self.score - 1) / 9.0;
        let staleness_factor =
            0.5f64.powf(self.staleness_frames as f64 / STALENESS_HALF_LIFE_FRAMES);
        base * self.confidence.weight() * staleness_factor
    }
}

impl fmt::Display for CheatRating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rating {}/10 ({}, {} frames stale)",
            self.score, self.confidence, self.staleness_frames
        )
    }
}

/// Converts a deviation measurement into a 1–10 score given the acceptance
/// tolerance: within tolerance → 1 ("if yes, the cheating rating is set to
/// one"); the score then rises linearly with the relative excess, reaching
/// 10 at four times the tolerance.
///
/// # Examples
///
/// ```
/// use watchmen_core::rating::rate_deviation;
///
/// assert_eq!(rate_deviation(0.5, 1.0), 1);
/// assert_eq!(rate_deviation(4.0, 1.0), 10);
/// assert!(rate_deviation(2.0, 1.0) > 1);
/// ```
///
/// # Panics
///
/// Panics in debug builds if `tolerance` is not positive or `deviation` is
/// negative.
#[must_use]
pub fn rate_deviation(deviation: f64, tolerance: f64) -> u8 {
    debug_assert!(tolerance > 0.0, "tolerance must be positive");
    debug_assert!(deviation >= 0.0, "deviation must be non-negative");
    let ratio = deviation / tolerance;
    if ratio <= 1.0 {
        return 1;
    }
    // ratio 1 → score 1, ratio ≥ 4 → score 10, linear in between.
    let score = 1.0 + 9.0 * (ratio - 1.0) / 3.0;
    score.min(10.0).round() as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_ordering_matches_paper() {
        assert!(Confidence::Proxy.weight() > Confidence::Interest.weight());
        assert!(Confidence::Interest.weight() > Confidence::Vision.weight());
        assert!(Confidence::Vision.weight() > Confidence::Other.weight());
    }

    #[test]
    fn rating_clamps_score() {
        assert_eq!(CheatRating::new(0, Confidence::Proxy, 0).score, 1);
        assert_eq!(CheatRating::new(200, Confidence::Proxy, 0).score, 10);
        assert_eq!(CheatRating::clean(Confidence::Vision).score, 1);
    }

    #[test]
    fn suspicion_scales_with_score_and_confidence() {
        let high = CheatRating::new(10, Confidence::Proxy, 0);
        let mid = CheatRating::new(10, Confidence::Vision, 0);
        let clean = CheatRating::clean(Confidence::Proxy);
        assert_eq!(high.suspicion(), 1.0);
        assert_eq!(mid.suspicion(), 0.5);
        assert_eq!(clean.suspicion(), 0.0);
        assert!(high.is_suspicious());
        assert!(!clean.is_suspicious());
    }

    #[test]
    fn staleness_decays_suspicion() {
        let fresh = CheatRating::new(10, Confidence::Proxy, 0);
        let stale = CheatRating::new(10, Confidence::Proxy, 40);
        let ancient = CheatRating::new(10, Confidence::Proxy, 400);
        assert!(fresh.suspicion() > stale.suspicion());
        assert!((stale.suspicion() - 0.5).abs() < 1e-9);
        assert!(ancient.suspicion() < 0.01);
    }

    #[test]
    fn rate_deviation_anchors() {
        assert_eq!(rate_deviation(0.0, 5.0), 1);
        assert_eq!(rate_deviation(5.0, 5.0), 1);
        assert_eq!(rate_deviation(20.0, 5.0), 10);
        assert_eq!(rate_deviation(100.0, 5.0), 10);
        let mid = rate_deviation(12.5, 5.0); // ratio 2.5 → 1 + 9*1.5/3 = 5.5 → 6
        assert_eq!(mid, 6);
    }

    #[test]
    fn rate_deviation_monotone() {
        let mut prev = 0;
        for k in 0..50 {
            let s = rate_deviation(k as f64, 5.0);
            assert!(s >= prev, "not monotone at {k}");
            prev = s;
        }
    }

    #[test]
    fn display_forms() {
        let r = CheatRating::new(7, Confidence::Interest, 12);
        let s = r.to_string();
        assert!(s.contains("7/10") && s.contains("c_IS"));
    }
}
