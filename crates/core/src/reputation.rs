//! Reputation and punishment (Section V-B).
//!
//! "Because the detection system has false positives … a single detection
//! of cheating does not result in banning of players. Instead, each player
//! tags the interactions he has with other players as successful … or as
//! failed, and this information is fed to a reputation system. … In its
//! simplest form, a reputation system decides to ban a node if the
//! proportion of acceptable interactions of a player drops below a given
//! threshold. … The Watchmen detection algorithm can be plugged into any
//! reputation system."
//!
//! [`ThresholdReputation`] is the paper's "simplest form", and the one
//! ban rule the lobby runs.

use watchmen_game::PlayerId;

use crate::rating::CheatRating;

/// The paper's simplest form: ban when the proportion of acceptable
/// interactions drops below a threshold, after a minimum number of
/// reports.
#[derive(Debug, Clone)]
pub struct ThresholdReputation {
    /// Per-player (acceptable, failed) interaction counts.
    counts: Vec<(u64, u64)>,
    /// Ban when `acceptable / total` falls below this.
    acceptable_threshold: f64,
    /// Reports required before a ban can trigger (false-positive guard).
    min_reports: u64,
}

impl ThresholdReputation {
    /// Creates a system for `players` players.
    ///
    /// `acceptable_threshold` is "set based on the success and false
    /// positive rates of the detection system": with ≤5 % false positives,
    /// a threshold around 0.85 never bans honest players.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `(0, 1)`.
    #[must_use]
    pub fn new(players: usize, acceptable_threshold: f64, min_reports: u64) -> Self {
        assert!(
            acceptable_threshold > 0.0 && acceptable_threshold < 1.0,
            "threshold {acceptable_threshold} out of range"
        );
        ThresholdReputation { counts: vec![(0, 0); players], acceptable_threshold, min_reports }
    }

    /// Total reports about `subject`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn report_count(&self, subject: PlayerId) -> u64 {
        let (ok, fail) = self.counts[subject.index()];
        ok + fail
    }

    /// The raw `(acceptable, failed)` counts for `subject` — the
    /// per-match aggregate a durable cross-match store persists.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn counts(&self, subject: PlayerId) -> (u64, u64) {
        self.counts[subject.index()]
    }

    /// Starts tracking one more player (mid-game admission) — the next
    /// dense id, with a clean slate.
    pub fn admit_player(&mut self) {
        self.counts.push((0, 0));
    }

    /// Records one rated interaction of `subject`'s: failed when the
    /// rating is suspicious, acceptable otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn report(&mut self, subject: PlayerId, rating: &CheatRating) {
        let slot = &mut self.counts[subject.index()];
        if rating.is_suspicious() {
            slot.1 += 1;
        } else {
            slot.0 += 1;
        }
    }

    /// The fraction of `subject`'s reported interactions that failed, in
    /// `[0, 1]` (0 with no reports).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn suspicion(&self, subject: PlayerId) -> f64 {
        let (ok, fail) = self.counts[subject.index()];
        let total = ok + fail;
        if total == 0 {
            0.0
        } else {
            fail as f64 / total as f64
        }
    }

    /// Whether `subject` is banned: at least `min_reports` reports, and
    /// the acceptable fraction below the threshold.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn is_banned(&self, subject: PlayerId) -> bool {
        let (ok, fail) = self.counts[subject.index()];
        let total = ok + fail;
        total >= self.min_reports && (ok as f64 / total as f64) < self.acceptable_threshold
    }

    /// Players currently banned, in id order.
    #[must_use]
    pub fn banned_players(&self) -> Vec<PlayerId> {
        (0..self.counts.len()).map(|i| PlayerId(i as u32)).filter(|&p| self.is_banned(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rating::Confidence;

    fn clean() -> CheatRating {
        CheatRating::clean(Confidence::Proxy)
    }

    fn dirty() -> CheatRating {
        CheatRating::new(10, Confidence::Proxy, 0)
    }

    #[test]
    fn threshold_bans_persistent_cheater() {
        let mut rep = ThresholdReputation::new(4, 0.85, 20);
        let cheater = PlayerId(1);
        for _ in 0..15 {
            rep.report(cheater, &dirty());
            rep.report(cheater, &clean());
        }
        assert!(rep.is_banned(cheater), "suspicion {}", rep.suspicion(cheater));
        assert_eq!(rep.banned_players(), vec![cheater]);
        assert_eq!(rep.report_count(cheater), 30);
    }

    #[test]
    fn threshold_tolerates_false_positives() {
        let mut rep = ThresholdReputation::new(4, 0.85, 20);
        let honest = PlayerId(2);
        // 5% false positive rate.
        for k in 0..200 {
            let rating = if k % 20 == 0 { dirty() } else { clean() };
            rep.report(honest, &rating);
        }
        assert!(!rep.is_banned(honest));
        assert!(rep.suspicion(honest) < 0.10);
    }

    #[test]
    fn threshold_needs_min_reports() {
        let mut rep = ThresholdReputation::new(2, 0.85, 20);
        for _ in 0..5 {
            rep.report(PlayerId(1), &dirty());
        }
        // 100% failed but below min_reports: no ban yet.
        assert!(!rep.is_banned(PlayerId(1)));
        assert_eq!(rep.suspicion(PlayerId(1)), 1.0);
    }

    #[test]
    fn empty_history_is_innocent() {
        let rep = ThresholdReputation::new(3, 0.85, 20);
        assert_eq!(rep.suspicion(PlayerId(0)), 0.0);
        assert!(!rep.is_banned(PlayerId(0)));
        assert!(rep.banned_players().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_threshold_panics() {
        let _ = ThresholdReputation::new(2, 1.5, 10);
    }
}
