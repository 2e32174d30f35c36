//! Eclipse defence: verifying and de-biasing the proxy schedule
//! (DESIGN.md §13).
//!
//! The proxy schedule is a pure function of `(seed, player, epoch)`, so
//! an eclipse clique cannot simply *claim* proxyship over a victim — any
//! honest node recomputes the assignment and a claim outside the
//! plausible fallback set is a proven forgery
//! ([`ScheduleBiasDetector::verify_claim`], instant score 10).
//!
//! The subtler campaign forces the *fallback* path: colluders suppress
//! or crash-frame the scheduled proxies until the deterministic
//! [`crate::proxy::ProxySchedule::nth_proxy_of`] succession lands on a
//! clique member. Each individual fallback looks like an ordinary crash;
//! the tell is concentration — honest crash rates produce rare,
//! uniformly-drawn fallbacks, while an eclipse shows a run of fallback
//! epochs whose beneficiaries cluster. [`ScheduleBiasDetector`] keeps a
//! sliding window of a victim's effective-vs-scheduled proxies and flags
//! every fallback beneficiary once the window's fallback count exceeds
//! the honest-churn tolerance, with the
//! [`crate::verify::checks::SCHEDULE`] check.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use watchmen_game::PlayerId;

use crate::proxy::ProxySchedule;

/// A schedule-bias finding against one suspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiasVerdict {
    /// The player being eclipsed.
    pub victim: u32,
    /// The fallback beneficiary being flagged.
    pub suspect: u32,
    /// The epoch whose observation crossed the tolerance.
    pub epoch: u64,
    /// 1–10 rating (≥ 6 by construction — the tolerance absorbs honest
    /// churn below the severe line).
    pub score: u8,
    /// Fallback overrides observed inside the window.
    pub fallbacks: u32,
}

/// One epoch of proxy-assignment history for a victim.
#[derive(Debug, Clone, Copy)]
struct EpochObservation {
    effective: u32,
    fallback: bool,
}

/// Detects forced-fallback concentration in a victim's proxy history.
///
/// # Examples
///
/// ```
/// use watchmen_core::proxy::ProxySchedule;
/// use watchmen_core::schedule_guard::ScheduleBiasDetector;
/// use watchmen_game::PlayerId;
///
/// let schedule = ProxySchedule::new(7, 8, 40);
/// // A claim the schedule cannot produce is a proven forgery.
/// let victim = PlayerId(0);
/// let plausible = schedule.proxy_of(victim, 0);
/// let forged = (0..8).map(PlayerId).find(|p| {
///     *p != victim && (0..3).all(|n| schedule.nth_proxy_of(victim, 0, n) != *p)
/// }).unwrap();
/// assert_eq!(ScheduleBiasDetector::verify_claim(&schedule, victim, 0, forged, 2), Some(10));
/// assert_eq!(ScheduleBiasDetector::verify_claim(&schedule, victim, 0, plausible, 2), None);
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleBiasDetector {
    window: usize,
    max_fallbacks: u32,
    history: BTreeMap<u32, VecDeque<EpochObservation>>,
    flagged: BTreeSet<(u32, u32)>,
}

impl Default for ScheduleBiasDetector {
    fn default() -> Self {
        ScheduleBiasDetector::new(
            ScheduleBiasDetector::DEFAULT_WINDOW_EPOCHS,
            ScheduleBiasDetector::DEFAULT_MAX_FALLBACKS,
        )
    }
}

impl ScheduleBiasDetector {
    /// Epochs of history the bias statistic considers.
    pub const DEFAULT_WINDOW_EPOCHS: usize = 8;

    /// Fallback overrides tolerated inside the window before the
    /// beneficiaries are flagged (honest crashes are rare *and* their
    /// fallback draws are uniform, so even two in a short window is
    /// already unusual; three is the default alarm line).
    pub const DEFAULT_MAX_FALLBACKS: u32 = 2;

    /// Creates a detector with explicit tolerances.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or not larger than `max_fallbacks`.
    #[must_use]
    pub fn new(window: usize, max_fallbacks: u32) -> Self {
        assert!(window > 0, "need a non-empty window");
        assert!(window as u32 > max_fallbacks, "tolerance must be satisfiable inside the window");
        ScheduleBiasDetector {
            window,
            max_fallbacks,
            history: BTreeMap::new(),
            flagged: BTreeSet::new(),
        }
    }

    /// Checks a claimed proxy assignment against the shared schedule:
    /// `None` when the claim is the scheduled proxy or within
    /// `fallback_depth` deterministic succession draws, `Some(10)` when
    /// the schedule cannot produce it (proven forgery).
    #[must_use]
    pub fn verify_claim(
        schedule: &ProxySchedule,
        victim: PlayerId,
        frame: u64,
        claimed: PlayerId,
        fallback_depth: u32,
    ) -> Option<u8> {
        let plausible = (0..=fallback_depth as usize)
            .any(|n| schedule.nth_proxy_of(victim, frame, n) == claimed);
        if plausible {
            None
        } else {
            Some(10)
        }
    }

    /// Feeds one epoch's outcome for `victim`: who the schedule assigned
    /// and who actually served. Returns bias verdicts against every
    /// not-yet-flagged fallback beneficiary in the window once the
    /// window's fallback count exceeds the tolerance.
    pub fn observe_epoch(
        &mut self,
        epoch: u64,
        victim: PlayerId,
        scheduled: PlayerId,
        effective: PlayerId,
    ) -> Vec<BiasVerdict> {
        let history = self.history.entry(victim.0).or_default();
        history.push_back(EpochObservation {
            effective: effective.0,
            fallback: effective != scheduled,
        });
        while history.len() > self.window {
            history.pop_front();
        }

        let fallbacks = history.iter().filter(|o| o.fallback).count() as u32;
        if fallbacks <= self.max_fallbacks {
            return Vec::new();
        }
        let score = (5 + fallbacks - self.max_fallbacks).min(10) as u8;
        let beneficiaries: BTreeSet<u32> =
            history.iter().filter(|o| o.fallback).map(|o| o.effective).collect();
        beneficiaries
            .into_iter()
            .filter(|&suspect| self.flagged.insert((victim.0, suspect)))
            .map(|suspect| BiasVerdict { victim: victim.0, suspect, epoch, score, fallbacks })
            .collect()
    }

    /// Fallback overrides currently inside the victim's window.
    #[must_use]
    pub fn window_fallbacks(&self, victim: PlayerId) -> u32 {
        self.history.get(&victim.0).map_or(0, |h| h.iter().filter(|o| o.fallback).count() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rating::SEVERE_SCORE;

    fn p(i: u32) -> PlayerId {
        PlayerId(i)
    }

    #[test]
    fn honest_schedule_never_flags() {
        let mut d = ScheduleBiasDetector::default();
        for epoch in 0..50 {
            let scheduled = p(1 + (epoch as u32 % 5));
            assert!(d.observe_epoch(epoch, p(0), scheduled, scheduled).is_empty());
        }
        assert_eq!(d.window_fallbacks(p(0)), 0);
    }

    #[test]
    fn sparse_honest_crashes_stay_under_tolerance() {
        let mut d = ScheduleBiasDetector::default();
        // One genuine crash-fallback every 8 epochs: never more than the
        // tolerated count inside a window.
        for epoch in 0..64 {
            let scheduled = p(1 + (epoch as u32 % 5));
            let effective = if epoch % 8 == 3 { p(6) } else { scheduled };
            assert!(d.observe_epoch(epoch, p(0), scheduled, effective).is_empty(), "epoch {epoch}");
        }
    }

    #[test]
    fn concentrated_fallbacks_flag_every_beneficiary_once() {
        let mut d = ScheduleBiasDetector::default();
        let clique = [6u32, 7];
        let mut verdicts = Vec::new();
        for epoch in 0..8 {
            let scheduled = p(1 + (epoch as u32 % 4));
            // The clique forces the fallback draw onto itself every epoch,
            // rotating the beneficiary.
            let effective = p(clique[epoch as usize % clique.len()]);
            verdicts.extend(d.observe_epoch(epoch, p(0), scheduled, effective));
        }
        let suspects: BTreeSet<u32> = verdicts.iter().map(|v| v.suspect).collect();
        assert_eq!(suspects, clique.iter().copied().collect());
        for v in &verdicts {
            assert!(v.score >= SEVERE_SCORE, "severe at crossing: {v:?}");
            assert_eq!(v.victim, 0);
            assert!(v.fallbacks > ScheduleBiasDetector::DEFAULT_MAX_FALLBACKS);
        }
        // Already-flagged pairs are not re-emitted.
        let again = d.observe_epoch(8, p(0), p(1), p(6));
        assert!(again.is_empty(), "{again:?}");
    }

    #[test]
    fn old_fallbacks_age_out_of_the_window() {
        let mut d = ScheduleBiasDetector::new(4, 2);
        // Two early fallbacks, then a long honest run, then two more:
        // never four in any one window, so nothing fires.
        let script = [true, true, false, false, false, false, true, true];
        for (epoch, &fb) in script.iter().enumerate() {
            let scheduled = p(1);
            let effective = if fb { p(6) } else { scheduled };
            assert!(d.observe_epoch(epoch as u64, p(0), scheduled, effective).is_empty());
        }
    }

    #[test]
    fn verify_claim_accepts_the_whole_plausible_set() {
        let schedule = ProxySchedule::new(99, 10, 40);
        let victim = p(3);
        for n in 0..=2usize {
            let claimed = schedule.nth_proxy_of(victim, 400, n);
            assert_eq!(
                ScheduleBiasDetector::verify_claim(&schedule, victim, 400, claimed, 2),
                None,
                "depth {n}"
            );
        }
    }

    #[test]
    fn verify_claim_rejects_out_of_set_forgeries() {
        let schedule = ProxySchedule::new(99, 10, 40);
        let victim = p(3);
        let plausible: BTreeSet<PlayerId> =
            (0..=2usize).map(|n| schedule.nth_proxy_of(victim, 400, n)).collect();
        let forged = (0..10)
            .map(p)
            .find(|c| *c != victim && !plausible.contains(c))
            .expect("some id is outside the plausible set");
        assert_eq!(ScheduleBiasDetector::verify_claim(&schedule, victim, 400, forged, 2), Some(10));
    }
}
