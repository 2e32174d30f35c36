//! Cross-corroboration of proxy epoch summaries (DESIGN.md §13).
//!
//! A proxy is the best-placed verifier of its client — and therefore the
//! best-placed *launderer*: a colluding proxy can publish clean epoch
//! summaries while its client cheats. Watchmen's defence is structural
//! redundancy: witnesses (IS/VS subscribers) verify the same client
//! independently, and the schedule rotates proxies every epoch, so a
//! laundering proxy's clean summary lands next to severe witness
//! verdicts for the same `(client, epoch)`.
//!
//! [`SummaryCorroborator`] holds that join: witnesses feed their severe
//! verdicts in via [`SummaryCorroborator::observe_witness`], proxies'
//! epoch summaries arrive via [`SummaryCorroborator::observe_summary`],
//! and a proxy that repeatedly reports clean against independent severe
//! witness evidence is flagged with the
//! [`crate::verify::checks::COLLUSION`] check. A single contradiction is
//! forgiven (witnesses can be wrong, coverage can be partial); the score
//! escalates with each contradicting epoch and crosses the severe
//! threshold at [`SummaryCorroborator::DEFAULT_CONTRADICTION_THRESHOLD`].

use std::collections::{BTreeMap, BTreeSet};

/// A summary score at or below this is a "clean" report.
pub const CLEAN_SUMMARY_MAX: u8 = 3;

pub use crate::rating::SEVERE_SCORE;

/// A flagged contradiction between a proxy's summary and witness
/// evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorroborationVerdict {
    /// The proxy whose summary contradicts the witnesses.
    pub proxy: u32,
    /// The client the summary covered.
    pub client: u32,
    /// The epoch of the contradicting summary.
    pub epoch: u64,
    /// 1–10 rating (≥ [`SEVERE_SCORE`] once the threshold is crossed).
    pub score: u8,
    /// Contradicting epochs observed for this proxy so far.
    pub contradictions: u32,
    /// Distinct witnesses behind this epoch's severe evidence.
    pub witnesses: u32,
}

/// Joins proxy epoch summaries against independent witness verdicts.
///
/// # Examples
///
/// ```
/// use watchmen_core::collusion::SummaryCorroborator;
///
/// let mut c = SummaryCorroborator::default();
/// // Two witnesses saw client 7 cheat during epoch 3…
/// c.observe_witness(3, 1, 7, 9);
/// c.observe_witness(3, 2, 7, 8);
/// // …but its proxy 4 reported clean. First contradiction: tracked,
/// // below the severe threshold.
/// assert!(c.observe_summary(3, 4, 7, 1).is_none());
/// assert_eq!(c.contradictions(4), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SummaryCorroborator {
    min_witnesses: usize,
    threshold: u32,
    /// Distinct witnesses with severe verdicts, per `(epoch, subject)`.
    severe: BTreeMap<(u64, u32), BTreeSet<u32>>,
    /// Contradicting epochs per proxy.
    contradictions: BTreeMap<u32, u32>,
}

impl Default for SummaryCorroborator {
    fn default() -> Self {
        SummaryCorroborator::new(
            SummaryCorroborator::DEFAULT_MIN_WITNESSES,
            SummaryCorroborator::DEFAULT_CONTRADICTION_THRESHOLD,
        )
    }
}

impl SummaryCorroborator {
    /// Distinct severe witnesses required before a clean summary counts
    /// as contradicted (one witness can be wrong or malicious itself).
    pub const DEFAULT_MIN_WITNESSES: usize = 2;

    /// Contradicting epochs before the proxy is flagged severely.
    pub const DEFAULT_CONTRADICTION_THRESHOLD: u32 = 2;

    /// Creates a corroborator with explicit thresholds.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is zero.
    #[must_use]
    pub fn new(min_witnesses: usize, threshold: u32) -> Self {
        assert!(min_witnesses > 0, "need at least one corroborating witness");
        assert!(threshold > 0, "need at least one contradiction");
        SummaryCorroborator {
            min_witnesses,
            threshold,
            severe: BTreeMap::new(),
            contradictions: BTreeMap::new(),
        }
    }

    /// Records one witness verdict on `subject` during `epoch`.
    /// Sub-severe scores and self-reports are ignored.
    pub fn observe_witness(&mut self, epoch: u64, witness: u32, subject: u32, score: u8) {
        if score < SEVERE_SCORE || witness == subject {
            return;
        }
        self.severe.entry((epoch, subject)).or_default().insert(witness);
    }

    /// Records a proxy's epoch summary score for its client, returning a
    /// verdict if the summary contradicts accumulated witness evidence
    /// *and* the proxy has crossed the contradiction threshold.
    ///
    /// A clean summary (≤ [`CLEAN_SUMMARY_MAX`]) against
    /// `min_witnesses`+ distinct severe witnesses is one contradiction;
    /// an honest severe summary clears nothing but contradicts nothing.
    pub fn observe_summary(
        &mut self,
        epoch: u64,
        proxy: u32,
        subject: u32,
        score: u8,
    ) -> Option<CorroborationVerdict> {
        if score > CLEAN_SUMMARY_MAX {
            return None;
        }
        let witnesses = self
            .severe
            .get(&(epoch, subject))
            .map_or(0, |w| w.iter().filter(|&&w| w != proxy).count());
        if witnesses < self.min_witnesses {
            return None;
        }
        let count = self.contradictions.entry(proxy).or_insert(0);
        *count += 1;
        let contradictions = *count;
        if contradictions < self.threshold {
            return None;
        }
        // Escalates past the severe line at the threshold: 2 + 2·count
        // is 6 at the default threshold of 2, 8 at 3, capped at 10.
        let score = (2 + 2 * contradictions).min(10) as u8;
        Some(CorroborationVerdict {
            proxy,
            client: subject,
            epoch,
            score,
            contradictions,
            witnesses: witnesses as u32,
        })
    }

    /// Contradicting epochs recorded against `proxy` so far.
    #[must_use]
    pub fn contradictions(&self, proxy: u32) -> u32 {
        self.contradictions.get(&proxy).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_witnesses(c: &mut SummaryCorroborator, epoch: u64, subject: u32, witnesses: &[u32]) {
        for &w in witnesses {
            c.observe_witness(epoch, w, subject, 9);
        }
    }

    #[test]
    fn repeated_clean_summaries_against_evidence_flag_the_proxy() {
        let mut c = SummaryCorroborator::default();
        seed_witnesses(&mut c, 0, 7, &[1, 2]);
        assert!(c.observe_summary(0, 4, 7, 1).is_none(), "first strike is forgiven");
        seed_witnesses(&mut c, 1, 7, &[2, 3]);
        let v = c.observe_summary(1, 4, 7, 2).expect("second contradiction flags");
        assert_eq!(v.proxy, 4);
        assert_eq!(v.client, 7);
        assert_eq!(v.epoch, 1);
        assert_eq!(v.contradictions, 2);
        assert!(v.score >= SEVERE_SCORE, "score {}", v.score);
        // Further laundering escalates.
        seed_witnesses(&mut c, 2, 7, &[1, 3]);
        let v2 = c.observe_summary(2, 4, 7, 1).expect("keeps flagging");
        assert!(v2.score > v.score);
    }

    #[test]
    fn honest_severe_summary_is_not_a_contradiction() {
        let mut c = SummaryCorroborator::default();
        for epoch in 0..5 {
            seed_witnesses(&mut c, epoch, 7, &[1, 2, 3]);
            assert!(c.observe_summary(epoch, 4, 7, 9).is_none());
        }
        assert_eq!(c.contradictions(4), 0);
    }

    #[test]
    fn clean_summary_without_witness_evidence_is_fine() {
        let mut c = SummaryCorroborator::default();
        for epoch in 0..10 {
            assert!(c.observe_summary(epoch, 4, 7, 1).is_none());
        }
        assert_eq!(c.contradictions(4), 0);
    }

    #[test]
    fn single_witness_cannot_frame_a_proxy() {
        let mut c = SummaryCorroborator::default();
        for epoch in 0..6 {
            // One (possibly malicious) witness keeps crying wolf.
            c.observe_witness(epoch, 1, 7, 10);
            assert!(c.observe_summary(epoch, 4, 7, 1).is_none());
        }
        assert_eq!(c.contradictions(4), 0);
    }

    #[test]
    fn proxy_cannot_corroborate_itself_and_subject_cannot_witness() {
        let mut c = SummaryCorroborator::new(2, 1);
        // The proxy's own severe verdict and the subject's self-report
        // must not count toward the witness quorum.
        c.observe_witness(0, 4, 7, 10); // proxy as witness
        c.observe_witness(0, 7, 7, 10); // self-report, dropped
        c.observe_witness(0, 2, 7, 10); // one real witness
        assert!(c.observe_summary(0, 4, 7, 1).is_none(), "quorum is one real witness short");
    }

    #[test]
    fn sub_severe_witness_scores_are_ignored() {
        let mut c = SummaryCorroborator::new(2, 1);
        c.observe_witness(0, 1, 7, 5);
        c.observe_witness(0, 2, 7, 5);
        assert!(c.observe_summary(0, 4, 7, 1).is_none());
    }
}
