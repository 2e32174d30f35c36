//! Detection-quality accounting: the audit stream joined against
//! injected ground truth.
//!
//! The anti-cheat literature evaluates detectors on two axes — how fast
//! a real cheater is caught (time-to-detect) and how often an honest
//! player is wrongly flagged (false positives). The fleet orchestrator
//! injects cheats into a known subset of matches, so both axes are
//! computable exactly: [`evaluate`] walks one match's verdict audit
//! stream ([`watchmen_core::audit::AuditRecord`]) against its
//! [`GroundTruth`] and produces a [`DetectionQuality`] with
//! per-[`watchmen_core::verify::checks`] confusion-matrix counters and
//! per-cheater time-to-detect, which the fleet rolls up into the
//! detection-quality SLO line and `BENCH_detection.json`.
//!
//! Semantics (see DESIGN.md §12):
//!
//! * a **severe verdict** is a [`AuditKind::Verdict`] record with score
//!   ≥ 6 — the same threshold the lobby's reputation layer treats as an
//!   offense;
//! * a severe verdict on an injected cheater is a **true positive** for
//!   its check; on an honest player, a **false positive**;
//! * a cheater whose *expected* check (the check the injected cheat
//!   class should trip — [`GroundTruth::expected_check`]) never produced
//!   a severe verdict is a **false negative** for that check;
//! * **time-to-detect** is the gap in frames from the cheater's first
//!   cheating frame to its first severe verdict from any check
//!   ([`UNDETECTED`] when none ever fires).

use std::collections::BTreeMap;

use watchmen_core::audit::{AuditKind, AuditRecord};
use watchmen_core::rating::SEVERE_SCORE;

/// Sentinel time-to-detect for a cheater no check ever caught.
pub const UNDETECTED: u64 = u64::MAX;

/// What was actually injected into one match.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Player ids scripted to cheat.
    pub cheaters: Vec<u32>,
    /// The first frame a scripted cheat action occurs on.
    pub first_cheat_frame: u64,
    /// The check the injected cheat class should trip (false negatives
    /// are attributed here), e.g. `checks::POSITION` for a speed hack.
    pub expected_check: &'static str,
    /// Per-cheater overrides of [`Self::expected_check`], for
    /// multi-actor campaigns whose adversaries play different roles — a
    /// colluding proxy trips `collusion` while its client trips `aim`.
    pub expected_overrides: Vec<(u32, &'static str)>,
}

impl GroundTruth {
    /// The check expected to catch `cheater`: its override if one is
    /// recorded, the match-wide [`Self::expected_check`] otherwise.
    #[must_use]
    pub fn expected_for(&self, cheater: u32) -> &'static str {
        self.expected_overrides
            .iter()
            .find(|(c, _)| *c == cheater)
            .map_or(self.expected_check, |(_, check)| check)
    }
}

/// One check's confusion-matrix counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Severe verdicts on injected cheaters.
    pub true_pos: u64,
    /// Severe verdicts on honest players.
    pub false_pos: u64,
    /// Injected cheaters this check should have caught but never did.
    pub false_neg: u64,
}

/// The detection-quality join for one match (mergeable across a fleet).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectionQuality {
    /// Cheaters injected.
    pub injected: u64,
    /// Cheaters caught by at least one severe verdict.
    pub detected: u64,
    /// Severe verdicts on honest players (any check).
    pub false_verdicts: u64,
    /// Per detected cheater: frames from first cheat to first severe
    /// verdict ([`UNDETECTED`] entries for cheaters never caught).
    pub ttd_frames: Vec<u64>,
    /// Per-check confusion counters, keyed by check name.
    pub per_check: BTreeMap<&'static str, Confusion>,
}

impl DetectionQuality {
    /// Folds another match's counters into this one.
    pub fn merge(&mut self, other: &DetectionQuality) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.false_verdicts += other.false_verdicts;
        self.ttd_frames.extend_from_slice(&other.ttd_frames);
        for (check, c) in &other.per_check {
            let slot = self.per_check.entry(check).or_default();
            slot.true_pos += c.true_pos;
            slot.false_pos += c.false_pos;
            slot.false_neg += c.false_neg;
        }
    }

    /// The `p`-th percentile (nearest-rank, `0.0..=100.0`) of
    /// time-to-detect over *detected* cheaters; `None` when none were.
    #[must_use]
    pub fn ttd_percentile(&self, p: f64) -> Option<u64> {
        let mut detected: Vec<u64> =
            self.ttd_frames.iter().copied().filter(|&t| t != UNDETECTED).collect();
        if detected.is_empty() {
            return None;
        }
        detected.sort_unstable();
        Some(percentile(&detected, p))
    }
}

/// Nearest-rank percentile of a sorted, non-empty slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Joins one match's audit stream against its ground truth.
///
/// Records must be in emission order (the order the fleet drains them);
/// only [`AuditKind::Verdict`] records participate, so the stream can
/// carry the full mix of kinds.
#[must_use]
pub fn evaluate(truth: &GroundTruth, records: &[AuditRecord]) -> DetectionQuality {
    let mut quality =
        DetectionQuality { injected: truth.cheaters.len() as u64, ..DetectionQuality::default() };
    // First severe-verdict frame per cheater, any check.
    let mut first_severe: BTreeMap<u32, u64> = BTreeMap::new();
    // Checks that produced a severe verdict per cheater, for the
    // expected-check false-negative accounting.
    let mut caught_by: BTreeMap<(u32, &'static str), ()> = BTreeMap::new();

    for record in records {
        if record.kind != AuditKind::Verdict || record.score < SEVERE_SCORE {
            continue;
        }
        let is_cheater = truth.cheaters.contains(&record.subject);
        let slot = quality.per_check.entry(record.check).or_default();
        if is_cheater {
            slot.true_pos += 1;
            let first = first_severe.entry(record.subject).or_insert(record.frame);
            *first = (*first).min(record.frame);
            caught_by.insert((record.subject, record.check), ());
        } else {
            slot.false_pos += 1;
            quality.false_verdicts += 1;
        }
    }

    for &cheater in &truth.cheaters {
        match first_severe.get(&cheater) {
            Some(&frame) => {
                quality.detected += 1;
                quality.ttd_frames.push(frame.saturating_sub(truth.first_cheat_frame));
            }
            None => quality.ttd_frames.push(UNDETECTED),
        }
        let expected = truth.expected_for(cheater);
        if !expected.is_empty() && !caught_by.contains_key(&(cheater, expected)) {
            quality.per_check.entry(expected).or_default().false_neg += 1;
        }
    }
    quality
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_core::verify::checks;
    use watchmen_telemetry::TraceId;

    fn verdict(frame: u64, subject: u32, check: &'static str, score: u8) -> AuditRecord {
        AuditRecord {
            frame,
            node: 0,
            subject,
            kind: AuditKind::Verdict,
            check,
            score,
            confidence: "c_P",
            trace: TraceId::NONE,
            detail: String::new(),
        }
    }

    fn truth(cheaters: &[u32]) -> GroundTruth {
        GroundTruth {
            cheaters: cheaters.to_vec(),
            first_cheat_frame: 4,
            expected_check: checks::POSITION,
            expected_overrides: Vec::new(),
        }
    }

    #[test]
    fn joins_verdicts_against_truth() {
        let records = vec![
            verdict(4, 2, checks::POSITION, 3),  // sub-severe: ignored
            verdict(8, 2, checks::POSITION, 9),  // TP, detection at 8
            verdict(12, 2, checks::POSITION, 9), // later TP
            verdict(12, 1, checks::AIM, 7),      // FP on honest player 1
        ];
        let q = evaluate(&truth(&[2]), &records);
        assert_eq!(q.injected, 1);
        assert_eq!(q.detected, 1);
        assert_eq!(q.false_verdicts, 1);
        assert_eq!(q.ttd_frames, vec![4]); // 8 − first cheat frame 4
        let pos = q.per_check[checks::POSITION];
        assert_eq!((pos.true_pos, pos.false_pos, pos.false_neg), (2, 0, 0));
        let aim = q.per_check[checks::AIM];
        assert_eq!((aim.true_pos, aim.false_pos, aim.false_neg), (0, 1, 0));
    }

    #[test]
    fn undetected_cheater_is_a_false_negative() {
        let records = vec![verdict(40, 2, checks::EPOCH_SUMMARY, 9)];
        let q = evaluate(&truth(&[2, 5]), &records);
        assert_eq!(q.injected, 2);
        assert_eq!(q.detected, 1);
        assert_eq!(q.ttd_frames, vec![36, UNDETECTED]);
        // Cheater 2 was caught, but not by the expected check; cheater 5
        // not at all — both count against POSITION's recall.
        assert_eq!(q.per_check[checks::POSITION].false_neg, 2);
        assert_eq!(q.per_check[checks::EPOCH_SUMMARY].true_pos, 1);
        assert_eq!(q.ttd_percentile(99.0), Some(36));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = evaluate(&truth(&[2]), &[verdict(8, 2, checks::POSITION, 9)]);
        let b = evaluate(&truth(&[3]), &[verdict(6, 3, checks::POSITION, 8)]);
        a.merge(&b);
        assert_eq!(a.injected, 2);
        assert_eq!(a.detected, 2);
        assert_eq!(a.ttd_frames, vec![4, 2]);
        assert_eq!(a.per_check[checks::POSITION].true_pos, 2);
        assert_eq!(a.ttd_percentile(50.0), Some(2));
        assert_eq!(a.ttd_percentile(99.0), Some(4));
    }

    #[test]
    fn per_cheater_overrides_redirect_false_negatives() {
        // Cheater 2 (the client) is caught by AIM; cheater 5 (its proxy)
        // is expected at COLLUSION and never caught there.
        let mut t = truth(&[2, 5]);
        t.expected_check = checks::AIM;
        t.expected_overrides = vec![(5, checks::COLLUSION)];
        assert_eq!(t.expected_for(2), checks::AIM);
        assert_eq!(t.expected_for(5), checks::COLLUSION);
        let q = evaluate(&t, &[verdict(8, 2, checks::AIM, 9)]);
        assert_eq!(q.detected, 1);
        assert_eq!(q.per_check[checks::AIM].false_neg, 0);
        assert_eq!(q.per_check[checks::COLLUSION].false_neg, 1);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1, 2, 3, 4, 10];
        assert_eq!(percentile(&v, 50.0), 3);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn empty_stream_counts_all_misses() {
        let q = evaluate(&truth(&[1]), &[]);
        assert_eq!(q.detected, 0);
        assert_eq!(q.false_verdicts, 0);
        assert_eq!(q.ttd_frames, vec![UNDETECTED]);
        assert_eq!(q.ttd_percentile(50.0), None);
        assert_eq!(q.per_check[checks::POSITION].false_neg, 1);
    }
}
