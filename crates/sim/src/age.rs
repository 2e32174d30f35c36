//! Figure 7: distribution of the age of received updates.
//!
//! "We simulated latency in our networking module using latencies
//! available from the King and PeerWise datasets … Message loss is
//! simulated with a rate of 1%. … Quake tolerates up to 150 ms latency,
//! therefore, only the messages that are 3 frames old or more … are
//! counted as loss."

use watchmen_core::WatchmenConfig;
use watchmen_net::latency;

use crate::overlay::{run_watchmen, OverlayReport};
use crate::report::{bar, pct, render_table};
use crate::workload::Workload;

/// The latency environments of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencySet {
    /// King-dataset-like (mean 62 ms).
    King,
    /// PeerWise-dataset-like (mean 68 ms).
    PeerWise,
    /// LAN (1–3 ms), matching the paper's LAN experiments.
    Lan,
    /// Two continents with a ~70 ms one-way cross penalty: quantifies why
    /// "games limit the geographic location of players to the same
    /// country or continent".
    Intercontinental,
}

impl LatencySet {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            LatencySet::King => "King Latency Set",
            LatencySet::PeerWise => "PW Latency Set",
            LatencySet::Lan => "LAN",
            LatencySet::Intercontinental => "Intercontinental",
        }
    }

    fn model(&self, n: usize, seed: u64) -> Box<dyn latency::LatencyModel> {
        match self {
            LatencySet::King => latency::king_like(n, seed),
            LatencySet::PeerWise => latency::peerwise_like(n, seed),
            LatencySet::Lan => latency::lan(seed),
            LatencySet::Intercontinental => latency::two_zone(n, n / 2, 70.0, seed),
        }
    }
}

/// One latency set's age distribution.
#[derive(Debug)]
pub struct AgeSeries {
    /// Which latency environment.
    pub set: LatencySet,
    /// The full overlay report (ages histogram, bandwidth, drops).
    pub report: OverlayReport,
}

impl AgeSeries {
    /// `(age_in_frames, probability)` pairs — the PDF the paper plots.
    #[must_use]
    pub fn pdf(&self) -> Vec<(u64, f64)> {
        (0..self.report.ages.buckets()).map(|i| (i as u64, self.report.ages.fraction(i))).collect()
    }

    /// The fraction counted as loss (age ≥ 3 frames, plus network drops).
    #[must_use]
    pub fn loss_fraction(&self) -> f64 {
        self.report.late_or_lost
    }
}

/// Runs the Watchmen overlay under each latency set with 1 % loss.
#[must_use]
pub fn run_age(
    workload: &Workload,
    config: &WatchmenConfig,
    sets: &[LatencySet],
    loss_rate: f64,
    seed: u64,
) -> Vec<AgeSeries> {
    sets.iter()
        .map(|&set| {
            let model = set.model(workload.players(), seed);
            let report =
                run_watchmen(&workload.trace, &workload.map, config, model, loss_rate, seed);
            AgeSeries { set, report }
        })
        .collect()
}

/// Renders the Figure 7 PDF series.
#[must_use]
pub fn format_age(series: &[AgeSeries]) -> String {
    let mut out = Vec::new();
    for s in series {
        let rows: Vec<Vec<String>> = s
            .pdf()
            .into_iter()
            .take(6)
            .map(|(age, p)| vec![age.to_string(), pct(p), bar(p, 30)])
            .collect();
        out.push(format!(
            "[{}]  delivered={}  late-or-lost={}\n{}",
            s.set.name(),
            s.report.updates_delivered,
            pct(s.loss_fraction()),
            render_table(&["age (frames)", "PDF", ""], &rows)
        ));
    }
    out.join("\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::standard_workload;

    fn series() -> Vec<AgeSeries> {
        let w = standard_workload(12, 5, 300);
        run_age(&w, &WatchmenConfig::default(), &[LatencySet::King, LatencySet::PeerWise], 0.01, 13)
    }

    #[test]
    fn both_sets_deliver_most_updates_fresh() {
        for s in series() {
            // The paper's requirement: FPS playable when messages arrive
            // within 150 ms (3 frames). The node reads 0.91 / 0.10 under
            // King and 0.83 / 0.18 under PeerWise.
            let young = s.report.fraction_younger_than(3);
            assert!(young > 0.80, "{}: young fraction {young}", s.set.name());
            assert!(s.loss_fraction() < 0.20, "{}: loss {}", s.set.name(), s.loss_fraction());
        }
    }

    #[test]
    fn peerwise_is_no_fresher_than_king() {
        let s = series();
        let (king, pw) = (&s[0].report, &s[1].report);
        assert!(pw.fraction_younger_than(3) <= king.fraction_younger_than(3));
        assert!(pw.late_or_lost >= king.late_or_lost);
    }

    #[test]
    fn pdf_sums_to_one_minus_overflow() {
        for s in series() {
            let total: f64 = s.pdf().iter().map(|(_, p)| p).sum();
            assert!(total > 0.95 && total <= 1.0 + 1e-9, "{total}");
        }
    }

    #[test]
    fn mass_concentrates_in_low_ages() {
        for s in series() {
            let pdf = s.pdf();
            let early: f64 = pdf[..3].iter().map(|(_, p)| p).sum();
            let late: f64 = pdf[3..].iter().map(|(_, p)| p).sum();
            assert!(early > late, "{}: early {early} late {late}", s.set.name());
        }
    }

    #[test]
    fn lan_is_faster_than_wan() {
        let w = standard_workload(8, 5, 200);
        let series =
            run_age(&w, &WatchmenConfig::default(), &[LatencySet::Lan, LatencySet::King], 0.0, 17);
        // Nothing is consumed in the frame that generated it, so compare
        // what makes the 3-frame budget: all of it on a LAN.
        let lan_young = series[0].report.fraction_younger_than(3);
        let king_young = series[1].report.fraction_younger_than(3);
        assert!(lan_young > king_young, "lan {lan_young} vs king {king_young}");
    }

    #[test]
    fn intercontinental_play_violates_the_budget() {
        // The paper's geographic-restriction rationale: once half the
        // players sit an ocean away, the ≥3-frame tail blows past the
        // tolerable loss budget.
        let w = standard_workload(12, 5, 300);
        let series = run_age(
            &w,
            &WatchmenConfig::default(),
            &[LatencySet::King, LatencySet::Intercontinental],
            0.01,
            23,
        );
        let continental = series[0].loss_fraction();
        let intercontinental = series[1].loss_fraction();
        assert!(
            intercontinental > continental * 2.0,
            "cross-ocean {intercontinental} vs continental {continental}"
        );
        assert!(intercontinental > 0.2, "expected heavy lateness: {intercontinental}");
    }

    #[test]
    fn formatting_contains_set_names() {
        let s = format_age(&series());
        assert!(s.contains("King Latency Set"));
        assert!(s.contains("PW Latency Set"));
    }
}
