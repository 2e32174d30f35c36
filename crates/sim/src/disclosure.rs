//! Figure 4: information disclosure under collusion.
//!
//! "We measured the joint information obtained by a coalition of colluding
//! cheaters about other players using a 48-player trace … This is a worst
//! case scenario as we assume all colluding players work together and any
//! information available to one cheating player is immediately available
//! to all colluding partners."
//!
//! For each architecture and coalition size, every honest player is
//! classified by the *best* joint information the coalition holds about
//! them: complete (proxy), frequent update + dead reckoning, frequent
//! update only, dead reckoning only, infrequent position update, or
//! nothing.

use watchmen_core::proxy::ProxySchedule;
use watchmen_core::subscription::{compute_sets, NoRecency};
use watchmen_core::WatchmenConfig;
use watchmen_game::PlayerId;
use watchmen_world::potentially_visible_set;

use crate::report::{bar, pct, render_table};
use crate::workload::Workload;

/// The information classes of Figure 4's stacked histograms, most
/// informative first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InfoClass {
    /// Proxy-grade complete information.
    Complete,
    /// Frequent state updates and dead reckoning.
    FreqAndDr,
    /// Frequent state updates only.
    FreqOnly,
    /// Dead reckoning only.
    DrOnly,
    /// Infrequent position updates only.
    Infrequent,
    /// No information at all.
    Nothing,
}

impl InfoClass {
    /// All classes in display order.
    pub const ALL: [InfoClass; 6] = [
        InfoClass::Complete,
        InfoClass::FreqAndDr,
        InfoClass::FreqOnly,
        InfoClass::DrOnly,
        InfoClass::Infrequent,
        InfoClass::Nothing,
    ];

    /// Display label matching the paper's legend.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            InfoClass::Complete => "Complete",
            InfoClass::FreqAndDr => "Freq. up. + Dead reck.",
            InfoClass::FreqOnly => "Freq. up.",
            InfoClass::DrOnly => "Dead reck.",
            InfoClass::Infrequent => "Infreq. up.",
            InfoClass::Nothing => "Nothing",
        }
    }
}

/// The three compared infrastructures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Optimal client/server: "frequent updates for avatars in their PVS
    /// and nothing for the rest" — the minimum-exposure baseline.
    ClientServer,
    /// Donnybrook: frequent updates for the IS, dead reckoning for all
    /// others.
    Donnybrook,
    /// Watchmen (Section III).
    Watchmen,
}

impl Architecture {
    /// All architectures in the paper's figure order.
    pub const ALL: [Architecture; 3] =
        [Architecture::ClientServer, Architecture::Donnybrook, Architecture::Watchmen];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::ClientServer => "client-server",
            Architecture::Donnybrook => "donnybrook",
            Architecture::Watchmen => "watchmen",
        }
    }
}

/// The per-coalition-size class distribution for one architecture.
#[derive(Debug, Clone)]
pub struct DisclosureReport {
    /// Which architecture.
    pub architecture: Architecture,
    /// The coalition sizes evaluated.
    pub coalition_sizes: Vec<usize>,
    /// `fractions[k][class_index]`: fraction of honest players in each
    /// [`InfoClass`] for `coalition_sizes[k]`, averaged over frames.
    pub fractions: Vec<[f64; 6]>,
}

impl DisclosureReport {
    /// The fraction for a class at a coalition size.
    ///
    /// # Panics
    ///
    /// Panics if the coalition size was not evaluated.
    #[must_use]
    pub fn fraction(&self, coalition: usize, class: InfoClass) -> f64 {
        let k = self
            .coalition_sizes
            .iter()
            .position(|&c| c == coalition)
            .expect("coalition size not evaluated");
        let idx = InfoClass::ALL.iter().position(|&c| c == class).expect("class");
        self.fractions[k][idx]
    }
}

/// What one observer knows about one subject under an architecture.
#[derive(Debug, Clone, Copy, Default)]
struct Knowledge {
    complete: bool,
    freq: bool,
    dr: bool,
    infreq: bool,
}

impl Knowledge {
    fn merge(&mut self, other: Knowledge) {
        self.complete |= other.complete;
        self.freq |= other.freq;
        self.dr |= other.dr;
        self.infreq |= other.infreq;
    }

    fn classify(&self) -> InfoClass {
        if self.complete {
            InfoClass::Complete
        } else if self.freq && self.dr {
            InfoClass::FreqAndDr
        } else if self.freq {
            InfoClass::FreqOnly
        } else if self.dr {
            InfoClass::DrOnly
        } else if self.infreq {
            InfoClass::Infrequent
        } else {
            InfoClass::Nothing
        }
    }
}

/// Runs the disclosure measurement for one architecture.
///
/// The coalition of size `c` is players `0..c`; honest players are the
/// rest. `frame_stride` subsamples frames to bound cost (the statistics
/// are stationary).
///
/// # Panics
///
/// Panics if the largest coalition is not smaller than the player count.
#[must_use]
#[allow(clippy::needless_range_loop)] // knowledge rows are parallel per-player arrays
pub fn run_disclosure(
    workload: &Workload,
    architecture: Architecture,
    coalition_sizes: &[usize],
    config: &WatchmenConfig,
    seed: u64,
    frame_stride: usize,
) -> DisclosureReport {
    let n = workload.players();
    let max_coalition = coalition_sizes.iter().copied().max().unwrap_or(0);
    assert!(max_coalition < n, "coalition must leave honest players");
    let schedule = ProxySchedule::new(seed, n, config.proxy_period);
    let stride = frame_stride.max(1);

    let mut totals = vec![[0.0f64; 6]; coalition_sizes.len()];
    let mut frames_counted = 0usize;

    for frame in (0..workload.trace.len()).step_by(stride) {
        let states = &workload.trace.frames[frame].states;
        let positions: Vec<_> = states.iter().map(|s| s.position).collect();

        // Knowledge of each potential cheater (0..max_coalition) about
        // each player.
        let mut knowledge = vec![vec![Knowledge::default(); n]; max_coalition];
        for (i, row) in knowledge.iter_mut().enumerate() {
            match architecture {
                Architecture::ClientServer => {
                    let pvs = potentially_visible_set(
                        &workload.map,
                        &positions,
                        i,
                        WatchmenConfig::VISION_RADIUS,
                    );
                    for j in pvs {
                        row[j].freq = true;
                    }
                }
                Architecture::Donnybrook => {
                    let sets =
                        compute_sets(PlayerId(i as u32), states, &workload.map, config, &NoRecency);
                    for j in 0..n {
                        if j != i {
                            row[j].dr = true; // DR broadcast to everyone
                        }
                    }
                    for t in &sets.interest {
                        row[t.index()].freq = true;
                        row[t.index()].dr = false; // IS members send frequent instead
                    }
                }
                Architecture::Watchmen => {
                    let sets =
                        compute_sets(PlayerId(i as u32), states, &workload.map, config, &NoRecency);
                    for j in 0..n {
                        if j != i {
                            row[j].infreq = true; // implicit position updates
                        }
                    }
                    for t in &sets.interest {
                        row[t.index()].freq = true;
                    }
                    for t in &sets.vision {
                        row[t.index()].dr = true;
                    }
                    // Proxy duty grants complete information.
                    for client in schedule.clients_of(PlayerId(i as u32), frame as u64) {
                        row[client.index()].complete = true;
                    }
                }
            }
        }

        for (k, &c) in coalition_sizes.iter().enumerate() {
            for j in c..n {
                let mut joint = Knowledge::default();
                for row in knowledge.iter().take(c) {
                    joint.merge(row[j]);
                }
                let class = joint.classify();
                let idx = InfoClass::ALL.iter().position(|&x| x == class).expect("class");
                totals[k][idx] += 1.0 / (n - c) as f64;
            }
        }
        frames_counted += 1;
    }

    for row in &mut totals {
        for v in row.iter_mut() {
            *v /= frames_counted.max(1) as f64;
        }
    }

    DisclosureReport { architecture, coalition_sizes: coalition_sizes.to_vec(), fractions: totals }
}

/// Renders the stacked-histogram data as a table (one row per coalition
/// size, one column per info class) plus text bars.
#[must_use]
pub fn format_disclosure(report: &DisclosureReport) -> String {
    let mut header = vec!["coalition"];
    header.extend(InfoClass::ALL.iter().map(InfoClass::label));
    let rows: Vec<Vec<String>> = report
        .coalition_sizes
        .iter()
        .zip(&report.fractions)
        .map(|(&c, f)| {
            let mut row = vec![c.to_string()];
            row.extend(f.iter().map(|&v| format!("{} {}", pct(v), bar(v, 10))));
            row
        })
        .collect();
    format!("[{}]\n{}", report.architecture.name(), render_table(&header, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::standard_workload;

    fn small_report(arch: Architecture) -> DisclosureReport {
        let w = standard_workload(12, 5, 80);
        run_disclosure(&w, arch, &[1, 2, 4], &WatchmenConfig::default(), 7, 4)
    }

    fn total(report: &DisclosureReport, k: usize) -> f64 {
        report.fractions[k].iter().sum()
    }

    #[test]
    fn fractions_sum_to_one() {
        for arch in Architecture::ALL {
            let r = small_report(arch);
            for k in 0..r.coalition_sizes.len() {
                let t = total(&r, k);
                assert!((t - 1.0).abs() < 1e-9, "{}: sum {t}", arch.name());
            }
        }
    }

    #[test]
    fn client_server_has_no_dr_or_proxy_info() {
        let r = small_report(Architecture::ClientServer);
        for k in 0..r.coalition_sizes.len() {
            assert_eq!(r.fraction(r.coalition_sizes[k], InfoClass::Complete), 0.0);
            assert_eq!(r.fraction(r.coalition_sizes[k], InfoClass::FreqAndDr), 0.0);
            assert_eq!(r.fraction(r.coalition_sizes[k], InfoClass::DrOnly), 0.0);
            assert_eq!(r.fraction(r.coalition_sizes[k], InfoClass::Infrequent), 0.0);
        }
        // Some players are mutually invisible on q3dm17: Nothing > 0.
        assert!(r.fraction(1, InfoClass::Nothing) > 0.0);
    }

    #[test]
    fn donnybrook_never_below_dead_reckoning() {
        let r = small_report(Architecture::Donnybrook);
        for (k, &c) in r.coalition_sizes.iter().enumerate() {
            assert_eq!(r.fraction(c, InfoClass::Infrequent), 0.0, "k={k}");
            assert_eq!(r.fraction(c, InfoClass::Nothing), 0.0);
            assert_eq!(r.fraction(c, InfoClass::Complete), 0.0);
        }
        // DR-dominant, as in the paper.
        assert!(r.fraction(4, InfoClass::DrOnly) > 0.3);
    }

    #[test]
    fn watchmen_floor_is_infrequent_and_has_proxies() {
        let r = small_report(Architecture::Watchmen);
        for &c in &r.coalition_sizes {
            assert_eq!(r.fraction(c, InfoClass::Nothing), 0.0);
        }
        // Proxy duty exposes complete info about ~c/n of honest players.
        assert!(r.fraction(4, InfoClass::Complete) > 0.0);
        // A meaningful share of honest players is only coarsely known.
        assert!(r.fraction(1, InfoClass::Infrequent) > 0.1);
    }

    #[test]
    fn watchmen_discloses_less_than_donnybrook() {
        // The paper's headline: Watchmen significantly reduces disclosure
        // vs Donnybrook. Compare the share with at-most-infrequent info.
        let wm = small_report(Architecture::Watchmen);
        let db = small_report(Architecture::Donnybrook);
        let coarse_wm = wm.fraction(4, InfoClass::Infrequent);
        let coarse_db = db.fraction(4, InfoClass::Infrequent);
        assert!(coarse_wm > coarse_db + 0.05, "wm {coarse_wm} vs db {coarse_db}");
    }

    #[test]
    fn disclosure_grows_with_coalition() {
        let r = small_report(Architecture::Watchmen);
        let coarse_1 = r.fraction(1, InfoClass::Infrequent);
        let coarse_4 = r.fraction(4, InfoClass::Infrequent);
        assert!(coarse_4 <= coarse_1 + 1e-9, "more cheaters → less privacy");
    }

    #[test]
    fn formatting_contains_labels() {
        let r = small_report(Architecture::Watchmen);
        let s = format_disclosure(&r);
        assert!(s.contains("watchmen"));
        assert!(s.contains("Complete"));
        assert!(s.contains("Infreq"));
    }
}
