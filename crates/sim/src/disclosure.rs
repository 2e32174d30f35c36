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
//!
//! Watchmen's column is read off a replay of the shipped node with no loss
//! (loss only hides information), through Figure 5's holdings table
//! ([`crate::overlay`]), at the frames Figure 5 samples: a member holds
//! complete information as a player's effective proxy, frequent updates
//! with a `state` under `LOSS_AGE_FRAMES` old, dead reckoning with a
//! `guidance` under `GUIDANCE_PERIOD + LOSS_AGE_FRAMES` old, and
//! infrequent updates with *any* update under `OTHERS_PERIOD +
//! LOSS_AGE_FRAMES` old. The same replay measures Table I's maphack row
//! ([`PvsLeak`]). Client/server and Donnybrook have no node: each member
//! holds what the architecture sends it, every frame.

use watchmen_core::subscription::{compute_sets, NoRecency};
use watchmen_core::WatchmenConfig;
use watchmen_game::PlayerId;
use watchmen_world::potentially_visible_set;

use crate::detection::Count;
use crate::overlay::{replay_holdings, COMPLETE, DR, FREQ, INFREQ};
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
    /// Watchmen (Section III): the shipped node.
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

/// Table I's maphack measurement: of the fresh `State`s (under
/// `LOSS_AGE_FRAMES` old) the members of the largest coalition held about
/// honest players they did not proxy, those about a player outside the
/// member's PVS (vision radius and line of sight).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PvsLeak {
    /// Outside the PVS, out of all held, over sampled frames.
    pub states: Count,
    /// `states.hits` by frames since the player left the PVS: 1–3, 4–20,
    /// 21–60, more, and never inside.
    pub since_left: [u64; 5],
}

impl std::fmt::Display for PvsLeak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d, never] = self.since_left;
        let states = self.states;
        write!(
            f,
            "{states} (frames since it left: 1-3 {a}, 4-20 {b}, 21-60 {c}, >60 {d}, never {never})"
        )
    }
}

/// The per-coalition-size class distribution for one architecture.
#[derive(Debug, Clone)]
pub struct DisclosureReport {
    /// Which architecture.
    pub architecture: Architecture,
    /// The coalition sizes evaluated.
    pub coalition_sizes: Vec<usize>,
    /// `counts[k][class_index]`: sampled honest player-frames in each
    /// [`InfoClass`] for `coalition_sizes[k]`.
    pub counts: Vec<[u64; 6]>,
    /// Watchmen only: the maphack measurement.
    pub pvs_leak: Option<PvsLeak>,
}

impl DisclosureReport {
    /// The sampled honest player-frames in a class at a coalition size.
    ///
    /// # Panics
    ///
    /// Panics if the coalition size was not evaluated.
    #[must_use]
    pub fn count(&self, coalition: usize, class: InfoClass) -> Count {
        let k = self.coalition_sizes.iter().position(|&c| c == coalition).expect("evaluated");
        Count { hits: self.counts[k][class as usize], of: self.counts[k].iter().sum() }
    }

    /// [`Self::count`] as a fraction.
    #[must_use]
    pub fn fraction(&self, coalition: usize, class: InfoClass) -> f64 {
        self.count(coalition, class).rate()
    }
}

/// The class of what an observer, or a coalition, holds about a player.
fn classify(held: u8) -> InfoClass {
    match held {
        h if h & COMPLETE != 0 => InfoClass::Complete,
        h if h & (FREQ | DR) == FREQ | DR => InfoClass::FreqAndDr,
        h if h & FREQ != 0 => InfoClass::FreqOnly,
        h if h & DR != 0 => InfoClass::DrOnly,
        h if h & INFREQ != 0 => InfoClass::Infrequent,
        _ => InfoClass::Nothing,
    }
}

/// The players in `member`'s PVS at `frame` of the trace.
fn pvs(workload: &Workload, frame: usize, member: usize) -> Vec<usize> {
    let positions: Vec<_> =
        workload.trace.frames[frame].states.iter().map(|s| s.position).collect();
    potentially_visible_set(&workload.map, &positions, member, WatchmenConfig::VISION_RADIUS)
}

/// What a baseline sends `member` about each player in `frame`.
fn sent(
    workload: &Workload,
    arch: Architecture,
    config: &WatchmenConfig,
    frame: usize,
    member: usize,
) -> Vec<u8> {
    if arch == Architecture::ClientServer {
        let mut row = vec![0; workload.players()];
        for j in pvs(workload, frame, member) {
            row[j] = FREQ;
        }
        return row;
    }
    // Donnybrook: dead reckoning broadcast to everyone else, frequent
    // updates instead from the interest set.
    let mut row = vec![DR; workload.players()];
    row[member] = 0;
    let (states, me) = (&workload.trace.frames[frame].states, PlayerId(member as u32));
    for t in compute_sets(me, states, &workload.map, config, &NoRecency).interest {
        row[t.index()] = FREQ;
    }
    row
}

/// Runs the disclosure measurement for one architecture (see the module
/// docs). The coalition of size `c` is players `0..c`; honest players
/// are the rest.
///
/// # Panics
///
/// Panics if the largest coalition is not smaller than the player count.
#[must_use]
pub fn run_disclosure(
    workload: &Workload,
    architecture: Architecture,
    coalition_sizes: &[usize],
    config: &WatchmenConfig,
    seed: u64,
) -> DisclosureReport {
    let n = workload.players();
    let members = coalition_sizes.iter().copied().max().unwrap_or(0);
    assert!(members < n, "coalition must leave honest players");
    let mut counts = vec![[0u64; 6]; coalition_sizes.len()];
    // Adds one frame: each honest player `j`'s class under each coalition.
    let mut tally = |held: &dyn Fn(usize, usize) -> u8| {
        for (&c, row) in coalition_sizes.iter().zip(&mut counts) {
            for j in c..n {
                row[classify((0..c).fold(0, |joint, m| joint | held(m, j))) as usize] += 1;
            }
        }
    };

    let pvs_leak = (architecture == Architecture::Watchmen).then(|| {
        let mut leak = PvsLeak::default();
        // `[member * n + j]`: the last frame `j` was in `member`'s PVS.
        let mut last_seen = vec![None; members * n];
        let _ = replay_holdings(workload, config, 0.0, seed, |h| {
            let f = h.frame;
            for m in 0..members {
                for j in pvs(workload, f as usize, m) {
                    last_seen[m * n + j] = Some(f);
                }
            }
            if !h.sampled() {
                return;
            }
            tally(&|m, j| h.held(m, j));
            for (m, j) in (0..members).flat_map(|m| (members..n).map(move |j| (m, j))) {
                if h.held(m, j) & (COMPLETE | FREQ) != FREQ {
                    continue;
                }
                leak.states.of += 1;
                let since = last_seen[m * n + j].map(|seen| f - seen);
                if since != Some(0) {
                    leak.states.hits += 1;
                    let bucket =
                        since.map_or(4, |s| [3, 20, 60].iter().filter(|&&b| s > b).count());
                    leak.since_left[bucket] += 1;
                }
            }
        });
        leak
    });
    if pvs_leak.is_none() {
        for frame in 0..workload.frames() {
            let sent: Vec<Vec<u8>> =
                (0..members).map(|m| sent(workload, architecture, config, frame, m)).collect();
            tally(&|m, j| sent[m][j]);
        }
    }
    DisclosureReport { architecture, coalition_sizes: coalition_sizes.to_vec(), counts, pvs_leak }
}

/// Renders the stacked-histogram data as a table (one row per coalition
/// size, one column per info class) plus text bars; for the node, the
/// count behind each Nothing share and the maphack measurement follow.
#[must_use]
pub fn format_disclosure(report: &DisclosureReport) -> String {
    let mut header = vec!["coalition"];
    header.extend(InfoClass::ALL.iter().map(InfoClass::label));
    let rows: Vec<Vec<String>> = report
        .coalition_sizes
        .iter()
        .map(|&c| {
            let mut row = vec![c.to_string()];
            for class in InfoClass::ALL {
                let v = report.fraction(c, class);
                row.push(format!("{} {}", pct(v), bar(v, 10)));
            }
            row
        })
        .collect();
    let mut out = format!("[{}]\n{}", report.architecture.name(), render_table(&header, &rows));
    if let Some(leak) = report.pvs_leak {
        let nothing = |&c: &usize| format!("c={c} {}", report.count(c, InfoClass::Nothing));
        let nothing: Vec<String> = report.coalition_sizes.iter().map(nothing).collect();
        out += &format!("\nnothing held: {}", nothing.join(", "));
        out += &format!(
            "\nfresh States held outside proxy duty about a player outside the holder's PVS: {leak}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    use watchmen_core::msg::{Envelope, Payload, StateUpdate};
    use watchmen_core::node::{NodeEvent, Outgoing};
    use watchmen_core::sans_io::CoreOutput;
    use watchmen_crypto::schnorr::Keypair;

    use crate::overlay::Holdings;
    use crate::workload::standard_workload;

    /// One report per architecture, shared by the tests: the Watchmen
    /// one is a node replay.
    fn report(arch: Architecture) -> &'static DisclosureReport {
        static REPORTS: OnceLock<[DisclosureReport; 3]> = OnceLock::new();
        let reports = REPORTS.get_or_init(|| {
            let (w, config) = (standard_workload(12, 5, 80), WatchmenConfig::default());
            Architecture::ALL.map(|a| run_disclosure(&w, a, &[1, 2, 4], &config, 7))
        });
        &reports[arch as usize]
    }

    #[test]
    fn fractions_sum_to_one() {
        for arch in Architecture::ALL {
            let r = report(arch);
            for &c in &r.coalition_sizes {
                let t: f64 = InfoClass::ALL.iter().map(|&class| r.fraction(c, class)).sum();
                assert!((t - 1.0).abs() < 1e-9, "{}: sum {t}", arch.name());
            }
        }
    }

    #[test]
    fn client_server_has_no_dr_or_proxy_info() {
        let r = report(Architecture::ClientServer);
        for &c in &r.coalition_sizes {
            assert_eq!(r.fraction(c, InfoClass::Complete), 0.0);
            assert_eq!(r.fraction(c, InfoClass::FreqAndDr), 0.0);
            assert_eq!(r.fraction(c, InfoClass::DrOnly), 0.0);
            assert_eq!(r.fraction(c, InfoClass::Infrequent), 0.0);
        }
        // Some players are mutually invisible on q3dm17: Nothing > 0.
        assert!(r.fraction(1, InfoClass::Nothing) > 0.0);
    }

    #[test]
    fn donnybrook_never_below_dead_reckoning() {
        let r = report(Architecture::Donnybrook);
        for &c in &r.coalition_sizes {
            assert_eq!(r.fraction(c, InfoClass::Infrequent), 0.0, "c={c}");
            assert_eq!(r.fraction(c, InfoClass::Nothing), 0.0);
            assert_eq!(r.fraction(c, InfoClass::Complete), 0.0);
        }
        // DR-dominant, as in the paper.
        assert!(r.fraction(4, InfoClass::DrOnly) > 0.3);
    }

    #[test]
    fn watchmen_floor_is_infrequent_and_has_proxies() {
        let r = report(Architecture::Watchmen);
        for &c in &r.coalition_sizes {
            let nothing = r.count(c, InfoClass::Nothing);
            if c == 1 {
                // ROADMAP 5(c): a lone member holds nothing about a few
                // honest player-frames, mostly just after an epoch
                // turnover, when the new proxy's subscriber lists are
                // empty. Closing that gap flips this assertion.
                assert!(nothing.hits > 0, "c={c}: {nothing}");
            } else {
                assert_eq!(nothing.hits, 0, "c={c}: {nothing}");
            }
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
        let coarse_wm = report(Architecture::Watchmen).fraction(4, InfoClass::Infrequent);
        let coarse_db = report(Architecture::Donnybrook).fraction(4, InfoClass::Infrequent);
        assert!(coarse_wm > coarse_db + 0.05, "wm {coarse_wm} vs db {coarse_db}");
    }

    #[test]
    fn disclosure_grows_with_coalition() {
        let r = report(Architecture::Watchmen);
        let coarse_1 = r.fraction(1, InfoClass::Infrequent);
        let coarse_4 = r.fraction(4, InfoClass::Infrequent);
        assert!(coarse_4 <= coarse_1 + 1e-9, "more cheaters → less privacy");
    }

    #[test]
    fn a_stale_state_is_infrequent_and_the_proxy_complete() {
        // Player 0 consumed a state about player 2 generated 10 frames
        // ago; player 2 then publishes its state to player 1, its proxy.
        let state = StateUpdate::from(&standard_workload(3, 1, 1).trace.frames[0].states[2]);
        let envelope =
            Envelope { from: PlayerId(2), seq: 1, frame: 40, payload: Payload::State(state) };
        let publish =
            Outgoing { to: PlayerId(1), bytes: envelope.sign_encoded(&Keypair::generate(2)) };
        let delivery = NodeEvent::Delivery { about: PlayerId(2), class: "state", gen_frame: 30 };
        let mut h = Holdings::new(3);
        h.observe(30, 0, &CoreOutput { datagrams: Vec::new(), events: vec![delivery] });
        h.observe(40, 2, &CoreOutput { datagrams: vec![publish], events: Vec::new() });
        assert_eq!(classify(h.held(0, 2)), InfoClass::Infrequent);
        assert_eq!(classify(h.held(1, 2)), InfoClass::Complete);
        assert_eq!(classify(h.held(1, 0)), InfoClass::Nothing);
    }

    #[test]
    fn formatting_contains_labels() {
        let s = format_disclosure(report(Architecture::Watchmen));
        assert!(s.contains("watchmen"));
        assert!(s.contains("Complete"));
        assert!(s.contains("Infreq"));
        assert!(s.contains("nothing held: c=1 "), "{s}");
        assert!(s.contains("outside the holder's PVS: "), "{s}");
        assert!(s.contains("(frames since it left: 1-3 "), "{s}");
    }
}
