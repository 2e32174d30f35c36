//! Figure 6: how often the shipped node catches a scripted cheat, and how
//! often it convicts an honest player.
//!
//! "We set up an experiment where a cheater sends up to 10% invalid cheat
//! messages. We measure the overall success ratio (high confidence
//! detection by one of the honest players) of different verifications,
//! where false positives (honest messages wrongly identified as cheats)
//! are limited to a maximum of 5%."
//!
//! Each [`Cheat`] is one replay of the workload through secured nodes on a
//! [`crate::cluster::Cluster`] — the node replay of Figures 5 and 7, under
//! the same King-like latency set with 1 % loss — with player
//! [`CHEATER`] scripted. The cheat acts on every multiple `f` of
//! [`FIRST_CHEAT_FRAME`] on which the cheater is alive at `f − 1`, `f` and
//! `f + 1` (the proxy skips physics checks across a death), one frame in
//! four: a rate of invalid messages well past the paper's 10 %.
//!
//! * **Success** is the share of those actions that drew a severe verdict
//!   (score ≥ [`SEVERE_SCORE`]) of the cheat's expected check about the
//!   cheater, from any node, within `[f, f + FIRST_CHEAT_FRAME)`.
//! * **False positives** are the severe verdicts of a check on honest
//!   players over all three replays, divided by the honest opportunities
//!   for it: alive honest player-frames for `position` and `aim`, honest
//!   kill claims for `kill` (in the false-kill replay every honest attacker
//!   claims its own trace kills), and `Subscribe`s honest nodes sent for
//!   `subscription`.
//!
//! The threshold is the node's fixed [`SEVERE_SCORE`]; nothing is tuned
//! per check. The paper's guidance check and IS attention-rank check have
//! no counterpart in the node (it keeps only a guidance's position, and
//! judges IS and VS subscriptions alike with the vision cone), so their
//! rows say so.
//!
//! Table I ([`crate::cheat_matrix`]) plays the rate cheats on the same
//! replay: extra ticks, withheld, held-back and suppressed output, and an
//! escape. Each acts in every other proxy epoch from the second whose
//! closing epoch summary the replay covers, and an epoch counts as caught
//! when a severe verdict of the check about the cheater lands between its
//! first frame and that summary, inclusive.
//!
//! [`SEVERE_SCORE`]: watchmen_core::rating::SEVERE_SCORE

use std::collections::BTreeMap;
use std::ops::Range;

use watchmen_core::msg::KillClaim;
use watchmen_core::node::{NodeEvent, Outgoing};
use watchmen_core::sans_io::CoreOutput;
use watchmen_core::verify::checks;
use watchmen_core::WatchmenConfig;
use watchmen_game::trace::{GameTrace, PlayerFrame};
use watchmen_game::{GameEvent, PlayerId};
use watchmen_math::Vec3;
use watchmen_net::latency;

use crate::cluster::Cluster;
use crate::overlay::{replay_watchmen, Holdings, Script};
use crate::report::{pct, render_table};
use crate::workload::{aim_snap, cheat_fires, speed_hack, Workload, FIRST_CHEAT_FRAME};

/// The seat the scripted cheater plays.
pub const CHEATER: usize = 0;

/// Least success Figure 6's scripted physics cheats must reach.
pub const MIN_SUCCESS: f64 = 0.9;

/// Most honest false positives any check may draw: the paper's 5 %.
pub const FP_BUDGET: f64 = 0.05;

/// Figure 6's rows in figure order, each with the node check behind it
/// (`None`: no node runs one). The aim row is the node's addition.
pub const ROWS: [(&str, Option<&str>); 6] = [
    ("Position", Some(checks::POSITION)),
    ("Aim", Some(checks::AIM)),
    ("Kill", Some(checks::KILL)),
    ("Guidance", None),
    ("IS-sub (rank)", None),
    ("IS/VS-sub (cone)", Some(checks::SUBSCRIPTION)),
];

/// Extra ticks per frame the flood script plays.
const FLOOD_TICKS: usize = 8;

/// Frames into its epoch the suppress-correct cheater falls silent.
const SUPPRESS_FROM: u64 = 10;

/// Silent frames before the suppress-correct jump.
const SUPPRESS_FRAMES: u64 = 10;

/// How far the suppress-correct update jumps along x, in world units.
const SUPPRESS_JUMP: f64 = 60.0;

/// The last frame the escaper's node runs; it is gone for good after.
const ESCAPE_FRAME: u64 = 20;

/// Frames a replay needs for every honest node to evict the escaper: its
/// silence, counted from a relay period after [`ESCAPE_FRAME`] to allow
/// for latency, reaches the membership timeout at a renewal boundary, and
/// the eviction applies one epoch later.
#[must_use]
pub(crate) fn escape_frames(config: &WatchmenConfig) -> u64 {
    let period = config.proxy_period;
    let silent = ESCAPE_FRAME + WatchmenConfig::OTHERS_PERIOD + config.membership_timeout_frames;
    silent.next_multiple_of(period) + period + 1
}

/// A scripted cheat; each is one node replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cheat {
    /// [`speed_hack`]: a teleport no legal movement allows.
    SpeedHack,
    /// [`aim_snap`]: half a circle of yaw within one frame.
    AimSnap,
    /// A kill claim on the farthest live player: alternately a lie that
    /// puts the victim 10 units from the cheater, and the truth about both
    /// positions, which the weapon's reach or line of sight cannot support.
    FalseKill,
    /// A second tick in every non-boundary frame of a scripted epoch:
    /// updates at twice the game's rate.
    FastRate,
    /// Eight extra ticks in every non-boundary frame of a scripted epoch.
    Flood,
    /// Nothing the cheater emits in the odd frames of a scripted epoch
    /// goes out: half its updates never reach the proxy or anyone else.
    Withhold,
    /// Ten silent frames from the tenth frame of a scripted epoch, then an
    /// update 60 units off.
    SuppressCorrect,
    /// Everything the cheater emits in a scripted epoch goes out this many
    /// frames late: a look-ahead hold. `Hold(0)` holds nothing, so it is
    /// the unscripted replay, with the seat's epochs still graded.
    Hold(u64),
    /// The cheater's node stops for good after frame 20, without a leave.
    Escape,
}

impl Cheat {
    /// Every Figure 6 cheat, in figure order.
    pub const ALL: [Cheat; 3] = [Cheat::SpeedHack, Cheat::AimSnap, Cheat::FalseKill];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Cheat::SpeedHack => "speed-hack",
            Cheat::AimSnap => "aim-snap",
            Cheat::FalseKill => "false-kill",
            Cheat::FastRate => "fast-rate",
            Cheat::Flood => "flood",
            Cheat::Withhold => "withhold",
            Cheat::SuppressCorrect => "suppress-correct",
            Cheat::Hold(_) => "hold",
            Cheat::Escape => "escape",
        }
    }

    /// The node check expected to catch it (`"eviction"` for the escape:
    /// the roster eviction after the membership timeout).
    #[must_use]
    pub fn check(self) -> &'static str {
        match self {
            Cheat::SpeedHack => checks::POSITION,
            Cheat::AimSnap => checks::AIM,
            Cheat::FalseKill => checks::KILL,
            Cheat::FastRate
            | Cheat::Flood
            | Cheat::Withhold
            | Cheat::SuppressCorrect
            | Cheat::Hold(_) => checks::EPOCH_SUMMARY,
            Cheat::Escape => "eviction",
        }
    }

    /// Whether it acts per proxy epoch (see the module docs).
    fn per_epoch(self) -> bool {
        !matches!(self, Cheat::SpeedHack | Cheat::AimSnap | Cheat::FalseKill | Cheat::Escape)
    }
}

/// Events out of opportunities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Count {
    /// Caught actions, or severe honest verdicts.
    pub hits: u64,
    /// Actions, or honest opportunities.
    pub of: u64,
}

impl Count {
    /// `hits / of`, 0 when there was nothing to count.
    #[must_use]
    pub fn rate(self) -> f64 {
        if self.of == 0 {
            0.0
        } else {
            self.hits as f64 / self.of as f64
        }
    }
}

impl std::fmt::Display for Count {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}/{})", pct(self.rate()), self.hits, self.of)
    }
}

/// What one scripted replay measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Scripted actions caught by the expected check; for the escape,
    /// honest nodes that evicted the escaper out of those running at the
    /// end.
    pub caught: Count,
    /// Scripted actions caught, per check that fired on the cheater within
    /// an action's window.
    pub(crate) caught_by: BTreeMap<&'static str, Count>,
    /// Severe verdicts on honest players, per check.
    honest_verdicts: BTreeMap<&'static str, u64>,
    /// Alive honest player-frames.
    honest_frames: u64,
    /// Kill claims honest attackers sent.
    honest_claims: u64,
    /// `Subscribe`s honest nodes sent; hits are those whose first hop was
    /// their own target (the subscriber's proxy was the target).
    pub(crate) subscribes: Count,
}

impl Replay {
    /// Severe verdicts on honest players, over every check.
    #[must_use]
    pub(crate) fn honest_severe(&self) -> u64 {
        self.honest_verdicts.values().sum()
    }

    /// Severe verdicts of `check` on honest players, out of the honest
    /// opportunities for it (none for a check the node does not run).
    #[must_use]
    pub fn honest(&self, check: &str) -> Count {
        let of = match check {
            checks::POSITION | checks::AIM => self.honest_frames,
            checks::KILL => self.honest_claims,
            checks::SUBSCRIPTION => self.subscribes.of,
            _ => 0,
        };
        Count { hits: self.honest_verdicts.get(check).copied().unwrap_or(0), of }
    }
}

/// Replays `workload` through the shipped node with [`CHEATER`] running
/// `cheat` (see the module docs).
///
/// # Panics
///
/// Panics if the workload has fewer than 2 players.
#[must_use]
pub fn run_script(workload: &Workload, config: &WatchmenConfig, seed: u64, cheat: Cheat) -> Replay {
    let (trace, map) = (&workload.trace, &workload.map);
    let mut tap = Tap {
        cheat,
        trace,
        period: config.proxy_period,
        convictions: Vec::new(),
        actions: Vec::new(),
        held: Vec::new(),
        holdings: Holdings::new(trace.players),
        replay: Replay::default(),
    };
    let net = latency::king_like(trace.players, seed);
    let _ = replay_watchmen(trace, map, config, net, 0.01, seed, &mut tap);
    tap.finish()
}

/// The [`Script`] of one replay: plays the cheat, claims the honest kills
/// in the false-kill replay, and tallies the verdicts.
struct Tap<'a> {
    cheat: Cheat,
    trace: &'a GameTrace,
    /// Frames per proxy epoch.
    period: u64,
    /// Severe verdicts about the cheater: frame and check.
    convictions: Vec<(u64, &'static str)>,
    /// The frames each scripted action is graded over.
    actions: Vec<Range<u64>>,
    /// Datagrams a hold keeps back, with the frame they go out in.
    held: Vec<(u64, Outgoing)>,
    /// What the honest nodes hold and originate.
    holdings: Holdings,
    replay: Replay,
}

impl Tap<'_> {
    fn states(&self, frame: u64) -> &[PlayerFrame] {
        &self.trace.frames[frame as usize].states
    }

    /// Whether the cheat acts in `frame`: a script frame whose verdict
    /// window the replay covers, with the cheater alive around it.
    fn acts(&self, frame: u64) -> bool {
        let alive = |f: u64| self.states(f)[CHEATER].is_alive();
        cheat_fires(frame)
            && frame + FIRST_CHEAT_FRAME <= self.trace.len() as u64
            && (frame - 1..=frame + 1).all(alive)
    }

    /// The cheater's fabricated claim in `frame` on the farthest live
    /// player, if any is alive; every other one lies about the victim's
    /// position.
    fn false_claim(&self, frame: u64) -> Option<KillClaim> {
        let states = self.states(frame);
        let me = states[CHEATER];
        let (victim, seen) = (0..states.len())
            .filter(|&p| p != CHEATER && states[p].is_alive())
            .map(|p| (p, states[p].position))
            .max_by(|a, b| me.position.distance(a.1).total_cmp(&me.position.distance(b.1)))?;
        let lie = self.actions.len().is_multiple_of(2);
        Some(KillClaim {
            victim: PlayerId(victim as u32),
            weapon: me.weapon,
            attacker_position: me.position,
            victim_position: if lie { me.position + Vec3::new(10.0, 0.0, 0.0) } else { seen },
        })
    }

    /// Every honest kill the trace records in `frame`, claimed by its
    /// attacker with both positions as recorded (the victim's from the
    /// frame before, which still shows it alive).
    fn honest_claims(&self, frame: u64) -> Vec<(usize, KillClaim)> {
        if frame == 0 {
            return Vec::new();
        }
        let (now, before) = (self.states(frame), self.states(frame - 1));
        let events = &self.trace.frames[frame as usize].events;
        events
            .iter()
            .filter_map(|e| match *e {
                GameEvent::Kill { attacker, victim, weapon, .. } if attacker.index() != CHEATER => {
                    let claim = KillClaim {
                        victim,
                        weapon,
                        attacker_position: now[attacker.index()].position,
                        victim_position: before[victim.index()].position,
                    };
                    Some((attacker.index(), claim))
                }
                _ => None,
            })
            .collect()
    }

    /// Whether `frame` lies in an epoch a per-epoch cheat plays: every
    /// other epoch from the second whose closing summary the replay covers.
    fn scripted_epoch(&self, frame: u64) -> bool {
        let epoch = frame / self.period;
        epoch % 2 == 1 && (epoch + 1) * self.period < self.trace.len() as u64
    }

    /// Takes the cheater's `output` off the wire as the cheat says.
    fn intercept(&mut self, frame: u64, output: &mut CoreOutput) {
        if !self.scripted_epoch(frame) {
            return;
        }
        let offset = frame % self.period;
        match self.cheat {
            Cheat::Withhold if frame % 2 == 1 => output.datagrams.clear(),
            Cheat::SuppressCorrect
                if (SUPPRESS_FROM..SUPPRESS_FROM + SUPPRESS_FRAMES).contains(&offset) =>
            {
                output.datagrams.clear();
            }
            Cheat::Hold(k) if k > 0 => {
                self.held.extend(output.datagrams.drain(..).map(|d| (frame + k, d)));
            }
            _ => {}
        }
    }

    /// The false-kill replay's claims in `frame`: the cheater's, and every
    /// honest kill the trace records.
    fn claim_kills(&mut self, frame: u64, cluster: &mut Cluster) {
        if let Some(claim) = self.acts(frame).then(|| self.false_claim(frame)).flatten() {
            self.actions.push(frame..frame + FIRST_CHEAT_FRAME);
            send_claim(cluster, CHEATER, frame, claim);
        }
        for (attacker, claim) in self.honest_claims(frame) {
            self.replay.honest_claims += 1;
            send_claim(cluster, attacker, frame, claim);
        }
    }

    /// Puts the held datagrams due by `frame` on the wire.
    fn release(&mut self, frame: u64, cluster: &mut Cluster) {
        let (due, later): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.held).into_iter().partition(|&(at, _)| at <= frame);
        self.held = later;
        cluster.send(CHEATER, due.into_iter().map(|(_, d)| d).collect());
    }

    /// The extra ticks of the fast-rate and flood scripts in `frame`.
    fn extra_ticks(&mut self, frame: u64, cluster: &mut Cluster) {
        let extra = match self.cheat {
            Cheat::FastRate => 1,
            Cheat::Flood => FLOOD_TICKS,
            _ => return,
        };
        // A boundary frame's second tick would turn the epoch again.
        if !self.scripted_epoch(frame)
            || frame.is_multiple_of(self.period)
            || !cluster.is_running(CHEATER)
        {
            return;
        }
        let state = self.states(frame)[CHEATER];
        for _ in 0..extra {
            let core = cluster.cores[CHEATER].as_mut().expect("running slot is seated");
            let mut output = core.tick(frame, &state);
            self.observe(frame, CHEATER, &mut output);
            cluster.send(CHEATER, output.datagrams);
        }
    }

    /// The escaper's exit after [`ESCAPE_FRAME`], and on the last frame,
    /// who evicted it.
    fn escape(&mut self, frame: u64, cluster: &mut Cluster) {
        if frame == ESCAPE_FRAME {
            self.actions.push(frame..self.trace.len() as u64);
            cluster.cores[CHEATER] = None;
        }
        if frame + 1 == self.trace.len() as u64 {
            let honest: Vec<usize> = (0..cluster.cores.len())
                .filter(|&s| s != CHEATER && cluster.is_running(s))
                .collect();
            let escaper = PlayerId(CHEATER as u32);
            let evicted =
                honest.iter().filter(|&&s| !cluster.node(s).roster().is_active(escaper)).count();
            self.replay.caught = Count { hits: evicted as u64, of: honest.len() as u64 };
        }
    }

    fn finish(mut self) -> Replay {
        self.replay.subscribes = self.holdings.subscribes;
        let of = self.actions.len() as u64;
        for window in &self.actions {
            let mut fired: Vec<&'static str> = self
                .convictions
                .iter()
                .filter(|(frame, _)| window.contains(frame))
                .map(|&(_, check)| check)
                .collect();
            fired.sort_unstable();
            fired.dedup();
            for check in fired {
                self.replay.caught_by.entry(check).or_insert(Count { hits: 0, of }).hits += 1;
            }
        }
        if self.cheat != Cheat::Escape {
            let caught = self.replay.caught_by.get(self.cheat.check()).copied();
            self.replay.caught = caught.unwrap_or(Count { hits: 0, of });
        }
        let players = self.trace.frames.iter().flat_map(|f| f.states.iter().enumerate());
        let honest = players.filter(|&(p, s)| p != CHEATER && s.is_alive());
        self.replay.honest_frames = honest.count() as u64;
        self.replay
    }
}

/// Hands `claim` to `slot`'s node in `frame` and puts it on the wire.
fn send_claim(cluster: &mut Cluster, slot: usize, frame: u64, claim: KillClaim) {
    if !cluster.is_running(slot) {
        return;
    }
    let core = cluster.cores[slot].as_mut().expect("running slot is seated");
    let out = core.claim_kill(frame, claim);
    cluster.send(slot, out.datagrams);
}

impl Script for Tap<'_> {
    fn state(&mut self, frame: u64, slot: usize, state: &mut PlayerFrame) {
        if slot != CHEATER {
            return;
        }
        let hack = match self.cheat {
            Cheat::SpeedHack => speed_hack,
            Cheat::AimSnap => aim_snap,
            Cheat::SuppressCorrect => {
                let jump = frame % self.period == SUPPRESS_FROM + SUPPRESS_FRAMES;
                if jump && self.scripted_epoch(frame) {
                    state.position.x += SUPPRESS_JUMP;
                }
                return;
            }
            _ => return,
        };
        if self.acts(frame) {
            self.actions.push(frame..frame + FIRST_CHEAT_FRAME);
            hack(state, frame);
        }
    }

    fn after_step(&mut self, frame: u64, cluster: &mut Cluster) {
        if self.cheat.per_epoch() && frame.is_multiple_of(self.period) && self.scripted_epoch(frame)
        {
            self.actions.push(frame..frame + self.period + 1);
        }
        match self.cheat {
            Cheat::FalseKill => self.claim_kills(frame, cluster),
            Cheat::FastRate | Cheat::Flood => self.extra_ticks(frame, cluster),
            Cheat::Hold(_) => self.release(frame, cluster),
            Cheat::Escape => self.escape(frame, cluster),
            _ => {}
        }
    }

    fn observe(&mut self, frame: u64, slot: usize, output: &mut CoreOutput) {
        for event in &output.events {
            let NodeEvent::Suspicion { subject, rating, check } = event else { continue };
            if !rating.is_suspicious() {
                continue;
            }
            if subject.index() != CHEATER {
                *self.replay.honest_verdicts.entry(check).or_default() += 1;
            } else {
                self.convictions.push((frame, check));
            }
        }
        if slot == CHEATER {
            return self.intercept(frame, output);
        }
        self.holdings.observe(frame, slot, output);
    }
}

/// One row of Figure 6 (see [`ROWS`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionRow {
    /// The verification family.
    pub label: &'static str,
    /// The node check behind it, if a node runs one.
    pub check: Option<&'static str>,
    /// Scripted actions caught, if a cheat is scripted for the check.
    pub caught: Option<Count>,
    /// Severe honest verdicts out of honest opportunities, over all
    /// replays, if a node runs the check.
    pub false_positives: Option<Count>,
}

/// Runs Figure 6: one node replay per [`Cheat`], read into one row per
/// entry of [`ROWS`].
#[must_use]
pub fn run_detection(workload: &Workload, config: &WatchmenConfig, seed: u64) -> Vec<DetectionRow> {
    let replays: Vec<(Cheat, Replay)> =
        Cheat::ALL.into_iter().map(|c| (c, run_script(workload, config, seed, c))).collect();
    ROWS.into_iter()
        .map(|(label, check)| {
            let scripted = replays.iter().find(|(c, _)| Some(c.check()) == check);
            let false_positives = check.map(|check| {
                let (hits, of) = replays
                    .iter()
                    .map(|(_, r)| r.honest(check))
                    .fold((0, 0), |(hits, of), c| (hits + c.hits, of + c.of));
                Count { hits, of }
            });
            DetectionRow { label, check, caught: scripted.map(|(_, r)| r.caught), false_positives }
        })
        .collect()
}

/// Figure 6's gate: every row present in figure order, the speed-hack
/// and aim-snap caught at [`MIN_SUCCESS`] or better, and every measured
/// honest false-positive rate within [`FP_BUDGET`].
///
/// # Errors
///
/// Names the first row that fails.
pub fn check_rows(rows: &[DetectionRow]) -> Result<(), String> {
    let order: Vec<&str> = rows.iter().map(|r| r.label).collect();
    if order != ROWS.map(|(label, _)| label) {
        return Err(format!("rows out of figure order: {order:?}"));
    }
    for row in rows {
        let physics = matches!(row.check, Some(checks::POSITION | checks::AIM));
        if let Some(caught) = row.caught.filter(|_| physics) {
            if caught.of == 0 || caught.rate() < MIN_SUCCESS {
                return Err(format!("{}: success {caught} under {}", row.label, pct(MIN_SUCCESS)));
            }
        }
        if let Some(fp) = row.false_positives {
            if fp.of == 0 || fp.rate() > FP_BUDGET {
                let budget = pct(FP_BUDGET);
                return Err(format!("{}: false positives {fp} over {budget}", row.label));
            }
        }
    }
    Ok(())
}

/// Renders the Figure 6 series.
#[must_use]
pub fn format_detection(rows: &[DetectionRow]) -> String {
    let header = ["verification", "node check", "success", "honest false positives"];
    let not_run = || "not run by the node".to_owned();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let success = match (r.check, r.caught) {
                (None, _) => not_run(),
                (Some(_), None) => "no cheat scripted".to_owned(),
                (Some(_), Some(c)) => c.to_string(),
            };
            vec![
                r.label.to_owned(),
                r.check.unwrap_or("-").to_owned(),
                success,
                r.false_positives.map_or_else(not_run, |fp| fp.to_string()),
            ]
        })
        .collect();
    render_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    use crate::workload::standard_workload;

    /// One Figure 6 run shared by the tests.
    fn rows() -> &'static [DetectionRow] {
        static ROWS: OnceLock<Vec<DetectionRow>> = OnceLock::new();
        ROWS.get_or_init(|| {
            let w = standard_workload(12, 11, 200);
            run_detection(&w, &WatchmenConfig::default(), 21)
        })
    }

    fn row(check: &str) -> DetectionRow {
        *rows().iter().find(|r| r.check == Some(check)).expect("every row present")
    }

    #[test]
    fn rows_hold_the_figure_gate() {
        check_rows(rows()).unwrap_or_else(|e| panic!("{e}\n{}", format_detection(rows())));
    }

    #[test]
    fn the_node_catches_its_physics_cheats_and_fabricated_kills() {
        for cheat in Cheat::ALL {
            let caught = row(cheat.check()).caught.expect("a cheat is scripted");
            assert!(caught.of > 10, "{}: {caught}", cheat.label());
        }
        let kill = row(checks::KILL);
        assert!(kill.caught.unwrap().rate() > 0.5, "{kill:?}");
        // Honest attackers claimed their trace kills, and none was
        // convicted.
        let honest = kill.false_positives.unwrap();
        assert!(honest.of > 0 && honest.hits == 0, "{honest}");
    }

    #[test]
    fn rows_the_node_does_not_run_say_so() {
        let unrun: Vec<&DetectionRow> = rows().iter().filter(|r| r.check.is_none()).collect();
        assert_eq!(unrun.len(), 2);
        assert!(unrun.iter().all(|r| r.caught.is_none() && r.false_positives.is_none()));
        let table = format_detection(rows());
        assert_eq!(table.lines().count(), 2 + ROWS.len());
        assert_eq!(table.matches("not run by the node").count(), 4, "{table}");
    }

    #[test]
    fn the_gate_names_a_failing_row() {
        let mut rows = rows().to_vec();
        rows[1].caught = Some(Count { hits: 1, of: 10 });
        assert!(check_rows(&rows).unwrap_err().starts_with("Aim: success"));
        rows.swap(0, 1);
        assert!(check_rows(&rows).unwrap_err().contains("figure order"));
    }
}
