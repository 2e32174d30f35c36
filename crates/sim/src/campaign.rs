//! Coordinated-adversary campaigns: collusion, Sybil flood and eclipse
//! (DESIGN.md §13).
//!
//! The single-cheater experiments ([`crate::detection`],
//! [`crate::cheat_matrix`]) assume adversaries act alone. This module
//! scripts *campaigns* — multiple actors coordinating against the
//! architecture — and grades the corresponding defences with the same
//! ground-truth join used everywhere else ([`crate::quality`]):
//!
//! * **Proxy–player collusion** ([`CampaignKind::Collusion`]): a client
//!   cheats (aim snaps) while its most-frequent proxy launders the
//!   evidence with clean epoch summaries. Witness redundancy plus
//!   [`watchmen_core::collusion::SummaryCorroborator`] flags the proxy
//!   once its clean reports repeatedly contradict independent severe
//!   witness verdicts.
//! * **Sybil flood** ([`CampaignKind::SybilFlood`]): a burst of fresh
//!   identities hammers [`watchmen_core::lobby::GameLobby::admit_midgame`].
//!   The sliding admission window throttles the flood; every over-rate
//!   attempt draws a severe `admission` verdict against the candidate
//!   key's [`watchmen_core::lobby::key_tag`].
//! * **Eclipse** ([`CampaignKind::Eclipse`]): a clique isolates a victim
//!   by suppressing its scheduled proxies until the deterministic
//!   fallback succession lands on a clique member — or by forging
//!   assignments outright.
//!   [`watchmen_core::schedule_guard::ScheduleBiasDetector`] catches the
//!   forgeries instantly and the forced-fallback concentration
//!   statistically.
//!
//! Each campaign returns a [`CampaignOutcome`] carrying the injected
//! [`GroundTruth`], the emitted audit stream and the joined
//! [`DetectionQuality`]; [`CampaignOutcome::report`] is the per-campaign
//! SLO line and gate.

use watchmen_core::audit::{AuditKind, AuditRecord, LOBBY_NODE};
use watchmen_core::cheat::{CheatInjector, CheatKind};
use watchmen_core::collusion::SummaryCorroborator;
use watchmen_core::lobby::{key_tag, AdmitError, GameLobby};
use watchmen_core::proxy::ProxySchedule;
use watchmen_core::rating::SEVERE_SCORE;
use watchmen_core::schedule_guard::ScheduleBiasDetector;
use watchmen_core::verify::{checks, Verifier};
use watchmen_core::WatchmenConfig;
use watchmen_crypto::schnorr::Keypair;
use watchmen_game::PlayerId;
use watchmen_math::{Aim, Vec3};
use watchmen_telemetry::report::Report;
use watchmen_telemetry::TraceId;
use watchmen_world::PhysicsConfig;

use crate::quality::{evaluate, DetectionQuality, GroundTruth};

/// The three scripted campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// A cheating client shielded by a colluding proxy's clean summaries.
    Collusion,
    /// A burst of fresh identities flooding mid-game admission.
    SybilFlood,
    /// A clique biasing the proxy schedule to isolate a victim.
    Eclipse,
}

impl CampaignKind {
    /// Every campaign, in catalog order.
    pub const ALL: [CampaignKind; 3] =
        [CampaignKind::Collusion, CampaignKind::SybilFlood, CampaignKind::Eclipse];

    /// Stable knob/summary-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CampaignKind::Collusion => "collusion",
            CampaignKind::SybilFlood => "sybil-flood",
            CampaignKind::Eclipse => "eclipse",
        }
    }

    /// The catalog entry this campaign demonstrates.
    #[must_use]
    pub fn cheat_kind(self) -> CheatKind {
        match self {
            CampaignKind::Collusion => CheatKind::ProxyCollusion,
            CampaignKind::SybilFlood => CheatKind::SybilFlood,
            CampaignKind::Eclipse => CheatKind::Eclipse,
        }
    }

    /// The check expected to flag this campaign's *coordinating* actors
    /// (the colluding proxy, the Sybil identities, the eclipse clique).
    #[must_use]
    pub fn expected_check(self) -> &'static str {
        match self {
            CampaignKind::Collusion => checks::COLLUSION,
            CampaignKind::SybilFlood => checks::ADMISSION,
            CampaignKind::Eclipse => checks::SCHEDULE,
        }
    }

    /// Frames allowed from the first campaign action to the p99
    /// detection. Campaign detectors work at epoch granularity (they
    /// accumulate cross-epoch evidence), so the budgets are multiples of
    /// the 40-frame proxy period — unlike the fleet's 32-frame budget
    /// for single-cheater physics violations.
    #[must_use]
    pub fn ttd_budget_frames(self) -> u64 {
        match self {
            // The colluder must launder twice, and only launders in the
            // epochs it is the client's proxy: worst case nearly the
            // whole 30-epoch campaign.
            CampaignKind::Collusion => 1200,
            // Over-rate attempts are refused (and flagged) the frame
            // they arrive; one window is generous.
            CampaignKind::SybilFlood => 40,
            // The bias window tolerates two fallbacks before flagging,
            // and stragglers are caught by their forged claims.
            CampaignKind::Eclipse => 800,
        }
    }

    /// The `campaign <name>:` SLO report over `quality` (one run's, or
    /// several runs' merge). Its gate: every scripted adversary drew a severe
    /// verdict, no honest actor did, and the p99 time-to-detect fits the
    /// campaign's budget.
    ///
    /// ```text
    /// campaign collusion: adversaries=2 detected=2 false_verdicts=0 ttd_p50=0 ttd_p99=400 budget=1200
    /// ```
    #[must_use]
    pub fn report(self, quality: &DetectionQuality) -> Report {
        let (q, budget) = (quality, self.ttd_budget_frames());
        let p99 = q.ttd_percentile(99.0);
        Report::new(format!("campaign {}", self.name()))
            .figure("adversaries", q.injected, true)
            .figure("detected", q.detected, q.detected == q.injected)
            .figure("false_verdicts", q.false_verdicts, q.false_verdicts == 0)
            .figure("ttd_p50", q.ttd_percentile(50.0), true)
            .figure("ttd_p99", p99, p99.is_some_and(|p| p <= budget))
            .figure("budget", budget, true)
    }
}

impl std::fmt::Display for CampaignKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Roster size every campaign plays against.
const PLAYERS: usize = 12;

/// Campaign length, in proxy epochs: room for cross-epoch evidence.
const EPOCHS: u64 = 30;

/// The graded result of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Which campaign ran.
    pub kind: CampaignKind,
    /// The seed it ran at.
    pub seed: u64,
    /// What was injected (adversary ids / key tags, first action frame,
    /// per-actor expected checks).
    pub truth: GroundTruth,
    /// The joined detection-quality counters.
    pub quality: DetectionQuality,
    /// The full audit stream the campaign emitted, in emission order.
    pub audit: Vec<AuditRecord>,
}

impl CampaignOutcome {
    /// This run's SLO report ([`CampaignKind::report`]).
    #[must_use]
    pub fn report(&self) -> Report {
        self.kind.report(&self.quality)
    }
}

/// Runs one campaign of `kind` under `config`, deterministically in
/// `seed`.
#[must_use]
pub fn run_campaign(kind: CampaignKind, seed: u64, config: &WatchmenConfig) -> CampaignOutcome {
    let (truth, audit) = match kind {
        CampaignKind::Collusion => run_collusion(seed, config),
        CampaignKind::SybilFlood => run_sybil_flood(seed, config),
        CampaignKind::Eclipse => run_eclipse(seed, config),
    };
    let quality = evaluate(&truth, &audit);
    CampaignOutcome { kind, seed, truth, quality, audit }
}

fn verdict(
    frame: u64,
    node: u32,
    subject: u32,
    check: &'static str,
    score: u8,
    detail: String,
) -> AuditRecord {
    AuditRecord {
        frame,
        node,
        subject,
        kind: AuditKind::Verdict,
        check,
        score,
        confidence: "campaign",
        trace: TraceId::NONE,
        detail,
    }
}

/// Proxy–player collusion: client `C` aim-snaps every epoch; its
/// most-frequent proxy `P` (the realistic collusion partner — the proxy
/// with the most laundering opportunities) reports clean summaries
/// whenever it serves, while honest proxies report what they see.
/// Witnesses in `C`'s interest set verify independently throughout.
fn run_collusion(seed: u64, config: &WatchmenConfig) -> (GroundTruth, Vec<AuditRecord>) {
    let period = config.proxy_period;
    let schedule = ProxySchedule::new(seed, PLAYERS, period);
    let verifier = Verifier::new(*config, PhysicsConfig::default());
    let mut injector = CheatInjector::new(seed, 1.0);
    let mut corroborator = SummaryCorroborator::default();
    let mut audit = Vec::new();

    let client = PlayerId(3);
    // The colluder: whichever proxy the schedule hands the client most
    // often over the campaign (pigeonhole: ≥ ⌈epochs / (players−1)⌉ ≥ 3
    // epochs at the standard 30/12, comfortably past the corroborator's
    // two-contradiction threshold).
    let mut counts = [0u32; PLAYERS];
    for epoch in 0..EPOCHS {
        counts[schedule.proxy_of(client, epoch * period).index()] += 1;
    }
    let colluder = PlayerId(
        (0..PLAYERS as u32).max_by_key(|&p| counts[p as usize]).expect("a populated roster"),
    );
    // Three honest witnesses from the client's interest set.
    let witnesses: Vec<PlayerId> = (0..PLAYERS as u32)
        .map(PlayerId)
        .filter(|&p| p != client && p != colluder)
        .take(3)
        .collect();
    let honest_control = *witnesses.first().expect("three witnesses");

    for epoch in 0..EPOCHS {
        let frame = epoch * period;
        // The client snaps its aim onto a fresh target each epoch — a
        // genuine physics violation each witness scores independently.
        let target = Vec3::new(-40.0 - injector.teleport(Vec3::ZERO, 5.0).x, -2.0, 0.0);
        let snapped = CheatInjector::snap_aim(Vec3::ZERO, target);
        for &w in &witnesses {
            let score = verifier.check_aim(Aim::new(0.0, 0.0), snapped, 1);
            audit.push(verdict(
                frame,
                w.0,
                client.0,
                checks::AIM,
                score,
                format!("witness {w} scored the epoch-{epoch} snap"),
            ));
            corroborator.observe_witness(epoch, w.0, client.0, score);
            // The same witnesses watch an honest player turn slowly:
            // sub-severe, contributes nothing to anyone's tally.
            let honest_score = verifier.check_aim(Aim::new(0.0, 0.0), Aim::new(0.02, 0.0), 1);
            debug_assert!(honest_score < SEVERE_SCORE);
            corroborator.observe_witness(epoch, w.0, honest_control.0, honest_score);
        }

        // Epoch summary from whoever proxies the client this epoch.
        let proxy = schedule.proxy_of(client, frame);
        let summary_score: u8 = if proxy == colluder { 1 } else { 8 };
        if proxy != colluder {
            audit.push(verdict(
                frame,
                proxy.0,
                client.0,
                checks::EPOCH_SUMMARY,
                summary_score,
                format!("honest proxy {proxy} summarized epoch {epoch}"),
            ));
        }
        if let Some(v) = corroborator.observe_summary(epoch, proxy.0, client.0, summary_score) {
            audit.push(verdict(
                frame,
                LOBBY_NODE,
                v.proxy,
                checks::COLLUSION,
                v.score,
                format!(
                    "clean summary contradicted by {} witnesses; contradiction {}",
                    v.witnesses, v.contradictions
                ),
            ));
        }
    }

    let truth = GroundTruth {
        cheaters: vec![client.0, colluder.0],
        first_cheat_frame: 0,
        expected_check: checks::AIM,
        expected_overrides: vec![(colluder.0, checks::COLLUSION)],
    };
    (truth, audit)
}

/// Sybil flood: one honest mid-game join, then a burst of fresh
/// identities repeatedly hammering admission inside one window, then an
/// honest joiner after the flood subsides. Identities admitted within
/// the allowance are indistinguishable from honest joins (and are not
/// ground-truth adversaries); every over-rate attempt is.
fn run_sybil_flood(seed: u64, config: &WatchmenConfig) -> (GroundTruth, Vec<AuditRecord>) {
    let window = WatchmenConfig::ADMISSION_WINDOW_FRAMES;
    let allowance = WatchmenConfig::MAX_JOINS_PER_WINDOW as usize;
    let mut lobby = GameLobby::new(seed, *config, 60).with_keys(Keypair::generate(seed ^ 0xbee));
    for i in 0..PLAYERS {
        lobby.register(Keypair::generate(seed * 100 + i as u64).public());
    }
    lobby.start();

    // An honest joiner well before the flood: admitted, no audit.
    let honest_early = Keypair::generate(seed ^ 0x40e5).public();
    lobby.admit_midgame(honest_early, 10).expect("quiet lobby admits");

    // The flood: `allowance + 8` fresh identities burst at one frame and
    // keep retrying inside the window. The first `allowance` slip in
    // (the admission throttle bounds *rate*, not *intent* — a known
    // gap); every attempt after that is refused and flagged.
    let flood_frame = 10 + window + 10;
    let sybils: Vec<_> = (0..allowance + 8)
        .map(|i| Keypair::generate(seed * 1_000 + 7_000 + i as u64).public())
        .collect();
    let mut refused = Vec::new();
    for retry_frame in (flood_frame..flood_frame + window).step_by(window as usize / 4) {
        for key in &sybils {
            if refused.contains(&key_tag(key)) || lobby.players() >= WatchmenConfig::MAX_ROSTER {
                continue;
            }
            match lobby.admit_midgame(*key, retry_frame) {
                Ok(_) => {}
                Err(AdmitError::Throttled { .. }) => {
                    if !refused.contains(&key_tag(key)) {
                        refused.push(key_tag(key));
                    }
                }
                Err(AdmitError::RosterFull { .. } | AdmitError::Banned { .. }) => {}
            }
        }
    }
    // Identities already refused keep retrying — sustained pressure the
    // escalation logic answers with rising scores.
    for key in sybils.iter().filter(|k| refused.contains(&key_tag(k))) {
        let _ = lobby.admit_midgame(*key, flood_frame + window / 2);
    }

    // After the flood's window slides out, a patient honest joiner gets
    // in cleanly — the throttle denies bursts, not the service.
    let honest_late = Keypair::generate(seed ^ 0x1a7e).public();
    lobby
        .admit_midgame(honest_late, flood_frame + 2 * window)
        .expect("admission recovers after the flood");

    let audit = lobby.drain_audit();
    let truth = GroundTruth {
        cheaters: refused,
        first_cheat_frame: flood_frame,
        expected_check: checks::ADMISSION,
        expected_overrides: Vec::new(),
    };
    (truth, audit)
}

/// Eclipse: a clique isolates the victim by suppressing its scheduled
/// proxies each epoch until the deterministic fallback succession lands
/// on a clique member; in epochs where the succession never reaches the
/// clique, a member forges the assignment outright. An honest control
/// victim with one genuine crash-fallback exercises the false-positive
/// side.
fn run_eclipse(seed: u64, config: &WatchmenConfig) -> (GroundTruth, Vec<AuditRecord>) {
    let period = config.proxy_period;
    let schedule = ProxySchedule::new(seed, PLAYERS, period);
    let mut detector = ScheduleBiasDetector::default();
    let mut audit = Vec::new();

    let victim = PlayerId(0);
    let control = PlayerId(1);
    let clique: Vec<PlayerId> = [PLAYERS as u32 - 2, PLAYERS as u32 - 1].map(PlayerId).to_vec();
    let mut forge_turn = 0usize;

    for epoch in 0..EPOCHS {
        let frame = epoch * period;
        let scheduled = schedule.proxy_of(victim, frame);
        // The clique crash-frames the victim's honest proxies until the
        // succession reaches one of its own (within the fallback depth
        // every honest node tolerates).
        let landing = schedule.plausible_proxies(victim, frame).find(|p| clique.contains(p));
        let effective = match landing {
            Some(member) => member,
            None => {
                // The succession never reaches the clique this epoch: a
                // member forges the claim instead. Any honest node
                // recomputing the schedule proves the forgery on sight.
                let forger = clique[forge_turn % clique.len()];
                forge_turn += 1;
                let score = ScheduleBiasDetector::verify_claim(&schedule, victim, frame, forger)
                    .expect("outside the plausible set by construction");
                audit.push(verdict(
                    frame,
                    victim.0,
                    forger.0,
                    checks::SCHEDULE,
                    score,
                    format!("claimed proxyship of {victim} outside the epoch-{epoch} schedule"),
                ));
                scheduled // the forgery is rejected; the honest proxy serves
            }
        };
        for v in detector.observe_epoch(epoch, victim, scheduled, effective) {
            audit.push(verdict(
                frame,
                victim.0,
                v.suspect,
                checks::SCHEDULE,
                v.score,
                format!("{} fallback overrides in the window favoured {}", v.fallbacks, v.suspect),
            ));
        }

        // The control victim sees one honest crash mid-campaign; its
        // fallback beneficiary must never be flagged.
        let control_scheduled = schedule.proxy_of(control, frame);
        let control_effective = if epoch == EPOCHS / 2 {
            schedule.nth_proxy_of(control, frame, 1)
        } else {
            control_scheduled
        };
        for v in detector.observe_epoch(epoch, control, control_scheduled, control_effective) {
            audit.push(verdict(
                frame,
                control.0,
                v.suspect,
                checks::SCHEDULE,
                v.score,
                "honest-churn fallback flagged (false positive)".to_owned(),
            ));
        }
    }

    let truth = GroundTruth {
        cheaters: clique.iter().map(|p| p.0).collect(),
        first_cheat_frame: 0,
        expected_check: checks::SCHEDULE,
        expected_overrides: Vec::new(),
    };
    (truth, audit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(kind: CampaignKind, seed: u64) -> CampaignOutcome {
        run_campaign(kind, seed, &WatchmenConfig::default())
    }

    #[test]
    fn collusion_flags_both_client_and_proxy() {
        let o = outcome(CampaignKind::Collusion, 11);
        assert_eq!(o.quality.injected, 2);
        assert_eq!(o.quality.detected, 2, "{}", o.report());
        assert_eq!(o.quality.false_verdicts, 0);
        assert!(o.quality.per_check[checks::COLLUSION].true_pos >= 1);
        assert!(o.quality.per_check[checks::AIM].true_pos >= 1);
        assert_eq!(o.report().check(), Ok(()));
    }

    #[test]
    fn sybil_flood_flags_every_over_rate_identity() {
        let o = outcome(CampaignKind::SybilFlood, 11);
        assert!(o.quality.injected >= 8, "{}", o.report());
        assert_eq!(o.quality.detected, o.quality.injected);
        assert_eq!(o.quality.false_verdicts, 0);
        // Refusals are instant: everything detected inside one window.
        assert!(o.quality.ttd_percentile(99.0).expect("detected") <= 40);
        assert_eq!(o.report().check(), Ok(()));
    }

    #[test]
    fn eclipse_flags_the_whole_clique_without_framing_honest_churn() {
        let o = outcome(CampaignKind::Eclipse, 11);
        assert_eq!(o.quality.injected, 2);
        assert_eq!(o.quality.detected, 2, "{}", o.report());
        assert_eq!(o.quality.false_verdicts, 0, "honest crash-fallback was framed");
        assert_eq!(o.report().check(), Ok(()));
    }

    #[test]
    fn campaigns_hold_across_seeds() {
        for seed in 0..6u64 {
            for kind in CampaignKind::ALL {
                let o = outcome(kind, seed);
                assert_eq!(o.report().check(), Ok(()), "seed {seed}");
            }
        }
    }

    /// A campaign that missed an adversary, framed an honest actor or
    /// blew its budget fails on that figure.
    #[test]
    fn report_fails_on_the_figure_that_broke() {
        let o = outcome(CampaignKind::Collusion, 7);
        assert_eq!(o.report().title(), "campaign collusion");
        let mut q = o.quality.clone();
        q.false_verdicts = 1;
        assert_eq!(o.kind.report(&q).failing(), Some("false_verdicts"));
        q.detected -= 1;
        assert_eq!(o.kind.report(&q).failing(), Some("detected"));
        let late = DetectionQuality { ttd_frames: vec![1201], ..o.quality.clone() };
        assert_eq!(o.kind.report(&late).failing(), Some("ttd_p99"));
        let none = DetectionQuality { ttd_frames: Vec::new(), ..o.quality };
        assert_eq!(o.kind.report(&none).failing(), Some("ttd_p99"));
    }

    #[test]
    fn kinds_map_to_the_catalog() {
        for kind in CampaignKind::ALL {
            assert_eq!(kind.cheat_kind().category().to_string(), "coordinated adversary");
            assert!(kind.ttd_budget_frames() > 0);
        }
    }
}
