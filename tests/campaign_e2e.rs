//! End-to-end coordinated-adversary campaigns: collusion, Sybil flood
//! and eclipse, each run with ground-truth injection at fixed seeds and
//! graded against its per-campaign SLO (every adversary detected, zero
//! false verdicts, time-to-detect p99 within the campaign budget).

use watchmen::core::audit::AuditKind;
use watchmen::core::rating::SEVERE_SCORE;
use watchmen::core::verify::checks;
use watchmen::core::WatchmenConfig;
use watchmen::fleet::{run_campaign_soak, CampaignSoakConfig};
use watchmen::sim::campaign::{run_campaign, CampaignKind, CampaignOutcome, CampaignSpec};
use watchmen::telemetry::report::{self, Report};

/// The fixed seeds the e2e gate runs each campaign at — same family as
/// the CI gate's seeds.
const SEEDS: [u64; 3] = [2013, 77, 5];

fn outcome(kind: CampaignKind, seed: u64) -> CampaignOutcome {
    run_campaign(&CampaignSpec::standard(kind, seed), &WatchmenConfig::default())
}

/// Severe verdict subjects for one check, in emission order.
fn severe_subjects(outcome: &CampaignOutcome, check: &str) -> Vec<u32> {
    outcome
        .audit
        .iter()
        .filter(|r| r.kind == AuditKind::Verdict && r.check == check && r.score >= SEVERE_SCORE)
        .map(|r| r.subject)
        .collect()
}

#[test]
fn collusion_campaign_flags_client_and_laundering_proxy() {
    for seed in SEEDS {
        let o = outcome(CampaignKind::Collusion, seed);
        assert_eq!(o.report().check(), Ok(()), "seed {seed}");
        assert_eq!(o.truth.cheaters.len(), 2, "client + colluding proxy");
        let (client, colluder) = (o.truth.cheaters[0], o.truth.cheaters[1]);

        // Witnesses catch the client directly; the corroborator catches
        // the proxy through its contradicted clean summaries.
        assert!(severe_subjects(&o, checks::AIM).contains(&client), "seed {seed}");
        let collusion = severe_subjects(&o, checks::COLLUSION);
        assert!(!collusion.is_empty(), "seed {seed}: proxy never flagged");
        assert!(
            collusion.iter().all(|&s| s == colluder),
            "seed {seed}: collusion verdicts must name only the colluder"
        );
        // Honest proxies' severe epoch summaries corroborate, they are
        // never contradictions.
        assert!(severe_subjects(&o, checks::EPOCH_SUMMARY).iter().all(|&s| s == client));
    }
}

#[test]
fn sybil_flood_campaign_flags_every_over_rate_identity() {
    for seed in SEEDS {
        let o = outcome(CampaignKind::SybilFlood, seed);
        assert_eq!(o.report().check(), Ok(()), "seed {seed}");
        assert!(o.truth.cheaters.len() >= 8, "seed {seed}: flood too small");

        let flagged = severe_subjects(&o, checks::ADMISSION);
        for tag in &o.truth.cheaters {
            assert!(flagged.contains(tag), "seed {seed}: Sybil {tag:#010x} never flagged");
        }
        // Every admission verdict names a scripted Sybil — the honest
        // joiners before and after the flood stay clean.
        for subject in &flagged {
            assert!(
                o.truth.cheaters.contains(subject),
                "seed {seed}: admission verdict framed {subject:#010x}"
            );
        }
        // Sustained pressure escalates to the ceiling.
        assert!(
            o.audit.iter().any(|r| r.check == checks::ADMISSION && r.score == 10),
            "seed {seed}: flood never escalated"
        );
    }
}

#[test]
fn eclipse_campaign_flags_the_whole_clique() {
    for seed in SEEDS {
        let o = outcome(CampaignKind::Eclipse, seed);
        assert_eq!(o.report().check(), Ok(()), "seed {seed}");

        let flagged = severe_subjects(&o, checks::SCHEDULE);
        for member in &o.truth.cheaters {
            assert!(flagged.contains(member), "seed {seed}: clique member {member} slipped");
        }
        // The honest control victim's genuine crash-fallback must never
        // frame its beneficiary.
        for subject in &flagged {
            assert!(
                o.truth.cheaters.contains(subject),
                "seed {seed}: schedule verdict framed honest player {subject}"
            );
        }
    }
}

#[test]
fn per_campaign_slo_lines_parse_and_hold() {
    for kind in CampaignKind::ALL {
        let o = outcome(kind, SEEDS[0]);
        let line = o.report().to_string();
        let title = format!("campaign {}", kind.name());
        let labels = ["adversaries", "detected", "false_verdicts", "ttd_p99", "budget"];
        let [adversaries, detected, false_verdicts, ttd_p99, budget] =
            report::read(&line, &title, labels).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(adversaries, detected, "{line}");
        assert_eq!(false_verdicts, 0, "{line}");
        assert!(ttd_p99 <= budget, "{line}");
        assert_eq!(o.report().failing(), None, "{line}");

        // The same line fails on the figure a broken campaign breaks.
        let mut framed = o.quality.clone();
        framed.false_verdicts += 1;
        assert_eq!(kind.report(&framed).failing(), Some("false_verdicts"), "{line}");
    }
}

#[test]
fn campaign_soak_holds_across_seeds_and_workers() {
    let result = run_campaign_soak(&CampaignSoakConfig {
        runs_per_kind: 6,
        seed: 300,
        workers: 4,
        max_local: 4,
    });
    assert!(result.panics.is_empty(), "{:?}", result.panics);
    assert_eq!(result.outcomes.len(), 18);
    result.report().iter().try_for_each(Report::check).unwrap_or_else(|e| panic!("{e}"));
    for kind in CampaignKind::ALL {
        let q = result.quality_for(kind);
        assert_eq!(q.detected, q.injected, "{kind}");
        assert_eq!(q.false_verdicts, 0, "{kind}");
    }
}
