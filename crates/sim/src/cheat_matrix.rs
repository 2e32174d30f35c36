//! Table I: the cheat catalog, each row graded on the shipped node.
//!
//! Every detection row is a scripted replay of the workload through
//! secured nodes ([`crate::detection`]), read at the nodes' own severe
//! verdicts: the client-code-tampering and aimbot rows are Figure 6's
//! speed-hack and aim-snap replays, and the rate cheats are scripted the
//! same way — extra ticks (fast rate, flooding), withheld output (blind
//! opponent), silence then a jump (suppress-correct), held-back output
//! (time cheat) and a node that stops for good (escaping, graded by the
//! honest nodes' roster eviction). Each of these rows also reports the
//! severe verdicts its replay drew on honest players, beside the
//! unscripted replay's.
//!
//! The replay, spoofing and consistency rows hand one signed datagram, a
//! copy of it signed by another member, and a forked copy to a shipped
//! node and read its events. The Sybil-flood row drives the lobby's
//! admission throttle. The sniffing and maphack rows read one Figure 4
//! replay of the node with a lone eavesdropper ([`crate::disclosure`]):
//! the share of players it knows only coarsely, against Donnybrook's,
//! and how many of the fresh `State`s it held outside proxy duty were
//! about a player outside its PVS. Rate analysis counts, over every
//! replay above, how many `Subscribe`s reach their own target.

use std::borrow::Cow;
use std::collections::BTreeSet;

use watchmen_core::audit::{AuditKind, AuditRecord};
use watchmen_core::cheat::{CheatCategory, CheatKind, WatchmenResponse};
use watchmen_core::lobby::{key_tag, AdmitError, GameLobby};
use watchmen_core::msg::{Payload, SignedEnvelope};
use watchmen_core::node::NodeEvent;
use watchmen_core::rating::SEVERE_SCORE;
use watchmen_core::sans_io::{secured_cores, ProtocolCore};
use watchmen_core::verify::checks;
use watchmen_core::WatchmenConfig;
use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_game::trace::GameTrace;
use watchmen_game::{GameConfig, PlayerId};

use crate::detection::{escape_frames, run_script, Cheat, Count, Replay, MIN_SUCCESS};
use crate::disclosure::{run_disclosure, Architecture, DisclosureReport, InfoClass};
use crate::report::render_table;
use crate::workload::Workload;

/// One demonstrated Table I row.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// The cheat.
    pub kind: CheatKind,
    /// Its category.
    pub category: CheatCategory,
    /// Watchmen's designed response.
    pub response: WatchmenResponse,
    /// Whether the demo confirmed the response.
    pub demonstrated: bool,
    /// What the row measured on the node, where it counts something:
    /// scripted actions caught, for rate analysis the `Subscribe`s whose
    /// first hop was their own target, or for maphack the fresh `State`s
    /// about a player outside the holder's PVS.
    pub count: Option<Count>,
    /// What the demo did.
    pub note: String,
}

/// Hold lengths the time-cheat row tries, longest first, until one goes
/// uncaught.
const HOLDS: [u64; 3] = [10, 5, 2];

/// Whether a replay's scripted actions were caught, at Figure 6's bar.
fn caught(replay: &Replay) -> bool {
    replay.caught.of > 0 && replay.caught.rate() >= MIN_SUCCESS
}

/// `"epoch-summary caught 100% (2/2) of the scripted fast-rate actions;
/// position …"`: the expected check first, then every other check that
/// fired on the cheater, then the honest verdicts beside the unscripted
/// replay's.
fn caught_note(cheat: Cheat, replay: &Replay, unscripted: &Replay) -> String {
    let (check, label) = (cheat.check(), cheat.label());
    let mut note = format!("{check} caught {} of the scripted {label} actions", replay.caught);
    for (other, count) in replay.caught_by.iter().filter(|(c, _)| **c != check) {
        note += &format!("; {other} {count}");
    }
    note + "; " + &honest_note(replay, unscripted)
}

/// The severe verdicts `replay` drew on honest players, beside the
/// unscripted replay's.
fn honest_note(replay: &Replay, unscripted: &Replay) -> String {
    let (scripted, reference) = (replay.honest_severe(), unscripted.honest_severe());
    format!("honest severe verdicts {scripted} (unscripted {reference})")
}

/// The checks that fired on the cheater, for a row note.
fn fired_note(replay: &Replay) -> String {
    let fired: Vec<String> = replay.caught_by.iter().map(|(c, n)| format!("{c} {n}")).collect();
    if fired.is_empty() {
        "nothing severe".to_owned()
    } else {
        fired.join(", ")
    }
}

/// The Table I rows scripted on the node replay with one cheat each,
/// graded at the cheat's expected check.
const SCRIPTED: [(CheatKind, Cheat); 6] = [
    (CheatKind::NetworkFlooding, Cheat::Flood),
    (CheatKind::FastRate, Cheat::FastRate),
    (CheatKind::SuppressCorrect, Cheat::SuppressCorrect),
    (CheatKind::BlindOpponent, Cheat::Withhold),
    (CheatKind::ClientCodeTampering, Cheat::SpeedHack),
    (CheatKind::Aimbot, Cheat::AimSnap),
];

/// A row's outcome: demonstrated, what it counted, and its note.
type Outcome = (bool, Option<Count>, String);

/// Runs every Table I demonstration, one row per [`CheatKind::ALL`].
#[must_use]
pub fn run_cheat_matrix(workload: &Workload, config: &WatchmenConfig, seed: u64) -> Vec<MatrixRow> {
    let script = |cheat| run_script(workload, config, seed, cheat);
    let unscripted = script(Cheat::Hold(0));
    let escape = run_script(&escape_workload(workload, config, seed), config, seed, Cheat::Escape);
    let holds = time_cheat(&script);
    let scripted: Vec<(CheatKind, Cheat, Replay)> =
        SCRIPTED.into_iter().map(|(kind, cheat)| (kind, cheat, script(cheat))).collect();
    let wire = wire_checks(workload, config, seed);
    let exposure = run_disclosure(workload, Architecture::Watchmen, &[1], config, seed);
    let replays = [&unscripted, &escape]
        .into_iter()
        .chain(holds.iter().map(|(_, r)| r))
        .chain(scripted.iter().map(|(.., r)| r));
    let leak = replays.fold(Count::default(), |sum, r| {
        let c = r.subscribes;
        Count { hits: sum.hits + c.hits, of: sum.of + c.of }
    });

    let outcome = |kind: CheatKind| -> Outcome {
        match kind {
            CheatKind::Escaping => escape_row(&escape, &unscripted),
            CheatKind::TimeCheat => time_row(&holds, &unscripted),
            CheatKind::ReplayCheat => (
                wire.replay_flagged,
                None,
                "the addressee's node took a signed state once and flagged its byte replay".into(),
            ),
            CheatKind::Spoofing => (
                wire.spoof_rejected,
                None,
                "a state re-signed by another member drew BadSignature at the addressee's node"
                    .into(),
            ),
            CheatKind::ConsistencyCheat => (
                wire.fork_rejected,
                None,
                "a forked copy drew BadSignature; the original then delivered".into(),
            ),
            CheatKind::Sniffing => sniffing_row(
                &exposure,
                &run_disclosure(workload, Architecture::Donnybrook, &[1], config, seed),
            ),
            CheatKind::Maphack => maphack_row(&exposure),
            // A subscription should end at proxies, so a player never
            // learns who watches it; but a `Subscribe`'s first hop is the
            // subscriber's proxy, sometimes the target itself (ROADMAP
            // 5(d)).
            CheatKind::RateAnalysis => (
                leak.of > 0 && leak.hits == 0,
                Some(leak),
                format!("{leak} of the honest Subscribes had their own target as first hop"),
            ),
            CheatKind::SybilFlood => sybil_row(seed, config),
            _ => {
                let (_, cheat, replay) = scripted
                    .iter()
                    .find(|(k, ..)| *k == kind)
                    .expect("every other row is scripted");
                (caught(replay), Some(replay.caught), caught_note(*cheat, replay, &unscripted))
            }
        }
    };
    CheatKind::ALL
        .into_iter()
        .map(|kind| {
            let (demonstrated, count, note) = outcome(kind);
            MatrixRow {
                kind,
                category: kind.category(),
                response: kind.watchmen_response(),
                demonstrated,
                count,
                note,
            }
        })
        .collect()
}

/// Escaping: the node withholds the rate verdict on a silent player
/// (it may be crashing); what it does is evict it after the membership
/// timeout, and every honest node must.
fn escape_row(escape: &Replay, unscripted: &Replay) -> Outcome {
    let evicted = escape.caught;
    let note = format!(
        "{evicted} honest nodes evicted the escaper after the membership timeout; {}",
        honest_note(escape, unscripted)
    );
    (evicted.of > 0 && evicted.hits == evicted.of, Some(evicted), note)
}

/// Time cheat: the shortest hold the proxy's epoch summary catches.
fn time_row(holds: &[(u64, Replay)], unscripted: &Replay) -> Outcome {
    let shortest = holds.iter().filter(|(_, r)| caught(r)).map(|(k, _)| *k).min();
    let lead = shortest.map_or_else(
        || "no hold caught".to_owned(),
        |k| format!("shortest hold caught: {k} frames"),
    );
    let mut notes = vec![lead];
    notes.extend(holds.iter().map(|(k, r)| format!("{k}-frame hold: {}", fired_note(r))));
    let (_, longest) = holds.first().expect("at least one hold is played");
    notes.push(honest_note(longest, unscripted));
    (shortest.is_some(), Some(longest.caught), notes.join("; "))
}

/// Sniffing: exposure is minimized — a lone Watchmen eavesdropper holds
/// only coarse information about most players, far less than under
/// Donnybrook.
fn sniffing_row(watchmen: &DisclosureReport, donnybrook: &DisclosureReport) -> Outcome {
    let coarse = |r: &DisclosureReport| {
        r.fraction(1, InfoClass::Infrequent) + r.fraction(1, InfoClass::Nothing)
    };
    let (wm, db) = (coarse(watchmen), coarse(donnybrook));
    let note = format!(
        "share of players known only coarsely: watchmen {:.0}% vs donnybrook {:.0}%",
        wm * 100.0,
        db * 100.0
    );
    (wm > db, None, note)
}

/// Maphack: prevented only while a lone eavesdropper holds no fresh
/// `State` about a player outside its PVS that it does not proxy.
fn maphack_row(watchmen: &DisclosureReport) -> Outcome {
    let leak = watchmen.pvs_leak.expect("the Watchmen report measures the PVS leak");
    let note = format!(
        "fresh States a lone member held outside proxy duty about a player outside its PVS: \
         {leak}"
    );
    (leak.states.of > 0 && leak.states.hits == 0, Some(leak.states), note)
}

/// Sybil flood: the admission throttle, on the real lobby.
fn sybil_row(seed: u64, config: &WatchmenConfig) -> Outcome {
    let flood = sybil_flood(seed, config);
    let refused = flood.refused.len();
    let note =
        format!("{refused} over-rate identities refused, each with a severe admission verdict");
    match flood.check() {
        Ok(()) => (true, None, note),
        Err(e) => (false, None, e),
    }
}

/// `workload`, or when it ends before the escaper's eviction, a game on
/// its map with as many players, recorded at `seed` for long enough.
fn escape_workload<'a>(
    workload: &'a Workload,
    config: &WatchmenConfig,
    seed: u64,
) -> Cow<'a, Workload> {
    let frames = escape_frames(config);
    if workload.frames() as u64 >= frames {
        return Cow::Borrowed(workload);
    }
    let game = GameConfig { map: workload.map.clone(), ..GameConfig::default() };
    let trace = GameTrace::record(game, workload.players(), seed, frames);
    Cow::Owned(Workload { trace, map: workload.map.clone() })
}

/// The time-cheat replays, longest hold first, stopping after the first
/// hold the node does not catch.
fn time_cheat(script: &impl Fn(Cheat) -> Replay) -> Vec<(u64, Replay)> {
    let mut holds = Vec::new();
    for k in HOLDS {
        let replay = script(Cheat::Hold(k));
        let missed = !caught(&replay);
        holds.push((k, replay));
        if missed {
            break;
        }
    }
    holds
}

/// What the wire rows saw at the addressee's node.
struct WireChecks {
    replay_flagged: bool,
    spoof_rejected: bool,
    fork_rejected: bool,
}

/// Hands the addressee of player 1's first signed state, in order: the
/// same envelope signed by player 2, a copy whose position a relay moved,
/// the original, and the original again.
fn wire_checks(workload: &Workload, config: &WatchmenConfig, seed: u64) -> WireChecks {
    let n = workload.players();
    let keys: Vec<Keypair> = (0..n).map(|i| Keypair::generate(seed ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    let mut cores: Vec<ProtocolCore> =
        secured_cores(&keys, &directory, None, seed, *config, &workload.map).collect();
    let (publisher, mallory) = (PlayerId(1), PlayerId(2));
    let state = workload.trace.frames[0].states[publisher.index()];
    let sent = cores[publisher.index()].tick(0, &state).datagrams;
    let (msg, signed) = sent
        .iter()
        .find_map(|d| {
            let signed = SignedEnvelope::decode(&d.bytes).ok()?;
            matches!(signed.envelope.payload, Payload::State(_)).then_some((d, signed))
        })
        .expect("every node publishes its state each frame");

    let spoofed = signed.envelope.sign(&keys[mallory.index()]).encode();
    let mut forked = signed;
    if let Payload::State(update) = &mut forked.envelope.payload {
        update.position.x += 80.0;
    }
    let forked = forked.encode();

    let receiver = &mut cores[msg.to.index()];
    let mut events = |from: PlayerId, bytes: &[u8]| receiver.datagram(0, from, bytes).events;
    let bad = |events: &[NodeEvent]| {
        events.iter().any(
            |e| matches!(e, NodeEvent::BadSignature { claimed_from } if *claimed_from == publisher),
        )
    };
    let replayed =
        |events: &[NodeEvent]| events.iter().any(|e| matches!(e, NodeEvent::Replay { .. }));
    let spoof = events(mallory, &spoofed);
    let fork = events(publisher, &forked);
    let first = events(publisher, &msg.bytes);
    let second = events(publisher, &msg.bytes);
    WireChecks {
        replay_flagged: !replayed(&first) && replayed(&second),
        spoof_rejected: bad(&spoof),
        fork_rejected: bad(&fork) && !bad(&first) && !replayed(&first),
    }
}

/// Roster size the Sybil flood plays against.
const SYBIL_ROSTER: usize = 12;

/// What the Sybil flood did to the lobby.
#[derive(Debug, Clone)]
pub struct SybilFlood {
    /// [`key_tag`]s of the identities the throttle refused.
    pub refused: Vec<u32>,
    /// The lobby's audit stream.
    pub audit: Vec<AuditRecord>,
}

impl SybilFlood {
    /// The row's gate: at least eight identities refused, each with a
    /// severe `admission` verdict; no admission verdict on anyone else
    /// (the honest joiners before and after the flood stay clean); and
    /// the sustained pressure escalated to a score of 10.
    ///
    /// # Errors
    ///
    /// Names the first part that fails.
    pub fn check(&self) -> Result<(), String> {
        let admission = || {
            let verdicts = self.audit.iter().filter(|r| r.kind == AuditKind::Verdict);
            verdicts.filter(|r| r.check == checks::ADMISSION)
        };
        let flagged: BTreeSet<u32> =
            admission().filter(|r| r.score >= SEVERE_SCORE).map(|r| r.subject).collect();
        if self.refused.len() < 8 {
            return Err(format!("only {} identities refused", self.refused.len()));
        }
        if let Some(tag) = self.refused.iter().find(|t| !flagged.contains(t)) {
            return Err(format!("refused identity {tag:#010x} drew no severe verdict"));
        }
        if let Some(r) = admission().find(|r| !self.refused.contains(&r.subject)) {
            return Err(format!("admission verdict on {:#010x}, never refused", r.subject));
        }
        if !admission().any(|r| r.score == 10) {
            return Err("the flood never escalated to 10".to_owned());
        }
        Ok(())
    }
}

/// The Sybil flood on [`GameLobby::admit_midgame`]: one honest mid-game
/// join, then a burst of fresh identities retrying inside one admission
/// window, then an honest joiner after the window slides out. Identities
/// admitted within the allowance are indistinguishable from honest joins
/// (the throttle bounds rate, not intent); every one refused is recorded.
///
/// # Panics
///
/// Panics if the lobby refuses either honest joiner.
#[must_use]
pub fn sybil_flood(seed: u64, config: &WatchmenConfig) -> SybilFlood {
    let window = WatchmenConfig::ADMISSION_WINDOW_FRAMES;
    let allowance = WatchmenConfig::MAX_JOINS_PER_WINDOW as usize;
    let mut lobby = GameLobby::new(seed, *config, 60).with_keys(Keypair::generate(seed ^ 0xbee));
    for i in 0..SYBIL_ROSTER {
        lobby.register(Keypair::generate(seed * 100 + i as u64).public());
    }
    lobby.start();

    let honest_early = Keypair::generate(seed ^ 0x40e5).public();
    lobby.admit_midgame(honest_early, 10).expect("quiet lobby admits");

    let flood_frame = 10 + window + 10;
    let sybils: Vec<PublicKey> = (0..allowance + 8)
        .map(|i| Keypair::generate(seed * 1_000 + 7_000 + i as u64).public())
        .collect();
    let mut refused = Vec::new();
    for retry_frame in (flood_frame..flood_frame + window).step_by(window as usize / 4) {
        for key in &sybils {
            if refused.contains(&key_tag(key)) || lobby.players() >= WatchmenConfig::MAX_ROSTER {
                continue;
            }
            if let Err(AdmitError::Throttled { .. }) = lobby.admit_midgame(*key, retry_frame) {
                refused.push(key_tag(key));
            }
        }
    }
    // Refused identities keep retrying: sustained pressure the throttle
    // answers with rising scores.
    for key in sybils.iter().filter(|k| refused.contains(&key_tag(k))) {
        let _ = lobby.admit_midgame(*key, flood_frame + window / 2);
    }

    let honest_late = Keypair::generate(seed ^ 0x1a7e).public();
    lobby
        .admit_midgame(honest_late, flood_frame + 2 * window)
        .expect("admission recovers after the flood");
    SybilFlood { refused, audit: lobby.drain_audit() }
}

/// The Table I rows the node is known to leak: each is measured above
/// zero and never demonstrated. Rate analysis is ROADMAP 5(d): a
/// `Subscribe`'s first hop is the subscriber's proxy, which is its target
/// in about 1 / (n − 1) of them. Maphack is ROADMAP 5(f): the node never
/// unsubscribes, so a lone member keeps getting fresh `State`s about
/// players who left its PVS. Fixing a leak drops it from this list, and
/// [`check_rows`] then demands its row be demonstrated.
pub const KNOWN_LEAKS: [CheatKind; 2] = [CheatKind::RateAnalysis, CheatKind::Maphack];

/// Table I's gate: every catalog kind has exactly one row, every row is
/// demonstrated except the [`KNOWN_LEAKS`], and each known leak is
/// undemonstrated with a measured count above zero.
///
/// # Errors
///
/// Names the first row that fails, with its note.
pub fn check_rows(rows: &[MatrixRow]) -> Result<(), String> {
    if let Some(kind) =
        CheatKind::ALL.into_iter().find(|&k| rows.iter().filter(|r| r.kind == k).count() != 1)
    {
        return Err(format!("{kind}: not exactly one row"));
    }
    if rows.len() != CheatKind::ALL.len() {
        return Err(format!("{} rows for {} catalog kinds", rows.len(), CheatKind::ALL.len()));
    }
    for row in rows {
        let (kind, note) = (row.kind, &row.note);
        if !KNOWN_LEAKS.contains(&kind) {
            if !row.demonstrated {
                return Err(format!("{kind}: not demonstrated — {note}"));
            }
        } else if row.demonstrated {
            return Err(format!("{kind}: a known leak now demonstrated; drop it from KNOWN_LEAKS"));
        } else if row.count.is_none_or(|leak| leak.hits == 0) {
            return Err(format!("{kind}: a known leak not measured above zero — {note}"));
        }
    }
    Ok(())
}

/// Renders Table I with demo outcomes.
#[must_use]
pub fn format_cheat_matrix(rows: &[MatrixRow]) -> String {
    let header = ["cheat", "category", "watchmen response", "demonstrated", "demo"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kind.to_string(),
                r.category.to_string(),
                r.response.to_string(),
                if r.demonstrated { "yes".into() } else { "NO".into() },
                r.note.clone(),
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

    /// One Table I run shared by the tests.
    fn rows() -> &'static [MatrixRow] {
        static ROWS: OnceLock<Vec<MatrixRow>> = OnceLock::new();
        ROWS.get_or_init(|| {
            let w = standard_workload(12, 4, 120);
            run_cheat_matrix(&w, &WatchmenConfig::default(), 31)
        })
    }

    #[test]
    fn every_catalog_kind_has_a_demonstrated_row() {
        // Completeness: the matrix covers the full catalog, each row with
        // a demonstrated response but the known leaks, so a new
        // `CheatKind` cannot ship un-evaluated (this test fails until it
        // gets a demo).
        check_rows(rows()).unwrap_or_else(|e| panic!("{e}\n{}", format_cheat_matrix(rows())));
    }

    #[test]
    fn gate_names_the_row_that_broke() {
        let with = |kind: CheatKind, edit: fn(&mut MatrixRow)| {
            let mut rows = rows().to_vec();
            rows.iter_mut().filter(|r| r.kind == kind).for_each(edit);
            check_rows(&rows).unwrap_err()
        };
        let flipped = with(CheatKind::Aimbot, |r| r.demonstrated = false);
        assert!(flipped.starts_with("aimbot: not demonstrated"), "{flipped}");
        for leak in KNOWN_LEAKS {
            let zeroed = with(leak, |r| r.count = r.count.map(|c| Count { hits: 0, ..c }));
            assert!(zeroed.starts_with(&format!("{leak}: a known leak not measured")), "{zeroed}");
            let fixed = with(leak, |r| r.demonstrated = true);
            assert!(fixed.contains("drop it from KNOWN_LEAKS"), "{fixed}");
        }
        let missing = check_rows(&rows()[1..]).unwrap_err();
        assert!(missing.contains("not exactly one row"), "{missing}");
    }

    #[test]
    fn detection_rows_name_the_check_and_its_count() {
        for r in rows().iter().filter(|r| r.response == WatchmenResponse::Detected) {
            let Some(count) = r.count else { continue };
            assert!(count.of > 0 && count.hits == count.of, "{}: {}", r.kind, r.note);
            assert!(r.note.contains(&format!("({}/{})", count.hits, count.of)), "{}", r.note);
        }
        let row = |kind| rows().iter().find(|r| r.kind == kind).expect("every row");
        assert!(row(CheatKind::FastRate).note.starts_with(checks::EPOCH_SUMMARY));
        assert!(row(CheatKind::Escaping).note.contains("evicted the escaper"));
        assert!(row(CheatKind::TimeCheat).note.starts_with("shortest hold caught: "));
    }

    #[test]
    fn categories_match_taxonomy() {
        for r in rows() {
            assert_eq!(r.category, r.kind.category());
            assert_eq!(r.response, r.kind.watchmen_response());
        }
    }

    #[test]
    fn formatting_is_complete() {
        let s = format_cheat_matrix(rows());
        assert!(s.contains("aimbot"));
        assert!(s.contains("maphack"));
        // Only the known leaks are undemonstrated.
        assert_eq!(s.matches(" NO ").count(), KNOWN_LEAKS.len(), "{s}");
    }

    #[test]
    fn sybil_flood_gate_names_what_broke() {
        let flood = sybil_flood(11, &WatchmenConfig::default());
        assert_eq!(flood.check(), Ok(()));
        let mut framed = flood.clone();
        let verdict = flood.audit.iter().find(|r| r.check == checks::ADMISSION).expect("refusals");
        framed.audit.push(AuditRecord { subject: 7, ..verdict.clone() });
        assert!(framed.check().unwrap_err().contains("never refused"));
        let mut missed = flood;
        missed.refused.push(7);
        assert!(missed.check().unwrap_err().contains("no severe verdict"));
    }
}
