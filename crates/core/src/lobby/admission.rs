//! Admission: who may take a seat, and how fast.
//!
//! Matchmaking's half of the lobby: the durable cross-match ban list, the
//! roster cap, the sliding join-rate window that answers a Sybil flood,
//! and the lobby-signed [`JoinTicket`] a mid-game joiner enters under.
//! Every refusal but a full roster leaves a severe `admission` verdict in
//! the audit stream against the candidate's [`key_tag`].

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_game::PlayerId;
use watchmen_telemetry::TraceId;

use super::GameLobby;
use crate::audit::{AuditKind, AuditLog, AuditRecord, LOBBY_NODE};
use crate::msg::JoinTicket;
use crate::verify::checks;
use crate::WatchmenConfig;

/// Why a mid-game admission was refused. A refusal is the graceful
/// response to a [`crate::cheat::CheatKind::SybilFlood`]: the lobby
/// keeps running, the caller gets a typed reason, and over-rate attempts
/// leave `admission`-check records in the audit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The roster is at [`WatchmenConfig::MAX_ROSTER`]. Ids are dense
    /// and never recycled, so a full roster is permanent for the match.
    RosterFull {
        /// The cap that was hit ([`WatchmenConfig::MAX_ROSTER`]).
        max_roster: usize,
    },
    /// The sliding admission window's join allowance is exhausted.
    Throttled {
        /// The window length, in frames.
        window_frames: u64,
        /// Joins admitted per window.
        max_joins: u32,
        /// First frame at which the allowance frees up again.
        retry_at: u64,
    },
    /// The candidate's identity carries a durable cross-match ban (see
    /// [`GameLobby::with_banned_keys`]): a ban earned in one match
    /// blocks matchmaking in every later one.
    Banned {
        /// The refused identity's [`key_tag`].
        key_tag: u32,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::RosterFull { max_roster } => {
                write!(f, "roster full: at the {max_roster}-member cap")
            }
            AdmitError::Throttled { window_frames, max_joins, retry_at } => write!(
                f,
                "admission throttled: {max_joins} joins per {window_frames} frames \
                 exhausted, retry at frame {retry_at}"
            ),
            AdmitError::Banned { key_tag } => {
                write!(f, "identity {key_tag:08x} carries a durable cross-match ban")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// A stable 32-bit tag for a candidate identity that holds no dense id
/// (yet): the audit subject for refused admissions, derived from the
/// candidate's public key so ground-truth joins can name individual
/// Sybil identities without a roster slot.
#[must_use]
pub fn key_tag(key: &PublicKey) -> u32 {
    let k = key.to_u64();
    (k >> 32) as u32 ^ k as u32
}

/// The lobby's gate: the ban list, the join-rate window and the ticket
/// signing key, set through the [`GameLobby`] builder methods below.
#[derive(Debug, Default)]
pub(super) struct Admission {
    /// The lobby's signing keypair — required for mid-game admission
    /// tickets, absent in frozen-roster deployments.
    keys: Option<Keypair>,
    /// Identities (public-key scalars) carrying a durable cross-match
    /// ban, loaded from the reputation store at lobby creation. Both
    /// pre-match registration and mid-game admission refuse them.
    banned_keys: BTreeSet<u64>,
    /// Frames of recent *accepted* mid-game admissions, pruned to the
    /// sliding [`WatchmenConfig::ADMISSION_WINDOW_FRAMES`] window.
    admit_times: VecDeque<u64>,
    /// Frames of recent throttle refusals (for score escalation), pruned
    /// to the same window. Refusals never consume the join allowance.
    refusal_times: VecDeque<u64>,
}

impl GameLobby {
    /// Loads the durable cross-match ban list (identity scalars from the
    /// reputation store's banned set): both pre-match registration and
    /// mid-game admission refuse these identities with
    /// [`AdmitError::Banned`], so a ban earned in one match blocks
    /// matchmaking in every later one.
    #[must_use]
    pub fn with_banned_keys(mut self, banned: impl IntoIterator<Item = u64>) -> Self {
        self.admission.banned_keys = banned.into_iter().collect();
        self
    }

    /// Gives the lobby a signing keypair, enabling mid-game admission —
    /// every [`JoinTicket`] is signed under it and nodes verify joins
    /// against [`GameLobby::lobby_key`].
    #[must_use]
    pub fn with_keys(mut self, keys: Keypair) -> Self {
        self.admission.keys = Some(keys);
        self
    }

    /// The public half of the lobby's signing key, if one was configured.
    #[must_use]
    pub fn lobby_key(&self) -> Option<PublicKey> {
        self.admission.keys.as_ref().map(Keypair::public)
    }
}

impl Admission {
    /// Refuses `key` if its identity is on the durable ban list, leaving
    /// a score-10 `admission` verdict with `detail` at `frame`.
    pub(super) fn refuse_banned(
        &self,
        key: &PublicKey,
        frame: u64,
        detail: &str,
        audit: &mut AuditLog,
    ) -> Result<(), AdmitError> {
        if !self.banned_keys.contains(&key.to_u64()) {
            return Ok(());
        }
        let tag = key_tag(key);
        audit.push_with(|| AuditRecord {
            frame,
            node: LOBBY_NODE,
            subject: tag,
            kind: AuditKind::Verdict,
            check: checks::ADMISSION,
            score: 10,
            confidence: "store",
            trace: TraceId::NONE,
            detail: detail.to_string(),
        });
        Err(AdmitError::Banned { key_tag: tag })
    }

    /// Clears `key` for the mid-game seat `id` (the next dense index)
    /// requested at `frame` and issues its ticket, effective at the
    /// first renewal boundary a full period out — leaving the `Join`
    /// announcement one whole epoch to reach every veteran. Checks run
    /// ban list, roster cap, then throttle; an accepted admission takes
    /// one unit of the window's allowance.
    ///
    /// # Panics
    ///
    /// Panics if the lobby has no signing keys.
    pub(super) fn admit(
        &mut self,
        key: PublicKey,
        id: PlayerId,
        frame: u64,
        config: &WatchmenConfig,
        audit: &mut AuditLog,
    ) -> Result<JoinTicket, AdmitError> {
        let keys = self.keys.as_ref().expect("lobby has no signing keys");
        let detail = "mid-game admission refused: durable cross-match ban";
        self.refuse_banned(&key, frame, detail, audit)?;
        if id.index() >= WatchmenConfig::MAX_ROSTER {
            return Err(AdmitError::RosterFull { max_roster: WatchmenConfig::MAX_ROSTER });
        }
        let window = WatchmenConfig::ADMISSION_WINDOW_FRAMES;
        let max_joins = WatchmenConfig::MAX_JOINS_PER_WINDOW;
        while self.admit_times.front().is_some_and(|&t| t + window <= frame) {
            self.admit_times.pop_front();
        }
        while self.refusal_times.front().is_some_and(|&t| t + window <= frame) {
            self.refusal_times.pop_front();
        }
        if self.admit_times.len() >= max_joins as usize {
            self.refusal_times.push_back(frame);
            let refusals = self.refusal_times.len() as u64;
            // First refusal in a window is already severe (6); a
            // sustained flood escalates toward 10.
            let score = (5 + refusals).min(10) as u8;
            let retry_at = self.admit_times.front().map_or(frame, |&t| t + window);
            let subject = key_tag(&key);
            audit.push_with(|| AuditRecord {
                frame,
                node: LOBBY_NODE,
                subject,
                kind: AuditKind::Verdict,
                check: checks::ADMISSION,
                score,
                confidence: "lobby",
                trace: TraceId::NONE,
                detail: format!(
                    "join rate {}/{window} frames exceeded; refusal {refusals} in window",
                    max_joins
                ),
            });
            return Err(AdmitError::Throttled { window_frames: window, max_joins, retry_at });
        }
        self.admit_times.push_back(frame);
        let period = config.proxy_period;
        let admit_frame = (frame.div_ceil(period) + 1) * period;
        Ok(JoinTicket::issue(keys, id, key, admit_frame))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{lobby_with, lobby_with_keys};
    use super::super::LobbyEvent;
    use super::*;
    use crate::rating::{CheatRating, Confidence, SEVERE_SCORE};
    use crate::roster::{MemberStatus, Roster, RosterDelta};

    #[test]
    #[should_panic(expected = "no signing keys")]
    fn midgame_admission_requires_lobby_keys() {
        let mut lobby = lobby_with(4);
        let _ = lobby.admit_midgame(Keypair::generate(99).public(), 70);
    }

    #[test]
    fn full_roster_refuses_flood_without_panic() {
        // Regression: a full roster used to be an `assert!`, so a Sybil
        // flood against a full lobby crashed the match host. Now every
        // attempt gets a typed refusal and the lobby keeps running.
        let cap = WatchmenConfig::MAX_ROSTER;
        let mut lobby = lobby_with_keys(cap - 2);
        for i in 0..2u64 {
            lobby
                .admit_midgame(Keypair::generate(10_000 + i).public(), 10 + i)
                .expect("room for two more");
        }
        assert_eq!(lobby.players(), cap);
        let epoch_at_cap = lobby.roster_epoch();
        for i in 0..50u64 {
            let err = lobby
                .admit_midgame(Keypair::generate(20_000 + i).public(), 20 + i)
                .expect_err("roster is full");
            assert_eq!(err, AdmitError::RosterFull { max_roster: cap });
        }
        // Nothing changed, and full-roster refusals are not audited —
        // honest players hit full rosters too.
        assert_eq!(lobby.players(), cap);
        assert_eq!(lobby.roster_epoch(), epoch_at_cap);
        assert!(lobby.drain_audit().is_empty());
    }

    #[test]
    fn admission_burst_is_throttled_with_escalating_audit() {
        let mut lobby = lobby_with_keys(4);
        let window = WatchmenConfig::ADMISSION_WINDOW_FRAMES;
        let allowance = WatchmenConfig::MAX_JOINS_PER_WINDOW;
        assert_eq!((window, allowance), (40, 4));

        // A burst of ten fresh identities at one frame: the allowance
        // admits four, the rest are refused with a retry hint.
        let mut refused_tags = Vec::new();
        for i in 0..10u64 {
            let key = Keypair::generate(200 + i).public();
            match lobby.admit_midgame(key, 50) {
                Ok((id, _, _)) => assert!(i < u64::from(allowance), "admitted {id:?} at {i}"),
                Err(AdmitError::Throttled { window_frames, max_joins, retry_at }) => {
                    assert_eq!(window_frames, window);
                    assert_eq!(max_joins, allowance);
                    assert_eq!(retry_at, 50 + window);
                    refused_tags.push(key_tag(&key));
                }
                Err(other) => panic!("unexpected {other}"),
            }
        }
        assert_eq!(lobby.players(), 8);
        assert_eq!(refused_tags.len(), 6);

        // One severe admission verdict per refusal, escalating with the
        // flood, attributed to the candidate key — not a roster id.
        let audit: Vec<AuditRecord> = lobby.drain_audit();
        assert_eq!(audit.len(), 6);
        for (record, tag) in audit.iter().zip(&refused_tags) {
            assert_eq!(record.kind, AuditKind::Verdict);
            assert_eq!(record.check, checks::ADMISSION);
            assert_eq!(record.node, LOBBY_NODE);
            assert_eq!(record.subject, *tag);
            assert!(record.score >= SEVERE_SCORE, "severe from the first refusal: {record:?}");
        }
        assert!(audit.windows(2).all(|w| w[0].score <= w[1].score), "escalates");
        assert_eq!(audit.last().expect("six records").score, 10);

        // Refusals never consume the allowance: once the window slides
        // past the burst, a patient joiner gets in.
        let late = Keypair::generate(300).public();
        assert!(lobby.admit_midgame(late, 50 + window).is_ok());
    }

    #[test]
    fn banned_key_is_refused_at_registration_and_midgame() {
        let banned_pair = Keypair::generate(66);
        let banned_key = banned_pair.public();
        let mut lobby = GameLobby::new(7, WatchmenConfig::default(), 60)
            .with_keys(Keypair::generate(777))
            .with_banned_keys([banned_key.to_u64()]);

        // Pre-match: the typed path refuses, the panicking path panics.
        let err = lobby.try_register(banned_key).expect_err("banned at registration");
        assert_eq!(err, AdmitError::Banned { key_tag: key_tag(&banned_key) });
        for i in 0..4 {
            lobby.register(Keypair::generate(i).public());
        }
        lobby.start();

        // Mid-game: same refusal; clean identities still get in.
        let err = lobby.admit_midgame(banned_key, 50).expect_err("banned mid-game");
        assert_eq!(err, AdmitError::Banned { key_tag: key_tag(&banned_key) });
        assert!(lobby.admit_midgame(Keypair::generate(99).public(), 50).is_ok());
        assert_eq!(lobby.players(), 5);

        // Both refusals audited at maximum severity against the key tag.
        let audit: Vec<AuditRecord> = lobby.drain_audit();
        assert_eq!(audit.len(), 2);
        for record in &audit {
            assert_eq!(record.kind, AuditKind::Verdict);
            assert_eq!(record.check, checks::ADMISSION);
            assert_eq!(record.subject, key_tag(&banned_key));
            assert_eq!(record.score, 10);
            assert_eq!(record.confidence, "store");
        }
    }

    #[test]
    #[should_panic(expected = "identity admissible")]
    fn register_panics_on_banned_key() {
        let key = Keypair::generate(66).public();
        let mut lobby =
            GameLobby::new(7, WatchmenConfig::default(), 60).with_banned_keys([key.to_u64()]);
        let _ = lobby.register(key);
    }

    #[test]
    fn admission_interleavings_preserve_roster_invariants() {
        // Property (JoinTicket admission): across randomized interleavings
        // of joins, leaves, bans, timeouts and throttled floods —
        //   * the roster fills up to MAX_ROSTER and never beyond it,
        //   * every admitted id is the next dense index, never reused,
        //   * every ticket verifies against the lobby key,
        //   * a replica Roster applying the deltas every node applies
        //     (joins and leaves; bans and timeouts are the lobby's own)
        //     converges to the lobby's snapshot digest within the same
        //     epoch.
        for seed in 0..30u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xABCD);
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut lobby = GameLobby::new(seed, WatchmenConfig::default(), 60)
                .with_keys(Keypair::generate(9_000 + seed));
            // A few ids short of the cap, so every seed's joins run into
            // it while leaves, bans and timeouts go on around them.
            let n = WatchmenConfig::MAX_ROSTER - 4 - (next() % 3) as usize;
            let mut replica_keys = Vec::new();
            for i in 0..n {
                let key = Keypair::generate(seed * 1_000 + i as u64).public();
                lobby.register(key);
                replica_keys.push(key);
            }
            lobby.start();
            let mut replica = Roster::new(replica_keys);
            let lobby_key = lobby.lobby_key().expect("keys");

            let mut issued = std::collections::BTreeSet::new();
            let mut fresh_key: u64 = 1_000_000; // clear of every founder key
            let mut refused_full = 0;
            for frame in (0..600u64).step_by(20) {
                // Keep live members heartbeating unless the dice evict one.
                for p in lobby.snapshot_roster().active_players() {
                    match next() % 12 {
                        0 => {
                            lobby.leave(p, frame);
                            replica.apply(&[RosterDelta::Leave { player: p }]);
                        }
                        1 if p != PlayerId(0) => {
                            for _ in 0..35 {
                                lobby.report(
                                    PlayerId(0),
                                    p,
                                    &CheatRating::new(10, Confidence::Proxy, 0),
                                );
                            }
                            lobby.heartbeat(p, frame);
                        }
                        2 => {} // silent: may time out into an eviction
                        _ => lobby.heartbeat(p, frame),
                    }
                }
                // A join attempt most rounds; occasionally a burst.
                let attempts = if next() % 5 == 0 { 6 } else { 1 };
                for _ in 0..attempts {
                    fresh_key += 1;
                    let key = Keypair::generate(fresh_key).public();
                    let before = lobby.players();
                    match lobby.admit_midgame(key, frame) {
                        Ok((id, ticket, snapshot)) => {
                            assert_eq!(id.index(), before, "seed {seed}: dense id");
                            assert!(issued.insert(id), "seed {seed}: id {id:?} reused");
                            assert!(ticket.verify(&lobby_key), "seed {seed}: bad ticket");
                            assert_eq!(snapshot.status(id), Some(MemberStatus::Joining));
                            replica.apply(&[RosterDelta::Join { player: id, key }]);
                        }
                        Err(AdmitError::RosterFull { max_roster }) => {
                            assert_eq!(before, max_roster, "seed {seed}");
                            refused_full += 1;
                        }
                        Err(AdmitError::Throttled { retry_at, .. }) => {
                            assert!(retry_at > frame, "seed {seed}");
                        }
                        Err(AdmitError::Banned { .. }) => {
                            panic!("seed {seed}: no ban list configured")
                        }
                    }
                }
                for ev in lobby.tick(frame) {
                    let (LobbyEvent::Banned(p) | LobbyEvent::Disconnected(p)) = ev;
                    assert!(lobby.snapshot_roster().is_active(p), "seed {seed}: {p} had left");
                }

                assert!(lobby.players() <= WatchmenConfig::MAX_ROSTER, "seed {seed}: overflow");
                assert_eq!(lobby.roster_epoch(), replica.epoch(), "seed {seed} frame {frame}");
                assert_eq!(
                    lobby.snapshot_roster().digest(),
                    replica.digest(),
                    "seed {seed} frame {frame}: replica diverged"
                );
            }
            assert_eq!(issued.len() + n, WatchmenConfig::MAX_ROSTER, "seed {seed}: cap not filled");
            assert!(refused_full > 0, "seed {seed}: never refused at the cap");
        }
    }
}
