//! The game lobby: access management, key distribution and punishment.
//!
//! The paper assumes "popular game networks (e.g., XBox Live, PSN) and the
//! concept of game lobbies allow players across the world to connect", and
//! routes punishment through it: detection reports "can be collected by …
//! a centralized game lobby that manages access and logins and can thus
//! ban the players". In the hybrid architecture the game server "provid\[es\]
//! the game lobby".
//!
//! [`GameLobby`] is that component: it registers players (public keys),
//! freezes the roster into the shared seed + key directory every
//! [`crate::node::WatchmenNode`] needs, collects verification reports into
//! a pluggable reputation system, tracks liveness, and admits mid-game
//! joiners through its `admission` gate (the ban list, the roster cap,
//! the join-rate window and ticket issue).
//!
//! Its membership is a [`Roster`], the type every node holds, advanced
//! only by the deltas every node also applies: a `Join` per mid-game
//! admission and a `Leave` per graceful departure. A joiner's snapshot is
//! that roster plus the joiner itself. Bans and heartbeat timeouts are the
//! lobby's own — no node applies either — so they stay out of the roster
//! and surface as [`LobbyEvent`]s, `Ban` audit records and
//! [`GameLobby::match_outcomes`]. A ban denies admission and outlives the
//! match through the durable store, which refuses the identity at every
//! later registration; it does not eject the player from the match in
//! progress.

mod admission;

use std::collections::BTreeSet;

use watchmen_crypto::schnorr::PublicKey;
use watchmen_game::PlayerId;
use watchmen_telemetry::TraceId;

use crate::audit::{AuditKind, AuditLog, AuditRecord, LOBBY_NODE};
use crate::membership::MembershipTracker;
use crate::msg::JoinTicket;
use crate::rating::CheatRating;
use crate::reputation::ThresholdReputation;
use crate::roster::{Roster, RosterDelta};
use crate::WatchmenConfig;

use admission::Admission;
pub use admission::{key_tag, AdmitError};

/// Events produced by [`GameLobby::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LobbyEvent {
    /// The reputation system crossed the ban threshold for a player.
    Banned(PlayerId),
    /// A player fell silent beyond the heartbeat timeout.
    Disconnected(PlayerId),
}

/// A game lobby for one match. Registration happens before the match
/// starts; the roster then changes only by mid-game admissions and
/// graceful leaves.
///
/// # Examples
///
/// ```
/// use watchmen_core::lobby::GameLobby;
/// use watchmen_core::WatchmenConfig;
/// use watchmen_crypto::schnorr::Keypair;
///
/// let mut lobby = GameLobby::new(42, WatchmenConfig::default(), 60);
/// let alice = lobby.register(Keypair::generate(1).public());
/// let bob = lobby.register(Keypair::generate(2).public());
/// lobby.start();
/// assert_eq!(lobby.snapshot_roster().active_players(), [alice, bob]);
/// assert_eq!(lobby.directory().len(), 2);
/// ```
#[derive(Debug)]
pub struct GameLobby {
    seed: u64,
    config: WatchmenConfig,
    /// The registered keys, frozen at [`GameLobby::start`]: what every
    /// founding node receives.
    directory: Vec<PublicKey>,
    /// The match's membership from `start` on; `None` before.
    roster: Option<Roster>,
    /// Players the lobby banned or timed out, which no roster holds.
    /// Each emitted its one [`LobbyEvent`] on entry.
    ejected: BTreeSet<PlayerId>,
    membership: Option<MembershipTracker>,
    reputation: ThresholdReputation,
    heartbeat_timeout: u64,
    admission: Admission,
    /// The lobby's slice of the verdict audit stream: one record per ban
    /// decision or admission refusal, drained via
    /// [`GameLobby::drain_audit`].
    audit: AuditLog,
}

impl GameLobby {
    /// Creates a lobby for a match derived from `seed`, with the given
    /// heartbeat timeout in frames.
    ///
    /// # Panics
    ///
    /// Panics if `heartbeat_timeout == 0`.
    #[must_use]
    pub fn new(seed: u64, config: WatchmenConfig, heartbeat_timeout: u64) -> Self {
        assert!(heartbeat_timeout > 0);
        // The paper's "simplest form" of reputation, calibrated by the
        // config knobs (defaults: ban below 85% acceptable after 30
        // reports, tuned for a ≤5% false-positive detector).
        let reputation =
            ThresholdReputation::new(0, config.reputation_threshold, config.reputation_min_reports);
        GameLobby {
            seed,
            config,
            directory: Vec::new(),
            roster: None,
            ejected: BTreeSet::new(),
            membership: None,
            reputation,
            heartbeat_timeout,
            admission: Admission::default(),
            audit: AuditLog::default(),
        }
    }

    /// The epoch of the lobby's roster: the `Join` and `Leave` deltas it
    /// has applied, which every node applies too.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    #[must_use]
    pub fn roster_epoch(&self) -> u64 {
        self.roster().epoch()
    }

    /// Registers a player's public key, returning their id for this match.
    ///
    /// # Panics
    ///
    /// Panics if the match has already started, or if the identity
    /// carries a durable cross-match ban (use
    /// [`GameLobby::try_register`] for the non-panicking form).
    pub fn register(&mut self, key: PublicKey) -> PlayerId {
        self.try_register(key).expect("identity admissible")
    }

    /// Registers a player's public key, refusing identities on the
    /// durable cross-match ban list with a typed error. Every refusal
    /// leaves a severe `admission` verdict in the audit stream against
    /// the candidate's [`key_tag`].
    ///
    /// # Errors
    ///
    /// [`AdmitError::Banned`] when the identity is on the list loaded
    /// via [`GameLobby::with_banned_keys`].
    ///
    /// # Panics
    ///
    /// Panics if the match has already started.
    pub fn try_register(&mut self, key: PublicKey) -> Result<PlayerId, AdmitError> {
        assert!(self.roster.is_none(), "roster frozen after start");
        let detail = "registration refused: durable cross-match ban";
        self.admission.refuse_banned(&key, 0, detail, &mut self.audit)?;
        let id = PlayerId(self.directory.len() as u32);
        self.directory.push(key);
        Ok(id)
    }

    /// Freezes the directory into the founding roster and starts the
    /// heartbeat and reputation trackers.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two players registered, or called twice.
    pub fn start(&mut self) {
        assert!(self.roster.is_none(), "already started");
        let n = self.directory.len();
        self.roster = Some(Roster::new(self.directory.clone()));
        self.membership = Some(MembershipTracker::new(n, self.heartbeat_timeout));
        self.reputation = ThresholdReputation::new(
            n,
            self.config.reputation_threshold,
            self.config.reputation_min_reports,
        );
    }

    /// The frozen public-key directory (what every founding node
    /// receives).
    #[must_use]
    pub fn directory(&self) -> &[PublicKey] {
        &self.directory
    }

    /// The shared match seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of players registered or admitted (ids are dense and never
    /// recycled).
    #[must_use]
    pub fn players(&self) -> usize {
        self.roster.as_ref().map_or(self.directory.len(), Roster::len)
    }

    fn roster(&self) -> &Roster {
        self.roster.as_ref().expect("lobby not started")
    }

    /// Records traffic from a player (heartbeat).
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    pub fn heartbeat(&mut self, player: PlayerId, frame: u64) {
        self.membership.as_mut().expect("lobby not started").observe(player, frame);
    }

    /// Feeds one verification report into the reputation system. The
    /// reporter is not weighed: the threshold rule counts reports.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    pub fn report(&mut self, _reporter: PlayerId, subject: PlayerId, rating: &CheatRating) {
        assert!(self.roster.is_some(), "lobby not started");
        self.reputation.report(subject, rating);
    }

    /// The reputation system's current suspicion for a player.
    #[must_use]
    pub fn suspicion(&self, player: PlayerId) -> f64 {
        self.reputation.suspicion(player)
    }

    /// The match's aggregated `(identity, acceptable, failed)` outcome
    /// per player — what the durable reputation store (`watchmen-store`)
    /// persists at match end via its `note_outcome`. Identities are the
    /// public-key scalars, stable across matches.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    #[must_use]
    pub fn match_outcomes(&self) -> Vec<(u64, u64, u64)> {
        let roster = self.roster();
        (0..roster.len())
            .map(|i| {
                let player = PlayerId(i as u32);
                let key = roster.key(player).expect("dense ids");
                let (ok, failed) = self.reputation.counts(player);
                (key.to_u64(), ok, failed)
            })
            .collect()
    }

    /// Advances lobby housekeeping to `frame`: reports each member the
    /// reputation system newly bans, then each member newly silent
    /// beyond the heartbeat timeout — one event per player, ever.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    pub fn tick(&mut self, frame: u64) -> Vec<LobbyEvent> {
        let roster = self.roster.as_ref().expect("lobby not started");
        let membership = self.membership.as_mut().expect("started");
        let mut events = Vec::new();

        // Bans first: the lobby "manages access and logins and can thus
        // ban the players".
        for player in self.reputation.banned_players() {
            if roster.is_active(player) && self.ejected.insert(player) {
                let suspicion = self.reputation.suspicion(player);
                self.audit.push_with(|| AuditRecord {
                    frame,
                    node: LOBBY_NODE,
                    subject: player.0,
                    kind: AuditKind::Ban,
                    check: "",
                    score: 0,
                    confidence: "",
                    trace: TraceId::NONE,
                    detail: format!("suspicion={suspicion:.3}"),
                });
                events.push(LobbyEvent::Banned(player));
            }
        }

        for player in membership.suspects(frame) {
            membership.remove_at(player, frame);
            if roster.is_active(player) && self.ejected.insert(player) {
                events.push(LobbyEvent::Disconnected(player));
            }
        }
        events
    }

    /// Drains the lobby's slice of the verdict audit stream (one record
    /// per ban decision or admission refusal), oldest first.
    pub fn drain_audit(&mut self) -> Vec<crate::audit::AuditRecord> {
        self.audit.drain()
    }

    /// Turns the lobby's audit recording on (the default) or off.
    pub fn set_audit_enabled(&mut self, enabled: bool) {
        self.audit.set_enabled(enabled);
    }

    /// Players in good standing: active in the roster, and neither banned
    /// nor timed out by the lobby.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    #[must_use]
    pub fn active_players(&self) -> Vec<PlayerId> {
        let mut active = self.roster().active_players();
        active.retain(|p| !self.ejected.contains(p));
        active
    }

    /// Records a graceful mid-match departure announced at `frame`: the
    /// roster applies the player's `Leave`, as every node does at the
    /// first boundary a full period out, and the player drops out of the
    /// heartbeat check from that boundary on. A no-op for players not
    /// active in the roster.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    pub fn leave(&mut self, player: PlayerId, frame: u64) {
        let roster = self.roster.as_mut().expect("lobby not started");
        if roster.apply(&[RosterDelta::Leave { player }]) == 0 {
            return;
        }
        let period = self.config.proxy_period;
        let effective = (frame.div_ceil(period) + 1) * period;
        self.membership.as_mut().expect("started").remove_at(player, effective);
    }

    /// Admits a player mid-match: assigns the next dense id, issues a
    /// lobby-signed [`JoinTicket`] effective at the first renewal
    /// boundary a full period after `frame` (leaving the `Join`
    /// announcement one whole epoch to reach every veteran), applies the
    /// `Join` to the lobby's roster, and returns the snapshot the joiner
    /// boots from: the roster before the join, plus the joiner as a
    /// provisional entry. The joiner's own `Join` bumps the snapshot's
    /// epoch at the admission boundary in lockstep with the veterans.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Banned`] when the identity carries a durable
    /// cross-match ban (audited at score 10 against the key's
    /// [`key_tag`]), [`AdmitError::RosterFull`] once [`WatchmenConfig::max_roster`]
    /// dense ids have been handed out (silent — honest players hit full
    /// rosters too), and [`AdmitError::Throttled`] when more than
    /// [`WatchmenConfig::max_joins_per_window`] admissions land inside
    /// one [`WatchmenConfig::admission_window_frames`] window — the
    /// Sybil-flood backstop. Each throttled attempt emits a severe
    /// [`crate::verify::checks::ADMISSION`] audit verdict against the
    /// candidate key's [`key_tag`], escalating as the flood persists;
    /// refusals never consume the join allowance, so a patient honest
    /// joiner retries successfully at the reported frame.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started or the lobby has no signing
    /// keys ([`GameLobby::with_keys`]).
    pub fn admit_midgame(
        &mut self,
        key: PublicKey,
        frame: u64,
    ) -> Result<(PlayerId, JoinTicket, Roster), AdmitError> {
        let roster = self.roster.as_mut().expect("lobby not started");
        let id = PlayerId(roster.len() as u32);
        let ticket = self.admission.admit(key, id, frame, &self.config, &mut self.audit)?;
        let mut snapshot = roster.clone();
        assert_eq!(snapshot.admit_provisional(key), id, "dense id");
        roster.apply(&[RosterDelta::Join { player: id, key }]);
        self.membership.as_mut().expect("started").admit(ticket.admit_frame);
        self.reputation.admit_player();
        Ok((id, ticket, snapshot))
    }

    /// The lobby's roster (without any provisional joiner entry).
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    #[must_use]
    pub fn snapshot_roster(&self) -> Roster {
        self.roster().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rating::{CheatRating, Confidence};
    use crate::roster::MemberStatus;
    use watchmen_crypto::schnorr::Keypair;

    pub(super) fn lobby_with(n: usize) -> GameLobby {
        let mut lobby = GameLobby::new(7, WatchmenConfig::default(), 60);
        for i in 0..n {
            lobby.register(Keypair::generate(i as u64).public());
        }
        lobby.start();
        lobby
    }

    pub(super) fn lobby_with_keys(n: usize) -> GameLobby {
        let mut lobby =
            GameLobby::new(7, WatchmenConfig::default(), 60).with_keys(Keypair::generate(777));
        for i in 0..n {
            lobby.register(Keypair::generate(i as u64).public());
        }
        lobby.start();
        lobby
    }

    #[test]
    fn registration_assigns_sequential_ids() {
        let mut lobby = GameLobby::new(1, WatchmenConfig::default(), 60);
        let a = lobby.register(Keypair::generate(1).public());
        let b = lobby.register(Keypair::generate(2).public());
        assert_eq!(a, PlayerId(0));
        assert_eq!(b, PlayerId(1));
        assert_eq!(lobby.players(), 2);
        lobby.start();
        assert_eq!(lobby.directory().len(), 2);
        assert_eq!(lobby.seed(), 1);
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn late_registration_panics() {
        let mut lobby = lobby_with(4);
        lobby.register(Keypair::generate(99).public());
    }

    #[test]
    fn ban_flow_emits_one_event() {
        let mut lobby = lobby_with(6);
        let cheater = PlayerId(2);
        for frame in (0..=100).step_by(20) {
            for p in 0..6 {
                lobby.heartbeat(PlayerId(p), frame);
            }
        }
        for _ in 0..40 {
            lobby.report(PlayerId(0), cheater, &CheatRating::new(10, Confidence::Proxy, 0));
        }
        let events = lobby.tick(100);
        assert!(events.contains(&LobbyEvent::Banned(cheater)), "{events:?}");
        assert_eq!(lobby.active_players().len(), 5);
        // Idempotent: no duplicate events.
        assert!(lobby.tick(101).is_empty());
    }

    #[test]
    fn honest_reports_do_not_ban() {
        let mut lobby = lobby_with(4);
        for _ in 0..100 {
            lobby.report(PlayerId(0), PlayerId(1), &CheatRating::clean(Confidence::Proxy));
        }
        assert!(lobby.tick(50).is_empty());
        assert!(lobby.active_players().contains(&PlayerId(1)));
        assert_eq!(lobby.suspicion(PlayerId(1)), 0.0);
    }

    #[test]
    fn disconnect_flow_times_out_the_silent_player() {
        let mut lobby = lobby_with(5);
        // Everyone except player 3 heartbeats.
        let mut events = Vec::new();
        for frame in (0..200).step_by(10) {
            for p in [0u32, 1, 2, 4] {
                lobby.heartbeat(PlayerId(p), frame);
            }
            events.extend(lobby.tick(frame));
        }
        assert_eq!(events, [LobbyEvent::Disconnected(PlayerId(3))]);
        assert_eq!(lobby.active_players(), [0, 1, 2, 4].map(PlayerId));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn solo_lobby_cannot_start() {
        let mut lobby = GameLobby::new(1, WatchmenConfig::default(), 60);
        lobby.register(Keypair::generate(1).public());
        lobby.start();
    }

    #[test]
    fn golden_register_start_heartbeat_tick() {
        // Fixed scenario, exact expected outcome: four players; player 2
        // falls silent after frame 40, player 3 draws a pile of proxy
        // reports at frame 60. The full event log must be exactly one ban
        // followed by one disconnect, at deterministic frames.
        let mut lobby = GameLobby::new(7, WatchmenConfig::default(), 60);
        let ids: Vec<PlayerId> =
            (0..4).map(|i| lobby.register(Keypair::generate(i).public())).collect();
        assert_eq!(ids, (0..4).map(PlayerId).collect::<Vec<_>>());
        lobby.start();

        let mut log = Vec::new();
        for frame in (0..=200u64).step_by(20) {
            for p in [0u32, 1, 3] {
                lobby.heartbeat(PlayerId(p), frame);
            }
            if frame <= 40 {
                lobby.heartbeat(PlayerId(2), frame);
            }
            if frame == 60 {
                for _ in 0..35 {
                    lobby.report(
                        PlayerId(0),
                        PlayerId(3),
                        &CheatRating::new(10, Confidence::Proxy, 0),
                    );
                }
            }
            for ev in lobby.tick(frame) {
                log.push((frame, ev));
            }
        }

        // Ban lands the same tick the reports arrive; the disconnect
        // fires once player 2 has been silent a full timeout (last seen
        // 40, timeout 60 → suspect at exactly frame 100).
        assert_eq!(
            log,
            vec![
                (60, LobbyEvent::Banned(PlayerId(3))),
                (100, LobbyEvent::Disconnected(PlayerId(2))),
            ]
        );
        assert_eq!(lobby.active_players(), vec![PlayerId(0), PlayerId(1)]);
        // No node applies a lobby ban or a lobby timeout: the roster
        // keeps both players and its founding epoch.
        assert_eq!(lobby.roster_epoch(), 0);
    }

    #[test]
    fn active_players_consistent_with_events() {
        // Property: across randomized churn scripts, the active set always
        // equals the registered roster minus exactly the players named in
        // emitted events and explicit leave() calls — no duplicate events,
        // no phantom departures, no resurrections.
        for seed in 0..40u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let n = 4 + (next() % 5) as usize;
            let mut lobby = GameLobby::new(seed, WatchmenConfig::default(), 60)
                .with_keys(Keypair::generate(1000 + seed));
            for i in 0..n {
                lobby.register(Keypair::generate(seed * 100 + i as u64).public());
            }
            lobby.start();

            let mut departed = std::collections::BTreeSet::new();
            for frame in (0..400u64).step_by(20) {
                for p in (0..lobby.players()).map(|i| PlayerId(i as u32)) {
                    if departed.contains(&p) {
                        continue;
                    }
                    match next() % 10 {
                        0 => {
                            lobby.leave(p, frame);
                            departed.insert(p);
                        }
                        1 => {
                            for _ in 0..35 {
                                lobby.report(
                                    PlayerId(0),
                                    p,
                                    &CheatRating::new(10, Confidence::Proxy, 0),
                                );
                            }
                        }
                        2 => {} // silent this round
                        _ => lobby.heartbeat(p, frame),
                    }
                }
                for ev in lobby.tick(frame) {
                    let (LobbyEvent::Banned(p) | LobbyEvent::Disconnected(p)) = ev;
                    assert!(departed.insert(p), "seed {seed}: duplicate event for {p}");
                }
                let expected: Vec<PlayerId> = (0..lobby.players())
                    .map(|i| PlayerId(i as u32))
                    .filter(|p| !departed.contains(p))
                    .collect();
                assert_eq!(lobby.active_players(), expected, "seed {seed} frame {frame}");
            }
        }
    }

    #[test]
    fn graceful_leave_is_one_roster_delta() {
        let mut lobby = lobby_with_keys(4);
        lobby.leave(PlayerId(1), 50);
        assert_eq!(lobby.snapshot_roster().status(PlayerId(1)), Some(MemberStatus::Left));
        assert_eq!(lobby.active_players(), vec![PlayerId(0), PlayerId(2), PlayerId(3)]);
        assert_eq!(lobby.roster_epoch(), 1);
        // Idempotent, and no Disconnected event ever fires for a leaver.
        lobby.leave(PlayerId(1), 60);
        assert_eq!(lobby.roster_epoch(), 1);
        for frame in (60..400).step_by(20) {
            for p in [0u32, 2, 3] {
                lobby.heartbeat(PlayerId(p), frame);
            }
            assert!(lobby.tick(frame).is_empty());
        }
    }

    #[test]
    fn midgame_admission_issues_ticket_and_snapshot() {
        let mut lobby = lobby_with_keys(4);
        lobby.leave(PlayerId(1), 50);
        let key = Keypair::generate(99).public();
        let (id, ticket, roster) = lobby.admit_midgame(key, 70).expect("mid-game admission");

        assert_eq!(id, PlayerId(4));
        assert_eq!(ticket.player, id);
        assert_eq!(ticket.key, key);
        let period = WatchmenConfig::default().proxy_period;
        assert_eq!(ticket.admit_frame, (70u64.div_ceil(period) + 1) * period);
        assert!(ticket.verify(&lobby.lobby_key().expect("keys")));

        // The snapshot carries every member's standing, the joiner as
        // provisional, and the pre-join epoch (just the leave).
        assert_eq!(roster.len(), 5);
        assert_eq!(roster.status(id), Some(MemberStatus::Joining));
        assert_eq!(roster.status(PlayerId(1)), Some(MemberStatus::Left));
        assert!(roster.is_active(PlayerId(0)));
        assert_eq!(roster.epoch(), 1);

        // The lobby's roster applied the joiner's Join.
        assert_eq!(lobby.players(), 5);
        assert!(lobby.snapshot_roster().is_active(id));
        assert_eq!(lobby.roster_epoch(), 2);
        for p in [PlayerId(0), PlayerId(2), PlayerId(3), id] {
            lobby.heartbeat(p, ticket.admit_frame);
        }
        assert!(lobby.tick(ticket.admit_frame).is_empty());
    }

    #[test]
    fn reputation_knobs_flow_from_config() {
        // A stricter config bans on evidence the default would tolerate:
        // 5 failed of 40 is 87.5% acceptable — banned under a 90%
        // threshold, clean under the default 85%.
        let strict = WatchmenConfig {
            reputation_threshold: 0.90,
            reputation_min_reports: 10,
            ..WatchmenConfig::default()
        };
        for (config, expect_ban) in [(strict, true), (WatchmenConfig::default(), false)] {
            let mut lobby = GameLobby::new(7, config, 60);
            for i in 0..4 {
                lobby.register(Keypair::generate(i).public());
            }
            lobby.start();
            for k in 0..40 {
                let rating = if k % 8 == 0 {
                    CheatRating::new(10, Confidence::Proxy, 0)
                } else {
                    CheatRating::clean(Confidence::Proxy)
                };
                lobby.report(PlayerId(0), PlayerId(1), &rating);
            }
            let banned = !lobby.tick(10).is_empty();
            assert_eq!(banned, expect_ban, "threshold {}", config.reputation_threshold);
        }
    }

    #[test]
    fn match_outcomes_expose_identity_counts() {
        let mut lobby = lobby_with(3);
        for _ in 0..10 {
            lobby.report(PlayerId(0), PlayerId(1), &CheatRating::clean(Confidence::Proxy));
        }
        for _ in 0..4 {
            lobby.report(PlayerId(0), PlayerId(2), &CheatRating::new(10, Confidence::Proxy, 0));
        }
        let outcomes = lobby.match_outcomes();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0], (Keypair::generate(0).public().to_u64(), 0, 0));
        assert_eq!(outcomes[1], (Keypair::generate(1).public().to_u64(), 10, 0));
        assert_eq!(outcomes[2], (Keypair::generate(2).public().to_u64(), 0, 4));
    }
}
