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
//! a pluggable reputation system, tracks liveness, and turns bans and
//! disconnections into deterministic proxy-pool exclusions.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_game::PlayerId;
use watchmen_telemetry::TraceId;

use crate::audit::{AuditKind, AuditLog, AuditRecord, LOBBY_NODE};
use crate::membership::MembershipTracker;
use crate::msg::JoinTicket;
use crate::proxy::ProxySchedule;
use crate::rating::CheatRating;
use crate::reputation::{Reputation, ThresholdReputation};
use crate::roster::{MemberStatus, Roster};
use crate::verify::checks;
use crate::WatchmenConfig;

/// Why a mid-game admission was refused. A refusal is the graceful
/// response to a [`crate::cheat::CheatKind::SybilFlood`]: the lobby
/// keeps running, the caller gets a typed reason, and over-rate attempts
/// leave `admission`-check records in the audit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The roster is at [`WatchmenConfig::max_roster`]. Ids are dense
    /// and never recycled, so a full roster is permanent for the match.
    RosterFull {
        /// The configured cap that was hit.
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
    /// [`GameLobby::with_banned_keys`]): a ban earned in one match blocks
    /// matchmaking in every later one.
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

/// A player's standing in the lobby.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayerStatus {
    /// Playing normally.
    Active,
    /// Gracefully departed mid-match; removed from the proxy pool.
    Left,
    /// Silent beyond the heartbeat timeout; removed from the proxy pool.
    Disconnected,
    /// Banned by the reputation system; removed from the proxy pool.
    Banned,
}

/// Events produced by [`GameLobby::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LobbyEvent {
    /// The reputation system crossed the ban threshold for a player.
    Banned(PlayerId),
    /// A player timed out and was removed from the pool.
    Disconnected(PlayerId),
}

/// A game lobby for one match. Registration happens before the match
/// starts; the roster is then frozen (late joins get a fresh lobby, as in
/// round-based FPS play).
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
/// assert_ne!(lobby.schedule().proxy_of(alice, 0), alice);
/// assert_eq!(lobby.directory().len(), 2);
/// let _ = bob;
/// ```
#[derive(Debug)]
pub struct GameLobby {
    seed: u64,
    config: WatchmenConfig,
    directory: Vec<PublicKey>,
    status: Vec<PlayerStatus>,
    started: bool,
    schedule: Option<ProxySchedule>,
    membership: Option<MembershipTracker>,
    reputation: ThresholdReputation,
    heartbeat_timeout: u64,
    /// The lobby's signing keypair — required for mid-game admission
    /// tickets, absent in pre-PR-5 frozen-roster deployments.
    keys: Option<Keypair>,
    /// Mirror of the nodes' applied-delta count: bumped once per
    /// membership change the lobby knows about (issued join, leave,
    /// disconnect, ban), so a joiner's snapshot epoch lines up with the
    /// veterans' roster epoch at its admission boundary.
    roster_epoch: u64,
    /// The lobby's slice of the verdict audit stream: one record per ban
    /// decision, drained via [`GameLobby::drain_audit`].
    audit: AuditLog,
    /// Frames of recent *accepted* mid-game admissions, pruned to the
    /// sliding [`WatchmenConfig::admission_window_frames`] window.
    admit_times: VecDeque<u64>,
    /// Frames of recent throttle refusals (for score escalation), pruned
    /// to the same window. Refusals never consume the join allowance.
    refusal_times: VecDeque<u64>,
    /// Identities (public-key scalars) carrying a durable cross-match
    /// ban, loaded from the reputation store at lobby creation. Both
    /// pre-match registration and mid-game admission refuse them.
    banned_keys: BTreeSet<u64>,
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
            status: Vec::new(),
            started: false,
            schedule: None,
            membership: None,
            reputation,
            heartbeat_timeout,
            keys: None,
            roster_epoch: 0,
            audit: AuditLog::default(),
            admit_times: VecDeque::new(),
            refusal_times: VecDeque::new(),
            banned_keys: BTreeSet::new(),
        }
    }

    /// Loads the durable cross-match ban list (identity scalars from the
    /// reputation store's banned set): both pre-match registration and
    /// mid-game admission refuse these identities with
    /// [`AdmitError::Banned`], so a ban earned in one match blocks
    /// matchmaking in every later one.
    #[must_use]
    pub fn with_banned_keys(mut self, banned: impl IntoIterator<Item = u64>) -> Self {
        self.banned_keys = banned.into_iter().collect();
        self
    }

    /// Whether `key`'s identity carries a durable cross-match ban.
    #[must_use]
    pub fn is_key_banned(&self, key: &PublicKey) -> bool {
        self.banned_keys.contains(&key.to_u64())
    }

    /// Gives the lobby a signing keypair, enabling mid-game admission —
    /// every [`JoinTicket`] is signed under it and nodes verify joins
    /// against [`GameLobby::lobby_key`].
    #[must_use]
    pub fn with_keys(mut self, keys: Keypair) -> Self {
        self.keys = Some(keys);
        self
    }

    /// The public half of the lobby's signing key, if one was configured.
    #[must_use]
    pub fn lobby_key(&self) -> Option<PublicKey> {
        self.keys.as_ref().map(Keypair::public)
    }

    /// The lobby's view of the roster epoch (applied membership changes).
    #[must_use]
    pub fn roster_epoch(&self) -> u64 {
        self.roster_epoch
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
        assert!(!self.started, "roster frozen after start");
        if self.is_key_banned(&key) {
            let tag = key_tag(&key);
            self.audit.push_with(|| AuditRecord {
                frame: 0,
                node: LOBBY_NODE,
                subject: tag,
                kind: AuditKind::Verdict,
                check: checks::ADMISSION,
                score: 10,
                confidence: "store",
                trace: TraceId::NONE,
                detail: "registration refused: durable cross-match ban".to_string(),
            });
            return Err(AdmitError::Banned { key_tag: tag });
        }
        let id = PlayerId(self.directory.len() as u32);
        self.directory.push(key);
        self.status.push(PlayerStatus::Active);
        Ok(id)
    }

    /// Freezes the roster and derives the shared schedule and trackers.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two players registered, or called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "already started");
        let n = self.directory.len();
        assert!(n >= 2, "need at least two players");
        self.schedule = Some(ProxySchedule::new(self.seed, n, self.config.proxy_period));
        self.membership = Some(MembershipTracker::new(n, self.heartbeat_timeout));
        self.reputation = ThresholdReputation::new(
            n,
            self.config.reputation_threshold,
            self.config.reputation_min_reports,
        );
        self.started = true;
    }

    /// The frozen public-key directory (what every node receives).
    #[must_use]
    pub fn directory(&self) -> &[PublicKey] {
        &self.directory
    }

    /// The shared match seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The verifiable proxy schedule, reflecting bans and disconnections.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    #[must_use]
    pub fn schedule(&self) -> &ProxySchedule {
        self.schedule.as_ref().expect("lobby not started")
    }

    /// A player's current standing.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn status(&self, player: PlayerId) -> PlayerStatus {
        self.status[player.index()]
    }

    /// Number of registered players.
    #[must_use]
    pub fn players(&self) -> usize {
        self.directory.len()
    }

    /// Records traffic from a player (heartbeat).
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    pub fn heartbeat(&mut self, player: PlayerId, frame: u64) {
        self.membership.as_mut().expect("lobby not started").observe(player, frame);
    }

    /// Feeds one verification report into the reputation system.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    pub fn report(&mut self, reporter: PlayerId, subject: PlayerId, rating: &CheatRating) {
        assert!(self.started, "lobby not started");
        self.reputation.report(reporter, subject, rating);
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
        assert!(self.started, "lobby not started");
        self.directory
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let (ok, failed) = self.reputation.counts(PlayerId(i as u32));
                (key.to_u64(), ok, failed)
            })
            .collect()
    }

    /// Advances lobby housekeeping to `frame`: newly banned players and
    /// heartbeat timeouts are removed from the proxy pool (at the next
    /// renewal boundary, via the agreement rule) and reported as events.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started.
    pub fn tick(&mut self, frame: u64) -> Vec<LobbyEvent> {
        assert!(self.started, "lobby not started");
        let mut events = Vec::new();
        let schedule = self.schedule.as_mut().expect("started");
        let membership = self.membership.as_mut().expect("started");

        // Bans first: the lobby "manages access and logins and can thus
        // ban the players". Like the churn path, never collapse the proxy
        // pool below two eligible nodes — with everyone else banned the
        // match is over anyway, and the ban itself still stands.
        for player in self.reputation.banned_players() {
            if self.status[player.index()] == PlayerStatus::Active {
                self.status[player.index()] = PlayerStatus::Banned;
                if !schedule.is_excluded(player) && schedule.eligible_count() > 2 {
                    schedule.exclude(player);
                }
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

        // Then churn: the heartbeat/agreement pipeline.
        for player in membership.agree_and_remove(frame, schedule) {
            if self.status[player.index()] == PlayerStatus::Active {
                self.status[player.index()] = PlayerStatus::Disconnected;
                events.push(LobbyEvent::Disconnected(player));
            }
        }
        // Each event is one membership change the in-game nodes will
        // mirror as a roster delta.
        self.roster_epoch += events.len() as u64;
        events
    }

    /// Drains the lobby's slice of the verdict audit stream (one record
    /// per ban decision), oldest first.
    pub fn drain_audit(&mut self) -> Vec<crate::audit::AuditRecord> {
        self.audit.drain()
    }

    /// Turns the lobby's audit recording on (the default) or off.
    pub fn set_audit_enabled(&mut self, enabled: bool) {
        self.audit.set_enabled(enabled);
    }

    /// Players still in good standing.
    #[must_use]
    pub fn active_players(&self) -> Vec<PlayerId> {
        (0..self.status.len())
            .map(|i| PlayerId(i as u32))
            .filter(|&p| self.status[p.index()] == PlayerStatus::Active)
            .collect()
    }

    /// Records a graceful mid-match departure announced at `frame`: the
    /// player's standing flips to [`PlayerStatus::Left`] and the proxy
    /// pool drops it from the first boundary a full period out — the same
    /// effective frame the in-game `Leave` announcement carries, so the
    /// lobby's schedule stays in lockstep with the nodes'. Idempotent for
    /// players no longer active.
    ///
    /// # Panics
    ///
    /// Panics if the match has not started or the id is out of range.
    pub fn leave(&mut self, player: PlayerId, frame: u64) {
        assert!(self.started, "lobby not started");
        if self.status[player.index()] != PlayerStatus::Active {
            return;
        }
        self.status[player.index()] = PlayerStatus::Left;
        let period = self.config.proxy_period;
        let effective = (frame.div_ceil(period) + 1) * period;
        // An exclusion that would empty the pool is refused; the player
        // has still left the match.
        let _ =
            self.schedule.as_mut().expect("started").try_exclude_from(player, effective / period);
        self.membership.as_mut().expect("started").remove_at(player, effective);
        self.roster_epoch += 1;
    }

    /// Admits a player mid-match: assigns the next dense id, issues a
    /// lobby-signed [`JoinTicket`] effective at the first renewal
    /// boundary a full period after `frame` (leaving the `Join`
    /// announcement one whole epoch to reach every veteran), and returns
    /// the roster snapshot the joiner boots from — every current member
    /// with its standing, plus the joiner itself as a provisional entry.
    ///
    /// The snapshot's epoch is the lobby's count of membership changes
    /// *before* this join; the joiner's own `Join` delta bumps it at the
    /// admission boundary in lockstep with the veterans.
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
        assert!(self.started, "lobby not started");
        let keys = self.keys.as_ref().expect("lobby has no signing keys");
        if self.is_key_banned(&key) {
            let tag = key_tag(&key);
            self.audit.push_with(|| AuditRecord {
                frame,
                node: LOBBY_NODE,
                subject: tag,
                kind: AuditKind::Verdict,
                check: checks::ADMISSION,
                score: 10,
                confidence: "store",
                trace: TraceId::NONE,
                detail: "mid-game admission refused: durable cross-match ban".to_string(),
            });
            return Err(AdmitError::Banned { key_tag: tag });
        }
        if self.directory.len() >= self.config.max_roster {
            return Err(AdmitError::RosterFull { max_roster: self.config.max_roster });
        }
        let window = self.config.admission_window_frames;
        let max_joins = self.config.max_joins_per_window;
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
            self.audit.push_with(|| AuditRecord {
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
        let period = self.config.proxy_period;
        let admit_frame = (frame.div_ceil(period) + 1) * period;

        let mut roster = self.snapshot_roster();
        let id = roster.admit_provisional(key);
        assert_eq!(id.index(), self.directory.len(), "dense id");
        let ticket = JoinTicket::issue(keys, id, key, admit_frame);

        // Mirror the admission in the lobby's own trackers so later
        // snapshots (and tick()) see the new member.
        self.directory.push(key);
        self.status.push(PlayerStatus::Active);
        let sched_id = self.schedule.as_mut().expect("started").admit_at(admit_frame / period);
        let member_id = self.membership.as_mut().expect("started").admit(admit_frame);
        debug_assert_eq!(sched_id, id);
        debug_assert_eq!(member_id, id);
        self.reputation.admit_player();
        self.roster_epoch += 1;
        Ok((id, ticket, roster))
    }

    /// The lobby's current roster snapshot (without any provisional
    /// joiner entry).
    #[must_use]
    pub fn snapshot_roster(&self) -> Roster {
        let status = self
            .status
            .iter()
            .map(|s| match s {
                PlayerStatus::Active => MemberStatus::Active,
                PlayerStatus::Left => MemberStatus::Left,
                PlayerStatus::Disconnected | PlayerStatus::Banned => MemberStatus::Evicted,
            })
            .collect();
        Roster::from_parts(self.directory.clone(), status, self.roster_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rating::{CheatRating, Confidence, SEVERE_SCORE};
    use crate::roster::RosterDelta;
    use watchmen_crypto::schnorr::Keypair;

    fn lobby_with(n: usize) -> GameLobby {
        let mut lobby = GameLobby::new(7, WatchmenConfig::default(), 60);
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
    fn ban_flow_removes_from_pool() {
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
        assert_eq!(lobby.status(cheater), PlayerStatus::Banned);
        assert!(lobby.schedule().is_excluded(cheater));
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
        assert_eq!(lobby.status(PlayerId(1)), PlayerStatus::Active);
        assert_eq!(lobby.suspicion(PlayerId(1)), 0.0);
    }

    #[test]
    fn disconnect_flow_removes_from_pool() {
        let mut lobby = lobby_with(5);
        // Everyone except player 3 heartbeats.
        for frame in (0..200).step_by(10) {
            for p in [0u32, 1, 2, 4] {
                lobby.heartbeat(PlayerId(p), frame);
            }
            lobby.tick(frame);
        }
        assert_eq!(lobby.status(PlayerId(3)), PlayerStatus::Disconnected);
        assert!(lobby.schedule().is_excluded(PlayerId(3)));
        for p in [0u32, 1, 2, 4] {
            assert_eq!(lobby.status(PlayerId(p)), PlayerStatus::Active);
        }
    }

    #[test]
    fn mass_bans_never_collapse_the_proxy_pool() {
        // Two of three players banned: both leave the game, but the pool
        // keeps its two-node floor instead of panicking.
        let mut lobby = lobby_with(3);
        for subject in [PlayerId(0), PlayerId(1)] {
            for _ in 0..40 {
                lobby.report(PlayerId(2), subject, &CheatRating::new(10, Confidence::Proxy, 0));
            }
        }
        let events = lobby.tick(10);
        assert_eq!(events.len(), 2);
        assert_eq!(lobby.status(PlayerId(0)), PlayerStatus::Banned);
        assert_eq!(lobby.status(PlayerId(1)), PlayerStatus::Banned);
        assert!(lobby.schedule().eligible_count() >= 2);
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
        assert_eq!(lobby.status(PlayerId(2)), PlayerStatus::Disconnected);
        assert_eq!(lobby.status(PlayerId(3)), PlayerStatus::Banned);
        assert_eq!(lobby.active_players(), vec![PlayerId(0), PlayerId(1)]);
        assert!(lobby.schedule().is_excluded(PlayerId(2)));
        assert!(lobby.schedule().is_excluded(PlayerId(3)));
        assert_eq!(lobby.roster_epoch(), 2);
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

    fn lobby_with_keys(n: usize) -> GameLobby {
        let mut lobby =
            GameLobby::new(7, WatchmenConfig::default(), 60).with_keys(Keypair::generate(777));
        for i in 0..n {
            lobby.register(Keypair::generate(i as u64).public());
        }
        lobby.start();
        lobby
    }

    #[test]
    fn graceful_leave_flips_status_and_pool() {
        let mut lobby = lobby_with_keys(4);
        let period = WatchmenConfig::default().proxy_period;
        lobby.leave(PlayerId(1), 50);
        assert_eq!(lobby.status(PlayerId(1)), PlayerStatus::Left);
        assert_eq!(lobby.active_players(), vec![PlayerId(0), PlayerId(2), PlayerId(3)]);
        assert_eq!(lobby.roster_epoch(), 1);
        // Effective one full period past the announcement boundary: the
        // old epoch keeps its draws, the next one drops the leaver.
        let effective = (50u64.div_ceil(period) + 1) * period;
        for p in [0u32, 2, 3] {
            assert_ne!(lobby.schedule().proxy_of(PlayerId(p), effective), PlayerId(1));
        }
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

        // The lobby mirrors the admission in its own trackers.
        assert_eq!(lobby.players(), 5);
        assert_eq!(lobby.status(id), PlayerStatus::Active);
        assert_eq!(lobby.roster_epoch(), 2);
        for p in [PlayerId(0), PlayerId(2), PlayerId(3), id] {
            lobby.heartbeat(p, ticket.admit_frame);
        }
        assert!(lobby.tick(ticket.admit_frame).is_empty());
        // The joiner is drawable in the pool from its admission epoch on,
        // and gets proxied like anyone else.
        assert!(!lobby.schedule().is_excluded(id));
        assert_ne!(lobby.schedule().proxy_of(id, ticket.admit_frame), id);
    }

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
        let config = WatchmenConfig {
            max_roster: 6,
            max_joins_per_window: 100,
            ..WatchmenConfig::default()
        };
        let mut lobby = GameLobby::new(7, config, 60).with_keys(Keypair::generate(777));
        for i in 0..4 {
            lobby.register(Keypair::generate(i).public());
        }
        lobby.start();
        for i in 0..2u64 {
            lobby
                .admit_midgame(Keypair::generate(100 + i).public(), 10 + i)
                .expect("room for two more");
        }
        assert_eq!(lobby.players(), 6);
        let epoch_at_cap = lobby.roster_epoch();
        for i in 0..50u64 {
            let err = lobby
                .admit_midgame(Keypair::generate(500 + i).public(), 20 + i)
                .expect_err("roster is full");
            assert_eq!(err, AdmitError::RosterFull { max_roster: 6 });
        }
        // Nothing changed, and full-roster refusals are not audited —
        // honest players hit full rosters too.
        assert_eq!(lobby.players(), 6);
        assert_eq!(lobby.roster_epoch(), epoch_at_cap);
        assert!(lobby.drain_audit().is_empty());
    }

    #[test]
    fn admission_burst_is_throttled_with_escalating_audit() {
        let mut lobby = lobby_with_keys(4);
        let window = WatchmenConfig::default().admission_window_frames;
        let allowance = WatchmenConfig::default().max_joins_per_window;
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
        assert!(lobby.is_key_banned(&banned_key));

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

    #[test]
    fn admission_interleavings_preserve_roster_invariants() {
        // Property (JoinTicket admission): across randomized interleavings
        // of joins, leaves, evictions and throttled floods —
        //   * the roster never exceeds max_roster,
        //   * every admitted id is the next dense index, never reused,
        //   * every ticket verifies against the lobby key,
        //   * a replica Roster applying the mirrored deltas converges to
        //     the lobby's snapshot digest within the same epoch.
        for seed in 0..30u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xABCD);
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let config = WatchmenConfig { max_roster: 8, ..WatchmenConfig::default() };
            let mut lobby =
                GameLobby::new(seed, config, 60).with_keys(Keypair::generate(9_000 + seed));
            let n = 4 + (next() % 3) as usize;
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
            let mut fresh_key: u64 = 10_000;
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
                    replica.apply(&[RosterDelta::Evict { player: p }]);
                }

                assert!(lobby.players() <= 8, "seed {seed}: roster overflow");
                assert_eq!(lobby.roster_epoch(), replica.epoch(), "seed {seed} frame {frame}");
                assert_eq!(
                    lobby.snapshot_roster().digest(),
                    replica.digest(),
                    "seed {seed} frame {frame}: replica diverged"
                );
            }
            assert!(issued.len() + n <= 8, "seed {seed}: ids beyond the cap");
        }
    }
}
