//! Churn handling: heartbeats (§VI).
//!
//! "Most architectures have to deal with churn. In our case, updates sent
//! between players also act as a heartbeat mechanism that easily
//! identifies the players that have been disconnected or left. These
//! nodes are removed in the next round, through an agreement protocol,
//! from the proxy pool."
//!
//! [`MembershipTracker`] turns observed traffic into liveness suspicion
//! and records when each removal takes effect. It agrees on nothing
//! itself: a node announces its suspects as signed evictions that every
//! node applies at a renewal boundary (`node::churn`), and the lobby
//! reports its own as [`crate::lobby::LobbyEvent::Disconnected`].

use watchmen_game::PlayerId;

/// Tracks per-player liveness from message arrivals, and the frame from
/// which each removed player counts as gone.
///
/// # Examples
///
/// ```
/// use watchmen_core::membership::MembershipTracker;
/// use watchmen_game::PlayerId;
///
/// let mut tracker = MembershipTracker::new(4, 60);
/// tracker.observe(PlayerId(0), 100);
/// assert!(tracker.is_live(PlayerId(0), 120));
/// assert!(!tracker.is_live(PlayerId(0), 200));
/// ```
#[derive(Debug, Clone)]
pub struct MembershipTracker {
    /// Frames of silence after which a player is suspected dead.
    timeout_frames: u64,
    /// Last frame a message from each player was seen (`None` = never).
    last_seen: Vec<Option<u64>>,
    /// Frame at which each player's removal takes effect (`None` = live).
    removed_at: Vec<Option<u64>>,
}

impl MembershipTracker {
    /// Creates a tracker for `players` players with the given heartbeat
    /// timeout. Players are assumed live at frame 0.
    ///
    /// # Panics
    ///
    /// Panics if `timeout_frames == 0`.
    #[must_use]
    pub fn new(players: usize, timeout_frames: u64) -> Self {
        assert!(timeout_frames > 0, "timeout must be positive");
        MembershipTracker {
            timeout_frames,
            last_seen: vec![Some(0); players],
            removed_at: vec![None; players],
        }
    }

    /// Records traffic from `player` at `frame` — any update doubles as a
    /// heartbeat.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn observe(&mut self, player: PlayerId, frame: u64) {
        let last = &mut self.last_seen[player.index()];
        *last = Some(last.map_or(frame, |prev| prev.max(frame)));
    }

    /// Returns `true` if the player has been heard from within the
    /// timeout as of `frame` (and has not been removed).
    ///
    /// The boundary is *exclusive*, mirroring the subscription-expiry
    /// convention: a player last seen at frame `s` with timeout `t` is
    /// live through frame `s + t - 1` and suspect at exactly `s + t`.
    /// Likewise a removal scheduled for frame `r` leaves the player live
    /// through `r - 1` and gone at exactly `r`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn is_live(&self, player: PlayerId, frame: u64) -> bool {
        if self.removed_at[player.index()].is_some_and(|at| frame >= at) {
            return false;
        }
        match self.last_seen[player.index()] {
            Some(last) => frame.saturating_sub(last) < self.timeout_frames,
            None => false,
        }
    }

    /// The players currently suspected (silent beyond the timeout but not
    /// yet removed).
    #[must_use]
    pub fn suspects(&self, frame: u64) -> Vec<PlayerId> {
        (0..self.last_seen.len())
            .map(|i| PlayerId(i as u32))
            .filter(|&p| self.removed_at[p.index()].is_none() && !self.is_live(p, frame))
            .collect()
    }

    /// Admits a new player, alive as of `frame`, and returns its id —
    /// always a *fresh* dense index. Ids of removed players are never
    /// reused: a player that left and rejoins comes back under a new id
    /// (handed out by the lobby with a fresh membership view), so stale
    /// traffic signed under the old id can never alias the rejoined
    /// player.
    pub fn admit(&mut self, frame: u64) -> PlayerId {
        let id = PlayerId(self.last_seen.len() as u32);
        self.last_seen.push(Some(frame));
        self.removed_at.push(None);
        id
    }

    /// Records a deliberate departure (graceful leave or eviction)
    /// effective at `frame`: the player counts live through `frame - 1`
    /// and gone at exactly `frame`. Removal is permanent — see
    /// [`MembershipTracker::admit`] for rejoins.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn remove_at(&mut self, player: PlayerId, frame: u64) {
        let slot = &mut self.removed_at[player.index()];
        *slot = Some(slot.map_or(frame, |prev| prev.min(frame)));
    }

    /// Number of players tracked (including removed ones — ids are dense
    /// and never recycled).
    #[must_use]
    pub fn players(&self) -> usize {
        self.last_seen.len()
    }

    /// Number of players never removed and heard from recently.
    #[must_use]
    pub fn live_count(&self, frame: u64) -> usize {
        (0..self.last_seen.len()).filter(|&i| self.is_live(PlayerId(i as u32), frame)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_beyond_timeout_suspects() {
        let mut t = MembershipTracker::new(3, 40);
        t.observe(PlayerId(0), 10);
        t.observe(PlayerId(1), 30);
        t.observe(PlayerId(2), 30);
        assert!(t.suspects(35).is_empty());
        // Frame 55: player 0 silent for 45 > 40.
        assert_eq!(t.suspects(55), vec![PlayerId(0)]);
        assert!(!t.is_live(PlayerId(0), 55));
        assert!(t.is_live(PlayerId(1), 55));
        assert_eq!(t.live_count(55), 2);
    }

    #[test]
    fn liveness_boundary_is_exclusive() {
        // Mirrors the subscription-expiry convention: last seen at s with
        // timeout t means live through s + t - 1 and suspect at exactly
        // s + t.
        let mut t = MembershipTracker::new(2, 40);
        t.observe(PlayerId(0), 100);
        t.observe(PlayerId(1), 110);
        assert!(t.is_live(PlayerId(0), 139));
        assert!(t.suspects(139).is_empty());
        assert!(!t.is_live(PlayerId(0), 140), "suspect at exactly last_seen + timeout");
        assert_eq!(t.suspects(140), vec![PlayerId(0)]);
    }

    #[test]
    fn removal_boundary_is_exclusive() {
        let mut t = MembershipTracker::new(2, 40);
        t.observe(PlayerId(0), 100);
        t.remove_at(PlayerId(0), 120);
        assert!(t.is_live(PlayerId(0), 119), "live through the frame before removal");
        assert!(!t.is_live(PlayerId(0), 120), "gone at exactly the removal frame");
        // An earlier removal wins; a later one cannot resurrect.
        t.remove_at(PlayerId(0), 110);
        assert!(!t.is_live(PlayerId(0), 115));
        t.remove_at(PlayerId(0), 500);
        assert!(!t.is_live(PlayerId(0), 130));
    }

    #[test]
    fn removed_ids_never_alias_rejoiners() {
        let mut t = MembershipTracker::new(2, 40);
        t.observe(PlayerId(1), 50);
        t.remove_at(PlayerId(1), 60);
        assert!(!t.is_live(PlayerId(1), 70));
        // Heartbeats under the dead id (stale or spoofed traffic) cannot
        // bring it back.
        t.observe(PlayerId(1), 80);
        assert!(!t.is_live(PlayerId(1), 81));
        // The player rejoins under a fresh id, never the old one.
        let fresh = t.admit(90);
        assert_eq!(fresh, PlayerId(2));
        assert_eq!(t.players(), 3);
        assert!(t.is_live(fresh, 100));
        assert!(!t.is_live(PlayerId(1), 100), "old id stays dead");
    }

    #[test]
    fn observe_keeps_latest() {
        let mut t = MembershipTracker::new(1, 40);
        t.observe(PlayerId(0), 100);
        t.observe(PlayerId(0), 50); // out-of-order arrival
        assert!(t.is_live(PlayerId(0), 130));
    }
}
