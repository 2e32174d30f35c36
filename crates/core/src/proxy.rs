//! Random, verifiable, dynamic proxy assignment (Sections III-B, IV).
//!
//! "At any frame, a player has a single designated proxy (another player)
//! … Proxy assignment is done in a random, but verifiable way … each
//! player maintains a pseudo-random number generator for each player,
//! including himself, initialized with the player's id and a common seed.
//! This means each player can determine both its own proxy and the other
//! players' proxies, in any given frame, without the need for
//! communication. … proxies are rearranged after a predetermined period of
//! time."
//!
//! [`ProxySchedule`] is that computation: a pure function of
//! `(common seed, player id, epoch)`, so every honest node derives the
//! identical assignment with no messages, and any node can verify any
//! other node's claimed proxy.

use watchmen_crypto::rng::Xoshiro256;
use watchmen_game::PlayerId;

use crate::WatchmenConfig;

/// The deterministic proxy schedule shared by all players in a game.
///
/// Proxies are fixed within an *epoch* of `period` frames and re-drawn at
/// every epoch boundary. A player is never its own proxy. Players removed
/// from the pool (departed members, or resource-poor nodes excluded by
/// the refinement of Section VI) are skipped by re-drawing.
///
/// # Examples
///
/// ```
/// use watchmen_core::proxy::ProxySchedule;
/// use watchmen_game::PlayerId;
///
/// let s = ProxySchedule::new(42, 8, 40);
/// let p = s.proxy_of(PlayerId(3), 79);
/// // Stable within the epoch…
/// assert_eq!(p, s.proxy_of(PlayerId(3), 40));
/// // …and never the player itself.
/// assert_ne!(p, PlayerId(3));
/// ```
#[derive(Debug, Clone)]
pub struct ProxySchedule {
    seed: u64,
    players: usize,
    period: u64,
    /// First epoch each player is part of the pool (0 for founding
    /// members, later for mid-game joiners admitted at a boundary).
    joined_epoch: Vec<u64>,
    /// First epoch each player is *no longer* eligible for proxy duty
    /// (`None` = never excluded). A player excluded from epoch `e` still
    /// serves epochs `< e`, so draws for past epochs are unchanged by
    /// churn — the schedule is epoch-versioned, not rewritten in place.
    /// Excluded players are still assigned proxies themselves if present
    /// in the game.
    excluded_from: Vec<Option<u64>>,
}

/// A pool mutation that cannot be applied without emptying the proxy
/// pool. Callers keep the current pool and retry after other membership
/// changes (e.g. a join) restore capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The exclusion would leave no eligible proxy at the given epoch.
    Exhausted,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Exhausted => f.write_str("exclusion would empty the proxy pool"),
        }
    }
}

impl std::error::Error for PoolError {}

impl ProxySchedule {
    /// Creates a schedule for `players` players with renewal every
    /// `period` frames, derived from the game's common seed.
    ///
    /// # Panics
    ///
    /// Panics if `players < 2` (no one else to proxy) or `period == 0`.
    #[must_use]
    pub fn new(seed: u64, players: usize, period: u64) -> Self {
        assert!(players >= 2, "proxying needs at least 2 players");
        assert!(period > 0, "period must be positive");
        ProxySchedule {
            seed,
            players,
            period,
            joined_epoch: vec![0; players],
            excluded_from: vec![None; players],
        }
    }

    /// Number of players covered.
    #[must_use]
    pub fn players(&self) -> usize {
        self.players
    }

    /// Frames per epoch.
    #[must_use]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The epoch index containing `frame`.
    #[must_use]
    pub fn epoch_of(&self, frame: u64) -> u64 {
        frame / self.period
    }

    /// The first frame of the epoch *after* the one containing `frame`.
    #[must_use]
    pub fn next_renewal(&self, frame: u64) -> u64 {
        (self.epoch_of(frame) + 1) * self.period
    }

    /// Removes `player` from the proxy pool from `epoch` on ("these nodes
    /// are removed in the next round … from the proxy pool"), leaving
    /// draws for earlier epochs untouched (an exclusion at epoch `e`
    /// serves through `e - 1`, mirroring the exclusive expiry boundary
    /// convention used everywhere else).
    ///
    /// Refuses (without mutating) an exclusion that would leave *zero*
    /// eligible proxies at `epoch`; a single survivor is accepted as the
    /// degraded single-proxy mode (the game limps rather than aborts
    /// under a churn burst). Excluding an already-excluded player
    /// keeps the earliest exclusion epoch.
    ///
    /// # Errors
    ///
    /// [`PoolError::Exhausted`] if no eligible proxy would remain.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn try_exclude_from(&mut self, player: PlayerId, epoch: u64) -> Result<(), PoolError> {
        assert!(player.index() < self.players, "player {player} out of range");
        let remaining = (0..self.players)
            .filter(|&i| i != player.index() && self.eligible_at(i, epoch))
            .count();
        if remaining == 0 {
            return Err(PoolError::Exhausted);
        }
        let slot = &mut self.excluded_from[player.index()];
        *slot = Some(slot.map_or(epoch, |prev| prev.min(epoch)));
        Ok(())
    }

    /// Admits a new player to the schedule, eligible for proxy duty (and
    /// assigned proxies) from `epoch` on. Returns the new player's id —
    /// always the next dense index, so all nodes applying the same joins
    /// in the same order assign the same ids.
    pub fn admit_at(&mut self, epoch: u64) -> PlayerId {
        let id = PlayerId(self.players as u32);
        self.players += 1;
        self.joined_epoch.push(epoch);
        self.excluded_from.push(None);
        id
    }

    /// Whether member `i` is eligible for proxy duty at `epoch`.
    fn eligible_at(&self, i: usize, epoch: u64) -> bool {
        self.joined_epoch[i] <= epoch && self.excluded_from[i].is_none_or(|from| epoch < from)
    }

    /// The proxy assigned to `player` during the epoch containing
    /// `frame` — the core verifiable computation.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn proxy_of(&self, player: PlayerId, frame: u64) -> PlayerId {
        let mut pick = [player];
        self.draw(player, frame, &mut pick);
        pick[0]
    }

    /// The `n`-th *distinct* proxy drawn for `player` in the epoch
    /// containing `frame`: `n == 0` is the assigned proxy
    /// ([`ProxySchedule::proxy_of`]); higher `n` are the deterministic
    /// crash fallbacks. When a proxy is presumed dead, every honest node
    /// simply continues the same per-epoch PRNG sequence past the dead
    /// pick — all nodes land on the same successor without a single
    /// election message, preserving the "random, but verifiable"
    /// property.
    ///
    /// `n` is clamped to the eligible-candidate count minus one (with two
    /// players there is nobody to fall back to). In the fully degraded
    /// case — no eligible candidate at all in the epoch — the player is
    /// returned as its own proxy: a documented degenerate self-proxy that
    /// callers treat as "no proxy hop", rather than a panic that would
    /// abort the process mid-churn-burst.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn nth_proxy_of(&self, player: PlayerId, frame: u64, n: usize) -> PlayerId {
        // No level past the candidate count is distinct, so drawing past
        // the roster size cannot change the clamped pick.
        let mut picks = vec![player; n.min(self.players) + 1];
        self.draw(player, frame, &mut picks);
        picks[picks.len() - 1]
    }

    /// Fills `picks` with the first distinct draws of `player`'s stream
    /// for the epoch containing `frame`: level `n` lands in `picks[n]`,
    /// levels past the candidate count repeat the last distinct pick, and
    /// a player with no candidate at all is its own pick at every level.
    ///
    /// One call counts the eligible pool once and draws every level from
    /// one stream. Each draw `x = r · total` picks candidate `⌈x⌉ − 1` in
    /// id order (the first when `x = 0`); rejection of repeats keeps the
    /// levels distinct and uniform.
    fn draw(&self, player: PlayerId, frame: u64, picks: &mut [PlayerId]) {
        assert!(player.index() < self.players, "player {player} out of range");
        let epoch = self.epoch_of(frame);
        let candidates = || {
            (0..self.players).filter(move |&i| i != player.index() && self.eligible_at(i, epoch))
        };
        let total = candidates().count();
        if total == 0 {
            picks.fill(player);
            return;
        }
        // Per-player stream keyed by (seed, player id), advanced to the
        // epoch: this is the "PRNG per player initialized with the
        // player's id and a common seed" construction. Seeding with the
        // epoch directly (rather than discarding `epoch` draws) keeps
        // random access O(1).
        let mut rng =
            Xoshiro256::seed_from(self.seed ^ 0x7077_0000, (u64::from(player.0) << 32) ^ epoch);
        let distinct = picks.len().min(total);
        let mut drawn = 0;
        while drawn < distinct {
            // With `r < 1`, `x` rounds to at most `total`: the rank is in range.
            let x = rng.next_f64() * total as f64;
            let rank = (x.ceil() as usize).max(1) - 1;
            let pick = PlayerId(candidates().nth(rank).expect("rank below the pool size") as u32);
            if !picks[..drawn].contains(&pick) {
                picks[drawn] = pick;
                drawn += 1;
            }
        }
        let last = picks[distinct - 1];
        picks[distinct..].fill(last);
    }

    /// All players whose proxy is `proxy` during the epoch containing
    /// `frame` — what a node computes to learn its own proxy duties.
    /// Members who had not yet joined by that epoch are skipped (they had
    /// no proxy then); excluded members are included, since exclusion
    /// removes duty eligibility, not the need for a proxy.
    #[must_use]
    pub fn clients_of(&self, proxy: PlayerId, frame: u64) -> Vec<PlayerId> {
        let epoch = self.epoch_of(frame);
        (0..self.players)
            .filter(|&i| self.joined_epoch[i] <= epoch)
            .map(|i| PlayerId(i as u32))
            .filter(|&p| p != proxy && self.proxy_of(p, frame) == proxy)
            .collect()
    }

    /// The *plausible* proxies of `player` for the epoch containing
    /// `frame`: the scheduled draw and every crash fallback within
    /// [`WatchmenConfig::PROXY_FALLBACK_DEPTH`]. Membership depends only
    /// on the shared schedule, so a sender that fell back and the
    /// fallback proxy always agree even if their liveness views differ,
    /// and any claim outside the set is one the schedule cannot produce.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn plausible_proxies(
        &self,
        player: PlayerId,
        frame: u64,
    ) -> impl Iterator<Item = PlayerId> {
        let mut picks = [player; WatchmenConfig::PROXY_FALLBACK_DEPTH + 1];
        self.draw(player, frame, &mut picks);
        picks.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ProxySchedule {
        /// Players eligible for proxy duty in the epoch containing `frame`.
        fn eligible_count_at(&self, frame: u64) -> usize {
            let epoch = self.epoch_of(frame);
            (0..self.players).filter(|&i| self.eligible_at(i, epoch)).count()
        }
    }

    /// SHA-256 over every draw of a 48-player schedule (47 founders and
    /// one joiner admitted at epoch 30, one founder excluded from epoch
    /// 20) for 60 epochs at fallback levels 0..=2. Captured from the
    /// original implementation; a mismatch means a proxy pick moved.
    #[test]
    fn draws_match_the_golden_digest() {
        let mut s = ProxySchedule::new(2013, 47, 40);
        s.try_exclude_from(PlayerId(7), 20).unwrap();
        assert_eq!(s.admit_at(30), PlayerId(47));
        let mut h = watchmen_crypto::Sha256::new();
        for epoch in 0..60u64 {
            for p in 0..48 {
                for n in 0..=2 {
                    h.update(&s.nth_proxy_of(PlayerId(p), epoch * 40, n).0.to_le_bytes());
                }
            }
        }
        let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "e596bca3a0a84b9dc6e1c3b33d050b209df8cd1275a9e94083ef999cd3f9843e");
    }

    /// SHA-256 over the draws at the pool's edges, for 60 epochs: pools
    /// of 2, 3 and 4 players at fallback levels up to and past the
    /// candidate count (the clamp), a 3-player pool whose candidates are
    /// all excluded from epoch 10 (player 2's self-proxy), and a 4-player
    /// pool with a joiner admitted at epoch 20 — each level through
    /// `nth_proxy_of` and the plausible set through `plausible_proxies`.
    /// Captured from the walk-per-level implementation; a mismatch means
    /// a proxy pick moved.
    #[test]
    fn edge_draws_match_the_golden_digest() {
        let mut starved = ProxySchedule::new(4177, 3, 40);
        starved.try_exclude_from(PlayerId(0), 10).unwrap();
        starved.try_exclude_from(PlayerId(1), 10).unwrap();
        let mut joined = ProxySchedule::new(4177, 4, 40);
        assert_eq!(joined.admit_at(20), PlayerId(4));
        let pools = [
            ProxySchedule::new(2013, 2, 40),
            ProxySchedule::new(2013, 3, 40),
            ProxySchedule::new(2013, 4, 40),
            starved,
            joined,
        ];
        let mut h = watchmen_crypto::Sha256::new();
        for s in &pools {
            for epoch in 0..60u64 {
                for p in 0..s.players() as u32 {
                    let (id, frame) = (PlayerId(p), epoch * 40 + 7);
                    for n in 0..=5 {
                        h.update(&s.nth_proxy_of(id, frame, n).0.to_le_bytes());
                    }
                    for pick in s.plausible_proxies(id, frame) {
                        h.update(&pick.0.to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(pools[3].proxy_of(PlayerId(2), 400), PlayerId(2), "no candidate: self-proxy");
        let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "7eb790a10a2734a3e5f89e2a075ffc533710d73ed8a6f847ee09db4474da5670");
    }

    #[test]
    fn deterministic_across_nodes() {
        let a = ProxySchedule::new(99, 48, 40);
        let b = ProxySchedule::new(99, 48, 40);
        for frame in [0u64, 39, 40, 1000, 99_999] {
            for p in 0..48 {
                let id = PlayerId(p);
                assert_eq!(a.proxy_of(id, frame), b.proxy_of(id, frame));
            }
        }
    }

    #[test]
    fn never_own_proxy() {
        let s = ProxySchedule::new(7, 16, 40);
        for frame in (0..4000).step_by(40) {
            for p in 0..16 {
                let id = PlayerId(p);
                assert_ne!(s.proxy_of(id, frame), id);
            }
        }
    }

    #[test]
    fn stable_within_epoch_changes_across() {
        let s = ProxySchedule::new(5, 48, 40);
        let id = PlayerId(7);
        let e0 = s.proxy_of(id, 0);
        for f in 0..40 {
            assert_eq!(s.proxy_of(id, f), e0);
        }
        // Across many epochs the proxy must change at least sometimes.
        let changes = (1..50).filter(|&e| s.proxy_of(id, e * 40) != e0).count();
        assert!(changes > 30, "proxy barely rotates: {changes}/49");
    }

    #[test]
    fn assignment_is_roughly_uniform() {
        let s = ProxySchedule::new(11, 16, 40);
        let mut counts = [0u32; 16];
        for epoch in 0..1000 {
            counts[s.proxy_of(PlayerId(3), epoch * 40).index()] += 1;
        }
        assert_eq!(counts[3], 0);
        // 1000 draws over 15 candidates ≈ 66.7 each; allow wide slack.
        for (i, &c) in counts.iter().enumerate() {
            if i != 3 {
                assert!((30..110).contains(&c), "player {i} drawn {c} times");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProxySchedule::new(1, 48, 40);
        let b = ProxySchedule::new(2, 48, 40);
        let same =
            (0..48).filter(|&p| a.proxy_of(PlayerId(p), 0) == b.proxy_of(PlayerId(p), 0)).count();
        assert!(same < 10, "seeds barely differ: {same}/48 identical");
    }

    #[test]
    fn clients_of_inverts_proxy_of() {
        let s = ProxySchedule::new(13, 24, 40);
        for frame in [0u64, 40, 4000] {
            for p in 0..24 {
                let proxy = PlayerId(p);
                for client in s.clients_of(proxy, frame) {
                    assert_eq!(s.proxy_of(client, frame), proxy);
                }
            }
            // Every player appears in exactly one client list.
            let total: usize = (0..24).map(|p| s.clients_of(PlayerId(p), frame).len()).sum();
            assert_eq!(total, 24);
        }
    }

    #[test]
    fn excluded_players_never_serve() {
        let mut s = ProxySchedule::new(17, 8, 40);
        s.try_exclude_from(PlayerId(2), 0).unwrap();
        s.try_exclude_from(PlayerId(5), 0).unwrap();
        assert_eq!(s.eligible_count_at(0), 6, "exactly the two excluded players left the pool");
        for epoch in 0..200 {
            for p in 0..8 {
                let proxy = s.proxy_of(PlayerId(p), epoch * 40);
                assert_ne!(proxy, PlayerId(2));
                assert_ne!(proxy, PlayerId(5));
            }
        }
        // Excluded players still get proxies themselves.
        assert_ne!(s.proxy_of(PlayerId(2), 0), PlayerId(2));
    }

    #[test]
    fn renewal_bookkeeping() {
        let s = ProxySchedule::new(3, 4, 40);
        assert_eq!(s.epoch_of(0), 0);
        assert_eq!(s.epoch_of(39), 0);
        assert_eq!(s.epoch_of(40), 1);
        assert_eq!(s.next_renewal(0), 40);
        assert_eq!(s.next_renewal(40), 80);
        assert_eq!(s.period(), 40);
        assert_eq!(s.players(), 4);
    }

    #[test]
    fn fallback_draws_are_distinct_and_deterministic() {
        let a = ProxySchedule::new(31, 16, 40);
        let b = ProxySchedule::new(31, 16, 40);
        for frame in [0u64, 40, 4000] {
            for p in 0..16 {
                let id = PlayerId(p);
                let draws: Vec<PlayerId> = (0..4).map(|n| a.nth_proxy_of(id, frame, n)).collect();
                // Independent nodes agree on every fallback level.
                for (n, &d) in draws.iter().enumerate() {
                    assert_eq!(d, b.nth_proxy_of(id, frame, n));
                    assert_ne!(d, id, "fallback drafted the player itself");
                }
                // All levels are distinct players.
                for i in 0..draws.len() {
                    for j in i + 1..draws.len() {
                        assert_ne!(draws[i], draws[j], "levels {i} and {j} collide");
                    }
                }
            }
        }
    }

    #[test]
    fn fallback_level_zero_is_the_assigned_proxy() {
        let s = ProxySchedule::new(47, 24, 40);
        for frame in (0..2000).step_by(40) {
            for p in 0..24 {
                let id = PlayerId(p);
                assert_eq!(s.nth_proxy_of(id, frame, 0), s.proxy_of(id, frame));
            }
        }
    }

    #[test]
    fn fallback_clamps_to_the_candidate_pool() {
        // Two players: the only candidate is the other player, at every
        // fallback level.
        let s = ProxySchedule::new(3, 2, 40);
        for n in 0..5 {
            assert_eq!(s.nth_proxy_of(PlayerId(0), 0, n), PlayerId(1));
        }
        // Excluded players shrink the pool the clamp sees.
        let mut s = ProxySchedule::new(3, 4, 40);
        s.try_exclude_from(PlayerId(2), 0).unwrap();
        let deepest = s.nth_proxy_of(PlayerId(0), 0, 99);
        assert_ne!(deepest, PlayerId(0));
        assert_ne!(deepest, PlayerId(2));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_pool_panics() {
        let _ = ProxySchedule::new(1, 1, 40);
    }

    #[test]
    fn over_exclusion_degrades_instead_of_panicking() {
        // Excluding down to one eligible proxy is the degraded
        // single-proxy mode; the exclusion that would empty the pool is
        // refused, not a process abort.
        let mut s = ProxySchedule::new(1, 3, 40);
        s.try_exclude_from(PlayerId(0), 0).unwrap();
        s.try_exclude_from(PlayerId(1), 0).unwrap();
        assert_eq!(s.eligible_count_at(0), 1, "the degraded single-proxy mode");
        // Everyone's proxy is the sole survivor…
        assert_eq!(s.proxy_of(PlayerId(0), 0), PlayerId(2));
        assert_eq!(s.proxy_of(PlayerId(1), 0), PlayerId(2));
        // …whose own draw has no candidate: the documented degenerate
        // self-proxy, not an infinite rejection loop.
        assert_eq!(s.proxy_of(PlayerId(2), 0), PlayerId(2));
        // Emptying the pool outright is refused and mutates nothing.
        assert_eq!(s.try_exclude_from(PlayerId(2), 0), Err(PoolError::Exhausted));
        assert_eq!(s.eligible_count_at(0), 1);
        assert_eq!(s.proxy_of(PlayerId(0), 0), PlayerId(2), "the survivor still serves");
    }

    #[test]
    fn exclusion_from_an_epoch_preserves_history() {
        let pristine = ProxySchedule::new(21, 8, 40);
        let mut s = ProxySchedule::new(21, 8, 40);
        // Player 5 leaves at the epoch-3 boundary (frame 120).
        s.try_exclude_from(PlayerId(5), 3).unwrap();
        for p in 0..8 {
            let id = PlayerId(p);
            // Epochs 0..3 keep their original draws — in-flight handoffs
            // and epoch summaries for past epochs still verify.
            for frame in [0u64, 41, 80, 119] {
                assert_eq!(s.proxy_of(id, frame), pristine.proxy_of(id, frame));
            }
            // From epoch 3 on, player 5 never serves.
            for frame in [120u64, 160, 4000] {
                if p != 5 {
                    assert_ne!(s.proxy_of(id, frame), PlayerId(5));
                }
            }
        }
        assert_eq!(s.eligible_count_at(119), 8);
        assert_eq!(s.eligible_count_at(120), 7, "boundary is exclusive: gone at exactly epoch 3");
        // Repeat exclusion keeps the earliest epoch.
        s.try_exclude_from(PlayerId(5), 9).unwrap();
        assert_eq!(s.eligible_count_at(120), 7);
    }

    #[test]
    fn admission_at_an_epoch_is_deterministic_and_history_safe() {
        let pristine = ProxySchedule::new(33, 4, 40);
        let mut a = ProxySchedule::new(33, 4, 40);
        let mut b = ProxySchedule::new(33, 4, 40);
        let ida = a.admit_at(2);
        let idb = b.admit_at(2);
        assert_eq!(ida, PlayerId(4), "dense next id");
        assert_eq!(ida, idb);
        assert_eq!(a.players(), 5);
        for p in 0..4 {
            let id = PlayerId(p);
            // Pre-join epochs are untouched by the admission…
            for frame in [0u64, 40, 79] {
                assert_eq!(a.proxy_of(id, frame), pristine.proxy_of(id, frame));
                assert_ne!(a.proxy_of(id, frame), ida, "joiner drafted before joining");
            }
            // …and from epoch 2 on both nodes agree on the grown pool.
            for frame in [80u64, 120, 4000] {
                assert_eq!(a.proxy_of(id, frame), b.proxy_of(id, frame));
            }
        }
        // The joiner is drawn as a proxy in some post-join epoch.
        let drafted = (2..60).any(|e| (0..4).any(|p| a.proxy_of(PlayerId(p), e * 40) == ida));
        assert!(drafted, "joiner never drafted after admission");
        // The joiner's own proxy is drawn from the veterans.
        assert_ne!(a.proxy_of(ida, 80), ida);
        // The joiner appears in exactly one client list after joining.
        let served: usize = (0..5).map(|p| a.clients_of(PlayerId(p), 80).len()).sum();
        assert_eq!(served, 5);
        // …but in none before.
        let before: usize = (0..5).map(|p| a.clients_of(PlayerId(p), 40).len()).sum();
        assert_eq!(before, 4);
    }
}
