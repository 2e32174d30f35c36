//! Architecture-wide configuration.

/// Tunable parameters of the Watchmen architecture, with defaults matching
/// the paper's prototype (Section III/VI; see DESIGN.md for the recovery
/// of OCR-damaged constants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchmenConfig {
    /// Frame duration in milliseconds (Quake III: 50 ms).
    pub frame_ms: f64,
    /// Vision-cone radius in world units.
    pub vision_radius: f64,
    /// Vision-cone half-angle in radians. The paper uses ±60° "made
    /// slightly larger than the actual avatar's vision field" to absorb
    /// rapid spins; the default adds 10 % slack.
    pub vision_half_angle: f64,
    /// Interest-set size ("the size of the IS can be fixed (e.g., 5)").
    pub interest_size: usize,
    /// Frames between proxy renewals ("proxies are rearranged after a
    /// predetermined period of time (40 frames in our implementation)").
    pub proxy_period: u64,
    /// Frames between dead-reckoning guidance messages to the vision set
    /// ("one per second in our implementation" = 20 frames).
    pub guidance_period: u64,
    /// Frames between infrequent position updates to others ("typically
    /// every second").
    pub others_period: u64,
    /// Frames a subscription is retained without renewal before expiry
    /// ("subscriptions are kept for a predetermined number of frames").
    pub subscription_retention: u64,
    /// Updates older than this many frames count as lost (150 ms latency
    /// tolerance at 50 ms frames = 3 frames).
    pub loss_age_frames: u64,
    /// Frames an unacked control message (subscription or handoff) waits
    /// before its first retransmission; later attempts back off
    /// exponentially from this base.
    pub retransmit_timeout_frames: u64,
    /// Cap on the exponential retransmit backoff, in frames.
    pub retransmit_backoff_cap_frames: u64,
    /// Retransmissions before a control message is abandoned and counted
    /// as an unrecovered chain (this should never fire on a merely lossy
    /// network — it indicates a dead or unreachable peer).
    pub retransmit_max_attempts: u32,
    /// Proxy-liveness window, in multiples of [`Self::others_period`]: a
    /// node that has produced no evidence of life for `proxy_liveness_k`
    /// consecutive expected relay periods is presumed crashed and skipped
    /// by the deterministic fallback draw.
    pub proxy_liveness_k: u64,
    /// How many extra draws of the shared proxy-schedule PRNG a node will
    /// walk past presumed-crashed picks. Bounds the divergence between
    /// nodes with different liveness views: any fallback proxy is within
    /// this many draws of the scheduled one, so receivers accept duty from
    /// the whole plausible set.
    pub proxy_fallback_depth: u32,
    /// Frames of total silence after which a player is *evicted* from the
    /// roster at the next proxy-renewal boundary. Strictly longer than
    /// the proxy-liveness window ([`Self::liveness_timeout_frames`]):
    /// liveness fallback masks a crash within seconds, while eviction is
    /// the heavyweight, hard-to-reverse step (the id is retired for the
    /// rest of the game), so it waits for stronger evidence.
    pub membership_timeout_frames: u64,
    /// Maximum roster size, counting departed members (ids are dense and
    /// never recycled). Join tickets beyond this are refused.
    pub max_roster: usize,
    /// Maximum states the joiner-bootstrap snapshot carries (capped by
    /// the wire format at [`crate::msg::MAX_BOOTSTRAP_ENTRIES`]).
    pub join_bootstrap_depth: usize,
    /// Length of the sliding mid-game admission window, in frames. A
    /// Sybil flood through [`crate::lobby::GameLobby::admit_midgame`] is
    /// throttled to [`Self::max_joins_per_window`] joins per window.
    pub admission_window_frames: u64,
    /// Mid-game joins admitted per [`Self::admission_window_frames`]
    /// window; attempts beyond are refused with
    /// [`crate::lobby::AdmitError::Throttled`] and flagged in the audit
    /// stream under the `admission` check.
    pub max_joins_per_window: u32,
    /// Reputation ban threshold: a player is banned when the fraction of
    /// their interactions rated acceptable falls below this (the paper's
    /// "simplest form" of reputation, Section V). Must lie strictly
    /// inside `(0, 1)`.
    pub reputation_threshold: f64,
    /// Reports required before the reputation threshold can trigger a
    /// ban — the warm-up that keeps one noisy verdict from banning an
    /// honest player.
    pub reputation_min_reports: u64,
}

impl Default for WatchmenConfig {
    fn default() -> Self {
        WatchmenConfig {
            frame_ms: 50.0,
            vision_radius: 150.0,
            vision_half_angle: (60.0f64 * 1.1).to_radians(),
            interest_size: 5,
            proxy_period: 40,
            guidance_period: 20,
            others_period: 20,
            subscription_retention: 40,
            loss_age_frames: 3,
            retransmit_timeout_frames: 8,
            retransmit_backoff_cap_frames: 64,
            retransmit_max_attempts: 12,
            proxy_liveness_k: 3,
            proxy_fallback_depth: 2,
            membership_timeout_frames: 120,
            max_roster: 256,
            join_bootstrap_depth: 8,
            // One proxy period per window, four joins each: plenty for
            // organic churn, an order of magnitude under a flood burst.
            admission_window_frames: 40,
            max_joins_per_window: 4,
            // Ban below 85% acceptable interactions after 30 reports —
            // tuned for a ≤5% false-positive detector (see DESIGN.md).
            reputation_threshold: 0.85,
            reputation_min_reports: 30,
        }
    }
}

impl WatchmenConfig {
    /// Frame duration in seconds.
    #[must_use]
    pub fn frame_seconds(&self) -> f64 {
        self.frame_ms / 1000.0
    }

    /// Returns `true` if `frame` is a proxy-renewal boundary.
    #[must_use]
    pub fn is_renewal_frame(&self, frame: u64) -> bool {
        frame.is_multiple_of(self.proxy_period)
    }

    /// Returns `true` if `frame` is a guidance-emission frame for a player
    /// (staggered by player id so the 1 Hz messages spread over the
    /// second instead of bursting).
    #[must_use]
    pub fn is_guidance_frame(&self, frame: u64, player_index: usize) -> bool {
        frame % self.guidance_period == player_index as u64 % self.guidance_period
    }

    /// Returns `true` if `frame` is an infrequent-position-update frame
    /// for a player (staggered like guidance, offset half a period so the
    /// two low-rate streams interleave).
    #[must_use]
    pub fn is_others_frame(&self, frame: u64, player_index: usize) -> bool {
        let offset = (player_index as u64 + self.others_period / 2) % self.others_period;
        frame % self.others_period == offset
    }

    /// Validates internal consistency, panicking on nonsense values.
    ///
    /// # Panics
    ///
    /// Panics if any period is zero, the cone is degenerate, or the
    /// interest size is zero.
    pub fn validate(&self) {
        assert!(self.frame_ms > 0.0, "frame_ms must be positive");
        assert!(self.vision_radius > 0.0, "vision_radius must be positive");
        assert!(
            self.vision_half_angle > 0.0 && self.vision_half_angle <= std::f64::consts::PI,
            "vision_half_angle out of range"
        );
        assert!(self.interest_size > 0, "interest_size must be positive");
        assert!(self.proxy_period > 0, "proxy_period must be positive");
        assert!(self.guidance_period > 0, "guidance_period must be positive");
        assert!(self.others_period > 0, "others_period must be positive");
        assert!(self.retransmit_timeout_frames > 0, "retransmit_timeout_frames must be positive");
        assert!(
            self.retransmit_backoff_cap_frames >= self.retransmit_timeout_frames,
            "retransmit_backoff_cap_frames must be at least the base timeout"
        );
        assert!(self.retransmit_max_attempts > 0, "retransmit_max_attempts must be positive");
        assert!(self.proxy_liveness_k > 0, "proxy_liveness_k must be positive");
        assert!(
            self.membership_timeout_frames > self.liveness_timeout_frames(),
            "membership_timeout_frames must exceed the proxy-liveness window: eviction is \
             permanent, so it must wait for strictly stronger evidence than a fallback"
        );
        assert!(self.max_roster >= 2, "max_roster must cover at least two players");
        assert!(
            (1..=crate::msg::MAX_BOOTSTRAP_ENTRIES).contains(&self.join_bootstrap_depth),
            "join_bootstrap_depth must be between 1 and the wire-format cap"
        );
        assert!(self.admission_window_frames > 0, "admission_window_frames must be positive");
        assert!(self.max_joins_per_window > 0, "max_joins_per_window must be positive");
        assert!(
            self.reputation_threshold > 0.0 && self.reputation_threshold < 1.0,
            "reputation_threshold must lie strictly inside (0, 1)"
        );
        assert!(self.reputation_min_reports > 0, "reputation_min_reports must be positive");
    }

    /// Frames of silence after which a peer is presumed crashed: `k`
    /// missed relay periods (the slowest traffic every live node emits).
    #[must_use]
    pub fn liveness_timeout_frames(&self) -> u64 {
        self.proxy_liveness_k * self.others_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WatchmenConfig::default();
        c.validate();
        assert_eq!(c.frame_ms, 50.0);
        assert_eq!(c.interest_size, 5);
        assert_eq!(c.proxy_period, 40); // 2 s
        assert_eq!(c.guidance_period, 20); // 1 s
        assert_eq!(c.loss_age_frames, 3); // 150 ms
        assert!(c.vision_half_angle > 60f64.to_radians());
        assert_eq!(c.frame_seconds(), 0.05);
    }

    #[test]
    fn renewal_frames() {
        let c = WatchmenConfig::default();
        assert!(c.is_renewal_frame(0));
        assert!(c.is_renewal_frame(40));
        assert!(c.is_renewal_frame(80));
        assert!(!c.is_renewal_frame(41));
    }

    #[test]
    fn guidance_frames_staggered() {
        let c = WatchmenConfig::default();
        // Player 0 emits at frames 0, 20, 40…; player 3 at 3, 23, 43…
        assert!(c.is_guidance_frame(0, 0));
        assert!(c.is_guidance_frame(20, 0));
        assert!(!c.is_guidance_frame(1, 0));
        assert!(c.is_guidance_frame(3, 3));
        assert!(c.is_guidance_frame(23, 3));
        // Exactly one emission per period.
        for p in 0..48 {
            let count = (0..20).filter(|&f| c.is_guidance_frame(f, p)).count();
            assert_eq!(count, 1, "player {p}");
        }
    }

    #[test]
    fn others_frames_offset_from_guidance() {
        let c = WatchmenConfig::default();
        for p in 0..48 {
            let count = (0..20).filter(|&f| c.is_others_frame(f, p)).count();
            assert_eq!(count, 1, "player {p}");
        }
        // Player 0: guidance at 0, others at 10.
        assert!(c.is_others_frame(10, 0));
        assert!(!c.is_others_frame(0, 0));
    }

    #[test]
    #[should_panic(expected = "interest_size")]
    fn invalid_config_panics() {
        let c = WatchmenConfig { interest_size: 0, ..WatchmenConfig::default() };
        c.validate();
    }

    #[test]
    fn liveness_timeout_scales_with_relay_period() {
        let c = WatchmenConfig::default();
        assert_eq!(c.liveness_timeout_frames(), 60); // 3 × 20-frame relays
        let fast = WatchmenConfig { proxy_liveness_k: 1, others_period: 10, ..c };
        assert_eq!(fast.liveness_timeout_frames(), 10);
    }

    #[test]
    #[should_panic(expected = "membership_timeout_frames")]
    fn eviction_faster_than_fallback_panics() {
        // Eviction firing before (or with) the liveness fallback would
        // retire ids on evidence the fallback layer still treats as a
        // transient outage.
        let c = WatchmenConfig { membership_timeout_frames: 60, ..WatchmenConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "join_bootstrap_depth")]
    fn oversized_bootstrap_depth_panics() {
        let c = WatchmenConfig { join_bootstrap_depth: 9, ..WatchmenConfig::default() };
        c.validate();
    }

    #[test]
    fn churn_knob_defaults_are_consistent() {
        let c = WatchmenConfig::default();
        assert_eq!(c.membership_timeout_frames, 120); // 6 s — 2× the liveness window
        assert!(c.membership_timeout_frames > c.liveness_timeout_frames());
        assert_eq!(c.max_roster, 256);
        assert_eq!(c.join_bootstrap_depth, crate::msg::MAX_BOOTSTRAP_ENTRIES);
        assert_eq!(c.admission_window_frames, 40); // one proxy period
        assert_eq!(c.max_joins_per_window, 4);
        assert_eq!(c.reputation_threshold, 0.85);
        assert_eq!(c.reputation_min_reports, 30);
    }

    #[test]
    #[should_panic(expected = "reputation_threshold")]
    fn reputation_threshold_of_one_panics() {
        let c = WatchmenConfig { reputation_threshold: 1.0, ..WatchmenConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "reputation_min_reports")]
    fn zero_min_reports_panics() {
        let c = WatchmenConfig { reputation_min_reports: 0, ..WatchmenConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "max_joins_per_window")]
    fn zero_join_allowance_panics() {
        let c = WatchmenConfig { max_joins_per_window: 0, ..WatchmenConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "retransmit_backoff_cap_frames")]
    fn backoff_cap_below_timeout_panics() {
        let c = WatchmenConfig {
            retransmit_timeout_frames: 10,
            retransmit_backoff_cap_frames: 5,
            ..WatchmenConfig::default()
        };
        c.validate();
    }
}
