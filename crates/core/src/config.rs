//! Architecture-wide configuration.

/// The settable parameters of the Watchmen architecture, with defaults
/// matching the paper's prototype (Section III/VI; see DESIGN.md for the
/// recovery of OCR-damaged constants). The prototype's fixed protocol
/// constants are associated constants on this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchmenConfig {
    /// Frame duration in milliseconds (Quake III: 50 ms).
    pub frame_ms: f64,
    /// Interest-set size ("the size of the IS can be fixed (e.g., 5)").
    pub interest_size: usize,
    /// Frames between proxy renewals ("proxies are rearranged after a
    /// predetermined period of time (40 frames in our implementation)").
    pub proxy_period: u64,
    /// Frames a subscription is retained without renewal before expiry
    /// ("subscriptions are kept for a predetermined number of frames").
    pub subscription_retention: u64,
    /// Proxy-liveness window, in multiples of [`Self::OTHERS_PERIOD`]: a
    /// node that has produced no evidence of life for `proxy_liveness_k`
    /// consecutive expected relay periods is presumed crashed and skipped
    /// by the deterministic fallback draw.
    pub proxy_liveness_k: u64,
    /// Frames of total silence after which a player is *evicted* from the
    /// roster at the next proxy-renewal boundary. Strictly longer than
    /// the proxy-liveness window ([`Self::liveness_timeout_frames`]):
    /// liveness fallback masks a crash within seconds, while eviction is
    /// the heavyweight, hard-to-reverse step (the id is retired for the
    /// rest of the game), so it waits for stronger evidence.
    pub membership_timeout_frames: u64,
}

impl Default for WatchmenConfig {
    fn default() -> Self {
        WatchmenConfig {
            frame_ms: 50.0,
            interest_size: 5,
            proxy_period: 40,
            subscription_retention: 40,
            proxy_liveness_k: 3,
            membership_timeout_frames: 120,
        }
    }
}

impl WatchmenConfig {
    /// Vision-cone radius in world units.
    pub const VISION_RADIUS: f64 = 150.0;
    /// Vision-cone half-angle in radians. The paper uses ±60° "made
    /// slightly larger than the actual avatar's vision field" to absorb
    /// rapid spins; this adds 10 % slack.
    pub const VISION_HALF_ANGLE: f64 = (60.0f64 * 1.1).to_radians();
    /// Frames between dead-reckoning guidance messages to the vision set
    /// ("one per second in our implementation" = 20 frames).
    pub const GUIDANCE_PERIOD: u64 = 20;
    /// Frames between infrequent position updates to others ("typically
    /// every second").
    pub const OTHERS_PERIOD: u64 = 20;
    /// Updates older than this many frames count as lost (150 ms latency
    /// tolerance at 50 ms frames = 3 frames).
    pub const LOSS_AGE_FRAMES: u64 = 3;
    /// Frames an unacked control message (subscription or handoff) waits
    /// before its first retransmission; later attempts back off
    /// exponentially from this base.
    pub const RETRANSMIT_TIMEOUT_FRAMES: u64 = 8;
    /// Cap on the exponential retransmit backoff, in frames.
    pub const RETRANSMIT_BACKOFF_CAP_FRAMES: u64 = 64;
    /// Retransmissions before a control message is abandoned and counted
    /// as an unrecovered chain (this should never fire on a merely lossy
    /// network — it indicates a dead or unreachable peer).
    pub const RETRANSMIT_MAX_ATTEMPTS: u32 = 12;
    /// How many extra draws of the shared proxy-schedule PRNG a node will
    /// walk past presumed-crashed picks. Bounds the divergence between
    /// nodes with different liveness views: any fallback proxy is within
    /// this many draws of the scheduled one, so receivers accept duty from
    /// the whole plausible set
    /// ([`crate::proxy::ProxySchedule::plausible_proxies`]).
    pub const PROXY_FALLBACK_DEPTH: usize = 2;
    /// Maximum roster size, counting departed members (ids are dense and
    /// never recycled). Join tickets beyond this are refused.
    pub const MAX_ROSTER: usize = 256;
    /// Length of the sliding mid-game admission window, in frames — one
    /// proxy period. A Sybil flood through
    /// [`crate::lobby::GameLobby::admit_midgame`] is throttled to
    /// [`Self::MAX_JOINS_PER_WINDOW`] joins per window.
    pub const ADMISSION_WINDOW_FRAMES: u64 = 40;
    /// Mid-game joins admitted per [`Self::ADMISSION_WINDOW_FRAMES`]
    /// window — plenty for organic churn, an order of magnitude under a
    /// flood burst; attempts beyond are refused with
    /// [`crate::lobby::AdmitError::Throttled`] and flagged in the audit
    /// stream under the `admission` check.
    pub const MAX_JOINS_PER_WINDOW: u32 = 4;
    /// Reputation ban threshold: a player is banned when the fraction of
    /// their interactions rated acceptable falls below this (the paper's
    /// "simplest form" of reputation, Section V) — 85 %, tuned for a
    /// ≤ 5 % false-positive detector (see DESIGN.md).
    pub const REPUTATION_THRESHOLD: f64 = 0.85;
    /// Reports required before the reputation threshold can trigger a
    /// ban — the warm-up that keeps one noisy verdict from banning an
    /// honest player.
    pub const REPUTATION_MIN_REPORTS: u64 = 30;

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
        frame % Self::GUIDANCE_PERIOD == player_index as u64 % Self::GUIDANCE_PERIOD
    }

    /// Returns `true` if `frame` is an infrequent-position-update frame
    /// for a player (staggered like guidance, offset half a period so the
    /// two low-rate streams interleave).
    #[must_use]
    pub fn is_others_frame(&self, frame: u64, player_index: usize) -> bool {
        let offset = (player_index as u64 + Self::OTHERS_PERIOD / 2) % Self::OTHERS_PERIOD;
        frame % Self::OTHERS_PERIOD == offset
    }

    /// Validates internal consistency, panicking on nonsense values.
    ///
    /// # Panics
    ///
    /// Panics if the frame or a period is not positive, the interest size
    /// is zero, subscriptions are retained for fewer than two frames (the
    /// refresh interval is half the retention), or eviction would not
    /// wait longer than the proxy-liveness window.
    pub fn validate(&self) {
        assert!(self.frame_ms > 0.0, "frame_ms must be positive");
        assert!(self.interest_size > 0, "interest_size must be positive");
        assert!(self.proxy_period > 0, "proxy_period must be positive");
        assert!(
            self.subscription_retention >= 2,
            "subscription_retention must be at least 2: a subscription installed with no \
             lifetime is never served, and one frame leaves no refresh interval"
        );
        assert!(self.proxy_liveness_k > 0, "proxy_liveness_k must be positive");
        assert!(
            self.membership_timeout_frames > self.liveness_timeout_frames(),
            "membership_timeout_frames must exceed the proxy-liveness window: eviction is \
             permanent, so it must wait for strictly stronger evidence than a fallback"
        );
    }

    /// Frames of silence after which a peer is presumed crashed: `k`
    /// missed relay periods (the slowest traffic every live node emits).
    #[must_use]
    pub fn liveness_timeout_frames(&self) -> u64 {
        self.proxy_liveness_k * Self::OTHERS_PERIOD
    }
}

const _: () = {
    assert!(
        WatchmenConfig::VISION_HALF_ANGLE > 0.0
            && WatchmenConfig::VISION_HALF_ANGLE <= std::f64::consts::PI
    );
    assert!(
        WatchmenConfig::RETRANSMIT_BACKOFF_CAP_FRAMES >= WatchmenConfig::RETRANSMIT_TIMEOUT_FRAMES
    );
    assert!(
        WatchmenConfig::REPUTATION_THRESHOLD > 0.0 && WatchmenConfig::REPUTATION_THRESHOLD < 1.0
    );
};

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
        assert_eq!(WatchmenConfig::GUIDANCE_PERIOD, 20); // 1 s
        assert_eq!(WatchmenConfig::LOSS_AGE_FRAMES, 3); // 150 ms
        assert!(WatchmenConfig::VISION_HALF_ANGLE > 60f64.to_radians());
        assert_eq!(c.frame_seconds(), 0.05);
        assert_eq!(c.membership_timeout_frames, 120); // 6 s — 2× the liveness window
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
        let fast = WatchmenConfig { proxy_liveness_k: 2, ..c };
        assert_eq!(fast.liveness_timeout_frames(), 40);
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
    #[should_panic(expected = "subscription_retention")]
    fn one_frame_retention_panics() {
        let c = WatchmenConfig { subscription_retention: 1, ..WatchmenConfig::default() };
        c.validate();
    }
}
