//! Causal trace identities, and the event type of the benchmark's ring.
//!
//! Aggregate metrics answer "how many" and "how slow"; they cannot answer
//! "what happened to frame 4217 of player 9's update". Every wire message
//! gets a [`TraceId`] derived from its `(origin, seq)` pair, so the same
//! identifier is recomputed — with no extra wire bytes — at the origin,
//! at the relaying proxy, and at every subscriber, and a verdict's audit
//! record names it. A run is deterministic from its seed, so filtering a
//! re-run's datagrams by that id rebuilds the origin → proxy → verdict
//! journey (DESIGN §8).
//!
//! [`TraceEvent`], [`EventKind`] and [`Phase`] are what a
//! [`crate::FlightRecorder`] stores. No node records them; they stay
//! because the benchmark ledger times the ring
//! (`telemetry.recorder.record_ns`).

use std::sync::OnceLock;
use std::time::Instant;

/// The causal identity of one wire message, carried implicitly by the
/// `(origin, seq)` fields every envelope already has.
///
/// Derivation is a bijective 64-bit mix, so two distinct `(origin, seq)`
/// pairs can only collide if their packed representations collide —
/// impossible while `origin < 2^24` and `seq < 2^40`, far beyond any game
/// session (a 20 Hz sender needs ~1,700 years to exhaust 2^40 sequence
/// numbers).
///
/// # Examples
///
/// ```
/// use watchmen_telemetry::trace::TraceId;
///
/// let a = TraceId::from_origin_seq(9, 4217);
/// let b = TraceId::from_origin_seq(9, 4217);
/// assert_eq!(a, b); // recomputable at every hop
/// assert_ne!(a, TraceId::from_origin_seq(9, 4218));
/// assert_ne!(a, TraceId::NONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null id used by events not tied to a particular message
    /// (phase spans, network-level accounting).
    pub const NONE: TraceId = TraceId(0);

    /// Derives the id for the message `(origin, seq)`.
    #[must_use]
    pub fn from_origin_seq(origin: u32, seq: u64) -> TraceId {
        let packed = (u64::from(origin) << 40) ^ seq;
        let mixed = mix64(packed);
        // `mix64` is bijective, so only packed == 0 maps to 0; remap it to
        // keep `NONE` unambiguous.
        TraceId(if mixed == 0 { 0x9e37_79b9_7f4a_7c15 } else { mixed })
    }

    /// Whether this is a real message id (not [`TraceId::NONE`]).
    #[must_use]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The SplitMix64 finalizer: a bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The protocol phase a [`TraceEvent`] belongs to. Kept for the benchmark
/// ledger's ring kernel (`telemetry.recorder.record_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Whole-frame tick.
    Tick,
    /// Subscription maintenance (IS/VS set computation + subscribe msgs).
    Subscription,
    /// Publishing the local avatar's updates.
    Publish,
    /// Proxy-side relay of a supervised player's stream.
    ProxyRelay,
    /// Signature / replay / physics / rate verification.
    Verify,
    /// Epoch-boundary handoff.
    Handoff,
}

impl Phase {
    /// Stable label, as a [`TraceEvent`] displays it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Tick => "tick",
            Phase::Subscription => "subscription",
            Phase::Publish => "publish",
            Phase::ProxyRelay => "proxy-relay",
            Phase::Verify => "verify",
            Phase::Handoff => "handoff",
        }
    }
}

/// What kind of step a [`TraceEvent`] records. Kept for the benchmark
/// ledger's ring kernel (`telemetry.recorder.record_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A message was signed and queued at its origin.
    Send,
    /// A proxy forwarded the original signed bytes (`value` = fan-out).
    Relay,
    /// A verified message was delivered to the application.
    Deliver,
    /// A message was rejected (bad signature, replay, decode failure).
    Reject,
    /// A verification check ran (`value` = 1–10 score).
    Verdict,
    /// A check or invariant flagged a violation (`value` = score).
    Violation,
    /// A timed span (`dur_us` > 0), e.g. one tick phase.
    Span,
    /// A free-form point annotation.
    Mark,
}

impl EventKind {
    /// Stable label, as a [`TraceEvent`] displays it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Relay => "relay",
            EventKind::Deliver => "deliver",
            EventKind::Reject => "reject",
            EventKind::Verdict => "verdict",
            EventKind::Violation => "violation",
            EventKind::Span => "span",
            EventKind::Mark => "mark",
        }
    }
}

/// Sentinel for [`TraceEvent::subject`] when no player is concerned.
pub const NO_SUBJECT: u32 = u32::MAX;

/// One step of one message's (or one tick phase's) story. `Copy` and
/// fixed-size, so recording never allocates. Kept for the benchmark
/// ledger's ring kernel (`telemetry.recorder.record_ns`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// The message's causal id, or [`TraceId::NONE`] for phase spans.
    pub trace_id: TraceId,
    /// The node that recorded the event.
    pub node: u32,
    /// The player the event concerns (message origin, check subject), or
    /// [`NO_SUBJECT`].
    pub subject: u32,
    /// The protocol frame at the recording node.
    pub frame: u64,
    /// Protocol phase.
    pub phase: Phase,
    /// Step kind.
    pub kind: EventKind,
    /// A label from a small closed set (message class, check name).
    pub detail: &'static str,
    /// Kind-specific numeric detail (score, fan-out, bytes).
    pub value: i64,
    /// Microseconds since the process-wide trace epoch.
    pub at_us: u64,
    /// Span duration in microseconds (0 for point events).
    pub dur_us: u64,
}

impl TraceEvent {
    /// A point event with the clock fields zeroed; the recorder stamps
    /// `at_us` when the event is recorded.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn point(
        trace_id: TraceId,
        node: u32,
        subject: u32,
        frame: u64,
        phase: Phase,
        kind: EventKind,
        detail: &'static str,
        value: i64,
    ) -> Self {
        TraceEvent {
            trace_id,
            node,
            subject,
            frame,
            phase,
            kind,
            detail,
            value,
            at_us: 0,
            dur_us: 0,
        }
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>10}us] n{:<3} f{:<6} {:<12} {:<8} {}",
            self.at_us,
            self.node,
            self.frame,
            self.phase.label(),
            self.kind.label(),
            self.detail,
        )?;
        if self.subject != NO_SUBJECT {
            write!(f, " subject=p{}", self.subject)?;
        }
        if self.trace_id.is_some() {
            write!(f, " trace={}", self.trace_id)?;
        }
        if self.value != 0 {
            write!(f, " value={}", self.value)?;
        }
        if self.dur_us != 0 {
            write!(f, " dur={}us", self.dur_us)?;
        }
        Ok(())
    }
}

/// The process-wide epoch every ring stamps against, so events from
/// different rings in one process share a timeline.
#[must_use]
pub fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since [`process_epoch`].
#[must_use]
pub fn now_us() -> u64 {
    process_epoch().elapsed().as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_is_deterministic_and_distinct() {
        let a = TraceId::from_origin_seq(3, 100);
        assert_eq!(a, TraceId::from_origin_seq(3, 100));
        assert_ne!(a, TraceId::from_origin_seq(4, 100));
        assert_ne!(a, TraceId::from_origin_seq(3, 101));
        assert!(a.is_some());
        assert!(!TraceId::NONE.is_some());
    }

    #[test]
    fn zero_input_does_not_produce_none() {
        assert!(TraceId::from_origin_seq(0, 0).is_some());
    }

    #[test]
    fn display_is_16_hex_digits() {
        assert_eq!(format!("{}", TraceId::NONE).len(), 16);
        assert_eq!(format!("{}", TraceId::from_origin_seq(1, 1)).len(), 16);
    }

    #[test]
    fn event_display_mentions_key_fields() {
        let mut e = TraceEvent::point(
            TraceId::from_origin_seq(9, 4217),
            2,
            9,
            4217,
            Phase::Verify,
            EventKind::Verdict,
            "position",
            7,
        );
        e.at_us = 123;
        let s = e.to_string();
        assert!(s.contains("verify"), "{s}");
        assert!(s.contains("subject=p9"), "{s}");
        assert!(s.contains("value=7"), "{s}");
    }
}
