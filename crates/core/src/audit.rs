//! The verdict audit stream: append-only, structured records of every
//! detection decision.
//!
//! Metrics aggregate; a seeded re-run reproduces every datagram. The
//! audit stream sits between them — one compact, structured record per
//! *decision* (a verification verdict, a supervised player's worst-rating
//! transition, a parked subscription check resolving, a lobby ban), each
//! carrying the causal [`TraceId`], the check name from the closed
//! [`crate::verify::checks`] vocabulary, the frame, and a short evidence
//! summary. Records accumulate in a lock-free per-emitter [`AuditLog`]
//! (plain `Vec` behind `&mut self` — nodes and the lobby are
//! single-threaded within a match) and are drained by the embedding
//! driver, which is what makes the stream cheap on the hot path and
//! deterministic: drain order is the driver's order, not a scheduler's.
//!
//! Rendered as JSONL ([`AuditRecord::to_jsonl`]), the stream is
//! byte-identical for a given match seed regardless of how many worker
//! threads the fleet runs — the property the observability e2e test
//! pins — and is what the detection-quality join in `watchmen-sim`
//! evaluates against injected ground truth.

use std::fmt::Write as _;

use watchmen_telemetry::export::json_string;
use watchmen_telemetry::TraceId;

/// What kind of decision an [`AuditRecord`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// A verification check produced a rating (any score, including the
    /// clean epoch summaries that give recall its denominator).
    Verdict,
    /// A supervised player's per-epoch worst rating changed.
    RatingTransition,
    /// A parked pending check (subscription offense) resolved.
    PendingResolved,
    /// The lobby's reputation system banned a player.
    Ban,
    /// A message failed signature verification.
    BadSignature,
    /// A stale or duplicate sequence number was rejected.
    Replay,
}

impl AuditKind {
    /// The stable wire label used in the JSONL rendering.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AuditKind::Verdict => "verdict",
            AuditKind::RatingTransition => "rating_transition",
            AuditKind::PendingResolved => "pending_resolved",
            AuditKind::Ban => "ban",
            AuditKind::BadSignature => "bad_signature",
            AuditKind::Replay => "replay",
        }
    }
}

/// The emitter id used for records produced by the lobby rather than an
/// in-game node.
pub const LOBBY_NODE: u32 = u32::MAX;

/// One decision in the audit stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// The frame the decision was made in (envelope generation frame for
    /// message-driven decisions).
    pub frame: u64,
    /// The emitting vantage: a node's player id, or [`LOBBY_NODE`].
    pub node: u32,
    /// The player the decision is about.
    pub subject: u32,
    /// What kind of decision this is.
    pub kind: AuditKind,
    /// The check that fired, from [`crate::verify::checks`] (empty for
    /// decisions without a check, e.g. bans and signature failures).
    pub check: &'static str,
    /// The rating score involved (0 when no score applies).
    pub score: u8,
    /// The verifier's confidence label (`c_P`…`c_O`, empty when none).
    pub confidence: &'static str,
    /// The causal trace id of the triggering message
    /// ([`TraceId::NONE`] for frame-driven decisions).
    pub trace: TraceId,
    /// A short evidence summary (outcome, rating display, transition).
    pub detail: String,
}

impl AuditRecord {
    /// Renders the record as one JSON line (no trailing newline), with a
    /// fixed key order so equal records render byte-identically.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"frame\":{},\"node\":{},\"subject\":{},\"kind\":\"{}\",\"check\":{},\
             \"score\":{},\"confidence\":\"{}\",\"trace\":\"{}\",\"detail\":{}}}",
            self.frame,
            self.node,
            self.subject,
            self.kind.label(),
            json_string(self.check),
            self.score,
            self.confidence,
            self.trace,
            json_string(&self.detail),
        );
        out
    }
}

/// How many records an [`AuditLog`] retains between drains before it
/// starts counting drops. Fleet drivers drain every frame, so the bound
/// only matters for embedders that forget to.
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

/// A lock-free append buffer of [`AuditRecord`]s owned by one emitter
/// (node or lobby).
///
/// `push` is `&mut self` on a `Vec` — no locks, no allocation beyond the
/// vector's amortized growth — and a disabled log drops records at the
/// door so the plane can be switched off for overhead measurements.
#[derive(Debug)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog::new(DEFAULT_AUDIT_CAPACITY)
    }
}

impl AuditLog {
    /// Creates an enabled log retaining at most `capacity` records
    /// between drains.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "audit capacity must be positive");
        AuditLog { records: Vec::new(), capacity, dropped: 0, enabled: true }
    }

    /// Appends a record; counts it as dropped when the log is full, and
    /// drops silently when disabled.
    pub fn push(&mut self, record: AuditRecord) {
        self.push_with(|| record);
    }

    /// Like [`AuditLog::push`], but the record is only built when it will
    /// actually be stored — the hot-path form for records whose detail
    /// string costs an allocation to format.
    pub fn push_with(&mut self, make: impl FnOnce() -> AuditRecord) {
        if !self.enabled {
            return;
        }
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push(make());
    }

    /// Turns recording on or off (off: `push` becomes a cheap no-op).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records dropped because the buffer was full since construction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Takes every buffered record, oldest first.
    pub fn drain(&mut self) -> Vec<AuditRecord> {
        std::mem::take(&mut self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(frame: u64, subject: u32) -> AuditRecord {
        AuditRecord {
            frame,
            node: 1,
            subject,
            kind: AuditKind::Verdict,
            check: "position",
            score: 7,
            confidence: "c_P",
            trace: TraceId::from_origin_seq(2, 9),
            detail: "rating 7/10".to_owned(),
        }
    }

    #[test]
    fn jsonl_is_deterministic_and_escaped() {
        let r = record(5, 2);
        let line = r.to_jsonl();
        assert_eq!(line, record(5, 2).to_jsonl());
        assert!(line.starts_with("{\"frame\":5,\"node\":1,\"subject\":2,"), "{line}");
        assert!(line.contains("\"kind\":\"verdict\""), "{line}");
        assert!(line.contains("\"check\":\"position\""), "{line}");
        assert!(line.contains("\"confidence\":\"c_P\""), "{line}");
        assert!(line.ends_with('}'), "{line}");

        let mut odd = record(1, 1);
        odd.detail = "say \"hi\"\\\n".to_owned();
        assert!(odd.to_jsonl().contains("say \\\"hi\\\"\\\\\\n"), "{}", odd.to_jsonl());
    }

    #[test]
    fn log_drains_in_order_and_bounds() {
        let mut log = AuditLog::new(2);
        log.push(record(1, 1));
        log.push(record(2, 2));
        log.push(record(3, 3)); // over capacity
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].frame, 1);
        assert_eq!(drained[1].frame, 2);
        assert!(log.is_empty());
        // The drain frees capacity again.
        log.push(record(4, 4));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn disabled_log_drops_silently() {
        let mut log = AuditLog::default();
        log.set_enabled(false);
        log.push(record(1, 1));
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        log.set_enabled(true);
        log.push(record(2, 2));
        assert_eq!(log.len(), 1);
    }
}
