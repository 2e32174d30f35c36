//! Instrumentation: timing histograms, counters, the flight recorder and
//! its violation dumps, and the verdict audit stream. Each protocol entry
//! point reports its events here exactly once ([`Instrument::observe`]).

use std::collections::VecDeque;
use std::sync::Arc;

use watchmen_telemetry::trace::{EventKind, Phase, TraceEvent, TraceId};
use watchmen_telemetry::{Counter, FlightDump, FlightRecorder, Histogram, DEFAULT_CAPACITY};

use super::{Inbound, NodeEvent, WatchmenNode};
use crate::audit::{AuditKind, AuditLog, AuditRecord};

/// Violation dumps retained per node before the oldest is discarded.
const MAX_FLIGHT_DUMPS: usize = 8;

/// What a recorder event is: its phase, kind and detail label.
pub(super) type Point = (Phase, EventKind, &'static str);

/// What an audit record decided: `(kind, check, score, confidence label)`.
pub(super) type Judgement = (AuditKind, &'static str, u8, &'static str);

/// Every node metric and its help text, described once per node.
const HELP: [(&str, &str); 22] = [
    ("node_tick_duration_ms", "wall time of one begin_frame call"),
    ("node_tick_phase_duration_ms", "wall time of one begin_frame phase"),
    ("node_handle_message_duration_ms", "wall time of one handle_message call"),
    ("node_subscriptions_sent_total", "subscribe messages issued"),
    ("node_messages_forwarded_total", "signed messages forwarded as proxy"),
    ("proxy_handoffs_total", "handoff notices sent at epoch boundaries"),
    ("proxy_handoffs_received_total", "handoff notices accepted from predecessors"),
    ("node_bad_signatures_total", "messages rejected for signature failure"),
    ("node_replays_total", "messages rejected as replayed or stale"),
    ("node_suspicions_total", "verification checks that flagged a player"),
    ("node_control_retransmits_total", "control messages re-sent after ack timeout"),
    ("node_control_acks_sent_total", "acks emitted for processed control messages"),
    ("node_control_acks_received_total", "acks that retired a pending control message"),
    ("node_control_abandoned_total", "control messages given up on (unrecovered)"),
    ("node_proxy_fallbacks_total", "switches to a fallback proxy draw"),
    ("node_roster_active", "active roster members after the last boundary"),
    ("node_roster_joins_total", "mid-game joins applied at boundaries"),
    ("node_roster_leaves_total", "graceful leaves applied at boundaries"),
    ("node_roster_evictions_total", "timeout evictions applied at boundaries"),
    ("node_bootstraps_sent_total", "joiner-bootstrap snapshots assembled"),
    ("node_bootstraps_received_total", "joiner-bootstrap snapshots received"),
    ("node_stale_drops_total", "messages dropped as superseded churn traffic"),
];

/// A per-node count and its global registry counter, bumped together so
/// each event is counted in one place.
#[derive(Debug)]
pub(super) struct Tally {
    pub(super) count: u64,
    global: Arc<Counter>,
}

impl Tally {
    pub(super) fn new(name: &'static str) -> Self {
        Tally { count: 0, global: watchmen_telemetry::global().counter(name) }
    }

    pub(super) fn inc(&mut self) {
        self.count += 1;
        self.global.inc();
    }
}

/// The node's instrumentation. Handles are fetched once per node so
/// per-frame recording is a couple of atomic adds, never a registry
/// lookup.
#[derive(Debug)]
pub(super) struct Instrument {
    /// The recording node's id, stamped on every event and record.
    node: u32,
    pub(super) tick_ms: Arc<Histogram>,
    pub(super) subscription_phase_ms: Arc<Histogram>,
    pub(super) publish_phase_ms: Arc<Histogram>,
    pub(super) handoff_phase_ms: Arc<Histogram>,
    pub(super) handle_message_ms: Arc<Histogram>,
    messages_forwarded: Arc<Counter>,
    handoffs_received: Arc<Counter>,
    bad_signatures: Arc<Counter>,
    replays: Arc<Counter>,
    /// Per-node flight recorder of trace events (sends, relays,
    /// deliveries, rejections, verdicts).
    recorder: Arc<FlightRecorder>,
    /// Violation dumps captured by [`Self::observe`], oldest first.
    flight_dumps: VecDeque<FlightDump>,
    /// The verdict audit stream: one structured record per detection
    /// decision, drained by the embedding driver.
    audit: AuditLog,
}

impl Instrument {
    pub(super) fn new(node: u32) -> Self {
        let t = watchmen_telemetry::global();
        for (name, help) in HELP {
            t.describe(name, help);
        }
        let phase = |p: &str| t.histogram_with("node_tick_phase_duration_ms", &[("phase", p)]);
        Instrument {
            node,
            tick_ms: t.histogram("node_tick_duration_ms"),
            subscription_phase_ms: phase("subscriptions"),
            publish_phase_ms: phase("publish"),
            handoff_phase_ms: phase("handoff"),
            handle_message_ms: t.histogram("node_handle_message_duration_ms"),
            messages_forwarded: t.counter("node_messages_forwarded_total"),
            handoffs_received: t.counter("proxy_handoffs_received_total"),
            bad_signatures: t.counter("node_bad_signatures_total"),
            replays: t.counter("node_replays_total"),
            recorder: Arc::new(FlightRecorder::new(DEFAULT_CAPACITY)),
            flight_dumps: VecDeque::new(),
            audit: AuditLog::default(),
        }
    }

    pub(super) fn point(&self, trace: TraceId, subject: u32, frame: u64, what: Point, value: i64) {
        let (phase, kind, detail) = what;
        self.recorder.record(TraceEvent::point(
            trace, self.node, subject, frame, phase, kind, detail, value,
        ));
    }

    /// Pushes one audit record about `subject`; `detail` is only
    /// formatted when the log keeps the record.
    pub(super) fn audit(
        &mut self,
        frame: u64,
        subject: u32,
        trace: TraceId,
        (kind, check, score, confidence): Judgement,
        detail: impl FnOnce() -> String,
    ) {
        let node = self.node;
        self.audit.push_with(|| AuditRecord {
            frame,
            node,
            subject,
            kind,
            check,
            score,
            confidence,
            trace,
            detail: detail(),
        });
    }

    /// The single instrumentation point of a protocol entry: mirrors
    /// `events` into the flight recorder, audits every decision among
    /// them, captures a violation dump for each suspicious verdict,
    /// signature failure or replay (so the trace around every detection
    /// decision survives the ring), and bumps the security counters.
    pub(super) fn observe(&mut self, frame: u64, trace: TraceId, events: &[NodeEvent]) {
        for e in events {
            let (subject, at, what, value) = point_of(e, self.node, frame);
            self.point(trace, subject, at, what, value);
            match *e {
                NodeEvent::BadSignature { .. } | NodeEvent::Replay { .. } => {
                    let kind = if matches!(e, NodeEvent::Replay { .. }) {
                        self.replays.inc();
                        AuditKind::Replay
                    } else {
                        self.bad_signatures.inc();
                        AuditKind::BadSignature
                    };
                    self.audit(frame, subject, trace, (kind, "", 0, ""), String::new);
                    self.capture_dump(what.2, trace, subject);
                }
                NodeEvent::Suspicion { rating, check, .. } => {
                    watchmen_telemetry::global()
                        .counter_with("node_suspicions_total", &[("check", check)])
                        .inc();
                    let judged =
                        (AuditKind::Verdict, check, rating.score, rating.confidence.label());
                    self.audit(frame, subject, trace, judged, || format!("{rating}"));
                    if rating.is_suspicious() {
                        let violation = (Phase::Verify, EventKind::Violation, check);
                        self.point(trace, subject, frame, violation, value);
                        self.capture_dump(check, trace, subject);
                    }
                }
                NodeEvent::HandoffReceived { .. } => self.handoffs_received.inc(),
                NodeEvent::Delivery { .. }
                | NodeEvent::RosterChanged { .. }
                | NodeEvent::BootstrapReceived { .. } => {}
            }
        }
    }

    /// Accounts a dispatched message's output: one relay event per
    /// forward batch (`value` = fan-out) and the forwarded-message count.
    pub(super) fn relayed(&self, rx: &Inbound<'_>) {
        let fan_out = rx.out.datagrams.len();
        if fan_out > 0 {
            let relay = (Phase::ProxyRelay, EventKind::Relay, rx.label);
            self.point(rx.trace, rx.origin.0, rx.gen_frame, relay, fan_out as i64);
        }
        self.messages_forwarded.add(fan_out as u64);
    }

    /// Snapshots the recorder around a violation into the bounded dump
    /// store (oldest dump evicted once [`MAX_FLIGHT_DUMPS`] are held).
    fn capture_dump(&mut self, reason: &str, trace: TraceId, subject: u32) {
        if self.flight_dumps.len() >= MAX_FLIGHT_DUMPS {
            self.flight_dumps.pop_front();
        }
        self.flight_dumps.push_back(self.recorder.dump(reason, trace, subject));
    }
}

/// The recorder event each [`NodeEvent`] leaves, as `(subject, frame,
/// point, value)`; `frame` is the local frame of the entry that raised it.
fn point_of(e: &NodeEvent, node: u32, frame: u64) -> (u32, u64, Point, i64) {
    use EventKind::{Deliver, Mark, Reject, Verdict};
    match *e {
        NodeEvent::Delivery { about, class, gen_frame } => {
            (about.0, gen_frame, (Phase::Verify, Deliver, class), 0)
        }
        NodeEvent::BadSignature { claimed_from } => {
            (claimed_from.0, frame, (Phase::Verify, Reject, "bad-signature"), 0)
        }
        NodeEvent::Replay { from } => (from.0, frame, (Phase::Verify, Reject, "replay"), 0),
        NodeEvent::Suspicion { subject, rating, check } => {
            (subject.0, frame, (Phase::Verify, Verdict, check), i64::from(rating.score))
        }
        NodeEvent::HandoffReceived { player, worst_rating } => {
            (player.0, frame, (Phase::Handoff, Mark, "handoff-received"), i64::from(worst_rating))
        }
        NodeEvent::RosterChanged { epoch, active } => (
            node,
            frame,
            (Phase::Tick, Mark, "roster-changed"),
            (epoch as i64) << 16 | active as i64,
        ),
        NodeEvent::BootstrapReceived { from, entries } => {
            (from.0, frame, (Phase::Subscription, Mark, "bootstrap-received"), i64::from(entries))
        }
    }
}

impl WatchmenNode {
    /// Replaces the flight recorder with a fresh ring of `capacity`
    /// events. The default [`DEFAULT_CAPACITY`]-event ring costs tens of
    /// kilobytes per node — the right trade for a handful of
    /// nodes under a debugging microscope, but prohibitive when a fleet
    /// orchestrator keeps thousands of nodes alive at once. Call this
    /// immediately after construction, before any frame runs: handles
    /// already cloned out via [`WatchmenNode::recorder`] keep pointing at
    /// the old ring.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_recorder_capacity(mut self, capacity: usize) -> Self {
        self.instrument.recorder = Arc::new(FlightRecorder::new(capacity));
        self
    }

    /// A handle on this node's flight recorder, for cross-node causal
    /// chains ([`watchmen_telemetry::causal_chain`]) and Chrome-trace
    /// export.
    #[must_use]
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.instrument.recorder)
    }

    /// Drains the violation dumps captured so far, oldest first. A dump is
    /// captured whenever a suspicious verdict, signature failure or replay
    /// fires; at most `MAX_FLIGHT_DUMPS` (8) are retained between drains.
    pub fn take_flight_dumps(&mut self) -> Vec<FlightDump> {
        self.instrument.flight_dumps.drain(..).collect()
    }

    /// Drains this node's verdict audit stream, oldest record first. The
    /// embedding driver should drain every frame; records past the
    /// buffer's capacity are dropped.
    pub fn drain_audit(&mut self) -> Vec<AuditRecord> {
        self.instrument.audit.drain()
    }

    /// Turns the audit stream on (the default) or off; off makes every
    /// decision-site push a cheap no-op, for overhead measurements.
    pub fn set_audit_enabled(&mut self, enabled: bool) {
        self.instrument.audit.set_enabled(enabled);
    }
}
