//! Instrumentation: timing histograms, the node's own counts, the
//! optional flight recorder and the verdict audit stream. Each protocol
//! entry point reports its events here exactly once
//! ([`Instrument::observe`]).

use std::sync::Arc;

use watchmen_telemetry::trace::{EventKind, Phase, TraceEvent, TraceId};
use watchmen_telemetry::{FlightRecorder, FrameTimer, Histogram, Registry};

use super::{Inbound, NodeEvent, WatchmenNode};
use crate::audit::{AuditKind, AuditLog, AuditRecord};

/// What a recorder event is: its phase, kind and detail label.
pub(super) type Point = (Phase, EventKind, &'static str);

/// What an audit record decided: `(kind, check, score, confidence label)`.
pub(super) type Judgement = (AuditKind, &'static str, u8, &'static str);

/// The node's timing histograms and their help text, described in the
/// process-wide registry once per node.
const TIMINGS: [(&str, &str); 3] = [
    ("node_tick_duration_ms", "wall time of one begin_frame call"),
    ("node_tick_phase_duration_ms", "wall time of one begin_frame phase"),
    ("node_handle_message_duration_ms", "wall time of one handle_message call"),
];

/// The node's own counts and their help text, in the order
/// [`WatchmenNode::publish`] adds them.
const COUNTS: [(&str, &str); 14] = [
    ("node_subscriptions_sent_total", "subscribe messages issued"),
    ("node_messages_forwarded_total", "signed messages forwarded as proxy"),
    ("proxy_handoffs_total", "handoff notices sent at epoch boundaries"),
    ("node_control_retransmits_total", "control messages re-sent after ack timeout"),
    ("node_control_acks_sent_total", "acks emitted for processed control messages"),
    ("node_control_acks_received_total", "acks that retired a pending control message"),
    ("node_control_abandoned_total", "control messages given up on (unrecovered)"),
    ("node_proxy_fallbacks_total", "switches to a fallback proxy draw"),
    ("node_roster_joins_total", "mid-game joins applied at boundaries"),
    ("node_roster_leaves_total", "graceful leaves applied at boundaries"),
    ("node_roster_evictions_total", "timeout evictions applied at boundaries"),
    ("node_bootstraps_sent_total", "joiner-bootstrap snapshots assembled"),
    ("node_bootstraps_received_total", "joiner-bootstrap snapshots received"),
    ("node_stale_drops_total", "messages dropped as superseded churn traffic"),
];

/// The node's instrumentation. Histogram handles are fetched once per
/// node so per-frame timing is a couple of atomic adds, never a registry
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
    /// Signed messages forwarded as proxy.
    messages_forwarded: u64,
    /// The flight recorder of trace events (sends, relays, deliveries,
    /// rejections, verdicts, tick-phase spans), when the driver asked
    /// for one ([`WatchmenNode::with_recorder_capacity`]).
    recorder: Option<Arc<FlightRecorder>>,
    /// The verdict audit stream: one structured record per detection
    /// decision, drained by the embedding driver.
    audit: AuditLog,
}

impl Instrument {
    pub(super) fn new(node: u32) -> Self {
        let t = watchmen_telemetry::global();
        for (name, help) in TIMINGS {
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
            messages_forwarded: 0,
            recorder: None,
            audit: AuditLog::default(),
        }
    }

    /// Times one tick phase into `hist` and, as this node's span, into
    /// the recorder if there is one: one clock reading at each edge.
    pub(super) fn span(
        &self,
        hist: &Arc<Histogram>,
        frame: u64,
        phase: Phase,
        detail: &'static str,
    ) -> FrameTimer {
        match &self.recorder {
            Some(r) => FrameTimer::traced(hist, r, self.node, frame, phase, detail),
            None => FrameTimer::start(hist),
        }
    }

    pub(super) fn point(&self, trace: TraceId, subject: u32, frame: u64, what: Point, value: i64) {
        if let Some(r) = &self.recorder {
            let (phase, kind, detail) = what;
            r.record(TraceEvent::point(
                trace, self.node, subject, frame, phase, kind, detail, value,
            ));
        }
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
    /// them (each record names its trace id, from which
    /// [`watchmen_telemetry::causal_chain`] rebuilds the message's path)
    /// and marks each suspicious verdict with a violation event. The
    /// events themselves are the driver's to count.
    pub(super) fn observe(&mut self, frame: u64, trace: TraceId, events: &[NodeEvent]) {
        for e in events {
            let (subject, at, what, value) = point_of(e, self.node, frame);
            self.point(trace, subject, at, what, value);
            match *e {
                NodeEvent::BadSignature { .. } | NodeEvent::Replay { .. } => {
                    let kind = if matches!(e, NodeEvent::Replay { .. }) {
                        AuditKind::Replay
                    } else {
                        AuditKind::BadSignature
                    };
                    self.audit(frame, subject, trace, (kind, "", 0, ""), String::new);
                }
                NodeEvent::Suspicion { rating, check, .. } => {
                    let judged =
                        (AuditKind::Verdict, check, rating.score, rating.confidence.label());
                    self.audit(frame, subject, trace, judged, || format!("{rating}"));
                    if rating.is_suspicious() {
                        let violation = (Phase::Verify, EventKind::Violation, check);
                        self.point(trace, subject, frame, violation, value);
                    }
                }
                NodeEvent::Delivery { .. }
                | NodeEvent::HandoffReceived { .. }
                | NodeEvent::RosterChanged { .. }
                | NodeEvent::BootstrapReceived { .. } => {}
            }
        }
    }

    /// Accounts a dispatched message's output: one relay event per
    /// forward batch (`value` = fan-out) and the forwarded-message count.
    pub(super) fn relayed(&mut self, rx: &Inbound<'_>) {
        let fan_out = rx.out.datagrams.len();
        if fan_out > 0 {
            let relay = (Phase::ProxyRelay, EventKind::Relay, rx.label);
            self.point(rx.trace, rx.origin.0, rx.gen_frame, relay, fan_out as i64);
        }
        self.messages_forwarded += fan_out as u64;
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
    /// Gives this node a flight recorder: a ring of the last `capacity`
    /// trace events, which [`WatchmenNode::recorder`] hands out. A node
    /// built without one records no trace event, so only a driver that
    /// reads the ring pays for it. Call this immediately after
    /// construction, before any frame runs: handles already cloned out
    /// via [`WatchmenNode::recorder`] keep pointing at the old ring.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_recorder_capacity(mut self, capacity: usize) -> Self {
        self.instrument.recorder = Some(Arc::new(FlightRecorder::new(capacity)));
        self
    }

    /// A handle on this node's flight recorder, if it has one, for
    /// cross-node causal chains ([`watchmen_telemetry::causal_chain`])
    /// and Chrome-trace export.
    #[must_use]
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.instrument.recorder.clone()
    }

    /// Adds this node's counts to `registry`: subscriptions sent,
    /// messages forwarded, handoffs sent and the control-plane and churn
    /// stats. A driver calls it once, when the node's run is over. The
    /// counts of what the node emits as [`NodeEvent`]s are the driver's
    /// to keep.
    pub fn publish(&self, registry: &Registry) {
        let (c, ch) = (self.control_stats(), self.churn_stats());
        registry.add_counts(
            &COUNTS,
            [
                self.knowledge.subscriptions_sent,
                self.instrument.messages_forwarded,
                self.duty.handoffs_sent,
                c.retransmits,
                c.acks_sent,
                c.acks_received,
                c.abandoned,
                c.proxy_fallbacks,
                ch.joins_applied,
                ch.leaves_applied,
                ch.evictions_applied,
                ch.bootstraps_sent,
                ch.bootstraps_received,
                ch.stale_drops,
            ],
        );
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
