//! Instrumentation: the node's own counts and the verdict audit stream.
//! The node reads no clock: its driver times the calls it makes. Each protocol entry point reports its events
//! here exactly once ([`Instrument::observe`]). A message's causal chain
//! is not kept here: a seeded re-run reproduces every datagram, and the
//! audit record names the trace id to filter them by.

use watchmen_telemetry::trace::TraceId;
use watchmen_telemetry::Registry;

use super::{Inbound, NodeEvent, WatchmenNode};
use crate::audit::{AuditKind, AuditLog, AuditRecord};

/// What an audit record decided: `(kind, check, score, confidence label)`.
pub(super) type Judgement = (AuditKind, &'static str, u8, &'static str);

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

/// The node's instrumentation.
#[derive(Debug)]
pub(super) struct Instrument {
    /// The recording node's id, stamped on every audit record.
    node: u32,
    /// Signed messages relayed verbatim as proxy.
    messages_forwarded: u64,
    /// The verdict audit stream: one structured record per detection
    /// decision, drained by the embedding driver.
    audit: AuditLog,
}

impl Instrument {
    pub(super) fn new(node: u32) -> Self {
        Instrument { node, messages_forwarded: 0, audit: AuditLog::default() }
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

    /// The single instrumentation point of a protocol entry: audits
    /// every decision among `events`, each record naming the trace id of
    /// the message it judged. The events themselves are the driver's to
    /// count.
    pub(super) fn observe(&mut self, frame: u64, trace: TraceId, events: &[NodeEvent]) {
        for e in events {
            match *e {
                NodeEvent::BadSignature { claimed_from } => {
                    let judged = (AuditKind::BadSignature, "", 0, "");
                    self.audit(frame, claimed_from.0, trace, judged, String::new);
                }
                NodeEvent::Replay { from } => {
                    self.audit(frame, from.0, trace, (AuditKind::Replay, "", 0, ""), String::new);
                }
                NodeEvent::Suspicion { subject, rating, check } => {
                    let judged =
                        (AuditKind::Verdict, check, rating.score, rating.confidence.label());
                    self.audit(frame, subject.0, trace, judged, || format!("{rating}"));
                }
                NodeEvent::Delivery { .. }
                | NodeEvent::HandoffReceived { .. }
                | NodeEvent::RosterChanged { .. }
                | NodeEvent::BootstrapReceived { .. } => {}
            }
        }
    }

    /// Counts a dispatched message's verbatim relays; its acks and
    /// other replies are not forwards.
    pub(super) fn relayed(&mut self, rx: &Inbound<'_>) {
        self.messages_forwarded += rx.forwards;
    }
}

impl WatchmenNode {
    /// Does nothing. Nodes keep no flight recorder: a seeded re-run
    /// reproduces every datagram a ring would have held. Kept, hidden,
    /// only because the benchmark ledger (`benchmark/src/matches.rs`)
    /// still calls it; it retires with ROADMAP item 19.
    #[doc(hidden)]
    #[must_use]
    pub fn with_recorder_capacity(self, _capacity: usize) -> Self {
        self
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

#[cfg(test)]
mod tests {
    use watchmen_crypto::schnorr::Keypair;
    use watchmen_game::PlayerId;
    use watchmen_telemetry::Registry;

    use super::super::duty::tests::node;
    use crate::msg::{Envelope, Payload};

    #[test]
    fn an_ack_is_not_a_forward() {
        // Player 1 announces its leave to player 0, which acks it and
        // relays nothing.
        let mut node = node(3);
        let leave = Envelope {
            from: PlayerId(1),
            seq: 1,
            frame: 5,
            payload: Payload::Leave { effective_frame: 160 },
        };
        let bytes = leave.sign_encoded(&Keypair::generate(77 ^ 1));
        let out = node.handle_message(5, PlayerId(1), &bytes);
        assert_eq!(out.datagrams.len(), 1, "the leave is acked once");
        let registry = Registry::new();
        node.publish(&registry);
        assert_eq!(registry.snapshot().counter_sum("node_messages_forwarded_total"), 0);
    }
}
