//! The per-node flight recorder: a fixed-capacity ring of
//! [`TraceEvent`]s.
//!
//! Cheat-detection literature stresses that *individual* decisions — not
//! aggregates — are what make distributed detection auditable. The
//! recorder keeps the last `capacity` events a node saw, overwriting the
//! oldest; when a verdict or violation fires, [`FlightRecorder::dump`]
//! snapshots the events touching the offending trace or player into a
//! structured [`FlightDump`] report.
//!
//! Hot-path cost is one uncontended mutex lock plus a `Copy` store into
//! preallocated storage — no allocation after construction.

use std::sync::Mutex;
use std::time::Instant;

use crate::trace::{now_us, EventKind, Phase, TraceEvent, TraceId, NO_SUBJECT};

/// Default ring capacity: 72 KiB of events, more than a proxy epoch of a
/// busy node. Dumps keep only the offending trace and player, so a deeper
/// ring buys little — and a mid-game joiner is built with this default.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Ring state behind the mutex.
#[derive(Debug)]
struct Ring {
    /// Preallocated storage; never grows past `cap`.
    buf: Vec<TraceEvent>,
    /// Configured capacity (`Vec::capacity` may over-allocate).
    cap: usize,
    /// Index of the next write.
    head: usize,
    /// Events currently stored (≤ `cap`).
    len: usize,
    /// Events recorded over the recorder's lifetime.
    total: u64,
}

impl Ring {
    /// The retained events as two runs, oldest first.
    fn in_order(&self) -> (&[TraceEvent], &[TraceEvent]) {
        if self.buf.len() < self.cap {
            (&self.buf, &[])
        } else {
            let (newer, older) = self.buf.split_at(self.head);
            (older, newer)
        }
    }
}

/// A fixed-capacity, overwrite-oldest event ring. See the module docs.
///
/// # Examples
///
/// ```
/// use watchmen_telemetry::trace::{EventKind, Phase, TraceEvent, TraceId};
/// use watchmen_telemetry::FlightRecorder;
///
/// let rec = FlightRecorder::new(128);
/// rec.record(TraceEvent::point(
///     TraceId::from_origin_seq(9, 1),
///     0,
///     9,
///     1,
///     Phase::Publish,
///     EventKind::Send,
///     "state",
///     0,
/// ));
/// assert_eq!(rec.len(), 1);
/// assert_eq!(rec.snapshot()[0].detail, "state");
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<Ring>,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity");
        // Touch the process epoch now so `at_us` stamps are relative to
        // startup, not to the first record call.
        let _ = crate::trace::process_epoch();
        FlightRecorder {
            inner: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                cap: capacity,
                head: 0,
                len: 0,
                total: 0,
            }),
        }
    }

    /// Maximum events retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("recorder lock").cap
    }

    /// Events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock").len
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events recorded over the recorder's lifetime (including ones the
    /// ring has since overwritten).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().expect("recorder lock").total
    }

    /// Records one event, stamping `at_us` if the caller left it zero.
    /// When the ring is full the oldest event is overwritten.
    pub fn record(&self, mut event: TraceEvent) {
        if event.at_us == 0 {
            event.at_us = now_us();
        }
        let mut ring = self.inner.lock().expect("recorder lock");
        let cap = ring.cap;
        if ring.buf.len() < cap {
            ring.buf.push(event);
            ring.head = ring.buf.len() % cap;
            ring.len = ring.buf.len();
        } else {
            let head = ring.head;
            ring.buf[head] = event;
            ring.head = (head + 1) % cap;
        }
        ring.total += 1;
    }

    /// Starts a timed span; the matching [`EventKind::Span`] event is
    /// recorded when the guard drops (or [`SpanGuard::discard`]ed).
    #[must_use]
    pub fn span(&self, node: u32, frame: u64, phase: Phase, detail: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            node,
            frame,
            phase,
            detail,
            start_us: now_us(),
            started: Instant::now(),
            armed: true,
        }
    }

    /// All retained events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let ring = self.inner.lock().expect("recorder lock");
        let (older, newer) = ring.in_order();
        let mut out = Vec::with_capacity(ring.len);
        out.extend_from_slice(older);
        out.extend_from_slice(newer);
        out
    }

    /// Retained events touching `id`, oldest first.
    #[must_use]
    pub fn events_for(&self, id: TraceId) -> Vec<TraceEvent> {
        self.snapshot().into_iter().filter(|e| e.trace_id == id).collect()
    }

    /// Snapshots the retained events touching `trace_id` and/or `subject`
    /// into a structured report. Pass [`TraceId::NONE`] to match on the
    /// subject alone (and vice versa with [`NO_SUBJECT`]); passing both
    /// sentinels captures everything retained.
    #[must_use]
    pub fn dump(&self, reason: &str, trace_id: TraceId, subject: u32) -> FlightDump {
        let ring = self.inner.lock().expect("recorder lock");
        // Filtered straight off the ring: collecting a filtered
        // `snapshot()` in place would leave every dump holding a
        // whole-ring allocation for its handful of events.
        let (older, newer) = ring.in_order();
        let mut events: Vec<TraceEvent> = older
            .iter()
            .chain(newer)
            .filter(|e| {
                (!trace_id.is_some() && subject == NO_SUBJECT)
                    || (trace_id.is_some() && e.trace_id == trace_id)
                    || (subject != NO_SUBJECT && e.subject == subject)
            })
            .copied()
            .collect();
        events.shrink_to_fit();
        FlightDump {
            reason: reason.to_owned(),
            trace_id,
            subject,
            overwritten: ring.total.saturating_sub(ring.len as u64),
            events,
        }
    }

    /// Drops every retained event (lifetime total is preserved).
    pub fn clear(&self) {
        let mut ring = self.inner.lock().expect("recorder lock");
        ring.buf.clear();
        ring.head = 0;
        ring.len = 0;
    }
}

/// Scope guard recording a [`EventKind::Span`] event on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    recorder: &'a FlightRecorder,
    node: u32,
    frame: u64,
    phase: Phase,
    detail: &'static str,
    start_us: u64,
    started: Instant,
    armed: bool,
}

impl SpanGuard<'_> {
    /// Abandons the span without recording it.
    pub fn discard(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.recorder.record(TraceEvent {
            trace_id: TraceId::NONE,
            node: self.node,
            subject: NO_SUBJECT,
            frame: self.frame,
            phase: self.phase,
            kind: EventKind::Span,
            detail: self.detail,
            value: 0,
            at_us: self.start_us,
            dur_us: self.started.elapsed().as_micros() as u64,
        });
    }
}

/// A structured snapshot produced when a verdict or violation fires: the
/// trigger, the filter, and every matching retained event in order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Why the dump was triggered (check name, violation description).
    pub reason: String,
    /// The trace filter used ([`TraceId::NONE`] if filtered by subject).
    pub trace_id: TraceId,
    /// The subject filter used ([`NO_SUBJECT`] if filtered by trace).
    pub subject: u32,
    /// Events the ring had already overwritten before this dump (context
    /// for how much history is missing).
    pub overwritten: u64,
    /// Matching events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl FlightDump {
    /// Merges another dump's events (e.g. from a different node's
    /// recorder) into this one, keeping `(frame, at_us)` order — frames
    /// are the protocol's causal clock across nodes.
    pub fn merge(&mut self, other: &FlightDump) {
        self.events.extend(other.events.iter().copied());
        self.events.sort_by_key(|e| (e.frame, e.at_us));
        self.overwritten += other.overwritten;
    }
}

impl std::fmt::Display for FlightDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== flight recorder dump: {} ===", self.reason)?;
        if self.trace_id.is_some() {
            writeln!(f, "trace: {}", self.trace_id)?;
        }
        if self.subject != NO_SUBJECT {
            writeln!(f, "subject: p{}", self.subject)?;
        }
        writeln!(
            f,
            "events: {} retained ({} older overwritten)",
            self.events.len(),
            self.overwritten
        )?;
        for e in &self.events {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> TraceEvent {
        let mut e = TraceEvent::point(
            TraceId::from_origin_seq(1, seq),
            0,
            1,
            seq,
            Phase::Publish,
            EventKind::Send,
            "state",
            0,
        );
        // Deterministic, strictly increasing stamps for ordering checks.
        e.at_us = seq;
        e
    }

    #[test]
    fn fills_then_wraps() {
        let r = FlightRecorder::new(4);
        for s in 1..=6 {
            r.record(ev(s));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_recorded(), 6);
        let frames: Vec<u64> = r.snapshot().iter().map(|e| e.frame).collect();
        assert_eq!(frames, vec![3, 4, 5, 6]);
    }

    #[test]
    fn events_for_filters_by_trace() {
        let r = FlightRecorder::new(8);
        r.record(ev(1));
        r.record(ev(2));
        r.record(ev(1));
        let id = TraceId::from_origin_seq(1, 1);
        assert_eq!(r.events_for(id).len(), 2);
    }

    #[test]
    fn dump_reports_overwritten_history() {
        let r = FlightRecorder::new(2);
        for s in 1..=5 {
            r.record(ev(s));
        }
        let d = r.dump("test", TraceId::NONE, NO_SUBJECT);
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.overwritten, 3);
        assert!(d.to_string().contains("3 older overwritten"));
    }

    #[test]
    fn dump_holds_no_more_than_its_events() {
        // A wrapped ring, three matching events: the dump keeps those
        // three in ring order, not an allocation the size of the ring.
        let r = FlightRecorder::new(128);
        for s in 1..=200 {
            r.record(ev(s));
        }
        let mut wanted = ev(201);
        wanted.subject = 77;
        for _ in 0..3 {
            wanted.at_us += 1;
            r.record(wanted);
            r.record(ev(300));
        }
        let d = r.dump("test", TraceId::NONE, 77);
        assert_eq!(d.events.len(), 3);
        assert!(d.events.windows(2).all(|w| w[0].at_us < w[1].at_us));
        assert!(d.events.capacity() < 8, "capacity {}", d.events.capacity());
        assert_eq!(d.overwritten, 206 - 128);
    }

    #[test]
    fn span_guard_records_duration() {
        let r = FlightRecorder::new(8);
        {
            let _g = r.span(0, 7, Phase::Tick, "tick");
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].kind, EventKind::Span);
        assert_eq!(snap[0].frame, 7);
    }

    #[test]
    fn span_discard_records_nothing() {
        let r = FlightRecorder::new(8);
        r.span(0, 1, Phase::Tick, "tick").discard();
        assert!(r.is_empty());
    }

    #[test]
    fn clear_keeps_lifetime_total() {
        let r = FlightRecorder::new(4);
        r.record(ev(1));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total_recorded(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = FlightRecorder::new(0);
    }
}
