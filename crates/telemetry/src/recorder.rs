//! A fixed-capacity ring of [`TraceEvent`]s.
//!
//! No node records into one: a verdict's causal chain is rebuilt from a
//! seeded re-run (DESIGN §8). The ring stays only because the benchmark
//! ledger times [`FlightRecorder::record`] (`telemetry.recorder.record_ns`).
//!
//! Cost per record is one uncontended mutex lock plus a `Copy` store into
//! preallocated storage — no allocation after construction.

use std::sync::Mutex;

use crate::trace::{now_us, TraceEvent};

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

/// A fixed-capacity, overwrite-oldest event ring, kept for the benchmark
/// ledger's `telemetry.recorder.record_ns` kernel. See the module docs.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, Phase, TraceId};

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
        let frames: Vec<u64> = r.snapshot().iter().map(|e| e.frame).collect();
        assert_eq!(frames, vec![3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = FlightRecorder::new(0);
    }
}
