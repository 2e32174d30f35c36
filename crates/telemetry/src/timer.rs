//! The one scope timer for hot paths.

use std::sync::Arc;
use std::time::Instant;

use crate::trace::{process_epoch, EventKind, Phase, TraceEvent, TraceId, NO_SUBJECT};
use crate::{FlightRecorder, Histogram};

/// Records wall-clock elapsed milliseconds into a [`Histogram`] when the
/// scope ends — the timing primitive for tick phases and other hot
/// paths. The [`FrameTimer::traced`] form also records the same interval
/// as one [`EventKind::Span`] event in a [`FlightRecorder`]; either form
/// reads the clock exactly twice, once at start and once at drop.
///
/// The guard holds clones of its handles, so it stays valid even if the
/// registry is dropped first.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use watchmen_telemetry::trace::Phase;
/// use watchmen_telemetry::{FlightRecorder, FrameTimer, Registry};
///
/// let registry = Registry::new();
/// let hist = registry.histogram("phase_duration_ms");
/// {
///     let _span = FrameTimer::start(&hist);
///     // ... timed work ...
/// }
/// let recorder = Arc::new(FlightRecorder::new(16));
/// {
///     let _span = FrameTimer::traced(&hist, &recorder, 0, 7, Phase::Publish, "publish");
///     // ... timed and traced work ...
/// }
/// assert_eq!(hist.count(), 2);
/// assert_eq!(recorder.len(), 1);
/// ```
#[derive(Debug)]
pub struct FrameTimer {
    hist: Arc<Histogram>,
    started: Instant,
    span: Option<Span>,
}

/// Where a traced [`FrameTimer`] records its span event.
#[derive(Debug)]
struct Span {
    recorder: Arc<FlightRecorder>,
    node: u32,
    frame: u64,
    phase: Phase,
    detail: &'static str,
}

impl FrameTimer {
    /// Starts timing into `hist`.
    #[must_use]
    pub fn start(hist: &Arc<Histogram>) -> Self {
        FrameTimer { hist: Arc::clone(hist), started: Instant::now(), span: None }
    }

    /// Starts timing into `hist` and, at drop, records the interval in
    /// `recorder` as a span of `node` in `frame`.
    #[must_use]
    pub fn traced(
        hist: &Arc<Histogram>,
        recorder: &Arc<FlightRecorder>,
        node: u32,
        frame: u64,
        phase: Phase,
        detail: &'static str,
    ) -> Self {
        let span = Span { recorder: Arc::clone(recorder), node, frame, phase, detail };
        FrameTimer { hist: Arc::clone(hist), started: Instant::now(), span: Some(span) }
    }
}

impl Drop for FrameTimer {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed();
        self.hist.record(elapsed.as_secs_f64() * 1000.0);
        if let Some(s) = &self.span {
            s.recorder.store(TraceEvent {
                trace_id: TraceId::NONE,
                node: s.node,
                subject: NO_SUBJECT,
                frame: s.frame,
                phase: s.phase,
                kind: EventKind::Span,
                detail: s.detail,
                value: 0,
                at_us: self.started.saturating_duration_since(process_epoch()).as_micros() as u64,
                dur_us: elapsed.as_micros() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn span_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("t_ms");
        {
            let _span = FrameTimer::start(&h);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn traced_guard_records_one_interval_twice() {
        let r = Registry::new();
        let h = r.histogram("t_ms");
        let rec = Arc::new(FlightRecorder::new(8));
        {
            let _span = FrameTimer::traced(&h, &rec, 3, 7, Phase::Tick, "tick");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
        let span = events[0];
        assert_eq!((span.kind, span.node, span.frame), (EventKind::Span, 3, 7));
        assert!(span.dur_us >= 2000, "{span}");
        // One clock pair feeds both: the histogram's sum (ms, kept in
        // thousandths) and the span's duration agree to the microsecond.
        let sum_us = h.sum() * 1000.0;
        assert!((sum_us - span.dur_us as f64).abs() <= 1.0, "{sum_us} vs {}", span.dur_us);
    }
}
