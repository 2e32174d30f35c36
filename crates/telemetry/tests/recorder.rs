//! The event ring's overwrite semantics: what it holds once it has
//! wrapped.

use watchmen_telemetry::trace::{EventKind, Phase, TraceEvent, TraceId};
use watchmen_telemetry::FlightRecorder;

/// A send-like event whose frame doubles as its identity.
fn ev(node: u32, frame: u64) -> TraceEvent {
    let mut e = TraceEvent::point(
        TraceId::from_origin_seq(node, frame),
        node,
        node,
        frame,
        Phase::Publish,
        EventKind::Send,
        "state",
        0,
    );
    e.at_us = frame; // deterministic, strictly increasing
    e
}

#[test]
fn after_capacity_plus_k_events_exactly_the_oldest_k_are_gone() {
    const CAPACITY: usize = 64;
    const K: usize = 17;
    let rec = FlightRecorder::new(CAPACITY);
    for f in 1..=(CAPACITY + K) as u64 {
        rec.record(ev(0, f));
    }
    assert_eq!(rec.len(), CAPACITY);
    let frames: Vec<u64> = rec.snapshot().iter().map(|e| e.frame).collect();
    // The oldest K (frames 1..=K) are gone; everything newer survives in
    // insertion order.
    let expected: Vec<u64> = ((K + 1) as u64..=(CAPACITY + K) as u64).collect();
    assert_eq!(frames, expected);
}

#[test]
fn ordering_is_preserved_across_many_wraps() {
    let rec = FlightRecorder::new(8);
    for f in 1..=1000u64 {
        rec.record(ev(0, f));
    }
    let frames: Vec<u64> = rec.snapshot().iter().map(|e| e.frame).collect();
    assert_eq!(frames, vec![993, 994, 995, 996, 997, 998, 999, 1000]);
    assert!(frames.windows(2).all(|w| w[0] < w[1]), "order broken: {frames:?}");
}
