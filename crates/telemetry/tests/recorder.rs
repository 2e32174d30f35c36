//! Flight-recorder overwrite semantics and trace-export integration: the
//! guarantees a causal chain depends on when the ring has wrapped.

use std::sync::Arc;

use watchmen_telemetry::trace::{EventKind, Phase, TraceEvent, TraceId};
use watchmen_telemetry::{causal_chain, export, FlightRecorder, FrameTimer, Histogram};

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

#[test]
fn causal_chain_merges_recorders_in_frame_order() {
    // Simulate origin → proxy → subscriber: three nodes, one message id,
    // each node's recorder holding its own hop.
    let origin = FlightRecorder::new(16);
    let proxy = FlightRecorder::new(16);
    let subscriber = FlightRecorder::new(16);
    let id = TraceId::from_origin_seq(9, 4217);

    let hop = |node: u32, frame: u64, kind: EventKind, phase: Phase, at: u64| {
        let mut e = TraceEvent::point(id, node, 9, frame, phase, kind, "state", 0);
        e.at_us = at;
        e
    };
    subscriber.record(hop(2, 4218, EventKind::Deliver, Phase::Verify, 30));
    origin.record(hop(9, 4217, EventKind::Send, Phase::Publish, 10));
    proxy.record(hop(1, 4217, EventKind::Relay, Phase::ProxyRelay, 20));
    // Unrelated traffic must not leak into the chain.
    proxy.record(ev(5, 4217));

    let chain = causal_chain(&[&origin, &proxy, &subscriber], id);
    let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, vec![EventKind::Send, EventKind::Relay, EventKind::Deliver]);
}

#[test]
fn chrome_export_of_a_wrapped_recorder_is_loadable_shape() {
    let rec = Arc::new(FlightRecorder::new(8));
    for f in 1..=20 {
        rec.record(ev(0, f));
    }
    drop(FrameTimer::traced(&Arc::new(Histogram::new()), &rec, 0, 21, Phase::Tick, "tick"));
    let json = export::chrome_trace(&rec.snapshot());
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\": \"X\""), "span missing: {json}");
    assert_eq!(json.matches("\"ph\": \"i\"").count(), 7, "7 instants + 1 span retained");
}
