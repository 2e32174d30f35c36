//! Integration tests for the telemetry primitives: quantile accuracy on
//! known distributions, concurrency safety, and exporter golden output.

use std::sync::Arc;
use std::thread;

use watchmen_telemetry::{export, Histogram, MetricValue, Registry};

/// A tiny deterministic generator (SplitMix64) so the distribution tests
/// need no external dependencies.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The histogram's log-linear buckets guarantee ~3.1% relative
/// resolution; quantile estimates on a large uniform sample must land
/// within that bound (plus sampling noise) of the exact order statistic.
#[test]
fn quantiles_match_exact_order_statistics_on_uniform() {
    let mut rng = SplitMix64(7);
    let h = Histogram::new();
    let mut values: Vec<f64> = Vec::with_capacity(100_000);
    for _ in 0..100_000 {
        let v = 1.0 + rng.next_f64() * 999.0; // uniform on [1, 1000)
        values.push(v);
        h.record(v);
    }
    values.sort_by(f64::total_cmp);
    for &q in &[0.50, 0.90, 0.99] {
        let exact = values[((values.len() - 1) as f64 * q) as usize];
        let approx = h.quantile(q);
        let rel = (approx - exact).abs() / exact;
        assert!(rel < 0.05, "q={q}: approx {approx} vs exact {exact} (rel err {rel:.4})");
    }
}

/// Same bound on a heavily skewed (exponential-like) distribution, where
/// fixed-width buckets would fall apart.
#[test]
fn quantiles_track_a_skewed_distribution() {
    let mut rng = SplitMix64(13);
    let h = Histogram::new();
    let mut values: Vec<f64> = Vec::with_capacity(50_000);
    for _ in 0..50_000 {
        // Inverse-CDF sample of Exp(λ=1/50): heavy right tail.
        let v = -50.0 * (1.0 - rng.next_f64()).ln();
        let v = v.max(0.001);
        values.push(v);
        h.record(v);
    }
    values.sort_by(f64::total_cmp);
    for &q in &[0.50, 0.90, 0.99] {
        let exact = values[((values.len() - 1) as f64 * q) as usize];
        let approx = h.quantile(q);
        let rel = (approx - exact).abs() / exact;
        assert!(rel < 0.05, "q={q}: approx {approx} vs exact {exact} (rel err {rel:.4})");
    }
}

/// Increments from many threads through independently-interned handles
/// must all land: no lost updates, no torn reads.
#[test]
fn concurrent_counter_increments_all_land() {
    let registry = Arc::new(Registry::new());
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                // Each thread interns its own handle, exercising the
                // registry's read-path under contention too.
                let c = registry.counter("contended_total");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    assert_eq!(registry.snapshot().counter_sum("contended_total"), THREADS as u64 * PER_THREAD);
}

/// Histogram recording is likewise thread-safe: total count and sum are
/// conserved across concurrent writers.
#[test]
fn concurrent_histogram_records_conserve_count() {
    let registry = Arc::new(Registry::new());
    const THREADS: usize = 4;
    const PER_THREAD: usize = 20_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let h = registry.histogram("contended_ms");
                for i in 0..PER_THREAD {
                    h.record((t * PER_THREAD + i) as f64 % 97.0 + 1.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    match registry.snapshot().get("contended_ms") {
        Some(MetricValue::Histogram { count, .. }) => {
            assert_eq!(*count, (THREADS * PER_THREAD) as u64);
        }
        other => panic!("expected histogram, got {other:?}"),
    }
}

/// Golden test: the exact Prometheus text document for a small fixed
/// registry. Output order is deterministic (sorted by name, then
/// labels), so this pins the full format.
#[test]
fn prometheus_exporter_golden() {
    let r = Registry::new();
    r.describe("frames_total", "frames simulated");
    r.counter_with("frames_total", &[("arch", "watchmen")]).add(3);
    r.counter_with("frames_total", &[("arch", "hybrid")]).add(1);
    r.gauge("queue_depth").set(-2);
    let h = r.histogram("age_frames");
    h.record(1.0);
    h.record(1.0);
    h.record(4.0);
    let text = export::prometheus_text(&r.snapshot());
    let expected = "\
# TYPE age_frames histogram
age_frames_bucket{le=\"1.008\"} 2
age_frames_bucket{le=\"4.032\"} 3
age_frames_bucket{le=\"+Inf\"} 3
age_frames_sum 6
age_frames_count 3
# HELP frames_total frames simulated
# TYPE frames_total counter
frames_total{arch=\"hybrid\"} 1
frames_total{arch=\"watchmen\"} 3
# TYPE queue_depth gauge
queue_depth -2
";
    assert_eq!(text, expected);
}

/// A counter survives a snapshot: snapshots are copies, not drains.
#[test]
fn snapshots_copy() {
    let r = Registry::new();
    let c = r.counter("events_total");
    c.add(5);
    let snap1 = r.snapshot();
    c.add(5);
    let snap2 = r.snapshot();
    assert_eq!(snap1.counter_sum("events_total"), 5);
    assert_eq!(snap2.counter_sum("events_total"), 10);
}
