//! What the shared host does to a measurement, and how it is taken out.
//!
//! The sandbox's two virtual cores are hardware threads whose siblings
//! belong to other tenants. When a sibling is busy the physical core's
//! execution units and L2 are shared, and code with a high instruction
//! rate — all of the program under test — slows by 10 % (light neighbour)
//! to 50 % (heavy), for milliseconds or for minutes at a stretch. A probe
//! run here for a minute showed latency-bound code (a dependent multiply
//! chain) steady within 4 %, and throughput-bound code (eight independent
//! chains) between 14.9 µs and 35 µs a call, in plateaus. A second
//! process on the other virtual core does not cause it; steal time is
//! under 1 %. Nothing inside a ten-second run can average that away: of
//! two sets of sixty runs twenty minutes apart, the second read 25–40 %
//! slower on three workloads.
//!
//! So every timed op is bracketed by two readings of a fixed
//! throughput-bound kernel ([`probe`], ~3 µs, registers only), outside the
//! timed region. The fastest reading of the whole process is the
//! uncontended core; an op whose slower bracketing reading is `r` times
//! that ran on a core with about `1/r` of its throughput for this kernel,
//! and its wall time is divided by `max(1, r / 1.05) ^ 0.8`. The exponent
//! is the one constant: over 72 ten-second runs (six workloads × twelve,
//! median `r` of a run between 1.0 and 1.8) it minimised the run-to-run
//! spread on every match workload at once — frame p50 / p90 / rate
//! quartile spreads of 1.4 / 4.5 / 3.2 % on `match16` against 26 / 25 /
//! 24 % for plain wall time and 10 / 15 / 11 % for picking the best
//! stretches of a run — and 0.7–0.85 did on the store. It is larger than
//! the slope inside one run (≈ 0.5) because an op between two quiet
//! readings in a noisy spell was often contended in the middle. On a quiet
//! host `r` ≈ 1 and the figures are plain wall times.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::stats::Samples;

/// Readings within this factor of the fastest count as uncontended.
const QUIET: f64 = 1.05;
/// How much of the probe's slowdown an op is credited with (see above).
const SENSITIVITY: f64 = 0.8;

// Relaxed: a statistic, publishes no other data.
static FASTEST_NS: AtomicU64 = AtomicU64::new(u64::MAX);

/// One reading of the probe kernel in nanoseconds: eight independent
/// add-rotate-xor chains, a thousand rounds. Throughput-bound, so a busy
/// sibling thread shows; no memory traffic, so the caches the next op
/// will use are left alone.
pub fn probe() -> u64 {
    let start = Instant::now();
    let seed = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut lanes = [seed, seed ^ 1, seed ^ 2, seed ^ 3, seed ^ 4, seed ^ 5, seed ^ 6, seed ^ 7];
    for _ in 0..1000 {
        for v in &mut lanes {
            *v = v.wrapping_add(*v >> 7).rotate_left(9) ^ 0x2545_f491_4f6c_dd1d;
        }
    }
    black_box(lanes);
    let ns = start.elapsed().as_nanos() as u64;
    FASTEST_NS.fetch_min(ns, Ordering::Relaxed);
    ns
}

/// The factor by which an op bracketed by a reading of `bracket_ns` was
/// slowed, given the fastest reading of the process so far.
fn slowdown(bracket_ns: u64) -> f64 {
    let fastest = FASTEST_NS.load(Ordering::Relaxed).max(1);
    (bracket_ns as f64 / fastest as f64 / QUIET).max(1.0).powf(SENSITIVITY)
}

/// A series of op wall times, each with the slower of the two probe
/// readings that bracket it.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    ns: Vec<u64>,
    bracket: Vec<u64>,
}

impl Ops {
    pub fn with_capacity(n: usize) -> Self {
        Ops { ns: Vec::with_capacity(n), bracket: Vec::with_capacity(n) }
    }

    /// An op of `ns` that ran between the readings `before` and `after`.
    pub fn push(&mut self, ns: u64, before: u64, after: u64) {
        self.ns.push(ns);
        self.bracket.push(before.max(after));
    }

    /// Probes, times `op`, probes again, and records it.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let before = probe();
        let start = Instant::now();
        let out = op();
        let ns = start.elapsed().as_nanos() as u64;
        self.push(ns, before, probe());
        out
    }

    pub fn extend(&mut self, other: &Ops) {
        self.ns.extend_from_slice(&other.ns);
        self.bracket.extend_from_slice(&other.bracket);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The wall times as measured.
    pub fn wall(&self) -> Samples {
        Samples::from(self.ns.clone())
    }

    /// Σ wall time, ns.
    pub fn wall_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The times the ops would have taken on an uncontended core. Call
    /// after the run: the later, the better the fastest reading is known.
    pub fn uncontended(&self) -> Samples {
        Samples::from(
            self.ns
                .iter()
                .zip(&self.bracket)
                .map(|(&ns, &b)| (ns as f64 / slowdown(b)).round() as u64)
                .collect::<Vec<u64>>(),
        )
    }

    /// Σ uncontended time over Σ wall time: what the host cost the series.
    pub fn uncontended_share(&self) -> f64 {
        self.uncontended().sum_ns() as f64 / self.wall_ns().max(1) as f64
    }

    /// `(share of ops on a contended core, their median slowdown factor)`:
    /// how much adjusting a run needed.
    pub fn contention(&self) -> (f64, f64) {
        let mut factors: Vec<f64> =
            self.bracket.iter().map(|&b| slowdown(b)).filter(|&f| f > 1.0).collect();
        if factors.is_empty() {
            return (0.0, 1.0);
        }
        factors.sort_by(f64::total_cmp);
        (factors.len() as f64 / self.len() as f64, factors[factors.len() / 2])
    }
}
