//! Atomic scalar metrics: [`Counter`] and [`Gauge`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// All operations are lock-free relaxed atomics: increments from any
/// number of threads are never lost, and reading never blocks a writer.
///
/// # Examples
///
/// ```
/// use watchmen_telemetry::Counter;
///
/// let c = Counter::new();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (between experiment runs; not on hot paths).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous signed value: queue depths, in-flight messages,
/// currently held proxy duties.
///
/// # Examples
///
/// ```
/// use watchmen_telemetry::Gauge;
///
/// let g = Gauge::new();
/// g.set(7);
/// g.add(3);
/// g.sub(10);
/// assert_eq!(g.get(), 0);
/// ```
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(-5);
        assert_eq!(g.get(), -5);
        g.add(15);
        g.sub(3);
        assert_eq!(g.get(), 7);
    }
}
