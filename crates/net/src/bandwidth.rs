//! Per-node bandwidth accounting.
//!
//! "Most broadband connections are asymmetric, with upload bandwidth being
//! the limitation" — the scalability experiments report per-node upload
//! and download in kbps, which this meter accumulates.

/// Accumulates bytes sent and received by one node over simulated time.
///
/// # Examples
///
/// ```
/// use watchmen_net::BandwidthMeter;
///
/// let mut m = BandwidthMeter::new();
/// m.record_up(125); // 125 bytes = 1000 bits
/// assert_eq!(m.up_kbps(1000.0), 1.0); // over one second
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BandwidthMeter {
    up_bytes: u64,
    down_bytes: u64,
}

impl BandwidthMeter {
    /// Creates a zeroed meter.
    #[must_use]
    pub fn new() -> Self {
        BandwidthMeter::default()
    }

    /// Records an outgoing message of `bytes`.
    pub fn record_up(&mut self, bytes: usize) {
        self.up_bytes += bytes as u64;
    }

    /// Records an incoming message of `bytes`.
    pub fn record_down(&mut self, bytes: usize) {
        self.down_bytes += bytes as u64;
    }

    /// Total bytes sent.
    #[must_use]
    pub fn up_bytes(&self) -> u64 {
        self.up_bytes
    }

    /// Total bytes received.
    #[must_use]
    pub fn down_bytes(&self) -> u64 {
        self.down_bytes
    }

    /// Average upload rate in kilobits/s over `elapsed_ms`.
    ///
    /// Returns `0.0` if no time has elapsed.
    #[must_use]
    pub fn up_kbps(&self, elapsed_ms: f64) -> f64 {
        kbps(self.up_bytes, elapsed_ms)
    }

    /// Average download rate in kilobits/s over `elapsed_ms`.
    #[must_use]
    pub fn down_kbps(&self, elapsed_ms: f64) -> f64 {
        kbps(self.down_bytes, elapsed_ms)
    }

    /// Adds another meter's counts into this one.
    pub fn merge(&mut self, other: &BandwidthMeter) {
        self.up_bytes += other.up_bytes;
        self.down_bytes += other.down_bytes;
    }
}

fn kbps(bytes: u64, elapsed_ms: f64) -> f64 {
    if elapsed_ms <= 0.0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / elapsed_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_compute() {
        let mut m = BandwidthMeter::new();
        m.record_up(1000);
        m.record_down(500);
        // 8000 bits over 2 s = 4 kbps up.
        assert_eq!(m.up_kbps(2000.0), 4.0);
        assert_eq!(m.down_kbps(2000.0), 2.0);
    }

    #[test]
    fn zero_elapsed_is_zero_rate() {
        let mut m = BandwidthMeter::new();
        m.record_up(100);
        assert_eq!(m.up_kbps(0.0), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BandwidthMeter::new();
        a.record_up(10);
        let mut b = BandwidthMeter::new();
        b.record_up(20);
        b.record_down(5);
        a.merge(&b);
        assert_eq!(a.up_bytes(), 30);
        assert_eq!(a.down_bytes(), 5);
    }
}
