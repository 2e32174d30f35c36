//! Sample statistics and the benchmark's own seed stream.
//!
//! Everything here is benchmark-side: the program under test never sees
//! these types, only the inputs generated from them.

use std::time::Instant;

/// SplitMix64 — the benchmark's own copy, so input generation does not
/// depend on the code being measured.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0). Modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `permille`/1000.
    pub fn chance(&mut self, permille: u64) -> bool {
        self.below(1000) < permille
    }
}

/// Derives an independent stream seed for `(run seed, workload tag, unit)`.
pub fn derive_seed(seed: u64, tag: u64, unit: u64) -> u64 {
    let mut sm = SplitMix64::new(seed ^ tag.rotate_left(32));
    let base = sm.next_u64();
    SplitMix64::new(base ^ unit.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// A series of timing samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn push_since(&mut self, start: Instant) {
        self.0.push(start.elapsed().as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    pub fn sum_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile (`0.0..=100.0`) in nanoseconds; 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        percentile_sorted(&sorted, p)
    }

    pub fn percentile_ms(&self, p: f64) -> f64 {
        self.percentile_ns(p) as f64 / 1e6
    }

    pub fn percentile_us(&self, p: f64) -> f64 {
        self.percentile_ns(p) as f64 / 1e3
    }

    /// How many samples lie strictly beyond the `p`-th percentile rank —
    /// the guide asks for at least ten before a percentile is trusted.
    pub fn beyond(&self, p: f64) -> usize {
        let rank = ((p / 100.0) * self.0.len() as f64).ceil() as usize;
        self.0.len().saturating_sub(rank)
    }

    /// Operations per second over the whole series; 0 when empty.
    pub fn ops_per_sec(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.len() as f64 / (self.sum_ns().max(1) as f64 / 1e9)
    }
}

impl From<Vec<u64>> for Samples {
    fn from(ns: Vec<u64>) -> Self {
        Samples(ns)
    }
}

pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median_sorted_f64(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted floats; 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted_f64(&v)
}

/// Nearest-rank percentile over small integer samples (frames); 0 when empty.
pub fn percentile_u64(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile_sorted(&v, p)
}

/// Times `body` over `items` calls, in batches small enough that one
/// interruption spoils one batch only, and returns the median cost of one
/// call in nanoseconds.
pub fn per_call_ns(items: usize, batch: usize, mut body: impl FnMut(usize)) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let batch = batch.clamp(1, items);
    let mut costs = Vec::with_capacity(items / batch + 1);
    let mut i = 0;
    while i + batch <= items {
        let start = Instant::now();
        for k in i..i + batch {
            body(k);
        }
        costs.push(start.elapsed().as_nanos() as f64 / batch as f64);
        i += batch;
    }
    median_f64(&costs)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
