//! A concurrent log-linear-bucket histogram with quantile queries.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^5 = 32 linear buckets per power-of-two
/// octave, bounding the relative error of any reported quantile by
/// 1/32 ≈ 3.1%.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// Total buckets needed to cover the full scaled `u64` range: `SUB`
/// linear buckets below `SUB`, then 32 buckets for each of the remaining
/// 59 octaves.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Values are recorded in thousandths (e.g. microseconds when the unit
/// is milliseconds), so sub-unit values keep full log-linear resolution.
const SCALE: f64 = 1000.0;

/// A fixed-footprint histogram of non-negative values with log-linear
/// buckets (in the spirit of HdrHistogram): constant-time concurrent
/// recording, ~3% relative resolution across the whole range, and
/// quantile queries without storing samples.
///
/// Values are `f64` in the metric's natural unit (milliseconds, bytes,
/// kbps); negative and non-finite values are clamped to zero.
///
/// # Examples
///
/// ```
/// use watchmen_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for v in 1..=100 {
///     h.record(f64::from(v));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.quantile(0.5);
/// assert!((p50 - 50.0).abs() / 50.0 < 0.05, "p50 ≈ {p50}");
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    /// Sum of scaled values (thousandths of the unit).
    sum: AtomicU64,
    /// Minimum scaled value; `u64::MAX` while empty.
    min: AtomicU64,
    /// Maximum scaled value.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> =
            buckets.into_boxed_slice().try_into().expect("length matches");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Negative, NaN and infinite values clamp
    /// to zero; values beyond the scaled `u64` range saturate into the
    /// top bucket.
    pub fn record(&self, value: f64) {
        let scaled = if value.is_nan() || value <= 0.0 {
            0
        } else {
            let s = value * SCALE;
            if s >= u64::MAX as f64 {
                u64::MAX
            } else {
                s as u64
            }
        };
        self.buckets[bucket_index(scaled)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(scaled, Ordering::Relaxed);
        self.min.fetch_min(scaled, Ordering::Relaxed);
        self.max.fetch_max(scaled, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values in the metric's unit.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum.load(Ordering::Relaxed) as f64 / SCALE
    }

    /// Arithmetic mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest recorded value, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0.0
        } else {
            m as f64 / SCALE
        }
    }

    /// Largest recorded value, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max.load(Ordering::Relaxed) as f64 / SCALE
    }

    /// The value at quantile `q ∈ [0, 1]` (bucket midpoint, ≤ 3.1%
    /// relative error), or 0 when empty.
    ///
    /// Bucket midpoints can fall outside the observed range at the
    /// distribution's boundaries — a single sample's bucket midpoint need
    /// not equal the sample, and the top bucket's midpoint can exceed the
    /// largest observation — so the estimate is clamped to the recorded
    /// `[min, max]`: `quantile(0.0)` ≥ [`Histogram::min`] and
    /// `quantile(1.0)` = [`Histogram::max`] exactly.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        // Rank of the target observation, 1-based, ceil like nearest-rank.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let v = bucket_mid(i) as f64 / SCALE;
                let (lo, hi) = (self.min(), self.max());
                // A concurrent first record can transiently leave min > max
                // under relaxed ordering; skip clamping in that window.
                return if lo <= hi { v.clamp(lo, hi) } else { v };
            }
        }
        self.max()
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs in the metric's
    /// unit, for exporters.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_high(i) as f64 / SCALE, n))
            })
            .collect()
    }

    /// Adds every observation recorded in `other` into this histogram,
    /// bucket by bucket — the aggregation primitive behind shard rollups:
    /// each shard records into its own histogram with zero contention, and
    /// a collector merges them into one fleet-wide distribution whose
    /// quantiles are exact up to the shared bucket resolution.
    ///
    /// `other` may be concurrently written; the merge observes each of its
    /// buckets once (no torn multi-bucket snapshot is required for the
    /// count/sum/min/max invariants, which are merged independently).
    ///
    /// # Examples
    ///
    /// ```
    /// use watchmen_telemetry::Histogram;
    ///
    /// let (a, b) = (Histogram::new(), Histogram::new());
    /// a.record(1.0);
    /// b.record(100.0);
    /// a.merge_from(&b);
    /// assert_eq!(a.count(), 2);
    /// assert!((a.max() - 100.0).abs() < 1e-9);
    /// ```
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Maps a scaled value to its bucket: identity below `SUB`, then 32
/// linear sub-buckets per octave.
fn bucket_index(u: u64) -> usize {
    if u < SUB as u64 {
        return u as usize;
    }
    let msb = 63 - u.leading_zeros();
    let shift = msb - SUB_BITS;
    let octave = (msb - SUB_BITS + 1) as usize;
    (octave << SUB_BITS) + ((u >> shift) as usize & (SUB - 1))
}

/// Inclusive lower bound of bucket `i` in scaled units.
fn bucket_low(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let octave = i / SUB - 1;
    let pos = i % SUB;
    ((SUB + pos) as u64) << octave
}

/// Exclusive upper bound of bucket `i` in scaled units.
fn bucket_high(i: usize) -> u64 {
    if i < SUB {
        return i as u64 + 1;
    }
    let octave = i / SUB - 1;
    bucket_low(i).saturating_add(1u64 << octave)
}

/// Midpoint of bucket `i`, used as its representative value.
fn bucket_mid(i: usize) -> u64 {
    let low = bucket_low(i);
    low + (bucket_high(i).saturating_sub(low)) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_monotone_and_self_inverse() {
        let mut prev = 0usize;
        for u in [0u64, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(u);
            assert!(i >= prev, "index not monotone at {u}");
            assert!(bucket_low(i) <= u, "low {} > {u}", bucket_low(i));
            assert!(
                u < bucket_high(i) || bucket_high(i) == u64::MAX,
                "high {} <= {u}",
                bucket_high(i)
            );
            prev = i;
        }
    }

    #[test]
    fn every_bucket_contains_its_bounds() {
        for i in 0..BUCKETS {
            let low = bucket_low(i);
            assert_eq!(bucket_index(low), i, "low bound of bucket {i}");
        }
    }

    #[test]
    fn quantiles_on_uniform_are_accurate() {
        let h = Histogram::new();
        for v in 1..=10_000 {
            h.record(f64::from(v));
        }
        for (q, expect) in [(0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)] {
            let got = h.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.04, "q{q}: got {got}, want ~{expect} ({rel})");
        }
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        // Regression: a lone sample's bucket midpoint need not equal the
        // sample; clamping to [min, max] makes every quantile exact.
        for v in [0.07, 1.0, 5.3, 999.0, 123_456.78] {
            let h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.5, 0.99, 1.0] {
                let got = h.quantile(q);
                let want = h.min(); // the sample, up to recording scale
                assert!((got - want).abs() < 1e-9, "value {v} q{q}: got {got}, want {want}");
            }
        }
    }

    #[test]
    fn two_bucket_distribution_p99_stays_in_the_low_bucket() {
        // Regression: 99 low observations and 1 high one — p99's rank (99)
        // lands on the last low observation, so the estimate must come
        // from the low bucket, and p100 must equal the recorded max.
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1.0);
        }
        h.record(1000.0);
        let p99 = h.quantile(0.99);
        assert!((p99 - 1.0).abs() < 0.05, "p99 {p99} escaped the low bucket");
        assert_eq!(h.quantile(1.0), h.max());
        assert!((h.quantile(1.0) - 1000.0).abs() < 1e-9);
        // And the estimate never exceeds the observed range.
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((h.min()..=h.max()).contains(&v), "q{q}: {v} outside range");
        }
    }

    #[test]
    fn sub_unit_values_resolve() {
        let h = Histogram::new();
        h.record(0.004);
        h.record(0.5);
        assert_eq!(h.count(), 2);
        assert!(h.min() > 0.003 && h.min() < 0.005);
        assert!((h.quantile(1.0) - 0.5).abs() < 0.05);
    }

    #[test]
    fn degenerate_inputs_clamp() {
        let h = Histogram::new();
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        // -3 and NaN clamp to zero; +inf saturates to the top bucket.
        assert_eq!(h.min(), 0.0);
        assert!(h.max() > 1e12);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_combines_distributions() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in 1..=50 {
            a.record(f64::from(v));
        }
        for v in 51..=100 {
            b.record(f64::from(v));
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 100);
        assert!((a.min() - 1.0).abs() < 1e-9);
        assert!((a.max() - 100.0).abs() < 1e-9);
        assert!((a.sum() - 5050.0).abs() < 1e-6);
        let p50 = a.quantile(0.5);
        assert!((p50 - 50.0).abs() / 50.0 < 0.05, "merged p50 ≈ {p50}");
    }

    #[test]
    fn merge_from_empty_is_identity() {
        let (a, b) = (Histogram::new(), Histogram::new());
        a.record(7.0);
        a.merge_from(&b);
        assert_eq!(a.count(), 1);
        assert!((a.min() - 7.0).abs() < 1e-9);
        assert!((a.quantile(0.5) - 7.0).abs() < 1e-9);
        // And merging into an empty histogram adopts the source's range.
        b.merge_from(&a);
        assert_eq!(b.count(), 1);
        assert!((b.min() - 7.0).abs() < 1e-9);
        assert!((b.max() - 7.0).abs() < 1e-9);
    }
}
