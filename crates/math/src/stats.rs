//! Histograms and percentiles.
//!
//! [`Histogram`] backs the experiment harness (Figure 7's PDF of update
//! ages, Figure 4's stacked bars).

/// A fixed-width histogram over `[lo, hi)` with an overflow bucket.
///
/// # Examples
///
/// ```
/// use watchmen_math::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.push(1.0);
/// h.push(3.0);
/// h.push(100.0); // overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `buckets == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "histogram: lo {lo} >= hi {hi}");
        assert!(buckets > 0, "histogram: zero buckets");
        Histogram { lo, hi, buckets: vec![0; buckets], underflow: 0, overflow: 0 }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let i = ((x - self.lo) / width) as usize;
            let i = i.min(self.buckets.len() - 1);
            self.buckets[i] += 1;
        }
    }

    /// Total number of samples including under/overflow.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Samples in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Number of buckets.
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Samples below `lo`.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi`.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The `[start, end)` range of bucket `i`.
    #[must_use]
    pub fn bucket_range(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }

    /// The fraction of all samples falling in bucket `i` (`0.0` when empty).
    #[must_use]
    pub fn fraction(&self, i: usize) -> f64 {
        let total = self.count();
        if total == 0 {
            0.0
        } else {
            self.buckets[i] as f64 / total as f64
        }
    }

    /// Iterates `(bucket_start, fraction)` pairs — the PDF series plotted in
    /// Figure 7.
    pub fn pdf(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (0..self.buckets.len()).map(|i| (self.bucket_range(i).0, self.fraction(i)))
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of a sample set, by linear interpolation.
///
/// Returns `None` for an empty slice. The input need not be sorted.
///
/// # Examples
///
/// ```
/// use watchmen_math::stats::percentile;
/// let data = vec![4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&data, 0.5), Some(2.5));
/// ```
#[must_use]
pub fn percentile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let q = crate::clamp(q, 0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    Some(if i + 1 < sorted.len() {
        sorted[i] * (1.0 - frac) + sorted[i + 1] * frac
    } else {
        sorted[i]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        for i in 0..10 {
            assert_eq!(h.bucket_count(i), 1, "bucket {i}");
        }
        assert_eq!(h.bucket_range(3), (3.0, 4.0));
        assert_eq!(h.fraction(3), 0.1);
    }

    #[test]
    fn histogram_under_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-1.0);
        h.push(1.0);
        h.push(5.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_pdf_sums_to_fraction_in_range() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for x in [0.5, 1.5, 2.5, 9.0] {
            h.push(x);
        }
        let total: f64 = h.pdf().map(|(_, f)| f).sum();
        assert!((total - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn histogram_bad_range_panics() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn percentile_interpolates() {
        let data = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 1.0), Some(4.0));
        assert_eq!(percentile(&data, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.3), Some(7.0));
    }
}
