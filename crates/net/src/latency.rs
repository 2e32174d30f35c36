//! Pairwise latency models.
//!
//! The paper drew end-to-end latencies from the King and PeerWise
//! measurement datasets, "filtered using a Geo-IP location dataset that
//! limits the locations of IP addresses to the United States (with mean
//! latencies of 62 and 68 ms respectively)". Those datasets are not
//! redistributable here, so [`king_like`] and [`peerwise_like`] synthesize
//! seeded pairwise matrices with the same means and a log-normal
//! dispersion typical of wide-area RTT measurements; the experiment
//! (Figure 7) depends only on the distribution's location and shape
//! relative to the 50 ms frame.

use watchmen_crypto::rng::Xoshiro256;

/// A source of one-way network delays between node pairs.
///
/// Implementations may be stochastic; they carry their own deterministic
/// generators so simulations reproduce exactly.
pub trait LatencyModel: std::fmt::Debug + Send {
    /// Samples the one-way delay in milliseconds for a packet from `from`
    /// to `to`.
    fn sample_ms(&mut self, from: usize, to: usize) -> f64;

    /// A short human-readable name for experiment reports.
    fn name(&self) -> &str;
}

/// A constant delay for every packet.
#[derive(Debug, Clone)]
pub struct Constant {
    delay_ms: f64,
}

impl LatencyModel for Constant {
    fn sample_ms(&mut self, _from: usize, _to: usize) -> f64 {
        self.delay_ms
    }

    fn name(&self) -> &str {
        "constant"
    }
}

/// Creates a constant-delay model.
///
/// # Panics
///
/// Panics if `delay_ms` is negative or not finite.
#[must_use]
pub fn constant(delay_ms: f64) -> Box<dyn LatencyModel> {
    assert!(delay_ms.is_finite() && delay_ms >= 0.0);
    Box::new(Constant { delay_ms })
}

/// Uniform random delay in `[lo, hi)` per packet.
#[derive(Debug)]
pub struct Uniform {
    lo: f64,
    hi: f64,
    rng: Xoshiro256,
}

impl LatencyModel for Uniform {
    fn sample_ms(&mut self, _from: usize, _to: usize) -> f64 {
        self.lo + (self.hi - self.lo) * self.rng.next_f64()
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

/// Creates a uniform-delay model.
///
/// # Panics
///
/// Panics if the range is invalid or negative.
#[must_use]
pub fn uniform(lo: f64, hi: f64, seed: u64) -> Box<dyn LatencyModel> {
    assert!(lo >= 0.0 && hi >= lo, "invalid range [{lo}, {hi})");
    Box::new(Uniform { lo, hi, rng: Xoshiro256::seed_from(seed, 0x0a7) })
}

/// A symmetric pairwise base-latency matrix with per-packet jitter: the
/// synthetic stand-in for the King / PeerWise datasets.
#[derive(Debug)]
pub struct Matrix {
    name: String,
    n: usize,
    /// Upper-triangular base delays, row-major over `i < j`.
    base: Vec<f64>,
    /// Relative jitter amplitude (e.g. `0.1` = ±10 % per packet).
    jitter: f64,
    rng: Xoshiro256,
}

impl Matrix {
    /// Builds a matrix of log-normal pairwise base delays with the given
    /// mean and log-space sigma.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, or parameters are non-positive.
    #[must_use]
    pub fn log_normal(
        name: &str,
        n: usize,
        mean_ms: f64,
        sigma: f64,
        jitter: f64,
        seed: u64,
    ) -> Self {
        assert!(n >= 2, "need at least 2 nodes");
        assert!(mean_ms > 0.0 && sigma > 0.0 && jitter >= 0.0);
        let mut rng = Xoshiro256::seed_from(seed, 0x1a7e);
        // mean of lognormal = exp(mu + sigma^2/2)  ⇒  mu = ln(mean) - sigma^2/2
        let mu = mean_ms.ln() - sigma * sigma / 2.0;
        let pairs = n * (n - 1) / 2;
        let base = (0..pairs)
            .map(|_| {
                // Box–Muller standard normal.
                let u1 = rng.next_f64().max(1e-12);
                let u2 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp()
            })
            .collect();
        Matrix { name: name.to_owned(), n, base, jitter, rng }
    }

    /// The base (jitter-free) delay between a pair.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `from == to`.
    #[must_use]
    pub fn base_ms(&self, from: usize, to: usize) -> f64 {
        assert!(from < self.n && to < self.n && from != to, "invalid pair {from}→{to}");
        let (i, j) = if from < to { (from, to) } else { (to, from) };
        // Index into the upper triangle.
        let idx = i * self.n - i * (i + 1) / 2 + (j - i - 1);
        self.base[idx]
    }
}

impl LatencyModel for Matrix {
    fn sample_ms(&mut self, from: usize, to: usize) -> f64 {
        let base = self.base_ms(from, to);
        let j = 1.0 + self.jitter * (2.0 * self.rng.next_f64() - 1.0);
        (base * j).max(0.1)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A King-dataset-like matrix. The dataset's 62 ms mean is a *round-trip*
/// estimate (King measures RTTs via DNS), so one-way samples use a 31 ms
/// mean with moderate dispersion and ±10 % per-packet jitter.
#[must_use]
pub fn king_like(n: usize, seed: u64) -> Box<dyn LatencyModel> {
    Box::new(Matrix::log_normal("king-like", n, 31.0, 0.45, 0.10, seed))
}

/// A PeerWise-dataset-like matrix: 68 ms mean RTT → 34 ms one-way, with
/// slightly wider dispersion and ±10 % per-packet jitter.
#[must_use]
pub fn peerwise_like(n: usize, seed: u64) -> Box<dyn LatencyModel> {
    Box::new(Matrix::log_normal("peerwise-like", n, 34.0, 0.55, 0.10, seed))
}

/// A LAN-like model: 1–3 ms uniform.
#[must_use]
pub fn lan(seed: u64) -> Box<dyn LatencyModel> {
    uniform(1.0, 3.0, seed)
}

/// A two-zone model: nodes split into two "continents"; intra-zone pairs
/// get the fast matrix, cross-zone pairs a large extra one-way delay.
///
/// The paper notes that "games limit the geographic location of players to
/// the same country or continent" to meet the 150 ms budget; this model
/// quantifies what happens when that assumption breaks.
#[derive(Debug)]
pub struct TwoZone {
    intra: Matrix,
    /// Nodes with index < `split` are zone A, the rest zone B.
    split: usize,
    /// Extra one-way delay for cross-zone pairs (ms).
    cross_penalty_ms: f64,
}

impl LatencyModel for TwoZone {
    fn sample_ms(&mut self, from: usize, to: usize) -> f64 {
        let base = self.intra.sample_ms(from, to);
        if (from < self.split) == (to < self.split) {
            base
        } else {
            base + self.cross_penalty_ms
        }
    }

    fn name(&self) -> &str {
        "two-zone"
    }
}

/// Creates a two-zone model: the first `split` nodes on one continent, the
/// rest on another, with `cross_penalty_ms` added one-way across zones
/// (e.g. ~70 ms for a transatlantic hop).
///
/// # Panics
///
/// Panics if `split` is 0 or ≥ `n`, or the penalty is negative.
#[must_use]
pub fn two_zone(n: usize, split: usize, cross_penalty_ms: f64, seed: u64) -> Box<dyn LatencyModel> {
    assert!(split > 0 && split < n, "split {split} out of range for {n} nodes");
    assert!(cross_penalty_ms >= 0.0);
    Box::new(TwoZone {
        intra: Matrix::log_normal("two-zone", n, 31.0, 0.45, 0.10, seed),
        split,
        cross_penalty_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut m = constant(25.0);
        assert_eq!(m.sample_ms(0, 1), 25.0);
        assert_eq!(m.sample_ms(3, 2), 25.0);
        assert_eq!(m.name(), "constant");
    }

    #[test]
    fn uniform_in_range() {
        let mut m = uniform(10.0, 20.0, 1);
        for _ in 0..200 {
            let s = m.sample_ms(0, 1);
            assert!((10.0..20.0).contains(&s));
        }
    }

    #[test]
    fn matrix_is_symmetric_and_positive() {
        let m = Matrix::log_normal("t", 10, 62.0, 0.45, 0.1, 7);
        for i in 0..10 {
            for j in 0..10 {
                if i != j {
                    assert_eq!(m.base_ms(i, j), m.base_ms(j, i));
                    assert!(m.base_ms(i, j) > 0.0);
                }
            }
        }
    }

    #[test]
    fn log_normal_means_match_their_calibration() {
        for (median, sigma, slack) in [(62.0, 0.45, 8.0), (68.0, 0.55, 10.0)] {
            let m = Matrix::log_normal("t", 48, median, sigma, 0.1, 42);
            let mean = m.base.iter().sum::<f64>() / m.base.len() as f64;
            assert!((mean - median).abs() < slack, "mean {mean} for {median}");
        }
    }

    #[test]
    fn jitter_varies_per_packet() {
        let mut m = Matrix::log_normal("t", 4, 62.0, 0.45, 0.1, 3);
        let a = m.sample_ms(0, 1);
        let b = m.sample_ms(0, 1);
        assert_ne!(a, b);
        // Jitter stays within ±10 % of base.
        let base = m.base_ms(0, 1);
        for _ in 0..100 {
            let s = m.sample_ms(0, 1);
            assert!(s >= base * 0.899 && s <= base * 1.101, "{s} vs base {base}");
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Matrix::log_normal("t", 8, 62.0, 0.45, 0.1, 9);
        let mut b = Matrix::log_normal("t", 8, 62.0, 0.45, 0.1, 9);
        for _ in 0..32 {
            assert_eq!(a.sample_ms(1, 5), b.sample_ms(1, 5));
        }
    }

    #[test]
    fn two_zone_penalizes_cross_pairs() {
        let mut m = two_zone(8, 4, 70.0, 3);
        let mut intra = 0.0;
        let mut cross = 0.0;
        for _ in 0..50 {
            intra += m.sample_ms(0, 1) + m.sample_ms(5, 6);
            cross += m.sample_ms(0, 5) + m.sample_ms(6, 1);
        }
        assert!(cross / 2.0 > intra / 2.0 + 60.0 * 50.0, "cross {cross} intra {intra}");
        assert_eq!(m.name(), "two-zone");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn two_zone_bad_split_panics() {
        let _ = two_zone(4, 4, 70.0, 1);
    }

    #[test]
    #[should_panic(expected = "invalid pair")]
    fn self_pair_panics() {
        let m = Matrix::log_normal("t", 4, 62.0, 0.45, 0.1, 3);
        let _ = m.base_ms(2, 2);
    }
}
