//! Zipf-distributed sampling over a finite set of ranks.

use rand::Rng;

/// A Zipf distribution over ranks `0..n`: rank `k` has probability
/// proportional to `1/(k+1)^s`.
///
/// Hotspot popularity in sky-survey workloads is heavy-tailed — a handful of
/// famous regions (survey overlaps, well-known objects) dominate — which is
/// precisely what produces the paper's "top ten buckets accessed by 61% of
/// queries" shape.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative distribution, cdf[k] = P(rank ≤ k); last element is 1.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf(s) distribution over `n` ranks.
    ///
    /// # Panics
    /// Panics if `n == 0` or the exponent is not finite and non-negative.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "Zipf exponent must be ≥ 0, got {exponent}"
        );
        let weights: Vec<f64> = (0..n)
            .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Samples a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        // First rank whose cdf exceeds u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Probability of rank `k`.
    fn pmf(z: &Zipf, k: usize) -> f64 {
        let lo = if k == 0 { 0.0 } else { z.cdf[k - 1] };
        z.cdf[k] - lo
    }

    #[test]
    fn cdf_is_normalized_and_monotone() {
        let z = Zipf::new(10, 1.2);
        let cdf = &z.cdf;
        assert_eq!(cdf.len(), 10);
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((pmf(&z, k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_ratios_follow_power_law() {
        let z = Zipf::new(8, 2.0);
        // p(0)/p(1) = 2^2 = 4.
        assert!((pmf(&z, 0) / pmf(&z, 1) - 4.0).abs() < 1e-9);
        assert!((pmf(&z, 1) / pmf(&z, 3) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipf::new(5, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            assert!(
                (freq - pmf(&z, k)).abs() < 0.01,
                "rank {k}: freq {freq} vs pmf {}",
                pmf(&z, k)
            );
        }
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = Zipf::new(1, 1.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Zipf::new(0, 1.0);
    }
}
