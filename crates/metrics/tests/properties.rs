//! Property tests for the statistics substrate.

use liferaft_metrics::{StreamingStats, Summary};
use proptest::prelude::*;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6..1e6f64, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Welford agrees with the naive two-pass formulas.
    #[test]
    fn welford_matches_two_pass(samples in finite_samples()) {
        let s: StreamingStats = samples.iter().copied().collect();
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    }

    /// Merging any split of a sample equals processing it whole.
    #[test]
    fn merge_is_split_invariant(samples in finite_samples(), split in 0.0..1.0f64) {
        let k = (samples.len() as f64 * split) as usize;
        let whole: StreamingStats = samples.iter().copied().collect();
        let mut left: StreamingStats = samples[..k].iter().copied().collect();
        let right: StreamingStats = samples[k..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (left.variance() - whole.variance()).abs()
                < 1e-4 * (1.0 + whole.variance().abs())
        );
    }

    /// Percentiles are monotone, bounded by min/max, and the 0th/100th hit
    /// the extremes exactly.
    #[test]
    fn percentiles_are_monotone_and_bounded(samples in finite_samples()) {
        let s = Summary::from_samples(samples.clone());
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p);
            prop_assert!(v >= last);
            prop_assert!(v >= s.min() - 1e-9);
            prop_assert!(v <= s.max() + 1e-9);
            last = v;
        }
        prop_assert_eq!(s.percentile(0.0), s.min());
        prop_assert_eq!(s.percentile(100.0), s.max());
    }
}
