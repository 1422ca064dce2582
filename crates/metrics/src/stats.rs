//! Single-pass and sample statistics.

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable for long simulation runs where response times span
/// five orders of magnitude (milliseconds for cached interactive queries,
/// hundreds of seconds for full-sky scans).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (σ/μ), the dispersion measure of Figure 7b.
    ///
    /// Returns 0 for an empty or zero-mean sample.
    pub fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for StreamingStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = StreamingStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// A percentile summary of a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    stats: StreamingStats,
}

impl Summary {
    /// Builds a summary from a sample (NaNs are rejected).
    ///
    /// # Panics
    /// Panics if any observation is NaN — a NaN response time is always an
    /// accounting bug upstream and must not be silently absorbed.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "summary input contains NaN"
        );
        let stats = samples.iter().copied().collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after check"));
        Summary {
            sorted: samples,
            stats,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Coefficient of variation (σ/μ).
    pub fn coefficient_of_variation(&self) -> f64 {
        self.stats.coefficient_of_variation()
    }

    /// Linear-interpolated percentile, `p ∈ [0, 100]`. Returns 0 if empty.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.sorted.is_empty() {
            return 0.0;
        }
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Merges another summary into this one, as if both samples had been
    /// collected in a single pass: the sorted samples interleave (two-pointer
    /// merge, no re-sort) and the moment accumulators combine via
    /// [`StreamingStats::merge`]. This is the cross-run aggregation path —
    /// each run summarizes its own completions, and a caller pooling runs
    /// folds their summaries without ever materializing the pooled sample
    /// twice.
    pub fn merge(&mut self, other: &Summary) {
        if other.sorted.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.sorted.len() + other.sorted.len());
        let (a, b) = (&self.sorted, &other.sorted);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            // `<=` keeps self's observations first on ties (stable merge).
            if a[i] <= b[j] {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.sorted = merged;
        self.stats.merge(&other.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sorted sample of `s`.
    fn sorted(s: &Summary) -> &[f64] {
        &s.sorted
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.coefficient_of_variation(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn known_mean_and_variance() {
        let s: StreamingStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert!((s.coefficient_of_variation() - 0.4).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn single_observation() {
        let s: StreamingStats = [42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let seq: StreamingStats = all.iter().copied().collect();
        let mut a: StreamingStats = all[..37].iter().copied().collect();
        let b: StreamingStats = all[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: StreamingStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&StreamingStats::new());
        assert_eq!(s, before);
        let mut e = StreamingStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn summary_percentiles() {
        let s = Summary::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(s.count(), 100);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.percentile(50.0) - 50.5).abs() < 1e-12);
        assert!((s.percentile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.percentile(100.0) - 100.0).abs() < 1e-12);
        assert!((s.percentile(90.0) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn summary_of_empty_sample() {
        let s = Summary::from_samples(vec![]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(vec![7.0]);
        assert_eq!(s.percentile(0.0), 7.0);
        assert_eq!(s.percentile(37.0), 7.0);
        assert_eq!(s.percentile(100.0), 7.0);
    }

    #[test]
    fn summary_merge_matches_single_pass() {
        let all: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let single = Summary::from_samples(all.clone());
        let mut a = Summary::from_samples(all[..83].to_vec());
        let b = Summary::from_samples(all[83..].to_vec());
        a.merge(&b);
        assert_eq!(a.count(), single.count());
        assert_eq!(sorted(&a), sorted(&single), "merge must equal a re-sort");
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), single.percentile(p), "p{p}");
        }
        assert!((a.mean() - single.mean()).abs() < 1e-9);
        assert!((a.std_dev() - single.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let mut s = Summary::from_samples(vec![3.0, 1.0, 2.0]);
        let before = s.clone();
        s.merge(&Summary::from_samples(vec![]));
        assert_eq!(s, before);
        let mut e = Summary::from_samples(vec![]);
        e.merge(&before);
        assert_eq!(sorted(&e), sorted(&before));
        assert_eq!(e.mean(), before.mean());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        Summary::from_samples(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_range_checked() {
        Summary::from_samples(vec![1.0]).percentile(101.0);
    }
}
