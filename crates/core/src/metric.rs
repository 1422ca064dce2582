//! The workload throughput metric (Eq. 1) and its aged variant (Eq. 2).

use liferaft_storage::CostModel;

use crate::scheduler::BucketSnapshot;
use liferaft_storage::SimTime;

/// Cost parameters of the metric: the paper's `Tb` and `Tm`, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricParams {
    /// Bucket read cost in milliseconds.
    pub tb_ms: f64,
    /// Per-object match cost in milliseconds.
    pub tm_ms: f64,
}

impl MetricParams {
    /// Extracts the metric constants from a [`CostModel`].
    pub fn from_cost(cost: &CostModel) -> Self {
        MetricParams {
            tb_ms: cost.tb.as_millis_f64(),
            tm_ms: cost.tm.as_millis_f64(),
        }
    }

    /// The paper's constants: Tb = 1200 ms, Tm = 0.13 ms.
    pub fn paper() -> Self {
        Self::from_cost(&CostModel::paper())
    }

    /// Eq. 1: `Ut(i) = W / (Tb·φ(i) + Tm·W)`, in objects per millisecond.
    ///
    /// `φ(i)` is 0 when the bucket is cached and 1 otherwise; an empty queue
    /// scores 0 (nothing to consume).
    ///
    /// ```
    /// use liferaft_core::MetricParams;
    ///
    /// let m = MetricParams::paper();
    /// // Deeper queues amortize the bucket read: strictly higher throughput.
    /// assert!(m.workload_throughput(100, false) > m.workload_throughput(10, false));
    /// // A cache hit drops the Tb term entirely and caps out at 1/Tm.
    /// let cached = m.workload_throughput(50, true);
    /// assert!((cached - m.max_throughput()).abs() < 1e-12 * m.max_throughput());
    /// assert_eq!(m.workload_throughput(0, false), 0.0);
    /// ```
    pub fn workload_throughput(&self, queue_len: u64, cached: bool) -> f64 {
        if queue_len == 0 {
            return 0.0;
        }
        let w = queue_len as f64;
        let phi = if cached { 0.0 } else { 1.0 };
        w / (self.tb_ms * phi + self.tm_ms * w)
    }

    /// Upper bound of Eq. 1: a cached bucket consumes `1/Tm` objects per ms
    /// regardless of queue length.
    pub fn max_throughput(&self) -> f64 {
        1.0 / self.tm_ms
    }
}

/// How the age term is combined with the throughput term in Eq. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgingMode {
    /// Min–max normalize both `Ut` and `A` over the candidate set before
    /// blending (our default: the paper's raw sum mixes objects/ms with
    /// milliseconds, letting age dominate for any α > 0 — the `ablations`
    /// figure check measures exactly that).
    Normalized,
    /// The paper's Eq. 2 verbatim: `Ua = Ut·(1−α) + A·α` on raw values.
    /// Kept for the ablation bench.
    Raw,
}

/// A prepared scoring pass over one candidate set: the min–max bounds of
/// both metric terms, computed in a single sweep so individual scores can
/// then be evaluated on the fly — no per-decision vectors of `Ut` and `A`.
///
/// Min–max normalization maps a constant term to all-zeros, and fused
/// scoring is bit-identical to normalizing materialized term vectors (the
/// tests hold it to such a reference).
#[derive(Debug, Clone, Copy)]
pub struct ScorePass {
    params: MetricParams,
    mode: AgingMode,
    alpha: f64,
    now: SimTime,
    ut_lo: f64,
    ut_span: f64,
    age_lo: f64,
    age_span: f64,
}

impl ScorePass {
    /// Prepares a pass over `candidates` at time `now`.
    ///
    /// # Panics
    /// Panics if α is outside `[0, 1]` or a metric term is NaN (an upstream
    /// accounting bug).
    pub fn new(
        params: &MetricParams,
        mode: AgingMode,
        alpha: f64,
        now: SimTime,
        candidates: &[BucketSnapshot],
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "α must be in [0,1], got {alpha}"
        );
        let mut pass = ScorePass {
            params: *params,
            mode,
            alpha,
            now,
            ut_lo: 0.0,
            ut_span: 0.0,
            age_lo: 0.0,
            age_span: 0.0,
        };
        if mode == AgingMode::Normalized && !candidates.is_empty() {
            let (mut ut_lo, mut ut_hi) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut age_lo, mut age_hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for c in candidates {
                let ut = params.workload_throughput(c.queue_len, c.cached);
                let age = c.age_ms(now);
                assert!(!ut.is_nan() && !age.is_nan(), "metric term is NaN");
                ut_lo = ut_lo.min(ut);
                ut_hi = ut_hi.max(ut);
                age_lo = age_lo.min(age);
                age_hi = age_hi.max(age);
            }
            pass.ut_lo = ut_lo;
            pass.ut_span = ut_hi - ut_lo;
            pass.age_lo = age_lo;
            pass.age_span = age_hi - age_lo;
        }
        pass
    }

    /// Eq. 2's score of one candidate from the prepared set.
    #[inline]
    pub fn score(&self, c: &BucketSnapshot) -> f64 {
        self.blend(self.ut_term(c), self.age_term(c))
    }

    /// Eq. 2's blend of a throughput term and an age term. Monotone in
    /// both, so blending the terms of two different candidates bounds every
    /// candidate that trails both of them.
    #[inline]
    pub fn blend(&self, ut_term: f64, age_term: f64) -> f64 {
        ut_term * (1.0 - self.alpha) + age_term * self.alpha
    }

    /// The throughput term of one candidate — `Ut` raw, or min–max
    /// normalized over the prepared set. Exposed so indexed pick paths can
    /// form score *upper bounds* from frontier candidates.
    #[inline]
    pub fn ut_term(&self, c: &BucketSnapshot) -> f64 {
        let ut = self.params.workload_throughput(c.queue_len, c.cached);
        match self.mode {
            AgingMode::Raw => ut,
            AgingMode::Normalized => normalized(ut, self.ut_lo, self.ut_span),
        }
    }

    /// The age term of one candidate — `A` raw, or min–max normalized over
    /// the prepared set.
    #[inline]
    pub fn age_term(&self, c: &BucketSnapshot) -> f64 {
        let age = c.age_ms(self.now);
        match self.mode {
            AgingMode::Raw => age,
            AgingMode::Normalized => normalized(age, self.age_lo, self.age_span),
        }
    }
}

/// Min–max normalization of one value: a constant term maps to zero.
#[inline]
fn normalized(v: f64, lo: f64, span: f64) -> f64 {
    if span <= 0.0 {
        0.0
    } else {
        (v - lo) / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::reference_scores;
    use liferaft_storage::{BucketId, SimDuration};

    fn snap(bucket: u32, queue_len: u64, age_ms: u64, cached: bool) -> (BucketSnapshot, SimTime) {
        let now = SimTime::ZERO + SimDuration::from_secs(100);
        let s = BucketSnapshot {
            bucket: BucketId(bucket),
            queue_len,
            oldest_enqueue: SimTime::from_micros(100_000_000 - age_ms * 1_000),
            cached,
        };
        (s, now)
    }

    #[test]
    fn eq1_known_values() {
        let p = MetricParams {
            tb_ms: 1200.0,
            tm_ms: 0.13,
        };
        // W=1000, uncached: 1000 / (1200 + 130) ≈ 0.7519 objects/ms.
        let ut = p.workload_throughput(1000, false);
        assert!((ut - 1000.0 / 1330.0).abs() < 1e-12);
        // Cached: 1000 / 130 = 1/Tm.
        let cached = p.workload_throughput(1000, true);
        assert!((cached - p.max_throughput()).abs() < 1e-12);
    }

    #[test]
    fn eq1_monotone_in_queue_length_when_uncached() {
        let p = MetricParams::paper();
        let mut last = 0.0;
        for w in [1u64, 10, 100, 1_000, 10_000] {
            let ut = p.workload_throughput(w, false);
            assert!(ut > last);
            last = ut;
        }
        assert_eq!(p.workload_throughput(0, false), 0.0);
    }

    #[test]
    fn cached_buckets_always_beat_uncached() {
        let p = MetricParams::paper();
        // Even a 1-object cached queue outranks a 10 000-object uncached one.
        assert!(p.workload_throughput(1, true) > p.workload_throughput(10_000, false));
    }

    #[test]
    fn alpha_zero_is_pure_throughput() {
        let p = MetricParams::paper();
        let (a, now) = snap(0, 10_000, 0, false);
        let (b, _) = snap(1, 10, 99_000, false); // ancient but tiny queue
        let pass = ScorePass::new(&p, AgingMode::Normalized, 0.0, now, &[a, b]);
        assert!(
            pass.score(&a) > pass.score(&b),
            "greedy must prefer contention"
        );
    }

    #[test]
    fn alpha_one_is_pure_age() {
        let p = MetricParams::paper();
        let (a, now) = snap(0, 10_000, 10, false);
        let (b, _) = snap(1, 1, 90_000, false);
        let pass = ScorePass::new(&p, AgingMode::Normalized, 1.0, now, &[a, b]);
        assert!(
            pass.score(&b) > pass.score(&a),
            "α=1 must prefer the oldest request"
        );
    }

    #[test]
    fn intermediate_alpha_blends() {
        let p = MetricParams::paper();
        let (a, now) = snap(0, 10_000, 0, false);
        let (b, _) = snap(1, 1, 90_000, false);
        // A long-queue young bucket vs a short-queue old bucket: as α rises
        // the old bucket must eventually win, with a crossover in between.
        let pick = |alpha: f64| {
            let pass = ScorePass::new(&p, AgingMode::Normalized, alpha, now, &[a, b]);
            if pass.score(&a) >= pass.score(&b) {
                0
            } else {
                1
            }
        };
        assert_eq!(pick(0.0), 0);
        assert_eq!(pick(1.0), 1);
        let crossover = (1..=9).map(|k| pick(k as f64 / 10.0)).collect::<Vec<_>>();
        assert!(
            crossover.windows(2).all(|w| w[0] <= w[1]),
            "one-way crossover"
        );
    }

    #[test]
    fn raw_mode_lets_age_dominate() {
        // Documented pathology of the verbatim Eq. 2: with raw units even a
        // tiny α makes milliseconds of age dwarf objects/ms of throughput.
        let p = MetricParams::paper();
        let (a, now) = snap(0, 10_000, 100, false);
        let (b, _) = snap(1, 1, 5_000, false);
        let pass = ScorePass::new(&p, AgingMode::Raw, 0.05, now, &[a, b]);
        assert!(pass.score(&b) > pass.score(&a));
    }

    #[test]
    #[should_panic(expected = "α must be in")]
    fn alpha_out_of_range_panics() {
        let p = MetricParams::paper();
        ScorePass::new(&p, AgingMode::Normalized, 1.5, SimTime::ZERO, &[]);
    }

    /// The fused pass must agree bit-for-bit with materializing both term
    /// vectors and normalizing them (the test fixture's reference scores).
    #[test]
    fn fused_pass_matches_materialized_scoring_exactly() {
        let p = MetricParams::paper();
        let now = SimTime::ZERO + SimDuration::from_secs(100);
        let cands: Vec<BucketSnapshot> = (0..17)
            .map(|i| {
                snap(
                    i,
                    (i as u64 * 37) % 900 + 1,
                    (i as u64 * 7_993) % 90_000,
                    i % 5 == 0,
                )
                .0
            })
            .collect();
        for mode in [AgingMode::Normalized, AgingMode::Raw] {
            for alpha in [0.0, 0.25, 0.5, 1.0] {
                let reference = reference_scores(&p, mode, alpha, now, &cands);
                let pass = ScorePass::new(&p, mode, alpha, now, &cands);
                for (c, r) in cands.iter().zip(&reference) {
                    let fused = pass.score(c);
                    assert_eq!(fused.to_bits(), r.to_bits(), "mode {mode:?} α={alpha}");
                }
            }
        }
    }
}
