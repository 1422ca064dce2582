//! The workload throughput metric (Eq. 1) and its aged variant (Eq. 2).

use liferaft_storage::{CostModel, SimTime};

use crate::scheduler::BucketSnapshot;

/// The metric's former parameter type, now an alias of [`CostModel`]:
/// Eq. 1 reads the batch cost model itself. Only the repo benchmark still
/// names it.
pub type MetricParams = CostModel;

/// Eq. 1: `Ut(i) = W / scan_batch(W, φ(i))`, in objects per microsecond —
/// the batch's scan price from [`CostModel::scan_batch`], in exact integer
/// µs, so the metric holds no second copy of the cost formula.
///
/// `φ(i)` is 0 when the bucket is cached and 1 otherwise; an empty queue
/// scores 0 (nothing to consume). In exact µs every resident queue scores
/// one value, `1/Tm`, and an uncached `Ut` is strictly increasing in `W`
/// (for `Tb > 0` and any queue shorter than ~10⁹ entries), so the
/// candidate index's throughput order is the score order.
///
/// ```
/// use liferaft_core::metric::workload_throughput;
/// use liferaft_storage::CostModel;
///
/// let cost = CostModel::paper();
/// // Deeper queues amortize the bucket read: strictly higher throughput.
/// assert!(workload_throughput(&cost, 100, false) > workload_throughput(&cost, 10, false));
/// // A cache hit drops the Tb term entirely: 1/Tm for any queue length.
/// assert_eq!(workload_throughput(&cost, 50, true), 1.0 / 130.0);
/// assert_eq!(workload_throughput(&cost, 0, false), 0.0);
/// ```
pub fn workload_throughput(cost: &CostModel, queue_len: u64, cached: bool) -> f64 {
    if queue_len == 0 {
        return 0.0;
    }
    queue_len as f64 / cost.scan_batch(queue_len, cached).as_micros() as f64
}

/// How the age term is combined with the throughput term in Eq. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgingMode {
    /// Min–max normalize both `Ut` and `A` over the candidate set before
    /// blending (our default: the paper's raw sum mixes objects/µs with
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
    cost: CostModel,
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
        cost: &CostModel,
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
            cost: *cost,
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
                let ut = workload_throughput(cost, c.queue_len, c.cached);
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
        let ut = workload_throughput(&self.cost, c.queue_len, c.cached);
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
        let cost = CostModel::paper();
        // W=1000, uncached: 1000 / (1 200 000 + 130 000) objects/µs.
        assert_eq!(
            workload_throughput(&cost, 1000, false),
            1000.0 / 1_330_000.0
        );
        // Cached: 1000 / 130 000 = 1/Tm.
        assert_eq!(workload_throughput(&cost, 1000, true), 1.0 / 130.0);
    }

    /// In exact µs the resident score is one value for every queue length
    /// and the uncached score is strictly increasing, so the throughput
    /// lens's key order is the score order.
    #[test]
    fn eq1_is_exact_in_micros() {
        let cost = CostModel::paper();
        for w in 1..=2_000 {
            assert_eq!(workload_throughput(&cost, w, true), 1.0 / 130.0, "W = {w}");
        }
        let mut last = 0.0;
        for w in 1..=1_000_000 {
            let ut = workload_throughput(&cost, w, false);
            assert!(ut > last, "uncached Ut not increasing at W = {w}");
            last = ut;
        }
        assert!(last < 1.0 / 130.0, "an uncached queue reached 1/Tm");
    }

    #[test]
    fn cached_buckets_always_beat_uncached() {
        let cost = CostModel::paper();
        // Even a 1-object cached queue outranks a 10 000-object uncached one.
        assert!(workload_throughput(&cost, 1, true) > workload_throughput(&cost, 10_000, false));
    }

    #[test]
    fn alpha_zero_is_pure_throughput() {
        let cost = CostModel::paper();
        let (a, now) = snap(0, 10_000, 0, false);
        let (b, _) = snap(1, 10, 99_000, false); // ancient but tiny queue
        let pass = ScorePass::new(&cost, AgingMode::Normalized, 0.0, now, &[a, b]);
        assert!(
            pass.score(&a) > pass.score(&b),
            "greedy must prefer contention"
        );
    }

    #[test]
    fn alpha_one_is_pure_age() {
        let cost = CostModel::paper();
        let (a, now) = snap(0, 10_000, 10, false);
        let (b, _) = snap(1, 1, 90_000, false);
        let pass = ScorePass::new(&cost, AgingMode::Normalized, 1.0, now, &[a, b]);
        assert!(
            pass.score(&b) > pass.score(&a),
            "α=1 must prefer the oldest request"
        );
    }

    #[test]
    fn intermediate_alpha_blends() {
        let cost = CostModel::paper();
        let (a, now) = snap(0, 10_000, 0, false);
        let (b, _) = snap(1, 1, 90_000, false);
        // A long-queue young bucket vs a short-queue old bucket: as α rises
        // the old bucket must eventually win, with a crossover in between.
        let pick = |alpha: f64| {
            let pass = ScorePass::new(&cost, AgingMode::Normalized, alpha, now, &[a, b]);
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
        // tiny α makes milliseconds of age dwarf objects/µs of throughput.
        let cost = CostModel::paper();
        let (a, now) = snap(0, 10_000, 100, false);
        let (b, _) = snap(1, 1, 5_000, false);
        let pass = ScorePass::new(&cost, AgingMode::Raw, 0.05, now, &[a, b]);
        assert!(pass.score(&b) > pass.score(&a));
    }

    #[test]
    #[should_panic(expected = "α must be in")]
    fn alpha_out_of_range_panics() {
        let cost = CostModel::paper();
        ScorePass::new(&cost, AgingMode::Normalized, 1.5, SimTime::ZERO, &[]);
    }

    /// The fused pass must agree bit-for-bit with materializing both term
    /// vectors and normalizing them (the test fixture's reference scores).
    #[test]
    fn fused_pass_matches_materialized_scoring_exactly() {
        let cost = CostModel::paper();
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
                let reference = reference_scores(&cost, mode, alpha, now, &cands);
                let pass = ScorePass::new(&cost, mode, alpha, now, &cands);
                for (c, r) in cands.iter().zip(&reference) {
                    let fused = pass.score(c);
                    assert_eq!(fused.to_bits(), r.to_bits(), "mode {mode:?} α={alpha}");
                }
            }
        }
    }
}
