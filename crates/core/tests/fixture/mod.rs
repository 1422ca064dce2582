//! The scheduler tests' references, shared by core's unit tests (through
//! `#[path]`), its integration tests (as `mod fixture`) and sim's engine
//! tests: the scan-based `FixtureView` that the engine's indexed
//! `TableView` is held to, and the gather-and-score LifeRaft decision that
//! the indexed pick is held to. Neither shares code with the product paths
//! it checks beyond Eq. 1 and the snapshot's age.

use std::cmp::Ordering;

use liferaft_core::metric::workload_throughput;
use liferaft_core::{AgingMode, BucketSnapshot, Lens, SchedulerView};
use liferaft_query::QueryId;
use liferaft_storage::{BucketId, CostModel, SimTime};

/// Eq. 2 over a materialized candidate slice: `Ut` and `A` per candidate,
/// min–max normalized over the slice (under [`AgingMode::Normalized`]),
/// blended with weight α on the age.
pub fn reference_scores(
    cost: &CostModel,
    mode: AgingMode,
    alpha: f64,
    now: SimTime,
    candidates: &[BucketSnapshot],
) -> Vec<f64> {
    let mut ut: Vec<f64> = candidates
        .iter()
        .map(|c| workload_throughput(cost, c.queue_len, c.cached))
        .collect();
    let mut age: Vec<f64> = candidates.iter().map(|c| c.age_ms(now)).collect();
    if mode == AgingMode::Normalized {
        min_max_normalize(&mut ut);
        min_max_normalize(&mut age);
    }
    ut.iter()
        .zip(&age)
        .map(|(&u, &a)| u * (1.0 - alpha) + a * alpha)
        .collect()
}

/// The reference LifeRaft decision: the index of the candidate with the
/// highest [`reference_scores`] score (`total_cmp`), ties going to the
/// longer queue, then the lower bucket; `None` for no candidates.
pub fn reference_pick(
    cost: &CostModel,
    mode: AgingMode,
    alpha: f64,
    now: SimTime,
    candidates: &[BucketSnapshot],
) -> Option<usize> {
    let scores = reference_scores(cost, mode, alpha, now, candidates);
    (0..candidates.len()).max_by(|&i, &j| {
        let (a, b) = (&candidates[i], &candidates[j]);
        scores[i]
            .total_cmp(&scores[j])
            .then(a.queue_len.cmp(&b.queue_len))
            .then(b.bucket.cmp(&a.bucket))
    })
}

/// Min–max normalizes `values` into `[0, 1]` in place; a constant slice
/// maps to all-zeros.
fn min_max_normalize(values: &mut [f64]) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for v in values.iter_mut() {
        *v = if hi > lo { (*v - lo) / (hi - lo) } else { 0.0 };
    }
}

/// `lens`'s order between two candidates: resident first (throughput
/// only) or older first (age only), then longer queue, then lower bucket.
fn lens_cmp(lens: Lens, a: &BucketSnapshot, b: &BucketSnapshot) -> Ordering {
    let by_term = match lens {
        Lens::Throughput => a.cached.cmp(&b.cached),
        Lens::Age => b.oldest_enqueue.cmp(&a.oldest_enqueue),
    };
    by_term
        .then(a.queue_len.cmp(&b.queue_len))
        .then(b.bucket.cmp(&a.bucket))
}

/// A hand-built decision point: candidates and per-query cursors as plain
/// lists.
#[derive(Debug, Clone, Default)]
pub struct FixtureView {
    /// Current time reported by the fixture.
    pub now: SimTime,
    /// Candidate snapshots (keep sorted by bucket).
    pub candidates: Vec<BucketSnapshot>,
    /// Value returned by [`SchedulerView::oldest_pending_query`].
    pub oldest_query: Option<(QueryId, SimTime)>,
    /// Buckets still holding queued entries, per query.
    pub query_buckets: Vec<(QueryId, Vec<BucketId>)>,
}

impl SchedulerView for FixtureView {
    fn now(&self) -> SimTime {
        self.now
    }

    fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    fn for_each_candidate(&self, f: &mut dyn FnMut(&BucketSnapshot)) {
        self.candidates.iter().for_each(f);
    }

    fn top_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.candidates
            .iter()
            .copied()
            .max_by(|a, b| lens_cmp(lens, a, b))
    }

    fn bottom_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.candidates
            .iter()
            .copied()
            .min_by(|a, b| lens_cmp(lens, a, b))
    }

    fn top_candidates(&self, lens: Lens, k: usize, out: &mut Vec<BucketSnapshot>) {
        out.clear();
        out.extend(&self.candidates);
        out.sort_by(|a, b| lens_cmp(lens, b, a));
        out.truncate(k);
    }

    fn candidate_at_or_after(&self, bucket: BucketId) -> Option<BucketSnapshot> {
        let later = self.candidates.iter().filter(|c| c.bucket >= bucket);
        later.min_by_key(|c| c.bucket).copied()
    }

    fn oldest_pending_query(&self) -> Option<(QueryId, SimTime)> {
        self.oldest_query
    }

    fn first_pending_bucket_of(&self, query: QueryId) -> Option<BucketId> {
        let held = self.query_buckets.iter().filter(|(q, _)| *q == query);
        held.flat_map(|(_, b)| b).min().copied()
    }
}
