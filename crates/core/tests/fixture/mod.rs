//! The scan-based reference view shared by the scheduler tests: unit tests
//! include this file through `#[path]`, integration tests as `mod fixture`.
//! Every accessor answers by scanning a plain candidate list, so it is the
//! legacy side that the engine's indexed `TableView` is held to.

use liferaft_core::{BucketSnapshot, Lens, SchedulerView};
use liferaft_query::QueryId;
use liferaft_storage::{BucketId, SimTime};

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

/// True if `c` belongs to `lens`'s candidate pool.
fn covers(lens: Lens, c: &BucketSnapshot) -> bool {
    match lens {
        Lens::UncachedThroughput => !c.cached,
        Lens::Age => true,
    }
}

impl FixtureView {
    /// The candidates of `lens`'s pool.
    fn pool(&self, lens: Lens) -> impl Iterator<Item = &BucketSnapshot> {
        self.candidates.iter().filter(move |c| covers(lens, c))
    }
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

    fn for_each_cached_candidate(&self, f: &mut dyn FnMut(&BucketSnapshot)) {
        self.candidates.iter().filter(|c| c.cached).for_each(f);
    }

    fn top_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.pool(lens).copied().max_by(|a, b| lens.cmp(a, b))
    }

    fn bottom_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.pool(lens).copied().min_by(|a, b| lens.cmp(a, b))
    }

    fn top_candidates(&self, lens: Lens, k: usize, out: &mut Vec<BucketSnapshot>) {
        out.clear();
        out.extend(self.pool(lens));
        out.sort_by(|a, b| lens.cmp(b, a));
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
