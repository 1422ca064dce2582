//! The scheduler abstraction: views, batch specifications, and the trait.
//!
//! Since the candidate index landed, a view is no longer "a slice of every
//! candidate snapshot": it is a query surface over an *incrementally
//! maintained* candidate set — top/bottom/frontier lookups under the two
//! α-decomposed orderings ([`Lens`]), a bucket-order cursor probe, and the
//! per-query accessors arrival-order policies use. Policies that truly need
//! every candidate stream them through
//! [`for_each_candidate`](SchedulerView::for_each_candidate); nothing
//! materializes a snapshot vector per decision anymore.

use liferaft_query::{QueryId, QueryTracker, WorkloadTable};
use liferaft_storage::{BucketId, SimTime};

// The snapshot type lives in the query crate so the Workload Manager can
// maintain snapshots incrementally; re-exported here because it is the
// scheduler's decision input.
pub use liferaft_query::snapshot::BucketSnapshot;
// The index owns the candidate orders; views and policies name them.
pub use liferaft_query::Lens;

/// Which queued entries a batch consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchScope {
    /// Everything queued at the bucket (the LifeRaft batch: "all queries
    /// overlapping that data region in one batch").
    AllQueued,
    /// Only one query's entries (the NoShare evaluation unit).
    SingleQuery(QueryId),
}

/// A scheduling decision: which bucket to service next, with what scope and
/// I/O-sharing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpec {
    /// The bucket to read and join against.
    pub bucket: BucketId,
    /// Which entries to consume.
    pub scope: BatchScope,
    /// If false, the batch bypasses the bucket cache entirely — the NoShare
    /// baseline's "no I/O is shared" discipline. Shared batches consult and
    /// populate the cache.
    pub share_io: bool,
}

/// What a scheduler may observe when making a decision.
///
/// The engine decides through [`TableView`]; scheduler tests implement it
/// with a scan-based fixture whose answers are the reference semantics
/// `TableView` must match.
pub trait SchedulerView {
    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Number of candidates (non-empty workload queues).
    fn candidate_count(&self) -> usize;

    /// Streams every candidate snapshot, in ascending bucket order.
    fn for_each_candidate(&self, f: &mut dyn FnMut(&BucketSnapshot));

    /// The candidate maximal under `lens` — exact, tie-breaks included.
    fn top_candidate(&self, lens: Lens) -> Option<BucketSnapshot>;

    /// The candidate minimal under `lens` (normalization lower bound).
    fn bottom_candidate(&self, lens: Lens) -> Option<BucketSnapshot>;

    /// Fills `out` (cleared first) with up to `k` candidates in descending
    /// `lens` order — the mixed-α frontier.
    fn top_candidates(&self, lens: Lens, k: usize, out: &mut Vec<BucketSnapshot>);

    /// The first candidate at or after `bucket` in bucket order — the
    /// round-robin cursor probe (callers wrap to `BucketId(0)` themselves).
    fn candidate_at_or_after(&self, bucket: BucketId) -> Option<BucketSnapshot>;

    /// The in-flight query with the earliest arrival, if any (FIFO cursor
    /// for arrival-order baselines).
    fn oldest_pending_query(&self) -> Option<(QueryId, SimTime)>;

    /// The lowest-ID bucket still holding queued entries of `query`, if
    /// any — the cursor of arrival-order policies.
    fn first_pending_bucket_of(&self, query: QueryId) -> Option<BucketId>;
}

/// The view the engine decides through: the candidate surface is the
/// workload table's index, the per-query cursors are the tracker's
/// in-flight records. The table's φ bits are whatever its owner pushed
/// through [`WorkloadTable::set_resident`], so they are current whenever
/// the view is read.
#[derive(Debug, Clone, Copy)]
pub struct TableView<'s, 'q> {
    /// Current virtual time.
    pub now: SimTime,
    /// The workload table whose index answers candidate queries.
    pub table: &'s WorkloadTable<'q>,
    /// The in-flight queries' records.
    pub tracker: &'s QueryTracker,
}

impl SchedulerView for TableView<'_, '_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn candidate_count(&self) -> usize {
        self.table.candidate_count()
    }

    fn for_each_candidate(&self, f: &mut dyn FnMut(&BucketSnapshot)) {
        self.table.for_each_candidate(f);
    }

    fn top_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.table.top_candidate(lens)
    }

    fn bottom_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.table.bottom_candidate(lens)
    }

    fn top_candidates(&self, lens: Lens, k: usize, out: &mut Vec<BucketSnapshot>) {
        self.table.frontier_into(lens, k, out);
    }

    fn candidate_at_or_after(&self, bucket: BucketId) -> Option<BucketSnapshot> {
        self.table.candidate_at_or_after(bucket)
    }

    fn oldest_pending_query(&self) -> Option<(QueryId, SimTime)> {
        self.tracker.oldest_pending()
    }

    fn first_pending_bucket_of(&self, query: QueryId) -> Option<BucketId> {
        self.tracker.first_pending_bucket(query)
    }
}

/// Decision-path counters a policy accumulates over its lifetime — the data
/// that settles "how often does the mixed-α threshold scan actually close
/// its bound?" (the ROADMAP's kinetic-heap question). Policies without a
/// threshold scan report all-zero stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionStats {
    /// Mixed-α picks resolved by the frontier threshold scan (the score
    /// bound closed, or the frontier covered the candidate set).
    pub frontier_picks: u64,
    /// Mixed-α picks that fell back to the full streamed scan because the
    /// bound could not prune before the frontier covered most candidates.
    pub fallback_picks: u64,
}

/// A batch scheduling policy.
pub trait Scheduler {
    /// Human-readable policy name (used in reports and figure rows).
    fn name(&self) -> String;

    /// Chooses the next batch, or `None` if the view offers no work.
    fn pick(&mut self, view: &dyn SchedulerView) -> Option<BatchSpec>;

    /// Notification of a query arrival (used by adaptive policies to track
    /// workload saturation). Default: ignored.
    fn on_query_arrival(&mut self, _now: SimTime) {}

    /// Decision-path counters accumulated so far. Default: all zero (the
    /// policy has no instrumented scan).
    fn decision_stats(&self) -> DecisionStats {
        DecisionStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::FixtureView;
    use liferaft_storage::SimDuration;

    fn snap(bucket: u32, queue_len: u64, enq_us: u64, cached: bool) -> BucketSnapshot {
        BucketSnapshot {
            bucket: BucketId(bucket),
            queue_len,
            oldest_enqueue: SimTime::from_micros(enq_us),
            cached,
        }
    }

    #[test]
    fn snapshot_age_is_visible_through_the_reexport() {
        let s = snap(1, 5, 0, false);
        let now = SimTime::ZERO + SimDuration::from_millis(2500);
        assert_eq!(s.age_ms(now), 2500.0);
    }

    #[test]
    fn fixture_view_contract() {
        let v = FixtureView {
            now: SimTime::from_micros(7),
            candidates: vec![],
            oldest_query: Some((QueryId(3), SimTime::ZERO)),
            query_buckets: vec![(QueryId(3), vec![BucketId(2), BucketId(5)])],
        };
        assert_eq!(v.now(), SimTime::from_micros(7));
        assert_eq!(v.candidate_count(), 0);
        assert_eq!(v.top_candidate(Lens::Throughput), None);
        assert_eq!(v.oldest_pending_query(), Some((QueryId(3), SimTime::ZERO)));
        assert_eq!(v.first_pending_bucket_of(QueryId(3)), Some(BucketId(2)));
        assert_eq!(v.first_pending_bucket_of(QueryId(9)), None);
    }

    #[test]
    fn fixture_lens_accessors_scan_correctly() {
        let v = FixtureView {
            now: SimTime::from_micros(1_000),
            candidates: vec![
                snap(0, 10, 500, false),
                snap(3, 2, 100, true),
                snap(7, 90, 300, false),
            ],
            ..FixtureView::default()
        };
        // The resident candidate heads the throughput order; the shortest
        // uncached queue is its bottom.
        assert_eq!(
            v.top_candidate(Lens::Throughput).unwrap().bucket,
            BucketId(3)
        );
        assert_eq!(
            v.bottom_candidate(Lens::Throughput).unwrap().bucket,
            BucketId(0)
        );
        // Oldest enqueue wins the age lens; youngest is the bottom.
        assert_eq!(v.top_candidate(Lens::Age).unwrap().bucket, BucketId(3));
        assert_eq!(v.bottom_candidate(Lens::Age).unwrap().bucket, BucketId(0));
        let mut out = Vec::new();
        v.top_candidates(Lens::Throughput, 2, &mut out);
        assert_eq!(
            out.iter().map(|c| c.bucket).collect::<Vec<_>>(),
            vec![BucketId(3), BucketId(7)]
        );
        v.top_candidates(Lens::Age, 5, &mut out);
        assert_eq!(
            out.iter().map(|c| c.bucket).collect::<Vec<_>>(),
            vec![BucketId(3), BucketId(7), BucketId(0)]
        );
        // Cursor probe.
        assert_eq!(
            v.candidate_at_or_after(BucketId(0)).unwrap().bucket,
            BucketId(0)
        );
        assert_eq!(
            v.candidate_at_or_after(BucketId(1)).unwrap().bucket,
            BucketId(3)
        );
        assert_eq!(v.candidate_at_or_after(BucketId(8)), None);
    }
}
