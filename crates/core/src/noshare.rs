//! The NoShare baseline scheduler.
//!
//! "We compare with NoShare, which evaluates each query independently (no
//! I/O is shared) and in arrival order" — Section 5. NoShare is what a
//! conventional in-order database scheduler does to this workload: the
//! oldest query runs to completion, reading every bucket it needs by
//! itself, before the next query starts.

use crate::scheduler::{BatchScope, BatchSpec, Scheduler, SchedulerView};

/// Strict arrival-order, share-nothing query evaluation.
///
/// Each decision services the *oldest in-flight query*, one of its pending
/// buckets at a time (in HTM order), as a single-query batch, so neither the
/// bucket cache nor co-queued requests of other queries benefit.
#[derive(Debug, Clone, Default)]
pub struct NoShareScheduler;

impl NoShareScheduler {
    /// Creates the baseline.
    pub fn new() -> Self {
        NoShareScheduler
    }
}

impl Scheduler for NoShareScheduler {
    fn name(&self) -> String {
        "NoShare".to_string()
    }

    fn pick(&mut self, view: &dyn SchedulerView) -> Option<BatchSpec> {
        let (query, _arrival) = view.oldest_pending_query()?;
        let bucket = view.first_pending_bucket_of(query)?;
        Some(BatchSpec {
            bucket,
            scope: BatchScope::SingleQuery(query),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::FixtureView;
    use crate::scheduler::BucketSnapshot;
    use liferaft_query::QueryId;
    use liferaft_storage::{BucketId, SimTime};

    #[test]
    fn services_oldest_query_bucket_by_bucket() {
        let mut s = NoShareScheduler::new();
        let v = FixtureView {
            now: SimTime::from_micros(100),
            candidates: vec![BucketSnapshot {
                bucket: BucketId(4),
                queue_len: 10,
                oldest_enqueue: SimTime::ZERO,
                cached: false,
            }],
            oldest_query: Some((QueryId(7), SimTime::ZERO)),
            query_buckets: vec![(QueryId(7), vec![BucketId(4), BucketId(9)])],
        };
        let pick = s.pick(&v).unwrap();
        assert_eq!(pick.bucket, BucketId(4));
        assert_eq!(
            pick.scope,
            BatchScope::SingleQuery(QueryId(7)),
            "NoShare must not share I/O"
        );
    }

    #[test]
    fn idle_when_no_pending_query() {
        let mut s = NoShareScheduler::new();
        let v = FixtureView::default();
        assert!(s.pick(&v).is_none());
    }

    #[test]
    fn idle_when_query_has_no_buckets() {
        // Defensive: a pending query whose entries are all in flight.
        let mut s = NoShareScheduler::new();
        let v = FixtureView {
            oldest_query: Some((QueryId(1), SimTime::ZERO)),
            ..FixtureView::default()
        };
        assert!(s.pick(&v).is_none());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(NoShareScheduler::new().name(), "NoShare");
    }
}
