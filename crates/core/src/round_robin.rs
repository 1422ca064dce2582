//! The round-robin (RR) baseline scheduler.
//!
//! "We also compare against a round robin scheduler (RR), which is a batch
//! processing solution being proposed for SkyQuery. RR performs sequential
//! batch processing by servicing buckets in HTM ID order. It is oblivious to
//! both the length of workload queues and age of requests, but is fair in
//! that a request receives the same attention by the scheduler regardless of
//! which bucket it joins with" — Section 5.

use liferaft_storage::BucketId;

use crate::scheduler::{BatchScope, BatchSpec, Scheduler, SchedulerView};

/// Cyclic sweep over buckets in HTM-ID order, servicing any non-empty queue
/// encountered. Batches share I/O like LifeRaft's (RR *is* a batch processor
/// — only its ordering is data-oblivious). The cursor resolves against the
/// view's bucket-order probe ([`SchedulerView::candidate_at_or_after`]), so
/// a decision is one O(log n) lookup, not a candidate scan.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinScheduler {
    /// Next bucket index to consider (wraps around).
    cursor: u32,
}

impl RoundRobinScheduler {
    /// Creates an RR scheduler starting its sweep at bucket 0.
    pub fn new() -> Self {
        RoundRobinScheduler { cursor: 0 }
    }

    /// Current cursor position (next bucket to be considered).
    pub fn cursor(&self) -> BucketId {
        BucketId(self.cursor)
    }
}

impl Scheduler for RoundRobinScheduler {
    fn name(&self) -> String {
        "RR".to_string()
    }

    fn pick(&mut self, view: &dyn SchedulerView) -> Option<BatchSpec> {
        // The first candidate at/after the cursor, wrapping to the smallest.
        let next = view
            .candidate_at_or_after(BucketId(self.cursor))
            .or_else(|| view.candidate_at_or_after(BucketId(0)))?;
        self.cursor = next.bucket.0.wrapping_add(1);
        Some(BatchSpec {
            bucket: next.bucket,
            scope: BatchScope::AllQueued,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::FixtureView;
    use crate::scheduler::BucketSnapshot;
    use liferaft_storage::SimTime;

    fn snap(bucket: u32) -> BucketSnapshot {
        BucketSnapshot {
            bucket: BucketId(bucket),
            queue_len: 1,
            oldest_enqueue: SimTime::ZERO,
            cached: false,
        }
    }

    fn view(buckets: &[u32]) -> FixtureView {
        FixtureView {
            now: SimTime::from_micros(1),
            candidates: buckets.iter().map(|&b| snap(b)).collect(),
            oldest_query: None,
            query_buckets: vec![],
        }
    }

    #[test]
    fn sweeps_in_htm_order_and_wraps() {
        let mut rr = RoundRobinScheduler::new();
        let v = view(&[2, 5, 9]);
        assert_eq!(rr.pick(&v).unwrap().bucket, BucketId(2));
        assert_eq!(rr.pick(&v).unwrap().bucket, BucketId(5));
        assert_eq!(rr.pick(&v).unwrap().bucket, BucketId(9));
        // Wraps to the smallest again.
        assert_eq!(rr.pick(&v).unwrap().bucket, BucketId(2));
    }

    #[test]
    fn skips_empty_buckets() {
        let mut rr = RoundRobinScheduler::new();
        // Cursor at 0 but first candidate is 7.
        let v = view(&[7]);
        assert_eq!(rr.pick(&v).unwrap().bucket, BucketId(7));
        assert_eq!(rr.cursor(), BucketId(8));
    }

    #[test]
    fn oblivious_to_queue_length_and_age() {
        let mut rr = RoundRobinScheduler::new();
        let mut v = view(&[1, 3]);
        // Make bucket 3 hugely contended; RR must still take 1 first.
        v.candidates[1].queue_len = 1_000_000;
        assert_eq!(rr.pick(&v).unwrap().bucket, BucketId(1));
    }

    #[test]
    fn batches_are_shared() {
        let mut rr = RoundRobinScheduler::new();
        let v = view(&[0]);
        let pick = rr.pick(&v).unwrap();
        assert_eq!(pick.bucket, BucketId(0));
        assert_eq!(pick.scope, BatchScope::AllQueued);
    }

    #[test]
    fn idle_on_empty_view() {
        let mut rr = RoundRobinScheduler::new();
        assert!(rr.pick(&view(&[])).is_none());
    }
}
