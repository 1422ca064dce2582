//! Per-bucket candidate snapshots.
//!
//! [`BucketSnapshot`] is the unit the scheduler reasons about: one
//! non-empty workload queue, reduced to the fields Eq. 1 and Eq. 2 consume.
//! It lives here (rather than in the scheduler crate) so the Workload
//! Manager can maintain snapshots *incrementally* as queues change — the
//! paper's "state information such as a mapping of pending queries to
//! workload queues and the age of the oldest query in each queue"
//! (Section 4) — instead of rebuilding them from the queues on every
//! scheduling decision.
//!
//! Only the `cached` bit (φ(i)) is owned by another component, the bucket
//! cache; the engine that owns the cache pushes every residency change into
//! the table ([`WorkloadTable::set_resident`](crate::WorkloadTable::set_resident)),
//! so the bit is current whenever it is read.

use liferaft_storage::{BucketId, SimTime};

/// A per-decision snapshot of one candidate bucket (a non-empty workload
/// queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// The bucket.
    pub bucket: BucketId,
    /// Objects pending in its workload queue (`Σ_j |W_j^i|`).
    pub queue_len: u64,
    /// Enqueue time of the oldest pending request (the age reference).
    pub oldest_enqueue: SimTime,
    /// Whether the bucket is resident in the bucket cache (φ(i) = 0).
    pub cached: bool,
}

impl BucketSnapshot {
    /// Age of the oldest request in milliseconds at `now` — the paper's `A(i)`.
    pub fn age_ms(&self, now: SimTime) -> f64 {
        now.since(self.oldest_enqueue).as_millis_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_storage::SimDuration;

    #[test]
    fn snapshot_age() {
        let s = BucketSnapshot {
            bucket: BucketId(1),
            queue_len: 5,
            oldest_enqueue: SimTime::ZERO,
            cached: false,
        };
        let now = SimTime::ZERO + SimDuration::from_millis(2500);
        assert_eq!(s.age_ms(now), 2500.0);
    }
}
