//! The incrementally maintained candidate index.
//!
//! Every scheduling decision used to gather all candidate snapshots and
//! re-score them — O(non-empty buckets) per decision, ~71k decisions per
//! NoShare bench run. The index replaces that with exact, incrementally
//! maintained orders over the candidate set, updated in O(log n) as queues
//! mutate, so the α = 0 and α = 1 picks become O(log n)
//! lookups and a mixed-α pick one lazy walk down both orders that stops
//! where its bound closes (threshold algorithm in `liferaft-core`).
//!
//! # Why these orders suffice — the monotone-aging invariant
//!
//! The aged metric (Eq. 2) blends two terms per candidate `i`:
//!
//! - the workload throughput `Ut(i)` (Eq. 1, `W` over the batch's scan
//!   price in exact µs), a function of `(φ(i), W)` only, **independent of
//!   time**; and
//! - the age `A(i) = now − oldest_enqueue(i)`, where *pure aging* advances
//!   every candidate's age by the same delta between mutations, so the age
//!   *order* (and, under min–max normalization, every pairwise age
//!   difference) is fixed by `oldest_enqueue` alone.
//!
//! Between queue/residency mutations the candidate order under either term
//! is therefore **constant** — the index only reorders when a queue or a
//! φ bit actually changes, never because time passed. Both orders are exact
//! and end in the decision tie-break (longer queue, then lower bucket):
//!
//! - [`Lens::Throughput`]: every resident candidate scores exactly `1/Tm`,
//!   above every uncached one, and an uncached `Ut` is strictly increasing
//!   in queue length (for any queue shorter than ~10⁹ entries under the
//!   paper's constants). So residents head the order, and ties — all
//!   residents, or two nearby `Ut` values that min–max normalization
//!   collapses to one float — fall to the key's tail, exactly where the
//!   score order falls back.
//! - [`Lens::Age`]: `A` is strictly decreasing in `oldest_enqueue`, and
//!   microsecond-granular enqueue times keep distinct normalized ages
//!   distinct for any virtual horizon under ~285 years (spans beyond
//!   `2⁵³ µs` would be needed to collapse them).
//!
//! The equivalence proptests in `crates/core/tests/decision_path_equivalence.rs`
//! pin both orders against a reference gather-and-score decision.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use liferaft_storage::BucketId;

use crate::snapshot::BucketSnapshot;

/// The candidate orders the index maintains over every candidate, one per
/// α-decomposed term of the aged metric (Eq. 2), each ending in the
/// decision tie-break (longer queue, then lower bucket). The `Throughput`
/// maximum *is* the exact α = 0 pick and the `Age` maximum the exact α = 1
/// pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lens {
    /// Order by workload throughput `Ut` (Eq. 1): resident first, then
    /// longer queue, then lower bucket.
    Throughput,
    /// Order by request age `A`: older oldest-enqueue first, then longer
    /// queue, then lower bucket.
    Age,
}

impl Lens {
    /// Every lens, in the index's order.
    pub const ALL: [Lens; 2] = [Lens::Throughput, Lens::Age];

    /// The candidate's place in this lens's order (larger is better).
    #[inline]
    fn key(self, s: &BucketSnapshot) -> Key {
        let bucket = Reverse(s.bucket.0);
        match self {
            Lens::Throughput => (u64::from(s.cached), s.queue_len, bucket),
            Lens::Age => (u64::MAX - s.oldest_enqueue.as_micros(), s.queue_len, bucket),
        }
    }
}

/// An ordering key of either lens: the lens's leading term (φ-bit or
/// age), the queue length, and the bucket.
type Key = (u64, u64, Reverse<u32>);

#[inline]
fn bucket_of(&(_, _, Reverse(b)): &Key) -> BucketId {
    BucketId(b)
}

/// Exact orders over the live candidate set, one per [`Lens`].
/// Owned and kept in sync by [`WorkloadTable`](crate::queue::WorkloadTable);
/// schedulers query it through the table's pick accessors.
#[derive(Debug, Clone, Default)]
pub struct CandidateIndex {
    /// Per lens, in [`Lens::ALL`] order.
    orders: [BTreeSet<Key>; 2],
}

impl CandidateIndex {
    /// An empty index.
    pub fn new() -> Self {
        CandidateIndex::default()
    }

    /// Number of indexed candidates.
    pub fn len(&self) -> usize {
        self.order(Lens::Age).len()
    }

    /// True if no candidate is indexed.
    pub fn is_empty(&self) -> bool {
        self.order(Lens::Age).is_empty()
    }

    /// Adds a candidate. The snapshot's `(cached, queue_len,
    /// oldest_enqueue, bucket)` must match its live slot state.
    pub fn insert(&mut self, s: &BucketSnapshot) {
        for (set, lens) in self.orders.iter_mut().zip(Lens::ALL) {
            let fresh = set.insert(lens.key(s));
            debug_assert!(fresh, "candidate {} indexed twice", s.bucket);
        }
    }

    /// Removes a candidate by the snapshot that was inserted for it.
    pub fn remove(&mut self, s: &BucketSnapshot) {
        for (set, lens) in self.orders.iter_mut().zip(Lens::ALL) {
            let found = set.remove(&lens.key(s));
            debug_assert!(found, "candidate {} was not indexed", s.bucket);
        }
    }

    fn order(&self, lens: Lens) -> &BTreeSet<Key> {
        &self.orders[lens as usize]
    }

    /// The candidate maximal under `lens`, tie-breaks included.
    pub fn top(&self, lens: Lens) -> Option<BucketId> {
        self.order(lens).last().map(bucket_of)
    }

    /// The candidate minimal under `lens`.
    pub fn bottom(&self, lens: Lens) -> Option<BucketId> {
        self.order(lens).first().map(bucket_of)
    }

    /// The candidates in descending `lens` order (best first).
    pub fn desc(&self, lens: Lens) -> impl Iterator<Item = BucketId> + '_ {
        self.order(lens).iter().rev().map(bucket_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_storage::SimTime;

    fn snap(bucket: u32, queue_len: u64, enq_us: u64, cached: bool) -> BucketSnapshot {
        BucketSnapshot {
            bucket: BucketId(bucket),
            queue_len,
            oldest_enqueue: SimTime::from_micros(enq_us),
            cached,
        }
    }

    fn key(lens: Lens, s: BucketSnapshot) -> Key {
        lens.key(&s)
    }

    #[test]
    fn throughput_order_is_resident_then_longest_then_lowest() {
        // Any resident beats any uncached queue; among either, the longer
        // queue wins; full ties break toward the lower bucket.
        let t = Lens::Throughput;
        assert!(key(t, snap(1, 1, 0, true)) > key(t, snap(2, 10_000, 0, false)));
        assert!(key(t, snap(1, 1_000, 0, false)) > key(t, snap(2, 10, 0, false)));
        assert!(key(t, snap(1, 9, 0, true)) > key(t, snap(2, 2, 0, true)));
        assert!(key(t, snap(3, 10, 0, false)) > key(t, snap(4, 10, 0, false)));
    }

    #[test]
    fn age_order_prefers_oldest_then_longest_then_lowest() {
        let a = Lens::Age;
        assert!(key(a, snap(1, 1, 100, false)) > key(a, snap(2, 99, 200, false)));
        assert!(key(a, snap(1, 5, 100, false)) > key(a, snap(2, 3, 100, false)));
        assert!(key(a, snap(1, 5, 100, false)) > key(a, snap(2, 5, 100, false)));
    }

    #[test]
    fn both_orders_cover_every_candidate() {
        let (t, a) = (Lens::Throughput, Lens::Age);
        let mut idx = CandidateIndex::new();
        let s0 = snap(0, 5, 300, false);
        let s1 = snap(1, 50, 100, false);
        let s2 = snap(2, 2, 200, true);
        let s3 = snap(3, 9, 250, true);
        for s in [&s0, &s1, &s2, &s3] {
            idx.insert(s);
        }
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.top(t), Some(BucketId(3)));
        assert_eq!(idx.bottom(t), Some(BucketId(0)));
        assert_eq!(
            idx.desc(t).collect::<Vec<_>>(),
            vec![BucketId(3), BucketId(2), BucketId(1), BucketId(0)],
            "residents head the throughput order"
        );
        assert_eq!(idx.top(a), Some(BucketId(1)));
        assert_eq!(idx.bottom(a), Some(BucketId(0)));
        assert_eq!(
            idx.desc(a).collect::<Vec<_>>(),
            vec![BucketId(1), BucketId(2), BucketId(3), BucketId(0)]
        );
        idx.remove(&s3);
        idx.remove(&s2);
        assert_eq!(idx.top(t), Some(BucketId(1)));
        idx.remove(&s1);
        assert_eq!(idx.top(t), Some(BucketId(0)));
        assert_eq!(idx.top(a), Some(BucketId(0)));
        idx.remove(&s0);
        assert!(idx.is_empty());
        assert_eq!(idx.top(t), None);
        assert_eq!(idx.desc(a).next(), None);
    }
}
