//! The incrementally maintained candidate index.
//!
//! Every scheduling decision used to gather all candidate snapshots and
//! re-score them — O(non-empty buckets) per decision, ~71k decisions per
//! NoShare bench run. The index replaces that with exact, incrementally
//! maintained orders over the candidate set, updated in O(log n) as queues
//! mutate, so the α = 0 and α = 1 picks become O(log n + resident)
//! lookups and mixed-α picks a bounded frontier re-rank (threshold
//! algorithm in `liferaft-core`).
//!
//! # Why these orders suffice — the monotone-aging invariant
//!
//! The aged metric (Eq. 2) blends two terms per candidate `i`:
//!
//! - the workload throughput `Ut(i) = W / (Tb·φ(i) + Tm·W)` (Eq. 1), a
//!   function of `(φ(i), W)` only, **independent of time**; and
//! - the age `A(i) = now − oldest_enqueue(i)`, where *pure aging* advances
//!   every candidate's age by the same delta between mutations, so the age
//!   *order* (and, under min–max normalization, every pairwise age
//!   difference) is fixed by `oldest_enqueue` alone.
//!
//! Between queue/residency mutations the candidate order under either term
//! is therefore **constant** — the index only reorders when a queue or a
//! φ bit actually changes, never because time passed.
//!
//! # The resident split — exactness under floating point
//!
//! `Ut` of a *cached* bucket is mathematically `1/Tm` for every queue
//! length, but is computed as `fl(W / fl(Tm·W))`, which wobbles around
//! `1/Tm` by a few ULPs in a `W`-dependent, non-monotone way — so no static
//! key can reproduce the score order *among resident candidates* bitwise.
//! The resident set is bounded by the bucket cache's capacity (20 in the
//! paper), so the index keeps the resident candidates as their own small set
//! ([`iter_cached`](CandidateIndex::iter_cached)) that pick paths re-score
//! exactly, and maintains the key order only where it is exact:
//!
//! - [`uncached_key`] over non-resident candidates: `Ut` is strictly
//!   increasing in queue length, and its floating-point image stays
//!   monotone as long as consecutive queue lengths move `Ut` by more than a
//!   rounding error — which holds for any queue shorter than ~10⁹ entries
//!   under the paper's constants. The key's tail is the decision tie-break
//!   (longer queue, then lower bucket), which is also exactly where the
//!   score order falls back when min–max normalization collapses two
//!   nearby `Ut` values to one float.
//! - [`age_key`] over all candidates: `A` is strictly decreasing in
//!   `oldest_enqueue`, and microsecond-granular enqueue times keep distinct
//!   normalized ages distinct for any virtual horizon under ~285 years
//!   (spans beyond `2⁵³ µs` would be needed to collapse them).
//!
//! The equivalence proptests in `crates/core/tests/decision_path_equivalence.rs`
//! pin both regimes against the legacy gather-and-score path.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use liferaft_storage::BucketId;

use crate::snapshot::BucketSnapshot;

/// The ordering key among *uncached* candidates: sorts like `Ut`, with the
/// decision tie-break (`queue_len` descending, bucket ascending) as its
/// tail.
pub type UncachedKey = (u64, Reverse<u32>);

/// The age-lens ordering key (all candidates): sorts like `A`, with the
/// decision tie-break as its tail.
pub type AgeKey = (Reverse<u64>, u64, Reverse<u32>);

/// The uncached-throughput key of a candidate snapshot.
#[inline]
pub fn uncached_key(s: &BucketSnapshot) -> UncachedKey {
    (s.queue_len, Reverse(s.bucket.0))
}

/// The age-lens key of a candidate snapshot.
#[inline]
pub fn age_key(s: &BucketSnapshot) -> AgeKey {
    (
        Reverse(s.oldest_enqueue.as_micros()),
        s.queue_len,
        Reverse(s.bucket.0),
    )
}

/// Exact orders over the live candidate set, keyed by the α-decomposed
/// score terms, with resident candidates split out for exact re-scoring.
/// Owned and kept in sync by [`WorkloadTable`](crate::queue::WorkloadTable);
/// schedulers query it through the table's pick accessors.
#[derive(Debug, Clone, Default)]
pub struct CandidateIndex {
    /// Resident (φ = 0) candidates, in tie-break order. Small: bounded by
    /// the bucket cache capacity.
    cached: BTreeSet<UncachedKey>,
    /// Non-resident candidates in exact `Ut` order.
    uncached: BTreeSet<UncachedKey>,
    /// All candidates in exact age order.
    by_age: BTreeSet<AgeKey>,
}

impl CandidateIndex {
    /// An empty index.
    pub fn new() -> Self {
        CandidateIndex::default()
    }

    /// Number of indexed candidates.
    pub fn len(&self) -> usize {
        self.by_age.len()
    }

    /// True if no candidate is indexed.
    pub fn is_empty(&self) -> bool {
        self.by_age.is_empty()
    }

    /// Number of resident candidates.
    pub fn cached_len(&self) -> usize {
        self.cached.len()
    }

    /// Adds a candidate. The snapshot's `(cached, queue_len,
    /// oldest_enqueue, bucket)` must match its live slot state.
    pub fn insert(&mut self, s: &BucketSnapshot) {
        let pool = if s.cached {
            &mut self.cached
        } else {
            &mut self.uncached
        };
        let t = pool.insert(uncached_key(s));
        let a = self.by_age.insert(age_key(s));
        debug_assert!(t && a, "candidate {} indexed twice", s.bucket);
    }

    /// Removes a candidate by the snapshot that was inserted for it.
    pub fn remove(&mut self, s: &BucketSnapshot) {
        let pool = if s.cached {
            &mut self.cached
        } else {
            &mut self.uncached
        };
        let t = pool.remove(&uncached_key(s));
        let a = self.by_age.remove(&age_key(s));
        debug_assert!(t && a, "candidate {} was not indexed", s.bucket);
    }

    /// Resident candidates, best tie-break first.
    pub fn iter_cached(&self) -> impl Iterator<Item = BucketId> + '_ {
        self.cached.iter().rev().map(|&(_, Reverse(b))| BucketId(b))
    }

    /// The uncached candidate maximal under `Ut` (tie-breaks included).
    pub fn top_uncached(&self) -> Option<BucketId> {
        self.uncached.last().map(|&(_, Reverse(b))| BucketId(b))
    }

    /// The uncached candidate minimal under `Ut`.
    pub fn bottom_uncached(&self) -> Option<BucketId> {
        self.uncached.first().map(|&(_, Reverse(b))| BucketId(b))
    }

    /// Uncached candidates in descending `Ut` order (best first).
    pub fn iter_uncached_desc(&self) -> impl Iterator<Item = BucketId> + '_ {
        self.uncached
            .iter()
            .rev()
            .map(|&(_, Reverse(b))| BucketId(b))
    }

    /// The candidate maximal under the age lens (the α = 1 pick).
    pub fn top_age(&self) -> Option<BucketId> {
        self.by_age.last().map(|&(_, _, Reverse(b))| BucketId(b))
    }

    /// The candidate minimal under the age lens.
    pub fn bottom_age(&self) -> Option<BucketId> {
        self.by_age.first().map(|&(_, _, Reverse(b))| BucketId(b))
    }

    /// Candidates in descending age order (oldest first).
    pub fn iter_age_desc(&self) -> impl Iterator<Item = BucketId> + '_ {
        self.by_age
            .iter()
            .rev()
            .map(|&(_, _, Reverse(b))| BucketId(b))
    }

    /// The age-lens maximum excluding one bucket — the oldest candidate
    /// *passed over* when `excluded` is serviced (starvation accounting).
    pub fn top_age_excluding(&self, excluded: BucketId) -> Option<BucketId> {
        self.iter_age_desc().find(|&b| b != excluded)
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
            bucket_objects: 1_000,
        }
    }

    #[test]
    fn uncached_order_matches_eq1_among_uncached() {
        // Longer queue wins; full ties break toward the lower bucket.
        assert!(uncached_key(&snap(1, 1_000, 0, false)) > uncached_key(&snap(2, 10, 0, false)));
        assert!(uncached_key(&snap(3, 10, 0, false)) > uncached_key(&snap(4, 10, 0, false)));
    }

    #[test]
    fn age_order_prefers_oldest_then_longest_then_lowest() {
        assert!(age_key(&snap(1, 1, 100, false)) > age_key(&snap(2, 99, 200, false)));
        assert!(age_key(&snap(1, 5, 100, false)) > age_key(&snap(2, 3, 100, false)));
        assert!(age_key(&snap(1, 5, 100, false)) > age_key(&snap(2, 5, 100, false)));
    }

    #[test]
    fn pools_split_by_residency() {
        let mut idx = CandidateIndex::new();
        let a = snap(0, 5, 300, false);
        let b = snap(1, 50, 100, false);
        let c = snap(2, 2, 200, true);
        let d = snap(3, 9, 250, true);
        for s in [&a, &b, &c, &d] {
            idx.insert(s);
        }
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.cached_len(), 2);
        assert_eq!(
            idx.iter_cached().collect::<Vec<_>>(),
            vec![BucketId(3), BucketId(2)],
            "resident pool iterates best tie-break first"
        );
        assert_eq!(idx.top_uncached(), Some(BucketId(1)));
        assert_eq!(idx.bottom_uncached(), Some(BucketId(0)));
        assert_eq!(
            idx.iter_uncached_desc().collect::<Vec<_>>(),
            vec![BucketId(1), BucketId(0)]
        );
        assert_eq!(idx.top_age(), Some(BucketId(1)));
        assert_eq!(idx.bottom_age(), Some(BucketId(0)));
        assert_eq!(idx.top_age_excluding(BucketId(1)), Some(BucketId(2)));
        assert_eq!(idx.top_age_excluding(BucketId(9)), Some(BucketId(1)));
        idx.remove(&b);
        assert_eq!(idx.top_uncached(), Some(BucketId(0)));
        assert_eq!(idx.top_age(), Some(BucketId(2)));
        idx.remove(&a);
        idx.remove(&c);
        idx.remove(&d);
        assert!(idx.is_empty());
        assert_eq!(idx.top_uncached(), None);
        assert_eq!(idx.top_age_excluding(BucketId(0)), None);
    }
}
