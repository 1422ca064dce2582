//! Property tests: the bucket cache against a reference LRU model.

use liferaft_storage::{BucketCache, BucketId, CacheAccess};
use proptest::prelude::*;

/// The dumbest possible correct LRU: a vector ordered least-recent first.
struct ReferenceLru {
    capacity: usize,
    order: Vec<u32>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ReferenceLru {
    fn new(capacity: usize) -> Self {
        ReferenceLru {
            capacity,
            order: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn access(&mut self, id: u32) -> CacheAccess {
        if let Some(pos) = self.order.iter().position(|&x| x == id) {
            self.order.remove(pos);
            self.order.push(id);
            self.hits += 1;
            CacheAccess::Hit
        } else {
            self.misses += 1;
            let mut evicted = None;
            if self.order.len() == self.capacity {
                evicted = Some(BucketId(self.order.remove(0)));
                self.evictions += 1;
            }
            self.order.push(id);
            CacheAccess::Miss { evicted }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hit/miss/eviction behaviour — down to the bucket each miss reports
    /// it evicted, which the engine pushes into its workload table — matches
    /// the reference exactly for any access sequence and capacity.
    #[test]
    fn cache_matches_reference_model(
        capacity in 1usize..16,
        accesses in proptest::collection::vec(0u32..24, 0..200),
    ) {
        let mut cache = BucketCache::new(capacity);
        let mut reference = ReferenceLru::new(capacity);
        for &a in &accesses {
            let got = cache.access(BucketId(a));
            let want = reference.access(a);
            prop_assert_eq!(got, want, "divergence at access {}", a);
            prop_assert!(cache.len() <= capacity);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, reference.hits);
        prop_assert_eq!(stats.misses, reference.misses);
        prop_assert_eq!(stats.evictions, reference.evictions);
        // Resident sets agree, in recency order.
        let resident: Vec<u32> = cache.resident_lru_order().map(|b| b.0).collect();
        prop_assert_eq!(resident, reference.order);
    }

    /// `contains` never mutates observable state.
    #[test]
    fn contains_is_pure(
        capacity in 1usize..8,
        warm in proptest::collection::vec(0u32..10, 0..20),
        probes in proptest::collection::vec(0u32..10, 0..50),
    ) {
        let mut cache = BucketCache::new(capacity);
        for &a in &warm {
            cache.access(BucketId(a));
        }
        let before: Vec<u32> = cache.resident_lru_order().map(|b| b.0).collect();
        let stats_before = cache.stats();
        for &p in &probes {
            let _ = cache.contains(BucketId(p));
        }
        let after: Vec<u32> = cache.resident_lru_order().map(|b| b.0).collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(stats_before, cache.stats());
    }
}
