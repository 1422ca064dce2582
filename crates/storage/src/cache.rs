//! The LRU bucket cache.
//!
//! "The Bucket Cache either reads an existing bucket from memory or executes
//! a range query to ask for the bucket from the database server. (We use a
//! simple least recently used policy for cache replacement)" — Section 4.
//! The experiments fix the capacity at 20 buckets and flush the DBMS buffer
//! after every read, so this cache is the *only* source of I/O savings;
//! its `contains` answer is exactly the φ(i) term of Eq. 1.
//!
//! The recency order is one vector of resident buckets, least recently
//! used first (ARCHITECTURE, "The sub-query queue").

use crate::bucket::BucketId;

/// What one [`BucketCache::access`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The bucket was resident; it is now the most recently used.
    Hit,
    /// The bucket was loaded.
    Miss {
        /// The least-recently-used bucket the load evicted, if the cache
        /// was full.
        evicted: Option<BucketId>,
    },
}

/// Cache access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the bucket resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Buckets evicted to make room.
    pub evictions: u64,
    /// Buckets inserted.
    pub insertions: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0 if none) — the Section 6 statistic
    /// ("40% and 7% of requests serviced from the cache").
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds another accumulator into this one (per-shard → global roll-up).
    pub fn merge(&mut self, o: &CacheStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.insertions += o.insertions;
    }
}

/// A least-recently-used cache of bucket residency.
///
/// Stores only identities, not payloads: the simulator tracks *which*
/// buckets are memory-resident for cost accounting. Every call that changes
/// the resident set names the buckets it changed — [`access`](Self::access)
/// and [`insert`](Self::insert) return the bucket they evicted,
/// [`remove`](Self::remove) says whether it dropped one — so the engine that
/// owns the cache (`liferaft-sim`'s `EngineCore`) pushes each change into
/// its workload table's φ bits, and drops the rows it holds for real joins,
/// in the same call. The host never holds rows for more than `capacity`
/// buckets.
#[derive(Debug, Clone)]
pub struct BucketCache {
    capacity: usize,
    /// Resident buckets, least recently used first.
    order: Vec<BucketId>,
    stats: CacheStats,
}

impl BucketCache {
    /// Creates a cache holding at most `capacity` buckets.
    ///
    /// # Panics
    /// Panics if capacity is zero (the paper's smallest analogue is the
    /// single-bucket "Map-Reduce" case; zero makes φ degenerate).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BucketCache {
            capacity,
            order: Vec::with_capacity(capacity),
            stats: CacheStats::default(),
        }
    }

    /// Current number of resident buckets.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Non-mutating residency probe: φ(i) = 0 iff `contains(i)`.
    ///
    /// Does **not** update recency or statistics — the scheduler calls this
    /// for *every* candidate bucket on every decision, which must not
    /// perturb the LRU order.
    pub fn contains(&self, id: BucketId) -> bool {
        self.order.contains(&id)
    }

    /// Performs an access as part of executing a batch: a hit moves the
    /// resident bucket to most-recent, a miss loads it, evicting the
    /// least-recently-used bucket if the cache is full.
    pub fn access(&mut self, id: BucketId) -> CacheAccess {
        if self.touch(id) {
            self.stats.hits += 1;
            CacheAccess::Hit
        } else {
            self.stats.misses += 1;
            CacheAccess::Miss {
                evicted: self.load(id),
            }
        }
    }

    /// Inserts a bucket, evicting the LRU entry if full. Returns the evicted
    /// bucket, if any.
    pub fn insert(&mut self, id: BucketId) -> Option<BucketId> {
        if self.touch(id) {
            None
        } else {
            self.load(id)
        }
    }

    /// Moves `id` to most-recently-used if it is resident; says whether it
    /// was.
    fn touch(&mut self, id: BucketId) -> bool {
        let Some(pos) = self.order.iter().position(|&b| b == id) else {
            return false;
        };
        self.order[pos..].rotate_left(1);
        true
    }

    /// Appends a non-resident bucket as most-recently-used, evicting the
    /// least-recently-used one if the cache is full.
    fn load(&mut self, id: BucketId) -> Option<BucketId> {
        self.stats.insertions += 1;
        let evicted = (self.order.len() == self.capacity).then(|| {
            self.stats.evictions += 1;
            self.order.remove(0)
        });
        self.order.push(id);
        evicted
    }

    /// Removes one bucket from the resident set (the elastic runtime's
    /// residency handoff: the shard that loses a bucket drops it here, the
    /// shard that gains it warms it with [`insert`](Self::insert)). Returns
    /// `false` if the bucket was not resident.
    ///
    /// Counts neither a hit nor an eviction — the bucket is not being
    /// replaced under capacity pressure, it is leaving with its work.
    pub fn remove(&mut self, id: BucketId) -> bool {
        let Some(pos) = self.order.iter().position(|&b| b == id) else {
            return false;
        };
        self.order.remove(pos);
        true
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident buckets from least- to most-recently used.
    pub fn resident_lru_order(&self) -> impl Iterator<Item = BucketId> + '_ {
        self.order.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_until_capacity_then_evict_lru() {
        let mut c = BucketCache::new(2);
        assert_eq!(c.insert(BucketId(1)), None);
        assert_eq!(c.insert(BucketId(2)), None);
        assert_eq!(c.len(), 2);
        // 1 is LRU, so inserting 3 evicts it.
        assert_eq!(c.insert(BucketId(3)), Some(BucketId(1)));
        assert!(!c.contains(BucketId(1)));
        assert!(c.contains(BucketId(2)));
        assert!(c.contains(BucketId(3)));
    }

    #[test]
    fn access_updates_recency() {
        let mut c = BucketCache::new(2);
        c.insert(BucketId(1));
        c.insert(BucketId(2));
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.access(BucketId(1)), CacheAccess::Hit);
        assert_eq!(
            c.access(BucketId(3)),
            CacheAccess::Miss {
                evicted: Some(BucketId(2))
            }
        );
        assert!(c.contains(BucketId(1)));
    }

    #[test]
    fn access_counts_hits_and_misses() {
        let mut c = BucketCache::new(2);
        let cold = CacheAccess::Miss { evicted: None };
        assert_eq!(c.access(BucketId(5)), cold); // miss + load
        assert_eq!(c.access(BucketId(5)), CacheAccess::Hit);
        assert_eq!(c.access(BucketId(5)), CacheAccess::Hit);
        assert_eq!(c.access(BucketId(6)), cold);
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.insertions, 2);
        assert_eq!(s.evictions, 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contains_does_not_perturb_lru_or_stats() {
        let mut c = BucketCache::new(2);
        c.insert(BucketId(1));
        c.insert(BucketId(2));
        // Probe 1 many times; it must stay LRU.
        for _ in 0..10 {
            assert!(c.contains(BucketId(1)));
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.insert(BucketId(3)), Some(BucketId(1)));
    }

    #[test]
    fn reinsert_resident_only_touches() {
        let mut c = BucketCache::new(2);
        c.insert(BucketId(1));
        c.insert(BucketId(2));
        assert_eq!(c.insert(BucketId(1)), None); // touch, no insert
        assert_eq!(c.stats().insertions, 2);
        assert_eq!(c.insert(BucketId(3)), Some(BucketId(2)));
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = BucketCache::new(3);
        for i in 0..100 {
            c.access(BucketId(i % 7));
            assert!(c.len() <= 3);
        }
        assert_eq!(c.stats().evictions, c.stats().insertions - 3);
    }

    #[test]
    fn lru_order_iterates_oldest_first() {
        let mut c = BucketCache::new(3);
        c.insert(BucketId(1));
        c.insert(BucketId(2));
        c.insert(BucketId(3));
        c.access(BucketId(1));
        let order: Vec<_> = c.resident_lru_order().collect();
        assert_eq!(order, vec![BucketId(2), BucketId(3), BucketId(1)]);
    }

    #[test]
    fn merge_is_componentwise() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            insertions: 4,
        };
        a.merge(&CacheStats {
            hits: 10,
            misses: 20,
            evictions: 30,
            insertions: 40,
        });
        assert_eq!(a.hits, 11);
        assert_eq!(a.misses, 22);
        assert_eq!(a.evictions, 33);
        assert_eq!(a.insertions, 44);
    }

    /// The recency vector must agree with a straightforward VecDeque model
    /// under a long adversarial access pattern.
    #[test]
    fn model_check_against_vecdeque_lru() {
        use std::collections::VecDeque;
        let mut c = BucketCache::new(4);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut x: u64 = 0x1234_5678;
        for _ in 0..5_000 {
            // xorshift for a deterministic, scattered id stream over 9 ids.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let id = (x % 9) as u32;
            c.access(BucketId(id));
            if let Some(pos) = model.iter().position(|&b| b == id) {
                model.remove(pos);
            } else if model.len() == 4 {
                model.pop_front();
            }
            model.push_back(id);
            let got: Vec<u32> = c.resident_lru_order().map(|b| b.0).collect();
            let want: Vec<u32> = model.iter().copied().collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn remove_unlinks_without_counting_an_eviction() {
        let mut c = BucketCache::new(3);
        c.insert(BucketId(1));
        c.insert(BucketId(2));
        c.insert(BucketId(3));
        assert!(c.remove(BucketId(2)));
        assert!(!c.contains(BucketId(2)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        // Recency order of the survivors is preserved.
        let order: Vec<_> = c.resident_lru_order().map(|b| b.0).collect();
        assert_eq!(order, vec![1, 3]);
        // Removing an absent bucket is a no-op.
        assert!(!c.remove(BucketId(2)));
        assert_eq!(c.len(), 2);
    }

    /// Interleave remove with access against the VecDeque model — a
    /// removal must keep the survivors' recency order intact.
    #[test]
    fn model_check_remove_against_vecdeque_lru() {
        use std::collections::VecDeque;
        let mut c = BucketCache::new(4);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut x: u64 = 0x9E37_79B9;
        for step in 0..5_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let id = (x % 9) as u32;
            if step % 3 == 2 {
                let removed = c.remove(BucketId(id));
                let pos = model.iter().position(|&b| b == id);
                assert_eq!(removed, pos.is_some());
                if let Some(pos) = pos {
                    model.remove(pos);
                }
            } else {
                c.access(BucketId(id));
                if let Some(pos) = model.iter().position(|&b| b == id) {
                    model.remove(pos);
                } else if model.len() == 4 {
                    model.pop_front();
                }
                model.push_back(id);
            }
            let got: Vec<u32> = c.resident_lru_order().map(|b| b.0).collect();
            let want: Vec<u32> = model.iter().copied().collect();
            assert_eq!(got, want, "step {step}");
            assert_eq!(c.len(), model.len());
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        BucketCache::new(0);
    }
}
