//! Shard identity and the bucket → shard map.
//!
//! The runtime partitions the *bucket space* — already a total, equal-sized
//! tiling of the HTM curve (`liferaft-catalog`) — across N shards, so each
//! shard owns a disjoint subset of buckets and all scheduling state for
//! them. Two assignments are supported:
//!
//! - **Contiguous**: equal spans of the bucket (curve) order, the natural
//!   extension of the paper's partitioning to multiple servers — spatially
//!   adjacent buckets land on the same shard, so a region query touches few
//!   shards (Gray et al.'s "bring the computation to the data" layout).
//! - **Hashed**: counter-hashed (the catalog's SplitMix64 machinery), which
//!   trades locality for load spreading under hot spatial spots.

use liferaft_catalog::hash::hash4;
use liferaft_storage::BucketId;
use std::collections::HashMap;
use std::fmt;

/// Dense index of a shard within a runtime (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard's position (== its index).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// How buckets are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAssignment {
    /// Equal contiguous spans of the bucket order (spatial locality).
    Contiguous,
    /// SplitMix64-hashed buckets (load spreading); `seed` varies placement.
    Hashed {
        /// Placement seed: different seeds give independent layouts.
        seed: u64,
    },
}

/// Hash stream tag reserved for shard placement (streams 0 and 1 are used
/// by the virtual catalog's object generation).
const SHARD_STREAM: u64 = 2;

/// A total map from buckets to shards.
///
/// ```
/// use liferaft_runtime::{ShardId, ShardMap};
/// use liferaft_storage::BucketId;
///
/// // 8 buckets over 4 shards, contiguous spans: buckets 0–1 → shard 0, …
/// let map = ShardMap::contiguous(8, 4);
/// assert_eq!(map.shard_of(BucketId(0)), ShardId(0));
/// assert_eq!(map.shard_of(BucketId(7)), ShardId(3));
/// // Hashed placement spreads buckets without regard to spatial order.
/// let hashed = ShardMap::hashed(8, 4, 0xC1D2);
/// assert!(hashed.shard_of(BucketId(0)).0 < 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    num_buckets: u32,
    n_shards: u32,
    assignment: ShardAssignment,
}

impl ShardMap {
    /// A map over `num_buckets` buckets and `n_shards` shards.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(num_buckets: usize, n_shards: u32, assignment: ShardAssignment) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        assert!(n_shards > 0, "need at least one shard");
        assert!(
            num_buckets <= u32::MAX as usize,
            "bucket space too large for u32 ids"
        );
        ShardMap {
            num_buckets: num_buckets as u32,
            n_shards,
            assignment,
        }
    }

    /// Contiguous equal spans of the bucket order.
    pub fn contiguous(num_buckets: usize, n_shards: u32) -> Self {
        Self::new(num_buckets, n_shards, ShardAssignment::Contiguous)
    }

    /// Hashed placement with the given seed.
    pub fn hashed(num_buckets: usize, n_shards: u32, seed: u64) -> Self {
        Self::new(num_buckets, n_shards, ShardAssignment::Hashed { seed })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    /// Number of buckets the map covers.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets as usize
    }

    /// The shard owning `bucket` — a pure function of the map.
    ///
    /// # Panics
    /// Panics (debug) if the bucket is outside the mapped space.
    #[inline]
    pub fn shard_of(&self, bucket: BucketId) -> ShardId {
        debug_assert!(bucket.0 < self.num_buckets, "bucket outside shard map");
        match self.assignment {
            ShardAssignment::Contiguous => {
                // b * n / num_buckets: equal spans, monotone in bucket order.
                ShardId(((bucket.0 as u64 * self.n_shards as u64) / self.num_buckets as u64) as u32)
            }
            ShardAssignment::Hashed { seed } => ShardId(
                (hash4(seed, bucket.0 as u64, 0, SHARD_STREAM) % self.n_shards as u64) as u32,
            ),
        }
    }
}

/// A [`ShardMap`] plus a sparse set of per-bucket **overrides** — the
/// elastic map the rebalance controller evolves at epoch boundaries.
///
/// Lookups fall through to the base map unless the bucket has been
/// reassigned; re-assigning a bucket back to its base owner removes the
/// override, so the overlay stays minimal.
///
/// ```
/// use liferaft_runtime::{ElasticShardMap, ShardId, ShardMap};
/// use liferaft_storage::BucketId;
///
/// let mut map = ElasticShardMap::new(ShardMap::contiguous(8, 4));
/// map.reassign(BucketId(0), ShardId(3));
/// assert_eq!(map.shard_of(BucketId(0)), ShardId(3));
/// assert_eq!(map.override_count(), 1);
/// // Moving the bucket home again erases the override.
/// map.reassign(BucketId(0), ShardId(0));
/// assert_eq!(map.override_count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticShardMap {
    base: ShardMap,
    overrides: HashMap<BucketId, ShardId>,
}

impl ElasticShardMap {
    /// An elastic map starting identical to `base` (no overrides).
    pub fn new(base: ShardMap) -> Self {
        ElasticShardMap {
            base,
            overrides: HashMap::new(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> u32 {
        self.base.n_shards()
    }

    /// Number of buckets the map covers.
    pub fn num_buckets(&self) -> usize {
        self.base.num_buckets()
    }

    /// Number of buckets currently owned away from their base shard.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// The shard currently owning `bucket`.
    #[inline]
    pub fn shard_of(&self, bucket: BucketId) -> ShardId {
        self.overrides
            .get(&bucket)
            .copied()
            .unwrap_or_else(|| self.base.shard_of(bucket))
    }

    /// Moves `bucket` to `shard` (removing the override if that is the
    /// bucket's base owner).
    ///
    /// # Panics
    /// Panics if the shard index is out of range.
    pub fn reassign(&mut self, bucket: BucketId, shard: ShardId) {
        assert!(shard.0 < self.base.n_shards(), "shard outside the pool");
        if self.base.shard_of(bucket) == shard {
            self.overrides.remove(&bucket);
        } else {
            self.overrides.insert(bucket, shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_is_total_monotone_and_balanced() {
        let m = ShardMap::contiguous(1_000, 4);
        let mut counts = [0usize; 4];
        let mut last = ShardId(0);
        for b in 0..1_000u32 {
            let s = m.shard_of(BucketId(b));
            assert!(s.0 < 4);
            assert!(s >= last, "contiguous must be monotone in bucket order");
            last = s;
            counts[s.index()] += 1;
        }
        assert_eq!(counts, [250; 4]);
    }

    #[test]
    fn hashed_is_total_deterministic_and_spread() {
        let m = ShardMap::hashed(1_000, 4, 42);
        let mut counts = [0usize; 4];
        for b in 0..1_000u32 {
            let s = m.shard_of(BucketId(b));
            assert_eq!(s, m.shard_of(BucketId(b)), "placement must be pure");
            counts[s.index()] += 1;
        }
        // Hashing should roughly balance (well within 2x of fair share).
        assert!(counts.iter().all(|&c| c > 125 && c < 500), "{counts:?}");
        // A different seed gives a different layout.
        let m2 = ShardMap::hashed(1_000, 4, 43);
        assert!((0..1_000u32).any(|b| m.shard_of(BucketId(b)) != m2.shard_of(BucketId(b))));
    }

    #[test]
    fn single_shard_maps_everything_to_zero() {
        for map in [ShardMap::contiguous(64, 1), ShardMap::hashed(64, 1, 9)] {
            for b in 0..64u32 {
                assert_eq!(map.shard_of(BucketId(b)), ShardId(0));
            }
        }
    }

    #[test]
    fn more_shards_than_buckets_is_allowed() {
        let m = ShardMap::contiguous(2, 8);
        assert!(m.shard_of(BucketId(0)).0 < 8);
        assert!(m.shard_of(BucketId(1)).0 < 8);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardMap::contiguous(10, 0);
    }

    #[test]
    fn elastic_overrides_fall_through_and_cancel() {
        let base = ShardMap::contiguous(100, 4);
        let mut m = ElasticShardMap::new(base);
        let b = BucketId(3);
        let home = base.shard_of(b);
        assert_eq!(m.shard_of(b), home);
        assert_eq!(m.override_count(), 0);
        m.reassign(b, ShardId(3));
        assert_eq!(m.shard_of(b), ShardId(3));
        assert_eq!(m.override_count(), 1);
        // Untouched buckets still resolve through the base map.
        assert_eq!(m.shard_of(BucketId(99)), base.shard_of(BucketId(99)));
        // Moving home again erases the override.
        m.reassign(b, home);
        assert_eq!(m.override_count(), 0);
        assert_eq!(m.shard_of(b), home);
    }
}
