//! Bucket identity and extent metadata.
//!
//! A bucket is an equal-object-count slice of the HTM curve ("we partition
//! the sky into disjoint, equal-sized buckets in which each bucket covers a
//! set of triangles that are contiguous in the HTM range", Section 3.1).
//! The objects themselves live in `liferaft-catalog`; this crate only deals
//! in identity, extent, and size — all the storage layer needs for cost
//! accounting and caching.

use std::fmt;

use liferaft_htm::HtmRange;

/// Dense index of a bucket within a partition (0-based, in HTM-curve order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketId(pub u32);

impl BucketId {
    /// The bucket's position along the HTM curve (== its index).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BucketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Metadata describing one bucket: its curve extent and physical size.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketMeta {
    /// Bucket identity (curve order).
    pub id: BucketId,
    /// The contiguous range of object-level HTM IDs this bucket owns.
    pub htm_range: HtmRange,
    /// Number of catalog objects stored in the bucket.
    pub object_count: u64,
    /// Bucket size on disk in bytes (drives the scan cost).
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_and_index() {
        assert_eq!(BucketId(3).to_string(), "B3");
        assert_eq!(BucketId(3).index(), 3);
    }

    #[test]
    fn ordering_follows_curve_order() {
        assert!(BucketId(1) < BucketId(2));
    }
}
