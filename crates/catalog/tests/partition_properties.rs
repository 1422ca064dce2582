//! Property tests for the range→bucket lookups: the per-range visitor and
//! `sole_bucket`, the pre-processor's one lookup per object.
//!
//! The oracle shares no code with them: a bucket overlaps a range set iff
//! its published `htm_range` overlaps one of the set's ranges, found by
//! scanning every bucket. That is what `buckets_overlapping_set` returned
//! before the visitor existed, so the collector is pinned to it as well.
//!
//! Both lookups go through the curve directory (equal cells of the curve,
//! each naming the buckets a lookup may end in). Its cell width is private,
//! so the exhaustive test below sweeps *every* ID of the curve — which
//! covers the first and last ID of the curve and of every cell whatever the
//! width — against an owner found by walking the published bucket ranges.

use liferaft_catalog::generate::{clustered_sky, ClusterConfig};
use liferaft_catalog::Partition;
use liferaft_htm::{HtmId, HtmRange, HtmRangeSet};
use liferaft_storage::BucketId;
use proptest::prelude::*;

const LEVEL: u8 = 7;

/// Uniform spans, or the equal-count cuts of a clustered sky — dense
/// clusters give buckets a few IDs wide next to buckets spanning a face.
fn partition(non_uniform: bool, seed: u64, size: usize) -> Partition {
    if non_uniform {
        let sky = clustered_sky(600, LEVEL, seed, ClusterConfig::default());
        Partition::build_from_objects(&sky, LEVEL, 5 + size % 46, 1).0
    } else {
        Partition::synthetic_uniform(LEVEL, 1 + (size % 96) as u32, 10, 1)
    }
}

/// One raw range description, resolved against a partition by [`range`].
type RangeSpec = (u8, u64, u64);

fn range(p: &Partition, (kind, a, b): RangeSpec) -> HtmRange {
    let first = HtmId::first_at_level(LEVEL).raw();
    let last = HtmId::last_at_level(LEVEL).raw();
    let bucket = p.buckets()[(a % p.num_buckets() as u64) as usize].htm_range;
    let width = if b % 3 == 0 { b % 4096 } else { b % 24 };
    let (lo, hi) = match kind % 5 {
        // Anywhere on the curve.
        0 => {
            let lo = first + a % (last - first + 1);
            (lo, lo + width)
        }
        // Ends exactly on a bucket's last ID.
        1 => (bucket.hi().raw().saturating_sub(width), bucket.hi().raw()),
        // Ends exactly on a bucket's first ID (one past its neighbour).
        2 => (bucket.lo().raw().saturating_sub(width), bucket.lo().raw()),
        // Starts on a bucket's first ID.
        3 => (bucket.lo().raw(), bucket.lo().raw() + width),
        // Inside the last bucket, up to the curve's end.
        _ => {
            let tail = p.buckets()[p.num_buckets() - 1].htm_range;
            (tail.lo().raw().max(last.saturating_sub(width)), last)
        }
    };
    let id = |raw: u64| HtmId::from_raw_unchecked(raw.clamp(first, last));
    HtmRange::new(id(lo), id(hi))
}

fn oracle(p: &Partition, set: &HtmRangeSet) -> Vec<BucketId> {
    p.buckets()
        .iter()
        .filter(|b| set.ranges().iter().any(|r| r.overlaps(b.htm_range)))
        .map(|b| b.id)
        .collect()
}

fn visited(p: &Partition, set: &HtmRangeSet) -> Vec<BucketId> {
    let mut out = Vec::new();
    p.visit_buckets_overlapping_set(set, |b| out.push(b));
    out
}

fn arb_sets() -> impl Strategy<Value = Vec<Vec<RangeSpec>>> {
    let spec = (0u8..5, 0u64..1 << 40, 0u64..1 << 40);
    proptest::collection::vec(proptest::collection::vec(spec, 0..6), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The visitor visits exactly the oracle's buckets, ascending and once
    /// each, and a range's span ends where its endpoints' owners are.
    #[test]
    fn visitor_matches_the_scan_oracle(
        non_uniform in proptest::bool::ANY,
        seed in 0u64..1_000,
        size in 0usize..1_000,
        sets in arb_sets(),
    ) {
        let p = partition(non_uniform, seed, size);
        for specs in &sets {
            let set = HtmRangeSet::from_ranges(specs.iter().map(|&s| range(&p, s)).collect());
            let want = oracle(&p, &set);
            prop_assert_eq!(&p.buckets_overlapping_set(&set), &want);
            prop_assert_eq!(&visited(&p, &set), &want);
            for r in set.ranges() {
                let span = p.buckets_overlapping(*r);
                prop_assert_eq!(BucketId(*span.start()), p.bucket_of(r.lo()));
                prop_assert_eq!(BucketId(*span.end()), p.bucket_of(r.hi()));
            }
        }
    }

    /// The pre-processor's question: the sole bucket of a set's bounding
    /// range is `Some(b)` exactly when the oracle finds `b` alone, and
    /// `None` whenever it finds more than one.
    #[test]
    fn sole_bucket_of_the_bounding_range_matches_the_scan_oracle(
        non_uniform in proptest::bool::ANY,
        seed in 0u64..1_000,
        size in 0usize..1_000,
        sets in arb_sets(),
    ) {
        let p = partition(non_uniform, seed, size);
        for specs in &sets {
            let set = HtmRangeSet::from_ranges(specs.iter().map(|&s| range(&p, s)).collect());
            let Some(bounds) = set.bounding_range() else {
                continue;
            };
            let want = oracle(&p, &set);
            let sole = match want[..] {
                [b] => Some(b),
                _ => None,
            };
            prop_assert_eq!(p.sole_bucket(bounds), sole, "{:?}", set);
        }
    }
}

/// Partitions that stress the curve directory: one bucket (every cell names
/// it), bucket counts that are not powers of two (boundaries fall inside
/// cells), and one-object buckets cut from tight clusters, where many
/// buckets crowd into a single cell while field buckets span hundreds.
fn directory_stress_partitions() -> Vec<Partition> {
    let tight = ClusterConfig {
        clusters: 4,
        sigma: 0.01,
        cluster_fraction: 0.9,
    };
    let mut out = vec![
        Partition::synthetic_uniform(LEVEL, 1, 10, 1),
        Partition::synthetic_uniform(LEVEL, 7, 10, 1),
        Partition::synthetic_uniform(LEVEL, 96, 10, 1),
    ];
    for seed in [3, 11] {
        let sky = clustered_sky(600, LEVEL, seed, tight);
        let p = Partition::build_from_objects(&sky, LEVEL, 1, 1).0;
        // The narrowest cell the directory may use holds 1/8 of a bucket's
        // fair share of the curve; sixteen consecutive buckets inside one
        // such width put at least eight in one cell.
        let narrowest_cell = HtmId::count_at_level(LEVEL) / (8 * p.num_buckets() as u64);
        assert!(
            p.buckets().windows(16).any(|w| {
                w[15].htm_range.hi().raw() - w[0].htm_range.lo().raw() < narrowest_cell
            }),
            "fixture must crowd many buckets into one directory cell"
        );
        out.push(p);
    }
    out
}

#[test]
fn every_id_of_the_curve_locates_like_the_scan() {
    let first = HtmId::first_at_level(LEVEL).raw();
    let last = HtmId::last_at_level(LEVEL).raw();
    for p in directory_stress_partitions() {
        let n = p.num_buckets() as u32;
        assert_eq!(p.bucket_of(HtmId::first_at_level(LEVEL)), BucketId(0));
        assert_eq!(p.bucket_of(HtmId::last_at_level(LEVEL)), BucketId(n - 1));
        // The owner of every ID, by walking the published bucket ranges.
        let mut owners = Vec::with_capacity((last - first + 1) as usize);
        let mut owner = 0u32;
        for raw in first..=last {
            while p.buckets()[owner as usize].htm_range.hi().raw() < raw {
                owner += 1;
            }
            owners.push(BucketId(owner));
        }
        let owner_of = |raw: u64| owners[(raw - first) as usize];
        for raw in first..=last {
            let want = owner_of(raw);
            let id = HtmId::from_raw_unchecked(raw);
            assert_eq!(p.bucket_of(id), want, "ID {raw} of {n} buckets");
            let set = HtmRangeSet::from_ranges(vec![HtmRange::new(id, id)]);
            assert_eq!(visited(&p, &set), [want], "ID {raw}, {n} buckets");
            // Buckets are contiguous, so one bucket overlaps `[raw, hi]`
            // exactly when both ends have the same owner.
            for w in [0, 1, 7, 63] {
                let hi = (raw + w).min(last);
                let range = HtmRange::new(id, HtmId::from_raw_unchecked(hi));
                let sole = (owner_of(hi) == want).then_some(want);
                assert_eq!(p.sole_bucket(range), sole, "[{raw}, {hi}] of {n} buckets");
            }
        }
    }
}
