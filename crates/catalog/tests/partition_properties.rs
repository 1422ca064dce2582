//! Property tests for the hinted range→bucket visitor.
//!
//! The oracle shares no code with it: a bucket overlaps a range set iff its
//! published `htm_range` overlaps one of the set's ranges, found by scanning
//! every bucket. That is what `buckets_overlapping_set` returned before the
//! visitor existed, so the collector is pinned to it as well. The hint may
//! only ever change the cost, so every property holds for fresh, stale and
//! out-of-range hints alike.
//!
//! Behind the hint sits the curve directory (equal cells of the curve, each
//! naming the buckets a lookup may end in). Its cell width is private, so
//! the exhaustive test below sweeps *every* ID of the curve — which covers
//! the first and last ID of the curve and of every cell whatever the width —
//! against an owner found by walking the published bucket ranges.

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

fn visited(p: &Partition, set: &HtmRangeSet, hint: BucketId) -> (Vec<BucketId>, BucketId) {
    let mut out = Vec::new();
    let next = p.visit_buckets_overlapping_set(set, hint, |b| out.push(b));
    (out, next)
}

fn arb_sets() -> impl Strategy<Value = Vec<Vec<RangeSpec>>> {
    let spec = (0u8..5, 0u64..1 << 40, 0u64..1 << 40);
    proptest::collection::vec(proptest::collection::vec(spec, 0..6), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any hint — in range, one past the end, far out — visits exactly the
    /// oracle's buckets, ascending and once each, and returns the last one.
    #[test]
    fn visitor_matches_the_scan_oracle_for_any_hint(
        non_uniform in proptest::bool::ANY,
        seed in 0u64..1_000,
        size in 0usize..1_000,
        sets in arb_sets(),
        hint in 0u32..200,
    ) {
        let p = partition(non_uniform, seed, size);
        let n = p.num_buckets() as u32;
        for specs in &sets {
            let set = HtmRangeSet::from_ranges(specs.iter().map(|&s| range(&p, s)).collect());
            let want = oracle(&p, &set);
            prop_assert_eq!(&p.buckets_overlapping_set(&set), &want);
            for h in [hint % n, n - 1, n, hint + n, u32::MAX] {
                let (got, next) = visited(&p, &set, BucketId(h));
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(next, want.last().copied().unwrap_or(BucketId(h)));
            }
            for r in set.ranges() {
                let span = p.buckets_overlapping(*r);
                prop_assert_eq!(BucketId(*span.start()), p.bucket_of(r.lo()));
                prop_assert_eq!(BucketId(*span.end()), p.bucket_of(r.hi()));
            }
        }
    }

    /// A hint carried from one set to the next (the pre-processor's use) is
    /// stale whenever the sets are unrelated; the answers never notice.
    #[test]
    fn a_carried_hint_never_changes_the_answer(
        non_uniform in proptest::bool::ANY,
        seed in 0u64..1_000,
        size in 0usize..1_000,
        sets in arb_sets(),
    ) {
        let p = partition(non_uniform, seed, size);
        let mut hint = BucketId(0);
        for specs in &sets {
            let set = HtmRangeSet::from_ranges(specs.iter().map(|&s| range(&p, s)).collect());
            let (got, next) = visited(&p, &set, hint);
            prop_assert_eq!(got, oracle(&p, &set));
            hint = next;
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
        let mut owner = 0usize;
        for raw in first..=last {
            while p.buckets()[owner].htm_range.hi().raw() < raw {
                owner += 1;
            }
            let want = BucketId(owner as u32);
            let id = HtmId::from_raw_unchecked(raw);
            assert_eq!(p.bucket_of(id), want, "ID {raw} of {n} buckets");
            // Through the visitor: a hint that hits, one that just misses
            // on either side, and one far away all land on the same bucket.
            let set = HtmRangeSet::from_ranges(vec![HtmRange::new(id, id)]);
            for hint in [want.0, want.0 + 1, want.0.saturating_sub(1), n - 1 - want.0] {
                let (got, next) = visited(&p, &set, BucketId(hint));
                assert_eq!(got, [want], "ID {raw}, hint {hint}, {n} buckets");
                assert_eq!(next, want);
            }
        }
    }
}
