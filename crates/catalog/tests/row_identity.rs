//! Bit-identity of the two ways a catalog hands out rows.
//!
//! `Catalog::objects_in` must return exactly the `partition_point` slice of
//! `Catalog::bucket_objects` — `VirtualCatalog` computes it from slot
//! arithmetic instead of materializing the bucket. All comparisons are `==`
//! on the rows, `f64` positions included: the engine's match counts depend
//! on it. (The generator behind both is held to a random-access replay of
//! each row from the root in the catalog module's own tests, which can
//! reach its private slot helpers.)

use liferaft_catalog::generate::uniform_sky;
use liferaft_catalog::{Catalog, MaterializedCatalog, SkyObject, VirtualCatalog};
use liferaft_htm::HtmId;
use liferaft_storage::BucketId;
use proptest::prelude::*;

/// `(level, buckets, objects per bucket)` shapes: a roomy one, one object
/// per curve position (`span == n`), spans that do not divide evenly, and a
/// bucket count that leaves the last bucket a different width.
const SHAPES: [(u8, u32, u64); 4] = [(10, 16, 200), (3, 8, 64), (8, 7, 100), (6, 13, 37)];

/// The oracle: the slice of the whole bucket the probe range selects.
fn slice_of(rows: &[SkyObject], lo: HtmId, hi: HtmId) -> &[SkyObject] {
    let start = rows.partition_point(|o| o.htm < lo);
    let end = rows.partition_point(|o| o.htm <= hi);
    &rows[start..end.max(start)]
}

/// A probe range placed relative to bucket `b`'s extent: `kind` picks
/// inside / straddling the start / straddling the end / covering / single
/// ID / disjoint / inverted; `a` and `b` place it.
fn probe(cat: &dyn Catalog, bucket: BucketId, (kind, a, b): (u8, u64, u64)) -> (HtmId, HtmId) {
    let range = cat.meta(bucket).htm_range;
    let level = cat.partition().level();
    let (first, last) = (
        HtmId::first_at_level(level).raw(),
        HtmId::last_at_level(level).raw(),
    );
    let (lo, hi, span) = (range.lo().raw(), range.hi().raw(), range.len());
    let width = b % 40;
    let inside = lo + a % span;
    let (from, to) = match kind % 7 {
        0 => (inside, inside + width),
        1 => (lo.saturating_sub(1 + width), lo + a % span),
        2 => (inside, hi + 1 + width),
        3 => (lo.saturating_sub(width), hi + width),
        4 => (inside, inside),
        5 => (hi + 1, hi + 1 + width),
        _ => (inside + 1, inside),
    };
    let clamp = |raw: u64| HtmId::from_raw_unchecked(raw.clamp(first, last));
    (clamp(from), clamp(to))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn virtual_objects_in_is_the_slice_of_the_bucket(
        shape in 0usize..SHAPES.len(),
        seed in 0u64..1_000,
        pick in 0u32..4_096,
        spec in (0u8..7, 0u64..1_000_000, 0u64..1_000_000),
    ) {
        let (level, buckets, per_bucket) = SHAPES[shape];
        let cat = VirtualCatalog::new(level, buckets, per_bucket, 64, seed);
        // Every third case probes the last bucket of the curve.
        let bucket = BucketId(if pick % 3 == 0 { buckets - 1 } else { pick % buckets });
        let (lo, hi) = probe(&cat, bucket, spec);
        let rows = cat.bucket_objects(bucket);
        let mut got = vec![rows[0]]; // `objects_in` appends
        cat.objects_in(bucket, lo, hi, &mut got);
        prop_assert_eq!(got[0], rows[0]);
        prop_assert_eq!(&got[1..], slice_of(&rows, lo, hi));
    }

    #[test]
    fn materialized_objects_in_is_the_slice_of_the_bucket(
        seed in 0u64..50,
        pick in 0u32..4_096,
        spec in (0u8..7, 0u64..1_000_000, 0u64..1_000_000),
    ) {
        let sky = uniform_sky(400, 7, seed);
        let cat = MaterializedCatalog::build(&sky, 7, 60, 64);
        let buckets = cat.partition().num_buckets() as u32;
        let bucket = BucketId(if pick % 3 == 0 { buckets - 1 } else { pick % buckets });
        let (lo, hi) = probe(&cat, bucket, spec);
        let mut got = Vec::new();
        // Through `dyn Catalog`: the provided method must stay object-safe.
        (&cat as &dyn Catalog).objects_in(bucket, lo, hi, &mut got);
        prop_assert_eq!(&got[..], slice_of(&cat.bucket_objects(bucket), lo, hi));
    }
}

/// A probe wider than the bucket returns the whole bucket, one narrower
/// than the gap between two rows returns nothing.
#[test]
fn whole_bucket_and_empty_probes() {
    let cat = VirtualCatalog::new(10, 16, 200, 64, 9);
    let bucket = BucketId(5);
    let rows = cat.bucket_objects(bucket);
    let level = cat.partition().level();
    let mut all = Vec::new();
    cat.objects_in(
        bucket,
        HtmId::first_at_level(level),
        HtmId::last_at_level(level),
        &mut all,
    );
    assert_eq!(all, rows.as_ref());
    let gap = rows
        .windows(2)
        .find(|w| w[1].htm.raw() - w[0].htm.raw() > 1)
        .expect("200 rows over 32 768 positions leave gaps");
    let between = HtmId::from_raw_unchecked(gap[0].htm.raw() + 1);
    let mut none = Vec::new();
    cat.objects_in(bucket, between, between, &mut none);
    assert!(none.is_empty());
}
