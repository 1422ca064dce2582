//! `QueryPreProcessor::preprocess` against the grouping it used to do, kept
//! as its reference: every object's collected bucket list, keyed into an
//! ordered map. The reference never asks `Partition::sole_bucket`, so it
//! pins both the one-lookup path and the per-range fallback.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use liferaft_catalog::generate::{clustered_sky, ClusterConfig};
use liferaft_catalog::Partition;
use liferaft_htm::{trixel_of, Vec3};
use liferaft_query::{
    CrossMatchQuery, MatchObject, Predicate, QueryId, QueryPreProcessor, WorkItem,
};
use liferaft_storage::BucketId;
use liferaft_workload::{TraceGenerator, WorkloadConfig};
use proptest::prelude::*;

const LEVEL: u8 = 8;
/// The benchmark's object level and bucket count.
const PAPER_LEVEL: u8 = 12;
const PAPER_BUCKETS: u32 = 2_048;

fn reference(p: &Partition, query: &CrossMatchQuery) -> Vec<WorkItem> {
    let mut per_bucket: BTreeMap<BucketId, Vec<u32>> = BTreeMap::new();
    for (idx, obj) in query.objects.iter().enumerate() {
        for b in p.buckets_overlapping_set(&obj.bbox) {
            per_bucket.entry(b).or_default().push(idx as u32);
        }
    }
    per_bucket
        .into_iter()
        .map(|(bucket, object_indices)| WorkItem {
            query: query.id,
            bucket,
            object_indices,
        })
        .collect()
}

fn assert_groups_like_the_reference(p: &Partition, q: &CrossMatchQuery) {
    let pre = QueryPreProcessor::new(p);
    let items = pre.preprocess(q);
    assert_eq!(items, reference(p, q));
    assert!(items.windows(2).all(|w| w[0].bucket < w[1].bucket));
    for item in &items {
        assert!(!item.is_empty());
        assert!(item.object_indices.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            item.object_indices.capacity(),
            item.len(),
            "exact-size items"
        );
    }
    let total: u64 = items.iter().map(|w| w.len() as u64).sum();
    assert_eq!(pre.workload_size(q), total);
}

/// Runs of `n` neighbouring objects at each anchor, with radii from well
/// inside one trixel to a fifth of a radian.
fn anchored_objects(anchors: &[(f64, f64, usize, u8)], level: u8) -> Vec<MatchObject> {
    anchors
        .iter()
        .flat_map(|&(ra, dec, n, size)| {
            let radius = [1e-6, 1e-4, 5e-3, 0.2][size as usize];
            (0..n).map(move |k| {
                let pos = Vec3::from_radec_deg(ra + k as f64 * 0.003, dec);
                MatchObject::new(pos, radius, level)
            })
        })
        .collect()
}

/// The level-12 partitions: the benchmark's equal spans, and equal-count
/// cuts of a clustered sky (buckets a few IDs wide beside face-wide ones).
fn paper_partitions() -> &'static [Partition; 2] {
    static PARTITIONS: OnceLock<[Partition; 2]> = OnceLock::new();
    PARTITIONS.get_or_init(|| {
        let sky = clustered_sky(20_480, PAPER_LEVEL, 2009, ClusterConfig::default());
        [
            Partition::synthetic_uniform(PAPER_LEVEL, PAPER_BUCKETS, 10_000, 4096),
            Partition::build_from_objects(&sky, PAPER_LEVEL, 10, 1).0,
        ]
    })
}

/// A query of the paper-like trace, plus objects centred on the first ID of
/// a few buckets, wide enough to spill into the previous bucket.
fn paper_scale_query(p: &Partition, seed: u64, extra: Vec<MatchObject>) -> CrossMatchQuery {
    let generator = TraceGenerator::new(WorkloadConfig::paper_like(
        PAPER_LEVEL,
        PAPER_BUCKETS,
        64,
        seed,
    ));
    let i = (seed % 64) as usize;
    let mut q = generator
        .generate_block(&generator.layout(), i, i + 1)
        .pop()
        .expect("one query");
    let n = p.num_buckets() as u64;
    for k in 1..=4u64 {
        let bucket = &p.buckets()[(1 + (seed * 7 + k * 131) % (n - 1)) as usize];
        let pos = trixel_of(bucket.htm_range.lo()).center();
        for radius in [1e-4, 1e-3, 5e-3] {
            q.objects.push(MatchObject::new(pos, radius, PAPER_LEVEL));
        }
    }
    q.objects.extend(extra);
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Runs of neighbouring objects, jumps across the sky and wide circles
    /// spanning many buckets all group exactly as the map did, on even and
    /// on skewed partitions. The level-12 arm runs paper-like queries on
    /// the benchmark's partition shape; its boundary objects make every
    /// case take the fallback path as well as the one-lookup path.
    #[test]
    fn preprocess_equals_the_btreemap_grouping(
        paper_scale in proptest::bool::ANY,
        non_uniform in proptest::bool::ANY,
        seed in 0u64..1_000,
        anchors in proptest::collection::vec(
            (0.0f64..360.0, -89.0f64..89.0, 1usize..12, 0u8..4),
            0..10,
        ),
    ) {
        if paper_scale {
            let p = &paper_partitions()[non_uniform as usize];
            let extra = anchored_objects(&anchors, PAPER_LEVEL);
            let q = paper_scale_query(p, seed, extra);
            let spanning = q
                .objects
                .iter()
                .filter(|o| p.sole_bucket(o.bounding_range()).is_none())
                .count();
            prop_assert!(spanning > 0, "no object took the fallback path");
            prop_assert!(spanning < q.len(), "no object took the one-lookup path");
            assert_groups_like_the_reference(p, &q);
        } else {
            let p = if non_uniform {
                let sky = clustered_sky(2_000, LEVEL, seed, ClusterConfig::default());
                Partition::build_from_objects(&sky, LEVEL, 25 + (seed % 40) as usize, 1).0
            } else {
                Partition::synthetic_uniform(LEVEL, 1 + (seed % 200) as u32, 100, 1)
            };
            let q = CrossMatchQuery::new(
                QueryId(seed),
                anchored_objects(&anchors, LEVEL),
                Predicate::All,
            );
            assert_groups_like_the_reference(&p, &q);
        }
    }
}
