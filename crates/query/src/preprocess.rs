//! The query pre-processor: objects → per-bucket sub-queries.

use liferaft_catalog::Partition;
use liferaft_storage::BucketId;

use crate::crossmatch::CrossMatchQuery;
use crate::crossmatch::QueryId;

/// A sub-query: the slice of one query's objects that overlaps one bucket.
///
/// `W_i^j` in the paper's notation — "the set of objects from Qi that
/// overlap bucket Bj (i.e. the object and bucket's HTM ID ranges overlap)".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem {
    /// The parent query.
    pub query: QueryId,
    /// The bucket this sub-query joins against.
    pub bucket: BucketId,
    /// Indices into the parent query's `objects` vector.
    pub object_indices: Vec<u32>,
}

impl WorkItem {
    /// Number of objects in this sub-query.
    pub fn len(&self) -> usize {
        self.object_indices.len()
    }

    /// True if the item carries no objects (never produced by preprocessing).
    pub fn is_empty(&self) -> bool {
        self.object_indices.is_empty()
    }
}

/// Splits queries into per-bucket work items against a partition.
#[derive(Debug, Clone)]
pub struct QueryPreProcessor<'a> {
    partition: &'a Partition,
}

impl<'a> QueryPreProcessor<'a> {
    /// Creates a pre-processor for the given bucket layout.
    pub fn new(partition: &'a Partition) -> Self {
        QueryPreProcessor { partition }
    }

    /// Decomposes a query into work items, one per overlapped bucket,
    /// ordered by bucket ID.
    ///
    /// An object whose bounding box spans `k` buckets contributes to `k`
    /// work items; each bucket is joined independently and no duplicate
    /// elimination is needed because every catalog point lives in exactly
    /// one bucket (Section 3.1).
    pub fn preprocess(&self, query: &CrossMatchQuery) -> Vec<WorkItem> {
        // Work items stay sorted by bucket as they are created. Queries
        // touch few distinct buckets and consecutive objects often stay in
        // one, so `cursor` (the item appended to last) is tried before the
        // binary search.
        let mut items: Vec<WorkItem> = Vec::new();
        let mut cursor = 0usize;
        self.for_each_assignment(query, |idx, bucket| {
            if items.get(cursor).map(|w| w.bucket) != Some(bucket) {
                cursor = match items.binary_search_by_key(&bucket, |w| w.bucket) {
                    Ok(i) => i,
                    Err(i) => {
                        items.insert(
                            i,
                            WorkItem {
                                query: query.id,
                                bucket,
                                object_indices: Vec::new(),
                            },
                        );
                        i
                    }
                };
            }
            items[cursor].object_indices.push(idx);
        });
        items
    }

    /// Total number of (object, bucket) assignments a query expands to —
    /// the amount of workload-queue space it will occupy.
    pub fn workload_size(&self, query: &CrossMatchQuery) -> u64 {
        let mut total = 0u64;
        self.for_each_assignment(query, |_, _| total += 1);
        total
    }

    /// Calls `f(object index, bucket)` for every bucket each object's
    /// bounding ranges overlap: objects in order, each object's buckets
    /// ascending. The last bucket found seeds the next object's lookup.
    fn for_each_assignment(&self, query: &CrossMatchQuery, mut f: impl FnMut(u32, BucketId)) {
        let mut hint = BucketId(0);
        for (idx, obj) in query.objects.iter().enumerate() {
            hint = self
                .partition
                .visit_buckets_overlapping_set(&obj.bbox, hint, |b| f(idx as u32, b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossmatch::{MatchObject, Predicate};
    use liferaft_catalog::generate::{clustered_sky, ClusterConfig};
    use liferaft_catalog::Partition;
    use liferaft_htm::Vec3;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const LEVEL: u8 = 8;

    /// The grouping `preprocess` used to do, kept as its reference: every
    /// object's collected bucket list, keyed into an ordered map.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Runs of neighbouring objects (the cursor's hits), jumps across
        /// the sky (its misses) and wide circles spanning many buckets all
        /// group exactly as the map did, on even and on skewed partitions.
        #[test]
        fn preprocess_equals_the_btreemap_grouping(
            non_uniform in proptest::bool::ANY,
            seed in 0u64..1_000,
            anchors in proptest::collection::vec(
                (0.0f64..360.0, -89.0f64..89.0, 1usize..12, 0u8..4),
                0..10,
            ),
        ) {
            let p = if non_uniform {
                let sky = clustered_sky(2_000, LEVEL, seed, ClusterConfig::default());
                Partition::build_from_objects(&sky, LEVEL, 25 + (seed % 40) as usize, 1).0
            } else {
                Partition::synthetic_uniform(LEVEL, 1 + (seed % 200) as u32, 100, 1)
            };
            let objects: Vec<MatchObject> = anchors
                .iter()
                .flat_map(|&(ra, dec, n, size)| {
                    let radius = [1e-6, 1e-4, 5e-3, 0.2][size as usize];
                    (0..n).map(move |k| {
                        let pos = Vec3::from_radec_deg(ra + k as f64 * 0.003, dec);
                        MatchObject::new(pos, radius, LEVEL)
                    })
                })
                .collect();
            let q = CrossMatchQuery::new(QueryId(seed), objects, Predicate::All);
            let pre = QueryPreProcessor::new(&p);
            let items = pre.preprocess(&q);
            prop_assert_eq!(&items, &reference(&p, &q));
            prop_assert!(items.windows(2).all(|w| w[0].bucket < w[1].bucket));
            for item in &items {
                prop_assert!(!item.is_empty());
                prop_assert!(item.object_indices.windows(2).all(|w| w[0] < w[1]));
            }
            let total: u64 = items.iter().map(|w| w.len() as u64).sum();
            prop_assert_eq!(pre.workload_size(&q), total);
        }
    }

    fn partition() -> Partition {
        Partition::synthetic_uniform(LEVEL, 64, 100, 4096)
    }

    fn query_at(positions: &[(f64, f64)], radius: f64) -> CrossMatchQuery {
        let ps: Vec<Vec3> = positions
            .iter()
            .map(|&(ra, dec)| Vec3::from_radec_deg(ra, dec))
            .collect();
        CrossMatchQuery::from_positions(QueryId(1), &ps, radius, LEVEL, Predicate::All)
    }

    #[test]
    fn single_tiny_object_maps_to_one_or_few_buckets() {
        let p = partition();
        let q = query_at(&[(123.0, 45.0)], 1e-6);
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        assert!(!items.is_empty());
        assert!(items.len() <= 4, "tiny object hit {} buckets", items.len());
        let total: usize = items.iter().map(WorkItem::len).sum();
        assert!(total >= 1);
        for item in &items {
            assert_eq!(item.query, QueryId(1));
            assert!(!item.is_empty());
        }
    }

    #[test]
    fn objects_group_by_bucket() {
        let p = partition();
        // Two objects at the same position must land in the same bucket(s),
        // grouped into shared work items.
        let q = query_at(&[(200.0, -30.0), (200.0, -30.0)], 1e-6);
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        for item in &items {
            assert_eq!(item.object_indices, vec![0, 1]);
        }
    }

    #[test]
    fn work_items_are_sorted_by_bucket() {
        let p = partition();
        let q = query_at(
            &[(10.0, 0.0), (100.0, 40.0), (200.0, -40.0), (300.0, 10.0)],
            1e-5,
        );
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        assert!(items.windows(2).all(|w| w[0].bucket < w[1].bucket));
    }

    #[test]
    fn every_object_appears_somewhere() {
        let p = partition();
        let q = query_at(
            &[
                (0.1, 0.1),
                (90.0, 45.0),
                (180.0, -45.0),
                (270.0, 80.0),
                (45.0, -80.0),
            ],
            1e-4,
        );
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        let mut seen = vec![false; q.len()];
        for item in &items {
            for &i in &item.object_indices {
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "an object was dropped: {seen:?}");
    }

    #[test]
    fn wide_region_spans_many_buckets() {
        let p = partition();
        // A 20° error circle crosses many level-8 buckets.
        let q = query_at(&[(50.0, 20.0)], 20f64.to_radians());
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        assert!(items.len() > 1, "wide region should span buckets");
    }

    #[test]
    fn workload_size_counts_assignments() {
        let p = partition();
        let q = query_at(&[(50.0, 20.0), (51.0, 20.0)], 1e-6);
        let pre = QueryPreProcessor::new(&p);
        let total: u64 = pre.preprocess(&q).iter().map(|w| w.len() as u64).sum();
        assert_eq!(pre.workload_size(&q), total);
        assert!(total >= 2);
    }

    #[test]
    fn empty_query_yields_no_items() {
        let p = partition();
        let q = CrossMatchQuery::new(QueryId(9), vec![], Predicate::All);
        assert!(QueryPreProcessor::new(&p).preprocess(&q).is_empty());
    }

    #[test]
    fn object_spanning_bucket_boundary_appears_in_both() {
        let p = partition();
        // Place an object exactly at a bucket boundary with a radius wide
        // enough to spill over.
        let boundary = p.buckets()[10].htm_range.lo();
        let pos = liferaft_htm::trixel_of(boundary).center();
        let obj = MatchObject::new(pos, 0.02, LEVEL);
        let q = CrossMatchQuery::new(QueryId(2), vec![obj], Predicate::All);
        let items = QueryPreProcessor::new(&p).preprocess(&q);
        assert!(
            items.len() >= 2,
            "boundary object should hit both neighbouring buckets, got {}",
            items.len()
        );
        assert!(items
            .iter()
            .any(|i| i.bucket == liferaft_storage::BucketId(10)));
    }
}
