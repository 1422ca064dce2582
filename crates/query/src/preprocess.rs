//! The query pre-processor: objects → per-bucket sub-queries.
//!
//! Two passes over a query. The first places each object by its bounding
//! range with one directory lookup ([`Partition::sole_bucket`]); only an
//! object that spans a bucket boundary walks its ranges one by one. The
//! second groups the assignments by bucket through a bucket → slot table,
//! allocating every work item at its exact size.

use std::cell::RefCell;

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
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.pairs.clear();
            self.for_each_assignment(query, |idx, bucket| scratch.pairs.push((bucket.0, idx)));
            scratch.group(query.id, self.partition.num_buckets())
        })
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
    /// ascending. An object whose bounding range lies in one bucket — all
    /// but a fraction of a percent on the benchmark traces — costs one
    /// directory lookup; the rest go through the per-range visitor.
    fn for_each_assignment(&self, query: &CrossMatchQuery, mut f: impl FnMut(u32, BucketId)) {
        for (idx, obj) in query.objects.iter().enumerate() {
            let Some(bounds) = obj.bbox.bounding_range() else {
                continue;
            };
            match self.partition.sole_bucket(bounds) {
                Some(b) => f(idx as u32, b),
                None => self
                    .partition
                    .visit_buckets_overlapping_set(&obj.bbox, |b| f(idx as u32, b)),
            }
        }
    }
}

/// [`QueryPreProcessor::preprocess`]'s buffers, kept per thread because
/// pre-processing runs on many threads through a shared `&self`, and a
/// fresh bucket table would cost a `num_buckets` fill per query.
struct Scratch {
    /// `(bucket, object index)` per assignment, in object order.
    pairs: Vec<(u32, u32)>,
    /// Per bucket: 0 when untouched, else the bucket's slot in `distinct`
    /// plus one while counting, then its item's index while filling. Every
    /// touched entry is reset to 0 before `preprocess` returns.
    slot_of: Vec<u32>,
    /// The query's distinct buckets with their assignment counts.
    distinct: Vec<(u32, u32)>,
}

impl Scratch {
    /// Pass 2: groups `pairs` into `query`'s work items — the query's few
    /// distinct buckets, sorted, each item allocated at its exact size and
    /// filled in object order.
    fn group(&mut self, query: QueryId, num_buckets: usize) -> Vec<WorkItem> {
        let Scratch {
            pairs,
            slot_of,
            distinct,
        } = self;
        if slot_of.len() < num_buckets {
            slot_of.resize(num_buckets, 0);
        }
        distinct.clear();
        for &(b, _) in pairs.iter() {
            let slot = &mut slot_of[b as usize];
            if *slot == 0 {
                distinct.push((b, 0));
                *slot = distinct.len() as u32;
            }
            distinct[*slot as usize - 1].1 += 1;
        }
        distinct.sort_unstable();
        let mut items: Vec<WorkItem> = distinct
            .iter()
            .enumerate()
            .map(|(s, &(b, count))| {
                slot_of[b as usize] = s as u32;
                WorkItem {
                    query,
                    bucket: BucketId(b),
                    object_indices: Vec::with_capacity(count as usize),
                }
            })
            .collect();
        for &(b, idx) in pairs.iter() {
            items[slot_of[b as usize] as usize].object_indices.push(idx);
        }
        for &(b, _) in distinct.iter() {
            slot_of[b as usize] = 0;
        }
        items
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            pairs: Vec::new(),
            slot_of: Vec::new(),
            distinct: Vec::new(),
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossmatch::{MatchObject, Predicate};
    use liferaft_catalog::Partition;
    use liferaft_htm::Vec3;

    const LEVEL: u8 = 8;

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

    /// A level-12 partition and a one-object query covered at `level`.
    fn mismatched(level: u8) -> (Partition, CrossMatchQuery) {
        let p = Partition::synthetic_uniform(12, 2_048, 100, 1);
        let ps = [Vec3::from_radec_deg(123.0, 45.0)];
        let q = CrossMatchQuery::from_positions(QueryId(3), &ps, 1e-6, level, Predicate::All);
        (p, q)
    }

    #[test]
    #[should_panic(expected = "bucket_of requires object-level IDs")]
    fn preprocess_refuses_coarser_objects() {
        let (p, q) = mismatched(10);
        QueryPreProcessor::new(&p).preprocess(&q);
    }

    #[test]
    #[should_panic(expected = "bucket_of requires object-level IDs")]
    fn preprocess_refuses_finer_objects() {
        let (p, q) = mismatched(14);
        QueryPreProcessor::new(&p).preprocess(&q);
    }

    #[test]
    #[should_panic(expected = "bucket_of requires object-level IDs")]
    fn workload_size_refuses_coarser_objects() {
        let (p, q) = mismatched(10);
        QueryPreProcessor::new(&p).workload_size(&q);
    }

    #[test]
    #[should_panic(expected = "bucket_of requires object-level IDs")]
    fn workload_size_refuses_finer_objects() {
        let (p, q) = mismatched(14);
        QueryPreProcessor::new(&p).workload_size(&q);
    }
}
