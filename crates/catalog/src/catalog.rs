//! The [`Catalog`] trait and its two implementations.

use std::borrow::Cow;

use liferaft_htm::{trixel_centers, HtmId, Vec3};
use liferaft_storage::{BucketId, BucketMeta};

use crate::hash::{hash4, unit_f64};
use crate::object::SkyObject;
use crate::partition::Partition;

/// Read access to a partitioned object catalog.
///
/// The scheduler and pre-processor need only the [`Partition`] (bucket
/// extents); when joins are executed for real the join evaluator
/// additionally pulls whole bucket payloads through
/// [`Catalog::bucket_objects`] (a scan) or just the rows an index probe
/// lands on through [`Catalog::objects_in`].
pub trait Catalog {
    /// The bucket layout.
    fn partition(&self) -> &Partition;

    /// The objects of one bucket, HTM-sorted.
    ///
    /// Materialized catalogs return a borrow; virtual catalogs generate the
    /// rows on demand (deterministically per seed).
    fn bucket_objects(&self, id: BucketId) -> Cow<'_, [SkyObject]>;

    /// Appends to `out` the objects of bucket `id` whose HTM ID lies in
    /// `[lo, hi]`, in HTM order — exactly the `partition_point` slice of
    /// [`bucket_objects`](Self::bucket_objects), which is what the default
    /// computes. Catalogs that generate rows override it to produce only
    /// that span.
    fn objects_in(&self, id: BucketId, lo: HtmId, hi: HtmId, out: &mut Vec<SkyObject>) {
        let rows = self.bucket_objects(id);
        let start = rows.partition_point(|o| o.htm < lo);
        let end = rows.partition_point(|o| o.htm <= hi);
        out.extend_from_slice(&rows[start..end.max(start)]);
    }

    /// Convenience: metadata for one bucket.
    fn meta(&self, id: BucketId) -> &BucketMeta {
        self.partition().meta(id)
    }

    /// Total declared object count.
    fn total_objects(&self) -> u64 {
        self.partition()
            .buckets()
            .iter()
            .map(|b| b.object_count)
            .sum()
    }
}

/// A fully in-memory catalog: real rows grouped per bucket.
///
/// Built from a generated sky via the paper's sort-and-chunk partitioning;
/// the implementation of choice wherever joins are actually executed.
#[derive(Debug, Clone)]
pub struct MaterializedCatalog {
    partition: Partition,
    groups: Vec<Vec<SkyObject>>,
}

impl MaterializedCatalog {
    /// Partitions an HTM-sorted object table into `per_bucket`-object buckets.
    pub fn build(objects: &[SkyObject], level: u8, per_bucket: usize, object_bytes: u64) -> Self {
        let (partition, groups) =
            Partition::build_from_objects(objects, level, per_bucket, object_bytes);
        MaterializedCatalog { partition, groups }
    }
}

impl Catalog for MaterializedCatalog {
    fn partition(&self) -> &Partition {
        &self.partition
    }

    fn bucket_objects(&self, id: BucketId) -> Cow<'_, [SkyObject]> {
        Cow::Borrowed(&self.groups[id.index()])
    }
}

/// A paper-scale catalog defined analytically and materialized on demand.
///
/// Bucket `i` owns an equal span of the object-level curve and holds exactly
/// `objects_per_bucket` rows, placed by stratified sampling of the span:
/// slot `k` gets an HTM ID inside the `k`-th sub-span, jittered by a
/// counter-based hash of `(seed, bucket, slot)`. Object positions are the
/// trixel centers of their IDs, so `locate(pos) == htm` holds by
/// construction and rows come out HTM-sorted with no sorting pass.
#[derive(Debug, Clone)]
pub struct VirtualCatalog {
    partition: Partition,
    objects_per_bucket: u64,
    seed: u64,
}

impl VirtualCatalog {
    /// Creates a virtual catalog of `n_buckets × objects_per_bucket` rows.
    ///
    /// # Panics
    /// Panics if any bucket span is smaller than `objects_per_bucket` (there
    /// must be at least one curve position per row so IDs can be strictly
    /// increasing).
    pub fn new(
        level: u8,
        n_buckets: u32,
        objects_per_bucket: u64,
        object_bytes: u64,
        seed: u64,
    ) -> Self {
        let partition =
            Partition::synthetic_uniform(level, n_buckets, objects_per_bucket, object_bytes);
        let min_span = partition
            .buckets()
            .iter()
            .map(|b| b.htm_range.len())
            .min()
            .expect("at least one bucket");
        assert!(
            min_span >= objects_per_bucket,
            "bucket span {min_span} cannot host {objects_per_bucket} distinct IDs"
        );
        VirtualCatalog {
            partition,
            objects_per_bucket,
            seed,
        }
    }

    /// The HTM ID of the `slot`-th object of `bucket`.
    fn slot_htm(&self, bucket: BucketId, slot: u64) -> HtmId {
        debug_assert!(slot < self.objects_per_bucket);
        let meta = self.partition.meta(bucket);
        let span = meta.htm_range.len();
        let n = self.objects_per_bucket;
        // Stratified: slot k owns sub-span [k·span/n, (k+1)·span/n).
        let sub_lo = (slot as u128 * span as u128 / n as u128) as u64;
        let sub_hi = ((slot + 1) as u128 * span as u128 / n as u128) as u64;
        let gap = (sub_hi - sub_lo).max(1);
        let h = hash4(self.seed, bucket.0 as u64, slot, 0);
        let raw = meta.htm_range.lo().raw() + sub_lo + h % gap;
        HtmId::from_raw(raw).expect("IDs inside a bucket range are valid")
    }

    /// The row of `slot`, given its ID and that ID's trixel center.
    fn row(&self, bucket: BucketId, slot: u64, htm: HtmId, pos: Vec3) -> SkyObject {
        let mag = 14.0 + 10.0 * unit_f64(hash4(self.seed, bucket.0 as u64, slot, 1)) as f32;
        SkyObject { htm, pos, mag }
    }

    /// Appends the rows of `slots` (ascending) whose ID lies in `[lo, hi]`.
    /// IDs increase with the slot, so those rows are one run: their IDs
    /// first, then all their positions from one
    /// [`trixel_centers`](liferaft_htm::trixel_centers) walk, then the rows.
    fn generate(
        &self,
        bucket: BucketId,
        slots: std::ops::Range<u64>,
        lo: HtmId,
        hi: HtmId,
        out: &mut Vec<SkyObject>,
    ) {
        let (slots, ids): (Vec<u64>, Vec<HtmId>) = slots
            .map(|slot| (slot, self.slot_htm(bucket, slot)))
            .skip_while(|&(_, htm)| htm < lo)
            .take_while(|&(_, htm)| htm <= hi)
            .unzip();
        let mut centers = Vec::with_capacity(ids.len());
        trixel_centers(&ids, &mut centers);
        let rows = slots.into_iter().zip(ids).zip(centers);
        out.extend(rows.map(|((slot, htm), pos)| self.row(bucket, slot, htm, pos)));
    }
}

impl Catalog for VirtualCatalog {
    fn partition(&self) -> &Partition {
        &self.partition
    }

    fn bucket_objects(&self, id: BucketId) -> Cow<'_, [SkyObject]> {
        let range = self.partition.meta(id).htm_range;
        let mut rows = Vec::with_capacity(self.objects_per_bucket as usize);
        self.generate(
            id,
            0..self.objects_per_bucket,
            range.lo(),
            range.hi(),
            &mut rows,
        );
        debug_assert_eq!(rows.len() as u64, self.objects_per_bucket);
        debug_assert!(crate::object::is_htm_sorted(&rows));
        Cow::Owned(rows)
    }

    fn objects_in(&self, id: BucketId, lo: HtmId, hi: HtmId, out: &mut Vec<SkyObject>) {
        let range = self.partition.meta(id).htm_range;
        let (first, span, n) = (range.lo().raw(), range.len(), self.objects_per_bucket);
        if hi < lo || hi < range.lo() || lo > range.hi() {
            return;
        }
        // Curve offsets of the probe inside the bucket, and the slots that
        // own them: slot k owns [k·span/n, (k+1)·span/n), so the owner of
        // offset x is the largest k with k·span < (x + 1)·n.
        let owner = |x: u64| (((x + 1) as u128 * n as u128 - 1) / span as u128) as u64;
        let from = owner(lo.raw().saturating_sub(first));
        let to = owner((hi.raw() - first).min(span - 1));
        self.generate(id, from..to + 1, lo, hi, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::uniform_sky;
    use crate::object::is_htm_sorted;

    /// The paper's experimental scale: level 14, ~20 000 buckets of 10 000
    /// objects of 4 KB (40 MB buckets).
    fn paper_scale(seed: u64) -> VirtualCatalog {
        VirtualCatalog::new(crate::OBJECT_LEVEL, 20_000, 10_000, 4096, seed)
    }

    /// Generates the `slot`-th object of `bucket` (pure function), or `None`
    /// if the partition has no such bucket or `slot` is not below the
    /// per-bucket row count. The random-access reference for the batch
    /// generator behind [`Catalog::bucket_objects`] /
    /// [`Catalog::objects_in`]: same ID, and a position replayed from the
    /// root by `trixel_of` instead of placed by one walk over the whole run.
    fn object_at(cat: &VirtualCatalog, bucket: BucketId, slot: u64) -> Option<SkyObject> {
        if slot >= cat.objects_per_bucket || bucket.index() >= cat.partition.num_buckets() {
            return None;
        }
        let htm = cat.slot_htm(bucket, slot);
        Some(cat.row(bucket, slot, htm, liferaft_htm::trixel_of(htm).center()))
    }

    #[test]
    fn materialized_catalog_round_trip() {
        let sky = uniform_sky(300, 8, 11);
        let cat = MaterializedCatalog::build(&sky, 8, 50, 4096);
        assert_eq!(cat.partition().num_buckets(), 6);
        assert_eq!(cat.total_objects(), 300);
        let b0 = cat.bucket_objects(BucketId(0));
        assert_eq!(b0.len(), 50);
        assert!(matches!(b0, Cow::Borrowed(_)));
        // Objects in bucket 0 are exactly the 50 smallest HTM IDs.
        assert_eq!(&b0[..], &sky[..50]);
    }

    #[test]
    fn virtual_catalog_rows_are_sorted_unique_and_in_range() {
        let cat = VirtualCatalog::new(10, 16, 200, 4096, 99);
        for b in [0u32, 7, 15] {
            let id = BucketId(b);
            let rows = cat.bucket_objects(id);
            assert_eq!(rows.len(), 200);
            assert!(is_htm_sorted(&rows));
            let meta = cat.meta(id);
            for w in rows.windows(2) {
                assert!(w[0].htm < w[1].htm, "duplicate or unsorted IDs");
            }
            for o in rows.iter() {
                assert!(meta.htm_range.contains(o.htm));
                assert!((o.pos.norm() - 1.0).abs() < 1e-9);
                assert!((14.0..24.0).contains(&o.mag));
            }
        }
    }

    #[test]
    fn virtual_catalog_is_deterministic() {
        let a = VirtualCatalog::new(10, 8, 100, 4096, 5);
        let b = VirtualCatalog::new(10, 8, 100, 4096, 5);
        let c = VirtualCatalog::new(10, 8, 100, 4096, 6);
        assert_eq!(
            a.bucket_objects(BucketId(3)).as_ref(),
            b.bucket_objects(BucketId(3)).as_ref()
        );
        assert_ne!(
            a.bucket_objects(BucketId(3)).as_ref(),
            c.bucket_objects(BucketId(3)).as_ref()
        );
    }

    #[test]
    fn virtual_positions_agree_with_ids() {
        let cat = VirtualCatalog::new(8, 8, 50, 4096, 1);
        for o in cat.bucket_objects(BucketId(2)).iter() {
            assert_eq!(liferaft_htm::locate(o.pos, 8), o.htm);
        }
    }

    #[test]
    fn paper_scale_metadata_without_materialization() {
        let cat = paper_scale(42);
        assert_eq!(cat.partition().num_buckets(), 20_000);
        assert_eq!(cat.total_objects(), 200_000_000);
        assert_eq!(cat.meta(BucketId(0)).bytes, 40_960_000);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn virtual_rejects_overfull_buckets() {
        // Level 2 has 128 positions; 8 buckets of 32 objects need 256.
        VirtualCatalog::new(2, 8, 32, 1, 0);
    }

    #[test]
    fn object_at_is_pure() {
        let cat = VirtualCatalog::new(10, 8, 100, 4096, 5);
        let a = object_at(&cat, BucketId(1), 42);
        let b = object_at(&cat, BucketId(1), 42);
        assert!(a.is_some());
        assert_eq!(a, b);
    }

    /// The benchmark's catalog shape: level 12, 2 048 buckets × 1 000 rows.
    fn benchmark_shape() -> VirtualCatalog {
        VirtualCatalog::new(12, 2_048, 1_000, 4_096, 77)
    }

    #[test]
    fn object_at_past_the_last_slot_is_none() {
        // Slots 1 000 and 1 500 of bucket 5 would land on bucket 6's IDs.
        let cat = benchmark_shape();
        assert_eq!(object_at(&cat, BucketId(5), 1_000), None);
        assert_eq!(object_at(&cat, BucketId(5), 1_500), None);
        assert!(object_at(&cat, BucketId(5), 999).is_some());
    }

    #[test]
    fn object_at_past_the_end_of_the_curve_is_none() {
        // Slot 1 000 of the last bucket would lie past the last level-12 ID.
        let cat = benchmark_shape();
        assert_eq!(object_at(&cat, BucketId(2_047), 1_000), None);
        assert_eq!(object_at(&cat, BucketId(2_047), u64::MAX), None);
    }

    #[test]
    fn object_at_of_a_missing_bucket_is_none() {
        let cat = benchmark_shape();
        assert_eq!(object_at(&cat, BucketId(2_048), 0), None);
        assert_eq!(object_at(&cat, BucketId(u32::MAX), 0), None);
    }

    /// Every row of each listed bucket equals `object_at` of its slot.
    fn assert_rows_equal_object_at(cat: &VirtualCatalog, buckets: &[u32], per_bucket: usize) {
        for &b in buckets {
            let rows = cat.bucket_objects(BucketId(b));
            assert_eq!(rows.len(), per_bucket);
            for (slot, row) in rows.iter().enumerate() {
                assert_eq!(
                    Some(*row),
                    object_at(cat, BucketId(b), slot as u64),
                    "bucket {b} slot {slot}"
                );
            }
        }
    }

    /// The batch generator equals the random-access one on every slot: at the
    /// benchmark's catalog shape (level 12, 2 048 buckets × 1 000 rows), at
    /// paper scale (level 14, 10 000 rows a bucket), and on the (6, 13, 37)
    /// shape's bucket 4, whose span crosses from root face 2 into face 3.
    /// All comparisons are `==` on the rows, `f64` positions included: the
    /// engine's match counts depend on it.
    #[test]
    fn bucket_rows_equal_object_at_at_benchmark_shape() {
        let cat = VirtualCatalog::new(12, 2_048, 1_000, 4_096, 2_009);
        assert_rows_equal_object_at(&cat, &[0, 1, 511, 512, 1_337, 2_047], 1_000);

        let paper = paper_scale(2_009);
        assert_rows_equal_object_at(&paper, &[0, 12_345], 10_000);

        let (level, buckets, per_bucket) = (6, 13, 37);
        let straddling = VirtualCatalog::new(level, buckets, per_bucket, 64, 2_009);
        let range = straddling.meta(BucketId(4)).htm_range;
        assert_ne!(range.lo().root_face(), range.hi().root_face());
        assert_rows_equal_object_at(&straddling, &[4], per_bucket as usize);
    }
}
