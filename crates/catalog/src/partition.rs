//! Equal-sized bucket partitioning along the HTM curve.
//!
//! "We employ [the space-filling-curve] property to enforce a linear
//! ordering on SkyQuery objects that allows us to partition the data into
//! equal-sized buckets while preserving spatial proximity. […] Equal-sized
//! buckets result in uniform I/O cost for accessing each bucket."
//! — Section 3.1.
//!
//! A [`Partition`] is a total, gap-free tiling of the object-level HTM curve
//! by contiguous bucket ranges: every object-level HTM ID belongs to exactly
//! one bucket, so query pre-processing can place an object by one lookup of
//! its bounding range in a coarse curve directory
//! ([`Partition::sole_bucket`]), and visit the buckets of the rare object
//! that spans more than one ([`Partition::visit_buckets_overlapping_set`]).

use liferaft_htm::{HtmId, HtmRange, HtmRangeSet};
use liferaft_storage::{BucketId, BucketMeta};

use crate::object::{is_htm_sorted, SkyObject};

/// A total partition of the level-`level` HTM curve into contiguous buckets.
#[derive(Debug, Clone)]
pub struct Partition {
    level: u8,
    /// `starts[i]` is the raw HTM ID where bucket `i` begins; bucket `i`
    /// covers `[starts[i], starts[i+1] - 1]`. One entry longer than the
    /// bucket list: the closing sentinel is one past the curve's end, so
    /// `starts[i + 1]` is defined for the last bucket too. Invariant:
    /// strictly increasing, `starts[0]` = curve start.
    starts: Vec<u64>,
    /// The curve directory: the curve cut into equal cells of
    /// `1 << cell_shift` IDs, `cells[c]` being the bucket that owns cell
    /// `c`'s first ID. An ID in cell `c` is owned by `cells[c]` or by a
    /// bucket starting later inside the cell.
    cells: Vec<u32>,
    cell_shift: u32,
    buckets: Vec<BucketMeta>,
}

/// Directory cells per bucket (a lower bound; cell widths are powers of two,
/// so a partition gets between this many and twice as many). At four, an
/// equal-span bucket straddles a cell edge rarely enough that most lookups
/// take no step past their cell's owner.
const CELLS_PER_BUCKET: u64 = 4;

impl Partition {
    /// Builds the paper's partition from an HTM-sorted object table: cut the
    /// curve every `per_bucket` objects. Returns the partition and the
    /// objects grouped per bucket (same order as the input).
    ///
    /// `object_bytes` sizes each bucket for the disk model (the paper's
    /// 10 000 × 4 KB ⇒ 40 MB).
    ///
    /// # Panics
    /// Panics if the input is unsorted, empty, or `per_bucket == 0`.
    pub fn build_from_objects(
        objects: &[SkyObject],
        level: u8,
        per_bucket: usize,
        object_bytes: u64,
    ) -> (Partition, Vec<Vec<SkyObject>>) {
        assert!(per_bucket > 0, "per_bucket must be positive");
        assert!(!objects.is_empty(), "cannot partition an empty catalog");
        assert!(is_htm_sorted(objects), "objects must be HTM-sorted");
        assert!(
            objects.iter().all(|o| o.htm.level() == level),
            "all objects must be indexed at the partition level"
        );

        let curve_start = HtmId::first_at_level(level).raw();
        let mut starts = Vec::new();
        let mut groups: Vec<Vec<SkyObject>> = Vec::new();
        for chunk in objects.chunks(per_bucket) {
            // The bucket boundary is the first object's ID, except the very
            // first bucket which extends back to the curve start so the
            // tiling is total.
            let boundary = if starts.is_empty() {
                curve_start
            } else {
                chunk[0].htm.raw()
            };
            // Ties across a chunk boundary (equal HTM IDs) would make the
            // boundary ambiguous; nudge the boundary to keep starts strictly
            // increasing. (With level-14 IDs duplicates are vanishingly rare.)
            let boundary = match starts.last() {
                Some(&prev) if boundary <= prev => prev + 1,
                _ => boundary,
            };
            starts.push(boundary);
            groups.push(chunk.to_vec());
        }
        let partition = Partition::from_starts(level, starts, |i| {
            let count = groups[i].len() as u64;
            (count, count * object_bytes)
        });
        (partition, groups)
    }

    /// Builds a synthetic partition of `n_buckets` equal curve spans, each
    /// declared to hold `objects_per_bucket` objects of `object_bytes` bytes.
    ///
    /// This is the virtual-catalog layout: at paper scale (≈20 000 buckets ×
    /// 10 000 objects) buckets are defined analytically and materialized on
    /// demand.
    pub fn synthetic_uniform(
        level: u8,
        n_buckets: u32,
        objects_per_bucket: u64,
        object_bytes: u64,
    ) -> Partition {
        assert!(n_buckets > 0, "need at least one bucket");
        let first = HtmId::first_at_level(level).raw();
        let total_span = HtmId::count_at_level(level);
        assert!(
            total_span >= n_buckets as u64,
            "more buckets than curve positions"
        );
        let starts: Vec<u64> = (0..n_buckets)
            .map(|i| first + (i as u64 * total_span) / n_buckets as u64)
            .collect();
        Partition::from_starts(level, starts, |_| {
            (objects_per_bucket, objects_per_bucket * object_bytes)
        })
    }

    fn from_starts(
        level: u8,
        mut starts: Vec<u64>,
        size_of: impl Fn(usize) -> (u64, u64),
    ) -> Partition {
        assert!(!starts.is_empty());
        assert!(
            starts.windows(2).all(|w| w[0] < w[1]),
            "bucket starts must be strictly increasing"
        );
        assert_eq!(
            starts[0],
            HtmId::first_at_level(level).raw(),
            "the first bucket must start at the curve start"
        );
        let curve_end = HtmId::last_at_level(level).raw();
        assert!(
            *starts.last().expect("non-empty") <= curve_end,
            "bucket start beyond curve end"
        );
        let (cells, cell_shift) = curve_directory(level, &starts);
        starts.push(curve_end + 1);
        let buckets = starts
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let (object_count, bytes) = size_of(i);
                BucketMeta {
                    id: BucketId(i as u32),
                    htm_range: HtmRange::new(
                        HtmId::from_raw(w[0]).expect("valid partition boundary"),
                        HtmId::from_raw(w[1] - 1).expect("valid partition boundary"),
                    ),
                    object_count,
                    bytes,
                }
            })
            .collect();
        Partition {
            level,
            starts,
            cells,
            cell_shift,
            buckets,
        }
    }

    /// The object-level of the partition.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// All bucket metadata in curve order.
    pub fn buckets(&self) -> &[BucketMeta] {
        &self.buckets
    }

    /// Metadata for one bucket.
    pub fn meta(&self, id: BucketId) -> &BucketMeta {
        &self.buckets[id.index()]
    }

    /// The bucket owning an object-level HTM ID (total: every ID has one).
    pub fn bucket_of(&self, id: HtmId) -> BucketId {
        BucketId(self.locate(id) as u32)
    }

    /// The one bucket holding the whole object-level `range`, or `None` if
    /// the range crosses a bucket boundary: a directory lookup for its lower
    /// end and one compare for its upper end. Asked of an object's bounding
    /// range, `Some(b)` means every range of its box lies in `b`.
    ///
    /// # Panics
    /// Panics if `range` is not at the partition's level.
    pub fn sole_bucket(&self, range: HtmRange) -> Option<BucketId> {
        let b = self.locate(range.lo());
        (range.hi().raw() < self.starts[b + 1]).then_some(BucketId(b as u32))
    }

    /// Index of the bucket owning `id`, through the curve directory: start at
    /// the owner of `id`'s cell and step past the boundaries inside the cell
    /// that lie at or before `id` — no step when no boundary falls inside
    /// the cell, every bucket at worst (all boundaries inside one cell). The
    /// sentinel in `starts` ends the walk at the last bucket.
    fn locate(&self, id: HtmId) -> usize {
        assert_eq!(
            id.level(),
            self.level,
            "bucket_of requires object-level IDs"
        );
        let raw = id.raw();
        let mut b = self.cells[((raw - self.starts[0]) >> self.cell_shift) as usize] as usize;
        while self.starts[b + 1] <= raw {
            b += 1;
        }
        b
    }

    /// The inclusive bucket span overlapping an object-level HTM range.
    pub fn buckets_overlapping(&self, range: HtmRange) -> std::ops::RangeInclusive<u32> {
        let (lo, hi) = self.span_of(range);
        lo as u32..=hi as u32
    }

    /// `(first, last)` bucket index overlapping `range`, searching for `hi`
    /// only when it leaves `lo`'s bucket.
    fn span_of(&self, range: HtmRange) -> (usize, usize) {
        let lo = self.locate(range.lo());
        let hi = if range.hi().raw() < self.starts[lo + 1] {
            lo
        } else {
            self.locate(range.hi())
        };
        (lo, hi)
    }

    /// Calls `visit` once per bucket overlapping any range of `set`, in
    /// ascending bucket order, without allocating.
    pub fn visit_buckets_overlapping_set(
        &self,
        set: &HtmRangeSet,
        mut visit: impl FnMut(BucketId),
    ) {
        // Ranges in a set are sorted, so spans ascend; only a span's first
        // bucket can repeat the previous span's last.
        let mut next = 0usize;
        for &r in set.ranges() {
            let (lo, hi) = self.span_of(r);
            for b in lo.max(next)..=hi {
                visit(BucketId(b as u32));
            }
            next = hi + 1;
        }
    }

    /// The sorted, deduplicated bucket IDs overlapping any range of the set.
    pub fn buckets_overlapping_set(&self, set: &HtmRangeSet) -> Vec<BucketId> {
        let mut out = Vec::new();
        self.visit_buckets_overlapping_set(set, |b| out.push(b));
        out
    }
}

/// Builds the curve directory of a partition from its bucket starts:
/// `(cells, cell_shift)` as described on [`Partition`]'s fields.
fn curve_directory(level: u8, starts: &[u64]) -> (Vec<u32>, u32) {
    // The curve holds `8 · 4^level` IDs, a power of two, so cells of
    // `1 << shift` IDs tile it exactly.
    let span = HtmId::count_at_level(level);
    let wanted = (starts.len() as u64 * CELLS_PER_BUCKET).min(span);
    let cell_shift = (span / wanted).ilog2();
    let n_cells = (span >> cell_shift) as usize;
    let mut cells = Vec::with_capacity(n_cells);
    let mut owner = 0usize;
    for c in 0..n_cells as u64 {
        let cell_start = starts[0] + (c << cell_shift);
        while starts.get(owner + 1).is_some_and(|&s| s <= cell_start) {
            owner += 1;
        }
        cells.push(owner as u32);
    }
    (cells, cell_shift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::uniform_sky;
    use liferaft_htm::Vec3;

    #[test]
    fn build_from_objects_equal_counts() {
        let sky = uniform_sky(1_000, 8, 42);
        let (p, groups) = Partition::build_from_objects(&sky, 8, 100, 4096);
        assert_eq!(p.num_buckets(), 10);
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g.len(), 100, "bucket {i}");
            assert_eq!(p.buckets()[i].object_count, 100);
            assert_eq!(p.buckets()[i].bytes, 100 * 4096);
        }
    }

    #[test]
    fn build_handles_ragged_tail() {
        let sky = uniform_sky(250, 8, 1);
        let (p, groups) = Partition::build_from_objects(&sky, 8, 100, 1);
        assert_eq!(p.num_buckets(), 3);
        assert_eq!(groups[2].len(), 50);
        assert_eq!(p.buckets()[2].object_count, 50);
    }

    #[test]
    fn partition_tiles_the_whole_curve() {
        let sky = uniform_sky(500, 8, 7);
        let (p, _) = Partition::build_from_objects(&sky, 8, 50, 1);
        // First bucket starts at the curve start; last ends at the curve end.
        assert_eq!(
            p.buckets().first().unwrap().htm_range.lo(),
            HtmId::first_at_level(8)
        );
        assert_eq!(
            p.buckets().last().unwrap().htm_range.hi(),
            HtmId::last_at_level(8)
        );
        // Adjacent buckets are contiguous with no gaps.
        for w in p.buckets().windows(2) {
            assert_eq!(w[0].htm_range.hi().raw() + 1, w[1].htm_range.lo().raw());
        }
    }

    #[test]
    fn every_object_lands_in_its_group_bucket() {
        let sky = uniform_sky(400, 8, 3);
        let (p, groups) = Partition::build_from_objects(&sky, 8, 64, 1);
        for (i, g) in groups.iter().enumerate() {
            for o in g {
                assert_eq!(p.bucket_of(o.htm), BucketId(i as u32));
                assert!(p.buckets()[i].htm_range.contains(o.htm));
            }
        }
    }

    #[test]
    fn bucket_of_boundaries() {
        let p = Partition::synthetic_uniform(4, 8, 10, 1);
        assert_eq!(p.bucket_of(HtmId::first_at_level(4)), BucketId(0));
        assert_eq!(p.bucket_of(HtmId::last_at_level(4)), BucketId(7));
        // The ID just below bucket 1's start belongs to bucket 0.
        let b1_lo = p.buckets()[1].htm_range.lo();
        assert_eq!(p.bucket_of(b1_lo), BucketId(1));
        let before = HtmId::from_raw_unchecked(b1_lo.raw() - 1);
        assert_eq!(p.bucket_of(before), BucketId(0));
    }

    #[test]
    fn synthetic_uniform_has_equal_spans() {
        let p = Partition::synthetic_uniform(6, 32, 100, 4096);
        assert_eq!(p.num_buckets(), 32);
        let spans: Vec<u64> = p.buckets().iter().map(|b| b.htm_range.len()).collect();
        let (mn, mx) = (spans.iter().min().unwrap(), spans.iter().max().unwrap());
        assert!(mx - mn <= 1, "spans should differ by at most 1: {mn}..{mx}");
        assert!(p.buckets().iter().all(|b| b.object_count == 100));
    }

    #[test]
    fn buckets_overlapping_range_and_set() {
        let p = Partition::synthetic_uniform(4, 8, 10, 1);
        let all = HtmRange::full(4);
        assert_eq!(p.buckets_overlapping(all), 0..=7);
        // A range inside bucket 3.
        let b3 = p.buckets()[3].htm_range;
        assert_eq!(p.buckets_overlapping(b3), 3..=3);
        // A set spanning buckets 1..=2 and 5.
        let set = HtmRangeSet::from_ranges(vec![
            HtmRange::new(p.buckets()[1].htm_range.lo(), p.buckets()[2].htm_range.hi()),
            p.buckets()[5].htm_range,
        ]);
        let ids = p.buckets_overlapping_set(&set);
        assert_eq!(ids, vec![BucketId(1), BucketId(2), BucketId(5)]);
    }

    #[test]
    fn paper_scale_partition_is_cheap() {
        // 20 000 buckets of 10 000 objects — metadata only, no objects.
        let p = Partition::synthetic_uniform(14, 20_000, 10_000, 4096);
        assert_eq!(p.num_buckets(), 20_000);
        let b = p.meta(BucketId(19_999));
        assert_eq!(b.bytes, 40_960_000);
        assert_eq!(b.htm_range.hi(), HtmId::last_at_level(14));
    }

    #[test]
    #[should_panic(expected = "HTM-sorted")]
    fn build_rejects_unsorted_input() {
        let a = SkyObject::at(Vec3::from_radec_deg(300.0, 80.0), 8, 1.0);
        let b = SkyObject::at(Vec3::from_radec_deg(10.0, -80.0), 8, 1.0);
        let (hi, lo) = if a.htm < b.htm { (b, a) } else { (a, b) };
        Partition::build_from_objects(&[hi, lo], 8, 1, 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn build_rejects_empty_input() {
        Partition::build_from_objects(&[], 8, 10, 1);
    }

    #[test]
    #[should_panic(expected = "bucket_of requires object-level IDs")]
    fn bucket_of_rejects_an_id_of_another_level() {
        let p = Partition::synthetic_uniform(12, 2_048, 100, 1);
        p.bucket_of(HtmId::first_at_level(10));
    }
}
