//! Inclusive HTM ID ranges and sorted disjoint range sets.
//!
//! Both bucket extents ("start and end HTM ID values", Section 3.1) and the
//! per-object cross-match bounding boxes are expressed as ranges of same-level
//! HTM IDs. The pre-processor intersects the two, so the range algebra here is
//! on the hot path of query admission.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::id::HtmId;

/// An inclusive range `[lo, hi]` of HTM IDs at a single level.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HtmRange {
    lo: HtmId,
    hi: HtmId,
}

impl HtmRange {
    /// Creates a range. `lo` and `hi` must be at the same level with `lo ≤ hi`.
    pub fn new(lo: HtmId, hi: HtmId) -> Self {
        assert_eq!(
            lo.level(),
            hi.level(),
            "range endpoints must share a level ({} vs {})",
            lo.level(),
            hi.level()
        );
        assert!(lo <= hi, "range lo {lo} must not exceed hi {hi}");
        HtmRange { lo, hi }
    }

    /// A single-ID range.
    pub fn singleton(id: HtmId) -> Self {
        HtmRange { lo: id, hi: id }
    }

    /// The full range of all IDs at `level`.
    pub fn full(level: u8) -> Self {
        HtmRange::new(HtmId::first_at_level(level), HtmId::last_at_level(level))
    }

    /// Lower (inclusive) endpoint.
    #[inline]
    pub fn lo(self) -> HtmId {
        self.lo
    }

    /// Upper (inclusive) endpoint.
    #[inline]
    pub fn hi(self) -> HtmId {
        self.hi
    }

    /// The common level of the endpoints.
    #[inline]
    pub fn level(self) -> u8 {
        self.lo.level()
    }

    /// Number of IDs in the range.
    #[inline]
    pub fn len(self) -> u64 {
        self.hi.raw() - self.lo.raw() + 1
    }

    /// Ranges are never empty (construction requires `lo ≤ hi`).
    #[inline]
    pub fn is_empty(self) -> bool {
        false
    }

    /// True if `id` (same level) lies within the range.
    #[inline]
    pub fn contains(self, id: HtmId) -> bool {
        debug_assert_eq!(id.level(), self.level());
        self.lo <= id && id <= self.hi
    }

    /// True if the two same-level ranges share at least one ID.
    #[inline]
    pub fn overlaps(self, o: HtmRange) -> bool {
        debug_assert_eq!(self.level(), o.level());
        self.lo <= o.hi && o.lo <= self.hi
    }

    /// The overlap of two same-level ranges, if any.
    pub fn intersect(self, o: HtmRange) -> Option<HtmRange> {
        if self.overlaps(o) {
            Some(HtmRange {
                lo: self.lo.max(o.lo),
                hi: self.hi.min(o.hi),
            })
        } else {
            None
        }
    }

    /// True if the ranges overlap or are adjacent on the curve (mergeable).
    #[inline]
    pub fn touches(self, o: HtmRange) -> bool {
        debug_assert_eq!(self.level(), o.level());
        self.lo.raw() <= o.hi.raw().saturating_add(1)
            && o.lo.raw() <= self.hi.raw().saturating_add(1)
    }

    /// Iterates over every ID in the range (use with care on wide ranges).
    pub fn iter(self) -> impl Iterator<Item = HtmId> {
        (self.lo.raw()..=self.hi.raw())
            .map(|r| HtmId::from_raw(r).expect("all raw values inside a valid range are valid IDs"))
    }
}

impl fmt::Debug for HtmRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..={}]", self.lo, self.hi)
    }
}

impl fmt::Display for HtmRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// A normalized set of HTM IDs at one level: sorted, disjoint,
/// non-adjacent inclusive ranges.
///
/// This is the output type of region coverage
/// ([`crate::cover::BatchCoverer`]) and the "bounding box covering all
/// potential regions for cross matching" each workload object carries in
/// the paper. Nearly every such box has one or two ranges, so a set of up
/// to two lives inline and only a wider one owns a heap slice: 32 bytes
/// either way.
#[derive(Clone)]
pub struct HtmRangeSet {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// One range `r` stored as `[r, r]`, or two: a normalized set never
    /// repeats a range, so equal slots mean one.
    Inline([HtmRange; 2]),
    /// The empty set, or three ranges and more.
    Heap(Box<[HtmRange]>),
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<HtmRangeSet>() == 32);

impl HtmRangeSet {
    /// The empty set.
    pub fn empty() -> Self {
        HtmRangeSet {
            repr: Repr::Heap(Box::default()),
        }
    }

    /// Builds a normalized set from arbitrary (possibly overlapping,
    /// unsorted) same-level ranges, normalized in place.
    pub fn from_ranges(mut ranges: Vec<HtmRange>) -> Self {
        let kept = normalize(&mut ranges);
        HtmRangeSet::from_normalized(&ranges[..kept])
    }

    /// Copies out ranges that are already sorted, disjoint and non-adjacent:
    /// inline when there are one or two, else into a slice of exact size.
    pub(crate) fn from_normalized(ranges: &[HtmRange]) -> Self {
        debug_assert!(ranges
            .windows(2)
            .all(|w| w[0].hi().raw() + 1 < w[1].lo().raw()));
        let repr = match *ranges {
            [r] => Repr::Inline([r, r]),
            [a, b] => Repr::Inline([a, b]),
            _ => Repr::Heap(ranges.into()),
        };
        HtmRangeSet { repr }
    }

    /// The normalized ranges, sorted ascending.
    #[inline]
    pub fn ranges(&self) -> &[HtmRange] {
        match &self.repr {
            // Branch-free on purpose: one range or two is a coin flip per
            // workload object, so a test on the count mispredicts.
            Repr::Inline(r) => &r[..1 + (r[0] != r[1]) as usize],
            Repr::Heap(r) => r,
        }
    }

    /// True if the set contains no IDs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranges().is_empty()
    }

    /// Number of ranges (not IDs).
    #[inline]
    pub fn num_ranges(&self) -> usize {
        self.ranges().len()
    }

    /// Total number of IDs across all ranges.
    pub fn len(&self) -> u64 {
        self.ranges().iter().map(|r| r.len()).sum()
    }

    /// The level of the set's IDs, or `None` if empty.
    pub fn level(&self) -> Option<u8> {
        self.ranges().first().map(|r| r.level())
    }

    /// The single range spanning the whole set (its "bounding box" on the
    /// curve), or `None` if empty. This is the `[start, end]` HTM ID pair the
    /// paper attaches to each cross-match object.
    #[inline]
    pub fn bounding_range(&self) -> Option<HtmRange> {
        match &self.repr {
            // `[r, r]` spans `r` too, so no count test here either.
            Repr::Inline([first, last]) => Some(HtmRange {
                lo: first.lo,
                hi: last.hi,
            }),
            Repr::Heap(r) => Some(HtmRange {
                lo: r.first()?.lo,
                hi: r.last()?.hi,
            }),
        }
    }

    /// Membership test by binary search. `O(log n_ranges)`.
    pub fn contains(&self, id: HtmId) -> bool {
        let ranges = self.ranges();
        let i = ranges.partition_point(|r| r.hi() < id);
        ranges.get(i).is_some_and(|r| r.contains(id))
    }

    /// True if any range overlaps `probe`.
    pub fn intersects_range(&self, probe: HtmRange) -> bool {
        let ranges = self.ranges();
        let i = ranges.partition_point(|r| r.hi() < probe.lo());
        ranges.get(i).is_some_and(|r| r.overlaps(probe))
    }

    /// Union of two sets.
    pub fn union(&self, o: &HtmRangeSet) -> HtmRangeSet {
        HtmRangeSet::from_ranges([self.ranges(), o.ranges()].concat())
    }

    /// Intersection of two sets (linear merge).
    pub fn intersect(&self, o: &HtmRangeSet) -> HtmRangeSet {
        let (a, b) = (self.ranges(), o.ranges());
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if let Some(x) = a[i].intersect(b[j]) {
                out.push(x);
            }
            if a[i].hi() < b[j].hi() {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Intersections of normalized inputs are already sorted and disjoint.
        HtmRangeSet::from_normalized(&out)
    }

    /// Iterates over every ID in the set.
    pub fn iter_ids(&self) -> impl Iterator<Item = HtmId> + '_ {
        self.ranges().iter().flat_map(|r| r.iter())
    }
}

impl Default for HtmRangeSet {
    fn default() -> Self {
        HtmRangeSet::empty()
    }
}

impl PartialEq for HtmRangeSet {
    fn eq(&self, o: &HtmRangeSet) -> bool {
        self.ranges() == o.ranges()
    }
}

impl Eq for HtmRangeSet {}

impl Hash for HtmRangeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ranges().hash(state);
    }
}

/// Sorts same-level ranges and merges the overlapping and adjacent ones in
/// place; returns how many ranges (at the front of the slice) remain.
pub(crate) fn normalize(ranges: &mut [HtmRange]) -> usize {
    let Some(first) = ranges.first() else {
        return 0;
    };
    let level = first.level();
    assert!(
        ranges.iter().all(|r| r.level() == level),
        "all ranges in a set must share a level"
    );
    ranges.sort_unstable_by_key(|r| r.lo());
    let mut last = 0;
    for i in 1..ranges.len() {
        let r = ranges[i];
        if ranges[last].touches(r) {
            ranges[last] = HtmRange::new(ranges[last].lo(), ranges[last].hi().max(r.hi()));
        } else {
            last += 1;
            ranges[last] = r;
        }
    }
    last + 1
}

impl fmt::Debug for HtmRangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.ranges()).finish()
    }
}

impl FromIterator<HtmRange> for HtmRangeSet {
    fn from_iter<T: IntoIterator<Item = HtmRange>>(iter: T) -> Self {
        HtmRangeSet::from_ranges(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> HtmId {
        HtmId::from_raw_unchecked(raw)
    }

    /// Re-expresses `r` at a **deeper** level (descendant expansion).
    fn at_level(r: HtmRange, level: u8) -> HtmRange {
        assert!(level >= r.level(), "at_level only deepens ranges");
        HtmRange {
            lo: r.lo.descendant_range(level).lo(),
            hi: r.hi.descendant_range(level).hi(),
        }
    }

    fn rng(lo: u64, hi: u64) -> HtmRange {
        HtmRange::new(id(lo), id(hi))
    }

    // Level-2 IDs occupy 128..=255.
    #[test]
    fn range_basics() {
        let r = rng(130, 140);
        assert_eq!(r.len(), 11);
        assert!(r.contains(id(130)));
        assert!(r.contains(id(140)));
        assert!(!r.contains(id(141)));
        assert_eq!(r.level(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn range_rejects_inverted_bounds() {
        rng(140, 130);
    }

    #[test]
    #[should_panic(expected = "share a level")]
    fn range_rejects_mixed_levels() {
        HtmRange::new(id(8), id(32));
    }

    #[test]
    fn overlap_and_intersection() {
        let a = rng(130, 150);
        let b = rng(145, 160);
        let c = rng(151, 155);
        assert!(a.overlaps(b));
        assert_eq!(a.intersect(b), Some(rng(145, 150)));
        assert!(!a.overlaps(c));
        assert_eq!(a.intersect(c), None);
        // Touching but not overlapping.
        assert!(a.touches(c));
        assert!(!a.touches(rng(152, 155)));
    }

    #[test]
    fn at_level_expands_descendants() {
        let r = HtmRange::singleton(HtmId::root(0)); // S0
        let deep = at_level(r, 2);
        assert_eq!(deep.len(), 16); // 4^2 descendants
        assert_eq!(deep.lo(), HtmId::root(0).descendant_range(2).lo());
    }

    #[test]
    fn set_normalizes_overlaps_and_adjacency() {
        let s = HtmRangeSet::from_ranges(vec![
            rng(140, 150),
            rng(128, 135),
            rng(136, 139), // adjacent to both neighbours -> all merge
            rng(200, 210),
        ]);
        assert_eq!(s.num_ranges(), 2);
        assert_eq!(s.ranges()[0], rng(128, 150));
        assert_eq!(s.ranges()[1], rng(200, 210));
        assert_eq!(s.len(), 23 + 11);
    }

    #[test]
    fn set_membership_binary_search() {
        let s = HtmRangeSet::from_ranges(vec![rng(130, 135), rng(150, 155), rng(170, 170)]);
        for present in [130, 133, 135, 150, 155, 170] {
            assert!(s.contains(id(present)), "{present}");
        }
        for absent in [128, 136, 149, 156, 169, 171, 255] {
            assert!(!s.contains(id(absent)), "{absent}");
        }
    }

    #[test]
    fn set_intersects_range_probe() {
        let s = HtmRangeSet::from_ranges(vec![rng(130, 135), rng(150, 155)]);
        assert!(s.intersects_range(rng(135, 140)));
        assert!(s.intersects_range(rng(136, 151)));
        assert!(!s.intersects_range(rng(136, 149)));
        assert!(!s.intersects_range(rng(200, 255)));
    }

    #[test]
    fn union_and_intersection_algebra() {
        let a = HtmRangeSet::from_ranges(vec![rng(130, 140), rng(160, 170)]);
        let b = HtmRangeSet::from_ranges(vec![rng(135, 165)]);
        let u = a.union(&b);
        assert_eq!(u.ranges(), &[rng(130, 170)]);
        let i = a.intersect(&b);
        assert_eq!(i.ranges(), &[rng(135, 140), rng(160, 165)]);
        // Intersection with empty is empty.
        assert!(a.intersect(&HtmRangeSet::empty()).is_empty());
        assert_eq!(a.union(&HtmRangeSet::empty()), a);
    }

    #[test]
    fn bounding_range_spans_set() {
        let s = HtmRangeSet::from_ranges(vec![rng(130, 135), rng(150, 155)]);
        assert_eq!(s.bounding_range(), Some(rng(130, 155)));
        assert_eq!(HtmRangeSet::empty().bounding_range(), None);
    }

    #[test]
    fn iter_ids_matches_len() {
        let s = HtmRangeSet::from_ranges(vec![rng(130, 132), rng(200, 201)]);
        let ids: Vec<_> = s.iter_ids().collect();
        assert_eq!(ids.len() as u64, s.len());
        assert_eq!(ids[0], id(130));
        assert_eq!(ids[4], id(201));
    }

    #[test]
    fn full_range_covers_level() {
        let f = HtmRange::full(1);
        assert_eq!(f.len(), 32);
        assert_eq!(f.lo().raw(), 32);
        assert_eq!(f.hi().raw(), 63);
    }
}
