//! The cross-match query model.

use std::fmt;

use liferaft_htm::{BatchCoverer, Cap, HtmRange, HtmRangeSet, Vec3};

/// Unique identifier of a query within a trace/run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Identity of one fragment — the part of a query one engine is handed —
/// from hand-off to completion. Queued runs, migrated runs and tracker
/// records carry it, so a fragment keeps it when a bucket move splits its
/// work across engines. A driver that hands each query over whole (one
/// fragment per query) files it under the query's trace index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FragmentId(pub u32);

/// Refinement budget of an object's bounding box: a box holds at most
/// `max(BBOX_MAX_RANGES, roots touched)` HTM ranges — the budget stops
/// refinement, but the up-to-8 root trixels a cap touches are kept whatever
/// it says (see [`BatchCoverer::cover_bounded`]).
///
/// The paper attaches a single `[start, end]` pair per object; we keep a few
/// ranges for tighter bucket assignment but cap the count so pre-processing
/// stays cheap. Of the 5.5 M objects of the seed-77 10 000-query
/// `paper_like` trace, 48.9 % need one range, 47.8 % two, 3.2 % three and
/// 0.18 % four: a box of up to two is stored inline in its [`HtmRangeSet`],
/// so only the last two groups own heap memory.
pub const BBOX_MAX_RANGES: usize = 4;

/// One object shipped to this archive to be cross-matched.
///
/// "Included with each object is its mean cartesian coordinate and a range
/// of HTM ID values, which serve as a bounding box covering all potential
/// regions for cross matching" — Section 3.1.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchObject {
    /// Mean position of the observation.
    pub pos: Vec3,
    /// Error-circle radius in radians (match tolerance).
    pub radius: f64,
    /// Conservative HTM cover of the error circle at the partition's object
    /// level — drives bucket assignment. Inline when it has one or two
    /// ranges (≈ 97 % of objects, see [`BBOX_MAX_RANGES`]), so the object is
    /// a flat 64 bytes.
    pub bbox: HtmRangeSet,
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<MatchObject>() == 64);

impl MatchObject {
    /// Builds an object, computing its bounding box at `level` — a batch of
    /// one; [`from_caps`](Self::from_caps) covers a whole list in one walk.
    pub fn new(pos: Vec3, radius: f64, level: u8) -> Self {
        let cap = Cap::new(pos, radius);
        let mut coverer = BatchCoverer::new(level);
        let bbox = coverer.cover_bounded(&[cap], BBOX_MAX_RANGES).next();
        let bbox = bbox.expect("one set per cap");
        MatchObject { pos, radius, bbox }
    }

    /// [`MatchObject::new`] for a whole object list — one per cap, in order,
    /// bit-identical — through one mesh walk of `coverer` (which fixes the
    /// level). The bulk builders (trace generator, trace loader, federation
    /// hops, [`CrossMatchQuery::from_positions`]) call this once per query.
    pub fn from_caps(caps: &[Cap], coverer: &mut BatchCoverer) -> Vec<Self> {
        caps.iter()
            .zip(coverer.cover_bounded(caps, BBOX_MAX_RANGES))
            .map(|(cap, bbox)| MatchObject {
                pos: cap.center(),
                radius: cap.radius(),
                bbox,
            })
            .collect()
    }

    /// [`from_caps`](Self::from_caps) for positions sharing one error
    /// radius: one error circle, moved to each position.
    pub fn at_positions(positions: &[Vec3], radius: f64, coverer: &mut BatchCoverer) -> Vec<Self> {
        let circle = Cap::new(Vec3::NORTH, radius);
        let caps: Vec<Cap> = positions.iter().map(|&p| circle.recentered(p)).collect();
        Self::from_caps(&caps, coverer)
    }

    /// The single `[start, end]` range spanning the bounding box (the
    /// paper's representation).
    pub fn bounding_range(&self) -> HtmRange {
        self.bbox
            .bounding_range()
            .expect("a cap cover is never empty")
    }
}

/// A query-specific predicate applied to catalog objects that succeed in the
/// spatial join ("query specific predicates are applied on the output tuples
/// that succeed in the spatial join", Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Accept every spatial match.
    All,
    /// Accept catalog objects with magnitude in `[min, max)`.
    MagRange {
        /// Inclusive lower bound.
        min: f32,
        /// Exclusive upper bound.
        max: f32,
    },
    /// Accept catalog objects brighter (smaller magnitude) than the bound.
    BrighterThan(
        /// Exclusive magnitude upper bound.
        f32,
    ),
}

impl Predicate {
    /// Evaluates the predicate against a catalog object's magnitude.
    #[inline]
    pub fn accepts_mag(&self, mag: f32) -> bool {
        match *self {
            Predicate::All => true,
            Predicate::MagRange { min, max } => mag >= min && mag < max,
            Predicate::BrighterThan(bound) => mag < bound,
        }
    }
}

/// A cross-match query as received by one archive of the federation.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossMatchQuery {
    /// Query identity.
    pub id: QueryId,
    /// The objects to cross-match against this archive.
    pub objects: Vec<MatchObject>,
    /// Predicate applied to spatially matched catalog objects.
    pub predicate: Predicate,
}

impl CrossMatchQuery {
    /// Creates a query from prepared match objects.
    pub fn new(id: QueryId, objects: Vec<MatchObject>, predicate: Predicate) -> Self {
        CrossMatchQuery {
            id,
            objects,
            predicate,
        }
    }

    /// Convenience: builds a query from raw positions sharing one error
    /// radius, computing bounding boxes at `level`.
    pub fn from_positions(
        id: QueryId,
        positions: &[Vec3],
        radius: f64,
        level: u8,
        predicate: Predicate,
    ) -> Self {
        CrossMatchQuery {
            id,
            objects: MatchObject::at_positions(positions, radius, &mut BatchCoverer::new(level)),
            predicate,
        }
    }

    /// Number of objects to cross-match.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the query carries no work.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_htm::locate;

    const ARCSEC: f64 = std::f64::consts::PI / (180.0 * 3600.0);

    #[test]
    fn match_object_bbox_covers_position() {
        let pos = Vec3::from_radec_deg(33.0, -12.0);
        let o = MatchObject::new(pos, 5.0 * ARCSEC, 12);
        assert!(o.bbox.contains(locate(pos, 12)));
        assert!(o.bbox.num_ranges() <= BBOX_MAX_RANGES.max(8));
        let b = o.bounding_range();
        assert!(b.contains(locate(pos, 12)));
    }

    #[test]
    fn predicate_semantics() {
        assert!(Predicate::All.accepts_mag(99.0));
        let r = Predicate::MagRange {
            min: 15.0,
            max: 20.0,
        };
        assert!(r.accepts_mag(15.0));
        assert!(r.accepts_mag(19.99));
        assert!(!r.accepts_mag(20.0));
        assert!(!r.accepts_mag(14.9));
        let b = Predicate::BrighterThan(18.0);
        assert!(b.accepts_mag(17.0));
        assert!(!b.accepts_mag(18.0));
    }

    #[test]
    fn from_positions_builds_all_objects() {
        let ps: Vec<Vec3> = (0..5)
            .map(|i| Vec3::from_radec_deg(10.0 + i as f64, 5.0))
            .collect();
        let q = CrossMatchQuery::from_positions(QueryId(3), &ps, ARCSEC, 10, Predicate::All);
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        assert_eq!(q.id, QueryId(3));
        for (p, o) in ps.iter().zip(&q.objects) {
            assert_eq!(o.pos, *p);
        }
    }

    #[test]
    fn query_id_display() {
        assert_eq!(QueryId(7).to_string(), "Q7");
    }
}
