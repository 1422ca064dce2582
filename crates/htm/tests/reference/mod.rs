//! The per-cap reference coverer, shared by htm's integration tests (as
//! `mod reference`), its unit tests (through `#[path]`) and the tests of
//! crates that hold a cover to it. It walks the mesh one cap at a time with
//! [`Cap::classify`] at every trixel — the straightforward reading of
//! Section 3.1's bounding box that `BatchCoverer` must reproduce bit for
//! bit.

use liferaft_htm::cap::{Cap, CapTrixelRelation};
use liferaft_htm::{HtmRange, HtmRangeSet, Trixel, MAX_LEVEL};

/// Computes conservative HTM coverages of sky regions at a fixed level.
#[derive(Debug, Clone, Copy)]
pub struct Coverer {
    level: u8,
}

impl Coverer {
    /// Creates a coverer emitting ranges at the given mesh `level`.
    pub fn new(level: u8) -> Self {
        assert!(level <= MAX_LEVEL, "level {level} exceeds MAX_LEVEL");
        Coverer { level }
    }

    /// Covers a spherical cap: returns the normalized set of level-`level`
    /// IDs whose trixels (possibly) intersect the cap.
    ///
    /// The cover is **complete** (every point of the cap lies in some covered
    /// trixel) and conservative (it may include trixels that only graze the
    /// cap boundary).
    pub fn cover(&self, cap: &Cap) -> HtmRangeSet {
        let mut ranges = Vec::new();
        for root in &Trixel::roots() {
            self.visit(cap, root, &mut ranges);
        }
        HtmRangeSet::from_ranges(ranges)
    }

    fn visit(&self, cap: &Cap, t: &Trixel, out: &mut Vec<HtmRange>) {
        match cap.classify(t) {
            CapTrixelRelation::Disjoint => {}
            CapTrixelRelation::Inside => {
                out.push(t.id().descendant_range(self.level));
            }
            CapTrixelRelation::Partial => {
                if t.id().level() == self.level {
                    out.push(HtmRange::singleton(t.id()));
                } else {
                    for c in &t.children() {
                        self.visit(cap, c, out);
                    }
                }
            }
        }
    }

    /// Covers the cap but stops refining before the cover would exceed
    /// `max_ranges` ranges, re-expressing coarse trixels as deep ranges.
    ///
    /// The result has at most `max(max_ranges, roots touched)` ranges: the
    /// budget decides whether to refine *further*, so the root stage — up to
    /// 8 trixels for a cap on an octahedron vertex — is kept whatever the
    /// budget says.
    ///
    /// Buckets only need *approximate* pruning; capping the range count keeps
    /// per-object bounding boxes small, trading a looser cover for less
    /// pre-processing work — the same reason the paper uses a single
    /// `[start, end]` pair per object.
    pub fn cover_bounded(&self, cap: &Cap, max_ranges: usize) -> HtmRangeSet {
        assert!(max_ranges >= 1, "need at least one range");
        // Breadth-first refinement: refine the frontier level by level and
        // stop when the next refinement would exceed the budget.
        let mut frontier: Vec<Trixel> = Vec::new();
        let mut inside: Vec<HtmRange> = Vec::new();
        for root in &Trixel::roots() {
            match cap.classify(root) {
                CapTrixelRelation::Disjoint => {}
                CapTrixelRelation::Inside => inside.push(root.id().descendant_range(self.level)),
                CapTrixelRelation::Partial => frontier.push(*root),
            }
        }
        // Double-buffered refinement: `next` is reused across levels, so a
        // cover performs a constant number of allocations regardless of
        // depth (this runs once per cross-match object — it is the fixture
        // builder's hot loop).
        let mut next: Vec<Trixel> = Vec::new();
        for _level in 0..self.level {
            next.clear();
            for t in &frontier {
                // By reference: a by-value array iterator yields an
                // `Option<Trixel>` whose `None` sits in the id's niche, and
                // the compiler then stops unrolling this loop (a quarter
                // slower per cover).
                for c in &t.children() {
                    match cap.classify(c) {
                        CapTrixelRelation::Disjoint => {}
                        CapTrixelRelation::Inside => {
                            inside.push(c.id().descendant_range(self.level));
                        }
                        CapTrixelRelation::Partial => next.push(*c),
                    }
                }
            }
            if inside.len() + next.len() > max_ranges {
                // Refining further would blow the budget: emit the current
                // frontier coarsely and stop.
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        let mut ranges = inside;
        ranges.extend(frontier.iter().map(|t| t.id().descendant_range(self.level)));
        HtmRangeSet::from_ranges(ranges)
    }
}
