//! Region coverage: turning a sky region (spherical cap) into HTM ID ranges.
//!
//! The pre-processor needs, for every cross-match object, "a range of HTM ID
//! values, which serve as a bounding box covering all potential regions for
//! cross matching" (Section 3.1). The coverer walks the mesh from the eight
//! roots, pruning disjoint trixels, emitting whole subtrees for trixels fully
//! inside the region, and recursing on partial overlaps until the target
//! level, where partially-overlapping trixels are included conservatively.

use crate::cap::{Cap, CapTrixelRelation};
use crate::range::{normalize, HtmRange, HtmRangeSet};
use crate::trixel::{Trixel, CONTAINS_EPS};
use crate::vector::Vec3;
use crate::MAX_LEVEL;

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

    /// The output level.
    pub fn level(&self) -> u8 {
        self.level
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

/// Covers a whole list of caps — the objects of one cross-match query —
/// in **one** walk of the mesh, each cap's result equal to
/// [`Coverer::cover_bounded`] bit for bit.
///
/// A query's objects are spatially clustered, so their covers descend
/// through the same upper-level trixels. The walk carries the caps down as
/// *groups*, breadth-first: a visited trixel's edge midpoints, and the three
/// *cuts* through them that part it into its children (`Cuts`), are
/// computed once per group, and each cap of the group pays three dot
/// products to be filed under the child the screen certifies it strictly
/// inside. A group of one is walked the same way — what it shares is the
/// level, with every other group's square roots and divisions. A cap leaves
/// the walk at the first trixel where the screen certifies no child, and
/// finishes with the reference's classify loop resumed from that trixel
/// (`refine`).
///
/// # Why each result is the reference's
///
/// The screen (`Cuts::sides`) certifies that a whole cap lies strictly to
/// one side of a great circle: its center `c` farther from the circle than
/// 1.001·radius, a margin of 0.1% of the radius against the ~10⁻¹⁶ relative
/// rounding of either code path ([`Cap`] withholds the screen from radii too
/// small for that to be true), and farther from the circle's plane than the
/// classifier's containment tolerance.
///
/// *In the walk*, every cap of a group is strictly inside the group's
/// trixel `T` — farther than 1.001·radius from everything outside it. A root
/// face is what lies inside its three edge circles, so a cap strictly inside
/// all three starts the induction. Cut `k` of `T` splits corner child `k`
/// (beyond it) from the rest of `T`, and the middle child is what is inside
/// all three cuts; a cap strictly inside `T` and strictly to one side of
/// every cut is therefore strictly inside one child `K`, and the exact
/// classifier must find `K` `Partial` (center inside, corners outside the
/// cap) and every sibling `Disjoint`: no corner within the cap, no edge arc
/// within reach of it, and the center beyond the sibling's own edge on a cut
/// the screen has tested — that edge's normal is the cut's, or its exact
/// negation — by more than the containment tolerance. That is the reference
/// loop's state `inside = [], frontier = [K]`, whoever else is in the group:
/// the walk only ever *stands in* for iterations whose outcome the screen
/// has certified.
///
/// *In the classify loop*, a child the cap lies strictly on the far side of
/// a cut from — corner child `k` when the cap is strictly inside cut `k`,
/// the middle child when it is strictly beyond any cut — is `Disjoint` by
/// the same argument and is skipped; every other child is put to
/// [`Cap::classify`] itself.
///
/// Results are assembled in input order after the walk, from scratch that
/// persists across calls. A set of one or two ranges lives inline in the
/// [`HtmRangeSet`] itself, so the only per-cap allocations are the exact-size
/// slices of the few sets with three ranges or more.
#[derive(Debug, Clone)]
pub struct BatchCoverer {
    level: u8,
    /// The edge circles of the eight root faces.
    root_edges: [Cuts; 8],
    /// Cap indices; the walk partitions the slice in place so every group
    /// is one contiguous run of it.
    order: Vec<u32>,
    /// `order`'s twin during a partition.
    shuffle: Vec<u32>,
    /// The group slot (child or root face, or [`REFUSED`]) of each `order`
    /// entry.
    slots: Vec<u8>,
    /// The groups waiting at the next level, and those of the level being
    /// walked.
    groups: Vec<Group>,
    walking: Vec<Group>,
    /// Caps the screen refused, waiting for the classify loop, with the
    /// trixel they were strictly inside (none: refused at the root stage).
    refused: Vec<(u32, Option<Trixel>)>,
    /// Raw (unnormalized) ranges of every finished cap, back to back.
    ranges: Vec<HtmRange>,
    /// Where each cap's ranges lie in `ranges`.
    spans: Vec<(usize, usize)>,
    frontier: Vec<Trixel>,
    next: Vec<Trixel>,
}

/// The slot of caps the screen certifies no child (or root face) for.
const REFUSED: usize = 8;

/// The caps `order[lo..hi]`, all certified strictly inside `t`.
#[derive(Debug, Clone, Copy)]
struct Group {
    t: Trixel,
    lo: usize,
    hi: usize,
}

impl BatchCoverer {
    /// Creates a batch coverer emitting ranges at the given mesh `level`.
    pub fn new(level: u8) -> Self {
        assert!(level <= MAX_LEVEL, "level {level} exceeds MAX_LEVEL");
        BatchCoverer {
            level,
            root_edges: Trixel::roots().map(|t| Cuts::edges_of(&t)),
            order: Vec::new(),
            shuffle: Vec::new(),
            slots: Vec::new(),
            groups: Vec::new(),
            walking: Vec::new(),
            refused: Vec::new(),
            ranges: Vec::new(),
            spans: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The output level.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// [`Coverer::cover_bounded`] of every cap, in input order — the same
    /// sets, so the same bound: each has at most `max(max_ranges, roots
    /// touched)` ranges. Any order or chunking of the same caps gives each
    /// cap the same set.
    ///
    /// The walk is done when this returns; the iterator normalizes each
    /// cap's ranges in the scratch and copies the set out as it is asked
    /// for, allocating only for a set of three ranges or more.
    pub fn cover_bounded(
        &mut self,
        caps: &[Cap],
        max_ranges: usize,
    ) -> impl ExactSizeIterator<Item = HtmRangeSet> + '_ {
        assert!(max_ranges >= 1, "need at least one range");
        let n = u32::try_from(caps.len()).expect("a batch holds fewer than 2^32 caps");
        self.order.clear();
        self.order.extend(0..n);
        self.shuffle.resize(caps.len(), 0);
        self.slots.clear();
        self.ranges.clear();
        self.spans.clear();
        self.spans.resize(caps.len(), (0, 0));

        // Root stage: the face a center's signs point at, certified by the
        // same screen — anything near an octahedron edge or vertex, or too
        // wide for one face, takes the reference's own root stage instead.
        let mut counts = [0; 9];
        for cap in caps {
            let c = cap.center();
            let quadrant = match (c.x < 0.0, c.y < 0.0) {
                (false, false) => 0,
                (true, false) => 1,
                (true, true) => 2,
                (false, true) => 3,
            };
            let face = if c.z < 0.0 { quadrant } else { 7 - quadrant };
            let sides = self.root_edges[face].sides(c, cap.strict_screen());
            let slot = if sides == Cuts::INSIDE_ALL {
                face
            } else {
                REFUSED
            };
            counts[slot] += 1;
            self.slots.push(slot as u8);
        }
        self.regroup(None, 0, counts, |face| Trixel::root(face as u8));
        self.walk(caps);
        for at in 0..self.refused.len() {
            let (i, from) = self.refused[at];
            let start = self.ranges.len();
            self.refine(&caps[i as usize], max_ranges, from);
            self.spans[i as usize] = (start, self.ranges.len());
        }
        self.refused.clear();

        let (ranges, spans) = (&mut self.ranges, &self.spans);
        spans.iter().map(|&(start, end)| {
            let raw = &mut ranges[start..end];
            let kept = normalize(raw);
            HtmRangeSet::from_normalized(&raw[..kept])
        })
    }

    /// Carries `self.groups` down the mesh, level by level, until every cap
    /// has reached the target level or been refused by the screen.
    ///
    /// Breadth-first on purpose: the groups of a level are independent of
    /// each other, so their subdivisions (three square roots and nine
    /// divisions each) overlap instead of queueing behind one another down
    /// a single path — which is what makes a group of one cheap.
    fn walk(&mut self, caps: &[Cap]) {
        while !self.groups.is_empty() {
            std::mem::swap(&mut self.groups, &mut self.walking);
            for at in 0..self.walking.len() {
                let Group { t, lo, hi } = self.walking[at];
                if t.id().level() == self.level {
                    for at in lo..hi {
                        let i = self.order[at] as usize;
                        self.spans[i] = (self.ranges.len(), self.ranges.len() + 1);
                        self.ranges.push(HtmRange::singleton(t.id()));
                    }
                    continue;
                }
                let mids = t.midpoints();
                let cuts = Cuts::of(mids);
                let mut counts = [0; 9];
                for at in lo..hi {
                    let cap = &caps[self.order[at] as usize];
                    let slot = STRICT_CHILD[cuts.sides(cap.center(), cap.strict_screen())];
                    counts[slot as usize] += 1;
                    self.slots[at] = slot;
                }
                self.regroup(Some(t), lo, counts, |k| t.child_from(k as u8, mids));
            }
            self.walking.clear();
        }
    }

    /// Files the `order` run that starts at `lo` under the slots in `slots`,
    /// `counts[s]` entries in slot `s` (a counting sort through `shuffle`):
    /// each non-empty slot `s` becomes the next level's group at `kid(s)`,
    /// and the [`REFUSED`] caps wait with `from`, the trixel they leave.
    fn regroup(
        &mut self,
        from: Option<Trixel>,
        lo: usize,
        counts: [usize; 9],
        kid: impl Fn(usize) -> Trixel,
    ) {
        let mut bounds = [lo; 10];
        for s in 0..9 {
            bounds[s + 1] = bounds[s] + counts[s];
        }
        let hi = bounds[9];
        // Unless one slot took the whole run, which is sorted as it stands.
        if !counts.contains(&(hi - lo)) {
            let mut cursor = bounds;
            self.shuffle[lo..hi].copy_from_slice(&self.order[lo..hi]);
            for at in lo..hi {
                let to = &mut cursor[self.slots[at] as usize];
                self.order[*to] = self.shuffle[at];
                *to += 1;
            }
        }
        for s in 0..REFUSED {
            if counts[s] > 0 {
                self.groups.push(Group {
                    t: kid(s),
                    lo: bounds[s],
                    hi: bounds[s + 1],
                });
            }
        }
        let refused = self.order[bounds[REFUSED]..hi].iter();
        self.refused.extend(refused.map(|&i| (i, from)));
    }

    /// [`Coverer::cover_bounded`]'s refinement of one cap from the state
    /// `inside = [], frontier = [from]` — or from its root stage — to the
    /// end, appending the result's raw ranges to `self.ranges`. The
    /// reference's loop, `classify` by `classify`, except that children the
    /// screen certifies `Disjoint` are not put to `classify` at all.
    fn refine(&mut self, cap: &Cap, max_ranges: usize, from: Option<Trixel>) {
        let level = self.level;
        let start = self.ranges.len();
        self.frontier.clear();
        let from_level = match from {
            Some(t) => {
                self.frontier.push(t);
                t.id().level()
            }
            None => {
                for root in &Trixel::roots() {
                    match cap.classify(root) {
                        CapTrixelRelation::Disjoint => {}
                        CapTrixelRelation::Inside => {
                            self.ranges.push(root.id().descendant_range(level));
                        }
                        CapTrixelRelation::Partial => self.frontier.push(*root),
                    }
                }
                0
            }
        };
        for _level in from_level..level {
            self.next.clear();
            for t in &self.frontier {
                let mids = t.midpoints();
                let disjoint = DISJOINT[Cuts::of(mids).sides(cap.center(), cap.strict_screen())];
                for k in 0..4 {
                    if disjoint >> k & 1 == 1 {
                        continue;
                    }
                    let c = t.child_from(k, mids);
                    match cap.classify(&c) {
                        CapTrixelRelation::Disjoint => {}
                        CapTrixelRelation::Inside => {
                            self.ranges.push(c.id().descendant_range(level));
                        }
                        CapTrixelRelation::Partial => self.next.push(c),
                    }
                }
            }
            if self.ranges.len() - start + self.next.len() > max_ranges {
                break;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        let frontier = self.frontier.iter();
        self.ranges
            .extend(frontier.map(|t| t.id().descendant_range(level)));
    }
}

/// Three great circles and a cap's place among them — the whole of the
/// strict screen.
///
/// Built from a trixel's edge midpoints ([`Cuts::of`]) they are the three
/// *cuts* that part the trixel into its children: cut `k` is the middle
/// child's edge facing corner child `k`, oriented so the middle child is on
/// its inner side and corner child `k` beyond it. Built from a trixel's own
/// edges ([`Cuts::edges_of`]) the trixel is what lies inside all three.
#[derive(Debug, Clone, Copy)]
struct Cuts {
    /// Plane normals (unnormalized), pointing to the inner side.
    n: [Vec3; 3],
    /// Their squared lengths.
    n2: [f64; 3],
}

impl Cuts {
    /// [`sides`](Self::sides) of a cap strictly inside all three circles.
    const INSIDE_ALL: usize = 0b10_10_10;

    fn new(n: [Vec3; 3]) -> Self {
        Cuts {
            n,
            n2: n.map(Vec3::norm_sq),
        }
    }

    /// The cuts between the children of the trixel with edge midpoints
    /// `[w0, w1, w2]`.
    #[inline]
    fn of([w0, w1, w2]: [Vec3; 3]) -> Self {
        Cuts::new([w1.cross(w2), w2.cross(w0), w0.cross(w1)])
    }

    /// The edge circles of `t` itself (corners are counter-clockwise, so the
    /// trixel is on the inner side of each).
    fn edges_of(t: &Trixel) -> Self {
        let [a, b, d] = *t.corners();
        Cuts::new([a.cross(b), b.cross(d), d.cross(a)])
    }

    /// Where the cap around `c` lies of each circle, two bits per circle
    /// `e` at `2e`: bit 0 set if `c` is beyond it, bit 1 set if the whole
    /// cap is *strictly* on `c`'s side — `c` farther from the circle than
    /// 1.001·radius (`screen` being sin²(1.001·radius)), and farther from
    /// its plane than the classifier's containment tolerance.
    #[inline]
    fn sides(&self, c: Vec3, screen: f64) -> usize {
        let mut sides = 0;
        for e in 0..3 {
            let d = self.n[e].dot(c);
            let strictly = d * d > screen * self.n2[e] && d.abs() > CONTAINS_EPS;
            sides |= ((d < 0.0) as usize | (strictly as usize) << 1) << (2 * e);
        }
        sides
    }
}

/// By [`Cuts::sides`] of a trixel's cuts: the child a cap already strictly
/// inside the trixel lies strictly inside — strictly beyond cut `k` and
/// strictly inside the other two is corner child `k`, strictly inside all
/// three is the middle child 3 — or [`REFUSED`] if the screen certifies
/// none.
const STRICT_CHILD: [u8; 64] = {
    let mut table = [REFUSED as u8; 64];
    table[Cuts::INSIDE_ALL] = 3;
    table[Cuts::INSIDE_ALL | 0b00_00_01] = 0;
    table[Cuts::INSIDE_ALL | 0b00_01_00] = 1;
    table[Cuts::INSIDE_ALL | 0b01_00_00] = 2;
    table
};

/// By [`Cuts::sides`] of a trixel's cuts: bit `k` set if child `k` is
/// certainly disjoint from the cap — corner child `k` when the cap is
/// strictly inside cut `k`, the middle child when it is strictly beyond any.
const DISJOINT: [u8; 64] = {
    let mut table = [0; 64];
    let mut sides = 0;
    while sides < 64 {
        let mut k = 0;
        while k < 3 {
            let (beyond, strictly) = (sides >> (2 * k) & 1 == 1, sides >> (2 * k + 1) & 1 == 1);
            if strictly {
                table[sides] |= if beyond { 1 << 3 } else { 1 << k };
            }
            k += 1;
        }
        sides += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::HtmId;
    use crate::index::locate;
    use crate::vector::Vec3;

    #[test]
    fn cover_contains_cap_center() {
        let cap = Cap::from_radec_deg(12.0, 34.0, 60.0);
        let cover = Coverer::new(10).cover(&cap);
        assert!(cover.contains(locate(cap.center(), 10)));
    }

    #[test]
    fn cover_is_complete_for_boundary_samples() {
        // Points on (just inside) the cap rim must be covered.
        let center = Vec3::from_radec_deg(200.0, -10.0);
        let radius = 0.01; // ~34 arcmin
        let cap = Cap::new(center, radius);
        let cover = Coverer::new(12).cover(&cap);
        // March around the rim at 0.999 of the radius.
        let (ra0, dec0) = center.to_radec();
        for k in 0..36 {
            let theta = k as f64 * std::f64::consts::TAU / 36.0;
            let p = Vec3::from_radec(
                ra0 + 0.999 * radius * theta.cos() / dec0.cos(),
                dec0 + 0.999 * radius * theta.sin(),
            );
            assert!(cap.contains(p), "sample {k} escaped the cap");
            assert!(cover.contains(locate(p, 12)), "sample {k} not covered");
        }
    }

    #[test]
    fn cover_excludes_far_away_ids() {
        let cap = Cap::from_radec_deg(10.0, 10.0, 10.0);
        let cover = Coverer::new(10).cover(&cap);
        let far = locate(Vec3::from_radec_deg(190.0, -10.0), 10);
        assert!(!cover.contains(far));
    }

    #[test]
    fn tiny_cap_covers_few_trixels() {
        // A 1-arcsecond error circle at level 14 touches at most a handful
        // of trixels (typically 1–4 around a corner).
        let cap = Cap::from_radec_deg(123.0, 45.0, 1.0);
        let cover = Coverer::new(14).cover(&cap);
        assert!(
            cover.len() <= 8,
            "cover unexpectedly large: {}",
            cover.len()
        );
        assert!(!cover.is_empty());
    }

    #[test]
    fn cover_area_is_sane() {
        // The summed real area of covered trixels must contain the cap and
        // exceed it only by a thin boundary ring (HTM trixels are not
        // equal-area, so the average-area estimate is useless here).
        let cap = Cap::new(Vec3::from_radec_deg(80.0, 40.0), 0.02);
        let level = 12;
        let cover = Coverer::new(level).cover(&cap);
        let covered: f64 = cover
            .iter_ids()
            .map(|i| crate::index::trixel_of(i).area())
            .sum();
        assert!(covered >= cap.area(), "cover must not undershoot");
        assert!(
            covered < cap.area() * 1.5,
            "cover overshoots: {covered} vs cap {}",
            cap.area()
        );
    }

    #[test]
    fn bounded_cover_is_superset_of_exact_cover() {
        let cap = Cap::new(Vec3::from_radec_deg(45.0, -20.0), 0.05);
        let exact = Coverer::new(12).cover(&cap);
        for budget in [1, 2, 4, 16, 64] {
            let bounded = Coverer::new(12).cover_bounded(&cap, budget);
            assert!(
                bounded.num_ranges() <= budget.max(8),
                "budget {budget} violated"
            );
            // Superset check: every exact range is inside the bounded set.
            for id in exact.iter_ids().take(500) {
                assert!(bounded.contains(id), "budget {budget} dropped {id}");
            }
        }
    }

    #[test]
    fn bounded_cover_with_large_budget_matches_exact() {
        let cap = Cap::new(Vec3::from_radec_deg(300.0, 5.0), 0.01);
        let exact = Coverer::new(10).cover(&cap);
        let bounded = Coverer::new(10).cover_bounded(&cap, 10_000);
        assert_eq!(exact, bounded);
    }

    #[test]
    fn strict_screen_is_withheld_below_its_radius_floor() {
        // Found by fuzzing with the floor at 0: at this radius a point 0.1%
        // outside the cap is within rounding of `cos r`, and the classifier
        // keeps a trixel the screen would have certified disjoint.
        let center = Vec3::new(-0.6733938894558981, -0.687222119912199, 0.2725186737580407);
        let cap = Cap::new(center, 1.2621673275489893e-7);
        for budget in [4, 64] {
            assert_eq!(
                BatchCoverer::new(29)
                    .cover_bounded(&[cap], budget)
                    .collect::<Vec<_>>(),
                [Coverer::new(29).cover_bounded(&cap, budget)],
            );
        }
    }

    #[test]
    fn strict_screen_respects_the_containment_tolerance() {
        // Level-24 trixels are ~10⁻⁷ across: a cap 1.001 radii clear of one
        // still has its center within `CONTAINS_EPS` of the trixel's edge
        // planes, which the classifier calls `Partial`.
        let center = Vec3::from_radec(3.583913211391388, 0.3024332705596852);
        let cap = Cap::new(center, 2.6573517570293907e-6);
        assert_eq!(
            BatchCoverer::new(24)
                .cover_bounded(&[cap], 3000)
                .collect::<Vec<_>>(),
            [Coverer::new(24).cover_bounded(&cap, 3000)],
        );
    }

    #[test]
    fn hemisphere_cover_is_half_the_sphere() {
        let cap = Cap::new(Vec3::NORTH, std::f64::consts::FRAC_PI_2);
        let cover = Coverer::new(6).cover(&cap);
        let total = HtmId::count_at_level(6);
        // Exactly half the trixels are strictly north; boundary trixels of the
        // equator are included conservatively.
        assert!(cover.len() >= total / 2);
        assert!(cover.len() < total * 6 / 10);
    }
}
