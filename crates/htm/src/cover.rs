//! Region coverage: turning a sky region (spherical cap) into HTM ID ranges.
//!
//! The pre-processor needs, for every cross-match object, "a range of HTM ID
//! values, which serve as a bounding box covering all potential regions for
//! cross matching" (Section 3.1). The coverer walks the mesh from the eight
//! roots, pruning disjoint trixels, emitting whole subtrees for trixels fully
//! inside the region, and recursing on partial overlaps until the target
//! level, where partially-overlapping trixels are included conservatively.

use crate::cap::{Cap, CapTrixelRelation};
use crate::id::HtmId;
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
/// products to be filed under the children the screen certifies it meets.
/// A group of one is walked the same way — what it shares is the level,
/// with every other group's square roots and divisions. A cap that
/// straddles a cut is carried on as a member of each child it meets, so one
/// cap may sit in several groups of a level. A cap leaves the walk where
/// the screen certifies nothing, and finishes with the reference's classify
/// loop resumed from the trixels it was a member of (`refine`).
///
/// # Why each result is the reference's
///
/// The screen (`Cuts::sides`) sorts a cap against a great circle into one
/// of four outcomes, by the distance of its center `c` from the circle:
///
/// - *strictly* on one side: farther than 1.001·radius, a margin of 0.1% of
///   the radius against the ~10⁻¹⁶ relative rounding of either code path
///   ([`Cap`] withholds the screen from radii too small for that to be
///   true), and farther from the circle's plane than the classifier's
///   containment tolerance;
/// - *crossing*: nearer than 0.999·radius, so the circle certainly cuts
///   through the cap (withheld from the same small radii);
/// - the band between the two, which certifies nothing.
///
/// *In the walk*, a cap sits in the group of trixel `T` with every edge
/// circle of `T` either strictly on `T`'s side or crossing it, and at most
/// one crossing — the entry's crossed edge. A root face is what lies inside
/// its three edge circles, so a cap strictly inside all three starts the
/// induction with no crossing. Every child of `T` is bounded by halves of
/// `T`'s edges and by cuts: cut `k` splits corner child `k` (beyond it)
/// from the middle child (inside it), and the middle child is bounded by
/// all three. Each circle keeps its verdict for every trixel it bounds, on
/// the trixel's side, whatever normal measures it (the same circle to a
/// few 10⁻¹⁶, far inside the margins). So for each child, the verdicts on
/// its three edges are known:
///
/// - the cap strictly *beyond* one of them, which is then a cut, is
///   `Disjoint` in the exact classifier: no corner within the cap, the
///   nearest point of any edge circle within reach lies beyond the cut and
///   so off the edge's arc, and the center is beyond the child's own edge on
///   that cut — whose normal is the cut's, or its exact negation — by more
///   than the containment tolerance;
/// - strictly *inside* all three: `Partial` (center inside, no corner in
///   the cap);
/// - crossing exactly one and strictly inside the other two: `Partial`. No
///   corner is in the cap — each lies on an edge the cap is strictly inside
///   — and the point of the crossed circle nearest the center is in the cap,
///   hence strictly inside the other two edges, hence on the crossed edge's
///   arc: the classifier's arc test fires.
///
/// A child whose verdicts are none of these — a band, or two crossed edges
/// meeting at a corner that may lie in the cap — certifies nothing, and the
/// cap leaves the walk. Otherwise the certified children are exactly the
/// reference's `Partial` children of `T` and the rest are `Disjoint`, and
/// each carries the invariant down. No child is ever `Inside`, so the
/// reference's state after a level the walk stood in for is
/// `inside = [], frontier = ` the cap's groups at the next level; the walk
/// counts them per cap (`copies`) and, past `max_ranges`, emits the cap's
/// current groups coarsely — the reference's `break`. A level above the
/// target, the children a cap meets are its cover.
///
/// *In the classify loop*, a child the cap lies strictly on the far side of
/// a cut from — corner child `k` when the cap is strictly inside cut `k`,
/// the middle child when it is strictly beyond any cut — is `Disjoint` by
/// the same argument and is skipped; every other child is put to
/// [`Cap::classify`] itself. The loop resumes from the state the walk
/// certified: `inside = []`, the cap's groups at the level it left.
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
    /// The entries of the level being walked, each a cap index shifted left
    /// by three over [`MULTI`] and [`CROSSED_EDGE`]; every group is one
    /// contiguous run of it.
    entries: Vec<u32>,
    /// The entries of the next level, built group by group.
    next_entries: Vec<u32>,
    /// Per entry of the level: its [`CHILDREN`] word (0: no child).
    kids: Vec<u16>,
    /// The groups of the next level, and those of the level being walked.
    groups: Vec<Group>,
    walking: Vec<Group>,
    /// Per cap meeting more than one child: its copies at the next level so
    /// far.
    copies: Vec<u32>,
    /// Per cap: where it stands in the walk ([`WALKING`] …).
    fate: Vec<u8>,
    /// `(cap, trixel)` for every group of a cap leaving the walk at the
    /// level being walked.
    leaving: Vec<(u32, Trixel)>,
    /// `(cap, range)` for every child a cap in several groups meets above
    /// the target level.
    loose: Vec<(u32, HtmRange)>,
    /// `(cap, group)` for every entry of the level met so far whose cap is
    /// in several groups.
    multis: Vec<(u32, u32)>,
    /// The index in `walking` of the group being walked.
    group_at: u32,
    /// Some cap in several groups left at this level: `leaving` still lacks
    /// them.
    gather: bool,
    /// Raw (unnormalized) ranges of every finished cap, back to back.
    ranges: Vec<HtmRange>,
    /// Where each cap's ranges lie in `ranges`.
    spans: Vec<(usize, usize)>,
    frontier: Vec<Trixel>,
    next: Vec<Trixel>,
    /// Caps of the last call that the classify loop finished.
    refined: usize,
}

/// An entry's flag: its cap is in more than one group of the level.
const MULTI: u32 = 0b100;
/// An entry's crossed edge of its group's trixel (0: none, `e + 1`: the
/// edge opposite corner `e`).
const CROSSED_EDGE: u32 = 0b011;

/// Fates of a cap: still in the walk, …
const WALKING: u8 = 0;
/// … leaving it at this level for the classify loop, …
const REFINE: u8 = 1;
/// … leaving it at this level with its groups as its cover, …
const EMIT: u8 = 2;
/// … covered by the children of its groups above the target level, …
const PLACING: u8 = 3;
/// … or finished.
const GONE: u8 = 4;

/// The caps `entries[lo..hi]`, each certified to meet `t` (see
/// [`BatchCoverer`]).
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
            root_edges: Trixel::roots().map(|t| Cuts::of(*t.corners())),
            entries: Vec::new(),
            next_entries: Vec::new(),
            kids: Vec::new(),
            groups: Vec::new(),
            walking: Vec::new(),
            copies: Vec::new(),
            fate: Vec::new(),
            leaving: Vec::new(),
            loose: Vec::new(),
            multis: Vec::new(),
            group_at: 0,
            gather: false,
            ranges: Vec::new(),
            spans: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            refined: 0,
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
        assert!(caps.len() < 1 << 29, "a batch holds fewer than 2^29 caps");
        let n = caps.len();
        self.ranges.clear();
        self.spans.clear();
        self.spans.resize(n, (0, 0));
        self.copies.clear();
        self.copies.resize(n, 0);
        self.fate.clear();
        self.fate.resize(n, WALKING);
        self.refined = 0;

        // Root stage: the face a center's signs point at, certified by the
        // same screen — anything near an octahedron edge or vertex, or too
        // wide for one face, takes the reference's own root stage instead.
        // `kids` holds each cap's face until the walk takes it over.
        let mut counts = [0; 8];
        self.kids.clear();
        for (i, cap) in caps.iter().enumerate() {
            let c = cap.center();
            let quadrant = match (c.x < 0.0, c.y < 0.0) {
                (false, false) => 0,
                (true, false) => 1,
                (true, true) => 2,
                (false, true) => 3,
            };
            let face = if c.z < 0.0 { quadrant } else { 7 - quadrant };
            if self.root_edges[face].sides(cap) != Cuts::INSIDE_ALL {
                self.kids.push(u16::MAX);
                let start = self.ranges.len();
                self.refine_from_roots(cap, max_ranges);
                self.refined += 1;
                self.spans[i] = (start, self.ranges.len());
            } else if self.level == 0 {
                self.kids.push(u16::MAX);
                self.spans[i] = (self.ranges.len(), self.ranges.len() + 1);
                self.ranges
                    .push(HtmRange::singleton(HtmId::root(face as u8)));
            } else {
                counts[face] += 1;
                self.kids.push(face as u16);
            }
        }
        self.entries.clear();
        for (face, &count) in counts.iter().enumerate() {
            if count > 0 {
                let lo = self.entries.len();
                let filed = self
                    .kids
                    .iter()
                    .enumerate()
                    .filter(|&(_, &f)| f == face as u16);
                self.entries.extend(filed.map(|(i, _)| (i as u32) << 3));
                self.groups.push(Group {
                    t: Trixel::root(face as u8),
                    lo,
                    hi: self.entries.len(),
                });
            }
        }
        self.walk(caps, max_ranges);

        let (ranges, spans) = (&mut self.ranges, &self.spans);
        spans.iter().map(|&(start, end)| {
            let raw = &mut ranges[start..end];
            let kept = normalize(raw);
            HtmRangeSet::from_normalized(&raw[..kept])
        })
    }

    /// Carries `self.groups` down the mesh, level by level, until every cap
    /// has reached the target level or left the walk.
    ///
    /// Breadth-first on purpose: the groups of a level are independent of
    /// each other, so their subdivisions (three square roots and nine
    /// divisions each) overlap instead of queueing behind one another down
    /// a single path — which is what makes a group of one cheap. It is also
    /// what lets a cap in several groups be counted against its budget
    /// level by level, as the reference counts its frontier.
    fn walk(&mut self, caps: &[Cap], max_ranges: usize) {
        let mut level = 0;
        while !self.groups.is_empty() {
            std::mem::swap(&mut self.groups, &mut self.walking);
            self.next_entries.clear();
            self.kids.resize(self.entries.len(), 0);
            let last = level + 1 == self.level;
            for at in 0..self.walking.len() {
                self.group_at = at as u32;
                self.split(caps, max_ranges, last, self.walking[at]);
            }
            if last {
                self.place_loose();
            }
            self.settle(caps, max_ranges, level);
            self.walking.clear();
            std::mem::swap(&mut self.entries, &mut self.next_entries);
            self.copies.fill(0);
            level += 1;
        }
    }

    /// Files the walking caps of `group` under the children of its trixel
    /// the screen certifies they meet — the next level's groups — or sends
    /// them out of the walk.
    fn split(&mut self, caps: &[Cap], max_ranges: usize, last: bool, group: Group) {
        let Group { t, lo, hi } = group;
        let mids = t.midpoints();
        let cuts = Cuts::of(mids);
        // Every entry's word OR-ed and AND-ed (equal when all are the same),
        // and the entries OR-ed: this loop is the walk's hottest, and does
        // nothing else.
        let (mut any, mut all, mut flags) = (0, u32::MAX, 0);
        let run = self.entries[lo..hi].iter();
        for (&entry, slot) in run.zip(&mut self.kids[lo..hi]) {
            let cap = &caps[(entry >> 3) as usize];
            let word = CHILDREN[(entry & CROSSED_EDGE) as usize][cuts.sides(cap)];
            *slot = word as u16;
            any |= word;
            all &= word;
            flags |= entry;
        }
        // Some cap in several groups, refused, or meeting several children:
        // the bookkeeping `account` does.
        let eventful = flags & MULTI != 0 || any & (REFUSED | 0x4444) != 0;
        let (mut any, mut all) = (any as u16, all as u16);
        if eventful {
            (any, all) = self.account(max_ranges, group);
        }
        if any == 0 {
            return;
        }
        if last {
            self.cover_by_children(group);
            return;
        }
        let base = self.next_entries.len();
        let mut counts = [0; 4];
        if any == all && any & 0x4444 == 0 {
            // The whole group to one child: every entry keeps its cap and
            // flag and takes the child's crossed edge.
            let k = first_child(any);
            counts[k & 3] = hi - lo;
            let kid = (any >> (4 * k)) as u32;
            let run = self.entries[lo..hi].iter();
            self.next_entries
                .extend(run.map(|&entry| entry & !CROSSED_EDGE | kid & CROSSED_EDGE));
        } else {
            // A counting sort, an entry to each of its children.
            for &kids in &self.kids[lo..hi] {
                for (k, count) in counts.iter_mut().enumerate() {
                    *count += (kids >> (4 * k + 3) & 1) as usize;
                }
            }
            let mut cursor = [base; 4];
            for k in 1..4 {
                cursor[k] = cursor[k - 1] + counts[k - 1];
            }
            let end = cursor[3] + counts[3];
            if any & 0x4444 == 0 {
                // One child an entry, without a branch on which: an entry
                // that meets none writes to a spare slot past the end.
                self.next_entries.resize(end + 1, 0);
                let cursor = &mut [cursor[0], cursor[1], cursor[2], cursor[3], end];
                for at in lo..hi {
                    let (entry, kids) = (self.entries[at], self.kids[at]);
                    let k = first_child(kids);
                    let kid = (kids as u32) >> (4 * k);
                    self.next_entries[cursor[k]] = entry & !CROSSED_EDGE | kid & CROSSED_EDGE;
                    cursor[k] += (k < 4) as usize;
                }
                self.next_entries.truncate(end);
            } else {
                self.next_entries.resize(end, 0);
                for at in lo..hi {
                    let (entry, kids) = (self.entries[at], self.kids[at]);
                    let mut present = kids & 0x8888;
                    while present != 0 {
                        let k = (present.trailing_zeros() as usize / 4) & 3;
                        let kid = (kids >> (4 * k)) as u32 & (MULTI | CROSSED_EDGE);
                        self.next_entries[cursor[k]] = entry & !CROSSED_EDGE | kid;
                        cursor[k] += 1;
                        present &= present - 1;
                    }
                }
            }
        }
        let mut lo_next = base;
        for (k, &count) in counts.iter().enumerate() {
            if count > 0 {
                self.groups.push(Group {
                    t: t.child_from(k as u8, mids),
                    lo: lo_next,
                    hi: lo_next + count,
                });
                lo_next += count;
            }
        }
    }

    /// The entries of `group` past the screen: counts each cap's copies
    /// where it meets several children or sits in several groups, sends
    /// out of the walk the caps refused or over `max_ranges`, and clears
    /// the words of caps already out. Returns the words OR-ed and AND-ed.
    fn account(&mut self, max_ranges: usize, Group { t, lo, hi }: Group) -> (u16, u16) {
        let (mut any, mut all) = (0, u16::MAX);
        for at in lo..hi {
            let (entry, mut kids) = (self.entries[at], self.kids[at]);
            let (i, multi) = ((entry >> 3) as usize, entry & MULTI != 0);
            if multi {
                self.multis.push((i as u32, self.group_at));
            }
            let mut fate = WALKING;
            if multi && self.fate[i] != WALKING {
                kids = 0;
            } else if kids == 0 {
                fate = REFINE;
            } else if multi || kids & 0x4444 != 0 {
                // A single cap's only group sets its count; one in several
                // adds to it.
                let copies = (kids & 0x8888).count_ones();
                self.copies[i] = copies + if multi { self.copies[i] } else { 0 };
                if self.copies[i] as usize > max_ranges {
                    fate = EMIT;
                    kids = 0;
                }
            }
            if fate != WALKING {
                // `settle` gathers the other groups of a cap in several.
                self.fate[i] = fate;
                if multi {
                    self.gather = true;
                } else {
                    self.leaving.push((i as u32, t));
                }
            }
            self.kids[at] = kids;
            any |= kids;
            all &= kids;
        }
        (any, all)
    }

    /// The level above the target: the children a cap meets are its cover.
    /// A cap in this one group takes them at once; a cap in several waits
    /// in `loose` for [`place_loose`](Self::place_loose).
    fn cover_by_children(&mut self, Group { t, lo, hi }: Group) {
        for at in lo..hi {
            let (entry, kids) = (self.entries[at], self.kids[at]);
            let i = entry >> 3;
            let start = self.ranges.len();
            let mut present = kids & 0x8888;
            while present != 0 {
                let k = present.trailing_zeros() / 4;
                let range = HtmRange::singleton(t.id().child(k as u8));
                if entry & MULTI == 0 {
                    self.ranges.push(range);
                } else {
                    self.loose.push((i, range));
                }
                present &= present - 1;
            }
            if entry & MULTI == 0 && kids != 0 {
                self.spans[i as usize] = (start, self.ranges.len());
            }
        }
    }

    /// Gives each cap still walking in `loose` a run of `ranges` as long as
    /// its copies, the first time it is met, and fills it.
    fn place_loose(&mut self) {
        for &(i, range) in &self.loose {
            let i = i as usize;
            if self.fate[i] == WALKING {
                let start = self.ranges.len();
                self.ranges.resize(start + self.copies[i] as usize, range);
                self.spans[i] = (start, start);
                self.fate[i] = PLACING;
            }
            if self.fate[i] == PLACING {
                self.ranges[self.spans[i].1] = range;
                self.spans[i].1 += 1;
            }
        }
        self.loose.clear();
    }

    /// Finishes the caps that left the walk at `level`, each from all its
    /// groups of the level: the classify loop, or the groups as the cover.
    fn settle(&mut self, caps: &[Cap], max_ranges: usize, level: u8) {
        if std::mem::take(&mut self.gather) {
            for &(i, g) in &self.multis {
                if matches!(self.fate[i as usize], REFINE | EMIT) {
                    self.leaving.push((i, self.walking[g as usize].t));
                }
            }
        }
        self.multis.clear();
        let mut leaving = std::mem::take(&mut self.leaving);
        leaving.sort_unstable_by_key(|&(i, _)| i);
        let mut at = 0;
        while at < leaving.len() {
            let i = leaving[at].0;
            let run = at..at + leaving[at..].iter().take_while(|l| l.0 == i).count();
            at = run.end;
            let i = i as usize;
            let start = self.ranges.len();
            let trixels = leaving[run].iter().map(|&(_, t)| t);
            if self.fate[i] == REFINE {
                self.frontier.clear();
                self.frontier.extend(trixels);
                self.refine(&caps[i], max_ranges, start, level);
                self.refined += 1;
            } else {
                let level = self.level;
                self.ranges
                    .extend(trixels.map(|t| t.id().descendant_range(level)));
            }
            self.spans[i] = (start, self.ranges.len());
            self.fate[i] = GONE;
        }
        leaving.clear();
        self.leaving = leaving;
    }

    /// [`refine`](Self::refine) from the reference's own root stage.
    fn refine_from_roots(&mut self, cap: &Cap, max_ranges: usize) {
        let start = self.ranges.len();
        self.frontier.clear();
        for root in &Trixel::roots() {
            match cap.classify(root) {
                CapTrixelRelation::Disjoint => {}
                CapTrixelRelation::Inside => {
                    self.ranges.push(root.id().descendant_range(self.level));
                }
                CapTrixelRelation::Partial => self.frontier.push(*root),
            }
        }
        self.refine(cap, max_ranges, start, 0);
    }

    /// [`Coverer::cover_bounded`]'s refinement of one cap from the state
    /// `inside = self.ranges[start..], frontier = self.frontier` at
    /// `from_level` to the end, appending the result's raw ranges to
    /// `self.ranges`. The reference's loop, `classify` by `classify`, except
    /// that children the screen certifies `Disjoint` are not put to
    /// `classify` at all.
    fn refine(&mut self, cap: &Cap, max_ranges: usize, start: usize, from_level: u8) {
        let level = self.level;
        for _level in from_level..level {
            self.next.clear();
            for t in &self.frontier {
                let mids = t.midpoints();
                let disjoint = DISJOINT[Cuts::of(mids).sides(cap)];
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
/// screen.
///
/// Built from a trixel's edge midpoints `[w0, w1, w2]` they are the three
/// *cuts* that part the trixel into its children: cut `k` is the middle
/// child's edge facing corner child `k`, oriented so the middle child is on
/// its inner side and corner child `k` beyond it. Built from a trixel's own
/// corners they are its edge circles, circle `e` the edge opposite corner
/// `e`, and the trixel is what lies inside all three.
#[derive(Debug, Clone, Copy)]
struct Cuts {
    /// Plane normals (unnormalized), pointing to the inner side.
    n: [Vec3; 3],
    /// Their squared lengths.
    n2: [f64; 3],
}

/// The square of [`CONTAINS_EPS`], rounded up: `d² >` it implies `|d| >`
/// the tolerance.
const CONTAINS_EPS_SQ: f64 = CONTAINS_EPS * CONTAINS_EPS * (1.0 + 1e-6);

/// [`Cuts::sides`] of one circle: the cap strictly on its inner side, …
const IN: usize = 0b10;
/// … strictly beyond it, …
const BEYOND: usize = 0b11;
/// … crossed by it, …
const CROSS: usize = 0b00;
/// … or in the band between, where the screen certifies nothing.
const BAND: usize = 0b01;

impl Cuts {
    /// [`sides`](Self::sides) of a cap strictly inside all three circles.
    const INSIDE_ALL: usize = IN * 0b01_01_01;

    /// The circles through consecutive pairs of `[w0, w1, w2]`, circle `k`
    /// the one missing `w_k`, with the points counter-clockwise on their
    /// inner sides.
    #[inline]
    fn of([w0, w1, w2]: [Vec3; 3]) -> Self {
        let n = [w1.cross(w2), w2.cross(w0), w0.cross(w1)];
        Cuts {
            n,
            n2: n.map(Vec3::norm_sq),
        }
    }

    /// Where `cap` lies of each circle, two bits per circle `e` at `2e`:
    /// [`IN`] or [`BEYOND`] if the whole cap is *strictly* on one side — its
    /// center farther from the circle than 1.001·radius, and farther from its
    /// plane than the classifier's containment tolerance — [`CROSS`] if the
    /// center is nearer the circle than 0.999·radius, else [`BAND`].
    #[inline]
    fn sides(&self, cap: &Cap) -> usize {
        let c = cap.center();
        let d = self.n.map(|n| n.dot(c));
        let circles = d.iter().zip(&self.n2).enumerate();
        let mut sides = 0;
        for (e, (&d, &n2)) in circles.clone() {
            let strictly = d * d > (cap.strict_screen() * n2).max(CONTAINS_EPS_SQ);
            sides |= ((d < 0.0) as usize | (strictly as usize) << 1) << (2 * e);
        }
        if sides & Cuts::INSIDE_ALL != Cuts::INSIDE_ALL {
            // Most caps clear all three circles; the rest pay for telling a
            // crossing from the band.
            for (e, (&d, &n2)) in circles {
                if sides >> (2 * e) & IN == 0 {
                    let near = if d * d < cap.cross_screen() * n2 {
                        CROSS
                    } else {
                        BAND
                    };
                    sides = sides & !(3 << (2 * e)) | near << (2 * e);
                }
            }
        }
        sides
    }
}

/// By the crossed edge of a walking cap's trixel (0: none, `e + 1`: edge
/// `e`) and [`Cuts::sides`] of the trixel's cuts: the children the cap is
/// certified to meet, four bits per child `k` at `4k` — bit 3 set if the cap
/// meets it, below it the low bits of the cap's entry in the child's group
/// ([`MULTI`] if the cap meets more than one child, and the child's
/// [`CROSSED_EDGE`]) — or [`REFUSED`] if the screen certifies nothing
/// (see [`BatchCoverer`]).
const CHILDREN: [[u32; 64]; 4] = {
    let mut table = [[0; 64]; 4];
    let mut crossed = 0;
    while crossed < 4 {
        let mut sides = 0;
        while sides < 64 {
            table[crossed][sides] = children(crossed, sides);
            sides += 1;
        }
        crossed += 1;
    }
    table
};

/// The first child a [`CHILDREN`] word has, or 4 if none.
#[inline]
fn first_child(kids: u16) -> usize {
    (kids as u32 | 1 << 16).trailing_zeros() as usize / 4
}

/// A circle's verdict from one child's side: the cap strictly on the
/// child's side of it, …
const INSIDE: u8 = 0;
/// … crossed by it, …
const CROSSED: u8 = 1;
/// … or strictly on the far side.
const OUTSIDE: u8 = 2;

/// The verdict of cut `k` in `sides` from the side of a child beyond it
/// (corner child `k`) or inside it (the middle child).
const fn cut_verdict(sides: usize, k: usize, beyond: bool) -> u8 {
    match sides >> (2 * k) & 3 {
        CROSS => CROSSED,
        // IN or BEYOND: a band never gets here.
        side if (side == BEYOND) == beyond => INSIDE,
        _ => OUTSIDE,
    }
}

/// The verdict of the trixel's edge `e` from the side of a child along it,
/// for a cap crossing edge `crossed - 1` (none if 0).
const fn edge_verdict(crossed: usize, e: usize) -> u8 {
    if crossed == e + 1 {
        CROSSED
    } else {
        INSIDE
    }
}

/// A [`CHILDREN`] word of no child, flagged so that an OR of words shows
/// it.
const REFUSED: u32 = 1 << 16;

/// One [`CHILDREN`] word.
const fn children(crossed: usize, sides: usize) -> u32 {
    let mut k = 0;
    while k < 3 {
        if sides >> (2 * k) & 3 == BAND {
            return REFUSED;
        }
        k += 1;
    }
    let mut word = 0;
    let mut k = 0;
    while k < 4 {
        // The child's edges, opposite its corners 0, 1, 2: corner child `k`
        // is (v_k, w_{k+2}, w_{k+1}), bounded by cut `k` and the halves of
        // the trixel's edges `k + 1` and `k + 2`; the middle child is
        // (w0, w1, w2), bounded by the three cuts.
        let edges = if k < 3 {
            [
                cut_verdict(sides, k, true),
                edge_verdict(crossed, (k + 1) % 3),
                edge_verdict(crossed, (k + 2) % 3),
            ]
        } else {
            [
                cut_verdict(sides, 0, false),
                cut_verdict(sides, 1, false),
                cut_verdict(sides, 2, false),
            ]
        };
        let mut own = 0;
        let mut crossings = 0;
        let mut outside = false;
        let mut e = 0;
        while e < 3 {
            match edges[e] {
                OUTSIDE => outside = true,
                CROSSED => {
                    crossings += 1;
                    own = e + 1;
                }
                _ => {}
            }
            e += 1;
        }
        if !outside {
            if crossings > 1 {
                return REFUSED;
            }
            word |= ((8 | own) as u32) << (4 * k);
        }
        k += 1;
    }
    if word.count_ones() > 1 + (word & 0x3333).count_ones() {
        // More than one child: flag the cap's entries as in several groups.
        word |= word >> 1 & 0x4444;
    }
    if word == 0 {
        return REFUSED;
    }
    word
}

/// By [`Cuts::sides`] of a trixel's cuts: bit `k` set if child `k` is
/// certainly disjoint from the cap — corner child `k` when the cap is
/// strictly inside cut `k`, the middle child when it is strictly beyond any.
const DISJOINT: [u8; 64] = {
    let mut table = [0; 64];
    let mut sides = 0;
    while sides < 64 {
        let mut k = 0;
        while k < 3 {
            match sides >> (2 * k) & 3 {
                IN => table[sides] |= 1 << k,
                BEYOND => table[sides] |= 1 << 3,
                _ => {}
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
    fn straddling_caps_stay_in_the_walk() {
        // 300 error circles of 10 arcsec scattered over a 0.04 rad square,
        // covered at level 12: a query's objects in the benchmark's shape.
        // A strict-only screen sends 177 of them (59%) to the classify
        // loop; with certified crossings 28 (9%) go — caps near a mesh
        // vertex, or in the band around a cut. A screen that certified
        // nothing would send all 300.
        let hub = Vec3::from_radec_deg(150.0, 20.0);
        let east = hub.cross(Vec3::NORTH).normalized();
        let north = east.cross(hub);
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut uniform = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let circle = Cap::from_radec_deg(0.0, 0.0, 10.0);
        let caps: Vec<Cap> = (0..300)
            .map(|_| {
                let p = hub + east.scale(0.04 * uniform()) + north.scale(0.04 * uniform());
                circle.recentered(p.normalized())
            })
            .collect();
        let mut batch = BatchCoverer::new(12);
        let got: Vec<HtmRangeSet> = batch.cover_bounded(&caps, 4).collect();
        let reference = Coverer::new(12);
        for (cap, set) in caps.iter().zip(&got) {
            assert_eq!(*set, reference.cover_bounded(cap, 4));
        }
        let share = batch.refined as f64 / caps.len() as f64;
        assert!(
            share < 0.25,
            "{:.0}% of caps reached the classify loop",
            share * 100.0
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
