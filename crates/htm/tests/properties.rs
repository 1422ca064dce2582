//! Property-based tests for the HTM substrate.

mod reference;

use liferaft_htm::{
    cap::{Cap, CapTrixelRelation},
    cover::BatchCoverer,
    id::HtmId,
    index::{locate, trixel_centers, trixel_of},
    range::{HtmRange, HtmRangeSet},
    trixel::{Trixel, OCTAHEDRON},
    vector::Vec3,
};
use proptest::prelude::*;
use reference::Coverer;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Uniform-ish random point on the sphere via uniform z and azimuth.
fn arb_point() -> impl Strategy<Value = Vec3> {
    (0.0..std::f64::consts::TAU, -1.0..1.0f64).prop_map(|(ra, z)| {
        let dec = z.asin();
        Vec3::from_radec(ra, dec)
    })
}

fn arb_level() -> impl Strategy<Value = u8> {
    0u8..=14
}

/// `n ≤ hi − lo + 1` strictly ascending raw IDs in `[lo, hi]`, one in each
/// of `n` equal sub-spans, jittered by `seed` — the way `VirtualCatalog`
/// places a bucket's rows.
fn stratified(lo: u64, hi: u64, n: u64, seed: u64) -> Vec<HtmId> {
    let span = hi - lo + 1;
    let n = n.min(span);
    (0..n)
        .map(|k| {
            let (sub_lo, sub_hi) = (k * span / n, (k + 1) * span / n);
            // SplitMix64 finalizer over (seed, k).
            let mut h = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            HtmId::from_raw_unchecked(lo + sub_lo + h % (sub_hi - sub_lo))
        })
        .collect()
}

/// The levels the level-order walk is pinned at.
const WALK_LEVELS: [u8; 5] = [0, 1, 5, 12, 20];

/// A strictly ascending ID list at one of [`WALK_LEVELS`]: `kind` 0 is a
/// singleton, 1 every ID of a subtree up to 4 levels high (a dense run), 2
/// stratified slots inside a subtree up to 8 levels high, 3 stratified slots
/// from a first ID in one root face to a last ID 1–7 faces on (so the list
/// spans 2–8 faces).
fn arb_sorted_ids() -> impl Strategy<Value = Vec<HtmId>> {
    (
        (0usize..WALK_LEVELS.len(), 0u8..4),
        arb_point(),
        0u8..=8,
        (0u8..8, 2u8..=8),
        1u64..400,
        0u64..u64::MAX,
    )
        .prop_map(|((l, kind), p, height, (face, faces), n, seed)| {
            let level = WALK_LEVELS[l];
            let id = locate(p, level);
            let subtree = |height: u8| {
                let r = id
                    .ancestor_at(level - height.min(level))
                    .descendant_range(level);
                (r.lo().raw(), r.hi().raw())
            };
            match kind {
                0 => vec![id],
                1 => {
                    let (lo, hi) = subtree(height.min(4));
                    stratified(lo, hi, hi - lo + 1, seed)
                }
                2 => {
                    let (lo, hi) = subtree(height);
                    stratified(lo, hi, n, seed)
                }
                _ => {
                    let first = face % (9 - faces);
                    let last = first + faces - 1;
                    let face_span = HtmId::root(0).descendant_range(level).len();
                    let lo = HtmId::root(first).descendant_range(level).lo().raw();
                    let hi = HtmId::root(last).descendant_range(level).lo().raw();
                    let (lo, hi) = (lo + seed % face_span, hi + (seed >> 32) % face_span);
                    let mut ids = stratified(lo, hi, n, seed);
                    ids.extend([lo, hi].map(HtmId::from_raw_unchecked));
                    ids.sort();
                    ids.dedup();
                    ids
                }
            }
        })
}

/// `p` nudged by `(du, dv)` radians along a tangent basis at `p`.
fn nudged(p: Vec3, du: f64, dv: f64) -> Vec3 {
    let helper = if p.z.abs() < 0.9 {
        Vec3::NORTH
    } else {
        Vec3::new(1.0, 0.0, 0.0)
    };
    let e1 = p.cross(helper).normalized();
    let e2 = p.cross(e1);
    (p + e1.scale(du) + e2.scale(dv)).normalized()
}

/// `lo·(hi/lo)^t`: log-uniform over `[lo, hi]` for uniform `t ∈ [0, 1]`.
fn log_uniform(lo: f64, hi: f64, t: f64) -> f64 {
    (lo.ln() + t * (hi / lo).ln()).exp().clamp(lo, hi)
}

/// One batch for the batch coverer: caps clustered around a hub (tight
/// enough to share deep trixels, radii up to a level-12 trixel), caps
/// scattered over the sphere, and caps on — or a hair off — the octahedron's
/// vertices (both poles among them) and edges, where the root screen must
/// refuse them; radii log-uniform from 1e-6 to π/2 within one batch — or,
/// every other batch, a thousandth of that, down where `Cap` withholds the
/// strict screen and deep trixels are smaller than the containment
/// tolerance.
fn arb_cap_batch() -> impl Strategy<Value = Vec<Cap>> {
    let member = (
        0u8..8,
        arb_point(),
        (-1.0..1.0f64, -1.0..1.0f64),
        0.0..=1.0f64,
        0usize..6,
    );
    (
        arb_point(),
        0.0..=1.0f64,
        proptest::bool::ANY,
        proptest::collection::vec(member, 0..48),
    )
        .prop_map(|(hub, spread, tiny, members)| {
            let spread = log_uniform(1e-6, 0.3, spread);
            let scale = if tiny { 1e-3 } else { 1.0 };
            members
                .into_iter()
                .map(|(kind, p, (du, dv), r, vertex)| {
                    let wide = log_uniform(1e-6, std::f64::consts::FRAC_PI_2, r);
                    let (center, radius) = match kind {
                        0..=2 => (
                            nudged(hub, scale * spread * du, scale * spread * dv),
                            log_uniform(1e-6, 1e-3, r),
                        ),
                        3 => (nudged(hub, spread * du, spread * dv), wide),
                        4 => (p, wide),
                        5 => (OCTAHEDRON[vertex], wide),
                        6 => (nudged(OCTAHEDRON[vertex], 1e-7 * du, 1e-3 * dv), wide),
                        // On an octahedron edge (a coordinate plane), or a
                        // nanoradian to either side of it.
                        _ => {
                            let mut q = [p.x, p.y, p.z];
                            q[vertex % 3] = 0.0;
                            let on_edge = Vec3::new(q[0], q[1], q[2]).normalized();
                            (nudged(on_edge, 0.0, 1e-9 * dv.round()), wide)
                        }
                    };
                    Cap::new(center, scale * radius)
                })
                .collect()
        })
}

/// A batch of small caps (radius 2e-6 to 1e-3) straddling the mesh: each is
/// centered within 1.5 radii of a cut (the arc between two edge midpoints),
/// an edge, or a vertex — a corner or an edge midpoint, shared by up to six
/// trixels — of a trixel at `level`, the trixel holding the hub or a point
/// near it; about half of them exactly one radius off the feature, where
/// the screen must not certify what rounding decides. Covered below `level`,
/// every cut of the trixel is a mesh edge the walk must certify crossings
/// of, or refuse.
fn arb_straddling_batch() -> impl Strategy<Value = (Vec<Cap>, u8)> {
    let member = (
        (0u8..3, 0usize..3, 0.0..1.0f64),
        (-1.5..1.5f64, -1.0..1.0f64, proptest::bool::ANY),
        0.0..=1.0f64,
        proptest::bool::ANY,
    );
    (
        arb_point(),
        6u8..=20,
        proptest::collection::vec(member, 0..24),
    )
        .prop_map(|(hub, level, members)| {
            let home = trixel_of(locate(hub, level));
            let caps = members
                .into_iter()
                .map(|((kind, k, t), (off, along, rim), r, away)| {
                    let radius = log_uniform(2e-6, 1e-3, r);
                    // Now and then a neighbour of the hub's trixel.
                    let near = nudged(hub, off * 1e-3, along * 1e-3);
                    let trixel = if away {
                        trixel_of(locate(near, level))
                    } else {
                        home
                    };
                    let v = *trixel.corners();
                    let w = trixel.midpoints();
                    let (a, b) = match kind {
                        0 => (w[(k + 1) % 3], w[(k + 2) % 3]),
                        1 => (v[k], v[(k + 1) % 3]),
                        _ => (v[k], w[(k + 1) % 3]),
                    };
                    // Off the feature by `off` radii (exactly one on the
                    // rim cases): across its great circle for an arc, in
                    // any direction for a vertex.
                    let off = if rim { off.signum() } else { off } * radius;
                    let center = if kind == 2 {
                        let vertex = if t < 0.5 { a } else { b };
                        let turn = along * std::f64::consts::PI;
                        let (du, dv) = (turn.cos(), turn.sin());
                        nudged(vertex, off * du, off * dv)
                    } else {
                        let on = (a.scale(1.0 - t) + b.scale(t)).normalized();
                        let normal = a.cross(b).normalized();
                        let toward = (normal - on.scale(on.dot(normal))).normalized();
                        (on.scale(off.cos()) + toward.scale(off.sin())).normalized()
                    };
                    Cap::new(center, radius)
                })
                .collect();
            (caps, level)
        })
}

/// The batch coverer's contract at one level and budget: every cap gets the
/// reference coverer's set, inside the documented bound, whatever company
/// and order it is covered in.
fn assert_batch_is_the_reference(caps: &[Cap], level: u8, budget: usize) {
    let reference = Coverer::new(level);
    let mut batch = BatchCoverer::new(level);
    let expected: Vec<HtmRangeSet> = caps
        .iter()
        .map(|cap| reference.cover_bounded(cap, budget))
        .collect();
    let mut cover = |caps: &[Cap]| batch.cover_bounded(caps, budget).collect::<Vec<_>>();
    assert_eq!(cover(caps), expected, "whole batch");
    for (cap, set) in caps.iter().zip(&expected) {
        let roots_touched = Trixel::roots()
            .iter()
            .filter(|root| cap.classify(root) != CapTrixelRelation::Disjoint)
            .count();
        assert!(
            set.num_ranges() <= budget.max(roots_touched),
            "{} ranges from budget {budget}, {roots_touched} roots touched",
            set.num_ranges()
        );
    }
    // Permutation invariance, on the same (now warm) coverer.
    let reversed: Vec<Cap> = caps.iter().rev().copied().collect();
    let mut got = cover(&reversed);
    got.reverse();
    assert_eq!(got, expected, "reversed order");
    // Split invariance: two chunks, and every cap on its own.
    let cut = caps.len() / 3;
    let mut got = cover(&caps[..cut]);
    got.extend(cover(&caps[cut..]));
    assert_eq!(got, expected, "split at {cut}");
    let singly: Vec<HtmRangeSet> = caps
        .iter()
        .flat_map(|cap| cover(std::slice::from_ref(cap)))
        .collect();
    assert_eq!(singly, expected, "one cap per call");
}

#[test]
fn batch_cover_of_no_caps_is_no_sets() {
    assert_batch_is_the_reference(&[], 12, 4);
}

/// A list of 0–8 level-2 ranges drawn so normalization mostly leaves 0–3:
/// each range is tile `s` of one of up to three far-apart clusters, and a
/// tile stretched by 2 is adjacent to the next one and merges with it.
fn arb_range_list() -> impl Strategy<Value = Vec<HtmRange>> {
    (
        1u64..=3,
        proptest::collection::vec((0u64..3, 0u64..4, 0u64..3), 0..=8),
    )
        .prop_map(|(clusters, tiles)| {
            tiles
                .into_iter()
                .map(|(c, s, stretch)| {
                    let lo = 130 + 30 * (c % clusters) + 3 * s;
                    range(lo, lo + stretch)
                })
                .collect()
        })
}

fn range(lo: u64, hi: u64) -> HtmRange {
    HtmRange::new(HtmId::from_raw_unchecked(lo), HtmId::from_raw_unchecked(hi))
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// The raw IDs a list of ranges covers: the model of its set.
fn ids_of(ranges: &[HtmRange]) -> BTreeSet<u64> {
    ranges
        .iter()
        .flat_map(|r| r.lo().raw()..=r.hi().raw())
        .collect()
}

/// The maximal runs of consecutive IDs: the model's normalized ranges.
fn runs(ids: &BTreeSet<u64>) -> Vec<HtmRange> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &id in ids {
        match out.last_mut() {
            Some((_, hi)) if *hi + 1 == id => *hi = id,
            _ => out.push((id, id)),
        }
    }
    out.into_iter().map(|(lo, hi)| range(lo, hi)).collect()
}

/// Every query of `set` agrees with the model `ids`, and `set` equals,
/// hashes and prints as the plain sorted-and-merged list of its ranges.
fn assert_set_is_model(set: &HtmRangeSet, ids: &BTreeSet<u64>) {
    let want = runs(ids);
    assert_eq!(set.ranges(), &want[..]);
    assert_eq!(set.num_ranges(), want.len());
    assert_eq!(set.len(), ids.len() as u64);
    assert_eq!(set.is_empty(), ids.is_empty());
    assert_eq!(set.level(), want.first().map(|_| 2));
    let bounds = ids.first().zip(ids.last());
    assert_eq!(set.bounding_range(), bounds.map(|(&lo, &hi)| range(lo, hi)));
    for raw in 128..=255 {
        let id = HtmId::from_raw_unchecked(raw);
        assert_eq!(set.contains(id), ids.contains(&raw), "contains {raw}");
        for width in [0, 2] {
            let hi = (raw + width).min(255);
            assert_eq!(
                set.intersects_range(range(raw, hi)),
                ids.range(raw..=hi).next().is_some(),
                "intersects [{raw}, {hi}]"
            );
        }
    }
    assert_eq!(*set, HtmRangeSet::from_ranges(want.clone()));
    assert_eq!(hash_of(set), hash_of(&want), "hashes as its range list");
    assert_eq!(format!("{set:?}"), format!("{want:?}"));
}

#[test]
fn range_set_edge_shapes_match_the_model() {
    assert_eq!(HtmRangeSet::empty(), HtmRangeSet::default());
    assert_set_is_model(&HtmRangeSet::default(), &BTreeSet::new());
    // An adjacent pair merges into one range.
    let merged = HtmRangeSet::from_ranges(vec![range(140, 141), range(142, 150)]);
    assert_eq!(merged.num_ranges(), 1);
    assert_set_is_model(&merged, &(140..=150).collect());
    // Two heap sets whose intersection has two ranges.
    let a = HtmRangeSet::from_ranges(vec![range(130, 135), range(140, 145), range(150, 155)]);
    let b = HtmRangeSet::from_ranges(vec![range(133, 141), range(160, 161), range(170, 171)]);
    let both = a.intersect(&b);
    assert_eq!(both.num_ranges(), 2);
    assert_set_is_model(&both, &(133..=135).chain(140..=141).collect());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The range-set algebra against a model of plain ID sets: every
    /// constructor and operation yields the sorted-and-merged runs of the
    /// model's IDs, whichever representation holds them.
    #[test]
    fn range_set_matches_the_model(a in arb_range_list(), b in arb_range_list()) {
        let (ids_a, ids_b) = (ids_of(&a), ids_of(&b));
        let sa = HtmRangeSet::from_ranges(a.clone());
        let sb: HtmRangeSet = b.iter().rev().copied().collect();
        assert_set_is_model(&sa, &ids_a);
        assert_set_is_model(&sb, &ids_b);
        assert_set_is_model(&sa.union(&sb), &ids_a.union(&ids_b).copied().collect());
        assert_set_is_model(
            &sa.intersect(&sb),
            &ids_a.intersection(&ids_b).copied().collect(),
        );
        prop_assert_eq!(sa == sb, ids_a == ids_b);
    }

    /// The batch cover is `Coverer::cover_bounded` per cap, bit for bit, at
    /// every level and budget, for any order or chunking of the caps — and
    /// for caps straddling cuts, edges and vertices at budgets small enough
    /// to bind where up to six trixels meet.
    #[test]
    fn batch_cover_is_the_reference_cover(
        caps in arb_cap_batch(),
        (straddling, at) in arb_straddling_batch(),
    ) {
        for level in [0u8, 6, 12, 29] {
            for budget in [1usize, 4, 16] {
                assert_batch_is_the_reference(&caps, level, budget);
            }
        }
        for level in [at + 1, at + 3] {
            for budget in 1usize..=4 {
                assert_batch_is_the_reference(&straddling, level, budget);
            }
        }
    }

    /// One level-order walk over a sorted ID list reproduces
    /// `trixel_of(id).center()` exactly — `==` on the `f64`s, not a
    /// tolerance.
    #[test]
    fn trixel_centers_are_bit_identical_to_trixel_of(ids in arb_sorted_ids()) {
        let mut got = Vec::new();
        trixel_centers(&ids, &mut got);
        let want: Vec<Vec3> = ids.iter().map(|&id| trixel_of(id).center()).collect();
        prop_assert_eq!(got, want, "{:?}", ids);
    }

    /// locate() always produces an ID at the requested level whose trixel
    /// contains the point.
    #[test]
    fn locate_round_trip(p in arb_point(), level in arb_level()) {
        let id = locate(p, level);
        prop_assert_eq!(id.level(), level);
        prop_assert!(trixel_of(id).contains(p));
    }

    /// The ID at a deeper level refines the ID at a shallower level.
    #[test]
    fn locate_is_hierarchical(p in arb_point(), l1 in 0u8..10, extra in 1u8..5) {
        let l2 = l1 + extra;
        let shallow = locate(p, l1);
        let deep = locate(p, l2);
        prop_assert_eq!(deep.ancestor_at(l1), shallow);
    }

    /// Raw-value validity is exactly characterized by from_raw.
    #[test]
    fn id_raw_round_trip(face in 0u8..8, path in proptest::collection::vec(0u8..4, 0..14)) {
        let mut id = HtmId::root(face);
        for &k in &path {
            id = id.child(k);
        }
        prop_assert_eq!(HtmId::from_raw(id.raw()), Some(id));
        prop_assert_eq!(id.level() as usize, path.len());
        // Reconstruct the path digits.
        for (i, &k) in path.iter().enumerate() {
            prop_assert_eq!(id.path_digit(i as u8 + 1), k);
        }
    }

    /// Descendant ranges nest: the range of a child is inside the parent's.
    #[test]
    fn descendant_ranges_nest(face in 0u8..8, k in 0u8..4, level in 2u8..12) {
        let parent = HtmId::root(face);
        let child = parent.child(k);
        let pr = parent.descendant_range(level);
        let cr = child.descendant_range(level);
        prop_assert!(pr.lo() <= cr.lo() && cr.hi() <= pr.hi());
        prop_assert_eq!(pr.len(), 4 * cr.len());
    }

    /// Range-set normalization: sorted, disjoint, non-adjacent, and
    /// membership agrees with the raw input ranges.
    #[test]
    fn range_set_normalization(
        raws in proptest::collection::vec((128u64..256, 0u64..16), 0..12)
    ) {
        // Level-2 IDs are 128..=255.
        let ranges: Vec<HtmRange> = raws
            .iter()
            .map(|&(lo, len)| {
                let hi = (lo + len).min(255);
                HtmRange::new(
                    HtmId::from_raw_unchecked(lo),
                    HtmId::from_raw_unchecked(hi),
                )
            })
            .collect();
        let set = HtmRangeSet::from_ranges(ranges.clone());
        // Normalized invariants.
        let rs = set.ranges();
        for w in rs.windows(2) {
            prop_assert!(w[0].hi().raw() + 1 < w[1].lo().raw(), "not disjoint/non-adjacent");
        }
        // Membership equivalence.
        for raw in 128u64..256 {
            let id = HtmId::from_raw_unchecked(raw);
            let in_input = ranges.iter().any(|r| r.contains(id));
            prop_assert_eq!(set.contains(id), in_input, "mismatch at {}", raw);
        }
        // Cardinality equals the number of distinct covered IDs.
        let distinct = (128u64..256)
            .filter(|&raw| ranges.iter().any(|r| r.contains(HtmId::from_raw_unchecked(raw))))
            .count() as u64;
        prop_assert_eq!(set.len(), distinct);
    }

    /// Set algebra: union and intersection agree with pointwise semantics.
    #[test]
    fn range_set_algebra(
        a in proptest::collection::vec((128u64..256, 0u64..10), 0..8),
        b in proptest::collection::vec((128u64..256, 0u64..10), 0..8),
    ) {
        let mk = |raws: &[(u64, u64)]| {
            HtmRangeSet::from_ranges(
                raws.iter()
                    .map(|&(lo, len)| {
                        let hi = (lo + len).min(255);
                        HtmRange::new(
                            HtmId::from_raw_unchecked(lo),
                            HtmId::from_raw_unchecked(hi),
                        )
                    })
                    .collect(),
            )
        };
        let sa = mk(&a);
        let sb = mk(&b);
        let u = sa.union(&sb);
        let i = sa.intersect(&sb);
        for raw in 128u64..256 {
            let id = HtmId::from_raw_unchecked(raw);
            prop_assert_eq!(u.contains(id), sa.contains(id) || sb.contains(id));
            prop_assert_eq!(i.contains(id), sa.contains(id) && sb.contains(id));
        }
    }

    /// Cap coverage is complete: points sampled inside the cap always land in
    /// a covered trixel.
    #[test]
    fn cover_completeness(
        p in arb_point(),
        radius in 1e-4..0.2f64,
        frac in 0.0..0.95f64,
        theta in 0.0..std::f64::consts::TAU,
        level in 4u8..12,
    ) {
        let cap = Cap::new(p, radius);
        let cover = Coverer::new(level).cover(&cap);
        // Sample a point at `frac * radius` from the center along bearing theta.
        let (ra0, dec0) = p.to_radec();
        let d = frac * radius;
        let dec = (dec0 + d * theta.sin()).clamp(
            -std::f64::consts::FRAC_PI_2,
            std::f64::consts::FRAC_PI_2,
        );
        let cos_dec = dec0.cos().max(1e-9);
        let sample = Vec3::from_radec(ra0 + d * theta.cos() / cos_dec, dec);
        // Only assert for samples that truly fall inside the cap (the naive
        // tangent-plane offset can overshoot near the poles).
        if cap.contains(sample) {
            prop_assert!(
                cover.contains(locate(sample, level)),
                "point inside cap not covered"
            );
        }
    }

    /// Bounded covers are supersets of exact covers and respect the budget
    /// within the root-count floor.
    #[test]
    fn bounded_cover_superset(
        p in arb_point(),
        radius in 1e-3..0.1f64,
        budget in 1usize..32,
    ) {
        let cap = Cap::new(p, radius);
        let level = 10;
        let exact = Coverer::new(level).cover(&cap);
        let bounded = Coverer::new(level).cover_bounded(&cap, budget);
        for r in exact.ranges() {
            prop_assert!(bounded.intersects_range(*r));
            // Every exact ID must be in the bounded cover: sample endpoints.
            prop_assert!(bounded.contains(r.lo()));
            prop_assert!(bounded.contains(r.hi()));
        }
    }

    /// Neighbouring points map to nearby curve positions more often than
    /// random pairs (statistical locality of the space-filling curve).
    #[test]
    fn curve_locality_statistical(seed_points in proptest::collection::vec(arb_point(), 8)) {
        let level = 10;
        let scale = HtmId::count_at_level(level) as f64;
        let mut near_fracs = Vec::new();
        for p in &seed_points {
            let (ra, dec) = p.to_radec();
            let q = Vec3::from_radec(ra + 1e-4, (dec + 1e-4).min(std::f64::consts::FRAC_PI_2));
            let a = locate(*p, level).curve_position() as f64;
            let b = locate(q, level).curve_position() as f64;
            near_fracs.push((a - b).abs() / scale);
        }
        // Median normalized curve distance of near pairs should be small.
        near_fracs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = near_fracs[near_fracs.len() / 2];
        prop_assert!(median < 0.05, "median curve distance {median} too large");
    }
}
