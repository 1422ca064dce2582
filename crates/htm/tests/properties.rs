//! Property-based tests for the HTM substrate.

use liferaft_htm::{
    cap::Cap,
    cover::Coverer,
    id::HtmId,
    index::{locate, trixel_of, TrixelWalker},
    range::{HtmRange, HtmRangeSet},
    vector::Vec3,
};
use proptest::prelude::*;

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

/// An ID sequence for the walker: a cluster around one deep trixel (curve
/// neighbours at mixed levels, so paths share long prefixes), a few IDs from
/// anywhere on the sphere (so the sequence crosses root faces), and an order
/// — as drawn, sorted, reversed, or every ID twice in a row.
fn arb_id_sequence() -> impl Strategy<Value = Vec<HtmId>> {
    let cluster = (
        arb_point(),
        2u8..=14,
        proptest::collection::vec((0u64..200, 0u8..3), 1..40),
    );
    let strays = proptest::collection::vec((arb_point(), arb_level()), 0..6);
    (cluster, strays, 0u8..4).prop_map(|((center, level, steps), strays, order)| {
        let base = locate(center, level);
        let last = HtmId::last_at_level(level).raw();
        let mut ids: Vec<HtmId> = steps
            .into_iter()
            .map(|(step, up)| {
                let near = HtmId::from_raw_unchecked((base.raw() + step).min(last));
                near.ancestor_at(level - up.min(level))
            })
            .collect();
        for (i, (p, l)) in strays.into_iter().enumerate() {
            ids.insert((i * 7) % (ids.len() + 1), locate(p, l));
        }
        match order {
            0 => {}
            1 => ids.sort(),
            2 => {
                ids.sort();
                ids.reverse();
            }
            _ => ids = ids.iter().flat_map(|&id| [id, id]).collect(),
        }
        ids
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One walker over any ID sequence reproduces `trixel_of` exactly —
    /// corners compared with `==` on the `f64`s, not a tolerance.
    #[test]
    fn walker_is_bit_identical_to_trixel_of(ids in arb_id_sequence()) {
        let mut walker = TrixelWalker::new();
        for id in ids {
            prop_assert_eq!(walker.seek(id), trixel_of(id));
        }
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
