//! Point location: mapping unit vectors to HTM IDs and back.

use std::cell::RefCell;

use crate::id::HtmId;
use crate::trixel::{centroid, child_corners, Trixel};
use crate::vector::Vec3;
use crate::MAX_LEVEL;

/// Returns the HTM ID of the trixel containing `p` at the given `level`.
///
/// Walks from the containing octahedron face down the quad-tree, testing the
/// four children at every step. Points on trixel boundaries are claimed by
/// the first child (in HTM child order) whose inclusive containment test
/// passes, which makes the assignment total and deterministic.
///
/// # Panics
/// Panics if `level > MAX_LEVEL` or `p` is not (approximately) unit length.
pub fn locate(p: Vec3, level: u8) -> HtmId {
    locate_trixel(p, level).id()
}

/// Like [`locate`], but returns the full [`Trixel`] (corners included).
pub fn locate_trixel(p: Vec3, level: u8) -> Trixel {
    assert!(
        level <= MAX_LEVEL,
        "level {level} exceeds MAX_LEVEL {MAX_LEVEL}"
    );
    assert!(
        (p.norm() - 1.0).abs() < 1e-6,
        "locate requires a unit vector, |p| = {}",
        p.norm()
    );
    let mut cur = root_containing(p);
    for _ in 0..level {
        cur = descend(cur, p);
    }
    cur
}

/// The root trixel containing `p` (first match in face order for boundary points).
fn root_containing(p: Vec3) -> Trixel {
    for t in &Trixel::roots() {
        if t.contains(p) {
            return *t;
        }
    }
    // Floating-point slop can in principle exclude a point from all eight
    // faces only if it is microscopically off the sphere near an edge; fall
    // back to the face whose center is nearest. This keeps `locate` total.
    Trixel::roots()
        .into_iter()
        .max_by(|a, b| {
            a.center()
                .dot(p)
                .partial_cmp(&b.center().dot(p))
                .expect("dot products are finite")
        })
        .expect("eight roots exist")
}

/// The child of `t` containing `p` (first match in child order).
fn descend(t: Trixel, p: Vec3) -> Trixel {
    let mids = t.midpoints();
    for k in 0..4 {
        let c = t.child_from(k, mids);
        if c.contains(p) {
            return c;
        }
    }
    // Same fallback rationale as `root_containing`: pick the child whose
    // center is closest. Exercised only by adversarial boundary points.
    t.children()
        .into_iter()
        .max_by(|a, b| {
            a.center()
                .dot(p)
                .partial_cmp(&b.center().dot(p))
                .expect("dot products are finite")
        })
        .expect("four children exist")
}

/// Reconstructs the [`Trixel`] (corner geometry) for an HTM ID.
///
/// Replays the two-bit path digits stored in the ID from the root face down.
pub fn trixel_of(id: HtmId) -> Trixel {
    let mut t = Trixel::root(id.root_face());
    for l in 1..=id.level() {
        t = t.child(id.path_digit(l));
    }
    t
}

/// Appends `trixel_of(id).center()` for every ID of `ids`, in order — one
/// level-order walk for the whole list instead of one descent per ID.
///
/// The walk starts at the distinct ancestors of `ids` at the deepest level
/// where there is only one of them (or at level 0 when the list spans root
/// faces), each from [`trixel_of`]. Level by level it derives every distinct
/// ancestor one level down from its parent, across the whole list, with
/// [`Trixel::child`]'s arithmetic, and ends with [`Trixel::center`]'s. So
/// every corner is the value `trixel_of` computes, bit for bit. The gain is
/// latency: one descent is a chain of ~10 dependent normalizations, while
/// the children of one level are independent, so the CPU overlaps them.
///
/// # Panics
/// Panics in debug builds unless `ids` are strictly ascending and all at
/// one level.
pub fn trixel_centers(ids: &[HtmId], out: &mut Vec<Vec3>) {
    let (Some(&first), Some(&last)) = (ids.first(), ids.last()) else {
        return;
    };
    let level = first.level();
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1] && w[1].level() == level),
        "trixel_centers needs strictly ascending IDs at one level"
    );
    // Levels below the last shared one: the highest bit in which the first
    // and last ID differ says how many trailing two-bit digits (or, past
    // them, the root face) the list disagrees on.
    let differing = (u64::BITS - (first.raw() ^ last.raw()).leading_zeros()).div_ceil(2);
    let top = level.saturating_sub(differing as u8);
    // The raw ancestors at level `l`, sorted; a run of equal ones is one
    // trixel. `0` is no trixel's raw ID (roots start at 8), so a scan that
    // starts with `last = 0` sees its first ancestor (and parent) as new.
    let ancestors = |l: u8| ids.iter().map(move |id| id.raw() >> (2 * (level - l)));
    LEVELS.with_borrow_mut(|(corners, next)| {
        // `corners[i]` belongs to the `i`-th distinct ancestor at the level
        // being built.
        corners.clear();
        let mut last = 0;
        for a in ancestors(top) {
            if a != last {
                corners.push(*trixel_of(HtmId::from_raw_unchecked(a)).corners());
                last = a;
            }
        }
        for l in top + 1..=level {
            // Parents arrive in the order of `corners`: step to the next
            // one whenever the parent ID changes.
            next.clear();
            let (mut last, mut parent) = (0, usize::MAX);
            for a in ancestors(l) {
                if a != last {
                    if a >> 2 != last >> 2 {
                        parent = parent.wrapping_add(1);
                    }
                    next.push(child_corners(&corners[parent], (a & 0b11) as u8));
                    last = a;
                }
            }
            std::mem::swap(corners, next);
        }
        out.extend(corners.iter().copied().map(centroid));
    });
}

thread_local! {
    /// [`trixel_centers`]' two levels of corners, kept between calls: a
    /// 1 000-row bucket fills 72 KB a level, and freeing that on every call
    /// let the allocator hand the pages back, to fault them in again on the
    /// next call (14 minor faults a call at the benchmark's catalog shape).
    static LEVELS: RefCell<(Corners, Corners)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// One level of a [`trixel_centers`] walk: the corners of its trixels.
type Corners = Vec<[Vec3; 3]>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trixel_centers_match_trixel_of_across_faces_and_levels() {
        let deep = locate(Vec3::from_radec_deg(123.4, -56.7), 12);
        let runs: [Vec<HtmId>; 5] = [
            vec![],
            vec![deep],
            (0..40)
                .map(|i| HtmId::from_raw_unchecked(deep.raw() + 3 * i))
                .collect(),
            (0..8).map(|f| HtmId::root(f).child(2)).collect(),
            vec![HtmId::first_at_level(12), deep, HtmId::last_at_level(12)],
        ];
        for ids in runs {
            let mut got = vec![Vec3::NORTH]; // appends
            trixel_centers(&ids, &mut got);
            let want: Vec<Vec3> = std::iter::once(Vec3::NORTH)
                .chain(ids.iter().map(|&id| trixel_of(id).center()))
                .collect();
            assert_eq!(got, want, "{ids:?}");
        }
    }

    #[test]
    fn locate_level0_matches_roots() {
        for face in 0..8u8 {
            let t = Trixel::root(face);
            assert_eq!(locate(t.center(), 0), HtmId::root(face));
        }
    }

    #[test]
    fn locate_id_round_trips_through_trixel_of() {
        for &(ra, dec) in &[
            (0.1, 0.1),
            (45.0, 45.0),
            (123.4, -56.7),
            (200.0, 80.0),
            (359.0, -89.0),
            (90.0, 0.5),
        ] {
            let p = Vec3::from_radec_deg(ra, dec);
            for level in [0u8, 1, 5, 10, 14] {
                let id = locate(p, level);
                assert_eq!(id.level(), level);
                let t = trixel_of(id);
                assert_eq!(t.id(), id);
                assert!(t.contains(p), "trixel {id} lost point ({ra}, {dec})");
            }
        }
    }

    #[test]
    fn deeper_ids_refine_shallower_ones() {
        let p = Vec3::from_radec_deg(77.7, -33.3);
        let shallow = locate(p, 6);
        let deep = locate(p, 14);
        assert_eq!(deep.ancestor_at(6), shallow);
    }

    #[test]
    fn nearby_points_share_deep_prefixes() {
        // Spatial locality: two points 0.001° apart agree to a deep level.
        let a = Vec3::from_radec_deg(50.0, 20.0);
        let b = Vec3::from_radec_deg(50.001, 20.0);
        let ia = locate(a, 14);
        let ib = locate(b, 14);
        // They must at least share the level-7 ancestor (trixel edge ~0.4°).
        assert_eq!(ia.ancestor_at(7), ib.ancestor_at(7));
    }

    #[test]
    fn octahedron_vertices_locate_totally() {
        // The worst boundary points: corners shared by four faces.
        for v in crate::trixel::OCTAHEDRON {
            let id = locate(v, 14);
            assert!(trixel_of(id).contains(v));
        }
    }

    #[test]
    fn level14_fits_paper_encoding() {
        let p = Vec3::from_radec_deg(12.3, 4.5);
        let id = locate(p, 14);
        assert!(id.raw() <= u32::MAX as u64, "level-14 IDs are 32-bit");
    }

    #[test]
    #[should_panic(expected = "unit vector")]
    fn locate_rejects_non_unit_vectors() {
        locate(Vec3::new(2.0, 0.0, 0.0), 5);
    }
}
