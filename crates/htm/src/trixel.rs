//! Spherical triangles ("trixels") of the mesh and their geometry.

use crate::id::HtmId;
use crate::vector::Vec3;

/// Tolerance for boundary containment tests.
///
/// Points that lie numerically *on* a trixel edge must be claimed by at least
/// one adjacent trixel; the slack makes `contains` err on the inclusive side
/// so coverage tests remain complete. `locate` resolves the resulting
/// ambiguity deterministically by taking the first matching child.
pub const CONTAINS_EPS: f64 = 1e-12;

/// A spherical triangle of the HTM, defined by three corner unit vectors in
/// counter-clockwise order (seen from outside the sphere).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trixel {
    id: HtmId,
    corners: [Vec3; 3],
}

/// The octahedron vertices used to seed the mesh, in the conventional HTM
/// order `v0..v5`.
pub const OCTAHEDRON: [Vec3; 6] = [
    Vec3::new(0.0, 0.0, 1.0),  // v0: north pole
    Vec3::new(1.0, 0.0, 0.0),  // v1: RA 0
    Vec3::new(0.0, 1.0, 0.0),  // v2: RA 90
    Vec3::new(-1.0, 0.0, 0.0), // v3: RA 180
    Vec3::new(0.0, -1.0, 0.0), // v4: RA 270
    Vec3::new(0.0, 0.0, -1.0), // v5: south pole
];

/// Corner assignments of the eight root trixels (indices into [`OCTAHEDRON`]),
/// in the conventional S0..S3, N0..N3 order matching [`HtmId::root`].
const ROOT_CORNERS: [[usize; 3]; 8] = [
    [1, 5, 2], // S0
    [2, 5, 3], // S1
    [3, 5, 4], // S2
    [4, 5, 1], // S3
    [1, 0, 4], // N0
    [4, 0, 3], // N1
    [3, 0, 2], // N2
    [2, 0, 1], // N3
];

impl Trixel {
    /// The root trixel for octahedron face `face ∈ 0..8`.
    pub fn root(face: u8) -> Self {
        let idx = ROOT_CORNERS[face as usize];
        Trixel {
            id: HtmId::root(face),
            corners: [OCTAHEDRON[idx[0]], OCTAHEDRON[idx[1]], OCTAHEDRON[idx[2]]],
        }
    }

    /// All eight root trixels (cached — region covers fetch these once per
    /// covered object).
    pub fn roots() -> [Trixel; 8] {
        static ROOTS: std::sync::OnceLock<[Trixel; 8]> = std::sync::OnceLock::new();
        *ROOTS.get_or_init(|| std::array::from_fn(|f| Trixel::root(f as u8)))
    }

    /// This trixel's identifier.
    #[inline]
    pub fn id(&self) -> HtmId {
        self.id
    }

    /// The three corner unit vectors (counter-clockwise).
    #[inline]
    pub fn corners(&self) -> &[Vec3; 3] {
        &self.corners
    }

    /// The normalized centroid of the corners — a representative interior point.
    pub fn center(&self) -> Vec3 {
        centroid(self.corners)
    }

    /// The normalized edge midpoints `[w0, w1, w2]` of the HTM midpoint
    /// rule: `w0 = mid(v1,v2)`, `w1 = mid(v0,v2)`, `w2 = mid(v0,v1)`.
    #[inline]
    pub fn midpoints(&self) -> [Vec3; 3] {
        let [v0, v1, v2] = self.corners;
        [v1.midpoint(v2), v0.midpoint(v2), v0.midpoint(v1)]
    }

    /// Child `k ∈ 0..4` built from this trixel's already-computed
    /// [`midpoints`](Self::midpoints) — for callers that look at the
    /// midpoints before they know which child they want.
    ///
    /// # Panics
    /// Panics if `k > 3`.
    #[inline]
    pub fn child_from(&self, k: u8, [w0, w1, w2]: [Vec3; 3]) -> Trixel {
        // Corners of child `k` as indices into (v0, v1, v2, w0, w1, w2): a
        // table, not a `match`, so choosing a child is a load, not a branch.
        const CORNERS: [[usize; 3]; 4] = [[0, 5, 4], [1, 3, 5], [2, 4, 3], [3, 4, 5]];
        let [v0, v1, v2] = self.corners;
        let points = [v0, v1, v2, w0, w1, w2];
        Trixel {
            id: self.id.child(k),
            corners: CORNERS[k as usize].map(|p| points[p]),
        }
    }

    /// Splits into the four child trixels using the HTM midpoint rule.
    ///
    /// With corners `(v0, v1, v2)` and edge [`midpoints`](Self::midpoints)
    /// `(w0, w1, w2)`, the children are numbered `0:(v0,w2,w1)`,
    /// `1:(v1,w0,w2)`, `2:(v2,w1,w0)`, `3:(w0,w1,w2)` — the ordering that
    /// defines the HTM space-filling curve.
    pub fn children(&self) -> [Trixel; 4] {
        let w = self.midpoints();
        [0, 1, 2, 3].map(|k| self.child_from(k, w))
    }

    /// The child with index `k ∈ 0..4` — [`children`](Self::children)`()[k]`
    /// bit for bit, computing only the midpoints that child uses (two for a
    /// corner child, three for the middle one).
    ///
    /// # Panics
    /// Panics if `k > 3`.
    pub fn child(&self, k: u8) -> Trixel {
        Trixel {
            id: self.id.child(k),
            corners: child_corners(&self.corners, k),
        }
    }

    /// True if the unit vector lies inside this trixel (inclusive of edges,
    /// within [`CONTAINS_EPS`] tolerance).
    ///
    /// A point is inside a spherical triangle with counter-clockwise corners
    /// iff it is on the positive side of all three edge great-circles, i.e.
    /// `(vi × vj) · p ≥ 0` for consecutive corner pairs.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        let [a, b, c] = self.corners;
        a.cross(b).dot(p) >= -CONTAINS_EPS
            && b.cross(c).dot(p) >= -CONTAINS_EPS
            && c.cross(a).dot(p) >= -CONTAINS_EPS
    }

    /// Solid angle of the trixel, in steradians (Van Oosterom–Strackee).
    pub fn area(&self) -> f64 {
        let [a, b, c] = self.corners;
        let num = a.dot(b.cross(c)).abs();
        let den = 1.0 + a.dot(b) + b.dot(c) + c.dot(a);
        2.0 * num.atan2(den)
    }
}

/// [`Trixel::center`] of the trixel with these corners.
#[inline]
pub(crate) fn centroid([v0, v1, v2]: [Vec3; 3]) -> Vec3 {
    (v0 + v1 + v2).normalized()
}

/// The corners of [`Trixel::child`]`(k)` of the trixel with corners `v`.
///
/// Corner child `k < 3` is `(v[k], mid(v[k], v[k+1]), mid(v[k], v[k+2]))`,
/// indices mod 3. Loading its inputs by index leaves one branch, `k == 3`,
/// where a four-way `match` on `k` mispredicts on most children of a
/// [`trixel_centers`](crate::trixel_centers) walk. `a + b` and `b + a` are
/// the same `f64`s, so every midpoint is bit for bit the one
/// [`Trixel::midpoints`] computes.
///
/// # Panics
/// Panics if `k > 3`.
#[inline]
pub(crate) fn child_corners(v: &[Vec3; 3], k: u8) -> [Vec3; 3] {
    const NEXT: [usize; 3] = [1, 2, 0];
    const PREV: [usize; 3] = [2, 0, 1];
    if k == 3 {
        let [v0, v1, v2] = *v;
        return [v1.midpoint(v2), v0.midpoint(v2), v0.midpoint(v1)];
    }
    let k = k as usize;
    let a = v[k];
    [a, a.midpoint(v[NEXT[k]]), a.midpoint(v[PREV[k]])]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// Strict interior test (no boundary tolerance).
    fn contains_strict(t: &Trixel, p: Vec3) -> bool {
        let [a, b, c] = t.corners;
        a.cross(b).dot(p) > CONTAINS_EPS
            && b.cross(c).dot(p) > CONTAINS_EPS
            && c.cross(a).dot(p) > CONTAINS_EPS
    }

    #[test]
    fn roots_tile_the_sphere() {
        let total: f64 = Trixel::roots().iter().map(Trixel::area).sum();
        assert!((total - 4.0 * PI).abs() < 1e-9, "total area {total}");
    }

    #[test]
    fn roots_have_ccw_orientation() {
        // CCW corners seen from outside means each root contains its center.
        for t in Trixel::roots() {
            assert!(
                t.contains(t.center()),
                "{:?} does not contain center",
                t.id()
            );
            assert!(contains_strict(&t, t.center()));
        }
    }

    #[test]
    fn children_partition_parent_area() {
        let t = Trixel::root(5);
        let child_area: f64 = t.children().iter().map(Trixel::area).sum();
        assert!((child_area - t.area()).abs() < 1e-9);
    }

    #[test]
    fn child_is_bit_identical_to_children() {
        // Every trixel of one face down to level 6, every child index, `==`
        // on the corner `f64`s: `child` must not drift from `children`.
        let mut frontier = vec![Trixel::root(3)];
        for _level in 0..=6 {
            let mut next = Vec::with_capacity(frontier.len() * 4);
            for t in &frontier {
                let all = t.children();
                for k in 0..4u8 {
                    assert_eq!(t.child(k), all[k as usize], "{:?} child {k}", t.id());
                }
                next.extend(all);
            }
            frontier = next;
        }
    }

    #[test]
    fn children_lie_within_parent() {
        let t = Trixel::root(2).child(3).child(1);
        for c in t.children() {
            assert!(t.contains(c.center()));
            for &corner in c.corners() {
                assert!(t.contains(corner));
            }
            assert_eq!(c.id().parent(), Some(t.id()));
        }
    }

    #[test]
    fn corner_points_are_contained_inclusively() {
        let t = Trixel::root(0);
        for &corner in t.corners() {
            assert!(t.contains(corner));
            assert!(!contains_strict(&t, corner));
        }
    }

    #[test]
    fn every_point_is_in_exactly_one_strict_root() {
        // Interior points (not on octahedron edges) are in exactly one root.
        let p = Vec3::from_radec_deg(33.0, 12.0);
        let n = Trixel::roots()
            .iter()
            .filter(|t| contains_strict(t, p))
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn antipode_of_interior_point_is_outside() {
        let t = Trixel::root(4);
        let c = t.center();
        assert!(!t.contains(c.scale(-1.0)));
    }

    #[test]
    fn area_shrinks_by_roughly_a_quarter_per_level() {
        // Subdivision is exactly area-preserving in total but uneven across
        // children (the middle child of a root octant is ~1.4× the average).
        let t = Trixel::root(6);
        let avg_child = t.area() / 4.0;
        for c in t.children() {
            let ratio = c.area() / avg_child;
            assert!((0.5..1.6).contains(&ratio), "ratio {ratio}");
        }
    }
}
