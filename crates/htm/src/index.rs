//! Point location: mapping unit vectors to HTM IDs and back.

use crate::id::HtmId;
use crate::trixel::Trixel;
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
    for t in Trixel::roots() {
        if t.contains(p) {
            return t;
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
    let children = t.children();
    for c in children {
        if c.contains(p) {
            return c;
        }
    }
    // Same fallback rationale as `root_containing`: pick the child whose
    // center is closest. Exercised only by adversarial boundary points.
    children
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

/// [`trixel_of`] for a *sequence* of IDs: keeps the root-to-leaf stack of
/// the last trixel sought and re-descends only from the deepest ancestor the
/// next ID shares with it. IDs that are close on the curve (a bucket's
/// HTM-sorted rows) share most of their path, so most levels are reused.
///
/// Every trixel on the stack was produced by the same `Trixel::root` /
/// `Trixel::child` calls `trixel_of` makes, so `seek(id) == trixel_of(id)`
/// bit for bit, whatever order the IDs arrive in.
#[derive(Debug, Clone, Default)]
pub struct TrixelWalker {
    /// `stack[l]` is the level-`l` ancestor of the last ID sought.
    stack: Vec<Trixel>,
}

impl TrixelWalker {
    /// A walker with nothing on its stack (the first `seek` starts at a root).
    pub fn new() -> Self {
        Self::default()
    }

    /// The trixel of `id`.
    pub fn seek(&mut self, id: HtmId) -> Trixel {
        let level = id.level();
        self.stack.truncate(self.shared_levels(id));
        if self.stack.is_empty() {
            self.stack.push(Trixel::root(id.root_face()));
        }
        for l in self.stack.len() as u8..=level {
            let parent = self.stack[l as usize - 1];
            self.stack.push(parent.child(id.path_digit(l)));
        }
        self.stack[level as usize]
    }

    /// How many leading stack entries (root first) are ancestors of `id`,
    /// `id` itself included.
    fn shared_levels(&self, id: HtmId) -> usize {
        let Some(last) = self.stack.last() else {
            return 0;
        };
        // Compare the two paths at the shallower of the two levels: the
        // highest differing bit says how many trailing two-bit digits (or,
        // past them, the root face) the paths disagree on.
        let common = last.id().level().min(id.level());
        let diff = last.id().ancestor_at(common).raw() ^ id.ancestor_at(common).raw();
        let differing_digits = (u64::BITS - diff.leading_zeros()).div_ceil(2) as usize;
        (common as usize + 1).saturating_sub(differing_digits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_matches_trixel_of_across_faces_and_levels() {
        let mut walker = TrixelWalker::new();
        let p = Vec3::from_radec_deg(123.4, -56.7);
        let deep = locate(p, 12);
        let ids = [
            deep,
            deep,
            HtmId::from_raw_unchecked(deep.raw() + 1),
            deep.ancestor_at(5),
            deep.ancestor_at(5).child(3).child(0),
            HtmId::root(0),
            HtmId::last_at_level(12),
            HtmId::first_at_level(12),
            locate(Vec3::from_radec_deg(10.0, 80.0), 7),
        ];
        for id in ids {
            assert_eq!(walker.seek(id), trixel_of(id), "{id}");
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
