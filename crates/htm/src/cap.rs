//! Spherical caps: the circular sky regions used for cross-match error
//! circles and region queries.

use crate::trixel::Trixel;
use crate::vector::Vec3;

/// A spherical cap: all points within angular `radius` of `center`.
///
/// Cross-match is a *probabilistic* spatial join — instrument imprecision
/// turns every observation into a small error circle, and two observations
/// match when their circles' centers are within the combined radius. Caps are
/// also the query footprint for "area of the sky" exploration queries.
///
/// Radii are restricted to `(0, π/2]`: caps no larger than a hemisphere are
/// geodesically convex, which the coverage classifier relies on ("all three
/// corners inside ⇒ whole trixel inside").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cap {
    center: Vec3,
    radius: f64,
    /// Cached cos(radius): `p` inside ⇔ `p · center ≥ cos_radius`.
    cos_radius: f64,
    /// Cached sin²(radius) × (1 + 2e-9), for the arc test's
    /// square-root-free screen (margin pre-applied).
    arc_screen: f64,
    /// Cached sin²(radius × 1.001): the strict screen of the batch coverer
    /// — "the whole cap lies strictly to one side of this great circle". The
    /// 0.1% relative radius margin is ~10¹² ULPs of the screened quantity;
    /// infinite (no circle ever passes) below [`STRICT_MIN_RADIUS`].
    strict_screen: f64,
}

/// Radius below which a cap gets no strict screen: [`Cap::contains`] decides
/// by `p·c ≥ cos r`, and a point 0.1% of `r` outside the cap is only
/// `0.001·r²` short of `cos r` — 4·10⁻¹⁵ at this radius, still clear of the
/// few 10⁻¹⁶ the dot product rounds by, but not at a tenth of it (at radii
/// of 10⁻⁹–10⁻⁶ and level 29, 2 of 180 000 fuzzed batch covers differed from
/// the reference). Smaller caps take the exact classifier at every step.
const STRICT_MIN_RADIUS: f64 = 2e-6;

impl Cap {
    /// Creates a cap from a unit-vector center and radius in radians.
    ///
    /// # Panics
    /// Panics if the radius is not in `(0, π/2]` or the center is not unit.
    pub fn new(center: Vec3, radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius <= std::f64::consts::FRAC_PI_2,
            "cap radius must be in (0, π/2], got {radius}"
        );
        let sin_radius = radius.sin();
        let strict = (radius * 1.001).min(std::f64::consts::FRAC_PI_2).sin();
        Cap {
            center,
            radius,
            cos_radius: radius.cos(),
            arc_screen: sin_radius * sin_radius * (1.0 + 2e-9),
            strict_screen: if radius < STRICT_MIN_RADIUS {
                f64::INFINITY
            } else {
                strict * strict
            },
        }
        .recentered(center)
    }

    /// This cap around another center — `Cap::new(center, self.radius())`
    /// bit for bit, without redoing the radius' three trig calls (bulk
    /// builders cover a whole query's objects at one error radius).
    ///
    /// # Panics
    /// Panics if the center is not unit.
    pub fn recentered(&self, center: Vec3) -> Self {
        assert!(
            (center.norm() - 1.0).abs() < 1e-6,
            "cap center must be a unit vector"
        );
        Cap { center, ..*self }
    }

    /// Convenience constructor from RA/Dec in degrees and radius in arcseconds.
    pub fn from_radec_deg(ra_deg: f64, dec_deg: f64, radius_arcsec: f64) -> Self {
        Cap::new(
            Vec3::from_radec_deg(ra_deg, dec_deg),
            (radius_arcsec / 3600.0).to_radians(),
        )
    }

    /// The cap center (unit vector).
    #[inline]
    pub fn center(&self) -> Vec3 {
        self.center
    }

    /// The angular radius in radians.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// sin²(radius × 1.001) — the batch coverer's strict screen.
    #[inline]
    pub(crate) fn strict_screen(&self) -> f64 {
        self.strict_screen
    }

    /// True if the unit vector lies inside the cap (inclusive).
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.dot(self.center) >= self.cos_radius
    }

    /// Solid angle of the cap in steradians: `2π(1 − cos r)`.
    pub fn area(&self) -> f64 {
        std::f64::consts::TAU * (1.0 - self.cos_radius)
    }

    /// Classifies a trixel against this cap for region coverage.
    pub fn classify(&self, t: &Trixel) -> CapTrixelRelation {
        let corners = t.corners();
        let inside = corners.iter().filter(|&&v| self.contains(v)).count();
        if inside == 3 {
            // Caps with radius ≤ π/2 are convex, and so are trixels; the
            // geodesic hull of the three corners (the whole trixel) is inside.
            return CapTrixelRelation::Inside;
        }
        if inside > 0 {
            return CapTrixelRelation::Partial;
        }
        // No corner inside. The cap may still poke through an edge or sit
        // entirely within the trixel's interior. Both tests consume the
        // same edge geometry — the edge-plane normals `n_i` and the center's
        // signed components `d_i = c·n_i` — so it is computed once and
        // shared (this is the coverer's innermost loop).
        let [a, b, c] = *corners;
        let edges = [(a, b), (b, c), (c, a)];
        let n = [a.cross(b), b.cross(c), c.cross(a)];
        let d = [
            self.center.dot(n[0]),
            self.center.dot(n[1]),
            self.center.dot(n[2]),
        ];
        // `t.contains(self.center)`, on the shared terms.
        if d.iter().all(|&di| di >= -crate::trixel::CONTAINS_EPS) {
            return CapTrixelRelation::Partial;
        }
        for i in 0..3 {
            if self.intersects_arc(edges[i].0, edges[i].1, n[i], d[i]) {
                return CapTrixelRelation::Partial;
            }
        }
        CapTrixelRelation::Disjoint
    }

    /// True if the cap boundary/interior meets the great-circle arc `a→b`,
    /// given the precomputed plane normal `n = a × b` and `cn = center · n`.
    ///
    /// Computes the point of the arc closest to the cap center: project the
    /// center onto the arc's great-circle plane, then check the projection
    /// falls between the endpoints (endpoint distances are handled by the
    /// corner tests in [`Cap::classify`]).
    fn intersects_arc(&self, a: Vec3, b: Vec3, n: Vec3, cn: f64) -> bool {
        // Square-root- and asin-free screen for the common far-away case:
        // sin(dist to great circle) = |c·n|/|n|, so
        // (c·n)² > sin²(radius)·|n|²·(1 + margin) implies the asin test
        // below fires. The 2e-9 relative margin is ~10⁶ ULPs — far beyond
        // any rounding in either formulation — so the screen never fires
        // where the exact test would not; the ambiguous band (including
        // degenerate arcs, whose |n|² ≈ 0 cannot satisfy the inequality)
        // falls through to the exact path.
        if cn * cn > self.arc_screen * n.norm_sq() {
            return false;
        }
        let n_norm = n.norm();
        if n_norm < 1e-15 {
            return false; // degenerate arc
        }
        let n = n.scale(1.0 / n_norm);
        // Distance from center to the great circle.
        let sin_dist = self.center.dot(n).abs().min(1.0);
        if sin_dist.asin() > self.radius {
            return false;
        }
        // Closest point on the great circle to the center.
        let proj = self.center - n.scale(self.center.dot(n));
        if proj.norm() < 1e-15 {
            // Center is one of the circle's poles: every point of the circle
            // is at π/2; covered only if radius == π/2 (checked above via
            // asin(1) > radius). Reaching here means radius == π/2 exactly.
            return true;
        }
        let p = proj.normalized();
        // p between a and b along the arc (counter-clockwise w.r.t. n)?
        a.cross(p).dot(n) >= 0.0 && p.cross(b).dot(n) >= 0.0
    }
}

/// How a trixel relates to a cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapTrixelRelation {
    /// The trixel lies entirely within the cap.
    Inside,
    /// The trixel and cap overlap partially (or the test is inconclusive and
    /// conservatively reported as overlapping).
    Partial,
    /// The trixel and cap are disjoint.
    Disjoint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::locate_trixel;

    #[test]
    fn contains_basic() {
        let cap = Cap::new(Vec3::from_radec_deg(0.0, 0.0), 0.1);
        assert!(cap.contains(Vec3::from_radec_deg(0.0, 0.0)));
        assert!(cap.contains(Vec3::from_radec_deg(5.0, 0.0)));
        assert!(!cap.contains(Vec3::from_radec_deg(6.0, 0.0)));
    }

    #[test]
    fn from_radec_arcsec() {
        let cap = Cap::from_radec_deg(10.0, 10.0, 3600.0); // 1 degree
        assert!((cap.radius() - 1.0_f64.to_radians()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cap radius")]
    fn rejects_oversized_radius() {
        Cap::new(Vec3::NORTH, 2.0);
    }

    #[test]
    fn area_of_hemisphere() {
        let cap = Cap::new(Vec3::NORTH, std::f64::consts::FRAC_PI_2);
        assert!((cap.area() - std::f64::consts::TAU).abs() < 1e-12);
    }

    #[test]
    fn classify_inside() {
        // A huge cap centered on a small trixel: trixel fully inside.
        let t = locate_trixel(Vec3::from_radec_deg(45.0, 45.0), 8);
        let cap = Cap::new(t.center(), 0.5);
        assert_eq!(cap.classify(&t), CapTrixelRelation::Inside);
    }

    #[test]
    fn classify_disjoint() {
        let t = locate_trixel(Vec3::from_radec_deg(45.0, 45.0), 8);
        let cap = Cap::new(Vec3::from_radec_deg(225.0, -45.0), 0.1);
        assert_eq!(cap.classify(&t), CapTrixelRelation::Disjoint);
    }

    #[test]
    fn classify_partial_cap_inside_trixel() {
        // A tiny cap strictly inside a big trixel: no corners inside the cap,
        // no edges crossed, but the center is contained -> Partial.
        let t = Trixel::root(0);
        let cap = Cap::new(t.center(), 1e-4);
        assert_eq!(cap.classify(&t), CapTrixelRelation::Partial);
    }

    #[test]
    fn classify_partial_edge_crossing() {
        // Cap centered just outside an edge of a root trixel, poking through
        // without containing any corner.
        let t = Trixel::root(0); // corners at (RA 0, Dec 0), south pole, (RA 90, Dec 0)
                                 // The N3/S0 boundary is the equator between RA 0 and RA 90.
        let cap = Cap::new(Vec3::from_radec_deg(45.0, 1.0), 0.05); // ~2.9° radius
        assert_eq!(cap.classify(&t), CapTrixelRelation::Partial);
    }

    #[test]
    fn classify_corner_cases_consistent_with_sampling() {
        // Randomised-ish consistency: classification must agree with point
        // sampling (sampled points inside cap & trixel exist iff not Disjoint;
        // Inside means all sampled trixel points are inside the cap).
        let t = locate_trixel(Vec3::from_radec_deg(120.0, -30.0), 6);
        let samples: Vec<Vec3> = {
            let [a, b, c] = *t.corners();
            let mut v = vec![t.center(), a, b, c];
            v.push(a.midpoint(b));
            v.push(b.midpoint(c));
            v.push(a.midpoint(c));
            v
        };
        for (center, radius) in [
            (t.center(), 1.0),                         // giant: Inside
            (t.center(), 1e-5),                        // tiny inside: Partial
            (Vec3::from_radec_deg(300.0, 60.0), 0.05), // far away: Disjoint
        ] {
            let cap = Cap::new(center, radius);
            match cap.classify(&t) {
                CapTrixelRelation::Inside => {
                    assert!(samples.iter().all(|&p| cap.contains(p)));
                }
                CapTrixelRelation::Disjoint => {
                    assert!(samples.iter().all(|&p| !cap.contains(p)));
                }
                CapTrixelRelation::Partial => {}
            }
        }
    }
}
