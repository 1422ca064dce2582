//! Unit vectors on the celestial sphere and spherical trigonometry helpers.

use std::fmt;

/// A three-dimensional vector, usually a unit vector on the celestial sphere.
///
/// Astronomical positions are given as (right ascension, declination) pairs;
/// all internal geometry works on Cartesian unit vectors because the HTM
/// containment tests reduce to sign tests of scalar triple products.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// X component (towards RA=0°, Dec=0°).
    pub x: f64,
    /// Y component (towards RA=90°, Dec=0°).
    pub y: f64,
    /// Z component (towards the north celestial pole).
    pub z: f64,
}

impl Vec3 {
    /// Creates a vector from raw components without normalizing.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Unit vector along +Z (the north celestial pole).
    pub const NORTH: Vec3 = Vec3::new(0.0, 0.0, 1.0);
    /// Unit vector along −Z (the south celestial pole).
    pub const SOUTH: Vec3 = Vec3::new(0.0, 0.0, -1.0);

    /// Builds a unit vector from right ascension and declination in radians.
    #[inline]
    pub fn from_radec(ra: f64, dec: f64) -> Self {
        let (sin_ra, cos_ra) = ra.sin_cos();
        let (sin_dec, cos_dec) = dec.sin_cos();
        Vec3::new(cos_dec * cos_ra, cos_dec * sin_ra, sin_dec)
    }

    /// Builds a unit vector from right ascension and declination in degrees.
    #[inline]
    pub fn from_radec_deg(ra_deg: f64, dec_deg: f64) -> Self {
        Self::from_radec(ra_deg.to_radians(), dec_deg.to_radians())
    }

    /// Returns `(ra, dec)` in radians, with `ra ∈ [0, 2π)` and `dec ∈ [−π/2, π/2]`.
    pub fn to_radec(self) -> (f64, f64) {
        let dec = self.z.clamp(-1.0, 1.0).asin();
        let mut ra = self.y.atan2(self.x);
        if ra < 0.0 {
            ra += std::f64::consts::TAU;
        }
        // The poles have no well-defined RA; report 0 for determinism.
        if self.x == 0.0 && self.y == 0.0 {
            ra = 0.0;
        }
        (ra, dec)
    }

    /// Returns `(ra, dec)` in degrees.
    pub fn to_radec_deg(self) -> (f64, f64) {
        let (ra, dec) = self.to_radec();
        (ra.to_degrees(), dec.to_degrees())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (no square root).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Returns the vector scaled to unit length.
    ///
    /// # Panics
    /// Panics in debug builds if the vector is (near) zero; geometry code
    /// never normalizes degenerate vectors when inputs are unit vectors.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 1e-12, "cannot normalize near-zero vector {self:?}");
        Vec3::new(self.x / n, self.y / n, self.z / n)
    }

    /// Scalar multiplication.
    #[inline]
    pub fn scale(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }

    /// Normalized midpoint of two unit vectors (the HTM edge-bisection rule).
    #[inline]
    pub fn midpoint(self, o: Vec3) -> Vec3 {
        (self + o).normalized()
    }

    /// Angular distance to another unit vector, in radians.
    ///
    /// Uses the `atan2(|a×b|, a·b)` form, which is numerically stable for
    /// both tiny separations (where `acos(a·b)` loses precision — exactly the
    /// arcsecond-scale regime of cross-match radii) and near-antipodal pairs.
    #[inline]
    pub fn angle_to(self, o: Vec3) -> f64 {
        self.cross(o).norm().atan2(self.dot(o))
    }

    /// True if the angular distance to `o` is at most `radius` radians.
    ///
    /// Compares chord lengths, avoiding trigonometry in the hot cross-match
    /// inner loop: `angle ≤ r  ⇔  |a−b|² ≤ (2·sin(r/2))²` for unit vectors.
    #[inline]
    pub fn within_angle(self, o: Vec3, radius: f64) -> bool {
        let d = self - o;
        let chord = 2.0 * (radius * 0.5).sin();
        d.dot(d) <= chord * chord
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;

    /// Component-wise sum.
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;

    /// Component-wise difference.
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ra, dec) = self.to_radec_deg();
        write!(f, "(ra={ra:.6}°, dec={dec:.6}°)")
    }
}

/// Precomputed squared chord length for a given angular radius.
///
/// The cross-match inner loop tests millions of candidate pairs against the
/// same radius; hoisting the `sin` out of the loop is a measurable win.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChordBound {
    radius: f64,
    chord2: f64,
}

impl ChordBound {
    /// Builds the bound for an angular `radius` in radians (must be in `[0, π]`).
    #[inline]
    pub fn new(radius: f64) -> Self {
        debug_assert!((0.0..=std::f64::consts::PI).contains(&radius));
        let chord = 2.0 * (radius * 0.5).sin();
        ChordBound {
            radius,
            chord2: chord * chord,
        }
    }

    /// The angular radius this bound was constructed from, in radians.
    #[inline]
    pub fn radius(self) -> f64 {
        self.radius
    }

    /// The bound for `radius`: `self` if it was built for that radius, a
    /// new one otherwise — so a loop over entries that share a radius pays
    /// the `sin` once per change of radius, not once per entry.
    #[inline]
    pub fn for_radius(self, radius: f64) -> Self {
        if self.radius == radius {
            self
        } else {
            Self::new(radius)
        }
    }

    /// True if unit vectors `a` and `b` are within the angular radius.
    #[inline]
    pub fn matches(self, a: Vec3, b: Vec3) -> bool {
        let d = a - b;
        d.dot(d) <= self.chord2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    const EPS: f64 = 1e-12;

    #[test]
    fn radec_round_trip() {
        for &(ra, dec) in &[
            (0.0, 0.0),
            (10.0, 5.0),
            (180.0, -45.0),
            (359.9, 89.0),
            (123.456, -67.89),
        ] {
            let v = Vec3::from_radec_deg(ra, dec);
            assert!((v.norm() - 1.0).abs() < EPS, "not unit length");
            let (ra2, dec2) = v.to_radec_deg();
            assert!((ra - ra2).abs() < 1e-9, "ra {ra} -> {ra2}");
            assert!((dec - dec2).abs() < 1e-9, "dec {dec} -> {dec2}");
        }
    }

    #[test]
    fn poles_have_deterministic_ra() {
        assert_eq!(Vec3::NORTH.to_radec(), (0.0, FRAC_PI_2));
        assert_eq!(Vec3::SOUTH.to_radec(), (0.0, -FRAC_PI_2));
    }

    #[test]
    fn cross_product_is_orthogonal() {
        let a = Vec3::from_radec_deg(30.0, 10.0);
        let b = Vec3::from_radec_deg(80.0, -20.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < EPS);
        assert!(c.dot(b).abs() < EPS);
    }

    #[test]
    fn angle_to_matches_known_separations() {
        let a = Vec3::from_radec_deg(0.0, 0.0);
        let b = Vec3::from_radec_deg(90.0, 0.0);
        assert!((a.angle_to(b) - FRAC_PI_2).abs() < EPS);
        let c = Vec3::from_radec_deg(180.0, 0.0);
        assert!((a.angle_to(c) - PI).abs() < EPS);
        assert!(a.angle_to(a) < EPS);
    }

    #[test]
    fn angle_to_is_precise_at_arcsecond_scale() {
        let arcsec = (1.0 / 3600.0_f64).to_radians();
        let a = Vec3::from_radec_deg(10.0, 20.0);
        let b = Vec3::from_radec_deg(10.0, 20.0 + 1.0 / 3600.0);
        let got = a.angle_to(b);
        assert!(
            (got - arcsec).abs() < arcsec * 1e-6,
            "got {got}, want {arcsec}"
        );
    }

    #[test]
    fn within_angle_agrees_with_angle_to() {
        let a = Vec3::from_radec_deg(42.0, -7.0);
        for sep_deg in [0.001, 0.01, 0.5, 10.0, 90.0] {
            let b = Vec3::from_radec_deg(42.0, -7.0 + sep_deg);
            let sep = a.angle_to(b);
            assert!(a.within_angle(b, sep * 1.000001));
            assert!(!a.within_angle(b, sep * 0.999999));
        }
    }

    #[test]
    fn chord_bound_matches_within_angle() {
        let a = Vec3::from_radec_deg(0.0, 0.0);
        let b = Vec3::from_radec_deg(0.0, 0.25);
        let r = 0.3_f64.to_radians();
        let bound = ChordBound::new(r);
        assert_eq!(bound.matches(a, b), a.within_angle(b, r));
        assert!((bound.radius() - r).abs() < EPS);
        let tight = ChordBound::new(0.2_f64.to_radians());
        assert!(!tight.matches(a, b));
        assert_eq!(bound.for_radius(r), bound);
        assert_eq!(bound.for_radius(0.2_f64.to_radians()), tight);
    }

    #[test]
    fn midpoint_bisects() {
        let a = Vec3::from_radec_deg(0.0, 0.0);
        let b = Vec3::from_radec_deg(60.0, 0.0);
        let m = a.midpoint(b);
        assert!((m.angle_to(a) - m.angle_to(b)).abs() < EPS);
        assert!((m.norm() - 1.0).abs() < EPS);
    }
}
