//! HTM identifier encoding and tree navigation.
//!
//! An HTM ID encodes a path through the triangular quad-tree. The eight
//! level-0 trixels (octahedron faces) are numbered 8–15 (`0b1000`–`0b1111`;
//! the leading 1-bit marks the start of the encoding), and each level appends
//! two bits selecting one of four children. A level-`L` ID therefore occupies
//! `4 + 2·L` bits, and IDs at a fixed level are contiguous integers in
//! `[8·4^L, 16·4^L)` — the property that turns depth-first numbering into a
//! space-filling curve (Figure 1 of the paper labels each trixel with these
//! two-bit path digits).

use std::fmt;
use std::num::NonZeroU64;

use crate::range::HtmRange;
use crate::MAX_LEVEL;

/// An HTM trixel identifier at some level of the mesh.
///
/// Ordering of `HtmId`s at the same level corresponds to position along the
/// HTM space-filling curve; the LifeRaft bucket partitioning sorts objects by
/// this value.
///
/// Every valid encoding is ≥ 8, so the value is stored as a [`NonZeroU64`]:
/// an `Option<HtmId>`, or an enum holding ids beside another variant, needs
/// no room of its own for the tag.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HtmId(NonZeroU64);

/// Names of the eight root trixels in conventional order (S0..S3, N0..N3).
pub const ROOT_NAMES: [&str; 8] = ["S0", "S1", "S2", "S3", "N0", "N1", "N2", "N3"];

impl HtmId {
    /// Smallest raw value of a root trixel (`S0`).
    pub const FIRST_ROOT: u64 = 8;

    /// Creates an ID from its raw integer encoding.
    ///
    /// Returns `None` if the value is not a valid HTM ID: valid encodings
    /// have their most significant set bit at an even position ≥ 3 (i.e. the
    /// value lies in `[2·4^k, 4·4^k)` for some `k ≥ 1`).
    pub fn from_raw(raw: u64) -> Option<Self> {
        if raw < Self::FIRST_ROOT {
            return None;
        }
        let msb = 63 - raw.leading_zeros(); // position of highest set bit
        if msb % 2 != 1 {
            // Root IDs 8..=15 have msb = 3; each level adds 2 bits, keeping
            // the msb at an odd position.
            return None;
        }
        let level = (msb as u8 - 3) / 2;
        if level > MAX_LEVEL {
            return None;
        }
        Some(HtmId::valid(raw))
    }

    /// Creates an ID from its raw encoding, panicking on invalid input.
    ///
    /// Prefer [`HtmId::from_raw`] for untrusted values; this is for literals
    /// and tests.
    #[track_caller]
    pub fn from_raw_unchecked(raw: u64) -> Self {
        Self::from_raw(raw).unwrap_or_else(|| panic!("invalid raw HTM ID {raw:#x}"))
    }

    /// Wraps a raw value derived from valid IDs by the tree arithmetic below.
    #[inline]
    fn valid(raw: u64) -> Self {
        HtmId(NonZeroU64::new(raw).expect("a valid HTM ID is never zero"))
    }

    /// Creates the root trixel ID for face index `face ∈ 0..8` (S0..S3, N0..N3).
    #[inline]
    pub fn root(face: u8) -> Self {
        assert!(face < 8, "HTM has 8 root trixels, got face {face}");
        HtmId::valid(Self::FIRST_ROOT + face as u64)
    }

    /// The raw integer encoding.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0.get()
    }

    /// The mesh level of this ID (0 for the octahedron faces).
    #[inline]
    pub fn level(self) -> u8 {
        let msb = 63 - self.0.leading_zeros();
        (msb as u8 - 3) / 2
    }

    /// The `k`-th child (k ∈ 0..4) one level deeper.
    #[inline]
    pub fn child(self, k: u8) -> Self {
        debug_assert!(k < 4, "trixels have 4 children, got {k}");
        debug_assert!(self.level() < MAX_LEVEL, "exceeded MAX_LEVEL");
        HtmId::valid((self.raw() << 2) | k as u64)
    }

    /// The parent trixel, or `None` for root trixels.
    #[inline]
    pub fn parent(self) -> Option<Self> {
        if self.level() == 0 {
            None
        } else {
            Some(HtmId::valid(self.raw() >> 2))
        }
    }

    /// The root face index (0..8) this trixel descends from.
    #[inline]
    pub fn root_face(self) -> u8 {
        let shift = 2 * self.level() as u32;
        ((self.raw() >> shift) - Self::FIRST_ROOT) as u8
    }

    /// The two-bit path digit chosen at `level ∈ 1..=self.level()`.
    #[inline]
    pub fn path_digit(self, level: u8) -> u8 {
        debug_assert!(level >= 1 && level <= self.level());
        let shift = 2 * (self.level() - level) as u32;
        ((self.raw() >> shift) & 0b11) as u8
    }

    /// The ancestor of this ID at a shallower (or equal) `level`.
    #[inline]
    pub fn ancestor_at(self, level: u8) -> Self {
        let my = self.level();
        assert!(
            level <= my,
            "ancestor_at({level}) on a level-{my} ID; use descendant_range for deeper levels"
        );
        HtmId::valid(self.raw() >> (2 * (my - level) as u32))
    }

    /// The contiguous range of descendant IDs at a deeper (or equal) `level`.
    ///
    /// This is the heart of the space-filling-curve property: all level-`L`
    /// descendants of a trixel form one consecutive integer interval.
    #[inline]
    pub fn descendant_range(self, level: u8) -> HtmRange {
        let my = self.level();
        assert!(
            level >= my && level <= MAX_LEVEL,
            "descendant_range({level}) on a level-{my} ID"
        );
        let shift = 2 * (level - my) as u32;
        let lo = self.raw() << shift;
        let hi = ((self.raw() + 1) << shift) - 1;
        HtmRange::new(HtmId::valid(lo), HtmId::valid(hi))
    }

    /// First (smallest) ID at a given level.
    #[inline]
    pub fn first_at_level(level: u8) -> Self {
        assert!(level <= MAX_LEVEL);
        HtmId::valid(Self::FIRST_ROOT << (2 * level as u32))
    }

    /// Last (largest) ID at a given level.
    #[inline]
    pub fn last_at_level(level: u8) -> Self {
        assert!(level <= MAX_LEVEL);
        HtmId::valid((16u64 << (2 * level as u32)) - 1)
    }

    /// Number of trixels at a given level (`8 · 4^level`).
    #[inline]
    pub fn count_at_level(level: u8) -> u64 {
        assert!(level <= MAX_LEVEL);
        8u64 << (2 * level as u32)
    }

    /// The next ID along the space-filling curve at the same level, if any.
    #[inline]
    pub fn next(self) -> Option<Self> {
        if self == Self::last_at_level(self.level()) {
            None
        } else {
            Some(HtmId::valid(self.raw() + 1))
        }
    }

    /// Zero-based position of this trixel along the curve at its own level.
    #[inline]
    pub fn curve_position(self) -> u64 {
        self.raw() - Self::first_at_level(self.level()).raw()
    }

    /// The canonical name, e.g. `N2:0313` (root face then path digits).
    pub fn name(self) -> String {
        let mut s = String::with_capacity(3 + self.level() as usize);
        s.push_str(ROOT_NAMES[self.root_face() as usize]);
        if self.level() > 0 {
            s.push(':');
            for l in 1..=self.level() {
                s.push((b'0' + self.path_digit(l)) as char);
            }
        }
        s
    }
}

impl fmt::Debug for HtmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HtmId({} = {})", self.raw(), self.name())
    }
}

impl fmt::Display for HtmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_8_through_15() {
        for face in 0..8 {
            let id = HtmId::root(face);
            assert_eq!(id.raw(), 8 + face as u64);
            assert_eq!(id.level(), 0);
            assert_eq!(id.root_face(), face);
            assert_eq!(id.parent(), None);
        }
    }

    #[test]
    fn from_raw_rejects_invalid() {
        for bad in [0u64, 1, 7, 16, 17, 30, 31, 64, 127] {
            assert!(HtmId::from_raw(bad).is_none(), "{bad} should be invalid");
        }
        for good in [8u64, 15, 32, 33, 63, 128, 255] {
            assert!(HtmId::from_raw(good).is_some(), "{good} should be valid");
        }
    }

    #[test]
    #[should_panic(expected = "invalid raw HTM ID")]
    fn from_raw_unchecked_panics() {
        HtmId::from_raw_unchecked(7);
    }

    #[test]
    fn child_parent_round_trip() {
        let root = HtmId::root(3);
        for k in 0..4 {
            let c = root.child(k);
            assert_eq!(c.level(), 1);
            assert_eq!(c.parent(), Some(root));
            assert_eq!(c.path_digit(1), k);
            assert_eq!(c.root_face(), 3);
        }
    }

    #[test]
    fn deep_path_digits() {
        // N2 (face 6) -> child 0 -> 3 -> 1 -> 3
        let id = HtmId::root(6).child(0).child(3).child(1).child(3);
        assert_eq!(id.level(), 4);
        assert_eq!(id.path_digit(1), 0);
        assert_eq!(id.path_digit(2), 3);
        assert_eq!(id.path_digit(3), 1);
        assert_eq!(id.path_digit(4), 3);
        assert_eq!(id.name(), "N2:0313");
        assert_eq!(id.ancestor_at(2), HtmId::root(6).child(0).child(3));
    }

    #[test]
    fn descendant_range_covers_exactly_the_subtree() {
        let id = HtmId::root(1).child(2);
        let r = id.descendant_range(3);
        // 4^(3-1) = 16 descendants.
        assert_eq!(r.len(), 16);
        assert_eq!(r.lo().ancestor_at(1), id);
        assert_eq!(r.hi().ancestor_at(1), id);
        // The ID just outside on either side is not a descendant.
        let before = HtmId::from_raw_unchecked(r.lo().raw() - 1);
        let after = HtmId::from_raw_unchecked(r.hi().raw() + 1);
        assert_ne!(before.ancestor_at(1), id);
        assert_ne!(after.ancestor_at(1), id);
    }

    #[test]
    fn descendant_range_at_same_level_is_singleton() {
        let id = HtmId::root(0).child(1);
        let r = id.descendant_range(1);
        assert_eq!(r.lo(), id);
        assert_eq!(r.hi(), id);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn level_extremes() {
        assert_eq!(HtmId::first_at_level(0).raw(), 8);
        assert_eq!(HtmId::last_at_level(0).raw(), 15);
        assert_eq!(HtmId::first_at_level(1).raw(), 32);
        assert_eq!(HtmId::last_at_level(1).raw(), 63);
        assert_eq!(HtmId::count_at_level(0), 8);
        assert_eq!(HtmId::count_at_level(1), 32);
        assert_eq!(HtmId::count_at_level(14), 8u64 << 28);
        // The paper's level-14 IDs fit in 32 bits.
        assert!(HtmId::last_at_level(14).raw() < u32::MAX as u64 + 1);
    }

    #[test]
    fn next_walks_the_curve() {
        let mut id = HtmId::first_at_level(1);
        let mut count = 1;
        while let Some(n) = id.next() {
            assert_eq!(n.raw(), id.raw() + 1);
            id = n;
            count += 1;
        }
        assert_eq!(count, HtmId::count_at_level(1));
        assert_eq!(id, HtmId::last_at_level(1));
    }

    #[test]
    fn curve_position_is_zero_based() {
        assert_eq!(HtmId::first_at_level(5).curve_position(), 0);
        assert_eq!(
            HtmId::last_at_level(5).curve_position(),
            HtmId::count_at_level(5) - 1
        );
    }

    #[test]
    fn max_level_fits_in_u64() {
        let last = HtmId::last_at_level(MAX_LEVEL);
        assert_eq!(last.level(), MAX_LEVEL);
        assert!(HtmId::from_raw(last.raw()).is_some());
    }

    #[test]
    fn display_names() {
        assert_eq!(HtmId::root(0).to_string(), "S0");
        assert_eq!(HtmId::root(7).to_string(), "N3");
        assert_eq!(HtmId::root(4).child(2).to_string(), "N0:2");
    }
}
