//! Hierarchical Triangular Mesh (HTM) spatial indexing.
//!
//! The HTM is a recursive quad-tree decomposition of the unit sphere into
//! spherical triangles ("trixels"), introduced by Kunszt, Szalay, Csabai and
//! Thakar for the Sloan Digital Sky Survey science archive and used by
//! SkyQuery to index celestial objects. Level 0 consists of the eight faces
//! of an octahedron; every level subdivides each trixel into four children by
//! connecting the (normalized) edge midpoints.
//!
//! Two properties matter for LifeRaft (Wang, Burns, Malik, CIDR 2009):
//!
//! 1. **Point indexing** — every unit vector maps to exactly one trixel per
//!    level, giving each object a compact integer ID ([`locate`]).
//! 2. **Space-filling curve** — the depth-first ID numbering preserves
//!    spatial locality, so sorting objects by HTM ID produces a linear
//!    ordering of the sky that can be cut into equal-sized, spatially
//!    coherent buckets (Figure 1 of the paper).
//!
//! The crate additionally provides spherical-cap region coverage
//! ([`cover::BatchCoverer`], a query's whole object list in one walk of the
//! mesh) used to compute the "bounding box" HTM ranges that cross-match
//! objects carry, and a sorted disjoint [`range::HtmRangeSet`] algebra used
//! throughout query pre-processing.
//!
//! # Example
//!
//! ```
//! use liferaft_htm::{locate, BatchCoverer, Cap, Vec3};
//!
//! // Index a point at RA=10°, Dec=+5° at HTM level 14 (the paper's level).
//! let p = Vec3::from_radec_deg(10.0, 5.0);
//! let id = locate(p, 14);
//! assert_eq!(id.level(), 14);
//!
//! // Cover a 1-arcminute error circle around the point, in at most four
//! // ranges.
//! let cap = Cap::new(p, (1.0 / 60.0_f64).to_radians());
//! let ranges = BatchCoverer::new(14).cover_bounded(&[cap], 4).next().unwrap();
//! assert!(ranges.contains(id));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cap;
pub mod cover;
pub mod id;
pub mod index;
pub mod range;
pub mod trixel;
pub mod vector;

pub use cap::Cap;
pub use cover::BatchCoverer;
pub use id::HtmId;
pub use index::{locate, trixel_centers, trixel_of};
pub use range::{HtmRange, HtmRangeSet};
pub use trixel::Trixel;
pub use vector::Vec3;

/// The HTM level used by SkyQuery / the LifeRaft paper for object IDs.
///
/// "Each astronomical observation in SkyQuery is currently assigned a unique
/// 32-bit integer denoting the HTM ID at the fourteenth level" (Section 3.1).
pub const PAPER_LEVEL: u8 = 14;

/// Deepest level supported by the `u64` ID encoding (4 + 2·29 = 62 bits,
/// leaving headroom so `last_at_level` never overflows).
pub const MAX_LEVEL: u8 = 29;

// The per-cap reference coverer names this crate as its integration tests do.
#[cfg(test)]
extern crate self as liferaft_htm;
#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;
