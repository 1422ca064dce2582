//! Synthetic sky catalogs and equal-sized HTM bucket partitioning.
//!
//! The paper partitions SDSS's primary fact table "into 10,000 object
//! buckets, which results in nearly 20,000 buckets that are each 40MB in
//! size" (Section 5): objects are sorted by their level-14 HTM ID and the
//! curve is cut every N objects, so each bucket covers a contiguous HTM
//! range and costs the same to scan.
//!
//! We cannot ship the 6 TB SDSS archive, so this crate provides two
//! interchangeable catalog implementations behind the [`Catalog`] trait:
//!
//! - [`MaterializedCatalog`] — real objects generated by [`generate`]
//!   (uniform or clustered skies), partitioned by the paper's actual
//!   sort-and-chunk algorithm ([`partition::Partition::build_from_objects`]).
//!   Used at small scale wherever joins are executed for real.
//! - [`VirtualCatalog`] — a paper-scale catalog whose buckets are defined
//!   analytically (equal curve spans, equal object counts) and materialized
//!   deterministically on demand from a seed. Holding 200M objects in memory
//!   is never necessary; any bucket can still be produced, bit-identical,
//!   whenever a join wants real rows.
//!
//! Both yield the same scheduling-relevant shape: equal-cost buckets tiling
//! the HTM curve. The substitution is sound because the scheduler never sees
//! rows — only, per bucket, a queue length, an age, a residency bit and the
//! object count that sets `Tb` — and both catalogs give it identical ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod generate;
pub mod hash;
pub mod object;
pub mod partition;

pub use catalog::{Catalog, MaterializedCatalog, VirtualCatalog};
pub use object::SkyObject;
pub use partition::Partition;

/// The HTM level at which objects are indexed (the paper's level 14).
pub const OBJECT_LEVEL: u8 = 14;
