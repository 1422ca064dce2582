//! Cross-match join engines.
//!
//! A batch joins one bucket's catalog objects against the bucket's workload
//! queue. The paper evaluates batches with a plane-sweep merge over
//! HTM-sorted data ("objects in both the bucket and its corresponding
//! workload queue are first sorted by their HTM IDs. The join is performed
//! by simultaneously scanning and merging", Section 3.1), falls back to an
//! indexed join for small queues (Section 3.4).
//!
//! This crate implements both over identical inputs, plus a test oracle:
//!
//! - [`sweep::sweep_join`] — the production engine: two-pointer merge of the
//!   sorted bucket against queue entries sorted by bounding-box start.
//! - [`indexed::indexed_join`] — probes the bucket's clustered HTM order by
//!   binary search per entry; identical output, different I/O profile.
//! - [`brute::brute_force_join`] — O(N·W) reference oracle for tests.
//! - [`hybrid::execute`] — runs the plan (scan or index) that
//!   `liferaft_storage::CostModel::charge` chose for a batch.
//!
//! All engines return the same multiset of [`MatchPair`]s for the same
//! inputs; property tests in `tests/equivalence.rs` enforce it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod brute;
pub mod hybrid;
pub mod indexed;
pub mod sweep;
pub mod types;

pub use hybrid::JoinStrategy;
pub use sweep::sweep_join;
pub use types::{JoinOutput, MatchPair};
