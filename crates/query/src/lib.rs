//! Cross-match queries, pre-processing, and per-bucket workload queues.
//!
//! "Each incoming query is pre-processed to determine a list of sub-queries
//! which satisfy the following property: each sub-query operates on a single
//! bucket and can be processed in any order. […] Requests from multiple
//! queries are interleaved in the same workload queue and are joined in one
//! pass" — Section 3.
//!
//! The pipeline here mirrors Figure 3's left half:
//!
//! 1. A [`CrossMatchQuery`] arrives carrying a list of [`MatchObject`]s
//!    (intermediate results shipped from the previous archive in the
//!    cross-match chain), each with a mean position and an HTM bounding box
//!    over its error circle.
//! 2. The [`preprocess::QueryPreProcessor`] maps every object to the buckets
//!    its bounding box overlaps, yielding per-bucket [`WorkItem`]s.
//! 3. [`queue::WorkloadTable`] accumulates work items into per-bucket
//!    workload queues — the unit the LifeRaft scheduler reasons about.
//!    A queue holds sub-queries (object indices plus a borrow of the
//!    query's objects); [`QueueEntry`]s are materialized from them only
//!    for a real join. The table incrementally maintains the
//!    [`snapshot::BucketSnapshot`]s the scheduler scores, so decisions
//!    never rebuild state from the queues.
//! 4. [`tracker::QueryTracker`] watches per-query completion ("a query
//!    cannot finish until every object is cross-matched").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crossmatch;
pub mod index;
pub mod preprocess;
pub mod queue;
pub mod snapshot;
pub mod tracker;

pub use crossmatch::{CrossMatchQuery, FragmentId, MatchObject, Predicate, QueryId};
pub use index::{CandidateIndex, Lens};
pub use preprocess::{QueryPreProcessor, WorkItem};
pub use queue::{QueueEntry, QueueMemoryStats, RunView, WorkloadQueue, WorkloadTable};
pub use snapshot::BucketSnapshot;
pub use tracker::QueryTracker;
