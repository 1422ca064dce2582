//! Synthetic SkyQuery-style workloads for LifeRaft experiments.
//!
//! The paper evaluates against "a two-thousand query trace from SkyQuery
//! consisting of only long running cross-match queries" (Section 5.1) whose
//! defining properties are published in Figures 5 and 6:
//!
//! - the top ten buckets are reused frequently and "accessed by 61% of the
//!   queries";
//! - "queries that overlap in data access are close temporally";
//! - "2% of the buckets capture 50% of the workload while the remaining
//!   buckets make up the tail".
//!
//! The original web log is not available, so [`generator`] synthesizes
//! traces with exactly this shape: Zipf-popular hotspot regions activated in
//! temporal epochs over a uniform background, with a long-tailed query-size
//! mixture. [`stats`] recomputes the Figure 5/6 analyses from any trace so
//! tests (and the figure harness) can verify the shape rather than assume
//! it.
//!
//! Arrival processes live in [`arrivals`] (the saturation axis of Figure 8),
//! and [`trace`] provides a plain-text codec so traces can be saved,
//! inspected, and replayed bit-identically.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod generator;
pub mod stats;
pub mod trace;
pub mod zipf;

pub use generator::{TraceGenerator, WorkloadConfig};
pub use stats::WorkloadStats;
pub use trace::{TimedTrace, Trace};
pub use zipf::Zipf;

// htm's per-cap reference coverer, which the trace loader's covers are held
// to (the tests use its bounded cover only).
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../htm/tests/reference/mod.rs"]
mod reference;
