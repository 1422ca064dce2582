//! The LifeRaft data-driven batch scheduler.
//!
//! This crate is the paper's primary contribution: a query scheduler that
//! "relaxes in-order scheduling to achieve large improvements in query
//! throughput […] by exploiting contention between queries for shared data"
//! (Section 1), balanced against starvation with an aging term inspired by
//! VSCAN(R)-style disk-head scheduling.
//!
//! # The pieces
//!
//! - [`metric`] — Eq. 1's workload throughput `Ut(i) = W / scan_batch(W, φ(i))`
//!   (the batch's scan price in µs) and Eq. 2's aged metric
//!   `Ua(i) = Ut(i)·(1−α) + A(i)·α`.
//! - [`scheduler`] — the [`Scheduler`] trait: given a view of the
//!   per-bucket workload queues, produce the next [`BatchSpec`] to execute.
//! - [`liferaft`] — the LifeRaft policy at any fixed bias α ∈ [0, 1].
//! - [`noshare`] — the NoShare baseline: queries evaluated independently in
//!   arrival order with no I/O sharing (Section 5).
//! - [`round_robin`] — the RR baseline: buckets serviced in HTM-ID order.
//! - [`adaptive`] — workload-adaptive α selection from offline trade-off
//!   curves and a tolerance threshold (Section 4, Figure 4).
//! - [`starvation`] — wait-time monitoring used to quantify starvation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod liferaft;
pub mod metric;
pub mod noshare;
pub mod round_robin;
pub mod scheduler;
pub mod starvation;

// The test fixture names this crate as its integration tests do.
#[cfg(test)]
extern crate self as liferaft_core;
#[cfg(test)]
#[path = "../tests/fixture/mod.rs"]
mod fixture;

pub use adaptive::{
    AdaptiveScheduler, AlphaController, SaturationEstimator, TradeoffCurve, TradeoffTable,
};
pub use liferaft::LifeRaftScheduler;
pub use metric::{AgingMode, MetricParams};
pub use noshare::NoShareScheduler;
pub use round_robin::RoundRobinScheduler;
pub use scheduler::{
    BatchScope, BatchSpec, BucketSnapshot, DecisionStats, Lens, Scheduler, SchedulerView, TableView,
};
pub use starvation::StarvationMonitor;
