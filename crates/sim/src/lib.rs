//! Discrete-event simulation of a LifeRaft-scheduled archive.
//!
//! The paper measures a real SQL Server installation; we reproduce the
//! experiments with a deterministic virtual-time simulation whose costs come
//! from the same constants the paper reports (`Tb = 1.2 s`, `Tm = 0.13 ms`,
//! a 20-bucket LRU cache, and random-I/O probe costs for the hybrid join).
//! Everything *except* the clock is real: queries are pre-processed through
//! the actual HTM machinery, workload queues are the actual scheduler
//! inputs, and (optionally) every batch executes a real cross-match join
//! whose results are identical across schedulers.
//!
//! # Model
//!
//! One executor (the database server) processes one batch at a time — a
//! batch being a bucket read plus the cross-match of queued requests against
//! it. Queries arrive by an open-loop arrival process ([`TimedTrace`]),
//! enqueue their per-bucket sub-queries immediately, and complete when their
//! last sub-query is serviced. Scheduling decisions happen at batch
//! boundaries, exactly as in the paper's architecture (Figure 3).
//!
//! [`engine`] holds [`EngineCore`], one batch per call; [`driver`] holds the
//! one loop over it, the [`Driver`] that [`Simulation`] and every shard of
//! `liferaft-runtime` run. The loop is serial; only pre-processing, which no
//! decision feeds back into, runs ahead of it, and only through [`feed`]'s
//! [`Feed`], the one path from a trace to its work items.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod driver;
pub mod engine;
pub mod feed;
pub mod report;
pub mod scenario;

pub use config::SimConfig;
pub use driver::{Driver, Fragment};
pub use engine::{EngineCore, MigratedBucket, Simulation};
pub use feed::Feed;
pub use liferaft_workload::TimedTrace;
pub use report::RunReport;
pub use scenario::{
    build_scenario, LinkDirection, LinkFault, ScenarioFixture, ScenarioKind, ScenarioScale,
    ShardOutage, ShardSlowdown,
};

// The scheduler tests' reference decision, shared with liferaft-core's
// tests (which also use the rest of the fixture).
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../core/tests/fixture/mod.rs"]
mod fixture;
