//! # LifeRaft — data-driven batch processing for scientific databases
//!
//! A from-scratch Rust reproduction of *LifeRaft: Data-Driven, Batch
//! Processing for the Exploration of Scientific Databases* (Wang, Burns,
//! Malik — CIDR 2009).
//!
//! LifeRaft is a query scheduler for data-intensive scientific workloads.
//! Instead of processing queries in arrival order, it partitions data into
//! equal-sized buckets along the HTM space-filling curve, decomposes every
//! query into per-bucket sub-queries, and repeatedly services the bucket
//! with the highest *aged workload throughput* — batching all queries that
//! touch the same data into a single sequential scan. An age bias
//! `α ∈ [0, 1]` trades throughput (α = 0, most-contended-data-first) against
//! response time (α = 1, arrival order), and can be tuned adaptively from
//! workload saturation.
//!
//! This facade crate re-exports the whole workspace; see the individual
//! crates for deep documentation:
//!
//! | module | contents |
//! |---|---|
//! | [`htm`] | Hierarchical Triangular Mesh: IDs, point location, cap coverage |
//! | [`storage`] | disk cost model, bucket metadata, LRU bucket cache |
//! | [`catalog`] | synthetic skies, equal-sized bucket partitioning, virtual catalogs |
//! | [`query`] | cross-match queries, pre-processing, workload queues |
//! | [`join`] | sweep-merge / indexed join engines, hybrid strategy |
//! | [`core`] | the schedulers: LifeRaft(α), NoShare, RR, adaptive α |
//! | [`workload`] | SkyQuery-shaped trace synthesis and analysis |
//! | [`sim`] | discrete-event simulation engine and run reports |
//! | [`runtime`] | sharded multi-worker serving runtime + parallel sweep driver |
//! | [`metrics`] | statistics, normalization, reporting tables |
//! | [`telemetry`] | flight recorder: event bus, per-shard time series, trace export |
//!
//! # Quickstart
//!
//! ```
//! use liferaft::prelude::*;
//!
//! // A small sky, partitioned into 100-object buckets at HTM level 8.
//! let sky = liferaft::catalog::generate::uniform_sky(5_000, 8, 42);
//! let catalog = MaterializedCatalog::build(&sky, 8, 100, 4096);
//!
//! // A synthetic hotspot workload, replayed at 0.5 queries/second.
//! let cfg = WorkloadConfig::paper_like(8, catalog.partition().num_buckets() as u32, 40, 7);
//! let trace = TraceGenerator::new(cfg).generate();
//! let timed = trace.with_arrivals(poisson_arrivals(0.5, trace.len(), 1));
//!
//! // Compare the greedy LifeRaft scheduler against NoShare.
//! let sim = Simulation::new(&catalog, SimConfig::paper());
//! let greedy = sim.run(&timed, &mut LifeRaftScheduler::greedy(CostModel::paper()));
//! let noshare = sim.run(&timed, &mut NoShareScheduler::new());
//! assert!(greedy.throughput_qps >= noshare.throughput_qps);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use liferaft_catalog as catalog;
pub use liferaft_core as core;
pub use liferaft_htm as htm;
pub use liferaft_join as join;
pub use liferaft_metrics as metrics;
pub use liferaft_query as query;
pub use liferaft_runtime as runtime;
pub use liferaft_sim as sim;
pub use liferaft_storage as storage;
pub use liferaft_telemetry as telemetry;
pub use liferaft_workload as workload;

/// The types most applications need, in one import.
pub mod prelude {
    pub use liferaft_catalog::{Catalog, MaterializedCatalog, VirtualCatalog};
    pub use liferaft_core::{
        AdaptiveScheduler, AgingMode, AlphaController, LifeRaftScheduler, NoShareScheduler,
        RoundRobinScheduler, Scheduler, TradeoffTable,
    };
    pub use liferaft_metrics::{Summary, Table};
    pub use liferaft_query::{CrossMatchQuery, Predicate, QueryId, QueryPreProcessor};
    pub use liferaft_runtime::{
        ExecMode, FailoverConfig, FaultPlan, FrontDoorConfig, QueryClass, RebalanceConfig,
        RebalanceLog, RuntimeConfig, RuntimeReport, ShardAssignment, ShardedRuntime,
        TransportConfig,
    };
    pub use liferaft_sim::{
        build_scenario, calibrate_tradeoff_table, LinkDirection, LinkFault, RunReport,
        ScenarioFixture, ScenarioKind, ScenarioScale, SimConfig, Simulation,
    };
    pub use liferaft_storage::{BucketId, CostModel, SimDuration, SimTime};
    pub use liferaft_telemetry::{EventKind, TelemetryConfig};
    pub use liferaft_workload::arrivals::{bursty_arrivals, poisson_arrivals};
    pub use liferaft_workload::{TimedTrace, Trace, TraceGenerator, WorkloadConfig, WorkloadStats};
}
