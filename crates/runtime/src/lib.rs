//! `liferaft-runtime` — a sharded multi-worker serving runtime for LifeRaft.
//!
//! The paper evaluates one server; its discussion points at clusters: "our
//! solution allows individual sites in a cluster or federation to batch
//! queries independently" (Section 6). This crate is that layer for a
//! *single* archive: the bucket space — already an equal-sized tiling of
//! the HTM curve — is partitioned across N **shards**, each owning its own
//! workload table, bucket cache, and pluggable scheduler; a front-end
//! router splits every arriving query's bucket work into per-shard
//! fragments; a cross-shard query completes when all of its fragments
//! finish.
//!
//! # Execution modes
//!
//! Every run is one window loop (`docs/ARCHITECTURE.md`, "One run path":
//! route window → advance → fire → finish). Shards interact only at control
//! instants — outage edges, epoch boundaries, re-deliveries, front-door
//! passes, hedge checks — where every controller below plugs in as a
//! handler, the only
//! place decisions are made. Each window routes the arrivals before its
//! instant, then advances the workers up to it: [`ExecMode::Stepped`] in a
//! plain loop, [`ExecMode::Threaded`] on one `std::thread` per worker. The
//! two are **bit-identical** for the same configuration and trace, and a
//! single-shard runtime reproduces `liferaft_sim::Simulation` exactly (both
//! run the same [`liferaft_sim::Driver`]: one routed window of the whole
//! trace equals per-arrival feeding); golden and property tests pin both
//! claims.
//!
//! # Elastic rebalancing
//!
//! With a non-zero [`RebalanceConfig::epoch`] the shard map becomes
//! **elastic**: at every epoch of virtual time a controller compares
//! per-shard queued backlogs and migrates hot buckets — queue state, ages,
//! and cache residency — from overloaded to underloaded shards, charging a
//! fixed hand-over cost to the destination clock, and records every
//! boundary in a [`RebalanceLog`].
//!
//! # Front door, failover, transport
//!
//! Three more controllers, each described once in its module: the
//! [`admission`] front door ([`FrontDoorConfig`]: a global in-flight bound,
//! [`QueryClass`] priorities, queue → shed → reject), crash [`failover`]
//! ([`FaultPlan`] outages; [`FailoverConfig`]: evacuate the dead shard's
//! buckets, re-deliver lost fragments on a bounded [`RetryPolicy`]), and the
//! lossy-link [`transport`] ([`FaultPlan`] links; [`TransportConfig`]:
//! retransmit, dedup, straggler hedging). Each records what it decided in a
//! log ([`AdmissionLog`], [`FailoverLog`], [`TransportLog`]); every query
//! ends exactly once — completed, or rejected by one of them — and the
//! [`ledger`] asserts `completed + rejected == submitted` per class before
//! any report is built ([`RuntimeReport::per_class`]).
//!
//! # Flight recorder
//!
//! [`RuntimeConfig::telemetry`] turns on `liferaft-telemetry`'s structured
//! event bus: every shard worker records typed scheduler / batch / cache /
//! completion events, the controller paths contribute migration and
//! admission events, and [`RuntimeReport::telemetry`] carries the merged
//! [`TelemetryReport`] — per-shard time series plus the raw event stream,
//! exportable as JSONL or a Chrome/Perfetto trace. Events are merged by
//! the same canonical merge as completions (running clock, shard, record
//! order), so stepped and threaded runs produce **byte-identical** streams;
//! with the default [`TelemetryMode::Off`] the recorder is a null sink and
//! runs are bit-identical to an un-instrumented build.
//!
//! # Sweep driver
//!
//! [`sweep`] fans independent runs — α sweeps, the offline trade-off
//! calibration grid, any pure per-item closure — across a thread pool with
//! results in input order whatever the thread count ([`parallel_map`]).
//!
//! # Layout
//!
//! | module | contents |
//! |---|---|
//! | [`shard`] | shard identity, bucket → shard maps (contiguous / hashed / elastic) |
//! | [`router`] | query → per-shard fragment routing, one window of arrivals at a time |
//! | [`worker`] | one shard: a `liferaft_sim::Driver` plus what the pool adds |
//! | [`rebalance`] | the epoch decision log and the greedy migration planner |
//! | [`failover`] | the crash/outage decision log: evacuations, re-deliveries, conservation |
//! | [`admission`] | the global front door: classes, shedding, the decision log |
//! | [`ledger`] | the canonical completion merge and the per-query terminal ledger every report projects from |
//! | [`retry`] | the shared bounded-retry schedule (failover + transport) |
//! | [`transport`] | the lossy-link transport: retransmit, dedup, hedging |
//! | [`runtime`] | the one run path: the window loop, its barrier handlers, aggregation |
//! | [`config`] | runtime + rebalance + fault configuration, execution mode |
//! | [`sweep`] | the deterministic parallel sweep driver and the offline calibration grid |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod config;
pub mod failover;
pub mod ledger;
pub mod rebalance;
pub mod retry;
pub mod router;
pub mod runtime;
pub mod shard;
pub mod sweep;
pub mod transport;
pub mod worker;

pub use admission::{
    AdmissionLog, AdmissionSample, ClassStats, Disposition, FrontDoorConfig, FrontDoorReport,
    QueryClass, QueryVerdict,
};
pub use config::{ExecMode, FaultPlan, RebalanceConfig, RuntimeConfig};
pub use failover::{
    Evacuation, FailoverConfig, FailoverLog, FailoverReport, Redelivery, ShardTransition,
};
pub use ledger::{ClassConservation, RejectedBy, RejectedQuery};
pub use rebalance::{EpochRecord, Migration, RebalanceLog};
pub use retry::RetryPolicy;
pub use router::{route, route_window, Fragment, Routing};
pub use runtime::{RuntimeReport, ShardedRuntime};
pub use shard::{ElasticShardMap, ShardAssignment, ShardId, ShardMap};
pub use sweep::{alpha_sweep, calibrate_tradeoff_table, parallel_map};
pub use transport::{
    HedgeConfig, HedgeDecision, LinkDrop, Retransmit, SuppressedDuplicate, TransportConfig,
    TransportLog, TransportReport,
};
pub use worker::ShardRun;

// Re-export the flight-recorder surface so runtime users configure and
// consume telemetry without a separate `liferaft-telemetry` import.
pub use liferaft_telemetry::{
    Event, EventKind, TelemetryConfig, TelemetryMode, TelemetryReport, TelemetrySink, ROUTER_SHARD,
};
