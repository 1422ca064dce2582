//! `liferaft-runtime` — a sharded multi-worker serving runtime for LifeRaft.
//!
//! The paper evaluates one server; its discussion points at clusters: "our
//! solution allows individual sites in a cluster or federation to batch
//! queries independently" (Section 6). This crate is that layer for a
//! *single* archive: the bucket space — already an equal-sized tiling of
//! the HTM curve — is partitioned across N **shards**, each owning its own
//! workload table, bucket cache, and pluggable scheduler; a front-end
//! router splits every arriving query's bucket work into per-shard
//! fragments and applies per-shard admission control (backpressure); a
//! cross-shard query completes when all of its fragments finish.
//!
//! # Execution modes
//!
//! [`ExecMode::Stepped`] is the deterministic reference: a single-threaded
//! virtual-time merge of the shard event queues (earliest next event first,
//! ties by shard id) that every controller below plugs into as an event
//! handler — the only place decisions are made. [`ExecMode::Threaded`] runs
//! one `std::thread` worker per shard over the fragment streams and bucket
//! hand-overs that merge produced (`docs/ARCHITECTURE.md`, "One run path":
//! drive → rounds → execute → finish). The two are **bit-identical** for
//! the same configuration and trace, and a single-shard runtime reproduces
//! `liferaft_sim::Simulation` exactly (both drive the same
//! [`liferaft_sim::EngineCore`]); golden and property tests pin both claims.
//!
//! # Elastic rebalancing
//!
//! With [`RebalanceConfig`] enabled the shard map becomes **elastic**: at
//! every epoch of virtual time a controller compares per-shard queued
//! backlogs and migrates hot buckets — queue state, ages, and (optionally)
//! cache residency — from overloaded to underloaded shards, charging a
//! migration cost to the destination clock, and records every boundary in
//! a [`RebalanceLog`].
//!
//! # Overload & the front door
//!
//! With [`FrontDoorConfig`] enabled a **global admission controller**
//! fronts the pool: it bounds total in-flight (object × bucket) work,
//! classifies every query into a [`QueryClass`] (interactive / standard /
//! batch) by routed workload size, and under pressure degrades in a fixed
//! order — queue at true arrival age, shed batch-class work into bounded
//! retries with exponential virtual-time backoff, and finally reject with
//! a verdict that conserves accounting (every query is exactly-once
//! terminal: completed or rejected), recorded in an [`AdmissionLog`].
//! [`FaultPlan`] injects per-shard slowdown windows (the controller's
//! per-shard bound routes traffic around the backlog), and `liferaft_sim`'s
//! scenario suite provides the canonical overload fixtures.
//!
//! # Crash & failover
//!
//! [`FaultPlan`] also injects **shard outages**: hard crash windows during
//! which a shard leaves the pool entirely (its virtual clock freezes and
//! its cache residency is wiped — it rejoins cold). With [`FailoverConfig`]
//! enabled the runtime reacts: at the down edge the controller
//! **evacuates** the dead shard's queued buckets to the least-loaded
//! survivors (arrival ages preserved, transfer cost charged to the
//! destination clock), marks fragments already released to the dead shard
//! as lost, and **re-delivers** them after a virtual-time timeout with
//! exponential backoff and a bounded retry budget — so every query still
//! reaches exactly one terminal outcome (completed, or rejected when the
//! budget exhausts with no shard up), asserted per priority class and
//! recorded in a [`FailoverLog`]; with failover disabled the lost fragments
//! simply wait out the outage.
//!
//! # Unreliable transport & hedging
//!
//! With [`TransportConfig`] enabled the router↔shard hop stops being a
//! lossless teleport and becomes a modeled datagram link: [`FaultPlan`]
//! `links` windows drop, delay, duplicate, and reorder messages per
//! `(shard, direction)`, and the transport reacts — unacknowledged sends
//! **retransmit** on the shared [`RetryPolicy`] schedule (the same
//! detection-timeout + exponential-backoff shape failover re-delivery
//! uses), receivers **dedup** by `(query, shard, attempt)` identity so
//! retransmissions and network duplicates are exactly-once in effect, and
//! chains that exhaust their budget undelivered end in a recorded rejection
//! with conserved per-class accounting. Optional **straggler hedging**
//! re-issues fragments lagging a multiple of their class's observed
//! response quantile to the least-loaded other shard; the first completion
//! wins and the loser is suppressed like a duplicate. Every draw is a pure
//! SplitMix64 function of `(seed, query, shard, attempt)` and the whole
//! schedule is resolved into a [`TransportLog`] before any shard runs.
//!
//! # Flight recorder
//!
//! [`RuntimeConfig::telemetry`] turns on `liferaft-telemetry`'s structured
//! event bus: every shard worker records typed scheduler / batch / cache /
//! completion events, the controller paths contribute migration and
//! admission events, and [`RuntimeReport::telemetry`] carries the merged
//! [`TelemetryReport`] — per-shard time series plus the raw event stream,
//! exportable as JSONL or a Chrome/Perfetto trace. Events are merged in
//! the same canonical `(time, shard, seq)` order the completion merge
//! uses, so stepped and threaded runs produce **byte-identical** streams;
//! with the default [`TelemetryMode::Off`] the recorder is a null sink and
//! runs are bit-identical to an un-instrumented build.
//!
//! # Sweep driver
//!
//! [`sweep`] fans independent runs — α sweeps, shard-count sweeps, any
//! pure per-item closure — across a thread pool with results in input
//! order whatever the thread count ([`parallel_map`]).
//!
//! # Layout
//!
//! | module | contents |
//! |---|---|
//! | [`shard`] | shard identity, bucket → shard maps (contiguous / hashed / elastic) |
//! | [`router`] | query → per-shard fragment routing (up front, or arrival by arrival) |
//! | [`worker`] | the per-shard admission-controlled serving loop |
//! | [`rebalance`] | the epoch decision log and the greedy migration planner |
//! | [`failover`] | the crash/outage decision log: evacuations, re-deliveries, conservation |
//! | [`admission`] | the global front door: classes, shedding, the decision log |
//! | [`retry`] | the shared bounded-retry schedule (failover + transport) |
//! | [`transport`] | the lossy-link transport: retransmit, dedup, hedging |
//! | [`runtime`] | the one run path: stepped driver + handlers, threaded pool, aggregation |
//! | [`config`] | runtime + admission + rebalance + fault configuration, execution mode |
//! | [`sweep`] | the deterministic parallel sweep driver |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod config;
pub mod failover;
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
    QueryClass, QueryVerdict, RejectedQuery,
};
pub use config::{AdmissionConfig, ExecMode, FaultPlan, RebalanceConfig, RuntimeConfig};
pub use failover::{
    ClassConservation, Evacuation, FailedQuery, FailoverConfig, FailoverLog, FailoverReport,
    Redelivery, ShardTransition,
};
pub use rebalance::{EpochRecord, Migration, RebalanceLog};
pub use retry::RetryPolicy;
pub use router::{route, route_parallel, Fragment, Routing};
pub use runtime::{RuntimeReport, ShardedRuntime};
pub use shard::{ElasticShardMap, ShardAssignment, ShardId, ShardMap};
pub use sweep::{alpha_sweep, parallel_map, shard_sweep, SweepPoint};
pub use transport::{
    HedgeConfig, HedgeDecision, LinkDrop, Retransmit, SuppressedDuplicate, TransportConfig,
    TransportLog, TransportReport,
};
pub use worker::{AdmissionStats, ShardRun};

// Re-export the flight-recorder surface so runtime users configure and
// consume telemetry without a separate `liferaft-telemetry` import.
pub use liferaft_telemetry::{
    Event, EventKind, TelemetryConfig, TelemetryMode, TelemetryReport, TelemetrySink, ROUTER_SHARD,
};
