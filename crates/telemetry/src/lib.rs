//! Flight recorder for LifeRaft: structured event tracing, per-shard
//! time-series telemetry, and Chrome/Perfetto trace export.
//!
//! The recorder has three layers:
//!
//! 1. **Event bus** — engines call a [`TelemetrySink`] at each instrumented
//!    seam (scheduler decisions, batch boundaries, cache residency churn,
//!    query lifecycle; the runtime adds migrations and admission verdicts
//!    under the [`ROUTER_SHARD`] pseudo-shard). [`NullSink`] is the
//!    default: emission sites guard on [`TelemetrySink::enabled`], so a
//!    disabled run executes the exact un-instrumented instruction stream
//!    and stays bit-identical to the recorded goldens.
//! 2. **Time series** — [`TelemetryReport::build`] folds a merged stream
//!    into fixed virtual-time-window samples per shard (queue depth,
//!    decision rate, scan hit rate, p90 response). Run totals are not
//!    re-derived here: they live in the run's reports.
//! 3. **Export** — [`TelemetryReport::to_jsonl`] renders the stream one
//!    event per line; [`TelemetryReport::to_chrome_trace`] renders a
//!    Chrome trace-event / Perfetto document of per-shard batch timelines,
//!    migrations, and admission waits on virtual time.
//!
//! **Determinism contract.** Events are recorded per shard and merged in
//! the same canonical `(running clock, shard, seq)` order the runtime uses
//! for completion merging, with every payload field an integer or boolean of
//! virtual-time quantities — so the stepped and threaded executors produce
//! byte-identical JSONL and trace documents for the same configuration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod report;
pub mod sink;

pub use event::{class_label, Event, EventKind, ROUTER_SHARD};
pub use export::{event_to_json, events_to_chrome_trace, events_to_jsonl};
pub use report::{ShardSeries, TelemetryReport};
pub use sink::{
    JsonlSink, NullSink, RingBufferSink, TelemetryConfig, TelemetryMode, TelemetrySink,
};
