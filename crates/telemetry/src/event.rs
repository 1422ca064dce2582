//! The typed event vocabulary of the flight recorder.
//!
//! Every observable state change in the engine and the runtime maps to one
//! [`EventKind`], stamped into an [`Event`] with the virtual time it
//! happened, the shard that recorded it, and a per-shard sequence number.
//! All payload fields are integers or booleans of virtual-time quantities —
//! no floats, no host clocks — so a rendered event stream is byte-identical
//! across platforms and executors.

use liferaft_storage::{SimDuration, SimTime};

/// The pseudo-shard id under which runtime-level (router / controller)
/// events are recorded: migrations from the rebalance log, admission
/// verdicts and samples from the front-door log. `u32::MAX` sorts after
/// every real shard in the canonical `(time, shard, seq)` merge, so router
/// events interleave deterministically with shard events.
pub const ROUTER_SHARD: u32 = u32::MAX;

/// One recorded event: when, where, in what order, and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual time the event happened (a query arrival keeps its *true*
    /// arrival instant even when recorded at a later batch boundary, so
    /// per-shard streams are ordered by record sequence, not raw time).
    pub time: SimTime,
    /// Recording shard (sinks stamp 0; the runtime rewrites this to the
    /// owning shard, or [`ROUTER_SHARD`] for controller events).
    pub shard: u32,
    /// Per-shard record sequence number, dense from 0.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// A controller event on the [`ROUTER_SHARD`] pseudo-shard. `seq` is 0
    /// until the runtime densifies the time-sorted router stream.
    pub fn router(time: SimTime, kind: EventKind) -> Self {
        Event {
            time,
            shard: ROUTER_SHARD,
            seq: 0,
            kind,
        }
    }
}

/// The event taxonomy. One variant per instrumented seam.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A query's work items were delivered to this engine (per-fragment in
    /// the sharded runtime; `assignments` counts the locally delivered
    /// (object × bucket) entries, 0 for a zero-work query).
    QueryArrival {
        /// The query id.
        query: u64,
        /// Locally delivered assignments.
        assignments: u64,
    },
    /// The scheduler picked a bucket.
    Decision {
        /// The chosen bucket.
        bucket: u32,
        /// Candidate buckets at the decision point.
        candidates: u64,
        /// Whether the pick came off the threshold-scan frontier (always
        /// `false` for policies without a frontier).
        frontier: bool,
    },
    /// A batch began executing.
    BatchStart {
        /// The serviced bucket.
        bucket: u32,
        /// Entries drained into the batch.
        entries: u64,
        /// Whether the bucket was cache-resident at batch start.
        cached: bool,
        /// Whether the hybrid evaluator chose the indexed strategy.
        indexed: bool,
    },
    /// A batch finished (recorded at `start + cost`; the matching
    /// [`BatchStart`](EventKind::BatchStart) is the previous batch event on
    /// the same shard — shards run one batch at a time).
    BatchEnd {
        /// The serviced bucket.
        bucket: u32,
        /// Entries the batch serviced.
        entries: u64,
    },
    /// A shared scan was served from the bucket cache.
    CacheHit {
        /// The resident bucket.
        bucket: u32,
    },
    /// A shared scan loaded a bucket into the cache.
    CacheInsert {
        /// The inserted bucket.
        bucket: u32,
    },
    /// A shared scan's load evicted a bucket (recorded before its
    /// `CacheInsert`).
    CacheEvict {
        /// The evicted bucket.
        bucket: u32,
    },
    /// A query's last local assignment was serviced.
    QueryComplete {
        /// The query id.
        query: u64,
        /// Assignments the query had on this engine.
        assignments: u64,
        /// Completion − arrival, on this engine.
        response: SimDuration,
    },
    /// The rebalance controller planned one bucket move (from the
    /// [`RebalanceLog`](../../liferaft_runtime/rebalance/struct.RebalanceLog.html)).
    MigrationPlanned {
        /// 1-based rebalance epoch.
        epoch: u32,
        /// The migrating bucket.
        bucket: u32,
        /// Source shard.
        from: u32,
        /// Destination shard.
        to: u32,
        /// Queued entries travelling with the bucket.
        entries: u64,
    },
    /// A planned move was applied at the destination.
    MigrationApplied {
        /// 1-based rebalance epoch.
        epoch: u32,
        /// The migrated bucket.
        bucket: u32,
        /// Destination shard.
        to: u32,
        /// Virtual-time migration cost charged to the destination clock.
        cost: SimDuration,
    },
    /// The front door admitted a query (possibly after queueing or shed
    /// backoff; recorded at the release instant).
    Admitted {
        /// Trace index of the query.
        query_index: u64,
        /// Priority class rank (0 interactive, 1 standard, 2 batch — see
        /// [`class_label`]).
        class: u8,
        /// Routed workload size.
        assignments: u64,
        /// Shed-into-backoff count before admission.
        sheds: u32,
        /// Release − arrival: the admission wait.
        waited: SimDuration,
    },
    /// The front door terminally rejected a query.
    Rejected {
        /// Trace index of the query.
        query_index: u64,
        /// Priority class rank.
        class: u8,
        /// Routed workload size.
        assignments: u64,
        /// Shed-into-backoff count before rejection.
        sheds: u32,
    },
    /// An injected outage began: the shard left the pool (its clock
    /// freezes; a crash wipes its cache residency).
    ShardDown {
        /// The crashed shard.
        target: u32,
        /// Its queued-entry backlog at the boundary, before evacuation.
        queued: u64,
    },
    /// The shard's outage window ended: it rejoined the pool empty and cold.
    ShardUp {
        /// The rejoining shard.
        target: u32,
    },
    /// Failover evacuated one bucket off a crashed shard.
    BucketEvacuated {
        /// The evacuated bucket.
        bucket: u32,
        /// The crashed source shard.
        from: u32,
        /// The surviving destination shard.
        to: u32,
        /// Queued entries that moved with the bucket.
        entries: u64,
        /// Whether the bucket was cache-resident at the source.
        resident: bool,
    },
    /// A re-delivery attempt for a fragment lost to a dead shard.
    FragmentRetried {
        /// Trace index of the query whose fragment was lost.
        query: u64,
        /// The dead shard the fragment was originally routed to.
        from: u32,
        /// 1-based attempt number.
        attempt: u32,
        /// Whether the attempt landed on a live shard.
        delivered: bool,
        /// The destination shard (`u32::MAX` when the attempt failed
        /// because no shard was up).
        to: u32,
    },
    /// The transport lost a message on a lossy link window: a data send
    /// that never reached its shard, or an acknowledgement that never made
    /// it back to the router.
    FragmentDropped {
        /// Trace index of the fragment's query.
        query: u64,
        /// The shard whose link ate the message.
        shard: u32,
        /// `true` for a lost data send (router → shard), `false` for a lost
        /// acknowledgement (shard → router).
        to_shard: bool,
        /// 0-based send attempt the message belonged to.
        attempt: u32,
    },
    /// The transport re-sent a fragment whose previous attempt went
    /// unacknowledged past its deadline.
    FragmentRetransmitted {
        /// Trace index of the fragment's query.
        query: u64,
        /// Destination shard.
        shard: u32,
        /// 1-based retransmission attempt (attempt 0 was the original send).
        attempt: u32,
    },
    /// The transport hedged a straggling fragment: a duplicate was issued
    /// to another shard to race the original.
    FragmentHedged {
        /// Trace index of the straggling query.
        query: u64,
        /// The shard the original fragment is lagging on.
        from: u32,
        /// The shard that received the hedge copy.
        to: u32,
        /// (object × bucket) assignments the copy carries.
        entries: u64,
    },
    /// A receiver discarded a duplicate data copy (late retransmission or
    /// network duplicate) by attempt identity — delivery stayed
    /// exactly-once.
    DuplicateSuppressed {
        /// Trace index of the fragment's query.
        query: u64,
        /// The receiving shard.
        shard: u32,
        /// Attempt the discarded copy carried.
        attempt: u32,
    },
    /// A front-door load sample at an epoch boundary.
    AdmissionSampled {
        /// 1-based sample epoch.
        epoch: u32,
        /// Admitted-but-unserviced assignments.
        inflight: u64,
        /// Actively waiting assignments.
        waiting: u64,
        /// Queries in shed backoff.
        backoff: u64,
        /// Cumulative admitted queries.
        admitted: u64,
        /// Cumulative shed events.
        shed_events: u64,
        /// Cumulative rejected queries.
        rejected: u64,
    },
}

impl EventKind {
    /// The stable snake_case name of the variant — the `kind` field of the
    /// JSONL rendering and the key of the checked-in trace schema.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueryArrival { .. } => "query_arrival",
            EventKind::Decision { .. } => "decision",
            EventKind::BatchStart { .. } => "batch_start",
            EventKind::BatchEnd { .. } => "batch_end",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheInsert { .. } => "cache_insert",
            EventKind::CacheEvict { .. } => "cache_evict",
            EventKind::QueryComplete { .. } => "query_complete",
            EventKind::MigrationPlanned { .. } => "migration_planned",
            EventKind::MigrationApplied { .. } => "migration_applied",
            EventKind::Admitted { .. } => "admitted",
            EventKind::Rejected { .. } => "rejected",
            EventKind::ShardDown { .. } => "shard_down",
            EventKind::ShardUp { .. } => "shard_up",
            EventKind::BucketEvacuated { .. } => "bucket_evacuated",
            EventKind::FragmentRetried { .. } => "fragment_retried",
            EventKind::FragmentDropped { .. } => "fragment_dropped",
            EventKind::FragmentRetransmitted { .. } => "fragment_retransmitted",
            EventKind::FragmentHedged { .. } => "fragment_hedged",
            EventKind::DuplicateSuppressed { .. } => "duplicate_suppressed",
            EventKind::AdmissionSampled { .. } => "admission_sampled",
        }
    }
}

/// Human label of a priority-class rank (the runtime's `QueryClass::rank`
/// order). Unknown ranks render as `"?"` rather than panicking — a trace
/// viewer must not crash on a forward-compatible stream.
pub fn class_label(rank: u8) -> &'static str {
    match rank {
        0 => "interactive",
        1 => "standard",
        2 => "batch",
        _ => "?",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        let k = EventKind::BatchStart {
            bucket: 1,
            entries: 2,
            cached: false,
            indexed: false,
        };
        assert_eq!(k.name(), "batch_start");
        assert_eq!(
            EventKind::QueryArrival {
                query: 0,
                assignments: 0
            }
            .name(),
            "query_arrival"
        );
    }

    #[test]
    fn class_labels_cover_ranks() {
        assert_eq!(class_label(0), "interactive");
        assert_eq!(class_label(1), "standard");
        assert_eq!(class_label(2), "batch");
        assert_eq!(class_label(9), "?");
    }
}
