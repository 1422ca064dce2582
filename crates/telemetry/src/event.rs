//! The typed event vocabulary of the flight recorder.
//!
//! Every observable state change in the engine and the runtime maps to one
//! [`EventKind`], stamped into an [`Event`] with the virtual time it
//! happened, the shard that recorded it, and a per-shard sequence number.
//! All payload fields are integers or booleans of virtual-time quantities —
//! no floats, no host clocks — so a rendered event stream is byte-identical
//! across platforms and executors.

use std::fmt;

use liferaft_storage::{SimDuration, SimTime};

/// The pseudo-shard id under which runtime-level (router / controller)
/// events are recorded: migrations from the rebalance log, admission
/// verdicts and samples from the front-door log. The runtime merges the
/// router stream after every real shard's at one clock, so router events
/// interleave deterministically with shard events.
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

/// One payload value as the trace renders it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Value {
    /// A non-negative integer (`"uint"` in the schema).
    Uint(u64),
    /// A boolean (`"bool"`).
    Bool(bool),
    /// A virtual-time duration in integer microseconds: a `"uint"` whose
    /// key is the field name plus `_us`.
    Micros(u64),
}

impl Value {
    /// What the value's type appends to its field's JSON key.
    pub(crate) fn key_suffix(self) -> &'static str {
        match self {
            Value::Micros(_) => "_us",
            Value::Uint(_) | Value::Bool(_) => "",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Uint(n) | Value::Micros(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A payload field's Rust type, and the [`Value`] it renders as.
trait Field {
    fn value(self) -> Value;
}

impl Field for u8 {
    fn value(self) -> Value {
        Value::Uint(self.into())
    }
}

impl Field for u32 {
    fn value(self) -> Value {
        Value::Uint(self.into())
    }
}

impl Field for u64 {
    fn value(self) -> Value {
        Value::Uint(self)
    }
}

impl Field for bool {
    fn value(self) -> Value {
        Value::Bool(self)
    }
}

impl Field for SimDuration {
    fn value(self) -> Value {
        Value::Micros(self.as_micros())
    }
}

/// Declares the event vocabulary once: each kind's variant, its stable
/// snake_case name (the `kind` of the JSONL rendering and the key of the
/// checked-in trace schema), and its payload fields in rendering order.
/// [`EventKind::name`] and the payload half of
/// [`event_to_json`](crate::export::event_to_json) derive from it, and a
/// unit test holds `scripts/trace_schema.json` to it.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $name:literal {
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty ),* $(,)?
        }
    ),* $(,)?) => {
        /// The event taxonomy. One variant per instrumented seam.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$doc])* $variant { $( $(#[$field_doc])* $field: $ty ),* } ),*
        }

        impl EventKind {
            /// The stable snake_case name of the variant — the `kind` field of
            /// the JSONL rendering and the key of the checked-in trace schema.
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $name ),*
                }
            }

            /// Calls `f` with each payload field's name and value, in
            /// declaration order.
            pub(crate) fn for_each_field(&self, mut f: impl FnMut(&'static str, Value)) {
                match self {
                    $( EventKind::$variant { $($field),* } => {
                        $( f(stringify!($field), Field::value(*$field)); )*
                    } )*
                }
            }

            /// One event of every kind, in declaration order, each field at
            /// its zero value.
            #[cfg(test)]
            fn every_kind() -> Vec<EventKind> {
                vec![$( EventKind::$variant { $( $field: <$ty>::default() ),* } ),*]
            }
        }
    };
}

events! {
    /// A query's work items were delivered to this engine (per-fragment in
    /// the sharded runtime; `assignments` counts the locally delivered
    /// (object × bucket) entries, 0 for a zero-work query).
    QueryArrival = "query_arrival" {
        /// The query id.
        query: u64,
        /// Locally delivered assignments.
        assignments: u64,
    },
    /// The scheduler picked a bucket.
    Decision = "decision" {
        /// The chosen bucket.
        bucket: u32,
        /// Candidate buckets at the decision point.
        candidates: u64,
        /// Whether the pick's threshold pass closed within the first half
        /// of the candidate list, i.e. counted as a frontier pick (always
        /// `false` for policies without a threshold pass).
        frontier: bool,
    },
    /// A batch began executing.
    BatchStart = "batch_start" {
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
    BatchEnd = "batch_end" {
        /// The serviced bucket.
        bucket: u32,
        /// Entries the batch serviced.
        entries: u64,
    },
    /// A shared scan was served from the bucket cache.
    CacheHit = "cache_hit" {
        /// The resident bucket.
        bucket: u32,
    },
    /// A shared scan loaded a bucket into the cache.
    CacheInsert = "cache_insert" {
        /// The inserted bucket.
        bucket: u32,
    },
    /// A shared scan's load evicted a bucket (recorded before its
    /// `CacheInsert`).
    CacheEvict = "cache_evict" {
        /// The evicted bucket.
        bucket: u32,
    },
    /// A query's last local assignment was serviced.
    QueryComplete = "query_complete" {
        /// The query id.
        query: u64,
        /// Assignments the query had on this engine.
        assignments: u64,
        /// Completion − arrival, on this engine.
        response: SimDuration,
    },
    /// The rebalance controller planned one bucket move (from the
    /// [`RebalanceLog`](../../liferaft_runtime/rebalance/struct.RebalanceLog.html)).
    MigrationPlanned = "migration_planned" {
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
    MigrationApplied = "migration_applied" {
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
    Admitted = "admitted" {
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
    Rejected = "rejected" {
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
    ShardDown = "shard_down" {
        /// The crashed shard.
        target: u32,
        /// Its queued-entry backlog at the boundary, before evacuation.
        queued: u64,
    },
    /// The shard's outage window ended: it rejoined the pool empty and cold.
    ShardUp = "shard_up" {
        /// The rejoining shard.
        target: u32,
    },
    /// Failover evacuated one bucket off a crashed shard.
    BucketEvacuated = "bucket_evacuated" {
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
    FragmentRetried = "fragment_retried" {
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
    FragmentDropped = "fragment_dropped" {
        /// Trace index of the fragment's query.
        query: u64,
        /// The shard whose link ate the message.
        link: u32,
        /// `true` for a lost data send (router → shard), `false` for a lost
        /// acknowledgement (shard → router).
        to_shard: bool,
        /// 0-based send attempt the message belonged to.
        attempt: u32,
    },
    /// The transport re-sent a fragment whose previous attempt went
    /// unacknowledged past its deadline.
    FragmentRetransmitted = "fragment_retransmitted" {
        /// Trace index of the fragment's query.
        query: u64,
        /// Destination shard.
        to: u32,
        /// 1-based retransmission attempt (attempt 0 was the original send).
        attempt: u32,
    },
    /// The transport hedged a straggling fragment: a duplicate was issued
    /// to another shard to race the original.
    FragmentHedged = "fragment_hedged" {
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
    DuplicateSuppressed = "duplicate_suppressed" {
        /// Trace index of the fragment's query.
        query: u64,
        /// The receiving shard.
        to: u32,
        /// Attempt the discarded copy carried.
        attempt: u32,
    },
    /// A front-door load sample at an epoch boundary.
    AdmissionSampled = "admission_sampled" {
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

    /// `scripts/trace_schema.json` says what the declaration says: the
    /// envelope, then every kind in declaration order with every field's
    /// JSON key and type, nothing more.
    #[test]
    fn the_checked_in_schema_matches_the_declaration() {
        let file: String = include_str!("../../../scripts/trace_schema.json")
            .split_whitespace()
            .collect();
        let kinds: Vec<String> = EventKind::every_kind()
            .iter()
            .map(|kind| {
                let mut fields = Vec::new();
                kind.for_each_field(|key, value| {
                    let ty = match value {
                        Value::Bool(_) => "bool",
                        Value::Uint(_) | Value::Micros(_) => "uint",
                    };
                    let suffix = value.key_suffix();
                    fields.push(format!("\"{key}{suffix}\":\"{ty}\""));
                });
                format!("\"{}\":{{{}}}", kind.name(), fields.join(","))
            })
            .collect();
        let expected = format!(
            "\"envelope\":{{\"t\":\"uint\",\"shard\":\"uint\",\"seq\":\"uint\",\"kind\":\"string\"}},\"kinds\":{{{}}}}}",
            kinds.join(",")
        );
        assert!(
            file.ends_with(&expected),
            "scripts/trace_schema.json drifted from the EventKind declaration; \
             whitespace aside, it must end with:\n{expected}"
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
