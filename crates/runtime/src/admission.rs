//! The global front door: admission control, priority classes, load
//! shedding, and rejection.
//!
//! The runtime's one admission path: a single controller that bounds total
//! in-flight work across the pool, classifies every arriving query into a
//! [`QueryClass`], and under pressure degrades in a fixed order —
//!
//! 1. **queue**: hold arrivals in a priority queue ordered by
//!    `(class, true arrival, trace index)` — FIFO at true arrival age
//!    within a class, strict priority across classes;
//! 2. **shed**: past the waiting cap, batch-class queries are shed
//!    youngest-first and re-enqueued after an exponential virtual-time
//!    backoff;
//! 3. **reject**: a query shed once more after its last allowed shed
//!    terminates with a recorded `Rejected` verdict that conserves
//!    accounting (every query is exactly-once terminal: completed or
//!    rejected, never lost).
//!
//! The backoff, the shed budget and the sample cadence are fixed
//! constants, tabled in `docs/ARCHITECTURE.md`, "Fixed controller
//! constants".
//!
//! A waiter holds its work items from the run's feed, sized at
//! registration and dropped on rejection. An admitted query's items are
//! routed under the live map and handed off exactly like a routed window,
//! and the door's only feedback is what the shards hold — so its charge
//! follows a migrated or evacuated bucket, a fragment lost in transit or to
//! a dead shard is never charged, and a hedge copy is.
//!
//! # Determinism
//!
//! Decisions are made **once**, by the door as a handler of the runtime's
//! window loop, and recorded as an [`AdmissionLog`]: one [`QueryVerdict`]
//! per trace entry plus epoch-indexed [`AdmissionSample`]s. The door reads
//! capacity before every shard step, so a door-on window is one step of one
//! worker on the calling thread, in either execution mode.

use std::collections::BTreeSet;

use liferaft_metrics::Summary;
use liferaft_query::{CrossMatchQuery, WorkItem};
use liferaft_storage::{SimDuration, SimTime};
use liferaft_telemetry::{class_label, Event, EventKind};

use crate::ledger::{Ledger, RejectedBy, RejectedQuery};

/// Priority class of a query at the front door, derived from its routed
/// workload size (total object × bucket assignments): small exploratory
/// probes are interactive, exhaustive scans are batch, the rest standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryClass {
    /// Small, latency-sensitive probes — admitted first, never shed.
    Interactive,
    /// The default class.
    Standard,
    /// Large exhaustive scans — first to wait, the only class that sheds.
    Batch,
}

impl QueryClass {
    /// Every class, in priority order (highest first).
    pub const ALL: [QueryClass; 3] = [
        QueryClass::Interactive,
        QueryClass::Standard,
        QueryClass::Batch,
    ];

    /// Priority rank: 0 = most urgent. Also the index into per-class
    /// stat arrays.
    pub fn rank(self) -> usize {
        match self {
            QueryClass::Interactive => 0,
            QueryClass::Standard => 1,
            QueryClass::Batch => 2,
        }
    }

    /// Human-readable label, the one the trace's renderers use
    /// ([`class_label`]).
    pub fn label(self) -> &'static str {
        class_label(self.rank_u8())
    }

    fn rank_u8(self) -> u8 {
        self.rank() as u8
    }
}

/// Base backoff of a shed query: the k-th shed waits `SHED_BACKOFF × 2^(k−1)`.
const SHED_BACKOFF: SimDuration = SimDuration::from_secs(5);
/// Sheds a query survives; the next one rejects it.
const MAX_SHEDS: u32 = 3;
/// Cadence of the observability [`AdmissionSample`]s in the log.
const SAMPLE_EPOCH: SimDuration = SimDuration::from_secs(30);

/// Front-door configuration.
///
/// All bounds are in (object × bucket) **assignments** — the same unit the
/// cost model uses — so "in-flight work" is proportional to actual service
/// demand, not query count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontDoorConfig {
    /// Master switch. Disabled (the default) bypasses the controller
    /// entirely and reproduces the static runtime bit-for-bit.
    pub enabled: bool,
    /// Global bound on the assignments the pool holds — handed to a shard,
    /// not yet serviced by a completed batch. Checked *head-of-line*: if
    /// the highest-priority waiter does not fit, nothing lower admits
    /// either. A waiter larger than the whole bound still admits once the
    /// pool drains empty, so the bound can never deadlock.
    pub max_inflight_assignments: u64,
    /// Cap on actively-waiting assignments: above it, batch-class waiters
    /// shed (youngest first) into backoff.
    pub max_waiting_assignments: Option<u64>,
    /// A query with at most this many assignments is [`QueryClass::Interactive`].
    pub interactive_max_assignments: u64,
    /// A query with at least this many assignments is [`QueryClass::Batch`].
    pub batch_min_assignments: u64,
}

impl FrontDoorConfig {
    /// Controller off — the static-runtime behaviour (and the `Default`).
    pub fn disabled() -> Self {
        FrontDoorConfig {
            enabled: false,
            max_inflight_assignments: u64::MAX,
            max_waiting_assignments: None,
            interactive_max_assignments: 200,
            batch_min_assignments: 1_500,
        }
    }

    /// Controller on with a global in-flight bound and default class
    /// thresholds; shedding and rejection stay off until the waiting cap is
    /// set.
    ///
    /// ```
    /// use liferaft_runtime::FrontDoorConfig;
    ///
    /// let mut fd = FrontDoorConfig::bounded(10_000);
    /// assert!(fd.enabled);
    /// // Turn on batch shedding past 50k waiting assignments.
    /// fd.max_waiting_assignments = Some(50_000);
    /// assert!(!FrontDoorConfig::disabled().enabled);
    /// ```
    pub fn bounded(max_inflight_assignments: u64) -> Self {
        FrontDoorConfig {
            enabled: true,
            max_inflight_assignments,
            ..Self::disabled()
        }
    }

    /// Classifies a query by its routed workload size.
    pub fn classify(&self, assignments: u64) -> QueryClass {
        if assignments <= self.interactive_max_assignments {
            QueryClass::Interactive
        } else if assignments >= self.batch_min_assignments {
            QueryClass::Batch
        } else {
            QueryClass::Standard
        }
    }

    /// The class a run gives a query: under the door's thresholds when the
    /// door is on, the default ones otherwise. The ledger, every report and
    /// the hedger all classify through it, so a query has one class per run.
    pub(crate) fn run_class(&self, assignments: u64) -> QueryClass {
        let door = if self.enabled {
            *self
        } else {
            Self::disabled()
        };
        door.classify(assignments)
    }

    /// Validates invariants.
    pub fn validate(&self) {
        if !self.enabled {
            return;
        }
        assert!(
            self.max_inflight_assignments > 0,
            "a zero in-flight bound would admit nothing"
        );
        assert!(
            self.interactive_max_assignments < self.batch_min_assignments,
            "class thresholds must leave room for the standard class"
        );
    }
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The terminal decision of one query at the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Admitted: fragments released to the shards at `at`, as the `seq`-th
    /// admission overall (the shard streams' append order).
    Admitted {
        /// Virtual release time.
        at: SimTime,
        /// Global admission sequence number.
        seq: u64,
    },
    /// Rejected at `at` — no fragments were ever routed.
    Rejected {
        /// Virtual rejection time.
        at: SimTime,
    },
}

/// One trace entry's recorded front-door outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryVerdict {
    /// The assigned priority class.
    pub class: QueryClass,
    /// Routed workload size (assignments across all shards).
    pub assignments: u64,
    /// How many times the query was shed into backoff before its terminal
    /// decision.
    pub sheds: u32,
    /// The terminal decision.
    pub decision: Disposition,
}

impl QueryVerdict {
    /// True if the query was admitted.
    pub fn admitted(&self) -> bool {
        matches!(self.decision, Disposition::Admitted { .. })
    }
}

/// One epoch-boundary observability sample of controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionSample {
    /// 1-based epoch index (boundary k sits at k × 30 s).
    pub epoch: u32,
    /// The boundary's virtual time.
    pub at: SimTime,
    /// In-flight assignments at the sample: what the shards held at the
    /// pass that crossed it, plus what that pass admitted.
    pub inflight_assignments: u64,
    /// Actively-waiting assignments at the sample.
    pub waiting_assignments: u64,
    /// Queries sitting in shed backoff at the sample.
    pub backoff_queries: u32,
    /// Cumulative admitted queries.
    pub admitted: u64,
    /// Cumulative shed events.
    pub shed_events: u64,
    /// Cumulative rejected queries.
    pub rejected: u64,
}

/// The front door's epoch-indexed decision log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdmissionLog {
    /// One verdict per trace entry, by trace index.
    pub verdicts: Vec<QueryVerdict>,
    /// Controller-state samples every 30 s of virtual time.
    pub samples: Vec<AdmissionSample>,
}

impl AdmissionLog {
    /// Total rejected queries.
    pub fn total_rejected(&self) -> u64 {
        self.verdicts.iter().filter(|v| !v.admitted()).count() as u64
    }

    /// Total shed (backoff) events across all queries.
    pub fn total_shed_events(&self) -> u64 {
        self.verdicts.iter().map(|v| v.sheds as u64).sum()
    }

    /// The queries the door rejected, in trace order: `(trace index, when,
    /// sheds survived)`.
    pub(crate) fn rejections(&self) -> impl Iterator<Item = (usize, SimTime, u32)> + '_ {
        let rejection = |(i, v): (usize, &QueryVerdict)| match v.decision {
            Disposition::Rejected { at } => Some((i, at, v.sheds)),
            Disposition::Admitted { .. } => None,
        };
        self.verdicts.iter().enumerate().filter_map(rejection)
    }

    /// Renders the log as router events: one verdict per query in trace
    /// order, then the samples.
    pub(crate) fn render(&self, entries: &[(SimTime, CrossMatchQuery)], out: &mut Vec<Event>) {
        for (i, v) in self.verdicts.iter().enumerate() {
            let (query_index, class) = (i as u64, v.class.rank_u8());
            let (assignments, sheds) = (v.assignments, v.sheds);
            out.push(match v.decision {
                Disposition::Admitted { at, .. } => Event::router(
                    at,
                    EventKind::Admitted {
                        query_index,
                        class,
                        assignments,
                        sheds,
                        waited: at.since(entries[i].0),
                    },
                ),
                Disposition::Rejected { at } => Event::router(
                    at,
                    EventKind::Rejected {
                        query_index,
                        class,
                        assignments,
                        sheds,
                    },
                ),
            });
        }
        for s in &self.samples {
            out.push(Event::router(
                s.at,
                EventKind::AdmissionSampled {
                    epoch: s.epoch,
                    inflight: s.inflight_assignments,
                    waiting: s.waiting_assignments,
                    backoff: s.backoff_queries as u64,
                    admitted: s.admitted,
                    shed_events: s.shed_events,
                    rejected: s.rejected,
                },
            ));
        }
    }

    /// Closes the log into the [`FrontDoorReport`]: the door's rejection
    /// records, its own per-class columns, and the response / TTFB
    /// summaries of each class's completed queries. An admitted query ends
    /// completed, or rejected further on by failover or the transport — the
    /// ledger has already asserted that every query ends exactly once.
    ///
    /// # Panics
    /// Panics if a shard serviced any part of a query the door rejected.
    pub(crate) fn into_report(self, ledger: &Ledger<'_>) -> FrontDoorReport {
        let mut per_class: [ClassStats; 3] = QueryClass::ALL.map(|class| ClassStats {
            class,
            admitted: 0,
            deferred: 0,
            shed_events: 0,
            max_retries: 0,
            response: Summary::from_samples(Vec::new()),
            ttfb: Summary::from_samples(Vec::new()),
        });
        let mut response: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut ttfb: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, v) in self.verdicts.iter().enumerate() {
            let arrival = ledger.arrival(i);
            let c = v.class.rank();
            let stats = &mut per_class[c];
            stats.shed_events += v.sheds as u64;
            stats.max_retries = stats.max_retries.max(v.sheds);
            match v.decision {
                Disposition::Admitted { at, .. } => {
                    stats.admitted += 1;
                    if at > arrival {
                        stats.deferred += 1;
                    }
                    if !ledger.completed[i] {
                        continue; // rejected by failover or the transport
                    }
                    let (first, last) = ledger.span[i].expect("a completed query was serviced");
                    response[c].push(last.since(arrival).as_secs_f64());
                    // A zero-work query's only event can be recorded at a later
                    // batch boundary; its true first byte is its arrival.
                    ttfb[c].push(first.max(arrival).since(arrival).as_secs_f64());
                }
                Disposition::Rejected { .. } => assert!(
                    ledger.span[i].is_none(),
                    "query {i} was rejected yet a shard serviced it"
                ),
            }
        }
        for (c, (r, t)) in response.into_iter().zip(ttfb).enumerate() {
            per_class[c].response = Summary::from_samples(r);
            per_class[c].ttfb = Summary::from_samples(t);
        }
        FrontDoorReport {
            rejected: ledger.rejected_by(RejectedBy::FrontDoor),
            per_class,
            log: self,
        }
    }
}

/// The front door's own outcomes for one priority class.
///
/// The class's books — submitted, completed, rejected by any controller —
/// live in [`RuntimeReport::per_class`](crate::RuntimeReport::per_class).
/// There, `submitted` equals `admitted` plus the door's own rejections (the
/// class's entries in [`FrontDoorReport::rejected`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// The class.
    pub class: QueryClass,
    /// Queries that were (eventually) admitted.
    pub admitted: u64,
    /// Admitted queries whose release came after their arrival — they
    /// waited at the front door at least once.
    pub deferred: u64,
    /// Total shed-into-backoff events.
    pub shed_events: u64,
    /// Largest shed count any single query survived.
    pub max_retries: u32,
    /// Response times of the class's *completed* queries (arrival → last
    /// assignment serviced), in seconds.
    pub response: Summary,
    /// Time-to-first-byte of the class's completed queries (arrival →
    /// first fragment completion anywhere), in seconds.
    pub ttfb: Summary,
}

/// The front door's contribution to the runtime report: the decision log,
/// the rejected-query records, and per-class statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontDoorReport {
    /// The decision log.
    pub log: AdmissionLog,
    /// Every rejected query's terminal record, by trace order.
    pub rejected: Vec<RejectedQuery>,
    /// Per-class statistics, indexed by [`QueryClass::rank`].
    pub per_class: [ClassStats; 3],
}

impl FrontDoorReport {
    /// The stats of one class.
    pub fn class(&self, class: QueryClass) -> &ClassStats {
        &self.per_class[class.rank()]
    }
}

/// A query pending at the front door.
#[derive(Debug, Clone)]
struct PendingQuery {
    /// Trace index.
    index: usize,
    /// True arrival time (ages and FIFO order reference this).
    arrival: SimTime,
    /// Priority class.
    class: QueryClass,
    /// Total (object × bucket) assignments the query expands to.
    assignments: u64,
    /// The query's work items, routed at admission.
    items: Vec<WorkItem>,
    retries: u32,
    eligible_at: SimTime,
}

/// The controller state machine. Driven only by the runtime's window loop;
/// everything it decides lands in the [`AdmissionLog`].
pub(crate) struct FrontDoor {
    cfg: FrontDoorConfig,
    now: SimTime,
    /// Pending queries by trace index (`None` once terminal).
    slots: Vec<Option<PendingQuery>>,
    /// Actively-waiting queries, keyed by `(class rank, arrival, index)` —
    /// iteration order is admission priority order.
    active: BTreeSet<(u8, SimTime, usize)>,
    /// Shed queries keyed by `(eligible_at, index)`.
    backoff: BTreeSet<(SimTime, usize)>,
    active_assignments: u64,
    verdicts: Vec<Option<QueryVerdict>>,
    seq: u64,
    admitted_queries: u64,
    shed_events: u64,
    rejected_queries: u64,
    samples: Vec<AdmissionSample>,
    sampled: u32,
}

impl FrontDoor {
    pub(crate) fn new(cfg: FrontDoorConfig, n_queries: usize) -> Self {
        cfg.validate();
        FrontDoor {
            cfg,
            now: SimTime::ZERO,
            slots: (0..n_queries).map(|_| None).collect(),
            active: BTreeSet::new(),
            backoff: BTreeSet::new(),
            active_assignments: 0,
            verdicts: vec![None; n_queries],
            seq: 0,
            admitted_queries: 0,
            shed_events: 0,
            rejected_queries: 0,
            samples: Vec::new(),
            sampled: 0,
        }
    }

    /// Registers an arrival carrying `items` (trace order; at most once per
    /// index), classified by its size in assignments, which it returns.
    pub(crate) fn ingest(&mut self, index: usize, arrival: SimTime, items: Vec<WorkItem>) -> u64 {
        let assignments = items.iter().map(|i| i.len() as u64).sum();
        debug_assert!(
            self.verdicts[index].is_none(),
            "query {index} ingested twice"
        );
        debug_assert!(self.slots[index].is_none());
        let class = self.cfg.classify(assignments);
        self.active.insert((class.rank_u8(), arrival, index));
        self.active_assignments += assignments;
        self.slots[index] = Some(PendingQuery {
            index,
            arrival,
            class,
            assignments,
            items,
            retries: 0,
            eligible_at: arrival,
        });
        assignments
    }

    /// The instant of the latest [`pump`](Self::pump) — the controller's
    /// clock.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// The earliest future backoff wake-up, if any — a driver event source.
    pub(crate) fn next_wakeup(&self) -> Option<SimTime> {
        self.backoff.iter().next().map(|&(at, _)| at)
    }

    /// True while any query is actively waiting for admission.
    pub(crate) fn has_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// One controller pass at virtual time `t`: wake due backoffs, admit
    /// while the bound allows, then shed and reject per the waiting cap,
    /// then record any crossed sample boundaries. `held` is the assignments
    /// the shards hold at `t` — the controller's only feedback signal.
    /// Returns the `(trace index, items)` admitted, in admission order.
    pub(crate) fn pump(&mut self, t: SimTime, held: u64) -> Vec<(usize, Vec<WorkItem>)> {
        self.now = self.now.max(t);
        // Wake every backoff entry that has become eligible.
        while let Some(&(at, idx)) = self.backoff.iter().next() {
            if at > self.now {
                break;
            }
            self.backoff.remove(&(at, idx));
            let p = self.slots[idx].as_ref().expect("backoff entry is pending");
            self.active.insert((p.class.rank_u8(), p.arrival, idx));
            self.active_assignments += p.assignments;
        }

        // Admit in (class, arrival, index) order while the head fits the
        // global bound (strict priority: nothing lower-priority overtakes a
        // blocked head). Zero-work queries consume nothing and never block.
        let mut inflight = held;
        let mut admitted = Vec::new();
        while let Some(&(rank, arrival, idx)) = self.active.first() {
            let p = self.slots[idx].as_ref().expect("active entry is pending");
            let fits = inflight == 0
                || p.assignments == 0
                || inflight.saturating_add(p.assignments) <= self.cfg.max_inflight_assignments;
            if !fits {
                break;
            }
            self.active.remove(&(rank, arrival, idx));
            let p = self.slots[idx].take().expect("admitted entry is pending");
            self.active_assignments -= p.assignments;
            inflight += p.assignments;
            self.verdicts[idx] = Some(QueryVerdict {
                class: p.class,
                assignments: p.assignments,
                sheds: p.retries,
                decision: Disposition::Admitted {
                    at: self.now,
                    seq: self.seq,
                },
            });
            self.seq += 1;
            self.admitted_queries += 1;
            admitted.push((idx, p.items));
        }

        // Waiting cap: shed batch-class waiters, youngest first, into
        // backoff; a query out of sheds rejects instead.
        if let Some(soft) = self.cfg.max_waiting_assignments {
            while self.active_assignments > soft {
                let victim = self
                    .active
                    .range((QueryClass::Batch.rank_u8(), SimTime::ZERO, 0)..)
                    .next_back()
                    .copied();
                let Some((rank, arrival, idx)) = victim else {
                    break;
                };
                debug_assert_eq!(rank, QueryClass::Batch.rank_u8());
                self.active.remove(&(rank, arrival, idx));
                let p = self.slots[idx].as_mut().expect("victim is pending");
                self.active_assignments -= p.assignments;
                if p.retries >= MAX_SHEDS {
                    let p = self.slots[idx].take().expect("victim is pending");
                    self.reject(p);
                } else {
                    p.retries += 1;
                    let exp = (p.retries - 1).min(20);
                    p.eligible_at = self.now + SHED_BACKOFF.times(1u64 << exp);
                    self.backoff.insert((p.eligible_at, idx));
                    self.shed_events += 1;
                }
            }
        }

        // Observability samples at every crossed epoch boundary.
        while SimTime::ZERO + SAMPLE_EPOCH.times(self.sampled as u64 + 1) <= self.now {
            self.sampled += 1;
            self.samples.push(AdmissionSample {
                epoch: self.sampled,
                at: SimTime::ZERO + SAMPLE_EPOCH.times(self.sampled as u64),
                inflight_assignments: inflight,
                waiting_assignments: self.active_assignments,
                backoff_queries: self.backoff.len() as u32,
                admitted: self.admitted_queries,
                shed_events: self.shed_events,
                rejected: self.rejected_queries,
            });
        }
        admitted
    }

    fn reject(&mut self, p: PendingQuery) {
        self.verdicts[p.index] = Some(QueryVerdict {
            class: p.class,
            assignments: p.assignments,
            sheds: p.retries,
            decision: Disposition::Rejected { at: self.now },
        });
        self.rejected_queries += 1;
    }

    /// Finishes the run into the log.
    ///
    /// # Panics
    /// Panics if any query never reached a terminal verdict — a liveness
    /// bug in the window loop.
    pub(crate) fn into_log(self) -> AdmissionLog {
        let verdicts: Vec<QueryVerdict> = self
            .verdicts
            .into_iter()
            .enumerate()
            .map(|(i, v)| v.unwrap_or_else(|| panic!("query {i} left without a verdict")))
            .collect();
        AdmissionLog {
            verdicts,
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_query::QueryId;
    use liferaft_storage::BucketId;

    fn at(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// Registers query `index` carrying `assignments` in one work item (none
    /// for a zero-work query).
    fn ingest(door: &mut FrontDoor, index: usize, arrival: SimTime, assignments: u32) {
        let item = WorkItem {
            query: QueryId(index as u64),
            bucket: BucketId(0),
            object_indices: (0..assignments).collect(),
        };
        let items = if assignments == 0 { vec![] } else { vec![item] };
        assert_eq!(door.ingest(index, arrival, items), assignments as u64);
    }

    /// One pass; the trace indices admitted, each checked to carry the work
    /// it registered with.
    fn pump(door: &mut FrontDoor, t: SimTime, held: u64) -> Vec<usize> {
        let admitted = door.pump(t, held);
        for (index, items) in &admitted {
            assert!(items.iter().all(|i| i.query == QueryId(*index as u64)));
        }
        admitted.into_iter().map(|(index, _)| index).collect()
    }

    /// Interactive up to 10 assignments, batch from 100.
    fn cfg(max_inflight: u64) -> FrontDoorConfig {
        let mut c = FrontDoorConfig::bounded(max_inflight);
        c.interactive_max_assignments = 10;
        c.batch_min_assignments = 100;
        c
    }

    #[test]
    fn classification_uses_the_thresholds() {
        let c = cfg(1_000);
        assert_eq!(c.classify(0), QueryClass::Interactive);
        assert_eq!(c.classify(10), QueryClass::Interactive);
        assert_eq!(c.classify(11), QueryClass::Standard);
        assert_eq!(c.classify(99), QueryClass::Standard);
        assert_eq!(c.classify(100), QueryClass::Batch);
    }

    #[test]
    fn admission_is_priority_then_fifo() {
        // Capacity 60; three waiters: batch (oldest, 100), standard (60),
        // interactive (youngest, 10). Priority admits interactive first, and
        // the global head-of-line rule then blocks everything else.
        let mut door = FrontDoor::new(cfg(60), 3);
        ingest(&mut door, 0, at(1), 100);
        ingest(&mut door, 1, at(2), 60);
        ingest(&mut door, 2, at(3), 10);
        assert_eq!(
            pump(&mut door, at(3), 0),
            vec![2],
            "interactive first, rest blocked"
        );
        // Once the pool holds nothing, the standard waiter admits next
        // (priority), then head-of-line blocks the batch one.
        assert_eq!(pump(&mut door, at(10), 0), vec![1]);
        assert_eq!(pump(&mut door, at(20), 0), vec![0]);
        let log = door.into_log();
        assert_eq!(log.total_rejected(), 0);
        let released = |s, seq| Disposition::Admitted { at: at(s), seq };
        let decisions: Vec<Disposition> = log.verdicts.iter().map(|v| v.decision).collect();
        assert_eq!(
            decisions,
            vec![released(20, 2), released(10, 1), released(3, 0)],
            "log records admission order and release times"
        );
    }

    #[test]
    fn oversized_queries_admit_from_an_empty_pool() {
        let mut door = FrontDoor::new(cfg(10), 1);
        ingest(&mut door, 0, at(1), 500);
        assert_eq!(
            pump(&mut door, at(1), 0),
            vec![0],
            "empty pool admits anything"
        );
    }

    #[test]
    fn zero_work_queries_never_block() {
        let mut door = FrontDoor::new(cfg(10), 2);
        ingest(&mut door, 0, at(1), 500);
        assert_eq!(pump(&mut door, at(1), 0), vec![0]);
        // Pool saturated (500 held against a bound of 10) — yet a zero-work
        // arrival still admits immediately.
        ingest(&mut door, 1, at(2), 0);
        assert_eq!(pump(&mut door, at(2), 500), vec![1]);
    }

    #[test]
    fn shedding_backs_off_and_eventually_rejects() {
        let mut c = cfg(10);
        c.max_waiting_assignments = Some(200);
        let mut door = FrontDoor::new(c, 3);
        // Saturate the pool so nothing admits.
        ingest(&mut door, 0, at(1), 400);
        pump(&mut door, at(1), 0);
        // Two batch waiters push the queue over the cap (240 > 200):
        // shedding the *youngest* brings it back under, so the older stays.
        ingest(&mut door, 1, at(2), 120);
        ingest(&mut door, 2, at(3), 120);
        assert!(pump(&mut door, at(3), 400).is_empty(), "nothing admits");
        assert!(door.has_active(), "the older batch waiter stays");
        assert_eq!(door.next_wakeup(), Some(at(8)), "the 5 s base backoff");
        // Each wake finds the queue still over the cap: shed again, with the
        // backoff doubling from the 5 s base, until the shed budget is spent.
        let mut wake = at(3);
        for k in 0..MAX_SHEDS {
            let next = door.next_wakeup().expect("the youngest is in backoff");
            assert_eq!(next, wake + SHED_BACKOFF.times(1 << k), "shed {}", k + 1);
            wake = next;
            assert!(pump(&mut door, wake, 400).is_empty(), "nothing admits");
        }
        // The shed after the last allowed one rejects.
        assert_eq!(door.next_wakeup(), None);
        // Drain the pool so the survivor admits and the log closes.
        pump(&mut door, at(100), 0);
        let log = door.into_log();
        assert_eq!(log.total_rejected(), 1);
        assert_eq!(
            log.verdicts[2].sheds, MAX_SHEDS,
            "every shed before rejection"
        );
        assert!(matches!(
            log.verdicts[2].decision,
            Disposition::Rejected { .. }
        ));
        assert!(log.verdicts[0].admitted() && log.verdicts[1].admitted());
        assert_eq!(log.total_shed_events(), MAX_SHEDS as u64);
    }

    #[test]
    fn samples_record_crossed_boundaries() {
        let mut door = FrontDoor::new(cfg(1_000), 1);
        ingest(&mut door, 0, at(5), 50);
        pump(&mut door, at(5), 0);
        pump(&mut door, at(95), 0);
        let log = door.into_log();
        assert_eq!(log.samples.len(), 3, "boundaries 30/60/90 crossed");
        assert_eq!(log.samples[0].epoch, 1);
        assert_eq!(log.samples[0].at, at(30));
        assert_eq!(log.samples[2].at, at(90));
        assert_eq!(log.samples[2].admitted, 1);
    }

    #[test]
    #[should_panic(expected = "without a verdict")]
    fn unresolved_queries_fail_loudly() {
        // Closing the log with a query still waiting is a driver liveness
        // bug; the planner must refuse to paper over it.
        let mut door = FrontDoor::new(cfg(10), 2);
        ingest(&mut door, 0, at(1), 400);
        pump(&mut door, at(1), 0);
        ingest(&mut door, 1, at(2), 120);
        let _ = door.into_log();
    }

    #[test]
    #[should_panic(expected = "zero in-flight bound")]
    fn zero_bound_rejected() {
        FrontDoorConfig::bounded(0).validate();
    }
}
