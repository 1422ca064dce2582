//! The books `finish` keeps: the canonical merged completion stream and the
//! per-query terminal ledger every controller report projects from.
//!
//! Each shard records completions (and events) in its own order; the pool's
//! **canonical order**, `canonical_merge`, interleaves shard streams by
//! `(running clock, shard id, record order)` — independent of how the
//! shards were driven, which is what makes stepped and threaded runs
//! bit-identical. `merged_completions` computes the completion stream once
//! per run, shared out by fragment id, for the hedge races (which count
//! each fragment down to its last part, wherever it ran) and the `Ledger`,
//! which answers per query *which way it ended*: completed (first and last
//! fragment instants) or rejected (by which controller, when, after how
//! many attempts) — exactly one of the two.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use liferaft_catalog::Catalog;
use liferaft_query::{tracker::QueryOutcome, CrossMatchQuery, FragmentId, QueryId};
use liferaft_storage::SimTime;

use crate::admission::QueryClass;
use crate::worker::ShardWorker;

/// One fragment's share of a shard completion, in the canonical merged
/// stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completion {
    /// Trace index of the fragment's query.
    pub(crate) index: usize,
    /// The fragment.
    pub(crate) fragment: FragmentId,
    /// The shard completion's instant.
    pub(crate) at: SimTime,
    /// (object × bucket) assignments of the fragment the shard serviced.
    pub(crate) assignments: u64,
}

/// Merges streams, each in its own record order, into the canonical order:
/// by the stream's *running clock* (the prefix-max of `time` over it so
/// far), then stream index, then position. The running clock keeps each
/// stream's record order where raw times step back: a zero-work fragment
/// completes at its arrival but is recorded at the next batch boundary, so
/// a 1-shard runtime reproduces `Simulation`'s outcome sequence
/// bit-for-bit. A k-way merge: each element moves once.
pub(crate) fn canonical_merge<T>(streams: Vec<Vec<T>>, time: impl Fn(&T) -> SimTime) -> Vec<T> {
    let mut merged = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    let mut streams: Vec<VecDeque<T>> = streams.into_iter().map(VecDeque::from).collect();
    let head = |(i, s): (usize, &VecDeque<T>)| Some(Reverse((time(s.front()?), i)));
    let mut heads: BinaryHeap<_> = streams.iter().enumerate().filter_map(head).collect();
    while let Some(Reverse((clock, i))) = heads.pop() {
        merged.push(streams[i].pop_front().expect("a queued head is present"));
        if let Some(next) = streams[i].front() {
            heads.push(Reverse((clock.max(time(next)), i)));
        }
    }
    merged
}

/// A pool's fragment completions in canonical order ([`canonical_merge`]
/// over the shards, in shard order). Every query has at least one fragment
/// (zero-work queries ship an empty one to shard 0), so the stream covers
/// every routed query.
pub(crate) fn merged_completions<C: Catalog + ?Sized>(
    workers: &[ShardWorker<'_, C>],
    index_of: &HashMap<QueryId, usize>,
) -> Vec<Completion> {
    let streams = workers.iter().map(|w| {
        let tracker = w.driver.core().tracker();
        let outcomes = tracker.completed().iter().enumerate();
        let parts = outcomes.flat_map(|(k, o)| {
            let shares = tracker.completed_parts(k).iter();
            shares.map(|&(fragment, assignments)| Completion {
                index: index_of[&o.query],
                fragment,
                at: o.completion,
                assignments,
            })
        });
        parts.collect()
    });
    canonical_merge(streams.collect(), |c| c.at)
}

/// Which controller ended a rejected query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectedBy {
    /// Turned away at the front door — nothing of it was ever routed.
    FrontDoor,
    /// A fragment lost to a dead shard exhausted every re-delivery attempt.
    Failover,
    /// A fragment exhausted its retransmission budget undelivered.
    Transport,
}

/// One rejected query's terminal record. Completed queries are in
/// `global.outcomes`, rejected ones in the report of the controller that
/// rejected them, so `completed + rejected` always equals the trace length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectedQuery {
    /// Trace index of the query.
    pub index: usize,
    /// True arrival time.
    pub arrival: SimTime,
    /// When the controller gave up on it.
    pub rejected_at: SimTime,
    /// The controller that rejected it.
    pub by: RejectedBy,
    /// Its priority class.
    pub class: QueryClass,
    /// The routed (object × bucket) assignments it would have run.
    pub assignments: u64,
    /// What it cost before the controller gave up: sheds survived at the
    /// front door, re-delivery attempts under failover, retransmissions on
    /// the transport.
    pub attempts: u32,
}

/// Terminal outcomes of one priority class:
/// `completed + rejected == submitted`, asserted before it is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassConservation {
    /// The class — by routed workload size: the front door's thresholds when
    /// it is on, the default thresholds otherwise.
    pub class: QueryClass,
    /// Queries of this class in the trace.
    pub submitted: u64,
    /// Queries that completed (all assignments serviced somewhere).
    pub completed: u64,
    /// Queries a controller rejected.
    pub rejected: u64,
}

/// The per-query terminal ledger of one run: every query ends exactly once,
/// completed (`completed[i]`, over the `span[i]` of its fragment
/// completions) or rejected (a record in `rejected`).
pub(crate) struct Ledger<'a> {
    entries: &'a [(SimTime, CrossMatchQuery)],
    assignments_of: &'a [u64],
    /// Per trace index: the query's priority class.
    class: Vec<QueryClass>,
    /// Rejection records, one controller after another, each in its own
    /// order (the order its report lists them in).
    rejected: Vec<RejectedQuery>,
    /// Per trace index: every routed assignment was serviced.
    pub(crate) completed: Vec<bool>,
    /// Per trace index: the earliest and latest fragment completion anywhere
    /// in the pool (`None`: no shard serviced any part of it — the case for
    /// every query the front door turned away, while a query that lost a
    /// sibling fragment to a crash or in transit may be rejected with one).
    pub(crate) span: Vec<Option<(SimTime, SimTime)>>,
}

impl<'a> Ledger<'a> {
    /// Opens the books over a trace and its routed assignments; `classify`
    /// maps routed workload size to the priority class.
    pub(crate) fn open(
        entries: &'a [(SimTime, CrossMatchQuery)],
        assignments_of: &'a [u64],
        classify: impl Fn(u64) -> QueryClass,
    ) -> Self {
        Ledger {
            entries,
            assignments_of,
            class: assignments_of.iter().map(|&a| classify(a)).collect(),
            rejected: Vec::new(),
            completed: vec![false; entries.len()],
            span: vec![None; entries.len()],
        }
    }

    /// Books one controller's rejections, each `(trace index, when, attempts
    /// spent)` — a query is rejected at most once.
    pub(crate) fn reject(
        &mut self,
        by: RejectedBy,
        rejections: impl Iterator<Item = (usize, SimTime, u32)>,
    ) {
        for (index, rejected_at, attempts) in rejections {
            self.rejected.push(RejectedQuery {
                index,
                arrival: self.entries[index].0,
                rejected_at,
                by,
                class: self.class[index],
                assignments: self.assignments_of[index],
                attempts,
            });
        }
    }

    /// Folds the canonical completion stream (hedge losers already removed)
    /// into the books and returns the completed queries in canonical order.
    ///
    /// A query completes at the merged completion where its serviced
    /// assignments reach the routed total, with completion *time* the max
    /// over its per-shard completions (for a zero-work query's single empty
    /// fragment: its arrival). Counting **assignments** rather than
    /// fragments is what makes the fold migration-proof: under rebalancing a
    /// query's work can leave a shard mid-flight (the source records a
    /// partial outcome covering only what it serviced locally) and even
    /// revisit a shard it already completed on (a second outcome). Per-shard
    /// outcome assignments always sum to the routed total — every assignment
    /// is serviced exactly once, somewhere — so the fold is exact for static
    /// and elastic runs alike.
    ///
    /// # Panics
    /// Panics if a query is serviced beyond its routed total, if a rejected
    /// query is nevertheless fully serviced, or if a non-rejected query
    /// never completes.
    pub(crate) fn settle(&mut self, stream: &[Completion]) -> Vec<QueryOutcome> {
        let n = self.entries.len();
        let mut is_rejected = vec![false; n];
        for r in &self.rejected {
            is_rejected[r.index] = true;
        }
        let mut remaining: Vec<u64> = self.assignments_of.to_vec();
        let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(n - self.rejected.len());
        for c in stream {
            let i = c.index;
            let query = self.entries[i].1.id;
            assert!(
                remaining[i] >= c.assignments,
                "query {query} over-serviced across shards"
            );
            remaining[i] -= c.assignments;
            let (first, last) = self.span[i].unwrap_or((c.at, c.at));
            let last = last.max(c.at);
            self.span[i] = Some((first.min(c.at), last));
            if remaining[i] > 0 || self.completed[i] {
                continue; // more assignments outstanding elsewhere
            }
            assert!(
                !is_rejected[i],
                "query {query} was rejected yet fully serviced"
            );
            self.completed[i] = true;
            outcomes.push(QueryOutcome {
                query,
                arrival: self.entries[i].0,
                // A query completes when its last assignment is serviced;
                // for the zero-work single-fragment case this is its arrival.
                completion: last,
                assignments: self.assignments_of[i],
            });
        }
        assert_eq!(
            outcomes.len(),
            n - self.rejected.len(),
            "every admitted query must complete exactly once"
        );
        outcomes
    }

    /// When query `index` arrived.
    pub(crate) fn arrival(&self, index: usize) -> SimTime {
        self.entries[index].0
    }

    /// The rejection records of one controller, in that controller's order.
    pub(crate) fn rejected_by(&self, by: RejectedBy) -> Vec<RejectedQuery> {
        let mine = self.rejected.iter().filter(|r| r.by == by);
        mine.copied().collect()
    }

    /// The per-class terminal books, asserted before they are reported:
    /// every query either completed or was rejected, exactly once.
    pub(crate) fn per_class(&self) -> [ClassConservation; 3] {
        let mut per_class: [ClassConservation; 3] =
            QueryClass::ALL.map(|class| ClassConservation {
                class,
                submitted: 0,
                completed: 0,
                rejected: 0,
            });
        for (class, &completed) in self.class.iter().zip(&self.completed) {
            per_class[class.rank()].submitted += 1;
            per_class[class.rank()].completed += completed as u64;
        }
        for r in &self.rejected {
            per_class[r.class.rank()].rejected += 1;
        }
        for c in &per_class {
            assert_eq!(
                c.completed + c.rejected,
                c.submitted,
                "{:?} queries lost track of a terminal outcome",
                c.class
            );
        }
        per_class
    }
}
