//! Per-query lifecycle tracking.
//!
//! "A query cannot finish until every object is cross-matched" (Section 3.3)
//! — response time is therefore governed by a query's *last* scheduled
//! bucket, the "last mile bottleneck" that motivates the aging term. The
//! tracker counts outstanding (object × bucket) assignments per query and
//! reports completion times.

use std::collections::{HashMap, VecDeque};

use liferaft_storage::{BucketId, SimDuration, SimTime};

use crate::crossmatch::{FragmentId, Predicate, QueryId};

/// Outcome of one finished query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The query.
    pub query: QueryId,
    /// When it arrived.
    pub arrival: SimTime,
    /// When its last assignment finished.
    pub completion: SimTime,
    /// Total (object × bucket) assignments it expanded to.
    pub assignments: u64,
}

impl QueryOutcome {
    /// Response time: completion − arrival.
    pub fn response_time(&self) -> SimDuration {
        self.completion.since(self.arrival)
    }
}

/// One in-flight query's record: everything the engine knows about it
/// between its arrival and its last serviced assignment.
#[derive(Debug, Clone)]
struct Pending {
    arrival: SimTime,
    remaining: u64,
    assignments: u64,
    /// The fragment the record was opened for.
    fragment: FragmentId,
    /// Once work has moved in or out: every fragment's assignments held
    /// here. Empty while the record is `fragment`'s alone.
    shares: Vec<(FragmentId, u64)>,
    /// Buckets still holding queued entries of the query, ascending — the
    /// first is NoShare's next bucket.
    buckets: Vec<BucketId>,
    /// The query's join predicate, read while its batches join.
    predicate: Predicate,
}

impl Pending {
    /// An empty record of `fragment`.
    fn new(arrival: SimTime, fragment: FragmentId, predicate: Predicate) -> Self {
        Pending {
            arrival,
            remaining: 0,
            assignments: 0,
            fragment,
            shares: Vec::new(),
            buckets: Vec::new(),
            predicate,
        }
    }

    /// The assignments of `fragment` held here, splitting the record into
    /// shares on its first move.
    fn share(&mut self, fragment: FragmentId) -> &mut u64 {
        if self.shares.is_empty() {
            self.shares.push((self.fragment, self.assignments));
        }
        let i = match self.shares.iter().position(|s| s.0 == fragment) {
            Some(i) => i,
            None => {
                self.shares.push((fragment, 0));
                self.shares.len() - 1
            }
        };
        &mut self.shares[i].1
    }

    /// Marks the buckets of `work` as holding entries of the query and
    /// returns the assignments `work` carries; empty items hold nothing.
    fn hold(&mut self, work: impl IntoIterator<Item = (BucketId, u64)>) -> u64 {
        let mut n = 0;
        for (bucket, k) in work.into_iter().filter(|w| w.1 > 0) {
            n += k;
            if let Err(i) = self.buckets.binary_search(&bucket) {
                self.buckets.insert(i, bucket);
            }
        }
        n
    }

    /// `bucket` holds no entry of the query any more.
    fn release(&mut self, bucket: BucketId) {
        if let Ok(i) = self.buckets.binary_search(&bucket) {
            self.buckets.remove(i);
        }
    }
}

/// Tracks outstanding work per query and records completions.
///
/// A record is per query, whatever fragments its parts came in. It holds
/// the query's arrival, its predicate, its outstanding assignments and the
/// buckets they are queued at, and it closes when the last of them is
/// serviced or moves away. Each closed record also says how many of its
/// assignments each fragment contributed
/// ([`completed_parts`](QueryTracker::completed_parts)), so a fragment split
/// across engines by a bucket move can be counted down to its last part
/// wherever that part ran.
#[derive(Debug, Clone, Default)]
pub struct QueryTracker {
    pending: HashMap<QueryId, Pending>,
    completed: Vec<QueryOutcome>,
    /// The `(fragment, assignments)` shares of every completed record,
    /// record after record; `part_ends[k]` ends record `k`'s.
    parts: Vec<(FragmentId, u64)>,
    part_ends: Vec<u32>,
    /// In-flight queries ordered by (arrival, id) — the NoShare cursor.
    ///
    /// Entries *behind* the front may be stale (already completed); the
    /// front is always a live pending query, restored eagerly on every
    /// completion, so `oldest_pending` is O(1) instead of a scan over all
    /// in-flight queries. Stale entries are dropped exactly once when they
    /// reach the front, so maintenance is amortized O(1) per completion.
    arrival_order: VecDeque<(SimTime, QueryId)>,
}

impl QueryTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        QueryTracker::default()
    }

    /// Registers `fragment` of a query arriving at `arrival`; `work` lists
    /// the `(bucket, assignments)` it queues, assignments being (object ×
    /// bucket) pairs. Queries with zero assignments complete immediately.
    ///
    /// # Panics
    /// Panics on duplicate registration.
    pub fn register(
        &mut self,
        query: QueryId,
        fragment: FragmentId,
        arrival: SimTime,
        predicate: Predicate,
        work: impl IntoIterator<Item = (BucketId, u64)>,
    ) {
        let mut p = Pending::new(arrival, fragment, predicate);
        let assignments = p.hold(work);
        if assignments > 0 {
            return self.open(query, p, assignments);
        }
        self.completed.push(QueryOutcome {
            query,
            arrival,
            completion: arrival,
            assignments: 0,
        });
        self.parts.push((fragment, 0));
        self.part_ends.push(self.parts.len() as u32);
    }

    /// Files `query`'s new record `p`, holding `assignments`.
    fn open(&mut self, query: QueryId, mut p: Pending, assignments: u64) {
        (p.remaining, p.assignments) = (assignments, assignments);
        let arrival = p.arrival;
        let prev = self.pending.insert(query, p);
        assert!(prev.is_none(), "query {query} registered twice");
        // Trace arrivals are (near-)monotone, so this is almost always a
        // push; the partition-point insert handles the rare out-of-order
        // registration (e.g. arrival ties registered out of id order).
        let key = (arrival, query);
        match self.arrival_order.back() {
            Some(&back) if back > key => {
                let pos = self.arrival_order.partition_point(|&e| e < key);
                self.arrival_order.insert(pos, key);
            }
            _ => self.arrival_order.push_back(key),
        }
    }

    /// Records that `query`'s `n` assignments queued at `bucket` finished
    /// at `now` — a drained run: the bucket holds none of the query's
    /// entries any more. Returns the outcome if this completed the query.
    ///
    /// # Panics
    /// Panics if the query is unknown or over-completed — either means the
    /// executor and the workload table disagree about outstanding work.
    pub fn complete_assignments(
        &mut self,
        query: QueryId,
        bucket: BucketId,
        n: u64,
        now: SimTime,
    ) -> Option<QueryOutcome> {
        let p = self
            .pending
            .get_mut(&query)
            .unwrap_or_else(|| panic!("completion for unknown query {query}"));
        assert!(
            p.remaining >= n,
            "query {query} over-completed: {} remaining, {n} reported",
            p.remaining
        );
        p.release(bucket);
        p.remaining -= n;
        if p.remaining > 0 {
            return None;
        }
        Some(self.close(query, now))
    }

    /// Closes `query`'s drained record at `now`: its outcome covers the
    /// assignments serviced here — every one it still holds — shared out
    /// by fragment.
    fn close(&mut self, query: QueryId, now: SimTime) -> QueryOutcome {
        let p = self.remove(query);
        if p.shares.is_empty() {
            self.parts.push((p.fragment, p.assignments));
        } else {
            self.parts.extend(p.shares.iter().filter(|s| s.1 > 0));
        }
        self.part_ends.push(self.parts.len() as u32);
        let outcome = QueryOutcome {
            query,
            arrival: p.arrival,
            completion: now,
            assignments: p.assignments,
        };
        self.completed.push(outcome);
        outcome
    }

    /// Hands the `n` outstanding assignments of `query`'s `fragment` queued
    /// at `bucket` to another tracker (the elastic runtime's bucket
    /// migration): the departing work stops being this tracker's
    /// responsibility, so both `remaining` and the recorded `assignments`
    /// shrink by `n`, and `bucket` leaves the record.
    ///
    /// If nothing of the query remains here, the local record closes: with
    /// locally serviced work an outcome is emitted at `now` covering exactly
    /// the assignments serviced *here* (so per-shard reports stay a complete
    /// account of local work), and with none the record is dropped silently
    /// — the receiving tracker owns the whole story via
    /// [`transfer_in`](Self::transfer_in).
    ///
    /// # Panics
    /// Panics if the query is unknown or has fewer than `n` outstanding
    /// assignments.
    pub fn transfer_out(
        &mut self,
        query: QueryId,
        fragment: FragmentId,
        bucket: BucketId,
        n: u64,
        now: SimTime,
    ) -> Option<QueryOutcome> {
        let p = self
            .pending
            .get_mut(&query)
            .unwrap_or_else(|| panic!("transfer out of unknown query {query}"));
        assert!(
            p.remaining >= n,
            "query {query} over-transferred: {} remaining, {n} leaving",
            p.remaining
        );
        let held = p.share(fragment);
        *held = held
            .checked_sub(n)
            .expect("a fragment moved off more than it held");
        p.release(bucket);
        p.remaining -= n;
        p.assignments -= n;
        if p.remaining > 0 {
            return None;
        }
        if p.assignments == 0 {
            self.remove(query); // nothing was serviced here: no local outcome
            return None;
        }
        Some(self.close(query, now))
    }

    /// Removes `query`'s record, restoring the front-is-pending invariant:
    /// stale entries that surfaced at the front are dropped here, once each.
    fn remove(&mut self, query: QueryId) -> Pending {
        let p = self.pending.remove(&query).expect("a pending record");
        debug_assert!(p.buckets.is_empty(), "{query} closed with queued work");
        while let Some(&(_, q)) = self.arrival_order.front() {
            if self.pending.contains_key(&q) {
                break;
            }
            self.arrival_order.pop_front();
        }
        p
    }

    /// Accepts `work` of `query`'s `fragment` — `(bucket, assignments)`
    /// pairs — handed over by another tracker's
    /// [`transfer_out`](Self::transfer_out) or delivered late, at the
    /// query's *original* arrival (ages survive the move). Tops up an
    /// in-flight record, or opens one — possibly re-opening a query this
    /// tracker already completed locally, which then yields a second local
    /// outcome; the global aggregation counts assignments, not outcomes, so
    /// the query still completes exactly once globally.
    ///
    /// # Panics
    /// Panics if `work` carries no assignments (a transfer must carry work)
    /// or if an in-flight record disagrees about the arrival instant.
    pub fn transfer_in(
        &mut self,
        query: QueryId,
        fragment: FragmentId,
        arrival: SimTime,
        predicate: Predicate,
        work: impl IntoIterator<Item = (BucketId, u64)>,
    ) {
        let Some(p) = self.pending.get_mut(&query) else {
            let mut p = Pending::new(arrival, fragment, predicate);
            let n = p.hold(work);
            assert!(n > 0, "empty transfer into {query}");
            return self.open(query, p, n);
        };
        assert_eq!(p.arrival, arrival, "query {query} arrival diverged");
        let n = p.hold(work);
        assert!(n > 0, "empty transfer into {query}");
        *p.share(fragment) += n;
        p.remaining += n;
        p.assignments += n;
    }

    /// Number of queries still in flight.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The oldest in-flight query (by arrival, ties by id), if any —
    /// NoShare's cursor. O(1): the front of the arrival-ordered index.
    pub fn oldest_pending(&self) -> Option<(QueryId, SimTime)> {
        self.arrival_order.front().map(|&(t, q)| (q, t))
    }

    /// The lowest-ID bucket still holding queued entries of an in-flight
    /// query — NoShare's next bucket.
    pub fn first_pending_bucket(&self, query: QueryId) -> Option<BucketId> {
        self.pending.get(&query)?.buckets.first().copied()
    }

    /// Arrival time of an in-flight query.
    pub fn arrival_of(&self, query: QueryId) -> Option<SimTime> {
        self.pending.get(&query).map(|p| p.arrival)
    }

    /// Join predicate of an in-flight query.
    pub fn predicate_of(&self, query: QueryId) -> Option<Predicate> {
        self.pending.get(&query).map(|p| p.predicate)
    }

    /// All completed queries in completion order.
    pub fn completed(&self) -> &[QueryOutcome] {
        &self.completed
    }

    /// The `(fragment, assignments)` shares of completed record `k` (an
    /// index into [`completed`](Self::completed)): one per fragment that had
    /// work serviced here, summing to the outcome's assignments — or, for a
    /// zero-work query, its one fragment with none.
    pub fn completed_parts(&self, k: usize) -> &[(FragmentId, u64)] {
        let start = k.checked_sub(1).map_or(0, |j| self.part_ends[j] as usize);
        &self.parts[start..self.part_ends[k] as usize]
    }

    /// True when nothing is in flight.
    pub fn all_complete(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FragmentId = FragmentId(0);
    const B: BucketId = BucketId(0);
    const ALL: Predicate = Predicate::All;

    fn t(s: u64) -> SimTime {
        SimTime::from_micros(s * 1_000_000)
    }

    /// Outstanding assignments of an in-flight query.
    fn remaining_of(tr: &QueryTracker, query: QueryId) -> Option<u64> {
        tr.pending.get(&query).map(|p| p.remaining)
    }

    #[test]
    fn lifecycle_completes_at_last_assignment() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), F, t(0), ALL, [(B, 3)]);
        assert_eq!(tr.pending_count(), 1);
        assert!(tr.complete_assignments(QueryId(1), B, 1, t(5)).is_none());
        assert!(tr.complete_assignments(QueryId(1), B, 1, t(6)).is_none());
        let out = tr.complete_assignments(QueryId(1), B, 1, t(9)).unwrap();
        assert_eq!(out.response_time().as_secs_f64(), 9.0);
        assert_eq!(out.assignments, 3);
        assert!(tr.all_complete());
        assert_eq!(tr.completed().len(), 1);
    }

    #[test]
    fn batch_completion_in_one_call() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(2), F, t(1), ALL, [(B, 5)]);
        let out = tr.complete_assignments(QueryId(2), B, 5, t(4)).unwrap();
        assert_eq!(out.response_time().as_secs_f64(), 3.0);
    }

    #[test]
    fn zero_assignment_query_completes_instantly() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(3), F, t(2), ALL, [(B, 0)]);
        assert!(tr.all_complete());
        assert_eq!(tr.completed()[0].response_time(), SimDuration::ZERO);
    }

    #[test]
    fn oldest_pending_is_fifo_cursor() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(10), F, t(5), ALL, [(B, 1)]);
        tr.register(QueryId(11), F, t(3), ALL, [(B, 1)]);
        tr.register(QueryId(12), F, t(7), ALL, [(B, 1)]);
        assert_eq!(tr.oldest_pending(), Some((QueryId(11), t(3))));
        tr.complete_assignments(QueryId(11), B, 1, t(8));
        assert_eq!(tr.oldest_pending(), Some((QueryId(10), t(5))));
    }

    #[test]
    fn oldest_pending_breaks_arrival_ties_by_id() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(2), F, t(1), ALL, [(B, 1)]);
        tr.register(QueryId(1), F, t(1), ALL, [(B, 1)]);
        assert_eq!(tr.oldest_pending(), Some((QueryId(1), t(1))));
    }

    #[test]
    fn introspection_accessors() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), F, t(2), ALL, [(B, 4)]);
        assert_eq!(tr.arrival_of(QueryId(1)), Some(t(2)));
        assert_eq!(remaining_of(&tr, QueryId(1)), Some(4));
        tr.complete_assignments(QueryId(1), B, 3, t(3));
        assert_eq!(remaining_of(&tr, QueryId(1)), Some(1));
        assert_eq!(tr.arrival_of(QueryId(99)), None);
    }

    #[test]
    fn the_record_holds_its_pending_buckets_and_predicate() {
        let b = BucketId;
        let bright = Predicate::BrighterThan(19.0);
        let mut tr = QueryTracker::new();
        tr.register(
            QueryId(1),
            F,
            t(0),
            bright,
            [(b(5), 2), (b(2), 1), (b(9), 0)],
        );
        assert_eq!(tr.first_pending_bucket(QueryId(1)), Some(b(2)));
        assert_eq!(tr.predicate_of(QueryId(1)), Some(bright));
        tr.complete_assignments(QueryId(1), b(2), 1, t(1));
        assert_eq!(
            tr.first_pending_bucket(QueryId(1)),
            Some(b(5)),
            "a drained run releases its bucket"
        );
        tr.transfer_in(QueryId(1), F, t(0), bright, [(b(1), 3)]);
        assert_eq!(tr.first_pending_bucket(QueryId(1)), Some(b(1)));
        tr.transfer_out(QueryId(1), F, b(1), 3, t(2));
        assert_eq!(tr.first_pending_bucket(QueryId(1)), Some(b(5)));
        tr.complete_assignments(QueryId(1), b(5), 2, t(3)).unwrap();
        assert_eq!(tr.first_pending_bucket(QueryId(1)), None);
        assert_eq!(
            tr.predicate_of(QueryId(1)),
            None,
            "the predicate left with the record"
        );
    }

    #[test]
    fn index_survives_out_of_order_registration_and_tombstones() {
        let mut tr = QueryTracker::new();
        // Monotone arrivals, then two out-of-order registrations.
        tr.register(QueryId(5), F, t(10), ALL, [(B, 1)]);
        tr.register(QueryId(6), F, t(20), ALL, [(B, 1)]);
        tr.register(QueryId(2), F, t(5), ALL, [(B, 1)]); // earlier than the front
        tr.register(QueryId(4), F, t(10), ALL, [(B, 1)]); // tie with 5, smaller id
        assert_eq!(tr.oldest_pending(), Some((QueryId(2), t(5))));
        // Complete mid-deque queries (tombstones), then the front.
        tr.complete_assignments(QueryId(4), B, 1, t(30));
        tr.complete_assignments(QueryId(5), B, 1, t(31));
        assert_eq!(tr.oldest_pending(), Some((QueryId(2), t(5))));
        tr.complete_assignments(QueryId(2), B, 1, t(32));
        // Tombstones of 4 and 5 must be skipped in one hop.
        assert_eq!(tr.oldest_pending(), Some((QueryId(6), t(20))));
        tr.complete_assignments(QueryId(6), B, 1, t(33));
        assert_eq!(tr.oldest_pending(), None);
        assert!(tr.all_complete());
    }

    #[test]
    fn transfer_out_partial_keeps_query_in_flight() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), F, t(0), ALL, [(B, 5)]);
        assert!(tr.transfer_out(QueryId(1), F, B, 2, t(10)).is_none());
        assert_eq!(remaining_of(&tr, QueryId(1)), Some(3));
        // The eventual outcome only covers what stayed (and was serviced).
        let out = tr.complete_assignments(QueryId(1), B, 3, t(20)).unwrap();
        assert_eq!(out.assignments, 3);
        assert_eq!(out.arrival, t(0));
    }

    #[test]
    fn transfer_out_of_everything_after_partial_service_closes_locally() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), F, t(0), ALL, [(B, 5)]);
        tr.complete_assignments(QueryId(1), B, 2, t(4));
        // The remaining 3 leave: the local record closes over the 2 serviced.
        let out = tr.transfer_out(QueryId(1), F, B, 3, t(10)).unwrap();
        assert_eq!(out.assignments, 2);
        assert_eq!(out.completion, t(10));
        assert!(tr.all_complete());
    }

    #[test]
    fn transfer_out_of_an_untouched_query_leaves_no_trace() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), F, t(0), ALL, [(B, 4)]);
        assert!(tr.transfer_out(QueryId(1), F, B, 4, t(5)).is_none());
        assert!(tr.all_complete());
        assert!(tr.completed().is_empty());
        assert_eq!(tr.oldest_pending(), None);
    }

    #[test]
    fn transfer_in_tops_up_or_opens_at_original_arrival() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(7), F, t(9), ALL, [(B, 2)]);
        tr.transfer_in(QueryId(7), F, t(9), ALL, [(B, 3)]);
        assert_eq!(remaining_of(&tr, QueryId(7)), Some(5));
        // A fresh query opens with its original (possibly older) arrival.
        tr.transfer_in(QueryId(3), F, t(1), ALL, [(B, 1)]);
        assert_eq!(tr.oldest_pending(), Some((QueryId(3), t(1))));
        let out = tr.complete_assignments(QueryId(3), B, 1, t(12)).unwrap();
        assert_eq!(out.arrival, t(1));
        assert_eq!(out.assignments, 1);
    }

    #[test]
    fn transfer_in_can_reopen_a_locally_completed_query() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), F, t(0), ALL, [(B, 2)]);
        tr.complete_assignments(QueryId(1), B, 2, t(3));
        assert_eq!(tr.completed().len(), 1);
        // Migration returns work of the same query: a second local record.
        tr.transfer_in(QueryId(1), F, t(0), ALL, [(B, 4)]);
        assert!(!tr.all_complete());
        let out = tr.complete_assignments(QueryId(1), B, 4, t(8)).unwrap();
        assert_eq!(out.assignments, 4);
        assert_eq!(tr.completed().len(), 2);
    }

    #[test]
    fn a_record_shares_its_outcome_out_by_fragment() {
        let (a, b) = (FragmentId(3), FragmentId(8));
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), a, t(0), ALL, [(B, 4)]);
        tr.register(QueryId(2), b, t(0), ALL, [(B, 0)]);
        assert_eq!(tr.completed_parts(0), &[(b, 0)], "a marker is its fragment");
        // Parts of a second fragment join, then all of the first moves off.
        tr.transfer_in(QueryId(1), b, t(0), ALL, [(B, 3)]);
        tr.complete_assignments(QueryId(1), B, 1, t(1));
        assert!(tr.transfer_out(QueryId(1), a, B, 4, t(2)).is_none());
        let out = tr.complete_assignments(QueryId(1), B, 2, t(3)).unwrap();
        assert_eq!(out.assignments, 3);
        assert_eq!(
            tr.completed_parts(1),
            &[(b, 3)],
            "a moved-off share is gone"
        );
        // One fragment's record is shared out whole.
        tr.register(QueryId(3), a, t(4), ALL, [(B, 2)]);
        tr.complete_assignments(QueryId(3), B, 2, t(5));
        assert_eq!(tr.completed_parts(2), &[(a, 2)]);
    }

    #[test]
    #[should_panic(expected = "over-transferred")]
    fn transfer_out_beyond_remaining_panics() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), F, t(0), ALL, [(B, 2)]);
        tr.transfer_out(QueryId(1), F, B, 3, t(1));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), F, t(0), ALL, [(B, 1)]);
        tr.register(QueryId(1), F, t(1), ALL, [(B, 1)]);
    }

    #[test]
    #[should_panic(expected = "over-completed")]
    fn over_completion_panics() {
        let mut tr = QueryTracker::new();
        tr.register(QueryId(1), F, t(0), ALL, [(B, 1)]);
        tr.complete_assignments(QueryId(1), B, 2, t(1));
    }

    #[test]
    #[should_panic(expected = "unknown query")]
    fn unknown_completion_panics() {
        let mut tr = QueryTracker::new();
        tr.complete_assignments(QueryId(1), B, 1, t(1));
    }
}
