//! Per-bucket workload queues — the data structure LifeRaft schedules over.
//!
//! "The workload queue for a bucket Bj consists of the union of W_1^j,
//! W_2^j, ..., and W_m^j. Thus, requests from multiple queries are
//! interleaved in the same workload queue and are joined in one pass"
//! — Section 3.1.
//!
//! A queue stores what the paper says it stores: per co-queued query, the
//! sub-query `W_i^j` — one *run*: a borrow of the query's object list, the
//! indices of the objects that overlap this bucket, and one enqueue stamp —
//! in a directory sorted by query ID. Nothing of an object is copied at
//! enqueue time; the 72-byte [`QueueEntry`] is the *materialized*, join-time
//! view, built only when a caller asks for entries. The layout, the costs of
//! enqueue and [`drain_runs`](WorkloadQueue::drain_runs), and the
//! unordered-batch contract (drains yield runs in query order and a batch
//! is consumed as a set) are described in ARCHITECTURE, "The sub-query
//! queue".

use liferaft_htm::{HtmRange, Vec3};
use liferaft_storage::{BucketId, SimTime};

use crate::crossmatch::{CrossMatchQuery, FragmentId, MatchObject, QueryId};
use crate::index::{CandidateIndex, Lens};
use crate::preprocess::WorkItem;
use crate::snapshot::BucketSnapshot;

/// One queued cross-match request — a single object of a single query,
/// waiting to be joined against one bucket — as the join evaluator sees it.
///
/// Entries are not what a queue stores (see the module docs): they are
/// built from a run's object borrow and indices when a batch is
/// materialized, and carry position, radius and bounding range by value so
/// the join kernels read one flat slice.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueEntry {
    /// The parent query.
    pub query: QueryId,
    /// Index of the object within the parent query.
    pub object_index: u32,
    /// Mean position of the observation.
    pub pos: Vec3,
    /// Error-circle radius in radians.
    pub radius: f64,
    /// Bounding HTM range of the error circle (object level).
    pub bbox: HtmRange,
    /// When the request's run entered the queue (the age term's clock).
    pub enqueued_at: SimTime,
}

/// One directory row: the sub-query of one query's fragment at this bucket
/// — the borrowed object list, the queued indices into it, and the run's
/// stamp. A query has one row per fragment queued here; only a straggler's
/// hedge copy meeting its original after a bucket move makes that more
/// than one.
#[derive(Debug, Clone)]
struct QueryRun<'q> {
    query: QueryId,
    /// The fragment the queued indices were handed over in.
    fragment: FragmentId,
    /// The parent query's objects; every index points here.
    objects: &'q [MatchObject],
    /// The queued object indices, in push order (never empty).
    indices: Vec<u32>,
    /// Earliest enqueue stamp of the run: a top-up keeps it.
    enqueued_at: SimTime,
}

/// A read-only view of one `(bucket, query)` run — what
/// [`WorkloadQueue::runs`] walks and [`WorkloadQueue::drain_runs`] hands
/// out. Only [`entries`](Self::entries) builds anything per index.
#[derive(Debug, Clone, Copy)]
pub struct RunView<'a, 'q> {
    run: &'a QueryRun<'q>,
}

impl<'a, 'q> RunView<'a, 'q> {
    /// The query this run belongs to.
    pub fn query(&self) -> QueryId {
        self.run.query
    }

    /// The fragment this run belongs to.
    pub fn fragment(&self) -> FragmentId {
        self.run.fragment
    }

    /// Queued assignments in the run (always ≥ 1).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.run.indices.len()
    }

    /// The parent query's object list the run's indices point into.
    pub fn objects(&self) -> &'q [MatchObject] {
        self.run.objects
    }

    /// The queued object indices, in push order.
    pub fn indices(&self) -> &'a [u32] {
        &self.run.indices
    }

    /// The run's enqueue stamp: the earliest of its pushes.
    pub fn enqueued_at(&self) -> SimTime {
        self.run.enqueued_at
    }

    /// Materializes the run's entries, in push order.
    pub fn entries(&self) -> impl Iterator<Item = QueueEntry> + 'a {
        let run: &'a QueryRun<'q> = self.run;
        run.indices.iter().map(move |&object_index| {
            let obj = &run.objects[object_index as usize];
            QueueEntry {
                query: run.query,
                object_index,
                pos: obj.pos,
                radius: obj.radius,
                bbox: obj.bounding_range(),
                enqueued_at: run.enqueued_at,
            }
        })
    }
}

/// Byte-level accounting of one queue's (or, summed, one table's) storage:
/// directory rows plus the runs' 4-byte object indices. The query objects
/// the runs borrow belong to the trace, not to the queue, and are not
/// counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueMemoryStats {
    /// Live queued entries (assignments).
    pub queued_entries: u64,
    /// Live `(bucket, query)` directory rows.
    pub directory_runs: u64,
    /// Bytes allocated for directories (capacity × row size).
    pub directory_bytes: u64,
    /// Bytes allocated for the runs' index vectors (capacity × 4).
    pub index_bytes: u64,
    /// Bytes of live payload: `queued_entries` × the 4-byte object index.
    pub entry_bytes: u64,
}

impl QueueMemoryStats {
    /// Folds another accounting into this one (per-bucket → table totals).
    pub fn merge(&mut self, other: &QueueMemoryStats) {
        self.queued_entries += other.queued_entries;
        self.directory_runs += other.directory_runs;
        self.directory_bytes += other.directory_bytes;
        self.index_bytes += other.index_bytes;
        self.entry_bytes += other.entry_bytes;
    }

    /// Total allocated bytes.
    pub fn total_bytes(&self) -> u64 {
        self.directory_bytes + self.index_bytes
    }
}

/// The workload queue of a single bucket: one run (sub-query) per co-queued
/// query. `'q` is the lifetime of the queries whose objects the runs borrow.
#[derive(Debug, Clone, Default)]
pub struct WorkloadQueue<'q> {
    /// Per-query runs, sorted by `(query ID, fragment)`: one 64-byte row
    /// per co-queued query's fragment.
    directory: Vec<QueryRun<'q>>,
    /// Total queued entries.
    len: usize,
    /// Earliest enqueue time among current entries (None when empty).
    oldest: Option<SimTime>,
}

impl<'q> WorkloadQueue<'q> {
    /// An empty queue.
    pub fn new() -> Self {
        WorkloadQueue::default()
    }

    /// Appends `indices` — positions in `objects`, all requests of `query`'s
    /// `fragment` enqueued at `at` — to that fragment's run after one
    /// O(log d) directory lookup (d = co-queued queries). A new run copies
    /// `indices` at its exact size; a top-up of an existing run appends them
    /// and keeps the earliest stamp. A no-op for empty `indices`. This is
    /// the only append path: arrivals and migration merges both come
    /// through here.
    ///
    /// # Panics
    /// Panics if an index is out of range for `objects`, or if `query`
    /// already has a run here borrowing a different object list.
    pub fn push_chunk(
        &mut self,
        query: QueryId,
        fragment: FragmentId,
        objects: &'q [MatchObject],
        indices: &[u32],
        at: SimTime,
    ) {
        let Some(&max) = indices.iter().max() else {
            return;
        };
        assert!(
            (max as usize) < objects.len(),
            "object index {max} out of range for {query}"
        );
        let key = (query, fragment);
        match self
            .directory
            .binary_search_by_key(&key, |r| (r.query, r.fragment))
        {
            Ok(i) => {
                let run = &mut self.directory[i];
                assert!(
                    std::ptr::eq(run.objects, objects),
                    "{query} is already queued here with a different object list"
                );
                run.indices.extend_from_slice(indices);
                run.enqueued_at = run.enqueued_at.min(at);
            }
            Err(i) => self.directory.insert(
                i,
                QueryRun {
                    query,
                    fragment,
                    objects,
                    indices: indices.to_vec(),
                    enqueued_at: at,
                },
            ),
        }
        self.len += indices.len();
        self.oldest = Some(self.oldest.map_or(at, |t| t.min(at)));
    }

    /// Number of queued objects (`Σ_i W_i^j` for this bucket).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The queued runs, in directory order (ascending query ID).
    pub fn runs(&self) -> impl Iterator<Item = RunView<'_, 'q>> + '_ {
        self.directory.iter().map(|run| RunView { run })
    }

    /// Materializes every queued entry, grouped by query (ascending query
    /// ID), in push order within each group. This grouping is a storage
    /// artifact, not a contract — consumers treat the queue as an unordered
    /// set.
    pub fn iter(&self) -> impl Iterator<Item = QueueEntry> + '_ {
        self.runs().flat_map(|run| run.entries())
    }

    /// Enqueue time of the oldest request (`A(i)`'s reference point).
    pub fn oldest_enqueue(&self) -> Option<SimTime> {
        self.oldest
    }

    /// Number of entries queued for `query` (0 if it has no run here).
    pub fn pending_of(&self, query: QueryId) -> usize {
        let rows = &self.directory[self.rows_of(query)];
        rows.iter().map(|r| r.indices.len()).sum()
    }

    /// The directory rows of `query`'s runs (empty when it has none).
    fn rows_of(&self, query: QueryId) -> std::ops::Range<usize> {
        let start = self.directory.partition_point(|r| r.query < query);
        let len = self.directory[start..].partition_point(|r| r.query == query);
        start..start + len
    }

    /// The run-level drain every other drain is built on: removes the runs
    /// of `only` (or every run, for `None`), showing each to `visit` —
    /// directory order — before it is dropped. Reading a view's
    /// `query`/`len` costs nothing per entry, so a drain that only counts is
    /// O(runs). Returns the number of entries that left the queue (0 when
    /// `only` has no run).
    pub fn drain_runs(
        &mut self,
        only: Option<QueryId>,
        mut visit: impl FnMut(RunView<'_, 'q>),
    ) -> usize {
        let rows = match only {
            None => 0..self.directory.len(),
            Some(query) => self.rows_of(query),
        };
        if rows.is_empty() {
            return 0; // no run: nothing leaves the queue
        }
        let mut drained = 0usize;
        for run in self.directory.drain(rows) {
            visit(RunView { run: &run });
            drained += run.indices.len();
        }
        self.len -= drained;
        // O(d) over the surviving *queries*, not their entries.
        self.oldest = self.directory.iter().map(|r| r.enqueued_at).min();
        drained
    }

    /// Distinct queries with work in this queue (one directory row each).
    pub fn distinct_queries(&self) -> usize {
        self.directory.len()
    }

    /// This queue's storage accounting.
    pub fn memory_stats(&self) -> QueueMemoryStats {
        let index_capacity: usize = self.directory.iter().map(|r| r.indices.capacity()).sum();
        QueueMemoryStats {
            queued_entries: self.len as u64,
            directory_runs: self.directory.len() as u64,
            directory_bytes: (self.directory.capacity() * std::mem::size_of::<QueryRun<'_>>())
                as u64,
            index_bytes: (index_capacity * std::mem::size_of::<u32>()) as u64,
            entry_bytes: (self.len * std::mem::size_of::<u32>()) as u64,
        }
    }

    /// Checks every structural invariant of the queue: the directory is
    /// strictly sorted by `(query, fragment)`; each run holds at least one
    /// index, all in range for its objects; and the queue's `len` and
    /// `oldest` match the runs.
    ///
    /// # Panics
    /// Panics on any violated invariant. O(entries) — for tests and debug
    /// assertions, not the hot path.
    pub fn validate(&self) {
        assert!(
            self.directory
                .windows(2)
                .all(|w| (w[0].query, w[0].fragment) < (w[1].query, w[1].fragment)),
            "directory must be strictly sorted by (query, fragment)"
        );
        for run in &self.directory {
            assert!(
                !run.indices.is_empty(),
                "empty run for {} survived a drain",
                run.query
            );
            assert!(
                run.indices
                    .iter()
                    .all(|&i| (i as usize) < run.objects.len()),
                "run of {} indexes past the query's objects",
                run.query
            );
        }
        let total: usize = self.directory.iter().map(|r| r.indices.len()).sum();
        assert_eq!(total, self.len, "queue length diverged from runs");
        assert_eq!(
            self.directory.iter().map(|r| r.enqueued_at).min(),
            self.oldest,
            "queue oldest diverged from runs"
        );
    }
}

/// All per-bucket workload queues of one archive, indexed by bucket.
///
/// This is the state behind the paper's Workload Manager: it "maintains
/// state information such as a mapping of pending queries to workload queues
/// and the age of the oldest query in each queue" (Section 4).
///
/// The table keeps a live [`BucketSnapshot`] slot per bucket, updated in
/// O(1) on [`enqueue`](Self::enqueue) and the drain paths, plus a
/// [`CandidateIndex`] over the non-empty slots, updated in O(log n) on the
/// same mutations and on every residency change the cache's owner pushes
/// through [`set_resident`](Self::set_resident). A scheduling decision is
/// then an index lookup ([`top_candidate`](Self::top_candidate)) or a
/// lazy walk down one order ([`walk`](Self::walk)) instead of an
/// O(non-empty buckets) gather + re-score. Slots are updated in place
/// (never shifted), which keeps hot drain/refill cycles free of the
/// O(candidates) memmoves a dense sorted snapshot vector would pay.
#[derive(Debug, Clone)]
pub struct WorkloadTable<'q> {
    queues: Vec<WorkloadQueue<'q>>,
    /// Sorted list of currently non-empty buckets (the scheduler's
    /// candidate set; kept small relative to the partition).
    non_empty: Vec<BucketId>,
    /// Live snapshot slots indexed by bucket like `queues`. A slot is
    /// meaningful only while its bucket appears in `non_empty`; the
    /// `bucket` field is static, and the `cached`
    /// bit — kept for empty buckets too — is whatever
    /// [`set_resident`](Self::set_resident) last pushed.
    snapshot_slots: Vec<BucketSnapshot>,
    /// The candidate index over the non-empty slots. Invariant: holds
    /// exactly one entry per `non_empty` bucket, keyed by that bucket's
    /// current slot values.
    index: CandidateIndex,
    /// Total queued objects across all buckets.
    total_queued: u64,
}

impl<'q> WorkloadTable<'q> {
    /// Creates a table for a partition of `n_buckets` buckets.
    pub fn new(n_buckets: usize) -> Self {
        WorkloadTable {
            queues: vec![WorkloadQueue::new(); n_buckets],
            non_empty: Vec::new(),
            snapshot_slots: (0..n_buckets)
                .map(|i| BucketSnapshot {
                    bucket: BucketId(i as u32),
                    queue_len: 0,
                    oldest_enqueue: SimTime::ZERO,
                    cached: false,
                })
                .collect(),
            index: CandidateIndex::new(),
            total_queued: 0,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a work item produced by the pre-processor as one run of its
    /// bucket's queue: the item's object indices are copied, the objects
    /// themselves stay in `query` (which must therefore outlive the table's
    /// use of them).
    ///
    /// # Panics
    /// Panics if the item's indices do not refer to `query`'s objects or the
    /// item targets an unknown bucket.
    pub fn enqueue(&mut self, item: &WorkItem, query: &'q CrossMatchQuery, now: SimTime) {
        self.enqueue_fragment(item, query, FragmentId::default(), now);
    }

    /// [`enqueue`](Self::enqueue) filed under `fragment`: the item joins that
    /// fragment's run of its bucket.
    pub fn enqueue_fragment(
        &mut self,
        item: &WorkItem,
        query: &'q CrossMatchQuery,
        fragment: FragmentId,
        now: SimTime,
    ) {
        assert_eq!(item.query, query.id, "work item / query mismatch");
        self.grow(item.bucket, |queue| {
            let indices = &item.object_indices;
            queue.push_chunk(query.id, fragment, &query.objects, indices, now)
        });
    }

    /// Runs `append` on `bucket`'s queue and brings the table's counters,
    /// the bucket's snapshot slot, the candidate index and the non-empty
    /// set current with whatever it added — once per call.
    fn grow(&mut self, bucket: BucketId, append: impl FnOnce(&mut WorkloadQueue<'q>)) {
        let idx = bucket.index();
        assert!(idx < self.queues.len(), "unknown bucket {bucket}");
        let before = self.queues[idx].len();
        append(&mut self.queues[idx]);
        let q = &self.queues[idx];
        if q.len() == before {
            return;
        }
        self.total_queued += (q.len() - before) as u64;
        if before > 0 {
            self.index.remove(&self.snapshot_slots[idx]);
        }
        let slot = &mut self.snapshot_slots[idx];
        slot.queue_len = q.len() as u64;
        slot.oldest_enqueue = q.oldest_enqueue().expect("non-empty queue has an oldest");
        self.index.insert(&self.snapshot_slots[idx]);
        if before == 0 {
            let pos = self.non_empty.partition_point(|&b| b < bucket);
            self.non_empty.insert(pos, bucket);
        }
    }

    /// The queue of one bucket.
    pub fn queue(&self, bucket: BucketId) -> &WorkloadQueue<'q> {
        &self.queues[bucket.index()]
    }

    /// Sorted bucket IDs with pending work.
    pub fn non_empty_buckets(&self) -> &[BucketId] {
        &self.non_empty
    }

    /// Total queued objects across all buckets.
    pub fn total_queued(&self) -> u64 {
        self.total_queued
    }

    /// True if no work is pending anywhere.
    pub fn is_idle(&self) -> bool {
        self.total_queued == 0
    }

    /// The run-level drain: removes `only`'s run (or, for `None`, every
    /// run) from a bucket's queue, showing each to `visit` in directory
    /// order — see [`WorkloadQueue::drain_runs`]. A caller that reads only
    /// [`RunView::query`] and [`RunView::len`] never touches the queued
    /// payload; one that wants join-time entries collects
    /// [`RunView::entries`]. Returns the number of entries drained.
    pub fn drain_runs(
        &mut self,
        bucket: BucketId,
        only: Option<QueryId>,
        visit: impl FnMut(RunView<'_, 'q>),
    ) -> usize {
        let n = self.queues[bucket.index()].drain_runs(only, visit);
        self.after_drain(bucket, n);
        n
    }

    /// Drains a bucket's queue entirely into `out` (cleared first),
    /// materialized, in O(batch), keeping both the queue's and `out`'s
    /// allocations for reuse. Output is grouped by query, not
    /// arrival-ordered (see the module docs on the unordered-batch
    /// contract).
    pub fn take_all_into(&mut self, bucket: BucketId, out: &mut Vec<QueueEntry>) {
        out.clear();
        out.reserve(self.queues[bucket.index()].len());
        self.drain_runs(bucket, None, |run| out.extend(run.entries()));
    }

    /// Drains only one query's entries from a bucket into `out` (cleared
    /// first), materialized — the NoShare batch — in O(matched entries +
    /// co-queued queries), independent of how deep the rest of the queue is.
    pub fn take_query_into(&mut self, bucket: BucketId, query: QueryId, out: &mut Vec<QueueEntry>) {
        out.clear();
        self.drain_runs(bucket, Some(query), |run| out.extend(run.entries()));
    }

    /// Removes a bucket's entire queue — runs, stamps and all — and returns
    /// it: the elastic runtime's **migration extraction**. To the table
    /// this is a full drain (it cannot tell servicing from departure): the
    /// candidate index, the non-empty set, and `total_queued` stay
    /// consistent. The returned queue still borrows the queries' objects,
    /// so the receiving table's [`merge_bucket`](Self::merge_bucket) can
    /// rebuild every entry, `enqueued_at` included.
    ///
    /// ```
    /// use liferaft_htm::Vec3;
    /// use liferaft_query::{CrossMatchQuery, Predicate, QueryId, WorkItem, WorkloadTable};
    /// use liferaft_storage::{BucketId, SimTime};
    ///
    /// let q = CrossMatchQuery::from_positions(
    ///     QueryId(7), &[Vec3::from_radec_deg(10.0, 5.0)], 1e-5, 6, Predicate::All,
    /// );
    /// let item = WorkItem { query: q.id, bucket: BucketId(2), object_indices: vec![0] };
    ///
    /// let mut src = WorkloadTable::new(4);
    /// let mut dst = WorkloadTable::new(4);
    /// src.enqueue(&item, &q, SimTime::from_micros(42));
    ///
    /// // Migrate bucket 2: extraction + absorption conserve the run and
    /// // its arrival stamp.
    /// let payload = src.extract_bucket(BucketId(2));
    /// assert_eq!(payload.len(), 1);
    /// dst.merge_bucket(BucketId(2), &payload);
    /// assert_eq!(src.total_queued(), 0);
    /// assert_eq!(dst.total_queued(), 1);
    /// let moved = dst.queue(BucketId(2)).iter().next().unwrap();
    /// assert_eq!(moved.enqueued_at, SimTime::from_micros(42));
    /// assert_eq!(moved.pos, q.objects[0].pos);
    /// ```
    pub fn extract_bucket(&mut self, bucket: BucketId) -> WorkloadQueue<'q> {
        let queue = std::mem::take(&mut self.queues[bucket.index()]);
        self.after_drain(bucket, queue.len());
        queue
    }

    /// Merges a previously [extracted](Self::extract_bucket) queue into this
    /// table's queue for `bucket` — the elastic runtime's **migration
    /// absorption**. Every run is re-appended whole at its *original* stamp
    /// (ages survive the move) through the same path arrivals take, and the
    /// bucket's snapshot slot and the candidate index are brought current
    /// once. A no-op for an empty payload.
    ///
    /// The destination bucket may already hold work (arrivals routed to the
    /// new owner before the migration lands); the merged queue is the union.
    pub fn merge_bucket(&mut self, bucket: BucketId, payload: &WorkloadQueue<'q>) {
        self.grow(bucket, |queue| {
            for run in payload.runs() {
                let (query, fragment, at) = (run.query(), run.fragment(), run.enqueued_at());
                queue.push_chunk(query, fragment, run.objects(), run.indices(), at);
            }
        });
    }

    /// The live snapshot of one bucket, or `None` if it has no queued work.
    pub fn snapshot_of(&self, bucket: BucketId) -> Option<BucketSnapshot> {
        if self.queues[bucket.index()].is_empty() {
            None
        } else {
            Some(self.snapshot_slots[bucket.index()])
        }
    }

    /// Records that `bucket` became (or stopped being) resident in the
    /// bucket cache — φ(i) of Eq. 1. The owner of the cache calls this for
    /// every residency change, so the bit is current whenever it is read; a
    /// candidate is re-keyed in the index in O(log n), an empty bucket keeps
    /// the bit for when it fills.
    pub fn set_resident(&mut self, bucket: BucketId, resident: bool) {
        let i = bucket.index();
        if self.snapshot_slots[i].cached == resident {
            return;
        }
        let candidate = !self.queues[i].is_empty();
        if candidate {
            self.index.remove(&self.snapshot_slots[i]);
        }
        self.snapshot_slots[i].cached = resident;
        if candidate {
            self.index.insert(&self.snapshot_slots[i]);
        }
    }

    /// Number of candidates (non-empty buckets).
    pub fn candidate_count(&self) -> usize {
        self.non_empty.len()
    }

    /// The candidate maximal under `lens` (exact, tie-breaks included):
    /// the α = 0 pick under [`Lens::Throughput`], the α = 1 pick under
    /// [`Lens::Age`].
    pub fn top_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.index.top(lens).map(|b| self.snapshot_slots[b.index()])
    }

    /// The candidate minimal under `lens` (normalization lower bound).
    pub fn bottom_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.index
            .bottom(lens)
            .map(|b| self.snapshot_slots[b.index()])
    }

    /// Every candidate in descending `lens` order (best first), read
    /// lazily off the index: the sorted access of the mixed-α threshold
    /// pass, and any "best under `lens` but …" query.
    pub fn walk(&self, lens: Lens) -> impl Iterator<Item = BucketSnapshot> + '_ {
        let slots = &self.snapshot_slots;
        self.index.desc(lens).map(move |b| slots[b.index()])
    }

    /// The first candidate at or after `bucket` in bucket order, if any —
    /// the round-robin cursor's probe (the caller wraps to `BucketId(0)`).
    pub fn candidate_at_or_after(&self, bucket: BucketId) -> Option<BucketSnapshot> {
        let pos = self.non_empty.partition_point(|&b| b < bucket);
        self.non_empty
            .get(pos)
            .map(|b| self.snapshot_slots[b.index()])
    }

    /// Storage accounting summed over every bucket queue (directories and
    /// index vectors; not the table's snapshot slots or candidate index).
    pub fn memory_stats(&self) -> QueueMemoryStats {
        let mut total = QueueMemoryStats::default();
        for q in &self.queues {
            total.merge(&q.memory_stats());
        }
        total
    }

    /// Checks the index invariant (one entry per non-empty bucket, keyed by
    /// its live slot) by rebuilding a reference index, and every bucket
    /// queue's invariants ([`WorkloadQueue::validate`]) — O(entries), meant
    /// for tests and debug assertions, not the hot path.
    ///
    /// # Panics
    /// Panics if the maintained index or any queue diverged.
    pub fn validate_index(&self) {
        let mut reference = CandidateIndex::new();
        for &b in &self.non_empty {
            reference.insert(&self.snapshot_slots[b.index()]);
        }
        assert_eq!(self.index.len(), reference.len(), "index size diverged");
        for lens in Lens::ALL {
            let got: Vec<BucketId> = self.index.desc(lens).collect();
            let want: Vec<BucketId> = reference.desc(lens).collect();
            assert_eq!(got, want, "{lens:?} order diverged");
        }
        let mut total = 0u64;
        for (i, q) in self.queues.iter().enumerate() {
            q.validate();
            total += q.len() as u64;
            let slot = &self.snapshot_slots[i];
            if q.is_empty() {
                assert!(
                    self.non_empty.binary_search(&BucketId(i as u32)).is_err(),
                    "empty bucket {i} listed as non-empty"
                );
            } else {
                assert_eq!(slot.queue_len, q.len() as u64, "slot len of bucket {i}");
                assert_eq!(
                    Some(slot.oldest_enqueue),
                    q.oldest_enqueue(),
                    "slot oldest of bucket {i}"
                );
            }
        }
        assert_eq!(total, self.total_queued, "total_queued diverged");
    }

    fn after_drain(&mut self, bucket: BucketId, n: usize) {
        if n == 0 {
            return; // nothing drained: membership, slot, and index unchanged
        }
        self.total_queued -= n as u64;
        self.index.remove(&self.snapshot_slots[bucket.index()]);
        let q = &self.queues[bucket.index()];
        if q.is_empty() {
            if let Ok(pos) = self.non_empty.binary_search(&bucket) {
                self.non_empty.remove(pos);
            }
        } else {
            let slot = &mut self.snapshot_slots[bucket.index()];
            slot.queue_len = q.len() as u64;
            slot.oldest_enqueue = q.oldest_enqueue().expect("non-empty queue has an oldest");
            self.index.insert(&self.snapshot_slots[bucket.index()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossmatch::Predicate;
    use liferaft_storage::SimDuration;

    const LEVEL: u8 = 6;

    fn entry_source(n: usize) -> CrossMatchQuery {
        let positions: Vec<Vec3> = (0..n)
            .map(|i| Vec3::from_radec_deg(10.0 + i as f64 * 0.01, 5.0))
            .collect();
        CrossMatchQuery::from_positions(QueryId(1), &positions, 1e-5, LEVEL, Predicate::All)
    }

    fn item(query: &CrossMatchQuery, bucket: u32) -> WorkItem {
        WorkItem {
            query: query.id,
            bucket: BucketId(bucket),
            object_indices: (0..query.len() as u32).collect(),
        }
    }

    /// `take_all_into` through a scratch vector, for test ergonomics.
    fn take_all(t: &mut WorkloadTable, bucket: BucketId) -> Vec<QueueEntry> {
        let mut out = Vec::new();
        t.take_all_into(bucket, &mut out);
        out
    }

    /// `take_query_into` through a scratch vector, for test ergonomics.
    fn take_query(t: &mut WorkloadTable, bucket: BucketId, query: QueryId) -> Vec<QueueEntry> {
        let mut out = Vec::new();
        t.take_query_into(bucket, query, &mut out);
        out
    }

    #[test]
    fn enqueue_tracks_counts_and_non_empty() {
        let q = entry_source(3);
        let mut t = WorkloadTable::new(8);
        assert!(t.is_idle());
        t.enqueue(&item(&q, 5), &q, SimTime::ZERO);
        assert_eq!(t.total_queued(), 3);
        assert_eq!(t.non_empty_buckets(), &[BucketId(5)]);
        assert_eq!(t.queue(BucketId(5)).len(), 3);
        assert_eq!(t.queue(BucketId(5)).distinct_queries(), 1);
    }

    #[test]
    fn non_empty_stays_sorted() {
        let q = entry_source(1);
        let mut t = WorkloadTable::new(8);
        for b in [6u32, 2, 4, 0] {
            t.enqueue(&item(&q, b), &q, SimTime::ZERO);
        }
        assert_eq!(
            t.non_empty_buckets(),
            &[BucketId(0), BucketId(2), BucketId(4), BucketId(6)]
        );
    }

    #[test]
    fn oldest_enqueue_tracks_minimum() {
        let q = entry_source(1);
        let mut t = WorkloadTable::new(4);
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs(10);
        t.enqueue(&item(&q, 2), &q, t1);
        let q2 = {
            let mut q2 = entry_source(1);
            q2.id = QueryId(2);
            q2
        };
        t.enqueue(&item(&q2, 2), &q2, t0);
        assert_eq!(t.queue(BucketId(2)).oldest_enqueue(), Some(t0));
    }

    #[test]
    fn take_all_empties_and_updates_index() {
        let q = entry_source(2);
        let mut t = WorkloadTable::new(4);
        t.enqueue(&item(&q, 1), &q, SimTime::ZERO);
        let drained = take_all(&mut t, BucketId(1));
        assert_eq!(drained.len(), 2);
        assert!(t.is_idle());
        assert!(t.non_empty_buckets().is_empty());
        assert_eq!(t.queue(BucketId(1)).oldest_enqueue(), None);
    }

    #[test]
    fn take_query_is_selective() {
        let qa = entry_source(2);
        let mut qb = entry_source(3);
        qb.id = QueryId(2);
        let mut t = WorkloadTable::new(4);
        t.enqueue(&item(&qa, 1), &qa, SimTime::ZERO);
        t.enqueue(&item(&qb, 1), &qb, SimTime::from_micros(10));
        assert_eq!(t.queue(BucketId(1)).distinct_queries(), 2);
        let drained = take_query(&mut t, BucketId(1), QueryId(1));
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|e| e.query == QueryId(1)));
        assert_eq!(t.total_queued(), 3);
        assert_eq!(t.non_empty_buckets(), &[BucketId(1)]);
        // Oldest recomputed to the remaining query's enqueue time.
        assert_eq!(
            t.queue(BucketId(1)).oldest_enqueue(),
            Some(SimTime::from_micros(10))
        );
    }

    #[test]
    fn extract_then_merge_moves_a_bucket_between_tables() {
        let qa = entry_source(2);
        let mut qb = entry_source(3);
        qb.id = QueryId(2);
        let mut src = WorkloadTable::new(8);
        let mut dst = WorkloadTable::new(8);
        src.enqueue(&item(&qa, 5), &qa, SimTime::ZERO);
        src.enqueue(&item(&qb, 5), &qb, SimTime::from_micros(10));
        let payload = src.extract_bucket(BucketId(5));
        assert_eq!(payload.len(), 5);
        assert!(src.is_idle());
        src.validate_index();
        dst.merge_bucket(BucketId(5), &payload);
        assert_eq!(dst.total_queued(), 5);
        assert_eq!(dst.non_empty_buckets(), &[BucketId(5)]);
        // Arrival ages survive: the oldest stamp crossed the tables intact.
        assert_eq!(dst.queue(BucketId(5)).oldest_enqueue(), Some(SimTime::ZERO));
        assert_eq!(dst.queue(BucketId(5)).distinct_queries(), 2);
        dst.validate_index();
    }

    #[test]
    fn merge_into_an_occupied_bucket_is_a_union() {
        let qa = entry_source(2);
        let mut qb = entry_source(1);
        qb.id = QueryId(2);
        let mut src = WorkloadTable::new(4);
        let mut dst = WorkloadTable::new(4);
        src.enqueue(&item(&qa, 1), &qa, SimTime::from_micros(5));
        // The destination already routed new work to the bucket it is
        // about to adopt.
        dst.enqueue(&item(&qb, 1), &qb, SimTime::from_micros(50));
        let payload = src.extract_bucket(BucketId(1));
        dst.merge_bucket(BucketId(1), &payload);
        assert_eq!(dst.total_queued(), 3);
        assert_eq!(dst.queue(BucketId(1)).distinct_queries(), 2);
        // The migrated (older) work now anchors the age term.
        assert_eq!(
            dst.queue(BucketId(1)).oldest_enqueue(),
            Some(SimTime::from_micros(5))
        );
        dst.validate_index();
        // Merging nothing is a no-op.
        dst.merge_bucket(BucketId(2), &WorkloadQueue::new());
        assert_eq!(dst.non_empty_buckets(), &[BucketId(1)]);
    }

    #[test]
    fn entries_are_materialized_from_the_borrowed_objects() {
        let q = entry_source(1);
        let mut t = WorkloadTable::new(4);
        t.enqueue(&item(&q, 0), &q, SimTime::ZERO);
        let queue = t.queue(BucketId(0));
        let e = queue.iter().next().expect("one entry queued");
        assert_eq!(e.query, q.id);
        assert_eq!(e.pos, q.objects[0].pos);
        assert_eq!(e.radius, q.objects[0].radius);
        assert_eq!(e.bbox, q.objects[0].bounding_range());
        assert_eq!(e.object_index, 0);
    }

    #[test]
    #[should_panic(expected = "unknown bucket")]
    fn enqueue_rejects_out_of_range_bucket() {
        let q = entry_source(1);
        let mut t = WorkloadTable::new(2);
        t.enqueue(&item(&q, 7), &q, SimTime::ZERO);
    }

    /// Gathers the maintained snapshots through the public decision-path
    /// API, in bucket order (no residency pushed, to match `rebuild`'s
    /// default).
    fn gather(t: &WorkloadTable) -> Vec<BucketSnapshot> {
        let mut out: Vec<BucketSnapshot> = t.walk(Lens::Age).collect();
        out.sort_by_key(|s| s.bucket);
        out
    }

    /// From-scratch snapshot rebuild via the public queue accessors — the
    /// reference the incrementally-maintained snapshots must match.
    fn rebuild(t: &WorkloadTable) -> Vec<BucketSnapshot> {
        t.non_empty_buckets()
            .iter()
            .map(|&b| {
                let q = t.queue(b);
                BucketSnapshot {
                    bucket: b,
                    queue_len: q.len() as u64,
                    oldest_enqueue: q.oldest_enqueue().expect("non-empty"),
                    cached: false,
                }
            })
            .collect()
    }

    #[test]
    fn snapshots_track_enqueue_and_drains() {
        let qa = entry_source(2);
        let mut qb = entry_source(3);
        qb.id = QueryId(2);
        let mut t = WorkloadTable::new(8);
        t.enqueue(&item(&qa, 5), &qa, SimTime::ZERO);
        t.enqueue(&item(&qb, 5), &qb, SimTime::from_micros(10));
        t.enqueue(&item(&qa, 2), &qa, SimTime::from_micros(20));
        let r = rebuild(&t);
        assert_eq!(gather(&t), r);
        take_query(&mut t, BucketId(5), QueryId(1));
        let r = rebuild(&t);
        assert_eq!(gather(&t), r);
        take_all(&mut t, BucketId(5));
        let r = rebuild(&t);
        assert_eq!(gather(&t), r);
        assert_eq!(t.snapshot_of(BucketId(5)), None);
        take_all(&mut t, BucketId(2));
        assert!(gather(&t).is_empty());
    }

    /// `n` queries (IDs 0..n) of `objects` objects each — the borrowed side
    /// of bare-queue tests.
    fn pool(n: u64, objects: usize) -> Vec<CrossMatchQuery> {
        (0..n)
            .map(|id| {
                let mut q = entry_source(objects);
                q.id = QueryId(id);
                q
            })
            .collect()
    }

    /// A materializing drain of a bare queue, as the table composes it.
    fn drain_into(wq: &mut WorkloadQueue<'_>, only: Option<QueryId>, out: &mut Vec<QueueEntry>) {
        out.clear();
        wq.drain_runs(only, |run| out.extend(run.entries()));
    }

    /// Appends one object of `q` stamped `at_us` — a length-1 chunk.
    fn push<'q>(wq: &mut WorkloadQueue<'q>, q: &'q CrossMatchQuery, object: u32, at_us: u64) {
        wq.push_chunk(
            q.id,
            FragmentId(0),
            &q.objects,
            &[object],
            SimTime::from_micros(at_us),
        );
    }

    #[test]
    fn a_single_query_drain_partitions_and_repairs_oldest() {
        let qs = pool(3, 5);
        let mut wq = WorkloadQueue::new();
        for (i, q) in [1usize, 2, 1, 1, 2].iter().enumerate() {
            push(&mut wq, &qs[*q], i as u32, i as u64);
        }
        wq.validate();
        let mut out = Vec::new();
        drain_into(&mut wq, Some(QueryId(1)), &mut out);
        wq.validate();
        // Drained ∪ kept is an exact partition by query (order is not part
        // of the contract — batches are consumed as unordered sets), each
        // entry carrying its run's earliest stamp.
        let mut drained: Vec<(u32, u64)> = out
            .iter()
            .map(|e| (e.object_index, e.enqueued_at.as_micros()))
            .collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![(0, 0), (2, 0), (3, 0)]);
        let mut kept: Vec<u32> = wq.iter().map(|e| e.object_index).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![1, 4]);
        assert_eq!(wq.oldest_enqueue(), Some(SimTime::from_micros(1)));
        // Draining an absent query leaves state (and `oldest`) untouched.
        drain_into(&mut wq, Some(QueryId(99)), &mut out);
        assert!(out.is_empty());
        assert_eq!(wq.len(), 2);
        assert_eq!(wq.oldest_enqueue(), Some(SimTime::from_micros(1)));
    }

    #[test]
    fn a_top_up_keeps_the_earliest_stamp() {
        let qs = pool(1, 40);
        let mut wq = WorkloadQueue::new();
        let first: Vec<u32> = (0..30).collect();
        wq.push_chunk(
            qs[0].id,
            FragmentId(0),
            &qs[0].objects,
            &first,
            SimTime::from_micros(50),
        );
        // A later top-up joins the run under the run's stamp…
        wq.push_chunk(
            qs[0].id,
            FragmentId(0),
            &qs[0].objects,
            &[30, 31],
            SimTime::from_micros(90),
        );
        wq.validate();
        let stamp = wq.runs().next().map(|r| r.enqueued_at());
        assert_eq!(stamp, Some(SimTime::from_micros(50)));
        // …and a merge-style push older than everything lowers it.
        wq.push_chunk(
            qs[0].id,
            FragmentId(0),
            &qs[0].objects,
            &[32],
            SimTime::from_micros(7),
        );
        wq.validate();
        assert_eq!(wq.distinct_queries(), 1);
        assert_eq!(wq.oldest_enqueue(), Some(SimTime::from_micros(7)));
        let run = wq.runs().next().expect("one run");
        assert_eq!(run.indices(), (0..33).collect::<Vec<u32>>());
        assert_eq!(run.enqueued_at(), SimTime::from_micros(7));
        assert!(wq.iter().all(|e| e.enqueued_at == SimTime::from_micros(7)));
    }

    #[test]
    fn a_counting_drain_reports_runs_without_entries() {
        let qs = pool(4, 3);
        let mut wq = WorkloadQueue::new();
        for q in [&qs[3], &qs[0], &qs[2]] {
            wq.push_chunk(q.id, FragmentId(0), &q.objects, &[0, 1, 2], SimTime::ZERO);
        }
        push(&mut wq, &qs[2], 1, 5);
        let mut rows = Vec::new();
        let drained = wq.drain_runs(None, |run| rows.push((run.query(), run.len())));
        assert_eq!(drained, 10);
        // Directory order is query order.
        assert_eq!(
            rows,
            vec![(QueryId(0), 3), (QueryId(2), 4), (QueryId(3), 3)]
        );
        assert!(wq.is_empty());
        assert_eq!(wq.oldest_enqueue(), None);
        wq.validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_chunk_rejects_foreign_indices() {
        let qs = pool(1, 2);
        WorkloadQueue::new().push_chunk(
            qs[0].id,
            FragmentId(0),
            &qs[0].objects,
            &[0, 2],
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "different object list")]
    fn a_query_cannot_queue_two_object_lists_in_one_bucket() {
        let qs = pool(1, 2);
        let twin = qs[0].clone();
        let mut wq = WorkloadQueue::new();
        push(&mut wq, &qs[0], 0, 0);
        push(&mut wq, &twin, 1, 0);
    }

    #[test]
    fn two_fragments_of_a_query_keep_their_own_runs() {
        let qs = pool(2, 4);
        let mut wq = WorkloadQueue::new();
        let (a, b) = (FragmentId(5), FragmentId(2));
        wq.push_chunk(qs[1].id, a, &qs[1].objects, &[0], SimTime::ZERO);
        wq.push_chunk(qs[0].id, a, &qs[0].objects, &[0, 1], SimTime::ZERO);
        wq.push_chunk(qs[0].id, b, &qs[0].objects, &[2], SimTime::from_micros(3));
        wq.validate();
        let rows: Vec<_> = wq
            .runs()
            .map(|r| (r.query(), r.fragment(), r.len()))
            .collect();
        assert_eq!(
            rows,
            vec![(qs[0].id, b, 1), (qs[0].id, a, 2), (qs[1].id, a, 1)]
        );
        assert_eq!(wq.pending_of(qs[0].id), 3);
        // A single-query drain takes every fragment's run of the query.
        let mut drained = Vec::new();
        let n = wq.drain_runs(Some(qs[0].id), |r| drained.push(r.fragment()));
        assert_eq!((n, drained), (3, vec![b, a]));
        assert_eq!(wq.len(), 1);
        wq.validate();
    }

    /// The point of queueing sub-queries: a deep table costs a few bytes per
    /// assignment (a materialized entry is 72).
    #[test]
    fn a_deep_table_stays_under_16_bytes_per_assignment() {
        let q_objects = 100usize;
        let qs = pool(64, q_objects);
        let indices: Vec<u32> = (0..q_objects as u32).collect();
        let mut t = WorkloadTable::new(16);
        for q in &qs {
            for bucket in 0..16 {
                let item = WorkItem {
                    query: q.id,
                    bucket: BucketId(bucket),
                    object_indices: indices.clone(),
                };
                t.enqueue(&item, q, SimTime::from_micros(q.id.0));
            }
        }
        let m = t.memory_stats();
        assert!(m.queued_entries >= 100_000, "{} queued", m.queued_entries);
        assert!(m.directory_runs >= 1_000, "{} runs", m.directory_runs);
        let per_assignment = m.total_bytes() as f64 / m.queued_entries as f64;
        assert!(
            per_assignment <= 16.0,
            "{per_assignment:.1} bytes per queued assignment"
        );
        t.validate_index();
    }

    #[test]
    fn table_memory_stats_aggregate_buckets() {
        let q = entry_source(3);
        let mut t = WorkloadTable::new(8);
        t.enqueue(&item(&q, 1), &q, SimTime::ZERO);
        t.enqueue(&item(&q, 5), &q, SimTime::ZERO);
        let m = t.memory_stats();
        assert_eq!(m.queued_entries, 6);
        assert_eq!(m.directory_runs, 2);
        assert!(m.total_bytes() > 0);
    }

    #[test]
    fn index_tracks_enqueue_and_drains() {
        let qa = entry_source(2);
        let mut qb = entry_source(5);
        qb.id = QueryId(2);
        let mut t = WorkloadTable::new(8);
        assert_eq!(t.candidate_count(), 0);
        assert_eq!(t.top_candidate(Lens::Throughput), None);
        t.enqueue(&item(&qa, 5), &qa, SimTime::from_micros(100));
        t.enqueue(&item(&qb, 2), &qb, SimTime::from_micros(50));
        t.validate_index();
        // Longer queue wins the throughput order; older enqueue the age lens.
        assert_eq!(
            t.top_candidate(Lens::Throughput).unwrap().bucket,
            BucketId(2),
            "5 queued beats 2"
        );
        assert_eq!(t.top_candidate(Lens::Age).unwrap().bucket, BucketId(2));
        assert_eq!(
            t.bottom_candidate(Lens::Throughput).unwrap().bucket,
            BucketId(5)
        );
        assert_eq!(t.bottom_candidate(Lens::Age).unwrap().bucket, BucketId(5));
        let passed_over =
            |t: &WorkloadTable, picked| t.walk(Lens::Age).find(|s| s.bucket != picked);
        assert_eq!(passed_over(&t, BucketId(2)).unwrap().bucket, BucketId(5));
        assert_eq!(
            t.walk(Lens::Throughput)
                .map(|s| s.bucket)
                .collect::<Vec<_>>(),
            vec![BucketId(2), BucketId(5)]
        );
        assert_eq!(t.walk(Lens::Age).take(1).count(), 1);
        take_all(&mut t, BucketId(2));
        t.validate_index();
        assert_eq!(
            t.top_candidate(Lens::Throughput).unwrap().bucket,
            BucketId(5)
        );
        assert_eq!(passed_over(&t, BucketId(5)), None);
        take_query(&mut t, BucketId(5), QueryId(1));
        t.validate_index();
        assert_eq!(t.candidate_count(), 0);
    }

    #[test]
    fn candidate_at_or_after_is_the_rr_probe() {
        let q = entry_source(1);
        let mut t = WorkloadTable::new(16);
        for b in [2u32, 5, 9] {
            t.enqueue(&item(&q, b), &q, SimTime::ZERO);
        }
        assert_eq!(
            t.candidate_at_or_after(BucketId(0)).unwrap().bucket,
            BucketId(2)
        );
        assert_eq!(
            t.candidate_at_or_after(BucketId(2)).unwrap().bucket,
            BucketId(2)
        );
        assert_eq!(
            t.candidate_at_or_after(BucketId(3)).unwrap().bucket,
            BucketId(5)
        );
        assert_eq!(t.candidate_at_or_after(BucketId(10)), None);
    }

    #[test]
    fn set_resident_rekeys_candidates_and_keeps_empty_bits() {
        let q = entry_source(3);
        let mut t = WorkloadTable::new(4);
        t.enqueue(&item(&q, 1), &q, SimTime::ZERO);
        t.enqueue(&item(&q, 3), &q, SimTime::from_micros(10));
        t.set_resident(BucketId(3), true);
        assert!(t.snapshot_of(BucketId(3)).unwrap().cached);
        assert!(!t.snapshot_of(BucketId(1)).unwrap().cached);
        // The resident candidate heads the throughput order despite its
        // shorter queue.
        let order = |t: &WorkloadTable| {
            t.walk(Lens::Throughput)
                .map(|s| s.bucket)
                .collect::<Vec<_>>()
        };
        assert_eq!(order(&t), vec![BucketId(3), BucketId(1)]);
        t.validate_index();
        // Repeating a push is a no-op.
        t.set_resident(BucketId(3), true);
        t.validate_index();
        // Flips re-key both candidates — and the currently empty bucket 0,
        // whose bit must be current when it fills later.
        t.set_resident(BucketId(3), false);
        t.set_resident(BucketId(1), true);
        t.set_resident(BucketId(0), true);
        assert_eq!(order(&t), vec![BucketId(1), BucketId(3)]);
        t.validate_index();
        t.enqueue(&item(&q, 0), &q, SimTime::from_micros(20));
        assert!(
            t.snapshot_of(BucketId(0)).unwrap().cached,
            "empty buckets' bits must stay current"
        );
        // Equal resident queues break toward the lower bucket.
        assert_eq!(order(&t), vec![BucketId(0), BucketId(1), BucketId(3)]);
        t.validate_index();
        // A drained bucket keeps its bit too.
        take_all(&mut t, BucketId(0));
        t.set_resident(BucketId(0), false);
        t.enqueue(&item(&q, 0), &q, SimTime::from_micros(30));
        assert!(!t.snapshot_of(BucketId(0)).unwrap().cached);
        t.validate_index();
    }
}
