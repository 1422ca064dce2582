//! Per-bucket workload queues — the data structure LifeRaft schedules over.
//!
//! "The workload queue for a bucket Bj consists of the union of W_1^j,
//! W_2^j, ..., and W_m^j. Thus, requests from multiple queries are
//! interleaved in the same workload queue and are joined in one pass"
//! — Section 3.1.
//!
//! # Queues hold sub-queries
//!
//! A queue stores what the paper says it stores: per co-queued query, the
//! sub-query `W_i^j` — a borrow of the query's object list plus the indices
//! of the objects that overlap this bucket. Nothing of an object is copied
//! at enqueue time; the 72-byte [`QueueEntry`] is the *materialized*,
//! join-time view, built only when a caller asks for entries. A run that is
//! only counted (the cost-only batch of the simulation) is never expanded.
//!
//! # Segmented storage
//!
//! Each bucket's queue is physically *segmented by query*: the indices of
//! one `(bucket, query)` run live in a chain of fixed-capacity segments
//! allocated from a per-bucket slab, behind a compact per-bucket directory
//! (one row per co-queued query — per fragment of it, in the rare bucket
//! that holds two — sorted by query ID). Every segment carries
//! the enqueue stamp of the indices in it, so a run topped up later — or
//! merged from a migration with older stamps — keeps each entry's exact
//! `enqueued_at`. The queue operations then cost:
//!
//! - **append** ([`push_chunk`](WorkloadQueue::push_chunk)): one O(log d)
//!   directory lookup (d = co-queued queries) per work item, then 4 bytes
//!   copied per assignment, a segment at a time;
//! - **[`drain_runs`](WorkloadQueue::drain_runs)** — the one drain: the
//!   chosen runs leave the directory and each chain returns to the free
//!   list in O(1), so a caller that only reads `(query, count)` pays
//!   O(runs), not O(entries). A single-query drain (the NoShare batch)
//!   touches no other query's run beyond an O(d) directory repair;
//! - **materializing** ([`WorkloadTable::take_all_into`],
//!   [`WorkloadTable::take_query_into`], [`iter`](WorkloadQueue::iter)):
//!   the same drain (or walk) with [`RunView::entries`] collected —
//!   O(entries).
//!
//! # The unordered-batch contract
//!
//! Batch drains yield runs in directory order (ascending query ID), entries
//! in push order within a run — not in global arrival order. Queue order is
//! **not** part of the contract: batches are consumed as unordered sets
//! (completion accounting is per query, join results are counted, and the
//! age term reads the maintained `oldest`), which is pinned end-to-end by
//! the golden determinism fingerprints.

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
    /// When the request entered the queue (the age term's clock).
    pub enqueued_at: SimTime,
}

/// Object indices per segment. With 4-byte indices a segment is 128 bytes
/// (two cache lines, header included): large enough to amortize slab
/// bookkeeping, small enough that the many short `(bucket, query)` runs a
/// hotspot workload produces strand little capacity.
const SEGMENT_CAPACITY: usize = 28;

/// Null link in a segment chain.
const NO_SEGMENT: u32 = u32::MAX;

/// A fixed-capacity block of one run's object indices, all enqueued at the
/// same instant, plus the link to the next segment of the same chain.
/// Freed segments are recycled through the slab's free list (threaded
/// through `next`), so steady-state enqueue/drain cycles perform no heap
/// traffic.
#[derive(Debug, Clone)]
struct Segment {
    /// Enqueue stamp of every index in this segment.
    enqueued_at: SimTime,
    next: u32,
    len: u32,
    indices: [u32; SEGMENT_CAPACITY],
}

impl Segment {
    fn indices(&self) -> &[u32] {
        &self.indices[..self.len as usize]
    }
}

/// The slab slots linked from `head` (none for `NO_SEGMENT`), in link order.
fn chain(segments: &[Segment], head: u32) -> impl Iterator<Item = u32> + '_ {
    std::iter::successors((head != NO_SEGMENT).then_some(head), move |&s| {
        let next = segments[s as usize].next;
        (next != NO_SEGMENT).then_some(next)
    })
}

/// One directory row: the sub-query of one query's fragment at this bucket
/// — the borrowed object list, the segment chain holding the queued indices
/// into it, and the per-run accounting the drains and the age term need. A
/// query has one row per fragment queued here; only a straggler's hedge
/// copy meeting its original after a bucket move makes that more than one.
#[derive(Debug, Clone, Copy)]
struct QueryRun<'q> {
    query: QueryId,
    /// The fragment the queued indices were handed over in.
    fragment: FragmentId,
    /// The parent query's objects; every index in the chain points here.
    objects: &'q [MatchObject],
    /// First segment of the chain (always valid: runs hold ≥ 1 index).
    head: u32,
    /// Last segment of the chain — the append target.
    tail: u32,
    /// Indices in the chain.
    len: u32,
    /// Earliest enqueue stamp in the chain.
    oldest: SimTime,
}

/// A read-only view of one `(bucket, query)` run — what
/// [`WorkloadQueue::runs`] walks and [`WorkloadQueue::drain_runs`] hands
/// out. Reading [`query`](Self::query) and [`len`](Self::len) touches only
/// the directory row; [`chunks`](Self::chunks) and
/// [`entries`](Self::entries) walk the segment chain.
#[derive(Debug, Clone, Copy)]
pub struct RunView<'a, 'q> {
    run: &'a QueryRun<'q>,
    segments: &'a [Segment],
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
        self.run.len as usize
    }

    /// The parent query's object list the run's indices point into.
    pub fn objects(&self) -> &'q [MatchObject] {
        self.run.objects
    }

    /// The run's stored form, in push order: `(enqueued_at, object indices)`
    /// per segment. Consecutive chunks may share a stamp.
    pub fn chunks(&self) -> impl Iterator<Item = (SimTime, &'a [u32])> + 'a {
        let segments = self.segments;
        chain(segments, self.run.head).map(move |s| {
            let seg = &segments[s as usize];
            (seg.enqueued_at, seg.indices())
        })
    }

    /// Materializes the run's entries, in push order.
    pub fn entries(&self) -> impl Iterator<Item = QueueEntry> + 'a {
        let query = self.run.query;
        let objects: &'a [MatchObject] = self.run.objects;
        self.chunks().flat_map(move |(enqueued_at, indices)| {
            indices.iter().map(move |&object_index| {
                let obj = &objects[object_index as usize];
                QueueEntry {
                    query,
                    object_index,
                    pos: obj.pos,
                    radius: obj.radius,
                    bbox: obj.bounding_range(),
                    enqueued_at,
                }
            })
        })
    }
}

/// Byte-level accounting of one queue's (or, summed, one table's) storage:
/// directory rows plus the segment slab holding 4-byte object indices. The
/// query objects the runs borrow belong to the trace, not to the queue, and
/// are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueMemoryStats {
    /// Live queued entries (assignments).
    pub queued_entries: u64,
    /// Live `(bucket, query)` directory rows.
    pub directory_runs: u64,
    /// Bytes allocated for directories (capacity × row size).
    pub directory_bytes: u64,
    /// Segment slots in the slabs (live chains + free list).
    pub segments: u64,
    /// Slots currently on free lists.
    pub free_segments: u64,
    /// Bytes allocated for the segment slabs (capacity × segment size:
    /// index blocks, stamps and links).
    pub segment_bytes: u64,
    /// Bytes of live payload: `queued_entries` × the 4-byte object index.
    pub entry_bytes: u64,
}

impl QueueMemoryStats {
    /// Folds another accounting into this one (per-bucket → table totals).
    pub fn merge(&mut self, other: &QueueMemoryStats) {
        self.queued_entries += other.queued_entries;
        self.directory_runs += other.directory_runs;
        self.directory_bytes += other.directory_bytes;
        self.segments += other.segments;
        self.free_segments += other.free_segments;
        self.segment_bytes += other.segment_bytes;
        self.entry_bytes += other.entry_bytes;
    }

    /// Total allocated bytes.
    pub fn total_bytes(&self) -> u64 {
        self.directory_bytes + self.segment_bytes
    }
}

/// The workload queue of a single bucket: one run (sub-query) per co-queued
/// query. `'q` is the lifetime of the queries whose objects the runs borrow.
#[derive(Debug, Clone)]
pub struct WorkloadQueue<'q> {
    /// Per-query runs, sorted by `(query ID, fragment)`. Compact: one
    /// 48-byte row per co-queued query's fragment.
    directory: Vec<QueryRun<'q>>,
    /// The segment slab backing every chain of this bucket.
    segments: Vec<Segment>,
    /// Head of the free list of recycled slab slots, linked through `next`.
    free: u32,
    /// Total queued entries.
    len: usize,
    /// Earliest enqueue time among current entries (None when empty).
    oldest: Option<SimTime>,
}

impl Default for WorkloadQueue<'_> {
    fn default() -> Self {
        WorkloadQueue {
            directory: Vec::new(),
            segments: Vec::new(),
            free: NO_SEGMENT,
            len: 0,
            oldest: None,
        }
    }
}

impl<'q> WorkloadQueue<'q> {
    /// An empty queue.
    pub fn new() -> Self {
        WorkloadQueue::default()
    }

    /// Appends `indices` — positions in `objects`, all requests of `query`'s
    /// `fragment` enqueued at `at` — to that fragment's run: one O(log d)
    /// directory lookup, then the tail segment is filled and new segments
    /// are chained a whole segment at a time, with the run and queue
    /// accounting updated once. A no-op for empty `indices`. This is the only append path:
    /// arrivals, top-ups and migration merges all come through here.
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
        let i = match self
            .directory
            .binary_search_by_key(&key, |r| (r.query, r.fragment))
        {
            Ok(i) => {
                assert!(
                    std::ptr::eq(self.directory[i].objects, objects),
                    "{query} is already queued here with a different object list"
                );
                i
            }
            Err(i) => {
                let s = self.alloc_segment(at);
                self.directory.insert(
                    i,
                    QueryRun {
                        query,
                        fragment,
                        objects,
                        head: s,
                        tail: s,
                        len: 0,
                        oldest: at,
                    },
                );
                i
            }
        };
        let mut tail = self.directory[i].tail;
        let mut rest = indices;
        loop {
            let seg = &mut self.segments[tail as usize];
            // A segment holds one stamp: a chunk stamped differently from
            // the tail starts a fresh segment even if the tail has room.
            if seg.enqueued_at == at {
                let filled = seg.len as usize;
                let (fit, more) = rest.split_at(rest.len().min(SEGMENT_CAPACITY - filled));
                seg.indices[filled..filled + fit.len()].copy_from_slice(fit);
                seg.len += fit.len() as u32;
                rest = more;
            }
            if rest.is_empty() {
                break;
            }
            let s = self.alloc_segment(at);
            self.segments[tail as usize].next = s;
            tail = s;
        }
        let run = &mut self.directory[i];
        run.tail = tail;
        run.len += indices.len() as u32;
        run.oldest = run.oldest.min(at);
        self.len += indices.len();
        self.oldest = Some(self.oldest.map_or(at, |t| t.min(at)));
    }

    /// An empty segment stamped `at`, recycled from the free list if any.
    fn alloc_segment(&mut self, at: SimTime) -> u32 {
        if self.free == NO_SEGMENT {
            self.segments.push(Segment {
                enqueued_at: at,
                next: NO_SEGMENT,
                len: 0,
                indices: [0; SEGMENT_CAPACITY],
            });
            return (self.segments.len() - 1) as u32;
        }
        let s = self.free;
        let seg = &mut self.segments[s as usize];
        self.free = seg.next;
        seg.enqueued_at = at;
        seg.next = NO_SEGMENT;
        seg.len = 0;
        s
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
        self.directory.iter().map(move |run| RunView {
            run,
            segments: &self.segments,
        })
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
        rows.iter().map(|r| r.len as usize).sum()
    }

    /// The directory rows of `query`'s runs (empty when it has none).
    fn rows_of(&self, query: QueryId) -> std::ops::Range<usize> {
        let start = self.directory.partition_point(|r| r.query < query);
        let len = self.directory[start..].partition_point(|r| r.query == query);
        start..start + len
    }

    /// The run-level drain every other drain is built on: removes the runs
    /// of `only` (or every run, for `None`), showing each to `visit` —
    /// directory order — before its chain returns to the free list. Reading
    /// a view's `query`/`len` costs nothing per entry, so a drain that only
    /// counts is O(runs); allocations are kept for reuse. Returns the
    /// number of entries that left the queue (0 when `only` has no run).
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
        for run in &self.directory[rows.clone()] {
            visit(RunView {
                run,
                segments: &self.segments,
            });
            // Splice the whole chain onto the free list.
            self.segments[run.tail as usize].next = self.free;
            self.free = run.head;
            drained += run.len as usize;
        }
        self.directory.drain(rows);
        self.len -= drained;
        // O(d) over the surviving *queries*, not their entries.
        self.oldest = self.directory.iter().map(|r| r.oldest).min();
        drained
    }

    /// Distinct queries with work in this queue (one directory row each).
    pub fn distinct_queries(&self) -> usize {
        self.directory.len()
    }

    /// This queue's storage accounting.
    pub fn memory_stats(&self) -> QueueMemoryStats {
        QueueMemoryStats {
            queued_entries: self.len as u64,
            directory_runs: self.directory.len() as u64,
            directory_bytes: (self.directory.capacity() * std::mem::size_of::<QueryRun<'_>>())
                as u64,
            segments: self.segments.len() as u64,
            free_segments: chain(&self.segments, self.free).count() as u64,
            segment_bytes: (self.segments.capacity() * std::mem::size_of::<Segment>()) as u64,
            entry_bytes: (self.len * std::mem::size_of::<u32>()) as u64,
        }
    }

    /// Checks every structural invariant of the segmented storage: the
    /// directory is strictly sorted by query; each run's chain holds exactly
    /// `run.len` in-range indices in non-empty segments, a segment stops
    /// short of capacity only where the stamp changes, and `run.oldest` is
    /// the chain's true minimum stamp; the queue counters match the
    /// directory; and every slab slot is on exactly one chain or the free
    /// list.
    ///
    /// # Panics
    /// Panics on any violated invariant. O(entries) — for tests and debug
    /// assertions, not the hot path.
    pub fn validate_segments(&self) {
        assert!(
            self.directory
                .windows(2)
                .all(|w| (w[0].query, w[0].fragment) < (w[1].query, w[1].fragment)),
            "directory must be strictly sorted by (query, fragment)"
        );
        let mut seen = vec![false; self.segments.len()];
        let mut mark = |s: u32| {
            assert!(
                !std::mem::replace(&mut seen[s as usize], true),
                "segment {s} linked twice"
            );
        };
        let mut total = 0usize;
        for run in &self.directory {
            assert!(run.len > 0, "empty run for {} survived a drain", run.query);
            let mut chain_len = 0usize;
            let mut chain_oldest: Option<SimTime> = None;
            let mut last = run.head;
            for s in chain(&self.segments, run.head) {
                mark(s);
                let seg = &self.segments[s as usize];
                assert!(!seg.indices().is_empty(), "empty segment {s} left in chain");
                assert!(
                    seg.indices()
                        .iter()
                        .all(|&i| (i as usize) < run.objects.len()),
                    "segment {s} of {} indexes past the query's objects",
                    run.query
                );
                assert!(
                    seg.next == NO_SEGMENT
                        || seg.len as usize == SEGMENT_CAPACITY
                        || self.segments[seg.next as usize].enqueued_at != seg.enqueued_at,
                    "segment {s} of {} stops short without a stamp change",
                    run.query
                );
                chain_oldest =
                    Some(chain_oldest.map_or(seg.enqueued_at, |t| t.min(seg.enqueued_at)));
                chain_len += seg.len as usize;
                last = s;
            }
            assert_eq!(last, run.tail, "tail link of {} diverged", run.query);
            assert_eq!(chain_len, run.len as usize, "run length of {}", run.query);
            assert_eq!(
                chain_oldest,
                Some(run.oldest),
                "run oldest of {}",
                run.query
            );
            total += chain_len;
        }
        assert_eq!(total, self.len, "queue length diverged from chains");
        assert_eq!(
            self.directory.iter().map(|r| r.oldest).min(),
            self.oldest,
            "queue oldest diverged from runs"
        );
        chain(&self.segments, self.free).for_each(&mut mark);
        assert!(
            seen.iter().all(|&s| s),
            "every segment must be on a chain or the free list"
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
/// then an index lookup ([`top_candidate`](Self::top_candidate) plus an
/// exact re-rank of the small resident pool, or
/// [`frontier_into`](Self::frontier_into)) instead of
/// an O(non-empty buckets) gather + re-score. Slots are updated in place
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
    /// `bucket` and `bucket_objects` fields are static, and the `cached`
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
                    bucket_objects: 0,
                })
                .collect(),
            index: CandidateIndex::new(),
            total_queued: 0,
        }
    }

    /// Installs the static per-bucket catalog object counts that snapshots
    /// carry (`BucketSnapshot::bucket_objects`). Call once at setup, before
    /// any work is enqueued.
    ///
    /// # Panics
    /// Panics if work is already queued — counts are snapshot state and
    /// must not change underneath live snapshots.
    pub fn with_object_counts(mut self, mut count_of: impl FnMut(BucketId) -> u64) -> Self {
        assert!(
            self.non_empty.is_empty(),
            "object counts must be installed before enqueuing work"
        );
        for slot in self.snapshot_slots.iter_mut() {
            slot.bucket_objects = count_of(slot.bucket);
        }
        self
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
    /// absorption**. Every chunk is re-appended at its *original* stamp
    /// (ages survive the move) through the same path arrivals take, and the
    /// bucket's snapshot slot and the candidate index are brought current
    /// once. A no-op for an empty payload.
    ///
    /// The destination bucket may already hold work (arrivals routed to the
    /// new owner before the migration lands); the merged queue is the union.
    pub fn merge_bucket(&mut self, bucket: BucketId, payload: &WorkloadQueue<'q>) {
        self.grow(bucket, |queue| {
            for run in payload.runs() {
                for (at, indices) in run.chunks() {
                    queue.push_chunk(run.query(), run.fragment(), run.objects(), indices, at);
                }
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
    /// candidate moves between the index's resident and uncached pools in
    /// O(log n), an empty bucket keeps the bit for when it fills.
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

    /// Streams every candidate snapshot in ascending bucket order, straight
    /// from the maintained slots — no gather, no allocation.
    pub fn for_each_candidate(&self, f: &mut dyn FnMut(&BucketSnapshot)) {
        for &b in &self.non_empty {
            f(&self.snapshot_slots[b.index()]);
        }
    }

    /// Number of resident candidates (bounded by the cache capacity).
    pub fn cached_candidate_count(&self) -> usize {
        self.index.cached_len()
    }

    /// Streams every resident candidate (best tie-break first) — the small
    /// set the α = 0 pick re-scores exactly.
    pub fn for_each_cached_candidate(&self, f: &mut dyn FnMut(&BucketSnapshot)) {
        for b in self.index.iter_cached() {
            f(&self.snapshot_slots[b.index()]);
        }
    }

    /// The candidate of `lens`'s pool maximal under `lens` (exact,
    /// tie-breaks included): the α = 1 pick under [`Lens::Age`], the only
    /// non-resident candidate an α = 0 pick can choose under
    /// [`Lens::UncachedThroughput`].
    pub fn top_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.index.top(lens).map(|b| self.snapshot_slots[b.index()])
    }

    /// The candidate of `lens`'s pool minimal under `lens` (normalization
    /// lower bound).
    pub fn bottom_candidate(&self, lens: Lens) -> Option<BucketSnapshot> {
        self.index
            .bottom(lens)
            .map(|b| self.snapshot_slots[b.index()])
    }

    /// Fills `out` (cleared first) with up to `k` candidates of `lens`'s
    /// pool in descending `lens` order — one list of the mixed-α threshold
    /// scan.
    pub fn frontier_into(&self, lens: Lens, k: usize, out: &mut Vec<BucketSnapshot>) {
        out.clear();
        let best = self.index.desc(lens).take(k);
        out.extend(best.map(|b| self.snapshot_slots[b.index()]));
    }

    /// The first candidate at or after `bucket` in bucket order, if any —
    /// the round-robin cursor's probe (the caller wraps to `BucketId(0)`).
    pub fn candidate_at_or_after(&self, bucket: BucketId) -> Option<BucketSnapshot> {
        let pos = self.non_empty.partition_point(|&b| b < bucket);
        self.non_empty
            .get(pos)
            .map(|b| self.snapshot_slots[b.index()])
    }

    /// The oldest candidate other than `excluded` — the starvation
    /// monitor's "oldest passed-over request" in O(log n).
    pub fn oldest_candidate_excluding(&self, excluded: BucketId) -> Option<BucketSnapshot> {
        let mut oldest = self.index.desc(Lens::Age);
        let passed_over = oldest.find(|&b| b != excluded)?;
        Some(self.snapshot_slots[passed_over.index()])
    }

    /// Aggregated segmented-storage accounting across every bucket queue
    /// (directories, segment slabs, free lists — not the table's snapshot
    /// slots or candidate index, whose footprint predates the segmented
    /// layout) — the number behind the ROADMAP's "segment directory adds
    /// per-bucket memory" question.
    pub fn memory_stats(&self) -> QueueMemoryStats {
        let mut total = QueueMemoryStats::default();
        for q in &self.queues {
            total.merge(&q.memory_stats());
        }
        total
    }

    /// Checks the index invariant (one entry per non-empty bucket, keyed by
    /// its live slot) by rebuilding a reference index, and every bucket
    /// queue's segment-directory invariants
    /// ([`WorkloadQueue::validate_segments`]) — O(entries), meant for tests
    /// and debug assertions, not the hot path.
    ///
    /// # Panics
    /// Panics if the maintained index or any segment directory diverged.
    pub fn validate_index(&self) {
        let mut reference = CandidateIndex::new();
        for &b in &self.non_empty {
            reference.insert(&self.snapshot_slots[b.index()]);
        }
        assert_eq!(self.index.len(), reference.len(), "index size diverged");
        let got: Vec<BucketId> = self.index.iter_cached().collect();
        let want: Vec<BucketId> = reference.iter_cached().collect();
        assert_eq!(got, want, "resident pool diverged");
        for lens in Lens::ALL {
            let got: Vec<BucketId> = self.index.desc(lens).collect();
            let want: Vec<BucketId> = reference.desc(lens).collect();
            assert_eq!(got, want, "{lens:?} order diverged");
        }
        let mut total = 0u64;
        for (i, q) in self.queues.iter().enumerate() {
            q.validate_segments();
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
    /// API (no residency pushed, to match `rebuild`'s default).
    fn gather(t: &WorkloadTable) -> Vec<BucketSnapshot> {
        let mut out = Vec::new();
        t.for_each_candidate(&mut |s| out.push(*s));
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
                    bucket_objects: 0,
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
        wq.validate_segments();
        let mut out = Vec::new();
        drain_into(&mut wq, Some(QueryId(1)), &mut out);
        wq.validate_segments();
        // Drained ∪ kept is an exact partition by query (order is not part
        // of the contract — batches are consumed as unordered sets), each
        // entry keeping the stamp of the chunk that brought it.
        let mut drained: Vec<(u32, u64)> = out
            .iter()
            .map(|e| (e.object_index, e.enqueued_at.as_micros()))
            .collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![(0, 0), (2, 2), (3, 3)]);
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
    fn multi_segment_chains_preserve_push_order_within_a_query() {
        // 2.5 segments' worth of one query, interleaved with another.
        let n = SEGMENT_CAPACITY as u32 * 2 + SEGMENT_CAPACITY as u32 / 2;
        let qs = pool(3, n as usize);
        let mut wq = WorkloadQueue::new();
        for i in 0..n {
            push(&mut wq, &qs[1], i, 100);
            if i % 3 == 0 {
                push(&mut wq, &qs[2], i, i as u64);
            }
        }
        wq.validate_segments();
        assert_eq!(wq.distinct_queries(), 2);
        assert_eq!(wq.pending_of(QueryId(1)), n as usize);
        // One stamp throughout: query 1's chain is packed, 3 segments.
        let chunks: Vec<usize> = wq
            .runs()
            .next()
            .expect("query 1 is queued")
            .chunks()
            .map(|(_, indices)| indices.len())
            .collect();
        assert_eq!(
            chunks,
            vec![SEGMENT_CAPACITY, SEGMENT_CAPACITY, SEGMENT_CAPACITY / 2]
        );
        let mut out = Vec::new();
        drain_into(&mut wq, Some(QueryId(1)), &mut out);
        wq.validate_segments();
        // Within one query's run, segments chain in push order.
        let got: Vec<u32> = out.iter().map(|e| e.object_index).collect();
        let want: Vec<u32> = (0..n).collect();
        assert_eq!(got, want);
        // The other query's run — and the queue-level oldest — survive.
        assert_eq!(wq.oldest_enqueue(), Some(SimTime::ZERO));
        assert_eq!(wq.distinct_queries(), 1);
    }

    #[test]
    fn a_top_up_keeps_each_chunks_stamp() {
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
        // A later top-up, then a merge-style chunk older than everything.
        wq.push_chunk(
            qs[0].id,
            FragmentId(0),
            &qs[0].objects,
            &[30, 31],
            SimTime::from_micros(90),
        );
        wq.push_chunk(
            qs[0].id,
            FragmentId(0),
            &qs[0].objects,
            &[32],
            SimTime::from_micros(7),
        );
        wq.validate_segments();
        assert_eq!(wq.distinct_queries(), 1);
        assert_eq!(wq.oldest_enqueue(), Some(SimTime::from_micros(7)));
        let stamps: Vec<(u32, u64)> = wq
            .iter()
            .map(|e| (e.object_index, e.enqueued_at.as_micros()))
            .collect();
        let want: Vec<(u32, u64)> = (0..33)
            .map(|i| (i, [50, 90, 7][(i >= 30) as usize + (i >= 32) as usize]))
            .collect();
        assert_eq!(stamps, want);
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
        wq.validate_segments();
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
        wq.validate_segments();
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
        wq.validate_segments();
    }

    #[test]
    fn freed_segments_are_recycled() {
        let qs = pool(5, SEGMENT_CAPACITY * 3);
        let mut wq = WorkloadQueue::new();
        let mut out = Vec::new();
        let all: Vec<u32> = (0..SEGMENT_CAPACITY as u32 * 3).collect();
        for q in &qs {
            wq.push_chunk(q.id, FragmentId(0), &q.objects, &all, SimTime::ZERO);
            drain_into(&mut wq, None, &mut out);
            assert_eq!(out.len(), all.len());
            wq.validate_segments();
        }
        // Steady state: the slab never grows beyond one round's worth.
        assert_eq!(wq.memory_stats().segments, 3);
        assert_eq!(wq.memory_stats().free_segments, 3);
        assert_eq!(wq.len(), 0);
        assert_eq!(wq.oldest_enqueue(), None);
    }

    #[test]
    fn memory_stats_account_for_directory_and_segments() {
        let qs = pool(4, 3);
        let mut wq = WorkloadQueue::new();
        for q in &qs {
            wq.push_chunk(q.id, FragmentId(0), &q.objects, &[0, 1, 2], SimTime::ZERO);
        }
        let m = wq.memory_stats();
        assert_eq!(m.queued_entries, 12);
        assert_eq!(m.directory_runs, 4);
        assert_eq!(m.segments, 4, "one segment per short run");
        assert_eq!(m.free_segments, 0);
        assert_eq!(m.entry_bytes, 12 * 4, "the payload is the object index");
        assert!(m.directory_bytes >= 4 * std::mem::size_of::<QueryRun<'_>>() as u64);
        // Four segments allocate four full index blocks; 12 live indices.
        assert!(m.segment_bytes >= 4 * std::mem::size_of::<Segment>() as u64);
        assert_eq!(std::mem::size_of::<Segment>(), 128);
        assert_eq!(m.total_bytes(), m.directory_bytes + m.segment_bytes);
        let mut table_total = QueueMemoryStats::default();
        table_total.merge(&m);
        table_total.merge(&WorkloadQueue::new().memory_stats());
        assert_eq!(table_total.queued_entries, 12);
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
    #[should_panic(expected = "before enqueuing work")]
    fn object_counts_after_enqueue_rejected() {
        let q = entry_source(1);
        let mut t = WorkloadTable::new(4);
        t.enqueue(&item(&q, 1), &q, SimTime::ZERO);
        let _ = t.with_object_counts(|_| 1);
    }

    #[test]
    fn index_tracks_enqueue_and_drains() {
        let qa = entry_source(2);
        let mut qb = entry_source(5);
        qb.id = QueryId(2);
        let mut t = WorkloadTable::new(8);
        assert_eq!(t.candidate_count(), 0);
        assert_eq!(t.top_candidate(Lens::UncachedThroughput), None);
        t.enqueue(&item(&qa, 5), &qa, SimTime::from_micros(100));
        t.enqueue(&item(&qb, 2), &qb, SimTime::from_micros(50));
        t.validate_index();
        // Longer queue wins the uncached order; older enqueue the age lens.
        assert_eq!(
            t.top_candidate(Lens::UncachedThroughput).unwrap().bucket,
            BucketId(2),
            "5 queued beats 2"
        );
        assert_eq!(t.cached_candidate_count(), 0);
        assert_eq!(t.top_candidate(Lens::Age).unwrap().bucket, BucketId(2));
        assert_eq!(
            t.bottom_candidate(Lens::UncachedThroughput).unwrap().bucket,
            BucketId(5)
        );
        assert_eq!(t.bottom_candidate(Lens::Age).unwrap().bucket, BucketId(5));
        assert_eq!(
            t.oldest_candidate_excluding(BucketId(2)).unwrap().bucket,
            BucketId(5)
        );
        let mut frontier = Vec::new();
        t.frontier_into(Lens::UncachedThroughput, 10, &mut frontier);
        assert_eq!(
            frontier.iter().map(|s| s.bucket).collect::<Vec<_>>(),
            vec![BucketId(2), BucketId(5)]
        );
        t.frontier_into(Lens::Age, 1, &mut frontier);
        assert_eq!(frontier.len(), 1);
        take_all(&mut t, BucketId(2));
        t.validate_index();
        assert_eq!(
            t.top_candidate(Lens::UncachedThroughput).unwrap().bucket,
            BucketId(5)
        );
        assert_eq!(t.oldest_candidate_excluding(BucketId(5)), None);
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
        // The resident candidate moved into the cached pool.
        assert_eq!(t.cached_candidate_count(), 1);
        let mut cached = Vec::new();
        t.for_each_cached_candidate(&mut |s| cached.push(s.bucket));
        assert_eq!(cached, vec![BucketId(3)]);
        assert_eq!(
            t.top_candidate(Lens::UncachedThroughput).unwrap().bucket,
            BucketId(1)
        );
        t.validate_index();
        // Repeating a push is a no-op.
        t.set_resident(BucketId(3), true);
        t.validate_index();
        // Flips re-key both pools — including for the currently empty
        // bucket 0, whose bit must be current when it fills later.
        t.set_resident(BucketId(3), false);
        t.set_resident(BucketId(1), true);
        t.set_resident(BucketId(0), true);
        cached.clear();
        t.for_each_cached_candidate(&mut |s| cached.push(s.bucket));
        assert_eq!(cached, vec![BucketId(1)]);
        assert_eq!(
            t.top_candidate(Lens::UncachedThroughput).unwrap().bucket,
            BucketId(3)
        );
        t.validate_index();
        t.enqueue(&item(&q, 0), &q, SimTime::from_micros(20));
        assert!(
            t.snapshot_of(BucketId(0)).unwrap().cached,
            "empty buckets' bits must stay current"
        );
        assert_eq!(t.cached_candidate_count(), 2);
        t.validate_index();
        // A drained bucket keeps its bit too.
        take_all(&mut t, BucketId(0));
        t.set_resident(BucketId(0), false);
        t.enqueue(&item(&q, 0), &q, SimTime::from_micros(30));
        assert!(!t.snapshot_of(BucketId(0)).unwrap().cached);
        t.validate_index();
    }
}
