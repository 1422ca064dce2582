//! Per-bucket workload queues — the data structure LifeRaft schedules over.
//!
//! "The workload queue for a bucket Bj consists of the union of W_1^j,
//! W_2^j, ..., and W_m^j. Thus, requests from multiple queries are
//! interleaved in the same workload queue and are joined in one pass"
//! — Section 3.1.
//!
//! # Segmented storage
//!
//! Each bucket's queue is physically *segmented by query*: the entries of
//! one `(bucket, query)` pair live in a chain of fixed-capacity segments
//! allocated from a per-bucket slab, behind a compact per-bucket directory
//! (one `QueryRun` per co-queued query, sorted by query ID). The three
//! queue operations the engine drives then cost:
//!
//! - **enqueue**: one O(log d) directory lookup (d = co-queued queries) per
//!   work item, then its entries are appended to the run's tail a segment
//!   at a time ([`push_run`](WorkloadQueue::push_run));
//! - **[`drain_query_into`](WorkloadQueue::drain_query_into)** (the NoShare
//!   batch): O(matched) — the run's chain is unlinked and its entries moved
//!   out with **zero compares against other queries' entries**, plus an
//!   O(d) directory repair;
//! - **[`drain_all_into`](WorkloadQueue::drain_all_into)** (the shared
//!   batch): O(batch) — every chain is walked once.
//!
//! The previous layout (one dense entry vector + a 16-byte key sidecar)
//! made the per-query drain O(queue length): every co-queued entry was
//! *read and compared* per drain, which multiplied up to O(queue²) when a
//! deep shared queue was drained once per co-queued query — the measured
//! long pole of the NoShare baseline (971 k entries/s vs 7–8 M for every
//! sharing policy in `BENCH_sim.json`).
//!
//! # The unordered-batch contract
//!
//! Batch drains yield entries grouped by query (directory order), not in
//! global arrival order. Queue order is **not** part of the contract:
//! batches are consumed as unordered sets (completion accounting groups by
//! query ID, join results are counted, and the age term reads the
//! maintained `oldest`), which is pinned end-to-end by the golden
//! determinism fingerprints.

use liferaft_htm::{HtmRange, Vec3};
use liferaft_storage::{BucketId, SimTime};

use crate::crossmatch::{CrossMatchQuery, QueryId};
use crate::index::CandidateIndex;
use crate::preprocess::WorkItem;
use crate::snapshot::{BucketSnapshot, Residency};

/// One queued cross-match request: a single object of a single query,
/// waiting to be joined against one bucket.
///
/// Entries are self-contained (position, radius, bounding range) so the join
/// evaluator needs no back-reference to the query object list.
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

/// Entries per segment. Chosen so a segment (~2.3 KB of ~72-byte entries)
/// amortizes slab bookkeeping without stranding much capacity on the many
/// short `(bucket, query)` runs a hotspot workload produces.
const SEGMENT_CAPACITY: usize = 32;

/// Null link in a segment chain.
const NO_SEGMENT: u32 = u32::MAX;

/// A fixed-capacity run of entries plus the link to the next segment of the
/// same `(bucket, query)` chain. Freed segments keep their buffer and are
/// recycled through the slab's free list, so steady-state enqueue/drain
/// cycles perform no heap traffic.
#[derive(Debug, Clone)]
struct Segment {
    entries: Vec<QueueEntry>,
    next: u32,
}

impl Segment {
    fn fresh() -> Self {
        Segment {
            entries: Vec::with_capacity(SEGMENT_CAPACITY),
            next: NO_SEGMENT,
        }
    }
}

/// One directory row: the segment chain holding every queued entry of one
/// query at this bucket, with the per-run accounting the drains and the age
/// term need.
#[derive(Debug, Clone, Copy)]
struct QueryRun {
    query: QueryId,
    /// First segment of the chain (always valid: runs hold ≥ 1 entry).
    head: u32,
    /// Last segment of the chain — the append target.
    tail: u32,
    /// Entries in the chain.
    len: u32,
    /// Earliest enqueue time in the chain.
    oldest: SimTime,
}

/// Byte-level accounting of one queue's (or, summed, one table's) segmented
/// storage — the number behind the "segment directory adds per-bucket
/// memory" question.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueMemoryStats {
    /// Live queued entries.
    pub queued_entries: u64,
    /// Live `(bucket, query)` directory rows.
    pub directory_runs: u64,
    /// Bytes allocated for directories (capacity × row size).
    pub directory_bytes: u64,
    /// Segment slots in the slabs (live chains + free list).
    pub segments: u64,
    /// Slots currently on free lists.
    pub free_segments: u64,
    /// Bytes allocated for segment buffers and slab headers.
    pub segment_bytes: u64,
    /// Bytes of live entry payload (`queued_entries` × entry size).
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

    /// Allocated bytes beyond the live entry payload — the price of the
    /// segmented layout (directory rows, free segments, tail slack).
    pub fn overhead_bytes(&self) -> u64 {
        (self.directory_bytes + self.segment_bytes).saturating_sub(self.entry_bytes)
    }

    /// Total allocated bytes.
    pub fn total_bytes(&self) -> u64 {
        self.directory_bytes + self.segment_bytes
    }
}

/// The workload queue of a single bucket, segmented by query.
#[derive(Debug, Clone, Default)]
pub struct WorkloadQueue {
    /// Per-query runs, sorted by query ID. Compact: one 32-byte row per
    /// co-queued query.
    directory: Vec<QueryRun>,
    /// The segment slab backing every chain of this bucket.
    segments: Vec<Segment>,
    /// Recycled segment slots.
    free: Vec<u32>,
    /// Total queued entries.
    len: usize,
    /// Earliest enqueue time among current entries (None when empty).
    oldest: Option<SimTime>,
}

impl WorkloadQueue {
    /// An empty queue.
    pub fn new() -> Self {
        WorkloadQueue::default()
    }

    /// Appends an entry to its query's run — [`push_run`](Self::push_run)
    /// of length 1.
    pub fn push(&mut self, e: QueueEntry) {
        self.push_run(e.query, std::iter::once(e));
    }

    /// Appends `entries`, all of `query`, to that query's run: one O(log d)
    /// directory lookup, then the tail segment is filled and new segments
    /// are chained a whole segment at a time, with the run and queue
    /// accounting updated once. A no-op for an empty iterator.
    pub fn push_run(
        &mut self,
        query: QueryId,
        mut entries: impl ExactSizeIterator<Item = QueueEntry>,
    ) {
        let n = entries.len();
        if n == 0 {
            return;
        }
        let (i, mut tail) = match self.directory.binary_search_by_key(&query, |r| r.query) {
            Ok(i) => (i, self.directory[i].tail),
            Err(i) => {
                let s = self.alloc_segment();
                self.directory.insert(
                    i,
                    QueryRun {
                        query,
                        head: s,
                        tail: s,
                        len: 0,
                        // The identity of `min`; folded with the entries'
                        // stamps below, before anything reads the row.
                        oldest: SimTime::from_micros(u64::MAX),
                    },
                );
                (i, s)
            }
        };
        let mut oldest = self.directory[i].oldest;
        loop {
            let seg = &mut self.segments[tail as usize].entries;
            let room = SEGMENT_CAPACITY - seg.len();
            seg.extend(entries.by_ref().take(room).inspect(|e| {
                debug_assert_eq!(e.query, query, "foreign entry in a run append");
                oldest = oldest.min(e.enqueued_at);
            }));
            if entries.len() == 0 {
                break;
            }
            let s = self.alloc_segment();
            self.segments[tail as usize].next = s;
            tail = s;
        }
        let run = &mut self.directory[i];
        run.tail = tail;
        run.len += n as u32;
        run.oldest = oldest;
        self.len += n;
        self.oldest = Some(self.oldest.map_or(oldest, |t| t.min(oldest)));
    }

    fn alloc_segment(&mut self) -> u32 {
        match self.free.pop() {
            Some(s) => s,
            None => {
                self.segments.push(Segment::fresh());
                (self.segments.len() - 1) as u32
            }
        }
    }

    /// Number of queued objects (`Σ_i W_i^j` for this bucket).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Streams every queued entry, grouped by query (ascending query ID),
    /// in arrival order within each group. This grouping is a storage
    /// artifact, not a contract — consumers treat the queue as an unordered
    /// set.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> + '_ {
        self.directory.iter().flat_map(move |run| {
            std::iter::successors(Some(run.head), move |&s| {
                let next = self.segments[s as usize].next;
                (next != NO_SEGMENT).then_some(next)
            })
            .flat_map(move |s| self.segments[s as usize].entries.iter())
        })
    }

    /// Enqueue time of the oldest request (`A(i)`'s reference point).
    pub fn oldest_enqueue(&self) -> Option<SimTime> {
        self.oldest
    }

    /// Age of the oldest request in milliseconds at time `now` — the paper's
    /// `A(i)`. Zero when empty.
    pub fn oldest_age_ms(&self, now: SimTime) -> f64 {
        match self.oldest {
            Some(t) => now.since(t).as_millis_f64(),
            None => 0.0,
        }
    }

    /// Number of entries queued for `query` (0 if it has no run here).
    pub fn pending_of(&self, query: QueryId) -> usize {
        match self.directory.binary_search_by_key(&query, |r| r.query) {
            Ok(i) => self.directory[i].len as usize,
            Err(_) => 0,
        }
    }

    /// Unlinks one chain into `out`, recycling its segments. Does not touch
    /// the directory or the queue counters.
    fn drain_chain(&mut self, head: u32, out: &mut Vec<QueueEntry>) {
        let mut s = head;
        while s != NO_SEGMENT {
            let seg = &mut self.segments[s as usize];
            out.append(&mut seg.entries);
            let next = seg.next;
            seg.next = NO_SEGMENT;
            self.free.push(s);
            s = next;
        }
    }

    /// Moves all entries into `out` (cleared first) in O(batch): every
    /// chain is walked exactly once, segments return to the free list, and
    /// both the queue's and `out`'s allocations are kept for reuse.
    pub fn drain_all_into(&mut self, out: &mut Vec<QueueEntry>) {
        out.clear();
        out.reserve(self.len);
        let mut i = 0;
        while i < self.directory.len() {
            let head = self.directory[i].head;
            self.drain_chain(head, out);
            i += 1;
        }
        self.directory.clear();
        self.len = 0;
        self.oldest = None;
    }

    /// Moves the entries of `query` into `out` (cleared first) in
    /// O(matched): the run's chain is unlinked whole, with zero reads of —
    /// let alone compares against — any other query's entries. The
    /// directory repair (row removal + surviving-oldest fold) is O(d) over
    /// the co-queued *queries*, not their entries.
    pub fn drain_query_into(&mut self, query: QueryId, out: &mut Vec<QueueEntry>) {
        out.clear();
        let Ok(i) = self.directory.binary_search_by_key(&query, |r| r.query) else {
            return; // no run: nothing leaves the queue
        };
        let run = self.directory.remove(i);
        out.reserve(run.len as usize);
        self.drain_chain(run.head, out);
        self.len -= run.len as usize;
        self.oldest = self.directory.iter().map(|r| r.oldest).min();
    }

    /// Distinct queries with work in this queue (one directory row each).
    pub fn distinct_queries(&self) -> usize {
        self.directory.len()
    }

    /// This queue's storage accounting.
    pub fn memory_stats(&self) -> QueueMemoryStats {
        let entry = std::mem::size_of::<QueueEntry>() as u64;
        let segment_bytes = self.segments.len() as u64 * std::mem::size_of::<Segment>() as u64
            + self
                .segments
                .iter()
                .map(|s| s.entries.capacity() as u64 * entry)
                .sum::<u64>()
            + self.free.capacity() as u64 * std::mem::size_of::<u32>() as u64;
        QueueMemoryStats {
            queued_entries: self.len as u64,
            directory_runs: self.directory.len() as u64,
            directory_bytes: self.directory.capacity() as u64
                * std::mem::size_of::<QueryRun>() as u64,
            segments: self.segments.len() as u64,
            free_segments: self.free.len() as u64,
            segment_bytes,
            entry_bytes: self.len as u64 * entry,
        }
    }

    /// Checks every structural invariant of the segmented storage: the
    /// directory is strictly sorted by query; each run's chain holds exactly
    /// `run.len` entries, all of `run.query`, with every non-tail segment
    /// full and `run.oldest` their true minimum; the queue counters match
    /// the directory; and every slab slot is on exactly one chain or the
    /// free list.
    ///
    /// # Panics
    /// Panics on any violated invariant. O(entries) — for tests and debug
    /// assertions, not the hot path.
    pub fn validate_segments(&self) {
        assert!(
            self.directory.windows(2).all(|w| w[0].query < w[1].query),
            "directory must be strictly sorted by query"
        );
        let mut seen = vec![false; self.segments.len()];
        let mut total = 0usize;
        let mut oldest: Option<SimTime> = None;
        for run in &self.directory {
            assert!(run.len > 0, "empty run for {} survived a drain", run.query);
            let mut chain_len = 0usize;
            let mut chain_oldest: Option<SimTime> = None;
            let mut s = run.head;
            let mut last = s;
            while s != NO_SEGMENT {
                assert!(
                    !std::mem::replace(&mut seen[s as usize], true),
                    "segment {s} linked twice"
                );
                let seg = &self.segments[s as usize];
                assert!(
                    seg.next == NO_SEGMENT || seg.entries.len() == SEGMENT_CAPACITY,
                    "non-tail segment {s} of {} is not full",
                    run.query
                );
                assert!(!seg.entries.is_empty(), "empty segment {s} left in chain");
                for e in &seg.entries {
                    assert_eq!(e.query, run.query, "foreign entry in {}'s chain", run.query);
                    chain_oldest = Some(match chain_oldest {
                        Some(t) => t.min(e.enqueued_at),
                        None => e.enqueued_at,
                    });
                }
                chain_len += seg.entries.len();
                last = s;
                s = seg.next;
            }
            assert_eq!(last, run.tail, "tail link of {} diverged", run.query);
            assert_eq!(chain_len, run.len as usize, "run length of {}", run.query);
            assert_eq!(
                chain_oldest,
                Some(run.oldest),
                "run oldest of {}",
                run.query
            );
            oldest = match (oldest, Some(run.oldest)) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            total += chain_len;
        }
        assert_eq!(total, self.len, "queue length diverged from chains");
        assert_eq!(oldest, self.oldest, "queue oldest diverged from runs");
        for (s, &on_chain) in seen.iter().enumerate() {
            let freed = self.free.contains(&(s as u32));
            assert!(
                on_chain != freed,
                "segment {s} must be on exactly one chain or the free list"
            );
            if freed {
                assert!(
                    self.segments[s].entries.is_empty(),
                    "freed segment {s} still holds entries"
                );
            }
        }
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
/// same mutations (and on residency-epoch bumps via
/// [`sync_residency`](Self::sync_residency)). A scheduling decision is then
/// an index lookup ([`top_candidate_age`](Self::top_candidate_age),
/// [`top_candidate_uncached`](Self::top_candidate_uncached) plus an exact
/// re-rank of the small resident pool, the frontier accessors)
/// instead of an O(non-empty buckets) gather + re-score; the gather
/// ([`snapshots_into`](Self::snapshots_into)) is retained for tests and
/// diagnostics. Slots are updated in place (never shifted), which keeps hot
/// drain/refill cycles free of the O(candidates) memmoves a dense sorted
/// snapshot vector would pay.
#[derive(Debug, Clone)]
pub struct WorkloadTable {
    queues: Vec<WorkloadQueue>,
    /// Sorted list of currently non-empty buckets (the scheduler's
    /// candidate set; kept small relative to the partition).
    non_empty: Vec<BucketId>,
    /// Live snapshot slots indexed by bucket like `queues`. A slot is
    /// meaningful only while its bucket appears in `non_empty`; the
    /// `bucket` and `bucket_objects` fields are static, and the `cached`
    /// bit is brought current by `sync_residency` (eagerly, feeding the
    /// index) or `snapshots_into` (lazily, against the oracle's epoch).
    snapshot_slots: Vec<BucketSnapshot>,
    /// Residency-oracle epoch at which each slot's `cached` bit was last
    /// probed (0 = never). While the oracle's epoch matches, the stored bit
    /// is served without re-probing.
    phi_stamp: Vec<u64>,
    /// The candidate index over the non-empty slots. Invariant: holds
    /// exactly one entry per `non_empty` bucket, keyed by that bucket's
    /// current slot values.
    index: CandidateIndex,
    /// Oracle epoch the slots' `cached` bits (and the index's φ keys) were
    /// last synced to; `None` before the first [`sync_residency`](Self::sync_residency).
    /// Epochs are only comparable against a single oracle (see [`Residency`]).
    synced_epoch: Option<u64>,
    /// Total queued objects across all buckets.
    total_queued: u64,
}

impl WorkloadTable {
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
            phi_stamp: vec![0; n_buckets],
            index: CandidateIndex::new(),
            synced_epoch: None,
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

    /// Enqueues a work item produced by the pre-processor, expanding it into
    /// self-contained queue entries using the parent query's object data.
    ///
    /// # Panics
    /// Panics if the item's indices do not refer to `query`'s objects or the
    /// item targets an unknown bucket.
    pub fn enqueue(&mut self, item: &WorkItem, query: &CrossMatchQuery, now: SimTime) {
        assert_eq!(item.query, query.id, "work item / query mismatch");
        let idx = item.bucket.index();
        assert!(idx < self.queues.len(), "unknown bucket {}", item.bucket);
        if item.object_indices.is_empty() {
            return;
        }
        let was_empty = self.queues[idx].is_empty();
        self.queues[idx].push_run(
            query.id,
            item.object_indices.iter().map(|&oi| {
                let obj = &query.objects[oi as usize];
                QueueEntry {
                    query: query.id,
                    object_index: oi,
                    pos: obj.pos,
                    radius: obj.radius,
                    bbox: obj.bounding_range(),
                    enqueued_at: now,
                }
            }),
        );
        self.total_queued += item.object_indices.len() as u64;
        let q = &self.queues[idx];
        if !was_empty {
            self.index.remove(&self.snapshot_slots[idx]);
        }
        let slot = &mut self.snapshot_slots[idx];
        slot.queue_len = q.len() as u64;
        slot.oldest_enqueue = q.oldest_enqueue().expect("non-empty queue has an oldest");
        self.index.insert(&self.snapshot_slots[idx]);
        if was_empty {
            let pos = self.non_empty.partition_point(|&b| b < item.bucket);
            self.non_empty.insert(pos, item.bucket);
        }
    }

    /// The queue of one bucket.
    pub fn queue(&self, bucket: BucketId) -> &WorkloadQueue {
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

    /// Drains a bucket's queue entirely into `out` (cleared first) in
    /// O(batch), keeping both the queue's and `out`'s allocations for
    /// reuse. Output is grouped by query, not arrival-ordered (see the
    /// module docs on the unordered-batch contract).
    pub fn take_all_into(&mut self, bucket: BucketId, out: &mut Vec<QueueEntry>) {
        self.queues[bucket.index()].drain_all_into(out);
        self.after_drain(bucket, out.len());
    }

    /// Drains only one query's entries from a bucket into `out` (cleared
    /// first) — the NoShare batch — in O(matched entries + co-queued
    /// queries), independent of how deep the rest of the queue is.
    pub fn take_query_into(&mut self, bucket: BucketId, query: QueryId, out: &mut Vec<QueueEntry>) {
        self.queues[bucket.index()].drain_query_into(query, out);
        self.after_drain(bucket, out.len());
    }

    /// Removes a bucket's entire queue state into `out` (cleared first) —
    /// the elastic runtime's **migration extraction**. Mechanically this is
    /// [`take_all_into`](Self::take_all_into) (the table cannot tell
    /// servicing from departure), but the entries keep their `enqueued_at`
    /// stamps so the receiving table's [`merge_bucket`](Self::merge_bucket)
    /// preserves every arrival age. Leaves the candidate index, the
    /// non-empty set, and `total_queued` consistent, exactly like a drain.
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
    /// // Migrate bucket 2: extraction + absorption conserve the entry and
    /// // its arrival stamp.
    /// let mut payload = Vec::new();
    /// src.extract_bucket(BucketId(2), &mut payload);
    /// dst.merge_bucket(BucketId(2), &mut payload);
    /// assert_eq!(src.total_queued(), 0);
    /// assert_eq!(dst.total_queued(), 1);
    /// let moved = dst.queue(BucketId(2)).iter().next().unwrap();
    /// assert_eq!(moved.enqueued_at, SimTime::from_micros(42));
    /// ```
    pub fn extract_bucket(&mut self, bucket: BucketId, out: &mut Vec<QueueEntry>) {
        self.take_all_into(bucket, out);
    }

    /// Merges previously [extracted](Self::extract_bucket) entries into this
    /// table's queue for `bucket` — the elastic runtime's **migration
    /// absorption**. Entries are re-enqueued at their *original*
    /// `enqueued_at` stamps (ages survive the move), the bucket's snapshot
    /// slot and the candidate index are brought current, and `entries` is
    /// drained (emptied) into the queue. A no-op for an empty `entries`.
    ///
    /// The destination bucket may already hold work (arrivals routed to the
    /// new owner before the migration lands); the merged queue is the union.
    pub fn merge_bucket(&mut self, bucket: BucketId, entries: &mut Vec<QueueEntry>) {
        if entries.is_empty() {
            return;
        }
        let idx = bucket.index();
        assert!(idx < self.queues.len(), "unknown bucket {bucket}");
        let was_empty = self.queues[idx].is_empty();
        if !was_empty {
            self.index.remove(&self.snapshot_slots[idx]);
        }
        for e in entries.drain(..) {
            self.total_queued += 1;
            self.queues[idx].push(e);
        }
        let q = &self.queues[idx];
        let slot = &mut self.snapshot_slots[idx];
        slot.queue_len = q.len() as u64;
        slot.oldest_enqueue = q.oldest_enqueue().expect("merged queue is non-empty");
        self.index.insert(&self.snapshot_slots[idx]);
        if was_empty {
            let pos = self.non_empty.partition_point(|&b| b < bucket);
            self.non_empty.insert(pos, bucket);
        }
    }

    /// The live snapshot of one bucket, or `None` if it has no queued work.
    /// The `cached` bit is not maintained here; see
    /// [`snapshots_into`](Self::snapshots_into) for decision-ready copies.
    pub fn snapshot_of(&self, bucket: BucketId) -> Option<BucketSnapshot> {
        if self.queues[bucket.index()].is_empty() {
            None
        } else {
            Some(self.snapshot_slots[bucket.index()])
        }
    }

    /// Gathers the candidate snapshots into `out` (cleared first, sorted by
    /// bucket) and refreshes only their `cached` bits against `residency` —
    /// the scheduler's per-decision view, built without touching the queues.
    ///
    /// When the oracle exposes a residency epoch (see
    /// [`Residency::residency_epoch`]), φ bits are cached in the slots and
    /// stamped with the epoch they were probed at: between cache mutations
    /// the gather performs **zero** residency probes. Oracles without an
    /// epoch are probed per candidate per call, as before, and leave the
    /// stored bits untouched.
    pub fn snapshots_into(&mut self, out: &mut Vec<BucketSnapshot>, residency: &dyn Residency) {
        out.clear();
        out.reserve(self.non_empty.len());
        match residency.residency_epoch() {
            Some(epoch) => {
                for &b in &self.non_empty {
                    let i = b.index();
                    if self.phi_stamp[i] != epoch {
                        self.snapshot_slots[i].cached = residency.is_resident(b);
                        self.phi_stamp[i] = epoch;
                    }
                    out.push(self.snapshot_slots[i]);
                }
            }
            None => {
                for &b in &self.non_empty {
                    let mut s = self.snapshot_slots[b.index()];
                    s.cached = residency.is_resident(b);
                    out.push(s);
                }
            }
        }
    }

    /// Brings every slot's `cached` (φ) bit — and the candidate index's
    /// φ-dependent keys — current with `residency`. Must be called before
    /// the pick accessors whenever the oracle may have mutated; the decision
    /// loop calls it once per decision.
    ///
    /// Cost: O(changed buckets · log n) when the oracle can enumerate its
    /// mutations since the last sync ([`Residency::for_each_mutation_since`]),
    /// O(candidates) re-probes when it cannot, and one O(buckets) full probe
    /// on the first sync (to seed the bits of still-empty buckets, whose
    /// slots feed the index when they go non-empty). Like `snapshots_into`,
    /// all syncs of one table must use the same oracle.
    pub fn sync_residency(&mut self, residency: &dyn Residency) {
        let epoch = residency.residency_epoch();
        if epoch.is_some() && epoch == self.synced_epoch {
            return; // nothing can have changed since the last sync
        }
        let replayed = match (self.synced_epoch, epoch) {
            (Some(synced), Some(e)) => {
                let slots = &mut self.snapshot_slots;
                let queues = &self.queues;
                let index = &mut self.index;
                let phi_stamp = &mut self.phi_stamp;
                residency.for_each_mutation_since(synced, &mut |bucket: BucketId, resident| {
                    let i = bucket.index();
                    if i >= slots.len() {
                        return; // outside this table
                    }
                    // Only mutated slots are stamped; unmutated ones keep an
                    // older stamp, so the diagnostic `snapshots_into` may
                    // re-probe them (getting the same bit back) — the hot
                    // path stays O(changed), not O(buckets).
                    phi_stamp[i] = e;
                    if slots[i].cached == resident {
                        return; // already current
                    }
                    if !queues[i].is_empty() {
                        index.remove(&slots[i]);
                        slots[i].cached = resident;
                        index.insert(&slots[i]);
                    } else {
                        slots[i].cached = resident;
                    }
                })
            }
            _ => false,
        };
        if !replayed {
            // First sync, an epoch-less oracle, or a truncated mutation log:
            // probe from scratch. Epoch-bearing oracles get *every* bucket
            // probed (empty ones included) so later mutation replays keep
            // all bits current; epoch-less oracles get only the candidates
            // refreshed — every pick re-syncs anyway, so a bucket's bit is
            // re-probed before it can influence a decision.
            let all = epoch.is_some();
            let n = self.snapshot_slots.len();
            for i in 0..n {
                let bucket = BucketId(i as u32);
                if !all && self.queues[i].is_empty() {
                    continue;
                }
                let resident = residency.is_resident(bucket);
                if let Some(e) = epoch {
                    self.phi_stamp[i] = e;
                }
                if self.snapshot_slots[i].cached != resident {
                    if !self.queues[i].is_empty() {
                        self.index.remove(&self.snapshot_slots[i]);
                        self.snapshot_slots[i].cached = resident;
                        self.index.insert(&self.snapshot_slots[i]);
                    } else {
                        self.snapshot_slots[i].cached = resident;
                    }
                }
            }
        }
        self.synced_epoch = epoch;
    }

    /// Number of candidates (non-empty buckets).
    pub fn candidate_count(&self) -> usize {
        self.non_empty.len()
    }

    /// Streams every candidate snapshot in ascending bucket order, straight
    /// from the maintained slots — no gather, no allocation. φ freshness
    /// requires a preceding [`sync_residency`](Self::sync_residency).
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
    /// set the α = 0 pick re-scores exactly. φ freshness requires a
    /// preceding [`sync_residency`](Self::sync_residency).
    pub fn for_each_cached_candidate(&self, f: &mut dyn FnMut(&BucketSnapshot)) {
        for b in self.index.iter_cached() {
            f(&self.snapshot_slots[b.index()]);
        }
    }

    /// The uncached candidate maximal under `Ut` (exact, tie-breaks
    /// included) — the only non-resident candidate an α = 0 pick can choose.
    pub fn top_candidate_uncached(&self) -> Option<BucketSnapshot> {
        self.index
            .top_uncached()
            .map(|b| self.snapshot_slots[b.index()])
    }

    /// The uncached candidate minimal under `Ut` (normalization lower
    /// bound).
    pub fn bottom_candidate_uncached(&self) -> Option<BucketSnapshot> {
        self.index
            .bottom_uncached()
            .map(|b| self.snapshot_slots[b.index()])
    }

    /// The candidate maximal under the age lens — the α = 1 pick.
    pub fn top_candidate_age(&self) -> Option<BucketSnapshot> {
        self.index.top_age().map(|b| self.snapshot_slots[b.index()])
    }

    /// The candidate minimal under the age lens.
    pub fn bottom_candidate_age(&self) -> Option<BucketSnapshot> {
        self.index
            .bottom_age()
            .map(|b| self.snapshot_slots[b.index()])
    }

    /// Fills `out` (cleared first) with up to `k` uncached candidates in
    /// descending `Ut` order — the mixed-α threshold scan's first list.
    pub fn uncached_frontier_into(&self, k: usize, out: &mut Vec<BucketSnapshot>) {
        out.clear();
        out.extend(
            self.index
                .iter_uncached_desc()
                .take(k)
                .map(|b| self.snapshot_slots[b.index()]),
        );
    }

    /// Fills `out` (cleared first) with up to `k` candidates in descending
    /// age-lens order — the mixed-α threshold scan's second list.
    pub fn age_frontier_into(&self, k: usize, out: &mut Vec<BucketSnapshot>) {
        out.clear();
        out.extend(
            self.index
                .iter_age_desc()
                .take(k)
                .map(|b| self.snapshot_slots[b.index()]),
        );
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
        self.index
            .top_age_excluding(excluded)
            .map(|b| self.snapshot_slots[b.index()])
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
        let got: Vec<BucketId> = self.index.iter_uncached_desc().collect();
        let want: Vec<BucketId> = reference.iter_uncached_desc().collect();
        assert_eq!(got, want, "uncached order diverged");
        let got: Vec<BucketId> = self.index.iter_age_desc().collect();
        let want: Vec<BucketId> = reference.iter_age_desc().collect();
        assert_eq!(got, want, "age order diverged");
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
    fn oldest_age_tracks_minimum() {
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
        let now = t1 + SimDuration::from_secs(5);
        // Oldest is t0 → age 15s.
        assert_eq!(t.queue(BucketId(2)).oldest_age_ms(now), 15_000.0);
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
        let mut payload = Vec::new();
        src.extract_bucket(BucketId(5), &mut payload);
        assert_eq!(payload.len(), 5);
        assert!(src.is_idle());
        src.validate_index();
        dst.merge_bucket(BucketId(5), &mut payload);
        assert!(payload.is_empty(), "merge drains the payload");
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
        let mut payload = Vec::new();
        src.extract_bucket(BucketId(1), &mut payload);
        dst.merge_bucket(BucketId(1), &mut payload);
        assert_eq!(dst.total_queued(), 3);
        assert_eq!(dst.queue(BucketId(1)).distinct_queries(), 2);
        // The migrated (older) work now anchors the age term.
        assert_eq!(
            dst.queue(BucketId(1)).oldest_enqueue(),
            Some(SimTime::from_micros(5))
        );
        dst.validate_index();
        // Merging nothing is a no-op.
        let mut empty = Vec::new();
        dst.merge_bucket(BucketId(2), &mut empty);
        assert_eq!(dst.non_empty_buckets(), &[BucketId(1)]);
    }

    #[test]
    fn entries_are_self_contained() {
        let q = entry_source(1);
        let mut t = WorkloadTable::new(4);
        t.enqueue(&item(&q, 0), &q, SimTime::ZERO);
        let queue = t.queue(BucketId(0));
        let e = queue.iter().next().expect("one entry queued");
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
    /// API (cold residency, to match `rebuild`'s default).
    fn gather(t: &mut WorkloadTable) -> Vec<BucketSnapshot> {
        let mut out = Vec::new();
        t.snapshots_into(&mut out, &crate::snapshot::NoResidency);
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
        assert_eq!(gather(&mut t), r);
        take_query(&mut t, BucketId(5), QueryId(1));
        let r = rebuild(&t);
        assert_eq!(gather(&mut t), r);
        take_all(&mut t, BucketId(5));
        let r = rebuild(&t);
        assert_eq!(gather(&mut t), r);
        assert_eq!(t.snapshot_of(BucketId(5)), None);
        take_all(&mut t, BucketId(2));
        assert!(gather(&mut t).is_empty());
    }

    #[test]
    fn snapshots_into_refreshes_residency_only() {
        use crate::snapshot::Residency;
        struct Always;
        impl Residency for Always {
            fn is_resident(&self, _b: BucketId) -> bool {
                true
            }
        }
        let q = entry_source(2);
        let mut t = WorkloadTable::new(4).with_object_counts(|b| 100 + b.0 as u64);
        t.enqueue(&item(&q, 1), &q, SimTime::ZERO);
        let mut out = vec![BucketSnapshot {
            bucket: BucketId(9),
            queue_len: 0,
            oldest_enqueue: SimTime::ZERO,
            cached: false,
            bucket_objects: 0,
        }];
        t.snapshots_into(&mut out, &Always);
        assert_eq!(out.len(), 1, "scratch must be cleared first");
        assert_eq!(out[0].bucket, BucketId(1));
        assert_eq!(out[0].queue_len, 2);
        assert!(out[0].cached);
        assert_eq!(out[0].bucket_objects, 101);
        // The maintained slot keeps its cold default.
        assert!(!t.snapshot_of(BucketId(1)).expect("non-empty").cached);
    }

    #[test]
    fn epoch_stamped_phi_skips_probes_between_mutations() {
        use crate::snapshot::Residency;
        use std::cell::Cell;
        /// An epoch-bearing oracle that counts `is_resident` probes.
        struct Counting {
            epoch: Cell<u64>,
            resident: Cell<bool>,
            probes: Cell<u64>,
        }
        impl Residency for Counting {
            fn is_resident(&self, _b: BucketId) -> bool {
                self.probes.set(self.probes.get() + 1);
                self.resident.get()
            }
            fn residency_epoch(&self) -> Option<u64> {
                Some(self.epoch.get())
            }
        }
        let oracle = Counting {
            epoch: Cell::new(7),
            resident: Cell::new(false),
            probes: Cell::new(0),
        };
        let qa = entry_source(2);
        let mut t = WorkloadTable::new(4);
        t.enqueue(&item(&qa, 1), &qa, SimTime::ZERO);
        t.enqueue(&item(&qa, 3), &qa, SimTime::ZERO);
        let mut out = Vec::new();
        // First gather at epoch 7: one probe per candidate, bits stamped.
        t.snapshots_into(&mut out, &oracle);
        assert_eq!(oracle.probes.get(), 2);
        assert!(out.iter().all(|s| !s.cached));
        // Same epoch: zero probes, stored bits served.
        t.snapshots_into(&mut out, &oracle);
        t.snapshots_into(&mut out, &oracle);
        assert_eq!(oracle.probes.get(), 2);
        // Epoch bump (resident set changed): every candidate re-probed once.
        oracle.epoch.set(8);
        oracle.resident.set(true);
        t.snapshots_into(&mut out, &oracle);
        assert_eq!(oracle.probes.get(), 4);
        assert!(
            out.iter().all(|s| s.cached),
            "refreshed bits must be served"
        );
        t.snapshots_into(&mut out, &oracle);
        assert_eq!(oracle.probes.get(), 4);
    }

    fn raw_entry(query: u64, object_index: u32, at_us: u64) -> QueueEntry {
        let q = entry_source(1);
        QueueEntry {
            query: QueryId(query),
            object_index,
            pos: q.objects[0].pos,
            radius: q.objects[0].radius,
            bbox: q.objects[0].bounding_range(),
            enqueued_at: SimTime::from_micros(at_us),
        }
    }

    #[test]
    fn drain_query_into_partitions_and_repairs_oldest() {
        let mut wq = WorkloadQueue::new();
        for (i, q) in [1u64, 2, 1, 1, 2].iter().enumerate() {
            wq.push(raw_entry(*q, i as u32, i as u64));
        }
        wq.validate_segments();
        let mut out = Vec::new();
        wq.drain_query_into(QueryId(1), &mut out);
        wq.validate_segments();
        // Drained ∪ kept is an exact partition by query (order is not part
        // of the contract — batches are consumed as unordered sets).
        let mut drained: Vec<u32> = out.iter().map(|e| e.object_index).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 2, 3]);
        let mut kept: Vec<u32> = wq.iter().map(|e| e.object_index).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![1, 4]);
        assert_eq!(wq.oldest_enqueue(), Some(SimTime::from_micros(1)));
        // Draining an absent query leaves state (and `oldest`) untouched.
        wq.drain_query_into(QueryId(99), &mut out);
        assert!(out.is_empty());
        assert_eq!(wq.len(), 2);
        assert_eq!(wq.oldest_enqueue(), Some(SimTime::from_micros(1)));
    }

    #[test]
    fn multi_segment_chains_preserve_arrival_order_within_a_query() {
        // 2.5 segments' worth of one query, interleaved with another.
        let n = SEGMENT_CAPACITY as u32 * 2 + SEGMENT_CAPACITY as u32 / 2;
        let mut wq = WorkloadQueue::new();
        for i in 0..n {
            wq.push(raw_entry(1, i, 100 + i as u64));
            if i % 3 == 0 {
                wq.push(raw_entry(2, i, i as u64));
            }
        }
        wq.validate_segments();
        assert_eq!(wq.distinct_queries(), 2);
        assert_eq!(wq.pending_of(QueryId(1)), n as usize);
        let mut out = Vec::new();
        wq.drain_query_into(QueryId(1), &mut out);
        wq.validate_segments();
        // Within one query's run, segments chain in arrival order.
        let got: Vec<u32> = out.iter().map(|e| e.object_index).collect();
        let want: Vec<u32> = (0..n).collect();
        assert_eq!(got, want);
        // The other query's run — and the queue-level oldest — survive.
        assert_eq!(wq.oldest_enqueue(), Some(SimTime::ZERO));
        assert_eq!(wq.distinct_queries(), 1);
    }

    #[test]
    fn freed_segments_are_recycled() {
        let mut wq = WorkloadQueue::new();
        let mut out = Vec::new();
        for round in 0..5u64 {
            for i in 0..(SEGMENT_CAPACITY as u32 * 3) {
                wq.push(raw_entry(round, i, i as u64));
            }
            wq.drain_all_into(&mut out);
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
        let mut wq = WorkloadQueue::new();
        for q in 0..4u64 {
            for i in 0..3u32 {
                wq.push(raw_entry(q, i, q * 10 + i as u64));
            }
        }
        let m = wq.memory_stats();
        assert_eq!(m.queued_entries, 12);
        assert_eq!(m.directory_runs, 4);
        assert_eq!(m.segments, 4, "one segment per short run");
        assert_eq!(m.free_segments, 0);
        assert_eq!(m.entry_bytes, 12 * std::mem::size_of::<QueueEntry>() as u64);
        assert!(m.directory_bytes >= 4 * std::mem::size_of::<QueryRun>() as u64);
        // Four segments allocate four full buffers; 12 live entries.
        assert!(m.segment_bytes >= m.entry_bytes);
        assert_eq!(m.total_bytes(), m.directory_bytes + m.segment_bytes);
        assert_eq!(m.overhead_bytes(), m.total_bytes() - m.entry_bytes);
        let mut table_total = QueueMemoryStats::default();
        table_total.merge(&m);
        table_total.merge(&WorkloadQueue::new().memory_stats());
        assert_eq!(table_total.queued_entries, 12);
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
        assert_eq!(t.top_candidate_uncached(), None);
        t.enqueue(&item(&qa, 5), &qa, SimTime::from_micros(100));
        t.enqueue(&item(&qb, 2), &qb, SimTime::from_micros(50));
        t.validate_index();
        // Longer queue wins the uncached order; older enqueue the age lens.
        assert_eq!(
            t.top_candidate_uncached().unwrap().bucket,
            BucketId(2),
            "5 queued beats 2"
        );
        assert_eq!(t.cached_candidate_count(), 0);
        assert_eq!(t.top_candidate_age().unwrap().bucket, BucketId(2));
        assert_eq!(t.bottom_candidate_uncached().unwrap().bucket, BucketId(5));
        assert_eq!(t.bottom_candidate_age().unwrap().bucket, BucketId(5));
        assert_eq!(
            t.oldest_candidate_excluding(BucketId(2)).unwrap().bucket,
            BucketId(5)
        );
        let mut frontier = Vec::new();
        t.uncached_frontier_into(10, &mut frontier);
        assert_eq!(
            frontier.iter().map(|s| s.bucket).collect::<Vec<_>>(),
            vec![BucketId(2), BucketId(5)]
        );
        t.age_frontier_into(1, &mut frontier);
        assert_eq!(frontier.len(), 1);
        take_all(&mut t, BucketId(2));
        t.validate_index();
        assert_eq!(t.top_candidate_uncached().unwrap().bucket, BucketId(5));
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

    /// A scripted oracle whose epoch and resident set the test controls,
    /// with a replayable mutation log.
    struct ScriptedOracle {
        epoch: u64,
        resident: std::collections::HashSet<u32>,
        log: Vec<(u64, u32, bool)>,
        log_complete_from: u64,
        probes: std::cell::Cell<u64>,
    }

    impl ScriptedOracle {
        fn new() -> Self {
            ScriptedOracle {
                epoch: 1,
                resident: Default::default(),
                log: Vec::new(),
                log_complete_from: 1,
                probes: std::cell::Cell::new(0),
            }
        }
        fn flip(&mut self, bucket: u32, resident: bool) {
            self.epoch += 1;
            if resident {
                self.resident.insert(bucket);
            } else {
                self.resident.remove(&bucket);
            }
            self.log.push((self.epoch, bucket, resident));
        }
    }

    impl Residency for ScriptedOracle {
        fn is_resident(&self, b: BucketId) -> bool {
            self.probes.set(self.probes.get() + 1);
            self.resident.contains(&b.0)
        }
        fn residency_epoch(&self) -> Option<u64> {
            Some(self.epoch)
        }
        fn for_each_mutation_since(
            &self,
            epoch: u64,
            apply: &mut dyn FnMut(BucketId, bool),
        ) -> bool {
            if epoch < self.log_complete_from {
                return false;
            }
            for &(e, b, r) in &self.log {
                if e > epoch {
                    apply(BucketId(b), r);
                }
            }
            true
        }
    }

    #[test]
    fn sync_residency_replays_mutations_into_the_index() {
        let q = entry_source(3);
        let mut t = WorkloadTable::new(4);
        t.enqueue(&item(&q, 1), &q, SimTime::ZERO);
        t.enqueue(&item(&q, 3), &q, SimTime::from_micros(10));
        let mut oracle = ScriptedOracle::new();
        oracle.flip(3, true);
        // First sync: full probe (all 4 buckets), bits and index seeded.
        t.sync_residency(&oracle);
        assert_eq!(oracle.probes.get(), 4);
        assert!(t.snapshot_of(BucketId(3)).unwrap().cached);
        assert!(!t.snapshot_of(BucketId(1)).unwrap().cached);
        // The resident candidate moved into the cached pool.
        assert_eq!(t.cached_candidate_count(), 1);
        let mut cached = Vec::new();
        t.for_each_cached_candidate(&mut |s| cached.push(s.bucket));
        assert_eq!(cached, vec![BucketId(3)]);
        assert_eq!(t.top_candidate_uncached().unwrap().bucket, BucketId(1));
        t.validate_index();
        // Same epoch: a no-op.
        t.sync_residency(&oracle);
        assert_eq!(oracle.probes.get(), 4);
        // Mutations replay without probes — including for the currently
        // empty bucket 0, whose bit must be current when it fills later.
        oracle.flip(3, false);
        oracle.flip(1, true);
        oracle.flip(0, true);
        t.sync_residency(&oracle);
        assert_eq!(oracle.probes.get(), 4, "replay must not probe");
        cached.clear();
        t.for_each_cached_candidate(&mut |s| cached.push(s.bucket));
        assert_eq!(cached, vec![BucketId(1)]);
        assert_eq!(t.top_candidate_uncached().unwrap().bucket, BucketId(3));
        t.validate_index();
        t.enqueue(&item(&q, 0), &q, SimTime::from_micros(20));
        assert!(
            t.snapshot_of(BucketId(0)).unwrap().cached,
            "empty buckets' bits must stay current across syncs"
        );
        t.validate_index();
        // A truncated log falls back to a full re-probe (empty buckets too,
        // so their bits cannot go permanently stale).
        oracle.flip(0, false);
        oracle.log.clear();
        oracle.log_complete_from = oracle.epoch;
        t.sync_residency(&oracle);
        assert_eq!(oracle.probes.get(), 8, "fallback probes every bucket");
        assert!(!t.snapshot_of(BucketId(0)).unwrap().cached);
        t.validate_index();
    }
}
