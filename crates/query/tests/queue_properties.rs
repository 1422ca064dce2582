//! Property tests for the sub-query workload queues.
//!
//! A queue stores runs — a borrow of each query's objects plus 4-byte
//! indices and one enqueue stamp, the earliest of the run's pushes — and
//! builds `QueueEntry`s only on demand. The reference here is the layout
//! that used to be stored: a naive `Vec<QueueEntry>` per bucket with
//! filter-based drains, every entry carrying its own payload and stamp,
//! restamped to its run's earliest after each push. Under arbitrary
//! interleavings of run enqueues, top-ups with later stamps, merges of
//! older-stamped work, materialized and run-level drains and extract→merge
//! round trips, the table must stay *multiset-equivalent* to it — payload
//! and `enqueued_at` included; batch order is not part of the contract —
//! while `validate_index` (which runs `validate` on every bucket queue)
//! passes after every operation.

use liferaft_htm::Vec3;
use liferaft_query::{CrossMatchQuery, Predicate, QueryId, QueueEntry, WorkItem, WorkloadTable};
use liferaft_storage::{BucketId, SimTime};
use proptest::prelude::*;

const LEVEL: u8 = 6;
const BUCKETS: usize = 3;
const QUERIES: u64 = 6;
/// Objects per query.
const OBJECTS: u32 = 96;

/// The queries whose objects the table borrows. Positions differ per query
/// and per object, so a materialized entry that picked the wrong object (or
/// the wrong query's list) cannot compare equal to the reference.
fn pool() -> Vec<CrossMatchQuery> {
    (0..QUERIES)
        .map(|id| {
            let positions: Vec<Vec3> = (0..OBJECTS)
                .map(|k| Vec3::from_radec_deg(10.0 + id as f64 * 20.0 + k as f64 * 0.05, 5.0))
                .collect();
            CrossMatchQuery::from_positions(QueryId(id), &positions, 1e-5, LEVEL, Predicate::All)
        })
        .collect()
}

/// The entry the old layout would have stored for `object` of `q`.
fn reference_entry(q: &CrossMatchQuery, object: u32, at: SimTime) -> QueueEntry {
    let obj = &q.objects[object as usize];
    QueueEntry {
        query: q.id,
        object_index: object,
        pos: obj.pos,
        radius: obj.radius,
        bbox: obj.bounding_range(),
        enqueued_at: at,
    }
}

/// Gives every entry of `query` the earliest stamp among them: a run holds
/// one stamp, and a top-up or a merge keeps the earliest.
fn restamp(entries: &mut [QueueEntry], query: QueryId) {
    let first = entries
        .iter()
        .filter(|e| e.query == query)
        .map(|e| e.enqueued_at)
        .min();
    for e in entries.iter_mut().filter(|e| e.query == query) {
        e.enqueued_at = first.expect("the query has this entry");
    }
}

/// Canonical multiset order. Entries with equal keys have equal payloads
/// (same object of the same query), so comparing the sorted vectors with
/// `==` is an exact multiset comparison of whole entries.
fn sorted(mut entries: Vec<QueueEntry>) -> Vec<QueueEntry> {
    entries.sort_by_key(|e| (e.query, e.object_index, e.enqueued_at));
    entries
}

/// `(query, count)` rows of a reference bucket, ascending — what a run-level
/// drain must report.
fn run_counts(entries: &[QueueEntry], only: Option<QueryId>) -> Vec<(QueryId, usize)> {
    (0..QUERIES)
        .map(QueryId)
        .filter(|&q| only.map_or(true, |o| o == q))
        .map(|q| (q, entries.iter().filter(|e| e.query == q).count()))
        .filter(|&(_, n)| n > 0)
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Enqueue objects `start..start + n` of `query` as one work item at
    /// `at_us` — any stamp, so a run may also be topped up with an *older*
    /// chunk. `n` includes the empty item.
    Enqueue {
        bucket: u32,
        query: u64,
        start: u32,
        n: u32,
        at_us: u64,
    },
    /// Top up with a stamp later than anything queued so far.
    TopUpLater {
        bucket: u32,
        query: u64,
        start: u32,
        n: u32,
    },
    /// Queue two chunks on a side table, then extract them there and merge
    /// them here: the migration path, with stamps older than the clock.
    MergeOlder {
        bucket: u32,
        query: u64,
        start: u32,
        n: u32,
        at_us: u64,
    },
    /// Materialized full drain.
    TakeAll { bucket: u32 },
    /// Materialized single-query drain.
    TakeQuery { bucket: u32, query: u64 },
    /// Run-level drain of everything (`None`) or one query.
    DrainRuns { bucket: u32, only: Option<u64> },
    /// Extract `from` and merge it into `to` (possibly the same bucket).
    ExtractMerge { from: u32, to: u32 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let raw = (
        0u8..14,
        0u32..BUCKETS as u32,
        0u64..QUERIES,
        0u32..OBJECTS,
        0u32..80,
        0u64..50,
    );
    proptest::collection::vec(raw, 1..120).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, bucket, query, start, n, at_us)| {
                let n = n.min(OBJECTS - start);
                match kind {
                    0..=4 => Op::Enqueue {
                        bucket,
                        query,
                        start,
                        n,
                        at_us,
                    },
                    5 | 6 => Op::TopUpLater {
                        bucket,
                        query,
                        start,
                        n,
                    },
                    7 | 8 => Op::MergeOlder {
                        bucket,
                        query,
                        start,
                        n,
                        at_us,
                    },
                    9 => Op::TakeAll { bucket },
                    10 => Op::TakeQuery { bucket, query },
                    11 => Op::DrainRuns {
                        bucket,
                        only: (at_us % 2 == 0).then_some(query),
                    },
                    12 => Op::DrainRuns { bucket, only: None },
                    _ => Op::ExtractMerge {
                        from: bucket,
                        to: (at_us % BUCKETS as u64) as u32,
                    },
                }
            })
            .collect()
    })
}

fn item(query: u64, bucket: u32, start: u32, n: u32) -> WorkItem {
    WorkItem {
        query: QueryId(query),
        bucket: BucketId(bucket),
        object_indices: (start..start + n).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn run_queues_are_multiset_equivalent_to_stored_entries(ops in arb_ops()) {
        let pool = pool();
        let mut t = WorkloadTable::new(BUCKETS);
        let mut naive: Vec<Vec<QueueEntry>> = vec![Vec::new(); BUCKETS];
        let mut scratch = vec![reference_entry(&pool[0], 0, SimTime::ZERO)];
        // Later than every stamp an op can draw.
        let mut clock = 1_000u64;
        for op in &ops {
            match *op {
                Op::Enqueue { bucket, query, start, n, at_us } => {
                    let at = SimTime::from_micros(at_us);
                    let q = &pool[query as usize];
                    t.enqueue(&item(query, bucket, start, n), q, at);
                    naive[bucket as usize]
                        .extend((start..start + n).map(|o| reference_entry(q, o, at)));
                    restamp(&mut naive[bucket as usize], QueryId(query));
                }
                Op::TopUpLater { bucket, query, start, n } => {
                    clock += 10;
                    let at = SimTime::from_micros(clock);
                    let q = &pool[query as usize];
                    t.enqueue(&item(query, bucket, start, n), q, at);
                    naive[bucket as usize]
                        .extend((start..start + n).map(|o| reference_entry(q, o, at)));
                    restamp(&mut naive[bucket as usize], QueryId(query));
                }
                Op::MergeOlder { bucket, query, start, n, at_us } => {
                    let q = &pool[query as usize];
                    let mut side = WorkloadTable::new(BUCKETS);
                    let half = n / 2;
                    for (s, len, at) in [
                        (start, half, SimTime::from_micros(at_us + 1)),
                        (start + half, n - half, SimTime::from_micros(at_us)),
                    ] {
                        side.enqueue(&item(query, bucket, s, len), q, at);
                        naive[bucket as usize]
                            .extend((s..s + len).map(|o| reference_entry(q, o, at)));
                    }
                    let payload = side.extract_bucket(BucketId(bucket));
                    prop_assert_eq!(payload.len(), n as usize);
                    prop_assert!(side.is_idle());
                    side.validate_index();
                    t.merge_bucket(BucketId(bucket), &payload);
                    restamp(&mut naive[bucket as usize], QueryId(query));
                }
                Op::TakeAll { bucket } => {
                    t.take_all_into(BucketId(bucket), &mut scratch);
                    let want = std::mem::take(&mut naive[bucket as usize]);
                    prop_assert_eq!(sorted(scratch.clone()), sorted(want));
                }
                Op::TakeQuery { bucket, query } => {
                    t.take_query_into(BucketId(bucket), QueryId(query), &mut scratch);
                    let (want, kept): (Vec<_>, Vec<_>) =
                        std::mem::take(&mut naive[bucket as usize])
                            .into_iter()
                            .partition(|e| e.query == QueryId(query));
                    naive[bucket as usize] = kept;
                    prop_assert_eq!(sorted(scratch.clone()), sorted(want));
                }
                Op::DrainRuns { bucket, only } => {
                    let only = only.map(QueryId);
                    let want = run_counts(&naive[bucket as usize], only);
                    let mut rows = Vec::new();
                    let drained = t.drain_runs(BucketId(bucket), only, |run| {
                        rows.push((run.query(), run.len()));
                    });
                    // Rows come in query order, one per co-queued query.
                    prop_assert_eq!(drained, want.iter().map(|&(_, n)| n).sum::<usize>());
                    prop_assert_eq!(rows, want);
                    naive[bucket as usize].retain(|e| only.is_some_and(|o| e.query != o));
                }
                Op::ExtractMerge { from, to } => {
                    let payload = t.extract_bucket(BucketId(from));
                    prop_assert_eq!(payload.len(), naive[from as usize].len());
                    prop_assert!(t.queue(BucketId(from)).is_empty());
                    t.validate_index();
                    t.merge_bucket(BucketId(to), &payload);
                    let moved = std::mem::take(&mut naive[from as usize]);
                    naive[to as usize].extend(moved);
                    for id in 0..QUERIES {
                        restamp(&mut naive[to as usize], QueryId(id));
                    }
                }
            }
            t.validate_index();
            let mut total = 0u64;
            let mut non_empty = Vec::new();
            for (b, want) in naive.iter().enumerate() {
                let bucket = BucketId(b as u32);
                let q = t.queue(bucket);
                // The live view agrees as a multiset, stamps and payload
                // included.
                prop_assert_eq!(sorted(q.iter().collect()), sorted(want.clone()));
                prop_assert_eq!(q.len(), want.len());
                prop_assert_eq!(q.oldest_enqueue(), want.iter().map(|e| e.enqueued_at).min());
                let counts = run_counts(want, None);
                prop_assert_eq!(q.distinct_queries(), counts.len());
                prop_assert_eq!(
                    q.runs().map(|r| (r.query(), r.len())).collect::<Vec<_>>(),
                    counts
                );
                for id in 0..QUERIES {
                    let n = want.iter().filter(|e| e.query == QueryId(id)).count();
                    prop_assert_eq!(q.pending_of(QueryId(id)), n);
                }
                // Memory accounting stays consistent with the live size.
                let m = q.memory_stats();
                prop_assert_eq!(m.queued_entries, want.len() as u64);
                prop_assert_eq!(m.entry_bytes, 4 * want.len() as u64);
                prop_assert_eq!(m.directory_runs as usize, q.distinct_queries());
                prop_assert!(m.total_bytes() >= m.entry_bytes);
                prop_assert!(m.index_bytes >= m.entry_bytes);
                // The snapshot slot tracks the reference too.
                match t.snapshot_of(bucket) {
                    None => prop_assert!(want.is_empty()),
                    Some(s) => {
                        prop_assert_eq!(s.queue_len, want.len() as u64);
                        prop_assert_eq!(Some(s.oldest_enqueue), q.oldest_enqueue());
                        non_empty.push(bucket);
                    }
                }
                total += want.len() as u64;
            }
            prop_assert_eq!(t.total_queued(), total);
            prop_assert_eq!(t.non_empty_buckets(), &non_empty[..]);
        }
    }
}
