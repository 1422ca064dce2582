//! Property tests for the segmented per-(bucket, query) queue storage.
//!
//! A naive reference queue (one flat vector, `retain`-based drains) defines
//! the semantics; the segmented [`WorkloadQueue`] must stay *set-equivalent*
//! to it under arbitrary enqueue/drain interleavings — batch order is
//! explicitly not part of the contract (batches are consumed as unordered
//! sets; see the queue module docs) — while every structural invariant of
//! the segment directory holds at every step. Run appends
//! ([`WorkloadQueue::push_run`], what `WorkloadTable::enqueue` does per work
//! item) are held to the same reference as entry-at-a-time `push`.

use liferaft_htm::Vec3;
use liferaft_query::{
    CrossMatchQuery, Predicate, QueryId, QueueEntry, WorkItem, WorkloadQueue, WorkloadTable,
};
use liferaft_storage::{BucketId, SimTime};
use proptest::prelude::*;

const LEVEL: u8 = 6;

/// The reference: a flat vector with filter-based drains.
#[derive(Default)]
struct NaiveQueue {
    entries: Vec<QueueEntry>,
}

impl NaiveQueue {
    fn push(&mut self, e: QueueEntry) {
        self.entries.push(e);
    }

    fn drain_all(&mut self) -> Vec<QueueEntry> {
        std::mem::take(&mut self.entries)
    }

    fn drain_query(&mut self, query: QueryId) -> Vec<QueueEntry> {
        let (out, kept) = std::mem::take(&mut self.entries)
            .into_iter()
            .partition(|e| e.query == query);
        self.entries = kept;
        out
    }

    fn oldest(&self) -> Option<SimTime> {
        self.entries.iter().map(|e| e.enqueued_at).min()
    }
}

/// Canonical multiset key of an entry (object_index is unique per push in
/// these tests, so the key set is an exact identity check).
fn keys(entries: &[QueueEntry]) -> Vec<(u64, u32, u64)> {
    let mut v: Vec<_> = entries
        .iter()
        .map(|e| (e.query.0, e.object_index, e.enqueued_at.as_micros()))
        .collect();
    v.sort_unstable();
    v
}

fn entry(query: u64, object_index: u32, at_us: u64) -> QueueEntry {
    let q = CrossMatchQuery::from_positions(
        QueryId(query),
        &[Vec3::from_radec_deg(10.0, 5.0)],
        1e-5,
        LEVEL,
        Predicate::All,
    );
    QueueEntry {
        query: QueryId(query),
        object_index,
        pos: q.objects[0].pos,
        radius: q.objects[0].radius,
        bbox: q.objects[0].bounding_range(),
        enqueued_at: SimTime::from_micros(at_us),
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Enqueue one entry of `query`, `at_us` microseconds (plus step).
    Push { query: u64, at_us: u64 },
    /// Append `n` entries of `query` as one run, stamped around `at_us` (no
    /// step offset, so a run may be older than what its query has queued).
    /// `n` reaches past two 32-entry segments and includes the empty run.
    PushRun { query: u64, at_us: u64, n: u32 },
    /// Drain everything.
    DrainAll,
    /// Drain one query.
    DrainQuery { query: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..10, 0u64..6, 0u64..50, 0u32..80), 1..200).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, query, at_us, n)| match kind {
                0..=4 => Op::Push { query, at_us },
                5 => Op::DrainAll,
                6 => Op::DrainQuery { query },
                // Bias towards the segment boundary itself.
                7 => Op::PushRun {
                    query,
                    at_us,
                    n: 31 + n % 3,
                },
                _ => Op::PushRun { query, at_us, n },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Under any interleaving: every drain is set-equivalent to the naive
    /// reference's, the per-query/oldest/len accounting agrees, and the
    /// segment directory's invariants hold at every step.
    #[test]
    fn segmented_queue_is_set_equivalent_to_naive(ops in arb_ops()) {
        let mut seg = WorkloadQueue::new();
        let mut naive = NaiveQueue::default();
        let mut scratch = Vec::new();
        // Unique per entry, so `keys` stays an identity check under runs.
        let mut next_index = 0u32;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Push { query, at_us } => {
                    let e = entry(query, next_index, at_us + step as u64);
                    next_index += 1;
                    seg.push(e.clone());
                    naive.push(e);
                }
                Op::PushRun { query, at_us, n } => {
                    // Stamps vary inside the run: its minimum must fold into
                    // the run's and the queue's `oldest`.
                    let run: Vec<QueueEntry> = (0..n)
                        .map(|k| entry(query, next_index + k, at_us + (k as u64 * 7) % 5))
                        .collect();
                    next_index += n;
                    seg.push_run(QueryId(query), run.iter().cloned());
                    run.into_iter().for_each(|e| naive.push(e));
                }
                Op::DrainAll => {
                    seg.drain_all_into(&mut scratch);
                    prop_assert_eq!(keys(&scratch), keys(&naive.drain_all()));
                }
                Op::DrainQuery { query } => {
                    seg.drain_query_into(QueryId(query), &mut scratch);
                    prop_assert_eq!(keys(&scratch), keys(&naive.drain_query(QueryId(query))));
                }
            }
            seg.validate_segments();
            prop_assert_eq!(seg.len(), naive.entries.len());
            prop_assert_eq!(seg.is_empty(), naive.entries.is_empty());
            prop_assert_eq!(seg.oldest_enqueue(), naive.oldest());
            // The live view agrees as a set.
            let live: Vec<QueueEntry> = seg.iter().cloned().collect();
            prop_assert_eq!(keys(&live), keys(&naive.entries));
            // Per-query accounting.
            for q in 0..6u64 {
                let want = naive.entries.iter().filter(|e| e.query == QueryId(q)).count();
                prop_assert_eq!(seg.pending_of(QueryId(q)), want);
            }
            let mut distinct: Vec<u64> = naive.entries.iter().map(|e| e.query.0).collect();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(seg.distinct_queries(), distinct.len());
            // Memory accounting stays consistent with the live size.
            let m = seg.memory_stats();
            prop_assert_eq!(m.queued_entries, seg.len() as u64);
            prop_assert_eq!(m.directory_runs as usize, seg.distinct_queries());
            prop_assert!(m.total_bytes() >= m.entry_bytes);
        }
    }

    /// The same ops through a `WorkloadTable` keep the table's index, slots,
    /// and segment directories valid — `validate_index` does the
    /// cross-checking — and `enqueue` (one run per work item) leaves the
    /// table exactly where merging the same entries one `push` at a time
    /// leaves a twin.
    #[test]
    fn table_drains_keep_index_and_segments_valid(ops in arb_ops()) {
        let mut t = WorkloadTable::new(2);
        let mut twin = WorkloadTable::new(2);
        let (mut scratch, mut twin_scratch) = (Vec::new(), Vec::new());
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Push { query, at_us } | Op::PushRun { query, at_us, .. } => {
                    let (n, now) = match *op {
                        Op::PushRun { n, .. } => (n, SimTime::from_micros(at_us)),
                        _ => (1, SimTime::from_micros(at_us + step as u64)),
                    };
                    let positions: Vec<Vec3> = (0..n)
                        .map(|k| Vec3::from_radec_deg(10.0 + ((step + k as usize) % 7) as f64, 5.0))
                        .collect();
                    let q = CrossMatchQuery::from_positions(
                        QueryId(query),
                        &positions,
                        1e-5,
                        LEVEL,
                        Predicate::All,
                    );
                    let item = WorkItem {
                        query: q.id,
                        bucket: BucketId((step % 2) as u32),
                        object_indices: (0..n).collect(),
                    };
                    t.enqueue(&item, &q, now);
                    let mut entries: Vec<QueueEntry> = q
                        .objects
                        .iter()
                        .enumerate()
                        .map(|(k, obj)| QueueEntry {
                            query: q.id,
                            object_index: k as u32,
                            pos: obj.pos,
                            radius: obj.radius,
                            bbox: obj.bounding_range(),
                            enqueued_at: now,
                        })
                        .collect();
                    twin.merge_bucket(item.bucket, &mut entries);
                }
                Op::DrainAll => {
                    t.take_all_into(BucketId(0), &mut scratch);
                    twin.take_all_into(BucketId(0), &mut twin_scratch);
                    prop_assert_eq!(keys(&scratch), keys(&twin_scratch));
                }
                Op::DrainQuery { query } => {
                    t.take_query_into(BucketId(0), QueryId(query), &mut scratch);
                    twin.take_query_into(BucketId(0), QueryId(query), &mut twin_scratch);
                    prop_assert_eq!(keys(&scratch), keys(&twin_scratch));
                }
            }
            t.validate_index();
            twin.validate_index();
            prop_assert_eq!(t.total_queued(), twin.total_queued());
            prop_assert_eq!(t.non_empty_buckets(), twin.non_empty_buckets());
            for b in [BucketId(0), BucketId(1)] {
                prop_assert_eq!(t.snapshot_of(b), twin.snapshot_of(b));
                prop_assert_eq!(t.queue(b).memory_stats(), twin.queue(b).memory_stats());
            }
        }
    }
}
