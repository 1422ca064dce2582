//! Property tests for the incrementally-maintained candidate snapshots.
//!
//! The workload table updates its per-bucket `BucketSnapshot`s on every
//! `enqueue`/`take_all_into`/`take_query_into` instead of rebuilding them at
//! decision time. These properties interleave arbitrary enqueues and drains
//! and assert the maintained state always equals a from-scratch rebuild
//! through the public queue accessors.

use liferaft_htm::Vec3;
use liferaft_query::snapshot::BucketSnapshot;
use liferaft_query::{CrossMatchQuery, Lens, Predicate, QueryId, WorkItem, WorkloadTable};
use liferaft_storage::{BucketId, SimTime};
use proptest::prelude::*;

const LEVEL: u8 = 6;
const N_BUCKETS: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Enqueue `n` objects of `query` at `bucket`.
    Enqueue { bucket: u32, query: u64, n: u8 },
    /// Drain everything at `bucket`.
    TakeAll { bucket: u32 },
    /// Drain one query's entries at `bucket`.
    TakeQuery { bucket: u32, query: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..4, 0u32..N_BUCKETS as u32, 0u64..5, 1u8..4), 1..60).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(kind, bucket, query, n)| match kind {
                    0 | 1 => Op::Enqueue { bucket, query, n },
                    2 => Op::TakeAll { bucket },
                    _ => Op::TakeQuery { bucket, query },
                })
                .collect()
        },
    )
}

/// Queries `0..n`, four objects each at distinct positions — the object
/// lists the table's runs borrow for the length of a test case.
fn pool(n: u64) -> Vec<CrossMatchQuery> {
    (0..n)
        .map(|id| {
            let positions: Vec<Vec3> = (0..4)
                .map(|i| Vec3::from_radec_deg(10.0 + id as f64 + i as f64 * 0.01, 5.0))
                .collect();
            CrossMatchQuery::from_positions(QueryId(id), &positions, 1e-5, LEVEL, Predicate::All)
        })
        .collect()
}

/// From-scratch snapshot rebuild through the public accessors — the
/// reference the incremental maintenance must match.
fn rebuild(t: &WorkloadTable<'_>) -> Vec<BucketSnapshot> {
    t.non_empty_buckets()
        .iter()
        .map(|&b| {
            let q = t.queue(b);
            BucketSnapshot {
                bucket: b,
                queue_len: q.len() as u64,
                oldest_enqueue: q.oldest_enqueue().expect("non-empty queue has an oldest"),
                cached: false,
            }
        })
        .collect()
}

/// A lens's order stated as the minimum of a plain tuple: older first
/// (age only), then longer queue, then lower bucket. Every candidate is
/// uncached here, so the throughput lens has no leading term.
fn brute_rank(lens: Lens, s: &BucketSnapshot) -> (SimTime, std::cmp::Reverse<u64>, BucketId) {
    let oldest = match lens {
        Lens::Age => s.oldest_enqueue,
        Lens::Throughput => SimTime::ZERO,
    };
    (oldest, std::cmp::Reverse(s.queue_len), s.bucket)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any interleaving of enqueues and drains, the maintained
    /// snapshots equal the from-scratch rebuild, and the aggregate counters
    /// agree with the queues.
    #[test]
    fn snapshots_always_equal_a_from_scratch_rebuild(ops in arb_ops()) {
        let pool = pool(5);
        let mut t = WorkloadTable::new(N_BUCKETS);
        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_micros(step as u64 * 1_000);
            match *op {
                Op::Enqueue { bucket, query, n } => {
                    let q = &pool[query as usize];
                    let item = WorkItem {
                        query: q.id,
                        bucket: BucketId(bucket),
                        object_indices: (0..n as u32).collect(),
                    };
                    t.enqueue(&item, q, now);
                }
                Op::TakeAll { bucket } => {
                    let mut drained = Vec::new();
                    t.take_all_into(BucketId(bucket), &mut drained);
                    prop_assert!(drained
                        .iter()
                        .all(|e| !t.queue(BucketId(bucket)).iter().any(|kept| kept == *e)));
                }
                Op::TakeQuery { bucket, query } => {
                    let mut drained = Vec::new();
                    t.take_query_into(BucketId(bucket), QueryId(query), &mut drained);
                    prop_assert!(drained.iter().all(|e| e.query == QueryId(query)));
                }
            }
            let mut gathered = Vec::new();
            t.for_each_candidate(&mut |s| gathered.push(*s));
            prop_assert_eq!(
                gathered,
                rebuild(&t),
                "maintained snapshots diverged from rebuild after step {}",
                step
            );
            // The candidate index must always mirror the slots: one entry
            // per non-empty bucket, in the exact lens orders.
            t.validate_index();
            prop_assert_eq!(t.candidate_count(), t.non_empty_buckets().len());
            // Each lens's maximum agrees with a brute-force scan of the
            // rebuild (cold residency throughout).
            for lens in Lens::ALL {
                let brute = rebuild(&t).into_iter().min_by_key(|s| brute_rank(lens, s));
                prop_assert_eq!(
                    t.top_candidate(lens).map(|s| s.bucket),
                    brute.map(|s| s.bucket),
                    "{:?} maximum", lens
                );
            }
            let total: u64 = t
                .non_empty_buckets()
                .iter()
                .map(|&b| t.queue(b).len() as u64)
                .sum();
            prop_assert_eq!(t.total_queued(), total);
            prop_assert_eq!(t.is_idle(), total == 0);
        }
    }

    /// `take_query_into` is equivalent to filtering: drained ∪ kept is an
    /// exact partition of the original entries by query. (Order is not part
    /// of the contract; everything downstream consumes batches as unordered sets, pinned by
    /// the golden determinism fingerprints.)
    #[test]
    fn drain_query_is_a_partition(
        queries in proptest::collection::vec(0u64..4, 1..30),
        victim in 0u64..4,
    ) {
        let pool = pool(4);
        let mut t = WorkloadTable::new(2);
        for (i, &qid) in queries.iter().enumerate() {
            let q = &pool[qid as usize];
            let item = WorkItem {
                query: q.id,
                bucket: BucketId(0),
                object_indices: vec![(i % 4) as u32],
            };
            t.enqueue(&item, q, SimTime::from_micros(i as u64));
        }
        let before: Vec<(QueryId, SimTime)> = t
            .queue(BucketId(0))
            .iter()
            .map(|e| (e.query, e.enqueued_at))
            .collect();
        let mut drained = Vec::new();
        t.take_query_into(BucketId(0), QueryId(victim), &mut drained);
        let mut kept: Vec<(QueryId, SimTime)> = t
            .queue(BucketId(0))
            .iter()
            .map(|e| (e.query, e.enqueued_at))
            .collect();
        let mut expected_drained: Vec<(QueryId, SimTime)> = before
            .iter()
            .copied()
            .filter(|(q, _)| *q == QueryId(victim))
            .collect();
        let mut expected_kept: Vec<(QueryId, SimTime)> = before
            .iter()
            .copied()
            .filter(|(q, _)| *q != QueryId(victim))
            .collect();
        let mut drained_keys: Vec<(QueryId, SimTime)> =
            drained.iter().map(|e| (e.query, e.enqueued_at)).collect();
        drained_keys.sort();
        expected_drained.sort();
        kept.sort();
        expected_kept.sort();
        prop_assert_eq!(drained_keys, expected_drained);
        prop_assert_eq!(kept, expected_kept);
        // The maintained oldest must equal the kept minimum.
        prop_assert_eq!(
            t.queue(BucketId(0)).oldest_enqueue(),
            t.queue(BucketId(0)).iter().map(|e| e.enqueued_at).min()
        );
    }
}
