//! Property tests for queue-state migration between workload tables.
//!
//! The elastic runtime moves a bucket between shards with
//! `WorkloadTable::extract_bucket` on the source and
//! `WorkloadTable::merge_bucket` on the destination. Under arbitrary
//! enqueue interleavings — including destinations that already hold work
//! for the migrated bucket — the transfer must conserve the entry multiset,
//! preserve every run's earliest arrival stamp and every object's position
//! (the payload travels as runs borrowing the queries, never as copied
//! entries), and leave `validate_index` green on **both** tables after
//! every hop.

use liferaft_htm::Vec3;
use liferaft_query::{CrossMatchQuery, Predicate, QueryId, QueueEntry, WorkItem, WorkloadTable};
use liferaft_storage::{BucketId, SimTime};
use proptest::prelude::*;

const LEVEL: u8 = 6;
const BUCKETS: u32 = 3;

/// Canonical multiset key of an entry; the embedded `enqueued_at`
/// microseconds make arrival-age preservation part of every equality check,
/// and the position bits make sure the entry still resolves to its object.
type Key = (u64, u32, u64, u64);

fn keys(entries: impl IntoIterator<Item = QueueEntry>) -> Vec<Key> {
    let mut v: Vec<_> = entries
        .into_iter()
        .map(|e| {
            (
                e.query.0,
                e.object_index,
                e.enqueued_at.as_micros(),
                e.pos.x.to_bits(),
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// `keys` with every query's entries carrying the earliest stamp among
/// them: a run holds one stamp, and a merge into a queued run keeps the
/// earliest.
fn restamped(mut keys: Vec<Key>) -> Vec<Key> {
    for i in 0..keys.len() {
        let query = keys[i].0;
        let first = keys.iter().filter(|k| k.0 == query).map(|k| k.2).min();
        keys[i].2 = first.expect("the query has this entry");
    }
    keys.sort_unstable();
    keys
}

/// All live entries of one table, as canonical keys per bucket.
fn table_keys(t: &WorkloadTable<'_>) -> Vec<Vec<Key>> {
    (0..BUCKETS)
        .map(|b| keys(t.queue(BucketId(b)).iter()))
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Enqueue one object of `query` into `bucket` on table `side`.
    Push {
        side: bool,
        query: u64,
        bucket: u32,
        at_us: u64,
    },
    /// Extract `bucket` from one table and merge it into the other.
    Migrate { from_left: bool, bucket: u32 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..8, 0u8..2, 0u64..6, 0u32..BUCKETS, 0u64..50), 1..150).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(kind, side, query, bucket, at_us)| {
                    let side = side == 1;
                    match kind {
                        0..=5 => Op::Push {
                            side,
                            query,
                            bucket,
                            at_us,
                        },
                        _ => Op::Migrate {
                            from_left: side,
                            bucket,
                        },
                    }
                })
                .collect()
        },
    )
}

/// The six queries both tables borrow from; every object has its own
/// position.
fn pool() -> Vec<CrossMatchQuery> {
    (0..6u64)
        .map(|id| {
            let positions: Vec<Vec3> = (0..7)
                .map(|k| Vec3::from_radec_deg(10.0 + id as f64 * 9.0 + k as f64, 5.0))
                .collect();
            CrossMatchQuery::from_positions(QueryId(id), &positions, 1e-5, LEVEL, Predicate::All)
        })
        .collect()
}

fn push<'q>(
    t: &mut WorkloadTable<'q>,
    q: &'q CrossMatchQuery,
    step: usize,
    bucket: u32,
    at_us: u64,
) {
    let item = WorkItem {
        query: q.id,
        bucket: BucketId(bucket),
        object_indices: vec![(step % 7) as u32],
    };
    t.enqueue(&item, q, SimTime::from_micros(at_us + step as u64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Extract→merge between two tables is a pure relocation: the union of
    /// both tables' entry multisets never changes (up to merged stamps),
    /// the migrated bucket's state lands verbatim on the destination (as a
    /// union with anything already queued there, each merged run keeping
    /// its earliest stamp), and both tables' indices and queues stay valid
    /// at every step.
    #[test]
    fn bucket_migration_conserves_entries_and_ages(ops in arb_ops()) {
        let pool = pool();
        let mut left = WorkloadTable::new(BUCKETS as usize);
        let mut right = WorkloadTable::new(BUCKETS as usize);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Push { side, query, bucket, at_us } => {
                    let t = if side { &mut left } else { &mut right };
                    push(t, &pool[query as usize], step, bucket, at_us);
                }
                Op::Migrate { from_left, bucket } => {
                    // Buckets the migration does not touch must come through
                    // unchanged on both sides.
                    let (left_before, right_before) = (table_keys(&left), table_keys(&right));
                    let (src, dst) = if from_left {
                        (&mut left, &mut right)
                    } else {
                        (&mut right, &mut left)
                    };
                    let src_before = keys(src.queue(BucketId(bucket)).iter());
                    let dst_before = keys(dst.queue(BucketId(bucket)).iter());
                    let payload = src.extract_bucket(BucketId(bucket));
                    // The extraction hands over exactly the source's state…
                    prop_assert_eq!(keys(payload.iter()), src_before.clone());
                    prop_assert!(src.queue(BucketId(bucket)).is_empty());
                    dst.merge_bucket(BucketId(bucket), &payload);
                    // …and the destination ends with the union, each run
                    // keeping its earliest arrival stamp.
                    let mut want = src_before;
                    want.extend(dst_before);
                    prop_assert_eq!(keys(dst.queue(BucketId(bucket)).iter()), restamped(want));
                    for b in 0..BUCKETS {
                        if b == bucket {
                            continue;
                        }
                        prop_assert_eq!(
                            keys(left.queue(BucketId(b)).iter()),
                            left_before[b as usize].clone()
                        );
                        prop_assert_eq!(
                            keys(right.queue(BucketId(b)).iter()),
                            right_before[b as usize].clone()
                        );
                    }
                }
            }
            left.validate_index();
            right.validate_index();
            // Global conservation: every entry ever pushed is still live in
            // exactly one of the two tables (nothing drains in this suite).
            let pushed = ops[..=step]
                .iter()
                .filter(|o| matches!(o, Op::Push { .. }))
                .count();
            let live = left.total_queued() + right.total_queued();
            prop_assert_eq!(live, pushed as u64);
        }
    }
}
