//! The decision-path equivalence pin: for every scheduler and every α, the
//! pick made through the engine's **`TableView`** (the live `WorkloadTable`'s
//! candidate index, φ pushed through `set_resident` at every cache change,
//! and a `QueryTracker`'s in-flight records) must equal the pick made
//! through the **legacy path** (a gather of every candidate with φ probed
//! from `BucketCache::contains`, per-query buckets scanned from the queues,
//! then the scan-based `FixtureView` and the fixture's reference decision
//! over the gathered slice) — across arbitrary
//! interleavings of enqueues (narrow, and one query fanned wide at one
//! instant so scores tie), full/per-query drains, and cache
//! accesses/evictions/wipes. The legacy side never reads the table's φ
//! bits, so a missed push shows up as a diverging pick.
//!
//! This is the contract that lets `tests/golden_determinism.rs` keep its
//! pre-refactor fingerprints: if these picks agree everywhere, the engines
//! built on them are bit-identical.

mod fixture;

use std::collections::HashMap;

use fixture::{reference_pick, CountingView, FixtureView};
use liferaft_core::adaptive::{TradeoffCurve, TradeoffPoint};
use liferaft_core::{
    AdaptiveScheduler, AgingMode, AlphaController, DecisionStats, Lens, LifeRaftScheduler,
    NoShareScheduler, RoundRobinScheduler, Scheduler, TableView, TradeoffTable,
};
use liferaft_htm::Vec3;
use liferaft_query::{
    BucketSnapshot, CrossMatchQuery, FragmentId, Predicate, QueryId, QueryTracker, WorkItem,
    WorkloadTable,
};
use liferaft_storage::{BucketCache, BucketId, CacheAccess, CostModel, SimTime};
use proptest::prelude::*;

const N_BUCKETS: usize = 24;
const CACHE_CAP: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Enqueue `n` objects of `query` into each of `width` consecutive
    /// buckets from `bucket` (wrapping), all at one instant. `width > 1` is
    /// a wide query's fan-out: where the queues were empty the new
    /// candidates tie on both score terms.
    Enqueue {
        bucket: u32,
        query: u64,
        n: u8,
        width: u32,
    },
    /// Drain everything at `bucket`.
    TakeAll { bucket: u32 },
    /// Drain one query's entries at `bucket`.
    TakeQuery { bucket: u32, query: u64 },
    /// A batch executed against `bucket`: cache access (hit or load+evict).
    CacheAccess { bucket: u32 },
    /// Drop every resident bucket (a crashed shard's residency loss).
    CacheWipe,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..9,
            0u32..N_BUCKETS as u32,
            0u64..6,
            1u8..5,
            // Fan-out widths of at least 9, so an all-tied pass that the
            // tie-break did not close would read past half the candidates.
            9u32..=N_BUCKETS as u32,
        ),
        1..80,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, bucket, query, n, width)| match kind {
                0..=2 => Op::Enqueue {
                    bucket,
                    query,
                    n,
                    width: 1,
                },
                3 => Op::TakeAll { bucket },
                4 => Op::TakeQuery { bucket, query },
                5 | 6 => Op::CacheAccess { bucket },
                7 => Op::CacheWipe,
                _ => Op::Enqueue {
                    bucket,
                    query,
                    n,
                    width,
                },
            })
            .collect()
    })
}

/// Queries `0..6`, four objects each — the object lists the table's runs
/// borrow for the length of a test case.
fn query_pool() -> Vec<CrossMatchQuery> {
    (0..6u64)
        .map(|id| {
            let positions: Vec<Vec3> = (0..4)
                .map(|i| Vec3::from_radec_deg(10.0 + id as f64 + i as f64 * 0.01, 5.0))
                .collect();
            CrossMatchQuery::from_positions(QueryId(id), &positions, 1e-5, 6, Predicate::All)
        })
        .collect()
}

/// Drains `only`'s run (or every run) at `bucket`, booking each drained
/// run with the tracker the way the engine's batch does.
fn drain(
    table: &mut WorkloadTable<'_>,
    tracker: &mut QueryTracker,
    bucket: BucketId,
    only: Option<QueryId>,
    now: SimTime,
) {
    let mut runs = Vec::new();
    table.drain_runs(bucket, only, |run| {
        runs.push((run.query(), run.len() as u64))
    });
    for (q, n) in runs {
        tracker.complete_assignments(q, bucket, n, now);
    }
}

/// The legacy view: the gathered candidates, and per-query cursors scanned
/// from the queues — every query with queued work, the buckets holding it,
/// and the oldest of them by `(arrival, id)`.
fn legacy_view(
    now: SimTime,
    snaps: &[BucketSnapshot],
    table: &WorkloadTable<'_>,
    arrival_of: &HashMap<QueryId, SimTime>,
) -> FixtureView {
    let mut query_buckets: Vec<(QueryId, Vec<BucketId>)> = Vec::new();
    for q in (0..6u64).map(QueryId) {
        let buckets: Vec<BucketId> = (0..N_BUCKETS as u32)
            .map(BucketId)
            .filter(|&b| table.queue(b).pending_of(q) > 0)
            .collect();
        if !buckets.is_empty() {
            query_buckets.push((q, buckets));
        }
    }
    let oldest_query = query_buckets
        .iter()
        .map(|&(q, _)| (arrival_of[&q], q))
        .min()
        .map(|(t, q)| (q, t));
    FixtureView {
        now,
        candidates: snaps.to_vec(),
        oldest_query,
        query_buckets,
    }
}

/// The legacy gather: every candidate in bucket order, read from the
/// queues, with φ probed from the cache itself rather than read from the
/// table.
fn gather(table: &WorkloadTable<'_>, cache: &BucketCache, out: &mut Vec<BucketSnapshot>) {
    out.clear();
    out.extend(table.non_empty_buckets().iter().map(|&bucket| {
        let queue = table.queue(bucket);
        BucketSnapshot {
            bucket,
            queue_len: queue.len() as u64,
            oldest_enqueue: queue
                .oldest_enqueue()
                .expect("a candidate queue is non-empty"),
            cached: cache.contains(bucket),
        }
    }));
}

/// One shared-scan access, pushed into the table the way the engine does.
fn access(table: &mut WorkloadTable<'_>, cache: &mut BucketCache, bucket: BucketId) {
    if let CacheAccess::Miss { evicted } = cache.access(bucket) {
        if let Some(victim) = evicted {
            table.set_resident(victim, false);
        }
        table.set_resident(bucket, true);
    }
}

/// The bucket of the reference LifeRaft decision over `snaps`.
fn reference(
    mode: AgingMode,
    alpha: f64,
    now: SimTime,
    snaps: &[BucketSnapshot],
) -> Option<BucketId> {
    let best = reference_pick(&CostModel::paper(), mode, alpha, now, snaps)?;
    Some(snaps[best].bucket)
}

/// Fresh schedulers for one comparison round. RR and the adaptive wrapper
/// are stateful, so the harness keeps a pair per side and steps them in
/// lockstep instead.
fn stateless_schedulers() -> Vec<Box<dyn Scheduler>> {
    let mut v: Vec<Box<dyn Scheduler>> = vec![Box::new(NoShareScheduler::new())];
    for mode in [AgingMode::Normalized, AgingMode::Raw] {
        for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
            v.push(Box::new(LifeRaftScheduler::new(
                CostModel::paper(),
                mode,
                alpha,
            )));
        }
    }
    v
}

fn adaptive() -> AdaptiveScheduler {
    let pt = |alpha, tput, resp| TradeoffPoint {
        alpha,
        throughput_qps: tput,
        mean_response_s: resp,
    };
    let table = TradeoffTable::new(vec![
        TradeoffCurve::new(0.1, vec![pt(0.0, 0.115, 300.0), pt(1.0, 0.107, 138.0)]),
        TradeoffCurve::new(0.5, vec![pt(0.0, 0.40, 420.0), pt(0.25, 0.32, 340.0)]),
    ]);
    let controller = AlphaController::new(
        table,
        0.20,
        liferaft_storage::SimDuration::from_secs(60),
        liferaft_storage::SimDuration::from_secs(5),
        0.5,
    );
    AdaptiveScheduler::new(
        LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, 0.5),
        controller,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Index pick == legacy gather+scan pick, for every policy, at every
    /// step of a random enqueue/drain/evict interleaving.
    #[test]
    fn indexed_and_legacy_picks_agree(ops in arb_ops()) {
        let pool = query_pool();
        let mut table = WorkloadTable::new(N_BUCKETS);
        let mut cache = BucketCache::new(CACHE_CAP);
        let mut tracker = QueryTracker::new();
        let mut arrival_of: HashMap<QueryId, SimTime> = HashMap::new();
        let mut rr_indexed = RoundRobinScheduler::new();
        let mut rr_legacy = RoundRobinScheduler::new();
        let mut adaptive_pair = (adaptive(), adaptive());
        let mut snaps = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_micros(step as u64 * 1_000 + 1);
            match *op {
                Op::Enqueue { bucket, query, n, width } => {
                    let q = &pool[query as usize];
                    let buckets = (bucket..bucket + width).map(|b| BucketId(b % N_BUCKETS as u32));
                    for b in buckets.clone() {
                        let item = WorkItem {
                            query: q.id,
                            bucket: b,
                            object_indices: (0..n as u32).collect(),
                        };
                        table.enqueue(&item, q, now);
                    }
                    // The query keeps its first arrival, as a moved or
                    // late fragment does on the engine.
                    let arrival = *arrival_of.entry(q.id).or_insert(now);
                    let work = buckets.map(|b| (b, n as u64));
                    let (f, all) = (FragmentId::default(), Predicate::All);
                    if tracker.arrival_of(q.id).is_some() {
                        tracker.transfer_in(q.id, f, arrival, all, work);
                    } else {
                        tracker.register(q.id, f, arrival, all, work);
                    }
                }
                Op::TakeAll { bucket } => {
                    drain(&mut table, &mut tracker, BucketId(bucket), None, now);
                }
                Op::TakeQuery { bucket, query } => {
                    let only = Some(QueryId(query));
                    drain(&mut table, &mut tracker, BucketId(bucket), only, now);
                }
                Op::CacheAccess { bucket } => access(&mut table, &mut cache, BucketId(bucket)),
                Op::CacheWipe => {
                    let resident: Vec<BucketId> = cache.resident_lru_order().collect();
                    for b in resident {
                        cache.remove(b);
                        table.set_resident(b, false);
                    }
                }
            }

            // One decision point per step, through both paths.
            table.validate_index();
            gather(&table, &cache, &mut snaps);
            let legacy_view = legacy_view(now, &snaps, &table, &arrival_of);
            let indexed_view = TableView {
                now,
                table: &table,
                tracker: &tracker,
            };

            for s in &mut stateless_schedulers() {
                let legacy = s.pick(&legacy_view);
                let indexed = s.pick(&indexed_view);
                prop_assert_eq!(
                    legacy, indexed,
                    "{} diverged at step {} ({} candidates)",
                    s.name(), step, snaps.len()
                );
            }

            // The adaptive wrapper retunes α then delegates to LifeRaft;
            // both sides see the same arrivals, so lockstep picks agree.
            {
                let a = adaptive_pair.0.pick(&indexed_view);
                let b = adaptive_pair.1.pick(&legacy_view);
                prop_assert_eq!(a, b, "Adaptive diverged at step {}", step);
            }

            // LifeRaft vs the reference decision over the gathered slice —
            // the strongest form of the claim.
            for mode in [AgingMode::Normalized, AgingMode::Raw] {
                for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
                    let mut s = LifeRaftScheduler::new(CostModel::paper(), mode, alpha);
                    let via_index = s.pick(&indexed_view).map(|spec| spec.bucket);
                    let via_slice = reference(mode, alpha, now, &snaps);
                    prop_assert_eq!(
                        via_index, via_slice,
                        "LifeRaft mode {:?} α={} diverged from the reference at step {}",
                        mode, alpha, step
                    );
                }
            }

            // RR: stateful cursor, stepped in lockstep on both sides.
            if !snaps.is_empty() {
                let a = rr_indexed.pick(&indexed_view);
                let b = rr_legacy.pick(&legacy_view);
                prop_assert_eq!(a, b, "RR diverged at step {}", step);
                prop_assert_eq!(rr_indexed.cursor(), rr_legacy.cursor());
            }
        }
    }
}

/// One query fanned into every bucket at one instant with equal `n` ties all
/// candidates on both score terms, which holds the threshold bound exactly on
/// the best seen score. The tie-break closes that pass at depth 1, after the
/// residents and one more read down the throughput order and one down the
/// age order: a fresh scheduler counts one frontier pick (a strict `<` test
/// alone would hold the bound open past half of the `N_BUCKETS`
/// candidates), and the pick stays the reference decision's — with every
/// bucket uncached, and with a few resident.
#[test]
fn wide_enqueue_ties_close_on_the_frontier() {
    let pool = query_pool();
    let enqueued = SimTime::from_micros(1_000);
    let now = SimTime::from_micros(5_000);
    let mut table = WorkloadTable::new(N_BUCKETS);
    for b in 0..N_BUCKETS as u32 {
        let item = WorkItem {
            query: pool[0].id,
            bucket: BucketId(b),
            object_indices: vec![0, 1],
        };
        table.enqueue(&item, &pool[0], enqueued);
    }
    let mut cache = BucketCache::new(CACHE_CAP);
    let tracker = QueryTracker::new();
    let mut snaps = Vec::new();
    for resident in [0u32, 3] {
        for b in 0..resident {
            access(&mut table, &mut cache, BucketId(7 + 5 * b));
        }
        gather(&table, &cache, &mut snaps);
        assert_eq!(snaps.iter().filter(|c| c.cached).count(), resident as usize);
        for mode in [AgingMode::Normalized, AgingMode::Raw] {
            for alpha in [0.25, 0.5, 0.75] {
                let view = CountingView::new(TableView {
                    now,
                    table: &table,
                    tracker: &tracker,
                });
                let mut s = LifeRaftScheduler::new(CostModel::paper(), mode, alpha);
                let via_index = s.pick(&view).map(|spec| spec.bucket);
                let via_slice = reference(mode, alpha, now, &snaps);
                assert_eq!(via_index, via_slice, "mode {mode:?} α={alpha}");
                assert_eq!(
                    s.decision_stats(),
                    DecisionStats {
                        frontier_picks: 1,
                        fallback_picks: 0
                    },
                    "mode {mode:?} α={alpha}, {resident} resident"
                );
                let reads = (view.reads(Lens::Throughput), view.reads(Lens::Age));
                assert_eq!(reads, (resident as usize + 1, 1), "mode {mode:?} α={alpha}");
            }
        }
    }
}
