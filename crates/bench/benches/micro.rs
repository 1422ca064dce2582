//! Criterion microbenchmarks for the hot kernels.
//!
//! These quantify the costs the simulator abstracts away — HTM indexing,
//! region coverage, the join inner loops, scheduler decisions — so that the
//! constants in the cost model can be sanity-checked against real code.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use liferaft_catalog::{Catalog, VirtualCatalog};
use liferaft_core::{
    AgingMode, BucketSnapshot, IndexedSchedulerView, LifeRaftScheduler, MetricParams, Scheduler,
};
use liferaft_htm::{cap::Cap, cover::Coverer, locate, Vec3};
use liferaft_join::zones::ZoneMap;
use liferaft_join::{indexed::indexed_join, sweep::sweep_join};
use liferaft_query::QueryId as CoreQueryId;
use liferaft_query::{
    CrossMatchQuery, MatchObject, Predicate, QueryId, QueueEntry, WorkItem, WorkloadTable,
};
use liferaft_storage::{BucketCache, BucketId, SimDuration, SimTime};

fn bench_htm(c: &mut Criterion) {
    let mut g = c.benchmark_group("htm");
    let p = Vec3::from_radec_deg(187.70593, 12.39112); // M87
    g.bench_function("locate_level14", |b| {
        b.iter(|| locate(black_box(p), black_box(14)))
    });
    g.bench_function("trixel_of_level14", |b| {
        let id = locate(p, 14);
        b.iter(|| liferaft_htm::trixel_of(black_box(id)))
    });
    for radius_arcsec in [1.0, 60.0, 3600.0] {
        g.bench_with_input(
            BenchmarkId::new("cover_bounded_level14", format!("{radius_arcsec}arcsec")),
            &radius_arcsec,
            |b, &r| {
                let cap = Cap::new(p, (r / 3600.0_f64).to_radians());
                let coverer = Coverer::new(14);
                b.iter(|| coverer.cover_bounded(black_box(&cap), 4))
            },
        );
    }
    g.finish();
}

fn join_fixture(w: usize) -> (Vec<liferaft_catalog::SkyObject>, Vec<QueueEntry>) {
    const LEVEL: u8 = 14;
    let cat = VirtualCatalog::new(LEVEL, 64, 10_000, 4096, 77);
    let bucket = cat.bucket_objects(BucketId(7)).into_owned();
    let entries: Vec<QueueEntry> = bucket
        .iter()
        .step_by((bucket.len() / w).max(1))
        .take(w)
        .enumerate()
        .map(|(i, o)| {
            let radius = (10.0 / 3600.0_f64).to_radians();
            let mo = MatchObject::new(o.pos, radius, LEVEL);
            QueueEntry {
                query: QueryId(i as u64 % 17),
                object_index: i as u32,
                pos: o.pos,
                radius,
                bbox: mo.bounding_range(),
                enqueued_at: SimTime::ZERO,
            }
        })
        .collect();
    (bucket, entries)
}

fn bench_joins(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_10k_bucket");
    for w in [30usize, 300, 3_000] {
        let (bucket, entries) = join_fixture(w);
        g.bench_with_input(BenchmarkId::new("sweep", w), &w, |b, _| {
            b.iter(|| sweep_join(black_box(&bucket), black_box(&entries)))
        });
        g.bench_with_input(BenchmarkId::new("indexed", w), &w, |b, _| {
            b.iter(|| indexed_join(black_box(&bucket), black_box(&entries)))
        });
        g.bench_with_input(BenchmarkId::new("zones", w), &w, |b, _| {
            let zm = ZoneMap::build(&bucket, 0.001);
            b.iter(|| zm.crossmatch(black_box(&bucket), black_box(&entries)))
        });
    }
    g.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler_pick");
    for n in [100usize, 1_000, 5_000] {
        let candidates: Vec<BucketSnapshot> = (0..n)
            .map(|i| BucketSnapshot {
                bucket: BucketId(i as u32),
                queue_len: (i as u64 * 31) % 4_000 + 1,
                oldest_enqueue: SimTime::from_micros((i as u64 * 7_919) % 1_000_000),
                cached: i % 37 == 0,
                bucket_objects: 10_000,
            })
            .collect();
        let now = SimTime::from_micros(2_000_000);
        g.bench_with_input(BenchmarkId::new("liferaft_alpha05", n), &n, |b, _| {
            let s = LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, 0.5);
            b.iter(|| s.pick_index(black_box(now), black_box(&candidates)))
        });
    }
    g.finish();
}

fn bench_candidates(c: &mut Criterion) {
    let mut g = c.benchmark_group("candidates");
    for n in [256usize, 2_048] {
        let positions: Vec<Vec3> = (0..4)
            .map(|i| Vec3::from_radec_deg(10.0 + i as f64 * 0.01, 5.0))
            .collect();
        let query =
            CrossMatchQuery::from_positions(QueryId(1), &positions, 1e-5, 14, Predicate::All);
        let mut table = WorkloadTable::new(n).with_object_counts(|_| 10_000);
        for b in 0..n {
            let item = WorkItem {
                query: query.id,
                bucket: BucketId(b as u32),
                object_indices: (0..positions.len() as u32).collect(),
            };
            table.enqueue(&item, &query, SimTime::from_micros(b as u64));
        }
        let mut cache = BucketCache::new(20);
        for b in 0..20 {
            cache.insert(BucketId(b * 7 % n as u32));
        }
        // The incremental path: memcpy the maintained snapshots, refresh φ.
        g.bench_with_input(BenchmarkId::new("refresh_into", n), &n, |bench, _| {
            let mut out = Vec::new();
            bench.iter(|| {
                table.snapshots_into(black_box(&mut out), &cache);
                out.len()
            })
        });
        // The pre-refactor path: rebuild every snapshot from the queues.
        g.bench_with_input(BenchmarkId::new("rebuild", n), &n, |bench, _| {
            bench.iter(|| {
                let v: Vec<BucketSnapshot> = table
                    .non_empty_buckets()
                    .iter()
                    .map(|&b| {
                        let q = table.queue(b);
                        BucketSnapshot {
                            bucket: b,
                            queue_len: q.len() as u64,
                            oldest_enqueue: q.oldest_enqueue().expect("non-empty"),
                            cached: cache.contains(b),
                            bucket_objects: 10_000,
                        }
                    })
                    .collect();
                v.len()
            })
        });
    }
    g.finish();
}

/// A minimal indexed view over a workload table — the blanket
/// [`IndexedSchedulerView`] impl gives it the exact candidate dispatch the
/// engine's decision loop uses.
struct TableView<'a> {
    now: SimTime,
    table: &'a WorkloadTable<'a>,
}

impl IndexedSchedulerView for TableView<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn table(&self) -> &WorkloadTable<'_> {
        self.table
    }
    fn oldest_pending_query(&self) -> Option<(CoreQueryId, SimTime)> {
        None
    }
    fn pending_buckets_of(&self, _query: CoreQueryId) -> Vec<BucketId> {
        Vec::new()
    }
}

/// The eight-object query whose runs fill [`decision_fixture`]'s table.
fn decision_query() -> CrossMatchQuery {
    let positions: Vec<Vec3> = (0..8)
        .map(|i| Vec3::from_radec_deg(10.0 + i as f64 * 0.01, 5.0))
        .collect();
    CrossMatchQuery::from_positions(QueryId(1), &positions, 1e-5, 14, Predicate::All)
}

/// A table with `n` non-empty buckets of varied depth and age, φ synced
/// against a 20-bucket resident set — the decision-path fixture.
fn decision_fixture(query: &CrossMatchQuery, n: usize) -> (WorkloadTable<'_>, BucketCache) {
    let mut table = WorkloadTable::new(n).with_object_counts(|_| 10_000);
    for b in 0..n {
        let item = WorkItem {
            query: query.id,
            bucket: BucketId(b as u32),
            object_indices: (0..((b as u32 * 31) % 8 + 1)).collect(),
        };
        table.enqueue(
            &item,
            query,
            SimTime::from_micros((b as u64 * 7_919) % 1_000_000),
        );
    }
    let mut cache = BucketCache::new(20);
    for b in 0..20u32 {
        cache.access(BucketId(b * 31 % n as u32));
    }
    table.sync_residency(&cache);
    (table, cache)
}

/// The tentpole's microscope: indexed `pick_top` vs the legacy
/// gather-and-score sweep, plus the index-maintenance cost itself, at
/// candidate-set sizes bracketing the e2e bench (256 / 2k / 16k).
fn bench_decision_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("decision_path");
    let now = SimTime::from_micros(2_000_000);
    let fixture_query = decision_query();
    for n in [256usize, 2_048, 16_384] {
        let (table, cache) = decision_fixture(&fixture_query, n);
        let view = TableView { now, table: &table };
        for (label, alpha) in [("greedy", 0.0), ("alpha05", 0.5), ("aged", 1.0)] {
            // The indexed pick: O(log n + resident) at the extremes, a
            // bounded frontier re-rank at mixed α.
            g.bench_with_input(
                BenchmarkId::new(format!("pick_top_{label}"), n),
                &n,
                |b, _| {
                    let mut s =
                        LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, alpha);
                    b.iter(|| s.pick(black_box(&view)).expect("non-empty"))
                },
            );
            // The legacy path: materialize every snapshot, score them all.
            g.bench_with_input(
                BenchmarkId::new(format!("gather_score_{label}"), n),
                &n,
                |b, _| {
                    let mut table = table.clone();
                    let s =
                        LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, alpha);
                    let mut out = Vec::new();
                    b.iter(|| {
                        table.snapshots_into(black_box(&mut out), &cache);
                        s.pick_index(black_box(now), black_box(&out))
                            .expect("non-empty")
                    })
                },
            );
        }
        // Index maintenance: one empty→non-empty enqueue plus a full drain
        // (two inserts + two removes across the index's orders).
        g.bench_with_input(BenchmarkId::new("index_enqueue_drain", n), &n, |b, _| {
            let (mut table, _) = decision_fixture(&fixture_query, n);
            let positions: Vec<Vec3> = (0..4)
                .map(|i| Vec3::from_radec_deg(10.0 + i as f64 * 0.01, 5.0))
                .collect();
            let query =
                CrossMatchQuery::from_positions(QueryId(2), &positions, 1e-5, 14, Predicate::All);
            let item = WorkItem {
                query: query.id,
                bucket: BucketId(0),
                object_indices: (0..4).collect(),
            };
            let mut drained = Vec::new();
            table.take_all_into(BucketId(0), &mut drained);
            b.iter(|| {
                table.enqueue(black_box(&item), &query, SimTime::from_micros(5));
                table.take_all_into(BucketId(0), &mut drained);
                drained.len()
            })
        });
    }
    g.finish();
}

/// The queue's microscope: run-level drains at co-queued depths bracketing
/// the e2e bench. `take_query` drains one query's run and re-appends it
/// (NoShare's steady state — O(1) chain release, no reads of other queries'
/// runs); `take_all` cycles the whole queue (the shared batch), once only
/// counting runs — what a cost-only batch does — and once materializing
/// `QueueEntry`s — what a real join pays on top.
fn bench_queue_drain(c: &mut Criterion) {
    use liferaft_query::WorkloadQueue;
    let mut g = c.benchmark_group("queue_drain");
    const CO_QUEUED: usize = 16;
    for depth in [256usize, 2_048, 16_384] {
        let per_query = depth / CO_QUEUED;
        let positions: Vec<Vec3> = (0..per_query)
            .map(|i| Vec3::from_radec_deg(10.0 + i as f64 * 0.001, 5.0))
            .collect();
        let queries: Vec<CrossMatchQuery> = (0..CO_QUEUED as u64)
            .map(|id| {
                CrossMatchQuery::from_positions(QueryId(id), &positions, 1e-5, 14, Predicate::All)
            })
            .collect();
        let indices: Vec<u32> = (0..per_query as u32).collect();
        fn append<'q>(queue: &mut WorkloadQueue<'q>, query: &'q CrossMatchQuery, indices: &[u32]) {
            let at = SimTime::from_micros(query.id.0);
            queue.push_chunk(query.id, &query.objects, indices, at);
        }
        let refill = |queue: &mut _, q: usize| append(queue, &queries[q], &indices);
        let mut queue = WorkloadQueue::new();
        (0..CO_QUEUED).for_each(|q| refill(&mut queue, q));
        g.bench_with_input(
            BenchmarkId::new("take_query_refill", depth),
            &depth,
            |b, _| {
                let mut queue = queue.clone();
                let mut victim = 0usize;
                b.iter(|| {
                    queue.drain_runs(Some(QueryId(victim as u64)), |run| {
                        black_box(run.len());
                    });
                    refill(&mut queue, victim);
                    victim = (victim + 1) % CO_QUEUED;
                    queue.len()
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("take_all_counted_refill", depth),
            &depth,
            |b, _| {
                let mut queue = queue.clone();
                b.iter(|| {
                    queue.drain_runs(None, |run| {
                        black_box((run.query(), run.len()));
                    });
                    (0..CO_QUEUED).for_each(|q| refill(&mut queue, q));
                    queue.len()
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("take_all_materialized_refill", depth),
            &depth,
            |b, _| {
                let mut queue = queue.clone();
                let mut scratch: Vec<QueueEntry> = Vec::new();
                b.iter(|| {
                    scratch.clear();
                    queue.drain_runs(None, |run| scratch.extend(run.entries()));
                    (0..CO_QUEUED).for_each(|q| refill(&mut queue, q));
                    scratch.len()
                })
            },
        );
    }
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("bucket_cache_access_20", |b| {
        let mut cache = BucketCache::new(20);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 64;
            cache.access(BucketId(black_box(i)))
        })
    });
}

fn bench_preprocess(c: &mut Criterion) {
    const LEVEL: u8 = 14;
    let cat = VirtualCatalog::new(LEVEL, 1_024, 10_000, 4096, 3);
    let positions: Vec<Vec3> = (0..200)
        .map(|i| Vec3::from_radec_deg(150.0 + 0.01 * i as f64, 2.0))
        .collect();
    let query = liferaft_query::CrossMatchQuery::from_positions(
        QueryId(1),
        &positions,
        (10.0 / 3600.0_f64).to_radians(),
        LEVEL,
        liferaft_query::Predicate::All,
    );
    c.bench_function("preprocess_200_object_query", |b| {
        let pre = liferaft_query::QueryPreProcessor::new(cat.partition());
        b.iter(|| pre.preprocess(black_box(&query)))
    });
}

fn bench_materialize(c: &mut Criterion) {
    let cat = VirtualCatalog::new(14, 256, 10_000, 4096, 5);
    c.bench_function("virtual_bucket_materialize_10k", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 256;
            cat.bucket_objects(BucketId(black_box(i))).len()
        })
    });
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_htm, bench_joins, bench_scheduler, bench_candidates, bench_decision_path, bench_queue_drain, bench_cache, bench_preprocess, bench_materialize
}
criterion_main!(benches);

// Silence the unused-duration lint if criterion's config API changes.
#[allow(dead_code)]
fn _keep(_: SimDuration) {}
