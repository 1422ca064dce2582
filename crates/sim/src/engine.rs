//! The discrete-event simulation engine.
//!
//! The batch-execution machinery lives in [`EngineCore`], a stepped state
//! machine over one workload table + bucket cache + tracker. The one loop
//! that drives a core is the [`Driver`]: `Simulation` feeds it one arrival
//! at a time from a [`Feed`], and the sharded runtime (`liferaft-runtime`)
//! runs one per shard.

use std::borrow::Cow;
use std::collections::HashMap;
use std::thread;

use liferaft_catalog::{Catalog, SkyObject};
use liferaft_core::{
    BatchScope, BatchSpec, BucketSnapshot, DecisionStats, Lens, Scheduler, StarvationMonitor,
    TableView,
};
use liferaft_join::{hybrid, JoinStrategy};
use liferaft_query::{
    CrossMatchQuery, FragmentId, Predicate, QueryId, QueryTracker, QueueEntry, WorkItem,
    WorkloadQueue, WorkloadTable,
};
use liferaft_storage::{
    BucketCache, BucketId, CacheAccess, CostModel, IoStats, SimDuration, SimTime,
};
use liferaft_telemetry::{Event, EventKind, NullSink, TelemetrySink};
use liferaft_workload::TimedTrace;

use crate::config::SimConfig;
use crate::driver::{Driver, Fragment};
use crate::feed::Feed;
use crate::report::RunReport;

/// A simulation of one archive under one catalog and configuration.
///
/// `run` is reentrant: each call replays a trace from scratch with fresh
/// state, so the same `Simulation` drives whole parameter sweeps.
#[derive(Debug, Clone)]
pub struct Simulation<'a, C: Catalog + ?Sized> {
    catalog: &'a C,
    config: SimConfig,
}

impl<'a, C: Catalog + ?Sized> Simulation<'a, C> {
    /// Creates a simulation over `catalog` with the given configuration.
    pub fn new(catalog: &'a C, config: SimConfig) -> Self {
        config.validate();
        Simulation { catalog, config }
    }

    /// Replays `trace` under `scheduler` and reports the outcome.
    ///
    /// # Panics
    /// Panics if the scheduler violates its contract (refuses to pick while
    /// work is pending, picks an empty bucket, or picks a non-candidate) —
    /// all of these are policy bugs that must fail loudly, not skew results.
    pub fn run(&self, trace: &TimedTrace, scheduler: &mut dyn Scheduler) -> RunReport {
        self.run_with_sink(trace, scheduler, Box::new(NullSink)).0
    }

    /// [`run`](Self::run) with a flight-recorder sink attached: the engine
    /// records typed events at every instrumented seam (arrivals, decisions,
    /// batch boundaries, cache residency churn, completions) and returns the
    /// captured stream alongside the report. [`run`](Self::run) is this with
    /// a [`NullSink`] — the same code path, so recorded and unrecorded runs
    /// execute identical batch semantics.
    ///
    /// The runtime's window loop with one window per arrival: the [`Driver`]
    /// advances up to each arrival, then takes that query's one fragment from
    /// a [`Feed`] with one producer thread. The driver, the scheduler and the
    /// sink stay on the calling thread, so the run equals an inline split.
    pub fn run_with_sink(
        &self,
        trace: &TimedTrace,
        scheduler: &mut dyn Scheduler,
        sink: Box<dyn TelemetrySink>,
    ) -> (RunReport, Vec<Event>) {
        let mut core = EngineCore::new(self.catalog, self.config);
        core.set_sink(sink);
        let entries = trace.entries();
        let mut driver = Driver::new(core, entries, Vec::new(), Vec::new());
        thread::scope(|s| {
            let mut feed = Feed::new(s, self.catalog.partition(), entries, 1);
            for (i, (at, query)) in entries.iter().enumerate() {
                driver.advance_until(Some(*at), scheduler);
                let items = feed.next().expect("the feed yields every query");
                driver.append_fragments(vec![Fragment::new(i, query.id, *at, items)]);
            }
        });
        driver.advance_until(None, scheduler);
        let (report, events, _) = driver.finish(scheduler);
        (report, events)
    }
}

/// The portable state of one bucket leaving an [`EngineCore`] — the elastic
/// runtime's migration payload. Carries the bucket's queue as it stood (its
/// runs, with their original `enqueued_at` stamps, so ages survive the move,
/// still borrowing the queries' objects, so real joins still find their
/// payload at the destination), what the destination core's tracker needs
/// to adopt them, and the bucket's cache residency at the source.
#[derive(Debug, Clone)]
pub struct MigratedBucket<'q> {
    /// The migrating bucket.
    pub bucket: BucketId,
    /// Its queue, ages preserved.
    pub queue: WorkloadQueue<'q>,
    /// One row per run of `queue`, in `queue.runs()` order: the query's
    /// original arrival and its join predicate. The query, the fragment and
    /// the migrating assignment count are the run's own.
    pub queries: Vec<(SimTime, Predicate)>,
    /// Whether the bucket was cache-resident at the source when extracted.
    pub was_resident: bool,
}

impl MigratedBucket<'_> {
    /// Number of queued entries in the payload.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if the payload carries no entries.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// The batch-execution core: one workload table, bucket cache, tracker, and
/// starvation monitor, advanced one scheduling decision at a time.
///
/// The core owns no clock, no arrival process and no pre-processor: its
/// [`Driver`] delivers pre-processed work ([`deliver_items`](Self::deliver_items))
/// and asks for each decision.
pub struct EngineCore<'a, C: Catalog + ?Sized> {
    catalog: &'a C,
    config: SimConfig,
    table: WorkloadTable<'a>,
    tracker: QueryTracker,
    cache: BucketCache,
    io: IoStats,
    /// The rows of cache-resident buckets (populated only when joins
    /// execute): the host-side half of [`BucketCache`] residency. A scan
    /// that loads a bucket keeps its rows here, a scan hit reuses them, and
    /// whatever drops the residency — LRU eviction, migration, a wipe —
    /// drops the rows in the same call, so at most `cache_buckets` buckets
    /// are ever held. A bucket warmed by [`absorb_bucket`](Self::absorb_bucket)
    /// is resident without rows until its first scan materializes them.
    rows: HashMap<BucketId, Cow<'a, [SkyObject]>>,
    starvation: StarvationMonitor,
    /// Scratch: the batch in flight as `(query, assignments)` runs, in
    /// query order.
    batch_runs: Vec<(QueryId, u64)>,
    /// Scratch: the batch's materialized entries (real joins only).
    batch_entries: Vec<QueueEntry>,
    /// Scratch: the rows one index probe lands on (real joins only).
    probe_rows: Vec<SkyObject>,
    batches: u64,
    scan_batches: u64,
    indexed_batches: u64,
    serviced_entries: u64,
    cache_serviced_entries: u64,
    total_matches: u64,
    /// The flight recorder ([`NullSink`] by default: every emission site
    /// guards on `sink.enabled()`, so a disabled core executes the exact
    /// un-instrumented instruction stream).
    sink: Box<dyn TelemetrySink>,
}

impl<'a, C: Catalog + ?Sized> EngineCore<'a, C> {
    /// A fresh core over `catalog` with the given configuration.
    pub fn new(catalog: &'a C, config: SimConfig) -> Self {
        config.validate();
        let partition = catalog.partition();
        EngineCore {
            catalog,
            config,
            table: WorkloadTable::new(partition.num_buckets()),
            tracker: QueryTracker::new(),
            cache: BucketCache::new(config.cache_buckets),
            io: IoStats::default(),
            rows: HashMap::new(),
            starvation: StarvationMonitor::new(),
            batch_runs: Vec::new(),
            batch_entries: Vec::new(),
            probe_rows: Vec::new(),
            batches: 0,
            scan_batches: 0,
            indexed_batches: 0,
            serviced_entries: 0,
            cache_serviced_entries: 0,
            total_matches: 0,
            sink: Box::new(NullSink),
        }
    }

    /// Attaches a flight-recorder sink (replacing the default [`NullSink`]).
    /// Events are stamped with `shard = 0`; a multi-core driver rewrites the
    /// shard id when it drains the stream.
    pub fn set_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.sink = sink;
    }

    /// Drains the events recorded so far (record order), leaving the sink
    /// recording.
    pub fn take_events(&mut self) -> Vec<Event> {
        self.sink.take_events()
    }

    /// Events the sink has discarded (bounded sinks only).
    pub fn telemetry_dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// Enqueues pre-processed work items of `query` (all of them, or the
    /// subset one shard owns) arriving at `at`. The tracker registers exactly
    /// the delivered assignments, so a query split across several cores
    /// completes *per core* when its local fragment drains. The queues
    /// borrow the query's objects until its work drains, hence `&'a`.
    pub fn deliver_items(&mut self, query: &'a CrossMatchQuery, items: &[WorkItem], at: SimTime) {
        self.deliver_fragment(query, FragmentId::default(), items, at);
    }

    /// [`deliver_items`](Self::deliver_items) filed under `fragment`: the
    /// queued runs and the tracker record carry it.
    pub fn deliver_fragment(
        &mut self,
        query: &'a CrossMatchQuery,
        fragment: FragmentId,
        items: &[WorkItem],
        at: SimTime,
    ) {
        let assignments: u64 = items.iter().map(|i| i.len() as u64).sum();
        let work = items.iter().map(|i| (i.bucket, i.len() as u64));
        if self.tracker.arrival_of(query.id).is_some() {
            // A migration already carried part of this query here; the
            // fragment tops up the in-flight record (same arrival instant —
            // transferred work keeps the query's original arrival).
            if assignments > 0 {
                self.tracker
                    .transfer_in(query.id, fragment, at, query.predicate, work);
            }
        } else {
            self.tracker
                .register(query.id, fragment, at, query.predicate, work);
        }
        if self.sink.enabled() {
            self.sink.record(
                at,
                EventKind::QueryArrival {
                    query: query.id.0,
                    assignments,
                },
            );
        }
        if assignments == 0 {
            return;
        }
        for item in items {
            self.table.enqueue_fragment(item, query, fragment, at);
        }
    }

    /// True if no work is queued anywhere.
    pub fn is_idle(&self) -> bool {
        self.table.is_idle()
    }

    /// Total queued (object × bucket) entries — a shard's load signal.
    pub fn total_queued(&self) -> u64 {
        self.table.total_queued()
    }

    /// True when every delivered query has completed.
    pub fn all_complete(&self) -> bool {
        self.tracker.all_complete()
    }

    /// The per-query lifecycle tracker (completions appear in push order).
    pub fn tracker(&self) -> &QueryTracker {
        &self.tracker
    }

    /// The workload table — read-only, for load inspection (per-bucket queue
    /// depths via [`WorkloadTable::non_empty_buckets`] + `queue(b).len()`).
    pub fn workload(&self) -> &WorkloadTable<'a> {
        &self.table
    }

    /// Entries serviced so far — the controller's throughput signal.
    pub fn serviced_entries(&self) -> u64 {
        self.serviced_entries
    }

    /// Number of cache-resident buckets — the controller's residency signal.
    pub fn resident_buckets(&self) -> usize {
        self.cache.len()
    }

    /// Drops every cache-resident bucket — the crash model's residency
    /// loss. A shard that dies loses its page cache whatever happens to its
    /// queued work, so outage injection wipes residency at the window start
    /// in every configuration (failover on or off). Returns the number of
    /// buckets dropped.
    pub fn wipe_residency(&mut self) -> usize {
        let resident: Vec<BucketId> = self.cache.resident_lru_order().collect();
        for &b in &resident {
            self.cache.remove(b);
            self.set_resident(b, false);
        }
        resident.len()
    }

    /// Mirrors one change of the cache's resident set into the table's φ
    /// bit and, for a bucket that left, drops its rows — every such change
    /// ends here, so the scheduler and host memory follow the model.
    fn set_resident(&mut self, bucket: BucketId, resident: bool) {
        self.table.set_resident(bucket, resident);
        if !resident {
            self.rows.remove(&bucket);
        }
    }

    /// The table's resident candidates: the cached head of its throughput
    /// order, read one past the cache's size — enough to see every resident
    /// the pushes kept, or one too many.
    fn resident_candidates(&self) -> Vec<BucketSnapshot> {
        let head = self.table.walk(Lens::Throughput).take(self.cache.len() + 1);
        head.filter(|s| s.cached).collect()
    }

    /// True if the table's resident candidates are exactly the cache's
    /// resident buckets with queued work, and rows are held only for
    /// resident buckets — what the [`set_resident`](Self::set_resident)
    /// pushes keep, checked in O(cache capacity).
    fn residency_is_mirrored(&self) -> bool {
        let pushed = self.resident_candidates();
        let queued = |b: &BucketId| self.table.snapshot_of(*b).is_some();
        pushed.iter().all(|s| self.cache.contains(s.bucket))
            && pushed.len() == self.cache.resident_lru_order().filter(queued).count()
            && self.rows.keys().all(|b| self.cache.contains(*b))
    }

    /// Rips one bucket's queued state out of this core for migration: takes
    /// its queue (ages preserved), transfers the affected queries' pending
    /// assignments at the bucket out of the tracker at virtual time `at`,
    /// and evicts it from the cache (its residency travels in the payload).
    ///
    /// A query whose assignments all leave but which already serviced some
    /// entries here closes locally with `completion = at` — migration ends
    /// its story on this core.
    pub fn extract_bucket(&mut self, bucket: BucketId, at: SimTime) -> MigratedBucket<'a> {
        let queue = self.table.extract_bucket(bucket);
        let mut queries = Vec::new();
        for run in queue.runs() {
            let q = run.query();
            let (arrival, predicate) = self
                .tracker
                .arrival_of(q)
                .zip(self.tracker.predicate_of(q))
                .expect("queued run for a query the tracker does not know");
            queries.push((arrival, predicate));
            self.tracker
                .transfer_out(q, run.fragment(), bucket, run.len() as u64, at);
        }
        let was_resident = self.cache.remove(bucket);
        self.set_resident(bucket, false);
        MigratedBucket {
            bucket,
            queue,
            queries,
            was_resident,
        }
    }

    /// Adopts a migrated bucket: re-opens (or tops up) the affected queries
    /// at their original arrivals, merges the runs into the local table
    /// with ages intact, and — when the bucket was resident at its source —
    /// inserts it into the local cache (normal LRU effects apply, so this
    /// may evict another bucket).
    pub fn absorb_bucket(&mut self, payload: MigratedBucket<'a>) {
        for (run, &(arrival, predicate)) in payload.queue.runs().zip(&payload.queries) {
            let work = [(payload.bucket, run.len() as u64)];
            self.tracker
                .transfer_in(run.query(), run.fragment(), arrival, predicate, work);
        }
        self.table.merge_bucket(payload.bucket, &payload.queue);
        if payload.was_resident {
            if let Some(victim) = self.cache.insert(payload.bucket) {
                self.set_resident(victim, false);
            }
            self.set_resident(payload.bucket, true);
        }
    }

    /// Makes one scheduling decision at `now`, executes the chosen batch,
    /// and returns its virtual-time cost.
    ///
    /// Product code decides through the [`Driver`]; this is public for the
    /// benchmark's `traced_replay`, which drives a bare core.
    ///
    /// # Panics
    /// Panics if no work is pending or the scheduler violates its contract.
    pub fn decide_and_execute(
        &mut self,
        scheduler: &mut dyn Scheduler,
        now: SimTime,
    ) -> SimDuration {
        let spec = self.decide(scheduler, now);
        self.execute_batch(spec, now, 1.0)
    }

    /// [`decide_and_execute`](Self::decide_and_execute) with the batch's cost
    /// multiplied by `cost_factor` (exactly 1.0 is the identity).
    pub(crate) fn decide_and_execute_scaled(
        &mut self,
        scheduler: &mut dyn Scheduler,
        now: SimTime,
        cost_factor: f64,
    ) -> SimDuration {
        let spec = self.decide(scheduler, now);
        self.execute_batch(spec, now, cost_factor)
    }

    /// Makes one scheduling decision at `now` and books it (telemetry, the
    /// starvation monitor).
    fn decide(&mut self, scheduler: &mut dyn Scheduler, now: SimTime) -> BatchSpec {
        // Every cache change has already pushed its φ bit, so the decision
        // runs entirely against the index: no gather, no scoring sweep.
        debug_assert!(
            self.residency_is_mirrored(),
            "a residency change was not pushed"
        );
        let telemetry = self.sink.enabled();
        // Frontier-vs-fallback attribution: diff the scheduler's decision
        // counters across the pick (both counters are cumulative).
        let stats_before = if telemetry {
            scheduler.decision_stats()
        } else {
            DecisionStats::default()
        };
        let view = TableView {
            now,
            table: &self.table,
            tracker: &self.tracker,
        };
        let spec = scheduler
            .pick(&view)
            .expect("scheduler must pick while work is pending");
        assert!(
            self.table.snapshot_of(spec.bucket).is_some(),
            "scheduler picked a bucket with no pending work"
        );
        if telemetry {
            let stats_after = scheduler.decision_stats();
            self.sink.record(
                now,
                EventKind::Decision {
                    bucket: spec.bucket.0,
                    candidates: self.table.candidate_count() as u64,
                    frontier: stats_after.frontier_picks > stats_before.frontier_picks,
                },
            );
        }
        // Starvation accounting in O(log n): the oldest wait left behind is
        // the age-lens maximum once the picked bucket is excluded.
        let oldest_passed = self
            .table
            .walk(Lens::Age)
            .find(|s| s.bucket != spec.bucket)
            .map(|s| s.oldest_enqueue);
        self.starvation.record_decision(now, oldest_passed);
        spec
    }

    /// Executes one batch and returns its virtual-time cost.
    fn execute_batch(&mut self, spec: BatchSpec, now: SimTime, cost_factor: f64) -> SimDuration {
        // Drain the batch as runs: `(query, assignments)` rows are all the
        // cost model and the completion accounting need. Only a real join
        // reads the queued objects, so only then are entries materialized.
        let only = match spec.scope {
            BatchScope::AllQueued => None,
            BatchScope::SingleQuery(q) => Some(q),
        };
        let share_io = spec.scope == BatchScope::AllQueued;
        let (runs, entries) = (&mut self.batch_runs, &mut self.batch_entries);
        let execute_joins = self.config.execute_joins;
        runs.clear();
        entries.clear();
        let w = self.table.drain_runs(spec.bucket, only, |run| {
            runs.push((run.query(), run.len() as u64));
            if execute_joins {
                entries.extend(run.entries());
            }
        }) as u64;
        assert!(w > 0, "scheduler scheduled an empty batch");
        let meta = self.catalog.meta(spec.bucket);

        // The hybrid join decision belongs to LifeRaft's Join Evaluator
        // (Figure 3), and the cost model makes it as it prices the batch.
        // NoShare's single-query batches model the pre-existing scan-based
        // evaluation: no warm cache, no hybrid fallback.
        let cached = share_io && self.cache.contains(spec.bucket);
        let cost_model = if share_io {
            self.config.cost
        } else {
            CostModel {
                threshold_ratio: 0.0,
                ..self.config.cost
            }
        };
        let (strategy, cost) = cost_model.charge(w, meta.object_count, cached);

        let telemetry = self.sink.enabled();
        if telemetry {
            self.sink.record(
                now,
                EventKind::BatchStart {
                    bucket: spec.bucket.0,
                    entries: w,
                    cached,
                    indexed: matches!(strategy, JoinStrategy::Indexed),
                },
            );
        }

        match strategy {
            JoinStrategy::SequentialScan => {
                if share_io {
                    match self.cache.access(spec.bucket) {
                        CacheAccess::Hit if telemetry => {
                            let bucket = spec.bucket.0;
                            self.sink.record(now, EventKind::CacheHit { bucket });
                        }
                        CacheAccess::Hit => {}
                        CacheAccess::Miss { evicted } => {
                            if let Some(victim) = evicted {
                                self.set_resident(victim, false);
                                if telemetry {
                                    let bucket = victim.0;
                                    self.sink.record(now, EventKind::CacheEvict { bucket });
                                }
                            }
                            self.set_resident(spec.bucket, true);
                            if telemetry {
                                let bucket = spec.bucket.0;
                                self.sink.record(now, EventKind::CacheInsert { bucket });
                            }
                        }
                    }
                }
                self.scan_batches += 1;
                if cached {
                    self.cache_serviced_entries += w;
                } else {
                    self.io.bucket_reads += 1;
                }
            }
            JoinStrategy::Indexed => {
                // Random probes bypass the bucket cache entirely.
                self.io.index_probes += w;
                self.indexed_batches += 1;
            }
        }
        debug_assert!(
            cost_factor.is_finite() && cost_factor >= 1.0,
            "cost factor must be a slowdown, got {cost_factor}"
        );
        let cost = if cost_factor == 1.0 {
            cost
        } else {
            SimDuration::from_secs_f64(cost.as_secs_f64() * cost_factor)
        };
        self.batches += 1;
        self.serviced_entries += w;

        if self.config.execute_joins {
            // The host reads what the model just charged for. A shared scan
            // leaves the bucket resident, so its rows are materialized on
            // the miss and kept for the hits that follow; an unshared scan
            // materializes and discards; index probes touch only the rows
            // inside each entry's bounding range.
            let catalog = self.catalog;
            match strategy {
                JoinStrategy::SequentialScan => {
                    let held = if share_io {
                        self.rows.remove(&spec.bucket)
                    } else {
                        None
                    };
                    let rows = held.unwrap_or_else(|| catalog.bucket_objects(spec.bucket));
                    self.total_matches +=
                        accepted_matches(&self.tracker, strategy, &rows, &self.batch_entries);
                    if share_io {
                        self.rows.insert(spec.bucket, rows);
                    }
                }
                JoinStrategy::Indexed => {
                    for entry in &self.batch_entries {
                        self.probe_rows.clear();
                        catalog.objects_in(
                            spec.bucket,
                            entry.bbox.lo(),
                            entry.bbox.hi(),
                            &mut self.probe_rows,
                        );
                        self.total_matches += accepted_matches(
                            &self.tracker,
                            strategy,
                            &self.probe_rows,
                            std::slice::from_ref(entry),
                        );
                    }
                }
            }
        }

        // Account completions at batch end, in QueryId order — the order the
        // runs drained in — so the completion sequence (and thus the report)
        // is deterministic even when one batch finishes several queries at
        // the same instant. Records close only here, after the join read
        // their predicates.
        let end = now + cost;
        for &(q, n) in &self.batch_runs {
            let outcome = self.tracker.complete_assignments(q, spec.bucket, n, end);
            if telemetry {
                if let Some(o) = outcome {
                    self.sink.record(
                        end,
                        EventKind::QueryComplete {
                            query: q.0,
                            assignments: o.assignments,
                            response: o.response_time(),
                        },
                    );
                }
            }
        }
        if telemetry {
            self.sink.record(
                end,
                EventKind::BatchEnd {
                    bucket: spec.bucket.0,
                    entries: w,
                },
            );
        }
        cost
    }

    /// Consumes the core into a [`RunReport`] labelled with `scheduler`'s
    /// name and carrying its decision-path counters, with `queries` as the
    /// denominator of the throughput statistic.
    pub fn into_report(self, scheduler: &dyn Scheduler, queries: usize) -> RunReport {
        let stats = scheduler.decision_stats();
        let outcomes = self.tracker.completed().to_vec();
        RunReport {
            cache: self.cache.stats(),
            io: self.io,
            batches: self.batches,
            scan_batches: self.scan_batches,
            indexed_batches: self.indexed_batches,
            serviced_entries: self.serviced_entries,
            cache_serviced_entries: self.cache_serviced_entries,
            frontier_picks: stats.frontier_picks,
            fallback_picks: stats.fallback_picks,
            total_matches: self.total_matches,
            max_wait_ms: self.starvation.max_wait_ms(),
            ..RunReport::from_outcomes(scheduler.name(), queries, outcomes)
        }
    }
}

/// Joins `entries` against `rows` and counts the pairs whose catalog row
/// passes the owning query's predicate, read from its in-flight record.
fn accepted_matches(
    tracker: &QueryTracker,
    strategy: JoinStrategy,
    rows: &[SkyObject],
    entries: &[QueueEntry],
) -> u64 {
    let out = hybrid::execute(strategy, rows, entries);
    let accepted = out.pairs.iter().filter(|pair| {
        let pred = tracker
            .predicate_of(pair.query)
            .expect("a joined query is in flight");
        pred.accepts_mag(rows[pair.catalog_index as usize].mag)
    });
    accepted.count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_catalog::{generate::uniform_sky, MaterializedCatalog, Partition, VirtualCatalog};
    use liferaft_core::{
        AgingMode, LifeRaftScheduler, NoShareScheduler, RoundRobinScheduler, SchedulerView,
    };
    use liferaft_htm::HtmId;
    use liferaft_query::{CrossMatchQuery, Predicate, QueryPreProcessor};
    use liferaft_workload::arrivals::uniform_arrivals;
    use liferaft_workload::Trace;
    use std::sync::atomic::{AtomicU64, Ordering};

    const LEVEL: u8 = 8;

    fn catalog() -> MaterializedCatalog {
        let sky = uniform_sky(2_000, LEVEL, 1);
        MaterializedCatalog::build(&sky, LEVEL, 100, 4096)
    }

    fn small_trace(cat: &MaterializedCatalog, n: usize) -> Trace {
        // Queries anchored on catalog objects so real joins find matches.
        let queries: Vec<CrossMatchQuery> = (0..n)
            .map(|i| {
                let objs = cat.bucket_objects(BucketId((i % 5) as u32 * 3));
                let positions: Vec<_> = objs.iter().step_by(10).map(|o| o.pos).collect();
                CrossMatchQuery::from_positions(
                    QueryId(i as u64),
                    &positions,
                    1e-4,
                    LEVEL,
                    Predicate::All,
                )
            })
            .collect();
        Trace::new(LEVEL, queries)
    }

    fn params() -> CostModel {
        CostModel::paper()
    }

    /// A catalog that counts what the engine asks of it: whole-bucket
    /// materializations and index-probe spans.
    struct CountingCatalog<C> {
        inner: C,
        full: AtomicU64,
        probes: AtomicU64,
    }

    impl<C: Catalog> CountingCatalog<C> {
        fn new(inner: C) -> Self {
            CountingCatalog {
                inner,
                full: AtomicU64::new(0),
                probes: AtomicU64::new(0),
            }
        }

        fn full(&self) -> u64 {
            self.full.load(Ordering::Relaxed)
        }
    }

    impl<C: Catalog> Catalog for CountingCatalog<C> {
        fn partition(&self) -> &Partition {
            self.inner.partition()
        }

        fn bucket_objects(&self, id: BucketId) -> Cow<'_, [SkyObject]> {
            self.full.fetch_add(1, Ordering::Relaxed);
            self.inner.bucket_objects(id)
        }

        fn objects_in(&self, id: BucketId, lo: HtmId, hi: HtmId, out: &mut Vec<SkyObject>) {
            self.probes.fetch_add(1, Ordering::Relaxed);
            self.inner.objects_in(id, lo, hi, out)
        }
    }

    fn virtual_catalog() -> VirtualCatalog {
        VirtualCatalog::new(LEVEL, 32, 100, 4096, 7)
    }

    /// Wide queries (25 objects in one bucket: scans) interleaved with
    /// narrow ones (a single object: an index probe when queued alone on a
    /// cold bucket), under three kinds of predicate. Consecutive queries
    /// pair up on a bucket (cache hits) and the pairs cycle over a dozen
    /// buckets — four times the 3-bucket cache of [`residency_config`].
    fn mixed_trace(cat: &dyn Catalog) -> Trace {
        let queries: Vec<CrossMatchQuery> = (0..60u64)
            .map(|i| {
                let rows = cat.bucket_objects(BucketId((i / 2 % 12) as u32 * 2 + 1));
                let step = if i % 3 == 2 { 100 } else { 4 };
                let positions: Vec<_> = rows
                    .iter()
                    .skip(i as usize % 4)
                    .step_by(step)
                    .map(|o| o.pos)
                    .collect();
                let predicate = match i % 3 {
                    0 => Predicate::All,
                    1 => Predicate::MagRange {
                        min: 15.0,
                        max: 20.0,
                    },
                    _ => Predicate::BrighterThan(19.0),
                };
                CrossMatchQuery::from_positions(QueryId(i), &positions, 1e-4, LEVEL, predicate)
            })
            .collect();
        Trace::new(LEVEL, queries)
    }

    fn residency_config() -> SimConfig {
        SimConfig {
            cache_buckets: 3,
            ..SimConfig::with_real_joins()
        }
    }

    /// The match count of `timed` computed without the engine: every
    /// bucket's whole workload joined against a freshly generated copy of
    /// the bucket, each pair filtered by its query's predicate (`All` for
    /// every query when `apply_predicates` is off).
    fn reference_matches(cat: &dyn Catalog, timed: &TimedTrace, apply_predicates: bool) -> u64 {
        let pre = QueryPreProcessor::new(cat.partition());
        let mut table = WorkloadTable::new(cat.partition().num_buckets());
        let mut predicates = HashMap::new();
        for (at, query) in timed.entries() {
            if apply_predicates {
                predicates.insert(query.id, query.predicate);
            }
            for item in pre.preprocess(query) {
                table.enqueue(&item, query, *at);
            }
        }
        let mut entries = Vec::new();
        let mut matches = 0;
        for bucket in table.non_empty_buckets().to_vec() {
            table.take_all_into(bucket, &mut entries);
            let rows = cat.bucket_objects(bucket);
            let out = hybrid::execute(JoinStrategy::SequentialScan, &rows, &entries);
            let accepted = out.pairs.iter().filter(|pair| {
                let pred = predicates.get(&pair.query).unwrap_or(&Predicate::All);
                pred.accepts_mag(rows[pair.catalog_index as usize].mag)
            });
            matches += accepted.count() as u64;
        }
        matches
    }

    /// `timed`'s queries as the fragments `Simulation` feeds, one per
    /// arrival, released at their arrivals.
    fn fragments_of(cat: &dyn Catalog, timed: &TimedTrace) -> Vec<Fragment> {
        let pre = QueryPreProcessor::new(cat.partition());
        let entries = timed.entries().iter().enumerate();
        entries
            .map(|(i, (at, q))| Fragment::new(i, q.id, *at, pre.preprocess(q)))
            .collect()
    }

    /// A driver over a fresh core, holding nothing yet.
    fn empty<'a, C: Catalog>(
        cat: &'a C,
        config: SimConfig,
        timed: &'a TimedTrace,
    ) -> Driver<'a, C> {
        Driver::new(
            EngineCore::new(cat, config),
            timed.entries(),
            Vec::new(),
            Vec::new(),
        )
    }

    /// A driver holding all of `timed` up front (the runtime's one-window
    /// shape).
    fn loaded<'a, C: Catalog>(
        cat: &'a C,
        config: SimConfig,
        timed: &'a TimedTrace,
    ) -> Driver<'a, C> {
        let mut run = empty(cat, config, timed);
        run.append_fragments(fragments_of(cat, timed));
        run
    }

    #[test]
    fn host_materialization_follows_the_residency_model() {
        let cat = CountingCatalog::new(virtual_catalog());
        let timed = mixed_trace(&cat.inner).with_arrivals(uniform_arrivals(0.5, 60));
        let reference = reference_matches(&cat.inner, &timed, true);
        assert!(reference > 0, "fixture must find matches");
        let config = residency_config();

        // LifeRaft: rows live exactly as long as residency does.
        let (mut indexed_seen, mut full_seen) = (0, 0);
        let mut run = loaded(&cat, config, &timed);
        let mut greedy = LifeRaftScheduler::greedy(params());
        while run.step(&mut greedy) {
            let core = run.core();
            assert!(core.rows.len() <= config.cache_buckets);
            assert!(core.rows.keys().all(|b| core.cache.contains(*b)));
            if core.indexed_batches > indexed_seen {
                assert_eq!(cat.full(), full_seen, "an indexed batch read a bucket");
            }
            (indexed_seen, full_seen) = (core.indexed_batches, cat.full());
        }
        let (report, ..) = run.finish(&greedy);
        assert!(report.indexed_batches > 0 && report.cache.hits > 0 && report.cache.evictions > 0);
        assert_eq!(cat.full(), report.io.bucket_reads);
        assert_eq!(cat.probes.load(Ordering::Relaxed), report.io.index_probes);
        assert_eq!(report.total_matches, reference);

        // NoShare: every batch reads its bucket and keeps nothing.
        let cat = CountingCatalog::new(virtual_catalog());
        let mut run = loaded(&cat, config, &timed);
        let mut noshare = NoShareScheduler::new();
        while run.step(&mut noshare) {
            assert!(run.core().rows.is_empty());
        }
        let (report, ..) = run.finish(&noshare);
        assert_eq!(report.batches, report.io.bucket_reads);
        assert_eq!(cat.full(), report.io.bucket_reads);
        assert_eq!(report.total_matches, reference);
    }

    #[test]
    fn dropping_residency_drops_the_rows() {
        let cat = CountingCatalog::new(virtual_catalog());
        let timed = mixed_trace(&cat.inner).with_arrivals(uniform_arrivals(50.0, 60));
        let mut run = empty(&cat, residency_config(), &timed);
        let mut sched = LifeRaftScheduler::greedy(params());
        // Serve the first half, then queue the second half behind whatever
        // the first left resident (admitting it runs one batch).
        let mut first_half = fragments_of(&cat, &timed);
        let second_half = first_half.split_off(30);
        run.append_fragments(first_half);
        run.advance_until(None, &mut sched);
        run.append_fragments(second_half);
        assert!(run.step(&mut sched));
        let core = run.core();
        assert_eq!(core.rows.len(), 3);
        let mut held = core.rows.keys().copied();
        let bucket = held
            .find(|&b| !core.workload().queue(b).is_empty())
            .expect("fixture must queue work behind a resident bucket");

        let now = run.now();
        let payload = run.extract_bucket(bucket, now);
        assert!(payload.was_resident);
        assert_eq!(run.core().rows.len(), 2);
        assert!(
            !run.core().rows.contains_key(&bucket),
            "a migrated bucket kept rows"
        );
        // Moving it back warms it without rows; a wipe then drops all three.
        run.absorb_bucket(payload, now, SimDuration::ZERO);
        assert_eq!(run.core().rows.len(), 2);
        assert_eq!(run.core_mut().wipe_residency(), 3);
        assert!(run.core().rows.is_empty(), "a wiped core kept rows");

        // The next scan of that bucket is a miss on both sides.
        let (reads, full) = (run.core().io.bucket_reads, cat.full());
        while !run.core().workload().queue(bucket).is_empty() {
            run.step(&mut sched);
        }
        assert!(run.core().rows.contains_key(&bucket));
        assert!(cat.full() > full);
        assert_eq!(cat.full() - full, run.core().io.bucket_reads - reads);
        run.advance_until(None, &mut sched);
        let (report, ..) = run.finish(&sched);
        assert_eq!(cat.full(), report.io.bucket_reads);
        assert_eq!(
            report.total_matches,
            reference_matches(&cat.inner, &timed, true)
        );
    }

    #[test]
    fn predicates_leave_with_their_queries() {
        let cat = virtual_catalog();
        let timed = mixed_trace(&cat).with_arrivals(uniform_arrivals(0.5, 60));
        let unpruned = reference_matches(&cat, &timed, true);
        assert_ne!(
            unpruned,
            reference_matches(&cat, &timed, false),
            "fixture predicates must reject something"
        );
        let mut most_held = 0;
        let mut run = loaded(&cat, residency_config(), &timed);
        let mut greedy = LifeRaftScheduler::greedy(params());
        while run.step(&mut greedy) {
            most_held = most_held.max(run.core().tracker.pending_count());
        }
        let core = run.core();
        assert!(core.all_complete());
        assert!(most_held < timed.len(), "the run never overlapped queries");
        assert_eq!(core.total_matches, unpruned);
    }

    #[test]
    fn all_schedulers_complete_all_queries() {
        let cat = catalog();
        let trace = small_trace(&cat, 12);
        let timed = trace.with_arrivals(uniform_arrivals(0.5, 12));
        let sim = Simulation::new(&cat, SimConfig::paper());
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(NoShareScheduler::new()),
            Box::new(RoundRobinScheduler::new()),
            Box::new(LifeRaftScheduler::greedy(params())),
            Box::new(LifeRaftScheduler::age_based(params())),
            Box::new(LifeRaftScheduler::new(params(), AgingMode::Normalized, 0.5)),
        ];
        for s in &mut schedulers {
            let report = sim.run(&timed, s.as_mut());
            assert_eq!(report.queries, 12, "{}", report.scheduler);
            assert_eq!(report.outcomes.len(), 12);
            assert!(report.throughput_qps > 0.0);
            assert!(report.makespan_s > 0.0);
            assert!(report.batches > 0);
            assert_eq!(report.batches, report.scan_batches + report.indexed_batches);
        }
    }

    #[test]
    fn real_joins_produce_identical_matches_across_schedulers() {
        let cat = catalog();
        let trace = small_trace(&cat, 8);
        let timed = trace.with_arrivals(uniform_arrivals(0.5, 8));
        let sim = Simulation::new(&cat, SimConfig::with_real_joins());
        let mut baseline = None;
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(NoShareScheduler::new()),
            Box::new(RoundRobinScheduler::new()),
            Box::new(LifeRaftScheduler::greedy(params())),
            Box::new(LifeRaftScheduler::age_based(params())),
        ];
        for s in &mut schedulers {
            let report = sim.run(&timed, s.as_mut());
            assert!(
                report.total_matches > 0,
                "{} found nothing",
                report.scheduler
            );
            match baseline {
                None => baseline = Some(report.total_matches),
                Some(b) => assert_eq!(
                    report.total_matches, b,
                    "{} disagrees on matches",
                    report.scheduler
                ),
            }
        }
    }

    #[test]
    fn batching_shares_io_relative_to_noshare() {
        let cat = catalog();
        // Many queries over the same few buckets, arriving together.
        let trace = small_trace(&cat, 20);
        let timed = trace.with_arrivals(uniform_arrivals(10.0, 20));
        let sim = Simulation::new(&cat, SimConfig::paper());
        let noshare = sim.run(&timed, &mut NoShareScheduler::new());
        let greedy = sim.run(&timed, &mut LifeRaftScheduler::greedy(params()));
        assert!(
            greedy.io.bucket_reads < noshare.io.bucket_reads,
            "sharing must reduce bucket reads: {} vs {}",
            greedy.io.bucket_reads,
            noshare.io.bucket_reads
        );
        assert!(greedy.throughput_qps > noshare.throughput_qps);
        assert!(greedy.mean_batch_size() > noshare.mean_batch_size());
    }

    #[test]
    fn response_times_are_positive_and_bounded_by_makespan() {
        let cat = catalog();
        let trace = small_trace(&cat, 10);
        let timed = trace.with_arrivals(uniform_arrivals(1.0, 10));
        let sim = Simulation::new(&cat, SimConfig::paper());
        let report = sim.run(&timed, &mut LifeRaftScheduler::greedy(params()));
        for o in &report.outcomes {
            let rt = o.response_time().as_secs_f64();
            assert!(rt > 0.0);
            assert!(rt <= report.makespan_s);
        }
    }

    #[test]
    fn conservation_every_assignment_serviced_exactly_once() {
        let cat = catalog();
        let trace = small_trace(&cat, 15);
        let pre = QueryPreProcessor::new(cat.partition());
        let expected: u64 = trace
            .queries()
            .iter()
            .map(|q| {
                pre.preprocess(q)
                    .iter()
                    .map(|i| i.len() as u64)
                    .sum::<u64>()
            })
            .sum();
        let timed = trace.with_arrivals(uniform_arrivals(2.0, 15));
        let sim = Simulation::new(&cat, SimConfig::paper());
        for s in [
            &mut NoShareScheduler::new() as &mut dyn Scheduler,
            &mut RoundRobinScheduler::new(),
            &mut LifeRaftScheduler::greedy(params()),
        ] {
            let report = sim.run(&timed, s);
            assert_eq!(report.serviced_entries, expected, "{}", report.scheduler);
        }
    }

    #[test]
    fn empty_trace_completes_trivially() {
        let cat = catalog();
        let trace = Trace::new(LEVEL, vec![]);
        let timed = trace.with_arrivals(vec![]);
        let sim = Simulation::new(&cat, SimConfig::paper());
        let report = sim.run(&timed, &mut LifeRaftScheduler::greedy(params()));
        assert_eq!(report.queries, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.throughput_qps, 0.0);
    }

    #[test]
    fn migrating_buckets_between_cores_conserves_all_work() {
        let cat = catalog();
        let trace = small_trace(&cat, 10);
        let timed = trace.with_arrivals(uniform_arrivals(50.0, 10));
        // Real joins: the migrated runs must still reach their queries'
        // objects at the destination, or matches go missing.
        let config = SimConfig::with_real_joins();
        let unmigrated = Simulation::new(&cat, config)
            .run(&timed, &mut LifeRaftScheduler::greedy(params()))
            .total_matches;
        assert!(unmigrated > 0, "fixture must find matches");
        let mut src = empty(&cat, config, &timed);
        let mut dst = empty(&cat, config, &timed);
        let mut sched_src = LifeRaftScheduler::greedy(params());
        let mut sched_dst = LifeRaftScheduler::greedy(params());
        // The whole trace is handed over just after its last arrival; the
        // first step admits all of it and runs one batch.
        let last_arrival = timed.entries().last().expect("fixture has queries").0;
        let at = last_arrival + SimDuration::from_millis(1);
        let fragments: Vec<Fragment> = fragments_of(&cat, &timed)
            .into_iter()
            .map(|f| Fragment { release: at, ..f })
            .collect();
        let expected: u64 = fragments.iter().map(|f| f.assignments).sum();
        src.append_fragments(fragments);
        assert!(src.step(&mut sched_src));
        // Move every other pending bucket to the destination core.
        let buckets: Vec<BucketId> = src.core().workload().non_empty_buckets().to_vec();
        let now = src.now();
        let mut moved_entries = 0u64;
        for (i, &b) in buckets.iter().enumerate() {
            if i % 2 == 0 {
                continue;
            }
            let payload = src.extract_bucket(b, now);
            moved_entries += payload.len() as u64;
            dst.absorb_bucket(payload, now, SimDuration::ZERO);
        }
        assert!(moved_entries > 0, "fixture must migrate something");
        let (s, d) = (src.core(), dst.core());
        assert_eq!(
            s.serviced_entries() + s.total_queued() + d.total_queued(),
            expected
        );
        s.workload().validate_index();
        d.workload().validate_index();
        // Both cores drain independently; together they service every
        // assignment exactly once. The source crashes half-way: residency
        // and the rows behind it go, the queued work and its matches stay.
        let mut crash_below = Some(src.core().total_queued() / 2);
        while src.step(&mut sched_src) {
            if crash_below.is_some_and(|half| src.core().total_queued() <= half) {
                crash_below = None;
                let src = src.core_mut();
                assert!(src.wipe_residency() > 0, "fixture must crash a warm core");
                assert!(src.rows.is_empty());
            }
        }
        dst.advance_until(None, &mut sched_dst);
        let (s, d) = (src.core(), dst.core());
        assert!(s.all_complete() && d.all_complete());
        assert_eq!(s.serviced_entries() + d.serviced_entries(), expected);
        // …and together they find exactly the unmigrated run's matches.
        let src_matches = src.finish(&sched_src).0.total_matches;
        let dst_matches = dst.finish(&sched_dst).0.total_matches;
        assert!(
            dst_matches > 0,
            "the destination joined nothing it absorbed"
        );
        assert_eq!(src_matches + dst_matches, unmigrated);
    }

    #[test]
    fn migration_can_carry_cache_residency() {
        let cat = catalog();
        let trace = small_trace(&cat, 6);
        let timed = trace.with_arrivals(uniform_arrivals(50.0, 6));
        let mut src = loaded(&cat, SimConfig::paper(), &timed);
        let mut dst = empty(&cat, SimConfig::paper(), &timed);
        let mut sched = LifeRaftScheduler::greedy(params());
        // Execute a few batches so some bucket becomes cache-resident with
        // work still queued behind it.
        let mut hot = None;
        for _ in 0..64 {
            if !src.step(&mut sched) {
                break;
            }
            let core = src.core();
            hot = core
                .workload()
                .non_empty_buckets()
                .iter()
                .copied()
                .find(|&b| core.resident_buckets() > 0 && !core.workload().queue(b).is_empty());
            if hot.is_some() {
                break;
            }
        }
        let Some(bucket) = hot else {
            panic!("fixture never produced a pending bucket alongside residency");
        };
        let now = src.now();
        let resident_before = src.core().resident_buckets();
        let payload = src.extract_bucket(bucket, now);
        if payload.was_resident {
            assert_eq!(src.core().resident_buckets(), resident_before - 1);
        }
        let dst_resident_before = dst.core().resident_buckets();
        let was_resident = payload.was_resident;
        dst.absorb_bucket(payload, now, SimDuration::ZERO);
        if was_resident {
            assert_eq!(dst.core().resident_buckets(), dst_resident_before + 1);
        }
        dst.core().workload().validate_index();
    }

    /// NoShare's cursor is the query's record, and the record follows the
    /// work wherever it goes: a move out, a move in at a lower bucket, a
    /// second fragment into a bucket it already holds, and each drain.
    #[test]
    fn noshare_cursor_follows_moved_work() {
        let cat = catalog();
        let positions: Vec<_> = [3u32, 6, 9, 12, 15]
            .iter()
            .flat_map(|&b| {
                let rows = cat.bucket_objects(BucketId(b));
                rows.iter().take(2).map(|o| o.pos).collect::<Vec<_>>()
            })
            .collect();
        let query =
            CrossMatchQuery::from_positions(QueryId(0), &positions, 1e-4, LEVEL, Predicate::All);
        let mut items = QueryPreProcessor::new(cat.partition()).preprocess(&query);
        items.sort_by_key(|i| i.bucket);
        assert!(items.len() >= 4, "fixture must span several buckets");
        let q = query.id;
        let t0 = SimTime::from_micros(1_000);
        let mut core = EngineCore::new(&cat, SimConfig::paper());
        let check = |core: &EngineCore<'_, MaterializedCatalog>, step: &str| {
            let scan = (0..cat.partition().num_buckets() as u32)
                .map(BucketId)
                .find(|&b| core.table.queue(b).pending_of(q) > 0);
            let view = TableView {
                now: t0,
                table: &core.table,
                tracker: &core.tracker,
            };
            assert_eq!(view.first_pending_bucket_of(q), scan, "after {step}");
        };

        // 1. Deliver all but the lowest bucket's item.
        let (low, rest) = items.split_first().expect("non-empty");
        core.deliver_fragment(&query, FragmentId(0), rest, t0);
        check(&core, "delivery");
        // 2. Move its lowest bucket out.
        let moved = core.extract_bucket(rest[0].bucket, t0);
        assert!(!moved.is_empty());
        check(&core, "extract_bucket");
        // 3. Move the query's run at a lower bucket in from another core.
        let mut other = EngineCore::new(&cat, SimConfig::paper());
        other.deliver_fragment(&query, FragmentId(1), std::slice::from_ref(low), t0);
        core.absorb_bucket(other.extract_bucket(low.bucket, t0));
        assert_eq!(core.tracker.first_pending_bucket(q), Some(low.bucket));
        check(&core, "absorb_bucket");
        // 4. A second fragment into a bucket the query already holds.
        core.deliver_fragment(&query, FragmentId(2), std::slice::from_ref(&rest[2]), t0);
        check(&core, "a hedge copy");
        // 5. One NoShare batch drains the query's first bucket, then the rest.
        let mut noshare = NoShareScheduler::new();
        let mut now = t0;
        while !core.is_idle() {
            now = now + core.decide_and_execute(&mut noshare, now);
            check(&core, "a SingleQuery batch");
        }
        assert!(core.all_complete());
    }

    #[test]
    fn greedy_uses_cache_more_than_age_based() {
        let cat = catalog();
        let trace = small_trace(&cat, 30);
        let timed = trace.with_arrivals(uniform_arrivals(5.0, 30));
        let mut config = SimConfig::paper();
        config.cache_buckets = 3;
        let sim = Simulation::new(&cat, config);
        let greedy = sim.run(&timed, &mut LifeRaftScheduler::greedy(params()));
        let aged = sim.run(&timed, &mut LifeRaftScheduler::age_based(params()));
        // Cached-bucket affinity is the greedy policy's defining behaviour.
        assert!(
            greedy.cache_service_fraction() >= aged.cache_service_fraction(),
            "greedy {} < aged {}",
            greedy.cache_service_fraction(),
            aged.cache_service_fraction()
        );
    }

    /// The cache events a batch records, in record order: a cold shared scan
    /// inserts, a warm one hits, a load into a full cache evicts the victim
    /// *before* inserting, and neither an index-probe batch nor a NoShare
    /// scan (even of a resident bucket) records any.
    #[test]
    fn cache_events_follow_the_batch_that_caused_them() {
        let cat = virtual_catalog();
        let pre = QueryPreProcessor::new(cat.partition());
        // (bucket, objects): 25 objects scan, a lone one on a cold bucket is
        // probed through the index.
        let shape = [(1u32, 25usize), (1, 25), (3, 25), (5, 1), (3, 25)];
        let queries: Vec<CrossMatchQuery> = shape
            .iter()
            .enumerate()
            .map(|(i, &(b, n))| {
                let rows = cat.bucket_objects(BucketId(b));
                let positions: Vec<_> = rows.iter().take(n).map(|o| o.pos).collect();
                CrossMatchQuery::from_positions(
                    QueryId(i as u64),
                    &positions,
                    1e-6,
                    LEVEL,
                    Predicate::All,
                )
            })
            .collect();
        let config = SimConfig {
            cache_buckets: 1,
            ..SimConfig::paper()
        };
        let mut core = EngineCore::new(&cat, config);
        core.set_sink(Box::new(liferaft_telemetry::JsonlSink::new()));
        let mut greedy = LifeRaftScheduler::greedy(params());
        let mut noshare = NoShareScheduler::new();
        let expected: [&[EventKind]; 5] = [
            &[EventKind::CacheInsert { bucket: 1 }],
            &[EventKind::CacheHit { bucket: 1 }],
            &[
                EventKind::CacheEvict { bucket: 1 },
                EventKind::CacheInsert { bucket: 3 },
            ],
            &[],
            &[],
        ];
        for (i, q) in queries.iter().enumerate() {
            let now = SimTime::ZERO + SimDuration::from_secs(100 * i as u64);
            let items = pre.preprocess(q);
            assert_eq!(items.len(), 1, "query {i} must land in one bucket");
            assert_eq!(items[0].bucket, BucketId(shape[i].0));
            core.deliver_items(q, &items, now);
            let scheduler: &mut dyn Scheduler = if i == 4 { &mut noshare } else { &mut greedy };
            core.decide_and_execute(scheduler, now);
            assert!(core.is_idle());
            let cache_events: Vec<EventKind> = core
                .take_events()
                .into_iter()
                .map(|e| e.kind)
                .filter(|k| {
                    matches!(
                        k,
                        EventKind::CacheHit { .. }
                            | EventKind::CacheInsert { .. }
                            | EventKind::CacheEvict { .. }
                    )
                })
                .collect();
            assert_eq!(cache_events, expected[i], "batch {i}");
        }
        assert_eq!((core.scan_batches, core.indexed_batches), (4, 1));
        assert!(
            core.cache.contains(BucketId(3)),
            "NoShare dropped residency"
        );
    }

    /// Each call that changes a core's resident set pushes the change into
    /// the table at once, not at the next decision: a migration out (seen
    /// when work returns to the bucket), an absorb that evicts, a wipe.
    #[test]
    fn residency_changes_reach_the_table_when_they_happen() {
        let cat = virtual_catalog();
        let pre = QueryPreProcessor::new(cat.partition());
        let queries: Vec<CrossMatchQuery> = [1u32, 1, 3, 3, 1]
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let rows = cat.bucket_objects(BucketId(b));
                let positions: Vec<_> = rows.iter().take(25).map(|o| o.pos).collect();
                let id = QueryId(i as u64);
                CrossMatchQuery::from_positions(id, &positions, 1e-6, LEVEL, Predicate::All)
            })
            .collect();
        let config = SimConfig {
            cache_buckets: 1,
            ..SimConfig::paper()
        };
        let now = SimTime::ZERO;
        let mut greedy = LifeRaftScheduler::greedy(params());
        let mut src = EngineCore::new(&cat, config);
        let mut dst = EngineCore::new(&cat, config);
        // Each core serves one query, which leaves its bucket resident, and
        // queues a second one behind it.
        for (core, pair) in [(&mut src, &queries[0..2]), (&mut dst, &queries[2..4])] {
            core.deliver_items(&pair[0], &pre.preprocess(&pair[0]), now);
            core.decide_and_execute(&mut greedy, now);
            core.deliver_items(&pair[1], &pre.preprocess(&pair[1]), now);
            assert_eq!(core.resident_candidates().len(), 1);
        }

        let payload = src.extract_bucket(BucketId(1), now);
        assert!(payload.was_resident);
        src.deliver_items(&queries[4], &pre.preprocess(&queries[4]), now);
        assert!(src.residency_is_mirrored(), "extraction kept the φ bit");
        assert_eq!(src.resident_candidates().len(), 0);

        dst.absorb_bucket(payload);
        assert_eq!(dst.cache.stats().evictions, 1);
        assert!(
            dst.residency_is_mirrored(),
            "the absorb's victim kept its φ bit"
        );
        assert!(dst.table.snapshot_of(BucketId(1)).unwrap().cached);
        assert!(!dst.table.snapshot_of(BucketId(3)).unwrap().cached);

        assert_eq!(dst.wipe_residency(), 1);
        assert!(dst.residency_is_mirrored(), "the wipe kept a φ bit");
        assert_eq!(dst.resident_candidates().len(), 0);
    }

    /// LifeRaft(α, normalized)'s decision taken the reference way: gather
    /// every candidate and arg-max the slice with the test fixture's
    /// reference decision.
    struct ViaReference(f64);

    impl Scheduler for ViaReference {
        fn name(&self) -> String {
            format!("reference(α={:.2})", self.0)
        }

        fn pick(&mut self, view: &dyn SchedulerView) -> Option<BatchSpec> {
            let all: Vec<BucketSnapshot> = view.walk(Lens::Age).collect();
            let mode = AgingMode::Normalized;
            let best = crate::fixture::reference_pick(&params(), mode, self.0, view.now(), &all)?;
            Some(BatchSpec {
                bucket: all[best].bucket,
                scope: BatchScope::AllQueued,
            })
        }
    }

    /// Below capacity, a wide query fans one object into each of ~150 idle
    /// buckets at one instant: the candidates tie on both score terms, and
    /// the mixed-α pick must settle those ties on the frontier instead of
    /// reading past half the candidates per decision — with the same
    /// outcomes as the reference argmax.
    #[test]
    fn wide_sparse_queries_resolve_on_the_frontier() {
        let cat = VirtualCatalog::new(LEVEL, 256, 100, 4096, 7);
        let queries: Vec<CrossMatchQuery> = (0..12u64)
            .map(|i| {
                let positions: Vec<_> = (0..150u32)
                    .map(|j| cat.bucket_objects(BucketId((i as u32 * 40 + j) % 256))[50].pos)
                    .collect();
                CrossMatchQuery::from_positions(QueryId(i), &positions, 1e-5, LEVEL, Predicate::All)
            })
            .collect();
        // ~150 cold reads × 1.2 s per query, one query every 300 s.
        let timed = Trace::new(LEVEL, queries).with_arrivals(uniform_arrivals(1.0 / 300.0, 12));
        let sim = Simulation::new(&cat, SimConfig::paper());
        let mut scheduler = LifeRaftScheduler::new(params(), AgingMode::Normalized, 0.5);
        let indexed = sim.run(&timed, &mut scheduler);
        let reference = sim.run(&timed, &mut ViaReference(0.5));
        assert_eq!(indexed.outcomes, reference.outcomes);
        assert_eq!(indexed.batches, reference.batches);
        assert!(indexed.batches >= 12 * 150);
        assert_eq!(
            indexed.frontier_picks + indexed.fallback_picks,
            indexed.batches
        );
        assert!(
            indexed.fallback_picks * 100 <= indexed.batches,
            "{} of {} picks read past half the candidates",
            indexed.fallback_picks,
            indexed.batches
        );
    }
}
