//! The five workloads: fixture builders, the timed replay of each public
//! entry point, and the traced replay + layer probes.
//!
//! Every input is generated from the seed; the program under test receives
//! only the generated catalog and traces. Arrivals are an open loop in
//! virtual time: queries arrive on schedule whether or not earlier ones
//! finished, and response is timed from the scheduled arrival. On the host,
//! replays run back to back on one thread (`pool_threaded` adds one worker
//! thread per shard, never more than 2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use liferaft_catalog::{Catalog, VirtualCatalog};
use liferaft_core::{
    AgingMode, BatchSpec, DecisionStats, LifeRaftScheduler, MetricParams, NoShareScheduler,
    Scheduler, SchedulerView,
};
use liferaft_join::brute::brute_force_join;
use liferaft_join::{hybrid, JoinStrategy};
use liferaft_metrics::Summary;
use liferaft_query::{MatchObject, QueryPreProcessor, QueueEntry, WorkloadTable};
use liferaft_runtime::{
    parallel_map, route, ExecMode, FailoverConfig, FaultPlan, FrontDoorConfig, QueryClass,
    RebalanceConfig, RuntimeConfig, RuntimeReport, ShardAssignment, ShardedRuntime,
    TransportConfig,
};
use liferaft_sim::{
    build_scenario, EngineCore, RunReport, ScenarioFixture, ScenarioKind, ScenarioScale, SimConfig,
    Simulation,
};
use liferaft_storage::{BucketId, SimDuration, SimTime};
use liferaft_telemetry::{EventKind, JsonlSink, TelemetryConfig, TelemetryReport};
use liferaft_workload::arrivals::poisson_arrivals;
use liferaft_workload::{TimedTrace, Trace, TraceGenerator, WorkloadConfig};

use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::median;

const LEVEL: u8 = 12;
const BUCKETS: u32 = 2_048;
const OBJECTS_PER_BUCKET: u64 = 1_000;
/// Queries per generated block; the block family is chunk- and
/// thread-count invariant, so this only shapes the fan-out.
const BLOCK: usize = 250;
/// Objects re-covered by the `htm.cover_s` probe.
const COVER_SAMPLE: usize = 50_000;
/// Replays of the traced driver (and of each comparison arm); the traced
/// wall is their median, the spans kept are the last replay's.
const TRACED_REPS: usize = 3;
/// Every `JOIN_CHECK_STRIDE`-th batch of the join probe is evaluated by all
/// three join engines and compared pair for pair.
const JOIN_CHECK_STRIDE: usize = 16;

/// Threads used to generate fixtures: `min(nproc, 2)`.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The virtual-time outcome of one replay. Deterministic for a seed: every
/// repetition must produce an identical value, whatever the host does.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Queries submitted.
    pub submitted: u64,
    /// Queries that completed.
    pub completed: u64,
    /// Queries a controller rejected (shed by the front door, or out of
    /// re-delivery / retransmission budget).
    pub rejected: u64,
    /// First arrival to last completion, virtual seconds (summed over the
    /// gauntlet's four runs).
    pub makespan_s: f64,
    /// Response times of the completed queries, virtual seconds (the union
    /// over the gauntlet's four runs).
    pub response: Summary,
    /// Queue entries serviced — the input size behind `host_entries_per_s`.
    pub serviced_entries: u64,
    /// FNV-1a over every completion and every counter of the report(s).
    pub digest: u64,
}

impl Replay {
    fn of_run(report: &RunReport, submitted: usize, rejected: usize) -> Replay {
        Replay {
            submitted: submitted as u64,
            completed: report.outcomes.len() as u64,
            rejected: rejected as u64,
            makespan_s: report.makespan_s,
            response: report.response.clone(),
            serviced_entries: report.serviced_entries,
            digest: digest(report, rejected as u64),
        }
    }

    fn of_runtime(report: &RuntimeReport, submitted: usize) -> Replay {
        let rejected = report.front_door.as_ref().map_or(0, |r| r.rejected.len())
            + report.failover.as_ref().map_or(0, |r| r.total_rejected())
            + report.transport.as_ref().map_or(0, |r| r.total_rejected());
        Replay::of_run(&report.global, submitted, rejected)
    }

    /// Pools several runs: sums, and percentiles over the union of outcomes.
    fn pooled(parts: &[Replay]) -> Replay {
        let mut all = parts[0].clone();
        for p in &parts[1..] {
            all.submitted += p.submitted;
            all.completed += p.completed;
            all.rejected += p.rejected;
            all.makespan_s += p.makespan_s;
            all.response.merge(&p.response);
            all.serviced_entries += p.serviced_entries;
            all.digest = all.digest.rotate_left(17) ^ p.digest;
        }
        all
    }

    /// Completed queries per virtual second (Figures 7a / 8a).
    pub fn vt_throughput_qps(&self) -> f64 {
        self.completed as f64 / self.makespan_s
    }
}

/// FNV-1a over everything the decision path influences (the determinism
/// suites' fingerprint, as one number).
fn digest(r: &RunReport, rejected: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for o in &r.outcomes {
        put(o.query.0);
        put(o.arrival.as_micros());
        put(o.completion.as_micros());
        put(o.assignments);
    }
    for v in [
        r.batches,
        r.scan_batches,
        r.indexed_batches,
        r.serviced_entries,
        r.cache_serviced_entries,
        r.io.bucket_reads,
        r.io.index_probes,
        r.cache.hits,
        r.cache.misses,
        r.cache.evictions,
        r.total_matches,
        r.makespan_s.to_bits(),
        r.max_wait_ms.to_bits(),
        rejected,
    ] {
        put(v);
    }
    h
}

/// What a traced pass hands back to the harness.
pub struct Traced {
    /// The traced replay's outcome (must equal the untraced one).
    pub replay: Replay,
    /// Median wall of the traced replays, seconds.
    pub wall_s: f64,
    /// Trace id of the kept traced replay's root span.
    pub trace: u32,
}

/// One workload: a built fixture that can be replayed.
pub trait Workload {
    /// One replay of the full public entry point, report included, with
    /// tracing off. This is the only thing the end-to-end clock wraps.
    fn replay(&self) -> Replay;

    /// The traced replay and the layer probes. `untraced` is the outcome of
    /// an untraced replay and `untraced_wall_s` the median untraced wall.
    /// Correctness failures are appended to `failures`.
    fn traced(
        &self,
        spans: &mut Spans,
        layers: &mut Layers,
        untraced: &Replay,
        untraced_wall_s: f64,
        failures: &mut Vec<String>,
    ) -> Traced;
}

/// Builds the fixture of workload `name` from `seed`, recording the fixture
/// layers' spans and counts.
///
/// # Panics
/// Panics on an unknown workload name (the caller validates it).
pub fn build(name: &str, seed: u64, spans: &mut Spans, layers: &mut Layers) -> Box<dyn Workload> {
    layers.set("harness.generator_threads", generator_threads() as f64);
    match name {
        "saturated_batch" => Box::new(SingleEngine::build(&SATURATED, seed, spans, layers)),
        "trickle_interactive" => Box::new(SingleEngine::build(&TRICKLE, seed, spans, layers)),
        "crossmatch_real" => Box::new(SingleEngine::build(&CROSSMATCH, seed, spans, layers)),
        "pool_threaded" => Box::new(Pool::build(seed, spans, layers)),
        "controller_gauntlet" => Box::new(Gauntlet::build(seed, spans, layers)),
        other => panic!("unknown workload {other:?}"),
    }
}

fn catalog(seed: u64, spans: &mut Spans, layers: &mut Layers) -> VirtualCatalog {
    // 40 MB buckets, as in the paper; only the cost model reads the size.
    let object_bytes = 40 * 1024 * 1024 / OBJECTS_PER_BUCKET;
    let (catalog, secs) = spans.time("catalog.build", || {
        VirtualCatalog::new(LEVEL, BUCKETS, OBJECTS_PER_BUCKET, object_bytes, seed)
    });
    layers.set("catalog.build_s", secs);
    catalog
}

/// The seed the committed baselines were taken with. It also fixes the sky
/// of every generated trace — see [`generate`].
const BASELINE_SEED: u64 = 2009;

/// Generates the independently-seeded trace of `cfg` in blocks fanned over
/// [`generator_threads`] threads (bit-identical at any thread count).
///
/// `cfg.seed` is `seed ^ salt`. The hotspot layout — where the famous
/// regions are and which are active in which epoch — is part of the workload
/// definition and is always the baseline seed's; the run's seed draws every
/// query (hotspot choice, footprint, size, objects). A fresh layout per seed
/// doubles the seed-to-seed swing of batch counts (±23 % on
/// `trickle_interactive`), which is input variance no bound could tell from
/// a regression.
fn generate(cfg: WorkloadConfig, salt: u64, spans: &mut Spans, layers: &mut Layers) -> Trace {
    let n = cfg.n_queries;
    let (trace, secs) = spans.time("workload.trace_gen", || {
        let layout = TraceGenerator::new(WorkloadConfig {
            seed: BASELINE_SEED ^ salt,
            ..cfg.clone()
        })
        .layout();
        let gen = TraceGenerator::new(cfg);
        let ranges: Vec<(usize, usize)> = (0..n.div_ceil(BLOCK))
            .map(|c| (c * BLOCK, ((c + 1) * BLOCK).min(n)))
            .collect();
        let blocks = parallel_map(&ranges, generator_threads(), |_, &(start, end)| {
            gen.generate_block(&layout, start, end)
        });
        Trace::new(LEVEL, blocks.into_iter().flatten().collect())
    });
    layers.set("workload.trace_gen_s", secs);
    layers.set("workload.queries", trace.len() as f64);
    layers.set("workload.objects", trace.total_objects() as f64);
    trace
}

/// Re-covers the first [`COVER_SAMPLE`] objects of `trace` from scratch —
/// the HTM work inside trace generation, without the generator's cache.
fn cover_probe(trace: &TimedTrace, spans: &mut Spans, layers: &mut Layers) {
    let sample: Vec<&MatchObject> = trace
        .entries()
        .iter()
        .flat_map(|(_, q)| &q.objects)
        .take(COVER_SAMPLE)
        .collect();
    let (ranges, secs) = spans.time("htm.cover", || {
        sample
            .iter()
            .map(|o| MatchObject::new(o.pos, o.radius, LEVEL).bbox.num_ranges())
            .sum::<usize>()
    });
    layers.set("htm.cover_s", secs);
    layers.set("htm.ranges_per_object", ranges as f64 / sample.len() as f64);
}

/// Counts every workload can read off its (global) report.
fn report_counts(r: &RunReport, layers: &mut Layers) {
    layers.set("sim.batches", r.batches as f64);
    layers.set("sim.serviced_entries", r.serviced_entries as f64);
    layers.set("sim.mean_batch_entries", r.mean_batch_size());
    layers.set("sim.max_wait_s", r.max_wait_ms / 1e3);
    layers.set("vt.response_p50_s", r.response.percentile(50.0));
    layers.set("vt.response_p90_s", r.response.percentile(90.0));
    layers.set("core.decisions", r.batches as f64);
    layers.set("core.frontier_picks", r.frontier_picks as f64);
    layers.set("core.fallback_picks", r.fallback_picks as f64);
    let mixed = r.frontier_picks + r.fallback_picks;
    if mixed > 0 {
        layers.set(
            "core.frontier_share",
            r.frontier_picks as f64 / mixed as f64,
        );
    }
    layers.set("storage.cache_serviced_share", r.cache_service_fraction());
    let lookups = r.cache.hits + r.cache.misses;
    if lookups > 0 {
        layers.set(
            "storage.cache_hit_share",
            r.cache.hits as f64 / lookups as f64,
        );
    }
    layers.set("storage.bucket_reads", r.io.bucket_reads as f64);
    layers.set("storage.evictions", r.cache.evictions as f64);
}

fn check(failures: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        failures.push(what());
    }
}

/// A scheduler wrapper that times `pick` from outside the policy: the last
/// interval for the span recorder, running totals for threaded runs.
struct TimedScheduler {
    inner: Box<dyn Scheduler + Send>,
    last_pick: (Instant, Instant),
    pick_ns: Arc<AtomicU64>,
}

impl TimedScheduler {
    fn new(inner: Box<dyn Scheduler + Send>, pick_ns: Arc<AtomicU64>) -> Self {
        let now = Instant::now();
        TimedScheduler {
            inner,
            last_pick: (now, now),
            pick_ns,
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pick(&mut self, view: &dyn SchedulerView) -> Option<BatchSpec> {
        let start = Instant::now();
        let spec = self.inner.pick(view);
        let end = Instant::now();
        self.last_pick = (start, end);
        // Relaxed: a statistic, read after the workers are joined.
        self.pick_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        spec
    }

    fn on_query_arrival(&mut self, now: SimTime) {
        self.inner.on_query_arrival(now);
    }

    fn decision_stats(&self) -> DecisionStats {
        self.inner.decision_stats()
    }
}

// ---------------------------------------------------------------------------
// Single-engine workloads
// ---------------------------------------------------------------------------

/// What distinguishes the three single-`Simulation` workloads.
struct SingleSpec {
    n_queries: usize,
    /// Poisson arrival rate, queries per virtual second.
    rate_qps: f64,
    /// LifeRaft's bias: `None` is greedy (α = 0), `Some(a)` normalized aging.
    alpha: Option<f64>,
    real_joins: bool,
    /// The paper's regime: also run the NoShare reference and the
    /// flight-recorder probes here.
    paper_regime: bool,
}

/// 2 q/s is ≈ 17× the no-sharing capacity (0.119 q/s): deep queues.
const SATURATED: SingleSpec = SingleSpec {
    n_queries: 10_000,
    rate_qps: 2.0,
    alpha: Some(0.5),
    real_joins: false,
    paper_regime: true,
};

/// 0.08 q/s is below the no-sharing capacity: almost nothing to share.
const TRICKLE: SingleSpec = SingleSpec {
    n_queries: 10_000,
    rate_qps: 0.08,
    alpha: Some(0.5),
    real_joins: false,
    paper_regime: false,
};

const CROSSMATCH: SingleSpec = SingleSpec {
    n_queries: 1_000,
    rate_qps: 2.0,
    alpha: None,
    real_joins: true,
    paper_regime: false,
};

/// The paper's configuration, with the real join body on or off.
fn sim_config(real_joins: bool) -> SimConfig {
    if real_joins {
        SimConfig::with_real_joins()
    } else {
        SimConfig::paper()
    }
}

struct SingleEngine {
    spec: &'static SingleSpec,
    catalog: VirtualCatalog,
    timed: TimedTrace,
}

impl SingleEngine {
    fn build(spec: &'static SingleSpec, seed: u64, spans: &mut Spans, layers: &mut Layers) -> Self {
        let catalog = catalog(seed, spans, layers);
        let cfg = WorkloadConfig::paper_like(LEVEL, BUCKETS, spec.n_queries, seed ^ 0x51);
        let trace = generate(cfg, 0x51, spans, layers);
        let arrivals = poisson_arrivals(spec.rate_qps, spec.n_queries, seed ^ 0xBE7C);
        SingleEngine {
            spec,
            catalog,
            timed: trace.into_timed(arrivals),
        }
    }

    fn scheduler(&self) -> LifeRaftScheduler {
        let params = MetricParams::paper();
        match self.spec.alpha {
            None => LifeRaftScheduler::greedy(params),
            Some(alpha) => LifeRaftScheduler::new(params, AgingMode::Normalized, alpha),
        }
    }

    /// `Simulation::run_with_sink`'s driver loop, re-implemented over the
    /// public `EngineCore` so a span can sit at every layer boundary.
    fn traced_replay(&self, spans: &mut Spans, real_joins: bool) -> (RunReport, u32, u64, u64) {
        let root = spans.enter("replay");
        let mut core = EngineCore::new(&self.catalog, sim_config(real_joins));
        let pre = QueryPreProcessor::new(self.catalog.partition());
        let pick_ns = Arc::new(AtomicU64::new(0));
        let mut scheduler = TimedScheduler::new(Box::new(self.scheduler()), pick_ns);
        let arrivals = self.timed.entries();
        let (mut next, mut now) = (0usize, SimTime::ZERO);
        let (mut work_items, mut assignments) = (0u64, 0u64);
        loop {
            while next < arrivals.len() && arrivals[next].0 <= now {
                let (at, query) = &arrivals[next];
                let s = spans.enter("query.preprocess");
                let items = pre.preprocess(query);
                spans.exit(s);
                let s = spans.enter("sim.deliver");
                core.deliver_items(query, &items, *at);
                spans.exit(s);
                scheduler.on_query_arrival(*at);
                work_items += items.len() as u64;
                assignments += items.iter().map(|i| i.len() as u64).sum::<u64>();
                next += 1;
            }
            if core.is_idle() {
                if next < arrivals.len() {
                    now = arrivals[next].0;
                    continue;
                }
                break;
            }
            let s = spans.enter("sim.decide_execute");
            let cost = core.decide_and_execute(&mut scheduler, now);
            let (start, end) = scheduler.last_pick;
            spans.child("core.pick", start, end);
            spans.exit(s);
            now += cost;
        }
        assert!(core.all_complete(), "traced replay left queries incomplete");
        let s = spans.enter("sim.report");
        let report = core.into_report(&scheduler, self.timed.len());
        spans.exit(s);
        spans.exit(root);
        (report, spans.trace_of(root), work_items, assignments)
    }

    /// Replays the trace's work items into a bare `WorkloadTable`, a few
    /// hundred queries at a time so the table stays near its in-run depth.
    fn table_probe(&self, spans: &mut Spans, layers: &mut Layers) {
        let partition = self.catalog.partition();
        let pre = QueryPreProcessor::new(partition);
        let mut table = WorkloadTable::new(partition.num_buckets());
        let mut drained: Vec<QueueEntry> = Vec::new();
        let root = spans.enter("probe.table");
        for chunk in self.timed.entries().chunks(BLOCK) {
            let items: Vec<_> = chunk.iter().map(|(_, q)| pre.preprocess(q)).collect();
            let s = spans.enter("query.table_enqueue");
            for ((at, query), items) in chunk.iter().zip(&items) {
                for item in items {
                    table.enqueue(item, query, *at);
                }
            }
            spans.exit(s);
            let s = spans.enter("query.table_drain");
            for bucket in table.non_empty_buckets().to_vec() {
                drained.clear();
                table.take_all_into(bucket, &mut drained);
            }
            spans.exit(s);
        }
        spans.exit(root);
        assert!(table.is_idle(), "table probe left entries queued");
        layers.set(
            "query.table_enqueue_s",
            spans.total_s("query.table_enqueue"),
        );
        layers.set("query.table_drain_s", spans.total_s("query.table_drain"));
    }

    /// Flight-recorder cost: JSONL-sink replays against the null-sink
    /// median, then the report build and the two exports on that stream.
    fn telemetry_probe(
        &self,
        spans: &mut Spans,
        layers: &mut Layers,
        untraced: &Replay,
        untraced_wall_s: f64,
        failures: &mut Vec<String>,
    ) {
        let sim = Simulation::new(&self.catalog, sim_config(self.spec.real_joins));
        let mut walls = Vec::new();
        let mut events = Vec::new();
        for _ in 0..TRACED_REPS {
            let t0 = Instant::now();
            let (report, ev) = sim.run_with_sink(
                &self.timed,
                &mut self.scheduler(),
                Box::new(JsonlSink::new()),
            );
            walls.push(t0.elapsed().as_secs_f64());
            let recorded = Replay::of_run(&report, self.timed.len(), 0);
            check(failures, recorded.digest == untraced.digest, || {
                "recording telemetry changed the run's outcome".into()
            });
            events = ev;
        }
        layers.set(
            "telemetry.record_overhead_share",
            median(&walls) / untraced_wall_s - 1.0,
        );
        layers.set("telemetry.events", events.len() as f64);
        let window = TelemetryConfig::jsonl().window;
        let (report, secs) = spans.time("telemetry.report_build", || {
            TelemetryReport::build(events, 1, window)
        });
        layers.set("telemetry.report_build_s", secs);
        let (jsonl, secs) = spans.time("telemetry.export_jsonl", || report.to_jsonl());
        layers.set("telemetry.export_jsonl_s", secs);
        layers.set("telemetry.jsonl_bytes", jsonl.len() as f64);
        let (chrome, secs) = spans.time("telemetry.export_chrome", || report.to_chrome_trace());
        layers.set("telemetry.export_chrome_s", secs);
        std::hint::black_box(chrome);
    }

    /// The paper's headline: LifeRaft against NoShare on the same trace.
    fn fidelity_probe(&self, layers: &mut Layers, untraced: &Replay, failures: &mut Vec<String>) {
        let sim = Simulation::new(&self.catalog, sim_config(false));
        let noshare = sim.run(&self.timed, &mut NoShareScheduler::new());
        let gain = untraced.vt_throughput_qps() / noshare.throughput_qps;
        layers.set("fidelity.noshare_vt_throughput_qps", noshare.throughput_qps);
        layers.set("fidelity.throughput_gain_vs_noshare", gain);
        check(failures, gain >= 2.0, || {
            format!("throughput gain over NoShare is {gain:.2}x, below the paper's two-fold")
        });
    }

    /// The real cross-match body, batch by batch: record the run's event
    /// stream, rebuild every batch's entries by mirroring arrivals and
    /// drains into a bare table, then time `bucket_objects` and
    /// `hybrid::execute` on exactly the inputs the engine gave them.
    fn join_probe(
        &self,
        spans: &mut Spans,
        layers: &mut Layers,
        report: &RunReport,
        failures: &mut Vec<String>,
    ) {
        let sim = Simulation::new(&self.catalog, sim_config(false));
        let (_, events) = sim.run_with_sink(
            &self.timed,
            &mut self.scheduler(),
            Box::new(JsonlSink::new()),
        );
        let partition = self.catalog.partition();
        let pre = QueryPreProcessor::new(partition);
        let by_id: std::collections::HashMap<u64, usize> = self
            .timed
            .entries()
            .iter()
            .enumerate()
            .map(|(i, (_, q))| (q.id.0, i))
            .collect();
        let mut table = WorkloadTable::new(partition.num_buckets());
        let mut entries: Vec<QueueEntry> = Vec::new();
        let (mut batches, mut materialized, mut matches) = (0usize, 0u64, 0u64);
        let root = spans.enter("probe.join");
        for event in &events {
            match event.kind {
                EventKind::QueryArrival { query, .. } => {
                    let (at, q) = &self.timed.entries()[by_id[&query]];
                    for item in pre.preprocess(q) {
                        table.enqueue(&item, q, *at);
                    }
                }
                EventKind::BatchStart {
                    bucket,
                    entries: n,
                    indexed,
                    ..
                } => {
                    entries.clear();
                    table.take_all_into(BucketId(bucket), &mut entries);
                    check(failures, entries.len() as u64 == n, || {
                        format!(
                            "join probe rebuilt {} entries for a batch of {n}",
                            entries.len()
                        )
                    });
                    let s = spans.enter("catalog.bucket_objects");
                    let objects = self.catalog.bucket_objects(BucketId(bucket));
                    spans.exit(s);
                    materialized += objects.len() as u64;
                    let (strategy, span) = if indexed {
                        (JoinStrategy::Indexed, "join.indexed")
                    } else {
                        (JoinStrategy::SequentialScan, "join.scan")
                    };
                    let s = spans.enter(span);
                    let out = hybrid::execute(strategy, &objects, &entries);
                    spans.exit(s);
                    for pair in &out.pairs {
                        let predicate = self.timed.entries()[by_id[&pair.query.0]].1.predicate;
                        if predicate.accepts_mag(objects[pair.catalog_index as usize].mag) {
                            matches += 1;
                        }
                    }
                    if batches % JOIN_CHECK_STRIDE == 0 {
                        let want = brute_force_join(&objects, &entries).sorted_pairs();
                        for other in [JoinStrategy::SequentialScan, JoinStrategy::Indexed] {
                            let got = hybrid::execute(other, &objects, &entries).sorted_pairs();
                            check(failures, got == want, || {
                                format!(
                                    "{other} join disagrees with brute force on bucket {bucket}"
                                )
                            });
                        }
                    }
                    batches += 1;
                }
                _ => {}
            }
        }
        spans.exit(root);
        check(failures, table.is_idle(), || {
            "join probe left entries queued".into()
        });
        check(failures, matches == report.total_matches, || {
            format!(
                "join probe found {matches} matches, the engine {}",
                report.total_matches
            )
        });
        check(failures, report.total_matches > 0, || {
            "crossmatch found no match".into()
        });
        layers.set(
            "catalog.bucket_objects_s",
            spans.total_s("catalog.bucket_objects"),
        );
        layers.set("catalog.objects_materialized", materialized as f64);
        layers.set("join.scan_s", spans.total_s("join.scan"));
        layers.set("join.indexed_s", spans.total_s("join.indexed"));
        layers.set("join.scan_batches", report.scan_batches as f64);
        layers.set("join.indexed_batches", report.indexed_batches as f64);
        layers.set("join.matches", report.total_matches as f64);
        layers.set(
            "join.matches_per_kentry",
            report.total_matches as f64 * 1e3 / report.serviced_entries as f64,
        );
    }
}

impl Workload for SingleEngine {
    fn replay(&self) -> Replay {
        let sim = Simulation::new(&self.catalog, sim_config(self.spec.real_joins));
        let report = sim.run(&self.timed, &mut self.scheduler());
        Replay::of_run(&report, self.timed.len(), 0)
    }

    fn traced(
        &self,
        spans: &mut Spans,
        layers: &mut Layers,
        untraced: &Replay,
        untraced_wall_s: f64,
        failures: &mut Vec<String>,
    ) -> Traced {
        cover_probe(&self.timed, spans, layers);

        let mut walls = Vec::new();
        for _ in 1..TRACED_REPS {
            let t0 = Instant::now();
            self.traced_replay(&mut Spans::new(), self.spec.real_joins);
            walls.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        let (report, trace, work_items, assignments) =
            self.traced_replay(spans, self.spec.real_joins);
        walls.push(t0.elapsed().as_secs_f64());
        let replay = Replay::of_run(&report, self.timed.len(), 0);

        let self_s = spans.self_times_s(trace);
        layers.set("query.preprocess_s", spans.total_s("query.preprocess"));
        layers.set("query.work_items", work_items as f64);
        layers.set("query.assignments", assignments as f64);
        layers.set("sim.deliver_s", spans.total_s("sim.deliver"));
        let decide_s = spans.total_s("sim.decide_execute");
        layers.set("sim.decide_execute_s", decide_s);
        layers.set("sim.batch_body_s", self_s["sim.decide_execute"]);
        layers.set("sim.report_s", spans.total_s("sim.report"));
        let pick_s = spans.total_s("core.pick");
        layers.set("core.pick_s", pick_s);
        layers.set("harness.other_s", self_s["replay"]);
        report_counts(&report, layers);
        layers.set(
            "core.pick_ns_per_decision",
            pick_s * 1e9 / report.batches as f64,
        );

        self.table_probe(spans, layers);
        if self.spec.paper_regime {
            self.telemetry_probe(spans, layers, untraced, untraced_wall_s, failures);
            self.fidelity_probe(layers, untraced, failures);
        }
        if self.spec.real_joins {
            // The same traced driver with the join body switched off: the
            // difference in decide+execute time is the join body.
            let mut off = Spans::new();
            let (cost_only, ..) = self.traced_replay(&mut off, false);
            layers.set(
                "sim.join_body_s",
                decide_s - off.total_s("sim.decide_execute"),
            );
            check(
                failures,
                cost_only.outcomes.len() == report.outcomes.len()
                    && cost_only.makespan_s == report.makespan_s,
                || "executing joins changed virtual time".into(),
            );
            self.join_probe(spans, layers, &report, failures);
        }
        Traced {
            replay,
            wall_s: median(&walls),
            trace,
        }
    }
}

// ---------------------------------------------------------------------------
// pool_threaded
// ---------------------------------------------------------------------------

struct Pool {
    catalog: VirtualCatalog,
    timed: TimedTrace,
    config: RuntimeConfig,
}

impl Pool {
    /// One worker thread per shard, so never more shards than 2.
    const SHARDS: u32 = 2;
    const STEPPED_REPS: usize = 3;

    fn build(seed: u64, spans: &mut Spans, layers: &mut Layers) -> Self {
        let catalog = catalog(seed, spans, layers);
        // The hotspot-drift trace of `sim_throughput`: the hot region
        // rotates over 8 epochs, arriving at 32 q/s. Its query content is
        // pinned to that fixture's draw: with only 6 hotspots against a
        // 20-bucket cache, a fresh draw swings virtual throughput and p99 by
        // ±20 %, more than any bound holds. The seed draws the arrival
        // schedule (and the catalog) instead.
        let n = 10_000;
        let mut cfg = WorkloadConfig::paper_like(LEVEL, BUCKETS, n, BASELINE_SEED ^ 0xD2);
        cfg.epochs = 8;
        cfg.active_per_epoch = 3;
        cfg.always_active = 0;
        cfg.hotspots = 6;
        cfg.hotspot_zipf = 0.5;
        cfg.hotspot_fraction = 0.95;
        let trace = generate(cfg, 0xD2, spans, layers);
        let timed = trace.into_timed(poisson_arrivals(32.0, n, seed ^ 0xD21F));
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), Self::SHARDS);
        config.assignment = ShardAssignment::Hashed { seed: 0xC1D2 };
        Pool {
            catalog,
            timed,
            config,
        }
    }

    fn run(&self, mode: ExecMode, pick_ns: Option<&Arc<AtomicU64>>) -> RuntimeReport {
        let rt = ShardedRuntime::new(&self.catalog, self.config.clone());
        let params = MetricParams::paper();
        rt.run(
            &self.timed,
            &mut |_| {
                let policy = Box::new(LifeRaftScheduler::greedy(params));
                match pick_ns {
                    Some(total) => Box::new(TimedScheduler::new(policy, Arc::clone(total))),
                    None => policy,
                }
            },
            mode,
        )
    }
}

impl Workload for Pool {
    fn replay(&self) -> Replay {
        Replay::of_runtime(&self.run(ExecMode::Threaded, None), self.timed.len())
    }

    fn traced(
        &self,
        spans: &mut Spans,
        layers: &mut Layers,
        untraced: &Replay,
        untraced_wall_s: f64,
        failures: &mut Vec<String>,
    ) -> Traced {
        cover_probe(&self.timed, spans, layers);

        let mut walls = Vec::new();
        let mut kept = None;
        for _ in 0..TRACED_REPS {
            let pick_ns = Arc::new(AtomicU64::new(0));
            let root = spans.enter("replay");
            let (report, run_s) = spans.time("runtime.run", || {
                self.run(ExecMode::Threaded, Some(&pick_ns))
            });
            walls.push(spans.exit(root));
            kept = Some((report, run_s, pick_ns.load(Ordering::Relaxed), root));
        }
        let (report, run_s, pick_ns, root) = kept.expect("at least one traced replay");
        let trace = spans.trace_of(root);
        let replay = Replay::of_runtime(&report, self.timed.len());

        let rt = ShardedRuntime::new(&self.catalog, self.config.clone());
        let (routing, route_s) = spans.time("runtime.route", || {
            route(self.catalog.partition(), rt.shard_map(), &self.timed)
        });
        layers.set("runtime.route_s", route_s);
        layers.set("runtime.post_route_s", run_s - route_s);
        layers.set("runtime.pick_s", pick_ns as f64 * 1e-9);
        layers.set("runtime.fragments", routing.total_fragments() as f64);
        layers.set(
            "runtime.cross_shard_share",
            routing.cross_shard_queries as f64 / self.timed.len() as f64,
        );
        layers.set("runtime.shard_imbalance", report.shard_imbalance());
        layers.set("harness.other_s", spans.self_times_s(trace)["replay"]);
        report_counts(&report.global, layers);

        let mut stepped = Vec::new();
        for _ in 0..Self::STEPPED_REPS {
            let t0 = Instant::now();
            let report = self.run(ExecMode::Stepped, None);
            stepped.push(t0.elapsed().as_secs_f64());
            let reference = Replay::of_runtime(&report, self.timed.len());
            check(failures, reference.digest == untraced.digest, || {
                "Threaded and Stepped reports differ".into()
            });
        }
        let stepped_s = median(&stepped);
        layers.set("runtime.stepped_wall_s", stepped_s);
        layers.set("runtime.threaded_speedup", stepped_s / untraced_wall_s);

        Traced {
            replay,
            wall_s: median(&walls),
            trace,
        }
    }
}

// ---------------------------------------------------------------------------
// controller_gauntlet
// ---------------------------------------------------------------------------

struct Gauntlet {
    catalog: VirtualCatalog,
    /// `(span name, fixture, runtime configuration)` in run order.
    runs: Vec<(&'static str, ScenarioFixture, RuntimeConfig)>,
}

impl Gauntlet {
    const SHARDS: u32 = 4;
    const KINDS: [(ScenarioKind, &'static str); 4] = [
        (ScenarioKind::FlashCrowd, "gauntlet.flash_crowd"),
        (ScenarioKind::ShardCrash, "gauntlet.shard_crash"),
        (ScenarioKind::LossyLink, "gauntlet.lossy_link"),
        (ScenarioKind::HotspotDrift, "gauntlet.hotspot_drift"),
    ];

    fn build(seed: u64, spans: &mut Spans, layers: &mut Layers) -> Self {
        let catalog = catalog(seed, spans, layers);
        let scale = ScenarioScale {
            level: LEVEL,
            n_buckets: BUCKETS,
            n_queries: 2_000,
            seed,
        };
        let (fixtures, secs) = spans.time("workload.scenario_build", || {
            parallel_map(&Self::KINDS, generator_threads(), |_, (kind, _)| {
                build_scenario(*kind, &scale)
            })
        });
        layers.set("workload.scenario_build_s", secs);
        layers.set(
            "workload.queries",
            fixtures.iter().map(|f| f.trace.len()).sum::<usize>() as f64,
        );
        let objects =
            |f: &ScenarioFixture| -> usize { f.trace.entries().iter().map(|(_, q)| q.len()).sum() };
        layers.set(
            "workload.objects",
            fixtures.iter().map(objects).sum::<usize>() as f64,
        );

        let runs = Self::KINDS
            .iter()
            .zip(fixtures)
            .map(|(&(kind, span), fixture)| {
                let mut config = RuntimeConfig::contiguous(SimConfig::paper(), Self::SHARDS);
                config.faults = FaultPlan {
                    stalls: fixture.stalls.clone(),
                    outages: fixture.outages.clone(),
                    links: fixture.links.clone(),
                };
                // The same controller settings as the `sim_throughput` rows.
                match kind {
                    ScenarioKind::FlashCrowd => {
                        config.front_door = Self::front_door(&catalog, &fixture);
                    }
                    ScenarioKind::ShardCrash => config.failover = FailoverConfig::recovery(),
                    ScenarioKind::LossyLink => {
                        // Anchor below the straggler-inflated p90 so hedges
                        // fire early enough to move it.
                        let mut transport = TransportConfig::hedged();
                        transport.hedge.quantile = 0.75;
                        transport.hedge.latency_multiplier = 1.5;
                        transport.hedge.min_samples = 5;
                        transport.hedge.max_hedges = 1024;
                        config.transport = transport;
                    }
                    _ => {
                        config.assignment = ShardAssignment::Hashed { seed: 0xC1D2 };
                        config.rebalance = RebalanceConfig::every(SimDuration::from_secs(5));
                        config.rebalance.min_imbalance = 1.4;
                        config.rebalance.max_moves_per_epoch = 8;
                    }
                }
                (span, fixture, config)
            })
            .collect();
        Gauntlet { catalog, runs }
    }

    /// Front-door bounds from the fixture's own routed-size distribution:
    /// class thresholds at the 30th / 70th size percentiles, in-flight bound
    /// at 4× the median — tight enough that the burst queues and sheds.
    fn front_door(catalog: &VirtualCatalog, fixture: &ScenarioFixture) -> FrontDoorConfig {
        let pre = QueryPreProcessor::new(catalog.partition());
        let mut sizes: Vec<u64> = fixture
            .trace
            .entries()
            .iter()
            .map(|(_, q)| pre.workload_size(q))
            .collect();
        sizes.sort_unstable();
        let pct = |p: usize| sizes[(sizes.len() - 1) * p / 100];
        let mut door = FrontDoorConfig::bounded((4 * pct(50)).max(1));
        door.interactive_max_assignments = pct(30);
        door.batch_min_assignments = pct(70).max(pct(30) + 1);
        door.max_waiting_assignments = Some(12 * pct(50));
        door
    }

    fn run_one(&self, index: usize, telemetry: bool) -> RuntimeReport {
        let (_, fixture, config) = &self.runs[index];
        let mut config = config.clone();
        if telemetry {
            config.telemetry = TelemetryConfig::jsonl();
        }
        let rt = ShardedRuntime::new(&self.catalog, config);
        let params = MetricParams::paper();
        rt.run(
            &fixture.trace,
            &mut |_| Box::new(LifeRaftScheduler::greedy(params)),
            ExecMode::Stepped,
        )
    }

    fn pooled(&self, reports: &[RuntimeReport]) -> Replay {
        let parts: Vec<Replay> = reports
            .iter()
            .zip(&self.runs)
            .map(|(r, (_, fixture, _))| Replay::of_runtime(r, fixture.trace.len()))
            .collect();
        Replay::pooled(&parts)
    }
}

impl Workload for Gauntlet {
    fn replay(&self) -> Replay {
        let reports: Vec<RuntimeReport> = (0..self.runs.len())
            .map(|i| self.run_one(i, false))
            .collect();
        self.pooled(&reports)
    }

    fn traced(
        &self,
        spans: &mut Spans,
        layers: &mut Layers,
        untraced: &Replay,
        untraced_wall_s: f64,
        failures: &mut Vec<String>,
    ) -> Traced {
        let mut walls = Vec::new();
        let mut kept = None;
        for _ in 0..TRACED_REPS {
            let root = spans.enter("replay");
            let reports: Vec<RuntimeReport> = (0..self.runs.len())
                .map(|i| spans.time(self.runs[i].0, || self.run_one(i, false)).0)
                .collect();
            walls.push(spans.exit(root));
            kept = Some((reports, root));
        }
        let (reports, root) = kept.expect("at least one traced replay");
        let trace = spans.trace_of(root);
        let self_s = spans.self_times_s(trace);
        for (span, _, _) in &self.runs {
            layers.set(&format!("{span}_s"), self_s[span]);
        }
        layers.set("harness.other_s", self_s["replay"]);

        let door = reports[0]
            .front_door
            .as_ref()
            .expect("flash crowd runs the front door");
        layers.set("admission.shed_events", door.log.total_shed_events() as f64);
        layers.set("admission.rejected", door.rejected.len() as f64);
        layers.set(
            "admission.interactive_p90_s",
            door.class(QueryClass::Interactive)
                .response
                .percentile(90.0),
        );
        let failover = reports[1]
            .failover
            .as_ref()
            .expect("shard crash runs failover");
        layers.set(
            "failover.evacuated_entries",
            failover.log.evacuated_entries() as f64,
        );
        layers.set(
            "failover.redeliveries",
            failover.log.redeliveries.len() as f64,
        );
        layers.set("failover.recovery_lag_s", failover.recovery_lag_s());
        let transport = reports[2]
            .transport
            .as_ref()
            .expect("lossy link runs transport");
        let hedges = transport.log.hedges.len();
        layers.set(
            "transport.retransmits",
            transport.log.retransmits.len() as f64,
        );
        layers.set("transport.hedges", hedges as f64);
        if hedges > 0 {
            layers.set(
                "transport.hedge_win_share",
                transport.hedge_wins as f64 / hedges as f64,
            );
        }
        layers.set(
            "transport.suppressed_duplicates",
            transport.log.suppressed.len() as f64,
        );
        let rebalance = reports[3]
            .rebalance
            .as_ref()
            .expect("hotspot drift rebalances");
        layers.set("rebalance.moves", rebalance.total_moves() as f64);
        layers.set("rebalance.moved_entries", rebalance.moved_entries() as f64);

        // Pooled counts over the four runs.
        let mut pooled = reports[0].global.clone();
        for r in &reports[1..] {
            pooled.batches += r.global.batches;
            pooled.serviced_entries += r.global.serviced_entries;
            pooled.cache_serviced_entries += r.global.cache_serviced_entries;
            pooled.cache.hits += r.global.cache.hits;
            pooled.cache.misses += r.global.cache.misses;
            pooled.cache.evictions += r.global.cache.evictions;
            pooled.io.bucket_reads += r.global.io.bucket_reads;
            pooled.max_wait_ms = pooled.max_wait_ms.max(r.global.max_wait_ms);
            pooled.response.merge(&r.global.response);
        }
        report_counts(&pooled, layers);

        // The flight recorder on all four runs: recording cost against the
        // untraced median, then report build and exports per stream.
        let mut recorded_walls = Vec::new();
        let mut recorded = Vec::new();
        for _ in 0..TRACED_REPS {
            let t0 = Instant::now();
            recorded = (0..self.runs.len())
                .map(|i| self.run_one(i, true))
                .collect();
            recorded_walls.push(t0.elapsed().as_secs_f64());
            check(
                failures,
                self.pooled(&recorded).digest == untraced.digest,
                || "recording telemetry changed the gauntlet's outcome".into(),
            );
        }
        layers.set(
            "telemetry.record_overhead_share",
            median(&recorded_walls) / untraced_wall_s - 1.0,
        );
        let (mut events, mut bytes) = (0usize, 0usize);
        for r in &recorded {
            let tr = r.telemetry.as_ref().expect("telemetry was switched on");
            events += tr.events.len();
            let stream = tr.events.clone();
            let (report, _) = spans.time("telemetry.report_build", || {
                TelemetryReport::build(stream, tr.n_shards, tr.window)
            });
            bytes += spans
                .time("telemetry.export_jsonl", || report.to_jsonl())
                .0
                .len();
            let chrome = spans.time("telemetry.export_chrome", || report.to_chrome_trace());
            std::hint::black_box(chrome);
        }
        layers.set("telemetry.events", events as f64);
        layers.set("telemetry.jsonl_bytes", bytes as f64);
        layers.set(
            "telemetry.report_build_s",
            spans.total_s("telemetry.report_build"),
        );
        layers.set(
            "telemetry.export_jsonl_s",
            spans.total_s("telemetry.export_jsonl"),
        );
        layers.set(
            "telemetry.export_chrome_s",
            spans.total_s("telemetry.export_chrome"),
        );

        Traced {
            replay: self.pooled(&reports),
            wall_s: median(&walls),
            trace,
        }
    }
}
