//! Metamorphic relations: predict one run from a different run.
//!
//! Every other pin compares a run with itself (stepped vs threaded) or with
//! a recorded fingerprint, so a bug both executors share and a golden froze
//! is invisible to them. A metamorphic relation transforms the input in a
//! way whose effect on the output is known and compares the two runs; it
//! shares no code with either executor's bookkeeping.
//!
//! **Shard decomposition.** Under contiguous placement, a trace whose every
//! query lies inside one shard's bucket span never splits a query: each
//! shard serves exactly the queries that live on it, with its own cache. So
//! each shard's report of the N-shard run equals a `Simulation` of that
//! shard's sub-trace — the queries that live on it, in trace order, with a
//! workless query on shard 0, where the router ships it.

use liferaft_catalog::{Catalog, VirtualCatalog};
use liferaft_core::adaptive::TradeoffPoint;
use liferaft_core::{
    AdaptiveScheduler, AgingMode, AlphaController, LifeRaftScheduler, MetricParams,
    NoShareScheduler, RoundRobinScheduler, Scheduler, TradeoffCurve, TradeoffTable,
};
use liferaft_query::{CrossMatchQuery, QueryPreProcessor};
use liferaft_runtime::{ExecMode, RuntimeConfig, ShardAssignment, ShardMap, ShardedRuntime};
use liferaft_sim::{RunReport, SimConfig, Simulation};
use liferaft_storage::SimDuration;
use liferaft_workload::arrivals::poisson_arrivals;
use liferaft_workload::{TimedTrace, Trace, TraceGenerator, WorkloadConfig};
use proptest::prelude::*;

const LEVEL: u8 = 10;
const BUCKETS: u32 = 64;

/// Exact digest of everything the decision path influences (the one in
/// `properties.rs`).
fn fp(r: &RunReport) -> String {
    let outcomes: Vec<(u64, u64, u64, u64)> = r
        .outcomes
        .iter()
        .map(|o| {
            (
                o.query.0,
                o.arrival.as_micros(),
                o.completion.as_micros(),
                o.assignments,
            )
        })
        .collect();
    format!(
        "{} {} {} {} {} {:?} {:?} {:x} {:x} {:?}",
        r.batches,
        r.scan_batches,
        r.indexed_batches,
        r.serviced_entries,
        r.cache_serviced_entries,
        r.io,
        r.cache,
        r.makespan_s.to_bits(),
        r.max_wait_ms.to_bits(),
        outcomes,
    )
}

/// The six policies: both baselines, LifeRaft greedy, aged and at
/// normalized α = 0.5, and adaptive α, whose controller reads the arrival
/// stream (a shard's, or its sub-trace's).
fn policy(kind: u8) -> Box<dyn Scheduler + Send> {
    let params = MetricParams::paper();
    match kind {
        0 => Box::new(NoShareScheduler::new()),
        1 => Box::new(RoundRobinScheduler::new()),
        2 => Box::new(LifeRaftScheduler::greedy(params)),
        3 => Box::new(LifeRaftScheduler::age_based(params)),
        4 => Box::new(LifeRaftScheduler::new(params, AgingMode::Normalized, 0.5)),
        _ => {
            let pt = |alpha, throughput_qps, mean_response_s| TradeoffPoint {
                alpha,
                throughput_qps,
                mean_response_s,
            };
            let table = TradeoffTable::new(vec![
                TradeoffCurve::new(0.1, vec![pt(0.0, 0.115, 300.0), pt(1.0, 0.107, 138.0)]),
                TradeoffCurve::new(0.5, vec![pt(0.0, 0.40, 420.0), pt(0.25, 0.32, 340.0)]),
            ]);
            let window = SimDuration::from_secs(60);
            let controller =
                AlphaController::new(table, 0.2, window, SimDuration::from_secs(5), 0.5);
            let inner = LifeRaftScheduler::new(params, AgingMode::Normalized, 0.5);
            Box::new(AdaptiveScheduler::new(inner, controller))
        }
    }
}

/// A timed trace of `entries`, in order.
fn timed(entries: &[(liferaft_storage::SimTime, CrossMatchQuery)]) -> TimedTrace {
    let queries = entries.iter().map(|(_, q)| q.clone()).collect();
    let arrivals = entries.iter().map(|e| e.0).collect();
    Trace::new(LEVEL, queries).with_arrivals(arrivals)
}

/// Checks shard decomposition on a `len`-query draw placed by `assignment`.
fn shards_are_independent_simulations(
    seed: u64,
    n_shards: u32,
    rate_deci: u64,
    assignment: ShardAssignment,
    len: usize,
) {
    let catalog = VirtualCatalog::new(LEVEL, BUCKETS, 50, 4096, seed);
    let cfg = WorkloadConfig::paper_like(LEVEL, BUCKETS, len, seed ^ 0x51);
    let trace = TraceGenerator::new(cfg).generate();
    let arrivals = poisson_arrivals(rate_deci as f64 / 10.0, trace.len(), seed ^ 0xBEEF);
    let full = trace.with_arrivals(arrivals);

    // Keep the queries that live on one shard, and note which.
    let map = ShardMap::new(BUCKETS as usize, n_shards, assignment);
    let pre = QueryPreProcessor::new(catalog.partition());
    let mut kept = Vec::new();
    let mut home = Vec::new();
    for entry in full.entries() {
        let items = pre.preprocess(&entry.1);
        let mut shards = items.iter().map(|i| map.shard_of(i.bucket).index());
        let first = shards.next().unwrap_or(0);
        if shards.all(|s| s == first) {
            kept.push(entry.clone());
            home.push(first);
        }
    }
    let populated = (0..n_shards as usize).filter(|s| home.contains(s)).count();
    prop_assert!(
        populated >= 2,
        "{} of {} queries kept, on {} shard(s)",
        kept.len(),
        full.len(),
        populated
    );

    let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
    config.assignment = assignment;
    let rt = ShardedRuntime::new(&catalog, config);
    let sim = Simulation::new(&catalog, SimConfig::paper());
    let kept_trace = timed(&kept);
    for kind in 0u8..6 {
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let run = rt.run(&kept_trace, &mut |_| policy(kind), mode);
            prop_assert_eq!(run.cross_shard_queries, 0);
            for (shard, got) in run.shards.iter().enumerate() {
                let mine: Vec<_> = kept
                    .iter()
                    .zip(&home)
                    .filter(|&(_, &h)| h == shard)
                    .map(|(e, _)| e.clone())
                    .collect();
                let want = sim.run(&timed(&mine), policy(kind).as_mut());
                prop_assert_eq!(
                    fp(&got.report),
                    fp(&want),
                    "scheduler {}, {:?}, shard {} of {}",
                    kind,
                    mode,
                    shard,
                    n_shards
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard decomposition (see the module docs) under contiguous
    /// placement, for every scheduler in both executors.
    #[test]
    fn contiguous_shards_are_independent_simulations(
        seed in 0u64..10_000,
        n_shards in 2u32..5,
        rate_deci in 2u64..40,
    ) {
        shards_are_independent_simulations(seed, n_shards, rate_deci, ShardAssignment::Contiguous, 120);
    }

    /// The same under hashed placement (`pool_threaded`'s), where a query
    /// lives on one shard less often, so the draw is larger.
    #[test]
    fn hashed_shards_are_independent_simulations(
        seed in 0u64..10_000,
        n_shards in 2u32..5,
        rate_deci in 2u64..40,
    ) {
        let assignment = ShardAssignment::Hashed { seed: seed ^ 0x5AD };
        shards_are_independent_simulations(seed, n_shards, rate_deci, assignment, 400);
    }
}
