//! End-to-end integration: every layer from HTM partitioning to run reports.

use liferaft::prelude::*;

const LEVEL: u8 = 8;

fn catalog() -> MaterializedCatalog {
    let sky = liferaft::catalog::generate::uniform_sky(30_000, LEVEL, 17);
    MaterializedCatalog::build(&sky, LEVEL, 300, 4096)
}

fn contended_trace(n_buckets: u32, n_queries: usize, seed: u64) -> Trace {
    let mut cfg = WorkloadConfig::paper_like(LEVEL, n_buckets, n_queries, seed);
    cfg.size_small = (10, 30);
    cfg.size_large = (50, 150);
    // The paper's 10-arcsec error circles suit SDSS densities (200M
    // objects); our 30k-object test sky is ~4 orders of magnitude sparser,
    // so scale the match radius up to keep real joins producing matches.
    cfg.error_radius = 0.03;
    TraceGenerator::new(cfg).generate()
}

/// Every scheduler produces the identical multiset of cross-match results;
/// only ordering, timing, and I/O differ.
#[test]
fn schedulers_agree_on_query_answers() {
    let cat = catalog();
    let trace = contended_trace(cat.partition().num_buckets() as u32, 40, 3);
    let timed = trace.with_arrivals(poisson_arrivals(0.5, trace.len(), 9));
    let sim = Simulation::new(&cat, SimConfig::with_real_joins());
    let params = CostModel::paper();

    let mut lineup: Vec<Box<dyn Scheduler>> = vec![
        Box::new(NoShareScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
        Box::new(LifeRaftScheduler::greedy(params)),
        Box::new(LifeRaftScheduler::new(params, AgingMode::Normalized, 0.5)),
        Box::new(LifeRaftScheduler::age_based(params)),
    ];
    let mut matches = None;
    for s in &mut lineup {
        let r = sim.run(&timed, s.as_mut());
        assert_eq!(r.queries, trace.len(), "{}", r.scheduler);
        match matches {
            None => matches = Some(r.total_matches),
            Some(m) => assert_eq!(m, r.total_matches, "{} disagrees", r.scheduler),
        }
    }
    assert!(
        matches.unwrap() > 0,
        "the workload must actually match things"
    );
}

/// The paper's headline ordering: on a contended workload, data-driven
/// batching beats arrival order, which beats share-nothing evaluation.
#[test]
fn throughput_ordering_greedy_aged_noshare() {
    let cat = catalog();
    let trace = contended_trace(cat.partition().num_buckets() as u32, 120, 5);
    // Saturating arrival rate: everyone queues, sharing opportunities abound.
    let timed = trace.with_arrivals(poisson_arrivals(1.0, trace.len(), 11));
    let sim = Simulation::new(&cat, SimConfig::paper());
    let params = CostModel::paper();

    let greedy = sim.run(&timed, &mut LifeRaftScheduler::greedy(params));
    let aged = sim.run(&timed, &mut LifeRaftScheduler::age_based(params));
    let noshare = sim.run(&timed, &mut NoShareScheduler::new());

    assert!(
        greedy.throughput_qps >= aged.throughput_qps,
        "greedy {} < aged {}",
        greedy.throughput_qps,
        aged.throughput_qps
    );
    assert!(
        aged.throughput_qps > noshare.throughput_qps,
        "even α=1 shares I/O and must beat NoShare: {} vs {}",
        aged.throughput_qps,
        noshare.throughput_qps
    );
    // The two-fold claim, loosely: greedy at least 1.5x NoShare here.
    assert!(
        greedy.throughput_qps > 1.5 * noshare.throughput_qps,
        "batching win too small: {} vs {}",
        greedy.throughput_qps,
        noshare.throughput_qps
    );
    // NoShare has the worst mean response time (Figure 7b).
    assert!(noshare.mean_response_s() > greedy.mean_response_s() * 0.9);
}

/// RR's throughput resembles the α=1 LifeRaft configuration (Figure 7a:
/// "the performance of RR is similar to a LifeRaft scheduler with an α of 1
/// because neither approach accounts for contention").
#[test]
fn rr_resembles_age_based_liferaft() {
    let cat = catalog();
    let trace = contended_trace(cat.partition().num_buckets() as u32, 100, 7);
    let timed = trace.with_arrivals(poisson_arrivals(0.5, trace.len(), 13));
    let sim = Simulation::new(&cat, SimConfig::paper());
    let params = CostModel::paper();

    let aged = sim.run(&timed, &mut LifeRaftScheduler::age_based(params));
    let rr = sim.run(&timed, &mut RoundRobinScheduler::new());
    let ratio = rr.throughput_qps / aged.throughput_qps;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "RR/aged throughput ratio {ratio} outside the similarity band"
    );
}

/// Work conservation across the whole stack: assignments in == serviced ==
/// tracked completions.
#[test]
fn conservation_of_work() {
    let cat = catalog();
    let trace = contended_trace(cat.partition().num_buckets() as u32, 60, 19);
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
    let timed = trace.with_arrivals(poisson_arrivals(0.3, trace.len(), 23));
    let sim = Simulation::new(&cat, SimConfig::paper());
    for s in [
        &mut NoShareScheduler::new() as &mut dyn Scheduler,
        &mut RoundRobinScheduler::new(),
        &mut LifeRaftScheduler::greedy(CostModel::paper()),
    ] {
        let r = sim.run(&timed, s);
        assert_eq!(r.serviced_entries, expected, "{}", r.scheduler);
        let outcome_assignments: u64 = r.outcomes.iter().map(|o| o.assignments).sum();
        assert_eq!(outcome_assignments, expected, "{}", r.scheduler);
    }
}

/// Determinism: identical runs produce identical reports.
#[test]
fn simulation_is_deterministic() {
    let cat = catalog();
    let trace = contended_trace(cat.partition().num_buckets() as u32, 30, 29);
    let timed = trace.with_arrivals(poisson_arrivals(0.4, trace.len(), 31));
    let sim = Simulation::new(&cat, SimConfig::paper());
    let a = sim.run(&timed, &mut LifeRaftScheduler::greedy(CostModel::paper()));
    let b = sim.run(&timed, &mut LifeRaftScheduler::greedy(CostModel::paper()));
    assert_eq!(a.throughput_qps, b.throughput_qps);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.io.bucket_reads, b.io.bucket_reads);
    assert_eq!(a.response.mean(), b.response.mean());
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x, y);
    }
}

/// The hybrid join strategy kicks in for small queues and shortens runs
/// relative to scan-only. NoShare never uses it (it models the pre-existing
/// scan-based evaluation), so the comparison runs under the aged LifeRaft
/// policy, whose in-order batches are often small.
#[test]
fn hybrid_join_helps_small_batches() {
    let cat = catalog();
    let trace = contended_trace(cat.partition().num_buckets() as u32, 60, 37);
    let timed = trace.with_arrivals(poisson_arrivals(0.3, trace.len(), 41));

    let mut scan_only = SimConfig::paper();
    scan_only.cost.threshold_ratio = 0.0;
    let hybrid_sim = Simulation::new(&cat, SimConfig::paper());
    let scan_sim = Simulation::new(&cat, scan_only);
    let params = CostModel::paper();

    let h = hybrid_sim.run(&timed, &mut LifeRaftScheduler::age_based(params));
    let s = scan_sim.run(&timed, &mut LifeRaftScheduler::age_based(params));
    assert!(h.indexed_batches > 0, "hybrid must use the index sometimes");
    assert_eq!(s.indexed_batches, 0);
    assert!(
        h.makespan_s <= s.makespan_s * 1.02,
        "hybrid should not lengthen the aged policy: {} vs {}",
        h.makespan_s,
        s.makespan_s
    );
    // NoShare ignores the hybrid configuration entirely.
    let n = hybrid_sim.run(&timed, &mut NoShareScheduler::new());
    assert_eq!(n.indexed_batches, 0, "NoShare is scan-based by definition");
}

/// Starvation: the greedy policy leaves requests waiting far longer than
/// the age-based policy on a skewed workload.
#[test]
fn age_bias_bounds_starvation() {
    let cat = catalog();
    let trace = contended_trace(cat.partition().num_buckets() as u32, 120, 43);
    let timed = trace.with_arrivals(poisson_arrivals(1.0, trace.len(), 47));
    let sim = Simulation::new(&cat, SimConfig::paper());
    let params = CostModel::paper();

    let greedy = sim.run(&timed, &mut LifeRaftScheduler::greedy(params));
    let aged = sim.run(&timed, &mut LifeRaftScheduler::age_based(params));
    assert!(
        greedy.max_wait_ms > aged.max_wait_ms,
        "greedy should starve more: {} vs {}",
        greedy.max_wait_ms,
        aged.max_wait_ms
    );
    // And the p99 response tail of aged is no worse than greedy's.
    assert!(
        aged.response.percentile(99.0) <= greedy.response.percentile(99.0) * 1.5,
        "aged tail {} vs greedy tail {}",
        aged.response.percentile(99.0),
        greedy.response.percentile(99.0)
    );
}
