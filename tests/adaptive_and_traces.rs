//! Integration: adaptive α control and trace persistence.

use liferaft::prelude::*;

const LEVEL: u8 = 8;

fn setup() -> (MaterializedCatalog, Trace) {
    let sky = liferaft::catalog::generate::uniform_sky(20_000, LEVEL, 51);
    let cat = MaterializedCatalog::build(&sky, LEVEL, 200, 4096);
    let mut cfg = WorkloadConfig::paper_like(LEVEL, cat.partition().num_buckets() as u32, 60, 53);
    cfg.size_small = (8, 20);
    cfg.size_large = (30, 80);
    let trace = TraceGenerator::new(cfg).generate();
    (cat, trace)
}

/// Calibration produces monotone-consistent curves: at any saturation, the
/// selected α under tolerance 0 is the throughput-maximal point, and larger
/// tolerances never select a slower-responding point.
#[test]
fn tolerance_threshold_semantics_hold_on_calibrated_curves() {
    let (cat, trace) = setup();
    let (table, _) = calibrate_tradeoff_table(
        &cat,
        &trace,
        &[0.1, 0.5],
        &[0.0, 0.25, 0.5, 0.75, 1.0],
        SimConfig::paper(),
        61,
    );
    for curve in table.curves() {
        let a0 = curve.select_alpha(0.0);
        let max_tput = curve.max_throughput();
        let p0 = curve
            .points()
            .iter()
            .find(|p| p.alpha == a0)
            .expect("selected α is a calibrated point");
        assert_eq!(p0.throughput_qps, max_tput);
        // Widening the tolerance must never increase mean response time.
        let mut last_resp = f64::INFINITY;
        for tol in [0.0, 0.1, 0.2, 0.5, 1.0] {
            let a = curve.select_alpha(tol);
            let p = curve.points().iter().find(|p| p.alpha == a).unwrap();
            assert!(
                p.mean_response_s <= last_resp + 1e-9,
                "tolerance {tol} worsened response"
            );
            last_resp = p.mean_response_s;
        }
    }
}

/// The adaptive scheduler completes everything and lands between the best
/// and worst fixed-α policies on throughput and response.
#[test]
fn adaptive_scheduler_is_sane_on_bursty_load() {
    let (cat, trace) = setup();
    let alphas = [0.0, 0.5, 1.0];
    let (table, _) =
        calibrate_tradeoff_table(&cat, &trace, &[0.05, 0.5], &alphas, SimConfig::paper(), 67);
    let arrivals = bursty_arrivals(0.05, 0.5, SimDuration::from_secs(400), trace.len(), 71);
    let timed = trace.with_arrivals(arrivals);
    let sim = Simulation::new(&cat, SimConfig::paper());
    let params = CostModel::paper();

    let controller = AlphaController::new(
        table,
        0.2,
        SimDuration::from_secs(100),
        SimDuration::from_secs(50),
        0.5,
    );
    let mut adaptive = AdaptiveScheduler::new(
        LifeRaftScheduler::new(params, AgingMode::Normalized, 0.5),
        controller,
    );
    let ra = sim.run(&timed, &mut adaptive);
    assert_eq!(ra.queries, trace.len());

    let fixed: Vec<RunReport> = alphas
        .iter()
        .map(|&a| {
            sim.run(
                &timed,
                &mut LifeRaftScheduler::new(params, AgingMode::Normalized, a),
            )
        })
        .collect();
    let best_tput = fixed.iter().map(|r| r.throughput_qps).fold(0.0, f64::max);
    let worst_tput = fixed
        .iter()
        .map(|r| r.throughput_qps)
        .fold(f64::INFINITY, f64::min);
    assert!(
        ra.throughput_qps >= worst_tput * 0.9,
        "adaptive {} far below worst fixed {}",
        ra.throughput_qps,
        worst_tput
    );
    assert!(
        ra.throughput_qps <= best_tput * 1.1,
        "adaptive {} above best fixed {} — accounting bug?",
        ra.throughput_qps,
        best_tput
    );
}

/// A trace written to disk and read back replays to the identical report.
#[test]
fn persisted_trace_replays_identically() {
    let (cat, trace) = setup();
    let mut buf = Vec::new();
    trace.write_to(&mut buf).expect("serialize");
    let restored = Trace::read_from(buf.as_slice()).expect("parse");
    assert_eq!(restored.len(), trace.len());

    let arrivals = poisson_arrivals(0.3, trace.len(), 73);
    let sim = Simulation::new(&cat, SimConfig::paper());
    let params = CostModel::paper();
    let a = sim.run(
        &trace.with_arrivals(arrivals.clone()),
        &mut LifeRaftScheduler::greedy(params),
    );
    let b = sim.run(
        &restored.with_arrivals(arrivals),
        &mut LifeRaftScheduler::greedy(params),
    );
    assert_eq!(a.throughput_qps, b.throughput_qps);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.serviced_entries, b.serviced_entries);
    assert_eq!(a.response.mean(), b.response.mean());
}

/// The virtual (paper-scale, on-demand) catalog supports full cost-mode
/// replays with conserved work, and its real-join mode agrees with itself.
#[test]
fn virtual_catalog_replay() {
    const VLEVEL: u8 = 10;
    let cat = VirtualCatalog::new(VLEVEL, 512, 1_000, 4096, 79);
    let cfg = WorkloadConfig::paper_like(VLEVEL, 512, 50, 83);
    let trace = TraceGenerator::new(cfg).generate();
    let timed = trace.with_arrivals(poisson_arrivals(0.5, trace.len(), 89));

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

    let sim = Simulation::new(&cat, SimConfig::paper());
    let r = sim.run(&timed, &mut LifeRaftScheduler::greedy(CostModel::paper()));
    assert_eq!(r.queries, 50);
    assert_eq!(r.serviced_entries, expected);

    // Real joins over the virtual catalog: deterministic match counts.
    let sim_real = Simulation::new(&cat, SimConfig::with_real_joins());
    let m1 = sim_real
        .run(&timed, &mut LifeRaftScheduler::greedy(CostModel::paper()))
        .total_matches;
    let m2 = sim_real
        .run(&timed, &mut NoShareScheduler::new())
        .total_matches;
    assert_eq!(
        m1, m2,
        "virtual-catalog joins must be scheduler-independent"
    );
}
