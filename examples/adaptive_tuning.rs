//! Adaptive α: calibrate trade-off curves offline, then let the controller
//! retune the scheduler as a bursty workload swings between saturations.
//!
//! Reproduces the Section 4 workflow end to end:
//! 1. calibrate throughput-vs-response curves at several saturations
//!    (Figure 4's data),
//! 2. pick α per saturation under a 20% throughput-degradation tolerance,
//! 3. replay a bursty trace with the [`AdaptiveScheduler`] and compare it
//!    against every fixed-α policy.
//!
//! Run with: `cargo run --release --example adaptive_tuning`

use liferaft::prelude::*;

const LEVEL: u8 = 8;

fn main() {
    let sky = liferaft::catalog::generate::uniform_sky(30_000, LEVEL, 5);
    let catalog = MaterializedCatalog::build(&sky, LEVEL, 300, 4096);
    let n_buckets = catalog.partition().num_buckets() as u32;

    let mut cfg = WorkloadConfig::paper_like(LEVEL, n_buckets, 150, 13);
    cfg.size_small = (10, 40);
    cfg.size_large = (60, 200);
    let trace = TraceGenerator::new(cfg).generate();

    // --- 1. Offline calibration -----------------------------------------
    let saturations = [0.05, 0.1, 0.25, 0.5];
    let alphas = [0.0, 0.25, 0.5, 0.75, 1.0];
    println!(
        "calibrating {}x{} (saturation x alpha) grid...",
        saturations.len(),
        alphas.len()
    );
    let (table, reports) = calibrate_tradeoff_table(
        &catalog,
        &trace,
        &saturations,
        &alphas,
        SimConfig::paper(),
        99,
    );

    let mut cal = Table::new(["saturation (q/s)", "alpha", "tput (q/s)", "mean rt (s)"]);
    for (sat, runs) in &reports {
        for r in runs {
            cal.row([
                format!("{sat}"),
                r.scheduler.clone(),
                format!("{:.4}", r.throughput_qps),
                format!("{:.1}", r.mean_response_s()),
            ]);
        }
    }
    println!("\n{}", cal.render());

    // --- 2. Tolerance-threshold selection (Section 4) -------------------
    const TOLERANCE: f64 = 0.2;
    let mut sel = Table::new(["saturation (q/s)", "selected alpha (20% tolerance)"]);
    for &sat in &saturations {
        sel.row([
            format!("{sat}"),
            format!("{}", table.select_alpha(sat, TOLERANCE)),
        ]);
    }
    println!("{}", sel.render());

    // --- 3. Bursty replay with the adaptive controller ------------------
    let burst = bursty_arrivals(0.05, 0.5, SimDuration::from_secs(600), trace.len(), 4);
    let timed = trace.with_arrivals(burst);
    let sim = Simulation::new(&catalog, SimConfig::paper());
    let params = CostModel::paper();

    let controller = AlphaController::new(
        table,
        TOLERANCE,
        SimDuration::from_secs(120), // saturation window
        SimDuration::from_secs(60),  // retune cadence
        0.5,
    );
    let mut adaptive = AdaptiveScheduler::new(
        LifeRaftScheduler::new(params, AgingMode::Normalized, 0.5),
        controller,
    );

    let mut replay = Table::new(["scheduler", "tput (q/s)", "mean rt (s)", "p90 rt (s)"]);
    let r = sim.run(&timed, &mut adaptive);
    replay.row([
        "AdaptiveLifeRaft".to_string(),
        format!("{:.4}", r.throughput_qps),
        format!("{:.1}", r.mean_response_s()),
        format!("{:.1}", r.response.percentile(90.0)),
    ]);
    for alpha in alphas {
        let mut s = LifeRaftScheduler::new(params, AgingMode::Normalized, alpha);
        let r = sim.run(&timed, &mut s);
        replay.row([
            r.scheduler.clone(),
            format!("{:.4}", r.throughput_qps),
            format!("{:.1}", r.mean_response_s()),
            format!("{:.1}", r.response.percentile(90.0)),
        ]);
    }
    println!("bursty replay (alternating 0.05 / 0.5 q/s phases):\n");
    println!("{}", replay.render());
    println!(
        "The adaptive policy should track the better fixed-α at each phase:\n\
         high α during lulls (low response time costs little throughput),\n\
         low α during bursts (throughput is worth defending)."
    );
}
