//! SkyQuery trace replay: the paper's headline experiment (Figure 7) at a
//! configurable scale.
//!
//! Replays a 2 000-query (by default) synthetic SkyQuery workload against a
//! paper-scale virtual catalog under every scheduler the paper evaluates:
//! NoShare, LifeRaft at α ∈ {1.0, 0.75, 0.5, 0.25, 0.0}, and RR. Prints
//! throughput, response time (normalized to NoShare, as in Figure 7b),
//! coefficient of variation, and cache behaviour.
//!
//! Run with:
//!   cargo run --release --example skyquery_replay
//!   cargo run --release --example skyquery_replay -- <queries> <buckets> <rate_qps>

use liferaft::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_queries: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(500);
    let n_buckets: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1024);
    let rate: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.25);

    const LEVEL: u8 = 14; // the paper's object level
    println!(
        "replaying {n_queries} queries over {n_buckets} buckets of 10,000 objects at {rate} q/s\n"
    );

    // The paper's storage shape: 40 MB buckets of 10 000 × 4 KB objects.
    let catalog = VirtualCatalog::new(LEVEL, n_buckets, 10_000, 4096, 2009);
    let cfg = WorkloadConfig::paper_like(LEVEL, n_buckets, n_queries, 1);
    let trace = TraceGenerator::new(cfg).generate();

    let stats = WorkloadStats::analyze(&trace, catalog.partition());
    println!(
        "workload shape: top-10 buckets touched by {:.0}% of queries; \
         top 2% of buckets carry {:.0}% of objects; {:.1} buckets/query",
        stats.top_k_query_coverage(10) * 100.0,
        stats.workload_share_of_top_buckets(0.02) * 100.0,
        stats.mean_buckets_per_query(),
    );

    let timed = trace.with_arrivals(poisson_arrivals(rate, trace.len(), 7));
    let sim = Simulation::new(&catalog, SimConfig::paper());
    let params = CostModel::paper();

    // The Figure 7 scheduler lineup.
    let mut lineup: Vec<Box<dyn Scheduler>> = vec![Box::new(NoShareScheduler::new())];
    for alpha in [1.0, 0.75, 0.5, 0.25, 0.0] {
        lineup.push(Box::new(LifeRaftScheduler::new(
            params,
            AgingMode::Normalized,
            alpha,
        )));
    }
    lineup.push(Box::new(RoundRobinScheduler::new()));

    let mut reports = Vec::new();
    for s in &mut lineup {
        let r = sim.run(&timed, s.as_mut());
        println!("{}", r.summary_line());
        reports.push(r);
    }

    let noshare_rt = reports[0].mean_response_s();
    let mut table = Table::new([
        "scheduler",
        "tput (q/s)",
        "rt/NoShare",
        "CoV",
        "cache-hit %",
        "bucket reads",
    ]);
    for r in &reports {
        table.row([
            r.scheduler.clone(),
            format!("{:.4}", r.throughput_qps),
            format!("{:.2}", r.mean_response_s() / noshare_rt),
            format!("{:.2}", r.response_cov()),
            format!("{:.1}", r.cache_service_fraction() * 100.0),
            r.io.bucket_reads.to_string(),
        ]);
    }
    println!("\n{}", table.render());

    let greedy = &reports[5];
    println!(
        "speed-up of LifeRaft(α=0) over NoShare: {:.2}x (paper: >2x)",
        greedy.throughput_qps / reports[0].throughput_qps
    );
}
