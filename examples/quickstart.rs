//! Quickstart: the end-to-end LifeRaft pipeline on a small sky.
//!
//! Builds a catalog, partitions it into equal-sized HTM buckets, generates a
//! hotspot workload, and compares the LifeRaft scheduler against the
//! NoShare and round-robin baselines — with *real* cross-match joins so the
//! match counts prove all schedulers compute the same answers.
//!
//! Run with: `cargo run --release --example quickstart`

use liferaft::prelude::*;

fn main() {
    const LEVEL: u8 = 8;

    // 1. A synthetic sky of 20 000 objects, partitioned into buckets of 200
    //    objects (the paper's layout, scaled down).
    let sky = liferaft::catalog::generate::uniform_sky(20_000, LEVEL, 42);
    let catalog = MaterializedCatalog::build(&sky, LEVEL, 200, 4096);
    let n_buckets = catalog.partition().num_buckets();
    println!(
        "catalog: {} objects in {} buckets of 200 (HTM level {LEVEL})",
        sky.len(),
        n_buckets
    );

    // 2. A 60-query workload with hotspot skew, arriving at 0.5 queries/s.
    let cfg = WorkloadConfig::paper_like(LEVEL, n_buckets as u32, 60, 7);
    let trace = TraceGenerator::new(cfg).generate();
    let stats = WorkloadStats::analyze(&trace, catalog.partition());
    println!(
        "workload: {} queries, {} objects, top-10 buckets touched by {:.0}% of queries",
        trace.len(),
        trace.total_objects(),
        stats.top_k_query_coverage(10) * 100.0
    );
    let timed = trace.with_arrivals(poisson_arrivals(0.5, trace.len(), 1));

    // 3. Replay under each scheduler, executing the joins for real.
    let sim = Simulation::new(&catalog, SimConfig::with_real_joins());
    let params = CostModel::paper();
    let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(NoShareScheduler::new()),
        Box::new(RoundRobinScheduler::new()),
        Box::new(LifeRaftScheduler::age_based(params)), // α = 1
        Box::new(LifeRaftScheduler::greedy(params)),    // α = 0
    ];

    let mut table = Table::new([
        "scheduler",
        "throughput (q/s)",
        "mean rt (s)",
        "bucket reads",
        "mean batch",
        "matches",
    ]);
    for s in &mut schedulers {
        let r = sim.run(&timed, s.as_mut());
        table.row([
            r.scheduler.clone(),
            format!("{:.4}", r.throughput_qps),
            format!("{:.1}", r.mean_response_s()),
            r.io.bucket_reads.to_string(),
            format!("{:.1}", r.mean_batch_size()),
            r.total_matches.to_string(),
        ]);
    }
    println!("\n{}", table.render());
    println!("All schedulers report identical `matches` — only ordering and I/O differ.");
}
