//! Starvation study: short interactive queries sharing an archive with
//! long-running batch scans.
//!
//! SkyQuery's motivating pathology (Section 1): "any scheduler that sends
//! queries to the query processor in order will result in the starvation of
//! short-lived queries that queue awaiting the completion of long-running
//! queries" — while a purely greedy batcher starves whichever queries touch
//! unpopular data. This example builds an adversarial mix (a stream of tiny
//! interactive probes + heavyweight sky sweeps) and shows how the age bias α
//! moves the pain between the two populations.
//!
//! Run with: `cargo run --release --example interactive_vs_batch`

use liferaft::metrics::Summary;
use liferaft::prelude::*;

const LEVEL: u8 = 8;

fn main() {
    let sky = liferaft::catalog::generate::uniform_sky(40_000, LEVEL, 3);
    let catalog = MaterializedCatalog::build(&sky, LEVEL, 400, 4096);
    let n_buckets = catalog.partition().num_buckets() as u32;

    // Interactive probes: 1–4 objects in one tiny region (sub-second work).
    // Batch sweeps: hundreds of objects over wide regions (minutes of work).
    let mut interactive_cfg = WorkloadConfig::paper_like(LEVEL, n_buckets, 80, 11);
    interactive_cfg.size_small = (1, 4);
    interactive_cfg.size_large = (1, 4);
    interactive_cfg.full_sky_fraction = 0.0;
    let mut batch_cfg = WorkloadConfig::paper_like(LEVEL, n_buckets, 20, 12);
    batch_cfg.size_small = (200, 400);
    batch_cfg.size_large = (400, 800);
    batch_cfg.full_sky_fraction = 0.3;

    // Interleave: batch queries first (they hog the server), interactive
    // queries trickle in behind them.
    let interactive = TraceGenerator::new(interactive_cfg).generate();
    let batch = TraceGenerator::new(batch_cfg).generate();
    let mut queries = Vec::new();
    let mut arrivals = Vec::new();
    let batch_arrivals = poisson_arrivals(0.05, batch.len(), 21);
    let inter_arrivals = poisson_arrivals(0.2, interactive.len(), 22);
    let mut merged: Vec<(SimTime, CrossMatchQuery, bool)> = Vec::new();
    for (t, q) in batch_arrivals.iter().zip(batch.queries()) {
        merged.push((*t, q.clone(), true));
    }
    for (t, q) in inter_arrivals.iter().zip(interactive.queries()) {
        merged.push((*t, q.clone(), false));
    }
    merged.sort_by_key(|(t, _, _)| *t);
    let mut is_batch = Vec::new();
    for (i, (t, mut q, batchy)) in merged.into_iter().enumerate() {
        q.id = QueryId(i as u64); // re-id in arrival order
        arrivals.push(t);
        queries.push(q);
        is_batch.push(batchy);
    }
    let trace = Trace::new(LEVEL, queries);
    let timed = trace.with_arrivals(arrivals);

    println!(
        "mixed workload: {} interactive probes + {} batch sweeps\n",
        interactive.len(),
        batch.len()
    );

    let sim = Simulation::new(&catalog, SimConfig::paper());
    let params = CostModel::paper();
    let mut table = Table::new([
        "scheduler",
        "interactive mean rt (s)",
        "interactive p90 (s)",
        "batch mean rt (s)",
        "tput (q/s)",
        "max wait (s)",
    ]);

    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut s = LifeRaftScheduler::new(params, AgingMode::Normalized, alpha);
        let r = sim.run(&timed, &mut s);
        let (mut inter_rt, mut batch_rt) = (Vec::new(), Vec::new());
        for o in &r.outcomes {
            let rt = o.response_time().as_secs_f64();
            if is_batch[o.query.0 as usize] {
                batch_rt.push(rt);
            } else {
                inter_rt.push(rt);
            }
        }
        let inter = Summary::from_samples(inter_rt);
        let batch = Summary::from_samples(batch_rt);
        table.row([
            r.scheduler.clone(),
            format!("{:.1}", inter.mean()),
            format!("{:.1}", inter.percentile(90.0)),
            format!("{:.1}", batch.mean()),
            format!("{:.4}", r.throughput_qps),
            format!("{:.1}", r.max_wait_ms / 1000.0),
        ]);
    }
    // NoShare for contrast: strict arrival order means interactive queries
    // queue behind every earlier sweep.
    let r = sim.run(&timed, &mut NoShareScheduler::new());
    let inter = Summary::from_samples(
        r.outcomes
            .iter()
            .filter(|o| !is_batch[o.query.0 as usize])
            .map(|o| o.response_time().as_secs_f64())
            .collect(),
    );
    let batch_s = Summary::from_samples(
        r.outcomes
            .iter()
            .filter(|o| is_batch[o.query.0 as usize])
            .map(|o| o.response_time().as_secs_f64())
            .collect(),
    );
    table.row([
        r.scheduler.clone(),
        format!("{:.1}", inter.mean()),
        format!("{:.1}", inter.percentile(90.0)),
        format!("{:.1}", batch_s.mean()),
        format!("{:.4}", r.throughput_qps),
        format!("{:.1}", r.max_wait_ms / 1000.0),
    ]);

    println!("{}", table.render());
    println!(
        "Reading the table: α=0 maximizes throughput but lets unpopular-data queries wait;\n\
         α=1 serves arrival order; intermediate α (the paper's operating point) balances both."
    );
}
