//! Federated cross-match: a serial chain of archives, each batching with
//! its own LifeRaft scheduler.
//!
//! SkyQuery ships intermediate join results from archive to archive
//! (Section 3); the paper evaluates one site and leaves multi-site
//! coordination as future work (Section 6). This example runs the full
//! chain: three synthetic archives (think 2MASS → SDSS → USNO-B) observing
//! the same sky at different depths, with every site scheduling
//! independently. It compares per-site and end-to-end behaviour of LifeRaft
//! against NoShare chains.
//!
//! Run with: `cargo run --release -p liferaft-bench --example federation_chain`

use liferaft_bench::federation::run_chain;
use liferaft_catalog::generate::uniform_sky;
use liferaft_catalog::{Catalog, MaterializedCatalog};
use liferaft_core::{LifeRaftScheduler, NoShareScheduler, Scheduler};
use liferaft_metrics::Table;
use liferaft_query::{CrossMatchQuery, Predicate, QueryId};
use liferaft_sim::SimConfig;
use liferaft_storage::{BucketId, CostModel};
use liferaft_workload::arrivals::poisson_arrivals;
use liferaft_workload::Trace;

const LEVEL: u8 = 8;

fn main() {
    // Three archives over one sky: same positions (the same universe!),
    // different bucket layouts — each site partitions independently.
    let sky = uniform_sky(30_000, LEVEL, 23);
    let twomass = MaterializedCatalog::build(&sky, LEVEL, 400, 4096);
    let sdss = MaterializedCatalog::build(&sky, LEVEL, 250, 4096);
    let usnob = MaterializedCatalog::build(&sky, LEVEL, 500, 4096);
    println!(
        "federation: twomass ({} buckets) → sdss ({} buckets) → usnob ({} buckets)",
        twomass.partition().num_buckets(),
        sdss.partition().num_buckets(),
        usnob.partition().num_buckets()
    );

    // Queries anchored on real objects so cross-matches survive the chain.
    let queries: Vec<CrossMatchQuery> = (0..40)
        .map(|i| {
            let objs = twomass.bucket_objects(BucketId((i % 6) as u32 * 10));
            let positions: Vec<_> = objs.iter().step_by(8).map(|o| o.pos).collect();
            CrossMatchQuery::from_positions(
                QueryId(i as u64),
                &positions,
                2e-4,
                LEVEL,
                Predicate::All,
            )
        })
        .collect();
    let trace = Trace::new(LEVEL, queries);
    let timed = trace.with_arrivals(poisson_arrivals(0.2, trace.len(), 31));
    let sites: Vec<&dyn Catalog> = vec![&twomass, &sdss, &usnob];

    let params = CostModel::paper();
    let mut table = Table::new([
        "chain scheduler",
        "site",
        "tput (q/s)",
        "mean rt (s)",
        "bucket reads",
        "entered",
        "dropped",
    ]);

    for policy in ["LifeRaft(α=0)", "NoShare"] {
        let mut mk: Box<dyn FnMut(usize) -> Box<dyn Scheduler>> = if policy.starts_with("LifeRaft")
        {
            Box::new(move |_| Box::new(LifeRaftScheduler::greedy(params)))
        } else {
            Box::new(|_| Box::new(NoShareScheduler::new()))
        };
        let report = run_chain(&sites, &timed, mk.as_mut(), SimConfig::paper());
        for (i, site_report) in report.sites.iter().enumerate() {
            table.row([
                policy.to_string(),
                ["twomass", "sdss", "usnob"][i].to_string(),
                format!("{:.4}", site_report.throughput_qps),
                format!("{:.1}", site_report.mean_response_s()),
                site_report.io.bucket_reads.to_string(),
                report.entered[i].to_string(),
                report.dropped[i].to_string(),
            ]);
        }
        println!(
            "{policy}: {} of {} queries survived the chain; end-to-end mean {:.1}s, p90 {:.1}s",
            report.survivors(),
            timed.len(),
            report.end_to_end.mean(),
            report.end_to_end.percentile(90.0),
        );
    }
    println!("\n{}", table.render());
    println!(
        "Each site batches independently (Section 6); intermediate result lists grow or\n\
         shrink at each hop, so downstream sites see different contention than upstream."
    );
}
