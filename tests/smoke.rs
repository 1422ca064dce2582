//! Smoke test mirroring the crate-level doc example in `src/lib.rs`.
//!
//! The quickstart — build a catalog, synthesize a trace, run LifeRaft
//! against NoShare — already executes as a doc test under `cargo test`, but
//! doc tests are easy to silently lose (a fenced block marked `ignore`, a
//! feature gate, a harness change). This integration test pins the same
//! pipeline as a plain `#[test]` and asserts the paper's headline property:
//! data-driven batching beats in-order evaluation on throughput.

use liferaft::prelude::*;

/// Same scale and seeds as the `src/lib.rs` quickstart.
#[test]
fn quickstart_pipeline_runs_and_liferaft_beats_noshare() {
    let sky = liferaft::catalog::generate::uniform_sky(5_000, 8, 42);
    let catalog = MaterializedCatalog::build(&sky, 8, 100, 4096);

    let cfg = WorkloadConfig::paper_like(8, catalog.partition().num_buckets() as u32, 40, 7);
    let trace = TraceGenerator::new(cfg).generate();
    let timed = trace.with_arrivals(poisson_arrivals(0.5, trace.len(), 1));

    let sim = Simulation::new(&catalog, SimConfig::paper());
    let greedy = sim.run(&timed, &mut LifeRaftScheduler::greedy(CostModel::paper()));
    let noshare = sim.run(&timed, &mut NoShareScheduler::new());

    assert!(
        greedy.throughput_qps >= noshare.throughput_qps,
        "LifeRaft(α=0) throughput {} fell below NoShare {}",
        greedy.throughput_qps,
        noshare.throughput_qps
    );
    // Both schedulers must service every query in the trace.
    assert_eq!(greedy.queries, trace.len());
    assert_eq!(noshare.queries, trace.len());
}

/// The doc example is only trustworthy if `cargo test` actually executes it:
/// assert the quickstart block in `src/lib.rs` is a plain fenced Rust block,
/// not `ignore`d or `no_run`.
#[test]
fn quickstart_doc_example_is_a_live_doc_test() {
    let lib = include_str!("../src/lib.rs");
    let quickstart = lib
        .split("# Quickstart")
        .nth(1)
        .expect("src/lib.rs keeps a Quickstart section");
    let fence = quickstart
        .lines()
        .find(|l| l.trim_start_matches("//!").trim().starts_with("```"))
        .expect("Quickstart section contains a fenced code block");
    let info = fence
        .trim_start_matches("//!")
        .trim()
        .trim_start_matches("```");
    assert!(
        info.is_empty() || info == "rust",
        "quickstart fence `{info}` would not run under cargo test"
    );
}
