//! The figure harness: regenerates every table/figure of the paper.
//!
//! Usage:
//!   cargo bench -p liferaft-bench --bench figures            # everything
//!   cargo bench -p liferaft-bench --bench figures -- fig7    # one figure
//!   LIFERAFT_SCALE=quick cargo bench -p liferaft-bench --bench figures
//!
//! Recognized filters: fig2, fig4, fig5, fig6, fig7, fig8, cache, ablate.

use liferaft_bench::experiments::{build, Scale};
use liferaft_bench::figures::{self, Check};

fn main() {
    // Cargo passes its own flags (e.g. `--bench`); keep only plain words.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let wants =
        |name: &str| filters.is_empty() || filters.iter().any(|f| name.starts_with(f.as_str()));

    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "LifeRaft figure harness — scale: {} buckets x {} objects, {} queries (LIFERAFT_SCALE={})",
        scale.n_buckets,
        scale.objects_per_bucket,
        scale.n_queries,
        if scale == Scale::quick() {
            "quick"
        } else {
            "full"
        },
    );

    let mut checks: Vec<Check> = Vec::new();

    if wants("fig2") {
        // Figure 2 is a pure cost-model artifact at the paper's bucket
        // geometry (10 000 objects per 40 MB bucket), independent of the
        // simulation scale.
        let exp_cost = liferaft_storage::CostModel::paper();
        checks.extend(figures::fig2(&exp_cost, 10_000));
    }

    let needs_experiment = ["fig4", "fig5", "fig6", "fig7", "fig8", "cache", "ablate"]
        .iter()
        .any(|f| wants(f));
    if needs_experiment {
        let t0 = std::time::Instant::now();
        let exp = build(scale);
        println!(
            "fixture built in {:.1}s ({} objects across {} queries)",
            t0.elapsed().as_secs_f64(),
            exp.trace.total_objects(),
            exp.trace.len()
        );

        if wants("fig5") || wants("fig6") {
            checks.extend(figures::fig5_and_fig6(&exp));
        }
        let mut fig7_reports = None;
        if wants("fig7") || wants("cache") {
            let (reports, c) = figures::fig7(&exp);
            checks.extend(c);
            fig7_reports = Some(reports);
        }
        if let Some(reports) = &fig7_reports {
            if wants("cache") {
                checks.extend(figures::cache_stat(reports));
            }
        }
        if wants("fig8") || wants("fig4") {
            let (table, reports, c) = figures::fig8(&exp);
            checks.extend(c);
            if wants("fig4") {
                checks.extend(figures::fig4(&table, &reports));
            }
        }
        if wants("ablate") {
            checks.extend(figures::ablations(&exp));
        }
    }

    // Reproduction audit.
    println!("\n=== Reproduction audit ===");
    let mut missed = 0;
    for c in &checks {
        let tag = if c.ok { "[ ok ]" } else { "[MISS]" };
        if !c.ok {
            missed += 1;
        }
        println!("{tag} {} — {}", c.name, c.detail);
    }
    println!(
        "\n{} of {} shape checks reproduced",
        checks.len() - missed,
        checks.len()
    );
    if missed > 0 {
        // The bench reports; `tests/audit.rs` is what fails, holding these
        // misses against its `KNOWN_DEVIATIONS` lists.
        eprintln!("warning: {missed} checks missed the published shape");
    }
}
