//! The paper audit, run: every `figures::*` shape check at a fixed scale,
//! held against the committed list of known deviations from the paper.
//!
//! A check that misses fails the test unless it is listed below with its
//! measured reason; a listed check that starts passing fails too, so the PR
//! that fixes a deviation is the one that strikes it from the record. The
//! lists are the record of where this reproduction departs from the paper —
//! no check is loosened to make them shorter.

use std::collections::BTreeSet;

use liferaft_bench::experiments::{build, Scale};
use liferaft_bench::figures::{self, Check};
use liferaft_storage::CostModel;

/// Checks that miss at `Scale::quick()`, each with what was measured.
const KNOWN_DEVIATIONS: [(&str, &str); 5] = [
    (
        "fig7a: throughput grows as the age bias drops (α 1 → 0)",
        "falls after α = 0.5: 0.4639, 0.4682, 0.4920, 0.4894, 0.4884 q/s for α = 1 → 0",
    ),
    (
        "fig7b: greedy's response time exceeds the purely-aged scheduler's",
        "inverted: greedy (α = 0) 55 s mean response vs aged (α = 1) 70 s",
    ),
    (
        "fig8b: at low saturation the age bias is nearly free (paper: −54% response for −7% throughput)",
        "raising α 0 → 1 at 0.1 q/s keeps throughput (−0.0%) but raises response by 15.3%",
    ),
    (
        "fig4: tolerance threshold picks a mid-to-high α at low saturation (paper: 1.0)",
        "picks α = 0: the low-saturation curves are nearly flat, so the pick is noise-prone",
    ),
    (
        "fig4: tolerance threshold picks lower α at high saturation",
        "picks α = 0.25 at high saturation against α = 0 at low",
    ),
];

/// Checks that miss at `Scale::full()`, each with what was measured.
const KNOWN_DEVIATIONS_FULL: [(&str, &str); 4] = [
    (
        "fig6: ~2% of buckets carry ~half the workload (paper 50%)",
        "the top 2% of buckets carry 75.7% of the workload, above the 35–65% band",
    ),
    (
        "fig7a: throughput grows as the age bias drops (α 1 → 0)",
        "inverted: 0.589, 0.586, 0.547, 0.544, 0.543 q/s for α = 1 → 0 (ROADMAP item 3)",
    ),
    (
        "fig8b: at low saturation the age bias is nearly free (paper: −54% response for −7% throughput)",
        "raising α 0 → 1 at 0.1 q/s keeps throughput (−0.0%) but raises response by 32.8%",
    ),
    (
        "fig4: tolerance threshold picks lower α at high saturation",
        "picks α = 0.5 at both saturations (greedy does not win throughput at high, see fig7a)",
    ),
];

/// Every figure's checks at `scale`, in the figure harness's order.
fn all_checks(scale: Scale) -> Vec<Check> {
    let mut checks = figures::fig2(&CostModel::paper(), 10_000);
    let exp = build(scale);
    checks.extend(figures::fig5_and_fig6(&exp));
    let (fig7_reports, fig7_checks) = figures::fig7(&exp);
    checks.extend(fig7_checks);
    checks.extend(figures::cache_stat(&fig7_reports));
    let (table, sweep, fig8_checks) = figures::fig8(&exp);
    checks.extend(fig8_checks);
    checks.extend(figures::fig4(&table, &sweep));
    checks.extend(figures::ablations(&exp));
    checks
}

/// Asserts that exactly the `known` checks miss.
fn audit(scale: Scale, known: &[(&str, &str)]) {
    let checks = all_checks(scale);
    assert_eq!(checks.len(), 25, "a figure gained or lost a check");
    let missed: Vec<&Check> = checks.iter().filter(|c| !c.ok).collect();
    let missed_names: BTreeSet<&str> = missed.iter().map(|c| c.name.as_str()).collect();
    let known_names: BTreeSet<&str> = known.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        missed_names, known_names,
        "left: the checks that miss; right: the known deviations. List a new miss with its \
         measured reason (or fix it); strike a listed one that now reproduces. Misses: {missed:#?}"
    );
}

#[test]
fn quick_scale_audit_matches_the_known_deviations() {
    audit(Scale::quick(), &KNOWN_DEVIATIONS);
}

/// The full-scale twin (the paper's bucket geometry, 2 000 queries): a few
/// seconds in release, so CI runs it with `--include-ignored`.
#[test]
#[ignore = "full scale: run in release (CI does, with --include-ignored)"]
fn full_scale_audit_matches_the_known_deviations() {
    audit(Scale::full(), &KNOWN_DEVIATIONS_FULL);
}
