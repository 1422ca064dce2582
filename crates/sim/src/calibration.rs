//! Offline calibration of throughput/response trade-off curves.
//!
//! "Currently, we determine trade-off curves offline by manually varying
//! workload saturation using a representative workload" (Section 4). This
//! module automates that procedure: replay one trace at a grid of
//! saturations × α values, collect (throughput, mean response) per point,
//! and assemble the [`TradeoffTable`] the adaptive controller consumes.

use liferaft_catalog::Catalog;
use liferaft_core::adaptive::TradeoffPoint;
use liferaft_core::{AgingMode, LifeRaftScheduler, TradeoffCurve, TradeoffTable};
use liferaft_workload::arrivals::poisson_arrivals;
use liferaft_workload::Trace;

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::report::RunReport;

/// Replays `trace` at every saturation × α combination and returns the
/// calibrated table plus the raw reports (for figure generation).
///
/// Arrival processes are seeded deterministically per saturation so that
/// every α at one saturation sees the *same* arrival sequence — the paper's
/// controlled comparison.
pub fn calibrate_tradeoff_table<C: Catalog>(
    catalog: &C,
    trace: &Trace,
    saturations_qps: &[f64],
    alphas: &[f64],
    config: SimConfig,
    arrival_seed: u64,
) -> (TradeoffTable, Vec<(f64, Vec<RunReport>)>) {
    assert!(!saturations_qps.is_empty(), "need at least one saturation");
    assert!(!alphas.is_empty(), "need at least one α");
    let sim = Simulation::new(catalog, config);

    let mut curves = Vec::with_capacity(saturations_qps.len());
    let mut all_reports = Vec::with_capacity(saturations_qps.len());
    for (si, &sat) in saturations_qps.iter().enumerate() {
        let arrivals = poisson_arrivals(sat, trace.len(), arrival_seed ^ (si as u64) << 32);
        let timed = trace.with_arrivals(arrivals);
        let mut points = Vec::with_capacity(alphas.len());
        let mut reports = Vec::with_capacity(alphas.len());
        for &alpha in alphas {
            let mut scheduler = LifeRaftScheduler::new(config.cost, AgingMode::Normalized, alpha);
            let report = sim.run(&timed, &mut scheduler);
            points.push(TradeoffPoint {
                alpha,
                throughput_qps: report.throughput_qps,
                mean_response_s: report.mean_response_s(),
            });
            reports.push(report);
        }
        curves.push(TradeoffCurve::new(sat, points));
        all_reports.push((sat, reports));
    }
    (TradeoffTable::new(curves), all_reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_catalog::{generate::uniform_sky, MaterializedCatalog};
    use liferaft_workload::{TraceGenerator, WorkloadConfig};

    const LEVEL: u8 = 8;

    #[test]
    fn calibration_produces_one_curve_per_saturation() {
        let sky = uniform_sky(2_000, LEVEL, 1);
        let cat = MaterializedCatalog::build(&sky, LEVEL, 100, 4096);
        let mut cfg = WorkloadConfig::paper_like(LEVEL, 20, 30, 5);
        cfg.size_small = (4, 8);
        cfg.size_large = (10, 20);
        let trace = TraceGenerator::new(cfg).generate();

        let (table, reports) = calibrate_tradeoff_table(
            &cat,
            &trace,
            &[0.05, 0.5],
            &[0.0, 1.0],
            SimConfig::paper(),
            42,
        );
        assert_eq!(table.curves().len(), 2);
        assert_eq!(reports.len(), 2);
        for (sat, runs) in &reports {
            assert_eq!(runs.len(), 2, "two α points at saturation {sat}");
            for r in runs {
                assert_eq!(r.queries, 30);
            }
        }
        // Selecting α must be possible at any tolerance.
        let a = table.select_alpha(0.05, 0.2);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    #[should_panic(expected = "at least one saturation")]
    fn empty_saturations_rejected() {
        let sky = uniform_sky(500, LEVEL, 1);
        let cat = MaterializedCatalog::build(&sky, LEVEL, 100, 4096);
        let trace = Trace::new(LEVEL, vec![]);
        calibrate_tradeoff_table(&cat, &trace, &[], &[0.0], SimConfig::paper(), 1);
    }
}
