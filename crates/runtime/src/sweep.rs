//! The deterministic parallel sweep driver.
//!
//! Parameter sweeps (figures, calibration, capacity planning) are
//! embarrassingly parallel across *runs*: every run is a pure function of
//! its configuration and seed, so the only thing a thread pool may change
//! is wall-clock time. [`parallel_map`] enforces that contract — results
//! come back in input order whatever the thread count. [`alpha_sweep`] maps
//! it over α, and [`calibrate_tradeoff_table`] runs one α sweep per
//! saturation; other grids (shard counts, scenarios) call `parallel_map`
//! over their own items.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use liferaft_catalog::Catalog;
use liferaft_core::adaptive::TradeoffPoint;
use liferaft_core::{AgingMode, LifeRaftScheduler, TradeoffCurve, TradeoffTable};
use liferaft_sim::{RunReport, SimConfig, Simulation};
use liferaft_workload::arrivals::poisson_arrivals;
use liferaft_workload::{TimedTrace, Trace};

/// Applies `f` to every item on up to `threads` worker threads, returning
/// results **in input order** regardless of thread count or completion
/// order. `f` receives `(index, item)`; with a pure `f` the output is a
/// pure function of the input — the sweep determinism contract.
///
/// `threads == 1` degenerates to a serial map on the calling thread (no
/// spawn), which is the reference the parallel path must match.
pub fn parallel_map<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, O)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                tx.send((i, f(i, &items[i])))
                    .expect("the driver outlives its workers");
            });
        }
    });
    drop(tx);
    // Every sender is gone: the drain runs to disconnect, then re-orders.
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (i, out) in rx {
        debug_assert!(slots[i].is_none(), "job {i} completed twice");
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("job {i} never completed")))
        .collect()
}

/// Sweeps the age bias α across `alphas`, one `Simulation::run` per point
/// (the Figure 7/8 x-axis), fanned across `threads`, and returns the reports
/// in α order. Every point prices and schedules under `config.cost`. Each
/// run adds its own pre-processing thread, so a sweep on `threads` threads
/// runs up to twice as many.
pub fn alpha_sweep<C: Catalog + Sync + ?Sized>(
    catalog: &C,
    trace: &TimedTrace,
    config: SimConfig,
    alphas: &[f64],
    threads: usize,
) -> Vec<RunReport> {
    parallel_map(alphas, threads, |_, &alpha| {
        let mut s = LifeRaftScheduler::new(config.cost, AgingMode::Normalized, alpha);
        Simulation::new(catalog, config).run(trace, &mut s)
    })
}

/// Offline calibration of the adaptive controller's trade-off curves.
///
/// "Currently, we determine trade-off curves offline by manually varying
/// workload saturation using a representative workload" (Section 4). This
/// replays `trace` at every saturation × α combination, one [`alpha_sweep`]
/// per saturation on the host's available parallelism, and returns the
/// calibrated [`TradeoffTable`] plus the raw reports (for figure
/// generation), α-ordered within each saturation.
///
/// Arrival processes are seeded deterministically per saturation so that
/// every α at one saturation sees the *same* arrival sequence — the paper's
/// controlled comparison.
pub fn calibrate_tradeoff_table<C: Catalog + Sync + ?Sized>(
    catalog: &C,
    trace: &Trace,
    saturations_qps: &[f64],
    alphas: &[f64],
    config: SimConfig,
    arrival_seed: u64,
) -> (TradeoffTable, Vec<(f64, Vec<RunReport>)>) {
    assert!(!saturations_qps.is_empty(), "need at least one saturation");
    assert!(!alphas.is_empty(), "need at least one α");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reports: Vec<(f64, Vec<RunReport>)> = saturations_qps
        .iter()
        .enumerate()
        .map(|(si, &sat)| {
            let arrivals = poisson_arrivals(sat, trace.len(), arrival_seed ^ (si as u64) << 32);
            let timed = trace.with_arrivals(arrivals);
            (sat, alpha_sweep(catalog, &timed, config, alphas, threads))
        })
        .collect();
    let curves = reports
        .iter()
        .map(|(sat, runs)| {
            let points = alphas
                .iter()
                .zip(runs)
                .map(|(&alpha, r)| TradeoffPoint {
                    alpha,
                    throughput_qps: r.throughput_qps,
                    mean_response_s: r.mean_response_s(),
                })
                .collect();
            TradeoffCurve::new(*sat, points)
        })
        .collect();
    (TradeoffTable::new(curves), reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_catalog::{generate::uniform_sky, MaterializedCatalog};
    use liferaft_workload::{TraceGenerator, WorkloadConfig};

    const LEVEL: u8 = 8;

    #[test]
    fn parallel_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(&items, threads, |i, &x| {
                assert_eq!(items[i], x);
                x * x + 1
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[9u32], 4, |_, &x| x + 1), vec![10]);
    }

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

    /// The oracle is the serial grid: per saturation, the seeded arrivals,
    /// then one `Simulation::run` per α on one engine, in α order.
    #[test]
    fn calibration_equals_the_serial_grid_of_runs() {
        let sky = uniform_sky(3_000, LEVEL, 3);
        let cat = MaterializedCatalog::build(&sky, LEVEL, 100, 4096);
        let trace = TraceGenerator::new(WorkloadConfig::paper_like(LEVEL, 30, 40, 9)).generate();
        let (saturations, alphas, seed) = ([0.05, 0.2, 0.5], [0.0, 0.5, 1.0], 42);
        let config = SimConfig::paper();
        let (table, reports) =
            calibrate_tradeoff_table(&cat, &trace, &saturations, &alphas, config, seed);

        let sim = Simulation::new(&cat, config);
        let mut curves = Vec::new();
        for (si, &sat) in saturations.iter().enumerate() {
            let arrivals = poisson_arrivals(sat, trace.len(), seed ^ (si as u64) << 32);
            let timed = trace.with_arrivals(arrivals);
            let mut points = Vec::new();
            for (ai, &alpha) in alphas.iter().enumerate() {
                let mut s = LifeRaftScheduler::new(config.cost, AgingMode::Normalized, alpha);
                let expect = sim.run(&timed, &mut s);
                let got = &reports[si].1[ai];
                assert_eq!(reports[si].0, sat);
                // Debug prints every field, each f64 to the last bit.
                assert_eq!(
                    format!("{got:?}"),
                    format!("{expect:?}"),
                    "saturation {sat}, α {alpha}"
                );
                points.push(TradeoffPoint {
                    alpha,
                    throughput_qps: expect.throughput_qps,
                    mean_response_s: expect.mean_response_s(),
                });
            }
            curves.push(TradeoffCurve::new(sat, points));
        }
        assert_eq!(table, TradeoffTable::new(curves));
    }
}
