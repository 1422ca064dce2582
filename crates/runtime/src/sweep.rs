//! The deterministic parallel sweep driver.
//!
//! Parameter sweeps (figures, calibration, capacity planning) are
//! embarrassingly parallel across *runs*: every run is a pure function of
//! its configuration and seed, so the only thing a thread pool may change
//! is wall-clock time. [`parallel_map`] enforces that contract — results
//! come back in input order whatever the thread count — and the typed
//! sweeps ([`alpha_sweep`], [`shard_sweep`]) are thin wrappers over it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use liferaft_catalog::Catalog;
use liferaft_core::{AgingMode, LifeRaftScheduler, Scheduler};
use liferaft_sim::{RunReport, SimConfig, Simulation};
use liferaft_storage::CostModel;
use liferaft_workload::TimedTrace;

use crate::config::{ExecMode, RuntimeConfig};
use crate::runtime::{RuntimeReport, ShardedRuntime};

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

/// One sweep sample: a human label, the swept coordinate, and the run.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Row label (e.g. `α=0.50`, `shards=4`).
    pub label: String,
    /// The swept coordinate as a number (for plotting).
    pub x: f64,
    /// The run's report (for sharded sweeps, the runtime's global summary).
    pub report: RunReport,
    /// The full runtime report for sharded sweeps — per-shard runs,
    /// decision logs, and the flight-recorder report when telemetry is on.
    /// `None` for the single-engine [`alpha_sweep`].
    pub runtime: Option<RuntimeReport>,
}

impl SweepPoint {
    /// A single-engine sample (no runtime detail to keep).
    fn single(label: String, x: f64, report: RunReport) -> Self {
        SweepPoint {
            label,
            x,
            report,
            runtime: None,
        }
    }

    /// A sharded sample: keeps the whole runtime report, with `report` its
    /// global summary.
    fn sharded(label: String, x: f64, runtime: RuntimeReport) -> Self {
        SweepPoint {
            label,
            x,
            report: runtime.global.clone(),
            runtime: Some(runtime),
        }
    }
}

/// Sweeps the age bias α across `alphas`, one `Simulation::run` per point
/// (the Figure 7/8 x-axis), fanned across `threads`. Each run adds its own
/// pre-processing thread, so a sweep on `threads` threads runs up to twice
/// as many.
pub fn alpha_sweep<C: Catalog + Sync + ?Sized>(
    catalog: &C,
    trace: &TimedTrace,
    config: SimConfig,
    params: CostModel,
    alphas: &[f64],
    threads: usize,
) -> Vec<SweepPoint> {
    parallel_map(alphas, threads, |_, &alpha| {
        let mut s = LifeRaftScheduler::new(params, AgingMode::Normalized, alpha);
        let report = Simulation::new(catalog, config).run(trace, &mut s);
        SweepPoint::single(format!("α={alpha:.2}"), alpha, report)
    })
}

/// Sweeps the shard count across `counts`, one [`ShardedRuntime`] run per
/// point; each point's report is the runtime's global summary. The
/// per-point scheduler factory must be `Sync` (points run concurrently).
pub fn shard_sweep<C, F>(
    catalog: &C,
    trace: &TimedTrace,
    base: RuntimeConfig,
    counts: &[u32],
    mode: ExecMode,
    threads: usize,
    mk_scheduler: F,
) -> Vec<SweepPoint>
where
    C: Catalog + Sync + ?Sized,
    F: Fn(usize) -> Box<dyn Scheduler + Send> + Sync,
{
    parallel_map(counts, threads, |_, &n_shards| {
        let mut config = base.clone();
        config.n_shards = n_shards;
        let runtime = ShardedRuntime::new(catalog, config);
        let report = runtime.run(trace, &mut |i| mk_scheduler(i), mode);
        SweepPoint::sharded(format!("shards={n_shards}"), n_shards as f64, report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
