//! One reproduction function per figure of the paper.
//!
//! Every function prints the same rows/series the paper reports and returns
//! a list of [`Check`]s — qualitative assertions about the *shape* of the
//! result (who wins, by roughly what factor, where crossovers fall). The
//! figure harness prints them as `[ ok ]` / `[MISS]` lines so a `cargo
//! bench` run doubles as a reproduction audit; `tests/audit.rs` runs the
//! same checks and holds them against its `KNOWN_DEVIATIONS` lists, the
//! record of where the measured shape departs from the paper's.

use liferaft_catalog::Catalog;
use liferaft_core::{
    AgingMode, LifeRaftScheduler, NoShareScheduler, RoundRobinScheduler, Scheduler, TradeoffTable,
};
use liferaft_metrics::{Series, Table};
use liferaft_runtime::calibrate_tradeoff_table;
use liferaft_sim::{RunReport, Simulation};
use liferaft_storage::CostModel;
use liferaft_workload::arrivals::poisson_arrivals;
use liferaft_workload::WorkloadStats;

use crate::experiments::Experiment;

/// One qualitative reproduction check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What shape property is being verified.
    pub name: String,
    /// Whether the measured result exhibits it.
    pub ok: bool,
    /// Measured values backing the verdict.
    pub detail: String,
}

impl Check {
    fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// The α grid the paper sweeps in Figures 7 and 8.
pub const ALPHAS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// The saturation grid of Figure 8 (queries/second).
pub const SATURATIONS: [f64; 5] = [0.1, 0.13, 0.17, 0.25, 0.5];
/// The arrival rate of the Figure 7 comparison. The paper's Figure 7 shows
/// every scheduler at (or past) its capacity — NoShare at ≈0.105 q/s up to
/// the greedy scheduler at ≈0.23 q/s — so the comparison replays slightly
/// above the LifeRaft policies' capacity, where capacities (and deferral
/// behaviour), not arrival pacing, determine throughput and response time.
pub const FIG7_RATE: f64 = 0.6;

// ---------------------------------------------------------------- Figure 2

/// Figure 2: speed-up of a non-indexed scan over a spatial-index join as a
/// function of the workload-queue / bucket-size ratio.
pub fn fig2(cost: &CostModel, objects_per_bucket: u64) -> Vec<Check> {
    println!("\n=== Figure 2: scan vs index speed-up by queue/bucket ratio ===");
    let ratios = [
        0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.5, 1.0,
    ];
    let mut table = Table::new(["queue/bucket", "W", "scan (s)", "indexed (s)", "speed-up"]);
    let mut speedups = Vec::new();
    for &r in &ratios {
        let w = ((objects_per_bucket as f64 * r).round() as u64).max(1);
        let scan = cost.scan_batch(w, false).as_secs_f64();
        let indexed = cost.indexed_batch(w).as_secs_f64();
        let s = indexed / scan;
        speedups.push(s);
        table.row([
            format!("{r}"),
            w.to_string(),
            format!("{scan:.3}"),
            format!("{indexed:.3}"),
            format!("{s:.3}"),
        ]);
    }
    println!("{}", table.render());
    let break_even = cost.break_even_queue_len() as f64 / objects_per_bucket as f64;
    println!("break-even ratio: {break_even:.4} (paper: ~0.03 for its disk)\n");

    vec![
        Check::new(
            "fig2: speed-up grows monotonically with contention",
            speedups.windows(2).all(|w| w[0] < w[1]),
            format!("{:.3} .. {:.3}", speedups[0], speedups[speedups.len() - 1]),
        ),
        Check::new(
            "fig2: index wins at tiny queues (speed-up < 1 at 0.1%)",
            speedups[0] < 1.0,
            format!("speed-up {:.3}", speedups[0]),
        ),
        Check::new(
            "fig2: break-even lands at a few percent",
            (0.004..=0.10).contains(&break_even),
            format!("break-even {break_even:.4}"),
        ),
        Check::new(
            "fig2: up to ~twenty-fold gap at full-bucket queues",
            (8.0..=100.0).contains(&speedups[speedups.len() - 1]),
            format!("speed-up {:.1}", speedups[speedups.len() - 1]),
        ),
    ]
}

// ------------------------------------------------------------ Figures 5, 6

/// Figures 5 and 6: workload shape — top-bucket reuse and cumulative skew.
pub fn fig5_and_fig6(exp: &Experiment) -> Vec<Check> {
    println!("\n=== Figures 5 & 6: workload shape ===");
    let stats = WorkloadStats::analyze(&exp.trace, exp.catalog.partition());

    // Figure 5: reuse of the top-ten buckets over the query sequence.
    let events = stats.reuse_events(10);
    println!(
        "fig5: {} (query, top-10-bucket) reuse events across {} queries; sample:",
        events.len(),
        stats.n_queries()
    );
    let mut t5 = Table::new(["query #", "bucket rank (0 = hottest)"]);
    for &(q, r) in events.iter().step_by((events.len() / 15).max(1)).take(15) {
        t5.row([q.to_string(), r.to_string()]);
    }
    println!("{}", t5.render());
    let coverage = stats.top_k_query_coverage(10);
    println!(
        "top-10 buckets touched by {:.1}% of queries (paper: 61%)",
        coverage * 100.0
    );

    // Figure 6: cumulative workload by bucket rank.
    let cdf = stats.cumulative_workload();
    let mut t6 = Table::new(["bucket rank", "% of buckets", "cumulative workload %"]);
    for frac in [0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let k = ((stats.n_buckets() as f64 * frac).round() as usize).clamp(1, cdf.len());
        t6.row([
            k.to_string(),
            format!("{:.1}", frac * 100.0),
            format!("{:.1}", cdf[k - 1].1 * 100.0),
        ]);
    }
    println!("{}", t6.render());
    let share2 = stats.workload_share_of_top_buckets(0.02);
    println!(
        "top 2% of buckets carry {:.1}% of the workload (paper: ~50%); \
         mean buckets/query {:.1}; reuse gap {:.0} queries\n",
        share2 * 100.0,
        stats.mean_buckets_per_query(),
        stats.mean_reuse_gap(10),
    );

    vec![
        Check::new(
            "fig5: top-10 buckets touched by a majority band of queries (paper 61%)",
            (0.40..=0.85).contains(&coverage),
            format!("{:.1}%", coverage * 100.0),
        ),
        Check::new(
            "fig5: reuse of hot buckets clusters temporally",
            stats.mean_reuse_gap(10) < stats.n_queries() as f64 / 4.0,
            format!(
                "mean gap {:.0} of {} queries",
                stats.mean_reuse_gap(10),
                stats.n_queries()
            ),
        ),
        Check::new(
            "fig6: ~2% of buckets carry ~half the workload (paper 50%)",
            (0.35..=0.65).contains(&share2),
            format!("{:.1}%", share2 * 100.0),
        ),
        Check::new(
            "fig6: the remaining buckets form a long tail",
            stats.touched_buckets() > stats.n_buckets() / 10,
            format!(
                "{} of {} buckets touched",
                stats.touched_buckets(),
                stats.n_buckets()
            ),
        ),
    ]
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7: throughput and response time by scheduling algorithm at one
/// saturation. Returns the reports for reuse (cache statistic).
pub fn fig7(exp: &Experiment) -> (Vec<RunReport>, Vec<Check>) {
    println!("\n=== Figure 7: performance by scheduling algorithm ({FIG7_RATE} q/s) ===");
    let timed = exp
        .trace
        .with_arrivals(poisson_arrivals(FIG7_RATE, exp.trace.len(), 0xF167));
    let sim = Simulation::new(&exp.catalog, exp.config);
    let params = exp.config.cost;

    let mut lineup: Vec<Box<dyn Scheduler>> = vec![Box::new(NoShareScheduler::new())];
    for alpha in [1.0, 0.75, 0.5, 0.25, 0.0] {
        lineup.push(Box::new(LifeRaftScheduler::new(
            params,
            AgingMode::Normalized,
            alpha,
        )));
    }
    lineup.push(Box::new(RoundRobinScheduler::new()));

    let reports: Vec<RunReport> = lineup
        .iter_mut()
        .map(|s| sim.run(&timed, s.as_mut()))
        .collect();
    let noshare_rt = reports[0].mean_response_s();

    let mut table = Table::new([
        "scheduler",
        "throughput (q/s)",
        "rt / NoShare",
        "CoV",
        "bucket reads",
        "mean batch",
    ]);
    for r in &reports {
        table.row([
            r.scheduler.clone(),
            format!("{:.4}", r.throughput_qps),
            format!("{:.2}", r.mean_response_s() / noshare_rt),
            format!("{:.2}", r.response_cov()),
            r.io.bucket_reads.to_string(),
            format!("{:.1}", r.mean_batch_size()),
        ]);
    }
    println!("{}", table.render());

    let noshare = &reports[0];
    let aged = &reports[1]; // α = 1.0
    let greedy = &reports[5]; // α = 0.0
    let rr = &reports[6];
    let speedup = greedy.throughput_qps / noshare.throughput_qps;
    println!("LifeRaft(α=0) vs NoShare: {speedup:.2}x (paper: over two-fold)\n");

    let tputs: Vec<f64> = reports[1..=5].iter().map(|r| r.throughput_qps).collect();
    let checks = vec![
        Check::new(
            "fig7a: greedy LifeRaft achieves ~2x NoShare throughput",
            speedup >= 1.8,
            format!("{speedup:.2}x"),
        ),
        Check::new(
            "fig7a: throughput grows as the age bias drops (α 1 → 0)",
            tputs.windows(2).all(|w| w[1] >= w[0]),
            format!("{tputs:.3?}"),
        ),
        Check::new(
            "fig7a: RR performs like LifeRaft at α = 1",
            (0.55..=1.8).contains(&(rr.throughput_qps / aged.throughput_qps)),
            format!("RR/aged = {:.2}", rr.throughput_qps / aged.throughput_qps),
        ),
        Check::new(
            "fig7b: NoShare has the worst mean response time",
            reports[1..]
                .iter()
                .all(|r| r.mean_response_s() <= noshare_rt * 1.02),
            format!(
                "NoShare {:.0}s vs best {:.0}s",
                noshare_rt,
                reports[1..]
                    .iter()
                    .map(|r| r.mean_response_s())
                    .fold(f64::INFINITY, f64::min)
            ),
        ),
        Check::new(
            "fig7b: greedy's response time exceeds the purely-aged scheduler's",
            greedy.mean_response_s() > aged.mean_response_s(),
            format!(
                "α=0: {:.0}s, α=1: {:.0}s",
                greedy.mean_response_s(),
                aged.mean_response_s()
            ),
        ),
        Check::new(
            "fig7b: greedy shows higher response-time variance than aged",
            greedy.response_cov() > aged.response_cov() * 0.9,
            format!(
                "CoV α=0 {:.2} vs α=1 {:.2}",
                greedy.response_cov(),
                aged.response_cov()
            ),
        ),
    ];
    (reports, checks)
}

// ---------------------------------------------------------------- Figure 8

/// Raw Figure-8 sweep output: one `Vec<RunReport>` (one per α) for each
/// saturation level.
pub type SaturationSweep = Vec<(f64, Vec<RunReport>)>;

/// Figure 8: throughput and response time across saturations for every α.
/// Returns the calibration table and raw reports (Figure 4 reuses them).
pub fn fig8(exp: &Experiment) -> (TradeoffTable, SaturationSweep, Vec<Check>) {
    println!("\n=== Figure 8: parameter selection by workload saturation ===");
    let (table, reports) = calibrate_tradeoff_table(
        &exp.catalog,
        &exp.trace,
        &SATURATIONS,
        &ALPHAS,
        exp.config,
        0xF168,
    );

    let mut tput_series: Vec<Series> = ALPHAS
        .iter()
        .map(|a| Series::new(format!("Bias {a}")))
        .collect();
    let mut rt_series: Vec<Series> = ALPHAS
        .iter()
        .map(|a| Series::new(format!("Bias {a}")))
        .collect();
    for (sat, runs) in &reports {
        for (ai, r) in runs.iter().enumerate() {
            tput_series[ai].push(*sat, r.throughput_qps);
            rt_series[ai].push(*sat, r.mean_response_s());
        }
    }

    let mut t8a = Table::new(["saturation", "α=0", "α=0.25", "α=0.5", "α=0.75", "α=1"]);
    let mut t8b = t8a.clone();
    for (si, (sat, _)) in reports.iter().enumerate() {
        let tputs: Vec<String> = tput_series
            .iter()
            .map(|s| format!("{:.3}", s.points()[si].1))
            .collect();
        let rts: Vec<String> = rt_series
            .iter()
            .map(|s| format!("{:.0}", s.points()[si].1))
            .collect();
        t8a.row(std::iter::once(format!("{sat}")).chain(tputs));
        t8b.row(std::iter::once(format!("{sat}")).chain(rts));
    }
    println!("fig8a: throughput (q/s)\n{}", t8a.render());
    println!("fig8b: mean response time (s)\n{}", t8b.render());

    // Shape checks.
    let gap_at = |si: usize| {
        let t0 = tput_series[0].points()[si].1; // α = 0
        let t1 = tput_series[4].points()[si].1; // α = 1
        t0 - t1
    };
    let low_gap = gap_at(0);
    let high_gap = gap_at(SATURATIONS.len() - 1);
    let rt_low_a0 = rt_series[0].points()[0].1;
    let rt_low_a1 = rt_series[4].points()[0].1;
    let tput_low_a0 = tput_series[0].points()[0].1;
    let tput_low_a1 = tput_series[4].points()[0].1;
    let rt_reduction = 1.0 - rt_low_a1 / rt_low_a0;
    let tput_drop = 1.0 - tput_low_a1 / tput_low_a0;
    println!(
        "at saturation 0.1: raising α 0→1 cuts response {:.0}% for a {:.0}% throughput drop \
         (paper: 54% for 7%)\n",
        rt_reduction * 100.0,
        tput_drop * 100.0
    );

    let checks = vec![
        Check::new(
            "fig8a: α differentiates throughput only under saturation (paper: widening gap)",
            high_gap.abs() > low_gap.abs() + 0.005,
            format!(
                "|gap| {:.3} q/s at 0.1 vs {:.3} q/s at 0.5 (ours favors α=1 past capacity; see KNOWN_DEVIATIONS in tests/audit.rs)",
                low_gap.abs(),
                high_gap.abs()
            ),
        ),
        Check::new(
            "fig8a: greedy throughput scales with saturation",
            tput_series[0].points()[SATURATIONS.len() - 1].1
                > tput_series[0].points()[0].1 * 1.5,
            format!(
                "α=0: {:.3} → {:.3} q/s",
                tput_series[0].points()[0].1,
                tput_series[0].points()[SATURATIONS.len() - 1].1
            ),
        ),
        Check::new(
            "fig8b: at low saturation the age bias is nearly free (paper: −54% response for −7% throughput)",
            tput_drop.abs() < 0.05 && rt_reduction > 0.0,
            format!(
                "α 0→1 at 0.1 q/s: throughput {:+.1}%, response {:+.1}%",
                -tput_drop * 100.0,
                -rt_reduction * 100.0
            ),
        ),
        Check::new(
            "fig8b: response time grows with saturation under every α",
            rt_series.iter().all(|s| {
                s.points()[SATURATIONS.len() - 1].1 >= s.points()[0].1 * 0.8
            }),
            "per-α rt(0.5) vs rt(0.1)".to_string(),
        ),
    ];
    (table, reports, checks)
}

// ---------------------------------------------------------------- Figure 4

/// Figure 4: normalized trade-off curves at low (0.1) and high (0.5)
/// saturation, with the 20%-tolerance selections.
pub fn fig4(table: &TradeoffTable, reports: &[(f64, Vec<RunReport>)]) -> Vec<Check> {
    println!("\n=== Figure 4: throughput/response trade-off curves ===");
    let mut checks = Vec::new();
    for &(label, sat) in &[("low", 0.1f64), ("high", 0.5f64)] {
        let Some((_, runs)) = reports.iter().find(|(s, _)| (*s - sat).abs() < 1e-9) else {
            continue;
        };
        let max_t = runs.iter().map(|r| r.throughput_qps).fold(0.0, f64::max);
        let max_r = runs.iter().map(|r| r.mean_response_s()).fold(0.0, f64::max);
        let mut t = Table::new(["α", "tput (norm)", "response (norm)"]);
        for (ai, r) in runs.iter().enumerate() {
            t.row([
                format!("{}", ALPHAS[ai]),
                format!("{:.3}", r.throughput_qps / max_t),
                format!("{:.3}", r.mean_response_s() / max_r),
            ]);
        }
        println!("{label} saturation ({sat} q/s):\n{}", t.render());
    }
    let a_low = table.select_alpha(0.1, 0.2);
    let a_high = table.select_alpha(0.5, 0.2);
    println!("20% tolerance selects α = {a_low} at low, α = {a_high} at high saturation");
    println!("(paper: α = 1.0 low, α = 0.25 high)\n");
    checks.push(Check::new(
        "fig4: tolerance threshold picks a mid-to-high α at low saturation (paper: 1.0)",
        a_low >= 0.5,
        format!("α = {a_low} (low-saturation curves are nearly flat, so the pick is noise-prone)"),
    ));
    checks.push(Check::new(
        "fig4: tolerance threshold picks lower α at high saturation",
        a_high < a_low,
        format!("α = {a_high} (low was {a_low})"),
    ));
    checks
}

// ------------------------------------------------------- Section 6 (cache)

/// Section 6's cache statistic: fraction of requests serviced from the
/// bucket cache under α = 0 vs α = 1 (paper: 40% vs 7%).
pub fn cache_stat(fig7_reports: &[RunReport]) -> Vec<Check> {
    println!("\n=== Section 6: cache service fraction by policy ===");
    let aged = &fig7_reports[1]; // α = 1
    let greedy = &fig7_reports[5]; // α = 0
    let mut t = Table::new(["policy", "requests from cache %", "cache hit rate %"]);
    for r in [greedy, aged] {
        t.row([
            r.scheduler.clone(),
            format!("{:.1}", r.cache_service_fraction() * 100.0),
            format!("{:.1}", r.cache.hit_rate() * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: 40% at α = 0 vs 7% at α = 1)\n");
    vec![
        Check::new(
            "§6: the contention-driven policy feeds far more requests from cache",
            greedy.cache_service_fraction() > 2.0 * aged.cache_service_fraction(),
            format!(
                "α=0: {:.1}%, α=1: {:.1}%",
                greedy.cache_service_fraction() * 100.0,
                aged.cache_service_fraction() * 100.0
            ),
        ),
        Check::new(
            "§6: cache fractions land near the published 40%/7% band",
            (0.15..=0.75).contains(&greedy.cache_service_fraction())
                && aged.cache_service_fraction() < 0.30,
            format!(
                "α=0: {:.1}%, α=1: {:.1}%",
                greedy.cache_service_fraction() * 100.0,
                aged.cache_service_fraction() * 100.0
            ),
        ),
    ]
}

// --------------------------------------------------------------- Ablations

/// Ablations of LifeRaft's design choices (ours, not the paper's): aging
/// normalization, cache capacity, and the hybrid threshold.
pub fn ablations(exp: &Experiment) -> Vec<Check> {
    println!("\n=== Ablations ===");
    let timed = exp
        .trace
        .with_arrivals(poisson_arrivals(FIG7_RATE, exp.trace.len(), 0xAB1A));
    let params = exp.config.cost;
    let mut checks = Vec::new();

    // 1. Aging mode: normalized blend vs the paper's raw Eq. 2.
    let sim = Simulation::new(&exp.catalog, exp.config);
    let mut t = Table::new(["aged metric at α=0.25", "tput (q/s)", "mean rt (s)"]);
    let mut raw = LifeRaftScheduler::new(params, AgingMode::Raw, 0.25);
    let mut norm = LifeRaftScheduler::new(params, AgingMode::Normalized, 0.25);
    let mut aged = LifeRaftScheduler::age_based(params);
    let r_raw = sim.run(&timed, &mut raw);
    let r_norm = sim.run(&timed, &mut norm);
    let r_aged = sim.run(&timed, &mut aged);
    t.row([
        "raw (Eq. 2 verbatim)".to_string(),
        format!("{:.4}", r_raw.throughput_qps),
        format!("{:.0}", r_raw.mean_response_s()),
    ]);
    t.row([
        "normalized (ours)".to_string(),
        format!("{:.4}", r_norm.throughput_qps),
        format!("{:.0}", r_norm.mean_response_s()),
    ]);
    t.row([
        "pure age (α=1)".to_string(),
        format!("{:.4}", r_aged.throughput_qps),
        format!("{:.0}", r_aged.mean_response_s()),
    ]);
    println!("{}", t.render());
    // The units mismatch in the verbatim Eq. 2 (objects/µs + ms) lets any
    // α > 0 hand the decision entirely to the age term: the raw policy at
    // α = 0.25 must behave like the pure-age policy, not like the
    // normalized blend.
    let like_aged =
        (r_raw.throughput_qps - r_aged.throughput_qps).abs() / r_aged.throughput_qps < 0.05;
    checks.push(Check::new(
        "ablation: raw Eq. 2 at α=0.25 degenerates to pure aging (units mismatch)",
        like_aged,
        format!(
            "raw {:.4} vs pure-age {:.4} vs normalized {:.4}",
            r_raw.throughput_qps, r_aged.throughput_qps, r_norm.throughput_qps
        ),
    ));

    // 2. Cache capacity sweep under the greedy policy.
    let mut t = Table::new(["cache (buckets)", "tput (q/s)", "requests from cache %"]);
    let mut tputs = Vec::new();
    for cap in [1usize, 5, 20, 100] {
        let mut cfg = exp.config;
        cfg.cache_buckets = cap;
        let sim = Simulation::new(&exp.catalog, cfg);
        let r = sim.run(&timed, &mut LifeRaftScheduler::greedy(params));
        t.row([
            cap.to_string(),
            format!("{:.4}", r.throughput_qps),
            format!("{:.1}", r.cache_service_fraction() * 100.0),
        ]);
        tputs.push(r.throughput_qps);
    }
    println!("{}", t.render());
    checks.push(Check::new(
        "ablation: more cache never hurts greedy throughput (Map-Reduce single-file analogy, §6)",
        tputs.windows(2).all(|w| w[1] >= w[0] * 0.98),
        format!("{tputs:.4?}"),
    ));

    // 3. Hybrid threshold sweep under the aged policy, whose in-order
    //    batches are small ("an age-based scheduler relies more on spatial
    //    indices at higher saturations", Section 5.2).
    let mut t = Table::new(["hybrid threshold", "aged makespan (s)", "indexed batches"]);
    let mut makespans = Vec::new();
    for (label, threshold_ratio) in [
        ("off (scan only)", 0.0),
        ("0.01", 0.01),
        ("0.03 (paper)", 0.03),
        ("0.10", 0.10),
    ] {
        let mut cfg = exp.config;
        cfg.cost.threshold_ratio = threshold_ratio;
        let sim = Simulation::new(&exp.catalog, cfg);
        let r = sim.run(&timed, &mut LifeRaftScheduler::age_based(params));
        t.row([
            label.to_string(),
            format!("{:.0}", r.makespan_s),
            r.indexed_batches.to_string(),
        ]);
        makespans.push((label, r.makespan_s));
    }
    println!("{}", t.render());
    let scan_only = makespans[0].1;
    let paper_thr = makespans[2].1;
    checks.push(Check::new(
        "ablation: the paper's 3% hybrid threshold beats scan-only for the aged policy",
        paper_thr < scan_only,
        format!("scan-only {scan_only:.0}s vs 3% {paper_thr:.0}s"),
    ));
    checks
}
