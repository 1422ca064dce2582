//! Workload-adaptive selection of the age bias α.
//!
//! "Parameter selection is based on the query throughput versus response
//! time trade-off curve […] Currently, we determine trade-off curves offline
//! by manually varying workload saturation using a representative workload.
//! The final component is a user specified tolerance threshold, which
//! indicates how much degradation in query throughput is permitted."
//! — Section 4, Figure 4.
//!
//! [`TradeoffTable`] stores the offline curves (one per calibrated
//! saturation), [`SaturationEstimator`] measures the live arrival rate over
//! a sliding window, and [`AlphaController`] combines the two: pick, at the
//! current saturation, the α that minimizes mean response time subject to
//! throughput staying within `tolerance` of the maximum.

use std::collections::VecDeque;

use liferaft_storage::{SimDuration, SimTime};

/// One calibrated operating point: running bias α at a given saturation
/// produced this throughput and response time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// The age bias.
    pub alpha: f64,
    /// Measured query throughput (queries/second).
    pub throughput_qps: f64,
    /// Measured mean response time (seconds).
    pub mean_response_s: f64,
}

/// The trade-off curve at one workload saturation (one line of Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffCurve {
    saturation_qps: f64,
    points: Vec<TradeoffPoint>,
}

impl TradeoffCurve {
    /// Creates a curve from calibration points (any order; sorted by α).
    ///
    /// # Panics
    /// Panics if empty, if α values repeat, or if any value is non-finite.
    pub fn new(saturation_qps: f64, mut points: Vec<TradeoffPoint>) -> Self {
        assert!(!points.is_empty(), "a trade-off curve needs points");
        assert!(saturation_qps.is_finite() && saturation_qps > 0.0);
        for p in &points {
            assert!(
                p.alpha.is_finite()
                    && p.throughput_qps.is_finite()
                    && p.mean_response_s.is_finite(),
                "non-finite calibration point {p:?}"
            );
            assert!((0.0..=1.0).contains(&p.alpha), "α out of range in {p:?}");
        }
        points.sort_by(|a, b| a.alpha.partial_cmp(&b.alpha).expect("finite α"));
        assert!(
            points.windows(2).all(|w| w[0].alpha < w[1].alpha),
            "duplicate α in calibration points"
        );
        TradeoffCurve {
            saturation_qps,
            points,
        }
    }

    /// The calibration points, sorted by α.
    pub fn points(&self) -> &[TradeoffPoint] {
        &self.points
    }

    /// Maximum achievable throughput over all α on this curve.
    pub fn max_throughput(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.throughput_qps)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Selects α: among points whose throughput is within `tolerance`
    /// (e.g. 0.2 = "sacrifice at most 20%") of the maximum, the one with the
    /// smallest mean response time; ties prefer the larger α (more fairness
    /// for free).
    pub fn select_alpha(&self, tolerance: f64) -> f64 {
        assert!((0.0..=1.0).contains(&tolerance), "tolerance in [0,1]");
        let floor = self.max_throughput() * (1.0 - tolerance);
        let mut best: Option<&TradeoffPoint> = None;
        for p in &self.points {
            if p.throughput_qps + 1e-12 < floor {
                continue;
            }
            best = match best {
                None => Some(p),
                Some(b)
                    if p.mean_response_s < b.mean_response_s
                        || (p.mean_response_s == b.mean_response_s && p.alpha > b.alpha) =>
                {
                    Some(p)
                }
                Some(b) => Some(b),
            };
        }
        best.expect("the max-throughput point is always feasible")
            .alpha
    }
}

/// The offline calibration table: trade-off curves across saturations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TradeoffTable {
    /// Curves sorted by saturation.
    curves: Vec<TradeoffCurve>,
}

impl TradeoffTable {
    /// Builds a table from curves (any order).
    ///
    /// # Panics
    /// Panics on duplicate saturations.
    pub fn new(mut curves: Vec<TradeoffCurve>) -> Self {
        curves.sort_by(|a, b| {
            a.saturation_qps
                .partial_cmp(&b.saturation_qps)
                .expect("finite saturation")
        });
        assert!(
            curves
                .windows(2)
                .all(|w| w[0].saturation_qps < w[1].saturation_qps),
            "duplicate saturation curves"
        );
        TradeoffTable { curves }
    }

    /// The calibrated curves, sorted by saturation.
    pub fn curves(&self) -> &[TradeoffCurve] {
        &self.curves
    }

    /// True if no calibration data is present.
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }

    /// Selects α for an observed `saturation_qps`: the nearest calibrated
    /// curve decides (nearest in log-space, since saturations are spaced
    /// multiplicatively: 0.1, 0.13, 0.17, 0.25, 0.5 in the paper).
    ///
    /// # Panics
    /// Panics if the table is empty.
    pub fn select_alpha(&self, saturation_qps: f64, tolerance: f64) -> f64 {
        assert!(!self.curves.is_empty(), "empty trade-off table");
        let sat = saturation_qps.max(1e-9);
        let nearest = self
            .curves
            .iter()
            .min_by(|a, b| {
                let da = (a.saturation_qps.ln() - sat.ln()).abs();
                let db = (b.saturation_qps.ln() - sat.ln()).abs();
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("non-empty");
        nearest.select_alpha(tolerance)
    }
}

/// Sliding-window arrival-rate estimator (the live "saturation" signal).
#[derive(Debug, Clone)]
pub struct SaturationEstimator {
    window: SimDuration,
    arrivals: VecDeque<SimTime>,
}

impl SaturationEstimator {
    /// Creates an estimator over a sliding `window`.
    ///
    /// # Panics
    /// Panics on a zero-length window.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "window must be positive");
        SaturationEstimator {
            window,
            arrivals: VecDeque::new(),
        }
    }

    /// Records a query arrival.
    pub fn observe(&mut self, now: SimTime) {
        self.arrivals.push_back(now);
        self.evict(now);
    }

    /// Arrivals per second over the window ending at `now`.
    pub fn rate_qps(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        self.arrivals.len() as f64 / self.window.as_secs_f64()
    }

    /// Number of arrivals currently inside the window.
    pub fn count(&self) -> usize {
        self.arrivals.len()
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = now.as_micros().saturating_sub(self.window.as_micros());
        while let Some(&front) = self.arrivals.front() {
            if front.as_micros() < cutoff {
                self.arrivals.pop_front();
            } else {
                break;
            }
        }
    }
}

/// The adaptive α controller: estimator + table + tolerance.
///
/// "LifeRaft will adaptively tune α based on workload saturation"
/// (Section 3.3). The controller re-selects α at a fixed cadence so the
/// scheduler is not destabilized by per-arrival jitter.
#[derive(Debug, Clone)]
pub struct AlphaController {
    table: TradeoffTable,
    tolerance: f64,
    estimator: SaturationEstimator,
    update_every: SimDuration,
    last_update: Option<SimTime>,
    current_alpha: f64,
}

impl AlphaController {
    /// Creates a controller. `initial_alpha` is used until the first update.
    pub fn new(
        table: TradeoffTable,
        tolerance: f64,
        window: SimDuration,
        update_every: SimDuration,
        initial_alpha: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&tolerance));
        assert!((0.0..=1.0).contains(&initial_alpha));
        AlphaController {
            table,
            tolerance,
            estimator: SaturationEstimator::new(window),
            update_every,
            last_update: None,
            current_alpha: initial_alpha,
        }
    }

    /// Records an arrival (feeds the saturation estimate).
    pub fn on_arrival(&mut self, now: SimTime) {
        self.estimator.observe(now);
    }

    /// The α to use at `now`, re-selected if the update cadence has elapsed.
    pub fn alpha(&mut self, now: SimTime) -> f64 {
        let due = match self.last_update {
            None => true,
            Some(t) => now.since(t) >= self.update_every,
        };
        if due && !self.table.is_empty() {
            let rate = self.estimator.rate_qps(now);
            self.current_alpha = self.table.select_alpha(rate, self.tolerance);
            self.last_update = Some(now);
        }
        self.current_alpha
    }
}

/// A [`Scheduler`](crate::scheduler::Scheduler) that retunes a LifeRaft
/// policy's α from live saturation before every decision.
#[derive(Debug, Clone)]
pub struct AdaptiveScheduler {
    inner: crate::liferaft::LifeRaftScheduler,
    controller: AlphaController,
}

impl AdaptiveScheduler {
    /// Wraps a LifeRaft policy with an α controller.
    pub fn new(inner: crate::liferaft::LifeRaftScheduler, controller: AlphaController) -> Self {
        AdaptiveScheduler { inner, controller }
    }
}

impl crate::scheduler::Scheduler for AdaptiveScheduler {
    fn name(&self) -> String {
        format!("AdaptiveLifeRaft(α={:.2})", self.inner.alpha())
    }

    fn pick(
        &mut self,
        view: &dyn crate::scheduler::SchedulerView,
    ) -> Option<crate::scheduler::BatchSpec> {
        let alpha = self.controller.alpha(view.now());
        self.inner.set_alpha(alpha);
        self.inner.pick(view)
    }

    fn on_query_arrival(&mut self, now: SimTime) {
        self.controller.on_arrival(now);
    }

    fn decision_stats(&self) -> crate::scheduler::DecisionStats {
        self.inner.decision_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(alpha: f64, tput: f64, resp: f64) -> TradeoffPoint {
        TradeoffPoint {
            alpha,
            throughput_qps: tput,
            mean_response_s: resp,
        }
    }

    /// Curves shaped like Figure 4: at low saturation, throughput is nearly
    /// flat in α while response falls steeply; at high saturation throughput
    /// drops steeply with α.
    fn low_curve() -> TradeoffCurve {
        TradeoffCurve::new(
            0.1,
            vec![
                pt(0.0, 0.115, 300.0),
                pt(0.25, 0.112, 220.0),
                pt(0.5, 0.110, 180.0),
                pt(0.75, 0.108, 150.0),
                pt(1.0, 0.107, 138.0),
            ],
        )
    }

    fn high_curve() -> TradeoffCurve {
        TradeoffCurve::new(
            0.5,
            vec![
                pt(0.0, 0.40, 420.0),
                pt(0.25, 0.32, 340.0),
                pt(0.5, 0.24, 320.0),
                pt(0.75, 0.18, 300.0),
                pt(1.0, 0.14, 290.0),
            ],
        )
    }

    #[test]
    fn figure4_selections() {
        // "with an α of 1.0 and 0.25, for low and high saturation
        // respectively, average response time is minimized without
        // sacrificing more than 20% of maximum achievable throughput".
        assert_eq!(low_curve().select_alpha(0.20), 1.0);
        assert_eq!(high_curve().select_alpha(0.20), 0.25);
    }

    #[test]
    fn zero_tolerance_takes_max_throughput_point() {
        assert_eq!(high_curve().select_alpha(0.0), 0.0);
    }

    #[test]
    fn full_tolerance_minimizes_response() {
        assert_eq!(high_curve().select_alpha(1.0), 1.0);
    }

    #[test]
    fn table_picks_nearest_curve_in_log_space() {
        let table = TradeoffTable::new(vec![low_curve(), high_curve()]);
        assert_eq!(table.select_alpha(0.09, 0.20), 1.0); // near 0.1
        assert_eq!(table.select_alpha(0.6, 0.20), 0.25); // near 0.5
                                                         // Geometric midpoint of 0.1 and 0.5 is ~0.224; below it → low curve.
        assert_eq!(table.select_alpha(0.2, 0.20), 1.0);
        assert_eq!(table.select_alpha(0.25, 0.20), 0.25);
    }

    #[test]
    fn estimator_window_semantics() {
        let mut e = SaturationEstimator::new(SimDuration::from_secs(10));
        for s in 0..10u64 {
            e.observe(SimTime::from_micros(s * 1_000_000));
        }
        // 10 arrivals in a 10s window ending at t=9s → 1 qps.
        assert!((e.rate_qps(SimTime::from_micros(9_000_000)) - 1.0).abs() < 1e-9);
        // 11 seconds later, half the arrivals have aged out.
        let later = SimTime::from_micros(15_000_000);
        assert!((e.rate_qps(later) - 0.5).abs() < 1e-9);
        assert_eq!(e.count(), 5);
    }

    #[test]
    fn controller_adapts_to_rate_changes() {
        let table = TradeoffTable::new(vec![low_curve(), high_curve()]);
        let mut c = AlphaController::new(
            table,
            0.20,
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            0.5,
        );
        // Slow arrivals: 0.1 qps → α = 1.0.
        let mut now = SimTime::ZERO;
        for i in 0..10u64 {
            now = SimTime::from_micros(i * 10_000_000);
            c.on_arrival(now);
        }
        assert_eq!(c.alpha(now), 1.0);
        // Burst: 0.5 qps over the next window → α = 0.25 after cadence.
        let burst_start = now.as_micros();
        for i in 0..50u64 {
            now = SimTime::from_micros(burst_start + (i + 1) * 2_000_000);
            c.on_arrival(now);
        }
        assert_eq!(c.alpha(now), 0.25);
    }

    #[test]
    fn controller_holds_alpha_between_updates() {
        let table = TradeoffTable::new(vec![low_curve()]);
        let mut c = AlphaController::new(
            table,
            0.2,
            SimDuration::from_secs(100),
            SimDuration::from_secs(60),
            0.5,
        );
        // First call updates (from initial 0.5 to 1.0), second is cached.
        assert_eq!(c.alpha(SimTime::ZERO), 1.0);
        c.on_arrival(SimTime::from_micros(1));
        assert_eq!(c.alpha(SimTime::from_micros(2)), 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate α")]
    fn curve_rejects_duplicate_alphas() {
        TradeoffCurve::new(0.1, vec![pt(0.5, 1.0, 1.0), pt(0.5, 2.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate saturation")]
    fn table_rejects_duplicate_saturations() {
        TradeoffTable::new(vec![low_curve(), low_curve()]);
    }

    #[test]
    #[should_panic(expected = "empty trade-off table")]
    fn empty_table_select_panics() {
        TradeoffTable::default().select_alpha(0.1, 0.2);
    }
}
