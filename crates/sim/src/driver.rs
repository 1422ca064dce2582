//! The one engine driver: LifeRaft's executor loop (Figure 3) over an
//! [`EngineCore`] — deliver the arrivals due, let the scheduler pick a
//! bucket at a batch boundary, run that batch. `Simulation` feeds a
//! [`Driver`] one arrival's [`Fragment`] at a time; every shard of
//! `liferaft-runtime` runs one, fed what the shard is handed window by window.

use liferaft_catalog::Catalog;
use liferaft_core::Scheduler;
use liferaft_query::{CrossMatchQuery, FragmentId, QueryId, WorkItem};
use liferaft_storage::{BucketId, SimDuration, SimTime};
use liferaft_telemetry::Event;

use crate::engine::{EngineCore, MigratedBucket};
use crate::report::RunReport;

/// One query's work for one driver: `Simulation` feeds a query's whole work
/// as one fragment, the runtime's router splits it per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// The fragment's identity, kept by every bucket move of its work.
    pub id: FragmentId,
    /// Index of the parent query within the driven trace.
    pub query_index: usize,
    /// The parent query.
    pub query: QueryId,
    /// Arrival instant of the parent query (ages reference this).
    pub arrival: SimTime,
    /// When the fragment becomes deliverable: `arrival`, unless the
    /// runtime's front door, transport, re-delivery or hedging moved it to
    /// its own hand-off. Ages keep referencing `arrival`, so every such
    /// delay shows up as response time.
    pub release: SimTime,
    /// The work items, sorted by bucket.
    pub items: Vec<WorkItem>,
    /// Total (object × bucket) assignments in `items`.
    pub assignments: u64,
}

impl Fragment {
    /// A query's fragment carrying `items`, released at its arrival and
    /// filed under the query's trace index (the runtime mints its own ids
    /// when it hands fragments off). With no items it is the marker a
    /// workless query ships: it registers the arrival and completes at once.
    pub fn new(query_index: usize, query: QueryId, arrival: SimTime, items: Vec<WorkItem>) -> Self {
        Fragment {
            id: FragmentId(query_index as u32),
            query_index,
            query,
            arrival,
            release: arrival,
            assignments: items.iter().map(|i| i.len() as u64).sum(),
            items,
        }
    }
}

/// An [`EngineCore`] with its clock, fragment stream, fault windows and
/// batch ledger, advanced one batch at a time.
pub struct Driver<'a, C: Catalog + ?Sized> {
    core: EngineCore<'a, C>,
    /// The driven trace (fragments reference queries by index).
    trace: &'a [(SimTime, CrossMatchQuery)],
    /// Every fragment appended, in stream order (admission never drains it).
    fragments: Vec<Fragment>,
    /// Next unadmitted fragment.
    next: usize,
    now: SimTime,
    /// Slowdowns as `(from, until, factor)`: a batch *started* inside a
    /// window costs `factor` times its model cost (a degraded disk, a noisy
    /// neighbour); overlapping windows compound.
    stalls: Vec<(SimTime, SimTime, f64)>,
    /// Outages as `(down_at, up_at)`, sorted and disjoint. A dead driver
    /// executes nothing: an event instant inside a window wakes at `up_at`.
    /// Batches are atomic — one started before `down_at` runs to its end.
    outages: Vec<(SimTime, SimTime)>,
    /// Outage windows whose start the clock has crossed — each crossing
    /// wipes the cache once (a crash loses residency).
    wiped: usize,
    /// Per-batch `(end, cumulative serviced entries)`, in end order: the
    /// engine's counter jumps at batch *start*, when the clock can be far
    /// ahead of an instant asked about ([`serviced_by`](Self::serviced_by)).
    completions: Vec<(SimTime, u64)>,
}

impl<'a, C: Catalog + ?Sized> Driver<'a, C> {
    /// A driver over `core` at virtual time zero, serving fragments of
    /// `trace` (none yet) under the given fault windows.
    pub fn new(
        core: EngineCore<'a, C>,
        trace: &'a [(SimTime, CrossMatchQuery)],
        stalls: Vec<(SimTime, SimTime, f64)>,
        outages: Vec<(SimTime, SimTime)>,
    ) -> Self {
        Driver {
            core,
            trace,
            fragments: Vec::new(),
            next: 0,
            now: SimTime::ZERO,
            stalls,
            outages,
            wiped: 0,
            completions: Vec::new(),
        }
    }

    /// The engine, read-only (load, residency and completion signals).
    pub fn core(&self) -> &EngineCore<'a, C> {
        &self.core
    }

    /// The engine, mutably — the engine tests' crash hook.
    #[cfg(test)]
    pub(crate) fn core_mut(&mut self) -> &mut EngineCore<'a, C> {
        &mut self.core
    }

    /// The clock: the end of the last batch or hand-over, or the last wake.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Every fragment appended so far, in stream order.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// Maps an instant out of any outage window to its end (one forward
    /// pass: waking at `up_at` may land in a *later* window, never earlier).
    fn wake(&self, mut t: SimTime) -> SimTime {
        for &(down_at, up_at) in &self.outages {
            if t >= down_at && t < up_at {
                t = up_at;
            }
        }
        t
    }

    /// True when `t` lies inside an outage window.
    pub fn down_at(&self, t: SimTime) -> bool {
        self.wake(t) != t
    }

    /// Virtual time of the next event, or `None` when fully done: `now`
    /// while work is pending, else the next release clamped up to `now` (an
    /// overshot release is admitted at `now`), woken out of any outage.
    pub fn next_time(&self) -> Option<SimTime> {
        if !self.core.is_idle() {
            return Some(self.wake(self.now));
        }
        self.fragments
            .get(self.next)
            .map(|f| self.wake(f.release.max(self.now)))
    }

    /// Moves the clock to `t`, wiping the cache once per outage window
    /// whose start it crosses.
    fn advance_to(&mut self, t: SimTime) {
        while self.wiped < self.outages.len() && t >= self.outages[self.wiped].0 {
            self.core.wipe_residency();
            self.wiped += 1;
        }
        self.now = t;
    }

    /// Admits every released fragment, in stream order.
    fn deliver_due(&mut self, scheduler: &mut dyn Scheduler) {
        // Copy the `&'a` out of `self`: the core's queues keep borrowing the
        // query's objects after this call returns.
        let trace = self.trace;
        while let Some(f) = self
            .fragments
            .get(self.next)
            .filter(|f| f.release <= self.now)
        {
            let (_, query) = &trace[f.query_index];
            debug_assert_eq!(query.id, f.query, "fragment and trace disagree");
            self.core.deliver_fragment(query, f.id, &f.items, f.arrival);
            scheduler.on_query_arrival(f.arrival);
            self.next += 1;
        }
    }

    /// Executes one event: moves the clock to [`next_time`](Self::next_time),
    /// admits what is released by then, and runs one batch under
    /// `scheduler`. Returns `false`, changing nothing, when fully done.
    ///
    /// # Panics
    /// Panics if the scheduler violates its contract (refuses to pick while
    /// work is pending, picks an empty bucket, or picks a non-candidate).
    pub fn step(&mut self, scheduler: &mut dyn Scheduler) -> bool {
        let Some(t) = self.next_time() else {
            return false;
        };
        self.advance_to(t);
        self.deliver_due(scheduler);
        if self.core.is_idle() {
            // Only zero-work fragments arrived (they register and complete
            // at once); nothing to schedule.
            return true;
        }
        let mut factor = 1.0f64;
        for &(from, until, f) in &self.stalls {
            if self.now >= from && self.now < until {
                factor *= f;
            }
        }
        self.now += self
            .core
            .decide_and_execute_scaled(scheduler, self.now, factor);
        self.completions
            .push((self.now, self.core.serviced_entries()));
        true
    }

    /// True when the next event is strictly earlier than `until` (`None`:
    /// when there is one).
    pub fn due_before(&self, until: Option<SimTime>) -> bool {
        let next = self.next_time();
        next.is_some_and(|t| until.map_or(true, |u| t < u))
    }

    /// Steps while the next event is [due before](Self::due_before) `until`.
    pub fn advance_until(&mut self, until: Option<SimTime>, scheduler: &mut dyn Scheduler) {
        while self.due_before(until) {
            self.step(scheduler);
        }
    }

    /// Merges `extra` into the unadmitted tail by release, a tie behind the
    /// fragments already there. Hand fragments over at an instant the
    /// driver has not stepped past: nothing may land before an admitted one.
    pub fn append_fragments(&mut self, extra: Vec<Fragment>) {
        debug_assert!(
            self.fragments[..self.next]
                .last()
                .map_or(true, |seen| extra.iter().all(|f| f.release >= seen.release)),
            "a fragment handed over behind one already admitted"
        );
        self.fragments.extend(extra);
        // Stable: the fragments already there win ties.
        self.fragments[self.next..].sort_by_key(|f| f.release);
    }

    /// Entries serviced by batches that completed by `t`.
    pub fn serviced_by(&self, t: SimTime) -> u64 {
        let k = self.completions.partition_point(|&(end, _)| end <= t);
        k.checked_sub(1).map_or(0, |k| self.completions[k].1)
    }

    /// The earliest batch completion strictly after `t`.
    pub fn next_completion_after(&self, t: SimTime) -> Option<SimTime> {
        let k = self.completions.partition_point(|&(end, _)| end <= t);
        self.completions.get(k).map(|&(end, _)| end)
    }

    /// [`EngineCore::extract_bucket`]; the clock is untouched.
    pub fn extract_bucket(&mut self, bucket: BucketId, at: SimTime) -> MigratedBucket<'a> {
        self.core.extract_bucket(bucket, at)
    }

    /// [`EngineCore::absorb_bucket`] at `at`, charging `cost` to the clock
    /// clamped up to `at` (transfer work never predates the decision).
    pub fn absorb_bucket(&mut self, payload: MigratedBucket<'a>, at: SimTime, cost: SimDuration) {
        self.now = self.now.max(at);
        self.core.absorb_bucket(payload);
        self.now += cost;
    }

    /// Finishes the run into its report (labelled with `scheduler`, its
    /// `queries` counting fragments), its events, and the events dropped.
    ///
    /// # Panics
    /// Panics unless the driver was advanced until fully done.
    pub fn finish(self, scheduler: &dyn Scheduler) -> (RunReport, Vec<Event>, u64) {
        assert!(
            self.next == self.fragments.len() && self.core.all_complete(),
            "driver finished with outstanding work"
        );
        let mut core = self.core;
        let (events, dropped) = (core.take_events(), core.telemetry_dropped());
        let queries = self.fragments.len();
        (core.into_report(scheduler, queries), events, dropped)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    use super::*;
    use crate::feed::{CHUNKS_AHEAD, PREPROCESS_CHUNK};
    use crate::{SimConfig, Simulation};
    use liferaft_catalog::{generate::uniform_sky, MaterializedCatalog};
    use liferaft_core::adaptive::TradeoffPoint;
    use liferaft_core::{
        AdaptiveScheduler, AgingMode, AlphaController, BatchSpec, LifeRaftScheduler, MetricParams,
        NoShareScheduler, RoundRobinScheduler, SchedulerView, TradeoffCurve, TradeoffTable,
    };
    use liferaft_query::{Predicate, QueryPreProcessor};
    use liferaft_workload::{TimedTrace, Trace};

    const LEVEL: u8 = 8;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Query `i` anchors on a tenth of the objects of buckets `3k..3k + 3`
    /// for `k = i / 2 % 5`, so queries pair up on their buckets and the 15
    /// cold reads keep the driver busy through both fault windows. Query
    /// `workless` carries no work.
    fn trace(
        cat: &MaterializedCatalog,
        arrivals_ms: &[u64],
        workless: usize,
    ) -> Vec<(SimTime, CrossMatchQuery)> {
        let queries = arrivals_ms.iter().enumerate().map(|(i, &ms)| {
            let q = QueryId(i as u64);
            if i == workless {
                return (at_ms(ms), CrossMatchQuery::new(q, vec![], Predicate::All));
            }
            let first = (i / 2 % 5) as u32 * 3;
            let positions: Vec<_> = (first..first + 3)
                .flat_map(|b| cat.bucket_objects(BucketId(b)).into_owned())
                .step_by(10)
                .map(|o| o.pos)
                .collect();
            let query = CrossMatchQuery::from_positions(q, &positions, 1e-4, LEVEL, Predicate::All);
            (at_ms(ms), query)
        });
        queries.collect()
    }

    fn fragments_of(
        cat: &MaterializedCatalog,
        trace: &[(SimTime, CrossMatchQuery)],
    ) -> Vec<Fragment> {
        let pre = QueryPreProcessor::new(cat.partition());
        let entries = trace.iter().enumerate();
        entries
            .map(|(i, (at, q))| Fragment::new(i, q.id, *at, pre.preprocess(q)))
            .collect()
    }

    /// The six policies: both baselines, LifeRaft greedy, aged and at
    /// normalized α = 0.5, and adaptive α, whose controller reads the
    /// arrival stream.
    fn schedulers() -> [fn() -> Box<dyn Scheduler>; 6] {
        [
            || Box::new(NoShareScheduler::new()),
            || Box::new(RoundRobinScheduler::new()),
            || Box::new(LifeRaftScheduler::greedy(MetricParams::paper())),
            || Box::new(LifeRaftScheduler::age_based(MetricParams::paper())),
            || {
                let params = MetricParams::paper();
                Box::new(LifeRaftScheduler::new(params, AgingMode::Normalized, 0.5))
            },
            || {
                let pt = |alpha, throughput_qps, mean_response_s| TradeoffPoint {
                    alpha,
                    throughput_qps,
                    mean_response_s,
                };
                let table = TradeoffTable::new(vec![
                    TradeoffCurve::new(0.1, vec![pt(0.0, 0.115, 300.0), pt(1.0, 0.107, 138.0)]),
                    TradeoffCurve::new(0.5, vec![pt(0.0, 0.40, 420.0), pt(0.25, 0.32, 340.0)]),
                ]);
                let window = SimDuration::from_secs(60);
                let controller =
                    AlphaController::new(table, 0.2, window, SimDuration::from_secs(5), 0.5);
                let params = MetricParams::paper();
                let inner = LifeRaftScheduler::new(params, AgingMode::Normalized, 0.5);
                Box::new(AdaptiveScheduler::new(inner, controller))
            },
        ]
    }

    /// Runs `trace` through one driver under `scheduler`: fed one arrival at
    /// a time through `advance_until` (`Simulation`'s shape), or appended
    /// whole up front (a runtime shard handed one window).
    fn run(
        cat: &MaterializedCatalog,
        trace: &[(SimTime, CrossMatchQuery)],
        faults: bool,
        per_arrival: bool,
        scheduler: &mut dyn Scheduler,
    ) -> RunReport {
        let (stalls, outages) = if faults {
            (
                vec![(at_ms(2_000), at_ms(6_000), 3.0)],
                vec![(at_ms(9_000), at_ms(14_000))],
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let core = EngineCore::new(cat, SimConfig::paper());
        let mut driver = Driver::new(core, trace, stalls, outages);
        let fragments = fragments_of(cat, trace);
        if per_arrival {
            for f in fragments {
                driver.advance_until(Some(f.release), scheduler);
                driver.append_fragments(vec![f]);
            }
        } else {
            driver.append_fragments(fragments);
        }
        driver.advance_until(None, scheduler);
        driver.finish(scheduler).0
    }

    #[test]
    fn per_arrival_feeding_equals_one_window_under_faults() {
        let cat = MaterializedCatalog::build(&uniform_sky(2_000, LEVEL, 1), LEVEL, 100, 4096);
        // Same-instant arrivals at 0, 1 and 10 s; arrivals inside the stall
        // window (2–6 s, ×3) and the outage (9–14 s); query 5 has no work.
        let arrivals = [
            0, 0, 500, 1_000, 1_000, 1_000, 2_500, 4_000, 7_000, 10_000, 10_000, 12_000, 16_000,
            30_000,
        ];
        let trace = trace(&cat, &arrivals, 5);
        for make in schedulers() {
            let window = run(&cat, &trace, true, false, make().as_mut());
            let fed = run(&cat, &trace, true, true, make().as_mut());
            assert_eq!(
                format!("{window:?}"),
                format!("{fed:?}"),
                "{}",
                window.scheduler
            );
            assert_eq!(fed.outcomes.len(), trace.len());
            let workless = fed.outcomes.iter().find(|o| o.query == QueryId(5));
            let workless = workless.expect("the workless query completes");
            assert_eq!(workless.completion, workless.arrival);
            // The fault windows bite: the same trace runs differently
            // without them.
            let clean = run(&cat, &trace, false, true, make().as_mut());
            assert_ne!(
                format!("{clean:?}"),
                format!("{fed:?}"),
                "{}",
                fed.scheduler
            );
        }
    }

    /// `n` queries every 1.5 s, where each chunk's first query arrives
    /// with the previous chunk's last, and query `2 * PREPROCESS_CHUNK`
    /// carries no work.
    fn chunked_trace(cat: &MaterializedCatalog, n: usize) -> TimedTrace {
        let mut arrivals_ms: Vec<u64> = (0..n as u64).map(|i| i * 1_500).collect();
        for first in (PREPROCESS_CHUNK..n).step_by(PREPROCESS_CHUNK) {
            arrivals_ms[first] = arrivals_ms[first - 1];
        }
        let (arrivals, queries) = trace(cat, &arrivals_ms, 2 * PREPROCESS_CHUNK)
            .into_iter()
            .unzip();
        Trace::new(LEVEL, queries).into_timed(arrivals)
    }

    #[test]
    fn pipelined_simulation_equals_the_serial_feed_across_chunks() {
        let cat = MaterializedCatalog::build(&uniform_sky(2_000, LEVEL, 1), LEVEL, 100, 4096);
        // More chunks than the producer may hold ahead, the last one partial.
        let n = (CHUNKS_AHEAD + 2) * PREPROCESS_CHUNK + PREPROCESS_CHUNK / 2;
        let timed = chunked_trace(&cat, n);
        let sim = Simulation::new(&cat, SimConfig::paper());
        for make in schedulers() {
            let pipelined = sim.run(&timed, make().as_mut());
            let serial = run(&cat, timed.entries(), false, true, make().as_mut());
            assert_eq!(
                format!("{pipelined:?}"),
                format!("{serial:?}"),
                "{}",
                serial.scheduler
            );
            assert_eq!(pipelined.outcomes.len(), n);
        }
    }

    /// NoShare, counting picks down from `.1`: the pick that reaches zero
    /// panics.
    struct PanicsOnPick(NoShareScheduler, u32);

    impl Scheduler for PanicsOnPick {
        fn name(&self) -> String {
            self.0.name()
        }

        fn pick(&mut self, view: &dyn SchedulerView) -> Option<BatchSpec> {
            self.1 -= 1;
            assert!(self.1 > 0, "the scheduler fails on purpose");
            self.0.pick(view)
        }
    }

    #[test]
    fn a_scheduler_panic_fails_the_run_instead_of_hanging() {
        let (tx, rx) = mpsc::channel();
        // A hung run leaks this thread; the timeout below still fails.
        thread::spawn(move || {
            let cat = MaterializedCatalog::build(&uniform_sky(2_000, LEVEL, 1), LEVEL, 100, 4096);
            // Pick 50 comes long before the producer, held `CHUNKS_AHEAD`
            // chunks ahead, has split the last of these queries.
            let timed = chunked_trace(&cat, (CHUNKS_AHEAD + 4) * PREPROCESS_CHUNK);
            let sim = Simulation::new(&cat, SimConfig::paper());
            let mut scheduler = PanicsOnPick(NoShareScheduler::new(), 50);
            let run = panic::catch_unwind(AssertUnwindSafe(|| sim.run(&timed, &mut scheduler)));
            let message = run.map_err(|payload| match payload.downcast::<&str>() {
                Ok(s) => s.to_string(),
                Err(payload) => *payload.downcast::<String>().expect("a string payload"),
            });
            tx.send(message.map(|report| report.batches)).unwrap();
        });
        let run = rx.recv_timeout(Duration::from_secs(60));
        let run = run.expect("the run hung after its scheduler panicked");
        let message = run.expect_err("the scheduler's panic fails the run");
        assert_eq!(message, "the scheduler fails on purpose");
    }

    #[test]
    fn late_fragments_merge_into_the_unadmitted_tail_by_release() {
        let cat = MaterializedCatalog::build(&uniform_sky(500, LEVEL, 3), LEVEL, 100, 4096);
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        // Query i anchors on bucket i and arrives at 0, 4 and 9 s.
        let trace: Vec<(SimTime, CrossMatchQuery)> = [0, 4, 9]
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let objects = cat.bucket_objects(BucketId(i as u32));
                let positions: Vec<_> = objects.iter().take(5).map(|o| o.pos).collect();
                let q = QueryId(i as u64);
                let query =
                    CrossMatchQuery::from_positions(q, &positions, 1e-4, LEVEL, Predicate::All);
                (at(s), query)
            })
            .collect();
        let fragment = |i: usize| fragments_of(&cat, &trace).swap_remove(i);
        let mut greedy = LifeRaftScheduler::greedy(MetricParams::paper());
        let core = EngineCore::new(&cat, SimConfig::paper());
        let mut w = Driver::new(core, &trace, Vec::new(), Vec::new());
        let order = |w: &Driver<'_, _>| -> Vec<(usize, SimTime)> {
            w.fragments
                .iter()
                .map(|f| (f.query_index, f.release))
                .collect()
        };

        w.append_fragments(vec![fragment(0), fragment(2)]);
        assert!(w.step(&mut greedy));
        assert_eq!(w.next, 1, "query 0 is admitted, query 2 is not due");
        // Query 1 is handed over late but released before query 2; a copy
        // of query 0 released with query 2 ties and goes behind it.
        let copy = Fragment {
            release: at(9),
            ..fragment(0)
        };
        w.append_fragments(vec![fragment(1), copy]);
        let merged = vec![(0, at(0)), (1, at(4)), (2, at(9)), (0, at(9))];
        assert_eq!(order(&w), merged);
        assert!(w.step(&mut greedy));
        assert_eq!(w.next, 2, "the late fragment is admitted first");
        assert!(w.now() < at(9));
        while w.step(&mut greedy) {}
        assert_eq!(order(&w), merged, "the admitted prefix never moves");
        assert_eq!(w.finish(&greedy).0.outcomes.len(), 4);
    }
}
