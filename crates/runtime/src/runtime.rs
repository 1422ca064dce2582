//! The sharded serving runtime: route window → advance → fire → finish.
//!
//! # Determinism contract
//!
//! Both execution modes produce **bit-identical** [`RuntimeReport`]s for
//! the same (catalog, config, trace, scheduler factory):
//!
//! - Shards interact only at control instants (an outage edge, an epoch
//!   boundary, a re-delivery, a front-door pass, a hedge check). Between
//!   two of them each shard is a pure function of its own fragment stream,
//!   so the modes differ only in whether a window's workers advance in a
//!   loop or on one scoped thread each.
//! - Routing a window's arrivals when the window opens is unobservable: a
//!   fragment stays invisible to its shard until its release.
//! - Aggregation merges per-shard completion streams in the canonical
//!   `(completion time, shard id, shard event order)` order, which is
//!   independent of how the shards were driven.
//!
//! # One run path
//!
//! Every configuration flows through the same pieces (see
//! `docs/ARCHITECTURE.md`, "route window → advance → fire → finish"):
//! `spawn` makes the workers, `execute` is the one window loop the
//! controllers plug into as barrier handlers, and `finish` folds the
//! finished pool and the decision logs into the report. A run with no
//! control instant (static, or transport without hedging) is one window
//! that reaches the end of the trace.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use liferaft_catalog::Catalog;
use liferaft_core::Scheduler;
use liferaft_query::{CrossMatchQuery, FragmentId, QueryId};
use liferaft_sim::{Feed, MigratedBucket, RunReport, ShardOutage};
use liferaft_storage::{SimDuration, SimTime};
use liferaft_telemetry::{Event, TelemetryReport};
use liferaft_workload::TimedTrace;

use crate::admission::{AdmissionLog, FrontDoor, FrontDoorReport};
use crate::config::{ExecMode, RebalanceConfig, RuntimeConfig};
use crate::failover::{
    Evacuation, FailoverLog, FailoverReport, Redelivery, ShardTransition, REDELIVERY,
};
use crate::ledger::{canonical_merge, merged_completions, ClassConservation, Ledger, RejectedBy};
use crate::rebalance::{plan_moves, EpochRecord, Migration, RebalanceLog};
use crate::router::{route_window, Fragment, Routing};
use crate::shard::{ElasticShardMap, ShardId, ShardMap};
use crate::transport::{resolve_hedges, DeliveryPlan, Hedges, TransportReport};
use crate::worker::{Round, ShardRun, ShardWorker};

/// The outcome of one sharded runtime execution.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The query-level global summary, shaped exactly like a single-engine
    /// [`RunReport`]: counters are summed across shards, response statistics
    /// are computed over whole-query completions (a cross-shard query
    /// completes when its last fragment finishes), and `outcomes` are in the
    /// canonical merged completion order. `outcomes` covers the *completed*
    /// queries; a rejected one is in the `rejected` list of the controller
    /// that rejected it (`front_door`, `failover`, `transport`), so
    /// `global.outcomes.len()` plus those lists always equals the trace
    /// length — accounting is conserved.
    pub global: RunReport,
    /// Per-shard runs, in shard order.
    pub shards: Vec<ShardRun>,
    /// Queries that split across more than one shard.
    pub cross_shard_queries: usize,
    /// Total fragments routed.
    pub total_fragments: usize,
    /// The epoch-indexed rebalance decision log (`None` when rebalancing is
    /// off: a zero epoch). Not part of the fingerprinted surface — it
    /// records *why* the run evolved, not *what* it produced.
    pub rebalance: Option<RebalanceLog>,
    /// The front door's decision log, the queries it turned away, and
    /// per-class statistics (`None` when the front door is disabled).
    pub front_door: Option<FrontDoorReport>,
    /// The failover decision log, the queries whose lost fragment exhausted
    /// re-delivery, and the recovery-lag headline (`None` when no outages
    /// were injected and failover is disabled).
    pub failover: Option<FailoverReport>,
    /// The transport decision log, the queries whose fragment exhausted its
    /// retransmission budget undelivered, and the hedge race outcome
    /// (`None` when the transport did not run: no link window, no hedging).
    pub transport: Option<TransportReport>,
    /// Terminal-outcome books per [`QueryClass`](crate::QueryClass), in
    /// rank order: `completed + rejected == submitted` for each, asserted
    /// before any report is built. Every run has them, whichever
    /// controllers ran.
    pub per_class: [ClassConservation; 3],
    /// The flight-recorder report (`None` when telemetry is off): per-shard
    /// time series plus the canonical merged event stream, exportable as
    /// JSONL or a Chrome/Perfetto trace. Like the decision logs, not part of
    /// the fingerprinted surface — recording never perturbs the run.
    pub telemetry: Option<TelemetryReport>,
}

impl RuntimeReport {
    /// Virtual-time load imbalance across shards: max over mean per-shard
    /// busy makespan (1.0 = perfectly balanced; 0 if no shard did work).
    pub fn shard_imbalance(&self) -> f64 {
        let spans: Vec<f64> = self.shards.iter().map(|s| s.report.makespan_s).collect();
        let max = spans.iter().copied().fold(0.0, f64::max);
        let mean = spans.iter().sum::<f64>() / spans.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }
}

/// A sharded serving runtime over one catalog.
///
/// Reentrant like [`liferaft_sim::Simulation`]: every `run` replays a trace
/// from scratch with fresh per-shard state.
#[derive(Debug, Clone)]
pub struct ShardedRuntime<'a, C: Catalog + Sync + ?Sized> {
    catalog: &'a C,
    config: RuntimeConfig,
    map: ShardMap,
}

impl<'a, C: Catalog + Sync + ?Sized> ShardedRuntime<'a, C> {
    /// Creates a runtime over `catalog` with the given configuration.
    pub fn new(catalog: &'a C, config: RuntimeConfig) -> Self {
        config.validate();
        let map = ShardMap::new(
            catalog.partition().num_buckets(),
            config.n_shards,
            config.assignment,
        );
        ShardedRuntime {
            catalog,
            config,
            map,
        }
    }

    /// The bucket → shard map in force.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Replays `trace`, scheduling shard `i` with `mk_scheduler(i)`.
    ///
    /// The run is one window loop whatever `mode` asks for: arrivals route
    /// window by window between control instants, and `mode` picks how a
    /// window's workers advance. The factory is invoked once per shard.
    ///
    /// # Panics
    /// Panics if any shard's scheduler violates its contract, or if the run
    /// ends with incomplete queries — both are bugs that must fail loudly.
    pub fn run(
        &self,
        trace: &TimedTrace,
        mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler + Send>,
        mode: ExecMode,
    ) -> RuntimeReport {
        let entries = trace.entries();
        let index_of: HashMap<QueryId, usize> = entries
            .iter()
            .enumerate()
            .map(|(i, (_, q))| (q.id, i))
            .collect();
        let mut pool = self.spawn(entries, mk_scheduler);
        let plan = self.drive(entries, &mut pool, mode);
        self.finish(entries, &index_of, pool, plan)
    }

    /// Runs the window loop over `pool` on a [`Feed`] made inside the run's
    /// thread scope, inline when stepped, and returns the controllers' plan.
    fn drive<'w>(
        &'w self,
        entries: &'w [(SimTime, CrossMatchQuery)],
        pool: &mut [ShardWorker<'w, C>],
        mode: ExecMode,
    ) -> Plan {
        let producers = match mode {
            ExecMode::Stepped => 0,
            ExecMode::Threaded => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(self.config.n_shards as usize),
        };
        std::thread::scope(|s| {
            let feed = Feed::new(s, self.catalog.partition(), entries, producers);
            let mut ctl = self.controllers(entries, feed);
            execute(pool, &mut ctl, mode);
            ctl.into_plan()
        })
    }

    /// The one place workers are made: shard `i` runs under
    /// `mk_scheduler(i)`, and the window loop hands it its fragments.
    fn spawn<'w>(
        &'w self,
        entries: &'w [(SimTime, CrossMatchQuery)],
        mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler + Send>,
    ) -> Vec<ShardWorker<'w, C>> {
        let config = &self.config;
        (0..config.n_shards)
            .map(|i| {
                let scheduler = mk_scheduler(i as usize);
                ShardWorker::new(ShardId(i), self.catalog, config, entries, scheduler)
            })
            .collect()
    }

    /// The handlers this configuration plugs into [`execute`], and the
    /// routing state they share. With none plugged in the set is inert: one
    /// window routes the whole trace and the workers run to the end.
    fn controllers<'w>(
        &'w self,
        entries: &'w [(SimTime, CrossMatchQuery)],
        feed: Feed<'w>,
    ) -> Controllers<'w> {
        let cfg = &self.config;
        let n = cfg.n_shards as usize;
        // Each policy runs when its settings do something: rebalancing on a
        // non-zero epoch, hedging on a non-zero budget, and the transport
        // when a link window is declared or hedging needs its books.
        let hedging = cfg.transport.hedge.max_hedges > 0;
        let transport = hedging || !cfg.faults.links.is_empty();
        let epochs = (cfg.rebalance.epoch > SimDuration::ZERO).then(|| Epochs {
            cfg: cfg.rebalance,
            log: RebalanceLog {
                epoch: cfg.rebalance.epoch,
                records: Vec::new(),
            },
        });
        let outages = (cfg.failover.enabled || !cfg.faults.outages.is_empty())
            .then(|| Outages::new(cfg.failover.enabled, &cfg.faults.outages, entries.len()));
        Controllers {
            config: cfg,
            entries,
            feed,
            routed: 0,
            minted: 0,
            map: ElasticShardMap::new(self.map),
            up: vec![true; n],
            epochs,
            outages,
            door: cfg
                .front_door
                .enabled
                .then(|| FrontDoor::new(cfg.front_door, entries.len())),
            hedges: hedging.then(|| Hedges::new(cfg.transport.hedge, cfg.front_door, n)),
            plan: Plan {
                transport: transport.then(|| DeliveryPlan::new(entries.len())),
                ..Plan::default()
            },
        }
    }

    /// The one tail of every run: folds the finished pool and the plan's
    /// decision logs into the report.
    ///
    /// The pool's canonical completion stream is merged once
    /// ([`merged_completions`]), shared out by fragment id; hedge races
    /// resolve over it and the losers' shares leave it. The [`Ledger`] then
    /// books every query's terminal outcome — rejected by the controller
    /// whose log says so (turned away at the front door, lost to a dead
    /// shard with every re-delivery spent, undelivered with every
    /// retransmission spent) or completed by the stream — and the global
    /// report and the three controller reports all project from those books.
    fn finish(
        &self,
        entries: &[(SimTime, CrossMatchQuery)],
        index_of: &HashMap<QueryId, usize>,
        workers: Vec<ShardWorker<'_, C>>,
        plan: Plan,
    ) -> RuntimeReport {
        // The recovery-lag headline reads the batch ledgers `into_run` drops.
        let recovery_lag = plan.failover.as_ref().and_then(|log| {
            log.recovery_lag(|shard, t| workers[shard as usize].driver.next_completion_after(t))
        });
        let mut stream = merged_completions(&workers, index_of);
        let (shards, streams): (Vec<ShardRun>, Vec<Vec<Event>>) =
            workers.into_iter().map(ShardWorker::into_run).unzip();

        let hedges = plan.transport.as_ref().map_or(&[][..], |d| &d.log.hedges);
        let (hedge_wins, hedge_losses) = resolve_hedges(hedges, &plan.races, &mut stream);

        let door = &self.config.front_door;
        let mut ledger = Ledger::open(entries, &plan.assignments_of, |a| door.run_class(a));
        if let Some(log) = &plan.admission {
            ledger.reject(RejectedBy::FrontDoor, log.rejections());
        }
        if let Some(log) = &plan.failover {
            ledger.reject(RejectedBy::Failover, log.rejections());
        }
        if let Some(delivery) = &plan.transport {
            ledger.reject(RejectedBy::Transport, delivery.rejections());
        }
        let outcomes = ledger.settle(&stream);

        let scheduler = format!(
            "Sharded[{}×{}]",
            shards.len(),
            shards.first().map_or("∅", |r| r.report.scheduler.as_str())
        );
        let mut global = RunReport::from_outcomes(scheduler, outcomes.len(), outcomes);
        for run in &shards {
            global.add_counters(&run.report);
        }

        let telemetry = self.build_telemetry(entries, streams, &plan);
        let per_class = ledger.per_class();
        let failover = plan.failover.map(|log| FailoverReport {
            log,
            rejected: ledger.rejected_by(RejectedBy::Failover),
            recovery_lag,
        });
        let transport = plan.transport.map(|delivery| TransportReport {
            log: delivery.log,
            rejected: ledger.rejected_by(RejectedBy::Transport),
            hedge_wins,
            hedge_losses,
        });
        RuntimeReport {
            global,
            shards,
            cross_shard_queries: plan.cross_shard_queries,
            total_fragments: plan.total_fragments,
            rebalance: plan.rebalance,
            front_door: plan.admission.map(|log| log.into_report(&ledger)),
            failover,
            transport,
            per_class,
            telemetry,
        }
    }

    /// Folds the per-shard event streams plus the controller events each
    /// decision log renders into the flight-recorder report. `None` when
    /// telemetry is off.
    ///
    /// The router stream is every log's events in a fixed construction
    /// order (rebalance, admission, failover, transport — each log's own
    /// order inside), *stably* sorted by time and then numbered; all the
    /// logs are deterministic, so the stream is too. The shard streams, in
    /// shard order, and then the router stream merge in the canonical
    /// completion order ([`canonical_merge`]), so controller events, on the
    /// [`ROUTER_SHARD`](liferaft_telemetry::ROUTER_SHARD) pseudo-shard, sort
    /// after every real shard's at one clock. Because each shard's stream is
    /// a pure function of its own fragment sequence and the logs are made
    /// only at control instants, stepped and threaded executions produce
    /// byte-identical merged streams.
    fn build_telemetry(
        &self,
        entries: &[(SimTime, CrossMatchQuery)],
        mut streams: Vec<Vec<Event>>,
        plan: &Plan,
    ) -> Option<TelemetryReport> {
        if !self.config.telemetry.enabled() {
            return None;
        }
        let mut router: Vec<Event> = Vec::new();
        if let Some(log) = &plan.rebalance {
            log.render(&mut router);
        }
        if let Some(log) = &plan.admission {
            log.render(entries, &mut router);
        }
        if let Some(log) = &plan.failover {
            log.render(&mut router);
        }
        if let Some(delivery) = &plan.transport {
            delivery.log.render(&mut router);
        }
        router.sort_by_key(|e| e.time);
        for (seq, e) in router.iter_mut().enumerate() {
            e.seq = seq as u64;
        }
        streams.push(router);
        Some(TelemetryReport::build(
            canonical_merge(streams, |e| e.time),
            self.config.n_shards,
            self.config.telemetry.window,
        ))
    }
}

/// What routing and the controllers hand to `finish`: the counters routing
/// produced and the decision log of every controller that ran.
#[derive(Default)]
struct Plan {
    /// Per trace index: (object × bucket) assignments, booked once per query
    /// — as its window routes, or as the door registers it.
    assignments_of: Vec<u64>,
    cross_shard_queries: usize,
    total_fragments: usize,
    rebalance: Option<RebalanceLog>,
    admission: Option<AdmissionLog>,
    failover: Option<FailoverLog>,
    transport: Option<DeliveryPlan>,
    /// Per hedge, in decision order: the raced original's id and its copy's.
    races: Vec<(FragmentId, FragmentId)>,
}

impl Plan {
    /// Books one handed-off routing's counters.
    fn record(&mut self, routing: &Routing) {
        self.cross_shard_queries += routing.cross_shard_queries;
        self.total_fragments += routing.total_fragments();
    }
}

/// Controller event sources, in firing order at equal instants: a fault
/// boundary changes the pool before an epoch samples it, both change the map
/// before the arrivals of their instant route under it — whether routed in
/// a window or admitted by a door pass — a re-delivery lands after those
/// arrivals, and a hedge check reads the pool last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    Outage,
    Epoch,
    Door,
    Redelivery,
    Hedge,
}

/// The handlers of one run and the routing state they share. Each handler
/// owns its state and appends to its own decision log; `plan` collects what
/// they produce together.
struct Controllers<'a> {
    config: &'a RuntimeConfig,
    entries: &'a [(SimTime, CrossMatchQuery)],
    /// The entries' work items: a window routes them, the door registers them.
    feed: Feed<'a>,
    /// Next trace entry not yet routed (with the door on: registered).
    routed: usize,
    /// The next fragment id to mint.
    minted: u32,
    /// The live bucket → shard map: epochs and evacuations reassign buckets,
    /// each window routes under it.
    map: ElasticShardMap,
    /// Which shards are in the pool: outage edges flip it, the epoch planner,
    /// re-delivery and hedging skip dead shards, and a marker handed off to
    /// one retargets.
    up: Vec<bool>,
    epochs: Option<Epochs>,
    outages: Option<Outages>,
    door: Option<FrontDoor>,
    hedges: Option<Hedges>,
    plan: Plan,
}

impl Controllers<'_> {
    /// The next controller event, if any handler still has one.
    fn next_event<C: Catalog + ?Sized>(
        &self,
        workers: &[ShardWorker<'_, C>],
    ) -> Option<(SimTime, Source)> {
        let idle = workers.iter().all(|w| w.driver.next_time().is_none());
        let outages = self.outages.as_ref();
        let stamp = |t: Option<SimTime>, source: Source| t.map(|t| (t, source));
        let door = self.door.as_ref().and_then(|d| {
            let now = d.now();
            // A worker's clock runs ahead of global time by whole batch
            // costs; each recorded batch *end* in that gap is a "capacity
            // frees here" event the door must observe at its own instant
            // (and never earlier — see `ShardWorker::held_at`).
            let tick = workers
                .iter()
                .filter_map(|w| w.driver.next_completion_after(now))
                .min();
            let arrival = self.entries.get(self.routed).map(|e| e.0);
            let due = [arrival, d.next_wakeup(), tick].into_iter().flatten().min();
            // Liveness: no event anywhere yet waiters remain. With no shard
            // event pending the shards hold nothing, so pumping "now" admits
            // the head-of-line waiter unconditionally — the loop can never
            // stall with work outstanding.
            due.or((idle && d.has_active()).then_some(now))
        });
        let alive = [
            stamp(door, Source::Door),
            stamp(outages.and_then(Outages::next_edge), Source::Outage),
            stamp(outages.and_then(Outages::next_retry), Source::Redelivery),
            stamp(
                self.hedges.as_ref().and_then(Hedges::next_check),
                Source::Hedge,
            ),
        ]
        .into_iter()
        .flatten()
        .min();
        // The epoch clock ticks forever: it counts only while something else
        // is alive — a handler event, an unrouted arrival, a busy worker — so
        // it never keeps the loop running on its own.
        let busy = self.routed < self.entries.len() || !idle;
        let epoch = self
            .epochs
            .as_ref()
            .filter(|_| alive.is_some() || busy)
            .map(|e| (e.next(), Source::Epoch));
        [alive, epoch].into_iter().flatten().min()
    }

    /// Opens a window: routes every arrival before the next control instant
    /// under the live map and up-mask (which change only at those instants)
    /// and [hands the fragments off](Self::hand_off). Returns that instant,
    /// shrunk by any re-delivery deadline or hedge check the routing itself
    /// created. With the door on, arrivals wait at the door instead, and
    /// each pass routes what it admits.
    fn route_window<C: Catalog + ?Sized>(
        &mut self,
        workers: &mut [ShardWorker<'_, C>],
    ) -> Option<(SimTime, Source)> {
        loop {
            let bound = self.next_event(workers);
            if self.door.is_some() {
                return bound;
            }
            // An arrival ranks right after its instant's `Epoch`.
            let due = self.entries[self.routed..]
                .iter()
                .take_while(|&&(at, _)| bound.map_or(true, |b| (at, Source::Epoch) < b))
                .count();
            if due == 0 {
                return bound;
            }
            // A window opens no later than its first arrival.
            let opened = self.entries[self.routed].0;
            let window = self.routed..self.routed + due;
            self.routed = window.end;
            let routing = route_window(&self.map, self.entries, window.zip(&mut self.feed));
            self.plan
                .assignments_of
                .extend_from_slice(&routing.assignments_of);
            self.hand_off(workers, routing, opened);
        }
    }

    /// The one tail of every routing, a window's or a door pass's, handed
    /// off at `at`: each fragment gets its id, the transport resolves each
    /// chain to its delivery instant (or loses it), hedging classifies what
    /// was delivered, failover intercepts what that release lands in an
    /// outage, the plan books the counters, hedging tracks the rest, and the
    /// workers take it — each fragment the shard it was sent to, whatever
    /// moved since (see the transport module, "Map changes in flight").
    fn hand_off<C: Catalog + ?Sized>(
        &mut self,
        workers: &mut [ShardWorker<'_, C>],
        mut routing: Routing,
        at: SimTime,
    ) {
        routing.mint(&mut self.minted);
        if let Some(delivery) = self.plan.transport.as_mut() {
            delivery.deliver(&self.config.faults, &mut routing);
        }
        if let Some(hedges) = self.hedges.as_mut() {
            hedges.classify(&routing, at, &self.plan.assignments_of);
        }
        if let Some(outages) = self.outages.as_mut().filter(|o| o.failover) {
            let transport = self.plan.transport.as_ref();
            let moot = |q: usize| transport.is_some_and(|d| d.rejected[q].is_some());
            outages.intercept(workers, at, moot, &mut routing.shards);
        }
        self.plan.record(&routing);
        if let (Some(hedges), Some(delivery)) = (self.hedges.as_mut(), &self.plan.transport) {
            hedges.track(&routing, &delivery.rejected);
        }
        for (w, stream) in workers.iter_mut().zip(routing.shards) {
            w.append_fragments(stream);
        }
    }

    /// Fires the event `next_event` announced.
    fn fire<C: Catalog + ?Sized>(
        &mut self,
        workers: &mut [ShardWorker<'_, C>],
        t: SimTime,
        source: Source,
    ) {
        let plugged = "an event fires on a handler that announced it";
        match source {
            Source::Outage => {
                let outages = self.outages.as_mut().expect(plugged);
                outages.edge(workers, &mut self.up, &mut self.map);
            }
            Source::Epoch => {
                let epochs = self.epochs.as_mut().expect(plugged);
                epochs.fire(t, workers, &self.up, &mut self.map);
            }
            Source::Redelivery => {
                let outages = self.outages.as_mut().expect(plugged);
                outages.redeliver(workers, &self.up, &mut self.plan.total_fragments);
            }
            Source::Door => self.door_pass(workers, t),
            Source::Hedge => {
                let hedges = self.hedges.as_mut().expect(plugged);
                let total_fragments = &mut self.plan.total_fragments;
                let (faults, minted) = (&self.config.faults, &mut self.minted);
                hedges.fire(t, workers, &self.up, faults, total_fragments, minted);
            }
        }
    }

    /// One front-door pass at `t`: register every arrival due by now (trace
    /// order, with its work items from the feed), then wake backoffs, admit,
    /// shed, reject. The queries admitted are routed under the live map and
    /// handed off like a routed window, released at `now`. Admission
    /// feedback is what the shards hold at `now`, so an admission at `now`
    /// depends only on batches completed by `now`.
    fn door_pass<C: Catalog + ?Sized>(&mut self, workers: &mut [ShardWorker<'_, C>], t: SimTime) {
        let Some(door) = self.door.as_mut() else {
            return;
        };
        let now = door.now().max(t);
        let due = self.entries[self.routed..]
            .iter()
            .take_while(|e| e.0 <= now);
        for ((arrival, _), items) in due.zip(&mut self.feed) {
            self.plan
                .assignments_of
                .push(door.ingest(self.routed, *arrival, items));
            self.routed += 1;
        }
        let held = workers.iter().map(|w| w.held_at(now)).sum();
        let admitted = door.pump(now, held);
        if admitted.is_empty() {
            return;
        }
        let mut routing = route_window(&self.map, self.entries, admitted);
        for f in routing.shards.iter_mut().flatten() {
            f.release = now;
        }
        self.hand_off(workers, routing, now);
    }

    /// Finishes the run: every handler hands over its log.
    fn into_plan(self) -> Plan {
        let (hedges, races) = self
            .hedges
            .map_or_else(Default::default, |h| (h.log, h.races));
        Plan {
            rebalance: self.epochs.map(|e| e.log),
            admission: self.door.map(FrontDoor::into_log),
            failover: self.outages.map(Outages::into_log),
            transport: self.plan.transport.map(|d| d.seal(hedges)),
            races,
            ..self.plan
        }
    }
}

/// Applies one round to the pool in place: every payload leaves its source
/// first (sources are untouched by other transfers' absorptions), then each
/// destination absorbs its own in bucket order, the canonical absorb order.
/// Returns, per transfer, whether the bucket was cache-resident at its
/// source.
fn transfer<C: Catalog + ?Sized>(workers: &mut [ShardWorker<'_, C>], round: &Round) -> Vec<bool> {
    let mut inbox: Vec<Vec<MigratedBucket<'_>>> = workers.iter().map(|_| Vec::new()).collect();
    let mut was_resident = Vec::with_capacity(round.transfers.len());
    for m in &round.transfers {
        let payload = workers[m.from.index()].extract_bucket(m.bucket, round);
        debug_assert_eq!(payload.len() as u64, m.entries, "plan drifted from state");
        was_resident.push(payload.was_resident);
        inbox[m.to.index()].push(payload);
    }
    for (w, incoming) in workers.iter_mut().zip(inbox) {
        w.absorb_round(round, incoming);
    }
    was_resident
}

/// The rebalance handler: at every epoch boundary it samples per-shard
/// load, plans migrations ([`plan_moves`], dead shards masked out), applies
/// them (costs charged to destination clocks), records the epoch, and
/// updates the map the following arrivals route under.
struct Epochs {
    cfg: RebalanceConfig,
    log: RebalanceLog,
}

impl Epochs {
    /// The next boundary: every fired boundary leaves a record.
    fn next(&self) -> SimTime {
        SimTime::ZERO + self.cfg.epoch.times(self.log.records.len() as u64 + 1)
    }

    fn fire<C: Catalog + ?Sized>(
        &mut self,
        t: SimTime,
        workers: &mut [ShardWorker<'_, C>],
        up: &[bool],
        map: &mut ElasticShardMap,
    ) {
        let loads: Vec<u64> = workers
            .iter()
            .map(|w| w.driver.core().total_queued())
            .collect();
        let depths: Vec<Vec<_>> = workers.iter().map(ShardWorker::bucket_depths).collect();
        let round = Round {
            at: t,
            transfers: plan_moves(&self.cfg, &loads, &depths, up),
        };
        transfer(workers, &round);
        for m in &round.transfers {
            map.reassign(m.bucket, m.to);
        }
        self.log.records.push(EpochRecord {
            epoch: self.log.records.len() as u32 + 1,
            at: t,
            loads,
            serviced: workers
                .iter()
                .map(|w| w.driver.core().serviced_entries())
                .collect(),
            resident: workers
                .iter()
                .map(|w| w.driver.core().resident_buckets() as u32)
                .collect(),
            moves: round.transfers,
        });
    }
}

/// One retry chain per fragment lost to a dead shard.
struct Chain {
    from: u32,
    attempt: u32,
    fragment: Fragment,
}

/// The crash handler, plugged in whenever outage windows are injected or
/// failover is enabled:
///
/// - an **outage edge** records a [`ShardTransition`]; a down edge with
///   failover enabled evacuates every non-empty bucket off the dead shard
///   and updates the live map, while an up edge re-admits the — now empty
///   and cold — shard to the pool;
/// - a fragment **lost** to a dead shard queues its first re-delivery
///   attempt one detection timeout after its release;
/// - a **re-delivery** lands the whole lost fragment on the least-loaded
///   live shard, or — when nothing is up — fails and backs off
///   exponentially until the [`REDELIVERY`] budget rejects the query (a
///   terminal outcome: every query still ends exactly once).
struct Outages {
    /// Failover is on: down edges evacuate, lost fragments re-deliver.
    failover: bool,
    /// Outage edges in processing order: time, downs before ups, shard.
    edges: Vec<(SimTime, bool, u32)>,
    edges_done: usize,
    /// Live chains by creation seq — the heap orders pending attempts by
    /// `(instant, seq)`.
    chains: HashMap<u64, Chain>,
    retries: BinaryHeap<Reverse<(SimTime, u64)>>,
    next_seq: u64,
    /// Per trace index: a chain of the query ran out of attempts.
    rejected: Vec<bool>,
    log: FailoverLog,
}

impl Outages {
    fn new(failover: bool, outages: &[ShardOutage], n_queries: usize) -> Self {
        let mut edges: Vec<(SimTime, bool, u32)> = Vec::new();
        for o in outages {
            edges.push((o.down_at, false, o.shard));
            edges.push((o.up_at, true, o.shard));
        }
        edges.sort_unstable();
        Outages {
            failover,
            edges,
            edges_done: 0,
            chains: HashMap::new(),
            retries: BinaryHeap::new(),
            next_seq: 0,
            rejected: vec![false; n_queries],
            log: FailoverLog::default(),
        }
    }

    fn next_edge(&self) -> Option<SimTime> {
        self.edges.get(self.edges_done).map(|e| e.0)
    }

    fn next_retry(&self) -> Option<SimTime> {
        self.retries.peek().map(|Reverse((t, _))| *t)
    }

    /// Processes the next outage edge; a down edge with failover enabled
    /// evacuates the dead shard in one round.
    fn edge<C: Catalog + ?Sized>(
        &mut self,
        workers: &mut [ShardWorker<'_, C>],
        up: &mut [bool],
        map: &mut ElasticShardMap,
    ) {
        let (boundary, edge_up, shard) = self.edges[self.edges_done];
        self.edges_done += 1;
        let dead = shard as usize;
        self.log.transitions.push(ShardTransition {
            shard,
            at: boundary,
            up: edge_up,
            queued: workers[dead].driver.core().total_queued(),
        });
        // The mask reads the shard's windows, not the edge: where one outage
        // ends as the next begins, the shard stays down.
        up[dead] = !workers[dead].driver.down_at(boundary);
        if edge_up || !self.failover || !up.iter().any(|&u| u) {
            return;
        }
        // Evacuate the dead shard: every non-empty bucket, in bucket order,
        // to the least-loaded survivor (working loads update as buckets are
        // placed; ties → lower shard id). The extract/absorb instant never
        // predates the dead shard's final atomic batch.
        let mut working: Vec<u64> = workers
            .iter()
            .map(|w| w.driver.core().total_queued())
            .collect();
        let transfers = workers[dead]
            .bucket_depths()
            .into_iter()
            .map(|(bucket, entries)| {
                let to = (0..up.len())
                    .filter(|&j| up[j])
                    .min_by_key(|&j| (working[j], j))
                    .expect("a live survivor exists");
                working[to] += entries;
                Migration {
                    bucket,
                    from: ShardId(shard),
                    to: ShardId(to as u32),
                    entries,
                }
            })
            .collect();
        let round = Round {
            at: workers[dead].driver.now().max(boundary),
            transfers,
        };
        let was_resident = transfer(workers, &round);
        for (m, was_resident) in round.transfers.iter().zip(was_resident) {
            self.log.evacuations.push(Evacuation {
                boundary,
                at: round.at,
                bucket: m.bucket,
                from: shard,
                to: m.to.0,
                entries: m.entries,
                was_resident,
            });
            map.reassign(m.bucket, m.to);
        }
    }

    /// Intercepts what a routing handed off at `at` delivers into an outage,
    /// in routing order (query, then shard). Both rules read the outage
    /// windows the drivers [wake](liferaft_sim::Driver::down_at) out of,
    /// which the live mask follows edge by edge. A work-bearing fragment is
    /// judged at its resolved release: released inside a window, it is lost
    /// in flight and queues its first re-delivery one detection timeout
    /// after that release (a door-held query's admission, a delayed fragment's
    /// delivery). A query the transport already rejected (`moot`) is
    /// rejected once: its loss queues nothing. A zero-work marker has
    /// nothing to lose, but its arrival notification should reach a live
    /// scheduler: from a shard down at `at` it retargets to the lowest-id
    /// shard up then (with no shard up at all it rides out the outage where
    /// it is — it completes at its arrival either way).
    fn intercept<C: Catalog + ?Sized>(
        &mut self,
        workers: &[ShardWorker<'_, C>],
        at: SimTime,
        moot: impl Fn(usize) -> bool,
        window: &mut [Vec<Fragment>],
    ) {
        let mut lost: Vec<(usize, u32, Fragment)> = Vec::new();
        for (shard, w) in workers.iter().enumerate() {
            let (work, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut window[shard])
                .into_iter()
                .partition(|f| !f.items.is_empty() && w.driver.down_at(f.release));
            window[shard] = kept;
            let work = work.into_iter().filter(|f| !moot(f.query_index));
            lost.extend(work.map(|f| (f.query_index, shard as u32, f)));
        }
        let live = workers.iter().position(|w| !w.driver.down_at(at));
        for dead in (0..workers.len()).filter(|&s| workers[s].driver.down_at(at)) {
            let (markers, work): (Vec<_>, Vec<_>) = std::mem::take(&mut window[dead])
                .into_iter()
                .partition(|f| f.items.is_empty());
            window[dead] = work;
            let to = live.unwrap_or(dead);
            window[to].extend(markers);
            window[to].sort_by_key(|f| f.query_index);
        }
        lost.sort_by_key(|&(query_index, from, _)| (query_index, from));
        for (_, from, fragment) in lost {
            let seq = self.next_seq;
            self.next_seq += 1;
            let deadline = REDELIVERY.deadline_after(fragment.release, 0);
            self.retries.push(Reverse((deadline, seq)));
            let chain = Chain {
                from,
                attempt: 0,
                fragment,
            };
            self.chains.insert(seq, chain);
        }
    }

    /// Runs the earliest pending re-delivery attempt.
    fn redeliver<C: Catalog + ?Sized>(
        &mut self,
        workers: &mut [ShardWorker<'_, C>],
        up: &[bool],
        total_fragments: &mut usize,
    ) {
        let Reverse((at, seq)) = self.retries.pop().expect("a retry event must exist");
        if self.rejected[self.chains[&seq].fragment.query_index] {
            // A sibling chain already rejected this query terminally — the
            // pending attempt is moot and goes unlogged.
            self.chains.remove(&seq);
            return;
        }
        let chain = self
            .chains
            .get_mut(&seq)
            .expect("a chain outlives its retries");
        chain.attempt += 1;
        let (query_index, attempt) = (chain.fragment.query_index, chain.attempt);
        let dest = (0..up.len())
            .filter(|&j| up[j])
            .min_by_key(|&j| (workers[j].driver.core().total_queued(), j));
        self.log.redeliveries.push(Redelivery {
            at,
            seq,
            query_index,
            from: chain.from,
            attempt,
            to: dest.map(|d| d as u32),
        });
        match dest {
            Some(d) => {
                // Landed: re-release the whole fragment on the survivor.
                let c = self.chains.remove(&seq).expect("chain present");
                *total_fragments += 1;
                workers[d].append_fragments(vec![Fragment {
                    release: at,
                    ..c.fragment
                }]);
            }
            None if attempt >= REDELIVERY.max_attempts => {
                // Out of attempts with nothing up: terminal rejection.
                self.rejected[query_index] = true;
                self.chains.remove(&seq);
            }
            None => {
                // Nothing up: exponential backoff, then try again.
                self.retries
                    .push(Reverse((REDELIVERY.deadline_after(at, attempt), seq)));
            }
        }
    }

    fn into_log(self) -> FailoverLog {
        debug_assert_eq!(
            self.log.rejections().count(),
            self.rejected.iter().filter(|&&r| r).count(),
            "log-derived rejections must match the planner's"
        );
        self.log
    }
}

/// The worker with the earliest next event, ties to the lowest shard id.
fn earliest<C: Catalog + ?Sized>(workers: &[ShardWorker<'_, C>]) -> Option<(SimTime, usize)> {
    let next = workers.iter().enumerate();
    next.filter_map(|(i, w)| Some((w.driver.next_time()?, i)))
        .min()
}

/// The pool executor, one loop for every run — conservative windowed
/// execution. Each window routes every arrival before the next control
/// instant, advances every worker while its next event is strictly earlier
/// than that instant, then fires the instant's handlers in [`Source`]
/// order. With no handler plugged in, the first window reaches the end of
/// the trace.
///
/// The front door reads capacity before every shard step, so a door-on
/// window is one step of the earliest worker on the calling thread, after a
/// pass at its instant (what the pass admits is due now, maybe on a lower
/// shard).
fn execute<C: Catalog + Sync + ?Sized>(
    workers: &mut [ShardWorker<'_, C>],
    ctl: &mut Controllers<'_>,
    mode: ExecMode,
) {
    loop {
        let until = ctl.route_window(workers).map(|(t, _)| t);
        if ctl.door.is_none() {
            advance(workers, until, mode);
        } else if let Some((wt, _)) =
            earliest(workers).filter(|&(wt, _)| until.map_or(true, |t| wt < t))
        {
            ctl.door_pass(workers, wt);
            let (_, i) = earliest(workers).expect("admission removes no event");
            let w = &mut workers[i];
            let advanced = w.driver.step(w.scheduler.as_mut());
            debug_assert!(advanced, "a shard with a next event must advance");
            continue;
        }
        let Some((t, source)) = ctl.next_event(workers) else {
            break;
        };
        ctl.fire(workers, t, source);
    }
}

/// Advances every worker while its next event is strictly earlier than
/// `until` (`None`: to the end of its stream): in a plain loop when
/// stepped, on one scoped thread per worker with work in the window when
/// threaded. Workers share nothing inside a window, so both orders compute
/// the same states.
fn advance<C: Catalog + Sync + ?Sized>(
    workers: &mut [ShardWorker<'_, C>],
    until: Option<SimTime>,
    mode: ExecMode,
) {
    let run = move |w: &mut ShardWorker<'_, C>| w.driver.advance_until(until, w.scheduler.as_mut());
    match mode {
        ExecMode::Stepped => {
            for i in window_order(workers.len()) {
                run(&mut workers[i]);
            }
        }
        ExecMode::Threaded => std::thread::scope(|scope| {
            let due = workers.iter_mut().filter(|w| w.driver.due_before(until));
            let running: Vec<_> = due.map(|w| scope.spawn(move || run(w))).collect();
            // A worker's panic fails the run with its own message.
            if let Some(panic) = running.into_iter().find_map(|w| w.join().err()) {
                std::panic::resume_unwind(panic);
            }
        }),
    }
}

/// The order a stepped window advances its `n` workers in: index order
/// (unit tests permute it: `tests::window_order`).
#[cfg(not(test))]
fn window_order(n: usize) -> std::ops::Range<usize> {
    0..n
}

#[cfg(test)]
use tests::window_order;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardAssignment;
    use liferaft_catalog::{generate::uniform_sky, MaterializedCatalog};
    use liferaft_core::{
        BatchSpec, DecisionStats, LifeRaftScheduler, NoShareScheduler, SchedulerView,
    };
    use liferaft_query::{CrossMatchQuery, Predicate, QueryPreProcessor};
    use liferaft_sim::SimConfig;
    use liferaft_storage::CostModel;
    use liferaft_workload::arrivals::uniform_arrivals;
    use liferaft_workload::Trace;
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    const LEVEL: u8 = 8;

    thread_local! {
        /// This thread's window permutation: the xorshift state (`None`:
        /// index order) and how many windows it has reordered.
        static WINDOW_ORDER: Cell<(Option<u64>, usize)> = const { Cell::new((None, 0)) };
    }

    /// The stepped window order under test: index order, or a fresh seeded
    /// shuffle per window while [`WINDOW_ORDER`] holds a state.
    pub(super) fn window_order(n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let (Some(mut x), reordered) = WINDOW_ORDER.get() else {
            return order;
        };
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let moved = order.iter().enumerate().any(|(i, &w)| i != w);
        WINDOW_ORDER.set((Some(x), reordered + usize::from(moved)));
        order
    }

    fn fixture(n_queries: usize, rate_qps: f64) -> (MaterializedCatalog, TimedTrace) {
        let sky = uniform_sky(2_000, LEVEL, 5);
        let cat = MaterializedCatalog::build(&sky, LEVEL, 100, 4096);
        // Queries anchor on objects of several scattered buckets so that
        // multi-shard maps split them into cross-shard fragments.
        let queries: Vec<CrossMatchQuery> = (0..n_queries)
            .map(|i| {
                let mut positions = Vec::new();
                for k in 0..4u32 {
                    let b = (i as u32 * 3 + k * 7) % 20;
                    let objs = cat.bucket_objects(liferaft_storage::BucketId(b));
                    positions.extend(objs.iter().step_by(20).map(|o| o.pos));
                }
                CrossMatchQuery::from_positions(
                    QueryId(i as u64),
                    &positions,
                    1e-4,
                    LEVEL,
                    Predicate::All,
                )
            })
            .collect();
        let trace = Trace::new(LEVEL, queries);
        let timed = trace.with_arrivals(uniform_arrivals(rate_qps, n_queries));
        (cat, timed)
    }

    fn greedy() -> Box<dyn Scheduler + Send> {
        Box::new(LifeRaftScheduler::greedy(CostModel::paper()))
    }

    /// [`fixture`]'s catalog: 20 buckets of 100 objects, so two contiguous
    /// shards own buckets 0..10 and 10..20.
    fn bucket_catalog() -> MaterializedCatalog {
        MaterializedCatalog::build(&uniform_sky(2_000, LEVEL, 5), LEVEL, 100, 4096)
    }

    /// Query `id` over every object of `buckets`.
    fn span_query(
        cat: &MaterializedCatalog,
        id: u64,
        buckets: std::ops::Range<u32>,
    ) -> CrossMatchQuery {
        let positions: Vec<_> = buckets
            .flat_map(|b| {
                cat.bucket_objects(liferaft_storage::BucketId(b))
                    .into_owned()
            })
            .map(|o| o.pos)
            .collect();
        CrossMatchQuery::from_positions(QueryId(id), &positions, 1e-4, LEVEL, Predicate::All)
    }

    /// A clean `ToShard` window on `shard` over `[from, until)` that holds
    /// every send `delay` in flight.
    fn delaying_link(
        shard: u32,
        from: SimTime,
        until: SimTime,
        delay: liferaft_storage::SimDuration,
    ) -> liferaft_sim::LinkFault {
        use liferaft_storage::SimDuration;
        liferaft_sim::LinkFault {
            shard,
            direction: liferaft_sim::LinkDirection::ToShard,
            from,
            until,
            drop_prob: 0.0,
            delay,
            delay_per_entry: SimDuration::ZERO,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
        }
    }

    #[test]
    fn both_modes_complete_all_queries_and_agree() {
        let (cat, timed) = fixture(12, 0.5);
        for assignment in [
            ShardAssignment::Contiguous,
            ShardAssignment::Hashed { seed: 3 },
        ] {
            let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
            config.assignment = assignment;
            let rt = ShardedRuntime::new(&cat, config);
            let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
            let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
            assert_eq!(stepped.global.queries, 12);
            assert_eq!(stepped.global.outcomes.len(), 12);
            assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
            assert_eq!(stepped.global.batches, threaded.global.batches);
            assert_eq!(stepped.global.io, threaded.global.io);
            assert_eq!(stepped.global.cache, threaded.global.cache);
            assert_eq!(stepped.shards.len(), 4);
            for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
                assert_eq!(a.report.outcomes, b.report.outcomes);
            }
        }
    }

    #[test]
    fn cross_shard_queries_complete_at_their_last_fragment() {
        let (cat, timed) = fixture(10, 0.5);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.assignment = ShardAssignment::Hashed { seed: 1 };
        let rt = ShardedRuntime::new(&cat, config);
        let report = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        assert!(report.cross_shard_queries > 0, "fixture must split queries");
        // Each query's global completion is the max over its fragments.
        for o in &report.global.outcomes {
            let frag_max = report
                .shards
                .iter()
                .flat_map(|s| s.report.outcomes.iter())
                .filter(|f| f.query == o.query)
                .map(|f| f.completion)
                .max()
                .expect("query has fragments");
            assert_eq!(o.completion, frag_max, "query {}", o.query);
            assert!(o.completion >= o.arrival);
        }
        // Conservation: fragment assignments sum to query assignments.
        let frag_total: u64 = report
            .shards
            .iter()
            .map(|s| s.report.serviced_entries)
            .sum();
        assert_eq!(frag_total, report.global.serviced_entries);
    }

    #[test]
    fn noshare_runs_sharded() {
        let (cat, timed) = fixture(8, 0.5);
        let rt = ShardedRuntime::new(&cat, RuntimeConfig::contiguous(SimConfig::paper(), 2));
        let report = rt.run(
            &timed,
            &mut |_| Box::new(NoShareScheduler::new()),
            ExecMode::Threaded,
        );
        assert_eq!(report.global.outcomes.len(), 8);
        assert_eq!(report.global.scheduler, "Sharded[2×NoShare]");
        assert!(report.shard_imbalance() >= 1.0);
    }

    #[test]
    fn zero_work_queries_complete_at_arrival_in_both_modes() {
        let (cat, timed) = fixture(6, 0.5);
        // Splice a workless query into the trace.
        let mut queries: Vec<CrossMatchQuery> =
            timed.entries().iter().map(|(_, q)| q.clone()).collect();
        queries.insert(3, CrossMatchQuery::new(QueryId(99), vec![], Predicate::All));
        let timed = Trace::new(LEVEL, queries).with_arrivals(uniform_arrivals(0.5, 7));
        let rt = ShardedRuntime::new(&cat, RuntimeConfig::contiguous(SimConfig::paper(), 4));
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let report = rt.run(&timed, &mut |_| greedy(), mode);
            assert_eq!(report.global.outcomes.len(), 7);
            let o = report
                .global
                .outcomes
                .iter()
                .find(|o| o.query == QueryId(99))
                .expect("workless query completes");
            assert_eq!(o.completion, o.arrival);
            assert_eq!(o.assignments, 0);
        }
        // At 1 shard the runtime reproduces the single engine exactly —
        // including the zero-work corner: same outcome values in the same
        // (push) order, because the aggregation merges by shard clock.
        let mut s = LifeRaftScheduler::greedy(CostModel::paper());
        let reference = liferaft_sim::Simulation::new(&cat, SimConfig::paper()).run(&timed, &mut s);
        let single = ShardedRuntime::new(&cat, RuntimeConfig::single(SimConfig::paper()));
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let sharded = single.run(&timed, &mut |_| greedy(), mode);
            assert_eq!(reference.outcomes, sharded.global.outcomes, "{mode:?}");
            assert_eq!(reference.batches, sharded.global.batches);
            assert_eq!(reference.io, sharded.global.io);
        }
    }

    #[test]
    fn elastic_modes_agree_and_disabled_matches_static() {
        use crate::config::RebalanceConfig;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(24, 2.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.rebalance = RebalanceConfig::every(SimDuration::from_secs(5));
        config.rebalance.min_imbalance = 1.05;
        let rt = ShardedRuntime::new(&cat, config.clone());
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.global.batches, threaded.global.batches);
        assert_eq!(stepped.global.io, threaded.global.io);
        assert_eq!(stepped.global.cache, threaded.global.cache);
        assert_eq!(stepped.rebalance, threaded.rebalance);
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            assert_eq!(a.report.outcomes, b.report.outcomes);
        }
        let log = stepped.rebalance.as_ref().expect("elastic runs keep a log");
        assert!(!log.records.is_empty(), "boundaries must have fired");
        // Disabled rebalancing reproduces the static runtime bit-for-bit.
        let mut off = config.clone();
        off.rebalance = RebalanceConfig::disabled();
        let rt_off = ShardedRuntime::new(&cat, off);
        let static_run = rt_off.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        assert!(static_run.rebalance.is_none());
        // And an enabled-but-never-triggering policy is behaviour-neutral.
        let mut never = config.clone();
        never.rebalance.min_imbalance = 1e12;
        let rt_never = ShardedRuntime::new(&cat, never);
        let neutral = rt_never.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        assert_eq!(neutral.global.outcomes, static_run.global.outcomes);
        assert_eq!(neutral.global.batches, static_run.global.batches);
        assert_eq!(neutral.global.io, static_run.global.io);
        assert_eq!(
            neutral.rebalance.as_ref().map(RebalanceLog::total_moves),
            Some(0)
        );
    }

    #[test]
    fn elastic_migrations_move_work_and_conserve_everything() {
        use crate::config::RebalanceConfig;
        use liferaft_storage::SimDuration;
        // A hot fixture: all queries anchor on shard 0's five buckets, so it
        // soaks up the whole load until rebalancing spreads it. Spreading the
        // anchors over several buckets matters: the planner refuses a move
        // that would relocate the entire backlog (it must narrow the gap),
        // so a single-bucket hotspot is deliberately immovable.
        let sky = liferaft_catalog::generate::uniform_sky(2_000, LEVEL, 5);
        let cat = MaterializedCatalog::build(&sky, LEVEL, 100, 4096);
        let queries: Vec<CrossMatchQuery> = (0..30)
            .map(|i| {
                let objs = cat.bucket_objects(liferaft_storage::BucketId((i % 5) as u32));
                let positions: Vec<_> = objs.iter().step_by(4).map(|o| o.pos).collect();
                CrossMatchQuery::from_positions(
                    QueryId(i as u64),
                    &positions,
                    1e-4,
                    LEVEL,
                    Predicate::All,
                )
            })
            .collect();
        let timed = Trace::new(LEVEL, queries).with_arrivals(uniform_arrivals(20.0, 30));
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.rebalance = RebalanceConfig::every(SimDuration::from_millis(500));
        config.rebalance.min_imbalance = 1.1;
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        let log = stepped.rebalance.as_ref().unwrap();
        assert!(log.total_moves() > 0, "hotspot must trigger migrations");
        assert!(log.moved_entries() > 0);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.rebalance, threaded.rebalance);
        // Conservation survives migration: every assignment serviced once.
        assert_eq!(stepped.global.outcomes.len(), 30);
        let serviced: u64 = stepped
            .shards
            .iter()
            .map(|s| s.report.serviced_entries)
            .sum();
        assert_eq!(serviced, stepped.global.serviced_entries);
        // Work actually left the hot shard: more than one shard serviced.
        let busy = stepped
            .shards
            .iter()
            .filter(|s| s.report.serviced_entries > 0)
            .count();
        assert!(busy > 1, "migration must spread service across shards");
    }

    #[test]
    fn front_door_modes_agree_and_conserve_accounting() {
        use crate::admission::FrontDoorConfig;
        let (cat, timed) = fixture(20, 5.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        // Fixture queries route to ~20 assignments each; a 60-assignment
        // global bound holds at most three in flight, and the 20/21 class
        // split exercises priority ordering between two classes.
        let mut fd = FrontDoorConfig::bounded(60);
        fd.interactive_max_assignments = 20;
        fd.batch_min_assignments = 300;
        fd.max_waiting_assignments = Some(1_500);
        config.front_door = fd;
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.global.batches, threaded.global.batches);
        assert_eq!(stepped.global.io, threaded.global.io);
        assert_eq!(stepped.global.cache, threaded.global.cache);
        assert_eq!(stepped.front_door, threaded.front_door);
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            assert_eq!(a.report.outcomes, b.report.outcomes);
        }
        let fd_report = stepped.front_door.as_ref().expect("front-door runs report");
        // Exactly-once terminal accounting: completed + rejected = trace.
        assert_eq!(
            stepped.global.outcomes.len() + fd_report.rejected.len(),
            timed.len()
        );
        let submitted: u64 = stepped.per_class.iter().map(|c| c.submitted).sum();
        assert_eq!(submitted, timed.len() as u64);
        // A tight global bound on a 5 qps burst must actually defer work.
        let deferred: u64 = fd_report.per_class.iter().map(|c| c.deferred).sum();
        assert!(deferred > 0, "a tight bound must defer some queries");
    }

    #[test]
    fn unbounded_front_door_is_behaviour_neutral() {
        use crate::admission::FrontDoorConfig;
        use crate::config::RebalanceConfig;
        use crate::failover::FailoverConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(24, 8.0);
        let base = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        let mut rebalance = base.clone();
        rebalance.rebalance = RebalanceConfig::every(SimDuration::from_secs(2));
        rebalance.rebalance.min_imbalance = 1.05;
        let mut crash = base.clone();
        crash.failover = FailoverConfig::recovery();
        crash.faults.outages.push(ShardOutage {
            shard: 0,
            down_at: SimTime::ZERO + SimDuration::from_secs(1),
            up_at: SimTime::ZERO + SimDuration::from_secs(6),
        });
        for (name, config) in [("static", base), ("rebalance", rebalance), ("crash", crash)] {
            let off = ShardedRuntime::new(&cat, config.clone());
            let baseline = off.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
            // Enabled but with no binding limit: every query admits at its
            // arrival instant, under the map and up-mask a routed window
            // would see, reproducing the door-off runtime bit-for-bit.
            let mut door = config;
            door.front_door = FrontDoorConfig::bounded(u64::MAX);
            let on = ShardedRuntime::new(&cat, door);
            for mode in [ExecMode::Stepped, ExecMode::Threaded] {
                let report = on.run(&timed, &mut |_| greedy(), mode);
                let case = format!("{name}, {mode:?}");
                assert_eq!(report.global.outcomes, baseline.global.outcomes, "{case}");
                assert_eq!(report.global.batches, baseline.global.batches, "{case}");
                assert_eq!(report.global.io, baseline.global.io, "{case}");
                assert_eq!(report.failover, baseline.failover, "{case}");
                let fd = report.front_door.expect("enabled door reports");
                assert!(fd.rejected.is_empty());
                assert_eq!(fd.log.total_shed_events(), 0);
            }
        }
    }

    #[test]
    fn the_door_books_admitted_queries_that_failover_rejects() {
        use crate::admission::FrontDoorConfig;
        use crate::failover::FailoverConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        // The only shard is dead for the whole run: every fragment is lost,
        // so none is ever charged and a one-assignment bound admits every
        // query at its arrival; every re-delivery then finds no live shard.
        let (cat, timed) = fixture(6, 1.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 1);
        config.front_door = FrontDoorConfig::bounded(1);
        config.failover = FailoverConfig::recovery();
        config.faults.outages.push(ShardOutage {
            shard: 0,
            down_at: SimTime::ZERO,
            up_at: SimTime::ZERO + SimDuration::from_secs(100_000),
        });
        let report =
            ShardedRuntime::new(&cat, config).run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let fd = report.front_door.as_ref().expect("door reports");
        let fo = report.failover.as_ref().expect("failover reports");
        assert!(report.global.outcomes.is_empty());
        assert!(fd.rejected.is_empty(), "the door turned nobody away");
        assert_eq!(fo.rejected.len(), timed.len());
        for (c, books) in fd.per_class.iter().zip(&report.per_class) {
            assert_eq!(c.admitted, books.submitted, "{:?}", c.class);
            assert_eq!(c.deferred, 0, "{:?}: nothing was ever held", c.class);
            assert_eq!(
                books.rejected, books.submitted,
                "{:?}: failover's count",
                c.class
            );
            assert_eq!(c.response.count(), 0, "{:?}: no completion", c.class);
        }
    }

    #[test]
    fn a_door_held_query_lost_to_a_dead_shard_redelivers_from_its_admission() {
        use crate::admission::{Disposition, FrontDoorConfig};
        use crate::failover::FailoverConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        // Two contiguous shards over 20 buckets: query 0 fills shard 1,
        // query 1 lives on shard 0, which dies before the door lets it in.
        let cat = bucket_catalog();
        let arrivals = vec![SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(100)];
        let queries = vec![span_query(&cat, 0, 10..16), span_query(&cat, 1, 0..1)];
        let timed = Trace::new(LEVEL, queries).with_arrivals(arrivals);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        config.front_door = FrontDoorConfig::bounded(1);
        config.failover = FailoverConfig::recovery();
        let down_at = SimTime::ZERO + SimDuration::from_millis(500);
        config.faults.outages.push(ShardOutage {
            shard: 0,
            down_at,
            up_at: SimTime::ZERO + SimDuration::from_secs(1_000),
        });
        let rt = ShardedRuntime::new(&cat, config);
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let report = rt.run(&timed, &mut |_| greedy(), mode);
            let fd = report.front_door.as_ref().expect("door reports");
            let Disposition::Admitted { at: admitted, .. } = fd.log.verdicts[1].decision else {
                panic!("query 1 must be admitted");
            };
            assert!(
                admitted > down_at,
                "{mode:?}: the door must hold query 1 past the crash"
            );
            let fo = report.failover.as_ref().expect("failover reports");
            let [redelivery] = &fo.log.redeliveries[..] else {
                panic!("{mode:?}: one lost fragment, one re-delivery");
            };
            assert_eq!(redelivery.query_index, 1);
            assert_eq!(redelivery.to, Some(1), "the survivor takes it");
            let timeout = REDELIVERY.deadline_after(admitted, 0);
            assert_eq!(redelivery.at, timeout, "{mode:?}: counted from admission");
            assert_eq!(report.global.outcomes.len(), 2);
        }
    }

    /// A `ToShard` delay that carries a fragment past its shard's down edge
    /// loses it to the outage at its release: failover re-delivers it one
    /// detection timeout later, long before the shard rejoins.
    #[test]
    fn a_fragment_delayed_into_an_outage_is_lost_at_its_release() {
        use crate::failover::FailoverConfig;
        use crate::transport::TransportConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        let ms = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        // One query on shard 1, sent at 0 while the shard is up, delivered
        // 800 ms later, after the shard died at 500 ms.
        let cat = bucket_catalog();
        let timed = Trace::new(LEVEL, vec![span_query(&cat, 0, 10..13)]).with_arrivals(vec![ms(0)]);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        config.transport = TransportConfig::reliable();
        config.failover = FailoverConfig::recovery();
        let delay = SimDuration::from_millis(800);
        config.faults.links = vec![delaying_link(1, ms(0), ms(100), delay)];
        let up_at = ms(1_000_000);
        config.faults.outages.push(ShardOutage {
            shard: 1,
            down_at: ms(500),
            up_at,
        });
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.failover, threaded.failover);
        assert_eq!(stepped.transport, threaded.transport);
        let fo = stepped.failover.as_ref().expect("failover reports");
        let [redelivery] = &fo.log.redeliveries[..] else {
            panic!("one lost fragment, one re-delivery");
        };
        assert_eq!((redelivery.from, redelivery.to), (1, Some(0)));
        let timeout = REDELIVERY.deadline_after(ms(800), 0);
        assert_eq!(redelivery.at, timeout, "counted from the release");
        let [done] = &stepped.global.outcomes[..] else {
            panic!("the query completes");
        };
        assert!(
            done.completion < up_at,
            "served by the survivor at {}, not after the rejoin",
            done.completion
        );
        assert!(stepped.shards[1].report.outcomes.is_empty());
    }

    /// A fragment delayed across the epoch that moved one of its buckets is
    /// served where it lands: by the shard it was sent to.
    #[test]
    fn a_fragment_delayed_across_a_bucket_move_is_served_where_it_lands() {
        use crate::config::RebalanceConfig;
        use crate::transport::TransportConfig;
        use liferaft_storage::SimDuration;
        let ms = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        // Shard 0 starts with a backlog on buckets 0..3 while shard 1 idles,
        // so the first epoch (1 s) moves one of them over. Query 8 spans all
        // three; its send at 500 ms is held 700 ms in flight, past the epoch.
        let cat = bucket_catalog();
        let mut queries: Vec<_> = (0..8u32)
            .map(|i| span_query(&cat, u64::from(i), i % 3..i % 3 + 1))
            .collect();
        queries.push(span_query(&cat, 8, 0..3));
        let mut arrivals = vec![ms(0); 8];
        arrivals.push(ms(500));
        let timed = Trace::new(LEVEL, queries).with_arrivals(arrivals);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        config.rebalance = RebalanceConfig::every(SimDuration::from_secs(1));
        config.transport = TransportConfig::reliable();
        let delay = SimDuration::from_millis(700);
        config.faults.links = vec![delaying_link(0, ms(500), ms(501), delay)];
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.rebalance, threaded.rebalance);
        assert_eq!(stepped.transport, threaded.transport);
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            assert_eq!(a.report.outcomes, b.report.outcomes);
        }
        // The epoch before the delivery moved a bucket of query 8 off shard 0.
        let log = stepped.rebalance.as_ref().expect("elastic runs keep a log");
        let first = &log.records[0];
        assert_eq!(first.at, ms(1_000));
        assert!(
            first.moves.iter().any(|m| m.bucket.0 < 3 && m.from.0 == 0),
            "the first epoch must move a bucket of query 8: {:?}",
            first.moves
        );
        // The delivery still lands on shard 0, which serves all of it.
        let on = |shard: usize| {
            stepped.shards[shard]
                .report
                .outcomes
                .iter()
                .any(|o| o.query == QueryId(8))
        };
        assert!(on(0) && !on(1), "query 8 completes on the sending shard");
        // Conservation: every query once, every routed assignment serviced.
        assert_eq!(stepped.global.outcomes.len(), timed.len());
        let pre = QueryPreProcessor::new(cat.partition());
        let routed: u64 = timed
            .entries()
            .iter()
            .flat_map(|(_, q)| pre.preprocess(q))
            .map(|item| item.len() as u64)
            .sum();
        assert_eq!(stepped.global.serviced_entries, routed);
    }

    /// A query rejected once stays rejected once: when the transport gives
    /// up on one fragment, a sibling lost to an outage queues no re-delivery
    /// chain that failover could later reject it with again.
    #[test]
    fn a_query_the_transport_rejects_is_not_rejected_again_by_failover() {
        use crate::failover::FailoverConfig;
        use crate::transport::TransportConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        let s = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        // Both shards are down for a minute, longer than failover's whole
        // retry budget, and every send to shard 0 is dropped.
        let cat = bucket_catalog();
        let timed = Trace::new(LEVEL, vec![span_query(&cat, 0, 8..12)]).with_arrivals(vec![s(0)]);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        config.transport = TransportConfig::reliable();
        config.failover = FailoverConfig::recovery();
        let mut black_hole = delaying_link(0, s(0), s(60), SimDuration::ZERO);
        black_hole.drop_prob = 1.0;
        config.faults.links = vec![black_hole];
        for shard in 0..2 {
            config.faults.outages.push(ShardOutage {
                shard,
                down_at: s(0),
                up_at: s(60),
            });
        }
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.failover, threaded.failover);
        assert_eq!(stepped.transport, threaded.transport);
        let tp = stepped.transport.as_ref().expect("transport reports");
        let fo = stepped.failover.as_ref().expect("failover reports");
        assert_eq!(tp.rejected.len(), 1, "the black hole rejects the query");
        assert!(fo.rejected.is_empty(), "failover must not reject it again");
        assert!(fo.log.redeliveries.is_empty(), "the lost sibling is moot");
        assert!(stepped.global.outcomes.is_empty());
    }

    /// Back-to-back outages keep a shard down at the instant one ends and
    /// the next begins: the live mask reads the windows, so a fragment lost
    /// in the second outage is re-delivered to the survivor, never back onto
    /// the dead shard however short its queue.
    #[test]
    fn back_to_back_outages_keep_the_shard_down() {
        use crate::failover::FailoverConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        let ms = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        // Shard 1 is down over [5 s, 9 s) and [9 s, 30 s). Query 0 reaches it
        // at 10 s and is lost; queries 1..=4 give shard 0 a backlog, so only
        // a mask that wrongly reads shard 1 up would pick it at 12 s.
        let cat = bucket_catalog();
        let mut queries = vec![span_query(&cat, 0, 10..12)];
        queries.extend((1..=4).map(|i| span_query(&cat, i, 0..10)));
        let mut arrivals = vec![ms(10_000)];
        arrivals.extend([ms(11_900); 4]);
        let timed = Trace::new(LEVEL, queries).with_arrivals(arrivals);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        config.failover = FailoverConfig::recovery();
        for (down_at, up_at) in [(ms(5_000), ms(9_000)), (ms(9_000), ms(30_000))] {
            config.faults.outages.push(ShardOutage {
                shard: 1,
                down_at,
                up_at,
            });
        }
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.failover, threaded.failover);
        let fo = stepped.failover.as_ref().expect("failover reports");
        assert_eq!(fo.log.transitions.len(), 4, "two outages, four edges");
        let [redelivery] = &fo.log.redeliveries[..] else {
            panic!("one lost fragment, one re-delivery");
        };
        assert_eq!(redelivery.query_index, 0);
        let timeout = REDELIVERY.deadline_after(ms(10_000), 0);
        assert_eq!(redelivery.at, timeout);
        assert_eq!(redelivery.to, Some(0), "the survivor takes it");
        assert_eq!(stepped.global.outcomes.len(), timed.len());
        assert!(stepped.shards[1].report.outcomes.is_empty());
    }

    #[test]
    fn injected_stall_slows_its_shard_deterministically() {
        use liferaft_sim::ShardSlowdown;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(16, 2.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        let baseline_rt = ShardedRuntime::new(&cat, config.clone());
        let baseline = baseline_rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        config.faults.stalls.push(ShardSlowdown {
            shard: 0,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(1_000_000),
            factor: 8.0,
        });
        let rt = ShardedRuntime::new(&cat, config);
        let stalled = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let stalled_threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stalled.global.outcomes, stalled_threaded.global.outcomes);
        assert_eq!(stalled.global.batches, stalled_threaded.global.batches);
        // The stalled shard finishes strictly later than before; the other
        // shard's behaviour is untouched (faults are pure per-shard state).
        assert!(
            stalled.shards[0].report.makespan_s > baseline.shards[0].report.makespan_s,
            "an 8× stall must stretch the afflicted shard's makespan"
        );
        assert_eq!(
            stalled.shards[1].report.outcomes,
            baseline.shards[1].report.outcomes
        );
    }

    #[test]
    fn crash_failover_modes_agree_and_conserve_everything() {
        use crate::failover::FailoverConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        // A fast trace so every shard carries a backlog when shard 0 dies.
        let (cat, timed) = fixture(24, 8.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.failover = FailoverConfig::recovery();
        config.faults.outages.push(ShardOutage {
            shard: 0,
            down_at: SimTime::ZERO + SimDuration::from_secs(1),
            up_at: SimTime::ZERO + SimDuration::from_secs(6),
        });
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.global.batches, threaded.global.batches);
        assert_eq!(stepped.global.io, threaded.global.io);
        assert_eq!(stepped.global.cache, threaded.global.cache);
        assert_eq!(stepped.failover, threaded.failover);
        assert_eq!(stepped.rebalance, threaded.rebalance);
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            assert_eq!(a.report.outcomes, b.report.outcomes);
        }
        // The crash moved real work and every query stayed terminal.
        let fo = stepped.failover.as_ref().expect("failover runs report");
        assert_eq!(fo.log.transitions.len(), 2);
        assert!(
            fo.log.evacuated_entries() > 0,
            "the dead shard's backlog must evacuate"
        );
        assert!(
            fo.log.delivered_redeliveries() > 0,
            "fragments lost in flight must be re-delivered"
        );
        assert!(fo.recovery_lag.is_some());
        assert_eq!(
            stepped.global.outcomes.len() + fo.rejected.len(),
            timed.len(),
            "completed + rejected must equal submitted"
        );
        for c in &stepped.per_class {
            assert_eq!(c.completed + c.rejected, c.submitted, "{:?}", c.class);
        }
        // Conservation of service across the evacuation.
        let serviced: u64 = stepped
            .shards
            .iter()
            .map(|s| s.report.serviced_entries)
            .sum();
        assert_eq!(serviced, stepped.global.serviced_entries);
    }

    #[test]
    fn disabled_failover_strands_the_dead_shards_work() {
        use crate::failover::FailoverConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(24, 8.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.faults.outages.push(ShardOutage {
            shard: 0,
            down_at: SimTime::ZERO + SimDuration::from_secs(1),
            up_at: SimTime::ZERO + SimDuration::from_secs(40),
        });
        let off_rt = ShardedRuntime::new(&cat, config.clone());
        let off_stepped = off_rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let off_threaded = off_rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(off_stepped.global.outcomes, off_threaded.global.outcomes);
        assert_eq!(off_stepped.failover, off_threaded.failover);
        // Nothing recovers: no evacuations, no re-deliveries — the stranded
        // work waits for the rejoin, so every query still completes, late.
        let fo = off_stepped.failover.as_ref().expect("outages report");
        assert!(fo.log.evacuations.is_empty());
        assert!(fo.log.redeliveries.is_empty());
        // A dead shard executes nothing, not even at its rejoin instant
        // before the up edge fires: the edge sees the backlog the crash left.
        let [down, up] = &fo.log.transitions[..] else {
            panic!("one outage makes two transitions")
        };
        assert!(down.queued > 0, "the crash must strand a backlog");
        assert_eq!(up.queued, down.queued);
        assert_eq!(off_stepped.global.outcomes.len(), timed.len());
        assert!(
            off_stepped.shards[0].report.makespan_s > 39.0,
            "stranded work must wait out the 39 s outage"
        );
        // Recovery beats riding it out: the failover run finishes far
        // earlier than the stranded one.
        let mut on_cfg = config;
        on_cfg.failover = FailoverConfig::recovery();
        let on_rt = ShardedRuntime::new(&cat, on_cfg);
        let on = on_rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        assert!(
            on.global.makespan_s < off_stepped.global.makespan_s,
            "failover must beat stranding (on: {:.2}s, off: {:.2}s)",
            on.global.makespan_s,
            off_stepped.global.makespan_s
        );
    }

    #[test]
    fn failover_composes_with_rebalancing() {
        use crate::config::RebalanceConfig;
        use crate::failover::FailoverConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(24, 8.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.failover = FailoverConfig::recovery();
        config.rebalance = RebalanceConfig::every(SimDuration::from_secs(2));
        config.rebalance.min_imbalance = 1.05;
        config.faults.outages.push(ShardOutage {
            shard: 1,
            down_at: SimTime::ZERO + SimDuration::from_secs(1),
            up_at: SimTime::ZERO + SimDuration::from_secs(5),
        });
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.global.batches, threaded.global.batches);
        assert_eq!(stepped.global.io, threaded.global.io);
        assert_eq!(stepped.failover, threaded.failover);
        assert_eq!(stepped.rebalance, threaded.rebalance);
        let fo = stepped.failover.as_ref().expect("failover reports");
        let rb = stepped.rebalance.as_ref().expect("elastic runs keep a log");
        assert!(!rb.records.is_empty(), "epoch boundaries must have fired");
        assert_eq!(
            stepped.global.outcomes.len() + fo.rejected.len(),
            timed.len()
        );
    }

    fn flaky_links() -> Vec<liferaft_sim::LinkFault> {
        use liferaft_sim::{LinkDirection, LinkFault};
        use liferaft_storage::SimDuration;
        let horizon = SimTime::ZERO + SimDuration::from_secs(1_000_000);
        let base = LinkFault {
            shard: 0,
            direction: LinkDirection::ToShard,
            from: SimTime::ZERO,
            until: horizon,
            drop_prob: 0.25,
            delay: SimDuration::from_millis(80),
            delay_per_entry: SimDuration::from_micros(15),
            dup_prob: 0.10,
            reorder_prob: 0.15,
            reorder_delay: SimDuration::from_millis(300),
        };
        vec![
            base,
            LinkFault {
                direction: LinkDirection::ToRouter,
                dup_prob: 0.0,
                reorder_prob: 0.0,
                ..base
            },
            LinkFault {
                shard: 1,
                drop_prob: 0.10,
                ..base
            },
        ]
    }

    /// A link window that drops, duplicates, reorders and delays nothing
    /// switches the transport on — a default `TransportConfig` suffices —
    /// and leaves the run bit-identical to the lossless hop.
    #[test]
    fn enabled_transport_without_link_faults_is_behaviour_neutral() {
        use liferaft_telemetry::TelemetryConfig;
        let (cat, timed) = fixture(16, 2.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.telemetry = TelemetryConfig::jsonl();
        let baseline_rt = ShardedRuntime::new(&cat, config.clone());
        let baseline = baseline_rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        assert!(baseline.transport.is_none(), "no link window, no hedging");
        let horizon = SimTime::ZERO + SimDuration::from_secs(1_000_000);
        config.faults.links = (0..4)
            .map(|shard| delaying_link(shard, SimTime::ZERO, horizon, SimDuration::ZERO))
            .collect();
        let rt = ShardedRuntime::new(&cat, config);
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let report = rt.run(&timed, &mut |_| greedy(), mode);
            assert_eq!(report.global.outcomes, baseline.global.outcomes, "{mode:?}");
            assert_eq!(report.global.batches, baseline.global.batches);
            assert_eq!(report.global.io, baseline.global.io);
            assert_eq!(report.global.cache, baseline.global.cache);
            // The telemetry stream is the same *bytes*: an empty transport
            // log synthesizes no events.
            assert_eq!(
                report.telemetry.as_ref().unwrap().to_jsonl(),
                baseline.telemetry.as_ref().unwrap().to_jsonl(),
                "{mode:?}: a zero-effect window must not perturb telemetry"
            );
            let tp = report.transport.expect("a link window runs the transport");
            assert!(tp.log.is_empty());
            assert!(tp.rejected.is_empty());
            assert_eq!(tp.hedge_wins + tp.hedge_losses, 0);
        }
    }

    #[test]
    fn lossy_links_stay_deterministic_across_modes() {
        use crate::transport::TransportConfig;
        let (cat, timed) = fixture(24, 4.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.transport = TransportConfig::reliable();
        config.faults.links = flaky_links();
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.global.batches, threaded.global.batches);
        assert_eq!(stepped.global.io, threaded.global.io);
        assert_eq!(stepped.global.cache, threaded.global.cache);
        assert_eq!(stepped.transport, threaded.transport);
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            assert_eq!(a.report.outcomes, b.report.outcomes);
        }
        // The links actually bit, and the transport reacted.
        let tp = stepped.transport.as_ref().expect("transport reports");
        assert!(!tp.log.drops.is_empty(), "lossy windows must drop messages");
        assert!(
            !tp.log.retransmits.is_empty(),
            "unacked sends must retransmit"
        );
        assert!(
            !tp.log.suppressed.is_empty(),
            "duplicates and late retransmissions must be deduped"
        );
        // Exactly-once terminal outcomes, conserved per class.
        assert_eq!(
            stepped.global.outcomes.len() + tp.rejected.len(),
            timed.len(),
            "completed + rejected must equal submitted"
        );
        for c in &stepped.per_class {
            assert_eq!(c.completed + c.rejected, c.submitted, "{:?}", c.class);
        }
    }

    #[test]
    fn certain_loss_rejects_with_conserved_accounting() {
        use crate::transport::TransportConfig;
        use liferaft_sim::{LinkDirection, LinkFault};
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(12, 2.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.transport = TransportConfig::reliable();
        // Shard 0's inbound link eats everything, forever: every query with
        // a shard-0 fragment must end in a terminal rejection.
        config.faults.links.push(LinkFault {
            shard: 0,
            direction: LinkDirection::ToShard,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(1_000_000),
            drop_prob: 1.0,
            delay: SimDuration::ZERO,
            delay_per_entry: SimDuration::ZERO,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
        });
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.transport, threaded.transport);
        let tp = stepped.transport.as_ref().expect("transport reports");
        assert!(!tp.rejected.is_empty(), "a black-hole link must reject");
        assert_eq!(
            stepped.global.outcomes.len() + tp.rejected.len(),
            timed.len()
        );
        for r in &tp.rejected {
            assert!(r.rejected_at > r.arrival, "rejection follows the budget");
        }
        // Shard 0 serviced nothing — every copy died on the wire.
        assert_eq!(stepped.shards[0].report.serviced_entries, 0);
    }

    #[test]
    fn hedging_races_stragglers_and_stays_deterministic() {
        use crate::transport::TransportConfig;
        use liferaft_sim::ShardSlowdown;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(24, 4.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.transport = TransportConfig::hedged();
        config.transport.hedge.min_samples = 4;
        config.transport.hedge.latency_multiplier = 1.3;
        // An 8× stall makes shard 0's fragments structural stragglers.
        config.faults.stalls.push(ShardSlowdown {
            shard: 0,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(1_000_000),
            factor: 8.0,
        });
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        assert_eq!(stepped.global.batches, threaded.global.batches);
        assert_eq!(stepped.transport, threaded.transport);
        let tp = stepped.transport.as_ref().expect("transport reports");
        assert!(
            !tp.log.hedges.is_empty(),
            "stalled-shard stragglers must hedge"
        );
        assert_eq!(
            tp.hedge_wins + tp.hedge_losses,
            tp.log.hedges.len() as u64,
            "every hedge race resolves exactly once"
        );
        // Hedge copies never land on a shard the query was handed to.
        for h in &tp.log.hedges {
            assert_ne!(h.from, h.to);
        }
        // Exactly-once completion despite duplicated work.
        assert_eq!(stepped.global.outcomes.len(), timed.len());
        for c in &stepped.per_class {
            assert_eq!(c.completed + c.rejected, c.submitted, "{:?}", c.class);
        }
    }

    /// Hedge thresholds come from the responses seen so far, never from the
    /// run's future, so cutting the trace changes no earlier hedge.
    #[test]
    fn hedges_before_an_instant_see_only_earlier_arrivals() {
        use crate::transport::{HedgeDecision, TransportConfig};
        use liferaft_sim::ShardSlowdown;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(48, 1.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.transport = TransportConfig::hedged();
        config.transport.hedge.min_samples = 4;
        config.transport.hedge.latency_multiplier = 1.3;
        config.faults.links = flaky_links();
        config.faults.stalls.push(ShardSlowdown {
            shard: 0,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(1_000_000),
            factor: 8.0,
        });
        let rt = ShardedRuntime::new(&cat, config);
        let hedges = |trace: &TimedTrace| {
            let report = rt.run(trace, &mut |_| greedy(), ExecMode::Stepped);
            report.transport.expect("transport reports").log.hedges
        };
        let full = hedges(&timed);
        // Cut the trace before each arrival instant `T`: what the pool did
        // before `T` cannot depend on the arrivals from `T` on, so neither
        // may the hedges decided before `T`.
        let entries = timed.entries();
        let mut compared = 0;
        for k in 1..entries.len() {
            let cut_at = entries[k].0;
            let queries = entries[..k].iter().map(|(_, q)| q.clone()).collect();
            let arrivals = entries[..k].iter().map(|e| e.0).collect();
            let cut = hedges(&Trace::new(LEVEL, queries).with_arrivals(arrivals));
            let before = |h: &&HedgeDecision| h.at < cut_at;
            let want: Vec<_> = full.iter().filter(before).collect();
            assert_eq!(
                cut.iter().filter(before).collect::<Vec<_>>(),
                want,
                "cut at {k}"
            );
            compared += want.len();
        }
        assert!(compared > 0, "no hedge fired before the last arrival");
    }

    /// A query has one class per run: with door thresholds away from the
    /// defaults, a query hedges only once the class every report books it
    /// under has `min_samples` work-bearing responses read.
    #[test]
    fn hedges_read_the_class_the_reports_book() {
        use crate::admission::{FrontDoorConfig, QueryClass};
        use crate::transport::{HedgeDecision, TransportConfig};
        use liferaft_sim::ShardSlowdown;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(24, 4.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.transport = TransportConfig::hedged();
        config.transport.hedge.min_samples = 4;
        config.transport.hedge.latency_multiplier = 1.3;
        config.faults.stalls.push(ShardSlowdown {
            shard: 0,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(1_000_000),
            factor: 8.0,
        });
        // An unbounded door admits every query at its arrival. Its
        // thresholds book the fixture's 21-assignment queries as batch,
        // where the defaults call every query interactive.
        config.front_door = FrontDoorConfig::bounded(u64::MAX);
        config.front_door.interactive_max_assignments = 20;
        config.front_door.batch_min_assignments = 21;
        let rt = ShardedRuntime::new(&cat, config);
        let report = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let verdicts = &report
            .front_door
            .as_ref()
            .expect("door reports")
            .log
            .verdicts;
        let hedges = &report
            .transport
            .as_ref()
            .expect("transport reports")
            .log
            .hedges;
        let booked = |h: &&HedgeDecision| verdicts[h.query_index].class;
        assert!(hedges.iter().any(|h| booked(&h) == QueryClass::Batch));
        for h in hedges {
            let class = booked(&h);
            // What the check at `h.at` read: each shard's completions while
            // its running clock stays at or before the check.
            let mut read = 0;
            for shard in &report.shards {
                let mut clock = SimTime::ZERO;
                for o in &shard.report.outcomes {
                    clock = clock.max(o.completion);
                    if clock > h.at {
                        break;
                    }
                    let same = verdicts[o.query.0 as usize].class == class;
                    read += usize::from(o.assignments > 0 && same);
                }
            }
            assert!(
                read >= 4,
                "query {} hedged at {} on {read} {} responses",
                h.query_index,
                h.at,
                class.label()
            );
        }
    }

    #[test]
    fn shards_crashing_at_one_instant_evacuate_in_sequence() {
        use crate::failover::FailoverConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(24, 8.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.failover = FailoverConfig::recovery();
        // Shards 0 and 1 die together: edge 0 fires first and may evacuate
        // onto shard 1, which is still up until its own edge fires.
        let down_at = SimTime::ZERO + SimDuration::from_secs(1);
        config.faults.outages = (0..2)
            .map(|shard| ShardOutage {
                shard,
                down_at,
                up_at: down_at + SimDuration::from_secs(5),
            })
            .collect();
        let rt = ShardedRuntime::new(&cat, config);
        let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        let fo = stepped.failover.as_ref().expect("failover runs report");
        // Every bucket that landed on shard 1 moved again in the second round.
        let evacs = &fo.log.evacuations;
        let mut relayed = evacs.iter().filter(|e| e.from == 0 && e.to == 1).peekable();
        assert!(
            relayed.peek().is_some(),
            "nothing landed on the second victim"
        );
        for first in relayed {
            let again = |e: &&Evacuation| e.from == 1 && e.bucket == first.bucket;
            assert_eq!(evacs.iter().filter(again).count(), 1, "{:?}", first.bucket);
        }
        assert!(fo.log.evacuations.iter().all(|e| e.boundary == down_at));
        assert_eq!(stepped.failover, threaded.failover);
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            assert_eq!(a.report.outcomes, b.report.outcomes);
            assert_eq!(a.report.batches, b.report.batches);
            assert_eq!(a.report.io, b.report.io);
            assert_eq!(a.report.cache, b.report.cache);
        }
        assert_eq!(
            stepped.global.outcomes.len() + fo.rejected.len(),
            timed.len(),
            "completed + rejected must equal submitted"
        );
    }

    /// One raced-move scenario on two contiguous shards (buckets 0..10 and
    /// 10..20), under NoShare, every query arriving at 0: two medium-class
    /// queries over seven buckets of shard 0 make a backlog that a stall
    /// holds there, three small queries on shard 1 give the interactive
    /// class the two responses hedging needs, and query 5 (interactive)
    /// covers bucket 3 behind the backlog. Query 5 is due at its hand-off
    /// plus the slower of those responses, so it is hedged onto shard 1 at
    /// the 2.5 s check, long before shard 0 reaches it. `config` adds what
    /// moves its bucket.
    ///
    /// Runs stepped and threaded on a thread of its own, bounded at 60 s of
    /// wall clock, so a livelock fails instead of hanging.
    fn raced_move(mut config: RuntimeConfig) -> (RuntimeReport, RuntimeReport, TimedTrace) {
        use crate::transport::TransportConfig;
        use std::sync::mpsc;
        use std::time::Duration;
        config.transport = TransportConfig::hedged();
        config.transport.hedge.min_samples = 2;
        config.transport.hedge.latency_multiplier = 1.0;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let cat = bucket_catalog();
            let thin = |id: u64, buckets: &[u32], step: usize| {
                let positions: Vec<_> = buckets
                    .iter()
                    .flat_map(|&b| {
                        cat.bucket_objects(liferaft_storage::BucketId(b))
                            .into_owned()
                    })
                    .step_by(step)
                    .map(|o| o.pos)
                    .collect();
                CrossMatchQuery::from_positions(
                    QueryId(id),
                    &positions,
                    1e-4,
                    LEVEL,
                    Predicate::All,
                )
            };
            let backlog = [0, 1, 2, 6, 7, 8, 9];
            let queries = vec![
                thin(0, &backlog, 3),
                thin(1, &backlog, 3),
                thin(2, &[11], 10),
                thin(3, &[12], 10),
                thin(4, &[15], 10),
                span_query(&cat, 5, 3..4),
            ];
            let timed = Trace::new(LEVEL, queries).with_arrivals(vec![SimTime::ZERO; 6]);
            let rt = ShardedRuntime::new(&cat, config);
            let noshare = |_| -> Box<dyn Scheduler + Send> { Box::new(NoShareScheduler::new()) };
            let stepped = rt.run(&timed, &mut noshare.clone(), ExecMode::Stepped);
            let threaded = rt.run(&timed, &mut noshare.clone(), ExecMode::Threaded);
            let _ = tx.send((stepped, threaded, timed));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(runs) => runs,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("the run ran past its 60 s bound"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the run panicked"),
        }
    }

    /// What every raced-move run must hold: query 5 was hedged off shard 0,
    /// completed nothing there, and shard 1 closed one record of it holding
    /// both fragments; both modes agree, every class balances its books,
    /// and every race settled exactly once. Returns the buckets of query 5's
    /// work, to be checked against the moves.
    fn assert_raced_move_settles(
        stepped: &RuntimeReport,
        threaded: &RuntimeReport,
        timed: &TimedTrace,
    ) -> Vec<liferaft_storage::BucketId> {
        assert_eq!(stepped.global.outcomes, threaded.global.outcomes);
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            assert_eq!(a.report.outcomes, b.report.outcomes);
            assert_eq!(a.report.batches, b.report.batches);
        }
        assert_eq!(stepped.rebalance, threaded.rebalance);
        assert_eq!(stepped.failover, threaded.failover);
        assert_eq!(stepped.transport, threaded.transport);
        let tp = stepped.transport.as_ref().expect("transport reports");
        let raced = tp.log.hedges.iter().find(|h| h.query_index == 5);
        let raced = raced.unwrap_or_else(|| panic!("query 5 must be hedged: {:?}", tp.log));
        assert_eq!((raced.from, raced.to), (0, 1));
        assert_eq!(
            tp.hedge_wins + tp.hedge_losses,
            tp.log.hedges.len() as u64,
            "every race settles exactly once"
        );
        assert_eq!(stepped.global.outcomes.len(), timed.len());
        for c in &stepped.per_class {
            assert_eq!(c.completed + c.rejected, c.submitted, "{:?}", c.class);
        }
        let on_shard_0 = stepped.shards[0].report.outcomes.iter();
        assert!(
            on_shard_0.clone().all(|o| o.query != QueryId(5)),
            "query 5 completed part of its original on shard 0"
        );
        // Shard 1's record of query 5 held the moved original and the copy.
        let both = stepped.shards[1].report.outcomes.iter();
        assert!(both
            .filter(|o| o.query == QueryId(5))
            .any(|o| o.assignments == 2 * raced.entries));
        let cat = bucket_catalog();
        let items = QueryPreProcessor::new(cat.partition()).preprocess(&timed.entries()[5].1);
        items.iter().map(|i| i.bucket).collect()
    }

    /// Hedging × rebalancing: the epoch after the hedge moves
    /// every bucket of the raced original onto its copy's shard before the
    /// original completed anything, so one shard's record of the query
    /// holds parts of both fragments.
    #[test]
    fn an_epoch_moving_a_raced_original_settles_the_race_once() {
        use crate::config::RebalanceConfig;
        use liferaft_sim::ShardSlowdown;
        use liferaft_storage::SimDuration;
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        config.rebalance = RebalanceConfig::every(SimDuration::from_secs(3));
        config.rebalance.min_imbalance = 1.05;
        config.faults.stalls.push(ShardSlowdown {
            shard: 0,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(1_000_000),
            factor: 8.0,
        });
        let (stepped, threaded, timed) = raced_move(config);
        let buckets = assert_raced_move_settles(&stepped, &threaded, &timed);
        let log = stepped.rebalance.as_ref().expect("elastic runs keep a log");
        let first = &log.records[0];
        assert_eq!(
            first.at,
            SimTime::ZERO + SimDuration::from_secs(3),
            "after the hedge"
        );
        for b in &buckets {
            assert!(
                first
                    .moves
                    .iter()
                    .any(|m| m.bucket == *b && m.from.0 == 0 && m.to.0 == 1),
                "the first epoch must move bucket {b} of query 5: {:?}",
                first.moves
            );
        }
    }

    /// Hedging × failover over an outage: shard 0 crashes
    /// after the hedge, and the evacuation lands the raced original's
    /// buckets on its copy's shard.
    #[test]
    fn a_crash_evacuating_a_raced_original_onto_its_copy_settles_the_race_once() {
        use crate::failover::FailoverConfig;
        use liferaft_sim::{ShardOutage, ShardSlowdown};
        use liferaft_storage::SimDuration;
        let s = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        config.failover = FailoverConfig::recovery();
        config.faults.stalls.push(ShardSlowdown {
            shard: 0,
            from: SimTime::ZERO,
            until: s(3),
            factor: 8.0,
        });
        config.faults.outages.push(ShardOutage {
            shard: 0,
            down_at: s(3),
            up_at: s(600),
        });
        let (stepped, threaded, timed) = raced_move(config);
        let buckets = assert_raced_move_settles(&stepped, &threaded, &timed);
        let fo = stepped.failover.as_ref().expect("failover reports");
        for b in &buckets {
            assert!(
                fo.log
                    .evacuations
                    .iter()
                    .any(|e| e.bucket == *b && e.from == 0 && e.to == 1),
                "the crash must evacuate bucket {b} of query 5: {:?}",
                fo.log.evacuations
            );
        }
    }

    #[test]
    fn window_routing_hands_back_the_static_routing() {
        use crate::admission::FrontDoorConfig;
        use crate::config::RebalanceConfig;
        use crate::router::route;
        use liferaft_storage::SimDuration;
        // Under a rebalance that never triggers, routing window by window
        // between epoch boundaries must leave every worker holding exactly
        // the stream whole-trace routing builds, fragment for fragment; and
        // so must an unbounded front door, which admits every query at its
        // arrival and routes the items it registered it with.
        let (cat, timed) = fixture(24, 2.0);
        let placements = [1, 3, 4, 5].into_iter().flat_map(|n_shards| {
            [
                ShardAssignment::Contiguous,
                ShardAssignment::Hashed { seed: n_shards },
            ]
            .map(|assignment| (n_shards as u32, assignment, false))
        });
        let door = (3, ShardAssignment::Hashed { seed: 3 }, true);
        let cases = placements.chain([door]);
        for ((n_shards, assignment, door), mode) in
            cases.flat_map(|c| [ExecMode::Stepped, ExecMode::Threaded].map(|mode| (c, mode)))
        {
            let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
            config.assignment = assignment;
            config.rebalance = RebalanceConfig::every(SimDuration::from_secs(2));
            config.rebalance.min_imbalance = 1e12;
            if door {
                config.front_door = FrontDoorConfig::bounded(u64::MAX);
            }
            let rt = ShardedRuntime::new(&cat, config);
            let entries = timed.entries();
            let mut pool = rt.spawn(entries, &mut |_| greedy());
            let plan = rt.drive(entries, &mut pool, mode);
            let streams: Vec<&[Fragment]> = pool.iter().map(|w| w.driver.fragments()).collect();
            // Ids minted window by window are the ids of one whole-trace mint.
            let mut routing = route(cat.partition(), rt.shard_map(), &timed);
            routing.mint(&mut 0);
            let case = format!("{n_shards} shards, {assignment:?}, door {door}, {mode:?}");
            assert_eq!(streams, routing.shards, "{case}");
            let epochs = plan.rebalance.as_ref().map_or(0, |log| log.records.len());
            assert!(epochs > 3, "{case}: the trace must span several windows");
            assert_eq!(plan.admission.is_some(), door, "{case}");
            assert_eq!(plan.assignments_of, routing.assignments_of, "{case}");
            assert_eq!(plan.total_fragments, routing.total_fragments(), "{case}");
            assert_eq!(
                plan.cross_shard_queries, routing.cross_shard_queries,
                "{case}"
            );
        }
    }

    /// Greedy, recording the thread of every pick.
    struct PickThreads {
        inner: LifeRaftScheduler,
        seen: Arc<Mutex<HashSet<ThreadId>>>,
    }

    impl Scheduler for PickThreads {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn pick(&mut self, view: &dyn SchedulerView) -> Option<BatchSpec> {
            let me = std::thread::current().id();
            self.seen.lock().expect("no pick panicked").insert(me);
            self.inner.pick(view)
        }

        fn on_query_arrival(&mut self, now: SimTime) {
            self.inner.on_query_arrival(now);
        }

        fn decision_stats(&self) -> DecisionStats {
            self.inner.decision_stats()
        }
    }

    /// Greedy, counting picks down from `.1`: the pick that reaches zero
    /// panics.
    struct PanicsOnPick(LifeRaftScheduler, u32);

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
    fn a_threaded_scheduler_panic_fails_the_run_instead_of_hanging() {
        use crate::config::RebalanceConfig;
        use liferaft_storage::SimDuration;
        use std::panic::{self, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;
        let (tx, rx) = mpsc::channel();
        // A hung run leaks this thread; the timeout below still fails.
        std::thread::spawn(move || {
            // 24 chunks of the feed: pick 50 comes long before two producers,
            // each held a few chunks ahead, have split the last of them.
            let (cat, timed) = fixture(3_072, 4.0);
            let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
            // Epochs that never move a bucket cut the run into 2 s windows,
            // so the loop reads the feed as it goes.
            config.rebalance = RebalanceConfig::every(SimDuration::from_secs(2));
            config.rebalance.min_imbalance = 1e12;
            let rt = ShardedRuntime::new(&cat, config);
            let mut scheduler = |_| -> Box<dyn Scheduler + Send> {
                Box::new(PanicsOnPick(
                    LifeRaftScheduler::greedy(CostModel::paper()),
                    50,
                ))
            };
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                rt.run(&timed, &mut scheduler, ExecMode::Threaded)
            }));
            let message = run.map_err(|payload| match payload.downcast::<&str>() {
                Ok(s) => s.to_string(),
                Err(payload) => *payload.downcast::<String>().expect("a string payload"),
            });
            tx.send(message.map(|report| report.global.batches))
                .unwrap();
        });
        let run = rx.recv_timeout(Duration::from_secs(60));
        let run = run.expect("the run hung after its scheduler panicked");
        let message = run.expect_err("the scheduler's panic fails the run");
        assert_eq!(message, "the scheduler fails on purpose");
    }

    #[test]
    fn threaded_controller_runs_take_one_pass() {
        use crate::admission::FrontDoorConfig;
        use crate::config::RebalanceConfig;
        use crate::failover::FailoverConfig;
        use crate::transport::TransportConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        let (cat, timed) = fixture(24, 8.0);
        let base = RuntimeConfig::contiguous(SimConfig::paper(), 3);
        let mut rebalance = base.clone();
        rebalance.rebalance = RebalanceConfig::every(SimDuration::from_secs(2));
        rebalance.rebalance.min_imbalance = 1.05;
        let mut crash = base.clone();
        crash.failover = FailoverConfig::recovery();
        crash.faults.outages.push(ShardOutage {
            shard: 0,
            down_at: SimTime::ZERO + SimDuration::from_secs(1),
            up_at: SimTime::ZERO + SimDuration::from_secs(6),
        });
        let mut door = base.clone();
        door.front_door = FrontDoorConfig::bounded(60);
        let mut hedged = base;
        hedged.transport = TransportConfig::hedged();
        // The door steps one worker per window on the calling thread; every
        // other run advances its windows on worker threads.
        for (name, config, calls_wanted, on_threads) in [
            ("rebalance", rebalance, 3, true),
            ("crash", crash, 3, true),
            ("front door", door, 3, false),
            ("hedged transport", hedged, 3, true),
        ] {
            let rt = ShardedRuntime::new(&cat, config);
            let stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
            let mut calls = 0;
            let seen = Arc::new(Mutex::new(HashSet::new()));
            let threaded = rt.run(
                &timed,
                &mut |_| {
                    calls += 1;
                    Box::new(PickThreads {
                        inner: LifeRaftScheduler::greedy(CostModel::paper()),
                        seen: Arc::clone(&seen),
                    })
                },
                ExecMode::Threaded,
            );
            assert_eq!(calls, calls_wanted, "{name}: scheduler factory calls");
            let seen = seen.lock().expect("no pick panicked");
            if on_threads {
                assert!(seen.len() >= 2, "{name}: picks on {} thread(s)", seen.len());
            } else {
                let caller = HashSet::from([std::thread::current().id()]);
                assert_eq!(*seen, caller, "{name}: picks off the calling thread");
            }
            assert_eq!(stepped.global.outcomes, threaded.global.outcomes, "{name}");
            assert_eq!(stepped.global.batches, threaded.global.batches, "{name}");
            assert_eq!(stepped.global.io, threaded.global.io, "{name}");
            assert_eq!(stepped.global.cache, threaded.global.cache, "{name}");
            assert_eq!(stepped.rebalance, threaded.rebalance, "{name}");
            assert_eq!(stepped.front_door, threaded.front_door, "{name}");
            assert_eq!(stepped.failover, threaded.failover, "{name}");
            assert_eq!(stepped.transport, threaded.transport, "{name}");
            for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
                assert_eq!(a.report.outcomes, b.report.outcomes, "{name}");
            }
        }
    }

    /// Window order, a symmetry: a stepped run whose windows advance their
    /// workers in a seeded random order is byte-identical to the index-order
    /// run, report and event stream alike. Workers share nothing inside a
    /// window; that is the claim the threaded executor rests on, checked
    /// here without threads.
    #[test]
    fn stepped_windows_advance_in_any_worker_order() {
        use crate::config::RebalanceConfig;
        use crate::failover::FailoverConfig;
        use crate::transport::TransportConfig;
        use liferaft_sim::ShardOutage;
        use liferaft_storage::SimDuration;
        use liferaft_telemetry::TelemetryConfig;
        let (cat, timed) = fixture(24, 8.0);
        let mut base = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        base.assignment = ShardAssignment::Hashed { seed: 3 };
        base.telemetry = TelemetryConfig::jsonl();
        let mut rebalance = base.clone();
        rebalance.rebalance = RebalanceConfig::every(SimDuration::from_secs(2));
        rebalance.rebalance.min_imbalance = 1.05;
        let mut crash = base.clone();
        crash.failover = FailoverConfig::recovery();
        crash.faults.outages.push(ShardOutage {
            shard: 0,
            down_at: SimTime::ZERO + SimDuration::from_secs(1),
            up_at: SimTime::ZERO + SimDuration::from_secs(6),
        });
        let mut hedged = base.clone();
        hedged.transport = TransportConfig::hedged();
        hedged.transport.hedge.min_samples = 4;
        hedged.faults.links = flaky_links();
        for (name, config) in [
            ("static", base),
            ("rebalance", rebalance),
            ("crash", crash),
            ("hedged lossy transport", hedged),
        ] {
            let rt = ShardedRuntime::new(&cat, config);
            let reference = format!("{:?}", rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped));
            for seed in [1u64, 7, 0x9e37_79b9] {
                WINDOW_ORDER.set((Some(seed), 0));
                let permuted = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
                let (_, reordered) = WINDOW_ORDER.replace((None, 0));
                assert!(
                    reordered > 0,
                    "{name}, seed {seed}: no window was reordered"
                );
                assert!(
                    format!("{permuted:?}") == reference,
                    "{name}, seed {seed}: the worker order changed the run"
                );
            }
        }
    }

    #[test]
    fn empty_trace_is_trivial() {
        let (cat, _) = fixture(1, 1.0);
        let timed = Trace::new(LEVEL, vec![]).with_arrivals(vec![]);
        let rt = ShardedRuntime::new(&cat, RuntimeConfig::contiguous(SimConfig::paper(), 4));
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let report = rt.run(&timed, &mut |_| greedy(), mode);
            assert_eq!(report.global.queries, 0);
            assert_eq!(report.global.batches, 0);
            assert_eq!(report.total_fragments, 0);
        }
    }
}
