//! The sharded serving runtime: route → execute (stepped or threaded) →
//! aggregate.
//!
//! # Determinism contract
//!
//! Both execution modes produce **bit-identical** [`RuntimeReport`]s for
//! the same (catalog, config, trace, scheduler factory):
//!
//! - Routing is a pure function of the shard map and the trace.
//! - Each shard's behaviour is a pure function of its own fragment stream
//!   (admission is shard-local), so workers never observe each other and
//!   any stepping order yields the same per-shard results.
//! - Aggregation merges per-shard completion streams in the canonical
//!   `(completion time, shard id, shard event order)` order, which is
//!   independent of how the shards were driven.
//!
//! The stepped mode is the reference: a single-threaded virtual-time merge
//! of the shard event queues (earliest next event first, ties by shard id),
//! pinnable by golden tests and steppable under a debugger. The threaded
//! mode runs one `std::thread` worker per shard and collects results over
//! an `mpsc` channel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{mpsc, Barrier};

use liferaft_catalog::Catalog;
use liferaft_core::Scheduler;
use liferaft_metrics::Summary;
use liferaft_query::{tracker::QueryOutcome, QueryId, QueryPreProcessor, WorkItem};
use liferaft_sim::{LinkDirection, MigratedBucket, RunReport};
use liferaft_storage::{cache::CacheStats, IoStats, SimDuration, SimTime};
use liferaft_telemetry::{Event, EventKind, TelemetryReport, ROUTER_SHARD};
use liferaft_workload::TimedTrace;

use crate::admission::{
    AdmissionLog, ClassStats, Disposition, FrontDoor, FrontDoorConfig, FrontDoorReport, QueryClass,
    RejectedQuery,
};
use crate::config::{ExecMode, RuntimeConfig};
use crate::failover::{
    ClassConservation, Evacuation, FailedQuery, FailoverLog, FailoverReport, Redelivery,
    ShardTransition,
};
use crate::rebalance::{plan_moves, EpochRecord, RebalanceLog};
use crate::router::{
    route_admitted, route_elastic_parallel, route_failover, route_parallel, split_failover_arrival,
    split_query, Fragment,
};
use crate::shard::{ElasticShardMap, ShardId, ShardMap};
use crate::transport::{plan_delivery, plan_hedges, resolve_hedges, TransportLog, TransportReport};
use crate::worker::{ShardRun, ShardWorker};

/// The outcome of one sharded runtime execution.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The query-level global summary, shaped exactly like a single-engine
    /// [`RunReport`]: counters are summed across shards, response statistics
    /// are computed over whole-query completions (a cross-shard query
    /// completes when its last fragment finishes), and `outcomes` are in the
    /// canonical merged completion order.
    pub global: RunReport,
    /// Per-shard runs, in shard order.
    pub shards: Vec<ShardRun>,
    /// Queries that split across more than one shard.
    pub cross_shard_queries: usize,
    /// Total fragments routed.
    pub total_fragments: usize,
    /// The epoch-indexed rebalance decision log (`None` when rebalancing is
    /// disabled). Not part of the fingerprinted surface — it records *why*
    /// the run evolved, not *what* it produced.
    pub rebalance: Option<RebalanceLog>,
    /// The front door's decision log, rejected queries, and per-class
    /// statistics (`None` when the front door is disabled). With the front
    /// door on, `global.outcomes` covers only *completed* queries; the
    /// rejected remainder lives here, so
    /// `global.outcomes.len() + front_door.rejected.len()` always equals
    /// the trace length — accounting is conserved.
    pub front_door: Option<FrontDoorReport>,
    /// The failover decision log, rejected queries, per-class conservation,
    /// and recovery-lag headline (`None` when no outages were injected and
    /// failover is disabled). With failover on, a query whose lost fragment
    /// exhausted re-delivery is terminally *rejected*:
    /// `global.outcomes.len() + failover.rejected.len()` equals the trace
    /// length — accounting is conserved.
    pub failover: Option<FailoverReport>,
    /// The transport decision log, rejected queries, per-class conservation,
    /// and hedge race outcome (`None` when the transport controller is
    /// disabled). With transport on, a query whose fragment exhausted its
    /// retransmission budget undelivered is terminally *rejected*:
    /// `global.outcomes.len() + transport.rejected.len()` equals the trace
    /// length — accounting is conserved.
    pub transport: Option<TransportReport>,
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

    /// The configuration in force.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The bucket → shard map in force.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Threads the up-front routing may pre-process on: what the run already
    /// has — the calling thread alone when stepped, one per shard (capped by
    /// the host's cores) when threaded.
    fn route_threads(&self, mode: ExecMode) -> usize {
        match mode {
            ExecMode::Stepped => 1,
            ExecMode::Threaded => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(self.config.n_shards as usize),
        }
    }

    /// Replays `trace`, scheduling shard `i` with `mk_scheduler(i)`.
    ///
    /// With [`RebalanceConfig::enabled`](crate::config::RebalanceConfig)
    /// the elastic path runs instead: a deterministic stepped planning pass
    /// computes the epoch decision log, and — in threaded mode — a parallel
    /// replay executes it verbatim (so the factory is invoked once per
    /// shard per pass; it must keep returning equivalent schedulers).
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
        if self.config.transport.enabled {
            return self.run_transport(trace, mk_scheduler, mode);
        }
        if self.config.failover.enabled || !self.config.faults.outages.is_empty() {
            let (fo_log, rb_log, stepped) = self.plan_failover(trace, mk_scheduler);
            return match mode {
                ExecMode::Stepped => stepped,
                ExecMode::Threaded => self.replay_failover(trace, mk_scheduler, fo_log, rb_log),
            };
        }
        if self.config.rebalance.enabled {
            let (log, stepped) = self.plan_elastic(trace, mk_scheduler);
            return match mode {
                ExecMode::Stepped => stepped,
                ExecMode::Threaded => self.replay_elastic(trace, mk_scheduler, log),
            };
        }
        if self.config.front_door.enabled {
            let (log, stepped) = self.plan_front_door(trace, mk_scheduler);
            return match mode {
                ExecMode::Stepped => stepped,
                ExecMode::Threaded => self.replay_front_door(trace, mk_scheduler, log),
            };
        }
        let routing = route_parallel(
            self.catalog.partition(),
            &self.map,
            trace,
            self.route_threads(mode),
        );
        let total_fragments = routing.total_fragments();
        let assignments_of = routing.assignments_of;
        let cross_shard_queries = routing.cross_shard_queries;

        let workers: Vec<ShardWorker<'_, C>> = routing
            .shards
            .into_iter()
            .enumerate()
            .map(|(i, fragments)| {
                ShardWorker::new(
                    ShardId(i as u32),
                    self.catalog,
                    self.config.sim,
                    self.config.admission,
                    self.config.faults.for_shard(i as u32),
                    self.config.faults.outages_for_shard(i as u32),
                    trace.entries(),
                    fragments,
                    mk_scheduler(i),
                    self.config.telemetry.make_sink(),
                )
            })
            .collect();

        let shard_runs = match mode {
            ExecMode::Stepped => run_stepped(workers),
            ExecMode::Threaded => run_threaded(workers),
        };

        let (global, _) = aggregate(trace, &assignments_of, &shard_runs, None, None, None);
        let telemetry = self.build_telemetry(trace, &shard_runs, None, None, None, None);
        RuntimeReport {
            global,
            shards: shard_runs,
            cross_shard_queries,
            total_fragments,
            rebalance: None,
            front_door: None,
            failover: None,
            transport: None,
            telemetry,
        }
    }

    /// The transport path: route normally, resolve every fragment's
    /// retransmit chain against the link-fault windows *up-front*
    /// ([`plan_delivery`] — a pure function of the routing, the windows, and
    /// the seed), then execute the adjusted routing in the requested mode.
    /// Because the whole delivery schedule (effective delivery instants,
    /// terminal rejections, hedge copies) is fixed before any shard runs,
    /// stepped and threaded execution consume identical fragment streams and
    /// stay bit-identical under arbitrary loss.
    ///
    /// With hedging enabled a *reference pass* (stepped, no hedges) runs
    /// first to observe per-class response distributions and per-shard load;
    /// [`plan_hedges`] derives the hedge plan from it, the hedge copies join
    /// the routing, and the final pass races each copy against its original —
    /// the first completion in the canonical merge order wins, the loser is
    /// suppressed from aggregation exactly like a network duplicate. The
    /// scheduler factory is therefore invoked once per shard per pass, like
    /// the other plan/replay paths; it must keep returning equivalent
    /// schedulers.
    fn run_transport(
        &self,
        trace: &TimedTrace,
        mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler + Send>,
        mode: ExecMode,
    ) -> RuntimeReport {
        let tp = self.config.transport;
        let entries = trace.entries();
        let mut routing = route_parallel(
            self.catalog.partition(),
            &self.map,
            trace,
            self.route_threads(mode),
        );
        let cross_shard_queries = routing.cross_shard_queries;
        let mut plan = plan_delivery(&tp, &self.config.faults, &mut routing, entries.len());

        let index_of: HashMap<QueryId, usize> = entries
            .iter()
            .enumerate()
            .map(|(i, (_, q))| (q.id, i))
            .collect();

        if tp.hedge.enabled {
            let reference_workers: Vec<ShardWorker<'_, C>> = routing
                .shards
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, fragments)| {
                    ShardWorker::new(
                        ShardId(i as u32),
                        self.catalog,
                        self.config.sim,
                        self.config.admission,
                        self.config.faults.for_shard(i as u32),
                        self.config.faults.outages_for_shard(i as u32),
                        entries,
                        fragments,
                        mk_scheduler(i),
                        self.config.telemetry.make_sink(),
                    )
                })
                .collect();
            let reference = run_stepped(reference_workers);
            let classes = FrontDoorConfig::disabled();
            let class_of: Vec<QueryClass> = routing
                .assignments_of
                .iter()
                .map(|&a| classes.classify(a))
                .collect();
            let hedges = plan_hedges(
                &tp.hedge,
                &self.config.faults,
                &routing,
                &class_of,
                &plan.rejected_mask,
                &reference,
                &index_of,
            );
            for h in &hedges {
                let original = routing.shards[h.from as usize]
                    .iter()
                    .find(|f| f.query_index == h.query_index)
                    .expect("a hedged fragment is still routed")
                    .clone();
                routing.fragments_of[h.query_index] += 1;
                let stream = &mut routing.shards[h.to as usize];
                stream.push(Fragment {
                    release: h.delivered_at,
                    ..original
                });
                stream.sort_by_key(|f| f.release);
            }
            plan.log.hedges = hedges;
        }

        let total_fragments = routing.total_fragments();
        let assignments_of = routing.assignments_of;
        let workers: Vec<ShardWorker<'_, C>> = routing
            .shards
            .into_iter()
            .enumerate()
            .map(|(i, fragments)| {
                ShardWorker::new(
                    ShardId(i as u32),
                    self.catalog,
                    self.config.sim,
                    self.config.admission,
                    self.config.faults.for_shard(i as u32),
                    self.config.faults.outages_for_shard(i as u32),
                    entries,
                    fragments,
                    mk_scheduler(i),
                    self.config.telemetry.make_sink(),
                )
            })
            .collect();
        let shard_runs = match mode {
            ExecMode::Stepped => run_stepped(workers),
            ExecMode::Threaded => run_threaded(workers),
        };

        let (hedge_wins, hedge_losses, skip) =
            resolve_hedges(&plan.log.hedges, &shard_runs, &index_of);
        let rejected: Vec<FailedQuery> = plan
            .rejected_mask
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| FailedQuery {
                index: i,
                arrival: entries[i].0,
                rejected_at: plan.rejected_at[i],
                attempts: plan.attempts_of[i],
                assignments: assignments_of[i],
            })
            .collect();
        let (global, _) = aggregate(
            trace,
            &assignments_of,
            &shard_runs,
            None,
            Some(&plan.rejected_mask),
            Some(&skip),
        );
        let transport = build_transport_report(
            &plan.log,
            trace,
            &assignments_of,
            rejected,
            &global,
            hedge_wins,
            hedge_losses,
        );
        let telemetry = self.build_telemetry(trace, &shard_runs, None, None, None, Some(&plan.log));
        RuntimeReport {
            global,
            shards: shard_runs,
            cross_shard_queries,
            total_fragments,
            rebalance: None,
            front_door: None,
            failover: None,
            transport: Some(transport),
            telemetry,
        }
    }

    /// The elastic reference pass: a stepped virtual-time merge with a
    /// rebalance controller firing at every epoch boundary. Returns the
    /// decision log alongside the finished report.
    ///
    /// Between boundaries this is exactly [`run_stepped`]: the worker with
    /// the earliest next event advances one event — but only while that
    /// event is strictly before the next boundary `T`. When every live
    /// event sits at or beyond `T`, the controller samples per-shard load,
    /// plans migrations ([`plan_moves`]), applies them (extract at the
    /// sources, absorb at the destinations in bucket order, costs charged
    /// to destination clocks), records the epoch, and routes the next
    /// arrival window `[T, T + epoch)` under the updated map.
    fn plan_elastic(
        &self,
        trace: &TimedTrace,
        mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler + Send>,
    ) -> (RebalanceLog, RuntimeReport) {
        let rb = self.config.rebalance;
        let entries = trace.entries();
        let partition = self.catalog.partition();
        let pre = QueryPreProcessor::new(partition);
        let n = self.config.n_shards as usize;

        let mut workers: Vec<ShardWorker<'_, C>> = (0..n)
            .map(|i| {
                ShardWorker::new(
                    ShardId(i as u32),
                    self.catalog,
                    self.config.sim,
                    self.config.admission,
                    self.config.faults.for_shard(i as u32),
                    self.config.faults.outages_for_shard(i as u32),
                    entries,
                    Vec::new(),
                    mk_scheduler(i),
                    self.config.telemetry.make_sink(),
                )
            })
            .collect();

        let mut elastic = ElasticShardMap::new(self.map);
        let mut assignments_of = vec![0u64; entries.len()];
        let mut cross_shard_queries = 0usize;
        let mut total_fragments = 0usize;
        let mut split: Vec<Vec<WorkItem>> = vec![Vec::new(); n];
        let mut window: Vec<Vec<Fragment>> = vec![Vec::new(); n];
        let mut cursor = 0usize; // next unrouted trace entry
        let mut fired = 0u32;
        let mut records: Vec<EpochRecord> = Vec::new();

        // Routes arrivals strictly before `bound` under the current map and
        // hands the resulting window to the workers.
        let mut route_until = |bound: SimTime,
                               cursor: &mut usize,
                               elastic: &ElasticShardMap,
                               workers: &mut Vec<ShardWorker<'_, C>>,
                               assignments_of: &mut Vec<u64>,
                               cross_shard_queries: &mut usize,
                               total_fragments: &mut usize| {
            while let Some((arrival, query)) = entries.get(*cursor) {
                if *arrival >= bound {
                    break;
                }
                let (fragments, assignments) = split_query(
                    pre.preprocess(query),
                    *cursor,
                    *arrival,
                    *arrival,
                    QueryClass::Standard,
                    query,
                    &mut |b| elastic.shard_of(b),
                    &mut split,
                    &mut window,
                );
                if fragments > 1 {
                    *cross_shard_queries += 1;
                }
                assignments_of[*cursor] = assignments;
                *total_fragments += fragments as usize;
                *cursor += 1;
            }
            for (w, frags) in workers.iter_mut().zip(window.iter_mut()) {
                if !frags.is_empty() {
                    w.append_fragments(std::mem::take(frags));
                }
            }
        };

        // Initial window: [0, T_1).
        route_until(
            SimTime::ZERO + rb.epoch,
            &mut cursor,
            &elastic,
            &mut workers,
            &mut assignments_of,
            &mut cross_shard_queries,
            &mut total_fragments,
        );

        loop {
            let t = SimTime::ZERO + rb.epoch.times(fired as u64 + 1);
            let mut earliest: Option<(SimTime, usize)> = None;
            for (i, w) in workers.iter().enumerate() {
                if let Some(wt) = w.next_time() {
                    // Strict `<` keeps the lowest shard index on time ties.
                    if earliest.map_or(true, |(bt, _)| wt < bt) {
                        earliest = Some((wt, i));
                    }
                }
            }
            match earliest {
                Some((wt, i)) if wt < t => {
                    let advanced = workers[i].step();
                    debug_assert!(advanced, "a shard with a next event must advance");
                    continue;
                }
                None if cursor >= entries.len() => break, // fully drained
                _ => {} // every live event is at/after the boundary: fire it
            }

            fired += 1;
            let loads: Vec<u64> = workers.iter().map(ShardWorker::queued).collect();
            let depths: Vec<Vec<_>> = workers.iter().map(ShardWorker::bucket_depths).collect();
            let moves = plan_moves(&rb, &loads, &depths, &vec![true; n]);

            // Extract every payload first (sources are untouched by other
            // moves' absorptions), then absorb per destination in bucket
            // order — the canonical order the threaded replay reproduces.
            let mut payloads: Vec<(usize, MigratedBucket)> = moves
                .iter()
                .map(|m| {
                    let p = workers[m.from.index()].extract_bucket(m.bucket, t, rb.warm_residency);
                    debug_assert_eq!(p.len() as u64, m.entries, "plan drifted from state");
                    (m.to.index(), p)
                })
                .collect();
            payloads.sort_by_key(|(to, p)| (*to, p.bucket));
            for (to, p) in payloads {
                let cost = rb.migration_fixed + rb.migration_per_entry.times(p.len() as u64);
                workers[to].absorb_payload(p, t, cost, rb.warm_residency);
            }

            records.push(EpochRecord {
                epoch: fired,
                at: t,
                loads,
                serviced: workers.iter().map(ShardWorker::serviced).collect(),
                resident: workers.iter().map(|w| w.resident() as u32).collect(),
                moves: moves.clone(),
            });
            for m in &moves {
                elastic.reassign(m.bucket, m.to);
            }

            // Route the next arrival window under the updated map.
            route_until(
                t + rb.epoch,
                &mut cursor,
                &elastic,
                &mut workers,
                &mut assignments_of,
                &mut cross_shard_queries,
                &mut total_fragments,
            );
        }

        let shard_runs: Vec<ShardRun> = workers.into_iter().map(ShardWorker::into_run).collect();
        let log = RebalanceLog {
            epoch: rb.epoch,
            records,
        };
        let (global, _) = aggregate(trace, &assignments_of, &shard_runs, None, None, None);
        let telemetry = self.build_telemetry(trace, &shard_runs, Some(&log), None, None, None);
        let report = RuntimeReport {
            global,
            shards: shard_runs,
            cross_shard_queries,
            total_fragments,
            rebalance: Some(log.clone()),
            front_door: None,
            failover: None,
            transport: None,
            telemetry,
        };
        (log, report)
    }

    /// The elastic parallel executor: routes the whole trace up-front under
    /// the evolving map ([`route_elastic_parallel`]), then runs one thread per shard
    /// that replays the decision log verbatim — a double-barrier handshake
    /// per move-bearing boundary: step to the boundary, barrier, send the
    /// outgoing payloads, barrier, absorb the incoming ones (sorted by
    /// bucket id, the planning pass's canonical order).
    fn replay_elastic(
        &self,
        trace: &TimedTrace,
        mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler + Send>,
        log: RebalanceLog,
    ) -> RuntimeReport {
        let rb = self.config.rebalance;
        let routing = route_elastic_parallel(
            self.catalog.partition(),
            &self.map,
            &log,
            trace,
            self.route_threads(ExecMode::Threaded),
        );
        let total_fragments = routing.total_fragments();
        let assignments_of = routing.assignments_of;
        let cross_shard_queries = routing.cross_shard_queries;
        let n = self.config.n_shards as usize;

        let workers: Vec<ShardWorker<'_, C>> = routing
            .shards
            .into_iter()
            .enumerate()
            .map(|(i, fragments)| {
                ShardWorker::new(
                    ShardId(i as u32),
                    self.catalog,
                    self.config.sim,
                    self.config.admission,
                    self.config.faults.for_shard(i as u32),
                    self.config.faults.outages_for_shard(i as u32),
                    trace.entries(),
                    fragments,
                    mk_scheduler(i),
                    self.config.telemetry.make_sink(),
                )
            })
            .collect();

        // Only boundaries that actually moved buckets synchronize the pool;
        // a move-free boundary is behaviour-neutral by construction.
        let sync_records: Vec<&EpochRecord> =
            log.records.iter().filter(|r| !r.moves.is_empty()).collect();
        let barrier = Barrier::new(n);
        let mut senders: Vec<mpsc::Sender<MigratedBucket>> = Vec::with_capacity(n);
        let mut receivers: Vec<mpsc::Receiver<MigratedBucket>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let (tx_done, rx_done) = mpsc::channel::<(usize, ShardRun)>();
        std::thread::scope(|scope| {
            for ((i, mut worker), rx) in workers.into_iter().enumerate().zip(receivers) {
                let tx_done = tx_done.clone();
                let senders = senders.clone();
                let barrier = &barrier;
                let sync_records = &sync_records;
                scope.spawn(move || {
                    for rec in sync_records {
                        let t = rec.at;
                        while worker.next_time().is_some_and(|wt| wt < t) {
                            worker.step();
                        }
                        barrier.wait();
                        for m in &rec.moves {
                            if m.from.index() != i {
                                continue;
                            }
                            let p = worker.extract_bucket(m.bucket, t, rb.warm_residency);
                            assert_eq!(p.len() as u64, m.entries, "replay diverged from plan");
                            senders[m.to.index()]
                                .send(p)
                                .expect("peer outlives the handshake");
                        }
                        barrier.wait();
                        let mut incoming: Vec<MigratedBucket> = rx.try_iter().collect();
                        incoming.sort_by_key(|p| p.bucket);
                        for p in incoming {
                            let cost =
                                rb.migration_fixed + rb.migration_per_entry.times(p.len() as u64);
                            worker.absorb_payload(p, t, cost, rb.warm_residency);
                        }
                    }
                    while worker.step() {}
                    tx_done
                        .send((i, worker.into_run()))
                        .expect("the driver outlives its workers");
                });
            }
        });
        drop(tx_done);
        let shard_runs = crate::sweep::collect_indexed(rx_done, n);

        let (global, _) = aggregate(trace, &assignments_of, &shard_runs, None, None, None);
        let telemetry = self.build_telemetry(trace, &shard_runs, Some(&log), None, None, None);
        RuntimeReport {
            global,
            shards: shard_runs,
            cross_shard_queries,
            total_fragments,
            rebalance: Some(log),
            front_door: None,
            failover: None,
            transport: None,
            telemetry,
        }
    }

    /// The front-door reference pass: a stepped virtual-time merge with the
    /// global admission controller in the loop. Returns the decision log
    /// alongside the finished report.
    ///
    /// The driver interleaves three event sources — shard events, trace
    /// arrivals, and backoff wake-ups — in virtual-time order. At each
    /// event time it ingests every due arrival into the [`FrontDoor`],
    /// pumps the controller (which may admit queries, handing their
    /// pre-split fragments to the shards with `release = now`), and steps
    /// the earliest-event shard. Admission feedback is the per-shard
    /// cumulative serviced-entry counters — observable in both modes, which
    /// is why the recorded plan replays exactly.
    ///
    /// Liveness: if no shard has a pending event, every admitted assignment
    /// has been serviced, so the pool is empty and the controller's
    /// head-of-line waiter admits unconditionally — the loop can never
    /// stall with work outstanding.
    fn plan_front_door(
        &self,
        trace: &TimedTrace,
        mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler + Send>,
    ) -> (AdmissionLog, RuntimeReport) {
        let fd = self.config.front_door;
        let entries = trace.entries();
        let pre = QueryPreProcessor::new(self.catalog.partition());
        let n = self.config.n_shards as usize;

        let mut workers: Vec<ShardWorker<'_, C>> = (0..n)
            .map(|i| {
                ShardWorker::new(
                    ShardId(i as u32),
                    self.catalog,
                    self.config.sim,
                    self.config.admission,
                    self.config.faults.for_shard(i as u32),
                    self.config.faults.outages_for_shard(i as u32),
                    entries,
                    Vec::new(),
                    mk_scheduler(i),
                    self.config.telemetry.make_sink(),
                )
            })
            .collect();

        let mut door = FrontDoor::new(fd, entries.len(), n);
        let mut assignments_of = vec![0u64; entries.len()];
        let mut cross_shard_queries = 0usize;
        let mut total_fragments = 0usize;
        let mut cursor = 0usize; // next not-yet-ingested trace entry
        let mut now = SimTime::ZERO;

        loop {
            // Next event: earliest of (shard event, arrival, backoff wake).
            let mut t: Option<SimTime> = None;
            for w in &workers {
                if let Some(wt) = w.next_time() {
                    t = Some(t.map_or(wt, |b: SimTime| b.min(wt)));
                }
                // A worker's clock runs ahead of global time by whole batch
                // costs; each recorded batch *end* in that gap is a "capacity
                // frees here" event the door must observe at its own instant
                // (and never earlier — see `ShardWorker::serviced_at`).
                if let Some(ct) = w.next_completion_after(now) {
                    t = Some(t.map_or(ct, |b: SimTime| b.min(ct)));
                }
            }
            if let Some((arrival, _)) = entries.get(cursor) {
                t = Some(t.map_or(*arrival, |b| b.min(*arrival)));
            }
            if let Some(wake) = door.next_wakeup() {
                t = Some(t.map_or(wake, |b| b.min(wake)));
            }
            match t {
                Some(t) => now = now.max(t),
                // No events anywhere: done — unless waiters remain, in
                // which case the pool must be empty and pumping "now"
                // admits the head (see the liveness note above).
                None if door.has_active() => {}
                None => break,
            }

            // Ingest every arrival due by `now` (trace order).
            while let Some((arrival, query)) = entries.get(cursor) {
                if *arrival > now {
                    break;
                }
                let mut split: Vec<(usize, Vec<WorkItem>)> = Vec::new();
                let mut assignments = 0u64;
                for item in pre.preprocess(query) {
                    assignments += item.len() as u64;
                    let s = self.map.shard_of(item.bucket).index();
                    match split.iter_mut().find(|(shard, _)| *shard == s) {
                        Some((_, items)) => items.push(item),
                        None => split.push((s, vec![item])),
                    }
                }
                // Shard-index order = the order split_query emits fragments.
                split.sort_by_key(|(s, _)| *s);
                let class = fd.classify(assignments);
                assignments_of[cursor] = assignments;
                door.ingest(cursor, *arrival, class, assignments, split);
                cursor += 1;
            }

            // Pump the controller: wake backoffs, admit, shed, reject.
            let serviced: Vec<u64> = workers.iter().map(|w| w.serviced_at(now)).collect();
            door.pump(now, &serviced, |p, at| {
                let query_id = entries[p.index].1.id;
                let n_frags = p.split.len().max(1);
                total_fragments += n_frags;
                if n_frags > 1 {
                    cross_shard_queries += 1;
                }
                if p.split.is_empty() {
                    // Zero-work: ship the arrival itself to shard 0.
                    workers[0].append_fragments(vec![Fragment {
                        query_index: p.index,
                        query: query_id,
                        arrival: p.arrival,
                        release: at,
                        class: p.class,
                        items: Vec::new(),
                        assignments: 0,
                    }]);
                } else {
                    for (s, items) in p.split {
                        let assignments = items.iter().map(|i| i.len() as u64).sum();
                        workers[s].append_fragments(vec![Fragment {
                            query_index: p.index,
                            query: query_id,
                            arrival: p.arrival,
                            release: at,
                            class: p.class,
                            items,
                            assignments,
                        }]);
                    }
                }
            });

            // Step the earliest shard event due by `now` (ties by shard id).
            let mut earliest: Option<(SimTime, usize)> = None;
            for (i, w) in workers.iter().enumerate() {
                if let Some(wt) = w.next_time() {
                    // Strict `<` keeps the lowest shard index on time ties.
                    if earliest.map_or(true, |(bt, _)| wt < bt) {
                        earliest = Some((wt, i));
                    }
                }
            }
            if let Some((wt, i)) = earliest {
                if wt <= now {
                    let advanced = workers[i].step();
                    debug_assert!(advanced, "a shard with a next event must advance");
                }
            }
        }

        let shard_runs: Vec<ShardRun> = workers.into_iter().map(ShardWorker::into_run).collect();
        let log = door.into_log();
        let (global, front_door) =
            aggregate(trace, &assignments_of, &shard_runs, Some(&log), None, None);
        let telemetry = self.build_telemetry(trace, &shard_runs, None, Some(&log), None, None);
        let report = RuntimeReport {
            global,
            shards: shard_runs,
            cross_shard_queries,
            total_fragments,
            rebalance: None,
            front_door,
            failover: None,
            transport: None,
            telemetry,
        };
        (log, report)
    }

    /// The front-door parallel executor: routes the admitted subset of the
    /// trace up-front per the recorded log ([`route_admitted`] — fragments
    /// in admission order, released at their logged admission times) and
    /// runs the shards completely free-running. No barriers: the front door
    /// only ever *delays or drops* deliveries, so once the decisions are
    /// fixed, each shard's stream is fixed, and shard behaviour is a pure
    /// function of its stream.
    fn replay_front_door(
        &self,
        trace: &TimedTrace,
        mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler + Send>,
        log: AdmissionLog,
    ) -> RuntimeReport {
        let routing = route_admitted(self.catalog.partition(), &self.map, trace, &log);
        let total_fragments = routing.total_fragments();
        let assignments_of = routing.assignments_of;
        let cross_shard_queries = routing.cross_shard_queries;

        let workers: Vec<ShardWorker<'_, C>> = routing
            .shards
            .into_iter()
            .enumerate()
            .map(|(i, fragments)| {
                ShardWorker::new(
                    ShardId(i as u32),
                    self.catalog,
                    self.config.sim,
                    self.config.admission,
                    self.config.faults.for_shard(i as u32),
                    self.config.faults.outages_for_shard(i as u32),
                    trace.entries(),
                    fragments,
                    mk_scheduler(i),
                    self.config.telemetry.make_sink(),
                )
            })
            .collect();

        let shard_runs = run_threaded(workers);
        let (global, front_door) =
            aggregate(trace, &assignments_of, &shard_runs, Some(&log), None, None);
        let telemetry = self.build_telemetry(trace, &shard_runs, None, Some(&log), None, None);
        RuntimeReport {
            global,
            shards: shard_runs,
            cross_shard_queries,
            total_fragments,
            rebalance: None,
            front_door,
            failover: None,
            transport: None,
            telemetry,
        }
    }

    /// The failover reference pass: a stepped virtual-time merge with the
    /// crash controller in the loop — taken whenever outage windows are
    /// injected or failover is enabled. Returns the failover decision log
    /// and the epoch log (when rebalancing also runs) alongside the
    /// finished report.
    ///
    /// Four controller event sources interleave with worker events in
    /// virtual-time order; at equal instants the priority is fault boundary
    /// → epoch boundary → arrival → re-delivery, and a worker only steps
    /// while its next event is *strictly* earlier than every controller
    /// event (worker ties break on the lowest shard id):
    ///
    /// - **fault boundaries** record a [`ShardTransition`]; a down edge
    ///   with failover enabled evacuates every non-empty bucket off the
    ///   dead shard to the least-loaded survivor (working loads update as
    ///   buckets are placed; costs charge to the destinations) and updates
    ///   the elastic map, while an up edge re-admits the — now empty and
    ///   cold — shard to the pool.
    /// - **epoch boundaries** (rebalancing enabled) run the elastic
    ///   planner with dead shards masked out of [`plan_moves`].
    /// - **arrivals** split under the live map; a fragment released into a
    ///   dead shard is lost in flight and queues its first re-delivery
    ///   attempt at `arrival + redelivery_timeout`.
    /// - **re-deliveries** land the whole lost fragment on the least-loaded
    ///   live shard, or — when nothing is up — fail and back off
    ///   exponentially until `max_redeliveries` attempts reject the query
    ///   (a terminal outcome: every query still ends exactly once).
    fn plan_failover(
        &self,
        trace: &TimedTrace,
        mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler + Send>,
    ) -> (FailoverLog, Option<RebalanceLog>, RuntimeReport) {
        let fo = self.config.failover;
        let retry = fo.retry_policy();
        let rb = self.config.rebalance;
        let entries = trace.entries();
        let pre = QueryPreProcessor::new(self.catalog.partition());
        let n = self.config.n_shards as usize;

        let mut workers: Vec<ShardWorker<'_, C>> = (0..n)
            .map(|i| {
                ShardWorker::new(
                    ShardId(i as u32),
                    self.catalog,
                    self.config.sim,
                    self.config.admission,
                    self.config.faults.for_shard(i as u32),
                    self.config.faults.outages_for_shard(i as u32),
                    entries,
                    Vec::new(),
                    mk_scheduler(i),
                    self.config.telemetry.make_sink(),
                )
            })
            .collect();

        // Outage edges in processing order: time, downs before ups, shard.
        let mut boundaries: Vec<(SimTime, bool, u32)> = Vec::new();
        for o in &self.config.faults.outages {
            boundaries.push((o.down_at, false, o.shard));
            boundaries.push((o.up_at, true, o.shard));
        }
        boundaries.sort_unstable();

        let mut elastic = ElasticShardMap::new(self.map);
        let mut up = vec![true; n];
        let mut assignments_of = vec![0u64; entries.len()];
        let mut cross_shard_queries = 0usize;
        let mut total_fragments = 0usize;
        let mut split: Vec<Vec<WorkItem>> = vec![Vec::new(); n];
        let mut window: Vec<Vec<Fragment>> = vec![Vec::new(); n];
        let mut lost_scratch: Vec<(u32, Fragment)> = Vec::new();

        // One retry chain per lost fragment, keyed by creation seq — the
        // heap orders pending attempts by `(instant, seq)`.
        struct Chain {
            query_index: usize,
            from: u32,
            attempt: u32,
            fragment: Fragment,
        }
        let mut chains: HashMap<u64, Chain> = HashMap::new();
        let mut retries: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut next_seq = 0u64;
        let mut rejected_q = vec![false; entries.len()];

        let mut transitions: Vec<ShardTransition> = Vec::new();
        let mut evacuations: Vec<Evacuation> = Vec::new();
        let mut redeliveries: Vec<Redelivery> = Vec::new();
        let mut records: Vec<EpochRecord> = Vec::new();

        let mut bi = 0usize; // next outage edge
        let mut cursor = 0usize; // next unrouted trace entry
        let mut fired = 0u32; // epoch boundaries fired

        loop {
            let tb = boundaries.get(bi).map(|b| b.0);
            let te = rb
                .enabled
                .then(|| SimTime::ZERO + rb.epoch.times(fired as u64 + 1));
            let ta = entries.get(cursor).map(|e| e.0);
            let tr = retries.peek().map(|Reverse((t, _))| *t);
            let mut tw: Option<(SimTime, usize)> = None;
            for (i, w) in workers.iter().enumerate() {
                if let Some(wt) = w.next_time() {
                    // Strict `<` keeps the lowest shard index on time ties.
                    if tw.map_or(true, |(bt, _)| wt < bt) {
                        tw = Some((wt, i));
                    }
                }
            }
            // Termination mirrors `plan_elastic`: the epoch clock alone
            // (`te` ticks forever) never keeps the loop alive.
            if tb.is_none() && ta.is_none() && tr.is_none() && tw.is_none() {
                break;
            }
            let next_ctl = [tb, te, ta, tr].into_iter().flatten().min();
            if let Some((wt, i)) = tw {
                if next_ctl.map_or(true, |t| wt < t) {
                    let advanced = workers[i].step();
                    debug_assert!(advanced, "a shard with a next event must advance");
                    continue;
                }
            }
            let t = next_ctl.expect("a controller event must exist");

            if tb == Some(t) {
                let (bt, edge_up, shard) = boundaries[bi];
                bi += 1;
                let s = shard as usize;
                transitions.push(ShardTransition {
                    shard,
                    at: bt,
                    up: edge_up,
                    queued: workers[s].queued(),
                });
                up[s] = edge_up;
                if !edge_up && fo.enabled && up.iter().any(|&u| u) {
                    // Evacuate the dead shard: every non-empty bucket, in
                    // bucket order, to the least-loaded survivor (working
                    // loads update as buckets land; ties → lower shard id).
                    // The extract/absorb instant never predates the dead
                    // shard's final atomic batch.
                    let ev_at = workers[s].now().max(bt);
                    let mut working: Vec<u64> = workers.iter().map(ShardWorker::queued).collect();
                    let mut staged: Vec<(usize, MigratedBucket)> = Vec::new();
                    for (bucket, depth) in workers[s].bucket_depths() {
                        let dest = (0..n)
                            .filter(|&j| up[j])
                            .min_by_key(|&j| (working[j], j))
                            .expect("a live survivor exists");
                        working[dest] += depth;
                        let p = workers[s].extract_bucket(bucket, ev_at, true);
                        debug_assert_eq!(p.len() as u64, depth, "depth sample drifted");
                        evacuations.push(Evacuation {
                            boundary: bt,
                            at: ev_at,
                            bucket,
                            from: shard,
                            to: dest as u32,
                            entries: p.len() as u64,
                            was_resident: p.was_resident,
                        });
                        elastic.reassign(bucket, ShardId(dest as u32));
                        staged.push((dest, p));
                    }
                    // Absorb per destination in bucket order — the canonical
                    // order the threaded replay reproduces.
                    staged.sort_by_key(|(to, p)| (*to, p.bucket));
                    for (to, p) in staged {
                        let cost =
                            fo.evacuation_fixed + fo.evacuation_per_entry.times(p.len() as u64);
                        workers[to].absorb_payload(p, ev_at, cost, fo.warm_residency);
                    }
                }
                continue;
            }

            if te == Some(t) {
                // Epoch boundary, exactly `plan_elastic` with dead shards
                // masked out of the planner.
                fired += 1;
                let loads: Vec<u64> = workers.iter().map(ShardWorker::queued).collect();
                let depths: Vec<Vec<_>> = workers.iter().map(ShardWorker::bucket_depths).collect();
                let moves = plan_moves(&rb, &loads, &depths, &up);
                let mut payloads: Vec<(usize, MigratedBucket)> = moves
                    .iter()
                    .map(|m| {
                        let p =
                            workers[m.from.index()].extract_bucket(m.bucket, t, rb.warm_residency);
                        debug_assert_eq!(p.len() as u64, m.entries, "plan drifted from state");
                        (m.to.index(), p)
                    })
                    .collect();
                payloads.sort_by_key(|(to, p)| (*to, p.bucket));
                for (to, p) in payloads {
                    let cost = rb.migration_fixed + rb.migration_per_entry.times(p.len() as u64);
                    workers[to].absorb_payload(p, t, cost, rb.warm_residency);
                }
                records.push(EpochRecord {
                    epoch: fired,
                    at: t,
                    loads,
                    serviced: workers.iter().map(ShardWorker::serviced).collect(),
                    resident: workers.iter().map(|w| w.resident() as u32).collect(),
                    moves: moves.clone(),
                });
                for m in &moves {
                    elastic.reassign(m.bucket, m.to);
                }
                continue;
            }

            if ta == Some(t) {
                let (arrival, query) = &entries[cursor];
                let (delivered, fragments, assignments) = split_failover_arrival(
                    &pre,
                    cursor,
                    *arrival,
                    query,
                    fo.enabled,
                    &up,
                    &elastic,
                    &mut split,
                    &mut window,
                    &mut lost_scratch,
                );
                if fragments > 1 {
                    cross_shard_queries += 1;
                }
                assignments_of[cursor] = assignments;
                total_fragments += delivered as usize;
                for (from, f) in lost_scratch.drain(..) {
                    let seq = next_seq;
                    next_seq += 1;
                    chains.insert(
                        seq,
                        Chain {
                            query_index: cursor,
                            from,
                            attempt: 0,
                            fragment: f,
                        },
                    );
                    retries.push(Reverse((retry.deadline_after(*arrival, 0), seq)));
                }
                for (w, frags) in workers.iter_mut().zip(window.iter_mut()) {
                    if !frags.is_empty() {
                        w.append_fragments(std::mem::take(frags));
                    }
                }
                cursor += 1;
                continue;
            }

            // Re-delivery attempt.
            let Reverse((at, seq)) = retries.pop().expect("a retry event must exist");
            debug_assert_eq!(at, t);
            if rejected_q[chains[&seq].query_index] {
                // A sibling chain already rejected this query terminally —
                // the pending attempt is moot and goes unlogged.
                chains.remove(&seq);
                continue;
            }
            let chain = chains.get_mut(&seq).expect("a chain outlives its retries");
            chain.attempt += 1;
            let (query_index, attempt) = (chain.query_index, chain.attempt);
            let dest = (0..n)
                .filter(|&j| up[j])
                .min_by_key(|&j| (workers[j].queued(), j));
            redeliveries.push(Redelivery {
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
                    let c = chains.remove(&seq).expect("chain present");
                    total_fragments += 1;
                    workers[d].append_fragments(vec![Fragment {
                        release: at,
                        ..c.fragment
                    }]);
                }
                None if attempt >= fo.max_redeliveries => {
                    // Out of attempts with nothing up: terminal rejection.
                    rejected_q[query_index] = true;
                    chains.remove(&seq);
                }
                None => {
                    // Nothing up: exponential backoff, then try again.
                    retries.push(Reverse((retry.deadline_after(at, attempt), seq)));
                }
            }
        }

        let fo_log = FailoverLog {
            transitions,
            evacuations,
            redeliveries,
        };
        let arrivals: Vec<SimTime> = entries.iter().map(|(t, _)| *t).collect();
        let rejected = fo_log.rejected_queries(fo.max_redeliveries, &arrivals, &assignments_of);
        debug_assert_eq!(
            rejected.len(),
            rejected_q.iter().filter(|&&r| r).count(),
            "log-derived rejections must match the planner's"
        );
        let mut fo_rejected = vec![false; entries.len()];
        for r in &rejected {
            fo_rejected[r.index] = true;
        }
        let recovery_lag = recovery_lag_probe(&fo_log, |d, t| workers[d].next_completion_after(t));

        let shard_runs: Vec<ShardRun> = workers.into_iter().map(ShardWorker::into_run).collect();
        let rb_log = rb.enabled.then_some(RebalanceLog {
            epoch: rb.epoch,
            records,
        });
        let (global, _) = aggregate(
            trace,
            &assignments_of,
            &shard_runs,
            None,
            Some(&fo_rejected),
            None,
        );
        let failover = build_failover_report(
            &fo_log,
            trace,
            &assignments_of,
            rejected,
            &global,
            recovery_lag,
        );
        let telemetry = self.build_telemetry(
            trace,
            &shard_runs,
            rb_log.as_ref(),
            None,
            Some(&fo_log),
            None,
        );
        let report = RuntimeReport {
            global,
            shards: shard_runs,
            cross_shard_queries,
            total_fragments,
            rebalance: rb_log.clone(),
            front_door: None,
            failover: Some(failover),
            transport: None,
            telemetry,
        };
        (fo_log, rb_log, report)
    }

    /// The failover parallel executor: routes the whole trace up-front
    /// under the recorded logs ([`route_failover`]) and replays the plan
    /// verbatim — one thread per shard, with a double-barrier handshake per
    /// *sync round*. A sync round is a down boundary that evacuated buckets
    /// or a move-bearing epoch record, merged in the planner's processing
    /// order (downs before epochs at equal instants): step to the boundary,
    /// barrier, send outgoing payloads, barrier, absorb incoming ones in
    /// bucket order. Up edges, loss, and re-delivery need no coordination —
    /// they are already baked into the routed fragment streams.
    fn replay_failover(
        &self,
        trace: &TimedTrace,
        mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler + Send>,
        fo_log: FailoverLog,
        rb_log: Option<RebalanceLog>,
    ) -> RuntimeReport {
        let fo = self.config.failover;
        let rb = self.config.rebalance;
        let routing = route_failover(
            self.catalog.partition(),
            &self.map,
            fo.enabled,
            &fo_log,
            rb_log.as_ref(),
            trace,
        );
        let total_fragments = routing.total_fragments();
        let assignments_of = routing.assignments_of;
        let cross_shard_queries = routing.cross_shard_queries;
        let n = self.config.n_shards as usize;

        let workers: Vec<ShardWorker<'_, C>> = routing
            .shards
            .into_iter()
            .enumerate()
            .map(|(i, fragments)| {
                ShardWorker::new(
                    ShardId(i as u32),
                    self.catalog,
                    self.config.sim,
                    self.config.admission,
                    self.config.faults.for_shard(i as u32),
                    self.config.faults.outages_for_shard(i as u32),
                    trace.entries(),
                    fragments,
                    mk_scheduler(i),
                    self.config.telemetry.make_sink(),
                )
            })
            .collect();

        // Sync rounds in planner order. Two down edges at one instant stay
        // *sequential* rounds (in transition order) — a bucket evacuated
        // onto a shard that dies at the same instant moves again in the
        // second round, exactly as the planner decided.
        enum Round<'l> {
            Evac {
                boundary: SimTime,
                evacs: Vec<&'l Evacuation>,
            },
            Epoch(&'l EpochRecord),
        }
        let down_rounds: Vec<(SimTime, Vec<&Evacuation>)> = fo_log
            .transitions
            .iter()
            .filter(|tr| !tr.up)
            .map(|tr| {
                let evacs: Vec<&Evacuation> = fo_log
                    .evacuations
                    .iter()
                    .filter(|e| e.boundary == tr.at && e.from == tr.shard)
                    .collect();
                (tr.at, evacs)
            })
            .filter(|(_, evacs)| !evacs.is_empty())
            .collect();
        let epoch_rounds: Vec<&EpochRecord> = rb_log.as_ref().map_or(Vec::new(), |l| {
            l.records.iter().filter(|r| !r.moves.is_empty()).collect()
        });
        let mut rounds: Vec<Round<'_>> = Vec::new();
        {
            let mut di = down_rounds.into_iter().peekable();
            let mut ei = epoch_rounds.into_iter().peekable();
            loop {
                let take_down = match (di.peek(), ei.peek()) {
                    (Some(d), Some(e)) => d.0 <= e.at,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                if take_down {
                    let (boundary, evacs) = di.next().expect("peeked");
                    rounds.push(Round::Evac { boundary, evacs });
                } else {
                    rounds.push(Round::Epoch(ei.next().expect("peeked")));
                }
            }
        }

        let last_ev: Option<SimTime> = fo_log.evacuations.iter().map(|e| e.at).max();
        let barrier = Barrier::new(n);
        type Payload<'q> = (SimTime, SimDuration, bool, MigratedBucket<'q>);
        let mut senders: Vec<mpsc::Sender<Payload>> = Vec::with_capacity(n);
        let mut receivers: Vec<mpsc::Receiver<Payload>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let (tx_done, rx_done) = mpsc::channel::<(usize, (ShardRun, Option<SimTime>))>();
        std::thread::scope(|scope| {
            for ((i, mut worker), rx) in workers.into_iter().enumerate().zip(receivers) {
                let tx_done = tx_done.clone();
                let senders = senders.clone();
                let barrier = &barrier;
                let rounds = &rounds;
                scope.spawn(move || {
                    for round in rounds {
                        let t = match round {
                            Round::Evac { boundary, .. } => *boundary,
                            Round::Epoch(rec) => rec.at,
                        };
                        while worker.next_time().is_some_and(|wt| wt < t) {
                            worker.step();
                        }
                        barrier.wait();
                        match round {
                            Round::Evac { evacs, .. } => {
                                for e in evacs {
                                    if e.from as usize != i {
                                        continue;
                                    }
                                    let p = worker.extract_bucket(e.bucket, e.at, true);
                                    assert_eq!(
                                        p.len() as u64,
                                        e.entries,
                                        "replay diverged from plan"
                                    );
                                    let cost = fo.evacuation_fixed
                                        + fo.evacuation_per_entry.times(p.len() as u64);
                                    senders[e.to as usize]
                                        .send((e.at, cost, fo.warm_residency, p))
                                        .expect("peer outlives the handshake");
                                }
                            }
                            Round::Epoch(rec) => {
                                for m in &rec.moves {
                                    if m.from.index() != i {
                                        continue;
                                    }
                                    let p = worker.extract_bucket(m.bucket, t, rb.warm_residency);
                                    assert_eq!(
                                        p.len() as u64,
                                        m.entries,
                                        "replay diverged from plan"
                                    );
                                    let cost = rb.migration_fixed
                                        + rb.migration_per_entry.times(p.len() as u64);
                                    senders[m.to.index()]
                                        .send((t, cost, rb.warm_residency, p))
                                        .expect("peer outlives the handshake");
                                }
                            }
                        }
                        barrier.wait();
                        let mut incoming: Vec<Payload> = rx.try_iter().collect();
                        incoming.sort_by_key(|(_, _, _, p)| p.bucket);
                        for (at, cost, warm, p) in incoming {
                            worker.absorb_payload(p, at, cost, warm);
                        }
                    }
                    while worker.step() {}
                    let probe = last_ev.and_then(|t| worker.next_completion_after(t));
                    tx_done
                        .send((i, (worker.into_run(), probe)))
                        .expect("the driver outlives its workers");
                });
            }
        });
        drop(tx_done);
        let finished: Vec<(ShardRun, Option<SimTime>)> = crate::sweep::collect_indexed(rx_done, n);
        let probes: Vec<Option<SimTime>> = finished.iter().map(|(_, p)| *p).collect();
        let shard_runs: Vec<ShardRun> = finished.into_iter().map(|(r, _)| r).collect();
        let recovery_lag = recovery_lag_probe(&fo_log, |d, _| probes[d]);

        let entries = trace.entries();
        let arrivals: Vec<SimTime> = entries.iter().map(|(t, _)| *t).collect();
        let rejected = fo_log.rejected_queries(fo.max_redeliveries, &arrivals, &assignments_of);
        let mut fo_rejected = vec![false; entries.len()];
        for r in &rejected {
            fo_rejected[r.index] = true;
        }
        let (global, _) = aggregate(
            trace,
            &assignments_of,
            &shard_runs,
            None,
            Some(&fo_rejected),
            None,
        );
        let failover = build_failover_report(
            &fo_log,
            trace,
            &assignments_of,
            rejected,
            &global,
            recovery_lag,
        );
        let telemetry = self.build_telemetry(
            trace,
            &shard_runs,
            rb_log.as_ref(),
            None,
            Some(&fo_log),
            None,
        );
        RuntimeReport {
            global,
            shards: shard_runs,
            cross_shard_queries,
            total_fragments,
            rebalance: rb_log,
            front_door: None,
            failover: Some(failover),
            transport: None,
            telemetry,
        }
    }

    /// Folds the per-shard event streams plus controller events synthesized
    /// from the decision logs into the flight-recorder report. `None` when
    /// telemetry is off.
    ///
    /// The merge mirrors [`aggregate`]'s canonical completion order exactly:
    /// each shard's stream is keyed by its *running clock* (the prefix-max
    /// of event times over record order — a query arrival keeps its true
    /// arrival instant, which can precede the batch boundary it was recorded
    /// at), and streams interleave by `(clock, shard, seq)`. Controller
    /// events ride the [`ROUTER_SHARD`] pseudo-shard, which sorts after
    /// every real shard. Because each shard's stream is a pure function of
    /// its own fragment sequence and the logs replay verbatim, stepped and
    /// threaded executions produce byte-identical merged streams.
    fn build_telemetry(
        &self,
        trace: &TimedTrace,
        shard_runs: &[ShardRun],
        rebalance: Option<&RebalanceLog>,
        admission: Option<&AdmissionLog>,
        failover: Option<&FailoverLog>,
        transport: Option<&TransportLog>,
    ) -> Option<TelemetryReport> {
        if !self.config.telemetry.enabled() {
            return None;
        }
        let mut keyed: Vec<(SimTime, u32, u64, Event)> = Vec::new();
        for run in shard_runs {
            let mut clock = SimTime::ZERO;
            for e in &run.events {
                clock = clock.max(e.time);
                keyed.push((clock, e.shard, e.seq, e.clone()));
            }
        }

        let mut router: Vec<Event> = Vec::new();
        let stamp = |time: SimTime, kind: EventKind| Event {
            time,
            shard: ROUTER_SHARD,
            seq: 0, // densified below, after the time sort
            kind,
        };
        if let Some(log) = rebalance {
            let rb = &self.config.rebalance;
            for rec in &log.records {
                for m in &rec.moves {
                    router.push(stamp(
                        rec.at,
                        EventKind::MigrationPlanned {
                            epoch: rec.epoch,
                            bucket: m.bucket.0,
                            from: m.from.0,
                            to: m.to.0,
                            entries: m.entries,
                        },
                    ));
                }
                // Application order is the executors' canonical absorb
                // order: per destination, in bucket order.
                let mut applies: Vec<_> = rec.moves.iter().collect();
                applies.sort_by_key(|m| (m.to, m.bucket));
                for m in applies {
                    let cost = rb.migration_fixed + rb.migration_per_entry.times(m.entries);
                    router.push(stamp(
                        rec.at,
                        EventKind::MigrationApplied {
                            epoch: rec.epoch,
                            bucket: m.bucket.0,
                            to: m.to.0,
                            cost,
                        },
                    ));
                }
            }
        }
        if let Some(log) = admission {
            let entries = trace.entries();
            for (i, v) in log.verdicts.iter().enumerate() {
                let arrival = entries[i].0;
                match v.decision {
                    Disposition::Admitted { at, .. } => router.push(stamp(
                        at,
                        EventKind::Admitted {
                            query_index: i as u64,
                            class: v.class.rank() as u8,
                            assignments: v.assignments,
                            sheds: v.sheds,
                            waited: at.since(arrival),
                        },
                    )),
                    Disposition::Rejected { at } => router.push(stamp(
                        at,
                        EventKind::Rejected {
                            query_index: i as u64,
                            class: v.class.rank() as u8,
                            assignments: v.assignments,
                            sheds: v.sheds,
                        },
                    )),
                }
            }
            for s in &log.samples {
                router.push(stamp(
                    s.at,
                    EventKind::AdmissionSampled {
                        epoch: s.epoch,
                        inflight: s.inflight_assignments,
                        waiting: s.waiting_assignments,
                        backoff: s.backoff_queries as u64,
                        admitted: s.admitted,
                        shed_events: s.shed_events,
                        rejected: s.rejected,
                    },
                ));
            }
        }
        if let Some(log) = failover {
            for t in &log.transitions {
                router.push(stamp(
                    t.at,
                    if t.up {
                        EventKind::ShardUp { target: t.shard }
                    } else {
                        EventKind::ShardDown {
                            target: t.shard,
                            queued: t.queued,
                        }
                    },
                ));
            }
            for e in &log.evacuations {
                router.push(stamp(
                    e.at,
                    EventKind::BucketEvacuated {
                        bucket: e.bucket.0,
                        from: e.from,
                        to: e.to,
                        entries: e.entries,
                        resident: e.was_resident,
                    },
                ));
            }
            for r in &log.redeliveries {
                router.push(stamp(
                    r.at,
                    EventKind::FragmentRetried {
                        query: r.query_index as u64,
                        from: r.from,
                        attempt: r.attempt,
                        delivered: r.to.is_some(),
                        // Failed attempts had no live destination at all.
                        to: r.to.unwrap_or(u32::MAX),
                    },
                ));
            }
        }
        if let Some(log) = transport {
            for d in &log.drops {
                router.push(stamp(
                    d.at,
                    EventKind::FragmentDropped {
                        query: d.query_index as u64,
                        shard: d.shard,
                        to_shard: matches!(d.direction, LinkDirection::ToShard),
                        attempt: d.attempt,
                    },
                ));
            }
            for r in &log.retransmits {
                router.push(stamp(
                    r.at,
                    EventKind::FragmentRetransmitted {
                        query: r.query_index as u64,
                        shard: r.shard,
                        attempt: r.attempt,
                    },
                ));
            }
            for s in &log.suppressed {
                router.push(stamp(
                    s.at,
                    EventKind::DuplicateSuppressed {
                        query: s.query_index as u64,
                        shard: s.shard,
                        attempt: s.attempt,
                    },
                ));
            }
            for h in &log.hedges {
                router.push(stamp(
                    h.at,
                    EventKind::FragmentHedged {
                        query: h.query_index as u64,
                        from: h.from,
                        to: h.to,
                        entries: h.entries,
                    },
                ));
            }
        }
        // Stable by construction order within a time tie — all the logs are
        // deterministic, so the router stream is too.
        router.sort_by_key(|e| e.time);
        for (seq, mut e) in router.into_iter().enumerate() {
            e.seq = seq as u64;
            keyed.push((e.time, ROUTER_SHARD, seq as u64, e));
        }

        keyed.sort_unstable_by_key(|&(clock, shard, seq, _)| (clock, shard, seq));
        let events: Vec<Event> = keyed.into_iter().map(|(_, _, _, e)| e).collect();
        Some(TelemetryReport::build(
            events,
            self.config.n_shards,
            self.config.telemetry.window,
        ))
    }
}

/// The reference executor: a deterministic virtual-time merge. Repeatedly
/// advance the shard with the earliest next event (ties broken by shard id)
/// by exactly one event until every shard has drained.
fn run_stepped<C: Catalog + ?Sized>(mut workers: Vec<ShardWorker<'_, C>>) -> Vec<ShardRun> {
    loop {
        let mut earliest: Option<(SimTime, usize)> = None;
        for (i, w) in workers.iter().enumerate() {
            if let Some(t) = w.next_time() {
                // Strict `<` keeps the lowest shard index on time ties.
                if earliest.map_or(true, |(bt, _)| t < bt) {
                    earliest = Some((t, i));
                }
            }
        }
        let Some((_, i)) = earliest else { break };
        let advanced = workers[i].step();
        debug_assert!(advanced, "a shard with a next event must advance");
    }
    workers.into_iter().map(ShardWorker::into_run).collect()
}

/// The parallel executor: one OS thread per shard, fragment streams fixed
/// up-front, finished runs returned over an `mpsc` channel and re-ordered
/// by shard id.
fn run_threaded<C: Catalog + Sync + ?Sized>(workers: Vec<ShardWorker<'_, C>>) -> Vec<ShardRun> {
    let n = workers.len();
    let (tx, rx) = mpsc::channel::<(usize, ShardRun)>();
    std::thread::scope(|scope| {
        for (i, mut worker) in workers.into_iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                while worker.step() {}
                tx.send((i, worker.into_run()))
                    .expect("the driver outlives its workers");
            });
        }
    });
    drop(tx);
    crate::sweep::collect_indexed(rx, n)
}

/// Folds per-shard fragment runs into the query-level global report.
///
/// Fragment completions are merged in the canonical `(shard clock, shard,
/// shard event order)` order; a query completes at the merged event where
/// its serviced assignments reach the routed total, with completion *time*
/// the max over its per-shard completions (for a zero-work query's single
/// empty fragment: its arrival).
///
/// Counting **assignments** rather than fragments is what makes the fold
/// migration-proof: under rebalancing a query's work can leave a shard
/// mid-flight (the source records a partial outcome covering only what it
/// serviced locally) and even revisit a shard it already completed on (a
/// second outcome). Per-shard outcome assignments always sum to the routed
/// total — every assignment is serviced exactly once, somewhere — so the
/// fold is exact for static and elastic runs alike, and positionally
/// identical to fragment counting when no migration happens.
///
/// With a front-door `admission` log, rejected queries routed no fragments:
/// they are excluded from the completion fold (the conservation assert
/// becomes "every *admitted* query completes exactly once") and accounted
/// in the returned [`FrontDoorReport`] instead, alongside per-class
/// response/TTFB statistics.
///
/// With a `failover_rejected` mask, the marked queries lost a fragment to a
/// dead shard (or, on the transport path, exhausted the retransmission
/// budget) and were terminally rejected: unlike a door rejection they may
/// have been *partially* serviced (their surviving fragments completed on
/// live shards), so they are allowed service but must never fully complete —
/// the fold asserts they stay un-emitted and excludes them from the
/// conservation count. The two rejection sources are mutually exclusive
/// (config validation forbids front door × outages).
///
/// With a `hedge_losers` set, the marked `(query, shard)` completions are
/// hedge-race losers: the same fragment already completed on the winning
/// shard, so the loser's outcome is excluded from the fold entirely (its
/// serviced entries still count in the per-shard counters — duplicated work
/// is real work). Without the exclusion the winner + loser pair would
/// double-count the fragment's assignments and trip the over-service
/// assert.
fn aggregate(
    trace: &TimedTrace,
    assignments_of: &[u64],
    shard_runs: &[ShardRun],
    admission: Option<&AdmissionLog>,
    failover_rejected: Option<&[bool]>,
    hedge_losers: Option<&std::collections::HashSet<(QueryId, u32)>>,
) -> (RunReport, Option<FrontDoorReport>) {
    let entries = trace.entries();
    let index_of: HashMap<QueryId, usize> = entries
        .iter()
        .enumerate()
        .map(|(i, (_, q))| (q.id, i))
        .collect();
    let rejected_at: Vec<bool> = match admission {
        Some(log) => log.verdicts.iter().map(|v| !v.admitted()).collect(),
        None => vec![false; entries.len()],
    };
    let no_fo = vec![false; entries.len()];
    let fo_rejected: &[bool] = failover_rejected.unwrap_or(&no_fo);
    assert!(
        admission.is_none() || failover_rejected.is_none(),
        "front-door and failover rejections cannot coexist"
    );
    let n_rejected = rejected_at
        .iter()
        .zip(fo_rejected)
        .filter(|&(&d, &f)| d || f)
        .count();

    // Canonical merged completion stream. Every query has at least one
    // fragment (zero-work queries ship an empty fragment to shard 0), so
    // per-shard outcomes cover the whole trace. The merge key is the
    // shard's *running clock* (the prefix-max of completion times — the
    // shard-local virtual time at which each outcome was recorded), not the
    // raw completion: a zero-work fragment completes at its arrival but is
    // recorded at the following batch boundary, and keying on the clock
    // preserves each shard's record order — which is exactly the
    // single-engine push order, so a 1-shard runtime reproduces
    // `Simulation`'s outcome sequence bit-for-bit.
    let mut events: Vec<(SimTime, u32, u32, QueryId, SimTime, u64)> = Vec::new();
    for run in shard_runs {
        let mut clock = SimTime::ZERO;
        for (seq, o) in run.report.outcomes.iter().enumerate() {
            clock = clock.max(o.completion);
            events.push((
                clock,
                run.shard.0,
                seq as u32,
                o.query,
                o.completion,
                o.assignments,
            ));
        }
    }
    events.sort_unstable_by_key(|&(clock, shard, seq, _, _, _)| (clock, shard, seq));

    let mut remaining: Vec<u64> = assignments_of.to_vec();
    let mut emitted = vec![false; entries.len()];
    let mut last_done: Vec<SimTime> = vec![SimTime::ZERO; entries.len()];
    let mut first_done: Vec<Option<SimTime>> = vec![None; entries.len()];
    let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(entries.len() - n_rejected);
    for (_, shard, _, query, completion, assignments) in events {
        let i = index_of[&query];
        if hedge_losers.is_some_and(|l| l.contains(&(query, shard))) {
            continue; // the winning copy already covered these assignments
        }
        assert!(
            !rejected_at[i],
            "query {query} was rejected yet a shard serviced it"
        );
        assert!(
            remaining[i] >= assignments,
            "query {query} over-serviced across shards"
        );
        remaining[i] -= assignments;
        last_done[i] = last_done[i].max(completion);
        first_done[i] = Some(first_done[i].map_or(completion, |f| f.min(completion)));
        if remaining[i] > 0 || emitted[i] {
            continue; // more assignments outstanding elsewhere
        }
        assert!(
            !fo_rejected[i],
            "query {query} was rejected by failover yet fully serviced"
        );
        emitted[i] = true;
        outcomes.push(QueryOutcome {
            query,
            // A query completes when its last assignment is serviced; for
            // the zero-work single-fragment case this is its arrival.
            arrival: entries[i].0,
            completion: last_done[i],
            assignments: assignments_of[i],
        });
    }
    assert_eq!(
        outcomes.len(),
        entries.len() - n_rejected,
        "every admitted query must complete exactly once"
    );

    let response = Summary::from_samples(
        outcomes
            .iter()
            .map(|o| o.response_time().as_secs_f64())
            .collect(),
    );
    let makespan_s = outcomes
        .iter()
        .map(|o| o.completion.as_secs_f64())
        .fold(0.0, f64::max);
    let throughput_qps = if makespan_s > 0.0 {
        outcomes.len() as f64 / makespan_s
    } else {
        0.0
    };

    let mut cache = CacheStats::default();
    let mut io = IoStats::new();
    let (mut batches, mut scan_batches, mut indexed_batches) = (0u64, 0u64, 0u64);
    let (mut serviced_entries, mut cache_serviced_entries, mut total_matches) = (0u64, 0u64, 0u64);
    let (mut frontier_picks, mut fallback_picks) = (0u64, 0u64);
    let mut max_wait_ms = 0.0f64;
    for run in shard_runs {
        let r = &run.report;
        cache.merge(&r.cache);
        io.merge(&r.io);
        batches += r.batches;
        scan_batches += r.scan_batches;
        indexed_batches += r.indexed_batches;
        serviced_entries += r.serviced_entries;
        cache_serviced_entries += r.cache_serviced_entries;
        frontier_picks += r.frontier_picks;
        fallback_picks += r.fallback_picks;
        total_matches += r.total_matches;
        max_wait_ms = max_wait_ms.max(r.max_wait_ms);
    }

    let scheduler = format!(
        "Sharded[{}×{}]",
        shard_runs.len(),
        shard_runs
            .first()
            .map(|r| r.report.scheduler.as_str())
            .unwrap_or("∅")
    );
    let front_door = admission
        .map(|log| build_front_door_report(log, entries, &emitted, &last_done, &first_done));
    let global = RunReport {
        scheduler,
        queries: outcomes.len(),
        makespan_s,
        throughput_qps,
        response,
        cache,
        io,
        batches,
        scan_batches,
        indexed_batches,
        serviced_entries,
        cache_serviced_entries,
        frontier_picks,
        fallback_picks,
        total_matches,
        max_wait_ms,
        outcomes,
    };
    (global, front_door)
}

/// Folds the admission log and the per-query completion instants into the
/// [`FrontDoorReport`]: rejected-query records plus per-class counters and
/// response/TTFB summaries.
fn build_front_door_report(
    log: &AdmissionLog,
    entries: &[(SimTime, liferaft_query::CrossMatchQuery)],
    emitted: &[bool],
    last_done: &[SimTime],
    first_done: &[Option<SimTime>],
) -> FrontDoorReport {
    let mut rejected: Vec<RejectedQuery> = Vec::new();
    let mut per_class: [ClassStats; 3] = QueryClass::ALL.map(|class| ClassStats {
        class,
        submitted: 0,
        admitted: 0,
        deferred: 0,
        shed_events: 0,
        rejected: 0,
        max_retries: 0,
        response: Summary::from_samples(Vec::new()),
        ttfb: Summary::from_samples(Vec::new()),
    });
    let mut response: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut ttfb: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];

    for (i, v) in log.verdicts.iter().enumerate() {
        let arrival = entries[i].0;
        let c = v.class.rank();
        let stats = &mut per_class[c];
        stats.submitted += 1;
        stats.shed_events += v.sheds as u64;
        stats.max_retries = stats.max_retries.max(v.sheds);
        match v.decision {
            Disposition::Admitted { at, .. } => {
                stats.admitted += 1;
                if at > arrival {
                    stats.deferred += 1;
                }
                assert!(emitted[i], "admitted query {i} never completed");
                response[c].push(last_done[i].since(arrival).as_secs_f64());
                let first = first_done[i].expect("completed query has a first fragment");
                // A zero-work query's only event can be recorded at a later
                // batch boundary; its true first byte is its arrival.
                ttfb[c].push(first.max(arrival).since(arrival).as_secs_f64());
            }
            Disposition::Rejected { at } => {
                stats.rejected += 1;
                rejected.push(RejectedQuery {
                    index: i,
                    arrival,
                    rejected_at: at,
                    class: v.class,
                    assignments: v.assignments,
                    retries: v.sheds,
                });
            }
        }
    }
    for (c, (r, t)) in response.into_iter().zip(ttfb).enumerate() {
        per_class[c].response = Summary::from_samples(r);
        per_class[c].ttfb = Summary::from_samples(t);
    }
    FrontDoorReport {
        log: log.clone(),
        rejected,
        per_class,
    }
}

/// The recovery-lag headline: the gap between the last evacuation instant
/// and the earliest batch a *destination* shard completed after it (`None`
/// when nothing was evacuated, or no destination completed work afterward).
/// `probe(shard, t)` reads that shard's first recorded batch completion
/// strictly after `t`.
fn recovery_lag_probe(
    log: &FailoverLog,
    mut probe: impl FnMut(usize, SimTime) -> Option<SimTime>,
) -> Option<SimDuration> {
    let t = log.evacuations.iter().map(|e| e.at).max()?;
    log.evacuations
        .iter()
        .filter_map(|e| probe(e.to as usize, t))
        .min()
        .map(|ct| ct.since(t))
}

/// Folds the failover log, the rejection records, and the global outcomes
/// into the [`FailoverReport`], asserting terminal-outcome conservation per
/// class: every query either completed or was rejected, exactly once.
/// Classes come from the front-door thresholds applied to routed workload
/// (the door itself is off — validation forbids combining it with outages).
fn build_failover_report(
    log: &FailoverLog,
    trace: &TimedTrace,
    assignments_of: &[u64],
    rejected: Vec<FailedQuery>,
    global: &RunReport,
    recovery_lag: Option<SimDuration>,
) -> FailoverReport {
    let entries = trace.entries();
    let classes = FrontDoorConfig::disabled();
    let index_of: HashMap<QueryId, usize> = entries
        .iter()
        .enumerate()
        .map(|(i, (_, q))| (q.id, i))
        .collect();
    let mut per_class: [ClassConservation; 3] = QueryClass::ALL.map(|class| ClassConservation {
        class,
        submitted: 0,
        completed: 0,
        rejected: 0,
    });
    for assignments in assignments_of {
        per_class[classes.classify(*assignments).rank()].submitted += 1;
    }
    for o in &global.outcomes {
        per_class[classes.classify(assignments_of[index_of[&o.query]]).rank()].completed += 1;
    }
    for r in &rejected {
        per_class[classes.classify(r.assignments).rank()].rejected += 1;
    }
    for c in &per_class {
        assert_eq!(
            c.completed + c.rejected,
            c.submitted,
            "{:?} queries lost track of a terminal outcome",
            c.class
        );
    }
    FailoverReport {
        log: log.clone(),
        rejected,
        per_class,
        recovery_lag,
    }
}

/// Folds the transport log, the rejection records, and the global outcomes
/// into the [`TransportReport`], asserting terminal-outcome conservation per
/// class exactly like [`build_failover_report`]: every query either
/// completed or was rejected, exactly once, whatever the links dropped.
#[allow(clippy::too_many_arguments)]
fn build_transport_report(
    log: &TransportLog,
    trace: &TimedTrace,
    assignments_of: &[u64],
    rejected: Vec<FailedQuery>,
    global: &RunReport,
    hedge_wins: u64,
    hedge_losses: u64,
) -> TransportReport {
    let entries = trace.entries();
    let classes = FrontDoorConfig::disabled();
    let index_of: HashMap<QueryId, usize> = entries
        .iter()
        .enumerate()
        .map(|(i, (_, q))| (q.id, i))
        .collect();
    let mut per_class: [ClassConservation; 3] = QueryClass::ALL.map(|class| ClassConservation {
        class,
        submitted: 0,
        completed: 0,
        rejected: 0,
    });
    for assignments in assignments_of {
        per_class[classes.classify(*assignments).rank()].submitted += 1;
    }
    for o in &global.outcomes {
        per_class[classes.classify(assignments_of[index_of[&o.query]]).rank()].completed += 1;
    }
    for r in &rejected {
        per_class[classes.classify(r.assignments).rank()].rejected += 1;
    }
    for c in &per_class {
        assert_eq!(
            c.completed + c.rejected,
            c.submitted,
            "{:?} queries lost track of a terminal outcome in transit",
            c.class
        );
    }
    TransportReport {
        log: log.clone(),
        rejected,
        per_class,
        hedge_wins,
        hedge_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdmissionConfig;
    use crate::shard::ShardAssignment;
    use liferaft_catalog::{generate::uniform_sky, MaterializedCatalog};
    use liferaft_core::{LifeRaftScheduler, MetricParams, NoShareScheduler};
    use liferaft_query::{CrossMatchQuery, Predicate};
    use liferaft_sim::SimConfig;
    use liferaft_workload::arrivals::uniform_arrivals;
    use liferaft_workload::Trace;

    const LEVEL: u8 = 8;

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
        Box::new(LifeRaftScheduler::greedy(MetricParams::paper()))
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
                assert_eq!(a.admission, b.admission);
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
    fn admission_bound_defers_but_preserves_completion() {
        let (cat, timed) = fixture(20, 5.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        config.admission = AdmissionConfig::bounded(40);
        let rt = ShardedRuntime::new(&cat, config.clone());
        let bounded_stepped = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let bounded_threaded = rt.run(&timed, &mut |_| greedy(), ExecMode::Threaded);
        assert_eq!(
            bounded_stepped.global.outcomes, bounded_threaded.global.outcomes,
            "backpressure must stay deterministic across modes"
        );
        assert_eq!(bounded_stepped.global.outcomes.len(), 20);
        let deferred: u64 = bounded_stepped
            .shards
            .iter()
            .map(|s| s.admission.deferred_fragments)
            .sum();
        assert!(deferred > 0, "a tight bound must actually defer");
        for s in &bounded_stepped.shards {
            // Peak backlog may overshoot by at most one fragment's worth of
            // entries (the limit is checked before admission), but stays
            // near the bound rather than absorbing the whole trace.
            assert!(s.admission.peak_backlog >= 1);
        }
        // Unbounded admission never defers.
        let mut open = config.clone();
        open.admission = AdmissionConfig::unbounded();
        let rt = ShardedRuntime::new(&cat, open);
        let free = rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        assert!(free
            .shards
            .iter()
            .all(|s| s.admission.deferred_fragments == 0));
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
        let mut s = LifeRaftScheduler::greedy(MetricParams::paper());
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
            assert_eq!(a.admission, b.admission);
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
            assert_eq!(a.admission, b.admission);
        }
        let fd_report = stepped.front_door.as_ref().expect("front-door runs report");
        // Exactly-once terminal accounting: completed + rejected = trace.
        assert_eq!(
            stepped.global.outcomes.len() + fd_report.rejected.len(),
            timed.len()
        );
        let submitted: u64 = fd_report.per_class.iter().map(|c| c.submitted).sum();
        assert_eq!(submitted, timed.len() as u64);
        // A tight global bound on a 5 qps burst must actually defer work.
        let deferred: u64 = fd_report.per_class.iter().map(|c| c.deferred).sum();
        assert!(deferred > 0, "a tight bound must defer some queries");
    }

    #[test]
    fn unbounded_front_door_is_behaviour_neutral() {
        use crate::admission::FrontDoorConfig;
        let (cat, timed) = fixture(12, 2.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        let off = ShardedRuntime::new(&cat, config.clone());
        let baseline = off.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        // Enabled but with no binding limit: every query admits at its
        // arrival instant, reproducing the static runtime bit-for-bit.
        config.front_door = FrontDoorConfig::bounded(u64::MAX);
        let on = ShardedRuntime::new(&cat, config);
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let report = on.run(&timed, &mut |_| greedy(), mode);
            assert_eq!(report.global.outcomes, baseline.global.outcomes, "{mode:?}");
            assert_eq!(report.global.batches, baseline.global.batches);
            assert_eq!(report.global.io, baseline.global.io);
            let fd = report.front_door.expect("enabled door reports");
            assert!(fd.rejected.is_empty());
            assert_eq!(fd.log.total_shed_events(), 0);
        }
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
            assert_eq!(a.admission, b.admission);
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
        for c in &fo.per_class {
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
    fn enabled_failover_without_outages_is_behaviour_neutral() {
        use crate::failover::FailoverConfig;
        let (cat, timed) = fixture(16, 2.0);
        let base_cfg = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        let baseline_rt = ShardedRuntime::new(&cat, base_cfg.clone());
        let baseline = baseline_rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let mut config = base_cfg;
        config.failover = FailoverConfig::recovery();
        let rt = ShardedRuntime::new(&cat, config);
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let report = rt.run(&timed, &mut |_| greedy(), mode);
            assert_eq!(report.global.outcomes, baseline.global.outcomes, "{mode:?}");
            assert_eq!(report.global.batches, baseline.global.batches);
            assert_eq!(report.global.io, baseline.global.io);
            assert_eq!(report.global.cache, baseline.global.cache);
            let fo = report.failover.expect("enabled failover reports");
            assert!(fo.log.transitions.is_empty());
            assert!(fo.log.evacuations.is_empty());
            assert!(fo.log.redeliveries.is_empty());
            assert!(fo.rejected.is_empty());
        }
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

    #[test]
    fn enabled_transport_without_link_faults_is_behaviour_neutral() {
        use crate::transport::TransportConfig;
        use liferaft_telemetry::TelemetryConfig;
        let (cat, timed) = fixture(16, 2.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        config.telemetry = TelemetryConfig::jsonl();
        let baseline_rt = ShardedRuntime::new(&cat, config.clone());
        let baseline = baseline_rt.run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        config.transport = TransportConfig::reliable();
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
                "{mode:?}: fault-free transport must not perturb telemetry"
            );
            let tp = report.transport.expect("enabled transport reports");
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
        for c in &tp.per_class {
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
        config.transport.hedge.min_age = SimDuration::from_millis(100);
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
        // Hedge copies never land on a shard already hosting the query.
        for h in &tp.log.hedges {
            assert_ne!(h.from, h.to);
        }
        // Exactly-once completion despite duplicated work.
        assert_eq!(stepped.global.outcomes.len(), timed.len());
        for c in &tp.per_class {
            assert_eq!(c.completed + c.rejected, c.submitted, "{:?}", c.class);
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
