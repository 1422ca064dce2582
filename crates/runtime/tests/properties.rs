//! Property tests for the sharded runtime's determinism contract.
//!
//! Over random catalogs, traces, shard counts, and placements:
//!
//! - threaded execution is bit-identical to the stepped virtual-time merge
//!   (globally and per shard);
//! - a single-shard unbounded runtime reproduces `Simulation::run` exactly;
//! - work is conserved: every routed assignment is serviced exactly once,
//!   and every query completes no earlier than its arrival;
//! - routing is the same in any split of the trace into consecutive
//!   windows;
//! - the front door, rebalancing, crash failover and the lossy-link
//!   transport with hedging compose: threaded == stepped with any of them
//!   on, every class balances its books, and every hedge race settles once;
//! - any subset of them, switched on with configs that never fire,
//!   is bit-identical to the run with all of them off.

use liferaft_catalog::{Catalog, VirtualCatalog};
use liferaft_core::{
    AgingMode, LifeRaftScheduler, NoShareScheduler, RoundRobinScheduler, Scheduler,
};
use liferaft_query::QueryPreProcessor;
use liferaft_runtime::{
    route, route_window, ElasticShardMap, ExecMode, FailoverConfig, FailoverLog, FaultPlan,
    FrontDoorConfig, HedgeConfig, QueryClass, RebalanceConfig, Routing, RuntimeConfig,
    ShardAssignment, ShardMap, ShardedRuntime, TransportConfig,
};
use liferaft_sim::{
    Feed, LinkDirection, LinkFault, RunReport, ShardOutage, ShardSlowdown, SimConfig, Simulation,
};
use liferaft_storage::{CostModel, SimDuration, SimTime};
use liferaft_workload::arrivals::poisson_arrivals;
use liferaft_workload::{TimedTrace, TraceGenerator, WorkloadConfig};
use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

const LEVEL: u8 = 10;
const BUCKETS: u32 = 64;

/// Wall-clock bound on one composition case: a run that livelocks fails in
/// seconds instead of growing until the host runs out of memory.
const CASE_BOUND: Duration = Duration::from_secs(60);

/// Runs `case` on a thread of its own and returns its result, or fails once
/// it has run for [`CASE_BOUND`] (a hung case's thread is leaked).
fn within_bound<T: Send + 'static>(case: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(case());
    });
    match rx.recv_timeout(CASE_BOUND) {
        Ok(result) => result,
        Err(RecvTimeoutError::Timeout) => panic!("the case ran past its {CASE_BOUND:?} bound"),
        Err(RecvTimeoutError::Disconnected) => panic!("the case panicked"),
    }
}

/// Exact digest of everything the decision path influences.
fn fp(r: &RunReport) -> String {
    let outcomes: Vec<(u64, u64, u64, u64)> = r
        .outcomes
        .iter()
        .map(|o| {
            (
                o.query.0,
                o.arrival.as_micros(),
                o.completion.as_micros(),
                o.assignments,
            )
        })
        .collect();
    format!(
        "{} {} {} {} {} {:?} {:?} {:x} {:x} {:?}",
        r.batches,
        r.scan_batches,
        r.indexed_batches,
        r.serviced_entries,
        r.cache_serviced_entries,
        r.io,
        r.cache,
        r.makespan_s.to_bits(),
        r.max_wait_ms.to_bits(),
        outcomes,
    )
}

fn fixture(seed: u64, n_queries: usize, rate_qps: f64) -> (VirtualCatalog, TimedTrace) {
    let catalog = VirtualCatalog::new(LEVEL, BUCKETS, 50, 4096, seed);
    let cfg = WorkloadConfig::paper_like(LEVEL, BUCKETS, n_queries, seed ^ 0x51);
    let trace = TraceGenerator::new(cfg).generate();
    let arrivals = poisson_arrivals(rate_qps, trace.len(), seed ^ 0xBEEF);
    let timed = trace.with_arrivals(arrivals);
    (catalog, timed)
}

fn policy(kind: u8) -> Box<dyn Scheduler + Send> {
    match kind % 4 {
        0 => Box::new(NoShareScheduler::new()),
        1 => Box::new(RoundRobinScheduler::new()),
        2 => Box::new(LifeRaftScheduler::greedy(CostModel::paper())),
        _ => Box::new(LifeRaftScheduler::new(
            CostModel::paper(),
            AgingMode::Normalized,
            0.5,
        )),
    }
}

fn same_routing(a: &Routing, b: &Routing) -> bool {
    a.shards == b.shards
        && a.assignments_of == b.assignments_of
        && a.cross_shard_queries == b.cross_shard_queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Routing the trace in uneven consecutive windows and concatenating
    /// them routes exactly like one whole-trace window. (That the feed
    /// yields the serial split at any producer count is pinned next to it,
    /// in `liferaft-sim`; that a controller run's window-by-window routing
    /// hands back these very streams is pinned next to the window loop, in
    /// `runtime.rs`.)
    #[test]
    fn consecutive_windows_route_like_the_whole_trace(
        seed in 0u64..10_000,
        n_shards in 1u32..6,
        hashed in proptest::bool::ANY,
        mut cuts in proptest::collection::vec(0usize..=300, 0..6),
    ) {
        let (catalog, timed) = fixture(seed, 300, 4.0);
        let partition = catalog.partition();
        let map = if hashed {
            ShardMap::hashed(BUCKETS as usize, n_shards, seed ^ 0x5AD)
        } else {
            ShardMap::contiguous(BUCKETS as usize, n_shards)
        };

        let serial = route(partition, &map, &timed);
        prop_assert_eq!(serial.assignments_of.len(), timed.len());
        let elastic = ElasticShardMap::new(map);
        let entries = timed.entries();

        // Windows: the drawn cut points (empty windows included) plus a
        // one-query window at the front.
        cuts.extend([0, 1, timed.len()]);
        cuts.sort_unstable();
        let mut feed = Feed::inline(partition, entries).enumerate();
        let mut joined = Routing {
            shards: vec![Vec::new(); n_shards as usize],
            assignments_of: Vec::new(),
            cross_shard_queries: 0,
        };
        for w in cuts.windows(2) {
            let r = route_window(&elastic, entries, feed.by_ref().take(w[1] - w[0]));
            for (stream, part) in joined.shards.iter_mut().zip(r.shards) {
                stream.extend(part);
            }
            joined.assignments_of.extend(r.assignments_of);
            joined.cross_shard_queries += r.cross_shard_queries;
        }
        prop_assert!(same_routing(&joined, &serial), "windows {:?}", cuts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Threaded == stepped, bit for bit, whatever the sharding; and the
    /// sharded pool conserves assignments.
    #[test]
    fn threaded_matches_stepped_under_arbitrary_sharding(
        seed in 0u64..10_000,
        n_shards in 1u32..6,
        hashed in proptest::bool::ANY,
        kind in 0u8..4,
        rate_deci in 2u64..20,
    ) {
        let (catalog, timed) = fixture(seed, 24, rate_deci as f64 / 10.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        if hashed {
            config.assignment = ShardAssignment::Hashed { seed: seed ^ 0x5AD };
        }
        let rt = ShardedRuntime::new(&catalog, config);
        let stepped = rt.run(&timed, &mut |_| policy(kind), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| policy(kind), ExecMode::Threaded);

        prop_assert_eq!(fp(&stepped.global), fp(&threaded.global));
        prop_assert_eq!(stepped.shards.len(), threaded.shards.len());
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            prop_assert_eq!(fp(&a.report), fp(&b.report));
        }

        // Conservation: every routed assignment serviced exactly once.
        let pre = QueryPreProcessor::new(catalog.partition());
        let expected: u64 = timed
            .entries()
            .iter()
            .flat_map(|(_, q)| pre.preprocess(q))
            .map(|item| item.len() as u64)
            .sum();
        prop_assert_eq!(stepped.global.serviced_entries, expected);
        prop_assert_eq!(stepped.global.outcomes.len(), timed.len());
        for o in &stepped.global.outcomes {
            prop_assert!(o.completion >= o.arrival);
        }
    }

    /// Under a random overload regime — arbitrary front-door bounds and
    /// waiting caps, and an optional injected shard stall — every
    /// query is exactly-once terminal (completed or rejected, never lost or
    /// double-counted), and a threaded request matches the stepped run bit
    /// for bit, front-door report included.
    #[test]
    fn overloaded_front_door_is_exactly_once_and_deterministic(
        seed in 0u64..10_000,
        n_shards in 1u32..5,
        kind in 0u8..4,
        bound_step in 1u64..12,
        soft_step in 0u64..10,  // 0 = no waiting cap
        stalled in proptest::bool::ANY,
        rate_deci in 2u64..20,
    ) {
        let (catalog, timed) = fixture(seed, 24, rate_deci as f64 / 10.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        config.front_door = FrontDoorConfig::bounded(bound_step * 250);
        config.front_door.interactive_max_assignments = 150;
        config.front_door.batch_min_assignments = 500;
        config.front_door.max_waiting_assignments =
            (soft_step > 0).then(|| soft_step * 400);
        if stalled {
            config.faults = FaultPlan {
                stalls: vec![ShardSlowdown {
                    shard: 0,
                    from: SimTime::ZERO,
                    until: SimTime::ZERO + SimDuration::from_secs(30),
                    factor: 6.0,
                }],
                outages: Vec::new(),
                links: Vec::new(),
            };
        }
        let rt = ShardedRuntime::new(&catalog, config);
        let stepped = rt.run(&timed, &mut |_| policy(kind), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| policy(kind), ExecMode::Threaded);

        prop_assert_eq!(fp(&stepped.global), fp(&threaded.global));
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            prop_assert_eq!(fp(&a.report), fp(&b.report));
        }
        prop_assert_eq!(&stepped.front_door, &threaded.front_door);

        // Exactly-once terminal: completed ∪ rejected covers the trace,
        // disjointly — nothing lost, nothing double-counted.
        let fd = stepped.front_door.as_ref().expect("front door is on");
        prop_assert_eq!(fd.log.verdicts.len(), timed.len());
        prop_assert_eq!(
            stepped.global.outcomes.len() + fd.rejected.len(),
            timed.len()
        );
        let mut terminal = vec![false; timed.len()];
        for o in &stepped.global.outcomes {
            let i = o.query.0 as usize;
            prop_assert!(!terminal[i], "query {} completed twice", i);
            terminal[i] = true;
            prop_assert!(o.completion >= o.arrival);
        }
        for r in &fd.rejected {
            prop_assert!(!terminal[r.index], "query {} rejected after completing", r.index);
            terminal[r.index] = true;
            // The door's fixed shed budget: the shed after the 3rd rejects.
            prop_assert!(r.attempts <= 3);
        }
        prop_assert!(terminal.iter().all(|&t| t), "some query never became terminal");

        // Per-class books balance and roll up to the whole trace.
        let mut submitted = 0u64;
        for class in QueryClass::ALL {
            let c = fd.class(class);
            prop_assert_eq!(c.submitted, c.admitted + c.rejected, "{} class", class.label());
            submitted += c.submitted;
        }
        prop_assert_eq!(submitted, timed.len() as u64);
    }

    /// Chaos: random crash schedules × schedulers. Every
    /// query is exactly-once terminal (completed or rejected, never lost or
    /// double-counted), per-class conservation holds, a threaded request
    /// matches the stepped failover run bit for bit — and when the random
    /// schedule happens to inject no outage at all, the failover-enabled
    /// run is bit-identical to the plain static pool.
    #[test]
    fn random_crashes_are_exactly_once_and_deterministic(
        seed in 0u64..10_000,
        n_shards in 2u32..5,
        kind in 0u8..4,
        n_outages in 0usize..3,
        down_s in 2u64..30,
        len_s in 1u64..25,
        rate_deci in 2u64..20,
    ) {
        let (catalog, timed) = fixture(seed, 24, rate_deci as f64 / 10.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        config.failover = FailoverConfig::recovery();
        // Staggered windows on distinct shards; windows of *different*
        // shards may still overlap in time, so the schedule sometimes kills
        // every shard at once — the no-survivor retry/reject path.
        config.faults.outages = (0..n_outages)
            .map(|i| {
                let down = SimTime::ZERO + SimDuration::from_secs(down_s + 7 * i as u64);
                ShardOutage {
                    shard: i as u32 % n_shards,
                    down_at: down,
                    up_at: down + SimDuration::from_secs(len_s),
                }
            })
            .collect();
        let rt = ShardedRuntime::new(&catalog, config);
        let stepped = rt.run(&timed, &mut |_| policy(kind), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| policy(kind), ExecMode::Threaded);

        prop_assert_eq!(fp(&stepped.global), fp(&threaded.global));
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            prop_assert_eq!(fp(&a.report), fp(&b.report));
        }
        prop_assert_eq!(&stepped.failover, &threaded.failover);

        // Exactly-once terminal: completed ∪ rejected covers the trace,
        // disjointly.
        let fo = stepped.failover.as_ref().expect("failover is on");
        prop_assert_eq!(
            stepped.global.outcomes.len() + fo.rejected.len(),
            timed.len()
        );
        let mut terminal = vec![false; timed.len()];
        for o in &stepped.global.outcomes {
            let i = o.query.0 as usize;
            prop_assert!(!terminal[i], "query {} completed twice", i);
            terminal[i] = true;
            prop_assert!(o.completion >= o.arrival);
        }
        for r in &fo.rejected {
            prop_assert!(!terminal[r.index], "query {} rejected after completing", r.index);
            terminal[r.index] = true;
            // Failover's fixed budget: rejected on the 5th failed attempt.
            prop_assert!(r.attempts == 5);
        }
        prop_assert!(terminal.iter().all(|&t| t), "some query never became terminal");

        // Per-class books balance and roll up to the whole trace.
        let mut submitted = 0u64;
        for c in &stepped.per_class {
            prop_assert_eq!(c.submitted, c.completed + c.rejected, "{:?} class", c.class);
            submitted += c.submitted;
        }
        prop_assert_eq!(submitted, timed.len() as u64);

        // An outage-free schedule makes enabled failover behaviour-neutral:
        // bit-identical to the static pool.
        if n_outages == 0 {
            prop_assert!(fo.log.transitions.is_empty());
            let static_rt = ShardedRuntime::new(
                &catalog,
                RuntimeConfig::contiguous(SimConfig::paper(), n_shards),
            );
            let plain = static_rt.run(&timed, &mut |_| policy(kind), ExecMode::Stepped);
            prop_assert_eq!(fp(&stepped.global), fp(&plain.global));
        }
    }

    /// Composition: front door (off or a tight bound) × rebalancing (off,
    /// 2 s or 5 s epochs) × random crash schedules × failover on/off ×
    /// transport (off, or reliable or hedged behind one lossy whole-run
    /// link) × schedulers. Door passes, epoch boundaries, outage edges,
    /// re-deliveries and hedge checks all close windows of one run, and a
    /// fragment delayed across one of them is served where it lands or lost
    /// to the outage it lands in, so threaded matches stepped bit for bit —
    /// globally, per shard, and in every decision log — every class
    /// balances its books, and every hedge race settles once. Each case runs
    /// under [`CASE_BOUND`], so a livelock fails in seconds.
    #[test]
    fn controllers_compose_deterministically(
        seed in 0u64..10_000,
        n_shards in 2u32..6,
        kind in 0u8..4,
        door in proptest::bool::ANY,
        epoch in 0usize..3,
        n_outages in 0usize..3,
        failover in proptest::bool::ANY,
        down_s in 1u64..20,
        len_s in 1u64..15,
        transport in 0u8..3,
        rate_deci in 5u64..40,
    ) {
        let hedged = transport == 2;
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        if door {
            config.front_door = FrontDoorConfig::bounded(500);
            config.front_door.interactive_max_assignments = 150;
            config.front_door.batch_min_assignments = 500;
            config.front_door.max_waiting_assignments = Some(2_000);
        }
        let epoch_s = [0, 2, 5][epoch];
        if epoch_s > 0 {
            config.rebalance = RebalanceConfig::every(SimDuration::from_secs(epoch_s));
            config.rebalance.min_imbalance = 1.05;
        }
        if failover {
            config.failover = FailoverConfig::recovery();
        }
        config.faults.outages = (0..n_outages)
            .map(|i| {
                let down = SimTime::ZERO + SimDuration::from_secs(down_s + 5 * i as u64);
                ShardOutage {
                    shard: i as u32 % n_shards,
                    down_at: down,
                    up_at: down + SimDuration::from_secs(len_s),
                }
            })
            .collect();
        if transport > 0 {
            config.transport = TransportConfig::reliable();
            if hedged {
                // Hedges early enough to race most draws' moves.
                config.transport.hedge = HedgeConfig::p90();
                config.transport.hedge.min_samples = 4;
                config.transport.hedge.latency_multiplier = 1.3;
            }
            config.faults.links = vec![LinkFault {
                shard: seed as u32 % n_shards,
                direction: LinkDirection::ToShard,
                from: SimTime::ZERO,
                until: SimTime::ZERO + SimDuration::from_secs(1_000_000),
                drop_prob: 0.2,
                delay: SimDuration::from_millis(150),
                delay_per_entry: SimDuration::from_micros(10),
                dup_prob: 0.0,
                reorder_prob: 0.2,
                reorder_delay: SimDuration::from_millis(400),
            }];
        }
        let (stepped, threaded, n_queries) = within_bound(move || {
            let (catalog, timed) = fixture(seed, 24, rate_deci as f64 / 10.0);
            let rt = ShardedRuntime::new(&catalog, config);
            let run = |mode| rt.run(&timed, &mut |_| policy(kind), mode);
            (run(ExecMode::Stepped), run(ExecMode::Threaded), timed.len())
        });

        prop_assert_eq!(fp(&stepped.global), fp(&threaded.global));
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            prop_assert_eq!(fp(&a.report), fp(&b.report));
        }
        prop_assert_eq!(&stepped.rebalance, &threaded.rebalance);
        prop_assert_eq!(&stepped.failover, &threaded.failover);
        prop_assert_eq!(&stepped.front_door, &threaded.front_door);
        prop_assert_eq!(&stepped.transport, &threaded.transport);

        // Exactly-once terminal: completed + every controller's rejections
        // == submitted, and per class in every report's books.
        let fo_rejected = stepped.failover.as_ref().map_or(0, |fo| fo.rejected.len());
        let fd_rejected = stepped.front_door.as_ref().map_or(0, |fd| fd.rejected.len());
        let tp_rejected = stepped.transport.as_ref().map_or(0, |tp| tp.rejected.len());
        prop_assert_eq!(
            stepped.global.outcomes.len() + fo_rejected + fd_rejected + tp_rejected,
            n_queries
        );
        let mut submitted = 0u64;
        for c in &stepped.per_class {
            prop_assert_eq!(c.submitted, c.completed + c.rejected, "{:?} class", c.class);
            submitted += c.submitted;
        }
        prop_assert_eq!(submitted, n_queries as u64);
        if let Some(tp) = &stepped.transport {
            prop_assert_eq!(tp.hedge_wins + tp.hedge_losses, tp.log.hedges.len() as u64);
        }
        if let Some(fd) = &stepped.front_door {
            for class in QueryClass::ALL {
                let c = fd.class(class);
                let turned_away = fd.rejected.iter().filter(|r| r.class == class).count();
                prop_assert_eq!(c.submitted, c.completed + c.rejected, "{} class", class.label());
                prop_assert_eq!(c.submitted, c.admitted + turned_away as u64, "{} class", class.label());
            }
        }
    }

    /// Chaos: random lossy-link schedules (loss × duplication × delay ×
    /// reordering) × hedging on/off × front door on/off × schedulers. Every query is
    /// exactly-once terminal (completed or rejected, never lost or
    /// double-counted despite retransmissions, network duplicates, and
    /// hedge copies), per-class conservation holds, every hedge race
    /// resolves exactly once, the threaded executor matches the stepped
    /// one bit for bit on the planned streams — and the transport runs
    /// exactly when the schedule declares a link window or hedging is on.
    #[test]
    fn lossy_links_are_exactly_once_and_deterministic(
        seed in 0u64..10_000,
        n_shards in 2u32..5,
        kind in 0u8..4,
        n_links in 0usize..4,
        drop_pct in 0u32..40,
        dup_pct in 0u32..25,
        reorder_pct in 0u32..25,
        delay_ms in 0u64..200,
        hedged in proptest::bool::ANY,
        door in proptest::bool::ANY,
        rate_deci in 2u64..20,
    ) {
        let (catalog, timed) = fixture(seed, 24, rate_deci as f64 / 10.0);
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        if door {
            config.front_door = FrontDoorConfig::bounded(500);
        }
        config.transport = if hedged {
            TransportConfig::hedged()
        } else {
            TransportConfig::reliable()
        };
        config.transport.hedge.min_samples = 4;
        // Distinct (shard, direction) pairs keep the windows trivially
        // disjoint, so they can all cover the whole run and actually fire.
        config.faults.links = (0..n_links)
            .map(|i| LinkFault {
                shard: i as u32 % n_shards,
                direction: if (i as u32) < n_shards {
                    LinkDirection::ToShard
                } else {
                    LinkDirection::ToRouter
                },
                from: SimTime::ZERO,
                until: SimTime::ZERO + SimDuration::from_secs(1_000_000),
                drop_prob: drop_pct as f64 / 100.0,
                delay: SimDuration::from_millis(delay_ms),
                delay_per_entry: SimDuration::from_micros(10),
                dup_prob: dup_pct as f64 / 100.0,
                reorder_prob: reorder_pct as f64 / 100.0,
                reorder_delay: SimDuration::from_millis(250),
            })
            .collect();
        let rt = ShardedRuntime::new(&catalog, config);
        let stepped = rt.run(&timed, &mut |_| policy(kind), ExecMode::Stepped);
        let threaded = rt.run(&timed, &mut |_| policy(kind), ExecMode::Threaded);

        prop_assert_eq!(fp(&stepped.global), fp(&threaded.global));
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            prop_assert_eq!(fp(&a.report), fp(&b.report));
        }
        prop_assert_eq!(&stepped.transport, &threaded.transport);
        prop_assert_eq!(&stepped.front_door, &threaded.front_door);

        // Exactly-once terminal: completed ∪ rejected covers the trace,
        // disjointly — retransmissions, duplicates, and hedge copies never
        // surface twice.
        prop_assert_eq!(stepped.transport.is_some(), n_links > 0 || hedged);
        let lost = stepped.transport.as_ref().map_or(&[][..], |tp| &tp.rejected);
        let turned_away = stepped.front_door.as_ref().map_or(&[][..], |fd| &fd.rejected);
        prop_assert_eq!(
            stepped.global.outcomes.len() + lost.len() + turned_away.len(),
            timed.len()
        );
        let mut terminal = vec![false; timed.len()];
        for o in &stepped.global.outcomes {
            let i = o.query.0 as usize;
            prop_assert!(!terminal[i], "query {} completed twice", i);
            terminal[i] = true;
            prop_assert!(o.completion >= o.arrival);
        }
        for r in lost.iter().chain(turned_away) {
            prop_assert!(!terminal[r.index], "query {} rejected after completing", r.index);
            terminal[r.index] = true;
        }
        prop_assert!(terminal.iter().all(|&t| t), "some query never became terminal");

        // Per-class books balance and roll up to the whole trace.
        let mut submitted = 0u64;
        for c in &stepped.per_class {
            prop_assert_eq!(c.submitted, c.completed + c.rejected, "{:?} class", c.class);
            submitted += c.submitted;
        }
        prop_assert_eq!(submitted, timed.len() as u64);

        // Every hedge race settles exactly once: first copy wins, the
        // loser is suppressed.
        if let Some(tp) = &stepped.transport {
            prop_assert_eq!(
                tp.hedge_wins + tp.hedge_losses,
                tp.log.hedges.len() as u64
            );
        }
    }

    /// A single-shard unbounded runtime is `Simulation::run`, exactly —
    /// in both execution modes.
    #[test]
    fn one_shard_reproduces_the_simulation(
        seed in 0u64..10_000,
        kind in 0u8..4,
        rate_deci in 2u64..20,
    ) {
        let (catalog, timed) = fixture(seed, 20, rate_deci as f64 / 10.0);
        let mut scheduler = policy(kind);
        let reference = Simulation::new(&catalog, SimConfig::paper())
            .run(&timed, scheduler.as_mut());
        let rt = ShardedRuntime::new(&catalog, RuntimeConfig::single(SimConfig::paper()));
        for mode in [ExecMode::Stepped, ExecMode::Threaded] {
            let sharded = rt.run(&timed, &mut |_| policy(kind), mode);
            prop_assert_eq!(fp(&reference), fp(&sharded.global), "mode {:?}", mode);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Controller neutrality over every subset: each controller switched on
    /// with a config that never fires — an unbounded door, failover with no
    /// outage, the transport over a link window that drops, duplicates,
    /// reorders and delays nothing, hedging that never trusts a quantile,
    /// rebalancing with an unreachable trigger — leaves the run
    /// bit-identical to the all-off run, globally and per shard, in both
    /// modes, for every scheduler. All 32 subsets are legal: hedging runs
    /// the transport itself.
    #[test]
    fn never_firing_controllers_are_neutral_in_every_subset(
        seed in 0u64..10_000,
        n_shards in 2u32..5,
        hashed in proptest::bool::ANY,
        rate_deci in 2u64..20,
    ) {
        let (catalog, timed) = fixture(seed, 24, rate_deci as f64 / 10.0);
        let mut base = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        if hashed {
            base.assignment = ShardAssignment::Hashed { seed: seed ^ 0x5AD };
        }
        let off = ShardedRuntime::new(&catalog, base.clone());
        let want: Vec<_> = (0u8..4)
            .map(|kind| off.run(&timed, &mut |_| policy(kind), ExecMode::Stepped))
            .collect();
        let mut legal = 0;
        for subset in 0u8..32 {
            let on = |bit: u8| subset & (1 << bit) != 0;
            let (door, failover, transport, hedge, rebalance) = (on(0), on(1), on(2), on(3), on(4));
            legal += 1;
            let mut config = base.clone();
            if door {
                config.front_door = FrontDoorConfig::bounded(u64::MAX);
            }
            if failover {
                config.failover = FailoverConfig::recovery();
            }
            if transport {
                config.faults.links = vec![LinkFault {
                    shard: seed as u32 % n_shards,
                    direction: LinkDirection::ToShard,
                    from: SimTime::ZERO,
                    until: SimTime::ZERO + SimDuration::from_secs(1_000_000),
                    drop_prob: 0.0,
                    delay: SimDuration::ZERO,
                    delay_per_entry: SimDuration::ZERO,
                    dup_prob: 0.0,
                    reorder_prob: 0.0,
                    reorder_delay: SimDuration::ZERO,
                }];
            }
            if hedge {
                config.transport.hedge = HedgeConfig::p90();
                config.transport.hedge.min_samples = usize::MAX;
            }
            if rebalance {
                config.rebalance = RebalanceConfig::every(SimDuration::from_secs(2));
                config.rebalance.min_imbalance = 1e12;
            }
            let rt = ShardedRuntime::new(&catalog, config);
            for (kind, want) in (0u8..).zip(&want) {
                for mode in [ExecMode::Stepped, ExecMode::Threaded] {
                    let got = rt.run(&timed, &mut |_| policy(kind), mode);
                    let case = format!("subset {subset:05b}, kind {kind}, {mode:?}");
                    prop_assert_eq!(fp(&got.global), fp(&want.global), "{}", case);
                    for (a, b) in got.shards.iter().zip(&want.shards) {
                        prop_assert_eq!(fp(&a.report), fp(&b.report), "{}", case);
                    }
                    if let Some(fo) = &got.failover {
                        prop_assert_eq!(&fo.log, &FailoverLog::default(), "{}", case);
                        prop_assert!(fo.rejected.is_empty(), "{}", case);
                    }
                    prop_assert_eq!(got.transport.is_some(), transport || hedge, "{}", case);
                    if let Some(tp) = &got.transport {
                        prop_assert!(tp.log.is_empty(), "{}", case);
                        prop_assert!(tp.rejected.is_empty(), "{}", case);
                    }
                }
            }
        }
        prop_assert_eq!(legal, 32);
    }
}
