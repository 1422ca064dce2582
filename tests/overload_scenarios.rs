//! The fault/overload scenario suite, end to end.
//!
//! Every scenario in `liferaft_sim::scenario` runs through the sharded
//! runtime's front door with all six pinned schedulers, in both executors:
//!
//! 1. **Determinism under overload**: threaded == stepped, bit-for-bit —
//!    global report, per-shard reports, and the full front-door report
//!    (verdicts, samples, per-class summaries). Injected shard stalls are
//!    part of the contract.
//! 2. **Accounting conservation**: completed + rejected == submitted, for
//!    the run and per class; nothing is lost or double-counted.
//! 3. **The flash-crowd acceptance bar**: with the controller on,
//!    interactive-class p90 response is measurably below the
//!    controller-off run on the identical trace, while batch-class work is
//!    shed into retries (and the neutral, unbounded door reproduces the
//!    controller-off behaviour bit-for-bit).
//! 4. **Compositions**: all four controllers on a flash crowd (the door,
//!    rebalancing, crash failover and the lossy-link transport), and the
//!    door with the hedged transport, with and without an outage, keep both
//!    contracts above.

mod common;

use common::{fingerprint, scheduler_factories};
use liferaft::prelude::*;

/// The catalog every scenario replays against (matches
/// [`ScenarioScale::small`]: level 10, 128 buckets).
fn scenario_catalog() -> VirtualCatalog {
    let scale = ScenarioScale::small();
    VirtualCatalog::new(scale.level, scale.n_buckets, 200, 4096, 7)
}

/// The suite's front-door tuning: tight enough that overload scenarios
/// actually queue and shed, loose enough that nominal load sails through.
fn door() -> FrontDoorConfig {
    let mut d = FrontDoorConfig::bounded(2_000);
    d.interactive_max_assignments = 200;
    d.batch_min_assignments = 600;
    d.max_waiting_assignments = Some(6_000);
    d
}

/// A 4-shard pool with the scenario's recommended fault injection converted
/// into the runtime's fault plan. Link-fault scenarios run behind the
/// hedged transport controller ([`hedged_transport`]); outage scenarios
/// behind the failover controller; everything else behind the front door.
/// One controller per scenario keeps each acceptance bar about one
/// mechanism; the compositions are pinned by `full_gauntlet` (every
/// controller, hedging included), `front_door_composes_with_hedged_transport`
/// and `hedged_transport_rides_out_an_outage_without_failover`.
fn pool_config(fx: &ScenarioFixture) -> RuntimeConfig {
    let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    config.faults = FaultPlan {
        stalls: fx.stalls.clone(),
        outages: fx.outages.clone(),
        links: fx.links.clone(),
    };
    if !fx.links.is_empty() {
        config.transport = hedged_transport();
    } else if fx.outages.is_empty() {
        config.front_door = door();
    } else {
        config.failover = FailoverConfig::recovery();
    }
    config
}

/// The suite's hedged transport. Anchors the hedge threshold below the
/// straggler-inflated p90: with a bimodal response mix a `2 × p90` trigger
/// only clips the extreme tail, while `1.5 × p75` re-issues stalled
/// fragments early enough to pull the p90 itself down without duplicating
/// so much work that the healthy shards clog.
fn hedged_transport() -> TransportConfig {
    let mut transport = TransportConfig::hedged();
    transport.hedge.quantile = 0.75;
    transport.hedge.latency_multiplier = 1.5;
    transport.hedge.min_samples = 5;
    transport
}

#[test]
fn every_scenario_is_deterministic_across_executors_and_schedulers() {
    let catalog = scenario_catalog();
    let scale = ScenarioScale::small();
    for kind in ScenarioKind::ALL {
        let fx = build_scenario(kind, &scale);
        let rt = ShardedRuntime::new(&catalog, pool_config(&fx));
        for (label, mk) in scheduler_factories() {
            let stepped = rt.run(&fx.trace, &mut |_| mk(), ExecMode::Stepped);
            let threaded = rt.run(&fx.trace, &mut |_| mk(), ExecMode::Threaded);
            let ctx = format!("{} / {label}", kind.name());
            assert_eq!(
                fingerprint(&stepped.global),
                fingerprint(&threaded.global),
                "{ctx}: global reports diverged"
            );
            for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
                assert_eq!(
                    fingerprint(&a.report),
                    fingerprint(&b.report),
                    "{ctx}: shard {} diverged",
                    a.shard
                );
            }
            assert_eq!(
                stepped.front_door, threaded.front_door,
                "{ctx}: front-door reports diverged"
            );
            assert_eq!(
                stepped.failover, threaded.failover,
                "{ctx}: failover reports diverged"
            );
            assert_eq!(
                stepped.transport, threaded.transport,
                "{ctx}: transport reports diverged"
            );

            // Conservation: every submitted query is exactly-once terminal,
            // whichever controller fronted the run.
            if let Some(tp) = stepped.transport.as_ref() {
                assert_eq!(
                    stepped.global.outcomes.len() + tp.rejected.len(),
                    fx.trace.len(),
                    "{ctx}: completed + rejected must equal submitted"
                );
                for c in &stepped.per_class {
                    assert_eq!(
                        c.completed + c.rejected,
                        c.submitted,
                        "{ctx}: {:?} class conservation",
                        c.class
                    );
                }
                assert_eq!(
                    tp.hedge_wins + tp.hedge_losses,
                    tp.log.hedges.len() as u64,
                    "{ctx}: every hedge race must settle exactly once"
                );
            } else if let Some(fd) = stepped.front_door.as_ref() {
                assert_eq!(
                    stepped.global.outcomes.len() + fd.rejected.len(),
                    fx.trace.len(),
                    "{ctx}: completed + rejected must equal submitted"
                );
                for class in QueryClass::ALL {
                    let books = &stepped.per_class[class.rank()];
                    assert_eq!(
                        books.submitted,
                        fd.class(class).admitted + books.rejected,
                        "{ctx}: {} class accounting",
                        class.label()
                    );
                }
            } else {
                let fo = stepped.failover.as_ref().expect("failover is on");
                assert_eq!(
                    stepped.global.outcomes.len() + fo.rejected.len(),
                    fx.trace.len(),
                    "{ctx}: completed + rejected must equal submitted"
                );
                for c in &stepped.per_class {
                    assert_eq!(
                        c.completed + c.rejected,
                        c.submitted,
                        "{ctx}: {:?} class conservation",
                        c.class
                    );
                }
            }
        }
    }
}

/// Runs `config` on `fixture` under all six schedulers in both executors and
/// asserts the determinism contract on the global and per-shard
/// fingerprints and on every decision log, plus exactly-once terminal
/// accounting: completed + every controller's rejections == submitted, per
/// class in every report. Returns the stepped greedy run.
fn assert_composes(name: &str, fixture: &ScenarioFixture, config: RuntimeConfig) -> RuntimeReport {
    let catalog = scenario_catalog();
    let rt = ShardedRuntime::new(&catalog, config);
    let mut greedy = None;
    for (label, mk) in scheduler_factories() {
        let stepped = rt.run(&fixture.trace, &mut |_| mk(), ExecMode::Stepped);
        let threaded = rt.run(&fixture.trace, &mut |_| mk(), ExecMode::Threaded);
        let ctx = format!("{name} / {label}");
        assert_eq!(
            fingerprint(&stepped.global),
            fingerprint(&threaded.global),
            "{ctx}: global reports diverged"
        );
        for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
            assert_eq!(
                fingerprint(&a.report),
                fingerprint(&b.report),
                "{ctx}: shard {} diverged",
                a.shard
            );
        }
        assert_eq!(stepped.front_door, threaded.front_door, "{ctx}: door");
        assert_eq!(stepped.rebalance, threaded.rebalance, "{ctx}: rebalance");
        assert_eq!(stepped.failover, threaded.failover, "{ctx}: failover");
        assert_eq!(stepped.transport, threaded.transport, "{ctx}: transport");

        let fd = stepped.front_door.as_ref().expect("the door is on");
        let fo = stepped.failover.as_ref().map_or(0, |fo| fo.rejected.len());
        let tp = stepped.transport.as_ref().map_or(0, |tp| tp.rejected.len());
        assert_eq!(
            stepped.global.outcomes.len() + fd.rejected.len() + fo + tp,
            fixture.trace.len(),
            "{ctx}: completed + rejected must equal submitted"
        );
        for c in &stepped.per_class {
            assert_eq!(
                c.completed + c.rejected,
                c.submitted,
                "{ctx}: {:?}",
                c.class
            );
        }
        for (c, books) in fd.per_class.iter().zip(&stepped.per_class) {
            let turned_away = fd.rejected.iter().filter(|r| r.class == c.class).count();
            assert_eq!(
                c.admitted + turned_away as u64,
                books.submitted,
                "{ctx}: {:?}",
                c.class
            );
        }
        if label == "greedy" {
            greedy = Some(stepped);
        }
    }
    greedy.expect("greedy is one of the six")
}

/// All four controllers at once: the flash crowd behind the front door,
/// with rebalancing, one shard crashing mid-flash under failover, and the
/// transport over lossy links into shard 1 and into the crashing shard 2 —
/// a window that opens before the crash and closes inside it, so fragments
/// delayed across the down edge are lost to it. The door's charge follows
/// evacuated and migrated work; a delayed fragment is served where it
/// lands. The transport runs reliable, then hedged: hedge races then follow
/// their fragments through epoch moves and the crash's evacuation.
#[test]
fn full_gauntlet() {
    let fx = build_scenario(ScenarioKind::FlashCrowd, &ScenarioScale::small());
    let mut config = pool_config(&fx);
    config.rebalance = RebalanceConfig::every(SimDuration::from_secs(5));
    config.failover = FailoverConfig::recovery();
    let secs = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    config.faults.outages.push(liferaft::sim::ShardOutage {
        shard: 2,
        down_at: secs(31),
        up_at: secs(61),
    });
    let lossy = |shard, from, until| LinkFault {
        shard,
        direction: LinkDirection::ToShard,
        from,
        until,
        drop_prob: 0.15,
        delay: SimDuration::from_millis(150),
        delay_per_entry: SimDuration::from_micros(20),
        dup_prob: 0.05,
        reorder_prob: 0.10,
        reorder_delay: SimDuration::from_millis(400),
    };
    config.faults.links = vec![lossy(1, secs(0), secs(90)), lossy(2, secs(20), secs(40))];
    for (name, transport) in [
        ("full gauntlet", TransportConfig::reliable()),
        ("hedged full gauntlet", hedged_transport()),
    ] {
        config.transport = transport;
        let report = assert_composes(name, &fx, config.clone());
        let tp = report.transport.as_ref().expect("transport reports");
        assert!(
            !tp.log.retransmits.is_empty(),
            "{name}: door admissions must cross the lossy links"
        );
        let fo = report.failover.as_ref().expect("failover reports");
        assert!(
            fo.log.evacuated_entries() > 0,
            "{name}: the crash must land on a backlog"
        );
        let rb = report.rebalance.as_ref().expect("rebalancing reports");
        assert!(!rb.records.is_empty(), "{name}: epochs must fire");
        assert!(
            report.front_door.as_ref().unwrap().log.total_shed_events() > 0,
            "{name}: the flash crowd must still shed at the door"
        );
        if transport.hedge.max_hedges > 0 {
            assert!(!tp.log.hedges.is_empty(), "{name}: stragglers must hedge");
            assert_eq!(tp.hedge_wins + tp.hedge_losses, tp.log.hedges.len() as u64);
        }
    }
}

/// The front door in front of the hedged lossy-link transport: admitted
/// queries cross the same lossy links, and hedge copies count against the
/// door's bound while they are held.
#[test]
fn front_door_composes_with_hedged_transport() {
    let fx = build_scenario(ScenarioKind::LossyLink, &ScenarioScale::small());
    let mut config = pool_config(&fx);
    config.front_door = door();
    let report = assert_composes("door × hedged transport", &fx, config);
    let tp = report.transport.as_ref().expect("transport reports");
    assert!(
        !tp.log.retransmits.is_empty(),
        "door admissions must cross the lossy links"
    );
    assert!(
        !tp.log.hedges.is_empty(),
        "the stalled shard must still hedge"
    );
    assert_eq!(tp.hedge_wins + tp.hedge_losses, tp.log.hedges.len() as u64);
    // A straggler's age counts from its hand-off: time spent waiting at the
    // door never makes a fragment due before it was admitted.
    let fd = report.front_door.as_ref().expect("door reports");
    for h in &tp.log.hedges {
        let liferaft::runtime::Disposition::Admitted { at, .. } =
            fd.log.verdicts[h.query_index].decision
        else {
            panic!("query {} hedged without an admission", h.query_index);
        };
        assert!(h.at > at, "query {} hedged at its admission", h.query_index);
    }
}

/// The hedged transport across an outage with failover off: nothing is
/// evacuated, so a fragment stranded on the dead shard is a straggler like
/// any other, and a hedge copy on a live shard may win its race.
#[test]
fn hedged_transport_rides_out_an_outage_without_failover() {
    let fx = build_scenario(ScenarioKind::LossyLink, &ScenarioScale::small());
    let mut config = pool_config(&fx);
    config.front_door = door();
    let secs = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    config.faults.outages.push(liferaft::sim::ShardOutage {
        shard: 3,
        down_at: secs(10),
        up_at: secs(40),
    });
    let report = assert_composes("door × hedged transport × outage", &fx, config);
    let tp = report.transport.as_ref().expect("transport reports");
    assert!(!tp.log.hedges.is_empty(), "stragglers must hedge");
    assert_eq!(tp.hedge_wins + tp.hedge_losses, tp.log.hedges.len() as u64);
    let fo = report
        .failover
        .as_ref()
        .expect("an injected outage reports");
    assert_eq!(fo.log.transitions.len(), 2, "one outage, two edges");
    assert!(fo.log.redeliveries.is_empty(), "failover is off");
}

/// Hedging needs no lossy link: behind the hedged transport with no link
/// window, the stalled shard's stragglers hedge, every race settles once,
/// every class balances its books, and threaded == stepped.
#[test]
fn hedging_without_link_faults_hedges_a_stalled_shard() {
    let catalog = scenario_catalog();
    let fx = build_scenario(ScenarioKind::ShardStall, &ScenarioScale::small());
    assert!(
        !fx.stalls.is_empty(),
        "stall fixture must declare a straggler"
    );
    assert!(fx.links.is_empty(), "stall fixture declares no link window");
    let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    config.faults.stalls = fx.stalls.clone();
    config.transport = TransportConfig::hedged();
    let rt = ShardedRuntime::new(&catalog, config);
    let greedy = scheduler_factories()[2].1;
    let stepped = rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);
    let threaded = rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Threaded);
    assert_eq!(fingerprint(&stepped.global), fingerprint(&threaded.global));
    for (a, b) in stepped.shards.iter().zip(&threaded.shards) {
        assert_eq!(fingerprint(&a.report), fingerprint(&b.report));
    }
    assert_eq!(stepped.transport, threaded.transport);
    let tp = stepped
        .transport
        .as_ref()
        .expect("hedging runs the transport");
    assert!(!tp.log.hedges.is_empty(), "the stalled shard must hedge");
    assert_eq!(tp.hedge_wins + tp.hedge_losses, tp.log.hedges.len() as u64);
    assert!(
        tp.log.drops.is_empty() && tp.log.retransmits.is_empty(),
        "no link window, nothing lost on the wire"
    );
    assert_eq!(stepped.global.outcomes.len(), fx.trace.len());
    for c in &stepped.per_class {
        assert_eq!(c.completed + c.rejected, c.submitted, "{:?}", c.class);
    }
}

#[test]
fn flash_crowd_controller_protects_interactive_latency() {
    let catalog = scenario_catalog();
    let fx = build_scenario(ScenarioKind::FlashCrowd, &ScenarioScale::small());
    let greedy = scheduler_factories()[2].1;

    // Controller off — but through a *neutral* (unbounded) door, so the
    // run still records per-class latency for the comparison below.
    let mut off_cfg = pool_config(&fx);
    off_cfg.front_door = FrontDoorConfig::bounded(u64::MAX);
    let off_rt = ShardedRuntime::new(&catalog, off_cfg);
    let off = off_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // The neutral door really is neutral: bit-identical to disabled.
    let mut disabled_cfg = pool_config(&fx);
    disabled_cfg.front_door = FrontDoorConfig::disabled();
    let disabled_rt = ShardedRuntime::new(&catalog, disabled_cfg);
    for mode in [ExecMode::Stepped, ExecMode::Threaded] {
        let neutral = off_rt.run(&fx.trace, &mut |_| greedy(), mode);
        let plain = disabled_rt.run(&fx.trace, &mut |_| greedy(), mode);
        assert_eq!(
            fingerprint(&neutral.global),
            fingerprint(&plain.global),
            "{mode:?}: the unbounded door must be behaviour-neutral"
        );
        assert!(plain.front_door.is_none());
    }

    // Controller on.
    let on_rt = ShardedRuntime::new(&catalog, pool_config(&fx));
    let on = on_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    let fd_on = on.front_door.as_ref().expect("controller on");
    let fd_off = off.front_door.as_ref().expect("neutral door records");
    let int_on = fd_on.class(QueryClass::Interactive);
    let int_off = fd_off.class(QueryClass::Interactive);
    assert!(
        on.per_class[QueryClass::Interactive.rank()].submitted > 0,
        "fixture must contain interactive-class queries"
    );
    assert!(
        fd_on.log.total_shed_events() > 0,
        "the flash crowd must shed batch-class work"
    );
    let p90_on = int_on.response.percentile(90.0);
    let p90_off = int_off.response.percentile(90.0);
    assert!(
        p90_on < p90_off,
        "controller must cut interactive p90 under the flash crowd \
         (on: {p90_on:.2}s, off: {p90_off:.2}s)"
    );
    // Shedding is bounded and accounted: every retry either landed or
    // ended in a recorded rejection.
    let batch_books = &on.per_class[QueryClass::Batch.rank()];
    let batch_on = fd_on.class(QueryClass::Batch);
    assert_eq!(
        batch_books.submitted,
        batch_on.admitted + batch_books.rejected
    );
}

/// p90 response over the interactive class (default front-door thresholds —
/// the same classification the failover report conserves by).
fn interactive_p90_s(report: &RunReport) -> f64 {
    let classes = FrontDoorConfig::disabled();
    let samples: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| classes.classify(o.assignments) == QueryClass::Interactive)
        .map(|o| o.response_time().as_secs_f64())
        .collect();
    assert!(!samples.is_empty(), "no interactive-class completions");
    Summary::from_samples(samples).percentile(90.0)
}

#[test]
fn shard_crash_failover_restores_service_where_off_strands_it() {
    let catalog = scenario_catalog();
    let fx = build_scenario(ScenarioKind::ShardCrash, &ScenarioScale::small());
    assert!(
        !fx.outages.is_empty(),
        "crash fixture must declare an outage"
    );
    let greedy = scheduler_factories()[2].1;

    // No-fault baseline: the identical trace with the crash edited out.
    let mut base_cfg = pool_config(&fx);
    base_cfg.faults = FaultPlan::default();
    base_cfg.failover = FailoverConfig::disabled();
    let base_rt = ShardedRuntime::new(&catalog, base_cfg);
    let base = base_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // Failover on (pool_config turns on recovery for crash fixtures).
    let on_rt = ShardedRuntime::new(&catalog, pool_config(&fx));
    let on = on_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // Failover off: the outage still freezes the shard, nothing recovers —
    // the dead shard's backlog strands until it rejoins.
    let mut off_cfg = pool_config(&fx);
    off_cfg.failover = FailoverConfig::disabled();
    let off_rt = ShardedRuntime::new(&catalog, off_cfg);
    let off = off_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // Exactly-once under the crash: every query reaches one terminal
    // outcome, and the crash actually moved work.
    let fo = on.failover.as_ref().expect("failover report");
    assert_eq!(
        on.global.outcomes.len() + fo.rejected.len(),
        fx.trace.len(),
        "failover-on run lost track of a query"
    );
    assert!(
        fo.log.evacuated_entries() > 0,
        "the crash must strand a backlog worth evacuating"
    );
    assert!(
        fo.recovery_lag.is_some(),
        "evacuations must yield a recovery-lag measurement"
    );

    // The acceptance bar: recovery holds interactive p90 within 3× of the
    // crash-free baseline, while the unrecovered run blows through it.
    let p90_base = interactive_p90_s(&base.global);
    let p90_on = interactive_p90_s(&on.global);
    let p90_off = interactive_p90_s(&off.global);
    assert!(
        p90_on <= 3.0 * p90_base,
        "failover must contain the crash (on: {p90_on:.2}s, baseline: {p90_base:.2}s)"
    );
    assert!(
        p90_off > p90_on,
        "no recovery must hurt (off: {p90_off:.2}s, on: {p90_on:.2}s)"
    );
    assert!(
        p90_off > 2.0 * p90_base,
        "the unrecovered crash must grossly delay the stranded work \
         (off: {p90_off:.2}s, baseline: {p90_base:.2}s)"
    );
}

#[test]
fn lossy_link_hedging_beats_retransmit_only_delivery() {
    let catalog = scenario_catalog();
    let fx = build_scenario(ScenarioKind::LossyLink, &ScenarioScale::small());
    assert!(
        !fx.links.is_empty(),
        "lossy fixture must declare link faults"
    );
    assert!(
        !fx.stalls.is_empty(),
        "lossy fixture must declare a straggler"
    );
    let greedy = scheduler_factories()[2].1;

    // Hedge off: retransmit/dedup delivery only — stragglers ride out the
    // stalled shard.
    let mut off_cfg = pool_config(&fx);
    off_cfg.transport = TransportConfig::reliable();
    let off_rt = ShardedRuntime::new(&catalog, off_cfg);
    let off = off_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // Hedge on (pool_config enables p90 hedging for link fixtures).
    let on_rt = ShardedRuntime::new(&catalog, pool_config(&fx));
    let on = on_rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);

    // The lossy links really bit, both runs stayed conservative.
    for (label, report) in [("off", &off), ("on", &on)] {
        let tp = report.transport.as_ref().expect("transport report");
        assert!(
            !tp.log.drops.is_empty() && !tp.log.retransmits.is_empty(),
            "hedge-{label}: the lossy windows must force retransmits"
        );
        assert!(
            !tp.log.suppressed.is_empty(),
            "hedge-{label}: ack loss must force duplicate suppression"
        );
        assert_eq!(
            report.global.outcomes.len() + tp.rejected.len(),
            fx.trace.len(),
            "hedge-{label}: completed + rejected must equal submitted"
        );
    }
    let tp_on = on.transport.as_ref().unwrap();
    assert!(
        !tp_on.log.hedges.is_empty(),
        "the stalled shard's stragglers must hedge"
    );
    assert!(
        tp_on.hedge_wins > 0,
        "at least one hedge copy must beat its straggling original"
    );
    assert!(
        off.transport.as_ref().unwrap().log.hedges.is_empty(),
        "hedge-off must plan no hedges"
    );

    // The acceptance bar: hedging strictly cuts interactive p90 on the
    // identical lossy trace.
    let p90_on = interactive_p90_s(&on.global);
    let p90_off = interactive_p90_s(&off.global);
    assert!(
        p90_on < p90_off,
        "hedging must cut interactive p90 under lossy links \
         (on: {p90_on:.2}s, off: {p90_off:.2}s)"
    );
}
