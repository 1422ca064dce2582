//! Flight-recorder determinism suite.
//!
//! Three pins, all against the shared fixture:
//!
//! 1. **Byte-identical streams across executors**: with the JSONL sink on,
//!    stepped and threaded runs emit the *same bytes* — event stream and
//!    the derived Chrome/Perfetto trace document — at 2/4/8 shards for all
//!    six pinned schedulers.
//! 2. **Controller paths keep the guarantee**: elastic rebalancing and the
//!    overload front door contribute router events (migrations, verdicts,
//!    samples) to the merged stream, and the bytes still match across
//!    executors.
//! 3. **The failover path keeps it too**: an injected shard crash adds
//!    outage edges, evacuations, and re-delivery attempts to the router
//!    stream — one event per decision-log record — and stepped/threaded
//!    streams stay byte-identical.
//! 4. **And the transport path**: lossy router↔shard links add drops,
//!    retransmissions, duplicate suppressions, and hedges to the router
//!    stream — one event per transport-log record — and stepped/threaded
//!    streams stay byte-identical.
//! 5. **Recording is behaviour-neutral**: with the ring or JSONL sink on,
//!    a single-shard runtime still reproduces the recorded single-engine
//!    goldens bit-for-bit — the flight recorder observes, never steers.
//!    A within-capacity ring records the same stream as the unbounded
//!    JSONL sink; an undersized ring drops oldest-first and says so, and
//!    its truncated stream still exports.
//!
//! With `LIFERAFT_TRACE_DIR` set, the front-door, rejecting-door, failover
//! and transport pins write one greedy stream each there (`front_door.jsonl`,
//! `front_door_rejecting.jsonl`, `failover.jsonl`, `transport.jsonl`) for
//! the trace schema checker.

mod common;

use common::{fingerprint, fixture, goldens, scheduler_factories};
use liferaft::prelude::*;

fn jsonl_of(report: &RuntimeReport) -> String {
    report
        .telemetry
        .as_ref()
        .expect("telemetry was enabled")
        .to_jsonl()
}

/// Every shard's queue depth stays non-negative, and with nothing dropped —
/// the whole stream kept, every delivered query completed — it ends at 0,
/// and the windowed decision counts sum to the shard's exact batch count.
fn assert_queue_depths(report: &RuntimeReport, ctx: &str) {
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let window_s = telemetry.window.as_secs_f64();
    for (series, run) in telemetry.shards.iter().zip(&report.shards) {
        let depth = series.queue_depth.ys();
        let shard = series.shard;
        assert!(
            depth.iter().all(|&d| d >= 0.0),
            "{ctx}: shard {shard}'s queue depth went negative: {depth:?}"
        );
        if run.events_dropped == 0 {
            assert_eq!(
                depth.last(),
                Some(&0.0),
                "{ctx}: shard {shard} ended with queued work"
            );
            let decisions: u64 = (series.decisions_per_s.ys().iter())
                .map(|&rate| (rate * window_s).round() as u64)
                .sum();
            assert_eq!(
                decisions, run.report.batches,
                "{ctx}: shard {shard}'s windowed decisions disagree with its batch count"
            );
        }
    }
}

/// Writes `jsonl` to `$LIFERAFT_TRACE_DIR/<name>.jsonl` when that variable
/// is set.
fn write_trace(name: &str, jsonl: &str) {
    if let Ok(dir) = std::env::var("LIFERAFT_TRACE_DIR") {
        std::fs::create_dir_all(&dir).expect("create the trace directory");
        let path = std::path::Path::new(&dir).join(format!("{name}.jsonl"));
        std::fs::write(path, jsonl).expect("write the trace");
    }
}

#[test]
fn jsonl_stream_is_byte_identical_across_executors() {
    let (catalog, timed) = fixture();
    for n_shards in [2u32, 4, 8] {
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        config.telemetry = TelemetryConfig::jsonl();
        let rt = ShardedRuntime::new(&catalog, config);
        for (label, mk) in scheduler_factories() {
            let stepped = rt.run(&timed, &mut |_| mk(), ExecMode::Stepped);
            let threaded = rt.run(&timed, &mut |_| mk(), ExecMode::Threaded);
            let ctx = format!("{label} @ {n_shards} shards");
            let a = jsonl_of(&stepped);
            let b = jsonl_of(&threaded);
            assert!(!a.is_empty(), "{ctx}: recorder produced no events");
            assert_eq!(a, b, "{ctx}: JSONL streams diverged across executors");
            assert_eq!(
                stepped.telemetry.as_ref().unwrap().to_chrome_trace(),
                threaded.telemetry.as_ref().unwrap().to_chrome_trace(),
                "{ctx}: Chrome trace documents diverged across executors"
            );
            // Every routed fragment leaves one arrival and one completion
            // in the merged stream — at least one per query, exactly one
            // per (query, shard) pair — and batches are balanced
            // start/end pairs.
            let arrivals = a.matches("\"kind\":\"query_arrival\"").count();
            assert!(arrivals >= timed.len(), "{ctx}: arrival events");
            assert_eq!(
                a.matches("\"kind\":\"query_complete\"").count(),
                arrivals,
                "{ctx}: every arrived fragment completes"
            );
            assert_eq!(
                a.matches("\"kind\":\"batch_start\"").count(),
                a.matches("\"kind\":\"batch_end\"").count(),
                "{ctx}: unbalanced batch spans"
            );
        }
    }
}

#[test]
fn controller_paths_keep_the_byte_identical_stream() {
    let (catalog, timed) = fixture();
    let picked: Vec<_> = scheduler_factories()
        .into_iter()
        .filter(|(label, _)| *label == "greedy" || *label == "adaptive")
        .collect();

    // Elastic rebalancing (same tuning as `runtime_determinism`, which pins
    // that this trace actually migrates at 4 shards).
    let mut rebalance = RebalanceConfig::every(SimDuration::from_secs(30));
    rebalance.min_imbalance = 1.05;
    for n_shards in [2u32, 4, 8] {
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        config.rebalance = rebalance;
        config.telemetry = TelemetryConfig::jsonl();
        let rt = ShardedRuntime::new(&catalog, config);
        for (label, mk) in &picked {
            let stepped = rt.run(&timed, &mut |_| mk(), ExecMode::Stepped);
            let threaded = rt.run(&timed, &mut |_| mk(), ExecMode::Threaded);
            let ctx = format!("{label} @ {n_shards} elastic shards");
            let a = jsonl_of(&stepped);
            assert_eq!(a, jsonl_of(&threaded), "{ctx}: streams diverged");
            assert_queue_depths(&stepped, &ctx);
            let moves = stepped
                .rebalance
                .as_ref()
                .expect("elastic run records a log")
                .total_moves();
            assert_eq!(
                a.matches("\"kind\":\"migration_applied\"").count(),
                moves,
                "{ctx}: one applied event per recorded migration"
            );
        }
    }

    // The overload front door (same tuning as `overload_scenarios`).
    let mut door = FrontDoorConfig::bounded(2_000);
    door.interactive_max_assignments = 200;
    door.batch_min_assignments = 600;
    door.max_waiting_assignments = Some(6_000);
    for n_shards in [2u32, 4, 8] {
        let mut config = RuntimeConfig::contiguous(SimConfig::paper(), n_shards);
        config.front_door = door;
        config.telemetry = TelemetryConfig::jsonl();
        let rt = ShardedRuntime::new(&catalog, config);
        for (label, mk) in &picked {
            let stepped = rt.run(&timed, &mut |_| mk(), ExecMode::Stepped);
            let threaded = rt.run(&timed, &mut |_| mk(), ExecMode::Threaded);
            let ctx = format!("{label} @ {n_shards} front-door shards");
            let a = jsonl_of(&stepped);
            assert_eq!(a, jsonl_of(&threaded), "{ctx}: streams diverged");
            assert_queue_depths(&stepped, &ctx);
            if *label == "greedy" && n_shards == 4 {
                write_trace("front_door", &a);
            }
            // The door records a terminal verdict for every query; the
            // stream mirrors the verdict log exactly.
            let fd = stepped.front_door.as_ref().expect("front door is on");
            assert_eq!(
                a.matches("\"kind\":\"admitted\"").count()
                    + a.matches("\"kind\":\"rejected\"").count(),
                fd.log.verdicts.len(),
                "{ctx}: one verdict event per routed query"
            );
            assert_eq!(
                a.matches("\"kind\":\"admission_sampled\"").count(),
                fd.log.samples.len(),
                "{ctx}: one sample event per admission sample"
            );
        }
    }
}

/// A door that rejects: the flash crowd against a tighter bound and
/// waiting cap than `overload_scenarios`' tuning, so shed batch work runs
/// out of retries. Every verdict — `rejected` ones included — is one event.
#[test]
fn rejecting_front_door_keeps_the_byte_identical_stream() {
    let scale = ScenarioScale::small();
    let catalog = VirtualCatalog::new(scale.level, scale.n_buckets, 200, 4096, 7);
    let fx = build_scenario(ScenarioKind::FlashCrowd, &scale);
    let mut door = FrontDoorConfig::bounded(1_000);
    door.interactive_max_assignments = 200;
    door.batch_min_assignments = 600;
    door.max_waiting_assignments = Some(1_500);
    let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    config.front_door = door;
    config.telemetry = TelemetryConfig::jsonl();
    let rt = ShardedRuntime::new(&catalog, config);
    let greedy = scheduler_factories()[2].1;
    let stepped = rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Stepped);
    let threaded = rt.run(&fx.trace, &mut |_| greedy(), ExecMode::Threaded);
    let a = jsonl_of(&stepped);
    assert_eq!(a, jsonl_of(&threaded), "streams diverged");
    assert_queue_depths(&stepped, "rejecting door");
    write_trace("front_door_rejecting", &a);
    let rejected = a.matches("\"kind\":\"rejected\"").count();
    assert!(rejected > 0, "the door must reject at this tuning");
    let fd = stepped.front_door.as_ref().expect("front door is on");
    assert_eq!(rejected, fd.rejected.len(), "one event per rejection");
    assert_eq!(
        a.matches("\"kind\":\"admitted\"").count() + rejected,
        fd.log.verdicts.len(),
        "one verdict event per routed query"
    );
}

#[test]
fn failover_path_keeps_the_byte_identical_stream() {
    // The crash scenario: a burst backlog, then one shard down mid-drain —
    // guaranteed evacuations and re-deliveries.
    let scale = ScenarioScale::small();
    let catalog = VirtualCatalog::new(scale.level, scale.n_buckets, 200, 4096, 7);
    let fx = build_scenario(ScenarioKind::ShardCrash, &scale);
    let picked: Vec<_> = scheduler_factories()
        .into_iter()
        .filter(|(label, _)| *label == "greedy" || *label == "adaptive")
        .collect();
    let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    config.faults = FaultPlan {
        stalls: fx.stalls.clone(),
        outages: fx.outages.clone(),
        links: fx.links.clone(),
    };
    config.failover = FailoverConfig::recovery();
    config.telemetry = TelemetryConfig::jsonl();
    let rt = ShardedRuntime::new(&catalog, config);
    for (label, mk) in &picked {
        let stepped = rt.run(&fx.trace, &mut |_| mk(), ExecMode::Stepped);
        let threaded = rt.run(&fx.trace, &mut |_| mk(), ExecMode::Threaded);
        let ctx = format!("{label} under the crash scenario");
        let a = jsonl_of(&stepped);
        assert_eq!(a, jsonl_of(&threaded), "{ctx}: streams diverged");
        assert_queue_depths(&stepped, &ctx);
        if *label == "greedy" {
            write_trace("failover", &a);
        }
        assert_eq!(
            stepped.telemetry.as_ref().unwrap().to_chrome_trace(),
            threaded.telemetry.as_ref().unwrap().to_chrome_trace(),
            "{ctx}: Chrome trace documents diverged"
        );
        // The stream mirrors the failover decision log exactly.
        let fo = stepped.failover.as_ref().expect("failover is on");
        assert!(
            !fo.log.evacuations.is_empty() && !fo.log.redeliveries.is_empty(),
            "{ctx}: the crash must evacuate and re-deliver"
        );
        assert_eq!(
            a.matches("\"kind\":\"shard_down\"").count()
                + a.matches("\"kind\":\"shard_up\"").count(),
            fo.log.transitions.len(),
            "{ctx}: one event per outage edge"
        );
        assert_eq!(
            a.matches("\"kind\":\"bucket_evacuated\"").count(),
            fo.log.evacuations.len(),
            "{ctx}: one event per evacuated bucket"
        );
        assert_eq!(
            a.matches("\"kind\":\"fragment_retried\"").count(),
            fo.log.redeliveries.len(),
            "{ctx}: one event per re-delivery attempt"
        );
    }
}

#[test]
fn transport_path_keeps_the_byte_identical_stream() {
    // The lossy-link scenario: flaky links on two shards plus a straggler
    // stall — guaranteed drops, retransmissions, suppressions, and (with
    // hedging on) hedge decisions.
    let scale = ScenarioScale::small();
    let catalog = VirtualCatalog::new(scale.level, scale.n_buckets, 200, 4096, 7);
    let fx = build_scenario(ScenarioKind::LossyLink, &scale);
    let picked: Vec<_> = scheduler_factories()
        .into_iter()
        .filter(|(label, _)| *label == "greedy" || *label == "adaptive")
        .collect();
    let mut config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    config.faults = FaultPlan {
        stalls: fx.stalls.clone(),
        outages: fx.outages.clone(),
        links: fx.links.clone(),
    };
    config.transport = TransportConfig::hedged();
    config.transport.hedge.quantile = 0.75;
    config.transport.hedge.latency_multiplier = 1.5;
    config.transport.hedge.min_samples = 5;
    config.telemetry = TelemetryConfig::jsonl();
    let rt = ShardedRuntime::new(&catalog, config);
    for (label, mk) in &picked {
        let stepped = rt.run(&fx.trace, &mut |_| mk(), ExecMode::Stepped);
        let threaded = rt.run(&fx.trace, &mut |_| mk(), ExecMode::Threaded);
        let ctx = format!("{label} under the lossy-link scenario");
        let a = jsonl_of(&stepped);
        assert_eq!(a, jsonl_of(&threaded), "{ctx}: streams diverged");
        assert_queue_depths(&stepped, &ctx);
        if *label == "greedy" {
            write_trace("transport", &a);
        }
        assert_eq!(
            stepped.telemetry.as_ref().unwrap().to_chrome_trace(),
            threaded.telemetry.as_ref().unwrap().to_chrome_trace(),
            "{ctx}: Chrome trace documents diverged"
        );
        // The stream mirrors the transport decision log exactly.
        let tp = stepped.transport.as_ref().expect("transport is on");
        assert!(
            !tp.log.drops.is_empty()
                && !tp.log.retransmits.is_empty()
                && !tp.log.suppressed.is_empty()
                && !tp.log.hedges.is_empty(),
            "{ctx}: the lossy links must drop, retransmit, suppress, and hedge"
        );
        assert_eq!(
            a.matches("\"kind\":\"fragment_dropped\"").count(),
            tp.log.drops.len(),
            "{ctx}: one event per dropped message"
        );
        assert_eq!(
            a.matches("\"kind\":\"fragment_retransmitted\"").count(),
            tp.log.retransmits.len(),
            "{ctx}: one event per retransmission"
        );
        assert_eq!(
            a.matches("\"kind\":\"duplicate_suppressed\"").count(),
            tp.log.suppressed.len(),
            "{ctx}: one event per receiver-side dedup"
        );
        assert_eq!(
            a.matches("\"kind\":\"fragment_hedged\"").count(),
            tp.log.hedges.len(),
            "{ctx}: one event per hedge decision"
        );
    }
}

#[test]
fn telemetry_sinks_leave_the_recorded_goldens_untouched() {
    let (catalog, timed) = fixture();
    // A ring big enough to never drop on this fixture, and the unbounded
    // JSONL sink: identical decision paths *and* identical streams.
    for telemetry in [TelemetryConfig::ring(1 << 20), TelemetryConfig::jsonl()] {
        let mut config = RuntimeConfig::single(SimConfig::paper());
        config.telemetry = telemetry;
        let rt = ShardedRuntime::new(&catalog, config);
        for ((label, mk), (_, golden)) in scheduler_factories().into_iter().zip(goldens()) {
            for mode in [ExecMode::Stepped, ExecMode::Threaded] {
                let report = rt.run(&timed, &mut |_| mk(), mode);
                assert_eq!(
                    fingerprint(&report.global).as_str(),
                    golden,
                    "{label} via {mode:?}: recording changed the decision path"
                );
                let telemetry = report.telemetry.as_ref().expect("telemetry on");
                assert!(!telemetry.events.is_empty(), "{label}: no events");
                assert_eq!(
                    report.shards.iter().map(|s| s.events_dropped).sum::<u64>(),
                    0,
                    "{label}: unexpected drops"
                );
            }
        }
    }

    // Within capacity, the ring and JSONL streams are the same bytes.
    let greedy = scheduler_factories()[2].1;
    let mut ring_cfg = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    ring_cfg.telemetry = TelemetryConfig::ring(1 << 20);
    let mut jsonl_cfg = ring_cfg.clone();
    jsonl_cfg.telemetry = TelemetryConfig::jsonl();
    let ring_run =
        ShardedRuntime::new(&catalog, ring_cfg).run(&timed, &mut |_| greedy(), ExecMode::Stepped);
    let jsonl_run =
        ShardedRuntime::new(&catalog, jsonl_cfg).run(&timed, &mut |_| greedy(), ExecMode::Stepped);
    assert_eq!(
        jsonl_of(&ring_run),
        jsonl_of(&jsonl_run),
        "within-capacity ring diverged from the unbounded sink"
    );

    // An undersized ring sheds oldest events, keeps the newest, reports the
    // drop count — and still never perturbs the run itself.
    let mut tiny = RuntimeConfig::single(SimConfig::paper());
    tiny.telemetry = TelemetryConfig::ring(16);
    let run = ShardedRuntime::new(&catalog, tiny).run(&timed, &mut |_| greedy(), ExecMode::Stepped);
    assert_eq!(fingerprint(&run.global).as_str(), common::GOLDEN_GREEDY);
    let kept = run.telemetry.as_ref().expect("telemetry on");
    assert_eq!(kept.events.len(), 16, "ring keeps exactly its capacity");
    assert!(
        run.shards[0].events_dropped > 0,
        "undersized ring must report drops"
    );
    let last = kept.events.last().expect("non-empty ring");
    assert!(
        matches!(
            last.kind,
            liferaft::telemetry::EventKind::BatchEnd { .. }
                | liferaft::telemetry::EventKind::QueryComplete { .. }
        ),
        "ring keeps the newest events (run tail), got {:?}",
        last.kind
    );
}

#[test]
fn ring_truncated_streams_export_at_every_capacity() {
    use liferaft::telemetry::EventKind;
    // A ring's kept window can open mid-batch: the end whose start it shed
    // renders no span, and every other batch renders one.
    let (catalog, timed) = fixture();
    let greedy = scheduler_factories()[2].1;
    for capacity in [1usize, 2, 3, 5, 16, 100, 1_000] {
        let mut config = RuntimeConfig::single(SimConfig::paper());
        config.telemetry = TelemetryConfig::ring(capacity);
        let run =
            ShardedRuntime::new(&catalog, config).run(&timed, &mut |_| greedy(), ExecMode::Stepped);
        let kept = run.telemetry.as_ref().expect("telemetry on");
        assert_eq!(
            kept.events.len(),
            capacity,
            "ring({capacity}) keeps its capacity"
        );
        let ends = kept
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BatchEnd { .. }))
            .count();
        let shed_start = kept
            .events
            .iter()
            .find(|e| {
                matches!(
                    e.kind,
                    EventKind::BatchStart { .. } | EventKind::BatchEnd { .. }
                )
            })
            .is_some_and(|e| matches!(e.kind, EventKind::BatchEnd { .. }));
        let chrome = kept.to_chrome_trace();
        assert_eq!(
            chrome.matches("\"cat\":\"batch\"").count(),
            ends - usize::from(shed_start),
            "ring({capacity}): one span per batch whose start was kept"
        );
        assert_eq!(kept.to_jsonl().lines().count(), capacity);
        assert_queue_depths(&run, &format!("ring({capacity})"));
    }
}
