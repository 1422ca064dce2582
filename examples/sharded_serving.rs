//! Sharded serving: one archive, N scheduler shards, two executors.
//!
//! Partitions the bucket space across four shards (each with its own
//! workload table, 20-bucket cache, and greedy LifeRaft scheduler), routes
//! a hotspot workload through the front-end, and runs the same
//! configuration in both execution modes — the one window loop advancing
//! its workers in a plain loop, or on one OS thread per shard — proving
//! they produce bit-identical results. Turns on epoch-boundary rebalancing
//! and prints every epoch's load sample and bucket migrations.
//! Then drives a parallel α sweep and a shard-count sweep over the same
//! pool.
//!
//! Run with: `cargo run --release --example sharded_serving`

use liferaft::prelude::*;
use liferaft::runtime::{alpha_sweep, shard_sweep};

fn main() {
    const LEVEL: u8 = 10;
    const BUCKETS: u32 = 512;

    // 1. A paper-shaped virtual catalog and a hotspot workload arriving at
    //    a rate that keeps queues deep.
    let catalog = VirtualCatalog::new(LEVEL, BUCKETS, 200, 4096, 7);
    let cfg = WorkloadConfig::paper_like(LEVEL, BUCKETS, 150, 99);
    let trace = TraceGenerator::new(cfg).generate();
    let timed = trace.with_arrivals(poisson_arrivals(1.0, trace.len(), 1));
    println!(
        "catalog: {BUCKETS} buckets at level {LEVEL}; workload: {} queries / {} objects\n",
        timed.len(),
        trace.total_objects(),
    );

    // 2. Four shards, contiguous placement.
    let params = CostModel::paper();
    let config = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    let runtime = ShardedRuntime::new(&catalog, config.clone());
    let mut mk =
        |_: usize| -> Box<dyn Scheduler + Send> { Box::new(LifeRaftScheduler::greedy(params)) };

    let stepped = runtime.run(&timed, &mut mk, ExecMode::Stepped);
    let threaded = runtime.run(&timed, &mut mk, ExecMode::Threaded);
    assert_eq!(
        stepped.global.outcomes, threaded.global.outcomes,
        "threaded execution must be bit-identical to the stepped run"
    );
    assert_eq!(stepped.global.batches, threaded.global.batches);

    let mut shard_table = Table::new([
        "shard",
        "fragments",
        "batches",
        "bucket reads",
        "cache hit %",
        "makespan (s)",
    ]);
    for s in &stepped.shards {
        shard_table.row([
            s.shard.to_string(),
            s.report.queries.to_string(),
            s.report.batches.to_string(),
            s.report.io.bucket_reads.to_string(),
            format!("{:.0}", s.report.cache.hit_rate() * 100.0),
            format!("{:.0}", s.report.makespan_s),
        ]);
    }
    println!("{}", shard_table.render());
    println!(
        "{} of {} queries crossed shards; imbalance {:.2}; stepped == threaded ✓\n{}\n",
        stepped.cross_shard_queries,
        stepped.global.queries,
        stepped.shard_imbalance(),
        stepped.global.summary_line(),
    );

    // 3. The same pool, elastic: every 30 virtual seconds a rebalance
    //    controller inspects per-shard backlog and migrates hot buckets
    //    from the most- to the least-loaded shard. Epoch boundaries close
    //    the windows of the run; between them the shards advance on their
    //    own threads in threaded mode, so the modes stay bit-identical.
    let mut elastic_cfg = config;
    elastic_cfg.rebalance = RebalanceConfig::every(SimDuration::from_secs(30));
    elastic_cfg.rebalance.min_imbalance = 1.05;
    let elastic_rt = ShardedRuntime::new(&catalog, elastic_cfg);
    let elastic = elastic_rt.run(&timed, &mut mk, ExecMode::Stepped);
    let elastic_threaded = elastic_rt.run(&timed, &mut mk, ExecMode::Threaded);
    assert_eq!(
        elastic.global.outcomes, elastic_threaded.global.outcomes,
        "an elastic run must match the stepped run in threaded mode"
    );

    let log = elastic
        .rebalance
        .as_ref()
        .expect("elastic run records a log");
    let mut epoch_table = Table::new(["epoch", "at", "shard loads", "migrations"]);
    for rec in &log.records {
        let moves = if rec.moves.is_empty() {
            "—".to_string()
        } else {
            rec.moves
                .iter()
                .map(|m| format!("{}: {}→{} ({} entries)", m.bucket, m.from, m.to, m.entries))
                .collect::<Vec<_>>()
                .join(", ")
        };
        epoch_table.row([
            rec.epoch.to_string(),
            rec.at.to_string(),
            format!("{:?}", rec.loads),
            moves,
        ]);
    }
    println!("{}", epoch_table.render());
    println!(
        "elastic: {} migrations over {} epochs; makespan {:.0}s vs static {:.0}s; \
         stepped == threaded ✓\n",
        log.total_moves(),
        log.records.len(),
        elastic.global.makespan_s,
        stepped.global.makespan_s,
    );

    // 4. The overload front door under a flash crowd: the same pool fronted
    //    by a global admission controller that bounds in-flight work,
    //    classifies queries by routed size, and degrades in order — queue,
    //    shed batch work into backoff, reject. The door reads capacity
    //    before every shard step, so its windows are one step each, on the
    //    calling thread whichever mode is asked for.
    let flash = build_scenario(
        ScenarioKind::FlashCrowd,
        &ScenarioScale {
            level: LEVEL,
            n_buckets: BUCKETS,
            n_queries: 120,
            seed: 2009,
        },
    );
    let mut door_cfg = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    door_cfg.front_door = FrontDoorConfig::bounded(2_000);
    door_cfg.front_door.interactive_max_assignments = 200;
    door_cfg.front_door.batch_min_assignments = 600;
    door_cfg.front_door.max_waiting_assignments = Some(6_000);
    let door_rt = ShardedRuntime::new(&catalog, door_cfg);
    let door_stepped = door_rt.run(&flash.trace, &mut mk, ExecMode::Stepped);
    let door_threaded = door_rt.run(&flash.trace, &mut mk, ExecMode::Threaded);
    assert_eq!(
        door_stepped.global.outcomes, door_threaded.global.outcomes,
        "a front-door run must match the stepped run in threaded mode"
    );
    let fd = door_stepped
        .front_door
        .as_ref()
        .expect("front-door run records a report");
    let mut class_table = Table::new([
        "class",
        "submitted",
        "admitted",
        "deferred",
        "shed events",
        "rejected",
        "max retries",
        "p90 ttfb (s)",
        "p90 rt (s)",
    ]);
    for class in QueryClass::ALL {
        let c = fd.class(class);
        class_table.row([
            class.label().to_string(),
            c.submitted.to_string(),
            c.admitted.to_string(),
            c.deferred.to_string(),
            c.shed_events.to_string(),
            c.rejected.to_string(),
            c.max_retries.to_string(),
            format!("{:.1}", c.ttfb.percentile(90.0)),
            format!("{:.1}", c.response.percentile(90.0)),
        ]);
    }
    println!("{}", class_table.render());
    println!(
        "flash crowd through the front door: {} completed + {} rejected = {} submitted; \
         {} shed events; stepped == threaded ✓\n",
        door_stepped.global.outcomes.len(),
        fd.rejected.len(),
        flash.trace.len(),
        fd.log.total_shed_events(),
    );

    // 5. The parallel sweep driver: α sweep (independent Simulation runs)
    //    and shard-count sweep (independent runtime runs), fanned across
    //    threads with results in input order.
    let alphas = [0.0, 0.5, 1.0];
    let alpha_points = alpha_sweep(&catalog, &timed, SimConfig::paper(), params, &alphas, 3);
    let counts = [1u32, 2, 4, 8];
    let shard_points = shard_sweep(
        &catalog,
        &timed,
        RuntimeConfig::contiguous(SimConfig::paper(), 1),
        &counts,
        ExecMode::Threaded,
        2,
        move |_| Box::new(LifeRaftScheduler::greedy(params)),
    );

    let mut sweep_table = Table::new(["sweep point", "throughput (q/s)", "mean rt (s)", "batches"]);
    for p in alpha_points.iter().chain(&shard_points) {
        sweep_table.row([
            p.label.clone(),
            format!("{:.4}", p.report.throughput_qps),
            format!("{:.1}", p.report.mean_response_s()),
            p.report.batches.to_string(),
        ]);
    }
    println!("{}", sweep_table.render());
    println!("Sweeps ran on a thread pool; ordering and results are thread-count independent.\n");

    // 6. The flight recorder: the elastic pool again with the JSONL sink
    //    on. Every shard records typed scheduler / batch / cache /
    //    completion events, the rebalance controller contributes migration
    //    events, and the merged stream comes out in canonical
    //    (time, shard, seq) order — byte-identical across both executors.
    //    Set LIFERAFT_TRACE_DIR to also write the stream as JSONL plus a
    //    Chrome/Perfetto trace document.
    let mut traced_cfg = RuntimeConfig::contiguous(SimConfig::paper(), 4);
    traced_cfg.rebalance = RebalanceConfig::every(SimDuration::from_secs(30));
    traced_cfg.rebalance.min_imbalance = 1.05;
    traced_cfg.telemetry = TelemetryConfig::jsonl().with_window(SimDuration::from_secs(20));
    let traced_rt = ShardedRuntime::new(&catalog, traced_cfg);
    let traced = traced_rt.run(&timed, &mut mk, ExecMode::Stepped);
    let traced_threaded = traced_rt.run(&timed, &mut mk, ExecMode::Threaded);
    let telemetry = traced.telemetry.as_ref().expect("telemetry is on");
    assert_eq!(
        telemetry.to_jsonl(),
        traced_threaded.telemetry.as_ref().unwrap().to_jsonl(),
        "the recorded stream must be byte-identical across executors"
    );
    println!("{}", telemetry.summary_table());
    println!("{}", telemetry.ascii_timeline());
    println!(
        "flight recorder: {} events across {} shards; stream bytes identical across executors ✓",
        telemetry.events.len(),
        telemetry.n_shards,
    );
    if let Ok(dir) = std::env::var("LIFERAFT_TRACE_DIR") {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create trace dir");
        let jsonl = dir.join("sharded_serving.jsonl");
        let perfetto = dir.join("sharded_serving.perfetto.json");
        std::fs::write(&jsonl, telemetry.to_jsonl()).expect("write jsonl");
        std::fs::write(&perfetto, telemetry.to_chrome_trace()).expect("write perfetto trace");
        println!(
            "wrote {} and {} (open the latter at https://ui.perfetto.dev)",
            jsonl.display(),
            perfetto.display()
        );
    }
}
