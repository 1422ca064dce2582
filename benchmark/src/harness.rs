//! One workload, one process: build the fixture, replay, check, report.
//!
//! With tracing off the run produces the end-to-end metrics; with tracing on
//! it produces the per-layer metrics from one traced replay and the layer
//! probes, and writes the spans as a Chrome-trace file. End-to-end numbers
//! never come from a traced replay.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::metrics::{Layers, END_TO_END};
use crate::spans::Spans;
use crate::stats::{iqr_share, median};
use crate::workloads::{self, Replay, Workload};

/// Fixture builds per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed replays behind `replay_wall_s`, whatever `--seconds` says.
const MIN_TIMED_REPS: usize = 9;
/// Fewest untraced replays a traced run takes its overhead base from.
const MIN_UNTRACED_REPS: usize = 5;

/// What the driver (or the `run` subcommand) asks of one process.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub workload: String,
    pub seed: u64,
    /// How long the timed replays measure, seconds.
    pub seconds: f64,
    /// False: end-to-end metrics. True: per-layer metrics and a trace file.
    pub trace: bool,
}

/// The result of one process.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `(name, value, unit)` of every end-to-end or every per-layer metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Raw per-repetition host times, seconds, by series name.
    pub raw: Vec<(&'static str, Vec<f64>)>,
    /// Queries submitted over the warm-up, timed and traced replays.
    pub attempted: u64,
    /// Queries that ended neither completed nor rejected by a controller,
    /// plus every query of a replay that did not repeat the first exactly.
    /// Queries a controller sheds by design show in `completed_share`.
    pub failed: u64,
    /// Every correctness check that did not hold; empty means correct.
    pub failures: Vec<String>,
}

/// Where trace files and result sets go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tallies replays against the first one: conservation on each, and
/// bit-identical virtual results across repetitions.
struct Tally {
    first: Replay,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn new(first: Replay) -> Self {
        let mut t = Tally {
            first: first.clone(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        t.add(&first, "warm-up replay");
        t
    }

    fn add(&mut self, r: &Replay, what: &str) {
        self.attempted += r.submitted;
        if r.completed + r.rejected != r.submitted {
            self.failed += r.submitted.abs_diff(r.completed + r.rejected);
            self.failures.push(format!(
                "{what}: completed {} + rejected {} != submitted {}",
                r.completed, r.rejected, r.submitted
            ));
        }
        if r.digest != self.first.digest {
            self.failed += r.submitted;
            self.failures.push(format!(
                "{what}: virtual results differ from the first replay"
            ));
        }
    }
}

/// One discarded warm-up replay (first replays run 2–5× slow), then
/// untraced replays for at least `seconds` and `min_reps`. Replays are
/// checked against `tally`'s first replay, or start a new tally.
fn timed_replays(
    workload: &dyn Workload,
    seconds: f64,
    min_reps: usize,
    tally: Option<Tally>,
) -> (Tally, Vec<f64>) {
    let warm_up = workload.replay();
    let mut tally = match tally {
        None => Tally::new(warm_up),
        Some(mut tally) => {
            tally.add(&warm_up, "warm-up replay");
            tally
        }
    };
    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let replay = workload.replay();
        walls.push(t0.elapsed().as_secs_f64());
        tally.add(&replay, "timed replay");
    }
    (tally, walls)
}

/// Runs one workload in this process.
pub fn run(req: &Request) -> Outcome {
    if req.trace {
        per_layer(req)
    } else {
        end_to_end(req)
    }
}

fn end_to_end(req: &Request) -> Outcome {
    // Each fixture build is followed by its own warm-up and its share of the
    // timed phase: replay speed depends on where a build's allocations land,
    // so one process samples several layouts instead of one.
    let share = SETUP_REPS as f64;
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut tally = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let workload = workloads::build(
            &req.workload,
            req.seed,
            &mut Spans::new(),
            &mut Layers::new(),
        );
        setup.push(t0.elapsed().as_secs_f64());
        let (t, w) = timed_replays(
            workload.as_ref(),
            req.seconds / share,
            MIN_TIMED_REPS.div_ceil(SETUP_REPS),
            tally.take(),
        );
        tally = Some(t);
        walls.extend(w);
    }
    let tally = tally.expect("at least one fixture build");
    let vt = &tally.first;
    let wall_s = median(&walls);
    eprintln!(
        "{}: {} timed replays, {} queries and {} queue entries each, rep IQR {:.1}% of median",
        req.workload,
        walls.len(),
        vt.submitted,
        vt.serviced_entries,
        iqr_share(&walls) * 100.0
    );
    let value = |name: &str| match name {
        "setup_s" => median(&setup),
        "replay_wall_s" => wall_s,
        "host_entries_per_s" => vt.serviced_entries as f64 / wall_s,
        "peak_rss_mb" => peak_rss_mb(),
        "vt_throughput_qps" => vt.vt_throughput_qps(),
        "vt_response_p99_s" => vt.response.percentile(99.0),
        "completed_share" => vt.completed as f64 / vt.submitted as f64,
        other => unreachable!("end-to-end metric {other:?} has no measurement"),
    };
    Outcome {
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect(),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        raw: vec![("setup_s", setup), ("replay_wall_s", walls)],
    }
}

fn per_layer(req: &Request) -> Outcome {
    let mut spans = Spans::new();
    let mut layers = Layers::new();
    let setup = spans.enter("setup");
    let workload = workloads::build(&req.workload, req.seed, &mut spans, &mut layers);
    spans.exit(setup);

    // The untraced base of the overhead figures takes half the budget; the
    // traced replays and the probes take the rest.
    let (mut tally, walls) = timed_replays(
        workload.as_ref(),
        req.seconds / 2.0,
        MIN_UNTRACED_REPS,
        None,
    );
    let untraced_s = median(&walls);
    layers.set("harness.reps", walls.len() as f64);
    layers.set("harness.rep_iqr_share", iqr_share(&walls));

    let mut failures = Vec::new();
    let untraced = tally.first.clone();
    let traced = workload.traced(
        &mut spans,
        &mut layers,
        &untraced,
        untraced_s,
        &mut failures,
    );
    tally.add(&traced.replay, "traced replay");
    layers.set(
        "harness.trace_overhead_share",
        traced.wall_s / untraced_s - 1.0,
    );

    // A layer's self time is its span minus its children, so the self times
    // (with the root's own remainder, `harness.other_s`) add up to the
    // replay's wall by construction. A negative one means children were
    // recorded outside their parent.
    let self_s = spans.self_times_s(traced.trace);
    let root_s: f64 = self_s.values().sum();
    if let Some((name, secs)) = self_s.iter().find(|(_, secs)| **secs < 0.0) {
        failures.push(format!(
            "span {name} has a negative self time ({secs:.6} s)"
        ));
    }
    eprintln!(
        "{}: traced replay {root_s:.3} s = {}",
        req.workload,
        self_s
            .iter()
            .map(|(name, s)| format!("{name} {s:.3}"))
            .collect::<Vec<_>>()
            .join(" + ")
    );

    let path = out_dir().join(format!("trace-{}-seed{}.json", req.workload, req.seed));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans.to_chrome_trace()));
    match written {
        Ok(()) => eprintln!(
            "{}: wrote {} spans to {}",
            req.workload,
            spans.all().len(),
            path.display()
        ),
        Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
    }

    tally.failures.extend(failures);
    Outcome {
        metrics: layers.iter().collect(),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        raw: vec![("untraced_wall_s", walls)],
    }
}
