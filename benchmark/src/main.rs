//! The repo benchmark: five workloads, end-to-end and per-layer metrics,
//! traced runs. See `benchmark/README.md` and `BENCHMARK.json`.
//!
//! ```text
//! liferaft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload in this process. The last line of stdout is one JSON
//!     object {correct, attempted, failed, metrics}: the end-to-end metrics
//!     with --trace 0, the per-layer metrics with --trace 1.
//! liferaft-benchmark run [--seed <n>] [--seconds <s>] [--workload <name>]
//!     Every workload (or one), each in child processes of the form above;
//!     prints every metric and writes benchmark/out/results-seed<n>.json.
//! liferaft-benchmark compare <base.json> <new.json>
//!     Two result sets, cell by cell, against the metrics' bounds.
//! ```

mod compare;
mod harness;
mod json;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use harness::{Outcome, Request};
use json::Value;

/// `run`'s defaults: the seed the committed baselines were taken with, and
/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SEED: u64 = 2009;
const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: liferaft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      liferaft-benchmark run [--seed <n>] [--seconds <s>] [--workload <name>]\n\
         \x20      liferaft-benchmark compare <base.json> <new.json>\n\
         workloads: {}",
        metrics::WORKLOADS.map(|(name, _)| name).join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs; `None` on a stray word, a flag without a value or a
/// repeated flag.
fn flags(args: &[String]) -> Option<Vec<(&str, &str)>> {
    let mut out: Vec<(&str, &str)> = Vec::new();
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return None };
        let flag = flag.strip_prefix("--")?;
        if out.iter().any(|(f, _)| *f == flag) {
            return None;
        }
        out.push((flag, value));
    }
    Some(out)
}

/// Parses the flags of the one-workload form and of `run`; `None` on an
/// unknown flag, workload or number.
fn request(args: &[String]) -> Option<(Option<String>, u64, f64, Option<bool>)> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, None);
    for (flag, value) in flags(args)? {
        match flag {
            "workload" if metrics::is_workload(value) => workload = Some(value.to_string()),
            "seed" => seed = value.parse().ok()?,
            "seconds" => {
                seconds = value.parse().ok().filter(|s| (0.0..=120.0).contains(s))?;
            }
            "trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some((workload, seed, seconds, trace))
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

fn raw_json(raw: &[(&'static str, Vec<f64>)]) -> String {
    let cells: Vec<String> = raw
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            format!("\"{name}\": [{}]", values.join(", "))
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// One workload in this process; the result object is the last stdout line.
fn one(req: &Request) -> ExitCode {
    let outcome = harness::run(req);
    for failure in &outcome.failures {
        eprintln!("FAILED {}: {failure}", req.workload);
    }
    println!("raw {}", raw_json(&outcome.raw));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `req` in a child process of this executable and reads its result
/// back. `Err` if the child failed a check, crashed or printed nonsense.
fn child(req: &Request) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &req.workload])
        .args(["--seed", &req.seed.to_string()])
        .args(["--seconds", &req.seconds.to_string()])
        .args(["--trace", if req.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("the child printed no result")?;
    let raw = lines.find_map(|l| l.strip_prefix("raw ")).unwrap_or("{}");
    let (result, raw) = (
        Value::parse(result).map_err(|e| e.to_string())?,
        Value::parse(raw).map_err(|e| e.to_string())?,
    );
    if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} failed its checks ({})",
            req.workload, output.status
        ));
    }
    let declared = |name: &str| -> Option<(&'static str, &'static str)> {
        let e2e = metrics::END_TO_END.iter().map(|m| (m.name, m.unit));
        let layers = metrics::PER_LAYER.iter().map(|l| (l.name, l.unit));
        e2e.chain(layers).find(|(n, _)| *n == name)
    };
    let mut metrics = Vec::new();
    for (name, cell) in result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[])
    {
        let (name, unit) = declared(name).ok_or(format!("undeclared metric {name:?}"))?;
        let value = cell
            .get("value")
            .and_then(Value::as_f64)
            .ok_or("metric without a value")?;
        metrics.push((name, value, unit));
    }
    let series = |name: &'static str| {
        let values = raw.get(name)?.as_array()?;
        Some((name, values.iter().filter_map(Value::as_f64).collect()))
    };
    let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(Outcome {
        metrics,
        raw: ["setup_s", "replay_wall_s", "untraced_wall_s"]
            .into_iter()
            .filter_map(series)
            .collect(),
        attempted: count("attempted"),
        failed: count("failed"),
        failures: Vec::new(),
    })
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload (or `only`), each in its own child processes: one
/// untraced for the end-to-end metrics, one traced for the layers.
fn run_all(only: Option<String>, seed: u64, seconds: f64) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sets = Vec::new();
    let mut ok = true;
    for (workload, why) in metrics::WORKLOADS {
        if only.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        println!("== {workload} — {why}");
        let run = |trace| {
            child(&Request {
                workload: workload.to_string(),
                seed,
                seconds,
                trace,
            })
        };
        let (e2e, layers) = match (run(false), run(true)) {
            (Ok(e2e), Ok(layers)) => (e2e, layers),
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    println!("FAILED {e}");
                }
                ok = false;
                continue;
            }
        };
        for (name, value, unit) in e2e.metrics.iter().chain(&layers.metrics) {
            println!("  {name:<38} {value:>18.6} {unit}");
        }
        let mut raw = e2e.raw.clone();
        raw.extend(layers.raw.clone());
        let mut set = String::new();
        write!(
            set,
            "    \"{workload}\": {{\n      \"attempted\": {}, \"failed\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {},\n      \"raw\": {}\n    }}",
            e2e.attempted + layers.attempted,
            e2e.failed + layers.failed,
            metrics_json(&e2e.metrics),
            metrics_json(&layers.metrics),
            raw_json(&raw),
        )
        .expect("writing to a String");
        sets.push(set);
    }
    let doc = format!(
        "{{\n  \"benchmark\": \"liferaft-benchmark\",\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"git_commit\": \"{}\",\n  \"nproc\": {nproc},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        git_commit(),
        sets.join(",\n")
    );
    let path = harness::out_dir().join(format!("results-seed{seed}.json"));
    match std::fs::create_dir_all(harness::out_dir()).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            println!("FAILED cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(base: &str, new: &str) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(base), load(new)) {
        (Ok(base), Ok(new)) => {
            let result = compare::compare(&base, &new);
            print!("{}", result.table);
            if result.regressed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [base, new] => compare_files(base, new),
            _ => usage(),
        },
        Some("run") => match request(&args[1..]) {
            Some((only, seed, seconds, None)) => run_all(only, seed, seconds),
            _ => usage(),
        },
        _ => match request(&args) {
            Some((Some(workload), seed, seconds, Some(trace))) => one(&Request {
                workload,
                seed,
                seconds,
                trace,
            }),
            _ => usage(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_flags_parse_in_any_order() {
        let parsed = request(&args(&[
            "--trace",
            "1",
            "--seconds",
            "10",
            "--workload",
            "pool_threaded",
            "--seed",
            "42",
        ]));
        assert_eq!(
            parsed,
            Some((Some("pool_threaded".to_string()), 42, 10.0, Some(true)))
        );
        assert_eq!(
            request(&[]),
            Some((None, DEFAULT_SEED, DEFAULT_SECONDS, None))
        );
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            &["--workload", "no_such_workload"][..],
            &["--seed", "minus-one"],
            &["--seconds", "-3"],
            &["--trace", "2"],
            &["--seed"],
            &["seed", "1"],
            &["--seed", "1", "--seed", "2"],
            &["--colour", "blue"],
        ] {
            assert_eq!(request(&args(bad)), None, "{bad:?} parsed");
        }
    }

    #[test]
    fn result_objects_round_trip_through_the_reader() {
        let metrics = [
            ("setup_s", 0.1 + 0.2, "s"),
            ("sim.batches", 8224.0, "count"),
        ];
        let v = Value::parse(&metrics_json(&metrics)).unwrap();
        let cell = v.get("setup_s").unwrap();
        assert_eq!(cell.get("value").and_then(Value::as_f64), Some(0.1 + 0.2));
        assert_eq!(cell.get("unit").and_then(Value::as_str), Some("s"));
        let raw = Value::parse(&raw_json(&[("replay_wall_s", vec![0.5, 0.25])])).unwrap();
        let walls = raw.get("replay_wall_s").and_then(Value::as_array).unwrap();
        assert_eq!(walls, [Value::Num(0.5), Value::Num(0.25)]);
    }
}
