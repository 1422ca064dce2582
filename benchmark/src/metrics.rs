//! The benchmark's declared surface: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` states the same lists for the driver;
//! a unit test keeps the two identical.
//!
//! Two clocks — every name says which. *Host* numbers are what the
//! simulator costs to run on this machine; `vt_` / "vt" numbers are virtual
//! time, what the modelled archive would take under the paper's cost model.
//! Virtual numbers and counts repeat exactly for a seed.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with its regression bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// True for virtual-time metrics, which must repeat exactly for a seed.
    pub exact: bool,
}

/// A metric of a single layer (crate); no bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// True for counts and virtual-time values, which must repeat exactly
    /// for a seed; false for host-clock values.
    pub exact: bool,
}

/// The workloads, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "saturated_batch",
        "The paper's regime: 10k queries at 2 q/s (17x no-sharing capacity), deep queues, maximal sharing; host work is ingest (preprocess + enqueue), scheduler and batch body do little.",
    ),
    (
        "trickle_interactive",
        "Same trace at 0.08 q/s, below no-sharing capacity: ~70k small batches, so pick and per-batch fixed costs do the work and response time is what a user feels.",
    ),
    (
        "crossmatch_real",
        "1k queries with real joins: puts hybrid::execute and Catalog::bucket_objects on the clock, idle everywhere else; SoA or lane-wide distance tests must show here only.",
    ),
    (
        "pool_threaded",
        "2-shard ShardedRuntime, hashed placement, hotspot-drift trace, Threaded: the only workload with more than one thread; routing, workers, merge and aggregate.",
    ),
    (
        "controller_gauntlet",
        "Four 4-shard scenario runs back to back (front door, failover, lossy transport + hedging, rebalancing): the planner paths idle elsewhere; the only workload that rejects queries by design.",
    ),
];

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn virt(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

/// The end-to-end metrics, reported under the same names by every workload.
///
/// A bound is the share of the parent's median by which a later PR may make
/// the metric worse. The benchmark is judged over ten runs with ten
/// different seeds, so each bound sits at about three times the widest
/// seed-to-seed spread seen on any workload, capped at 0.25 (the README has
/// the table): a bound the benchmark's own spread crosses protects nothing.
pub const END_TO_END: [EndToEnd; 7] = [
    host("setup_s", "s", Better::Lower, 0.25),
    host("replay_wall_s", "s", Better::Lower, 0.25),
    host("host_entries_per_s", "1/s", Better::Higher, 0.25),
    host("peak_rss_mb", "MB", Better::Lower, 0.2),
    virt("vt_throughput_qps", "1/s", Better::Higher, 0.2),
    virt("vt_response_p99_s", "s", Better::Lower, 0.25),
    virt("completed_share", "share", Better::Higher, 0.01),
];

/// A host-clock layer metric: differs run to run.
const fn host_layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// Host seconds from the traced replay or a probe.
const fn secs(name: &'static str) -> Layer {
    host_layer(name, "s", Better::Lower)
}

/// A count or a virtual-time value: repeats exactly for a seed.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn count(name: &'static str, better: Better) -> Layer {
    exact(name, "count", better)
}

use Better::{Higher, Lower};

/// The per-layer metrics (layer = crate). A workload reports 0 for a layer
/// it does not exercise.
pub const PER_LAYER: &[Layer] = &[
    // Fixture: workload, htm, catalog.
    secs("workload.trace_gen_s"),
    secs("workload.scenario_build_s"),
    count("workload.queries", Higher),
    count("workload.objects", Higher),
    secs("htm.cover_s"),
    exact("htm.ranges_per_object", "ranges", Lower),
    secs("catalog.build_s"),
    // query: ingest.
    secs("query.preprocess_s"),
    count("query.work_items", Lower),
    count("query.assignments", Lower),
    secs("query.table_enqueue_s"),
    secs("query.table_drain_s"),
    // sim: the engine core around the scheduler.
    secs("sim.deliver_s"),
    secs("sim.decide_execute_s"),
    secs("sim.batch_body_s"),
    secs("sim.report_s"),
    count("sim.batches", Lower),
    count("sim.serviced_entries", Higher),
    exact("sim.mean_batch_entries", "entries", Higher),
    exact("sim.max_wait_s", "s", Lower),
    exact("vt.response_p50_s", "s", Lower),
    exact("vt.response_p90_s", "s", Lower),
    // core: the scheduler decision.
    secs("core.pick_s"),
    count("core.decisions", Lower),
    host_layer("core.pick_ns_per_decision", "ns", Lower),
    count("core.frontier_picks", Higher),
    count("core.fallback_picks", Lower),
    exact("core.frontier_share", "share", Higher),
    // storage: the modelled bucket cache and disk.
    exact("storage.cache_serviced_share", "share", Higher),
    exact("storage.cache_hit_share", "share", Higher),
    count("storage.bucket_reads", Lower),
    count("storage.evictions", Lower),
    // join, catalog: the real cross-match body.
    secs("sim.join_body_s"),
    secs("catalog.bucket_objects_s"),
    count("catalog.objects_materialized", Lower),
    secs("join.scan_s"),
    secs("join.indexed_s"),
    count("join.scan_batches", Higher),
    count("join.indexed_batches", Higher),
    count("join.matches", Higher),
    exact("join.matches_per_kentry", "1/kentry", Higher),
    // runtime: the sharded pool.
    secs("runtime.route_s"),
    secs("runtime.post_route_s"),
    secs("runtime.pick_s"),
    count("runtime.fragments", Lower),
    exact("runtime.cross_shard_share", "share", Lower),
    secs("runtime.stepped_wall_s"),
    host_layer("runtime.threaded_speedup", "x", Higher),
    exact("runtime.shard_imbalance", "x", Lower),
    // runtime controllers.
    secs("gauntlet.flash_crowd_s"),
    secs("gauntlet.shard_crash_s"),
    secs("gauntlet.lossy_link_s"),
    secs("gauntlet.hotspot_drift_s"),
    count("admission.shed_events", Lower),
    count("admission.rejected", Lower),
    exact("admission.interactive_p90_s", "s", Lower),
    count("failover.evacuated_entries", Lower),
    count("failover.redeliveries", Lower),
    exact("failover.recovery_lag_s", "s", Lower),
    count("transport.retransmits", Lower),
    count("transport.hedges", Lower),
    exact("transport.hedge_win_share", "share", Higher),
    count("transport.suppressed_duplicates", Lower),
    count("rebalance.moves", Lower),
    count("rebalance.moved_entries", Lower),
    // telemetry: the flight recorder (off in every timed replay).
    count("telemetry.events", Lower),
    host_layer("telemetry.record_overhead_share", "share", Lower),
    secs("telemetry.report_build_s"),
    secs("telemetry.export_jsonl_s"),
    secs("telemetry.export_chrome_s"),
    exact("telemetry.jsonl_bytes", "B", Lower),
    // The harness itself, and fidelity to the paper's headline.
    host_layer("harness.reps", "count", Higher),
    host_layer("harness.rep_iqr_share", "share", Lower),
    host_layer("harness.trace_overhead_share", "share", Lower),
    secs("harness.other_s"),
    count("harness.generator_threads", Higher),
    exact("fidelity.noshare_vt_throughput_qps", "1/s", Higher),
    exact("fidelity.throughput_gain_vs_noshare", "x", Higher),
];

/// Looks up an end-to-end metric by name.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// True if `name` is a declared workload.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// The per-layer values of one run: every declared metric, 0 until set.
#[derive(Debug, Clone, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Every declared per-layer metric at 0.
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|l| (l.name, 0.0)).collect())
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    /// Panics on an undeclared name: a layer number nobody can look up in
    /// `BENCHMARK.json` is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name:?} is not declared"));
        *slot = value;
    }

    /// `(name, value, unit)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER.iter().map(|l| (l.name, self.0[l.name], l.unit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use std::collections::BTreeSet;
    use std::path::Path;

    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_use_the_contract_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(legal_name(name), "illegal name {name:?}");
            assert!(seen.insert(name), "name {name:?} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(legal_unit(unit), "illegal unit {unit:?}");
        }
        assert!(!legal_name("has space") && !legal_name(".dot") && !legal_name("a/b"));
        assert!(legal_name("core.pick_s") && legal_name("9lives-x_1"));
    }

    #[test]
    fn counts_and_bounds_are_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        for (name, why) in &WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
    }

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing string {key:?}"))
    }

    /// Everything the runner prints is declared in `BENCHMARK.json` and the
    /// other way round, with the same unit, direction and bound.
    #[test]
    fn benchmark_json_declares_exactly_what_the_runner_reports() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(got, "better"), want.better.as_str(), "{}", want.name);
            assert_eq!(
                got.get("bound").and_then(Value::as_f64),
                Some(want.bound),
                "{}",
                want.name
            );
            assert_eq!(got.as_object().unwrap().len(), 4, "{}", want.name);
        }

        let layers = doc.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
            assert_eq!(field(got, "better"), want.better.as_str(), "{}", want.name);
            assert_eq!(got.as_object().unwrap().len(), 3, "{}", want.name);
        }

        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }

    /// The benchmark builds with the settings the repo ships with: profile
    /// drift between the two manifests would change speed without changing
    /// code.
    #[test]
    fn release_profile_equals_the_root_manifests() {
        fn release_profile(manifest: &str) -> Vec<String> {
            let mut lines: Vec<String> = manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| l.replace(' ', ""))
                .collect();
            lines.sort();
            lines
        }
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let own = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let root = std::fs::read_to_string(dir.join("../Cargo.toml")).unwrap();
        let own = release_profile(&own);
        assert!(!own.is_empty(), "benchmark manifest has no release profile");
        assert_eq!(own, release_profile(&root));
    }

    #[test]
    fn layers_start_at_zero_and_reject_undeclared_names() {
        let mut l = Layers::new();
        assert_eq!(l.iter().count(), PER_LAYER.len());
        assert!(l.iter().all(|(_, v, _)| v == 0.0));
        l.set("core.pick_s", 1.5);
        assert!(l.iter().any(|cell| cell == ("core.pick_s", 1.5, "s")));
        let caught = std::panic::catch_unwind(move || l.set("core.typo_s", 1.0));
        assert!(caught.is_err());
    }
}
