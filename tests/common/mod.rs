//! Shared fixture + fingerprint machinery for the determinism test suites.
//!
//! `golden_determinism.rs` pins the single-engine `Simulation` against the
//! recorded fingerprints below; `runtime_determinism.rs` pins the sharded
//! runtime against the *same* fingerprints (1 shard) and against itself
//! (stepped vs threaded at 2/4/8 shards). Keeping the fixture, the
//! fingerprint, and the goldens in one module guarantees all suites talk
//! about the same bytes.

#![allow(dead_code)] // each test binary uses a subset of this module

use liferaft::core::{adaptive::TradeoffPoint, TradeoffCurve};
use liferaft::prelude::*;

/// FNV-1a over a byte stream; stable across platforms and Rust releases.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// A compact, exact fingerprint of everything the decision path influences:
/// batch counts, I/O accounting, cache behaviour, the starvation monitor,
/// and the full per-query completion sequence (order included).
pub fn fingerprint(r: &RunReport) -> String {
    let mut h = Fnv::new();
    for o in &r.outcomes {
        h.u64(o.query.0);
        h.u64(o.arrival.as_micros());
        h.u64(o.completion.as_micros());
        h.u64(o.assignments);
    }
    format!(
        "b={} sb={} ib={} se={} cse={} reads={} probes={} hits={} miss={} ev={} mk={:016x} mw={:016x} oc={:016x}",
        r.batches,
        r.scan_batches,
        r.indexed_batches,
        r.serviced_entries,
        r.cache_serviced_entries,
        r.io.bucket_reads,
        r.io.index_probes,
        r.cache.hits,
        r.cache.misses,
        r.cache.evictions,
        r.makespan_s.to_bits(),
        r.max_wait_ms.to_bits(),
        h.0,
    )
}

/// The fixed catalog + trace every determinism suite replays.
pub fn fixture() -> (VirtualCatalog, TimedTrace) {
    const LEVEL: u8 = 10;
    const BUCKETS: u32 = 512;
    let catalog = VirtualCatalog::new(LEVEL, BUCKETS, 200, 4096, 7);
    let cfg = WorkloadConfig::paper_like(LEVEL, BUCKETS, 120, 99);
    let trace = TraceGenerator::new(cfg).generate();
    let arrivals = poisson_arrivals(0.5, trace.len(), 1);
    let timed = trace.with_arrivals(arrivals);
    (catalog, timed)
}

/// The adaptive-α scheduler the suites pin (fixed trade-off table).
pub fn adaptive() -> AdaptiveScheduler {
    let pt = |alpha, tput, resp| TradeoffPoint {
        alpha,
        throughput_qps: tput,
        mean_response_s: resp,
    };
    let table = TradeoffTable::new(vec![
        TradeoffCurve::new(
            0.1,
            vec![
                pt(0.0, 0.115, 300.0),
                pt(0.5, 0.110, 180.0),
                pt(1.0, 0.107, 138.0),
            ],
        ),
        TradeoffCurve::new(
            0.5,
            vec![
                pt(0.0, 0.40, 420.0),
                pt(0.25, 0.32, 340.0),
                pt(1.0, 0.14, 290.0),
            ],
        ),
    ]);
    let controller = AlphaController::new(
        table,
        0.20,
        SimDuration::from_secs(120),
        SimDuration::from_secs(30),
        0.5,
    );
    AdaptiveScheduler::new(
        LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, 0.5),
        controller,
    )
}

/// A nullary factory producing a fresh boxed scheduler per call.
pub type SchedulerFactory = fn() -> Box<dyn Scheduler + Send>;

/// The six pinned policies, as boxed factories usable by both the serial
/// simulation and the sharded runtime (every shard gets a fresh instance).
pub fn scheduler_factories() -> Vec<(&'static str, SchedulerFactory)> {
    vec![
        ("NoShare", || Box::new(NoShareScheduler::new())),
        ("RR", || Box::new(RoundRobinScheduler::new())),
        ("greedy", || {
            Box::new(LifeRaftScheduler::greedy(CostModel::paper()))
        }),
        ("aged", || {
            Box::new(LifeRaftScheduler::age_based(CostModel::paper()))
        }),
        ("alpha05", || {
            Box::new(LifeRaftScheduler::new(
                CostModel::paper(),
                AgingMode::Normalized,
                0.5,
            ))
        }),
        ("adaptive", || Box::new(adaptive())),
    ]
}

// Recorded with: cargo test --test golden_determinism -- --nocapture (with
// the asserts relaxed to prints) on the pre-refactor engine; see CHANGES.md.
pub const GOLDEN_NOSHARE: &str = "b=390 sb=390 ib=0 se=59935 cse=0 reads=390 probes=0 hits=0 miss=0 ev=0 mk=407dc358201cd5fa mw=410e70b0645a1cac oc=890ec13a37c47be1";
pub const GOLDEN_RR: &str = "b=261 sb=234 ib=27 se=59935 cse=6870 reads=191 probes=81 hits=43 miss=191 ev=171 mk=406f71906cca2db6 mw=40ebbc9d89374bc7 oc=ca95e7f81b4cd249";
pub const GOLDEN_GREEDY: &str = "b=357 sb=333 ib=24 se=59935 cse=25436 reads=174 probes=75 hits=159 miss=174 ev=154 mk=406db495ebfa8f7e mw=40f9c19bbe76c8b4 oc=31fa84b4f9dddbcb";
pub const GOLDEN_AGED: &str = "b=263 sb=235 ib=28 se=59935 cse=10018 reads=195 probes=83 hits=40 miss=195 ev=175 mk=406fd278ee286727 mw=40e1d1d0dd2f1aa0 oc=6a87084a02e6a3aa";
pub const GOLDEN_ALPHA05: &str = "b=349 sb=323 ib=26 se=59935 cse=25130 reads=172 probes=82 hits=151 miss=172 ev=152 mk=406d92e4d3bf2f55 mw=40f96c5276c8b439 oc=0f796d9b718c98d7";
pub const GOLDEN_ADAPTIVE: &str = "b=351 sb=326 ib=25 se=59935 cse=25507 reads=174 probes=77 hits=152 miss=174 ev=154 mk=406db495ebfa8f7e mw=40f8f40c39581062 oc=9c4d2ee4b4484b2e";

/// `(label, golden)` rows matching [`scheduler_factories`] order.
pub fn goldens() -> Vec<(&'static str, &'static str)> {
    vec![
        ("NoShare", GOLDEN_NOSHARE),
        ("RR", GOLDEN_RR),
        ("greedy", GOLDEN_GREEDY),
        ("aged", GOLDEN_AGED),
        ("alpha05", GOLDEN_ALPHA05),
        ("adaptive", GOLDEN_ADAPTIVE),
    ]
}
