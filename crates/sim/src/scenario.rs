//! The fault/overload scenario suite: workload fixtures that push the
//! system past capacity in characteristic ways.
//!
//! Each scenario is a deterministic (trace, fault-injection) pair built
//! from a seed: flash crowds, diurnal arrival cycles, adversarial hotspot
//! drift, interactive-vs-batch mixes, and injected shard slowdowns. The
//! suite lives here — below the runtime — because a scenario is *workload
//! shape*, not policy: the sharded runtime consumes the trace through its
//! front door and converts the recommended [`ShardSlowdown`] windows into
//! its fault plan, and the single-engine simulation can replay the same
//! traces unsharded. Everything is a pure function of the
//! [`ScenarioScale`], so golden and determinism tests can pin scenario
//! runs exactly like any other fixture.

use liferaft_storage::{SimDuration, SimTime};
use liferaft_workload::arrivals::{diurnal_arrivals, flash_crowd_arrivals, poisson_arrivals};
use liferaft_workload::{TimedTrace, TraceGenerator, WorkloadConfig};

/// The scenario family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// A sudden arrival burst far beyond service capacity: low base rate,
    /// then a window at ~40× the sustainable rate.
    FlashCrowd,
    /// A sinusoidal day/night arrival cycle whose peak exceeds capacity.
    DiurnalCycle,
    /// Adversarial hotspot drift: the hot region rotates across the sky
    /// epoch by epoch, defeating any static placement.
    HotspotDrift,
    /// A bimodal interactive-vs-batch mix: many tiny exploratory probes
    /// racing a minority of exhaustive scans for the same shards.
    InteractiveBatchMix,
    /// A nominal workload plus an injected shard slowdown: one shard's
    /// virtual-time rate drops for an interval (see [`ShardSlowdown`]).
    ShardStall,
    /// A nominal workload plus a full shard outage: one shard freezes for a
    /// mid-trace interval (see [`ShardOutage`]) — the failover path must
    /// evacuate its buckets and re-deliver its lost work.
    ShardCrash,
    /// A nominal workload over degraded router↔shard links plus one slow
    /// shard: data-direction loss and delay force retransmits, a lossy ack
    /// path forces duplicate suppression, and the stalled shard is the
    /// straggler that hedging routes around (see [`LinkFault`]).
    LossyLink,
}

impl ScenarioKind {
    /// Every scenario, in canonical order.
    pub const ALL: [ScenarioKind; 7] = [
        ScenarioKind::FlashCrowd,
        ScenarioKind::DiurnalCycle,
        ScenarioKind::HotspotDrift,
        ScenarioKind::InteractiveBatchMix,
        ScenarioKind::ShardStall,
        ScenarioKind::ShardCrash,
        ScenarioKind::LossyLink,
    ];

    /// Stable machine-readable name (bench row keys, CI labels).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::FlashCrowd => "flash_crowd",
            ScenarioKind::DiurnalCycle => "diurnal_cycle",
            ScenarioKind::HotspotDrift => "hotspot_drift",
            ScenarioKind::InteractiveBatchMix => "interactive_batch_mix",
            ScenarioKind::ShardStall => "shard_stall",
            ScenarioKind::ShardCrash => "shard_crash",
            ScenarioKind::LossyLink => "lossy_link",
        }
    }
}

/// An injected shard slowdown: between `from` and `until`, every batch the
/// shard starts costs `factor ×` its modeled virtual time (a degraded disk,
/// a noisy neighbor, a failing replica). Plain indices rather than runtime
/// shard ids so the suite stays below the runtime crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSlowdown {
    /// Index of the slowed shard.
    pub shard: u32,
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive).
    pub until: SimTime,
    /// Virtual-time cost multiplier (≥ 1.0).
    pub factor: f64,
}

/// An injected shard outage: between `down_at` (inclusive) and `up_at`
/// (exclusive) the shard is dead — it executes nothing and accepts nothing
/// (a crashed process, a lost node). At `up_at` it rejoins empty. Plain
/// indices rather than runtime shard ids so the suite stays below the
/// runtime crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutage {
    /// Index of the dead shard.
    pub shard: u32,
    /// Start of the outage (inclusive).
    pub down_at: SimTime,
    /// End of the outage (exclusive) — the shard rejoins here, cold.
    pub up_at: SimTime,
}

/// The direction of the router↔shard hop a [`LinkFault`] degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDirection {
    /// Router → shard: fragment deliveries (and retransmissions).
    ToShard,
    /// Shard → router: delivery acknowledgements.
    ToRouter,
}

/// An injected link-quality window: between `from` (inclusive) and `until`
/// (exclusive), every message crossing the router↔shard link of `shard` in
/// `direction` is dropped with probability `drop_prob`; a delivered message
/// is delayed by `delay + entries × delay_per_entry`, duplicated with
/// probability `dup_prob`, and reordered — held back an extra
/// `reorder_delay` behind later traffic — with probability `reorder_prob`.
/// Plain indices rather than runtime shard ids so the suite stays below the
/// runtime crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Index of the shard whose link degrades.
    pub shard: u32,
    /// Which direction of the hop is degraded.
    pub direction: LinkDirection,
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive).
    pub until: SimTime,
    /// Per-message drop probability in `[0, 1]`.
    pub drop_prob: f64,
    /// Fixed one-way latency added to every delivered message.
    pub delay: SimDuration,
    /// Serialization latency per (object × bucket) entry carried.
    pub delay_per_entry: SimDuration,
    /// Probability a delivered message arrives twice in `[0, 1]`.
    pub dup_prob: f64,
    /// Probability a delivered message is reordered in `[0, 1]`.
    pub reorder_prob: f64,
    /// Extra delay a reordered message is held back by.
    pub reorder_delay: SimDuration,
}

/// Size/seed knobs of a scenario build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioScale {
    /// HTM level of the partition the trace targets.
    pub level: u8,
    /// Buckets in the partition.
    pub n_buckets: u32,
    /// Queries in the trace.
    pub n_queries: usize,
    /// Master seed; every derived stream re-seeds from it.
    pub seed: u64,
}

impl ScenarioScale {
    /// The test-suite scale: small enough to run every scenario × scheduler
    /// combination in seconds, busy enough to actually overload.
    pub fn small() -> Self {
        ScenarioScale {
            level: 10,
            n_buckets: 128,
            n_queries: 96,
            seed: 2009,
        }
    }
}

/// One built scenario: the timed trace plus recommended fault injection.
#[derive(Debug, Clone)]
pub struct ScenarioFixture {
    /// Which scenario this is.
    pub kind: ScenarioKind,
    /// The arrival-stamped trace.
    pub trace: TimedTrace,
    /// Injected shard slowdowns (empty for pure-overload scenarios).
    pub stalls: Vec<ShardSlowdown>,
    /// Injected shard outages (empty for every scenario but
    /// [`ScenarioKind::ShardCrash`]).
    pub outages: Vec<ShardOutage>,
    /// Injected link-fault windows (empty for every scenario but
    /// [`ScenarioKind::LossyLink`]).
    pub links: Vec<LinkFault>,
}

/// Builds a scenario fixture — a pure function of `(kind, scale)`.
pub fn build_scenario(kind: ScenarioKind, scale: &ScenarioScale) -> ScenarioFixture {
    let base = || {
        WorkloadConfig::paper_like(
            scale.level,
            scale.n_buckets,
            scale.n_queries,
            scale.seed ^ 0x5C,
        )
    };
    let n = scale.n_queries;
    let seed = scale.seed;
    let no_faults = || (Vec::new(), Vec::new(), Vec::new());
    let (cfg, arrivals, (stalls, outages, links)) = match kind {
        ScenarioKind::FlashCrowd => {
            // Quiet base load, then ~60% of the trace crammed into a burst
            // window at 40× the base rate.
            let cfg = base();
            let flash_at = SimDuration::from_secs(30);
            let flash_len = SimDuration::from_secs_f64(0.6 * n as f64 / 20.0);
            let arrivals = flash_crowd_arrivals(0.5, 20.0, flash_at, flash_len, n, seed ^ 0xF1A5);
            (cfg, arrivals, no_faults())
        }
        ScenarioKind::DiurnalCycle => {
            // Two day/night cycles; the daily peak exceeds capacity, the
            // trough drains the backlog.
            let cfg = base();
            let period = SimDuration::from_secs_f64(n as f64 / 1.3);
            let arrivals = diurnal_arrivals(0.2, 4.0, period, n, seed ^ 0xD1);
            (cfg, arrivals, no_faults())
        }
        ScenarioKind::HotspotDrift => {
            // The hot set rotates every epoch with no always-active core:
            // whatever placement a static map starts with goes cold.
            let mut cfg = base();
            cfg.epochs = 6;
            cfg.active_per_epoch = 2;
            cfg.always_active = 0;
            cfg.hotspots = 6;
            cfg.hotspot_zipf = 0.5;
            cfg.hotspot_fraction = 0.95;
            let arrivals = poisson_arrivals(4.0, n, seed ^ 0xD21F);
            (cfg, arrivals, no_faults())
        }
        ScenarioKind::InteractiveBatchMix => {
            // Bimodal sizes: tiny exploratory probes (interactive-class
            // under any sane threshold) against exhaustive scans (batch),
            // arriving together past capacity.
            let mut cfg = base();
            cfg.size_small = (1, 25);
            cfg.size_large = (800, 2_000);
            cfg.large_fraction = 0.35;
            cfg.hot_large_fraction = 0.35;
            let arrivals = poisson_arrivals(3.0, n, seed ^ 0x1B);
            (cfg, arrivals, no_faults())
        }
        ScenarioKind::ShardStall => {
            // Nominal load, but one shard runs 6× slow for a mid-trace
            // interval — its backlog holds the front door's global bound
            // longer, so the pool must queue and shed to stay bounded.
            let cfg = base();
            let arrivals = poisson_arrivals(1.5, n, seed ^ 0x57A1);
            let stall_from = SimTime::ZERO + SimDuration::from_secs(15);
            let stall_until = SimTime::ZERO + SimDuration::from_secs_f64(15.0 + n as f64 / 1.5);
            let stalls = vec![ShardSlowdown {
                shard: 0,
                from: stall_from,
                until: stall_until,
                factor: 6.0,
            }];
            (cfg, arrivals, (stalls, Vec::new(), Vec::new()))
        }
        ScenarioKind::ShardCrash => {
            // A flash of load builds a pool-wide backlog, then one shard
            // dies outright mid-drain and stays dead until well past the
            // last arrival — everything queued there must be evacuated and
            // every arrival targeting it re-delivered elsewhere, because
            // nothing the shard holds runs before the trace is over. (An
            // outage that ends mid-drain is indistinguishable from a stall:
            // both rows lose the same capacity-seconds and the stranded
            // work still drains in parallel afterwards.)
            let cfg = base();
            let flash_at = SimDuration::from_secs(10);
            let flash_len = SimDuration::from_secs_f64(0.5 * n as f64 / 16.0);
            let arrivals = flash_crowd_arrivals(1.0, 16.0, flash_at, flash_len, n, seed ^ 0xDEAD);
            let down_at = SimTime::ZERO + SimDuration::from_secs(12);
            let last = arrivals.last().copied().unwrap_or(SimTime::ZERO);
            let up_at = last + SimDuration::from_secs(30);
            let outages = vec![ShardOutage {
                shard: 0,
                down_at,
                up_at,
            }];
            (cfg, arrivals, (Vec::new(), outages, Vec::new()))
        }
        ScenarioKind::LossyLink => {
            // Nominal load, one shard running slow behind flaky links: the
            // slow shard's data direction loses and delays fragments (so
            // retransmits fire), its ack path is lossy (so retransmits of
            // already-delivered fragments must be dedup-suppressed), and a
            // second shard's milder loss keeps the chaos from being
            // single-shard. The stalled shard is the straggler a hedging
            // policy routes around. Windows run well past the last arrival
            // so retransmit tails stay inside the faulty regime.
            let cfg = base();
            let arrivals = poisson_arrivals(1.5, n, seed ^ 0x1055);
            let span = SimDuration::from_secs_f64(2.5 * n as f64 / 1.5);
            let from = SimTime::ZERO;
            let until = SimTime::ZERO + span;
            let stalls = vec![ShardSlowdown {
                shard: 0,
                from: SimTime::ZERO + SimDuration::from_secs(5),
                until,
                factor: 5.0,
            }];
            let flaky = |shard, direction, drop_prob, dup_prob| LinkFault {
                shard,
                direction,
                from,
                until,
                drop_prob,
                delay: SimDuration::from_millis(150),
                delay_per_entry: SimDuration::from_micros(20),
                dup_prob,
                reorder_prob: 0.10,
                reorder_delay: SimDuration::from_millis(400),
            };
            let links = vec![
                flaky(0, LinkDirection::ToShard, 0.20, 0.05),
                flaky(0, LinkDirection::ToRouter, 0.20, 0.0),
                flaky(1, LinkDirection::ToShard, 0.05, 0.02),
            ];
            (cfg, arrivals, (stalls, Vec::new(), links))
        }
    };
    let trace = TraceGenerator::new(cfg).generate().with_arrivals(arrivals);
    ScenarioFixture {
        kind,
        trace,
        stalls,
        outages,
        links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_builds_deterministically() {
        let scale = ScenarioScale::small();
        for kind in ScenarioKind::ALL {
            let a = build_scenario(kind, &scale);
            let b = build_scenario(kind, &scale);
            assert_eq!(a.trace.len(), scale.n_queries, "{}", kind.name());
            assert_eq!(
                a.trace.entries().len(),
                b.trace.entries().len(),
                "{}",
                kind.name()
            );
            for ((ta, qa), (tb, qb)) in a.trace.entries().iter().zip(b.trace.entries()) {
                assert_eq!(ta, tb, "{}", kind.name());
                assert_eq!(qa.id, qb.id, "{}", kind.name());
                assert_eq!(qa.objects.len(), qb.objects.len(), "{}", kind.name());
            }
            assert_eq!(a.stalls.len(), b.stalls.len());
            assert_eq!(a.outages, b.outages, "{}", kind.name());
            assert_eq!(a.links, b.links, "{}", kind.name());
        }
    }

    #[test]
    fn shard_crash_recommends_an_outage_window() {
        let fx = build_scenario(ScenarioKind::ShardCrash, &ScenarioScale::small());
        assert!(fx.stalls.is_empty());
        assert_eq!(fx.outages.len(), 1);
        let o = fx.outages[0];
        assert_eq!(o.shard, 0);
        assert!(o.up_at > o.down_at);
        // The window overlaps the arrival span, else it injects nothing.
        let last = fx.trace.entries().last().unwrap().0;
        assert!(o.down_at < last, "outage must start within the trace");
    }

    #[test]
    fn shard_stall_recommends_a_slowdown_window() {
        let fx = build_scenario(ScenarioKind::ShardStall, &ScenarioScale::small());
        assert_eq!(fx.stalls.len(), 1);
        let s = fx.stalls[0];
        assert_eq!(s.shard, 0);
        assert!(s.factor > 1.0);
        assert!(s.until > s.from);
        // The window overlaps the arrival span, else it injects nothing.
        let last = fx.trace.entries().last().unwrap().0;
        assert!(s.from < last, "stall must start within the trace");
    }

    #[test]
    fn lossy_link_recommends_flaky_windows_and_a_straggler() {
        let fx = build_scenario(ScenarioKind::LossyLink, &ScenarioScale::small());
        assert!(fx.outages.is_empty());
        assert_eq!(fx.stalls.len(), 1, "the straggler shard");
        assert!(!fx.links.is_empty());
        let last = fx.trace.entries().last().unwrap().0;
        for l in &fx.links {
            assert!(l.until > l.from);
            assert!(l.from < last, "link fault must start within the trace");
            assert!((0.0..=1.0).contains(&l.drop_prob));
            assert!((0.0..=1.0).contains(&l.dup_prob));
            assert!((0.0..=1.0).contains(&l.reorder_prob));
        }
        // Both directions are exercised: data loss forces retransmits, ack
        // loss forces duplicate suppression.
        assert!(fx
            .links
            .iter()
            .any(|l| l.direction == LinkDirection::ToShard && l.drop_prob > 0.0));
        assert!(fx
            .links
            .iter()
            .any(|l| l.direction == LinkDirection::ToRouter && l.drop_prob > 0.0));
    }

    #[test]
    fn names_are_stable_and_unique() {
        let mut names: Vec<&str> = ScenarioKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ScenarioKind::ALL.len());
    }
}
