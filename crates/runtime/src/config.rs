//! Runtime configuration: shard layout, rebalancing, fault injection,
//! execution mode.

use liferaft_sim::{LinkDirection, LinkFault, ShardOutage, ShardSlowdown, SimConfig};
use liferaft_storage::{SimDuration, SimTime};
use liferaft_telemetry::TelemetryConfig;

use crate::admission::FrontDoorConfig;
use crate::failover::FailoverConfig;
use crate::shard::ShardAssignment;
use crate::transport::TransportConfig;

/// Elastic-rebalancing policy: at every `epoch` of virtual time, a
/// controller inspects per-shard load and lets underloaded shards adopt hot
/// buckets from overloaded ones.
///
/// Decisions are computed once, at epoch boundaries of the runtime's window
/// loop, and recorded as an epoch-indexed [`RebalanceLog`](crate::rebalance::RebalanceLog)
/// — so elastic runs stay bit-identical across execution modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Virtual-time cadence of rebalance decisions (boundaries at
    /// `k × epoch`, k = 1, 2, …). Zero (the default) leaves the static shard
    /// map in force and reproduces the non-elastic runtime bit-for-bit.
    pub epoch: SimDuration,
    /// Trigger threshold: rebalance only when the most-loaded shard's queued
    /// backlog exceeds `min_imbalance ×` the mean backlog (≥ 1.0).
    pub min_imbalance: f64,
    /// Upper bound on bucket moves per epoch boundary.
    pub max_moves_per_epoch: u32,
}

impl RebalanceConfig {
    /// Rebalancing off — the static-map behaviour (and the `Default`).
    pub fn disabled() -> Self {
        RebalanceConfig {
            epoch: SimDuration::ZERO,
            min_imbalance: 1.5,
            max_moves_per_epoch: 4,
        }
    }

    /// Rebalancing on with boundaries every `epoch` and default policy
    /// knobs (1.5× imbalance trigger, ≤ 4 moves per epoch). A move pays the
    /// fixed hand-over of `docs/ARCHITECTURE.md`, "Fixed controller
    /// constants".
    ///
    /// ```
    /// use liferaft_runtime::RebalanceConfig;
    /// use liferaft_storage::SimDuration;
    ///
    /// let mut rb = RebalanceConfig::every(SimDuration::from_secs(5));
    /// assert_eq!(rb.epoch, SimDuration::from_secs(5));
    /// // Tighten the trigger so milder hotspots still shed buckets.
    /// rb.min_imbalance = 1.4;
    /// assert_eq!(RebalanceConfig::disabled().epoch, SimDuration::ZERO);
    /// ```
    ///
    /// # Panics
    /// Panics on a zero `epoch`, which would fire boundaries forever.
    pub fn every(epoch: SimDuration) -> Self {
        assert!(
            epoch > SimDuration::ZERO,
            "a zero rebalance epoch would fire boundaries forever"
        );
        RebalanceConfig {
            epoch,
            ..Self::disabled()
        }
    }

    /// Validates invariants.
    pub fn validate(&self) {
        assert!(
            self.min_imbalance >= 1.0,
            "an imbalance trigger below 1.0 is always on"
        );
        assert!(
            self.max_moves_per_epoch > 0,
            "rebalancing must allow at least one move per epoch"
        );
    }
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Injected faults: shard slowdown, outage, and link-fault windows the
/// runtime applies during execution (the delivery mechanism of the
/// [`ShardStall`](liferaft_sim::ScenarioKind::ShardStall),
/// [`ShardCrash`](liferaft_sim::ScenarioKind::ShardCrash), and
/// [`LossyLink`](liferaft_sim::ScenarioKind::LossyLink) scenarios).
///
/// Slowdowns and outages are *pure per-shard state*: a slowdown scales the
/// virtual-time cost of every batch the afflicted shard **starts** inside
/// the window, and an outage freezes the shard's clock until `up_at` (and
/// wipes its cache — a crash loses residency), so the injected run stays a
/// pure function of each shard's own fragment stream and threaded
/// execution remains bit-identical to the stepped run. Link faults
/// degrade the router↔shard hop itself and are consumed by the transport
/// controller ([`RuntimeConfig::transport`]), which resolves every drop,
/// delay, duplication, and reordering draw of a fragment as its routing is
/// handed off — a pure function of the fragment.
///
/// # Which fault combinations compose
///
/// All of them, given one fault state per instant: stall and outage windows
/// on one shard are pairwise disjoint, and so are link windows per
/// (shard, direction). A link window may overlap an outage on its shard in
/// any way — a fragment the link delivers into the outage is lost to it
/// under failover, and waits for `up_at` without. Every fault kind
/// composes with every controller.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Injected shard slowdown windows.
    pub stalls: Vec<ShardSlowdown>,
    /// Injected shard outage windows; recovery behaviour is governed by
    /// [`RuntimeConfig::failover`].
    pub outages: Vec<ShardOutage>,
    /// Injected router↔shard link-fault windows; delivery guarantees on
    /// top of them are governed by [`RuntimeConfig::transport`].
    pub links: Vec<LinkFault>,
}

impl FaultPlan {
    /// No injected faults (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Slowdown windows afflicting shard `shard`, as
    /// `(from, until, factor)` triples.
    pub fn for_shard(&self, shard: u32) -> Vec<(SimTime, SimTime, f64)> {
        self.stalls
            .iter()
            .filter(|s| s.shard == shard)
            .map(|s| (s.from, s.until, s.factor))
            .collect()
    }

    /// Outage windows afflicting shard `shard`, as `(down_at, up_at)`
    /// pairs sorted by start.
    pub fn outages_for_shard(&self, shard: u32) -> Vec<(SimTime, SimTime)> {
        let mut windows: Vec<(SimTime, SimTime)> = self
            .outages
            .iter()
            .filter(|o| o.shard == shard)
            .map(|o| (o.down_at, o.up_at))
            .collect();
        windows.sort_unstable();
        windows
    }

    /// The link-fault window (if any) covering instant `at` on shard
    /// `shard` in `direction`. Windows per (shard, direction) are disjoint
    /// by [`validate`](Self::validate), so the match is unique.
    pub fn link_at(&self, shard: u32, direction: LinkDirection, at: SimTime) -> Option<&LinkFault> {
        self.links
            .iter()
            .find(|l| l.shard == shard && l.direction == direction && l.from <= at && at < l.until)
    }

    /// Validates invariants against the pool size: every window must be
    /// non-empty (`end > start`), target an existing shard, and fault
    /// windows on the same shard — stalls and outages alike — must be
    /// pairwise disjoint. Link-fault windows are validated per
    /// (shard, direction): probabilities in `[0, 1]` and disjoint spans.
    pub fn validate(&self, n_shards: u32) {
        for l in &self.links {
            assert!(
                l.shard < n_shards,
                "link fault targets shard {} of {n_shards}",
                l.shard
            );
            assert!(l.until > l.from, "link fault window must be non-empty");
            for (p, what) in [
                (l.drop_prob, "drop"),
                (l.dup_prob, "duplication"),
                (l.reorder_prob, "reorder"),
            ] {
                assert!(
                    p.is_finite() && (0.0..=1.0).contains(&p),
                    "link {what} probability {p} outside [0, 1] on shard {}",
                    l.shard
                );
            }
        }
        // One link state per (shard, direction, instant).
        for shard in 0..n_shards {
            for direction in [LinkDirection::ToShard, LinkDirection::ToRouter] {
                let mut windows: Vec<(SimTime, SimTime)> = self
                    .links
                    .iter()
                    .filter(|l| l.shard == shard && l.direction == direction)
                    .map(|l| (l.from, l.until))
                    .collect();
                windows.sort_unstable();
                for pair in windows.windows(2) {
                    assert!(
                        pair[1].0 >= pair[0].1,
                        "overlapping link fault windows on shard {shard} \
                         ({direction:?})"
                    );
                }
            }
        }
        for s in &self.stalls {
            assert!(
                s.shard < n_shards,
                "stall targets shard {} of {n_shards}",
                s.shard
            );
            assert!(s.until > s.from, "stall window must be non-empty");
            assert!(
                s.factor.is_finite() && s.factor >= 1.0,
                "a slowdown factor below 1.0 would speed the shard up"
            );
        }
        for o in &self.outages {
            assert!(
                o.shard < n_shards,
                "outage targets shard {} of {n_shards}",
                o.shard
            );
            assert!(o.up_at > o.down_at, "outage window must be non-empty");
        }
        // One fault state per (shard, instant): windows of either kind on
        // the same shard must not overlap.
        for shard in 0..n_shards {
            let mut windows: Vec<(SimTime, SimTime, &str)> = Vec::new();
            windows.extend(
                self.stalls
                    .iter()
                    .filter(|s| s.shard == shard)
                    .map(|s| (s.from, s.until, "stall")),
            );
            windows.extend(
                self.outages
                    .iter()
                    .filter(|o| o.shard == shard)
                    .map(|o| (o.down_at, o.up_at, "outage")),
            );
            windows.sort_unstable_by_key(|&(from, until, _)| (from, until));
            for pair in windows.windows(2) {
                let (_, until, ka) = pair[0];
                let (from, _, kb) = pair[1];
                assert!(
                    from >= until,
                    "overlapping {ka}/{kb} fault windows on shard {shard}"
                );
            }
        }
    }
}

/// Knobs of one sharded runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Per-shard simulation configuration (cost model, cache size, joins).
    /// Each shard owns its *own* bucket cache of `sim.cache_buckets`.
    pub sim: SimConfig,
    /// Number of shards the bucket space is partitioned across.
    pub n_shards: u32,
    /// Bucket → shard assignment policy (the *base* map when rebalancing).
    pub assignment: ShardAssignment,
    /// Epoch-boundary elastic rebalancing (off by default).
    pub rebalance: RebalanceConfig,
    /// Router-level global admission (off by default).
    pub front_door: FrontDoorConfig,
    /// Injected shard faults (none by default).
    pub faults: FaultPlan,
    /// Crash-recovery policy for injected outages (off by default: a dead
    /// shard's work strands until it rejoins).
    pub failover: FailoverConfig,
    /// Modeled router↔shard transport: retransmit/dedup delivery over the
    /// injected [`FaultPlan::links`] plus optional straggler hedging. It runs
    /// when a link window is declared or hedging is on; otherwise the hop is
    /// a perfect lossless teleport.
    pub transport: TransportConfig,
    /// Flight-recorder configuration (off by default — and behaviour-neutral
    /// when on: recording never perturbs scheduling, costs, or reports).
    pub telemetry: TelemetryConfig,
}

impl RuntimeConfig {
    /// A single-shard runtime — behaviourally identical to [`liferaft_sim::Simulation`].
    pub fn single(sim: SimConfig) -> Self {
        Self::contiguous(sim, 1)
    }

    /// `n` contiguous shards, every controller off.
    pub fn contiguous(sim: SimConfig, n_shards: u32) -> Self {
        RuntimeConfig {
            sim,
            n_shards,
            assignment: ShardAssignment::Contiguous,
            rebalance: RebalanceConfig::disabled(),
            front_door: FrontDoorConfig::disabled(),
            faults: FaultPlan::none(),
            failover: FailoverConfig::disabled(),
            transport: TransportConfig::reliable(),
            telemetry: TelemetryConfig::off(),
        }
    }

    /// Validates invariants.
    pub fn validate(&self) {
        self.sim.validate();
        self.rebalance.validate();
        self.front_door.validate();
        self.faults.validate(self.n_shards);
        self.transport.validate();
        self.telemetry.validate();
        assert!(self.n_shards > 0, "need at least one shard");
    }
}

/// How the shard pool executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Every run is one window loop: route the arrivals before the next
    /// control instant (outage edge, epoch boundary, re-delivery, front-door
    /// pass, hedge check), advance every worker up to it, fire its handlers.
    /// Stepped advances a window's workers in a plain loop on the calling
    /// thread, which also splits each query as it is routed: no thread is
    /// spawned. Pinnable by golden tests; the reference semantics.
    Stepped,
    /// Advances a window's workers on one scoped `std::thread` each: a run
    /// without control instants is one window to the end of the trace,
    /// rebalancing, failover and hedging runs get threads window by window,
    /// and the front door's one-step windows stay on the calling thread;
    /// queries are split ahead on one thread per shard (capped by cores).
    /// Bit-identical to [`Stepped`](Self::Stepped): workers share nothing
    /// inside a window and meet only at handler instants and in aggregation.
    Threaded,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        RuntimeConfig::single(SimConfig::paper()).validate();
        RuntimeConfig::contiguous(SimConfig::paper(), 8).validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let mut c = RuntimeConfig::single(SimConfig::paper());
        c.n_shards = 0;
        c.validate();
    }

    #[test]
    fn rebalance_defaults_validate() {
        assert_eq!(RebalanceConfig::default().epoch, SimDuration::ZERO);
        RebalanceConfig::default().validate();
        let rb = RebalanceConfig::every(SimDuration::from_secs(30));
        rb.validate();
        let mut c = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        c.rebalance = rb;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "zero rebalance epoch")]
    fn every_zero_epoch_panics() {
        RebalanceConfig::every(SimDuration::ZERO);
    }

    #[test]
    fn front_door_and_faults_validate() {
        let mut c = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        c.front_door = FrontDoorConfig::bounded(10_000);
        c.faults.stalls.push(ShardSlowdown {
            shard: 2,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(10),
            factor: 4.0,
        });
        c.validate();
        assert_eq!(c.faults.for_shard(2).len(), 1);
        assert!(c.faults.for_shard(0).is_empty());
        // The door composes with rebalancing, outages and failover…
        let mut all = c.clone();
        all.rebalance = RebalanceConfig::every(SimDuration::from_secs(5));
        all.faults.outages.push(outage(0, 20, 30));
        all.failover = FailoverConfig::recovery();
        all.validate();
        // …with the hedged transport…
        let mut hedged = c.clone();
        hedged.transport = TransportConfig::hedged();
        hedged.validate();
        // …and the transport with all of them, a link window inside the
        // outage included: what it delivers into the outage is lost to it.
        all.faults.links.push(LinkFault {
            shard: 0,
            direction: LinkDirection::ToShard,
            from: SimTime::ZERO + SimDuration::from_secs(22),
            until: SimTime::ZERO + SimDuration::from_secs(28),
            drop_prob: 0.5,
            delay: SimDuration::from_millis(100),
            delay_per_entry: SimDuration::ZERO,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
        });
        all.validate();
        // Hedging needs no failover to ride out an outage, and composes
        // with failover over it and with rebalancing.
        hedged.faults.outages.push(outage(0, 20, 30));
        hedged.validate();
        hedged.failover = FailoverConfig::recovery();
        hedged.rebalance = RebalanceConfig::every(SimDuration::from_secs(5));
        hedged.validate();
    }

    #[test]
    #[should_panic(expected = "targets shard")]
    fn out_of_range_stall_rejected() {
        let mut c = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        c.faults.stalls.push(ShardSlowdown {
            shard: 2,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(1),
            factor: 2.0,
        });
        c.validate();
    }

    fn outage(shard: u32, down_s: u64, up_s: u64) -> ShardOutage {
        ShardOutage {
            shard,
            down_at: SimTime::ZERO + SimDuration::from_secs(down_s),
            up_at: SimTime::ZERO + SimDuration::from_secs(up_s),
        }
    }

    #[test]
    fn outages_validate_and_sort_per_shard() {
        let mut c = RuntimeConfig::contiguous(SimConfig::paper(), 4);
        c.faults.outages.push(outage(1, 20, 30));
        c.faults.outages.push(outage(1, 5, 10));
        c.faults.outages.push(outage(2, 5, 10));
        c.failover = FailoverConfig::recovery();
        c.validate();
        let windows = c.faults.outages_for_shard(1);
        assert_eq!(windows.len(), 2);
        assert!(windows[0].0 < windows[1].0, "windows come back sorted");
        assert!(c.faults.outages_for_shard(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "outage window must be non-empty")]
    fn empty_outage_window_rejected() {
        FaultPlan {
            stalls: vec![],
            outages: vec![outage(0, 10, 10)],
            links: vec![],
        }
        .validate(2);
    }

    #[test]
    #[should_panic(expected = "outage targets shard")]
    fn out_of_range_outage_rejected() {
        FaultPlan {
            stalls: vec![],
            outages: vec![outage(2, 1, 5)],
            links: vec![],
        }
        .validate(2);
    }

    #[test]
    #[should_panic(expected = "overlapping outage/outage fault windows on shard 0")]
    fn overlapping_outages_rejected() {
        FaultPlan {
            stalls: vec![],
            outages: vec![outage(0, 1, 10), outage(0, 5, 15)],
            links: vec![],
        }
        .validate(2);
    }

    #[test]
    #[should_panic(expected = "overlapping stall/outage fault windows on shard 1")]
    fn stall_overlapping_outage_rejected() {
        FaultPlan {
            stalls: vec![ShardSlowdown {
                shard: 1,
                from: SimTime::ZERO + SimDuration::from_secs(2),
                until: SimTime::ZERO + SimDuration::from_secs(8),
                factor: 3.0,
            }],
            outages: vec![outage(1, 6, 12)],
            links: vec![],
        }
        .validate(2);
    }

    #[test]
    fn adjacent_fault_windows_are_fine() {
        // Back-to-back windows share only the boundary instant, which
        // belongs to the later window (starts are inclusive, ends
        // exclusive).
        FaultPlan {
            stalls: vec![ShardSlowdown {
                shard: 0,
                from: SimTime::ZERO,
                until: SimTime::ZERO + SimDuration::from_secs(5),
                factor: 2.0,
            }],
            outages: vec![outage(0, 5, 9), outage(0, 9, 12)],
            links: vec![],
        }
        .validate(1);
    }
}
