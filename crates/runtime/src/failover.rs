//! Shard crash & failover: the outage decision log and its reports.
//!
//! [`crate::config::FaultPlan`] can declare full shard **outages**
//! ([`liferaft_sim::ShardOutage`] windows) on top of slowdown stalls. A dead
//! shard executes nothing and accepts nothing for the whole window; with
//! [`FailoverConfig::enabled`] the runtime reacts:
//!
//! - **Evacuation** — at the outage boundary the planner rips every
//!   non-empty bucket out of the dead shard (queue state at preserved
//!   arrival ages, cache residency snapshot) and re-homes each on the
//!   least-loaded survivor, charging the evacuation cost to the
//!   destination's clock. The dead shard's cache is lost either way — a
//!   crash wipes residency — but `warm_residency` lets destinations warm
//!   the adopted buckets from the snapshot.
//! - **Re-delivery** — a fragment *released* while its target shard is down
//!   is lost in flight. After `redelivery_timeout` of virtual time the
//!   router re-delivers the whole fragment to the least-loaded live shard
//!   (MapReduce-style re-execution); if no shard is live the attempt fails
//!   and backs off exponentially (`retry_backoff × 2^(attempt−1)`), up to
//!   `max_redeliveries` attempts before the query is **rejected** — a
//!   terminal outcome, so every query still ends exactly once and
//!   `completed + rejected == submitted` holds per class.
//! - **Rejoin** — at `up_at` the shard returns to the pool empty and cold;
//!   the elastic rebalancer may hand buckets back at later epoch
//!   boundaries.
//!
//! Every decision is made once, by the crash handler at a barrier of the
//! runtime's window loop, and recorded into a [`FailoverLog`]; each down
//! edge's evacuations are applied in place as one round.

use liferaft_storage::{BucketId, SimDuration, SimTime};
use liferaft_telemetry::{Event, EventKind};

use crate::ledger::{ClassConservation, RejectedQuery};
use crate::retry::RetryPolicy;

/// Crash-recovery policy: what the runtime does when a [`FaultPlan`]
/// outage window begins.
///
/// [`FaultPlan`]: crate::config::FaultPlan
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverConfig {
    /// Master switch. Disabled (the default), an injected outage still
    /// freezes its shard — but nothing is evacuated or re-delivered, so the
    /// dead shard's work strands until the shard rejoins.
    pub enabled: bool,
    /// Warm evacuated buckets into the destination cache when they were
    /// resident at the source (the crashed cache itself is always lost).
    pub warm_residency: bool,
    /// Fixed virtual-time cost charged to the *destination* shard per
    /// evacuated bucket (control-plane handshake, residency handoff).
    pub evacuation_fixed: SimDuration,
    /// Additional destination cost per evacuated (object × bucket) entry.
    pub evacuation_per_entry: SimDuration,
    /// Virtual time after a lost fragment's release before its first
    /// re-delivery attempt (the failure-detection timeout).
    pub redelivery_timeout: SimDuration,
    /// Base backoff between re-delivery attempts; attempt `k + 1` fires
    /// `retry_backoff × 2^(k−1)` after attempt `k` fails.
    pub retry_backoff: SimDuration,
    /// Attempts before a lost fragment's query is rejected outright.
    pub max_redeliveries: u32,
}

impl FailoverConfig {
    /// Failover off — outages freeze shards but nothing recovers (and the
    /// `Default`).
    pub fn disabled() -> Self {
        FailoverConfig {
            enabled: false,
            warm_residency: true,
            evacuation_fixed: SimDuration::from_millis(20),
            evacuation_per_entry: SimDuration::from_micros(50),
            redelivery_timeout: SimDuration::from_secs(2),
            retry_backoff: SimDuration::from_secs(1),
            max_redeliveries: 5,
        }
    }

    /// Failover on with the default recovery knobs (2 s detection timeout,
    /// 1 s base backoff, 5 attempts, warm handoff).
    pub fn recovery() -> Self {
        FailoverConfig {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// The re-delivery schedule as a [`RetryPolicy`]: detection at
    /// `redelivery_timeout`, escalation by `retry_backoff × 2^(k−1)`,
    /// budget `max_redeliveries`. The failover planner derives every
    /// attempt deadline from this shared policy (the same machinery the
    /// transport retransmitter uses).
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::new(
            self.redelivery_timeout,
            self.retry_backoff,
            self.max_redeliveries,
        )
    }

    /// Validates invariants.
    pub fn validate(&self) {
        if self.enabled {
            assert!(
                self.redelivery_timeout > SimDuration::ZERO,
                "a zero redelivery timeout would re-deliver at the loss instant"
            );
            assert!(
                self.retry_backoff > SimDuration::ZERO,
                "a zero retry backoff would spin failed attempts at one instant"
            );
            assert!(
                self.max_redeliveries >= 1,
                "enabled failover must attempt at least one redelivery"
            );
        }
    }
}

impl Default for FailoverConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One shard leaving or rejoining the pool (an outage window edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTransition {
    /// The shard.
    pub shard: u32,
    /// The boundary's virtual time (`down_at` or `up_at`).
    pub at: SimTime,
    /// `false` at `down_at`, `true` at `up_at`.
    pub up: bool,
    /// The shard's queued-entry backlog at the boundary — the backlog
    /// stranded by a crash (before evacuation), or left over at rejoin.
    pub queued: u64,
}

/// One bucket evacuated off a crashed shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evacuation {
    /// The outage boundary (`down_at`) this evacuation belongs to.
    pub boundary: SimTime,
    /// The extract/absorb instant: the boundary, or the dead shard's clock
    /// when its final batch overran it (batches are atomic).
    pub at: SimTime,
    /// The evacuated bucket.
    pub bucket: BucketId,
    /// The crashed source shard.
    pub from: u32,
    /// The surviving destination shard (least loaded at the boundary).
    pub to: u32,
    /// Queued (object × bucket) entries that moved with the bucket.
    pub entries: u64,
    /// Whether the bucket was cache-resident at the source (destinations
    /// may warm it — the crashed cache itself is lost).
    pub was_resident: bool,
}

/// One re-delivery attempt for a fragment lost to a dead shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Redelivery {
    /// The attempt's virtual time.
    pub at: SimTime,
    /// Global planning-order sequence number (unique per attempt; attempts
    /// fire in `(at, seq)` order).
    pub seq: u64,
    /// Trace index of the query whose fragment was lost.
    pub query_index: usize,
    /// The dead shard the fragment was originally routed to.
    pub from: u32,
    /// 1-based attempt number within this fragment's retry chain.
    pub attempt: u32,
    /// The live shard the fragment was re-delivered to, or `None` when the
    /// attempt failed because no shard was up.
    pub to: Option<u32>,
}

/// The failover decision log of one run: everything the crash handler
/// decided, in planning order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailoverLog {
    /// Outage window edges, in time order (downs before ups on ties).
    pub transitions: Vec<ShardTransition>,
    /// Bucket evacuations, grouped by boundary in bucket order.
    pub evacuations: Vec<Evacuation>,
    /// Re-delivery attempts, in `(at, seq)` order.
    pub redeliveries: Vec<Redelivery>,
}

impl FailoverLog {
    /// Total entries that moved in evacuations.
    pub fn evacuated_entries(&self) -> u64 {
        self.evacuations.iter().map(|e| e.entries).sum()
    }

    /// Re-delivery attempts that landed on a live shard.
    pub fn delivered_redeliveries(&self) -> usize {
        self.redeliveries.iter().filter(|r| r.to.is_some()).count()
    }

    /// The queries this log rejected (final attempt failed with no live
    /// shard), in rejection order: `(trace index, when, attempts spent)`.
    /// Derivable from the log alone, so stepped and threaded runs
    /// reconstruct identical rejection records.
    pub(crate) fn rejections(
        &self,
        max_redeliveries: u32,
    ) -> impl Iterator<Item = (usize, SimTime, u32)> + '_ {
        self.redeliveries
            .iter()
            .filter(move |r| r.to.is_none() && r.attempt >= max_redeliveries)
            .map(|r| (r.query_index, r.at, r.attempt))
    }

    /// The recovery-lag headline: the gap between the last evacuation
    /// instant and the earliest batch a *destination* shard completed after
    /// it (`None` when nothing was evacuated, or no destination completed
    /// work afterward). `completion_after(shard, t)` is that shard's
    /// earliest batch completion strictly after `t`.
    pub(crate) fn recovery_lag(
        &self,
        completion_after: impl Fn(u32, SimTime) -> Option<SimTime>,
    ) -> Option<SimDuration> {
        let t = self.evacuations.iter().map(|e| e.at).max()?;
        self.evacuations
            .iter()
            .filter_map(|e| completion_after(e.to, t))
            .min()
            .map(|ct| ct.since(t))
    }

    /// Renders the log as router events: transitions, then evacuations,
    /// then re-deliveries.
    pub(crate) fn render(&self, out: &mut Vec<Event>) {
        for t in &self.transitions {
            let kind = if t.up {
                EventKind::ShardUp { target: t.shard }
            } else {
                EventKind::ShardDown {
                    target: t.shard,
                    queued: t.queued,
                }
            };
            out.push(Event::router(t.at, kind));
        }
        for e in &self.evacuations {
            out.push(Event::router(
                e.at,
                EventKind::BucketEvacuated {
                    bucket: e.bucket.0,
                    from: e.from,
                    to: e.to,
                    entries: e.entries,
                    resident: e.was_resident,
                },
            ));
        }
        for r in &self.redeliveries {
            out.push(Event::router(
                r.at,
                EventKind::FragmentRetried {
                    query: r.query_index as u64,
                    from: r.from,
                    attempt: r.attempt,
                    delivered: r.to.is_some(),
                    // Failed attempts had no live destination at all.
                    to: r.to.unwrap_or(u32::MAX),
                },
            ));
        }
    }
}

/// What the failover path did and how the run ended: the
/// decision log, the rejected remainder, per-class conservation, and the
/// recovery-lag headline.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// The decision log.
    pub log: FailoverLog,
    /// Queries rejected by exhausted re-delivery, in rejection order.
    pub rejected: Vec<RejectedQuery>,
    /// Terminal-outcome conservation per class
    /// (`completed + rejected == submitted`, asserted at build time).
    pub per_class: [ClassConservation; 3],
    /// Gap between the last evacuation and the first batch a destination
    /// shard completed after it — how long the pool took to resume service
    /// on adopted work (`None` when nothing was evacuated).
    pub recovery_lag: Option<SimDuration>,
}

impl FailoverReport {
    /// Total queries rejected by failover.
    pub fn total_rejected(&self) -> usize {
        self.rejected.len()
    }

    /// Recovery lag in seconds (0 when nothing was evacuated).
    pub fn recovery_lag_s(&self) -> f64 {
        self.recovery_lag.map_or(0.0, |d| d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_recovery_enables() {
        assert!(!FailoverConfig::default().enabled);
        FailoverConfig::default().validate();
        let fo = FailoverConfig::recovery();
        assert!(fo.enabled);
        fo.validate();
    }

    #[test]
    #[should_panic(expected = "zero redelivery timeout")]
    fn zero_timeout_rejected() {
        let mut fo = FailoverConfig::recovery();
        fo.redelivery_timeout = SimDuration::ZERO;
        fo.validate();
    }

    #[test]
    #[should_panic(expected = "at least one redelivery")]
    fn zero_attempts_rejected() {
        let mut fo = FailoverConfig::recovery();
        fo.max_redeliveries = 0;
        fo.validate();
    }

    #[test]
    fn log_counters_and_rejection_derivation() {
        let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let log = FailoverLog {
            transitions: vec![],
            evacuations: vec![Evacuation {
                boundary: t(1),
                at: t(1),
                bucket: BucketId(3),
                from: 0,
                to: 1,
                entries: 40,
                was_resident: true,
            }],
            redeliveries: vec![
                Redelivery {
                    at: t(3),
                    seq: 0,
                    query_index: 2,
                    from: 0,
                    attempt: 1,
                    to: None,
                },
                Redelivery {
                    at: t(4),
                    seq: 1,
                    query_index: 2,
                    from: 0,
                    attempt: 2,
                    to: None,
                },
                Redelivery {
                    at: t(5),
                    seq: 2,
                    query_index: 4,
                    from: 0,
                    attempt: 1,
                    to: Some(1),
                },
            ],
        };
        assert_eq!(log.evacuated_entries(), 40);
        assert_eq!(log.delivered_redeliveries(), 1);
        // With a 2-attempt budget, query 2's second failed attempt rejects.
        let rejected: Vec<_> = log.rejections(2).collect();
        assert_eq!(rejected, vec![(2, t(4), 2)]);
        // A roomier budget rejects nothing: the chain would have retried.
        assert_eq!(log.rejections(3).count(), 0);
    }
}
