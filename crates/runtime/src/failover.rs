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
//!   least-loaded survivor, at the hand-over cost an epoch move pays. The
//!   dead shard's cache is lost — a crash wipes residency — but a
//!   destination warms each adopted bucket that was resident there.
//! - **Re-delivery** — a fragment *released* while its target shard is down
//!   is lost in flight. After a detection timeout the router re-delivers the
//!   whole fragment to the least-loaded live shard (MapReduce-style
//!   re-execution); if no shard is live the attempt fails and backs off
//!   exponentially, and a failed last attempt of the budget **rejects**
//!   the query — a terminal outcome, so every query still ends
//!   exactly once and `completed + rejected == submitted` holds per class.
//! - **Rejoin** — at `up_at` the shard returns to the pool empty and cold;
//!   the elastic rebalancer may hand buckets back at later epoch
//!   boundaries.
//!
//! The hand-over cost and the re-delivery schedule are fixed constants,
//! tabled in `docs/ARCHITECTURE.md`, "Fixed controller constants".
//!
//! Every decision is made once, by the crash handler at a barrier of the
//! runtime's window loop, and recorded into a [`FailoverLog`]; each down
//! edge's evacuations are applied in place as one round.

use liferaft_storage::{BucketId, SimDuration, SimTime};
use liferaft_telemetry::{Event, EventKind};

use crate::ledger::RejectedQuery;
use crate::retry::RetryPolicy;

/// Re-delivery of a fragment lost to a dead shard: 2 s after its release,
/// then 1 s·2^(k−1) after failed attempt k, and the query is rejected when
/// the 5th attempt finds no live shard.
pub(crate) const REDELIVERY: RetryPolicy =
    RetryPolicy::new(SimDuration::from_secs(2), SimDuration::from_secs(1), 5);

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
}

impl FailoverConfig {
    /// Failover off — outages freeze shards but nothing recovers (and the
    /// `Default`).
    pub fn disabled() -> Self {
        FailoverConfig { enabled: false }
    }

    /// Failover on: evacuate at every down edge, re-deliver what is lost.
    pub fn recovery() -> Self {
        FailoverConfig { enabled: true }
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
    pub(crate) fn rejections(&self) -> impl Iterator<Item = (usize, SimTime, u32)> + '_ {
        self.redeliveries
            .iter()
            .filter(|r| r.to.is_none() && r.attempt >= REDELIVERY.max_attempts)
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

/// What the failover path did and how the run ended: the decision log, the
/// rejected remainder, and the recovery-lag headline. The per-class books
/// are the run's, [`RuntimeReport::per_class`](crate::RuntimeReport::per_class).
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// The decision log.
    pub log: FailoverLog,
    /// Queries rejected by exhausted re-delivery, in rejection order.
    pub rejected: Vec<RejectedQuery>,
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
    fn recovery_enables_and_the_default_is_off() {
        assert!(!FailoverConfig::default().enabled);
        assert!(FailoverConfig::recovery().enabled);
    }

    #[test]
    fn log_counters_and_rejection_derivation() {
        let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let attempt = |seq: u64, query_index: usize, attempt: u32, to: Option<u32>| Redelivery {
            at: t(seq + 3),
            seq,
            query_index,
            from: 0,
            attempt,
            to,
        };
        // Query 2 fails every attempt of the budget, query 4 lands on its
        // first, and query 6 fails one attempt short of the budget.
        let budget = REDELIVERY.max_attempts;
        let mut redeliveries: Vec<Redelivery> = (1..=budget)
            .map(|k| attempt(k as u64 - 1, 2, k, None))
            .collect();
        redeliveries.push(attempt(budget as u64, 4, 1, Some(1)));
        redeliveries.push(attempt(budget as u64 + 1, 6, budget - 1, None));
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
            redeliveries,
        };
        assert_eq!(log.evacuated_entries(), 40);
        assert_eq!(log.delivered_redeliveries(), 1);
        // Only the chain that spent the whole budget rejects.
        let rejected: Vec<_> = log.rejections().collect();
        assert_eq!(rejected, vec![(2, t(budget as u64 + 2), budget)]);
    }
}
