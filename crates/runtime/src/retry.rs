//! The bounded-retry schedule: failure detection plus exponential backoff.
//!
//! Failover re-delivers fragments lost to a dead shard, and the transport
//! retransmits sends a lossy link dropped. Both wait a detection timeout
//! after the base event, space later attempts by a doubling backoff, and
//! give up after a bounded number of attempts. Each owns one constant
//! [`RetryPolicy`]; their values are tabled in `docs/ARCHITECTURE.md`,
//! "Fixed controller constants". Attempt 1 fires `detection_timeout` after
//! the base event, and attempt `k + 1` fires `backoff × 2^(k−1)` after
//! attempt `k` (shift clamped at 32 so deep chains saturate instead of
//! overflowing).

use liferaft_storage::{SimDuration, SimTime};

/// A bounded retry schedule: detection timeout, exponential backoff, and
/// an attempt budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Virtual time after the base event (a loss, a send) before the first
    /// retry attempt — the failure-detection timeout.
    pub detection_timeout: SimDuration,
    /// Base backoff between attempts; attempt `k + 1` fires
    /// `backoff × 2^(k−1)` after attempt `k`.
    pub backoff: SimDuration,
    /// Attempts before the caller records a terminal rejection.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy from its three values.
    pub const fn new(
        detection_timeout: SimDuration,
        backoff: SimDuration,
        max_attempts: u32,
    ) -> Self {
        RetryPolicy {
            detection_timeout,
            backoff,
            max_attempts,
        }
    }

    /// The gap between escalation `attempt` and the next one: the
    /// detection timeout after the base event (`attempt == 0`), then
    /// `backoff × 2^(attempt−1)` after attempt `attempt`. The shift is
    /// clamped at 32 so pathological budgets saturate rather than overflow.
    pub fn gap_after(&self, attempt: u32) -> SimDuration {
        if attempt == 0 {
            self.detection_timeout
        } else {
            let shift = (attempt - 1).min(32);
            self.backoff.times(1u64 << shift)
        }
    }

    /// The absolute deadline of the escalation following `attempt`, given
    /// that `attempt` happened at `at` (`attempt == 0` is the base event).
    pub fn deadline_after(&self, at: SimTime, attempt: u32) -> SimTime {
        at + self.gap_after(attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn gaps_reproduce_the_failover_schedule() {
        // Failover's schedule: first attempt at loss + 2 s, then 1 s, 2 s,
        // 4 s, ... between attempts, 5 attempts in all.
        let p = crate::failover::REDELIVERY;
        assert_eq!(p.max_attempts, 5);
        assert_eq!(p.gap_after(0), SimDuration::from_secs(2));
        assert_eq!(p.gap_after(1), SimDuration::from_secs(1));
        assert_eq!(p.gap_after(2), SimDuration::from_secs(2));
        assert_eq!(p.gap_after(3), SimDuration::from_secs(4));
        assert_eq!(p.gap_after(4), SimDuration::from_secs(8));
        let mut at = t(10);
        let attempts: Vec<SimTime> = (0..4)
            .map(|k| {
                at = p.deadline_after(at, k);
                at
            })
            .collect();
        assert_eq!(attempts, vec![t(12), t(13), t(15), t(19)]);
    }

    #[test]
    fn deep_chains_saturate_the_shift() {
        let p = RetryPolicy::new(
            SimDuration::from_micros(1),
            SimDuration::from_micros(1),
            u32::MAX,
        );
        // Attempts beyond the clamp keep the 2^32 gap instead of
        // overflowing the shift.
        assert_eq!(p.gap_after(33), SimDuration::from_micros(1u64 << 32));
        assert_eq!(p.gap_after(40), p.gap_after(33));
    }

    #[test]
    fn deadlines_chain_from_arbitrary_instants() {
        let p = RetryPolicy::new(
            SimDuration::from_millis(500),
            SimDuration::from_millis(250),
            3,
        );
        let first = p.deadline_after(t(1), 0);
        assert_eq!(first, SimTime::from_micros(1_500_000));
        let second = p.deadline_after(first, 1);
        assert_eq!(second, SimTime::from_micros(1_750_000));
    }
}
