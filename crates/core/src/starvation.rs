//! Starvation monitoring.
//!
//! The greedy policy "may starve requests […] there is no guarantee that a
//! particular bucket or query receives service" (Section 3.2). The monitor
//! quantifies this: it records, at every scheduling decision, the age of the
//! oldest request left *waiting* (not serviced), giving a direct measure of
//! how unfair a policy is and letting tests assert that α = 1 bounds waits
//! while α = 0 does not.
//!
//! Recording is O(1) per decision: the caller supplies the *summary* of the
//! passed-over set — how many candidates waited and the enqueue time of the
//! oldest among them, both of which the candidate index answers without a
//! scan. (The monitor used to walk every candidate per decision, which put
//! an O(candidates) floor under every scheduler — including NoShare, which
//! never looks at candidates at all.)

use liferaft_metrics::StreamingStats;
use liferaft_storage::SimTime;

/// Accumulates waiting-time observations across scheduling decisions.
#[derive(Debug, Clone, Default)]
pub struct StarvationMonitor {
    /// Per-decision *oldest* passed-over wait (ms); empty-field decisions
    /// contribute nothing.
    waits_ms: StreamingStats,
    max_wait_ms: f64,
    decisions: u64,
    passed_over: u64,
}

impl StarvationMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        StarvationMonitor::default()
    }

    /// Records a decision that passed over `passed_over` candidates, the
    /// oldest of which was enqueued at `oldest_passed` (`None` iff the
    /// picked bucket was the only candidate).
    pub fn record_decision(
        &mut self,
        now: SimTime,
        passed_over: u64,
        oldest_passed: Option<SimTime>,
    ) {
        self.decisions += 1;
        self.passed_over += passed_over;
        debug_assert_eq!(
            oldest_passed.is_none(),
            passed_over == 0,
            "oldest-passed must be present exactly when candidates waited"
        );
        if let Some(enqueued) = oldest_passed {
            let age = now.since(enqueued).as_millis_f64();
            self.waits_ms.push(age);
            self.max_wait_ms = self.max_wait_ms.max(age);
        }
    }

    /// Longest wait (ms) any pending bucket experienced at a decision point.
    pub fn max_wait_ms(&self) -> f64 {
        self.max_wait_ms
    }

    /// Full statistics over the per-decision oldest waits.
    pub fn stats(&self) -> &StreamingStats {
        &self.waits_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_storage::SimDuration;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Number of decisions recorded.
    fn decisions(m: &StarvationMonitor) -> u64 {
        m.decisions
    }

    /// Total candidates passed over across all decisions.
    fn passed_over(m: &StarvationMonitor) -> u64 {
        m.passed_over
    }

    #[test]
    fn records_oldest_passed_over_age() {
        let mut m = StarvationMonitor::new();
        // Pick left two buckets waiting; the older was enqueued at 100 ms.
        m.record_decision(at_ms(1_000), 2, Some(at_ms(100)));
        assert_eq!(decisions(&m), 1);
        assert_eq!(passed_over(&m), 2);
        assert_eq!(m.max_wait_ms(), 900.0);
        assert_eq!(m.stats().mean(), 900.0);
        assert_eq!(m.stats().count(), 1);
    }

    #[test]
    fn sole_candidate_decisions_record_no_wait() {
        let mut m = StarvationMonitor::new();
        m.record_decision(at_ms(500), 0, None);
        assert_eq!(decisions(&m), 1);
        assert_eq!(passed_over(&m), 0);
        assert_eq!(m.stats().count(), 0);
        assert_eq!(m.max_wait_ms(), 0.0);
    }

    #[test]
    fn max_tracks_across_decisions() {
        let mut m = StarvationMonitor::new();
        m.record_decision(at_ms(100), 1, Some(at_ms(50)));
        m.record_decision(at_ms(5_000), 1, Some(at_ms(50)));
        assert_eq!(m.max_wait_ms(), 4_950.0);
        assert_eq!(decisions(&m), 2);
        assert_eq!(m.stats().mean(), 2_500.0);
    }
}
