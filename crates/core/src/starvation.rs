//! Starvation monitoring.
//!
//! The greedy policy "may starve requests […] there is no guarantee that a
//! particular bucket or query receives service" (Section 3.2). The monitor
//! quantifies this: it records, at every scheduling decision, the age of the
//! oldest request left *waiting* (not serviced), giving a direct measure of
//! how unfair a policy is and letting tests assert that α = 1 bounds waits
//! while α = 0 does not.
//!
//! Recording is O(1) per decision: the caller supplies the enqueue time of
//! the oldest passed-over request, which the candidate index answers
//! without a scan.

use liferaft_storage::SimTime;

/// The longest wait left behind across scheduling decisions.
#[derive(Debug, Clone, Default)]
pub struct StarvationMonitor {
    max_wait_ms: f64,
}

impl StarvationMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        StarvationMonitor::default()
    }

    /// Records a decision whose oldest passed-over candidate was enqueued at
    /// `oldest_passed` (`None` iff the picked bucket was the only
    /// candidate).
    pub fn record_decision(&mut self, now: SimTime, oldest_passed: Option<SimTime>) {
        if let Some(enqueued) = oldest_passed {
            let age = now.since(enqueued).as_millis_f64();
            self.max_wait_ms = self.max_wait_ms.max(age);
        }
    }

    /// Longest wait (ms) any pending bucket experienced at a decision point.
    pub fn max_wait_ms(&self) -> f64 {
        self.max_wait_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_storage::SimDuration;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn records_oldest_passed_over_age() {
        let mut m = StarvationMonitor::new();
        // Pick left two buckets waiting; the older was enqueued at 100 ms.
        m.record_decision(at_ms(1_000), Some(at_ms(100)));
        assert_eq!(m.max_wait_ms(), 900.0);
    }

    #[test]
    fn sole_candidate_decisions_record_no_wait() {
        let mut m = StarvationMonitor::new();
        m.record_decision(at_ms(500), None);
        assert_eq!(m.max_wait_ms(), 0.0);
    }

    #[test]
    fn max_tracks_across_decisions() {
        let mut m = StarvationMonitor::new();
        m.record_decision(at_ms(100), Some(at_ms(50)));
        m.record_decision(at_ms(5_000), Some(at_ms(50)));
        m.record_decision(at_ms(6_000), Some(at_ms(5_900)));
        assert_eq!(m.max_wait_ms(), 4_950.0);
    }
}
