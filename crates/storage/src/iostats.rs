//! Aggregate I/O accounting for experiment reports.

use crate::simtime::SimDuration;

/// Counters describing the I/O work a run performed.
///
/// LifeRaft's claim is that data-driven batching "eliminates random and
/// redundant disk accesses"; these counters are how the experiments verify
/// it (bucket reads saved by sharing, probes spent by the hybrid strategy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Full bucket scans issued to the (simulated) disk.
    pub bucket_reads: u64,
    /// Bytes transferred by bucket scans.
    pub bytes_scanned: u64,
    /// Random index probes issued.
    pub index_probes: u64,
    /// Virtual time spent in sequential scans.
    pub scan_time: SimDuration,
    /// Virtual time spent in random probes.
    pub probe_time: SimDuration,
    /// Virtual time spent matching objects in memory.
    pub match_time: SimDuration,
}

impl IoStats {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a bucket scan of `bytes` costing `t`.
    pub fn record_scan(&mut self, bytes: u64, t: SimDuration) {
        self.bucket_reads += 1;
        self.bytes_scanned += bytes;
        self.scan_time += t;
    }

    /// Records `n` index probes costing `t` in total.
    pub fn record_probes(&mut self, n: u64, t: SimDuration) {
        self.index_probes += n;
        self.probe_time += t;
    }

    /// Records in-memory match work costing `t`.
    pub fn record_match(&mut self, t: SimDuration) {
        self.match_time += t;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, o: &IoStats) {
        self.bucket_reads += o.bucket_reads;
        self.bytes_scanned += o.bytes_scanned;
        self.index_probes += o.index_probes;
        self.scan_time += o.scan_time;
        self.probe_time += o.probe_time;
        self.match_time += o.match_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total accounted virtual time.
    fn total_time(s: &IoStats) -> SimDuration {
        s.scan_time + s.probe_time + s.match_time
    }

    #[test]
    fn records_accumulate() {
        let mut s = IoStats::new();
        s.record_scan(40, SimDuration::from_secs(1));
        s.record_scan(40, SimDuration::from_secs(1));
        s.record_probes(10, SimDuration::from_millis(40));
        s.record_match(SimDuration::from_millis(130));
        assert_eq!(s.bucket_reads, 2);
        assert_eq!(s.bytes_scanned, 80);
        assert_eq!(s.index_probes, 10);
        assert_eq!(total_time(&s).as_millis_f64(), 2170.0);
    }

    #[test]
    fn merge_is_componentwise() {
        let mut a = IoStats::new();
        a.record_scan(10, SimDuration::from_secs(1));
        let mut b = IoStats::new();
        b.record_probes(3, SimDuration::from_millis(30));
        b.record_match(SimDuration::from_millis(5));
        a.merge(&b);
        assert_eq!(a.bucket_reads, 1);
        assert_eq!(a.index_probes, 3);
        assert_eq!(total_time(&a).as_millis_f64(), 1035.0);
    }

    #[test]
    fn default_is_zero() {
        let s = IoStats::default();
        assert_eq!(total_time(&s), SimDuration::ZERO);
        assert_eq!(s.bucket_reads, 0);
    }
}
