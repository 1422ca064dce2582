//! Aggregate I/O accounting for experiment reports.

/// Counters describing the I/O work a run performed.
///
/// LifeRaft's claim is that data-driven batching "eliminates random and
/// redundant disk accesses"; these counters are how the experiments verify
/// it (bucket reads saved by sharing, probes spent by the hybrid strategy).
/// They count what was read; the time each batch took is its
/// [`CostModel::charge`](crate::CostModel::charge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Full bucket scans issued to the (simulated) disk.
    pub bucket_reads: u64,
    /// Random index probes issued.
    pub index_probes: u64,
}

impl IoStats {
    /// Merges another accumulator into this one.
    pub fn merge(&mut self, o: &IoStats) {
        self.bucket_reads += o.bucket_reads;
        self.index_probes += o.index_probes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_componentwise() {
        let mut a = IoStats {
            bucket_reads: 1,
            index_probes: 0,
        };
        a.merge(&IoStats {
            bucket_reads: 2,
            index_probes: 3,
        });
        assert_eq!(
            a,
            IoStats {
                bucket_reads: 3,
                index_probes: 3
            }
        );
    }
}
