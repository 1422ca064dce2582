//! The hybrid join strategy: scan or index, decided per batch.
//!
//! "We employ a hybrid strategy that determines the join plan, either an
//! indexed join or a non-index sequential scan, for each bucket depending on
//! the workload queue size. A pre-determined threshold is used to determine
//! the appropriate join strategy. […] The break even point occurs when the
//! size of the workload queue is roughly 3% of the size of the bucket."
//! — Section 3.4, Figure 2.

use liferaft_catalog::SkyObject;
use liferaft_query::QueueEntry;

use crate::indexed::indexed_join;
use crate::sweep::sweep_join;
use crate::types::JoinOutput;

/// Which plan a batch was (or would be) executed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// Full-bucket sequential scan + merge sweep.
    SequentialScan,
    /// Per-entry probes of the spatial index.
    Indexed,
}

impl std::fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinStrategy::SequentialScan => f.write_str("scan"),
            JoinStrategy::Indexed => f.write_str("indexed"),
        }
    }
}

/// Configuration of the hybrid decision: the paper's one pre-determined
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// Queue-to-bucket size ratio below which the indexed join is used.
    /// The paper's empirical break-even: 0.03. Zero never indexes — the
    /// scan-only configuration of the α-sweep experiments before
    /// Section 3.4.
    pub threshold_ratio: f64,
}

impl HybridConfig {
    /// The paper's configuration: the 3% break-even.
    pub fn paper() -> Self {
        HybridConfig {
            threshold_ratio: 0.03,
        }
    }

    /// Scan-only: a zero threshold.
    pub fn scan_only() -> Self {
        HybridConfig {
            threshold_ratio: 0.0,
        }
    }

    /// Picks the strategy for a batch of `queue_len` entries against a
    /// bucket of `bucket_objects` rows.
    ///
    /// A cached bucket is always scanned: φ = 0 removes the scan's I/O term
    /// entirely, and an in-memory merge beats per-entry probing for any
    /// queue length. A zero threshold never indexes: no ratio is below it.
    pub fn choose(&self, queue_len: u64, bucket_objects: u64, cached: bool) -> JoinStrategy {
        if cached || bucket_objects == 0 {
            return JoinStrategy::SequentialScan;
        }
        let ratio = queue_len as f64 / bucket_objects as f64;
        if ratio < self.threshold_ratio {
            JoinStrategy::Indexed
        } else {
            JoinStrategy::SequentialScan
        }
    }
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Executes a batch with the given strategy (result is strategy-independent;
/// only the access pattern differs).
pub fn execute(strategy: JoinStrategy, bucket: &[SkyObject], entries: &[QueueEntry]) -> JoinOutput {
    match strategy {
        JoinStrategy::SequentialScan => sweep_join(bucket, entries),
        JoinStrategy::Indexed => indexed_join(bucket, entries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_storage::CostModel;

    /// Derives the threshold from a cost model and bucket size instead of
    /// the empirical constant: the ratio where `overhead + W·probe = Tb`
    /// (Figure 2's crossing).
    fn from_cost(cost: &CostModel, objects_per_bucket: u64) -> HybridConfig {
        assert!(objects_per_bucket > 0, "bucket must hold objects");
        let w = cost.break_even_queue_len();
        HybridConfig {
            threshold_ratio: w as f64 / objects_per_bucket as f64,
        }
    }

    #[test]
    fn paper_threshold_is_three_percent() {
        let h = HybridConfig::paper();
        // 10 000-object bucket: 299 → indexed, 300 → scan.
        assert_eq!(h.choose(299, 10_000, false), JoinStrategy::Indexed);
        assert_eq!(h.choose(300, 10_000, false), JoinStrategy::SequentialScan);
    }

    #[test]
    fn cached_buckets_always_scan() {
        let h = HybridConfig::paper();
        assert_eq!(h.choose(1, 10_000, true), JoinStrategy::SequentialScan);
    }

    #[test]
    fn scan_only_always_scans() {
        let h = HybridConfig::scan_only();
        assert_eq!(h.choose(1, 10_000, false), JoinStrategy::SequentialScan);
    }

    #[test]
    fn from_cost_matches_break_even() {
        let cost = CostModel::paper();
        let h = from_cost(&cost, 10_000);
        let w = cost.break_even_queue_len();
        assert_eq!(
            h.choose(w.saturating_sub(1), 10_000, false),
            JoinStrategy::Indexed
        );
        assert_eq!(h.choose(w + 1, 10_000, false), JoinStrategy::SequentialScan);
    }

    #[test]
    fn empty_bucket_scans_trivially() {
        let h = HybridConfig::paper();
        assert_eq!(h.choose(5, 0, false), JoinStrategy::SequentialScan);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(JoinStrategy::SequentialScan.to_string(), "scan");
        assert_eq!(JoinStrategy::Indexed.to_string(), "indexed");
    }
}
