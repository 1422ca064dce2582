//! Workload-shape analysis: the inputs to Figures 5 and 6.

use liferaft_catalog::Partition;
use liferaft_query::QueryPreProcessor;

use crate::trace::Trace;

/// Aggregate bucket-level statistics of a trace against a partition.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    n_queries: usize,
    n_buckets: usize,
    /// Per bucket: number of distinct queries touching it.
    query_counts: Vec<u64>,
    /// Per bucket: total workload objects (assignments) routed to it.
    object_counts: Vec<u64>,
    /// Per query: the buckets it touches (for reuse scatter plots).
    query_buckets: Vec<Vec<u32>>,
}

impl WorkloadStats {
    /// Runs the pre-processor over every query and aggregates.
    pub fn analyze(trace: &Trace, partition: &Partition) -> Self {
        assert_eq!(
            trace.level(),
            partition.level(),
            "trace and partition must share the object level"
        );
        let pre = QueryPreProcessor::new(partition);
        let n_buckets = partition.num_buckets();
        let mut query_counts = vec![0u64; n_buckets];
        let mut object_counts = vec![0u64; n_buckets];
        let mut query_buckets = Vec::with_capacity(trace.len());
        for q in trace.queries() {
            let items = pre.preprocess(q);
            let mut touched = Vec::with_capacity(items.len());
            for item in &items {
                query_counts[item.bucket.index()] += 1;
                object_counts[item.bucket.index()] += item.len() as u64;
                touched.push(item.bucket.0);
            }
            query_buckets.push(touched);
        }
        WorkloadStats {
            n_queries: trace.len(),
            n_buckets,
            query_counts,
            object_counts,
            query_buckets,
        }
    }

    /// Number of queries analyzed.
    pub fn n_queries(&self) -> usize {
        self.n_queries
    }

    /// Number of buckets in the partition.
    pub fn n_buckets(&self) -> usize {
        self.n_buckets
    }

    /// Buckets touched by at least one query.
    pub fn touched_buckets(&self) -> usize {
        self.query_counts.iter().filter(|&&c| c > 0).count()
    }

    /// The `k` most-queried buckets, most popular first.
    pub fn top_buckets_by_queries(&self, k: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.n_buckets as u32).collect();
        order.sort_by_key(|&b| std::cmp::Reverse(self.query_counts[b as usize]));
        order.truncate(k);
        order
    }

    /// Fraction of queries that touch at least one of the `k` most-queried
    /// buckets — the paper reports 61% for k = 10 (Figure 5).
    pub fn top_k_query_coverage(&self, k: usize) -> f64 {
        let top = self.top_buckets_by_queries(k);
        let covered = self
            .query_buckets
            .iter()
            .filter(|buckets| buckets.iter().any(|b| top.contains(b)))
            .count();
        covered as f64 / self.n_queries.max(1) as f64
    }

    /// Figure 5's scatter: for each query touching a top-`k` bucket, the
    /// (query index, rank of that bucket within the top-k) points.
    pub fn reuse_events(&self, k: usize) -> Vec<(usize, usize)> {
        let top = self.top_buckets_by_queries(k);
        let mut events = Vec::new();
        for (qi, buckets) in self.query_buckets.iter().enumerate() {
            for b in buckets {
                if let Some(rank) = top.iter().position(|t| t == b) {
                    events.push((qi, rank));
                }
            }
        }
        events
    }

    /// Figure 6's CDF: cumulative fraction of total workload objects carried
    /// by buckets ranked by descending object count. `points` controls the
    /// resolution; returns (bucket rank, cumulative fraction ∈ [0, 1]).
    pub fn cumulative_workload(&self) -> Vec<(usize, f64)> {
        let mut counts: Vec<u64> = self.object_counts.clone();
        counts.sort_unstable_by_key(|&c| std::cmp::Reverse(c));
        let total: u64 = counts.iter().sum();
        let mut acc = 0u64;
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                acc += c;
                (
                    i + 1,
                    if total == 0 {
                        0.0
                    } else {
                        acc as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// Fraction of the total workload captured by the top `bucket_fraction`
    /// of all buckets — the paper reports ≈50% at 2% (Figure 6).
    pub fn workload_share_of_top_buckets(&self, bucket_fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&bucket_fraction));
        let k = ((self.n_buckets as f64 * bucket_fraction).round() as usize).max(1);
        let cdf = self.cumulative_workload();
        cdf.get(k - 1).map(|&(_, f)| f).unwrap_or(1.0)
    }

    /// Mean buckets touched per query.
    pub fn mean_buckets_per_query(&self) -> f64 {
        let total: usize = self.query_buckets.iter().map(Vec::len).sum();
        total as f64 / self.n_queries.max(1) as f64
    }

    /// Temporal locality: the mean gap (in query sequence positions) between
    /// consecutive accesses to the same top-`k` bucket. Smaller = hotter
    /// temporal clustering (Figure 5's visual).
    pub fn mean_reuse_gap(&self, k: usize) -> f64 {
        let top = self.top_buckets_by_queries(k);
        let mut gaps = Vec::new();
        for b in &top {
            let mut last: Option<usize> = None;
            for (qi, buckets) in self.query_buckets.iter().enumerate() {
                if buckets.contains(b) {
                    if let Some(prev) = last {
                        gaps.push((qi - prev) as f64);
                    }
                    last = Some(qi);
                }
            }
        }
        if gaps.is_empty() {
            f64::INFINITY
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceGenerator, WorkloadConfig};
    use liferaft_catalog::Partition;

    const LEVEL: u8 = 8;
    const N_BUCKETS: u32 = 256;

    fn setup() -> (Trace, Partition) {
        let cfg = WorkloadConfig::paper_like(LEVEL, N_BUCKETS, 300, 7);
        let trace = TraceGenerator::new(cfg).generate();
        let partition = Partition::synthetic_uniform(LEVEL, N_BUCKETS, 1_000, 4096);
        (trace, partition)
    }

    #[test]
    fn hotspot_workload_is_concentrated() {
        let (trace, partition) = setup();
        let stats = WorkloadStats::analyze(&trace, &partition);
        // Paper: top-10 buckets touched by ~61% of queries. Accept a band.
        let coverage = stats.top_k_query_coverage(10);
        assert!(
            (0.40..=0.90).contains(&coverage),
            "top-10 coverage {coverage} outside the expected band"
        );
        // Concentration must be real: top-10 coverage far exceeds the
        // 10/n_buckets uniform expectation.
        assert!(coverage > 10.0 / N_BUCKETS as f64 * 5.0);
    }

    #[test]
    fn cumulative_workload_is_heavily_skewed() {
        let (trace, partition) = setup();
        let stats = WorkloadStats::analyze(&trace, &partition);
        // Paper: 2% of buckets capture ~50% of the workload.
        let share = stats.workload_share_of_top_buckets(0.02);
        assert!(
            (0.30..=0.95).contains(&share),
            "2% share {share} outside the expected band"
        );
        // CDF is monotone and ends at 1.
        let cdf = stats.cumulative_workload();
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reuse_events_reference_top_buckets_only() {
        let (trace, partition) = setup();
        let stats = WorkloadStats::analyze(&trace, &partition);
        let events = stats.reuse_events(10);
        assert!(!events.is_empty());
        for &(qi, rank) in &events {
            assert!(qi < stats.n_queries());
            assert!(rank < 10);
        }
    }

    #[test]
    fn temporal_locality_beats_shuffled_baseline() {
        let (trace, partition) = setup();
        let stats = WorkloadStats::analyze(&trace, &partition);
        // With epoch-based activity, reuse gaps of hot buckets must be far
        // smaller than the n_queries/(touch count) expectation of a uniform
        // spread... at minimum, finite and small relative to the trace.
        let gap = stats.mean_reuse_gap(5);
        assert!(gap.is_finite());
        assert!(
            gap < trace.len() as f64 / 4.0,
            "mean reuse gap {gap} too large"
        );
    }

    #[test]
    fn accounting_identities() {
        let (trace, partition) = setup();
        let stats = WorkloadStats::analyze(&trace, &partition);
        assert_eq!(stats.n_queries(), trace.len());
        assert_eq!(stats.n_buckets(), partition.num_buckets());
        assert!(stats.touched_buckets() > 0);
        assert!(stats.touched_buckets() <= stats.n_buckets());
        // Assignments ≥ objects (multi-bucket objects fan out).
        assert!(stats.object_counts.iter().sum::<u64>() >= trace.total_objects());
        assert!(stats.mean_buckets_per_query() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "share the object level")]
    fn level_mismatch_rejected() {
        let (trace, _) = setup();
        let other = Partition::synthetic_uniform(9, 64, 100, 4096);
        WorkloadStats::analyze(&trace, &other);
    }
}
