//! Per-run results: everything the figures report.

use liferaft_metrics::Summary;
use liferaft_query::tracker::QueryOutcome;
use liferaft_storage::cache::CacheStats;
use liferaft_storage::IoStats;

/// The measured outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheduler name (figure row label).
    pub scheduler: String,
    /// Queries completed.
    pub queries: usize,
    /// First arrival to last completion, in seconds of virtual time.
    pub makespan_s: f64,
    /// Query throughput: queries / makespan (Figures 7a, 8a).
    pub throughput_qps: f64,
    /// Response-time distribution in seconds (Figures 7b, 8b).
    pub response: Summary,
    /// Bucket cache statistics (the Section 6 cache-hit comparison).
    pub cache: CacheStats,
    /// Disk-level accounting.
    pub io: IoStats,
    /// Batches executed.
    pub batches: u64,
    /// Batches evaluated by sequential scan.
    pub scan_batches: u64,
    /// Batches evaluated by indexed join.
    pub indexed_batches: u64,
    /// Workload objects serviced (queue entries consumed).
    pub serviced_entries: u64,
    /// Workload objects serviced from a cached bucket.
    pub cache_serviced_entries: u64,
    /// Mixed-α decisions whose threshold pass closed within the first half
    /// of the candidate list (0 for policies without one) — see
    /// `liferaft_core::DecisionStats`.
    pub frontier_picks: u64,
    /// Mixed-α decisions whose threshold pass was still open after reading
    /// half the candidate list.
    pub fallback_picks: u64,
    /// Cross-match result pairs after predicates (0 in cost-only runs).
    pub total_matches: u64,
    /// Longest wait observed by the starvation monitor, milliseconds.
    pub max_wait_ms: f64,
    /// Per-query outcomes in completion order.
    pub outcomes: Vec<QueryOutcome>,
}

impl RunReport {
    /// The one fold over query completions every figure reads: the response
    /// summary, the makespan (latest completion) and the throughput
    /// (`queries` over the makespan). The engine-side counters start at
    /// zero; a single engine fills in its own, a pool sums its shards' with
    /// [`add_counters`](Self::add_counters).
    pub fn from_outcomes(scheduler: String, queries: usize, outcomes: Vec<QueryOutcome>) -> Self {
        let response = Summary::from_samples(
            outcomes
                .iter()
                .map(|o| o.response_time().as_secs_f64())
                .collect(),
        );
        let makespan_s = outcomes
            .iter()
            .map(|o| o.completion.as_secs_f64())
            .fold(0.0, f64::max);
        let throughput_qps = if makespan_s > 0.0 {
            queries as f64 / makespan_s
        } else {
            0.0
        };
        RunReport {
            scheduler,
            queries,
            makespan_s,
            throughput_qps,
            response,
            cache: CacheStats::default(),
            io: IoStats::default(),
            batches: 0,
            scan_batches: 0,
            indexed_batches: 0,
            serviced_entries: 0,
            cache_serviced_entries: 0,
            frontier_picks: 0,
            fallback_picks: 0,
            total_matches: 0,
            max_wait_ms: 0.0,
            outcomes,
        }
    }

    /// Adds `part`'s engine-side counters (everything that is not a fold
    /// over `outcomes`) into `self`; the longest wait is a maximum.
    pub fn add_counters(&mut self, part: &RunReport) {
        self.cache.merge(&part.cache);
        self.io.merge(&part.io);
        self.batches += part.batches;
        self.scan_batches += part.scan_batches;
        self.indexed_batches += part.indexed_batches;
        self.serviced_entries += part.serviced_entries;
        self.cache_serviced_entries += part.cache_serviced_entries;
        self.frontier_picks += part.frontier_picks;
        self.fallback_picks += part.fallback_picks;
        self.total_matches += part.total_matches;
        self.max_wait_ms = self.max_wait_ms.max(part.max_wait_ms);
    }

    /// Mean response time in seconds.
    pub fn mean_response_s(&self) -> f64 {
        self.response.mean()
    }

    /// Coefficient of variation of response times (Figure 7b's second series).
    pub fn response_cov(&self) -> f64 {
        self.response.coefficient_of_variation()
    }

    /// Mean workload objects consumed per batch (the batching win).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.serviced_entries as f64 / self.batches as f64
        }
    }

    /// Fraction of serviced requests that hit the bucket cache
    /// ("40% and 7% of requests serviced from the cache", Section 6).
    pub fn cache_service_fraction(&self) -> f64 {
        if self.serviced_entries == 0 {
            0.0
        } else {
            self.cache_serviced_entries as f64 / self.serviced_entries as f64
        }
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<22} tput={:.4} q/s  mean_rt={:>8.1}s  p90={:>8.1}s  cov={:.2}  batches={}  cache={:.0}%",
            self.scheduler,
            self.throughput_qps,
            self.mean_response_s(),
            self.response.percentile(90.0),
            self.response_cov(),
            self.batches,
            self.cache_service_fraction() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            scheduler: "test".into(),
            queries: 10,
            makespan_s: 100.0,
            throughput_qps: 0.1,
            response: Summary::from_samples(vec![1.0, 2.0, 3.0]),
            cache: CacheStats::default(),
            io: IoStats::default(),
            batches: 4,
            scan_batches: 3,
            indexed_batches: 1,
            serviced_entries: 100,
            cache_serviced_entries: 40,
            frontier_picks: 3,
            fallback_picks: 1,
            total_matches: 0,
            max_wait_ms: 0.0,
            outcomes: vec![],
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert_eq!(r.mean_response_s(), 2.0);
        assert_eq!(r.mean_batch_size(), 25.0);
        assert!((r.cache_service_fraction() - 0.4).abs() < 1e-12);
        assert!(r.response_cov() > 0.0);
    }

    #[test]
    fn zero_batches_edge() {
        let mut r = report();
        r.batches = 0;
        r.serviced_entries = 0;
        assert_eq!(r.mean_batch_size(), 0.0);
        assert_eq!(r.cache_service_fraction(), 0.0);
    }

    #[test]
    fn summary_line_mentions_scheduler() {
        assert!(report().summary_line().contains("test"));
    }
}
