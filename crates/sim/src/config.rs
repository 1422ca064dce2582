//! Simulation configuration.

use liferaft_storage::CostModel;

/// Knobs of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Cost constants (`Tb`, `Tm`, probe costs) and the hybrid join
    /// threshold: every batch's plan and price.
    pub cost: CostModel,
    /// Bucket cache capacity in buckets (the paper fixes 20).
    pub cache_buckets: usize,
    /// If true, every batch executes a real cross-match join against
    /// materialized bucket objects (results identical across schedulers; use
    /// at small scale). If false, only costs and accounting are simulated —
    /// the configuration for paper-scale figure sweeps.
    pub execute_joins: bool,
}

impl SimConfig {
    /// The paper's experimental configuration (Section 5), cost-only joins.
    pub fn paper() -> Self {
        SimConfig {
            cost: CostModel::paper(),
            cache_buckets: 20,
            execute_joins: false,
        }
    }

    /// Small-scale configuration with real join execution, for correctness
    /// tests and examples.
    pub fn with_real_joins() -> Self {
        SimConfig {
            execute_joins: true,
            ..Self::paper()
        }
    }

    /// Validates invariants.
    pub fn validate(&self) {
        assert!(
            self.cache_buckets > 0,
            "cache must hold at least one bucket"
        );
        assert!(
            self.cost.threshold_ratio >= 0.0,
            "hybrid threshold must be non-negative"
        );
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper();
        assert_eq!(c.cache_buckets, 20);
        assert!(!c.execute_joins);
        assert!(c.cost.threshold_ratio > 0.0);
        c.validate();
    }

    #[test]
    fn real_join_variant() {
        assert!(SimConfig::with_real_joins().execute_joins);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_cache_rejected() {
        let mut c = SimConfig::paper();
        c.cache_buckets = 0;
        c.validate();
    }
}
