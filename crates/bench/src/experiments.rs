//! Shared experiment fixtures.

use liferaft_catalog::VirtualCatalog;
use liferaft_sim::SimConfig;
use liferaft_workload::{Trace, TraceGenerator, WorkloadConfig};

/// The scale of a figure-reproduction experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// HTM object level.
    pub level: u8,
    /// Buckets in the partition.
    pub n_buckets: u32,
    /// Objects per bucket (the paper: 10 000 ⇒ 40 MB buckets).
    pub objects_per_bucket: u64,
    /// Queries in the trace (the paper: 2 000).
    pub n_queries: usize,
    /// Fixture seed.
    pub seed: u64,
}

impl Scale {
    /// The full reproduction scale.
    ///
    /// Buckets stay 40 MB (the paper's size, hence the same `Tb`), with
    /// 1 000 denser rows each rather than 10 000 — keeping the hybrid
    /// break-even (3% of a bucket) in the same *relative* position against
    /// the synthetic queries' per-bucket object counts as in the paper's
    /// trace, at an order of magnitude less memory for the 2 000-query
    /// fixture.
    pub fn full() -> Self {
        Scale {
            level: 14,
            n_buckets: 16_384,
            objects_per_bucket: 1_000,
            n_queries: 2_000,
            seed: 2009,
        }
    }

    /// A fast scale for iteration and CI.
    pub fn quick() -> Self {
        Scale {
            level: 10,
            n_buckets: 1_024,
            objects_per_bucket: 500,
            n_queries: 250,
            seed: 2009,
        }
    }

    /// The scale a `LIFERAFT_SCALE` value names: `full` (also when unset)
    /// or `quick`. Anything else is an error naming the accepted values —
    /// a typo must not start the minutes-long full run.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("full") => Ok(Self::full()),
            Some("quick") => Ok(Self::quick()),
            Some(other) => Err(format!(
                "LIFERAFT_SCALE={other:?} is not a scale: use `full` (the default when unset) or `quick`"
            )),
        }
    }

    /// [`Scale::parse`] of the `LIFERAFT_SCALE` environment variable.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("LIFERAFT_SCALE");
        Self::parse(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    }
}

/// A built fixture: catalog + trace + simulation configuration.
pub struct Experiment {
    /// The (virtual, paper-geometry) catalog.
    pub catalog: VirtualCatalog,
    /// The synthetic SkyQuery-shaped trace.
    pub trace: Trace,
    /// The simulation configuration (paper constants, cost-only joins).
    pub config: SimConfig,
    /// The scale it was built at.
    pub scale: Scale,
}

/// Builds the standard fixture for a scale.
pub fn build(scale: Scale) -> Experiment {
    // Keep buckets at the paper's 40 MB regardless of row count, so the
    // cost model's Tb stays meaningful.
    let object_bytes = (40 * 1024 * 1024) / scale.objects_per_bucket;
    let catalog = VirtualCatalog::new(
        scale.level,
        scale.n_buckets,
        scale.objects_per_bucket,
        object_bytes,
        scale.seed,
    );
    let cfg = WorkloadConfig::paper_like(
        scale.level,
        scale.n_buckets,
        scale.n_queries,
        scale.seed ^ 0xA5A5,
    );
    let trace = TraceGenerator::new(cfg).generate();
    Experiment {
        catalog,
        trace,
        config: SimConfig::paper(),
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_accepts_full_quick_unset_and_rejects_the_rest() {
        assert_eq!(Scale::parse(None), Ok(Scale::full()));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::full()));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::quick()));
        for typo in ["qiuck", "Quick", ""] {
            let err = Scale::parse(Some(typo)).expect_err(typo);
            assert!(err.contains("`full`") && err.contains("`quick`"), "{err}");
        }
    }
}
