//! The synthetic trace generator.
//!
//! Reproduces the published shape of the SkyQuery trace (Section 5.1,
//! Figures 5–6) from four ingredients:
//!
//! 1. **Hotspots** — a small set of popular sky regions (survey overlap
//!    areas, famous objects) with Zipf-distributed popularity. Queries
//!    hitting the same hotspot contend for the same buckets, producing the
//!    "top ten buckets accessed by 61% of queries" concentration.
//! 2. **Temporal epochs** — the trace is divided into epochs during which
//!    only a few hotspots are *active*; this yields Figure 5's pattern that
//!    "queries that overlap in data access are close temporally".
//! 3. **Background** — the remaining queries explore uniformly random
//!    regions, generating the long tail of sparsely-touched buckets that
//!    "are susceptible to starvation by the scheduler" (Figure 6).
//! 4. **Size mixture** — small/large/full-sky query sizes, since
//!    cross-matches range from focused probes to multi-hour sky sweeps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use liferaft_htm::{BatchCoverer, Cap, Vec3};
use liferaft_query::{CrossMatchQuery, MatchObject, Predicate, QueryId};

use crate::trace::Trace;
use crate::zipf::Zipf;

/// Log-uniform range of footprint-radius multipliers: each query's region
/// is `hotspot_radius × m` with `m ∈ [1.0, 2.2]`. Values above 1 make
/// queries span several buckets, which controls the mean buckets-per-query
/// (and therefore per-query service time).
const REGION_SPREAD: (f64, f64) = (1.0, 2.2);

/// Parameters of the synthetic workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of queries in the trace (the paper uses 2 000).
    pub n_queries: usize,
    /// Generator seed.
    pub seed: u64,
    /// HTM level of object bounding boxes — must match the partition level.
    pub level: u8,
    /// Number of hotspot regions.
    pub hotspots: usize,
    /// Zipf exponent of hotspot popularity.
    pub hotspot_zipf: f64,
    /// Fraction of queries directed at hotspots (rest are background).
    pub hotspot_fraction: f64,
    /// Angular radius (radians) of a hotspot footprint.
    pub hotspot_radius: f64,
    /// Number of temporal epochs across the trace.
    pub epochs: usize,
    /// Hotspots active per epoch.
    pub active_per_epoch: usize,
    /// The most popular hotspots are "famous regions" active in *every*
    /// epoch (survey overlap areas drawing queries across the whole trace);
    /// the remainder of each epoch's active set rotates. Continuous activity
    /// on the hottest buckets is what makes caching matter: "queries that
    /// overlap in data access are close temporally, which benefits caching"
    /// (Section 5.1).
    pub always_active: usize,
    /// Inclusive range of objects for small queries.
    pub size_small: (usize, usize),
    /// Inclusive range of objects for large queries.
    pub size_large: (usize, usize),
    /// Fraction of large queries among background/full-sky queries.
    pub large_fraction: f64,
    /// Fraction of large queries among hotspot queries. Famous regions draw
    /// many *focused* probes (most queries, fewer objects each), while the
    /// exploratory background carries the bulk of the object mass — that is
    /// how the published trace can have the top-10 buckets touched by 61%
    /// of queries (Figure 5) while 98% of buckets still hold half the
    /// workload objects (Figure 6).
    pub hot_large_fraction: f64,
    /// Fraction of full-sky queries (objects spread over the whole sphere).
    pub full_sky_fraction: f64,
    /// Cross-match error radius in radians (arcseconds in practice).
    pub error_radius: f64,
}

impl WorkloadConfig {
    /// A workload shaped like the paper's trace, scaled to a partition of
    /// `n_buckets` buckets at `level`.
    ///
    /// The hotspot radius is sized to cover roughly one bucket's worth of
    /// sky (`area ≈ 4π/n_buckets`), so hotspot queries pile onto the same
    /// few buckets.
    pub fn paper_like(level: u8, n_buckets: u32, n_queries: usize, seed: u64) -> Self {
        let bucket_area = 4.0 * std::f64::consts::PI / n_buckets as f64;
        // Cap area ≈ π r² for small r. Hotspot cores cover well under one
        // bucket so the global hot set stays near the published shape —
        // ten-ish buckets drawing the majority of queries (Figure 5), a
        // working set comparable to the 20-bucket cache.
        let hotspot_radius = (0.35 * bucket_area / std::f64::consts::PI).sqrt();
        WorkloadConfig {
            n_queries,
            seed,
            level,
            hotspots: 12,
            hotspot_zipf: 1.1,
            hotspot_fraction: 0.72,
            hotspot_radius,
            epochs: 8,
            active_per_epoch: 4,
            always_active: 2,
            // Cross-match queries ship the *intermediate result list* of the
            // previous archive in the join chain — hundreds to thousands of
            // objects concentrated in the query footprint. Dense lists are
            // what push per-bucket workload queues around the hybrid
            // strategy's 3% break-even (Figure 2's x-axis).
            size_small: (100, 400),
            size_large: (600, 2_000),
            large_fraction: 0.65,
            hot_large_fraction: 0.15,
            full_sky_fraction: 0.005,
            error_radius: (10.0 / 3600.0_f64).to_radians(), // 10 arcsec
        }
    }

    fn validate(&self) {
        assert!(self.n_queries > 0, "n_queries must be positive");
        assert!(self.hotspots > 0, "need at least one hotspot");
        assert!((0.0..=1.0).contains(&self.hotspot_fraction));
        assert!((0.0..=1.0).contains(&self.large_fraction));
        assert!((0.0..=1.0).contains(&self.hot_large_fraction));
        assert!((0.0..=1.0).contains(&self.full_sky_fraction));
        assert!(self.epochs > 0 && self.active_per_epoch > 0);
        assert!(
            self.always_active <= self.active_per_epoch,
            "always_active hotspots must fit in the per-epoch active set"
        );
        assert!(self.hotspot_radius > 0.0, "hotspot_radius must be positive");
        assert!(
            self.error_radius > 0.0 && self.error_radius <= std::f64::consts::FRAC_PI_2,
            "error_radius must be in (0, π/2], got {}",
            self.error_radius
        );
        assert!(self.size_small.0 >= 1 && self.size_small.0 <= self.size_small.1);
        assert!(self.size_large.0 >= 1 && self.size_large.0 <= self.size_large.1);
    }
}

/// The per-trace hotspot geometry every query draws from: the hotspot
/// centers and each epoch's active set. A pure function of the
/// configuration ([`TraceGenerator::layout`]), shared by the serial
/// generator and every chunk of a parallel build.
#[derive(Debug, Clone)]
pub struct TraceLayout {
    centers: Vec<Vec3>,
    active: Vec<Vec<usize>>,
}

/// Generates [`Trace`]s from a [`WorkloadConfig`].
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: WorkloadConfig,
}

impl TraceGenerator {
    /// Creates a generator, validating the configuration.
    pub fn new(config: WorkloadConfig) -> Self {
        config.validate();
        TraceGenerator { config }
    }

    /// Derives the hotspot layout from `rng` (the serial generator threads
    /// its one stream through here and on into the queries).
    fn layout_with(&self, rng: &mut StdRng) -> TraceLayout {
        let cfg = &self.config;
        // Hotspot centers, fixed for the whole trace.
        let centers: Vec<Vec3> = (0..cfg.hotspots).map(|_| uniform_point(rng)).collect();
        let popularity = Zipf::new(cfg.hotspots, cfg.hotspot_zipf);

        // Active hotspots per epoch: the most popular few are always active
        // (famous regions), the rest of the slots rotate by Zipf sampling so
        // each epoch has temporal focus.
        let pinned = cfg.always_active.min(cfg.hotspots);
        let active: Vec<Vec<usize>> = (0..cfg.epochs)
            .map(|_| {
                let mut set: Vec<usize> = (0..pinned).collect();
                // Rejection-sample distinct hotspots; bounded because
                // active_per_epoch ≤ hotspots.
                while set.len() < cfg.active_per_epoch.min(cfg.hotspots) {
                    let h = popularity.sample(rng);
                    if !set.contains(&h) {
                        set.push(h);
                    }
                }
                set
            })
            .collect();
        TraceLayout { centers, active }
    }

    /// The hotspot layout of the *independently seeded* trace family — the
    /// shared input of every [`generate_block`](Self::generate_block) call.
    /// Deterministic per configuration.
    pub fn layout(&self) -> TraceLayout {
        self.layout_with(&mut StdRng::seed_from_u64(self.config.seed))
    }

    /// Generates the trace (deterministic per configuration).
    ///
    /// This is the *sequential* trace family: one RNG stream threads
    /// through the layout and every query in order, so the content of query
    /// `i` depends on all earlier queries. For a chunkable trace whose
    /// queries are independently seeded (parallel fixture builds), see
    /// [`generate_block`](Self::generate_block).
    pub fn generate(&self) -> Trace {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let layout = self.layout_with(&mut rng);
        let mut coverer = BatchCoverer::new(cfg.level);

        let queries = (0..cfg.n_queries)
            .map(|i| {
                let epoch = i * cfg.epochs / cfg.n_queries;
                self.generate_query(
                    i as u64,
                    &mut rng,
                    &layout.centers,
                    &layout.active[epoch],
                    &mut coverer,
                )
            })
            .collect();
        Trace::new(cfg.level, queries)
    }

    /// Generates queries `start..end` of the **independently seeded** trace
    /// family: query `i` draws from its own SplitMix64-derived RNG stream,
    /// so concatenating blocks `[0, a) ∪ [a, b) ∪ … ∪ [z, n)` produces the
    /// same queries for *any* split points — the determinism contract that
    /// lets a fixture build fan blocks across threads (e.g.
    /// `liferaft-runtime`'s `parallel_map`) and stay bit-identical at every
    /// thread and chunk count.
    ///
    /// The layout must come from [`layout`](Self::layout) on the same
    /// configuration.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > n_queries`, or if the layout has
    /// another number of `epochs`.
    pub fn generate_block(
        &self,
        layout: &TraceLayout,
        start: usize,
        end: usize,
    ) -> Vec<CrossMatchQuery> {
        let cfg = &self.config;
        assert!(start <= end && end <= cfg.n_queries, "block out of range");
        assert_eq!(
            layout.active.len(),
            cfg.epochs,
            "layout has one active set per epoch of another config: epochs differ"
        );
        let mut coverer = BatchCoverer::new(cfg.level);
        (start..end)
            .map(|i| {
                let epoch = i * cfg.epochs / cfg.n_queries;
                let mut rng = StdRng::seed_from_u64(query_seed(cfg.seed, i as u64));
                self.generate_query(
                    i as u64,
                    &mut rng,
                    &layout.centers,
                    &layout.active[epoch],
                    &mut coverer,
                )
            })
            .collect()
    }

    /// The whole independently-seeded trace, serially — the reference a
    /// parallel block build must reproduce.
    pub fn generate_seeded(&self) -> Trace {
        let layout = self.layout();
        Trace::new(
            self.config.level,
            self.generate_block(&layout, 0, self.config.n_queries),
        )
    }

    fn generate_query(
        &self,
        id: u64,
        rng: &mut StdRng,
        centers: &[Vec3],
        active: &[usize],
        coverer: &mut BatchCoverer,
    ) -> CrossMatchQuery {
        let cfg = &self.config;

        // Footprint radius: hotspot base × a log-uniform spread multiplier,
        // capped below a hemisphere (the Cap type's domain).
        let (m_lo, m_hi) = REGION_SPREAD;
        let mult = (m_lo.ln() + rng.gen_range(0.0f64..=1.0) * (m_hi / m_lo).ln()).exp();
        let radius = (cfg.hotspot_radius * mult).min(std::f64::consts::FRAC_PI_2 * 0.99);

        fn sample_size(rng: &mut StdRng, cfg: &WorkloadConfig, large_fraction: f64) -> usize {
            if rng.gen_bool(large_fraction) {
                rng.gen_range(cfg.size_large.0..=cfg.size_large.1)
            } else {
                rng.gen_range(cfg.size_small.0..=cfg.size_small.1)
            }
        }

        // Every object is the one error circle, moved to its position.
        let circle = Cap::new(Vec3::NORTH, cfg.error_radius);
        let caps: Vec<Cap> = if rng.gen_bool(cfg.full_sky_fraction) {
            // A full-sky sweep: objects anywhere.
            let n = sample_size(rng, cfg, cfg.large_fraction);
            (0..n)
                .map(|_| circle.recentered(uniform_point(rng)))
                .collect()
        } else if rng.gen_bool(cfg.hotspot_fraction) {
            // A hotspot query: focused probe of one active hotspot. The
            // active set is popularity-ordered (pinned famous regions
            // first); choose Zipf-weighted so the famous regions draw most
            // of the traffic.
            let slot_dist = Zipf::new(active.len(), cfg.hotspot_zipf);
            let h = active[slot_dist.sample(rng)];
            let sampler = CapSampler::new(centers[h], radius);
            let n = sample_size(rng, cfg, cfg.hot_large_fraction);
            (0..n)
                .map(|_| circle.recentered(sampler.sample(rng)))
                .collect()
        } else {
            // Background exploration: a random region of the same extent,
            // typically carrying a large object list.
            let sampler = CapSampler::new(uniform_point(rng), radius);
            let n = sample_size(rng, cfg, cfg.large_fraction);
            (0..n)
                .map(|_| circle.recentered(sampler.sample(rng)))
                .collect()
        };

        let predicate = match rng.gen_range(0..4u8) {
            0 => Predicate::All,
            1 => Predicate::BrighterThan(rng.gen_range(18.0f32..23.0)),
            _ => {
                let min = rng.gen_range(14.0f32..19.0);
                Predicate::MagRange {
                    min,
                    max: min + rng.gen_range(1.0f32..5.0),
                }
            }
        };

        let objects = MatchObject::from_caps(&caps, coverer);
        CrossMatchQuery::new(QueryId(id), objects, predicate)
    }
}

/// The per-query RNG seed of the independently seeded trace family: a
/// SplitMix64 finalizer over `(trace seed, query id)`. Streams are decided
/// by the pair alone, which is what makes [`TraceGenerator::generate_block`]
/// chunking-invariant.
fn query_seed(seed: u64, id: u64) -> u64 {
    let mut z = seed
        ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform random point on the sphere.
fn uniform_point<R: Rng + ?Sized>(rng: &mut R) -> Vec3 {
    let z: f64 = rng.gen_range(-1.0..1.0);
    let ra: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    Vec3::from_radec(ra, z.asin())
}

/// Area-uniform sampler over one spherical cap, with the tangent basis
/// hoisted out of the per-point loop (a query samples hundreds of objects
/// from the same cap; the basis is a pure function of the center).
struct CapSampler {
    center: Vec3,
    cos_r: f64,
    e1: Vec3,
    e2: Vec3,
}

impl CapSampler {
    fn new(center: Vec3, radius: f64) -> Self {
        // Tangent basis at center.
        let helper = if center.z.abs() < 0.9 {
            Vec3::NORTH
        } else {
            Vec3::new(1.0, 0.0, 0.0)
        };
        let e1 = center.cross(helper).normalized();
        let e2 = center.cross(e1).normalized();
        CapSampler {
            center,
            cos_r: radius.cos(),
            e1,
            e2,
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec3 {
        // Uniform over cap area: cos θ uniform in [cos r, 1].
        let cos_t: f64 = rng.gen_range(self.cos_r..=1.0);
        let sin_t = (1.0 - cos_t * cos_t).max(0.0).sqrt();
        let phi: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        (self.center.scale(cos_t)
            + self.e1.scale(sin_t * phi.cos())
            + self.e2.scale(sin_t * phi.sin()))
        .normalized()
    }
}

/// Uniform random point within the cap of angular `radius` around `center`
/// (one-shot [`CapSampler`]; production paths hoist the sampler instead).
#[cfg(test)]
fn point_in_cap<R: Rng + ?Sized>(rng: &mut R, center: Vec3, radius: f64) -> Vec3 {
    CapSampler::new(center, radius).sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WorkloadConfig {
        let mut cfg = WorkloadConfig::paper_like(8, 256, 60, 42);
        cfg.size_small = (5, 10);
        cfg.size_large = (15, 30);
        cfg
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = TraceGenerator::new(small_config());
        let a = gen.generate();
        let b = gen.generate();
        assert_eq!(a.queries().len(), b.queries().len());
        for (qa, qb) in a.queries().iter().zip(b.queries()) {
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn seeds_differ() {
        let mut cfg2 = small_config();
        cfg2.seed = 43;
        let a = TraceGenerator::new(small_config()).generate();
        let b = TraceGenerator::new(cfg2).generate();
        assert_ne!(a.queries()[0], b.queries()[0]);
    }

    #[test]
    fn query_sizes_respect_mixture_bounds() {
        let cfg = small_config();
        let trace = TraceGenerator::new(cfg.clone()).generate();
        for q in trace.queries() {
            assert!(q.len() >= cfg.size_small.0);
            assert!(q.len() <= cfg.size_large.1);
        }
    }

    #[test]
    fn ids_are_sequential() {
        let trace = TraceGenerator::new(small_config()).generate();
        for (i, q) in trace.queries().iter().enumerate() {
            assert_eq!(q.id, QueryId(i as u64));
        }
    }

    #[test]
    fn seeded_blocks_are_chunking_invariant() {
        let gen = TraceGenerator::new(small_config());
        let layout = gen.layout();
        let whole = gen.generate_seeded();
        // Any split of the range reproduces the whole, query by query.
        for splits in [vec![0, 60], vec![0, 1, 60], vec![0, 7, 23, 24, 60]] {
            let mut rebuilt = Vec::new();
            for w in splits.windows(2) {
                rebuilt.extend(gen.generate_block(&layout, w[0], w[1]));
            }
            assert_eq!(rebuilt.len(), whole.queries().len());
            for (a, b) in rebuilt.iter().zip(whole.queries()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn seeded_family_is_deterministic_but_distinct_from_sequential() {
        let gen = TraceGenerator::new(small_config());
        let a = gen.generate_seeded();
        let b = gen.generate_seeded();
        for (qa, qb) in a.queries().iter().zip(b.queries()) {
            assert_eq!(qa, qb);
        }
        // Same config bounds apply to the seeded family.
        let cfg = small_config();
        for q in a.queries() {
            assert!(q.len() >= cfg.size_small.0 && q.len() <= cfg.size_large.1);
        }
        for (i, q) in a.queries().iter().enumerate() {
            assert_eq!(q.id, QueryId(i as u64));
        }
        // The two families share the layout but not the per-query streams.
        let sequential = gen.generate();
        assert_ne!(a.queries()[0], sequential.queries()[0]);
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn out_of_range_block_rejected() {
        let gen = TraceGenerator::new(small_config());
        let layout = gen.layout();
        let _ = gen.generate_block(&layout, 0, 61);
    }

    #[test]
    fn point_in_cap_stays_in_cap() {
        let mut rng = StdRng::seed_from_u64(9);
        let center = Vec3::from_radec_deg(123.0, -45.0);
        for _ in 0..500 {
            let p = point_in_cap(&mut rng, center, 0.05);
            assert!(center.angle_to(p) <= 0.05 + 1e-12);
            assert!((p.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn point_in_cap_covers_the_cap_not_just_center() {
        let mut rng = StdRng::seed_from_u64(10);
        let center = Vec3::NORTH;
        let mut max_angle = 0.0f64;
        for _ in 0..500 {
            max_angle = max_angle.max(center.angle_to(point_in_cap(&mut rng, center, 0.1)));
        }
        assert!(
            max_angle > 0.08,
            "samples should reach the rim, max {max_angle}"
        );
    }

    #[test]
    fn objects_carry_the_configured_error_radius() {
        let cfg = small_config();
        let trace = TraceGenerator::new(cfg.clone()).generate();
        let q = &trace.queries()[0];
        for o in &q.objects {
            assert_eq!(o.radius, cfg.error_radius);
        }
    }

    #[test]
    #[should_panic(expected = "error_radius must be in (0, π/2]")]
    fn error_radius_beyond_a_hemisphere_rejected() {
        let mut cfg = small_config();
        cfg.error_radius = 2.0;
        TraceGenerator::new(cfg);
    }

    #[test]
    #[should_panic(expected = "epochs differ")]
    fn layout_of_another_epoch_count_rejected() {
        let mut other = small_config();
        other.epochs = 3;
        let layout = TraceGenerator::new(other).layout();
        let _ = TraceGenerator::new(small_config()).generate_block(&layout, 0, 60);
    }

    #[test]
    #[should_panic(expected = "n_queries")]
    fn zero_queries_rejected() {
        let mut cfg = small_config();
        cfg.n_queries = 0;
        TraceGenerator::new(cfg);
    }

    /// FNV-1a over every object's position bits and bounding-box ranges.
    fn trace_digest(trace: &Trace) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for q in trace.queries() {
            eat(q.len() as u64);
            for o in &q.objects {
                eat(o.pos.x.to_bits());
                eat(o.pos.y.to_bits());
                eat(o.pos.z.to_bits());
                eat(o.bbox.num_ranges() as u64);
                for r in o.bbox.ranges() {
                    eat(r.lo().raw());
                    eat(r.hi().raw());
                }
            }
        }
        h
    }

    /// Both trace families, object for object, as recorded with the per-object
    /// reference cover before the batch cover replaced it (PR 23's parent).
    #[test]
    fn trace_digests_are_pinned() {
        let gen = TraceGenerator::new(WorkloadConfig::paper_like(12, 2_048, 200, 77));
        assert_eq!(trace_digest(&gen.generate()), 0xeabf_9dfc_6b6e_45a8);
        assert_eq!(trace_digest(&gen.generate_seeded()), 0xe6a6_ed0b_2525_0b17);
    }

    /// The benchmark's trace shape, 5.5 M objects: the 200-query pin never
    /// reaches the rare caps the batch cover refuses at the root stage or
    /// levels 0–4 (33 k of these under the strict-only screen, 755 with
    /// crossings certified). Recorded with the strict-only screen, before
    /// crossings were certified. Seconds in release, minutes in debug — run
    /// with `--release --include-ignored`.
    #[test]
    #[ignore = "benchmark scale; run in release with --include-ignored"]
    fn benchmark_scale_trace_digest_is_pinned() {
        let gen = TraceGenerator::new(WorkloadConfig::paper_like(12, 2_048, 10_000, 77));
        let trace = gen.generate_seeded();
        let objects: usize = trace.queries().iter().map(|q| q.len()).sum();
        assert_eq!(objects, 5_503_274);
        assert_eq!(trace_digest(&trace), 0x31e7_0fc3_05c7_a2ac);
    }
}
