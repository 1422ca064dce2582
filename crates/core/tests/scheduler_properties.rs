//! Property tests for the LifeRaft scheduling policy.

mod fixture;

use fixture::FixtureView;
use liferaft_core::metric::ScorePass;
use liferaft_core::{
    AgingMode, BucketSnapshot, LifeRaftScheduler, MetricParams, RoundRobinScheduler, Scheduler,
};
use liferaft_storage::{BucketId, SimTime};
use proptest::prelude::*;

fn arb_candidates() -> impl Strategy<Value = Vec<BucketSnapshot>> {
    proptest::collection::vec(
        (
            0u32..500,
            1u64..5_000,
            0u64..1_000_000u64,
            proptest::bool::ANY,
        ),
        1..40,
    )
    .prop_map(|raw| {
        let mut cands: Vec<BucketSnapshot> = raw
            .into_iter()
            .map(|(b, q, enq, cached)| BucketSnapshot {
                bucket: BucketId(b),
                queue_len: q,
                oldest_enqueue: SimTime::from_micros(enq),
                cached,
                bucket_objects: 1_000,
            })
            .collect();
        cands.sort_by_key(|c| c.bucket);
        cands.dedup_by_key(|c| c.bucket);
        cands
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scheduler always picks one of the candidates, for any α.
    #[test]
    fn pick_is_always_a_candidate(
        cands in arb_candidates(),
        alpha in 0.0..=1.0f64,
    ) {
        let now = SimTime::from_micros(2_000_000);
        let s = LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, alpha);
        let idx = s.pick_index(now, &cands).expect("non-empty candidates");
        prop_assert!(idx < cands.len());
    }

    /// α = 1 services the bucket holding the oldest request (modulo exact
    /// timestamp ties).
    #[test]
    fn alpha_one_picks_oldest(cands in arb_candidates()) {
        let now = SimTime::from_micros(2_000_000);
        let s = LifeRaftScheduler::age_based(MetricParams::paper());
        let idx = s.pick_index(now, &cands).expect("non-empty");
        let oldest = cands.iter().map(|c| c.oldest_enqueue).min().expect("non-empty");
        prop_assert_eq!(
            cands[idx].oldest_enqueue, oldest,
            "picked {:?}, oldest {:?}", cands[idx], oldest
        );
    }

    /// α = 0 always prefers a cached bucket when one exists: φ = 0 puts
    /// cached queues at the metric's ceiling (1/Tm).
    #[test]
    fn alpha_zero_prefers_cached(cands in arb_candidates()) {
        let now = SimTime::from_micros(2_000_000);
        let s = LifeRaftScheduler::greedy(MetricParams::paper());
        let idx = s.pick_index(now, &cands).expect("non-empty");
        if cands.iter().any(|c| c.cached) {
            prop_assert!(cands[idx].cached, "greedy must ride the cache");
        } else {
            // Among uncached queues, the longest wins.
            let max_q = cands.iter().map(|c| c.queue_len).max().expect("non-empty");
            prop_assert_eq!(cands[idx].queue_len, max_q);
        }
    }

    /// The pick is deterministic: same view, same decision.
    #[test]
    fn pick_is_deterministic(cands in arb_candidates(), alpha in 0.0..=1.0f64) {
        let now = SimTime::from_micros(3_000_000);
        let s = LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, alpha);
        prop_assert_eq!(s.pick_index(now, &cands), s.pick_index(now, &cands));
    }

    /// Candidate order must not affect the decision (no positional bias):
    /// scoring is a function of the snapshot contents only.
    #[test]
    fn pick_is_order_invariant(cands in arb_candidates(), alpha in 0.0..=1.0f64) {
        let now = SimTime::from_micros(3_000_000);
        let s = LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, alpha);
        let a = cands[s.pick_index(now, &cands).expect("non-empty")];
        let mut rev: Vec<BucketSnapshot> = cands.clone();
        rev.reverse();
        let b = rev[s.pick_index(now, &rev).expect("non-empty")];
        prop_assert_eq!(a.bucket, b.bucket);
    }

    /// The fused, allocation-free pick must agree with a reference
    /// implementation that materializes the score vector and applies the
    /// pre-refactor `>`/`==` comparison chain.
    #[test]
    fn fused_pick_matches_materialized_reference(
        cands in arb_candidates(),
        alpha in 0.0..=1.0f64,
    ) {
        let now = SimTime::from_micros(2_000_000);
        let params = MetricParams::paper();
        let s = LifeRaftScheduler::new(params, AgingMode::Normalized, alpha);
        let idx = s.pick_index(now, &cands).expect("non-empty");
        let pass = ScorePass::new(&params, AgingMode::Normalized, alpha, now, &cands);
        let scores: Vec<f64> = cands.iter().map(|c| pass.score(c)).collect();
        let mut best = 0usize;
        for i in 1..cands.len() {
            let better = scores[i] > scores[best]
                || (scores[i] == scores[best]
                    && (cands[i].queue_len > cands[best].queue_len
                        || (cands[i].queue_len == cands[best].queue_len
                            && cands[i].bucket < cands[best].bucket)));
            if better {
                best = i;
            }
        }
        prop_assert_eq!(idx, best);
    }

    /// The indexed pick (lens extremes at α ∈ {0, 1}, threshold frontier
    /// scan in between) through a view must equal the legacy
    /// full-materialization `pick_index`, for any α and either aging mode.
    #[test]
    fn view_pick_matches_pick_index(
        cands in arb_candidates(),
        random_alpha in 0.0..=1.0f64,
    ) {
        let now = SimTime::from_micros(2_000_000);
        let view = FixtureView {
            now,
            candidates: cands.clone(),
            oldest_query: None,
            query_buckets: vec![],
        };
        for mode in [AgingMode::Normalized, AgingMode::Raw] {
            for alpha in [0.0, 0.25, 0.5, random_alpha, 1.0] {
                let mut s = LifeRaftScheduler::new(MetricParams::paper(), mode, alpha);
                let legacy = cands[s.pick_index(now, &cands).expect("non-empty")];
                let picked = s.pick(&view).expect("non-empty");
                prop_assert_eq!(picked.bucket, legacy.bucket, "mode {:?} α={}", mode, alpha);
            }
        }
    }

    /// Round-robin visits every candidate exactly once per rotation when
    /// the candidate set is stable.
    #[test]
    fn round_robin_is_fair_over_a_rotation(cands in arb_candidates()) {
        let mut rr = RoundRobinScheduler::new();
        let view = FixtureView {
            now: SimTime::from_micros(1),
            candidates: cands.clone(),
            oldest_query: None,
            query_buckets: vec![],
        };
        let mut seen = Vec::new();
        for _ in 0..cands.len() {
            let pick = rr.pick(&view).expect("non-empty");
            prop_assert!(
                cands.iter().any(|c| c.bucket == pick.bucket),
                "picked bucket must be a candidate"
            );
            seen.push(pick.bucket);
        }
        let mut expected: Vec<BucketId> = cands.iter().map(|c| c.bucket).collect();
        seen.sort();
        expected.sort();
        prop_assert_eq!(seen, expected, "one full rotation covers each bucket once");
    }
}
