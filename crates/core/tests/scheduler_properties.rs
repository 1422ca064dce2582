//! Property tests for the LifeRaft scheduling policy.

mod fixture;

use fixture::{reference_pick, FixtureView};
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
            })
            .collect();
        cands.sort_by_key(|c| c.bucket);
        cands.dedup_by_key(|c| c.bucket);
        cands
    })
}

/// A decision point over `cands` at `now`.
fn view(cands: &[BucketSnapshot], now: SimTime) -> FixtureView {
    FixtureView {
        now,
        candidates: cands.to_vec(),
        ..FixtureView::default()
    }
}

/// The candidate `s` picks through `v`.
fn pick(s: &mut LifeRaftScheduler, v: &FixtureView) -> BucketSnapshot {
    let bucket = s.pick(v).expect("non-empty candidates").bucket;
    *v.candidates
        .iter()
        .find(|c| c.bucket == bucket)
        .expect("picked bucket must be a candidate")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scheduler always picks one of the candidates, for any α.
    #[test]
    fn pick_is_always_a_candidate(
        cands in arb_candidates(),
        alpha in 0.0..=1.0f64,
    ) {
        let v = view(&cands, SimTime::from_micros(2_000_000));
        let mut s = LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, alpha);
        pick(&mut s, &v);
    }

    /// α = 1 services the bucket holding the oldest request (modulo exact
    /// timestamp ties).
    #[test]
    fn alpha_one_picks_oldest(cands in arb_candidates()) {
        let v = view(&cands, SimTime::from_micros(2_000_000));
        let picked = pick(&mut LifeRaftScheduler::age_based(MetricParams::paper()), &v);
        let oldest = cands.iter().map(|c| c.oldest_enqueue).min().expect("non-empty");
        prop_assert_eq!(
            picked.oldest_enqueue, oldest,
            "picked {:?}, oldest {:?}", picked, oldest
        );
    }

    /// α = 0 always prefers a cached bucket when one exists: φ = 0 puts
    /// cached queues at the metric's ceiling (1/Tm).
    #[test]
    fn alpha_zero_prefers_cached(cands in arb_candidates()) {
        let v = view(&cands, SimTime::from_micros(2_000_000));
        let picked = pick(&mut LifeRaftScheduler::greedy(MetricParams::paper()), &v);
        if cands.iter().any(|c| c.cached) {
            prop_assert!(picked.cached, "greedy must ride the cache");
        } else {
            // Among uncached queues, the longest wins.
            let max_q = cands.iter().map(|c| c.queue_len).max().expect("non-empty");
            prop_assert_eq!(picked.queue_len, max_q);
        }
    }

    /// The pick is deterministic: same view, same decision.
    #[test]
    fn pick_is_deterministic(cands in arb_candidates(), alpha in 0.0..=1.0f64) {
        let v = view(&cands, SimTime::from_micros(3_000_000));
        let mut s = LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, alpha);
        prop_assert_eq!(pick(&mut s, &v), pick(&mut s, &v));
    }

    /// Candidate order must not affect the decision (no positional bias):
    /// scoring is a function of the snapshot contents only.
    #[test]
    fn pick_is_order_invariant(cands in arb_candidates(), alpha in 0.0..=1.0f64) {
        let now = SimTime::from_micros(3_000_000);
        let mut s = LifeRaftScheduler::new(MetricParams::paper(), AgingMode::Normalized, alpha);
        let a = pick(&mut s, &view(&cands, now));
        let mut rev: Vec<BucketSnapshot> = cands.clone();
        rev.reverse();
        let b = pick(&mut s, &view(&rev, now));
        prop_assert_eq!(a.bucket, b.bucket);
    }

    /// The indexed pick (lens extremes at α ∈ {0, 1}, threshold frontier
    /// scan in between) through a view must equal the reference decision
    /// over the materialized slice, for any α and either aging mode.
    #[test]
    fn view_pick_matches_the_reference_pick(
        cands in arb_candidates(),
        random_alpha in 0.0..=1.0f64,
    ) {
        let now = SimTime::from_micros(2_000_000);
        let v = view(&cands, now);
        let params = MetricParams::paper();
        for mode in [AgingMode::Normalized, AgingMode::Raw] {
            for alpha in [0.0, 0.25, 0.5, random_alpha, 1.0] {
                let mut s = LifeRaftScheduler::new(params, mode, alpha);
                let want = reference_pick(&params, mode, alpha, now, &cands).expect("non-empty");
                prop_assert_eq!(pick(&mut s, &v), cands[want], "mode {:?} α={}", mode, alpha);
            }
        }
    }

    /// Round-robin visits every candidate exactly once per rotation when
    /// the candidate set is stable.
    #[test]
    fn round_robin_is_fair_over_a_rotation(cands in arb_candidates()) {
        let mut rr = RoundRobinScheduler::new();
        let view = view(&cands, SimTime::from_micros(1));
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
