//! Property tests for the LifeRaft scheduling policy.

mod fixture;

use std::cmp::{Ordering, Reverse};

use fixture::{reference_pick, reference_scores, FixtureView};
use liferaft_core::{
    AgingMode, BucketSnapshot, Lens, LifeRaftScheduler, RoundRobinScheduler, Scheduler,
    SchedulerView,
};
use liferaft_storage::{BucketId, CostModel, SimTime};
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

/// A saturated decision point: 200–2 000 candidates and queue lengths
/// anti-correlated with age (the long queues are the young ones, with
/// per-case noise), so the mixed-α threshold bound stays open deep into
/// both lens lists. At most 20 candidates are resident, all enqueued at the
/// latest instant, as buckets refilled just after their batch ran: their
/// `Ut` ceiling then compresses every uncached `Ut` term without handing
/// them the pick outright. Enqueue times and queue lengths sit on coarse
/// grids, so exact ties on both terms are common.
fn arb_saturated() -> impl Strategy<Value = Vec<BucketSnapshot>> {
    (
        proptest::collection::vec((0u64..400, 0u64..1_000), 200..2_000),
        0u64..=200,
        proptest::collection::vec(0usize..2_000, 0..=20),
    )
        .prop_map(|(raw, noise, residents)| {
            let mut cands: Vec<BucketSnapshot> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (step, jitter))| BucketSnapshot {
                    bucket: BucketId(i as u32),
                    queue_len: 1 + 4 * step + jitter % (noise + 1),
                    oldest_enqueue: SimTime::from_micros(step * 5_000),
                    cached: false,
                })
                .collect();
            let n = cands.len();
            for r in residents {
                let c = &mut cands[r % n];
                c.cached = true;
                c.oldest_enqueue = SimTime::from_micros(399 * 5_000);
            }
            cands
        })
}

/// The depth at which the mixed-α threshold rule closes over `cands`, from
/// the reference scores and the fixture's lens orders, or `None` if it is
/// still open at the fallback depth: the first k of 4, 8, 16, … with
/// 2k ≥ n. The residents, which head the throughput order, are seen first.
/// At depth d the seen set adds the d-th uncached candidate in throughput
/// order and the d-th oldest, and the bound blends the throughput term of
/// the first with the age term of the second. The rule closes when the
/// bound is below the best seen score, or equal to it with the best seen
/// at or ahead of the d-th uncached candidate in tie-break order, or once
/// the residents and the walk have covered every candidate.
fn reference_closing_depth(
    cost: &CostModel,
    mode: AgingMode,
    alpha: f64,
    now: SimTime,
    cands: &[BucketSnapshot],
) -> Option<usize> {
    let n = cands.len();
    let score = reference_scores(cost, mode, alpha, now, cands);
    let ut = reference_scores(cost, mode, 0.0, now, cands);
    let age = reference_scores(cost, mode, 1.0, now, cands);
    let v = view(cands, now);
    let order = |lens: Lens| -> Vec<usize> {
        let mut out = Vec::new();
        v.top_candidates(lens, n, &mut out);
        let at = |c: &BucketSnapshot| cands.binary_search_by_key(&c.bucket, |x| x.bucket);
        out.iter().map(|c| at(c).expect("a candidate")).collect()
    };
    let (t, a) = (order(Lens::Throughput), order(Lens::Age));
    let tie_key = |i: usize| (cands[i].queue_len, Reverse(cands[i].bucket));
    let decision = |i: usize, j: usize| {
        score[i]
            .total_cmp(&score[j])
            .then(tie_key(i).cmp(&tie_key(j)))
    };
    let residents = t.iter().take_while(|&&i| cands[i].cached).count();
    let mut best = t[..residents]
        .iter()
        .copied()
        .max_by(|&i, &j| decision(i, j));
    let mut fallback_depth = 4;
    while 2 * fallback_depth < n {
        fallback_depth *= 2;
    }
    for d in 1..=fallback_depth {
        let Some(&td) = t.get(residents + d - 1) else {
            return Some(d);
        };
        let ad = a[d - 1];
        for c in [td, ad] {
            if best.map_or(true, |b| decision(c, b) == Ordering::Greater) {
                best = Some(c);
            }
        }
        let b = best.expect("a frontier candidate was seen");
        let bound = ut[td] * (1.0 - alpha) + age[ad] * alpha;
        let tie_closes = bound == score[b] && tie_key(b) >= tie_key(td);
        if residents + d >= n || bound < score[b] || tie_closes {
            return Some(d);
        }
    }
    None
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
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, alpha);
        pick(&mut s, &v);
    }

    /// α = 1 services the bucket holding the oldest request (modulo exact
    /// timestamp ties).
    #[test]
    fn alpha_one_picks_oldest(cands in arb_candidates()) {
        let v = view(&cands, SimTime::from_micros(2_000_000));
        let picked = pick(&mut LifeRaftScheduler::age_based(CostModel::paper()), &v);
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
        let picked = pick(&mut LifeRaftScheduler::greedy(CostModel::paper()), &v);
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
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, alpha);
        prop_assert_eq!(pick(&mut s, &v), pick(&mut s, &v));
    }

    /// Candidate order must not affect the decision (no positional bias):
    /// scoring is a function of the snapshot contents only.
    #[test]
    fn pick_is_order_invariant(cands in arb_candidates(), alpha in 0.0..=1.0f64) {
        let now = SimTime::from_micros(3_000_000);
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, alpha);
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
        let cost = CostModel::paper();
        for mode in [AgingMode::Normalized, AgingMode::Raw] {
            for alpha in [0.0, 0.25, 0.5, random_alpha, 1.0] {
                let mut s = LifeRaftScheduler::new(cost, mode, alpha);
                let want = reference_pick(&cost, mode, alpha, now, &cands).expect("non-empty");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At saturation's depth the threshold pass still picks the reference
    /// decision, and counts a frontier pick exactly when the reference
    /// closing rule closes within the fallback depth.
    #[test]
    fn saturated_pick_matches_the_reference_pick(
        cands in arb_saturated(),
        random_alpha in 0.0..=1.0f64,
    ) {
        let now = SimTime::from_micros(2_000_000);
        let v = view(&cands, now);
        let cost = CostModel::paper();
        for mode in [AgingMode::Normalized, AgingMode::Raw] {
            for alpha in [0.25, 0.5, 0.75, random_alpha] {
                let mut s = LifeRaftScheduler::new(cost, mode, alpha);
                let want = reference_pick(&cost, mode, alpha, now, &cands).expect("non-empty");
                prop_assert_eq!(pick(&mut s, &v), cands[want], "mode {:?} α={}", mode, alpha);
                if alpha == 0.0 || alpha == 1.0 {
                    continue;
                }
                let closes = reference_closing_depth(&cost, mode, alpha, now, &cands).is_some();
                let stats = s.decision_stats();
                prop_assert_eq!(
                    (stats.frontier_picks, stats.fallback_picks),
                    if closes { (1, 0) } else { (0, 1) },
                    "mode {:?} α={}", mode, alpha
                );
            }
        }
    }
}
