//! The LifeRaft scheduling policy.

use std::cmp::Ordering;

use liferaft_storage::{BucketId, CostModel, SimDuration};

use crate::metric::{AgingMode, ScorePass};
use crate::scheduler::{
    BatchScope, BatchSpec, BucketSnapshot, DecisionStats, Lens, Scheduler, SchedulerView,
};

/// How deep the mixed-α pick first fetches each lens frontier. Fetches
/// double from here, and the pick falls back to a streamed full scan if its
/// bound is still open at the end of the first fetch that reaches half the
/// candidate set.
const FRONTIER_SEED: usize = 4;

/// LifeRaft at a fixed age bias α.
///
/// Every decision services the candidate maximal under the aged workload
/// throughput metric: "buckets are evaluated greedily in order of
/// decreasing workload throughput" (Section 3.2), with α trading throughput
/// against arrival-order fairness (Section 3.3). The batch always consumes
/// the whole queue and shares I/O through the bucket cache.
///
/// # How the pick uses the candidate index
///
/// At α = 0 and α = 1 the blended score is a monotone image of one term,
/// so the pick is a single [`top_candidate`](SchedulerView::top_candidate)
/// lookup under [`Lens::Throughput`] or [`Lens::Age`] (tie-breaks are the
/// order's tail).
///
/// For mixed α the pick runs the threshold algorithm (Fagin, Lotem & Naor,
/// PODS 2001) in one pass over both lens orders. Residents head the
/// throughput order, all at `Ut`'s maximum: the pass scores each once, then
/// walks the uncached rest of that order and the age order depth by depth,
/// scoring each list's `d`-th candidate once, and stops at the first depth
/// where no *unseen* candidate can win. Every unseen candidate `c` is
/// uncached and lies beyond both depth-`d` frontiers; both terms are
/// monotone non-increasing along their lists and float rounding is
/// monotone, so
/// `score(c) ≤ bound = (1−α)·ût(uncached frontier) + α·â(age frontier)`
/// (normalization bounds come from the lens extremes, which realize the
/// candidate-set extremes of both terms). The scan closes when
///
/// - `bound < best`, the best seen score: `c` scores strictly lower; or
/// - `bound == best` and the best seen candidate is at or ahead of the
///   uncached frontier in tie-break order: `c` can at most tie on score
///   (no term is ever −0.0, so `==` and `total_cmp` agree), and among
///   uncached candidates the decision tie-break — longer queue, then lower
///   bucket — *is* the [`Lens::Throughput`] order, in which `c` sits
///   strictly behind the frontier and therefore behind the best seen. One
///   wide query fans an object into hundreds of buckets at one instant
///   with equal queue lengths; all those scores are equal, and this is the
///   arm that closes them at depth 1.
///
/// A resident is never a frontier: behind one, an uncached candidate with
/// a longer queue may still tie it. The bound never rises with depth and
/// the best seen never falls, so once the rule holds it holds at every
/// later depth: the pick is the argmax of the scores over the whole
/// candidate set, bit for bit. The frontiers are fetched `FRONTIER_SEED`,
/// 2·`FRONTIER_SEED`, … deep (the throughput list that much past the
/// residents); if the bound is still open at the end of the first fetch
/// `k` with `2k ≥ n` (anti-correlated lists), the pick falls back to a full
/// streamed scan — still allocation-free, and that same argmax.
#[derive(Debug, Clone)]
pub struct LifeRaftScheduler {
    cost: CostModel,
    mode: AgingMode,
    alpha: f64,
    /// Frontier scratch for the mixed-α threshold scan (throughput lens).
    scratch_t: Vec<BucketSnapshot>,
    /// Frontier scratch for the mixed-α threshold scan (age lens).
    scratch_a: Vec<BucketSnapshot>,
    /// Lifetime counters of how mixed-α picks resolved (frontier bound vs
    /// full-stream fallback) — the kinetic-heap question's evidence.
    stats: DecisionStats,
}

impl LifeRaftScheduler {
    /// Creates a scheduler with bias `alpha ∈ [0, 1]`, scoring Eq. 1 with
    /// `cost`'s scan price.
    ///
    /// # Panics
    /// Panics if α is outside `[0, 1]`, or if `cost.tb` is zero: the
    /// throughput order ranks residents first because a bucket read makes
    /// every uncached queue score below them.
    pub fn new(cost: CostModel, mode: AgingMode, alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "α must be in [0,1], got {alpha}"
        );
        assert!(
            cost.tb > SimDuration::ZERO,
            "Eq. 1 needs a bucket read cost Tb > 0"
        );
        LifeRaftScheduler {
            cost,
            mode,
            alpha,
            scratch_t: Vec::new(),
            scratch_a: Vec::new(),
            stats: DecisionStats::default(),
        }
    }

    /// The greedy, maximum-throughput configuration (α = 0).
    pub fn greedy(cost: CostModel) -> Self {
        Self::new(cost, AgingMode::Normalized, 0.0)
    }

    /// The purely age-driven configuration (α = 1).
    pub fn age_based(cost: CostModel) -> Self {
        Self::new(cost, AgingMode::Normalized, 1.0)
    }

    /// Current bias.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Adjusts the bias (the adaptive controller's knob).
    pub fn set_alpha(&mut self, alpha: f64) {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "α must be in [0,1], got {alpha}"
        );
        self.alpha = alpha;
    }

    /// The mixed-α indexed pick: one threshold pass over both lens
    /// frontiers, falling back to a full streamed scan when the bound is
    /// still open at the fallback depth.
    fn pick_blended(&mut self, view: &dyn SchedulerView) -> Option<BucketId> {
        let n = view.candidate_count();
        let extremes = [
            view.bottom_candidate(Lens::Throughput)?,
            view.top_candidate(Lens::Throughput)?,
            view.bottom_candidate(Lens::Age)?,
            view.top_candidate(Lens::Age)?,
        ];
        // These four snapshots realize the candidate set's exact min/max of
        // both metric terms, so this pass normalizes bit-identically to one
        // prepared over the full candidate slice.
        let pass = ScorePass::new(&self.cost, self.mode, self.alpha, view.now(), &extremes);
        let mut best: Option<(f64, BucketSnapshot)> = None;
        let (mut residents, mut fetched) = (0, 0);
        for depth in 1.. {
            if depth > fetched {
                fetched = (2 * fetched).max(FRONTIER_SEED);
                view.top_candidates(Lens::Throughput, residents + fetched, &mut self.scratch_t);
                view.top_candidates(Lens::Age, fetched, &mut self.scratch_a);
            }
            // The depth-th uncached candidate in throughput order. Residents
            // head that order: the first depth reads past them, scoring each
            // once, and fetches deeper while the head outruns the fetch.
            let t = loop {
                let i = residents + depth - 1;
                if i == self.scratch_t.len() && i < n {
                    view.top_candidates(Lens::Throughput, 2 * i, &mut self.scratch_t);
                }
                match self.scratch_t.get(i).copied() {
                    Some(c) if c.cached => {
                        keep_best(&mut best, pass.score(&c), &c);
                        residents += 1;
                    }
                    t => break t,
                }
            };
            let Some(t) = t else {
                // Every candidate is resident, and each was scored.
                break;
            };
            let a = &self.scratch_a[depth - 1];
            let (t_ut, a_age) = (pass.ut_term(&t), pass.age_term(a));
            keep_best(&mut best, pass.blend(t_ut, pass.age_term(&t)), &t);
            keep_best(&mut best, pass.blend(pass.ut_term(a), a_age), a);
            let (best_score, best_snap) = best.expect("a frontier candidate was scored");
            if residents + depth >= n {
                // The residents and the walk covered every candidate.
                break;
            }
            // Upper bound of every unseen score; closed strictly below the
            // best seen, or on a tie the tie-break already decides (see the
            // type docs for the argument).
            let bound = pass.blend(t_ut, a_age);
            if bound < best_score || (bound == best_score && !ahead(&t, &best_snap)) {
                break;
            }
            if depth == fetched && 2 * fetched >= n {
                // Open at the fallback depth: finish with one streamed scan
                // (the full argmax, unmaterialized).
                self.stats.fallback_picks += 1;
                let mut full: Option<(f64, BucketSnapshot)> = None;
                view.for_each_candidate(&mut |c| keep_best(&mut full, pass.score(c), c));
                return full.map(|(_, b)| b.bucket);
            }
        }
        self.stats.frontier_picks += 1;
        best.map(|(_, b)| b.bucket)
    }
}

/// Keeps the better of `best` and `(score, c)` under the decision ordering.
#[inline]
fn keep_best(best: &mut Option<(f64, BucketSnapshot)>, score: f64, c: &BucketSnapshot) {
    if best.map_or(true, |(bs, b)| better(score, bs, c, &b)) {
        *best = Some((score, *c));
    }
}

/// The decision ordering: score (total order via `total_cmp`, so a NaN —
/// impossible upstream — cannot poison later comparisons), then the
/// tie-break.
#[inline]
fn better(score: f64, best_score: f64, c: &BucketSnapshot, best: &BucketSnapshot) -> bool {
    match score.total_cmp(&best_score) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => ahead(c, best),
    }
}

/// The decision tie-break: longer queue (amortize more work per read), then
/// lower bucket ID.
#[inline]
fn ahead(c: &BucketSnapshot, other: &BucketSnapshot) -> bool {
    c.queue_len > other.queue_len || (c.queue_len == other.queue_len && c.bucket < other.bucket)
}

impl Scheduler for LifeRaftScheduler {
    fn name(&self) -> String {
        format!("LifeRaft(α={:.2})", self.alpha)
    }

    fn pick(&mut self, view: &dyn SchedulerView) -> Option<BatchSpec> {
        // At the α extremes the blended score is a monotone image of a
        // single term (the other coefficient is exactly 0.0 and both terms
        // are finite, so it contributes ±0.0 to every score).
        let bucket = if self.alpha == 0.0 {
            view.top_candidate(Lens::Throughput)?.bucket
        } else if self.alpha == 1.0 {
            view.top_candidate(Lens::Age)?.bucket
        } else {
            self.pick_blended(view)?
        };
        Some(BatchSpec {
            bucket,
            scope: BatchScope::AllQueued,
            share_io: true,
        })
    }

    fn decision_stats(&self) -> DecisionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{reference_pick, FixtureView};
    use liferaft_storage::{BucketId, SimDuration, SimTime};

    fn snap(bucket: u32, queue_len: u64, enq_s: u64, cached: bool) -> BucketSnapshot {
        BucketSnapshot {
            bucket: BucketId(bucket),
            queue_len,
            oldest_enqueue: SimTime::ZERO + SimDuration::from_secs(enq_s),
            cached,
        }
    }

    fn view(candidates: Vec<BucketSnapshot>, now_s: u64) -> FixtureView {
        FixtureView {
            now: SimTime::ZERO + SimDuration::from_secs(now_s),
            candidates,
            oldest_query: None,
            query_buckets: vec![],
        }
    }

    #[test]
    fn greedy_prefers_cached_then_longest_queue() {
        let mut s = LifeRaftScheduler::greedy(CostModel::paper());
        // Cached small queue beats uncached huge queue at α=0.
        let v = view(vec![snap(0, 5_000, 10, false), snap(1, 10, 10, true)], 20);
        let pick = s.pick(&v).unwrap();
        assert_eq!(pick.bucket, BucketId(1));
        assert_eq!(pick.scope, BatchScope::AllQueued);
        assert!(pick.share_io);
        // Among uncached queues, longest wins.
        let v = view(vec![snap(0, 100, 10, false), snap(1, 900, 10, false)], 20);
        assert_eq!(s.pick(&v).unwrap().bucket, BucketId(1));
    }

    #[test]
    fn age_based_services_oldest_first() {
        let mut s = LifeRaftScheduler::age_based(CostModel::paper());
        let v = view(vec![snap(0, 9_000, 15, false), snap(1, 1, 2, false)], 20);
        assert_eq!(s.pick(&v).unwrap().bucket, BucketId(1));
    }

    #[test]
    fn no_candidates_yields_none() {
        let mut s = LifeRaftScheduler::greedy(CostModel::paper());
        assert!(s.pick(&view(vec![], 1)).is_none());
        let mut mid = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, 0.5);
        assert!(mid.pick(&view(vec![], 1)).is_none());
    }

    #[test]
    fn ties_break_by_queue_then_bucket() {
        let mut s = LifeRaftScheduler::greedy(CostModel::paper());
        // Two identical cached buckets (both at max Ut): longer queue wins.
        let v = view(vec![snap(3, 10, 5, true), snap(7, 20, 5, true)], 20);
        assert_eq!(s.pick(&v).unwrap().bucket, BucketId(7));
        // Fully identical: lower bucket ID wins.
        let v = view(vec![snap(9, 10, 5, true), snap(4, 10, 5, true)], 20);
        assert_eq!(s.pick(&v).unwrap().bucket, BucketId(4));
    }

    /// The reference decision over the view's candidates.
    fn reference(mode: AgingMode, alpha: f64, v: &FixtureView) -> BucketId {
        let cost = CostModel::paper();
        v.candidates[reference_pick(&cost, mode, alpha, v.now, &v.candidates).unwrap()].bucket
    }

    /// Every α, every aging mode: the indexed pick through a view must equal
    /// the reference decision over the materialized slice — the same
    /// contract the cross-scheduler proptests pin at engine scale.
    #[test]
    fn indexed_pick_matches_the_reference_pick() {
        let candidates: Vec<BucketSnapshot> = (0..57)
            .map(|i| {
                snap(
                    i,
                    (i as u64 * 37) % 900 + 1,
                    (i as u64 * 7_993) % 90,
                    i % 5 == 0,
                )
            })
            .collect();
        let v = view(candidates, 100);
        for mode in [AgingMode::Normalized, AgingMode::Raw] {
            for alpha in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
                let mut s = LifeRaftScheduler::new(CostModel::paper(), mode, alpha);
                let picked = s.pick(&v).unwrap().bucket;
                assert_eq!(
                    picked,
                    reference(mode, alpha, &v),
                    "mode {mode:?} α={alpha}"
                );
            }
        }
    }

    /// Total ties pin the threshold bound exactly on the best seen score,
    /// and the pick still agrees with the reference decision.
    #[test]
    fn blended_pick_survives_degenerate_ties() {
        // All-*uncached* ties (one wide query's fan-out) hold the bound at
        // exactly the best seen score; the best seen leads the uncached
        // throughput frontier in tie-break order, so the first check closes.
        let uncached: Vec<BucketSnapshot> = (0..33).map(|i| snap(i, 10, 5, false)).collect();
        let v = view(uncached, 20);
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, 0.5);
        assert_eq!(
            s.pick(&v).unwrap().bucket,
            reference(AgingMode::Normalized, 0.5, &v)
        );
        assert_eq!(s.decision_stats().frontier_picks, 1);
        assert_eq!(s.decision_stats().fallback_picks, 0);
        // All-resident ties resolve by scoring the (complete) resident head
        // of the throughput order — counted as frontier picks.
        let candidates: Vec<BucketSnapshot> = (0..33).map(|i| snap(i, 10, 5, true)).collect();
        let v = view(candidates, 20);
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, 0.5);
        assert_eq!(
            s.pick(&v).unwrap().bucket,
            reference(AgingMode::Normalized, 0.5, &v)
        );
        assert_eq!(s.pick(&v).unwrap().bucket, BucketId(0));
        assert_eq!(s.decision_stats().frontier_picks, 2);
        assert_eq!(s.decision_stats().fallback_picks, 0);
    }

    /// A resident heads the throughput order, and a bound formed with it
    /// would tie the best seen score, but an unseen *uncached* candidate
    /// with a longer queue ties it too and wins the tie-break: the pick
    /// must read past the resident before the bound can close. Such a tie
    /// needs a score that swallows the `Ut` gap between a resident and an
    /// uncached queue; raw ages of 2⁵⁷ µs (~4 500 years) do, and swallow a
    /// 1 µs age gap as well, so all three candidates score exactly alike.
    #[test]
    fn a_tie_behind_a_resident_does_not_close_the_scan() {
        let at = |us| SimTime::from_micros(us);
        let candidate = |bucket, queue_len, enq_us, cached| BucketSnapshot {
            bucket: BucketId(bucket),
            queue_len,
            oldest_enqueue: at(enq_us),
            cached,
        };
        let v = FixtureView {
            now: at(1 << 57),
            candidates: vec![
                // The age list's head: 1 µs older than the others.
                candidate(0, 2, 0, false),
                // The throughput list's head.
                candidate(1, 1, 1, true),
                // Behind the resident in throughput order: the reference pick.
                candidate(2, 500, 1, false),
            ],
            ..FixtureView::default()
        };
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Raw, 0.5);
        assert_eq!(BucketId(2), reference(AgingMode::Raw, 0.5, &v));
        assert_eq!(s.pick(&v).unwrap().bucket, BucketId(2));
        assert_eq!(s.decision_stats().frontier_picks, 1);
    }

    /// Anti-correlated lists keep the bound open for real: the long queues
    /// are the young ones, so the bound pairs one half's `Ut` with the other
    /// half's age until the frontiers cross. The scan must give up, stream
    /// every candidate once, and still agree with the reference decision.
    #[test]
    fn open_bound_falls_back_to_the_streamed_scan() {
        let candidates: Vec<BucketSnapshot> = (0..32)
            .map(|i| {
                let (queue_len, enq_s) = if i < 16 {
                    (100 + i as u64, 50 + i as u64)
                } else {
                    (1, i as u64 - 16)
                };
                snap(i, queue_len, enq_s, false)
            })
            .collect();
        let v = view(candidates, 100);
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, 0.5);
        assert_eq!(
            s.pick(&v).unwrap().bucket,
            reference(AgingMode::Normalized, 0.5, &v)
        );
        assert_eq!(s.decision_stats().fallback_picks, 1);
        assert_eq!(s.decision_stats().frontier_picks, 0);
    }

    /// `old` candidates hold the age maximum with one-object queues, and
    /// `young` ones the `Ut` maximum with long queues: both groups score
    /// exactly ½ at α = ½, and the lists only cross past the older group.
    fn crossing_lists(old: u32, young: u32) -> FixtureView {
        let candidates = (0..old + young)
            .map(|i| {
                if i < old {
                    snap(i, 1, 0, false)
                } else {
                    snap(i, 500, 90, false)
                }
            })
            .collect();
        view(candidates, 100)
    }

    /// n = 31 puts the fallback depth at 16 (the first fetch k with
    /// 2k ≥ n). The bound, a young `Ut` blended with an old age, stays at 1
    /// until the age list reaches the young group at depth 16; there it
    /// ties the best seen (½, the first young bucket) and the tie-break
    /// closes it. That depth is past n/2 but within the fallback depth: a
    /// frontier pick.
    #[test]
    fn a_bound_closing_past_half_the_set_is_a_frontier_pick() {
        let v = crossing_lists(15, 16);
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, 0.5);
        assert_eq!(s.pick(&v).unwrap().bucket, BucketId(15));
        assert_eq!(BucketId(15), reference(AgingMode::Normalized, 0.5, &v));
        assert_eq!(s.decision_stats().frontier_picks, 1);
        assert_eq!(s.decision_stats().fallback_picks, 0);
    }

    /// n = 32 also falls back at depth 16, and 16 old candidates keep the
    /// bound at 1 through it; it closes only at depth 17, when the
    /// throughput list reaches the old group. That is one depth too late:
    /// a fallback pick.
    #[test]
    fn a_bound_open_at_the_fallback_depth_is_a_fallback_pick() {
        let v = crossing_lists(16, 16);
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, 0.5);
        assert_eq!(s.pick(&v).unwrap().bucket, BucketId(16));
        assert_eq!(BucketId(16), reference(AgingMode::Normalized, 0.5, &v));
        assert_eq!(s.decision_stats().fallback_picks, 1);
        assert_eq!(s.decision_stats().frontier_picks, 0);
    }

    #[test]
    fn frontier_picks_are_counted_when_the_bound_closes() {
        // A sharply skewed candidate set: one candidate dominates both
        // terms, so the threshold bound closes at the first frontier check.
        let candidates: Vec<BucketSnapshot> = (0..64)
            .map(|i| snap(i, if i == 0 { 5_000 } else { 1 }, i as u64, false))
            .collect();
        let v = view(candidates, 100);
        let mut s = LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, 0.5);
        assert_eq!(s.pick(&v).unwrap().bucket, BucketId(0));
        assert_eq!(s.decision_stats().frontier_picks, 1);
        assert_eq!(s.decision_stats().fallback_picks, 0);
        // The α extremes bypass the threshold scan entirely.
        let mut greedy = LifeRaftScheduler::greedy(CostModel::paper());
        greedy.pick(&v).unwrap();
        assert_eq!(greedy.decision_stats(), DecisionStats::default());
    }

    #[test]
    fn alpha_is_tunable_at_runtime() {
        let mut s = LifeRaftScheduler::greedy(CostModel::paper());
        assert_eq!(s.alpha(), 0.0);
        s.set_alpha(0.75);
        assert_eq!(s.alpha(), 0.75);
        assert!(s.name().contains("0.75"));
    }

    #[test]
    #[should_panic(expected = "Tb > 0")]
    fn free_bucket_reads_rejected() {
        let cost = CostModel {
            tb: SimDuration::ZERO,
            ..CostModel::paper()
        };
        LifeRaftScheduler::greedy(cost);
    }

    #[test]
    #[should_panic(expected = "α must be in")]
    fn invalid_alpha_rejected() {
        LifeRaftScheduler::new(CostModel::paper(), AgingMode::Normalized, -0.1);
    }
}
