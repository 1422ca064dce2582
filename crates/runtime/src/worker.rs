//! One shard's serving loop: fragment ingress over an [`EngineCore`].
//!
//! A worker is an event-stepped state machine with exactly the semantics of
//! `liferaft_sim::Simulation::run`, restricted to the fragments routed to
//! its shard: deliver every released fragment, then make
//! one scheduling decision and execute the batch, advancing the shard-local
//! virtual clock by the batch cost. Because a worker's behaviour is a pure
//! function of its own fragment stream, advancing a window's workers in
//! *any* order — a plain loop or one OS thread per shard — produces
//! bit-identical per-shard results.

use liferaft_catalog::Catalog;
use liferaft_core::Scheduler;
use liferaft_query::{tracker::QueryOutcome, CrossMatchQuery, QueryId};
use liferaft_sim::{EngineCore, MigratedBucket, RunReport};
use liferaft_storage::{BucketId, SimDuration, SimTime};
use liferaft_telemetry::Event;

use crate::config::RuntimeConfig;
use crate::rebalance::Migration;
use crate::router::Fragment;
use crate::shard::ShardId;

/// The finished record of one shard: a fragment-level [`RunReport`] (its
/// `queries` field counts *fragments*) plus its telemetry.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The shard.
    pub shard: ShardId,
    /// Fragment-level run report (outcomes are fragment completions in
    /// shard event order).
    pub report: RunReport,
    /// The shard's recorded telemetry (record order, shard id stamped;
    /// empty under the default [`NullSink`](liferaft_telemetry::NullSink)).
    pub events: Vec<Event>,
    /// Events the shard's sink discarded (bounded sinks only).
    pub events_dropped: u64,
}

/// The virtual-time cost a destination pays to adopt one bucket carrying
/// `entries` queued entries: 20 ms per bucket plus 50 µs per entry, the same
/// for an epoch move and a crash evacuation.
pub(crate) fn handover_cost(entries: u64) -> SimDuration {
    SimDuration::from_millis(20) + SimDuration::from_micros(50).times(entries)
}

/// One hand-over of queued buckets between shards — an epoch boundary's
/// migrations or a crash's evacuations — which the window loop applies in
/// place at the barrier that decides it. Residency leaves the source with
/// each bucket, and the destination warms a bucket that was resident there;
/// each adoption costs the destination [`handover_cost`].
#[derive(Debug, Clone)]
pub(crate) struct Round {
    /// The extract/absorb instant: the boundary, or a crashed source's
    /// clock when its final batch overran it (batches are atomic).
    pub(crate) at: SimTime,
    /// The moves, in planning order.
    pub(crate) transfers: Vec<Migration>,
}

/// One shard's engine, scheduler, clock, and ingress.
pub(crate) struct ShardWorker<'a, C: Catalog + ?Sized> {
    shard: ShardId,
    core: EngineCore<'a, C>,
    scheduler: Box<dyn Scheduler + Send>,
    /// The routed trace entries (shared, read-only: fragments reference
    /// queries by index).
    trace: &'a [(SimTime, CrossMatchQuery)],
    fragments: Vec<Fragment>,
    /// Next unadmitted fragment (fragments before `next` are admitted).
    next: usize,
    now: SimTime,
    /// Injected slowdown windows afflicting this shard, as
    /// `(from, until, factor)` — factors compose multiplicatively when
    /// windows overlap a batch's start instant.
    stalls: Vec<(SimTime, SimTime, f64)>,
    /// Injected outage windows afflicting this shard, as `(down_at, up_at)`
    /// sorted by start (validated pairwise disjoint). A dead shard executes
    /// nothing: any event instant landing inside a window wakes at `up_at`
    /// (see [`wake`](Self::wake)). Batches are atomic — one started before
    /// `down_at` runs to completion even past the boundary.
    outages: Vec<(SimTime, SimTime)>,
    /// Outage windows whose start the clock has crossed — each crossing
    /// wipes the cache once (a crash loses residency).
    wiped: usize,
    /// Per-batch `(end, cumulative serviced entries)` checkpoints, in end
    /// order. The front door reads capacity through this ledger
    /// ([`held_at`](Self::held_at)) rather than the engine's raw counter:
    /// the raw counter jumps at batch *start* (when the worker's clock can
    /// be far ahead of global virtual time), and an admission at `t` must
    /// depend only on batches completed by `t`.
    completions: Vec<(SimTime, u64)>,
    /// Entries handed to this shard and not moved off it: every fragment
    /// appended and every bucket absorbed, less every bucket extracted.
    handed: u64,
}

impl<'a, C: Catalog + ?Sized> ShardWorker<'a, C> {
    /// Shard `shard` of a pool configured by `config`, serving the
    /// fragments of `trace` handed to it while it runs.
    pub(crate) fn new(
        shard: ShardId,
        catalog: &'a C,
        config: &RuntimeConfig,
        trace: &'a [(SimTime, CrossMatchQuery)],
        scheduler: Box<dyn Scheduler + Send>,
    ) -> Self {
        let mut core = EngineCore::new(catalog, config.sim);
        core.set_sink(config.telemetry.make_sink());
        ShardWorker {
            shard,
            core,
            scheduler,
            trace,
            fragments: Vec::new(),
            next: 0,
            now: SimTime::ZERO,
            stalls: config.faults.for_shard(shard.0),
            outages: config.faults.outages_for_shard(shard.0),
            wiped: 0,
            completions: Vec::new(),
            handed: 0,
        }
    }

    /// Maps an event instant out of any outage window: a dead shard does
    /// nothing until `up_at`, so an instant inside a window wakes at its
    /// end. Identity when the shard has no outages. Windows are sorted and
    /// disjoint, so one forward pass settles (waking at `up_at` may land
    /// inside a *later* window, never an earlier one).
    fn wake(&self, mut t: SimTime) -> SimTime {
        for &(down_at, up_at) in &self.outages {
            if t >= down_at && t < up_at {
                t = up_at;
            }
        }
        t
    }

    /// Virtual time of the worker's next event, or `None` when fully done.
    /// Pending work is an event "now"; an idle worker's
    /// next event is its next fragment **release** — clamped to `now`,
    /// because a shard whose clock overshot the release while busy admits
    /// the fragment at `now`, not in the past. The clamp is what lets the
    /// window loop trust `next_time` as "the virtual time of the next state
    /// change" when placing controller events. An instant inside an
    /// injected outage window wakes at the window's end — a dead shard's
    /// next event is its rejoin.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        if !self.core.is_idle() {
            return Some(self.wake(self.now));
        }
        self.fragments
            .get(self.next)
            .map(|f| self.wake(f.release.max(self.now)))
    }

    /// True when `t` lies inside one of this shard's outage windows — the
    /// instants [`wake`](Self::wake) moves to the window's end.
    pub(crate) fn down_at(&self, t: SimTime) -> bool {
        self.wake(t) != t
    }

    /// Advances the clock to `t` adjusted out of any outage window, wiping
    /// the cache once per window whose start the clock crosses — a crashed
    /// shard loses its residency no matter what happens to its queue.
    fn advance_to(&mut self, t: SimTime) {
        let t = self.wake(t);
        while self.wiped < self.outages.len() && t >= self.outages[self.wiped].0 {
            self.core.wipe_residency();
            self.wiped += 1;
        }
        self.now = t;
    }

    /// The shard-local clock (planner observability: evacuation instants
    /// must not predate the dead shard's final atomic batch).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Admits every released fragment, in stream order.
    fn deliver_due(&mut self) {
        // Copy the `&'a` out of `self`: the core's queues keep borrowing the
        // query's objects after this call returns.
        let trace = self.trace;
        while let Some(f) = self
            .fragments
            .get(self.next)
            .filter(|f| f.release <= self.now)
        {
            let (_, query) = &trace[f.query_index];
            debug_assert_eq!(query.id, f.query, "routing and trace disagree");
            self.core.deliver_items(query, &f.items, f.arrival);
            self.scheduler.on_query_arrival(f.arrival);
            self.next += 1;
        }
    }

    /// Executes one event: delivery (plus an idle-time jump to the next
    /// arrival if needed) and one batch. Returns `false` when the shard has
    /// drained everything — no state changes on a `false` return.
    pub(crate) fn step(&mut self) -> bool {
        self.advance_to(self.now);
        self.deliver_due();
        if self.core.is_idle() {
            let Some(f) = self.fragments.get(self.next) else {
                return false; // drained everything
            };
            self.advance_to(f.release);
            self.deliver_due();
            if self.core.is_idle() {
                // Only zero-work fragments arrived at this instant (they
                // register and complete immediately); nothing to schedule.
                return true;
            }
        }
        // An injected slowdown scales every batch *started* inside its
        // window; overlapping windows compound. Pure per-shard state, so
        // the fault changes nothing about cross-shard determinism.
        let mut factor = 1.0f64;
        for &(from, until, f) in &self.stalls {
            if self.now >= from && self.now < until {
                factor *= f;
            }
        }
        self.now += self
            .core
            .decide_and_execute_scaled(self.scheduler.as_mut(), self.now, factor);
        self.completions
            .push((self.now, self.core.serviced_entries()));
        true
    }

    /// Hands the worker fragments — each routed window, hedge copy,
    /// re-delivery and front-door admission — merged into the unadmitted
    /// tail by release. A tie goes behind the fragments already there, and
    /// nothing lands before `next`: each hand-over happens at a barrier the
    /// worker has not reached, so every fragment it has seen was released
    /// earlier.
    pub(crate) fn append_fragments(&mut self, extra: Vec<Fragment>) {
        debug_assert!(
            self.fragments[..self.next]
                .last()
                .map_or(true, |seen| extra.iter().all(|f| f.release >= seen.release)),
            "a fragment handed over behind one already admitted"
        );
        self.handed += extra.iter().map(|f| f.assignments).sum::<u64>();
        self.fragments.extend(extra);
        // Stable: the fragments already there win ties.
        self.fragments[self.next..].sort_by_key(|f| f.release);
    }

    /// This shard's fragment of `query`, if it hosts one.
    pub(crate) fn fragment_of(&self, query: QueryId) -> Option<&Fragment> {
        self.fragments.iter().find(|f| f.query == query)
    }

    /// Fragment completions so far, in record order (each batch's at its
    /// end, so a completion may lie ahead of global virtual time).
    pub(crate) fn completed(&self) -> &[QueryOutcome] {
        self.core.tracker().completed()
    }

    /// Queued-entry backlog — the rebalance controller's load signal.
    pub(crate) fn queued(&self) -> u64 {
        self.core.total_queued()
    }

    /// Cumulative serviced entries (controller observability). Counts a
    /// batch the moment it executes — the worker's clock may already sit at
    /// the batch's end, arbitrarily far ahead of global virtual time.
    pub(crate) fn serviced(&self) -> u64 {
        self.core.serviced_entries()
    }

    /// Entries this shard holds at virtual time `t`: everything handed to it
    /// (less what left with an extracted bucket) not yet serviced by a batch
    /// that **completed** by `t` — the front door's capacity signal. Work
    /// inside a batch still running at `t` is held, so an admission decision
    /// made at `t` depends only on batches completed by `t`.
    pub(crate) fn held_at(&self, t: SimTime) -> u64 {
        let k = self.completions.partition_point(|&(end, _)| end <= t);
        let serviced = k.checked_sub(1).map_or(0, |k| self.completions[k].1);
        self.handed - serviced
    }

    /// The earliest recorded batch completion strictly after `t` — the
    /// planner's "capacity frees here" event source.
    pub(crate) fn next_completion_after(&self, t: SimTime) -> Option<SimTime> {
        let k = self.completions.partition_point(|&(end, _)| end <= t);
        self.completions.get(k).map(|&(end, _)| end)
    }

    /// Cache-resident bucket count (controller observability).
    pub(crate) fn resident(&self) -> usize {
        self.core.resident_buckets()
    }

    /// The shard's non-empty buckets with queue depths — the planner's
    /// per-source candidate list, in bucket order.
    pub(crate) fn bucket_depths(&self) -> Vec<(BucketId, u64)> {
        let table = self.core.workload();
        table
            .non_empty_buckets()
            .iter()
            .map(|&b| (b, table.queue(b).len() as u64))
            .collect()
    }

    /// Extracts one bucket's queued state for a transfer of `round` (see
    /// [`EngineCore::extract_bucket`]). The source clock is untouched —
    /// transfer costs land on the destination.
    pub(crate) fn extract_bucket(&mut self, bucket: BucketId, round: &Round) -> MigratedBucket<'a> {
        let payload = self.core.extract_bucket(bucket, round.at, true);
        self.handed -= payload.len() as u64;
        payload
    }

    /// Adopts this shard's `incoming` payloads of `round` in bucket order —
    /// the canonical absorb order — charging each one's [`handover_cost`]
    /// to the shard clock (clamped up to the round's instant first, so
    /// transfer work never appears to predate the decision).
    pub(crate) fn absorb_round(&mut self, round: &Round, mut incoming: Vec<MigratedBucket<'a>>) {
        incoming.sort_by_key(|p| p.bucket);
        for payload in incoming {
            let entries = payload.len() as u64;
            self.handed += entries;
            self.now = self.now.max(round.at);
            self.core.absorb_bucket(payload, true);
            self.now += handover_cost(entries);
        }
    }

    /// The shard's complete fragment stream in hand-off order (admission
    /// never drains `fragments`).
    #[cfg(test)]
    pub(crate) fn into_fragments(self) -> Vec<Fragment> {
        self.fragments
    }

    /// Finishes the shard into its run record.
    ///
    /// # Panics
    /// Panics if fragments are still outstanding (the window loop must
    /// advance the worker to completion first).
    pub(crate) fn into_run(self) -> ShardRun {
        assert!(
            self.next >= self.fragments.len(),
            "shard {} finished with unadmitted fragments",
            self.shard
        );
        assert!(
            self.core.all_complete(),
            "shard {} finished with incomplete fragments",
            self.shard
        );
        let fragments = self.fragments.len();
        let mut core = self.core;
        let mut events = core.take_events();
        // Sinks stamp shard 0 (an engine does not know where it runs); the
        // worker owns that knowledge.
        for e in &mut events {
            e.shard = self.shard.0;
        }
        let events_dropped = core.telemetry_dropped();
        ShardRun {
            shard: self.shard,
            report: core.into_report(self.scheduler.as_ref(), fragments),
            events,
            events_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_catalog::{generate::uniform_sky, MaterializedCatalog};
    use liferaft_core::{LifeRaftScheduler, MetricParams};
    use liferaft_query::{Predicate, QueryPreProcessor};
    use liferaft_sim::SimConfig;

    #[test]
    fn late_fragments_merge_into_the_unadmitted_tail_by_release() {
        const LEVEL: u8 = 8;
        let cat = MaterializedCatalog::build(&uniform_sky(500, LEVEL, 3), LEVEL, 100, 4096);
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        // Query i anchors on bucket i and arrives at 0, 4 and 9 s.
        let trace: Vec<(SimTime, CrossMatchQuery)> = [0, 4, 9]
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let objects = cat.bucket_objects(BucketId(i as u32));
                let positions: Vec<_> = objects.iter().take(5).map(|o| o.pos).collect();
                let q = QueryId(i as u64);
                let query =
                    CrossMatchQuery::from_positions(q, &positions, 1e-4, LEVEL, Predicate::All);
                (at(s), query)
            })
            .collect();
        let pre = QueryPreProcessor::new(cat.partition());
        let fragment = |i: usize| {
            let (arrival, query) = &trace[i];
            Fragment::head(i, query.id, *arrival).with_items(pre.preprocess(query))
        };
        let config = RuntimeConfig::single(SimConfig::paper());
        let greedy = Box::new(LifeRaftScheduler::greedy(MetricParams::paper()));
        let mut w = ShardWorker::new(ShardId(0), &cat, &config, &trace, greedy);
        let order = |w: &ShardWorker<'_, _>| -> Vec<(usize, SimTime)> {
            w.fragments
                .iter()
                .map(|f| (f.query_index, f.release))
                .collect()
        };

        w.append_fragments(vec![fragment(0), fragment(2)]);
        assert!(w.step());
        assert_eq!(w.next, 1, "query 0 is admitted, query 2 is not due");
        // Query 1 is handed over late but released before query 2; a copy
        // of query 0 released with query 2 ties and goes behind it.
        let copy = Fragment {
            release: at(9),
            ..fragment(0)
        };
        w.append_fragments(vec![fragment(1), copy]);
        let merged = vec![(0, at(0)), (1, at(4)), (2, at(9)), (0, at(9))];
        assert_eq!(order(&w), merged);
        assert!(w.step());
        assert_eq!(w.next, 2, "the late fragment is admitted first");
        assert!(w.now() < at(9));
        while w.step() {}
        assert_eq!(order(&w), merged, "the admitted prefix never moves");
        assert_eq!(w.into_run().report.outcomes.len(), 4);
    }

    #[test]
    fn a_round_moves_what_a_shard_holds_with_the_bucket() {
        const LEVEL: u8 = 8;
        let cat = MaterializedCatalog::build(&uniform_sky(500, LEVEL, 3), LEVEL, 100, 4096);
        // One query over three buckets, all handed to shard 0.
        let positions: Vec<_> = (0..3)
            .flat_map(|b| cat.bucket_objects(BucketId(b)).into_owned())
            .map(|o| o.pos)
            .collect();
        let query =
            CrossMatchQuery::from_positions(QueryId(0), &positions, 1e-4, LEVEL, Predicate::All);
        let trace = vec![(SimTime::ZERO, query)];
        let pre = QueryPreProcessor::new(cat.partition());
        let fragment =
            Fragment::head(0, QueryId(0), SimTime::ZERO).with_items(pre.preprocess(&trace[0].1));
        let total = fragment.assignments;
        let config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        let greedy = || Box::new(LifeRaftScheduler::greedy(MetricParams::paper()));
        let mut src = ShardWorker::new(ShardId(0), &cat, &config, &trace, greedy());
        let mut dst = ShardWorker::new(ShardId(1), &cat, &config, &trace, greedy());
        let end = SimTime::ZERO + SimDuration::from_secs(1_000_000);
        src.append_fragments(vec![fragment]);
        assert_eq!(src.held_at(SimTime::ZERO), total, "handed work is held");
        // One batch runs; what it serviced is no longer held once it ends.
        assert!(src.step());
        let serviced = src.serviced();
        assert!(serviced > 0 && serviced < total);
        assert_eq!(src.held_at(SimTime::ZERO), total, "the batch has not ended");
        assert_eq!(src.held_at(end), total - serviced);
        // A round moves a still-queued bucket: its entries leave the source's
        // holdings and join the destination's.
        let (bucket, entries) = src.bucket_depths()[0];
        let round = Round {
            at: src.now(),
            transfers: Vec::new(),
        };
        let payload = src.extract_bucket(bucket, &round);
        dst.absorb_round(&round, vec![payload]);
        assert_eq!(src.held_at(end), total - serviced - entries);
        assert_eq!(dst.held_at(end), entries);
    }
}
