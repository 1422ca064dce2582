//! One shard of the pool: a [`Driver`] plus what the pool adds to it.
//!
//! The driver (`liferaft_sim::driver`) is the executor loop `Simulation`
//! runs too: clock, release-ordered fragment stream, fault windows, batch
//! ledger. A worker adds the shard id stamped on its events, the entries it
//! holds for the front door, the hand-over cost of an absorbed bucket, and
//! the fragment lookup by id hedging needs. Because a shard's behaviour is a pure
//! function of its own fragment stream, advancing a window's workers in
//! *any* order — a plain loop or one OS thread per shard — produces
//! bit-identical per-shard results.

use liferaft_catalog::Catalog;
use liferaft_core::Scheduler;
use liferaft_query::{CrossMatchQuery, FragmentId};
use liferaft_sim::{Driver, EngineCore, Fragment, MigratedBucket, RunReport};
use liferaft_storage::{BucketId, SimDuration, SimTime};
use liferaft_telemetry::Event;

use crate::config::RuntimeConfig;
use crate::rebalance::Migration;
use crate::shard::ShardId;

/// The finished record of one shard: a fragment-level [`RunReport`] (its
/// `queries` field counts *fragments*) plus its sink's drop count (its
/// events are in the run's merged telemetry report).
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The shard.
    pub shard: ShardId,
    /// Fragment-level run report (outcomes are fragment completions in
    /// shard event order).
    pub report: RunReport,
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
/// place at the barrier that decides it. Cache residency leaves the source
/// with each bucket, and the destination warms a bucket that was resident
/// there; each adoption costs the destination [`handover_cost`].
#[derive(Debug, Clone)]
pub(crate) struct Round {
    /// The extract/absorb instant: the boundary, or a crashed source's
    /// clock when its final batch overran it (batches are atomic).
    pub(crate) at: SimTime,
    /// The moves, in planning order.
    pub(crate) transfers: Vec<Migration>,
}

/// One shard's driver and scheduler. The window loop advances the driver
/// directly; the worker's own methods are what the pool adds.
pub(crate) struct ShardWorker<'a, C: Catalog + ?Sized> {
    shard: ShardId,
    pub(crate) driver: Driver<'a, C>,
    pub(crate) scheduler: Box<dyn Scheduler + Send>,
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
        let stalls = config.faults.for_shard(shard.0);
        let outages = config.faults.outages_for_shard(shard.0);
        ShardWorker {
            shard,
            driver: Driver::new(core, trace, stalls, outages),
            scheduler,
            handed: 0,
        }
    }

    /// Hands the shard fragments — each routed window, hedge copy,
    /// re-delivery and front-door admission — at a barrier its driver has
    /// not reached ([`Driver::append_fragments`]).
    pub(crate) fn append_fragments(&mut self, extra: Vec<Fragment>) {
        self.handed += extra.iter().map(|f| f.assignments).sum::<u64>();
        self.driver.append_fragments(extra);
    }

    /// Fragment `id`, if it was handed to this shard.
    pub(crate) fn fragment(&self, id: FragmentId) -> Option<&Fragment> {
        self.driver.fragments().iter().find(|f| f.id == id)
    }

    /// Entries this shard holds at virtual time `t`: everything handed to it
    /// (less what left with an extracted bucket) not serviced by a batch
    /// **completed** by `t` — the front door's capacity signal, so an
    /// admission at `t` depends only on batches completed by `t`.
    pub(crate) fn held_at(&self, t: SimTime) -> u64 {
        self.handed - self.driver.serviced_by(t)
    }

    /// The shard's non-empty buckets with queue depths — the planner's
    /// per-source candidate list, in bucket order.
    pub(crate) fn bucket_depths(&self) -> Vec<(BucketId, u64)> {
        let table = self.driver.core().workload();
        table
            .non_empty_buckets()
            .iter()
            .map(|&b| (b, table.queue(b).len() as u64))
            .collect()
    }

    /// Extracts one bucket's queued state for a transfer of `round`; the
    /// transfer costs land on the destination.
    pub(crate) fn extract_bucket(&mut self, bucket: BucketId, round: &Round) -> MigratedBucket<'a> {
        let payload = self.driver.extract_bucket(bucket, round.at);
        self.handed -= payload.len() as u64;
        payload
    }

    /// Adopts this shard's `incoming` payloads of `round` in bucket order —
    /// the canonical absorb order — charging each one's [`handover_cost`]
    /// to the shard clock ([`Driver::absorb_bucket`]).
    pub(crate) fn absorb_round(&mut self, round: &Round, mut incoming: Vec<MigratedBucket<'a>>) {
        incoming.sort_by_key(|p| p.bucket);
        for payload in incoming {
            let entries = payload.len() as u64;
            self.handed += entries;
            self.driver
                .absorb_bucket(payload, round.at, handover_cost(entries));
        }
    }

    /// Finishes the shard into its run record and its events ([`Driver::finish`]):
    /// record order, shard id stamped, none under the default `NullSink`.
    pub(crate) fn into_run(self) -> (ShardRun, Vec<Event>) {
        let (report, mut events, events_dropped) = self.driver.finish(self.scheduler.as_ref());
        // Sinks stamp shard 0 (an engine does not know where it runs); the
        // worker owns that knowledge.
        for e in &mut events {
            e.shard = self.shard.0;
        }
        let run = ShardRun {
            shard: self.shard,
            report,
            events_dropped,
        };
        (run, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_catalog::{generate::uniform_sky, MaterializedCatalog};
    use liferaft_core::LifeRaftScheduler;
    use liferaft_query::{Predicate, QueryId, QueryPreProcessor};
    use liferaft_sim::SimConfig;
    use liferaft_storage::CostModel;

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
        let fragment = Fragment::new(0, QueryId(0), SimTime::ZERO, pre.preprocess(&trace[0].1));
        let total = fragment.assignments;
        let config = RuntimeConfig::contiguous(SimConfig::paper(), 2);
        let greedy = || Box::new(LifeRaftScheduler::greedy(CostModel::paper()));
        let mut src = ShardWorker::new(ShardId(0), &cat, &config, &trace, greedy());
        let mut dst = ShardWorker::new(ShardId(1), &cat, &config, &trace, greedy());
        let end = SimTime::ZERO + SimDuration::from_secs(1_000_000);
        src.append_fragments(vec![fragment]);
        assert_eq!(src.held_at(SimTime::ZERO), total, "handed work is held");
        // One batch runs; what it serviced is no longer held once it ends.
        assert!(src.driver.step(src.scheduler.as_mut()));
        let serviced = src.driver.core().serviced_entries();
        assert!(serviced > 0 && serviced < total);
        assert_eq!(src.held_at(SimTime::ZERO), total, "the batch has not ended");
        assert_eq!(src.held_at(end), total - serviced);
        // A round moves a still-queued bucket: its entries leave the source's
        // holdings and join the destination's.
        let (bucket, entries) = src.bucket_depths()[0];
        let round = Round {
            at: src.driver.now(),
            transfers: Vec::new(),
        };
        let payload = src.extract_bucket(bucket, &round);
        dst.absorb_round(&round, vec![payload]);
        assert_eq!(src.held_at(end), total - serviced - entries);
        assert_eq!(dst.held_at(end), entries);
    }
}
