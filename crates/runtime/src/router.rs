//! The front-end router: a [`Feed`]'s per-bucket work items → per-shard
//! **fragments**, split by the [`ShardMap`]. A fragment is the unit a shard
//! admits, tracks, and completes; the cross-shard query completes when *all*
//! its fragments have finished (the `ledger` fold counts their assignments
//! down). Routing depends on no execution state, and the map changes only
//! at control instants, so the runtime routes every arrival between two of
//! them in one [`route_window`] call.

use liferaft_catalog::Partition;
use liferaft_query::{CrossMatchQuery, FragmentId, WorkItem};
use liferaft_sim::Feed;
use liferaft_storage::SimTime;
use liferaft_workload::TimedTrace;

pub use liferaft_sim::Fragment;

use crate::shard::{ElasticShardMap, ShardMap};

/// The routing of one trace across one shard map.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Per-shard fragment streams, each in arrival order.
    pub shards: Vec<Vec<Fragment>>,
    /// Per routed query, in routing order: total assignments across all its
    /// fragments.
    pub assignments_of: Vec<u64>,
    /// Queries that split across more than one shard.
    pub cross_shard_queries: usize,
}

impl Routing {
    /// Total fragments across all shards.
    pub fn total_fragments(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Gives every fragment the next id from `next`, in `(trace index,
    /// shard)` order — so consecutive windows minted from one counter carry
    /// the ids one whole-trace routing would.
    pub(crate) fn mint(&mut self, next: &mut u32) {
        let mut order: Vec<(usize, usize, usize)> = Vec::with_capacity(self.total_fragments());
        for (shard, fragments) in self.shards.iter().enumerate() {
            let at = fragments.iter().enumerate();
            order.extend(at.map(|(k, f)| (f.query_index, shard, k)));
        }
        order.sort_unstable();
        for (_, shard, k) in order {
            self.shards[shard][k].id = FragmentId(*next);
            *next += 1;
        }
    }
}

/// Routes `trace` across `map`: an inline [`Feed`] of the whole trace,
/// split by [`route_window`].
pub fn route(partition: &Partition, map: &ShardMap, trace: &TimedTrace) -> Routing {
    assert_eq!(
        partition.num_buckets(),
        map.num_buckets(),
        "shard map must cover the partition"
    );
    let entries = trace.entries();
    let feed = Feed::inline(partition, entries).enumerate();
    route_window(&ElasticShardMap::new(*map), entries, feed)
}

/// Splits each `(trace index, items)` of `window`, in the order given, by
/// the shard owning each item's bucket — the one split path: [`route`] is
/// one whole-trace window, the runtime routes a controller run window by
/// window as the map evolves, and a front-door pass routes the queries it
/// admitted, in admission order. Fragments keep their absolute
/// `query_index`; consecutive windows concatenate to their union's routing.
///
/// A query with no work items still produces one **empty** fragment, routed
/// to shard 0: its worker registers it (it completes at its arrival) and
/// tells its scheduler of the arrival, as `Simulation` does, so
/// arrival-driven policies (the adaptive controller) see the same stream.
pub fn route_window(
    map: &ElasticShardMap,
    entries: &[(SimTime, CrossMatchQuery)],
    window: impl IntoIterator<Item = (usize, Vec<WorkItem>)>,
) -> Routing {
    let n_shards = map.n_shards() as usize;
    let mut routing = Routing {
        shards: vec![Vec::new(); n_shards],
        assignments_of: Vec::new(),
        cross_shard_queries: 0,
    };
    // Per-query scratch: items grouped by shard (reused across queries).
    let mut split: Vec<Vec<WorkItem>> = vec![Vec::new(); n_shards];
    for (index, items) in window {
        let (arrival, query) = &entries[index];
        let fragment = |items| Fragment::new(index, query.id, *arrival, items);
        let mut assignments = 0u64;
        for item in items {
            assignments += item.len() as u64;
            split[map.shard_of(item.bucket).index()].push(item);
        }
        let mut fragments = 0u32;
        for (shard, items) in split.iter_mut().enumerate() {
            if !items.is_empty() {
                fragments += 1;
                routing.shards[shard].push(fragment(std::mem::take(items)));
            }
        }
        if fragments == 0 {
            // No work anywhere: ship the arrival itself to shard 0.
            routing.shards[0].push(fragment(Vec::new()));
        }
        if fragments > 1 {
            routing.cross_shard_queries += 1;
        }
        routing.assignments_of.push(assignments);
    }
    routing
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_catalog::{generate::uniform_sky, Catalog, MaterializedCatalog};
    use liferaft_query::{CrossMatchQuery, Predicate, QueryId, QueryPreProcessor};
    use liferaft_workload::arrivals::uniform_arrivals;
    use liferaft_workload::Trace;

    const LEVEL: u8 = 8;

    fn fixture() -> (MaterializedCatalog, TimedTrace) {
        let sky = uniform_sky(2_000, LEVEL, 3);
        let cat = MaterializedCatalog::build(&sky, LEVEL, 100, 4096);
        // Each query anchors on objects of several scattered buckets, so
        // multi-shard maps must split it.
        let queries: Vec<CrossMatchQuery> = (0..10)
            .map(|i| {
                let mut positions = Vec::new();
                for k in 0..4u32 {
                    let b = (i as u32 * 3 + k * 7) % 20;
                    let objs = cat.bucket_objects(liferaft_storage::BucketId(b));
                    positions.extend(objs.iter().step_by(25).map(|o| o.pos));
                }
                CrossMatchQuery::from_positions(
                    QueryId(i as u64),
                    &positions,
                    1e-4,
                    LEVEL,
                    Predicate::All,
                )
            })
            .collect();
        let trace = Trace::new(LEVEL, queries);
        let timed = trace.with_arrivals(uniform_arrivals(1.0, 10));
        (cat, timed)
    }

    #[test]
    fn routing_conserves_assignments_and_respects_ownership() {
        let (cat, timed) = fixture();
        let pre = QueryPreProcessor::new(cat.partition());
        let expected: u64 = timed
            .entries()
            .iter()
            .flat_map(|(_, q)| pre.preprocess(q))
            .map(|item| item.len() as u64)
            .sum();
        for map in [
            ShardMap::contiguous(cat.partition().num_buckets(), 4),
            ShardMap::hashed(cat.partition().num_buckets(), 4, 7),
        ] {
            let routing = route(cat.partition(), &map, &timed);
            assert_eq!(routing.assignments_of.iter().sum::<u64>(), expected);
            let by_fragment: u64 = routing.shards.iter().flatten().map(|f| f.assignments).sum();
            assert_eq!(by_fragment, expected);
            // Every item landed on the shard that owns its bucket, and
            // per-shard fragments are in arrival order.
            for (s, fragments) in routing.shards.iter().enumerate() {
                for w in fragments.windows(2) {
                    assert!(w[0].arrival <= w[1].arrival);
                }
                for f in fragments {
                    assert!(!f.items.is_empty());
                    for item in &f.items {
                        assert_eq!(map.shard_of(item.bucket).index(), s);
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_routing_is_whole_queries() {
        let (cat, timed) = fixture();
        let map = ShardMap::contiguous(cat.partition().num_buckets(), 1);
        let routing = route(cat.partition(), &map, &timed);
        assert_eq!(routing.cross_shard_queries, 0);
        assert_eq!(routing.total_fragments(), timed.len());
    }

    #[test]
    fn zero_work_queries_ship_one_empty_fragment_to_shard_zero() {
        let (cat, _) = fixture();
        let empty = CrossMatchQuery::new(QueryId(7), vec![], Predicate::All);
        let timed = Trace::new(LEVEL, vec![empty]).with_arrivals(uniform_arrivals(1.0, 1));
        let map = ShardMap::contiguous(cat.partition().num_buckets(), 4);
        let routing = route(cat.partition(), &map, &timed);
        assert_eq!(routing.shards[0].len(), 1);
        let f = &routing.shards[0][0];
        assert!(f.items.is_empty());
        assert_eq!(f.assignments, 0);
        assert!(routing.shards[1..].iter().all(|s| s.is_empty()));
    }

    #[test]
    fn multi_shard_routing_splits_wide_queries() {
        let (cat, timed) = fixture();
        let map = ShardMap::hashed(cat.partition().num_buckets(), 4, 1);
        let routing = route(cat.partition(), &map, &timed);
        // The fixture's queries span several buckets; under hashing some
        // must split across shards.
        assert!(routing.cross_shard_queries > 0);
        assert!(routing.total_fragments() > timed.len());
    }
}
