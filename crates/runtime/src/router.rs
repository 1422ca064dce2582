//! The front-end router: queries → per-shard work fragments.
//!
//! Arriving queries are pre-processed once (the paper's Query Pre-Processor)
//! and their per-bucket work items are split by the [`ShardMap`] into
//! per-shard **fragments**. A fragment is the unit a shard admits, tracks,
//! and completes; the cross-shard query completes when *all* its fragments
//! have finished (the aggregation in `runtime` counts them down).
//!
//! Routing is a pure function of (partition, shard map, trace) — it depends
//! on no execution state, which is the property that lets the threaded
//! executor run shards fully independently yet bit-identically to the
//! stepped reference.

use liferaft_catalog::Partition;
use liferaft_query::{CrossMatchQuery, QueryId, QueryPreProcessor, WorkItem};
use liferaft_storage::{BucketId, SimTime};
use liferaft_workload::TimedTrace;

use crate::admission::{AdmissionLog, QueryClass};
use crate::rebalance::RebalanceLog;
use crate::shard::{ElasticShardMap, ShardId, ShardMap};
use crate::sweep::parallel_map;

/// One shard's slice of one query: the work items whose buckets the shard
/// owns, plus arrival/identity metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Index of the parent query within the routed trace.
    pub query_index: usize,
    /// The parent query.
    pub query: QueryId,
    /// Arrival instant of the parent query (ages reference this).
    pub arrival: SimTime,
    /// Release instant: when the fragment becomes *deliverable* to its
    /// shard. Equal to `arrival` unless the front door held the query back;
    /// ages keep referencing `arrival`, so front-door queueing shows up as
    /// response time exactly like queueing at a loaded shard.
    pub release: SimTime,
    /// The parent query's front-door class ([`QueryClass::Standard`] when
    /// the front door is disabled).
    pub class: QueryClass,
    /// The shard-local work items, sorted by bucket.
    pub items: Vec<WorkItem>,
    /// Total (object × bucket) assignments in `items`.
    pub assignments: u64,
}

/// The routing of one trace across one shard map.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Per-shard fragment streams, each in arrival order.
    pub shards: Vec<Vec<Fragment>>,
    /// Per trace index: number of fragments the query split into (at least
    /// 1 for every routed query — a query whose pre-processing produced no
    /// work ships as one empty fragment, see [`route`]; exactly 0 for a
    /// query the front door rejected, see [`route_admitted`]).
    pub fragments_of: Vec<u32>,
    /// Per trace index: total assignments across all fragments.
    pub assignments_of: Vec<u64>,
    /// Queries that split across more than one shard.
    pub cross_shard_queries: usize,
    /// Total assignments across the whole trace.
    pub total_assignments: u64,
}

impl Routing {
    /// Total fragments across all shards.
    pub fn total_fragments(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

/// Routes `trace` across `map`, splitting every query's work items by the
/// shard that owns their bucket.
///
/// A query whose pre-processing yields no work items still produces one
/// **empty** fragment, routed to shard 0: the owning worker registers it
/// (it completes instantly at its arrival) and notifies its scheduler of
/// the arrival — mirroring what the single-engine `Simulation` does, so
/// arrival-driven policies (the adaptive controller) see the same stream.
pub fn route(partition: &Partition, map: &ShardMap, trace: &TimedTrace) -> Routing {
    route_parallel(partition, map, trace, 1)
}

/// [`route`] with the per-query pre-processing spread over up to `threads`
/// threads (1 = the calling thread only). The routing is identical at every
/// thread count.
pub fn route_parallel(
    partition: &Partition,
    map: &ShardMap,
    trace: &TimedTrace,
    threads: usize,
) -> Routing {
    assert_eq!(
        partition.num_buckets(),
        map.num_buckets(),
        "shard map must cover the partition"
    );
    let n_shards = map.n_shards() as usize;
    route_with(partition, n_shards, trace, threads, |_, b| map.shard_of(b))
}

/// Routes `trace` under an **evolving** elastic map: starting from `base`,
/// the moves of every `log` record with `at <= arrival` are applied before
/// a query routes — i.e. arrivals in the window `[T_k, T_{k+1})` see the
/// map as the epoch-`k` rebalance left it. This is exactly the incremental
/// routing the elastic stepped driver performs, re-derived as a pure
/// function of `(base map, decision log, trace)` so the threaded executor
/// can route everything up-front.
pub fn route_elastic(
    partition: &Partition,
    base: &ShardMap,
    log: &RebalanceLog,
    trace: &TimedTrace,
) -> Routing {
    route_elastic_parallel(partition, base, log, trace, 1)
}

/// [`route_elastic`] with the per-query pre-processing spread over up to
/// `threads` threads, like [`route_parallel`].
pub fn route_elastic_parallel(
    partition: &Partition,
    base: &ShardMap,
    log: &RebalanceLog,
    trace: &TimedTrace,
    threads: usize,
) -> Routing {
    assert_eq!(
        partition.num_buckets(),
        base.num_buckets(),
        "shard map must cover the partition"
    );
    let mut elastic = ElasticShardMap::new(*base);
    let mut next_record = 0usize;
    let n_shards = base.n_shards() as usize;
    route_with(partition, n_shards, trace, threads, |arrival, b| {
        while log
            .records
            .get(next_record)
            .is_some_and(|r| r.at <= arrival)
        {
            for m in &log.records[next_record].moves {
                elastic.reassign(m.bucket, m.to);
            }
            next_record += 1;
        }
        elastic.shard_of(b)
    })
}

/// Queries per pre-processing job: large enough to amortize a job's channel
/// send, small enough that a 10 000-query trace still balances over threads.
const PRE_ROUTE_CHUNK: usize = 128;

/// The shared routing core: splits every query by `shard_of(arrival,
/// bucket)`. Pre-processing is a pure function of the query, so it runs
/// first, over fixed-size trace chunks on up to `threads` threads; the split
/// then visits arrivals serially in trace order, so a stateful `shard_of`
/// may evolve monotonically with arrival time (the elastic path).
fn route_with(
    partition: &Partition,
    n_shards: usize,
    trace: &TimedTrace,
    threads: usize,
    mut shard_of: impl FnMut(SimTime, BucketId) -> ShardId,
) -> Routing {
    let pre = QueryPreProcessor::new(partition);
    let entries = trace.entries();
    let chunks: Vec<_> = entries.chunks(PRE_ROUTE_CHUNK).collect();
    let pre_routed = parallel_map(&chunks, threads, |_, chunk| {
        chunk
            .iter()
            .map(|(_, q)| pre.preprocess(q))
            .collect::<Vec<_>>()
    });

    let mut shards: Vec<Vec<Fragment>> = vec![Vec::new(); n_shards];
    let mut fragments_of = Vec::with_capacity(trace.len());
    let mut assignments_of = Vec::with_capacity(trace.len());
    let mut cross_shard_queries = 0usize;
    let mut total_assignments = 0u64;
    // Per-query scratch: items grouped by shard (reused across queries).
    let mut split: Vec<Vec<WorkItem>> = vec![Vec::new(); n_shards];

    let items_of = pre_routed.into_iter().flatten();
    for (query_index, ((arrival, query), items)) in entries.iter().zip(items_of).enumerate() {
        let (fragments, assignments) = split_query(
            items,
            query_index,
            *arrival,
            *arrival,
            QueryClass::Standard,
            query,
            &mut |b| shard_of(*arrival, b),
            &mut split,
            &mut shards,
        );
        if fragments > 1 {
            cross_shard_queries += 1;
        }
        fragments_of.push(fragments);
        assignments_of.push(assignments);
        total_assignments += assignments;
    }

    Routing {
        shards,
        fragments_of,
        assignments_of,
        cross_shard_queries,
        total_assignments,
    }
}

/// Splits one query's pre-processed `items` into per-shard fragments,
/// appending them to `shards` (one stream per shard) and returning
/// `(fragments, assignments)`. The zero-work convention (one empty fragment
/// to shard 0) lives here, so the static router, the elastic replay router,
/// the front-door replay router, and the stepped drivers' incremental
/// routing all split queries with the same code.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_query(
    items: Vec<WorkItem>,
    query_index: usize,
    arrival: SimTime,
    release: SimTime,
    class: QueryClass,
    query: &CrossMatchQuery,
    shard_of: &mut dyn FnMut(BucketId) -> ShardId,
    split: &mut [Vec<WorkItem>],
    shards: &mut [Vec<Fragment>],
) -> (u32, u64) {
    let mut assignments = 0u64;
    for item in items {
        assignments += item.len() as u64;
        split[shard_of(item.bucket).index()].push(item);
    }
    let mut fragments = 0u32;
    for (shard, items) in split.iter_mut().enumerate() {
        if items.is_empty() {
            continue;
        }
        fragments += 1;
        let items = std::mem::take(items);
        let assignments = items.iter().map(|i| i.len() as u64).sum();
        shards[shard].push(Fragment {
            query_index,
            query: query.id,
            arrival,
            release,
            class,
            items,
            assignments,
        });
    }
    if fragments == 0 {
        // No work anywhere: ship the arrival itself to shard 0.
        fragments = 1;
        shards[0].push(Fragment {
            query_index,
            query: query.id,
            arrival,
            release,
            class,
            items: Vec::new(),
            assignments: 0,
        });
    }
    (fragments, assignments)
}

/// Routes the **admitted** subset of `trace` per a recorded
/// [`AdmissionLog`]: queries append to the per-shard streams in admission
/// (`seq`) order, each released at its logged admission time; rejected
/// queries route no fragments at all (their `fragments_of` entry is 0 —
/// the aggregation synthesizes their `Rejected` outcome from the log).
///
/// This is the front-door analogue of [`route_elastic`]: the pure function
/// of `(partition, map, trace, decision log)` that lets the threaded
/// executor route everything up-front — no runtime coordination — yet land
/// every shard on exactly the fragment stream the stepped planner produced.
pub fn route_admitted(
    partition: &Partition,
    map: &ShardMap,
    trace: &TimedTrace,
    log: &AdmissionLog,
) -> Routing {
    assert_eq!(
        partition.num_buckets(),
        map.num_buckets(),
        "shard map must cover the partition"
    );
    assert_eq!(log.verdicts.len(), trace.len(), "one verdict per query");
    let n_shards = map.n_shards() as usize;
    let pre = QueryPreProcessor::new(partition);
    let mut shards: Vec<Vec<Fragment>> = vec![Vec::new(); n_shards];
    let mut fragments_of = vec![0u32; trace.len()];
    let mut assignments_of = vec![0u64; trace.len()];
    let mut cross_shard_queries = 0usize;
    let mut total_assignments = 0u64;
    let mut split: Vec<Vec<WorkItem>> = vec![Vec::new(); n_shards];

    for (query_index, release) in log.admissions_in_seq_order() {
        let (arrival, query) = &trace.entries()[query_index];
        let (fragments, assignments) = split_query(
            pre.preprocess(query),
            query_index,
            *arrival,
            release,
            log.verdicts[query_index].class,
            query,
            &mut |b| map.shard_of(b),
            &mut split,
            &mut shards,
        );
        if fragments > 1 {
            cross_shard_queries += 1;
        }
        fragments_of[query_index] = fragments;
        assignments_of[query_index] = assignments;
        total_assignments += assignments;
    }
    // Rejected queries never route, but their workload stays on record.
    for (i, v) in log.verdicts.iter().enumerate() {
        if !v.admitted() {
            assignments_of[i] = v.assignments;
        }
    }

    Routing {
        shards,
        fragments_of,
        assignments_of,
        cross_shard_queries,
        total_assignments,
    }
}

/// Splits one arrival under the failover rules and appends the surviving
/// fragments to `out` (per-shard sinks): the query splits under the current
/// elastic map exactly like any other arrival, then — with failover
/// `enabled` — every fragment that landed on a **down** shard is popped
/// back off the stream and reported in `lost` (it was released into a dead
/// shard: lost in flight, to be re-delivered later), and a zero-work
/// query's empty marker fragment is retargeted from a dead shard 0 to the
/// lowest-id live shard. Returns `(delivered, fragments, assignments)`
/// where `fragments` counts the original split (the cross-shard signal)
/// and `delivered` the fragments actually shipped now.
///
/// Shared verbatim by the stepped failover planner and the threaded
/// replay's [`route_failover`], which is what keeps their per-shard
/// fragment streams bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_failover_arrival(
    pre: &QueryPreProcessor<'_>,
    query_index: usize,
    arrival: SimTime,
    query: &CrossMatchQuery,
    enabled: bool,
    up: &[bool],
    elastic: &ElasticShardMap,
    split: &mut [Vec<WorkItem>],
    out: &mut [Vec<Fragment>],
    lost: &mut Vec<(u32, Fragment)>,
) -> (u32, u32, u64) {
    let (fragments, assignments) = split_query(
        pre.preprocess(query),
        query_index,
        arrival,
        arrival,
        QueryClass::Standard,
        query,
        &mut |b| elastic.shard_of(b),
        split,
        out,
    );
    let mut delivered = fragments;
    if enabled {
        // One arrival appends at most one fragment per shard, so a down
        // shard's lost slice — if any — is exactly its stream tail.
        for shard in 0..up.len() {
            if up[shard] {
                continue;
            }
            let Some(tail) = out[shard].last() else {
                continue;
            };
            if tail.query_index != query_index {
                continue;
            }
            if tail.items.is_empty() {
                // The zero-work marker fragment: nothing to lose, but its
                // arrival notification should reach a live scheduler.
                debug_assert_eq!(shard, 0, "empty fragments route to shard 0");
                let f = out[shard].pop().expect("tail checked above");
                match up.iter().position(|&u| u) {
                    Some(live) => out[live].push(f),
                    // No shard is up at all: leave it to ride out the
                    // outage — it completes at its arrival either way.
                    None => out[shard].push(f),
                }
            } else {
                let f = out[shard].pop().expect("tail checked above");
                delivered -= 1;
                lost.push((shard as u32, f));
            }
        }
    }
    (delivered, fragments, assignments)
}

/// Routes `trace` under a recorded [`FailoverLog`] (plus an optional
/// [`RebalanceLog`] when elastic rebalancing ran alongside): the pure
/// function of `(partition, base map, decision logs, trace)` that lets the
/// threaded executor route everything up-front yet land every shard on
/// exactly the fragment stream the stepped failover planner produced.
///
/// Three event streams merge in time order — at equal instants, map/pool
/// changes first (outage edges before epoch boundaries, as the planner
/// processes them), then arrivals, then re-deliveries:
///
/// - **transitions** flip each shard's up/down state; a down edge also
///   applies its boundary's evacuation reassignments, and an epoch record
///   applies its moves — so arrivals at or after the instant route under
///   the *new* map (`at <= arrival`, matching [`route_elastic`]);
/// - **arrivals** split via `split_failover_arrival` — fragments landing
///   on a dead shard are held back as lost;
/// - **re-deliveries** (`to: Some`) re-release a held lost fragment on the
///   planner's chosen live shard at the logged attempt instant. Lost
///   fragments whose query the planner rejected are never re-released.
///
/// [`FailoverLog`]: crate::failover::FailoverLog
pub fn route_failover(
    partition: &Partition,
    base: &ShardMap,
    enabled: bool,
    log: &crate::failover::FailoverLog,
    rebalance: Option<&RebalanceLog>,
    trace: &TimedTrace,
) -> Routing {
    assert_eq!(
        partition.num_buckets(),
        base.num_buckets(),
        "shard map must cover the partition"
    );
    let n_shards = base.n_shards() as usize;
    let pre = QueryPreProcessor::new(partition);
    let mut elastic = ElasticShardMap::new(*base);
    let mut up = vec![true; n_shards];
    let mut shards: Vec<Vec<Fragment>> = vec![Vec::new(); n_shards];
    let mut split: Vec<Vec<WorkItem>> = vec![Vec::new(); n_shards];
    let mut fragments_of = vec![0u32; trace.len()];
    let mut assignments_of = vec![0u64; trace.len()];
    let mut cross_shard_queries = 0usize;
    let mut total_assignments = 0u64;
    // Lost fragments awaiting re-delivery, keyed by (query, dead shard) —
    // one arrival loses at most one fragment per shard.
    let mut lost: std::collections::HashMap<(usize, u32), Fragment> =
        std::collections::HashMap::new();
    let mut lost_scratch: Vec<(u32, Fragment)> = Vec::new();

    // Map/pool changes: outage edges carry their evacuation reassignments;
    // epoch records carry their moves. Both logs are time-sorted; merge
    // with transitions first at equal instants (planner order).
    enum Change<'l> {
        Transition(&'l crate::failover::ShardTransition),
        Epoch(&'l crate::rebalance::EpochRecord),
    }
    let epochs: &[crate::rebalance::EpochRecord] =
        rebalance.map_or(&[], |rb| rb.records.as_slice());
    let mut changes: Vec<(SimTime, Change<'_>)> = Vec::new();
    {
        let (mut ti, mut ei) = (0usize, 0usize);
        while ti < log.transitions.len() || ei < epochs.len() {
            let take_transition = match (log.transitions.get(ti), epochs.get(ei)) {
                (Some(t), Some(e)) => t.at <= e.at,
                (Some(_), None) => true,
                _ => false,
            };
            if take_transition {
                changes.push((
                    log.transitions[ti].at,
                    Change::Transition(&log.transitions[ti]),
                ));
                ti += 1;
            } else {
                changes.push((epochs[ei].at, Change::Epoch(&epochs[ei])));
                ei += 1;
            }
        }
    }

    let entries = trace.entries();
    let deliveries: Vec<&crate::failover::Redelivery> =
        log.redeliveries.iter().filter(|r| r.to.is_some()).collect();
    let (mut ci, mut ai, mut ri) = (0usize, 0usize, 0usize);
    loop {
        let tc = changes.get(ci).map(|c| c.0);
        let ta = entries.get(ai).map(|e| e.0);
        let tr = deliveries.get(ri).map(|r| r.at);
        let Some(t) = [tc, ta, tr].into_iter().flatten().min() else {
            break;
        };
        if tc == Some(t) {
            match &changes[ci].1 {
                Change::Transition(edge) => {
                    up[edge.shard as usize] = edge.up;
                    if !edge.up {
                        for e in log
                            .evacuations
                            .iter()
                            .filter(|e| e.boundary == edge.at && e.from == edge.shard)
                        {
                            elastic.reassign(e.bucket, ShardId(e.to));
                        }
                    }
                }
                Change::Epoch(rec) => {
                    for m in &rec.moves {
                        elastic.reassign(m.bucket, m.to);
                    }
                }
            }
            ci += 1;
            continue;
        }
        if ta == Some(t) {
            let (arrival, query) = &entries[ai];
            let (delivered, fragments, assignments) = split_failover_arrival(
                &pre,
                ai,
                *arrival,
                query,
                enabled,
                &up,
                &elastic,
                &mut split,
                &mut shards,
                &mut lost_scratch,
            );
            for (from, f) in lost_scratch.drain(..) {
                lost.insert((ai, from), f);
            }
            if fragments > 1 {
                cross_shard_queries += 1;
            }
            fragments_of[ai] = delivered;
            assignments_of[ai] = assignments;
            total_assignments += assignments;
            ai += 1;
            continue;
        }
        let r = deliveries[ri];
        let f = lost
            .remove(&(r.query_index, r.from))
            .expect("re-delivery of a fragment that was never lost");
        let to = r.to.expect("deliveries are filtered to landed attempts") as usize;
        fragments_of[r.query_index] += 1;
        shards[to].push(Fragment { release: r.at, ..f });
        ri += 1;
    }

    Routing {
        shards,
        fragments_of,
        assignments_of,
        cross_shard_queries,
        total_assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_catalog::{generate::uniform_sky, Catalog, MaterializedCatalog};
    use liferaft_query::{CrossMatchQuery, Predicate};
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
            .map(|(_, q)| pre.workload_size(q))
            .sum();
        for map in [
            ShardMap::contiguous(cat.partition().num_buckets(), 4),
            ShardMap::hashed(cat.partition().num_buckets(), 4, 7),
        ] {
            let routing = route(cat.partition(), &map, &timed);
            assert_eq!(routing.total_assignments, expected);
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
            // fragments_of counts match the shard streams.
            let mut counts = vec![0u32; timed.len()];
            for f in routing.shards.iter().flatten() {
                counts[f.query_index] += 1;
            }
            assert_eq!(counts, routing.fragments_of);
        }
    }

    #[test]
    fn single_shard_routing_is_whole_queries() {
        let (cat, timed) = fixture();
        let map = ShardMap::contiguous(cat.partition().num_buckets(), 1);
        let routing = route(cat.partition(), &map, &timed);
        assert_eq!(routing.cross_shard_queries, 0);
        assert_eq!(routing.total_fragments(), timed.len());
        assert!(routing.fragments_of.iter().all(|&c| c == 1));
    }

    #[test]
    fn zero_work_queries_ship_one_empty_fragment_to_shard_zero() {
        let (cat, _) = fixture();
        let empty = CrossMatchQuery::new(QueryId(7), vec![], Predicate::All);
        let timed = Trace::new(LEVEL, vec![empty]).with_arrivals(uniform_arrivals(1.0, 1));
        let map = ShardMap::contiguous(cat.partition().num_buckets(), 4);
        let routing = route(cat.partition(), &map, &timed);
        assert_eq!(routing.fragments_of, vec![1]);
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
