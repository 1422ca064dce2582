//! Multi-site federation: serial cross-match chains across archives.
//!
//! SkyQuery "produces a serial, left-deep join plan for each query that
//! joins each archive serially in which intermediate join results are
//! shipped from database to database until all archives are cross-matched"
//! (Section 3). The paper evaluates a single site (SDSS) by replaying the
//! work arriving there; this module implements the full chain as an
//! extension: each site runs its *own* LifeRaft scheduler independently
//! ("our solution allows individual sites in a cluster or federation to
//! batch queries independently", Section 6), and a query's matches at site
//! `k` become its cross-match object list at site `k+1`, arriving when site
//! `k` completed it.
//!
//! Queries whose intermediate result becomes empty leave the chain early —
//! the cross-match semantics of a probabilistic join with no surviving
//! candidates.

use liferaft_catalog::Catalog;
use liferaft_core::Scheduler;
use liferaft_htm::{BatchCoverer, Cap};
use liferaft_join::sweep::sweep_join;
use liferaft_metrics::Summary;
use liferaft_query::{CrossMatchQuery, MatchObject, QueryId, QueueEntry, WorkItem};
use liferaft_storage::SimTime;
use liferaft_workload::{TimedTrace, Trace};

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::feed::Feed;
use crate::report::RunReport;

/// The outcome of a federated chain run.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// Per-site run reports, in chain order.
    pub sites: Vec<RunReport>,
    /// Per-site count of queries that *entered* the site.
    pub entered: Vec<usize>,
    /// Per-site count of queries whose results became empty there.
    pub dropped: Vec<usize>,
    /// End-to-end response times (arrival at site 0 → completion at the last
    /// site) in seconds, for queries that survived the whole chain.
    pub end_to_end: Summary,
}

impl FederationReport {
    /// Queries that produced a non-empty final cross-match.
    pub fn survivors(&self) -> usize {
        self.end_to_end.count()
    }
}

/// Runs a serial cross-match chain over `sites`, scheduling each site with
/// the scheduler produced by `mk_scheduler(site_index)`.
///
/// The trace's object bounding boxes must be at the first site's partition
/// level; subsequent sites re-index intermediate results at their own level.
///
/// # Panics
/// Panics if `sites` is empty.
pub fn run_chain(
    sites: &[&dyn Catalog],
    trace: &TimedTrace,
    mk_scheduler: &mut dyn FnMut(usize) -> Box<dyn Scheduler>,
    config: SimConfig,
) -> FederationReport {
    assert!(!sites.is_empty(), "a federation needs at least one site");
    let mut reports = Vec::with_capacity(sites.len());
    let mut entered = Vec::with_capacity(sites.len());
    let mut dropped = Vec::with_capacity(sites.len());

    // Arrival time at site 0 per query, for end-to-end accounting.
    let origin: std::collections::HashMap<QueryId, SimTime> =
        trace.entries().iter().map(|(t, q)| (q.id, *t)).collect();

    let mut current = trace.clone();
    let mut final_completions: Vec<(QueryId, SimTime)> = Vec::new();
    for (k, site) in sites.iter().enumerate() {
        entered.push(current.len());
        // Timing: replay this site's trace under its own scheduler.
        let mut scheduler = mk_scheduler(k);
        let report = Simulation::new(*site, config).run(&current, scheduler.as_mut());
        let completions: std::collections::HashMap<QueryId, SimTime> = report
            .outcomes
            .iter()
            .map(|o| (o.query, o.completion))
            .collect();

        // Results: the scheduler-independent cross-match output per query.
        let next_level = sites.get(k + 1).map(|s| s.partition().level());
        let mut next_coverer = next_level.map(BatchCoverer::new);
        let mut next: Vec<(SimTime, CrossMatchQuery)> = Vec::new();
        let mut dropped_here = 0usize;
        let feed = Feed::inline(site.partition(), current.entries());
        for ((_, query), items) in current.entries().iter().zip(feed) {
            let matches = site_matches(*site, query, &items);
            let completion = completions
                .get(&query.id)
                .copied()
                .expect("every delivered query completes");
            if matches.is_empty() {
                dropped_here += 1;
                continue;
            }
            if let Some(coverer) = next_coverer.as_mut() {
                let caps: Vec<Cap> = matches.iter().map(|&(p, r)| Cap::new(p, r)).collect();
                let objects = MatchObject::from_caps(&caps, coverer);
                next.push((
                    completion,
                    CrossMatchQuery::new(query.id, objects, query.predicate),
                ));
            } else {
                final_completions.push((query.id, completion));
            }
        }
        dropped.push(dropped_here);
        reports.push(report);

        if let Some(level) = next_level {
            next.sort_by_key(|(t, _)| *t);
            let (times, queries): (Vec<SimTime>, Vec<CrossMatchQuery>) = next.into_iter().unzip();
            current = Trace::new(level, queries).with_arrivals(times);
        }
    }

    let end_to_end = Summary::from_samples(
        final_completions
            .iter()
            .map(|(q, done)| done.since(origin[q]).as_secs_f64())
            .collect(),
    );
    FederationReport {
        sites: reports,
        entered,
        dropped,
        end_to_end,
    }
}

/// The deterministic (scheduler-independent) cross-match result of one query
/// at one site, from its `items` there: deduplicated matched catalog
/// positions with the query's error radii.
fn site_matches(
    site: &dyn Catalog,
    query: &CrossMatchQuery,
    items: &[WorkItem],
) -> Vec<(liferaft_htm::Vec3, f64)> {
    let mut matched: Vec<(liferaft_htm::HtmId, liferaft_htm::Vec3, f64)> = Vec::new();
    for item in items {
        let objects = site.bucket_objects(item.bucket);
        let entries: Vec<QueueEntry> = item
            .object_indices
            .iter()
            .map(|&oi| {
                let obj = &query.objects[oi as usize];
                QueueEntry {
                    query: query.id,
                    object_index: oi,
                    pos: obj.pos,
                    radius: obj.radius,
                    bbox: obj.bounding_range(),
                    enqueued_at: SimTime::ZERO,
                }
            })
            .collect();
        let out = sweep_join(&objects, &entries);
        for pair in &out.pairs {
            let cat = &objects[pair.catalog_index as usize];
            if query.predicate.accepts_mag(cat.mag) {
                let radius = query.objects[pair.object_index as usize].radius;
                matched.push((cat.htm, cat.pos, radius));
            }
        }
    }
    // A catalog object matched by several workload objects ships once.
    matched.sort_by_key(|&(htm, _, _)| htm);
    matched.dedup_by_key(|&mut (htm, _, _)| htm);
    matched.into_iter().map(|(_, pos, r)| (pos, r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_catalog::{generate::uniform_sky, MaterializedCatalog};
    use liferaft_core::{LifeRaftScheduler, NoShareScheduler};
    use liferaft_query::Predicate;
    use liferaft_storage::CostModel;
    use liferaft_workload::arrivals::uniform_arrivals;

    const LEVEL: u8 = 8;

    /// Two archives observing the *same* sky (so cross-matches survive),
    /// with different seeds jittering magnitudes.
    fn two_sites() -> (MaterializedCatalog, MaterializedCatalog) {
        let sky = uniform_sky(4_000, LEVEL, 7);
        let a = MaterializedCatalog::build(&sky, LEVEL, 200, 4096);
        // Second archive: identical positions (same survey footprint).
        let b = MaterializedCatalog::build(&sky, LEVEL, 100, 4096);
        (a, b)
    }

    fn anchored_trace(cat: &MaterializedCatalog, n: usize) -> Trace {
        let queries: Vec<CrossMatchQuery> = (0..n)
            .map(|i| {
                let objs = cat.bucket_objects(liferaft_storage::BucketId((i % 4) as u32 * 3));
                let positions: Vec<_> = objs.iter().step_by(15).map(|o| o.pos).collect();
                CrossMatchQuery::from_positions(
                    QueryId(i as u64),
                    &positions,
                    1e-4,
                    LEVEL,
                    Predicate::All,
                )
            })
            .collect();
        Trace::new(LEVEL, queries)
    }

    #[test]
    fn chain_completes_and_accounts_end_to_end() {
        let (a, b) = two_sites();
        let trace = anchored_trace(&a, 8);
        let timed = trace.with_arrivals(uniform_arrivals(0.5, 8));
        let sites: Vec<&dyn Catalog> = vec![&a, &b];
        let report = run_chain(
            &sites,
            &timed,
            &mut |_| Box::new(LifeRaftScheduler::greedy(CostModel::paper())),
            SimConfig::paper(),
        );
        assert_eq!(report.sites.len(), 2);
        assert_eq!(report.entered[0], 8);
        // Anchored queries always match at site 0 (identical sky).
        assert_eq!(report.dropped[0], 0);
        assert_eq!(report.entered[1], 8);
        assert!(report.survivors() > 0);
        // End-to-end responses dominate each site's own response.
        let site0_last = report.sites[0]
            .outcomes
            .iter()
            .map(|o| o.completion.as_secs_f64())
            .fold(0.0, f64::max);
        assert!(report.end_to_end.max() >= report.sites[1].response.min());
        assert!(report.sites[1].makespan_s >= site0_last * 0.5);
    }

    #[test]
    fn second_site_arrivals_follow_first_site_completions() {
        let (a, b) = two_sites();
        let trace = anchored_trace(&a, 5);
        let timed = trace.with_arrivals(uniform_arrivals(1.0, 5));
        let sites: Vec<&dyn Catalog> = vec![&a, &b];
        let report = run_chain(
            &sites,
            &timed,
            &mut |_| Box::new(NoShareScheduler::new()),
            SimConfig::paper(),
        );
        // Site 1 cannot start a query before site 0 finished it, so site 1's
        // makespan is at least site 0's first completion plus its own work.
        let first_done_site0 = report.sites[0]
            .outcomes
            .iter()
            .map(|o| o.completion.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        assert!(report.sites[1].makespan_s > first_done_site0);
        // End-to-end is at least the max of per-site responses.
        assert!(report.end_to_end.mean() >= report.sites[0].response.mean());
    }

    #[test]
    fn queries_without_matches_leave_the_chain() {
        let (a, b) = two_sites();
        // A query far from any catalog object (tiny radius at a pole gap).
        let mut queries = anchored_trace(&a, 3).queries().to_vec();
        queries.push(CrossMatchQuery::from_positions(
            QueryId(99),
            &[liferaft_htm::Vec3::from_radec_deg(12.3456, 4.5678)],
            1e-9,
            LEVEL,
            Predicate::All,
        ));
        let trace = Trace::new(LEVEL, queries);
        let timed = trace.with_arrivals(uniform_arrivals(1.0, 4));
        let sites: Vec<&dyn Catalog> = vec![&a, &b];
        let report = run_chain(
            &sites,
            &timed,
            &mut |_| Box::new(LifeRaftScheduler::greedy(CostModel::paper())),
            SimConfig::paper(),
        );
        assert_eq!(report.entered[0], 4);
        assert!(
            report.dropped[0] >= 1,
            "the orphan query must drop at site 0"
        );
        assert_eq!(report.entered[1], 4 - report.dropped[0]);
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_federation_rejected() {
        let trace = Trace::new(LEVEL, vec![]).with_arrivals(vec![]);
        run_chain(
            &[],
            &trace,
            &mut |_| Box::new(NoShareScheduler::new()),
            SimConfig::paper(),
        );
    }
}
