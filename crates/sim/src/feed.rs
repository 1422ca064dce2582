//! The one pre-processing path: a trace's work items, split ahead of the
//! loop that takes them (`docs/ARCHITECTURE.md`, "The feed").

use std::iter::Enumerate;
use std::slice::Iter;
use std::sync::mpsc::{self, Receiver};
use std::thread::Scope;

use liferaft_catalog::Partition;
use liferaft_query::{CrossMatchQuery, QueryPreProcessor, WorkItem};
use liferaft_storage::SimTime;

/// Queries per pre-processing job.
pub(crate) const PREPROCESS_CHUNK: usize = 128;
/// Jobs each producer may hold ready.
pub(crate) const CHUNKS_AHEAD: usize = 4;

/// Every query's work items, one `Vec` per query in trace order (empty for
/// a workless query). N producer threads split jobs of 128 queries
/// (`PREPROCESS_CHUNK`) ahead: producer `p` sends jobs `p, p + N, …` over
/// its own channel, bounded at 4 jobs (`CHUNKS_AHEAD`), so job `c` is read
/// from channel `c mod N` with no reorder buffer. N = 0 splits inline. A
/// consumer that unwinds drops the feed, so a blocked producer's send fails.
pub struct Feed<'a> {
    pre: QueryPreProcessor<'a>,
    queries: Enumerate<Iter<'a, (SimTime, CrossMatchQuery)>>,
    /// One channel per producer; none inline.
    producers: Vec<Receiver<Vec<Vec<WorkItem>>>>,
    /// The rest of the job being read.
    job: std::vec::IntoIter<Vec<WorkItem>>,
}

impl<'a> Feed<'a> {
    /// A feed that splits each query of `entries` on the calling thread.
    pub fn inline(partition: &'a Partition, entries: &'a [(SimTime, CrossMatchQuery)]) -> Self {
        Feed {
            pre: QueryPreProcessor::new(partition),
            queries: entries.iter().enumerate(),
            producers: Vec::new(),
            job: Vec::new().into_iter(),
        }
    }

    /// A feed of `entries` split ahead by up to `producers` threads spawned
    /// on `scope`, never more than the trace has jobs (0 = inline). The
    /// feed cannot outlive the scope.
    pub fn new(
        scope: &'a Scope<'a, '_>,
        partition: &'a Partition,
        entries: &'a [(SimTime, CrossMatchQuery)],
        producers: usize,
    ) -> Self {
        let mut feed = Feed::inline(partition, entries);
        let n = producers.min(entries.len().div_ceil(PREPROCESS_CHUNK));
        for p in 0..n {
            let (tx, rx) = mpsc::sync_channel(CHUNKS_AHEAD);
            let pre = feed.pre.clone();
            scope.spawn(move || {
                for job in entries.chunks(PREPROCESS_CHUNK).skip(p).step_by(n) {
                    let items = job.iter().map(|(_, q)| pre.preprocess(q)).collect();
                    if tx.send(items).is_err() {
                        return; // The consumer unwound and dropped the feed.
                    }
                }
            });
            feed.producers.push(rx);
        }
        feed
    }
}

impl Iterator for Feed<'_> {
    type Item = Vec<WorkItem>;

    fn next(&mut self) -> Option<Vec<WorkItem>> {
        let (i, (_, query)) = self.queries.next()?;
        if self.producers.is_empty() {
            return Some(self.pre.preprocess(query));
        }
        if i % PREPROCESS_CHUNK == 0 {
            let producer = &self.producers[i / PREPROCESS_CHUNK % self.producers.len()];
            let job = producer.recv().expect("a pre-processing thread panicked");
            self.job = job.into_iter();
        }
        self.job.next()
    }
}

#[cfg(test)]
mod tests {
    use std::thread;

    use super::*;
    use liferaft_catalog::{generate::uniform_sky, Catalog, MaterializedCatalog};
    use liferaft_query::{Predicate, QueryId};
    use liferaft_storage::{BucketId, SimDuration};

    const LEVEL: u8 = 8;

    /// `n` queries, query `i` anchored on a few objects of bucket `i % 30`
    /// and the next one; query `workless` carries no work.
    fn entries(
        cat: &MaterializedCatalog,
        n: usize,
        workless: usize,
    ) -> Vec<(SimTime, CrossMatchQuery)> {
        (0..n)
            .map(|i| {
                let at = SimTime::ZERO + SimDuration::from_millis(i as u64);
                let q = QueryId(i as u64);
                if i == workless {
                    return (at, CrossMatchQuery::new(q, vec![], Predicate::All));
                }
                let first = (i % 30) as u32;
                let positions: Vec<_> = (first..first + 2)
                    .flat_map(|b| cat.bucket_objects(BucketId(b)).into_owned())
                    .step_by(7 + i % 5)
                    .map(|o| o.pos)
                    .collect();
                let query =
                    CrossMatchQuery::from_positions(q, &positions, 1e-4, LEVEL, Predicate::All);
                (at, query)
            })
            .collect()
    }

    #[test]
    fn the_feed_yields_the_serial_split_in_trace_order() {
        let cat = MaterializedCatalog::build(&uniform_sky(4_000, LEVEL, 9), LEVEL, 100, 4096);
        let partition = cat.partition();
        // Several chunks with a ragged last one, the first query of chunk 2
        // workless; and a trace shorter than one chunk, so 2, 3 and 8
        // producers outnumber its chunks.
        let long = entries(&cat, 5 * PREPROCESS_CHUNK + 37, 2 * PREPROCESS_CHUNK);
        let short = entries(&cat, PREPROCESS_CHUNK / 2, 0);
        for trace in [&long, &short] {
            let pre = QueryPreProcessor::new(partition);
            let serial: Vec<_> = trace.iter().map(|(_, q)| pre.preprocess(q)).collect();
            assert!(serial.iter().any(Vec::is_empty));
            for producers in [0, 1, 2, 3, 8] {
                let fed: Vec<_> =
                    thread::scope(|s| Feed::new(s, partition, trace, producers).collect());
                assert_eq!(
                    fed,
                    serial,
                    "{producers} producers, {} queries",
                    trace.len()
                );
            }
        }
    }
}
