//! The indexed join: per-entry probes of the bucket's clustered HTM index.
//!
//! "If indices are available on the join attributes, cross-matching a small
//! workload queue using an indexed join is more efficient because the cost
//! of random I/O accesses is low relative to that of scanning an entire
//! bucket" — Section 3.4.
//!
//! The bucket slice, being HTM-sorted, *is* the leaf level of a clustered
//! index; a probe is a binary search to the entry's bounding-box start
//! followed by a short leaf scan. The output is identical to the sweep
//! join's — only the access pattern (and therefore the cost profile the
//! simulator charges) differs: one random I/O per probe instead of one
//! sequential bucket read.

use liferaft_catalog::SkyObject;
use liferaft_htm::vector::ChordBound;
use liferaft_query::QueueEntry;

use crate::types::{JoinOutput, MatchPair};

/// Joins by probing the sorted bucket once per queue entry.
///
/// `probes` in the output counts one probe per entry — the quantity the
/// cost model charges a random I/O for.
pub fn indexed_join(bucket: &[SkyObject], entries: &[QueueEntry]) -> JoinOutput {
    debug_assert!(
        bucket.windows(2).all(|w| w[0].htm <= w[1].htm),
        "bucket slice must be HTM-sorted"
    );
    let mut out = JoinOutput::default();
    let mut bound = ChordBound::new(0.0);
    for e in entries {
        out.probes += 1;
        let lo = e.bbox.lo();
        let hi = e.bbox.hi();
        // Binary search to the first object ≥ lo (the index descent).
        let start = bucket.partition_point(|o| o.htm < lo);
        bound = bound.for_radius(e.radius);
        let mut j = start;
        while j < bucket.len() && bucket[j].htm <= hi {
            out.candidates_tested += 1;
            if bound.matches(e.pos, bucket[j].pos) {
                out.pairs.push(MatchPair {
                    query: e.query,
                    object_index: e.object_index,
                    catalog_index: j as u32,
                });
            }
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_join;
    use crate::sweep::sweep_join;
    use liferaft_catalog::generate::uniform_sky;
    use liferaft_htm::Vec3;
    use liferaft_query::{MatchObject, QueryId};
    use liferaft_storage::SimTime;

    const LEVEL: u8 = 10;

    fn entry_at(pos: Vec3, radius: f64, query: u64, oi: u32) -> QueueEntry {
        let mo = MatchObject::new(pos, radius, LEVEL);
        QueueEntry {
            query: QueryId(query),
            object_index: oi,
            pos,
            radius,
            bbox: mo.bounding_range(),
            enqueued_at: SimTime::ZERO,
        }
    }

    #[test]
    fn identical_matches_to_sweep_and_brute() {
        let sky = uniform_sky(250, LEVEL, 6);
        let entries: Vec<QueueEntry> = sky
            .iter()
            .step_by(11)
            .enumerate()
            .map(|(i, o)| {
                let (ra, dec) = o.pos.to_radec_deg();
                entry_at(
                    Vec3::from_radec_deg(ra + 0.002, dec),
                    0.01,
                    i as u64,
                    i as u32,
                )
            })
            .collect();
        let idx = indexed_join(&sky, &entries);
        let swp = sweep_join(&sky, &entries);
        let brt = brute_force_join(&sky, &entries);
        assert_eq!(idx.sorted_pairs(), brt.sorted_pairs());
        assert_eq!(idx.sorted_pairs(), swp.sorted_pairs());
    }

    #[test]
    fn one_probe_per_entry() {
        let sky = uniform_sky(100, LEVEL, 7);
        let entries: Vec<QueueEntry> = (0..5)
            .map(|i| entry_at(sky[i * 10].pos, 1e-4, 1, i as u32))
            .collect();
        let out = indexed_join(&sky, &entries);
        assert_eq!(out.probes, 5);
    }

    #[test]
    fn empty_entries_probe_nothing() {
        let sky = uniform_sky(50, LEVEL, 8);
        let out = indexed_join(&sky, &[]);
        assert_eq!(out.probes, 0);
        assert!(out.is_empty());
    }
}
