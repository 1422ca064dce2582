//! The plane-sweep merge join over HTM-sorted data.
//!
//! "Objects in both the bucket and its corresponding workload queue are
//! first sorted by their HTM IDs. The join is performed by simultaneously
//! scanning and merging objects in both the bucket and its workload queue.
//! This is similar to the plane sweeping technique used in Partition Based
//! Spatial-Merge Join" — Section 3.1.
//!
//! The sweep key is the HTM curve: each queue entry carries a bounding
//! range `[lo, hi]` of object-level HTM IDs (its error circle's cover), and
//! the bucket slice is sorted by object HTM ID. Entries sorted by `lo` are
//! merged against the bucket with a shared start cursor; each entry then
//! refines its candidate window `[lo, hi]` with exact chord-distance tests.

use liferaft_catalog::SkyObject;
use liferaft_htm::vector::ChordBound;
use liferaft_query::QueueEntry;

use crate::types::{JoinOutput, MatchPair};

/// Joins one HTM-sorted bucket slice against its workload queue entries.
///
/// Output pairs appear grouped by entry (in `lo`-sorted entry order), with
/// catalog candidates in HTM order within each group.
///
/// # Panics
/// Panics in debug builds if the bucket slice is not HTM-sorted.
pub fn sweep_join(bucket: &[SkyObject], entries: &[QueueEntry]) -> JoinOutput {
    debug_assert!(
        bucket.windows(2).all(|w| w[0].htm <= w[1].htm),
        "bucket slice must be HTM-sorted"
    );
    let mut out = JoinOutput::default();
    if bucket.is_empty() || entries.is_empty() {
        return out;
    }

    // Sort entry references by bounding-box start along the curve.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_unstable_by_key(|&i| entries[i].bbox.lo());

    // Shared start cursor: since entry `lo`s are non-decreasing in sweep
    // order, the first candidate index never moves backwards.
    let mut start = 0usize;
    let mut bound = ChordBound::new(0.0);
    for &ei in &order {
        let e = &entries[ei];
        let lo = e.bbox.lo();
        let hi = e.bbox.hi();
        while start < bucket.len() && bucket[start].htm < lo {
            start += 1;
        }
        if start == bucket.len() {
            break;
        }
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
    fn empty_inputs_yield_empty_output() {
        let sky = uniform_sky(10, LEVEL, 1);
        assert!(sweep_join(&sky, &[]).is_empty());
        assert!(
            sweep_join(&[], &[entry_at(Vec3::from_radec_deg(0.0, 0.0), 0.01, 1, 0)]).is_empty()
        );
    }

    #[test]
    fn matches_catalog_anchored_entries() {
        // Entries placed exactly on catalog objects must match them.
        let sky = uniform_sky(200, LEVEL, 2);
        let entries: Vec<QueueEntry> = sky
            .iter()
            .step_by(20)
            .enumerate()
            .map(|(i, o)| entry_at(o.pos, 1e-4, 1, i as u32))
            .collect();
        let out = sweep_join(&sky, &entries);
        assert!(
            out.len() >= entries.len(),
            "anchored entries must all match"
        );
    }

    #[test]
    fn agrees_with_brute_force_on_random_sky() {
        let sky = uniform_sky(300, LEVEL, 3);
        let mut entries = Vec::new();
        for (i, o) in sky.iter().step_by(7).enumerate() {
            // Mix of radii, some offset positions.
            let (ra, dec) = o.pos.to_radec_deg();
            let pos = Vec3::from_radec_deg(ra + 0.01, dec - 0.005);
            entries.push(entry_at(
                pos,
                0.02 + (i % 3) as f64 * 0.01,
                i as u64,
                i as u32,
            ));
        }
        let fast = sweep_join(&sky, &entries);
        let slow = brute_force_join(&sky, &entries);
        assert_eq!(fast.sorted_pairs(), slow.sorted_pairs());
        // The sweep must test far fewer candidates than brute force.
        assert!(fast.candidates_tested < slow.candidates_tested);
    }

    #[test]
    fn filter_never_drops_a_true_match() {
        // Adversarial: entry centered at a trixel corner (bbox spans trixels).
        let sky = uniform_sky(500, LEVEL, 4);
        for k in [0usize, 123, 499] {
            let target = &sky[k];
            let e = entry_at(target.pos, 5e-4, 9, k as u32);
            let out = sweep_join(&sky, &[e]);
            assert!(
                out.pairs.iter().any(|p| p.catalog_index == k as u32),
                "sweep lost anchored match {k}"
            );
        }
    }

    #[test]
    fn per_query_attribution_is_preserved() {
        let sky = uniform_sky(100, LEVEL, 5);
        let e1 = entry_at(sky[10].pos, 1e-4, 1, 0);
        let e2 = entry_at(sky[20].pos, 1e-4, 2, 0);
        let out = sweep_join(&sky, &[e1, e2]);
        let counts = out.per_query_counts();
        assert!(counts.iter().any(|&(q, n)| q == QueryId(1) && n >= 1));
        assert!(counts.iter().any(|&(q, n)| q == QueryId(2) && n >= 1));
    }
}
