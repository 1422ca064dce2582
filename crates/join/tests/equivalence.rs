//! Property tests: all three join engines compute the same matches.

use liferaft_catalog::generate::{clustered_sky, uniform_sky, ClusterConfig};
use liferaft_catalog::SkyObject;
use liferaft_htm::Vec3;
use liferaft_join::brute::brute_force_join;
use liferaft_join::indexed::indexed_join;
use liferaft_join::sweep::sweep_join;
use liferaft_query::{MatchObject, QueryId, QueueEntry};
use liferaft_storage::SimTime;
use proptest::prelude::*;

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

/// Builds workload entries derived from (but offset against) the sky.
fn derive_entries(sky: &[SkyObject], offsets: &[(f64, f64, f64)]) -> Vec<QueueEntry> {
    offsets
        .iter()
        .enumerate()
        .map(|(i, &(pick, dra, radius))| {
            let src = &sky[(pick * (sky.len() - 1) as f64) as usize];
            let (ra, dec) = src.pos.to_radec_deg();
            let pos = Vec3::from_radec_deg(ra + dra, dec - dra / 2.0);
            entry_at(pos, radius, i as u64 % 5, i as u32)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sweep ≡ indexed ≡ brute force on uniform skies.
    #[test]
    fn engines_agree_on_uniform_sky(
        seed in 0u64..1000,
        n in 50usize..300,
        offsets in proptest::collection::vec(
            (0.0..1.0f64, -0.05..0.05f64, 1e-4..0.05f64),
            1..25
        ),
    ) {
        let sky = uniform_sky(n, LEVEL, seed);
        let entries = derive_entries(&sky, &offsets);
        let brute = brute_force_join(&sky, &entries).sorted_pairs();
        prop_assert_eq!(sweep_join(&sky, &entries).sorted_pairs(), brute.clone());
        prop_assert_eq!(indexed_join(&sky, &entries).sorted_pairs(), brute);
    }

    /// Same equivalence on clustered (dense-hotspot) skies, where candidate
    /// windows are crowded.
    #[test]
    fn engines_agree_on_clustered_sky(
        seed in 0u64..500,
        offsets in proptest::collection::vec(
            (0.0..1.0f64, -0.02..0.02f64, 1e-4..0.03f64),
            1..15
        ),
    ) {
        let cfg = ClusterConfig { clusters: 3, sigma: 0.01, cluster_fraction: 0.8 };
        let sky = clustered_sky(200, LEVEL, seed, cfg);
        let entries = derive_entries(&sky, &offsets);
        let brute = brute_force_join(&sky, &entries).sorted_pairs();
        prop_assert_eq!(sweep_join(&sky, &entries).sorted_pairs(), brute.clone());
        prop_assert_eq!(indexed_join(&sky, &entries).sorted_pairs(), brute);
    }

    /// Anchored entries (exact positions of catalog rows) always match their
    /// anchors, in every engine.
    #[test]
    fn anchored_entries_always_match(
        seed in 0u64..500,
        picks in proptest::collection::vec(0.0..1.0f64, 1..10),
    ) {
        let sky = uniform_sky(150, LEVEL, seed);
        let entries: Vec<QueueEntry> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let k = (p * (sky.len() - 1) as f64) as usize;
                entry_at(sky[k].pos, 1e-5, 0, i as u32)
            })
            .collect();
        for out in [sweep_join(&sky, &entries), indexed_join(&sky, &entries)] {
            prop_assert!(out.len() >= entries.len());
        }
    }
}
