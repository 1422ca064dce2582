//! Epoch-boundary rebalancing: the decision log and the planner.
//!
//! At every epoch boundary (a control instant of the window loop) the
//! runtime samples per-shard load and asks `plan_moves` for a (possibly
//! empty) set of bucket migrations. The decisions — with the load sample
//! that produced them — are recorded as an [`EpochRecord`] of the
//! [`RebalanceLog`]; the moves apply in place before the next window.
//!
//! The planner is a pure function of its inputs and deliberately greedy:
//! while the most-loaded shard's queued backlog exceeds the configured
//! multiple of the mean, move its deepest bucket to the least-loaded shard
//! — provided the move strictly narrows the max–min gap. All ties break on
//! the lowest id (shard or bucket), so the plan is reproducible from the
//! load sample alone.

use liferaft_storage::{BucketId, SimDuration, SimTime};
use liferaft_telemetry::{Event, EventKind};

use crate::config::RebalanceConfig;
use crate::shard::ShardId;
use crate::worker::handover_cost;

/// One bucket migration decided at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The migrating bucket.
    pub bucket: BucketId,
    /// The overloaded source shard.
    pub from: ShardId,
    /// The underloaded destination shard.
    pub to: ShardId,
    /// Queued (object × bucket) entries moving with the bucket.
    pub entries: u64,
}

/// The decision record of one epoch boundary: the load sample the planner
/// saw and the moves it chose (often none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// 1-based epoch index (boundary k sits at `k × epoch`).
    pub epoch: u32,
    /// The boundary's virtual time.
    pub at: SimTime,
    /// Queued entries per shard at the boundary (the planner's input).
    pub loads: Vec<u64>,
    /// Cumulative serviced entries per shard (observability).
    pub serviced: Vec<u64>,
    /// Cache-resident buckets per shard (observability).
    pub resident: Vec<u32>,
    /// The moves decided at this boundary, in planning order.
    pub moves: Vec<Migration>,
}

/// The epoch-indexed decision log of one elastic run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RebalanceLog {
    /// The epoch length the boundaries were spaced at.
    pub epoch: SimDuration,
    /// One record per fired boundary, in time order.
    pub records: Vec<EpochRecord>,
}

impl RebalanceLog {
    /// Total bucket moves across all epochs.
    pub fn total_moves(&self) -> usize {
        self.records.iter().map(|r| r.moves.len()).sum()
    }

    /// Total queued entries that migrated.
    pub fn moved_entries(&self) -> u64 {
        self.records
            .iter()
            .flat_map(|r| r.moves.iter())
            .map(|m| m.entries)
            .sum()
    }

    /// Renders the log as router events: per epoch, every move as planned,
    /// then every move as applied — in the executors' canonical absorb
    /// order (per destination, in bucket order), at its hand-over cost.
    pub(crate) fn render(&self, out: &mut Vec<Event>) {
        for rec in &self.records {
            for m in &rec.moves {
                out.push(Event::router(
                    rec.at,
                    EventKind::MigrationPlanned {
                        epoch: rec.epoch,
                        bucket: m.bucket.0,
                        from: m.from.0,
                        to: m.to.0,
                        entries: m.entries,
                    },
                ));
            }
            let mut applies: Vec<&Migration> = rec.moves.iter().collect();
            applies.sort_by_key(|m| (m.to, m.bucket));
            for m in applies {
                out.push(Event::router(
                    rec.at,
                    EventKind::MigrationApplied {
                        epoch: rec.epoch,
                        bucket: m.bucket.0,
                        to: m.to.0,
                        cost: handover_cost(m.entries),
                    },
                ));
            }
        }
    }
}

/// Plans this boundary's migrations from the load sample.
///
/// `loads[s]` is shard `s`'s queued-entry backlog; `depths[s]` lists its
/// currently-owned non-empty buckets with their queue depths; `up[s]` marks
/// shards currently in the pool — dead shards (injected outage in force)
/// are invisible to the planner: never a source or destination, and
/// excluded from the mean the trigger compares against. Greedy, up to
/// `max_moves_per_epoch` iterations: pick the most- and least-loaded live
/// shards (ties → lower id), then the source's deepest not-yet-moved bucket
/// whose depth is *strictly* below the max–min gap (so the move narrows it;
/// ties → lower bucket id). Working loads update after every move.
pub(crate) fn plan_moves(
    cfg: &RebalanceConfig,
    loads: &[u64],
    depths: &[Vec<(BucketId, u64)>],
    up: &[bool],
) -> Vec<Migration> {
    let mut loads = loads.to_vec();
    let mut moves: Vec<Migration> = Vec::new();
    let live = up.iter().filter(|&&u| u).count();
    if live < 2 {
        return moves;
    }
    let live_total: u64 = loads
        .iter()
        .zip(up)
        .filter(|&(_, &u)| u)
        .map(|(&l, _)| l)
        .sum();
    let mean = live_total as f64 / live as f64;
    for _ in 0..cfg.max_moves_per_epoch {
        // Most/least loaded live shards, ties on the lower shard id
        // (max_by_key/min_by_key return the *last* max / *first* min among
        // equals, and `rev` flips which end "last" is).
        let (src, &l_max) = loads
            .iter()
            .enumerate()
            .filter(|&(s, _)| up[s])
            .rev()
            .max_by_key(|&(_, l)| l)
            .expect("at least two live shards");
        let (dst, &l_min) = loads
            .iter()
            .enumerate()
            .filter(|&(s, _)| up[s])
            .min_by_key(|&(_, l)| l)
            .expect("at least two live shards");
        // Total load is invariant under moves, so the trigger re-checks
        // against the boundary's mean every iteration.
        if src == dst || (l_max as f64) <= cfg.min_imbalance * mean {
            break;
        }
        let gap = l_max - l_min;
        let candidate = depths[src]
            .iter()
            .filter(|&&(b, d)| d > 0 && d < gap && !moves.iter().any(|m| m.bucket == b))
            .max_by(|&&(ba, da), &&(bb, db)| da.cmp(&db).then(bb.0.cmp(&ba.0)));
        let Some(&(bucket, entries)) = candidate else {
            break; // nothing movable improves the gap
        };
        loads[src] -= entries;
        loads[dst] += entries;
        moves.push(Migration {
            bucket,
            from: ShardId(src as u32),
            to: ShardId(dst as u32),
            entries,
        });
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RebalanceConfig {
        let mut c = RebalanceConfig::every(SimDuration::from_secs(10));
        c.min_imbalance = 1.2;
        c.max_moves_per_epoch = 8;
        c
    }

    #[test]
    fn balanced_loads_plan_nothing() {
        let depths = vec![vec![(BucketId(0), 50)], vec![(BucketId(9), 50)]];
        assert!(plan_moves(&cfg(), &[50, 50], &depths, &[true, true]).is_empty());
        assert!(plan_moves(&cfg(), &[0, 0], &depths, &[true, true]).is_empty());
    }

    #[test]
    fn hotspot_moves_deepest_improving_bucket_to_coldest_shard() {
        // Shard 0 is hot: buckets of depth 60, 30, 10. Shard 2 is empty.
        let loads = [100u64, 40, 0];
        let depths = vec![
            vec![(BucketId(1), 60), (BucketId(2), 30), (BucketId(3), 10)],
            vec![(BucketId(7), 40)],
            vec![],
        ];
        let moves = plan_moves(&cfg(), &loads, &depths, &[true; 3]);
        assert!(!moves.is_empty());
        // First move: the deepest bucket below the 100-0 gap (60) to S2.
        assert_eq!(moves[0].bucket, BucketId(1));
        assert_eq!(moves[0].from, ShardId(0));
        assert_eq!(moves[0].to, ShardId(2));
        assert_eq!(moves[0].entries, 60);
        // No bucket moves twice.
        let mut seen: Vec<BucketId> = moves.iter().map(|m| m.bucket).collect();
        seen.dedup();
        assert_eq!(seen.len(), moves.len());
    }

    #[test]
    fn dead_shards_are_invisible() {
        // Shard 2 is the coldest — but it is down, so moves go to shard 1,
        // and the mean is computed over the two live shards only.
        let loads = [100u64, 20, 0];
        let depths = vec![
            vec![(BucketId(1), 60), (BucketId(2), 30)],
            vec![(BucketId(7), 20)],
            vec![],
        ];
        let moves = plan_moves(&cfg(), &loads, &depths, &[true, true, false]);
        assert!(!moves.is_empty());
        assert_eq!(moves[0].to, ShardId(1), "first move targets the live shard");
        assert!(moves
            .iter()
            .all(|m| m.to != ShardId(2) && m.from != ShardId(2)));
        // With only one live shard there is nowhere to move anything.
        assert!(plan_moves(&cfg(), &loads, &depths, &[true, false, false]).is_empty());
    }

    #[test]
    fn moves_must_strictly_narrow_the_gap() {
        // One indivisible deep bucket as large as the whole gap: moving it
        // would just swap the hotspot, so the planner must decline.
        let loads = [80u64, 0];
        let depths = vec![vec![(BucketId(4), 80)], vec![]];
        assert!(plan_moves(&cfg(), &loads, &depths, &[true, true]).is_empty());
    }

    #[test]
    fn move_budget_is_respected() {
        let mut c = cfg();
        c.max_moves_per_epoch = 1;
        let loads = [90u64, 0];
        let depths = vec![
            vec![(BucketId(0), 30), (BucketId(1), 30), (BucketId(2), 30)],
            vec![],
        ];
        let moves = plan_moves(&c, &loads, &depths, &[true, true]);
        assert_eq!(moves.len(), 1);
    }

    #[test]
    fn ties_break_on_lower_ids() {
        let mut c = cfg();
        c.max_moves_per_epoch = 1;
        // Shards 1 and 2 equally cold; buckets 5 and 3 equally deep.
        let loads = [60u64, 0, 0];
        let depths = vec![vec![(BucketId(5), 20), (BucketId(3), 20)], vec![], vec![]];
        let moves = plan_moves(&c, &loads, &depths, &[true; 3]);
        assert_eq!(moves[0].to, ShardId(1), "tied destinations break low");
        assert_eq!(moves[0].bucket, BucketId(3), "tied buckets break low");
    }
}
