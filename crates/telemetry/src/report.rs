//! Per-shard windowed series folded from a merged event stream.
//!
//! The flight recorder is the event stream plus windowed series; run totals
//! (batches, scans, hits, responses) live in `RunReport`, exactly.
//! [`TelemetryReport::build`] folds a canonical event stream into fixed
//! virtual-time-window samples per shard — queue depth, scheduler decision
//! rate, shared-scan hit rate, p90 response — and keeps the raw stream for
//! the JSONL / Chrome-trace exports.

use liferaft_metrics::table::fmt_f;
use liferaft_metrics::{Series, Summary, Table};
use liferaft_storage::SimDuration;

use crate::event::{Event, EventKind, ROUTER_SHARD};
use crate::export::{events_to_chrome_trace, events_to_jsonl};

/// Windowed series for one shard.
#[derive(Debug, Clone)]
pub struct ShardSeries {
    /// The shard id.
    pub shard: u32,
    /// Queued assignments at each window boundary (x = window end in
    /// seconds): arrivals and entries moved in by a bucket move, minus
    /// serviced entries and entries moved out, prefix-summed from 0. A ring
    /// that shed the shard's oldest events hides where the series starts,
    /// so a truncated shard starts at the smallest baseline that keeps it
    /// ≥ 0 — a lower bound on the true depth.
    pub queue_depth: Series,
    /// Scheduler decisions per second in each window.
    pub decisions_per_s: Series,
    /// Cache hit rate of shared scans in each window (0 when no scans ran).
    pub hit_rate: Series,
    /// p90 response time (seconds) of queries completing in each window.
    pub response_p90_s: Series,
}

/// The flight-recorder report: per-shard windowed series and the raw
/// canonical event stream for export.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Sampling window the series were folded over.
    pub window: SimDuration,
    /// Shards the stream was recorded over (router pseudo-shard excluded).
    pub n_shards: u32,
    /// Per-shard windowed series, indexed by shard id.
    pub shards: Vec<ShardSeries>,
    /// The canonical merged event stream (running clock, shard, seq order).
    pub events: Vec<Event>,
}

impl TelemetryReport {
    /// Folds a canonical event stream into windowed per-shard series.
    ///
    /// Router-shard events ([`ROUTER_SHARD`]) stay in the stream; of them,
    /// only bucket moves (`migration_planned`, `bucket_evacuated`) enter
    /// per-shard series, as queue depth leaving `from` and joining `to`.
    ///
    /// # Panics
    /// Panics on a zero window, or on an event from a shard `>= n_shards`
    /// that is not the router pseudo-shard.
    pub fn build(events: Vec<Event>, n_shards: u32, window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "zero telemetry window");
        assert!(n_shards > 0, "telemetry needs at least one shard");
        // Windows up to the last event's instant; one for an empty stream.
        let last_us = events.iter().map(|e| e.time.as_micros()).max();
        let window_us = window.as_micros();
        let n_windows = last_us.unwrap_or(0).div_ceil(window_us).max(1) as usize;
        let n = n_shards as usize;

        // Per-shard, per-window accumulators.
        let mut net_flow = vec![vec![0i64; n_windows]; n];
        let mut decisions_w = vec![vec![0u64; n_windows]; n];
        let mut scans_w = vec![vec![0u64; n_windows]; n];
        let mut hits_w = vec![vec![0u64; n_windows]; n];
        let mut responses_w: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); n_windows]; n];
        // A shard whose first kept event is not its first recorded one lost
        // its head to a ring.
        let mut truncated: Vec<Option<bool>> = vec![None; n];

        let shard_index = |shard: u32| {
            assert!(
                shard < n_shards,
                "event from shard {shard} but report spans {n_shards}"
            );
            shard as usize
        };
        for e in &events {
            let w = ((e.time.as_micros() / window_us) as usize).min(n_windows - 1);
            if e.shard == ROUTER_SHARD {
                if let EventKind::MigrationPlanned {
                    from, to, entries, ..
                }
                | EventKind::BucketEvacuated {
                    from, to, entries, ..
                } = e.kind
                {
                    net_flow[shard_index(from)][w] -= entries as i64;
                    net_flow[shard_index(to)][w] += entries as i64;
                }
                continue;
            }
            let s = shard_index(e.shard);
            truncated[s].get_or_insert(e.seq > 0);
            match &e.kind {
                EventKind::QueryArrival { assignments, .. } => {
                    net_flow[s][w] += *assignments as i64;
                }
                EventKind::Decision { .. } => decisions_w[s][w] += 1,
                EventKind::BatchStart {
                    cached,
                    indexed: false,
                    ..
                } => {
                    scans_w[s][w] += 1;
                    hits_w[s][w] += u64::from(*cached);
                }
                EventKind::BatchEnd { entries, .. } => {
                    net_flow[s][w] -= *entries as i64;
                }
                EventKind::QueryComplete { response, .. } => {
                    responses_w[s][w].push(response.as_secs_f64());
                }
                _ => {}
            }
        }

        let window_secs = window.as_secs_f64();
        let mut shards = Vec::with_capacity(n);
        for s in 0..n {
            let mut queue_depth = Series::new(format!("shard {s} queue depth"));
            let mut decisions_per_s = Series::new(format!("shard {s} decisions/s"));
            let mut hit_rate = Series::new(format!("shard {s} hit rate"));
            let mut response_p90_s = Series::new(format!("shard {s} p90 response (s)"));
            let mut depth = 0i64;
            if truncated[s] == Some(true) {
                let lowest = net_flow[s].iter().scan(0, |d, f| {
                    *d += f;
                    Some(*d)
                });
                depth = -lowest.min().unwrap_or(0).min(0);
            }
            for w in 0..n_windows {
                let x = (w as f64 + 1.0) * window_secs;
                depth += net_flow[s][w];
                queue_depth.push(x, depth as f64);
                decisions_per_s.push(x, decisions_w[s][w] as f64 / window_secs);
                let rate = if scans_w[s][w] == 0 {
                    0.0
                } else {
                    hits_w[s][w] as f64 / scans_w[s][w] as f64
                };
                hit_rate.push(x, rate);
                let p90 =
                    Summary::from_samples(std::mem::take(&mut responses_w[s][w])).percentile(90.0);
                response_p90_s.push(x, p90);
            }
            shards.push(ShardSeries {
                shard: s as u32,
                queue_depth,
                decisions_per_s,
                hit_rate,
                response_p90_s,
            });
        }

        TelemetryReport {
            window,
            n_shards,
            shards,
            events,
        }
    }

    /// Renders the raw stream as JSONL (one event per line, canonical
    /// order). Byte-identical across executors by the determinism contract.
    pub fn to_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }

    /// Renders the raw stream as a Chrome trace-event / Perfetto JSON
    /// document.
    pub fn to_chrome_trace(&self) -> String {
        events_to_chrome_trace(&self.events, self.n_shards)
    }

    /// An ASCII activity timeline: one row per sampling window, one column
    /// per shard, each cell a bar of that shard's decision count in the
    /// window (scaled to the busiest window) plus the raw count.
    pub fn ascii_timeline(&self) -> String {
        let header: Vec<String> = std::iter::once("t_end_s".to_string())
            .chain(self.shards.iter().map(|s| format!("shard {}", s.shard)))
            .collect();
        let mut t = Table::new(header);
        let n_windows = self
            .shards
            .first()
            .map_or(0, |s| s.decisions_per_s.points().len());
        let peak = self
            .shards
            .iter()
            .flat_map(|s| s.decisions_per_s.ys())
            .fold(0.0f64, f64::max);
        for w in 0..n_windows {
            let (x, _) = self.shards[0].decisions_per_s.points()[w];
            let mut row = vec![fmt_f(x, 1)];
            for s in &self.shards {
                let y = s.decisions_per_s.points()[w].1;
                let len = if peak > 0.0 {
                    ((y / peak) * 10.0).round() as usize
                } else {
                    0
                };
                let count = (y * self.window.as_secs_f64()).round() as u64;
                row.push(format!("{:<10} {count}", "#".repeat(len)));
            }
            t.row(row);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liferaft_storage::SimTime;

    fn ev(t: u64, shard: u32, seq: u64, kind: EventKind) -> Event {
        Event {
            time: SimTime::from_micros(t),
            shard,
            seq,
            kind,
        }
    }

    fn sample_stream() -> Vec<Event> {
        vec![
            ev(
                0,
                0,
                0,
                EventKind::QueryArrival {
                    query: 1,
                    assignments: 6,
                },
            ),
            ev(
                0,
                0,
                1,
                EventKind::Decision {
                    bucket: 2,
                    candidates: 3,
                    frontier: true,
                },
            ),
            ev(
                0,
                0,
                2,
                EventKind::BatchStart {
                    bucket: 2,
                    entries: 3,
                    cached: false,
                    indexed: false,
                },
            ),
            ev(
                900_000,
                0,
                3,
                EventKind::BatchEnd {
                    bucket: 2,
                    entries: 3,
                },
            ),
            ev(
                1_200_000,
                0,
                4,
                EventKind::Decision {
                    bucket: 2,
                    candidates: 1,
                    frontier: false,
                },
            ),
            ev(
                1_200_000,
                0,
                5,
                EventKind::BatchStart {
                    bucket: 2,
                    entries: 1,
                    cached: true,
                    indexed: false,
                },
            ),
            ev(
                1_500_000,
                0,
                6,
                EventKind::QueryComplete {
                    query: 1,
                    assignments: 4,
                    response: SimDuration::from_micros(1_500_000),
                },
            ),
            ev(
                1_500_000,
                0,
                7,
                EventKind::BatchEnd {
                    bucket: 2,
                    entries: 1,
                },
            ),
            ev(
                500_000,
                ROUTER_SHARD,
                0,
                EventKind::MigrationPlanned {
                    epoch: 1,
                    bucket: 9,
                    from: 0,
                    to: 1,
                    entries: 2,
                },
            ),
        ]
    }

    #[test]
    fn windows_fold_flow_and_rates() {
        let r = TelemetryReport::build(sample_stream(), 2, SimDuration::from_secs(1));
        assert_eq!(r.n_shards, 2);
        assert_eq!(r.shards.len(), 2);
        let s0 = &r.shards[0];
        // Two windows up to the last event at 1.5 s: [0,1s) and [1s,1.5s].
        assert_eq!(s0.queue_depth.points().len(), 2);
        // Window 0: +6 arrivals, -3 serviced, -2 moved off => depth 1;
        // window 1: -1 => 0.
        assert_eq!(s0.queue_depth.ys(), vec![1.0, 0.0]);
        assert_eq!(s0.decisions_per_s.ys(), vec![1.0, 1.0]);
        // Window 0: 1 scan 0 hits; window 1: 1 scan 1 hit.
        assert_eq!(s0.hit_rate.ys(), vec![0.0, 1.0]);
        assert_eq!(s0.response_p90_s.ys()[0], 0.0);
        assert!((s0.response_p90_s.ys()[1] - 1.5).abs() < 1e-12);
        // Shard 1 recorded nothing, but the planned move queued 2 there.
        assert_eq!(r.shards[1].decisions_per_s.ys(), vec![0.0, 0.0]);
        assert_eq!(r.shards[1].queue_depth.ys(), vec![2.0, 2.0]);
        assert_eq!(r.events.len(), 9);
        // A ring that shed the arrival starts shard 0 at the least baseline
        // keeping its depth non-negative: here exactly the true depth.
        let shed: Vec<Event> = sample_stream().into_iter().skip(1).collect();
        let r = TelemetryReport::build(shed, 2, SimDuration::from_secs(1));
        assert_eq!(r.shards[0].queue_depth.ys(), vec![1.0, 0.0]);
    }

    #[test]
    fn empty_stream_builds_one_empty_window() {
        let r = TelemetryReport::build(Vec::new(), 1, SimDuration::from_secs(1));
        assert_eq!(r.shards[0].queue_depth.points().len(), 1);
        assert_eq!(r.shards[0].response_p90_s.ys(), vec![0.0]);
        assert!(r.to_jsonl().is_empty());
    }

    #[test]
    fn timeline_renders() {
        let r = TelemetryReport::build(sample_stream(), 2, SimDuration::from_secs(1));
        let timeline = r.ascii_timeline();
        assert!(timeline.contains("t_end_s"));
        assert!(timeline.contains('#'));
    }

    #[test]
    #[should_panic(expected = "zero telemetry window")]
    fn zero_window_rejected() {
        TelemetryReport::build(Vec::new(), 1, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "but report spans")]
    fn out_of_range_shard_rejected() {
        let events = vec![ev(
            0,
            5,
            0,
            EventKind::Decision {
                bucket: 0,
                candidates: 1,
                frontier: false,
            },
        )];
        TelemetryReport::build(events, 2, SimDuration::from_secs(1));
    }
}
