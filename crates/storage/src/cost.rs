//! The batch cost model: the paper's `Tb`/`Tm` constants, the indexed
//! join's probe costs, and the hybrid threshold that picks a batch's plan.

use crate::simtime::SimDuration;

/// Which plan a batch was (or would be) executed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// Full-bucket sequential scan + merge sweep.
    SequentialScan,
    /// Per-entry probes of the spatial index.
    Indexed,
}

impl std::fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinStrategy::SequentialScan => f.write_str("scan"),
            JoinStrategy::Indexed => f.write_str("indexed"),
        }
    }
}

/// Cost constants for evaluating one bucket batch, and the threshold that
/// chooses between its two plans.
///
/// The executor plans and prices every batch through
/// [`charge`](Self::charge). The workload throughput metric (Eq. 1) reads
/// `Tb` and `Tm` from the same model, so it prices a batch as a scan; for a
/// batch the threshold sends to the index, Eq. 1 and the charge differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// `Tb`: time to read one bucket from disk (sequential scan).
    pub tb: SimDuration,
    /// `Tm`: time to cross-match a single workload object in memory.
    pub tm: SimDuration,
    /// Cost of one random index probe (per workload object in an indexed join).
    pub probe: SimDuration,
    /// Fixed per-batch overhead of opening an indexed plan (root/interior
    /// index pages, plan setup). Keeps tiny indexed batches from appearing
    /// free.
    pub index_overhead: SimDuration,
    /// Queue-to-bucket size ratio below which an uncached batch is joined
    /// through the index: the paper's "pre-determined threshold" (§3.4),
    /// its empirical break-even 0.03. Zero never indexes — the scan-only
    /// configuration of the α-sweep experiments before Section 3.4.
    pub threshold_ratio: f64,
}

impl CostModel {
    /// The paper's empirical constants for 40 MB buckets of 10 000 objects:
    /// `Tb = 1.2 s`, `Tm = 0.13 ms` (Section 5), a probe cost derived from
    /// its disk array, and the 3% hybrid threshold (Figure 2).
    pub fn paper() -> Self {
        CostModel {
            tb: SimDuration::from_secs_f64(1.2),
            tm: SimDuration::from_millis_f64(0.13),
            probe: paper_probe(),
            index_overhead: SimDuration::from_millis(60),
            threshold_ratio: 0.03,
        }
    }

    /// Plans and prices a batch of `queue_len` entries against a bucket of
    /// `bucket_objects` rows: the hybrid join's decision (§3.4) and the
    /// batch's cost under it.
    ///
    /// A cached bucket is always scanned: φ = 0 removes the scan's I/O term
    /// entirely, and an in-memory merge beats per-entry probing for any
    /// queue length. An empty bucket is scanned too. Otherwise the batch is
    /// indexed iff `queue_len / bucket_objects < threshold_ratio`; a zero
    /// threshold never indexes.
    pub fn charge(
        &self,
        queue_len: u64,
        bucket_objects: u64,
        cached: bool,
    ) -> (JoinStrategy, SimDuration) {
        let indexed = !cached
            && bucket_objects > 0
            && (queue_len as f64 / bucket_objects as f64) < self.threshold_ratio;
        if indexed {
            (JoinStrategy::Indexed, self.indexed_batch(queue_len))
        } else {
            (
                JoinStrategy::SequentialScan,
                self.scan_batch(queue_len, cached),
            )
        }
    }

    /// Cost of a sequential-scan batch: `φ·Tb + W·Tm` (Eq. 1's denominator).
    ///
    /// `cached` is true when the bucket is in the bucket cache (φ = 0).
    pub fn scan_batch(&self, workload_len: u64, cached: bool) -> SimDuration {
        let io = if cached { SimDuration::ZERO } else { self.tb };
        io + self.tm.times(workload_len)
    }

    /// Cost of an indexed batch: fixed overhead plus one probe and one match
    /// per workload object. Probes bypass the bucket cache (random pages are
    /// not bucket-resident), so there is no `cached` discount.
    pub fn indexed_batch(&self, workload_len: u64) -> SimDuration {
        self.index_overhead + (self.probe + self.tm).times(workload_len)
    }

    /// The workload-queue length at which an indexed join stops being
    /// cheaper than an uncached scan (the hybrid strategy's break-even,
    /// Figure 2: "roughly 3% of the size of the bucket").
    pub fn break_even_queue_len(&self) -> u64 {
        // overhead + w·(probe + tm) = tb + w·tm  ⇒  w = (tb − overhead)/probe
        let tb = self.tb.as_micros() as f64;
        let oh = self.index_overhead.as_micros() as f64;
        let probe = self.probe.as_micros() as f64;
        if probe <= 0.0 || oh >= tb {
            return 0;
        }
        ((tb - oh) / probe).floor() as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// The paper's probe cost, derived from its disk array (Section 5: data
/// striped "across 15 sets of mirrored disks"). A probe reads one 8 KiB
/// leaf page at a random position — an 8 ms seek, 4.17 ms of rotation
/// (7200 rpm) and the page at 33.7 MB/s — and a stream of probes keeps 3.2
/// spindles seeking at once. Interior pages are hot and priced in
/// `index_overhead`. The same positioning and rate read a 40 MB bucket in
/// ≈ `Tb` = 1.2 s, the rate modest because the paper flushes the DBMS
/// buffer after every bucket read.
fn paper_probe() -> SimDuration {
    const SEEK_MS: f64 = 8.0;
    const ROTATION_MS: f64 = 4.17;
    const TRANSFER_MB_PER_S: f64 = 33.7;
    const PAGE_BYTES: f64 = 8.0 * 1024.0;
    const RANDOM_CONCURRENCY: f64 = 3.2;
    let transfer_s = PAGE_BYTES / (TRANSFER_MB_PER_S * 1024.0 * 1024.0);
    let page = SimDuration::from_secs_f64((SEEK_MS + ROTATION_MS) / 1e3 + transfer_s);
    SimDuration::from_secs_f64(page.as_secs_f64() / RANDOM_CONCURRENCY)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap, deterministic model: Tb=1 s, Tm=1 ms, probe=10 ms,
    /// overhead=0, the paper's threshold.
    fn simple() -> CostModel {
        CostModel {
            tb: SimDuration::from_secs(1),
            tm: SimDuration::from_millis(1),
            probe: SimDuration::from_millis(10),
            index_overhead: SimDuration::ZERO,
            threshold_ratio: 0.03,
        }
    }

    /// Speed-up of a (non-indexed) scan over an indexed join for a batch of
    /// `workload_len` objects — the y-axis of Figure 2. Values > 1 mean the
    /// scan wins.
    fn scan_speedup(c: &CostModel, workload_len: u64) -> f64 {
        let scan = c.scan_batch(workload_len, false).as_micros() as f64;
        let indexed = c.indexed_batch(workload_len).as_micros() as f64;
        indexed / scan
    }

    #[test]
    fn paper_prices_are_pinned_in_micros() {
        // The probe is round(round(12 401.825) / 3.2) µs: one random page
        // read of the paper's disk, spread over 3.2 spindles.
        let c = CostModel::paper();
        assert_eq!(c.tb.as_micros(), 1_200_000);
        assert_eq!(c.tm.as_micros(), 130);
        assert_eq!(c.probe.as_micros(), 3_876);
        assert_eq!(c.index_overhead.as_micros(), 60_000);
        assert_eq!(c.threshold_ratio, 0.03);
        // (1 200 000 − 60 000) / 3 876 = 294.1: Figure 2's break-even at
        // 2.94% of a 10 000-object bucket.
        assert_eq!(c.break_even_queue_len(), 294);
    }

    #[test]
    fn scan_batch_formula() {
        let c = simple();
        // Uncached: 1s + 100 * 1ms
        assert_eq!(c.scan_batch(100, false).as_millis_f64(), 1100.0);
        // Cached: only matching.
        assert_eq!(c.scan_batch(100, true).as_millis_f64(), 100.0);
        assert_eq!(c.scan_batch(0, true), SimDuration::ZERO);
    }

    #[test]
    fn indexed_batch_formula() {
        let c = simple();
        // 100 * (10ms + 1ms) = 1.1s
        assert_eq!(c.indexed_batch(100).as_millis_f64(), 1100.0);
        assert_eq!(c.indexed_batch(0), SimDuration::ZERO);
    }

    #[test]
    fn cached_buckets_always_scan() {
        let c = CostModel::paper();
        for w in [1, 299, 10_000] {
            assert_eq!(c.charge(w, 10_000, true).0, JoinStrategy::SequentialScan);
        }
    }

    #[test]
    fn empty_bucket_scans() {
        let c = CostModel::paper();
        assert_eq!(c.charge(5, 0, false).0, JoinStrategy::SequentialScan);
    }

    #[test]
    fn zero_threshold_never_indexes() {
        let c = CostModel {
            threshold_ratio: 0.0,
            ..CostModel::paper()
        };
        for w in [0, 1, 299, 10_000] {
            assert_eq!(c.charge(w, 10_000, false).0, JoinStrategy::SequentialScan);
        }
    }

    #[test]
    fn ratio_below_threshold_indexes_and_equal_scans() {
        // 10 000-object bucket at 3%: 299 → indexed, 300 → scan.
        let c = CostModel::paper();
        assert_eq!(c.charge(299, 10_000, false).0, JoinStrategy::Indexed);
        assert_eq!(c.charge(300, 10_000, false).0, JoinStrategy::SequentialScan);
    }

    #[test]
    fn threshold_at_break_even_splits_there() {
        // A threshold derived from the cost model instead of the empirical
        // constant: the ratio where `overhead + W·probe = Tb`.
        let paper = CostModel::paper();
        let w = paper.break_even_queue_len();
        let c = CostModel {
            threshold_ratio: w as f64 / 10_000.0,
            ..paper
        };
        assert_eq!(c.charge(w - 1, 10_000, false).0, JoinStrategy::Indexed);
        assert_eq!(
            c.charge(w + 1, 10_000, false).0,
            JoinStrategy::SequentialScan
        );
    }

    #[test]
    fn each_plan_costs_its_arm() {
        let c = CostModel::paper();
        for (w, cached) in [
            (1, false),
            (299, false),
            (300, false),
            (5, true),
            (10_000, true),
        ] {
            let (plan, cost) = c.charge(w, 10_000, cached);
            let arm = match plan {
                JoinStrategy::SequentialScan => c.scan_batch(w, cached),
                JoinStrategy::Indexed => c.indexed_batch(w),
            };
            assert_eq!(cost, arm, "W = {w}, cached = {cached}");
        }
    }

    #[test]
    fn strategy_display() {
        assert_eq!(JoinStrategy::SequentialScan.to_string(), "scan");
        assert_eq!(JoinStrategy::Indexed.to_string(), "indexed");
    }

    #[test]
    fn indexed_wins_below_break_even_scan_wins_above() {
        let c = CostModel::paper();
        let w = c.break_even_queue_len();
        assert!(scan_speedup(&c, w.saturating_sub(10).max(1)) < 1.0);
        assert!(scan_speedup(&c, w + 10) > 1.0);
    }

    #[test]
    fn speedup_is_monotonic_in_queue_length() {
        let c = CostModel::paper();
        let mut last = 0.0;
        for w in [1u64, 10, 100, 1_000, 10_000] {
            let s = scan_speedup(&c, w);
            assert!(s > last, "speedup must grow with contention");
            last = s;
        }
    }

    #[test]
    fn twenty_fold_gap_at_full_bucket() {
        // "we observe up to a twenty fold performance gap" — at W = bucket
        // size (10 000), the scan should win by an order of magnitude or two.
        let c = CostModel::paper();
        let s = scan_speedup(&c, 10_000);
        assert!((10.0..100.0).contains(&s), "full-bucket speedup {s}");
    }
}
