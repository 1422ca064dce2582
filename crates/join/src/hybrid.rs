//! The hybrid join strategy: scan or index, decided per batch.
//!
//! "We employ a hybrid strategy that determines the join plan, either an
//! indexed join or a non-index sequential scan, for each bucket depending on
//! the workload queue size. A pre-determined threshold is used to determine
//! the appropriate join strategy. […] The break even point occurs when the
//! size of the workload queue is roughly 3% of the size of the bucket."
//! — Section 3.4, Figure 2.
//!
//! The decision is priced and made once, by
//! [`CostModel::charge`](liferaft_storage::CostModel::charge); this module
//! runs the plan it returns.

use liferaft_catalog::SkyObject;
use liferaft_query::QueueEntry;
pub use liferaft_storage::JoinStrategy;

use crate::indexed::indexed_join;
use crate::sweep::sweep_join;
use crate::types::JoinOutput;

/// Executes a batch with the given strategy (result is strategy-independent;
/// only the access pattern differs).
pub fn execute(strategy: JoinStrategy, bucket: &[SkyObject], entries: &[QueueEntry]) -> JoinOutput {
    match strategy {
        JoinStrategy::SequentialScan => sweep_join(bucket, entries),
        JoinStrategy::Indexed => indexed_join(bucket, entries),
    }
}
