//! Simulated storage substrate for LifeRaft.
//!
//! The paper evaluates LifeRaft on SQL Server 2005 over a 6 TB SDSS archive
//! striped across 15 mirrored disk sets, but reduces storage behaviour to an
//! explicit cost model: reading a 40 MB bucket costs `Tb = 1.2 s`, matching
//! one object in memory costs `Tm = 0.13 ms`, and an LRU cache of 20 buckets
//! is managed *outside* the DBMS (the server's buffer is flushed after every
//! bucket read). This crate is that storage layer, made explicit:
//!
//! - [`SimTime`]/[`SimDuration`] — virtual time in microseconds,
//! - [`CostModel`] — the paper's constants (`Tb`, `Tm`, index overhead, a
//!   probe cost derived from its disk array) and the hybrid threshold;
//!   [`CostModel::charge`] plans and prices every batch as a
//!   [`JoinStrategy`] and its cost,
//! - [`BucketId`]/[`BucketMeta`] — bucket identity and extent metadata,
//! - [`BucketCache`] — the LRU bucket cache with hit/miss accounting
//!   (the φ(i) term of the workload throughput metric),
//! - [`IoStats`] — bucket-read and index-probe counts reported by experiments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bucket;
pub mod cache;
pub mod cost;
pub mod iostats;
pub mod simtime;

pub use bucket::{BucketId, BucketMeta};
pub use cache::{BucketCache, CacheAccess};
pub use cost::{CostModel, JoinStrategy};
pub use iostats::IoStats;
pub use simtime::{SimDuration, SimTime};
