//! Streaming statistics and reporting utilities for LifeRaft experiments.
//!
//! The paper's evaluation reports query throughput, mean response time,
//! coefficient of variation (Figure 7b), normalized trade-off curves
//! (Figure 4), and cumulative distributions (Figure 6). This crate provides
//! the numerically careful building blocks for them:
//!
//! - [`StreamingStats`] — Welford-style single-pass mean/variance,
//! - [`Summary`] — percentile summaries of a sample,
//! - [`table::Table`] — aligned ASCII tables for the figure harnesses,
//! - [`series::Series`] — labelled (x, y) sequences emitted by sweeps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod series;
pub mod stats;
pub mod table;

pub use series::Series;
pub use stats::{StreamingStats, Summary};
pub use table::Table;
