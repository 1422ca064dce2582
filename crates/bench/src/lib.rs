//! Benchmark harness regenerating every figure of the LifeRaft paper.
//!
//! The paper's evaluation consists of Figures 2 and 4–8 plus a cache-hit
//! statistic quoted in Section 6; [`figures`] contains one reproduction
//! function per artifact, each printing the same rows/series the paper
//! reports and returning structured results for assertions. [`experiments`]
//! builds the shared catalog/trace fixtures at two scales,
//! [`experiments::Scale::full`] (the paper's 40 MB bucket geometry) and
//! [`experiments::Scale::quick`] for fast iteration
//! (`LIFERAFT_SCALE=quick cargo bench`); the constructors hold the numbers.
//! [`federation`] chains archives past the paper's single site, for the
//! `federation_chain` example.
//!
//! Run everything with `cargo bench -p liferaft-bench --bench figures`, or a
//! single artifact with `cargo bench -p liferaft-bench --bench figures -- fig7`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod federation;
pub mod figures;
