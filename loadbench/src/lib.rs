//! # loadbench: the end-to-end benchmark of the FOL serving stack
//!
//! One command runs a seeded closed-loop workload against `fol-serve`
//! (in-process) or `fol-net` (loopback), checks every answer against the
//! generator's key model, and prints the end-to-end metrics; a traced run of
//! the same windows prints per-layer metrics. See `README.md` next to this
//! package for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod metrics;
pub mod provenance;
pub mod run;
pub mod shadow;
pub mod stats;
pub mod target;
pub mod trace;
