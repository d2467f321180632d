//! The repo benchmark: four closed-loop, whole-pass workloads over one
//! generated corpus and query pool, seven end-to-end metrics, and a
//! per-layer table measured from outside the product crates.
//!
//! `BENCHMARK.json` at the repo root names the workloads and metrics;
//! `README.md` beside this crate says why each exists and how the bounds
//! were derived.

pub mod affinity;
pub mod client;
pub mod error;
pub mod probes;
pub mod reference;
pub mod registry;
pub mod rig;
pub mod run;
pub mod selfcheck;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
