//! The path `xbench/` names the JSON codec by.
//!
//! JSON syntax lives in [`xclean_telemetry::json`] (value, strict parser,
//! escaper, printer — the workspace's only ones); this crate's own code
//! imports it from there. This module is a re-export kept for one named
//! consumer: `xbench/src/{registry,workloads,selfcheck,probes,spans}.rs`
//! import `xclean_server::json::{self, Json}`, and product PRs may not
//! edit the benchmark. Once a `[benchmark]` PR points `xbench` at
//! `xclean_telemetry::json`, delete this file.

pub use xclean_telemetry::json::{escape, parse, Json, JsonError};
