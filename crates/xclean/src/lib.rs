//! # xclean
//!
//! Core of the XClean reproduction: valid spelling suggestions for XML
//! keyword queries (Lu, Wang, Li, Liu — ICDE 2011).
//!
//! The engine scores candidate alternative queries by the quality of their
//! query results in the data (Eq. 10 of the paper):
//!
//! ```text
//! P(C|Q,T) ∝ P(Q|C) · (1/N) Σ_r Π_{w∈C} P(w|D(r))
//! ```
//!
//! and computes the top-k candidates in a single pass over the variants'
//! inverted lists (Algorithm 1), with result-type inference (Eq. 7),
//! minimal-depth gating, skip-based list alignment, and probabilistic
//! accumulator pruning (§V-D).
//!
//! ```
//! use xclean::{XCleanConfig, XCleanEngine};
//! use xclean_xmltree::parse_document;
//!
//! let tree = parse_document(
//!     "<dblp><article><author>smith</author><title>health insurance</title></article></dblp>",
//! ).unwrap();
//! let engine = XCleanEngine::new(tree, XCleanConfig::default());
//! let response = engine.suggest("helth insurance");
//! assert_eq!(response.suggestions[0].terms, vec!["health", "insurance"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod arena;
pub mod candidates;
pub mod catalog;
pub mod config;
pub mod elca;
pub mod engine;
pub mod explain;
pub mod pipeline;
pub mod pruning;
#[cfg(test)]
mod reference;
pub mod result_type;
pub mod sharded;
pub mod slca;
pub mod space_edits;
pub mod variants;
mod view;
pub mod walk;
#[cfg(test)]
mod walk_differential;

pub use algorithm::{run_xclean, KeywordSlot, RunOutput, RunStats, ScoredCandidate};
pub use arena::QueryArena;
pub use candidates::{CandId, CandidateTable, TypeSlot};
pub use catalog::{Catalog, CatalogError, CorpusSpec};
pub use config::{EntityPrior, XCleanConfig};
pub use elca::{elca_of_lists, run_elca};
pub use engine::XCleanEngine;
pub use explain::{
    EvictionExplain, ExplainTrace, GammaEventKind, KeywordExplain, StageCounts, StageNanos,
    VariantExplain, MAX_EXPLAIN_EVICTIONS,
};
pub use pipeline::{Pipeline, Semantics, SuggestResponse, Suggestion};
pub use pruning::{Accumulator, AccumulatorTable, CandidateKey, GammaEvent, PruningStats};
pub use result_type::{find_result_type, ResultType};
pub use sharded::{ShardedEngine, ShardedEngineError};
pub use slca::{run_slca, slca_of_lists};
pub use space_edits::{expand_space_edits, SpaceVariant};
pub use variants::{Variant, VariantGenerator};
pub use xclean_telemetry as telemetry;
pub use xclean_telemetry::Telemetry;
