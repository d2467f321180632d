//! # xclean-eval
//!
//! Evaluation harness reproducing the paper's experiment suite (§VII):
//! metric definitions (MRR, Precision@N), the uniform [`Suggester`]
//! interface over XClean / PY08 / simulated search engines, shared dataset
//! construction, every experiment as an [`Experiment`] returning a typed
//! [`Report`], and the `exp` binary that prints them; see DESIGN.md §4 for
//! the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod report;
pub mod systems;

pub use experiments::Experiment;
pub use harness::{default_threads, run_set, SetResult};
pub use metrics::{reciprocal_rank, MetricAccumulator, MetricSummary};
pub use report::{Cell, Report, Table};
pub use systems::{Py08Suggester, SeSuggester, Suggester, XCleanSuggester};
