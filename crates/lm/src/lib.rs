//! # xclean-lm
//!
//! Probabilistic models used by XClean's scoring function (§IV of the
//! paper): the exponential-decay typographical [`ErrorModel`]
//! `P(q|w) ∝ exp(−β·ed(q,w))` (plus the single-error
//! [`MaysErrorModel`] of Eq. 3 it generalises) and the smoothed unigram
//! language model over entity virtual documents, [`LanguageModel`]: the
//! paper's Dirichlet scheme, and Jelinek–Mercer interpolation for the
//! smoothing ablation ([`Smoothing`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod dirichlet;
pub mod error_model;
pub mod smoothing;

pub use error_model::{ErrorModel, MaysErrorModel};
pub use smoothing::{LanguageModel, Smoothing};
