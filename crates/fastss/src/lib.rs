//! # xclean-fastss
//!
//! Approximate string matching under edit-distance constraints, as used by
//! XClean's variant generation step (§V-A of the paper): a partitioned
//! FastSS index built over the vocabulary's ε-deletion neighbourhoods, plus
//! a Myers bit-parallel Levenshtein verifier (≤64-scalar fast path with a
//! classic banded-DP fallback).
//!
//! ```
//! use xclean_fastss::{VariantIndex, VariantIndexConfig};
//! let vocab = ["tree", "trees", "trie", "icde", "icdt"];
//! let idx = VariantIndex::build(&vocab, VariantIndexConfig { epsilon: 1, ..Default::default() });
//! let vars: Vec<&str> = idx.query("tree").iter().map(|m| vocab[m.word as usize]).collect();
//! assert_eq!(vars, ["tree", "trees", "trie"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edit_distance;
pub mod index;
pub mod myers;
pub mod neighborhood;
pub mod soundex;

pub use edit_distance::{edit_distance, edit_distance_within};
pub use index::{NaiveVariantFinder, TableStats, VariantIndex, VariantIndexConfig, VariantMatch};
pub use neighborhood::{deletion_neighborhood, neighborhood_bound};
pub use soundex::{soundex, sounds_like, SoundexCode};
