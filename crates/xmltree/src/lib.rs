//! # xclean-xmltree
//!
//! XML substrate for the XClean reproduction (Lu et al., *XClean: Providing
//! Valid Spelling Suggestions for XML Keyword Queries*, ICDE 2011).
//!
//! Provides the data model of §III of the paper:
//!
//! * a rooted, node-labelled, ordered tree ([`XmlTree`]) with attribute and
//!   PCDATA nodes folded into element nodes;
//! * [`Dewey`] codes with document-order and ancestor–descendant
//!   comparisons in `O(depth)`;
//! * interned label paths ([`PathId`]) serving as node *types*;
//! * a tokenizer implementing the paper's vocabulary rules (lowercase,
//!   split on whitespace/punctuation, drop stop words / numbers / short
//!   tokens);
//! * a small non-validating XML parser and writer, and dataset statistics
//!   for the paper's Table I.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dewey;
pub mod error;
pub mod flat;
pub mod label;
pub mod parser;
pub mod stats;
pub mod tokenize;
pub mod tree;
pub mod writer;

pub use dewey::Dewey;
pub use error::{XmlError, XmlResult};
pub use flat::{PreorderAssembler, TreeAssemblyError};
pub use label::{IdBuildHasher, IdHasher, LabelId, LabelTable, PathId, PathTable};
pub use parser::{parse_collection, parse_document};
pub use stats::TreeStats;
pub use tokenize::{Tokenizer, TokenizerConfig};
pub use tree::{NodeId, TreeBuilder, XmlTree};
pub use writer::to_xml;
