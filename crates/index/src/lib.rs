//! # xclean-index
//!
//! Inverted-index substrate for the XClean reproduction: the vocabulary,
//! document-order posting lists of `(node, tf)` entries with an
//! exponential-search seek ([`PostingList::skip_from`], the paper's
//! `skip_to` of §V-C, for one list), the per-depth level tables the walk
//! gates and scans with, per-token path statistics `f_w^p` (§V-B), and a
//! compact varint wire format for posting lists.
//!
//! [`CorpusIndex::build`] constructs all of it in one pass over a parsed
//! [`xclean_xmltree::XmlTree`] and holds it the way a loaded snapshot
//! does: as views over v2 section bytes ([`storage`]).

#![deny(unsafe_code)] // one vetted exception: slab::mmap (mmap(2)/munmap(2) FFI)
#![warn(missing_docs)]

pub mod codec;
pub mod corpus;
pub mod level;
pub mod path_stats;
pub mod posting;
pub mod shard;
pub mod slab;
pub mod storage;
pub mod vocab;

pub use corpus::{CorpusIndex, SnapshotProvenance};
pub use level::{Entities, LevelEntry, LevelTable};
pub use path_stats::PathStatsIndex;
pub use posting::{AccessStats, MergedEntry, Posting, PostingList};
pub use shard::{
    open_corpus, partition_corpus, reassemble_parent, OpenError, SetProvenance, ShardError,
    ShardMeta,
};
pub use slab::IndexSlab;
pub use storage::{LoadReport, OpenOptions, SectionInfo, SnapshotSummary, StorageError};
pub use vocab::{TokenId, Vocabulary};
