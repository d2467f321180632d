//! Scoring view: one corpus-access seam for a plain corpus and for each
//! shard of a set (the per-shard walks of [`crate::pipeline`]).
//!
//! Algorithm 1 touches the corpus through a handful of read paths: merged
//! posting lists, the background language model, per-token path statistics
//! (`f_w^p`), node→path lookups, and the prior normalisers. A sharded run
//! must answer all of those in *global* terms — global token ids, global
//! path ids, whole-collection statistics — while walking a single shard's
//! tree and postings, or its scores would diverge from the unsharded run.
//! [`Scoring`] routes each read either straight to the backing
//! [`CorpusIndex`] (identity view; the only extra cost on the unsharded
//! hot path is one predictable branch per call) or through a
//! [`ShardScope`] that remaps ids and substitutes reconstructed global
//! statistics.
//!
//! The exactness argument (DESIGN.md §16) rests on the scoped reads being
//! *bit-identical* to the unsharded ones: [`GlobalStats`] is rebuilt from
//! exact integer sums across shards, so every derived `f64` (background
//! probabilities, smoothed language-model terms, utilities, normalisers)
//! is computed from the same integers the unsharded corpus holds.

use xclean_index::{CorpusIndex, Entities, LevelTable, PostingList, TokenId, Vocabulary};
use xclean_lm::{LanguageModel, Smoothing};
use xclean_xmltree::{NodeId, PathId, XmlTree};

/// Whole-collection statistics reconstructed by exact integer summation
/// over a shard set (see `ShardedEngine::from_shards`). Indexed by
/// *global* token and path ids.
#[derive(Debug)]
pub(crate) struct GlobalStats {
    /// Global vocabulary with summed `cf`/`df` — the background model.
    pub(crate) vocab: Vocabulary,
    /// Per global token: `(global path, f_w^p)` sorted by path id.
    pub(crate) paths_of: Vec<Vec<(PathId, u32)>>,
    /// Depth of each global path.
    pub(crate) path_depths: Vec<u32>,
    /// Display form (`/a/b/c`) of each global path, for serving layers.
    pub(crate) path_display: Vec<String>,
    /// Number of nodes of each global path (uniform-prior normaliser).
    pub(crate) path_node_counts: Vec<u32>,
    /// Summed virtual-document length over nodes of each global path
    /// (doc-length-prior normaliser).
    pub(crate) path_doc_len_totals: Vec<u64>,
}

/// A [`ShardScope::to_local_token`] entry for a global token the shard
/// does not hold.
pub(crate) const ABSENT_TOKEN: u32 = u32::MAX;

/// Shard-local id remapping plus the global statistics, borrowed from a
/// `Pipeline` for the duration of one query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardScope<'a> {
    /// Global token id → this shard's local token id, [`ABSENT_TOKEN`]
    /// when the token does not occur in the shard.
    pub(crate) to_local_token: &'a [u32],
    /// This shard's local path id → global path id (total: every local
    /// path exists globally by construction).
    pub(crate) local_to_global_path: &'a [PathId],
    /// Reconstructed whole-collection statistics.
    pub(crate) global: &'a GlobalStats,
    /// Shared empty list returned for tokens absent from the shard.
    pub(crate) empty: &'a PostingList,
}

/// Corpus reads for one scoring run: identity over a [`CorpusIndex`], or
/// shard-scoped with global ids and statistics (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scoring<'a> {
    corpus: &'a CorpusIndex,
    scope: Option<ShardScope<'a>>,
}

impl<'a> Scoring<'a> {
    /// Identity view: every read goes straight to the corpus.
    pub(crate) fn unsharded(corpus: &'a CorpusIndex) -> Self {
        Scoring {
            corpus,
            scope: None,
        }
    }

    /// Shard-scoped view over one shard's corpus.
    pub(crate) fn sharded(corpus: &'a CorpusIndex, scope: ShardScope<'a>) -> Self {
        Scoring {
            corpus,
            scope: Some(scope),
        }
    }

    /// The tree being walked (the shard's own tree under a scope).
    #[inline]
    pub(crate) fn tree(&self) -> &'a XmlTree {
        self.corpus.tree()
    }

    /// The depth-`depth` subtrees of the tree being walked (entry paths
    /// are local: map them with [`Scoring::global_path`]).
    #[inline]
    pub(crate) fn level(&self, depth: u32) -> &'a LevelTable {
        self.corpus.level(depth)
    }

    /// Posting list of a (global) token within this view's tree. Tokens
    /// absent from a scoped shard yield the shared empty list, which the
    /// walk treats as an immediately-exhausted merged-list member.
    #[inline]
    pub(crate) fn postings(&self, token: TokenId) -> &'a PostingList {
        match &self.scope {
            None => self.corpus.postings(token),
            Some(s) => match s.to_local_token[token.index()] {
                ABSENT_TOKEN => s.empty,
                local => self.corpus.postings(TokenId(local)),
            },
        }
    }

    /// The depth-`depth` entity bitmap and sums of a (global) token within
    /// this view's tree, if the view's level table keeps one
    /// ([`CorpusIndex::entity_bitmap`], under the shard's local id).
    #[inline]
    pub(crate) fn entity_bitmap(&self, depth: u32, token: TokenId) -> Option<Entities<'a, [u64]>> {
        let local = match &self.scope {
            None => token,
            Some(s) => match s.to_local_token[token.index()] {
                ABSENT_TOKEN => return None,
                local => TokenId(local),
            },
        };
        self.corpus.entity_bitmap(depth, local)
    }

    /// The depth-`depth` entity list and sums of a (global) token within
    /// this view's tree, in local positions
    /// ([`CorpusIndex::entity_positions`], under the shard's local id);
    /// empty for a token absent from a shard.
    #[inline]
    pub(crate) fn entity_positions(&self, depth: u32, token: TokenId) -> Entities<'a, [u32]> {
        let local = match &self.scope {
            None => token,
            Some(s) => match s.to_local_token[token.index()] {
                ABSENT_TOKEN => {
                    return Entities {
                        set: &[],
                        sums: &[],
                    }
                }
                local => TokenId(local),
            },
        };
        self.corpus.entity_positions(depth, local)
    }

    /// The background language model: whole-collection statistics in both
    /// views, so smoothing is bit-identical (see
    /// [`LanguageModel::from_vocab`]).
    #[inline]
    pub(crate) fn language_model(&self, smoothing: Smoothing) -> LanguageModel<'a> {
        match &self.scope {
            None => LanguageModel::new(self.corpus, smoothing),
            Some(s) => LanguageModel::from_vocab(&s.global.vocab, smoothing),
        }
    }

    /// Virtual-document length of an entity node (shard-local trees hold
    /// each entity's whole subtree, so this needs no remapping).
    #[inline]
    pub(crate) fn doc_len(&self, r: NodeId) -> u64 {
        self.corpus.doc_len(r)
    }

    /// The *global* path id of a node of this view's tree.
    #[inline]
    pub(crate) fn node_path(&self, n: NodeId) -> PathId {
        self.global_path(self.tree().path(n))
    }

    /// The *global* id of a path of this view's tree.
    #[inline]
    pub(crate) fn global_path(&self, local: PathId) -> PathId {
        match &self.scope {
            None => local,
            Some(s) => s.local_to_global_path[local.0 as usize],
        }
    }

    /// Depth of a global path.
    #[inline]
    pub(crate) fn path_depth(&self, path: PathId) -> u32 {
        match &self.scope {
            None => self.tree().paths().depth(path),
            Some(s) => s.global.path_depths[path.0 as usize],
        }
    }

    /// The `(global path, f_w^p)` list of a global token, sorted by path
    /// id (empty for tokens with no occurrences).
    #[inline]
    pub(crate) fn paths_of(&self, token: TokenId) -> &'a [(PathId, u32)] {
        match &self.scope {
            None => self.corpus.path_stats().paths_of(token),
            Some(s) => &s.global.paths_of[token.index()],
        }
    }

    /// `f_w^p` for one (global token, global path) pair, 0 if absent.
    #[inline]
    pub(crate) fn f(&self, token: TokenId, path: PathId) -> u32 {
        match &self.scope {
            None => self.corpus.path_stats().f(token, path),
            Some(s) => {
                let list = &s.global.paths_of[token.index()];
                match list.binary_search_by_key(&path, |&(p, _)| p) {
                    Ok(i) => list[i].1,
                    Err(_) => 0,
                }
            }
        }
    }

    /// Number of nodes of a global path (uniform-prior normaliser).
    #[inline]
    pub(crate) fn count_nodes_of_path(&self, path: PathId) -> usize {
        match &self.scope {
            None => self.corpus.count_nodes_of_path(path),
            Some(s) => s
                .global
                .path_node_counts
                .get(path.0 as usize)
                .copied()
                .unwrap_or(0) as usize,
        }
    }

    /// Summed doc length over nodes of a global path (doc-length-prior
    /// normaliser).
    #[inline]
    pub(crate) fn path_doc_len_total(&self, path: PathId) -> u64 {
        match &self.scope {
            None => self.corpus.path_doc_len_total(path),
            Some(s) => s
                .global
                .path_doc_len_totals
                .get(path.0 as usize)
                .copied()
                .unwrap_or(0),
        }
    }
}
