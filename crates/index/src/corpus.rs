//! The corpus index: everything XClean needs at query time, built in one
//! pass over an [`XmlTree`].
//!
//! Bundles the vocabulary, one document-order posting list per token
//! (§V-C), the per-token path statistics (§V-B), and per-node virtual
//! document lengths (|D(r)|, §IV-B2, stored as a prefix-sum array so any
//! subtree length is O(1)).
//!
//! An index has one form: a view over the bytes of a v2 snapshot
//! (DESIGN.md §11). [`CorpusIndex::build_with`] tokenises the tree into
//! builder-local `Parts`, encodes them once with the v2 section encoder
//! and views the result exactly as `storage::open_file` views a file, so a
//! freshly built corpus and a loaded one read postings, terms and path
//! statistics through the same code.

use std::collections::HashMap;
use std::sync::OnceLock;

use xclean_xmltree::{IdBuildHasher, NodeId, PathId, Tokenizer, XmlTree};

use crate::level::{Entities, LevelTable};
use crate::path_stats::PathStatsIndex;
use crate::posting::PostingList;
use crate::shard::ShardMeta;
use crate::slab::Blobs;
use crate::storage::v2;
use crate::vocab::{TokenId, Vocabulary};

/// Where a snapshot-loaded index came from — folded into the engine
/// fingerprint so cache keys distinguish loads only when bytes differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotProvenance {
    /// On-disk format version (2 for `XCLIDX2`).
    pub format_version: u8,
    /// FNV-1a 64 checksum of the snapshot payload.
    pub checksum: u64,
}

/// What tokenising a tree yields before the one v2 encode: the per-token
/// and per-node columns in id order.
#[derive(Debug, Default)]
pub(crate) struct Parts {
    /// Term of each token id (distinct).
    pub(crate) terms: Vec<String>,
    /// Collection frequency per token.
    pub(crate) cf: Vec<u64>,
    /// Element-document frequency per token.
    pub(crate) df: Vec<u64>,
    /// Document-order posting list per token.
    pub(crate) lists: Vec<PostingList>,
    /// Direct token count per node.
    pub(crate) direct: Vec<u64>,
}

impl Parts {
    /// Tokenises every node's direct text: ids in first-occurrence order,
    /// one posting per (token, node). Each token is hashed once, into the
    /// intern map; a node's counts go into one dense column indexed by
    /// token id, and sorting the ids it touched gives its postings in id
    /// order.
    fn tokenize(tree: &XmlTree, tokenizer: &Tokenizer) -> Parts {
        let mut parts = Parts {
            direct: vec![0; tree.len()],
            ..Parts::default()
        };
        let mut ids: HashMap<String, TokenId, IdBuildHasher> = HashMap::default();
        let mut counts: Vec<u32> = Vec::new();
        let mut touched: Vec<TokenId> = Vec::new();
        for n in tree.iter() {
            let Some(text) = tree.text(n) else { continue };
            let mut node_tokens = 0u64;
            tokenizer.for_each_token(text, |t| {
                let id = match ids.get(t) {
                    Some(&id) => id,
                    None => {
                        let id = TokenId(parts.terms.len() as u32);
                        ids.insert(t.to_string(), id);
                        parts.terms.push(t.to_string());
                        parts.lists.push(PostingList::new());
                        counts.push(0);
                        id
                    }
                };
                let count = &mut counts[id.index()];
                if *count == 0 {
                    touched.push(id);
                }
                *count += 1;
                node_tokens += 1;
            });
            parts.direct[n.index()] = node_tokens;
            touched.sort_unstable();
            for id in touched.drain(..) {
                parts.lists[id.index()].push(n, std::mem::take(&mut counts[id.index()]));
            }
        }
        Parts::counted(parts.terms, parts.lists, parts.direct)
    }

    /// The parts of `terms`' posting `lists` and the nodes' `direct`
    /// counts, with each token's `cf` (Σ tf) and `df` (list length) read
    /// off its list.
    pub(crate) fn counted(terms: Vec<String>, lists: Vec<PostingList>, direct: Vec<u64>) -> Parts {
        let cf = lists
            .iter()
            .map(|l| l.tfs().iter().map(|&tf| u64::from(tf)).sum())
            .collect();
        let df = lists.iter().map(|l| l.len() as u64).collect();
        Parts {
            terms,
            cf,
            df,
            lists,
            direct,
        }
    }
}

/// Index over one XML corpus.
#[derive(Debug)]
pub struct CorpusIndex {
    tree: XmlTree,
    vocab: Vocabulary,
    /// One `codec::encode` blob per token.
    store: Blobs<PostingList>,
    path_stats: PathStatsIndex,
    /// The snapshot bytes the views above read, and the range of each
    /// section a save frames again.
    sections: v2::Sections,
    /// `token_prefix[i]` = total indexed tokens in nodes `0..i`; subtree
    /// token length of node `n` is `token_prefix[subtree_end] - token_prefix[n.0]`.
    token_prefix: Vec<u64>,
    /// Number of nodes per label path (dense, indexed by `PathId`); the
    /// `N` of the uniform entity prior (Eq. 8).
    path_node_counts: Vec<u32>,
    /// Total virtual-document length per label path: `Σ_{n: path(n)=p}
    /// doc_len(n)` — the normaliser of the document-length entity prior.
    path_doc_len_totals: Vec<u64>,
    /// One lazily built [`LevelTable`] per depth `0 ..= deepest + 1`; the
    /// last cell is the empty table every deeper request shares (see
    /// [`CorpusIndex::level`]).
    levels: Box<[OnceLock<LevelTable>]>,
    tokenizer: Tokenizer,
    /// Set by the loader on an index opened from a v2 file.
    pub(crate) provenance: Option<SnapshotProvenance>,
    /// Present iff this index is one shard of a partitioned corpus
    /// (set by the partitioner or loaded from a v2 `SHARD` section).
    pub(crate) shard: Option<ShardMeta>,
}

/// Derived per-node/per-path tables, all O(n) passes over the tree given
/// the direct token count of each node.
fn derived_tables(tree: &XmlTree, direct: &[u64]) -> (Vec<u64>, Vec<u32>, Vec<u64>) {
    let mut token_prefix = vec![0u64; tree.len() + 1];
    for i in 0..tree.len() {
        token_prefix[i + 1] = token_prefix[i] + direct[i];
    }
    let mut path_node_counts = vec![0u32; tree.paths().len()];
    let mut path_doc_len_totals = vec![0u64; tree.paths().len()];
    for n in tree.iter() {
        let p = tree.path(n).0 as usize;
        path_node_counts[p] += 1;
        let end = tree.subtree_end(n) as usize;
        path_doc_len_totals[p] += token_prefix[end] - token_prefix[n.index()];
    }
    (token_prefix, path_node_counts, path_doc_len_totals)
}

/// One unbuilt [`LevelTable`] cell per depth `0 ..= deepest + 1`. Every
/// node's label path is in the path table, so the deepest path bounds the
/// deepest node.
fn level_cells(tree: &XmlTree) -> Box<[OnceLock<LevelTable>]> {
    let paths = tree.paths();
    let deepest = paths.iter().map(|p| paths.depth(p)).max().unwrap_or(0);
    (0..deepest + 2).map(|_| OnceLock::new()).collect()
}

impl CorpusIndex {
    /// Builds the index, consuming the tree.
    pub fn build(tree: XmlTree) -> Self {
        Self::build_with(tree, Tokenizer::default())
    }

    /// Builds the index with a custom tokenizer: tokenises the tree,
    /// encodes the result as v2 sections and views them. The tree is
    /// kept as built, and the index carries no provenance.
    pub fn build_with(tree: XmlTree, tokenizer: Tokenizer) -> Self {
        let parts = Parts::tokenize(&tree, &tokenizer);
        v2::encode_and_view(tree, parts, tokenizer.config())
            .expect("a freshly encoded snapshot views cleanly")
    }

    /// Assembles an index from the views of a v2 snapshot's sections
    /// (see `storage::v2`). `direct[n]` is the stored per-node direct token
    /// count (the DIRECT section), so no posting list needs decoding to
    /// derive document lengths. The index starts with no provenance and
    /// no shard membership.
    pub(crate) fn from_views(
        tree: XmlTree,
        vocab: Vocabulary,
        store: Blobs<PostingList>,
        path_stats: PathStatsIndex,
        sections: v2::Sections,
        direct: Vec<u64>,
        tokenizer: Tokenizer,
    ) -> Result<Self, &'static str> {
        if store.len() != vocab.len() {
            return Err("one posting blob per vocabulary token required");
        }
        if path_stats.len() != vocab.len() {
            return Err("one path-stats blob per vocabulary token required");
        }
        if direct.len() != tree.len() {
            return Err("one direct token count per node required");
        }
        if direct.iter().copied().try_fold(0u64, u64::checked_add) != Some(vocab.total_tokens()) {
            return Err("direct token counts disagree with vocabulary total");
        }
        let (token_prefix, path_node_counts, path_doc_len_totals) = derived_tables(&tree, &direct);
        let levels = level_cells(&tree);
        Ok(CorpusIndex {
            tree,
            vocab,
            store,
            path_stats,
            sections,
            token_prefix,
            path_node_counts,
            path_doc_len_totals,
            levels,
            tokenizer,
            provenance: None,
            shard: None,
        })
    }

    /// The snapshot sections this index views (what a save frames).
    pub(crate) fn sections(&self) -> &v2::Sections {
        &self.sections
    }

    /// The underlying tree.
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The tokenizer the index was built with.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// The posting list of a token.
    pub fn postings(&self, token: TokenId) -> &PostingList {
        self.store.get(token.index())
    }

    /// The posting list of a token as stored (`codec` bytes), for a
    /// reader that decodes it once without keeping the result.
    pub(crate) fn encoded_postings(&self, token: TokenId) -> &[u8] {
        self.store.encoded(token.index())
    }

    /// Snapshot provenance, present only on snapshot-loaded indexes whose
    /// format records a payload checksum (v2).
    pub fn provenance(&self) -> Option<SnapshotProvenance> {
        self.provenance
    }

    /// Shard membership metadata, present only when this index is one
    /// shard of a partitioned corpus (see [`crate::shard`]).
    pub fn shard_meta(&self) -> Option<&ShardMeta> {
        self.shard.as_ref()
    }

    /// Attaches shard membership metadata (partitioner use).
    pub fn with_shard_meta(mut self, meta: ShardMeta) -> Self {
        self.shard = Some(meta);
        self
    }

    /// Path statistics (`f_w^p`).
    pub fn path_stats(&self) -> &PathStatsIndex {
        &self.path_stats
    }

    /// Length (in indexed tokens) of the virtual document `D(r)`: the total
    /// token count of the subtree rooted at `r`. O(1).
    pub fn doc_len(&self, r: NodeId) -> u64 {
        let end = self.tree.subtree_end(r) as usize;
        self.token_prefix[end] - self.token_prefix[r.index()]
    }

    /// The depth-`depth` subtrees of the corpus in document order (empty
    /// for depth 0 and past the deepest node). Built on the first request
    /// for a depth and kept: later calls are one load.
    pub fn level(&self, depth: u32) -> &LevelTable {
        let cell = (depth as usize).min(self.levels.len() - 1);
        self.levels[cell].get_or_init(|| LevelTable::build(self, cell as u32))
    }

    /// The entity bitmap of `token` over [`Self::level`]`(depth)` — bit `p`
    /// set when subtree `p` holds a posting of it, bit `len()` when a
    /// posting is shallower — with the token's `Σ tf` per subtree, if the
    /// token is frequent enough at that depth for the table to keep one
    /// (see [`crate::level`]). Built from the posting list on the first
    /// request and kept.
    pub fn entity_bitmap(&self, depth: u32, token: TokenId) -> Option<Entities<'_, [u64]>> {
        self.level(depth)
            .entity_bitmap(token, || self.postings(token))
    }

    /// The entity list of `token` over [`Self::level`]`(depth)` — the
    /// positions of the subtrees holding its postings, increasing, then
    /// `len()` when a posting is shallower — with the token's `Σ tf` per
    /// subtree (see [`crate::level`]). Built from the posting list on the
    /// first request and kept; empty over an empty table.
    pub fn entity_positions(&self, depth: u32, token: TokenId) -> Entities<'_, [u32]> {
        self.level(depth)
            .entity_positions(token, || self.postings(token))
    }

    /// Length (in indexed tokens) of the node's *direct* text only (`|t|`
    /// when each element is treated as its own document, as the PY08
    /// baseline does). O(1).
    pub fn direct_len(&self, n: NodeId) -> u64 {
        self.token_prefix[n.index() + 1] - self.token_prefix[n.index()]
    }

    /// Number of nodes with at least one indexed token in their direct
    /// text — the "document" count of the element-as-document view.
    pub fn element_count(&self) -> usize {
        self.token_prefix.windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// Number of nodes of a given label path in the whole tree: the `N` of
    /// the uniform entity prior (Eq. 8). O(1).
    pub fn count_nodes_of_path(&self, path: PathId) -> usize {
        self.path_node_counts
            .get(path.0 as usize)
            .copied()
            .unwrap_or(0) as usize
    }

    /// Total virtual-document length over all nodes of a label path
    /// (normaliser of the document-length entity prior). O(1).
    pub fn path_doc_len_total(&self, path: PathId) -> u64 {
        self.path_doc_len_totals
            .get(path.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Background probability `P(w|B)`.
    pub fn background_prob(&self, token: TokenId) -> f64 {
        self.vocab.background_prob(token)
    }
}

// Compile-time proof that the whole read path is thread-shareable: the
// batched suggestion engine hands `Arc<CorpusIndex>` references to a
// worker pool, which is only sound while every component stays
// `Send + Sync`. Adding e.g. a `Cell` or `Rc` field breaks the build
// here rather than at a distant spawn site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CorpusIndex>();
    assert_send_sync::<PostingList>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_xmltree::parse_document;

    fn corpus() -> CorpusIndex {
        let xml = "<dblp>\
            <article><title>keyword search systems</title><author>smith</author></article>\
            <article><title>keyword cleaning</title><author>jones</author></article>\
        </dblp>";
        CorpusIndex::build(parse_document(xml).unwrap())
    }

    #[test]
    fn vocabulary_and_postings() {
        let c = corpus();
        let kw = c.vocab().get("keyword").unwrap();
        assert_eq!(c.vocab().cf(kw), 2);
        assert_eq!(c.vocab().df(kw), 2);
        assert_eq!(c.postings(kw).len(), 2);
        let smith = c.vocab().get("smith").unwrap();
        assert_eq!(c.postings(smith).len(), 1);
        // postings in document order
        let nodes = c.postings(kw).nodes();
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn node_id_order_equals_dewey_order() {
        let c = corpus();
        let tree = c.tree();
        let mut prev: Option<xclean_xmltree::Dewey> = None;
        for n in tree.iter() {
            let d = tree.dewey(n);
            if let Some(p) = &prev {
                assert!(p < &d, "preorder arena must match Dewey order");
            }
            prev = Some(d);
        }
    }

    #[test]
    fn doc_len_is_subtree_token_count() {
        let c = corpus();
        let tree = c.tree();
        // Root subtree holds all 7 indexed tokens
        // (keyword search systems smith keyword cleaning jones).
        assert_eq!(c.doc_len(tree.root()), 7);
        let first_article = tree.children(tree.root()).next().unwrap();
        assert_eq!(c.doc_len(first_article), 4);
        // A leaf's doc_len is its own token count.
        let title = tree.children(first_article).next().unwrap();
        assert_eq!(c.doc_len(title), 3);
    }

    #[test]
    fn total_tokens_matches_prefix_sum() {
        let c = corpus();
        assert_eq!(c.vocab().total_tokens(), c.doc_len(c.tree().root()));
    }

    #[test]
    fn path_stats_available_for_every_token() {
        let c = corpus();
        for t in 0..c.vocab().len() as u32 {
            assert!(!c.path_stats().paths_of(TokenId(t)).is_empty());
        }
    }

    /// A posting's Dewey code is its node's, read off the tree: each list
    /// is in Dewey document order and every entry counts the token in
    /// that node's own text.
    #[test]
    fn postings_dewey_matches_tree() {
        let c = corpus();
        let tree = c.tree();
        for t in 0..c.vocab().len() as u32 {
            let list = c.postings(TokenId(t));
            let deweys: Vec<_> = list.nodes().iter().map(|&n| tree.dewey(n)).collect();
            assert!(deweys.windows(2).all(|w| w[0] < w[1]));
            for p in list.iter() {
                let text = tree.text(p.node).expect("a posting names a text node");
                let mut tf = 0;
                c.tokenizer().for_each_token(text, |w| {
                    tf += u32::from(c.vocab().get(w) == Some(TokenId(t)));
                });
                assert_eq!(p.tf, tf);
            }
        }
    }

    #[test]
    fn direct_len_and_element_count() {
        let c = corpus();
        let tree = c.tree();
        assert_eq!(c.direct_len(tree.root()), 0);
        let first_article = tree.children(tree.root()).next().unwrap();
        assert_eq!(c.direct_len(first_article), 0);
        let title = tree.children(first_article).next().unwrap();
        assert_eq!(c.direct_len(title), 3);
        // Four text-bearing leaves: 2 titles + 2 authors.
        assert_eq!(c.element_count(), 4);
    }

    #[test]
    fn path_doc_len_totals() {
        let c = corpus();
        let tree = c.tree();
        let article_path = tree.path(tree.children(tree.root()).next().unwrap());
        // Two articles with 4 and 3 indexed tokens respectively.
        assert_eq!(c.path_doc_len_total(article_path), 7);
        let root_path = tree.path(tree.root());
        assert_eq!(c.path_doc_len_total(root_path), 7);
    }

    #[test]
    fn path_node_counts() {
        let c = corpus();
        let tree = c.tree();
        let article_path = tree.path(tree.children(tree.root()).next().unwrap());
        assert_eq!(c.count_nodes_of_path(article_path), 2);
        let root_path = tree.path(tree.root());
        assert_eq!(c.count_nodes_of_path(root_path), 1);
        assert_eq!(c.count_nodes_of_path(xclean_xmltree::PathId(999)), 0);
    }

    #[test]
    fn empty_document() {
        let c = CorpusIndex::build(parse_document("<a/>").unwrap());
        assert_eq!(c.vocab().len(), 0);
        assert_eq!(c.doc_len(c.tree().root()), 0);
    }

    #[test]
    fn stop_words_and_short_tokens_not_indexed() {
        let xml = "<a><t>the db of trees</t></a>";
        let c = CorpusIndex::build(parse_document(xml).unwrap());
        assert!(c.vocab().get("the").is_none());
        assert!(c.vocab().get("db").is_none());
        assert!(c.vocab().get("of").is_none());
        assert!(c.vocab().get("trees").is_some());
    }
}
