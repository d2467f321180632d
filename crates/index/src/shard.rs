//! Deterministic entity partitioner: one corpus → N shard corpora, and
//! the reader that turns such a set back into the corpus.
//!
//! A shard is a **contiguous document-order span** of the root's child
//! subtrees, re-rooted under a copy of the original root element. Every
//! node of depth ≥ 2 lives in exactly one shard, so per-shard statistics
//! (collection frequencies, `f_w^p` path counts, per-path node counts and
//! virtual-document lengths) sum *exactly* to the unsharded values
//! (DESIGN.md §16). Contiguity matters twice: shard-local node ids stay in
//! global document order (so laying the shards' nodes after one root, in
//! shard order, rebuilds the parent's tree), and subtree token lengths of
//! depth ≥ 2 nodes are unchanged.
//!
//! Each shard is a completely ordinary [`CorpusIndex`] (self-consistent
//! local vocabulary, postings, path stats — it can be saved as a normal v2
//! slab and inspected standalone). The [`ShardMeta`] riding along maps the
//! shard's local token and path ids back to the parent corpus's ids, which
//! is what lets [`reassemble_parent`] read a set back as the corpus it was
//! cut from, byte for byte. A set is a way to store a corpus: this module
//! is the only one that knows the set format, and a corpus read back from
//! a set keeps nothing of it.

use xclean_xmltree::{LabelId, NodeId, PreorderAssembler, TreeAssemblyError};

use crate::codec;
use crate::corpus::{CorpusIndex, Parts};
use crate::posting::PostingList;
use crate::storage::{v2, StorageError};
use crate::vocab::TokenId;

/// Provenance and id-translation tables tying a shard snapshot back to the
/// corpus it was partitioned from. Stored in the v2 `SHARD` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// This shard's position in the set (`0..shard_count`, document order).
    pub shard_id: u32,
    /// Total shards the parent corpus was split into.
    pub shard_count: u32,
    /// Partitioner seed (provenance: distinguishes shard *sets*; the
    /// layout itself is a pure function of the corpus and the count).
    pub seed: u64,
    /// Fingerprint of the parent corpus + partitioning parameters; every
    /// shard of one set carries the same value, so mixed sets are caught
    /// at engine assembly time.
    pub parent_fingerprint: u64,
    /// Vocabulary size of the parent corpus.
    pub global_vocab_len: u32,
    /// Label-path table size of the parent corpus.
    pub global_path_len: u32,
    /// `token_map[local]` = the parent corpus's token id for the shard's
    /// local token `local` (one entry per shard-vocabulary term).
    pub token_map: Vec<u32>,
    /// `path_map[local]` = the parent corpus's path id for the shard's
    /// local label path `local` (one entry per shard path).
    pub path_map: Vec<u32>,
}

/// Why a corpus could not be partitioned, or a shard set read back.
#[derive(Debug)]
pub enum ShardError {
    /// `shard_count` was zero, or a set to read back holds no shard.
    ZeroShards,
    /// The root has fewer child subtrees than requested shards.
    TooFewEntities {
        /// Root child subtrees available.
        children: usize,
        /// Shards requested.
        shards: usize,
    },
    /// The root element carries directly-attached indexed text, which
    /// would be duplicated into every shard and inflate global statistics.
    RootHasDirectText,
    /// Re-assembling a shard tree failed (a corpus invariant is broken).
    Assembly(String),
    /// A corpus of a set to read back carries no shard metadata: it is
    /// not a shard.
    MissingMeta {
        /// Position in the input list.
        index: usize,
    },
    /// The shards do not form one complete set: duplicate or missing
    /// ids, mixed seeds or parent fingerprints, inconsistent global
    /// sizes, or maps that do not cover their shard's ids.
    MetaMismatch(String),
    /// The shards were built with different tokenisation policies.
    TokenizerMismatch,
    /// A shard set does not read back as one corpus: a map points outside
    /// the set, shards disagree on a term or on the root, or some of the
    /// parent is held by no shard.
    Coverage(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroShards => write!(f, "shard count must be at least 1"),
            ShardError::TooFewEntities { children, shards } => write!(
                f,
                "corpus has {children} root child subtrees but {shards} shards were requested"
            ),
            ShardError::RootHasDirectText => write!(
                f,
                "root element has directly-attached indexed text; it cannot be partitioned exactly"
            ),
            ShardError::Assembly(m) => write!(f, "shard tree assembly failed: {m}"),
            ShardError::MissingMeta { index } => {
                write!(f, "corpus at position {index} carries no shard metadata")
            }
            ShardError::MetaMismatch(m) => write!(f, "inconsistent shard set: {m}"),
            ShardError::TokenizerMismatch => {
                write!(f, "shards disagree on the tokenisation policy")
            }
            ShardError::Coverage(m) => write!(f, "shard set does not read back as one corpus: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Why stored snapshots could not be opened as one corpus.
#[derive(Debug)]
pub enum OpenError {
    /// A snapshot failed to open.
    Snapshot {
        /// The offending file.
        path: String,
        /// The underlying storage error.
        source: StorageError,
    },
    /// A snapshot to serve as one corpus is one shard of a set.
    Shard {
        /// The shard file.
        path: String,
        /// Shards in its set.
        shards: u32,
    },
    /// The snapshots are not one complete shard set, or the set does not
    /// read back as one corpus.
    Set(ShardError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Snapshot { path, source } => write!(f, "{path}: {source}"),
            OpenError::Shard { path, shards } => write!(
                f,
                "{path}: one shard of a set of {shards} shard{}, not a corpus; \
                 build the corpus as one snapshot with `xclean index build`",
                if *shards == 1 { "" } else { "s" }
            ),
            OpenError::Set(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for OpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpenError::Snapshot { source, .. } => Some(source),
            OpenError::Shard { .. } => None,
            OpenError::Set(e) => Some(e),
        }
    }
}

/// Fingerprint of the parent corpus + partitioning parameters (FNV-1a over
/// structural facts — cheap, stable across identical rebuilds).
pub fn parent_fingerprint(corpus: &CorpusIndex, shard_count: usize, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    mix(corpus.tree().len() as u64);
    mix(corpus.vocab().len() as u64);
    mix(corpus.vocab().total_tokens());
    mix(corpus.tree().paths().len() as u64);
    mix(corpus.element_count() as u64);
    mix(shard_count as u64);
    mix(seed);
    h
}

/// Splits `corpus` into `shard_count` shard corpora (document order,
/// greedily balanced by subtree node count). Deterministic: the same
/// corpus and count always produce byte-identical shards.
pub fn partition_corpus(
    corpus: &CorpusIndex,
    shard_count: usize,
    seed: u64,
) -> Result<Vec<CorpusIndex>, ShardError> {
    if shard_count == 0 {
        return Err(ShardError::ZeroShards);
    }
    let tree = corpus.tree();
    let root = tree.root();
    if corpus.direct_len(root) > 0 {
        return Err(ShardError::RootHasDirectText);
    }
    let children: Vec<NodeId> = tree.children(root).collect();
    if children.len() < shard_count {
        return Err(ShardError::TooFewEntities {
            children: children.len(),
            shards: shard_count,
        });
    }
    let weights: Vec<u64> = children
        .iter()
        .map(|&c| u64::from(tree.subtree_end(c) - c.0))
        .collect();
    let spans = balanced_spans(&weights, shard_count);

    let label_names: Vec<String> = (0..tree.labels().len() as u32)
        .map(|i| tree.labels().name(LabelId(i)).to_string())
        .collect();
    let fingerprint = parent_fingerprint(corpus, shard_count, seed);

    let mut shards = Vec::with_capacity(shard_count);
    for (shard_id, span) in spans.iter().enumerate() {
        let first = children[span.start];
        let last = children[span.end - 1];
        let node_range = first.0..tree.subtree_end(last);

        let mut asm = PreorderAssembler::new(&label_names);
        asm.reserve(1 + node_range.len());
        // The shard root mirrors the original root element (same label,
        // depth 1, no indexed text — checked above). Shard 0's also keeps
        // the root's text, which holds no token, so the set reads back
        // with it.
        let root_text = if shard_id == 0 { tree.text(root) } else { None };
        asm.push(1, tree.label(root).0, root_text)
            .map_err(|e| ShardError::Assembly(e.to_string()))?;
        for m in node_range.clone() {
            let n = NodeId(m);
            asm.push(tree.depth(n), tree.label(n).0, tree.text(n))
                .map_err(|e| ShardError::Assembly(e.to_string()))?;
        }
        let shard_tree = asm
            .finish()
            .map_err(|e| ShardError::Assembly(e.to_string()))?;

        // Shard node k ≥ 1 is original node `node_range.start + k - 1`
        // (preorder is preserved); map each local label path to its
        // original id through that correspondence.
        let mut path_map = vec![u32::MAX; shard_tree.paths().len()];
        path_map[shard_tree.path(NodeId(0)).0 as usize] = tree.path(root).0;
        for k in 1..shard_tree.len() as u32 {
            let orig = NodeId(node_range.start + k - 1);
            path_map[shard_tree.path(NodeId(k)).0 as usize] = tree.path(orig).0;
        }
        debug_assert!(path_map.iter().all(|&p| p != u32::MAX));

        let shard = CorpusIndex::build_with(shard_tree, corpus.tokenizer().clone());
        let token_map: Vec<u32> = (0..shard.vocab().len() as u32)
            .map(|i| {
                corpus
                    .vocab()
                    .get(shard.vocab().term(TokenId(i)))
                    .expect("shard terms are a subset of the parent vocabulary")
                    .0
            })
            .collect();

        let meta = ShardMeta {
            shard_id: shard_id as u32,
            shard_count: shard_count as u32,
            seed,
            parent_fingerprint: fingerprint,
            global_vocab_len: corpus.vocab().len() as u32,
            global_path_len: tree.paths().len() as u32,
            token_map,
            path_map,
        };
        shards.push(shard.with_shard_meta(meta));
    }
    Ok(shards)
}

/// Reads a shard set back as the corpus [`partition_corpus`] cut it from:
/// the same tree, vocabulary, postings and per-node counts, so the v2
/// bytes of the result equal the parent's, and it carries no shard
/// metadata and no snapshot provenance. `shards` is one set, in any
/// order. Nothing is tokenised: the tree is shard 0's root followed by
/// each shard's nodes `1..` in id order, each shard's lists are appended
/// at the parent's token ids with node ids moved to its span (so each
/// token's `cf` and `df` are the sums of its shards'), and the result is
/// encoded once. Each shard is read once and dropped before the next, and
/// its lists are decoded without being kept.
///
/// Shard files are untrusted. A list that is not one complete set is
/// refused first: a corpus with no shard metadata
/// ([`ShardError::MissingMeta`]); ids that are not exactly the declared
/// `0..n`, mixed seeds, parent fingerprints or global sizes, or maps that
/// do not cover their shard's ids ([`ShardError::MetaMismatch`]); mixed
/// tokenisation policies ([`ShardError::TokenizerMismatch`]). Then a
/// token or path map that points outside the set, shards that disagree on
/// a term, on the labels or on the root, a parent token no shard holds, a
/// node whose reassembled path is not its map's, or lists that leave their
/// shard's tree are refused as [`ShardError::Coverage`], naming the shard.
pub fn reassemble_parent(mut shards: Vec<CorpusIndex>) -> Result<CorpusIndex, ShardError> {
    check_set(&mut shards)?;
    let first = &shards[0];
    let set = meta(first);
    let (vocab_len, path_len) = (set.global_vocab_len as usize, set.global_path_len as usize);
    let labels = first.tree().labels();
    let label_names: Vec<String> = (0..labels.len() as u32)
        .map(|i| labels.name(LabelId(i)).to_string())
        .collect();
    let root_label = first.tree().label(first.tree().root()).0;
    let root_path = set.path_map[first.tree().path(first.tree().root()).0 as usize];
    let tokenizer = first.tokenizer().config().clone();
    // Every parent token is some shard's local token, which bounds the
    // tables below by what the set holds, whatever its metadata claims.
    let held: usize = shards.iter().map(|s| s.vocab().len()).sum();
    if vocab_len > held {
        return Err(ShardError::Coverage(format!(
            "the set declares {vocab_len} global tokens, its shards hold {held}"
        )));
    }

    // Pass 1, over the vocabularies: terms at their parent ids (each from
    // one local token per shard, the same term in every shard) and Σ df,
    // to size the lists; and the labels and root every shard must share.
    let mut terms: Vec<Option<String>> = vec![None; vocab_len];
    let mut df = vec![0u64; vocab_len];
    let mut last_shard = vec![u32::MAX; vocab_len];
    let mut nodes = 1usize;
    for (s, shard) in shards.iter().enumerate() {
        let meta = meta(shard);
        let tree = shard.tree();
        let same_labels = tree.labels().len() == label_names.len()
            && (0..label_names.len() as u32)
                .all(|i| tree.labels().name(LabelId(i)) == label_names[i as usize]);
        if !same_labels {
            return Err(coverage(s, "has another label table than shard 0"));
        }
        let own_root = meta.path_map[tree.path(tree.root()).0 as usize];
        if tree.label(tree.root()).0 != root_label || own_root != root_path {
            return Err(coverage(
                s,
                &format!("has root path {own_root}, shard 0 has {root_path}"),
            ));
        }
        for (local, &g) in meta.token_map.iter().enumerate() {
            let term = shard.vocab().term(TokenId(local as u32));
            let Some(slot) = terms.get_mut(g as usize) else {
                return Err(coverage(
                    s,
                    &format!("maps local token {local} to out-of-range global id {g}"),
                ));
            };
            match slot {
                _ if last_shard[g as usize] == s as u32 => {
                    return Err(coverage(
                        s,
                        &format!("maps two local tokens to global token {g}"),
                    ))
                }
                None => *slot = Some(term.to_string()),
                Some(t) if t == term => {}
                Some(t) => {
                    return Err(coverage(
                        s,
                        &format!("holds {term:?} at global token {g}, an earlier shard {t:?}"),
                    ))
                }
            }
            last_shard[g as usize] = s as u32;
            df[g as usize] = df[g as usize].saturating_add(shard.vocab().df(TokenId(local as u32)));
        }
        nodes += tree.len() - 1;
    }
    drop(last_shard);
    let terms: Vec<String> = terms
        .into_iter()
        .enumerate()
        .map(|(g, t)| {
            t.ok_or_else(|| {
                ShardError::Coverage(format!(
                    "no shard of the {} holds global token {g}",
                    shards.len()
                ))
            })
        })
        .collect::<Result<_, _>>()?;

    // Pass 2, one shard at a time: its nodes after the root, its direct
    // counts, its lists at their parent ids; then the shard is dropped.
    // One node per local path is kept to check the reassembled paths
    // against the path maps.
    let assembly = |e: TreeAssemblyError| ShardError::Assembly(e.to_string());
    let mut asm = PreorderAssembler::new(&label_names);
    asm.reserve(nodes);
    let root_text = first.tree().text(first.tree().root());
    asm.push(1, root_label, root_text).map_err(assembly)?;
    let mut direct = Vec::with_capacity(nodes);
    direct.push(0);
    // A list holds at most one posting per node, whatever a vocabulary
    // claims.
    let mut lists: Vec<PostingList> = df
        .iter()
        .map(|&n| {
            let mut list = PostingList::new();
            list.reserve(n.min(nodes as u64) as usize);
            list
        })
        .collect();
    drop(df);
    // (shard, node of the parent, the path its shard's map names).
    let mut witnesses: Vec<(usize, NodeId, u32)> = vec![(0, NodeId(0), root_path)];
    for (s, shard) in shards.into_iter().enumerate() {
        let meta = meta(&shard);
        let tree = shard.tree();
        let shift = direct.len() as u32 - 1;
        let mut witnessed = vec![false; tree.paths().len()];
        for n in tree.iter().skip(1) {
            let at = asm
                .push(tree.depth(n), tree.label(n).0, tree.text(n))
                .map_err(assembly)?;
            direct.push(shard.direct_len(n));
            let local = tree.path(n).0 as usize;
            if !std::mem::replace(&mut witnessed[local], true) {
                witnesses.push((s, at, meta.path_map[local]));
            }
        }
        let span = 1..tree.len() as u32;
        for (local, &g) in meta.token_map.iter().enumerate() {
            let bytes = shard.encoded_postings(TokenId(local as u32));
            codec::decode_shifted(bytes, span.clone(), shift, &mut lists[g as usize])
                .map_err(|e| coverage(s, &format!("local token {local}: {e}")))?;
        }
    }
    let tree = asm.finish().map_err(assembly)?;
    for (s, node, path) in witnesses {
        let reassembled = tree.path(node).0;
        if reassembled != path {
            return Err(coverage(
                s,
                &format!(
                    "node {} reassembles to global path {reassembled}, its path map says {path}",
                    node.0
                ),
            ));
        }
    }
    if tree.paths().len() != path_len {
        return Err(ShardError::Coverage(format!(
            "the set declares {path_len} global paths, its shards hold {}",
            tree.paths().len()
        )));
    }
    v2::encode_and_view(tree, Parts::counted(terms, lists, direct), &tokenizer)
        .map_err(|e| ShardError::Coverage(format!("the reassembled corpus: {e}")))
}

/// Puts `shards` in id order and checks that they are one complete set
/// whose maps cover every local token and path (see
/// [`reassemble_parent`]).
fn check_set(shards: &mut [CorpusIndex]) -> Result<(), ShardError> {
    if let Some(index) = shards.iter().position(|s| s.shard_meta().is_none()) {
        return Err(ShardError::MissingMeta { index });
    }
    if shards.is_empty() {
        return Err(ShardError::ZeroShards);
    }
    shards.sort_by_key(|s| meta(s).shard_id);
    let (first, tokenizer) = (meta(&shards[0]), shards[0].tokenizer().config());
    let mismatch = |m: String| Err(ShardError::MetaMismatch(m));
    if first.shard_count as usize != shards.len() {
        return mismatch(format!(
            "set declares {} shards but {} were provided",
            first.shard_count,
            shards.len()
        ));
    }
    for (i, s) in shards.iter().enumerate() {
        let m = meta(s);
        if m.shard_id as usize != i {
            return mismatch(format!(
                "shard ids are not exactly 0..{} (found duplicate or gap at id {})",
                shards.len(),
                m.shard_id
            ));
        }
        if m.shard_count != first.shard_count
            || m.seed != first.seed
            || m.parent_fingerprint != first.parent_fingerprint
            || m.global_vocab_len != first.global_vocab_len
            || m.global_path_len != first.global_path_len
        {
            return mismatch(format!(
                "shard {i} does not belong to the same set as shard 0 \
                 (seed/fingerprint/global sizes differ)"
            ));
        }
        if s.tokenizer().config() != tokenizer {
            return Err(ShardError::TokenizerMismatch);
        }
        if m.token_map.len() != s.vocab().len() {
            return mismatch(format!(
                "shard {i}: token map covers {} of {} local tokens",
                m.token_map.len(),
                s.vocab().len()
            ));
        }
        if m.path_map.len() != s.tree().paths().len() {
            return mismatch(format!(
                "shard {i}: path map covers {} of {} local paths",
                m.path_map.len(),
                s.tree().paths().len()
            ));
        }
    }
    Ok(())
}

/// The metadata of a shard of a checked set.
fn meta(shard: &CorpusIndex) -> &ShardMeta {
    shard
        .shard_meta()
        .expect("every corpus of a checked set is a shard")
}

/// A [`ShardError::Coverage`] naming shard `s`.
fn coverage(s: usize, what: &str) -> ShardError {
    ShardError::Coverage(format!("shard {s} {what}"))
}

/// Contiguous spans over `weights`, greedily balanced: each shard takes
/// children until it reaches its fair share of the remaining weight, while
/// always leaving at least one child per remaining shard.
fn balanced_spans(weights: &[u64], shards: usize) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::with_capacity(shards);
    let mut remaining_weight: u64 = weights.iter().sum();
    let mut idx = 0usize;
    for s in 0..shards {
        let shards_left = shards - s;
        let max_take = weights.len() - idx - (shards_left - 1);
        let target = remaining_weight / shards_left as u64;
        let mut take = 1usize;
        let mut w = weights[idx];
        while take < max_take && w < target {
            w += weights[idx + take];
            take += 1;
        }
        spans.push(idx..idx + take);
        idx += take;
        remaining_weight -= w;
    }
    debug_assert_eq!(idx, weights.len());
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage;
    use xclean_xmltree::{parse_document, Tokenizer, TokenizerConfig};

    const XML: &str = "<dblp>\
        <article><author>alice</author><title>alpha beta</title></article>\
        <article><author>bob</author><title>beta gamma delta</title></article>\
        <article><author>carol</author><title>gamma</title></article>\
        <article><author>dave</author><title>alpha delta</title></article>\
        <article><author>erin</author><title>epsilon</title></article>\
    </dblp>";

    fn corpus() -> CorpusIndex {
        CorpusIndex::build(parse_document(XML).unwrap())
    }

    #[test]
    fn shards_cover_all_entities_exactly_once() {
        let c = corpus();
        for n in [1usize, 2, 3, 5] {
            let shards = partition_corpus(&c, n, 7).unwrap();
            assert_eq!(shards.len(), n);
            let entity_total: usize = shards
                .iter()
                .map(|s| s.tree().children(s.tree().root()).count())
                .sum();
            assert_eq!(entity_total, 5, "n={n}");
            let node_total: usize = shards.iter().map(|s| s.tree().len() - 1).sum();
            assert_eq!(node_total, c.tree().len() - 1);
        }
    }

    #[test]
    fn global_statistics_sum_exactly() {
        let c = corpus();
        let shards = partition_corpus(&c, 3, 0).unwrap();
        // Collection frequencies: per-term sums across shards equal the
        // parent's (nodes of depth ≥ 2 are disjoint across shards).
        let mut cf = vec![0u64; c.vocab().len()];
        for s in &shards {
            let meta = s.shard_meta().unwrap();
            for t in 0..s.vocab().len() as u32 {
                cf[meta.token_map[t as usize] as usize] += s.vocab().cf(TokenId(t));
            }
        }
        for t in 0..c.vocab().len() as u32 {
            assert_eq!(cf[t as usize], c.vocab().cf(TokenId(t)));
        }
        let total: u64 = shards.iter().map(|s| s.vocab().total_tokens()).sum();
        assert_eq!(total, c.vocab().total_tokens());
    }

    #[test]
    fn meta_maps_are_consistent() {
        let c = corpus();
        let shards = partition_corpus(&c, 2, 42).unwrap();
        for s in &shards {
            let meta = s.shard_meta().unwrap();
            assert_eq!(meta.shard_count, 2);
            assert_eq!(meta.seed, 42);
            assert_eq!(meta.global_vocab_len as usize, c.vocab().len());
            assert_eq!(meta.global_path_len as usize, c.tree().paths().len());
            assert_eq!(meta.token_map.len(), s.vocab().len());
            assert_eq!(meta.path_map.len(), s.tree().paths().len());
            for (local, &g) in meta.token_map.iter().enumerate() {
                assert_eq!(
                    c.vocab().term(TokenId(g)),
                    s.vocab().term(TokenId(local as u32))
                );
            }
            // Path depths are preserved through the mapping.
            for (local, &g) in meta.path_map.iter().enumerate() {
                assert_eq!(
                    c.tree().paths().depth(xclean_xmltree::PathId(g)),
                    s.tree().paths().depth(xclean_xmltree::PathId(local as u32))
                );
            }
        }
        assert_eq!(
            shards[0].shard_meta().unwrap().parent_fingerprint,
            shards[1].shard_meta().unwrap().parent_fingerprint
        );
    }

    #[test]
    fn doc_lengths_of_entities_are_preserved() {
        let c = corpus();
        let shards = partition_corpus(&c, 2, 0).unwrap();
        let mut orig: Vec<u64> = c
            .tree()
            .children(c.tree().root())
            .map(|e| c.doc_len(e))
            .collect();
        let mut sharded: Vec<u64> = Vec::new();
        for s in &shards {
            for e in s.tree().children(s.tree().root()) {
                sharded.push(s.doc_len(e));
            }
        }
        orig.sort_unstable();
        sharded.sort_unstable();
        assert_eq!(orig, sharded);
    }

    #[test]
    fn rejects_bad_inputs() {
        let c = corpus();
        assert!(matches!(
            partition_corpus(&c, 0, 0),
            Err(ShardError::ZeroShards)
        ));
        assert!(matches!(
            partition_corpus(&c, 6, 0),
            Err(ShardError::TooFewEntities { .. })
        ));
        let rooty =
            CorpusIndex::build(parse_document("<r>top text<a><b>alpha</b></a></r>").unwrap());
        assert!(matches!(
            partition_corpus(&rooty, 1, 0),
            Err(ShardError::RootHasDirectText)
        ));
    }

    #[test]
    fn partitioning_is_deterministic() {
        let c1 = corpus();
        let c2 = corpus();
        let a = partition_corpus(&c1, 3, 9).unwrap();
        let b = partition_corpus(&c2, 3, 9).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tree().len(), y.tree().len());
            assert_eq!(x.shard_meta(), y.shard_meta());
        }
    }

    #[test]
    fn balanced_spans_properties() {
        let w = [5u64, 1, 1, 1, 8, 2];
        for n in 1..=6 {
            let spans = balanced_spans(&w, n);
            assert_eq!(spans.len(), n);
            assert_eq!(spans[0].start, 0);
            assert_eq!(spans.last().unwrap().end, w.len());
            for pair in spans.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert!(!pair[1].is_empty());
            }
            assert!(spans.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn rejects_incomplete_and_mixed_sets() {
        let c = corpus();
        let mut shards = partition_corpus(&c, 3, 7).unwrap();
        shards.remove(1);
        assert!(matches!(
            reassemble_parent(shards),
            Err(ShardError::MetaMismatch(_))
        ));
        // Mixed seeds → different parent fingerprints.
        let mut mixed = partition_corpus(&c, 2, 7).unwrap();
        mixed[1] = partition_corpus(&c, 2, 8).unwrap().remove(1);
        assert!(matches!(
            reassemble_parent(mixed),
            Err(ShardError::MetaMismatch(_))
        ));
        // A plain corpus is not a shard.
        assert!(matches!(
            reassemble_parent(vec![corpus()]),
            Err(ShardError::MissingMeta { index: 0 })
        ));
        assert!(matches!(
            reassemble_parent(Vec::new()),
            Err(ShardError::ZeroShards)
        ));
        // The same shard of one set, built under another tokenisation
        // policy that leaves this corpus's tokens (and so the metadata)
        // as they are.
        let keep_numbers = TokenizerConfig {
            drop_numbers: false,
            ..TokenizerConfig::default()
        };
        let other =
            CorpusIndex::build_with(parse_document(XML).unwrap(), Tokenizer::new(keep_numbers));
        let mut mixed = partition_corpus(&c, 2, 7).unwrap();
        let foreign = partition_corpus(&other, 2, 7).unwrap().remove(1);
        assert_eq!(foreign.shard_meta(), mixed[1].shard_meta());
        mixed[1] = foreign;
        assert!(matches!(
            reassemble_parent(mixed),
            Err(ShardError::TokenizerMismatch)
        ));
        // A set in any order is the same set.
        let mut reversed = partition_corpus(&c, 3, 7).unwrap();
        reversed.reverse();
        let back = reassemble_parent(reversed).unwrap();
        assert!(storage::to_bytes_v2(&back) == storage::to_bytes_v2(&c));
    }

    /// The message of the [`ShardError::Coverage`] refusal of a 2-shard
    /// set whose shard 1 carries the metadata `edit` makes.
    fn coverage_refusal(edit: impl FnOnce(&CorpusIndex, &mut ShardMeta)) -> String {
        let mut shards = partition_corpus(&corpus(), 2, 7).unwrap();
        let second = shards.pop().unwrap();
        let mut meta = second.shard_meta().unwrap().clone();
        edit(&second, &mut meta);
        shards.push(second.with_shard_meta(meta));
        match reassemble_parent(shards) {
            Err(ShardError::Coverage(m)) => m,
            other => panic!("expected a Coverage refusal, got {other:?}"),
        }
    }

    /// Two local tokens of `shard` whose terms shard 0 of the set holds too.
    fn shared_tokens(shard: &CorpusIndex) -> (usize, usize) {
        let first = &partition_corpus(&corpus(), 2, 7).unwrap()[0];
        let mut shared = (0..shard.vocab().len()).filter(|&t| {
            first
                .vocab()
                .get(shard.vocab().term(TokenId(t as u32)))
                .is_some()
        });
        (shared.next().unwrap(), shared.next().unwrap())
    }

    #[test]
    fn sets_that_do_not_read_back_as_one_corpus_are_refused() {
        // A token map pointing past the set's vocabulary.
        let m = coverage_refusal(|_, meta| meta.token_map[0] = meta.global_vocab_len);
        assert!(m.contains("shard 1") && m.contains("out-of-range"), "{m}");
        // Two shards naming one global token by different terms.
        let m = coverage_refusal(|shard, meta| {
            let (a, b) = shared_tokens(shard);
            meta.token_map.swap(a, b);
        });
        assert!(
            m.contains("shard 1") && m.contains("an earlier shard"),
            "{m}"
        );
        // Two local tokens of one shard mapped to one global token.
        let m = coverage_refusal(|_, meta| meta.token_map[1] = meta.token_map[0]);
        assert!(
            m.contains("shard 1") && m.contains("two local tokens"),
            "{m}"
        );
        // A global token no shard holds: the set declares one more, or so
        // many that no table may be sized by the claim (every shard must
        // agree on the size, or the set is mixed).
        let hole = corpus().vocab().len() as u32;
        for (declared, names) in [
            (hole + 1, format!("global token {hole}")),
            (u32::MAX, "declares".into()),
        ] {
            let shards = partition_corpus(&corpus(), 2, 7)
                .unwrap()
                .into_iter()
                .map(|s| {
                    let mut meta = s.shard_meta().unwrap().clone();
                    meta.global_vocab_len = declared;
                    s.with_shard_meta(meta)
                });
            match reassemble_parent(shards.collect()) {
                Err(ShardError::Coverage(m)) => assert!(m.contains(&names), "{m}"),
                other => panic!("expected a Coverage refusal, got {other:?}"),
            }
        }
        // Shards whose roots map to different global paths.
        let m = coverage_refusal(|shard, meta| {
            let root = shard.tree().path(shard.tree().root()).0 as usize;
            meta.path_map[root] += 1;
        });
        assert!(m.contains("shard 1") && m.contains("root path"), "{m}");
        // A node whose reassembled path is not its path map's.
        let m = coverage_refusal(|_, meta| {
            let last = meta.path_map.len() - 1;
            meta.path_map.swap(last - 1, last);
        });
        assert!(m.contains("shard 1") && m.contains("reassembles to"), "{m}");
    }
}
