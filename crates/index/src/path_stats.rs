//! Per-token label-path statistics (`f_w^p`).
//!
//! For result-type inference (Eq. 7 of the paper), XClean needs, for each
//! keyword `w`, the list of node types `p` together with `f_w^p` — the
//! number of nodes of label path `p` that contain `w` **in their subtree**
//! (§IV-B2, §V-B). This module builds that index in a single document-order
//! pass per token: consecutive postings share ancestor chains, so each
//! containing node is counted exactly once by diffing ancestor chains.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::sync::OnceLock;

use xclean_xmltree::{NodeId, PathId, XmlTree};

use crate::codec::{self, CodecError};
use crate::posting::PostingList;
use crate::slab::IndexSlab;
use crate::vocab::TokenId;

/// Lazily-decoded `(path, f)` pairs for one token (see [`StatsStore::Slab`]).
type StatsCell = OnceLock<Vec<(PathId, u32)>>;

/// Where a token's `(path, f)` pairs live.
#[derive(Debug, Clone)]
enum StatsStore {
    /// Fully materialised (index build and v1 loads).
    Owned(Vec<Vec<(PathId, u32)>>),
    /// Encoded blobs inside a v2 snapshot slab, decoded lazily on first
    /// access per token.
    Slab {
        slab: Arc<IndexSlab>,
        /// Absolute byte range of each token's blob.
        ranges: Vec<Range<usize>>,
        cells: Box<[StatsCell]>,
    },
}

impl Default for StatsStore {
    fn default() -> Self {
        StatsStore::Owned(Vec::new())
    }
}

/// `f_w^p` table for every token.
#[derive(Debug, Default, Clone)]
pub struct PathStatsIndex {
    store: StatsStore,
}

impl PathStatsIndex {
    /// Builds the index from each token's posting list.
    ///
    /// `lists[t]` must be the posting list of `TokenId(t)`, sorted in
    /// document order (as produced by the corpus builder).
    pub fn build(tree: &XmlTree, lists: &[PostingList]) -> Self {
        Self::build_from_iter(tree, lists.iter())
    }

    /// [`Self::build`] over any iterator of posting lists in token order.
    pub fn build_from_iter<'a>(
        tree: &XmlTree,
        lists: impl Iterator<Item = &'a PostingList>,
    ) -> Self {
        let per_token = lists
            .map(|list| Self::stats_for_token(tree, list))
            .collect();
        PathStatsIndex {
            store: StatsStore::Owned(per_token),
        }
    }

    /// Wraps encoded per-token blobs inside `slab` without decoding them;
    /// each token decodes on first access. `ranges[t]` is the absolute
    /// byte range of token `t`'s blob (see [`encode_stats`]).
    pub(crate) fn from_slab(
        slab: Arc<IndexSlab>,
        ranges: Vec<Range<usize>>,
    ) -> Result<Self, &'static str> {
        for r in &ranges {
            if r.start > r.end || r.end > slab.len() {
                return Err("path-stats blob range out of bounds");
            }
        }
        let cells = (0..ranges.len()).map(|_| OnceLock::new()).collect();
        Ok(PathStatsIndex {
            store: StatsStore::Slab {
                slab,
                ranges,
                cells,
            },
        })
    }

    fn stats_for_token(tree: &XmlTree, list: &PostingList) -> Vec<(PathId, u32)> {
        let mut counts: HashMap<PathId, u32> = HashMap::new();
        // Ancestor chain (root → node) of the previous posting.
        let mut prev_chain: Vec<NodeId> = Vec::new();
        let mut chain: Vec<NodeId> = Vec::new();
        for p in list.iter() {
            chain.clear();
            let mut cur = Some(p.node);
            while let Some(c) = cur {
                chain.push(c);
                cur = tree.parent(c);
            }
            chain.reverse();
            // Nodes shared with the previous chain were already counted.
            let shared = prev_chain
                .iter()
                .zip(chain.iter())
                .take_while(|(a, b)| a == b)
                .count();
            for &n in &chain[shared..] {
                *counts.entry(tree.path(n)).or_insert(0) += 1;
            }
            std::mem::swap(&mut prev_chain, &mut chain);
        }
        let mut v: Vec<(PathId, u32)> = counts.into_iter().collect();
        v.sort_unstable_by_key(|&(p, _)| p);
        v
    }

    /// The `(path, f_w^p)` list `P_w` for a token, sorted by path id.
    pub fn paths_of(&self, token: TokenId) -> &[(PathId, u32)] {
        match &self.store {
            StatsStore::Owned(per_token) => &per_token[token.index()],
            StatsStore::Slab {
                slab,
                ranges,
                cells,
            } => cells[token.index()].get_or_init(|| {
                // The slab checksum was verified at open, so a decode
                // failure here is a writer bug; degrade to an empty list
                // rather than panic on the query path.
                decode_stats(&slab.bytes()[ranges[token.index()].clone()]).unwrap_or_default()
            }),
        }
    }

    /// `f_w^p` for one (token, path) pair, 0 if absent.
    pub fn f(&self, token: TokenId, path: PathId) -> u32 {
        let list = self.paths_of(token);
        match list.binary_search_by_key(&path, |&(p, _)| p) {
            Ok(i) => list[i].1,
            Err(_) => 0,
        }
    }

    /// Number of tokens covered.
    pub fn len(&self) -> usize {
        match &self.store {
            StatsStore::Owned(per_token) => per_token.len(),
            StatsStore::Slab { ranges, .. } => ranges.len(),
        }
    }

    /// `true` when no tokens are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Serialises one token's `(path, f)` list: a count, then per pair the
/// path-id gap from the previous path (absolute for the first) and `f`.
pub(crate) fn encode_stats(list: &[(PathId, u32)], out: &mut Vec<u8>) {
    codec::put_varint(out, list.len() as u64);
    let mut prev = 0u64;
    let mut first = true;
    for &(path, f) in list {
        let p = u64::from(path.0);
        let gap = if first { p } else { p - prev };
        first = false;
        prev = p;
        codec::put_varint(out, gap);
        codec::put_varint(out, u64::from(f));
    }
}

/// Deserialises a blob written by [`encode_stats`]. Strict: the whole
/// input must be consumed and path ids must be strictly increasing.
pub(crate) fn decode_stats(bytes: &[u8]) -> Result<Vec<(PathId, u32)>, CodecError> {
    let mut r = codec::SliceReader::new(bytes);
    let n = codec::get_count(&mut r, 2)?;
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u64;
    let mut first = true;
    for _ in 0..n {
        let gap = r.get_varint()?;
        if !first && gap == 0 {
            return Err(CodecError::Corrupt("path ids not strictly increasing"));
        }
        let path = if first { gap } else { prev + gap };
        first = false;
        prev = path;
        let f = r.get_varint()?;
        out.push((
            PathId(u32::try_from(path).map_err(|_| CodecError::VarintOverflow)?),
            u32::try_from(f).map_err(|_| CodecError::VarintOverflow)?,
        ));
    }
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt("trailing bytes after path stats"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_xmltree::{parse_document, Tokenizer};

    /// Builds posting lists directly for testing (the corpus builder in
    /// `corpus.rs` is the production path).
    fn index_tokens(tree: &XmlTree) -> (Vec<String>, Vec<PostingList>) {
        let tok = Tokenizer::default();
        let mut terms: Vec<String> = Vec::new();
        let mut lists: Vec<PostingList> = Vec::new();
        let mut by_term: HashMap<String, usize> = HashMap::new();
        for n in tree.iter() {
            let Some(text) = tree.text(n) else { continue };
            let mut counts: HashMap<String, u32> = HashMap::new();
            tok.for_each_token(text, |t| *counts.entry(t.to_string()).or_insert(0) += 1);
            let mut items: Vec<(String, u32)> = counts.into_iter().collect();
            items.sort();
            for (term, tf) in items {
                let id = *by_term.entry(term.clone()).or_insert_with(|| {
                    terms.push(term.clone());
                    lists.push(PostingList::new());
                    terms.len() - 1
                });
                lists[id].push(n, tf);
            }
        }
        (terms, lists)
    }

    /// Figure 2-style tree; checks the f counts used in Example 3.
    #[test]
    fn counts_match_paper_example3() {
        // Engineered so that:
        //   f_trie^{/a/c} = 2, f_trie^{/a/c/x} = 3, f_trie^{/a/d} = 2,
        //   f_trie^{/a/d/x} = 2, f_icde^{/a/c} = 1, f_icde^{/a/c/x} = 1,
        //   f_icde^{/a/d} = 2, f_icde^{/a/d/x} = 2
        let xml = "<a>\
            <c><x>trie</x><x>trie</x></c>\
            <c><x>trie</x><x>icde</x></c>\
            <d><x>trie icde</x></d>\
            <d><x>trie</x><x>icde</x></d>\
        </a>";
        // /a/c nodes containing trie: both c's → 2
        // /a/c/x containing trie: three x's → 3
        // /a/c containing icde: second c → 1... but paper has icde under
        // /a/c/x too (f=1). /a/d containing each: both d's → 2.
        let tree = parse_document(xml).unwrap();
        let (terms, lists) = index_tokens(&tree);
        let idx = PathStatsIndex::build(&tree, &lists);
        let tid = |s: &str| TokenId(terms.iter().position(|t| t == s).unwrap() as u32);
        let pid = |s: &str| {
            tree.paths()
                .iter()
                .find(|&p| tree.paths().display(p, tree.labels()) == s)
                .unwrap()
        };
        assert_eq!(idx.f(tid("trie"), pid("/a/c")), 2);
        assert_eq!(idx.f(tid("trie"), pid("/a/c/x")), 3);
        assert_eq!(idx.f(tid("trie"), pid("/a/d")), 2);
        assert_eq!(idx.f(tid("trie"), pid("/a/d/x")), 2);
        assert_eq!(idx.f(tid("icde"), pid("/a/c")), 1);
        assert_eq!(idx.f(tid("icde"), pid("/a/c/x")), 1);
        assert_eq!(idx.f(tid("icde"), pid("/a/d")), 2);
        assert_eq!(idx.f(tid("icde"), pid("/a/d/x")), 2);
        // Root contains everything once.
        assert_eq!(idx.f(tid("trie"), pid("/a")), 1);
        assert_eq!(idx.f(tid("icde"), pid("/a")), 1);
    }

    #[test]
    fn multiple_occurrences_in_one_subtree_count_once() {
        let xml = "<r><s><p>alpha alpha</p><p>alpha</p></s></r>";
        let tree = parse_document(xml).unwrap();
        let (terms, lists) = index_tokens(&tree);
        let idx = PathStatsIndex::build(&tree, &lists);
        let tid = TokenId(terms.iter().position(|t| t == "alpha").unwrap() as u32);
        let pid = |s: &str| {
            tree.paths()
                .iter()
                .find(|&p| tree.paths().display(p, tree.labels()) == s)
                .unwrap()
        };
        assert_eq!(idx.f(tid, pid("/r")), 1);
        assert_eq!(
            idx.f(tid, pid("/r/s")),
            1,
            "s contains alpha once, not twice"
        );
        assert_eq!(
            idx.f(tid, pid("/r/s/p")),
            2,
            "two distinct p nodes contain alpha"
        );
    }

    #[test]
    fn absent_pairs_are_zero() {
        let tree = parse_document("<r><p>word</p></r>").unwrap();
        let (_, lists) = index_tokens(&tree);
        let idx = PathStatsIndex::build(&tree, &lists);
        assert_eq!(idx.f(TokenId(0), PathId(999)), 0);
    }

    /// Oracle check: f computed by brute-force subtree scan must match.
    #[test]
    fn agrees_with_bruteforce() {
        let xml = "<lib>\
            <shelf><book><t>rust systems</t><a>jones</a></book>\
                   <book><t>query systems</t></book></shelf>\
            <shelf><book><t>rust query</t></book></shelf>\
        </lib>";
        let tree = parse_document(xml).unwrap();
        let (terms, lists) = index_tokens(&tree);
        let idx = PathStatsIndex::build(&tree, &lists);
        let tok = Tokenizer::default();
        for (t, term) in terms.iter().enumerate() {
            let mut expect: HashMap<PathId, u32> = HashMap::new();
            for n in tree.iter() {
                let contains = tree.subtree(n).any(|d| {
                    tree.text(d)
                        .map(|txt| tok.tokenize(txt).iter().any(|x| x == term))
                        .unwrap_or(false)
                });
                if contains {
                    *expect.entry(tree.path(n)).or_insert(0) += 1;
                }
            }
            for (&p, &f) in &expect {
                assert_eq!(
                    idx.f(TokenId(t as u32), p),
                    f,
                    "term {term} path {}",
                    tree.paths().display(p, tree.labels())
                );
            }
            assert_eq!(idx.paths_of(TokenId(t as u32)).len(), expect.len());
        }
    }

    #[test]
    fn stats_blob_roundtrip() {
        let lists: Vec<Vec<(PathId, u32)>> = vec![
            vec![],
            vec![(PathId(0), 7)],
            vec![(PathId(2), 1), (PathId(3), 9), (PathId(40), 2)],
        ];
        for l in &lists {
            let mut buf = Vec::new();
            encode_stats(l, &mut buf);
            assert_eq!(&decode_stats(&buf).unwrap(), l);
        }
    }

    #[test]
    fn slab_backed_matches_owned() {
        let xml = "<lib><book><t>rust xml rust</t></book><book><t>xml</t></book></lib>";
        let tree = parse_document(xml).unwrap();
        let (_, lists) = index_tokens(&tree);
        let owned = PathStatsIndex::build(&tree, &lists);
        // Re-encode into a slab and wrap it.
        let mut buf = Vec::new();
        let mut ranges = Vec::new();
        for t in 0..owned.len() {
            let start = buf.len();
            encode_stats(owned.paths_of(TokenId(t as u32)), &mut buf);
            ranges.push(start..buf.len());
        }
        let slab = std::sync::Arc::new(crate::slab::IndexSlab::Owned(buf.to_vec()));
        let lazy = PathStatsIndex::from_slab(slab, ranges).unwrap();
        assert_eq!(lazy.len(), owned.len());
        for t in 0..owned.len() {
            let t = TokenId(t as u32);
            assert_eq!(lazy.paths_of(t), owned.paths_of(t));
            // Second access hits the decoded cell.
            assert_eq!(lazy.paths_of(t), owned.paths_of(t));
        }
    }

    #[test]
    fn corrupt_stats_blob_degrades_to_empty() {
        let slab = std::sync::Arc::new(crate::slab::IndexSlab::Owned(vec![0xFF, 0xFF]));
        let ranges = vec![std::ops::Range { start: 0, end: 2 }];
        let lazy = PathStatsIndex::from_slab(slab, ranges).unwrap();
        assert!(lazy.paths_of(TokenId(0)).is_empty());
    }
}
