//! Per-token label-path statistics (`f_w^p`).
//!
//! For result-type inference (Eq. 7 of the paper), XClean needs, for each
//! keyword `w`, the list of node types `p` together with `f_w^p` — the
//! number of nodes of label path `p` that contain `w` **in their subtree**
//! (§IV-B2, §V-B). The index builder computes a token's list in a single
//! document-order pass over its postings (`StatsCounter::token_stats`:
//! each posting climbs only to the first ancestor an earlier posting
//! already counted, so each containing node is counted exactly once) and
//! writes it into the PATHSTATS section (`encode_stats`).
//! [`PathStatsIndex`] views those blobs and decodes a token's list on its
//! first access.

use std::ops::Range;
use std::sync::Arc;

use xclean_xmltree::{NodeId, PathId, XmlTree};

use crate::codec::{self, CodecError};
use crate::posting::PostingList;
use crate::slab::{Blobs, IndexSlab};
use crate::vocab::TokenId;

/// `f_w^p` table for every token: one encoded blob per token inside a
/// snapshot slab, decoded on first access.
#[derive(Debug)]
pub struct PathStatsIndex {
    blobs: Blobs<Vec<(PathId, u32)>>,
}

/// Counts `f_w^p` for one token after another: one dense count per path,
/// reused across tokens, and the paths a token touched.
pub(crate) struct StatsCounter {
    counts: Vec<u32>,
    touched: Vec<PathId>,
    stats: Vec<(PathId, u32)>,
}

impl StatsCounter {
    /// A counter over the label paths of `tree`.
    pub(crate) fn new(tree: &XmlTree) -> StatsCounter {
        StatsCounter {
            counts: vec![0; tree.paths().len()],
            touched: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// The `(path, f_w^p)` list of the token whose postings are `list`
    /// (document order), sorted by path id.
    ///
    /// A node contains the token once however many of its descendants
    /// hold it. Postings come in preorder, so an ancestor of a posting's
    /// node was counted for an earlier posting exactly when its id is at
    /// most the previous posting's node: the climb from each node stops
    /// at the first such ancestor.
    pub(crate) fn token_stats(&mut self, tree: &XmlTree, list: &PostingList) -> &[(PathId, u32)] {
        let mut prev: Option<NodeId> = None;
        for &node in list.nodes() {
            let mut cur = Some(node);
            while let Some(n) = cur.filter(|&n| prev.is_none_or(|p| n > p)) {
                let path = tree.path(n);
                let count = &mut self.counts[path.0 as usize];
                if *count == 0 {
                    self.touched.push(path);
                }
                *count += 1;
                cur = tree.parent(n);
            }
            prev = Some(node);
        }
        self.touched.sort_unstable();
        self.stats.clear();
        for path in self.touched.drain(..) {
            let f = std::mem::take(&mut self.counts[path.0 as usize]);
            self.stats.push((path, f));
        }
        &self.stats
    }
}

impl PathStatsIndex {
    /// Wraps encoded per-token blobs inside `slab` without decoding them;
    /// each token decodes on first access. `ranges[t]` is the absolute
    /// byte range of token `t`'s blob (see [`encode_stats`]).
    pub(crate) fn from_slab(
        slab: Arc<IndexSlab>,
        ranges: Vec<Range<usize>>,
    ) -> Result<Self, &'static str> {
        Ok(PathStatsIndex {
            blobs: Blobs::new(slab, ranges, decode_stats)?,
        })
    }

    /// The `(path, f_w^p)` list `P_w` for a token, sorted by path id.
    pub fn paths_of(&self, token: TokenId) -> &[(PathId, u32)] {
        self.blobs.get(token.index())
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
        self.blobs.len()
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
    use std::collections::BTreeMap;

    use crate::corpus::CorpusIndex;
    use xclean_xmltree::{parse_document, Tokenizer};

    /// The corpus index of `xml` (its path stats are the ones under test).
    fn index(xml: &str) -> CorpusIndex {
        CorpusIndex::build(parse_document(xml).unwrap())
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
        let c = index(xml);
        let (tree, idx) = (c.tree(), c.path_stats());
        let tid = |s: &str| c.vocab().get(s).unwrap();
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
        let c = index(xml);
        let (tree, idx) = (c.tree(), c.path_stats());
        let tid = c.vocab().get("alpha").unwrap();
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
        let c = index("<r><p>word</p></r>");
        assert_eq!(c.path_stats().f(TokenId(0), PathId(999)), 0);
    }

    /// Oracle check: f computed by brute-force subtree scan must match,
    /// mixed content included, where a posting's node is an ancestor of
    /// the next posting's.
    #[test]
    fn agrees_with_bruteforce() {
        let xml = "<lib>\
            <shelf><book><t>rust systems</t><a>jones</a></book>\
                   <book><t>query systems</t></book></shelf>\
            <shelf><book><t>rust query</t></book></shelf>\
            <shelf><note>rust notes <em>rust query</em> tail</note></shelf>\
        </lib>";
        let c = index(xml);
        let (tree, idx) = (c.tree(), c.path_stats());
        let tok = Tokenizer::default();
        for (t, term) in c.vocab().iter_terms().enumerate() {
            let mut expect: BTreeMap<PathId, u32> = BTreeMap::new();
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
    fn corrupt_stats_blob_degrades_to_empty() {
        let slab = std::sync::Arc::new(crate::slab::IndexSlab::Owned(vec![0xFF, 0xFF]));
        let ranges = vec![std::ops::Range { start: 0, end: 2 }];
        let lazy = PathStatsIndex::from_slab(slab, ranges).unwrap();
        assert!(lazy.paths_of(TokenId(0)).is_empty());
    }
}
