//! Posting lists: per-token lists of tree nodes in document order.
//!
//! The paper's posting is a `(Dewey code, label path, tf)` tuple (§V-C).
//! Here a posting is `(node, tf)`: the tree arena is laid out in preorder,
//! so a [`NodeId`] orders exactly as the Dewey code would (a property
//! pinned by tests in the corpus module) and every order comparison is an
//! integer one. A node's Dewey code and label path are one call away on
//! the tree, so the list stores neither.

use xclean_xmltree::NodeId;

use crate::vocab::TokenId;

/// One posting: a node whose direct text contains the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The node (document-order rank in the tree arena).
    pub node: NodeId,
    /// Term frequency of the token in the node's direct text.
    pub tf: u32,
}

/// What the walk reads of a posting: the variant token whose list holds
/// it, its node, and its term frequency.
pub type MergedEntry = (TokenId, NodeId, u32);

/// Counters of the walk's posting I/O, per run: `RunStats::access` in
/// `crates/xclean`, summed over runs with `+=`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccessStats {
    /// Postings consumed through a cursor, once per keyword whose variants
    /// hold the token: on the linear walk, every posting up to the end of
    /// the last subtree it visits; on the scan, the postings of the passing
    /// subtrees a scorer asked to gather.
    pub read: u64,
    /// Postings a cursor seeked past without consuming them: on the scan,
    /// those the on-demand gathers' per-column seeks jumped; zero on the
    /// linear walk, which consumes every posting it passes.
    pub skipped: u64,
    /// Cursor seeks: on the scan, one per column gathered for a subtree;
    /// zero on the linear walk.
    pub skip_calls: u64,
    /// Postings of the scan path's members whose entity list the level
    /// table keeps: marked a listed subtree at a time, outside any cursor.
    pub scanned: u64,
    /// Postings of the scan path's members whose entity bitmap the level
    /// table keeps: OR-ed in a word at a time, never read one by one.
    pub cached: u64,
    /// Passing subtrees the scan path handed to the scorer from the level
    /// table's entity sets and sums alone, gathering no posting.
    pub from_columns: u64,
}

impl AccessStats {
    /// Postings the scan path marked, read or cached: non-zero when a walk
    /// scanned (with skipping on, over a non-empty level table, and with
    /// no slot empty), zero on the linear walk.
    pub fn scan_postings(&self) -> u64 {
        self.scanned + self.cached
    }
}

impl std::ops::AddAssign for AccessStats {
    fn add_assign(&mut self, rhs: AccessStats) {
        self.read += rhs.read;
        self.skipped += rhs.skipped;
        self.skip_calls += rhs.skip_calls;
        self.scanned += rhs.scanned;
        self.cached += rhs.cached;
        self.from_columns += rhs.from_columns;
    }
}

/// A posting list sorted by document order, as two columns.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PostingList {
    nodes: Vec<NodeId>,
    tfs: Vec<u32>,
}

impl PostingList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates room for `n` postings (the decoder knows the entry
    /// count up front from the length prefix).
    pub fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
        self.tfs.reserve(n);
    }

    /// Appends a posting. Entries must be pushed in strictly increasing
    /// node (document) order.
    pub fn push(&mut self, node: NodeId, tf: u32) {
        debug_assert!(
            self.nodes.last().is_none_or(|&last| last < node),
            "postings must be appended in document order"
        );
        self.nodes.push(node);
        self.tfs.push(tf);
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the token occurs nowhere.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The `i`-th posting.
    pub fn get(&self, i: usize) -> Posting {
        Posting {
            node: self.nodes[i],
            tf: self.tfs[i],
        }
    }

    /// Node ids of all postings (document order).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Term frequencies of all postings, parallel to [`Self::nodes`].
    pub fn tfs(&self) -> &[u32] {
        &self.tfs
    }

    /// Iterates over all postings in document order.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Index of the first posting whose node is `>= node`, or `len()`.
    ///
    /// Uses exponential (galloping) search from `from`, matching the
    /// paper's implementation note on `skip_to` ("binary search or
    /// exponential search", §V-C): the walk's cursors seek with it.
    pub fn skip_from(&self, from: usize, node: NodeId) -> usize {
        gallop(&self.nodes, from, |&x| x < node)
    }
}

/// Index of the first element at or after `from` that is not `behind`, or
/// `xs.len()`: doubles the step until it brackets the answer, then bisects.
/// `xs` is partitioned by `behind` (all `true` before all `false`) and
/// nothing before `from` needs looking at, so a run of lookups over
/// advancing targets costs the distance it covers.
pub(crate) fn gallop<T>(xs: &[T], from: usize, behind: impl Fn(&T) -> bool) -> usize {
    let n = xs.len();
    if from >= n || !behind(&xs[from]) {
        return from;
    }
    // Gallop to bracket the target.
    let mut step = 1;
    let mut lo = from;
    let mut hi = from + 1;
    while hi < n && behind(&xs[hi]) {
        lo = hi;
        step *= 2;
        hi = (hi + step).min(n);
    }
    // Binary search in (lo, hi].
    lo + xs[lo..hi].partition_point(behind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(nodes: &[u32]) -> PostingList {
        let mut l = PostingList::new();
        for &n in nodes {
            l.push(NodeId(n), 1);
        }
        l
    }

    #[test]
    fn push_and_get() {
        let mut l = PostingList::new();
        l.push(NodeId(3), 2);
        l.push(NodeId(9), 1);
        assert_eq!(l.len(), 2);
        assert_eq!(
            l.get(0),
            Posting {
                node: NodeId(3),
                tf: 2
            }
        );
        assert_eq!(
            l.get(1),
            Posting {
                node: NodeId(9),
                tf: 1
            }
        );
        assert_eq!(l.nodes(), &[NodeId(3), NodeId(9)]);
    }

    #[test]
    fn skip_from_finds_first_at_or_after() {
        let l = pl(&[2, 5, 9, 14, 20, 33, 40]);
        assert_eq!(l.skip_from(0, NodeId(0)), 0);
        assert_eq!(l.skip_from(0, NodeId(2)), 0);
        assert_eq!(l.skip_from(0, NodeId(3)), 1);
        assert_eq!(l.skip_from(0, NodeId(14)), 3);
        assert_eq!(l.skip_from(0, NodeId(15)), 4);
        assert_eq!(l.skip_from(0, NodeId(41)), 7);
        // resumes correctly from a nonzero cursor
        assert_eq!(l.skip_from(3, NodeId(2)), 3);
        assert_eq!(l.skip_from(3, NodeId(33)), 5);
    }

    #[test]
    fn skip_from_gallops_over_long_lists() {
        let nodes: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let l = pl(&nodes);
        for target in [0u32, 1, 2, 3, 29_994, 29_997, 30_000] {
            let idx = l.skip_from(0, NodeId(target));
            let expect = nodes.partition_point(|&x| x < target);
            assert_eq!(idx, expect, "target {target}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "document order")]
    fn out_of_order_push_panics_in_debug() {
        let mut l = PostingList::new();
        l.push(NodeId(5), 1);
        l.push(NodeId(4), 1);
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn skip_matches_linear_scan(
            raw in proptest::collection::btree_set(0u32..500, 0..80),
            target in 0u32..510,
            from_frac in 0usize..100,
        ) {
            let nodes: Vec<u32> = raw.into_iter().collect();
            let mut l = PostingList::new();
            for &n in &nodes {
                l.push(NodeId(n), 1);
            }
            let from = if nodes.is_empty() { 0 } else { from_frac % (nodes.len() + 1) };
            let got = l.skip_from(from, NodeId(target));
            let expect = nodes
                .iter()
                .enumerate()
                .skip(from)
                .find(|(_, &n)| n >= target)
                .map(|(i, _)| i)
                .unwrap_or(nodes.len());
            prop_assert_eq!(got, expect.max(from));
        }
    }
}
