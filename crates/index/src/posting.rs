//! Posting lists: per-token lists of tree nodes in document order.
//!
//! Each entry is the paper's `(dewey, label-path, tf)` tuple (§V-C). The
//! implementation stores entries in struct-of-arrays form keyed by
//! [`NodeId`]; because the tree arena is laid out in preorder, node-id
//! order *is* Dewey document order, so all order comparisons reduce to
//! integer comparisons (a property pinned by tests in the corpus module).
//! The Dewey components themselves are kept in a shared arena so they can
//! be displayed and serialised without re-walking the tree.

use xclean_xmltree::{NodeId, PathId};

/// One posting: a node whose direct text contains the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting<'a> {
    /// The node (document-order rank in the tree arena).
    pub node: NodeId,
    /// The node's label path (type).
    pub path: PathId,
    /// Term frequency of the token in the node's direct text.
    pub tf: u32,
    /// Dewey components of the node.
    pub dewey: &'a [u32],
}

/// A posting list sorted by document order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PostingList {
    nodes: Vec<NodeId>,
    paths: Vec<PathId>,
    tfs: Vec<u32>,
    dewey_buf: Vec<u32>,
    /// `dewey_ends[i]` is the exclusive end of entry `i`'s components in
    /// `dewey_buf`; entry `i` starts at `dewey_ends[i-1]` (or 0).
    dewey_ends: Vec<u32>,
}

impl PostingList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates room for `n` postings (the decoder knows the entry
    /// count up front from the length prefix). Dewey components are not
    /// reserved — their total size is only known after decoding.
    pub fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
        self.paths.reserve(n);
        self.tfs.reserve(n);
        self.dewey_ends.reserve(n);
    }

    /// Appends a posting. Entries must be pushed in strictly increasing
    /// node (document) order.
    pub fn push(&mut self, node: NodeId, path: PathId, tf: u32, dewey: &[u32]) {
        debug_assert!(
            self.nodes.last().is_none_or(|&last| last < node),
            "postings must be appended in document order"
        );
        self.nodes.push(node);
        self.paths.push(path);
        self.tfs.push(tf);
        self.dewey_buf.extend_from_slice(dewey);
        self.dewey_ends.push(self.dewey_buf.len() as u32);
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
    pub fn get(&self, i: usize) -> Posting<'_> {
        let start = if i == 0 {
            0
        } else {
            self.dewey_ends[i - 1] as usize
        };
        Posting {
            node: self.nodes[i],
            path: self.paths[i],
            tf: self.tfs[i],
            dewey: &self.dewey_buf[start..self.dewey_ends[i] as usize],
        }
    }

    /// Node id of the `i`-th posting alone — one column read, for cursor
    /// code (heap keys, range gates) that does not need the full tuple.
    pub fn node_at(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// Term frequency of the `i`-th posting alone (see [`Self::node_at`]).
    pub fn tf_at(&self, i: usize) -> u32 {
        self.tfs[i]
    }

    /// Node ids of all postings (document order).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Iterates over all postings in document order.
    pub fn iter(&self) -> impl Iterator<Item = Posting<'_>> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Index of the first posting whose node is `>= node`, or `len()`.
    ///
    /// Uses exponential (galloping) search from `from`, matching the
    /// paper's `skip_to` implementation note ("binary search or
    /// exponential search", §V-C).
    pub fn skip_from(&self, from: usize, node: NodeId) -> usize {
        gallop(&self.nodes, from, |&x| x < node)
    }

    /// Total of all term frequencies (diagnostic).
    pub fn total_tf(&self) -> u64 {
        self.tfs.iter().map(|&t| t as u64).sum()
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
            l.push(NodeId(n), PathId(0), 1, &[1, n]);
        }
        l
    }

    #[test]
    fn push_and_get() {
        let mut l = PostingList::new();
        l.push(NodeId(3), PathId(7), 2, &[1, 2, 3]);
        l.push(NodeId(9), PathId(8), 1, &[1, 4]);
        assert_eq!(l.len(), 2);
        let p = l.get(0);
        assert_eq!(p.node, NodeId(3));
        assert_eq!(p.path, PathId(7));
        assert_eq!(p.tf, 2);
        assert_eq!(p.dewey, &[1, 2, 3]);
        let q = l.get(1);
        assert_eq!(q.dewey, &[1, 4]);
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
        l.push(NodeId(5), PathId(0), 1, &[1]);
        l.push(NodeId(4), PathId(0), 1, &[1]);
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
                l.push(NodeId(n), PathId(0), 1, &[n]);
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
