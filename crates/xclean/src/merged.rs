//! A keyword's variant posting lists read as one document-order stream,
//! without a heap (DESIGN.md §15, item 5(e)).
//!
//! Each list has a forward [`Cursor`]: its token, the list, and the
//! position of its next posting; it seeks with
//! [`PostingList::skip_from`]. A keyword's cursor set yields its postings
//! in `(node, cursor)` order — the order the paper's heap-merged list
//! (§V-C) pops them in — by taking the posting at its [`head`], the
//! smallest of the cursors' next nodes, found by a linear minimum. The
//! linear walk steps and takes through such sets; the scan keeps one
//! cursor per column.

use xclean_index::{MergedEntry, PostingList, TokenId};
use xclean_xmltree::NodeId;

/// A forward cursor over one variant's postings, the only way either walk
/// reads them: the variant's token, its list, and the position of its next
/// posting.
#[derive(Debug)]
pub(crate) struct Cursor<'v> {
    pub(crate) token: TokenId,
    list: &'v PostingList,
    /// Postings before it are consumed or passed; stepping past the head
    /// is `pos += 1`.
    pub(crate) pos: usize,
}

impl<'v> Cursor<'v> {
    pub(crate) fn new(token: TokenId, list: &'v PostingList) -> Self {
        Cursor {
            token,
            list,
            pos: 0,
        }
    }

    /// Node of the next posting; `None` once the list is exhausted.
    #[inline]
    pub(crate) fn head(&self) -> Option<NodeId> {
        self.list.nodes().get(self.pos).copied()
    }

    /// Moves past every posting before `node`, without reading them;
    /// returns how many it passed.
    pub(crate) fn seek(&mut self, node: NodeId) -> u64 {
        let from = self.pos;
        self.pos = self.list.skip_from(from, node);
        (self.pos - from) as u64
    }

    /// Consumes every posting before `g_end`, moving those from `g` on into
    /// `out`; returns how many it consumed.
    pub(crate) fn take(&mut self, g: NodeId, g_end: u32, out: &mut Vec<MergedEntry>) -> u64 {
        let from = self.pos;
        self.pos = self.list.skip_from(from, NodeId(g_end));
        let nodes = &self.list.nodes()[from..self.pos];
        let tfs = &self.list.tfs()[from..self.pos];
        let inside = nodes.iter().zip(tfs).filter(|&(&node, _)| node >= g);
        out.extend(inside.map(|(&node, &tf)| (self.token, node, tf)));
        (self.pos - from) as u64
    }
}

/// The head of a keyword's cursor set: the smallest of its cursors' next
/// nodes, and the first cursor there — the posting a merge of the set in
/// `(node, cursor)` order yields next. `None` once every cursor is
/// exhausted.
pub(crate) fn head(cursors: &[Cursor<'_>]) -> Option<(NodeId, usize)> {
    let heads = cursors.iter().enumerate();
    heads.filter_map(|(i, c)| Some((c.head()?, i))).min()
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

    fn set<'v>(lists: &[&'v PostingList]) -> Vec<Cursor<'v>> {
        let lists = lists.iter().enumerate();
        lists
            .map(|(i, &l)| Cursor::new(TokenId(i as u32), l))
            .collect()
    }

    /// Consumes the set's head posting, as the linear walk does at a
    /// shallow anchor: its `(token, node)`.
    fn step(cursors: &mut [Cursor<'_>]) -> Option<(TokenId, NodeId)> {
        let (node, i) = head(cursors)?;
        cursors[i].pos += 1;
        Some((cursors[i].token, node))
    }

    /// Seeks every cursor of the set to `node`: how many postings it
    /// passed.
    fn seek(cursors: &mut [Cursor<'_>], node: NodeId) -> u64 {
        cursors.iter_mut().map(|c| c.seek(node)).sum()
    }

    fn consumed(cursors: &[Cursor<'_>]) -> usize {
        cursors.iter().map(|c| c.pos).sum()
    }

    #[test]
    fn merges_in_document_order() {
        let (a, b) = (pl(&[1, 5, 9]), pl(&[2, 5, 7]));
        let mut m = set(&[&a, &b]);
        let mut seen = Vec::new();
        while let Some((token, node)) = step(&mut m) {
            seen.push((node.0, token.0));
        }
        assert_eq!(seen, vec![(1, 0), (2, 1), (5, 0), (5, 1), (7, 1), (9, 0)]);
        assert!(head(&m).is_none());
        assert_eq!(consumed(&m), 6);
    }

    #[test]
    fn cur_pos_does_not_consume() {
        let a = pl(&[3]);
        let mut m = set(&[&a]);
        assert_eq!(head(&m), Some((NodeId(3), 0)));
        assert_eq!(head(&m), Some((NodeId(3), 0)));
        assert_eq!(consumed(&m), 0);
        assert_eq!(step(&mut m), Some((TokenId(0), NodeId(3))));
        assert!(head(&m).is_none());
    }

    #[test]
    fn skip_to_discards_smaller_nodes() {
        let (a, b) = (pl(&[1, 4, 8, 12]), pl(&[2, 6, 10]));
        let mut m = set(&[&a, &b]);
        assert_eq!(seek(&mut m, NodeId(5)), 3); // 1, 4 from a; 2 from b
        assert_eq!(head(&m), Some((NodeId(6), 1)));
        assert_eq!(seek(&mut m, NodeId(11)), 3);
        assert_eq!(head(&m), Some((NodeId(12), 0)));
        assert_eq!(seek(&mut m, NodeId(13)), 1);
        assert!(head(&m).is_none());
    }

    #[test]
    fn skip_to_is_noop_when_already_past() {
        let a = pl(&[10, 20]);
        let mut m = set(&[&a]);
        assert_eq!(seek(&mut m, NodeId(5)), 0);
        assert_eq!(head(&m), Some((NodeId(10), 0)));
        // At the target already: nothing moves either.
        assert_eq!(seek(&mut m, NodeId(10)), 0);
        assert_eq!(consumed(&m), 0);
    }

    #[test]
    fn empty_members() {
        let a = pl(&[]);
        let mut m = set(&[&a]);
        assert!(head(&m).is_none());
        assert!(step(&mut m).is_none());
        assert_eq!(seek(&mut m, NodeId(0)), 0);
        let mut out = Vec::new();
        assert_eq!(m[0].take(NodeId(0), u32::MAX, &mut out), 0);
        assert!(out.is_empty() && head(&m).is_none());
    }

    #[test]
    fn interleaving_next_and_skip() {
        let (a, b) = (pl(&[1, 3, 5, 7, 9, 11]), pl(&[2, 4, 6, 8, 10, 12]));
        let mut m = set(&[&a, &b]);
        assert_eq!(step(&mut m).unwrap().1, NodeId(1));
        assert_eq!(seek(&mut m, NodeId(6)), 4); // 2, 3, 4, 5
        assert_eq!(step(&mut m).unwrap().1, NodeId(6));
        assert_eq!(step(&mut m).unwrap().1, NodeId(7));
        // A take consumes every cursor up to the end and keeps what is in
        // the subtree.
        let mut out = Vec::new();
        let read: u64 = m.iter_mut().map(|c| c.take(NodeId(9), 11, &mut out)).sum();
        assert_eq!(read, 3); // 8 from b, passed; 9 from a, 10 from b, kept
        out.sort_unstable();
        let kept = vec![(TokenId(0), NodeId(9), 1), (TokenId(1), NodeId(10), 1)];
        assert_eq!(out, kept);
        assert_eq!(seek(&mut m, NodeId(12)), 1);
        assert_eq!(step(&mut m).unwrap().1, NodeId(12));
        assert!(step(&mut m).is_none());
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Naive reference model: every posting as a flat sorted
    /// `(node, cursor)` multiset with a position. A keyword's cursor set
    /// must behave exactly like this whatever its steps, takes and seeks.
    struct Oracle {
        items: Vec<(u32, u32)>,
        pos: usize,
    }

    impl Oracle {
        fn new(lists: &[BTreeSet<u32>]) -> Self {
            let mut items: Vec<(u32, u32)> = lists
                .iter()
                .enumerate()
                .flat_map(|(i, s)| s.iter().map(move |&n| (n, i as u32)))
                .collect();
            // Equal nodes tie-break on the cursor index, as `head` does.
            items.sort_unstable();
            Oracle { items, pos: 0 }
        }

        fn cur(&self) -> Option<(u32, u32)> {
            self.items.get(self.pos).copied()
        }

        fn next(&mut self) -> Option<(u32, u32)> {
            let e = self.cur()?;
            self.pos += 1;
            Some(e)
        }

        /// Moves past every item before `node`: how many.
        fn skip_to(&mut self, node: u32) -> usize {
            let behind = self.items[self.pos..].partition_point(|&(n, _)| n < node);
            self.pos += behind;
            behind
        }
    }

    fn tf(node: u32) -> u32 {
        node % 3 + 1
    }

    fn build_lists(lists: &[BTreeSet<u32>]) -> Vec<PostingList> {
        lists
            .iter()
            .map(|s| {
                let mut l = PostingList::new();
                s.iter().for_each(|&n| l.push(NodeId(n), tf(n)));
                l
            })
            .collect()
    }

    fn cursors(pls: &[PostingList]) -> Vec<Cursor<'_>> {
        let pls = pls.iter().enumerate();
        pls.map(|(i, l)| Cursor::new(TokenId(i as u32), l))
            .collect()
    }

    fn head_pair(cursors: &[Cursor<'_>]) -> Option<(u32, u32)> {
        head(cursors).map(|(node, i)| (node.0, cursors[i].token.0))
    }

    fn step(cursors: &mut [Cursor<'_>]) -> Option<(u32, u32)> {
        let got = head_pair(cursors)?;
        let (_, i) = head(cursors)?;
        cursors[i].pos += 1;
        Some(got)
    }

    fn seek(cursors: &mut [Cursor<'_>], node: u32) -> u64 {
        cursors.iter_mut().map(|c| c.seek(NodeId(node))).sum()
    }

    proptest! {
        /// Arbitrary interleavings of the linear walk's steps (one
        /// posting at the head), subtree takes and seeks on every cursor
        /// agree with the oracle on the node *and* the token of every
        /// posting, and on how many each consumes or passes.
        #[test]
        fn oracle_agrees_on_random_interleavings(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..150, 0..25), 1..5),
            ops in proptest::collection::vec((0u32..3, 0u32..160, 0u32..40), 0..60),
        ) {
            let pls = build_lists(&lists);
            let mut m = cursors(&pls);
            let mut oracle = Oracle::new(&lists);
            for (op, node, len) in ops {
                match op {
                    0 => prop_assert_eq!(step(&mut m), oracle.next()),
                    1 => {
                        let mut out = Vec::new();
                        let read: u64 =
                            m.iter_mut().map(|c| c.take(NodeId(node), node + len, &mut out)).sum();
                        let from = oracle.pos;
                        oracle.skip_to(node + len);
                        let mut expect: Vec<MergedEntry> = oracle.items[from..oracle.pos]
                            .iter()
                            .filter(|&&(n, _)| n >= node)
                            .map(|&(n, i)| (TokenId(i), NodeId(n), tf(n)))
                            .collect();
                        out.sort_unstable();
                        expect.sort_unstable();
                        prop_assert_eq!(read, (oracle.pos - from) as u64);
                        prop_assert_eq!(out, expect);
                    }
                    _ => prop_assert_eq!(seek(&mut m, node), oracle.skip_to(node) as u64),
                }
                prop_assert_eq!(head_pair(&m), oracle.cur());
            }
            // The cursors never move past the physical postings.
            let total: usize = pls.iter().map(PostingList::len).sum();
            prop_assert!(m.iter().map(|c| c.pos).sum::<usize>() <= total);
        }

        /// Seeking past the largest node exhausts the set, and further
        /// steps and seeks stay `None` without panicking.
        #[test]
        fn skip_to_past_end_exhausts(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..100, 1..20), 1..4),
        ) {
            let max = lists.iter().flatten().max().copied().unwrap_or(0);
            let pls = build_lists(&lists);
            let mut m = cursors(&pls);
            let total: usize = pls.iter().map(PostingList::len).sum();
            prop_assert_eq!(seek(&mut m, max + 1), total as u64);
            prop_assert_eq!(head_pair(&m), None);
            prop_assert_eq!(step(&mut m), None);
            prop_assert_eq!(seek(&mut m, 0), 0);
            prop_assert_eq!(head_pair(&m), None);
        }

        /// Seeking the set to its head's node is the identity: the head
        /// stays, and nothing is passed or consumed.
        #[test]
        fn skip_to_current_is_identity(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..100, 1..20), 1..4),
            advance in 0usize..10,
        ) {
            let pls = build_lists(&lists);
            let mut m = cursors(&pls);
            for _ in 0..advance {
                if step(&mut m).is_none() { break; }
            }
            if let Some(head) = head_pair(&m) {
                let before: Vec<usize> = m.iter().map(|c| c.pos).collect();
                prop_assert_eq!(seek(&mut m, head.0), 0);
                prop_assert_eq!(head_pair(&m), Some(head));
                prop_assert_eq!(m.iter().map(|c| c.pos).collect::<Vec<_>>(), before);
            }
        }

        /// Empty lists are invisible: the set's stream equals the stream
        /// over its non-empty lists alone.
        #[test]
        fn empty_members_are_invisible(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..100, 0..15), 1..5),
        ) {
            let pls = build_lists(&lists);
            let mut with_empty = cursors(&pls);
            // Keep the original indices as tokens so the streams line up.
            let mut without: Vec<Cursor<'_>> = pls
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.is_empty())
                .map(|(i, l)| Cursor::new(TokenId(i as u32), l))
                .collect();
            loop {
                let a = step(&mut with_empty);
                let b = step(&mut without);
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }
    }

    proptest! {
        /// Draining through arbitrary interleavings of steps and seeks
        /// yields the fully merged node order with nothing before the last
        /// seek's target surviving, and the head never moves back.
        #[test]
        fn skip_preserves_merge_semantics(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..200, 0..30), 1..4),
            ops in proptest::collection::vec((0u32..2, 0u32..220), 0..40),
        ) {
            let pls = build_lists(&lists);
            let mut m = cursors(&pls);
            // Reference: the fully merged sorted multiset of nodes.
            let mut all: Vec<u32> = lists.iter().flatten().copied().collect();
            all.sort_unstable();
            let mut ref_pos = 0usize;
            let mut last = None;
            for (op, arg) in ops {
                if op == 0 {
                    let got = step(&mut m).map(|(node, _)| node);
                    let expect = all.get(ref_pos).copied();
                    prop_assert_eq!(got, expect);
                    if got.is_some() { ref_pos += 1; }
                } else {
                    seek(&mut m, arg);
                    ref_pos += all[ref_pos..].partition_point(|&x| x < arg);
                    let got = head_pair(&m).map(|(node, _)| node);
                    prop_assert_eq!(got, all.get(ref_pos).copied());
                }
                if let Some((head, _)) = head_pair(&m) {
                    if let Some(l) = last {
                        prop_assert!(head >= l);
                    }
                    last = Some(head);
                }
            }
        }
    }
}
