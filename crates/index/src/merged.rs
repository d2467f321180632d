//! The `MergedList` abstraction (§V-C).
//!
//! Organises the inverted lists of all variants of one query keyword as if
//! they had been physically merged into a single document-order list. A min
//! heap over the member cursors provides `cur_pos`/`next`; `skip_to`
//! gallops every member list past the target and rebuilds the heap.
//!
//! Access counters record how many postings were read vs. skipped, feeding
//! the skipping ablation (DESIGN.md §7, experiment E11).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use xclean_xmltree::NodeId;

use crate::posting::PostingList;
use crate::vocab::TokenId;

/// What the walk reads of a merged-list entry: the variant token whose
/// inverted list produced the posting, the posting's node, and its term
/// frequency. The posting's path and Dewey columns are never touched.
pub type MergedEntry = (TokenId, NodeId, u32);

/// Counters of posting-list I/O performed by a [`MergedList`].
///
/// Also the unit in which the engine reports posting I/O per run:
/// `RunStats::access` in `crates/xclean` sums the per-list stats with
/// [`AccessStats::add_assign`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccessStats {
    /// Postings returned by `next()` (actually consumed). On the walk's
    /// scan path: the postings gathered for the scorers that asked for a
    /// passing subtree's node-level occurrences.
    pub read: u64,
    /// Postings jumped over by `skip_to()` without being consumed.
    pub skipped: u64,
    /// Number of `skip_to` calls.
    pub skip_calls: u64,
    /// Postings of the scan path's members whose entity list the level
    /// table keeps: marked a listed subtree at a time, outside any cursor
    /// — the walk's scan path counts these; a `MergedList` never does.
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

struct Cursor<'a> {
    token: TokenId,
    list: &'a PostingList,
    pos: usize,
}

/// Heap key of a member whose current posting is at `node`: node id in
/// the high half, member index in the low half, so `u64` order is
/// `(node, member)` order.
fn heap_key(node: NodeId, member: usize) -> Reverse<u64> {
    Reverse(u64::from(node.0) << 32 | member as u64)
}

fn key_node(key: Reverse<u64>) -> NodeId {
    NodeId((key.0 >> 32) as u32)
}

fn key_member(key: Reverse<u64>) -> usize {
    key.0 as u32 as usize
}

/// Merged view over the inverted lists of a keyword's variants.
pub struct MergedList<'a> {
    members: Vec<Cursor<'a>>,
    /// Min-heap of [`heap_key`]s, one per member not yet exhausted.
    heap: BinaryHeap<Reverse<u64>>,
    stats: AccessStats,
}

impl<'a> MergedList<'a> {
    /// Builds a merged list over `(token, list)` member pairs.
    pub fn new(members: impl IntoIterator<Item = (TokenId, &'a PostingList)>) -> Self {
        let members: Vec<Cursor<'a>> = members
            .into_iter()
            .map(|(token, list)| Cursor {
                token,
                list,
                pos: 0,
            })
            .collect();
        assert!(
            u32::try_from(members.len()).is_ok(),
            "member index must fit the heap key"
        );
        let mut heap = BinaryHeap::with_capacity(members.len());
        for (i, c) in members.iter().enumerate() {
            if !c.list.is_empty() {
                heap.push(heap_key(c.list.node_at(0), i));
            }
        }
        MergedList {
            members,
            heap,
            stats: AccessStats::default(),
        }
    }

    /// The head of the merged list without consuming it
    /// (the paper's `cur_pos()`).
    pub fn cur_pos(&self) -> Option<MergedEntry> {
        let c = &self.members[key_member(*self.heap.peek()?)];
        let p = c.list.get(c.pos);
        Some((c.token, p.node, p.tf))
    }

    /// Node id of the head alone — a single heap peek. The anchor walk
    /// polls heads once per visited subtree and only needs the id for a
    /// range comparison.
    pub fn head_node(&self) -> Option<NodeId> {
        self.heap.peek().map(|&key| key_node(key))
    }

    /// Returns the head and removes it from the list. Named after the
    /// paper's `next()` operation; `MergedList` is deliberately not an
    /// `Iterator` because `skip_to` interleaves with consumption.
    ///
    /// The member's next posting replaces the heap top in place (one sift
    /// down) rather than a pop followed by a push.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<MergedEntry> {
        let mut top = self.heap.peek_mut()?;
        let i = key_member(*top);
        let c = &mut self.members[i];
        let p = c.list.get(c.pos);
        let entry = (c.token, p.node, p.tf);
        c.pos += 1;
        self.stats.read += 1;
        if c.pos < c.list.len() {
            *top = heap_key(c.list.node_at(c.pos), i);
        } else {
            PeekMut::pop(top);
        }
        Some(entry)
    }

    /// Discards all postings with node `<` `target` and returns the first
    /// posting `>= target`, if any (the paper's `skip_to(dewey)`; node ids
    /// are document-order ranks, so the comparison is equivalent).
    ///
    /// Lazy by member: only heap heads *behind* the target are galloped
    /// forward and re-sifted — members already at or past the target are
    /// never touched. A gated anchor walk calls `skip_to` once per
    /// subtree, so on wide variant sets (hundreds of member lists at
    /// realistic corpus scale) this turns the dominant walk cost from
    /// `O(V log V)` per subtree into `O(b log V)` for the `b` members that
    /// actually moved. Skipped-posting counts and the resulting cursor
    /// positions are identical to an eager whole-heap rebuild; heap
    /// entries are unique `(node, member)` pairs, so the pop order — and
    /// with it every downstream result — is deterministic either way.
    pub fn skip_to(&mut self, target: NodeId) -> Option<MergedEntry> {
        self.skip_to_node(target);
        self.cur_pos()
    }

    /// [`Self::skip_to`] when only the resulting head *node* is needed:
    /// same member advancement and I/O accounting, but no entry is read.
    /// This is the walk's presence-gate primitive.
    pub fn skip_to_node(&mut self, target: NodeId) -> Option<NodeId> {
        self.stats.skip_calls += 1;
        while let Some(mut top) = self.heap.peek_mut() {
            if key_node(*top) >= target {
                break;
            }
            let i = key_member(*top);
            let c = &mut self.members[i];
            let new_pos = c.list.skip_from(c.pos, target);
            self.stats.skipped += (new_pos - c.pos) as u64;
            c.pos = new_pos;
            if c.pos < c.list.len() {
                *top = heap_key(c.list.node_at(c.pos), i);
            } else {
                PeekMut::pop(top);
            }
        }
        self.head_node()
    }

    /// `true` once every member list is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.heap.is_empty()
    }

    /// I/O counters accumulated so far.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }
}

// `MergedList` borrows posting slices from a (`Sync`) corpus, so cursors
// may be built and driven inside worker threads; this pins the guarantee
// at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<MergedList<'static>>();
};

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
    fn merges_in_document_order() {
        let a = pl(&[1, 5, 9]);
        let b = pl(&[2, 5, 7]);
        let mut m = MergedList::new([(TokenId(0), &a), (TokenId(1), &b)]);
        let mut seen = Vec::new();
        while let Some((token, node, _)) = m.next() {
            seen.push((node.0, token.0));
        }
        assert_eq!(seen, vec![(1, 0), (2, 1), (5, 0), (5, 1), (7, 1), (9, 0)]);
        assert!(m.is_exhausted());
        assert_eq!(m.stats().read, 6);
    }

    #[test]
    fn cur_pos_does_not_consume() {
        let a = pl(&[3]);
        let mut m = MergedList::new([(TokenId(0), &a)]);
        assert_eq!(m.cur_pos().unwrap().1, NodeId(3));
        assert_eq!(m.cur_pos().unwrap().1, NodeId(3));
        assert_eq!(m.next().unwrap().1, NodeId(3));
        assert!(m.cur_pos().is_none());
    }

    #[test]
    fn skip_to_discards_smaller_nodes() {
        let a = pl(&[1, 4, 8, 12]);
        let b = pl(&[2, 6, 10]);
        let mut m = MergedList::new([(TokenId(0), &a), (TokenId(1), &b)]);
        let e = m.skip_to(NodeId(5)).unwrap();
        assert_eq!(e.1, NodeId(6));
        assert_eq!(m.stats().skipped, 3); // 1, 4 from a; 2 from b
        let e = m.skip_to(NodeId(11)).unwrap();
        assert_eq!(e.1, NodeId(12));
        assert!(m.skip_to(NodeId(13)).is_none());
        assert!(m.is_exhausted());
    }

    #[test]
    fn skip_to_is_noop_when_already_past() {
        let a = pl(&[10, 20]);
        let mut m = MergedList::new([(TokenId(0), &a)]);
        let e = m.skip_to(NodeId(5)).unwrap();
        assert_eq!(e.1, NodeId(10));
        assert_eq!(m.stats().skipped, 0);
    }

    #[test]
    fn empty_members() {
        let a = pl(&[]);
        let mut m = MergedList::new([(TokenId(0), &a)]);
        assert!(m.cur_pos().is_none());
        assert!(m.next().is_none());
        assert!(m.skip_to(NodeId(0)).is_none());
        assert!(m.is_exhausted());
    }

    #[test]
    fn interleaving_next_and_skip() {
        let a = pl(&[1, 3, 5, 7, 9, 11]);
        let b = pl(&[2, 4, 6, 8, 10, 12]);
        let mut m = MergedList::new([(TokenId(0), &a), (TokenId(1), &b)]);
        assert_eq!(m.next().unwrap().1, NodeId(1));
        assert_eq!(m.skip_to(NodeId(6)).unwrap().1, NodeId(6));
        assert_eq!(m.next().unwrap().1, NodeId(6));
        assert_eq!(m.next().unwrap().1, NodeId(7));
        assert_eq!(m.skip_to(NodeId(12)).unwrap().1, NodeId(12));
        assert_eq!(m.next().unwrap().1, NodeId(12));
        assert!(m.next().is_none());
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    /// Naive reference model: the flat sorted `(node, member)` multiset
    /// with a cursor. `MergedList` must behave exactly like this no
    /// matter how `next`/`skip_to` interleave.
    struct Oracle {
        items: Vec<(u32, u32)>,
        pos: usize,
    }

    impl Oracle {
        fn new(lists: &[std::collections::BTreeSet<u32>]) -> Self {
            let mut items: Vec<(u32, u32)> = lists
                .iter()
                .enumerate()
                .flat_map(|(i, s)| s.iter().map(move |&n| (n, i as u32)))
                .collect();
            // Equal nodes tie-break on member index, matching the heap's
            // `(NodeId, usize)` ordering.
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

        fn skip_to(&mut self, target: u32) -> Option<(u32, u32)> {
            self.pos += self.items[self.pos..].partition_point(|&(n, _)| n < target);
            self.cur()
        }
    }

    fn build_lists(lists: &[std::collections::BTreeSet<u32>]) -> Vec<PostingList> {
        lists
            .iter()
            .map(|s| {
                let mut l = PostingList::new();
                for &n in s {
                    l.push(NodeId(n), 1);
                }
                l
            })
            .collect()
    }

    fn merged(pls: &[PostingList]) -> MergedList<'_> {
        MergedList::new(pls.iter().enumerate().map(|(i, l)| (TokenId(i as u32), l)))
    }

    fn entry_pair((token, node, _): MergedEntry) -> (u32, u32) {
        (node.0, token.0)
    }

    proptest! {
        /// Arbitrary interleavings of `next`/`skip_to` agree with the
        /// oracle on both the node *and* the member token of every entry.
        #[test]
        fn oracle_agrees_on_random_interleavings(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..150, 0..25), 1..5),
            ops in proptest::collection::vec((0u32..2, 0u32..160), 0..60),
        ) {
            let pls = build_lists(&lists);
            let mut m = merged(&pls);
            let mut oracle = Oracle::new(&lists);
            for (op, arg) in ops {
                let (got, expect) = if op == 0 {
                    (m.next().map(entry_pair), oracle.next())
                } else {
                    (m.skip_to(NodeId(arg)).map(entry_pair), oracle.skip_to(arg))
                };
                prop_assert_eq!(got, expect);
                prop_assert_eq!(m.cur_pos().map(entry_pair), oracle.cur());
                prop_assert_eq!(m.is_exhausted(), oracle.cur().is_none());
            }
            // I/O accounting can never exceed the physical postings.
            let s = m.stats();
            let total: usize = pls.iter().map(PostingList::len).sum();
            prop_assert!(s.read + s.skipped <= total as u64);
        }

        /// Skipping past the largest node exhausts the list, and further
        /// operations stay `None` without panicking.
        #[test]
        fn skip_to_past_end_exhausts(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..100, 1..20), 1..4),
        ) {
            let max = lists.iter().flatten().max().copied().unwrap_or(0);
            let pls = build_lists(&lists);
            let mut m = merged(&pls);
            prop_assert_eq!(m.skip_to(NodeId(max + 1)).map(entry_pair), None);
            prop_assert!(m.is_exhausted());
            prop_assert_eq!(m.next().map(entry_pair), None);
            prop_assert_eq!(m.skip_to(NodeId(0)).map(entry_pair), None);
        }

        /// `skip_to(cur_pos().node)` is the identity: it returns the
        /// current head and performs zero skipping I/O.
        #[test]
        fn skip_to_current_is_identity(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..100, 1..20), 1..4),
            advance in 0usize..10,
        ) {
            let pls = build_lists(&lists);
            let mut m = merged(&pls);
            for _ in 0..advance {
                if m.next().is_none() { break; }
            }
            if let Some(head) = m.cur_pos().map(entry_pair) {
                let before = m.stats();
                let again = m.skip_to(NodeId(head.0)).map(entry_pair);
                prop_assert_eq!(again, Some(head));
                prop_assert_eq!(m.stats().skipped, before.skipped);
                prop_assert_eq!(m.stats().read, before.read);
                prop_assert_eq!(m.stats().skip_calls, before.skip_calls + 1);
            }
        }

        /// Empty member lists are invisible: the merged stream equals the
        /// stream over the non-empty members alone.
        #[test]
        fn empty_members_are_invisible(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..100, 0..15), 1..5),
        ) {
            let pls = build_lists(&lists);
            let mut with_empty = merged(&pls);
            // Keep original member indices so tokens line up.
            let kept: Vec<(TokenId, &PostingList)> = pls
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.is_empty())
                .map(|(i, l)| (TokenId(i as u32), l))
                .collect();
            let mut without = MergedList::new(kept);
            loop {
                let a = with_empty.next().map(entry_pair);
                let b = without.next().map(entry_pair);
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }
    }

    proptest! {
        /// Draining via arbitrary interleavings of next/skip_to yields a
        /// subsequence of the fully merged order with nothing < the last
        /// skip target surviving.
        #[test]
        fn skip_preserves_merge_semantics(
            lists in proptest::collection::vec(
                proptest::collection::btree_set(0u32..200, 0..30), 1..4),
            ops in proptest::collection::vec((0u32..2, 0u32..220), 0..40),
        ) {
            let pls: Vec<PostingList> = lists
                .iter()
                .map(|s| {
                    let mut l = PostingList::new();
                    for &n in s {
                        l.push(NodeId(n), 1);
                    }
                    l
                })
                .collect();
            let mut m = MergedList::new(
                pls.iter().enumerate().map(|(i, l)| (TokenId(i as u32), l)),
            );
            // Reference: fully merged sorted multiset.
            let mut all: Vec<u32> = lists.iter().flatten().copied().collect();
            all.sort_unstable();
            let mut ref_pos = 0usize;
            let mut last = None;
            for (op, arg) in ops {
                if op == 0 {
                    let got = m.next().map(|e| e.1 .0);
                    let expect = all.get(ref_pos).copied();
                    prop_assert_eq!(got, expect);
                    if got.is_some() { ref_pos += 1; }
                } else {
                    let got = m.skip_to(NodeId(arg)).map(|e| e.1 .0);
                    ref_pos += all[ref_pos..].partition_point(|&x| x < arg);
                    let expect = all.get(ref_pos).copied();
                    prop_assert_eq!(got, expect);
                }
                if let Some((_, NodeId(head), _)) = m.cur_pos() {
                    if let Some(l) = last {
                        prop_assert!(head >= l);
                    }
                    last = Some(head);
                }
            }
        }
    }
}
