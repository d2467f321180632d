//! Level table: the depth-`d` subtrees of one corpus, in document order.
//!
//! Algorithm 1 gates every anchor at the minimal depth `d`
//! (`g ← truncate(anchor, d)`, §V-C). With Dewey codes that is a prefix
//! cut; with preorder ids it is a climb through the node table plus an
//! extent and a length lookup — dependent loads into the largest arrays
//! of the index, once per visited subtree. A level table answers the same
//! three questions from four short parallel columns over the depth-`d`
//! nodes only (`start`, `end`, `path`, `doc_len`: 20 bytes an entity), so
//! the gate's working set is the entity count, not the node count.
//!
//! The table is read through one cursor primitive, [`LevelTable::seek`]:
//! the walk's anchors, like the nodes of a posting list, only ever grow,
//! so each lookup gallops forward from the previous one.
//! [`CorpusIndex::level`] builds a depth's table on first request and
//! keeps it for the corpus's lifetime.
//!
//! The walk's scan reads what the table keeps per term. A term's
//! *entity set* at a depth — the subtrees holding one of its postings, plus
//! the one past the last position for postings shallower than the table —
//! is a pure function of the corpus, so the table keeps it in one of two
//! forms. A term whose list is at least as long as a bitmap has words
//! (`POSTINGS_PER_WORD`) keeps its *entity bitmap*; those terms are chosen
//! from the vocabulary's `df` when the table is built, so no list is
//! decoded early. Every other term keeps its *entity list*: the set's
//! positions, increasing, the sentinel [`LevelTable::len`] last. Beside
//! either form the table keeps the term's exact `Σ tf` in each member
//! subtree — what the scorer's `count(w, D(r))` needs for an entity at the
//! gate depth — as the sorted `(position, Σ tf)` pairs of the members whose
//! sum is not 1 ([`Entities`]). Both are filled on their first request
//! ([`CorpusIndex::entity_bitmap`], [`CorpusIndex::entity_positions`]) by
//! one pass over the term's postings with a forward `seek` cursor, and read
//! without a lock after that.

use std::sync::OnceLock;

use xclean_xmltree::{NodeId, PathId};

use crate::corpus::CorpusIndex;
use crate::posting::{gallop, PostingList};
use crate::vocab::TokenId;

/// A term keeps its entity bitmap at a depth when its posting list holds at
/// least this many postings per word of the bitmap. At one, OR-ing the kept
/// words costs no more loads than setting one bit per posting, and the
/// bitmaps together take at most 8 bytes per posting of the terms that keep
/// one (1.24 MB for 99 terms at the benchmark's 100k entities).
pub(crate) const POSTINGS_PER_WORD: u64 = 1;

/// One depth-`d` subtree of a [`LevelTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelEntry {
    /// The subtree's root (its first node in preorder).
    pub node: NodeId,
    /// Exclusive preorder end of the subtree.
    pub end: u32,
    /// The root's label path (local to the corpus).
    pub path: PathId,
    /// Virtual-document length of the subtree ([`CorpusIndex::doc_len`]).
    pub doc_len: u64,
}

/// A term's kept entity set at one depth — its bitmap (`S = [u64]`) or its
/// list (`S = [u32]`), see the module docs — with the term's exact `Σ tf`
/// in every member subtree.
#[derive(Debug, PartialEq, Eq)]
pub struct Entities<'a, S: ?Sized> {
    /// The set.
    pub set: &'a S,
    /// `(position, Σ tf)` of the member subtrees whose postings of the term
    /// sum to a tf other than 1, increasing in position; every other
    /// member's `Σ tf` is 1. The sentinel position never appears.
    pub sums: &'a [(u32, u32)],
}

// By hand: a derive would ask `S: Copy` of the unsized set.
impl<S: ?Sized> Clone for Entities<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: ?Sized> Copy for Entities<'_, S> {}

impl<S: ?Sized> Entities<'_, S> {
    /// The `Σ tf` of the term in the member subtree at `pos`, galloping
    /// forward through `sums` from `*from`, which is left at the first
    /// pair not before `pos`: a run of lookups over increasing positions
    /// costs the distance it covers.
    #[inline]
    pub fn sum_at(&self, from: &mut usize, pos: u32) -> u32 {
        *from = gallop(self.sums, *from, |&(p, _)| p < pos);
        match self.sums.get(*from) {
            Some(&(p, sum)) if p == pos => sum,
            _ => 1,
        }
    }
}

impl Entities<'_, [u32]> {
    /// Word `w` of the bitmap this list is the set bits of, galloping
    /// forward through the list from `*from`, which is left at the first
    /// position past the word: a run of lookups over increasing words costs
    /// the distance it covers.
    #[inline]
    pub fn word_from(&self, from: &mut usize, w: usize) -> u64 {
        let (low, high) = ((w * 64) as u32, (w * 64 + 64) as u32);
        *from = gallop(self.set, *from, |&pos| pos < low);
        let mut word = 0;
        while let Some(&pos) = self.set.get(*from).filter(|&&pos| pos < high) {
            word |= 1 << (pos % 64);
            *from += 1;
        }
        word
    }
}

/// An entity set and its sums as the table owns them.
#[derive(Debug)]
struct Kept<S: ?Sized> {
    set: Box<S>,
    sums: Box<[(u32, u32)]>,
}

impl<S: ?Sized> Kept<S> {
    fn get(&self) -> Entities<'_, S> {
        Entities {
            set: &self.set,
            sums: &self.sums,
        }
    }
}

/// The depth-`d` subtrees of a corpus as parallel columns in document
/// order: `start` strictly increasing, extents disjoint.
#[derive(Debug, Default)]
pub struct LevelTable {
    start: Vec<u32>,
    end: Vec<u32>,
    path: Vec<PathId>,
    doc_len: Vec<u64>,
    /// The tokens (ids of the corpus) that keep an entity bitmap here,
    /// increasing; empty when the table is.
    frequent: Box<[TokenId]>,
    /// The entity bitmap of `frequent[i]` and its sums, built on its
    /// first request.
    bitmaps: Box<[OnceLock<Kept<[u64]>>]>,
    /// Per token of the corpus: its entity list and sums, built on its
    /// first request. Empty when the table is.
    lists: Box<[OnceLock<Kept<[u32]>>]>,
}

impl LevelTable {
    /// Collects the depth-`depth` nodes of `corpus`. Hops from each one to
    /// the end of its subtree, so only nodes at most that deep are visited;
    /// then picks the terms that keep a bitmap by their `df` and sets up
    /// one list cell a token.
    pub(crate) fn build(corpus: &CorpusIndex, depth: u32) -> LevelTable {
        let tree = corpus.tree();
        let mut table = LevelTable::default();
        if depth == 0 {
            return table;
        }
        let mut n = 0u32;
        while (n as usize) < tree.len() {
            let node = NodeId(n);
            if tree.depth(node) < depth {
                n += 1;
                continue;
            }
            let end = tree.subtree_end(node);
            table.start.push(n);
            table.end.push(end);
            table.path.push(tree.path(node));
            table.doc_len.push(corpus.doc_len(node));
            n = end;
        }
        table.start.shrink_to_fit();
        table.end.shrink_to_fit();
        table.path.shrink_to_fit();
        table.doc_len.shrink_to_fit();
        if !table.is_empty() {
            let vocab = corpus.vocab();
            let min_df = table.words() as u64 * POSTINGS_PER_WORD;
            let tokens = (0..vocab.len() as u32).map(TokenId);
            table.frequent = tokens.filter(|&t| vocab.df(t) >= min_df).collect();
            table.bitmaps = table.frequent.iter().map(|_| OnceLock::new()).collect();
            table.lists = (0..vocab.len()).map(|_| OnceLock::new()).collect();
        }
        table
    }

    /// Words of an entity bitmap over this table: one bit per subtree and
    /// one for nodes shallower than the table.
    #[inline]
    pub fn words(&self) -> usize {
        self.len() / 64 + 1
    }

    /// The entity bitmap of `token` and its sums if this table keeps one
    /// (see the module docs), filling them from `postings()` — the token's
    /// posting list in this table's corpus — on the first request.
    pub(crate) fn entity_bitmap<'n>(
        &self,
        token: TokenId,
        postings: impl FnOnce() -> &'n PostingList,
    ) -> Option<Entities<'_, [u64]>> {
        let i = self.frequent.binary_search(&token).ok()?;
        let kept = self.bitmaps[i].get_or_init(|| {
            let mut bits = vec![0u64; self.words()];
            let sums = self.fill(postings(), |pos| {
                bits[pos as usize / 64] |= 1 << (pos % 64);
            });
            Kept {
                set: bits.into_boxed_slice(),
                sums,
            }
        });
        Some(kept.get())
    }

    /// The entity list of `token` and its sums (see the module docs),
    /// filling them from `postings()` — the token's posting list in this
    /// table's corpus — on the first request. Empty over an empty table.
    pub(crate) fn entity_positions<'n>(
        &self,
        token: TokenId,
        postings: impl FnOnce() -> &'n PostingList,
    ) -> Entities<'_, [u32]> {
        let Some(cell) = self.lists.get(token.index()) else {
            return Entities {
                set: &[],
                sums: &[],
            };
        };
        let kept = cell.get_or_init(|| {
            let outside = self.len() as u32;
            let mut list: Vec<u32> = Vec::new();
            let mut shallow = false;
            let sums = self.fill(postings(), |pos| {
                if pos == outside {
                    shallow = true;
                } else {
                    list.push(pos);
                }
            });
            if shallow {
                list.push(outside);
            }
            Kept {
                set: list.into_boxed_slice(),
                sums,
            }
        });
        kept.get()
    }

    /// One pass over `postings` with a forward [`Self::seek`] cursor —
    /// postings are in document order — calls `member(pos)` once per
    /// subtree holding a posting — and once per posting shallower than the
    /// table, with [`Self::len`] — and returns the subtrees' `Σ tf` other
    /// than 1, as [`Entities::sums`] keeps them. A posting belongs to the
    /// subtree at the cursor when that subtree's root is not after it, and
    /// to the sentinel otherwise, which a shallow node between two subtrees
    /// can interleave; so each subtree's postings are one run.
    fn fill(&self, postings: &PostingList, mut member: impl FnMut(u32)) -> Box<[(u32, u32)]> {
        let outside = self.len() as u32;
        let mut sums = Vec::new();
        let mut run: Option<(u32, u32)> = None;
        let mut cursor = 0;
        for (&node, &tf) in postings.nodes().iter().zip(postings.tfs()) {
            cursor = self.seek(cursor, node);
            let pos = match self.extent(cursor) {
                Some((root, _)) if root <= node => cursor as u32,
                _ => outside,
            };
            match &mut run {
                _ if pos == outside => member(pos),
                Some((at, sum)) if *at == pos => {
                    *sum = sum
                        .checked_add(tf)
                        .expect("a subtree holds fewer than 2^32 occurrences of one term");
                }
                _ => {
                    sums.extend(run.filter(|&(_, sum)| sum != 1));
                    member(pos);
                    run = Some((pos, tf));
                }
            }
        }
        sums.extend(run.filter(|&(_, sum)| sum != 1));
        sums.into_boxed_slice()
    }

    /// Number of subtrees at this depth.
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// `true` when no node sits at this depth.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// Position of the first subtree at or after `from` that ends past
    /// `node` — the one holding `node` if any does — or [`Self::len`].
    ///
    /// `from` is 0 or what an earlier `seek` returned for a node no larger
    /// than `node`; the search gallops forward from there, so a run of
    /// lookups over increasing nodes costs the distance it covers.
    pub fn seek(&self, from: usize, node: NodeId) -> usize {
        debug_assert!(
            from == 0 || from > self.end.len() || self.end[from - 1] <= node.0,
            "seek cursor is ahead of node {node:?}"
        );
        gallop(&self.end, from, |&end| end <= node.0)
    }

    /// `(root, exclusive end)` of the subtree at `pos`, `None` past the
    /// last one. After `pos = seek(_, node)` the subtree holds `node`
    /// exactly when its root is `<= node`.
    #[inline]
    pub fn extent(&self, pos: usize) -> Option<(NodeId, u32)> {
        Some((NodeId(*self.start.get(pos)?), self.end[pos]))
    }

    /// The subtree at `pos` with its path and length.
    #[inline]
    pub fn entry(&self, pos: usize) -> LevelEntry {
        LevelEntry {
            node: NodeId(self.start[pos]),
            end: self.end[pos],
            path: self.path[pos],
            doc_len: self.doc_len[pos],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_xmltree::parse_document;

    /// Position of the subtree of `table` holding `node`, looked up from
    /// the front, or `len()` for a node shallower than the table.
    pub(super) fn locate_position(table: &LevelTable, node: NodeId) -> usize {
        let pos = table.seek(0, node);
        match table.extent(pos) {
            Some((root, _)) if root <= node => pos,
            _ => table.len(),
        }
    }

    /// The subtree of `table` holding `node`, looked up from the front.
    pub(super) fn locate(table: &LevelTable, node: NodeId) -> Option<LevelEntry> {
        let pos = locate_position(table, node);
        (pos < table.len()).then(|| table.entry(pos))
    }

    #[test]
    fn depth_two_lists_the_root_children_with_their_lengths() {
        let xml = "<lib>\
            <book><title>keyword search</title><author>smith</author></book>\
            <shelf>mixed <book><title>query cleaning</title></book> content</shelf>\
        </lib>";
        let c = CorpusIndex::build(parse_document(xml).unwrap());
        let tree = c.tree();
        let table = c.level(2);
        let children: Vec<NodeId> = tree.children(tree.root()).collect();
        assert_eq!(table.len(), 2);
        for (pos, &child) in children.iter().enumerate() {
            let entry = table.entry(pos);
            assert_eq!(entry.node, child);
            assert_eq!(entry.end, tree.subtree_end(child));
            assert_eq!(entry.path, tree.path(child));
            assert_eq!(entry.doc_len, c.doc_len(child));
            assert_eq!(table.extent(pos), Some((child, entry.end)));
        }
        assert_eq!(table.extent(2), None);
        // The root is shallower than the table; the deepest title is held
        // by the shelf.
        assert_eq!(locate(table, tree.root()), None);
        assert_eq!(locate_position(table, tree.root()), 2);
        let shelf = children[1].0;
        assert!((shelf..tree.len() as u32).all(|n| locate_position(table, NodeId(n)) == 1));
        let last = NodeId(tree.len() as u32 - 1);
        assert_eq!(locate(table, last).map(|e| e.node), Some(children[1]));
        assert_eq!(table.entry(1).doc_len, 4);
    }

    #[test]
    fn depths_outside_the_tree_share_empty_tables() {
        let c = CorpusIndex::build(parse_document("<a><b>text here</b></a>").unwrap());
        assert!(c.level(0).is_empty());
        assert_eq!(c.level(1).len(), 1);
        assert_eq!(c.level(2).len(), 1);
        assert!(c.level(3).is_empty());
        assert_eq!(locate_position(c.level(3), NodeId(0)), 0);
        let positions = [0, 1].map(|n| locate_position(c.level(2), NodeId(n)));
        assert_eq!(positions, [1, 0]);
        assert!(std::ptr::eq(c.level(3), c.level(u32::MAX)));
        assert_eq!(c.level(3).seek(0, NodeId(1)), 0);
        // Built once: the same table comes back.
        assert!(std::ptr::eq(c.level(2), c.level(2)));
    }

    #[test]
    fn terms_with_a_posting_per_word_keep_their_bitmaps() {
        // 130 entities: three words. `often` is in three of them, `twice`
        // in two; `often` also sits in the root's own text.
        let mut xml = String::from("<r>often");
        for i in 0..130 {
            let word = match i {
                0 | 64 => "often twice",
                129 => "often",
                _ => "filler",
            };
            xml.push_str(&format!("<p>{word}</p>"));
        }
        xml.push_str("</r>");
        let c = CorpusIndex::build(parse_document(&xml).unwrap());
        let token = |term| c.vocab().get(term).unwrap();
        let bitmap = |depth, term| c.entity_bitmap(depth, token(term)).map(|e| e.set);
        let list = |depth, term| c.entity_positions(depth, token(term)).set;
        assert_eq!(c.level(2).words(), 3);
        assert_eq!(bitmap(2, "twice"), None);
        // Bits 0, 64 and 129, and 130 for the root's text.
        let expect = [1, 1, 1 << 1 | 1 << 2];
        assert_eq!(bitmap(2, "often"), Some(&expect[..]));
        // Every term keeps its list: the root's text is the sentinel 130.
        assert_eq!(list(2, "twice"), [0, 64]);
        assert_eq!(list(2, "often"), [0, 64, 129, 130]);
        // At depth 1 the one-word bitmap is kept for every term.
        assert_eq!(bitmap(1, "twice"), Some(&[1][..]));
        // Nothing is kept over an empty table.
        assert_eq!(bitmap(3, "often"), None);
        assert_eq!(list(3, "often"), []);
    }

    #[test]
    fn sums_other_than_one_are_kept_beside_either_form() {
        // `word` twice in the first entity (once in its text, once in a
        // leaf), three times in the third, once in the second and once in
        // the root's own text, which belongs to no entity.
        let xml = "<r>word<p>word<t>word</t></p><p>word</p><p><t>word word word</t></p></r>";
        let c = CorpusIndex::build(parse_document(xml).unwrap());
        let word = c.vocab().get("word").unwrap();
        let bitmap = c.entity_bitmap(2, word).expect("a posting per word");
        let list = c.entity_positions(2, word);
        assert_eq!(bitmap.set, [0b1111]);
        assert_eq!(list.set, [0, 1, 2, 3]);
        for kept in [bitmap.sums, list.sums] {
            assert_eq!(kept, [(0, 2), (2, 3)]);
        }
        // Forward cursors over increasing positions and words.
        let mut sum_at = 0;
        let sums: Vec<u32> = (0..3).map(|pos| list.sum_at(&mut sum_at, pos)).collect();
        assert_eq!(sums, [2, 1, 3]);
        assert_eq!(list.word_from(&mut 0, 0), bitmap.set[0]);
        assert_eq!(list.word_from(&mut 0, 1), 0);
        // At depth 3 only the leaves are entities: one holds 3, one holds 1.
        let deep = c.entity_positions(3, word);
        assert_eq!((deep.set, deep.sums), (&[0, 1, 2][..], &[(1, 3)][..]));
    }

    #[test]
    fn single_node_tree() {
        let c = CorpusIndex::build(parse_document("<a>lonely words</a>").unwrap());
        assert!(c.level(0).is_empty());
        assert_eq!(
            locate(c.level(1), NodeId(0)),
            Some(LevelEntry {
                node: NodeId(0),
                end: 1,
                path: c.tree().path(NodeId(0)),
                doc_len: 2,
            })
        );
        assert!(c.level(2).is_empty());
    }
}

#[cfg(test)]
mod prop {
    use super::tests::{locate, locate_position};
    use super::*;
    use proptest::prelude::*;
    use xclean_xmltree::TreeBuilder;

    /// One builder step per byte: open a child, close the current element,
    /// append a text leaf, or add text to the current element itself — so
    /// shallow nodes carry indexed text between their children.
    fn build(shape: &[u8]) -> CorpusIndex {
        let mut b = TreeBuilder::new("r");
        let mut depth = 0usize;
        for &s in shape {
            match s % 5 {
                0 => {
                    b.open(if s % 2 == 0 { "n" } else { "m" });
                    depth += 1;
                }
                1 if depth > 0 => {
                    b.close();
                    depth -= 1;
                }
                2 => b.text("shallow words"),
                _ => {
                    b.leaf("t", "alpha beta gamma");
                }
            }
        }
        CorpusIndex::build(b.finish())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// At every depth, the table located at a node is the tree's own
        /// answer; cursors resumed from any earlier lookup agree with a
        /// lookup from the front; extents are increasing and disjoint.
        #[test]
        fn level_tables_match_the_tree(
            shape in proptest::collection::vec(0u8..20, 0..70),
        ) {
            let corpus = build(&shape);
            let tree = corpus.tree();
            let max_depth = tree.iter().map(|n| tree.depth(n)).max().unwrap();
            for d in 0..=max_depth + 1 {
                let table = corpus.level(d);
                prop_assert_eq!(table.is_empty(), d == 0 || d > max_depth);
                let expected = tree.iter().filter(|&n| tree.depth(n) == d).count();
                prop_assert_eq!(table.len(), expected);
                for pos in 0..table.len() {
                    let (root, end) = table.extent(pos).unwrap();
                    prop_assert!(root.0 < end);
                    if let Some((next, _)) = table.extent(pos + 1) {
                        prop_assert!(end <= next.0);
                    }
                }
                for n in tree.iter() {
                    // The located position names the subtree the climb finds.
                    let pos = locate_position(table, n);
                    let root = table.extent(pos).map(|(root, _)| root);
                    prop_assert_eq!(root, tree.ancestor_at_depth(n, d), "depth {} node {:?}", d, n);
                    prop_assert!(pos <= table.len());
                    let expect = tree.ancestor_at_depth(n, d).map(|g| LevelEntry {
                        node: g,
                        end: tree.subtree_end(g),
                        path: tree.path(g),
                        doc_len: corpus.doc_len(g),
                    });
                    prop_assert_eq!(locate(table, n), expect, "depth {} node {:?}", d, n);
                    let direct = table.seek(0, n);
                    for m in (0..=n.0).map(NodeId) {
                        prop_assert_eq!(table.seek(table.seek(0, m), n), direct);
                    }
                }
                // Per term, the bitmap one bit per posting sets, each bit
                // found by a lookup from the front — the one past the last
                // position for a posting shallower than the table.
                // A term keeps that bitmap exactly when its list is at least
                // as long as the bitmap has words; every term keeps that
                // bitmap's set bits, increasing, as its entity list.
                // Beside either form, the sums are the per-posting recount
                // of the tf in each subtree, where it is not 1: a subtree
                // with no posting and the sentinel never answer.
                for t in (0..corpus.vocab().len() as u32).map(TokenId) {
                    let postings = corpus.postings(t);
                    let nodes = postings.nodes();
                    let mut marked = vec![0u64; table.words()];
                    let mut recount = vec![0u32; table.len() + 1];
                    for (&n, &tf) in nodes.iter().zip(postings.tfs()) {
                        let pos = locate_position(table, n);
                        marked[pos / 64] |= 1 << (pos % 64);
                        recount[pos] += tf;
                    }
                    let is_set = |pos: &u32| marked[*pos as usize / 64] >> (pos % 64) & 1 == 1;
                    let set: Vec<u32> = match table.is_empty() {
                        true => Vec::new(),
                        false => (0..=table.len() as u32).filter(is_set).collect(),
                    };
                    let sums: Vec<(u32, u32)> = (0..table.len() as u32)
                        .map(|pos| (pos, recount[pos as usize]))
                        .filter(|&(_, sum)| sum != 0 && sum != 1)
                        .collect();
                    let list = corpus.entity_positions(d, t);
                    prop_assert_eq!(list.set, &set[..], "depth {} token {:?}", d, t);
                    prop_assert_eq!(list.sums, &sums[..], "depth {} token {:?}", d, t);
                    prop_assert!(std::ptr::eq(list.set, corpus.entity_positions(d, t).set));
                    // Read back through forward cursors: every word, or
                    // every other one, then every member's sum in turn.
                    let steps = if table.is_empty() { 0..0 } else { 1..3 };
                    for step in steps {
                        let mut at = 0;
                        for w in (0..marked.len()).step_by(step) {
                            let word = list.word_from(&mut at, w);
                            prop_assert_eq!(word, marked[w], "depth {} token {:?}", d, t);
                        }
                    }
                    let mut sum_at = 0;
                    for pos in (0..table.len() as u32).filter(is_set) {
                        prop_assert_eq!(list.sum_at(&mut sum_at, pos), recount[pos as usize]);
                    }
                    let keeps = !table.is_empty() && nodes.len() >= table.words();
                    let kept = corpus.entity_bitmap(d, t);
                    prop_assert_eq!(kept.is_some(), keeps, "depth {} token {:?}", d, t);
                    let Some(kept) = kept else { continue };
                    prop_assert_eq!(kept.set, &marked[..], "depth {} token {:?}", d, t);
                    prop_assert_eq!(kept.sums, &sums[..], "depth {} token {:?}", d, t);
                    prop_assert!(std::ptr::eq(kept.set, corpus.entity_bitmap(d, t).unwrap().set));
                    let mut sum_at = 0;
                    for pos in (0..table.len() as u32).filter(is_set) {
                        prop_assert_eq!(kept.sum_at(&mut sum_at, pos), recount[pos as usize]);
                    }
                }
            }
        }
    }
}
