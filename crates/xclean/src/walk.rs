//! The shared gated anchor walk of Algorithm 1 (lines 1–11).
//!
//! All three semantics (node-type, SLCA, ELCA) consume variant inverted
//! lists the same way: find the subtrees at the minimal depth `d` in which
//! every slot has a variant occurrence, and collect those occurrences. This
//! module factors that walk out; each semantics plugs in its per-subtree
//! candidate scoring.
//!
//! The gate reads the corpus's depth-`d` [`xclean_index::LevelTable`], never
//! the node table (DESIGN.md §15, "Layout of `walk_accumulate`"). Both paths
//! read postings through one forward cursor per variant list (`merged.rs`),
//! which seeks with `PostingList::skip_from`; no heap merges them.
//!
//! [`XCleanConfig::enable_skipping`] alone picks how the passing subtrees
//! are found. With it on, the walk *scans*: it marks each slot's subtrees
//! in a bitmap over the level table and ANDs the bitmaps, so a subtree some
//! slot misses is never visited — `skip_to` taken to its limit. A slot's
//! bitmap is the OR of its variants' entity sets, which the level table
//! keeps per term: a frequent term's bitmap, whose words the scan ORs, and
//! every other term's list of positions, whose bits it sets one entity at a
//! time. With it off, the walk is Algorithm 1's linear one over one cursor
//! set per keyword, whose head is the smallest of its cursors' heads:
//! anchor on the largest keyword head, gate it through one forward cursor
//! over the level table (anchors never decrease), and consume every posting
//! on the way — the ablation's row, and the reference the scan is checked
//! against.
//!
//! Both paths hand every passing subtree to `on_subtree` the same way
//! (DESIGN.md §15, items 5 and 5(f)): the gate's entry, its [`Tokens`] —
//! the distinct variant tokens it holds, and each slot's share of them —
//! and its [`Occurrences`], a handle on the rest: every such token's `Σ tf`
//! over the subtree, all a gate-depth entity's score needs, and the
//! node-level postings, for the scorers that need more. The linear walk
//! collects the postings and derives the rest from them, so its handles
//! hold everything from the start. The scan keeps one column per distinct
//! variant token: it reads the held tokens from the columns' entity sets,
//! splits them into slots only when `on_subtree` asks, reads the sums the
//! table keeps beside the sets only when it asks for them, and the
//! postings through the column's cursor only when it asks for those; every
//! cursor only moves forward, so a subtree nobody asks about costs nothing
//! later. So `on_subtree` sees the same values in the same order either
//! way.

use xclean_index::{
    AccessStats, CorpusIndex, Entities, LevelEntry, LevelTable, MergedEntry, TokenId,
};
use xclean_xmltree::NodeId;

use crate::algorithm::{KeywordSlot, RunStats};
use crate::config::XCleanConfig;
use crate::merged::{head, Cursor};
use crate::view::Scoring;

/// A passing subtree's variant tokens as `on_subtree` sees them, on
/// either path: the distinct tokens it holds, and each slot's, split out on
/// the first request.
pub struct Tokens<'a> {
    held: &'a [TokenId],
    /// The scan's: each held token's run of `members`; empty on the linear
    /// walk, which has `slot_tokens` in hand.
    spans: &'a [(usize, usize)],
    members: &'a [(usize, usize)],
    slot_tokens: &'a mut [Vec<TokenId>],
    /// Whether `slot_tokens` holds the subtree's tokens yet.
    split: bool,
}

impl<'a> Tokens<'a> {
    /// Every variant token with a posting in the subtree, once, increasing.
    /// The slots fix which slots hold each, so within one query this alone
    /// determines [`Tokens::slot_tokens`].
    pub fn held(&self) -> &'a [TokenId] {
        self.held
    }

    /// Per keyword slot: its variant tokens with a posting in the subtree,
    /// distinct and increasing; never empty. Split out on the first call.
    pub fn slot_tokens(&mut self) -> &[Vec<TokenId>] {
        if !self.split {
            self.split = true;
            self.slot_tokens.iter_mut().for_each(Vec::clear);
            for (&token, &(start, end)) in self.held.iter().zip(self.spans) {
                for &(_, slot) in &self.members[start..end] {
                    self.slot_tokens[slot].push(token);
                }
            }
        }
        self.slot_tokens
    }
}

/// What a passing subtree holds beyond its [`Tokens`], each part read on
/// its first request: the per-token sums and the node-level occurrences.
/// The linear walk has both in hand. The scan reads both from the columns
/// holding the subtree: the sums from the level table's kept sets, the
/// occurrences through the postings cursors, each moving forward to the
/// subtree.
pub struct Occurrences<'a, 'v> {
    occ: &'a mut Vec<MergedEntry>,
    counts: &'a mut Vec<(TokenId, u64)>,
    /// The scan's subtree; `None` on the linear walk.
    scanned: Option<Scanned<'a, 'v>>,
    /// Whether `occ` holds the subtree's postings yet.
    gathered: bool,
    /// Whether `counts` holds the subtree's sums yet.
    summed: bool,
}

/// A scanned subtree's place among the columns: those with a bit in its
/// word of the passing bitmap, its bit there, its level-table position and
/// extent, and the run's counters, which its gather adds to.
struct Scanned<'a, 'v> {
    columns: &'a mut [Column<'v>],
    live: &'a [usize],
    bit: usize,
    pos: u32,
    g: NodeId,
    g_end: u32,
    access: &'a mut AccessStats,
}

impl Occurrences<'_, '_> {
    /// The distinct `(token, node, tf)` postings of every slot's variants
    /// in the subtree, sorted — a posting two slots share appears once;
    /// gathered on the first call.
    pub fn all(&mut self) -> &[MergedEntry] {
        if !self.gathered {
            self.gathered = true;
            let s = self.scanned.as_mut().expect("only the scan gathers late");
            self.occ.clear();
            // Columns are distinct and in token order, so `occ` comes out
            // sorted and distinct.
            for &i in s.live {
                let column = &mut s.columns[i];
                if !column.holds(s.bit) {
                    continue;
                }
                let keywords = (column.members.1 - column.members.0) as u64;
                s.access.skip_calls += 1;
                s.access.skipped += column.postings.seek(s.g);
                s.access.read += keywords * column.postings.take(s.g, s.g_end, self.occ);
            }
        }
        self.occ
    }

    /// Those of `token`, in document order.
    pub fn of(&mut self, token: TokenId) -> &[MergedEntry] {
        let occ = self.all();
        let start = occ.partition_point(|&(t, _, _)| t < token);
        let len = occ[start..].partition_point(|&(t, _, _)| t == token);
        &occ[start..start + len]
    }

    /// Every token of the subtree's [`Tokens`] once, increasing, with the
    /// sum of its postings' tf in the subtree — `count(w, D(g))` of the
    /// gate; read on the first call.
    pub fn counts(&mut self) -> &[(TokenId, u64)] {
        if !self.summed {
            self.summed = true;
            let s = self.scanned.as_mut().expect("only the scan sums late");
            self.counts.clear();
            for &i in s.live {
                let column = &mut s.columns[i];
                if !column.holds(s.bit) {
                    continue;
                }
                let sum = column.sum_at(s.pos);
                self.counts.push((column.postings.token, u64::from(sum)));
            }
        }
        self.counts
    }
}

/// The walk's scratch, recycled through the query arena: the buffers
/// [`Tokens`] and [`Occurrences`] lend out, and the scan's bitmaps
/// and columns. Every walk clears what it reads before use, so recycled
/// buffers behave exactly like fresh ones; all are left holding the
/// *last* query's data on return — callers treat them as opaque scratch.
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    occ: Vec<MergedEntry>,
    held: Vec<TokenId>,
    spans: Vec<(usize, usize)>,
    slot_tokens: Vec<Vec<TokenId>>,
    counts: Vec<(TokenId, u64)>,
    /// The AND of the slots' bitmaps so far and the current slot's, one
    /// bit per level-table position plus one for postings shallower than
    /// the gate.
    passing: Vec<u64>,
    slot: Vec<u64>,
    /// The scan's distinct variant tokens with their kept sets (emptied
    /// between queries: they borrow one query's corpus).
    columns: Vec<Column<'static>>,
    /// `(column, slot)` of every variant, sorted and distinct.
    members: Vec<(usize, usize)>,
    /// The columns with a passing subtree in the current word.
    live: Vec<usize>,
}

impl WalkScratch {
    /// Forgets the last walk's contents, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.occ.clear();
        self.held.clear();
        self.spans.clear();
        self.slot_tokens.iter_mut().for_each(Vec::clear);
        self.counts.clear();
    }

    /// `true` when no subtree's contents are held.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.occ.is_empty()
            && self.held.is_empty()
            && self.counts.is_empty()
            && self.slot_tokens.iter().all(Vec::is_empty)
    }
}

/// A term's kept entity set at the gate depth, in either form.
#[derive(Debug, Clone, Copy)]
enum Kept<'v> {
    Bitmap(Entities<'v, [u64]>),
    List(Entities<'v, [u32]>),
}

/// One distinct variant token of a scanned query: a cursor over its
/// postings, its kept entity set and sums, forward cursors into both, its
/// slots, and its bits in the current word of the passing bitmap.
#[derive(Debug)]
struct Column<'v> {
    postings: Cursor<'v>,
    kept: Kept<'v>,
    /// Cursor into a [`Kept::List`]'s positions.
    at: usize,
    /// Cursor into the sums.
    sum_at: usize,
    /// The passing subtrees of the current word that hold the token.
    bits: u64,
    /// The `members` holding this column: its slots, increasing.
    members: (usize, usize),
}

impl Column<'_> {
    /// Whether the passing subtree at `bit` of the current word holds the
    /// token.
    #[inline]
    fn holds(&self, bit: usize) -> bool {
        self.bits >> bit & 1 == 1
    }

    /// Moves to word `w` of the passing bitmap, whose bits are `passing`,
    /// past every earlier word.
    #[inline]
    fn seek_word(&mut self, w: usize, passing: u64) {
        let word = match self.kept {
            Kept::Bitmap(e) => e.set[w],
            Kept::List(e) => e.word_from(&mut self.at, w),
        };
        self.bits = word & passing;
    }

    /// The token's `Σ tf` in the member subtree at `pos`, past every
    /// earlier one.
    #[inline]
    fn sum_at(&mut self, pos: u32) -> u32 {
        match self.kept {
            Kept::Bitmap(e) => e.sum_at(&mut self.sum_at, pos),
            Kept::List(e) => e.sum_at(&mut self.sum_at, pos),
        }
    }
}

/// `columns`' allocation, emptied, for columns of another lifetime: how the
/// arena keeps the buffer between queries whose columns borrow different
/// corpora. Collecting a `Vec`'s own iterator into a type of the same size
/// and alignment reuses its allocation, so this allocates nothing.
fn recycle<'x, 'y>(mut columns: Vec<Column<'x>>) -> Vec<Column<'y>> {
    columns.clear();
    columns
        .into_iter()
        .map(|_| unreachable!("the buffer was cleared"))
        .collect()
}

impl WalkScratch {
    /// Fills `columns` with the distinct variant tokens of `slots`,
    /// increasing, each with its kept set at `depth` of `view`, whose level
    /// table there is not empty — the bitmap
    /// the table keeps for a frequent term, else the term's list — and
    /// `members` with every variant's `(column, slot)`; then sets the bits
    /// of the subtrees in which every slot has a posting: per slot, the OR
    /// of its variants' sets. Counts the postings of each kind in `access`
    /// (`cached`, `scanned`).
    fn mark<'v>(
        &mut self,
        view: &Scoring<'v>,
        slots: &[KeywordSlot],
        depth: u32,
        columns: &mut Vec<Column<'v>>,
        access: &mut AccessStats,
    ) {
        columns.clear();
        self.members.clear();
        self.passing.clear();
        let level = view.level(depth);
        let column = |token| Column {
            postings: Cursor::new(token, view.postings(token)),
            kept: match view.entity_bitmap(depth, token) {
                Some(kept) => Kept::Bitmap(kept),
                None => Kept::List(view.entity_positions(depth, token)),
            },
            at: 0,
            sum_at: 0,
            bits: 0,
            members: (0, 0),
        };
        let variants = slots.iter().flat_map(|s| &s.variants);
        columns.extend(variants.map(|v| column(v.token)));
        columns.sort_unstable_by_key(|c| c.postings.token);
        columns.dedup_by_key(|c| c.postings.token);

        for (i, s) in slots.iter().enumerate() {
            let bits = if i == 0 {
                &mut self.passing
            } else {
                &mut self.slot
            };
            bits.clear();
            bits.resize(level.words(), 0);
            for v in &s.variants {
                let column = columns.partition_point(|c| c.postings.token < v.token);
                self.members.push((column, i));
                let postings = view.postings(v.token).len() as u64;
                match columns[column].kept {
                    Kept::Bitmap(kept) => {
                        access.cached += postings;
                        for (word, &kept) in bits.iter_mut().zip(kept.set) {
                            *word |= kept;
                        }
                    }
                    Kept::List(kept) => {
                        access.scanned += postings;
                        for &pos in kept.set {
                            bits[pos as usize / 64] |= 1 << (pos % 64);
                        }
                    }
                }
            }
            if i > 0 {
                for (passing, &slot) in self.passing.iter_mut().zip(&self.slot) {
                    *passing &= slot;
                }
            }
        }
        // Postings shallower than the gate all set the one bit past the
        // last position.
        let outside = level.len();
        self.passing[outside / 64] &= !(1 << (outside % 64));

        self.members.sort_unstable();
        self.members.dedup();
        let mut start = 0;
        for run in self.members.chunk_by(|a, b| a.0 == b.0) {
            columns[run[0].0].members = (start, start + run.len());
            start += run.len();
        }
    }
}

/// Positions of the set bits of `word`, increasing.
fn set_bits(word: u64) -> impl Iterator<Item = usize> {
    let rest = |&bits: &u64| Some(bits & (bits - 1)).filter(|&b| b != 0);
    std::iter::successors(Some(word).filter(|&b| b != 0), rest).map(|b| b.trailing_zeros() as usize)
}

/// Runs the gated walk, invoking `on_subtree(g, tokens, occurrences)`
/// for every gating subtree `g` in which **all** slots have at least one
/// variant occurrence. Updates posting I/O counters in `stats`.
pub fn walk_gated_subtrees(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    mut on_subtree: impl FnMut(NodeId, &mut Tokens<'_>, &mut Occurrences<'_, '_>),
) {
    walk_gated_subtrees_scoped(
        &Scoring::unsharded(corpus),
        slots,
        config,
        stats,
        &mut WalkScratch::default(),
        |gate, tokens, occurrences| on_subtree(gate.node, tokens, occurrences),
    )
}

/// The walk core over a [`Scoring`] view and caller-provided (arena)
/// scratch. Under a shard scope the variant tokens (global ids) resolve to
/// the shard's local posting lists and entity sets — or the empty ones,
/// whose cursors start exhausted — so the walk visits exactly the
/// qualifying subtrees whose entities live in the shard. `on_subtree`
/// receives the gating subtree as its level-table entry (path local to the
/// view's corpus). With skipping on, a view whose level table is empty, or
/// in which some slot has no posting, hands over nothing and reads nothing.
pub(crate) fn walk_gated_subtrees_scoped(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    scratch: &mut WalkScratch,
    mut on_subtree: impl FnMut(&LevelEntry, &mut Tokens<'_>, &mut Occurrences<'_, '_>),
) {
    if slots.is_empty() || slots.iter().any(|s| s.variants.is_empty()) {
        return;
    }
    let level = view.level(config.min_depth);
    scratch.slot_tokens.truncate(slots.len());
    scratch.slot_tokens.resize_with(slots.len(), Vec::new);

    let has_postings = |s: &KeywordSlot| {
        s.variants
            .iter()
            .any(|v| !view.postings(v.token).is_empty())
    };
    if !config.enable_skipping {
        linear(view, slots, level, stats, scratch, &mut on_subtree);
    } else if !level.is_empty() && slots.iter().all(has_postings) {
        scan(
            view,
            slots,
            config.min_depth,
            stats,
            scratch,
            &mut on_subtree,
        );
    }
}

/// The scan, over a non-empty depth-`depth` table and slots that all have
/// a posting: mark the subtrees of the table in which every slot has a
/// posting, then hand each over in document order with its held tokens
/// read from the columns' kept sets, a word of the passing bitmap at a
/// time; the tokens are split into slots only when `on_subtree` asks, a
/// column's sums cursor moves only when it asks for the sums, and its
/// postings cursor only when it asks for the occurrences. Counts
/// every subtree handed over in `stats.subtrees`, and those served without
/// a gather in `from_columns`.
fn scan(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    depth: u32,
    stats: &mut RunStats,
    scratch: &mut WalkScratch,
    on_subtree: &mut impl FnMut(&LevelEntry, &mut Tokens<'_>, &mut Occurrences<'_, '_>),
) {
    let level = view.level(depth);
    let mut columns = recycle(std::mem::take(&mut scratch.columns));
    scratch.mark(view, slots, depth, &mut columns, &mut stats.access);
    let WalkScratch {
        occ,
        held,
        spans,
        slot_tokens,
        counts,
        passing,
        members,
        live,
        ..
    } = scratch;
    for (w, &word) in passing.iter().enumerate().filter(|&(_, &word)| word != 0) {
        // Only the columns holding one of the word's subtrees are read
        // per subtree.
        live.clear();
        for (i, column) in columns.iter_mut().enumerate() {
            column.seek_word(w, word);
            if column.bits != 0 {
                live.push(i);
            }
        }
        for bit in set_bits(word) {
            let pos = w * 64 + bit;
            held.clear();
            spans.clear();
            for &i in live.iter() {
                let column = &columns[i];
                if column.holds(bit) {
                    held.push(column.postings.token);
                    spans.push(column.members);
                }
            }
            let entry = level.entry(pos);
            let mut tokens = Tokens {
                held,
                spans,
                members,
                slot_tokens,
                split: false,
            };
            let mut occurrences = Occurrences {
                occ,
                counts,
                scanned: Some(Scanned {
                    columns: &mut columns[..],
                    live: &live[..],
                    bit,
                    pos: pos as u32,
                    g: entry.node,
                    g_end: entry.end,
                    access: &mut stats.access,
                }),
                gathered: false,
                summed: false,
            };
            stats.subtrees += 1;
            on_subtree(&entry, &mut tokens, &mut occurrences);
            if !occurrences.gathered {
                stats.access.from_columns += 1;
            }
        }
    }
    scratch.columns = recycle(columns);
}

/// The linear walk, over one cursor set per keyword: anchor on the largest
/// keyword head, gate it through a forward cursor over `level`, and consume
/// every cursor's postings up to the end of the gating subtree; at an
/// anchor shallower than the gate, consume one posting of each keyword whose
/// head is there. Counts every visited subtree in `stats.subtrees` and
/// every consumed posting in `stats.access.read`.
fn linear(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    level: &LevelTable,
    stats: &mut RunStats,
    scratch: &mut WalkScratch,
    on_subtree: &mut impl FnMut(&LevelEntry, &mut Tokens<'_>, &mut Occurrences<'_, '_>),
) {
    let cursors = |s: &KeywordSlot| {
        let variants = s.variants.iter();
        variants
            .map(|v| Cursor::new(v.token, view.postings(v.token)))
            .collect()
    };
    let mut keywords: Vec<Vec<Cursor<'_>>> = slots.iter().map(cursors).collect();
    let mut at = 0;
    // The anchor is the *largest* keyword head; nil once any keyword's
    // cursors are exhausted (no further subtree can contain all keywords).
    while let Some(anchor) = keywords
        .iter()
        .try_fold(NodeId(0), |max, c| Some(max.max(head(c)?.0)))
    {
        // g ← truncate(anchor, d): the depth-d subtree holding the anchor.
        // Anchors never decrease, so the cursor only moves forward.
        // Postings shallower than d belong to no gating subtree — consume
        // and continue.
        at = level.seek(at, anchor);
        let (g, g_end) = match level.extent(at) {
            Some((g, g_end)) if g <= anchor => (g, g_end),
            _ => {
                for cursors in &mut keywords {
                    if let Some((_, i)) = head(cursors).filter(|&(node, _)| node == anchor) {
                        cursors[i].pos += 1;
                        stats.access.read += 1;
                    }
                }
                continue;
            }
        };
        stats.subtrees += 1;

        let WalkScratch {
            occ,
            held,
            slot_tokens,
            counts,
            ..
        } = scratch;
        if gather(
            &mut keywords,
            g,
            g_end,
            occ,
            slot_tokens,
            &mut stats.access.read,
        ) {
            counts.clear();
            for &(token, _, tf) in occ.iter() {
                match counts.last_mut() {
                    Some((last, sum)) if *last == token => *sum += u64::from(tf),
                    _ => counts.push((token, u64::from(tf))),
                }
            }
            held.clear();
            held.extend(counts.iter().map(|&(token, _)| token));
            let mut tokens = Tokens {
                held,
                spans: &[],
                members: &[],
                slot_tokens,
                split: true,
            };
            let mut occurrences = Occurrences {
                occ,
                counts,
                scanned: None,
                gathered: true,
                summed: true,
            };
            on_subtree(&level.entry(at), &mut tokens, &mut occurrences);
        }
    }
}

/// Collects a subtree `[g, g_end)` on the linear walk: every cursor's
/// postings in it move into `occ` (any still before `g` are consumed and
/// dropped, all counted in `read`) and each slot's distinct tokens into
/// `slot_tokens`; `occ` is then made distinct and sorted. Returns whether
/// every slot got one.
fn gather(
    keywords: &mut [Vec<Cursor<'_>>],
    g: NodeId,
    g_end: u32,
    occ: &mut Vec<MergedEntry>,
    slot_tokens: &mut [Vec<TokenId>],
    read: &mut u64,
) -> bool {
    occ.clear();
    let mut all_present = true;
    for (cursors, tokens) in keywords.iter_mut().zip(slot_tokens.iter_mut()) {
        let start = occ.len();
        for cursor in cursors {
            *read += cursor.take(g, g_end, occ);
        }
        all_present &= occ.len() > start;
        tokens.clear();
        tokens.extend(occ[start..].iter().map(|&(t, _, _)| t));
        tokens.sort_unstable();
        tokens.dedup();
    }
    if all_present {
        // A posting of a token several slots share is in `occ` once per
        // slot.
        occ.sort_unstable();
        occ.dedup_by_key(|&mut (token, node, _)| (token, node));
    }
    all_present
}

/// The `|C_eff|` bound: at most this many candidate queries are
/// enumerated within one subtree. A safety valve after the paper's
/// observation (§VII) that `|C_eff|` can be bounded by a constant without
/// quality loss; every scorer starts each subtree's budget here.
pub const MAX_CANDIDATES_PER_SUBTREE: usize = 4096;

/// Depth-first Cartesian enumeration of one token per slot, bounded by
/// `budget` total candidates.
pub fn enumerate_candidates(
    slot_tokens: &[Vec<TokenId>],
    budget: &mut usize,
    f: &mut impl FnMut(&[TokenId]),
) {
    let mut candidate = Vec::new();
    enumerate_candidates_in(slot_tokens, &mut candidate, budget, f);
}

/// [`enumerate_candidates`] over a caller-provided (arena) scratch
/// vector, reset to one slot-0 placeholder per slot before the recursion.
pub fn enumerate_candidates_in(
    slot_tokens: &[Vec<TokenId>],
    candidate: &mut Vec<TokenId>,
    budget: &mut usize,
    f: &mut impl FnMut(&[TokenId]),
) {
    candidate.clear();
    candidate.resize(slot_tokens.len(), TokenId(0));
    rec(slot_tokens, candidate, 0, budget, f);
}

fn rec(
    slot_tokens: &[Vec<TokenId>],
    candidate: &mut Vec<TokenId>,
    slot: usize,
    budget: &mut usize,
    f: &mut impl FnMut(&[TokenId]),
) {
    if *budget == 0 {
        return;
    }
    if slot == slot_tokens.len() {
        *budget -= 1;
        f(candidate);
        return;
    }
    for &t in &slot_tokens[slot] {
        candidate[slot] = t;
        rec(slot_tokens, candidate, slot + 1, budget, f);
        if *budget == 0 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{Variant, VariantGenerator};
    use xclean_index::PostingList;
    use xclean_xmltree::parse_document;

    #[test]
    fn walk_visits_only_subtrees_with_all_slots() {
        let xml = "<a>\
            <c><x>alpha</x></c>\
            <c><x>alpha</x><y>beta</y></c>\
            <c><y>beta</y></c>\
        </a>";
        let corpus = CorpusIndex::build(parse_document(xml).unwrap());
        let gen = VariantGenerator::build(&corpus, 0, 14);
        let slots: Vec<KeywordSlot> = ["alpha", "beta"]
            .iter()
            .map(|k| KeywordSlot {
                keyword: k.to_string(),
                variants: gen.variants(k),
            })
            .collect();
        // The scan serves the one passing subtree from the columns; its
        // postings are read only when asked for.
        for ask in [false, true] {
            let mut stats = RunStats::default();
            let mut visited = Vec::new();
            walk_gated_subtrees(
                &corpus,
                &slots,
                &XCleanConfig::default(),
                &mut stats,
                |g, tokens, occurrences| {
                    visited.push(corpus.tree().dewey(g).to_string());
                    assert_eq!(tokens.held().len(), 2);
                    assert_eq!(tokens.slot_tokens().len(), 2);
                    assert!(tokens.slot_tokens().iter().all(|t| t.len() == 1));
                    assert_eq!(occurrences.counts().len(), 2);
                    if ask {
                        assert_eq!(occurrences.all().len(), 2);
                    }
                },
            );
            assert_eq!(visited, vec!["1.2"]);
            assert!(stats.access.scan_postings() > 0);
            assert_eq!(stats.access.from_columns, u64::from(!ask));
            assert_eq!(stats.access.read, if ask { 2 } else { 0 });
        }
    }

    #[test]
    fn recycled_columns_keep_their_allocation() {
        let mut columns: Vec<Column<'static>> = Vec::with_capacity(8);
        let list: &'static PostingList = Box::leak(Box::default());
        columns.push(Column {
            postings: Cursor::new(TokenId(1), list),
            kept: Kept::List(Entities {
                set: &[],
                sums: &[],
            }),
            at: 0,
            sum_at: 0,
            bits: 0,
            members: (0, 0),
        });
        let buffer = columns.as_ptr();
        let local: Vec<Column<'_>> = recycle(columns);
        assert!(local.is_empty() && local.capacity() == 8);
        let back: Vec<Column<'static>> = recycle(local);
        assert_eq!(back.as_ptr(), buffer);
    }

    /// Per passing subtree: its node, slot tokens and sums.
    type Handed = Vec<(NodeId, Vec<Vec<TokenId>>, Vec<(TokenId, u64)>)>;

    /// What the walk over `view` hands over for slots of the named terms of
    /// `corpus` (whose token ids a shard view takes as global ids), and its
    /// counters.
    fn handed(
        corpus: &CorpusIndex,
        view: &Scoring<'_>,
        slots: &[&[&str]],
        config: &XCleanConfig,
    ) -> (Handed, RunStats) {
        let slots: Vec<KeywordSlot> = slots
            .iter()
            .map(|terms| KeywordSlot {
                keyword: terms[0].to_string(),
                variants: terms
                    .iter()
                    .map(|term| Variant {
                        token: corpus.vocab().get(term).expect("a corpus term"),
                        distance: 0,
                    })
                    .collect(),
            })
            .collect();
        let mut stats = RunStats::default();
        let mut out = Vec::new();
        walk_gated_subtrees_scoped(
            view,
            &slots,
            config,
            &mut stats,
            &mut WalkScratch::default(),
            |gate, tokens, occurrences| {
                let (slot_tokens, counts) =
                    (tokens.slot_tokens().to_vec(), occurrences.counts().to_vec());
                out.push((gate.node, slot_tokens, counts));
            },
        );
        (out, stats)
    }

    #[test]
    fn skipping_picks_the_path_and_empty_inputs_hand_over_nothing() {
        // A lopsided corpus: one `rare` and one `extra` posting, 511 `bulk`
        // ones, `rare` and `extra` each in a `bulk` publication.
        let bulk = "<p>bulk</p>".repeat(509);
        let xml = format!("<a><p>rare bulk</p>{bulk}<p>bulk extra</p></a>");
        let corpus = CorpusIndex::build(parse_document(&xml).unwrap());
        let view = Scoring::unsharded(&corpus);
        let on = |min_depth| XCleanConfig {
            min_depth,
            ..XCleanConfig::default()
        };
        let off = |min_depth| XCleanConfig {
            enable_skipping: false,
            ..on(min_depth)
        };
        // However lopsided the slots, skipping on scans and skipping off
        // reads the lists linearly; both hand over the same subtrees.
        let sets: [&[&[&str]]; 3] = [
            &[&["rare"], &["bulk"]],
            &[&["rare"], &["bulk", "extra"]],
            &[&["rare"], &["extra"]],
        ];
        for slots in sets {
            for min_depth in [1, 2] {
                let (scanned, scan) = handed(&corpus, &view, slots, &on(min_depth));
                let (walked, linear) = handed(&corpus, &view, slots, &off(min_depth));
                assert_eq!(scanned, walked, "{slots:?} at depth {min_depth}");
                assert!(scan.access.scan_postings() > 0 && scan.access.read == 0);
                assert!(linear.access.scan_postings() == 0 && linear.access.read > 0);
                // Only the root holds `rare` and `extra` both.
                let expect = match (slots, min_depth) {
                    ([_, ["extra"]], 2) => 0,
                    _ => 1,
                };
                assert_eq!(scanned.len(), expect, "{slots:?} at depth {min_depth}");
            }
        }
        // A slot with no posting — `rare` in the shard that does not hold
        // it — hands over nothing and marks nothing.
        let shards = xclean_index::partition_corpus(&corpus, 2, 7).unwrap();
        let engine = crate::ShardedEngine::from_shards(shards, XCleanConfig::default()).unwrap();
        let views = engine.pipeline().shard_views();
        let slots: &[&[&str]] = &[&["rare"], &["bulk"]];
        let per_view: Vec<_> = views
            .iter()
            .map(|v| handed(&corpus, v, slots, &on(2)))
            .collect();
        assert_eq!(per_view.iter().filter(|(out, _)| out.len() == 1).count(), 1);
        let (out, stats) = per_view
            .iter()
            .find(|(out, _)| out.is_empty())
            .expect("one shard lacks `rare`");
        assert!(out.is_empty());
        assert_eq!((stats.access.scanned, stats.access.cached), (0, 0));
        assert_eq!((stats.subtrees, stats.access), (0, AccessStats::default()));
        // So does an empty level table: depth 0, and past the deepest node.
        for min_depth in [0, 3] {
            let (out, stats) = handed(&corpus, &view, slots, &on(min_depth));
            assert!(out.is_empty());
            assert_eq!((stats.subtrees, stats.access), (0, AccessStats::default()));
        }
    }

    #[test]
    fn sums_skipped_for_runs_of_subtrees_read_right_after() {
        // 300 publications, all passing: `alpha` in each with tf 1–3 (a
        // kept bitmap, most sums not 1), `bravo` in four with tf 2 (a kept
        // list, every sum 2), `charlie` in every seventh with tf 1.
        let mut b = xclean_xmltree::TreeBuilder::new("r");
        for i in 0..300 {
            let mut words = vec!["alpha"; 1 + i % 3];
            if [3, 64, 65, 250].contains(&i) {
                words.extend(["bravo", "bravo"]);
            }
            if i % 7 == 0 {
                words.push("charlie");
            }
            b.open("p");
            b.leaf("t", &words.join(" "));
            b.close();
        }
        let corpus = CorpusIndex::build(b.finish());
        let view = Scoring::unsharded(&corpus);
        let token = |term: &str| corpus.vocab().get(term).expect("a corpus term");
        assert!(view.entity_bitmap(2, token("alpha")).is_some());
        assert!(view.entity_bitmap(2, token("bravo")).is_none());
        let slot = |terms: &[&str]| KeywordSlot {
            keyword: terms[0].to_string(),
            variants: terms
                .iter()
                .map(|&term| Variant {
                    token: token(term),
                    distance: 0,
                })
                .collect(),
        };
        let slots = [slot(&["alpha"]), slot(&["bravo", "charlie", "alpha"])];
        let sums = |config: &XCleanConfig, ask: &dyn Fn(usize) -> bool| {
            let mut out = Vec::new();
            let mut scratch = WalkScratch::default();
            let mut stats = RunStats::default();
            walk_gated_subtrees_scoped(
                &view,
                &slots,
                config,
                &mut stats,
                &mut scratch,
                |_, _, occ| {
                    let i = out.len();
                    out.push(ask(i).then(|| occ.counts().to_vec()));
                },
            );
            out
        };
        let linear = sums(
            &XCleanConfig {
                enable_skipping: false,
                ..XCleanConfig::default()
            },
            &|_| true,
        );
        assert_eq!(linear.len(), 300);
        // Runs of skipped subtrees of every length up to past a bitmap
        // word, ending inside and across words.
        let patterns: [&dyn Fn(usize) -> bool; 4] = [
            &|i| i % 2 == 0,
            &|i| (i / 37) % 2 == 1,
            &|i| [0, 64, 65, 200, 250, 299].contains(&i),
            &|i| i == 299,
        ];
        for ask in patterns {
            let scanned = sums(&XCleanConfig::default(), ask);
            for (i, (scan, all)) in scanned.iter().zip(&linear).enumerate() {
                assert_eq!(scan.is_some(), ask(i));
                if let Some(scan) = scan {
                    assert_eq!(Some(scan), all.as_ref(), "subtree {i}");
                }
            }
        }
    }

    #[test]
    fn the_linear_walk_consumes_one_posting_per_keyword_at_a_shallow_anchor() {
        // The root's own text holds two variants of `alpha` and the only
        // posting of `beta`, shallower than the gate at depth 2.
        let xml = "<a>alpha alphb beta<c><x>alpha</x></c></a>";
        let corpus = CorpusIndex::build(parse_document(xml).unwrap());
        let view = Scoring::unsharded(&corpus);
        let config = XCleanConfig {
            enable_skipping: false,
            min_depth: 2,
            ..XCleanConfig::default()
        };
        let (out, stats) = handed(&corpus, &view, &[&["alpha", "alphb"], &["beta"]], &config);
        assert!(out.is_empty());
        // One posting per keyword at the anchor — the first of `alpha`'s
        // cursors there, then `beta`'s — and `beta` is exhausted; consuming
        // every cursor at the anchor would read 3.
        assert_eq!((stats.access.read, stats.subtrees), (2, 0));
    }

    #[test]
    fn enumeration_respects_budget() {
        let toks = vec![
            vec![TokenId(0), TokenId(1), TokenId(2)],
            vec![TokenId(3), TokenId(4)],
        ];
        let mut seen = 0;
        let mut budget = 4;
        enumerate_candidates(&toks, &mut budget, &mut |_| seen += 1);
        assert_eq!(seen, 4);
        let mut all = 0;
        let mut budget = usize::MAX;
        enumerate_candidates(&toks, &mut budget, &mut |_| all += 1);
        assert_eq!(all, 6);
    }
}
