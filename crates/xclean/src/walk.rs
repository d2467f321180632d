//! The shared gated anchor walk of Algorithm 1 (lines 1–11).
//!
//! All three semantics (node-type, SLCA, ELCA) consume variant inverted
//! lists the same way: find the subtrees at the minimal depth `d` in which
//! every slot has a variant occurrence, and collect those occurrences. This
//! module factors that walk out; each semantics plugs in its per-subtree
//! candidate scoring.
//!
//! The gate reads the corpus's depth-`d` [`xclean_index::LevelTable`], never
//! the node table (DESIGN.md §15, "Layout of `walk_accumulate`").
//!
//! [`XCleanConfig::enable_skipping`] alone picks how the passing subtrees
//! are found. With it on, the walk *scans*: it marks each slot's subtrees
//! in a bitmap over the level table and ANDs the bitmaps, so a subtree some
//! slot misses is never visited — `skip_to` taken to its limit. A slot's
//! bitmap is the OR of its variants' entity sets, which the level table
//! keeps per term: a frequent term's bitmap, whose words the scan ORs, and
//! every other term's list of positions, whose bits it sets one entity at a
//! time. With it off, the walk is Algorithm 1's linear one: anchor on the
//! largest merged-list head, gate it through one forward cursor over the
//! level table (anchors never decrease), and consume every posting on the
//! way — the ablation's row, and the reference the scan is checked
//! against.
//!
//! Both paths hand every passing subtree to `on_subtree` the same way
//! (DESIGN.md §15, items 5 and 5(f)): the gate's entry, its [`Tokens`] —
//! each slot's distinct tokens in it and every such token's `Σ tf` over
//! it, all a gate-depth entity's score needs — and its [`Occurrences`],
//! the node-level postings, for the scorers that need more. The linear
//! walk collects the postings and derives the rest from them. The scan
//! reads the tokens and sums from the same entity sets and the sums the
//! table keeps beside them, one forward cursor per variant, and gathers the
//! postings from the merged lists only when `on_subtree` asks; the lists
//! only ever move forward. So `on_subtree` sees the same values in the
//! same order either way.

use xclean_index::{
    AccessStats, CorpusIndex, Entities, LevelEntry, LevelTable, MergedEntry, MergedList, TokenId,
};
use xclean_xmltree::NodeId;

use crate::algorithm::{KeywordSlot, RunStats};
use crate::config::XCleanConfig;
use crate::view::Scoring;

/// A passing subtree's variant tokens as `on_subtree` sees them, on
/// either path.
#[derive(Debug, Clone, Copy)]
pub struct Tokens<'a> {
    /// Per keyword slot: its variant tokens with a posting in the subtree,
    /// distinct and increasing; never empty.
    pub slot_tokens: &'a [Vec<TokenId>],
    /// Every token of `slot_tokens` once, increasing, with the sum of its
    /// postings' tf in the subtree: `count(w, D(g))` of the gate.
    pub counts: &'a [(TokenId, u64)],
}

/// A passing subtree's node-level occurrences: the distinct `(token, node,
/// tf)` postings of every slot's variants in it, sorted — a posting two
/// slots share appears once. The linear walk has them in hand; the scan
/// gathers them from the merged lists on the first request, moving the
/// lists forward to the subtree.
pub struct Occurrences<'a, 'v> {
    occ: &'a mut Vec<MergedEntry>,
    /// The lists and the subtree's extent, until the scan gathers.
    pending: Option<(&'a mut [MergedList<'v>], NodeId, u32)>,
}

impl Occurrences<'_, '_> {
    /// All of them, gathered on the first call.
    pub fn all(&mut self) -> &[MergedEntry] {
        if let Some((vls, g, g_end)) = self.pending.take() {
            self.occ.clear();
            for vl in vls {
                vl.skip_to_node(g);
                take_subtree(vl, g, g_end, self.occ);
            }
            distinct(self.occ);
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
}

/// The walk's scratch, recycled through the query arena: the buffers
/// [`Tokens`] and [`Occurrences`] lend out, and the scan's bitmaps
/// and columns. Every walk clears what it reads before use, so recycled
/// buffers behave exactly like fresh ones; all are left holding the
/// *last* query's data on return — callers treat them as opaque scratch.
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    occ: Vec<MergedEntry>,
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
        self.slot_tokens.iter_mut().for_each(Vec::clear);
        self.counts.clear();
    }

    /// `true` when no subtree's contents are held.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.occ.is_empty() && self.counts.is_empty() && self.slot_tokens.iter().all(Vec::is_empty)
    }
}

/// A term's kept entity set at the gate depth, in either form.
#[derive(Debug, Clone, Copy)]
enum Kept<'v> {
    Bitmap(Entities<'v, [u64]>),
    List(Entities<'v, [u32]>),
}

/// One distinct variant token of a scanned query: its kept entity set and
/// sums, forward cursors into both, its slots, and its bits in the current
/// word of the passing bitmap.
#[derive(Debug)]
struct Column<'v> {
    token: TokenId,
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
            token,
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
        columns.sort_unstable_by_key(|c| c.token);
        columns.dedup_by_key(|c| c.token);

        for (i, s) in slots.iter().enumerate() {
            let bits = if i == 0 {
                &mut self.passing
            } else {
                &mut self.slot
            };
            bits.clear();
            bits.resize(level.words(), 0);
            for v in &s.variants {
                let column = columns.partition_point(|c| c.token < v.token);
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
    mut on_subtree: impl FnMut(NodeId, &Tokens<'_>, &mut Occurrences<'_, '_>),
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
/// which exhaust that merged-list member immediately — so the walk visits
/// exactly the qualifying subtrees whose entities live in the shard.
/// `on_subtree` receives the gating subtree as its level-table entry (path
/// local to the view's corpus). With skipping on, a view whose level table
/// is empty, or in which some slot has no posting, hands over nothing and
/// reads nothing.
pub(crate) fn walk_gated_subtrees_scoped(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    scratch: &mut WalkScratch,
    mut on_subtree: impl FnMut(&LevelEntry, &Tokens<'_>, &mut Occurrences<'_, '_>),
) {
    if slots.is_empty() || slots.iter().any(|s| s.variants.is_empty()) {
        return;
    }
    let level = view.level(config.min_depth);
    let mut vls: Vec<MergedList<'_>> = slots
        .iter()
        .map(|s| MergedList::new(s.variants.iter().map(|v| (v.token, view.postings(v.token)))))
        .collect();
    scratch.slot_tokens.truncate(slots.len());
    scratch.slot_tokens.resize_with(slots.len(), Vec::new);

    if !config.enable_skipping {
        linear(level, &mut vls, stats, scratch, &mut on_subtree);
    } else if !level.is_empty() && vls.iter().all(|vl| vl.head_node().is_some()) {
        scan(
            view,
            slots,
            config.min_depth,
            &mut vls,
            stats,
            scratch,
            &mut on_subtree,
        );
    }

    for vl in &vls {
        stats.access += vl.stats();
    }
}

/// The scan, over a non-empty depth-`depth` table and non-empty `vls`: mark
/// the subtrees of the table in which every slot has a posting, then hand each over in document order with
/// its tokens and sums read from the variants' kept sets, one forward
/// cursor per distinct token, a word of the passing bitmap at a time; `vls`
/// move only when `on_subtree` asks for the occurrences. Counts every
/// subtree handed over in `stats.subtrees`, and those served without a
/// gather in `from_columns`.
fn scan<'v>(
    view: &Scoring<'v>,
    slots: &[KeywordSlot],
    depth: u32,
    vls: &mut [MergedList<'v>],
    stats: &mut RunStats,
    scratch: &mut WalkScratch,
    on_subtree: &mut impl FnMut(&LevelEntry, &Tokens<'_>, &mut Occurrences<'_, '_>),
) {
    let level = view.level(depth);
    let mut columns = recycle(std::mem::take(&mut scratch.columns));
    scratch.mark(view, slots, depth, &mut columns, &mut stats.access);
    let WalkScratch {
        occ,
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
            counts.clear();
            slot_tokens.iter_mut().for_each(Vec::clear);
            for &i in live.iter() {
                let column = &mut columns[i];
                if column.bits >> bit & 1 == 1 {
                    let sum = column.sum_at(pos as u32);
                    counts.push((column.token, u64::from(sum)));
                    for &(_, slot) in &members[column.members.0..column.members.1] {
                        slot_tokens[slot].push(column.token);
                    }
                }
            }
            let entry = level.entry(pos);
            let tokens = Tokens {
                slot_tokens,
                counts,
            };
            let mut occurrences = Occurrences {
                occ,
                pending: Some((&mut *vls, entry.node, entry.end)),
            };
            stats.subtrees += 1;
            on_subtree(&entry, &tokens, &mut occurrences);
            if occurrences.pending.is_some() {
                stats.access.from_columns += 1;
            }
        }
    }
    scratch.columns = recycle(columns);
}

/// The linear walk: anchor on the largest head, gate it through a forward
/// cursor over `level`, and consume every list's postings up to the end of
/// the gating subtree. Counts every visited subtree in `stats.subtrees`.
fn linear(
    level: &LevelTable,
    vls: &mut [MergedList<'_>],
    stats: &mut RunStats,
    scratch: &mut WalkScratch,
    on_subtree: &mut impl FnMut(&LevelEntry, &Tokens<'_>, &mut Occurrences<'_, '_>),
) {
    let mut cursor = 0;
    loop {
        // The anchor is the *largest* head; nil once any list is exhausted
        // (no further subtree can contain all keywords).
        let anchor = {
            let mut max: Option<NodeId> = None;
            let mut dead = false;
            for vl in vls.iter() {
                match vl.head_node() {
                    Some(n) => max = Some(max.map_or(n, |m| m.max(n))),
                    None => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                None
            } else {
                max
            }
        };
        let Some(anchor) = anchor else { break };

        // g ← truncate(anchor, d): the depth-d subtree holding the anchor.
        // Anchors never decrease, so the cursor only moves forward.
        // Postings shallower than d belong to no gating subtree — consume
        // and continue.
        cursor = level.seek(cursor, anchor);
        let (g, g_end) = match level.extent(cursor) {
            Some((g, g_end)) if g <= anchor => (g, g_end),
            _ => {
                for vl in vls.iter_mut() {
                    if vl.head_node() == Some(anchor) {
                        vl.next();
                    }
                }
                continue;
            }
        };
        stats.subtrees += 1;

        let WalkScratch {
            occ,
            slot_tokens,
            counts,
            ..
        } = scratch;
        if gather(vls, g, g_end, occ, slot_tokens) {
            counts.clear();
            for &(token, _, tf) in occ.iter() {
                match counts.last_mut() {
                    Some((last, sum)) if *last == token => *sum += u64::from(tf),
                    _ => counts.push((token, u64::from(tf))),
                }
            }
            let tokens = Tokens {
                slot_tokens,
                counts,
            };
            on_subtree(
                &level.entry(cursor),
                &tokens,
                &mut Occurrences { occ, pending: None },
            );
        }
    }
}

/// Collects a subtree `[g, g_end)` on the linear walk: every list's
/// postings in it move into `occ` (any still before `g` are consumed and
/// dropped) and each slot's distinct tokens into `slot_tokens`; `occ` is
/// then made distinct and sorted. Returns whether every slot got one.
fn gather(
    vls: &mut [MergedList<'_>],
    g: NodeId,
    g_end: u32,
    occ: &mut Vec<MergedEntry>,
    slot_tokens: &mut [Vec<TokenId>],
) -> bool {
    occ.clear();
    let mut all_present = true;
    for (vl, tokens) in vls.iter_mut().zip(slot_tokens.iter_mut()) {
        let start = occ.len();
        take_subtree(vl, g, g_end, occ);
        all_present &= occ.len() > start;
        tokens.clear();
        tokens.extend(occ[start..].iter().map(|&(t, _, _)| t));
        tokens.sort_unstable();
        tokens.dedup();
    }
    if all_present {
        distinct(occ);
    }
    all_present
}

/// Moves `vl`'s postings before `g_end` into `out`, dropping those before
/// `g`.
fn take_subtree(vl: &mut MergedList<'_>, g: NodeId, g_end: u32, out: &mut Vec<MergedEntry>) {
    while vl.head_node().is_some_and(|n| n.0 < g_end) {
        let entry = vl.next().expect("head_node implies an entry");
        if entry.1 >= g {
            out.push(entry);
        }
    }
}

/// Sorts `occ` and drops the repeats of a posting that several slots'
/// merged lists share.
fn distinct(occ: &mut Vec<MergedEntry>) {
    occ.sort_unstable();
    occ.dedup_by_key(|&mut (token, node, _)| (token, node));
}

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
                    assert_eq!(tokens.slot_tokens.len(), 2);
                    assert!(tokens.slot_tokens.iter().all(|t| t.len() == 1));
                    assert_eq!(tokens.counts.len(), 2);
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
        columns.push(Column {
            token: TokenId(1),
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
            |gate, tokens, _| {
                let (slot_tokens, counts) = (tokens.slot_tokens.to_vec(), tokens.counts.to_vec());
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
        // A slot with an empty merged list — `rare` in the shard that does
        // not hold it — hands over nothing and marks nothing.
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
