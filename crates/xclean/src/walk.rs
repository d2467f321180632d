//! The shared gated anchor walk of Algorithm 1 (lines 1–11).
//!
//! All three semantics (node-type, SLCA, ELCA) consume variant inverted
//! lists the same way: pick the largest merged-list head as the anchor,
//! gate at the minimal depth `d`, `skip_to`-align every list, and collect
//! the variant occurrences of the gating subtree. This module factors that
//! walk out; each semantics plugs in its per-subtree candidate scoring.
//!
//! The gate reads the corpus's depth-`d` [`xclean_index::LevelTable`], never
//! the node table: anchors never decrease, so one forward cursor over the
//! entities' extents yields `g`, its end, and — for the scorer — its path
//! and length (DESIGN.md §15, "Layout of `walk_accumulate`").
//!
//! Which subtrees pass is found one of two ways, picked per query and per
//! view from the compiled slots' list lengths alone ([`WalkPath`]): the
//! leapfrog above, which visits subtrees and skips over the failing ones,
//! or — when every slot holds a fair share of the postings, so there is
//! little to skip — a scan that marks each slot's subtrees in a bitmap and
//! ANDs the bitmaps. A slot's bitmap is the OR of its variants' entity sets,
//! which the level table keeps per term: a frequent term's bitmap, whose
//! words the scan ORs, and every other term's list of positions, whose bits
//! it sets one entity at a time. Either way the same bits are set as one
//! per posting would set.
//!
//! Both paths hand every passing subtree to `on_subtree` the same way
//! (DESIGN.md §15, items 5 and 5(f)): the gate's entry, its [`Tokens`] —
//! each slot's distinct tokens in it and every such token's `Σ tf` over
//! it, all a gate-depth entity's score needs — and its [`Occurrences`],
//! the node-level postings, for the scorers that need more. The leapfrog
//! collects the postings and derives the rest from them. The scan reads
//! the tokens and sums from the same entity sets and the sums the table
//! keeps beside them, one forward cursor per variant, and gathers the
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

/// The scan runs when the slots' lists hold at most this many times the
/// postings of the slot with the fewest (Σ ≤ `SCAN_RATIO` · m). Fitted on
/// the benchmark pool with the level table's kept bitmaps: 512 is the low
/// end of a plateau that runs to always scanning, within 1.5 % of the
/// per-query best of the two paths (DESIGN.md §15, item 5(e); item 5(f)
/// has the re-fit since passing subtrees are read from the columns).
const SCAN_RATIO: usize = 512;

/// How one walk finds the subtrees in which every slot occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalkPath {
    /// Anchor, gate, `skip_to`: visits subtrees and skips the failing ones.
    Leapfrog,
    /// One bitmap per slot over the level table's positions, ANDed: reads
    /// every variant's kept entity set once.
    Scan,
}

/// The path for lists `vls` gated by `level`: the scan when skipping is
/// on, the table has subtrees, no slot is empty, and the lists total at
/// most [`SCAN_RATIO`] times the lightest slot's.
fn path_for(vls: &[MergedList<'_>], level: &LevelTable, config: &XCleanConfig) -> WalkPath {
    let total: usize = vls.iter().map(MergedList::total_len).sum();
    let fewest = vls.iter().map(MergedList::total_len).min().unwrap_or(0);
    if config.enable_skipping && !level.is_empty() && fewest > 0 && total <= SCAN_RATIO * fewest {
        WalkPath::Scan
    } else {
        WalkPath::Leapfrog
    }
}

#[cfg(test)]
thread_local! {
    /// The path every walk on this thread takes instead of [`path_for`]'s.
    static FORCED: std::cell::Cell<Option<WalkPath>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every walk on this thread taking `path` — the
/// differential suite's handle on both paths over one input. Test-only:
/// the product has no way to choose.
#[cfg(test)]
pub(crate) fn with_path<T>(path: WalkPath, f: impl FnOnce() -> T) -> T {
    let previous = FORCED.replace(Some(path));
    let out = f();
    FORCED.set(previous);
    out
}

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
/// slots share appears once. The leapfrog has them in hand; the scan
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
    /// increasing, each with its kept set at `depth` of `view` — the bitmap
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
        if level.is_empty() {
            return;
        }
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

/// Runs the anchor walk, invoking `on_subtree(g, tokens, occurrences)`
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
/// exactly the qualifying subtrees whose entities live in the shard, and
/// picks its [`WalkPath`] from the shard's own lists. `on_subtree`
/// receives the gating subtree as its level-table entry (path local to the
/// view's corpus).
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

    let path = path_for(&vls, level, config);
    #[cfg(test)]
    let path = FORCED.get().unwrap_or(path);
    match path {
        WalkPath::Leapfrog => leapfrog(level, &mut vls, config, stats, scratch, &mut on_subtree),
        WalkPath::Scan => scan(
            view,
            slots,
            config.min_depth,
            &mut vls,
            stats,
            scratch,
            &mut on_subtree,
        ),
    }

    for vl in &vls {
        stats.access += vl.stats();
    }
}

/// The scan path: mark the subtrees of the depth-`depth` table in which
/// every slot has a posting, then hand each over in document order with
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

/// The leapfrog path: anchor on the largest head, gate it through a
/// forward cursor over `level`, and skip over the subtrees some slot
/// misses. Counts every visited subtree in `stats.subtrees`.
fn leapfrog(
    level: &LevelTable,
    vls: &mut [MergedList<'_>],
    config: &XCleanConfig,
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

        if config.enable_skipping {
            // Presence first: after aligning every list at `g`, the heads
            // alone decide the all-slots gate. Subtrees that fail it — the
            // overwhelming majority on realistic corpora — are then
            // *skipped over* wholesale instead of being consumed posting
            // by posting, which is what keeps the walk linear in matching
            // subtrees rather than in raw posting volume. Results are
            // identical: occurrences collected in a failing subtree were
            // discarded anyway (only the I/O counters shift from `read`
            // to `skipped`).
            let all_present = vls
                .iter_mut()
                .all(|vl| vl.skip_to_node(g).is_some_and(|n| n.0 < g_end));
            if !all_present {
                for vl in vls.iter_mut() {
                    if vl.head_node().is_some_and(|n| n.0 < g_end) {
                        vl.skip_to_node(NodeId(g_end));
                    }
                }
                continue;
            }
        }

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

/// Collects a subtree `[g, g_end)` on the leapfrog path: every list's
/// postings in it move into `occ` (any still before `g`, reachable only
/// with skipping disabled, are consumed and dropped) and each slot's
/// distinct tokens into `slot_tokens`; `occ` is then made distinct and
/// sorted. Returns whether every slot got one.
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
    use crate::variants::VariantGenerator;
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

    /// The path `path_for` picks for slots of the named terms of `corpus`.
    fn path_of(corpus: &CorpusIndex, slots: &[&[&str]], config: &XCleanConfig) -> WalkPath {
        let vls: Vec<MergedList<'_>> = slots
            .iter()
            .map(|terms| {
                MergedList::new(terms.iter().map(|term| {
                    let token = corpus.vocab().get(term).expect("a corpus term");
                    (token, corpus.postings(token))
                }))
            })
            .collect();
        path_for(&vls, corpus.level(config.min_depth), config)
    }

    #[test]
    fn the_path_rule_is_sigma_at_most_scan_ratio_m() {
        // One `rare` and one `extra` publication, SCAN_RATIO - 1 `bulk` ones.
        let bulk = "<p>bulk</p>".repeat(SCAN_RATIO - 1);
        let xml = format!("<a><p>rare</p>{bulk}<p>extra</p></a>");
        let corpus = CorpusIndex::build(parse_document(&xml).unwrap());
        let on = XCleanConfig::default();
        // Σ = SCAN_RATIO · m with m = 1 scans; one posting more does not.
        assert_eq!(
            path_of(&corpus, &[&["rare"], &["bulk"]], &on),
            WalkPath::Scan
        );
        let over: &[&[&str]] = &[&["rare"], &["bulk", "extra"]];
        assert_eq!(path_of(&corpus, over, &on), WalkPath::Leapfrog);
        // Even a balanced query leapfrogs with skipping off, or over an
        // empty level table (depth 0, or past the deepest node).
        let balanced: &[&[&str]] = &[&["rare"], &["extra"]];
        assert_eq!(path_of(&corpus, balanced, &on), WalkPath::Scan);
        for config in [
            XCleanConfig {
                enable_skipping: false,
                ..XCleanConfig::default()
            },
            XCleanConfig {
                min_depth: 0,
                ..XCleanConfig::default()
            },
            XCleanConfig {
                min_depth: 3,
                ..XCleanConfig::default()
            },
        ] {
            assert_eq!(path_of(&corpus, balanced, &config), WalkPath::Leapfrog);
        }
        // A slot with no postings (a token absent from a shard) leapfrogs.
        let empty = xclean_index::PostingList::new();
        let rare = corpus.vocab().get("rare").unwrap();
        let vls = [
            MergedList::new([(rare, corpus.postings(rare))]),
            MergedList::new([(rare, &empty)]),
        ];
        assert_eq!(path_for(&vls, corpus.level(2), &on), WalkPath::Leapfrog);
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
