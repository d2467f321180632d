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
//! per posting would set, and both paths collect a passing subtree's
//! occurrences with the same helper, so `on_subtree` sees the same sequence
//! either way (DESIGN.md §15, item 5).

use xclean_index::{AccessStats, CorpusIndex, LevelEntry, LevelTable, MergedList, TokenId};
use xclean_xmltree::NodeId;

use crate::algorithm::{KeywordSlot, RunStats};
use crate::config::XCleanConfig;
use crate::view::Scoring;

/// Occurrences collected for one gating subtree: per keyword slot, the
/// `(token, node, tf)` triples in document order.
pub type SlotOccurrences = Vec<Vec<(TokenId, NodeId, u32)>>;

/// The scan runs when the slots' lists hold at most this many times the
/// postings of the slot with the fewest (Σ ≤ `SCAN_RATIO` · m). Fitted on
/// the benchmark pool with the level table's kept bitmaps: 512 is the low
/// end of a plateau that runs to always scanning, within 1.5 % of the
/// per-query best of the two paths (DESIGN.md §15, item 5(e)).
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

/// The scan path's scratch, recycled through the query arena: the AND of
/// the slots' bitmaps so far and the current slot's, one bit per
/// level-table position plus one for postings shallower than the gate.
#[derive(Debug, Default)]
pub(crate) struct EntityBitmaps {
    passing: Vec<u64>,
    slot: Vec<u64>,
}

impl EntityBitmaps {
    /// Sets the bits of the subtrees of `view`'s depth-`depth` table in
    /// which every slot has a posting: per slot, the OR of its variants'
    /// entity sets — the bitmap the table keeps for a frequent term, else
    /// one bit set per position of the term's kept list. Counts the
    /// postings of each kind in `access` (`cached`, `scanned`).
    fn mark(
        &mut self,
        view: &Scoring<'_>,
        slots: &[KeywordSlot],
        depth: u32,
        access: &mut AccessStats,
    ) {
        self.passing.clear();
        let level = view.level(depth);
        if level.is_empty() {
            return;
        }
        for (i, slot) in slots.iter().enumerate() {
            let bits = if i == 0 {
                &mut self.passing
            } else {
                &mut self.slot
            };
            bits.clear();
            bits.resize(level.words(), 0);
            for v in &slot.variants {
                let postings = view.postings(v.token).len() as u64;
                match view.entity_bitmap(depth, v.token) {
                    Some(kept) => {
                        access.cached += postings;
                        for (word, &kept) in bits.iter_mut().zip(kept) {
                            *word |= kept;
                        }
                    }
                    None => {
                        access.scanned += postings;
                        for &pos in view.entity_positions(depth, v.token) {
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
    }

    /// Positions of the marked subtrees, increasing — document order.
    fn passing(&self) -> impl Iterator<Item = usize> + '_ {
        self.passing.iter().enumerate().flat_map(|(w, &word)| {
            let rest = |&bits: &u64| Some(bits & (bits - 1)).filter(|&b| b != 0);
            std::iter::successors(Some(word).filter(|&b| b != 0), rest)
                .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
        })
    }
}

/// Runs the anchor walk, invoking `on_subtree(g, occurrences, slot_tokens)`
/// for every gating subtree in which **all** slots have at least one
/// variant occurrence. Updates posting I/O counters in `stats`.
pub fn walk_gated_subtrees(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    mut on_subtree: impl FnMut(NodeId, &SlotOccurrences, &[Vec<TokenId>]),
) {
    walk_gated_subtrees_scoped(
        &Scoring::unsharded(corpus),
        slots,
        config,
        stats,
        &mut SlotOccurrences::new(),
        &mut Vec::new(),
        &mut EntityBitmaps::default(),
        |gate, occurrences, slot_tokens| on_subtree(gate.node, occurrences, slot_tokens),
    )
}

/// The walk core over a [`Scoring`] view and caller-provided (arena)
/// occurrence, token and bitmap buffers: the first two are resized to one
/// entry per slot and content-cleared before use, the bitmaps are rebuilt
/// by the scan, so recycled buffers behave exactly like fresh ones; all are
/// left holding the *last* query's data on return — callers treat them as
/// opaque scratch. Under a shard scope the variant tokens (global ids)
/// resolve to the shard's local posting lists — or the empty list, which
/// exhausts that merged-list member immediately — so the walk visits
/// exactly the qualifying subtrees whose entities live in the shard, and
/// picks its [`WalkPath`] from the shard's own lists. `on_subtree` receives
/// the gating subtree as its level-table entry (path local to the view's
/// corpus).
#[allow(clippy::too_many_arguments)]
pub(crate) fn walk_gated_subtrees_scoped(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    occurrences: &mut SlotOccurrences,
    slot_tokens: &mut Vec<Vec<TokenId>>,
    bitmaps: &mut EntityBitmaps,
    mut on_subtree: impl FnMut(&LevelEntry, &SlotOccurrences, &[Vec<TokenId>]),
) {
    if slots.is_empty() || slots.iter().any(|s| s.variants.is_empty()) {
        return;
    }
    let level = view.level(config.min_depth);
    let mut vls: Vec<MergedList<'_>> = slots
        .iter()
        .map(|s| MergedList::new(s.variants.iter().map(|v| (v.token, view.postings(v.token)))))
        .collect();

    occurrences.truncate(slots.len());
    occurrences.iter_mut().for_each(Vec::clear);
    occurrences.resize_with(slots.len(), Vec::new);
    slot_tokens.truncate(slots.len());
    slot_tokens.iter_mut().for_each(Vec::clear);
    slot_tokens.resize_with(slots.len(), Vec::new);

    let path = path_for(&vls, level, config);
    #[cfg(test)]
    let path = FORCED.get().unwrap_or(path);
    match path {
        WalkPath::Leapfrog => leapfrog(
            level,
            &mut vls,
            config,
            stats,
            occurrences,
            slot_tokens,
            &mut on_subtree,
        ),
        WalkPath::Scan => {
            // Every passing subtree is marked before any is collected; the
            // lists are then only moved forward to each one in turn.
            bitmaps.mark(view, slots, config.min_depth, &mut stats.access);
            for pos in bitmaps.passing() {
                let entry = level.entry(pos);
                for vl in &mut vls {
                    vl.skip_to_node(entry.node);
                }
                let present = gather(&mut vls, entry.node, entry.end, occurrences, slot_tokens);
                debug_assert!(present, "every slot marked subtree {pos}");
                stats.subtrees += 1;
                on_subtree(&entry, occurrences, slot_tokens);
            }
        }
    }

    for vl in &vls {
        stats.access += vl.stats();
    }
}

/// The leapfrog path: anchor on the largest head, gate it through a
/// forward cursor over `level`, and skip over the subtrees some slot
/// misses. Counts every visited subtree in `stats.subtrees`.
fn leapfrog(
    level: &LevelTable,
    vls: &mut [MergedList<'_>],
    config: &XCleanConfig,
    stats: &mut RunStats,
    occurrences: &mut SlotOccurrences,
    slot_tokens: &mut [Vec<TokenId>],
    on_subtree: &mut impl FnMut(&LevelEntry, &SlotOccurrences, &[Vec<TokenId>]),
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

        if gather(vls, g, g_end, occurrences, slot_tokens) {
            on_subtree(&level.entry(cursor), occurrences, slot_tokens);
        }
    }
}

/// Collects a subtree `[g, g_end)` for `on_subtree`, on either path: every
/// list's postings in it move into its slot's `occurrences` (any still
/// before `g`, reachable only with skipping disabled, are consumed and
/// dropped) and, when every slot got one, each slot's distinct tokens into
/// `slot_tokens`. Returns whether every slot got one.
fn gather(
    vls: &mut [MergedList<'_>],
    g: NodeId,
    g_end: u32,
    occurrences: &mut SlotOccurrences,
    slot_tokens: &mut [Vec<TokenId>],
) -> bool {
    let mut all_present = true;
    for (vl, occ) in vls.iter_mut().zip(occurrences.iter_mut()) {
        occ.clear();
        while let Some(n) = vl.head_node() {
            if n >= g && n.0 < g_end {
                occ.push(vl.next().expect("head_node implies an entry"));
            } else if n < g {
                vl.next();
            } else {
                break;
            }
        }
        all_present &= !occ.is_empty();
    }
    if all_present {
        for (tokens, occ) in slot_tokens.iter_mut().zip(occurrences.iter()) {
            tokens.clear();
            tokens.extend(occ.iter().map(|&(t, _, _)| t));
            tokens.sort_unstable();
            tokens.dedup();
        }
    }
    all_present
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
        let mut stats = RunStats::default();
        let mut visited = Vec::new();
        walk_gated_subtrees(
            &corpus,
            &slots,
            &XCleanConfig::default(),
            &mut stats,
            |g, occ, toks| {
                visited.push(corpus.tree().dewey(g).to_string());
                assert!(occ.iter().all(|o| !o.is_empty()));
                assert_eq!(toks.len(), 2);
            },
        );
        assert_eq!(visited, vec!["1.2"]);
        assert!(stats.access.read > 0);
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
