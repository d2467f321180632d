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

use xclean_index::{CorpusIndex, LevelEntry, MergedList, TokenId};
use xclean_xmltree::NodeId;

use crate::algorithm::{KeywordSlot, RunStats};
use crate::config::XCleanConfig;
use crate::view::Scoring;

/// Occurrences collected for one gating subtree: per keyword slot, the
/// `(token, node, tf)` triples in document order.
pub type SlotOccurrences = Vec<Vec<(TokenId, NodeId, u32)>>;

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
        |gate, occurrences, slot_tokens| on_subtree(gate.node, occurrences, slot_tokens),
    )
}

/// The walk core over a [`Scoring`] view and caller-provided (arena)
/// occurrence and token buffers: both are resized to one entry per slot
/// and content-cleared before use, so recycled buffers behave exactly like
/// fresh ones, and are left holding the *last* subtree's data on return —
/// callers treat them as opaque scratch. Under a shard scope the variant
/// tokens (global ids) resolve to the shard's local posting lists — or the
/// empty list, which exhausts that merged-list member immediately — so the
/// walk visits exactly the qualifying subtrees whose entities live in the
/// shard. `on_subtree` receives the gating subtree as its level-table
/// entry (path local to the view's corpus).
pub(crate) fn walk_gated_subtrees_scoped(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    occurrences: &mut SlotOccurrences,
    slot_tokens: &mut Vec<Vec<TokenId>>,
    mut on_subtree: impl FnMut(&LevelEntry, &SlotOccurrences, &[Vec<TokenId>]),
) {
    if slots.is_empty() || slots.iter().any(|s| s.variants.is_empty()) {
        return;
    }
    let level = view.level(config.min_depth);
    let mut cursor = 0;
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

    loop {
        // The anchor is the *largest* head; nil once any list is exhausted
        // (no further subtree can contain all keywords).
        let anchor = {
            let mut max: Option<NodeId> = None;
            let mut dead = false;
            for vl in &vls {
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
                for vl in &mut vls {
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
                for vl in &mut vls {
                    if vl.head_node().is_some_and(|n| n.0 < g_end) {
                        vl.skip_to_node(NodeId(g_end));
                    }
                }
                continue;
            }
        }

        let mut all_present = true;
        for (i, vl) in vls.iter_mut().enumerate() {
            occurrences[i].clear();
            while let Some(n) = vl.head_node() {
                if n >= g && n.0 < g_end {
                    occurrences[i].push(vl.next().expect("head_node implies an entry"));
                } else if n < g {
                    // Reachable only with skipping disabled.
                    vl.next();
                } else {
                    break;
                }
            }
            if occurrences[i].is_empty() {
                all_present = false;
            }
        }
        if !all_present {
            continue;
        }

        for (i, occ) in occurrences.iter().enumerate() {
            slot_tokens[i].clear();
            slot_tokens[i].extend(occ.iter().map(|&(t, _, _)| t));
            slot_tokens[i].sort_unstable();
            slot_tokens[i].dedup();
        }

        on_subtree(&level.entry(cursor), occurrences, slot_tokens);
    }

    for vl in &vls {
        stats.access += vl.stats();
    }
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
