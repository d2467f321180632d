//! Per-query scratch arena: recycled buffers for the scoring hot path.
//!
//! One `suggest` call works on a family of short-lived structures — the
//! walk's per-slot occurrence buffers and the scan path's entity bitmaps,
//! the candidate enumeration scratch, the compiled candidate table, the
//! per-subtree entity grouping, the contribution and pattern memos, the
//! γ-table and the ranker's sort buffer. At realistic corpus scale (100k+ publications)
//! allocating them is a measurable slice of query latency, and a batch
//! (`suggest_many`) would pay it once per query.
//!
//! [`QueryArena`] owns all of that scratch and is *reset* — contents
//! cleared, capacity retained — between queries, so a steady-state worker
//! reaches a fixed point where everything between slot building and the
//! materialisation of the top-k suggestions performs no heap allocation
//! beyond the per-keyword merged-list cursors (pinned by the
//! `alloc_budget` integration test). The engine keeps a small pool of
//! arenas ([`crate::XCleanEngine`]), so both single `suggest` calls and
//! `suggest_many` workers reuse them transparently.
//!
//! # Why bit-identity is preserved
//!
//! Recycling changes *where* the scratch lives, never *what it holds*:
//! every buffer is content-cleared before reuse, and nothing in it is a
//! hash map, so there is no iteration order that could vary with capacity
//! or history. The candidate table's probe index only answers "which id
//! has this key" (ids are never compared or iterated for a result — see
//! `crate::candidates`); entity groups are sorted runs read front to
//! back; the contribution memo answers only for its full key within one
//! walk, with bits the one contribution formula produced, and the pattern
//! memo only for its full key within one query, with the record that
//! query's enumeration made; the γ-table's
//! victim scan and the ranker order candidates by
//! (estimate or score, key), a total order over the table's contents. A
//! reused arena therefore produces bit-identical output to a fresh one —
//! pinned by tests in `crate::algorithm`.

use xclean_index::TokenId;
use xclean_lm::ErrorModel;

use crate::algorithm::{Contributions, EntityGroups, KeywordSlot, Patterns};
use crate::candidates::CandidateTable;
use crate::pruning::AccumulatorTable;
use crate::walk::WalkScratch;

/// Recycled scratch for one in-flight query (see the module docs).
///
/// A fresh (`Default`) arena is always valid; reuse via
/// [`QueryArena::reset`] only improves allocation behaviour.
#[derive(Debug, Default)]
pub struct QueryArena {
    /// Walk scratch: the current gating subtree's tokens, sums and
    /// occurrences, and the scan path's bitmaps and columns.
    pub(crate) walk: WalkScratch,
    /// Candidate-enumeration scratch (one token per slot).
    pub(crate) candidate: Vec<TokenId>,
    /// The compiled query: slot tables and interned candidates (the hash
    /// table `P` of Algorithm 1 lives here, as one slot per candidate).
    pub(crate) candidates: CandidateTable,
    /// Per-subtree occurrence and entity grouping.
    pub(crate) groups: EntityGroups,
    /// The walk's contribution memo, one per distinct key.
    pub(crate) contributions: Contributions,
    /// The query's enumeration memo, one per distinct set of held tokens.
    pub(crate) patterns: Patterns,
    /// Result-type inference scratch (list intersection order).
    pub(crate) type_order: Vec<usize>,
    /// The γ-table a walk accumulates into (over every shard of a set).
    pub(crate) table: AccumulatorTable,
    /// Rank scratch: `(log score, accumulator)` of each survivor.
    pub(crate) rank_order: Vec<(f64, u32)>,
}

impl QueryArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all scratch contents while retaining allocated capacity.
    /// Called by the engine between queries; running on a freshly-reset
    /// arena is indistinguishable from running on a new one.
    pub fn reset(&mut self) {
        self.walk.clear();
        self.candidate.clear();
        self.compile(&[], Default::default());
        self.groups.clear();
        self.contributions.forget();
        self.type_order.clear();
        self.table.reset(None);
        self.rank_order.clear();
    }

    /// Starts a query over `slots`: compiles its candidate table and
    /// forgets the enumeration patterns filed under the last table's ids.
    pub(crate) fn compile(&mut self, slots: &[KeywordSlot], error_model: ErrorModel) {
        self.candidates.compile(slots, error_model);
        self.patterns.forget();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::RunStats;
    use crate::config::XCleanConfig;
    use crate::variants::Variant;
    use crate::view::Scoring;
    use crate::walk::walk_gated_subtrees_scoped;
    use xclean_index::CorpusIndex;
    use xclean_xmltree::parse_document;

    #[test]
    fn reset_clears_contents_and_keeps_capacity() {
        let mut a = QueryArena::new();
        let corpus = CorpusIndex::build(
            parse_document("<a><b><c>key</c></b><b><c>key key</c></b></a>").unwrap(),
        );
        let key = corpus.vocab().get("key").unwrap();
        let slot = KeywordSlot {
            keyword: "k".into(),
            variants: vec![Variant {
                token: key,
                distance: 1,
            }],
        };
        // One walk fills the walk scratch and a run of each kind.
        let view = Scoring::unsharded(&corpus);
        let config = XCleanConfig::default();
        let QueryArena { walk, groups, .. } = &mut a;
        let mut stats = RunStats::default();
        let slots = [slot.clone()];
        walk_gated_subtrees_scoped(&view, &slots, &config, &mut stats, walk, |g, _, occ| {
            for depth in [2, 3] {
                let path = view.tree().path(
                    view.tree()
                        .ancestor_at_depth(occ.all()[0].1, depth)
                        .unwrap(),
                );
                assert!(!groups
                    .entities_of(&view, path, g, occ, config.min_depth)
                    .is_empty());
            }
        });
        assert!(!a.walk.is_empty() && !a.groups.is_empty());
        a.candidate.push(TokenId(7));
        a.compile(&[slot], Default::default());
        let id = a.candidates.intern(&[key]);
        a.type_order.extend([0, 1]);
        let lm = view.language_model(config.smoothing);
        a.contributions.forget();
        let weighted = a
            .contributions
            .weighted(&lm, config.prior, id, &[key], 3, |_| Some(2));
        assert!(weighted.is_some() && !a.contributions.is_empty());
        assert!(a.patterns.lookup(&[key]).is_err() && !a.patterns.is_empty());
        a.table.reset(Some(1));
        a.table.add(&a.candidates, id, 0.5, 1.0, &mut |_| {});
        a.rank_order.extend([(0.0, 0); 40]);
        let rank_cap = a.rank_order.capacity();
        a.reset();
        assert!(a.walk.is_empty());
        assert!(a.candidate.is_empty());
        assert!(a.candidates.is_empty());
        assert_eq!(a.candidates.width(), 0);
        assert!(a.groups.is_empty());
        assert!(a.contributions.is_empty());
        assert!(a.patterns.is_empty());
        assert!(a.type_order.is_empty());
        assert!(a.table.is_empty());
        assert!(a.table.get(id).is_none());
        assert!(a.rank_order.is_empty());
        assert_eq!(a.rank_order.capacity(), rank_cap);
    }
}
