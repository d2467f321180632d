//! The XClean top-k algorithm (Algorithm 1 of the paper, §V-C).
//!
//! One pass over the merged variant inverted lists:
//!
//! 1. pick the **anchor** — the largest head among the keywords'
//!    [`xclean_index::MergedList`]s;
//! 2. find the gating subtree `g`, the anchor's ancestor at the minimal
//!    depth `d` (the paper truncates the anchor's Dewey code);
//! 3. `skip_to(g)` every merged list (discarding everything before `g`),
//!    then collect all variant occurrences inside `g`'s subtree;
//! 4. enumerate the candidate queries formed by the variants observed in
//!    the subtree, infer each one's best result type (cached), identify
//!    the entity nodes of that type, and accumulate
//!    `Π_{w∈C} P(w|D(r))` per entity into the candidate's accumulator;
//! 5. repeat until any merged list is exhausted.
//!
//! Steps 1–3 are [`crate::walk`]: with skipping on it finds every `g` in
//! which all keywords occur at once, by ANDing per-keyword entity bitmaps
//! over the depth-`d` subtrees, which is `skip_to` taken to its limit;
//! with it off it walks the lists linearly as above, without the skips.
//! Node-id comparisons stand in for Dewey comparisons throughout (the
//! tree arena is in preorder, so the orders coincide).
//!
//! The pass runs once, on the calling thread, into one accumulator table:
//! `config.num_threads` never reaches inside a corpus walk (see DESIGN.md,
//! "Concurrency & batching").

use std::time::Instant;

use xclean_index::{AccessStats, CorpusIndex, LevelEntry, TokenId};
use xclean_lm::ErrorModel;
use xclean_xmltree::{NodeId, PathId};

use crate::arena::QueryArena;
use crate::candidates::TypeSlot;
use crate::config::{EntityPrior, XCleanConfig};
use crate::pipeline::Semantics;
use crate::pruning::{Accumulator, CandidateKey, PruningStats, ScoreSink};
use crate::result_type::find_result_type_scoped;
use crate::variants::Variant;
use crate::view::Scoring;
use crate::walk::{Occurrences, Tokens};

/// A query keyword with its generated variant set.
#[derive(Debug, Clone)]
pub struct KeywordSlot {
    /// The observed (possibly misspelt) keyword.
    pub keyword: String,
    /// `var_ε(keyword)`.
    pub variants: Vec<Variant>,
}

/// One scored suggestion.
#[derive(Debug, Clone)]
pub struct ScoredCandidate {
    /// One variant token per query keyword.
    pub tokens: CandidateKey,
    /// Final log score: `log P(Q|C) + log(Σ_r P(C|r) / N)` (Eq. 10 up to
    /// the query-constant κ and per-keyword normalisation).
    pub log_score: f64,
    /// Edit distance of each keyword.
    pub distances: Vec<u32>,
    /// The inferred result type `p_C`.
    pub result_path: PathId,
    /// Number of entities that matched all keywords.
    pub entity_count: u64,
}

/// Counters describing one run (feeds the efficiency experiments).
#[derive(Debug, Default, Clone, Copy)]
pub struct RunStats {
    /// Depth-`d` subtrees processed: every subtree the linear walk visits,
    /// or on the scan every subtree handed to the scorer.
    pub subtrees: u64,
    /// Candidate queries enumerated (with multiplicity across subtrees).
    pub candidates_enumerated: u64,
    /// Distinct candidates for which a result type was computed.
    pub result_type_computations: u64,
    /// Entity score contributions accumulated.
    pub entities_scored: u64,
    /// Posting I/O of the walk: over all merged lists, postings read via
    /// `next()`, postings jumped by `skip_to`, and `skip_to` call count
    /// ([`xclean_index::MergedList`]'s own counters, surfaced per run) —
    /// on the scan path only those of the passing subtrees a scorer asked
    /// to gather — and the scan path's own: postings marked from kept
    /// lists and bitmaps, and passing subtrees served from the columns.
    pub access: AccessStats,
    /// Accumulator-table pruning outcome.
    pub pruning: PruningStats,
    /// Wall time of variant-slot construction, in nanoseconds. Always
    /// ≥ 1 on engine paths (`XCleanEngine::suggest*`); zero only when
    /// `run_xclean` is called directly, which has no slot phase.
    pub slot_nanos: u64,
    /// Wall time of the walk + accumulate phase, in nanoseconds. Recorded
    /// (≥ 1) on **every** code path, including the empty-candidate early
    /// return.
    pub walk_nanos: u64,
    /// Wall time of the finalise + rank phase, in nanoseconds. Recorded
    /// (≥ 1) on every code path, like [`RunStats::walk_nanos`].
    pub rank_nanos: u64,
}

/// Sums whole runs: every counter and stage time adds (each absorbed run
/// executed its stages in full, so the totals stay wall-clock-meaningful
/// and ≥ 1 once anything ran). Used by the scatter gather (per-shard
/// walks → one query) and by space edits (per-rewriting queries → one
/// response).
impl std::ops::AddAssign for RunStats {
    fn add_assign(&mut self, other: RunStats) {
        self.subtrees += other.subtrees;
        self.candidates_enumerated += other.candidates_enumerated;
        self.result_type_computations += other.result_type_computations;
        self.entities_scored += other.entities_scored;
        self.access += other.access;
        self.pruning.evictions += other.pruning.evictions;
        self.pruning.rejected += other.pruning.rejected;
        self.slot_nanos += other.slot_nanos;
        self.walk_nanos += other.walk_nanos;
        self.rank_nanos += other.rank_nanos;
    }
}

/// Output of [`run_xclean`]: candidates sorted by descending score, plus
/// run statistics.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// All surviving candidates, best first (callers take the top k).
    pub candidates: Vec<ScoredCandidate>,
    /// Run counters.
    pub stats: RunStats,
}

/// Executes Algorithm 1 and final scoring over prebuilt slots, on the
/// calling thread whatever `config.num_threads` says. The same run an
/// [`crate::XCleanEngine`] executes, minus the slot phase.
pub fn run_xclean(corpus: &CorpusIndex, slots: &[KeywordSlot], config: &XCleanConfig) -> RunOutput {
    crate::pipeline::run_corpus(corpus, Semantics::NodeType, slots, config)
}

/// Wall time since `start`, clamped to ≥ 1 ns so "this phase ran" is
/// always distinguishable from "this phase was never recorded" even on
/// coarse clocks (the assertion-backed guarantee on [`RunStats`]).
pub(crate) fn nanos_since(start: Instant) -> u64 {
    (start.elapsed().as_nanos() as u64).max(1)
}

/// The entities of one gating subtree, grouped for scoring: per result
/// type a candidate of the subtree asks for, one sorted run of per-entity
/// term counts. At the gate depth the run is the walk's [`Tokens::counts`];
/// below it, the subtree's occurrences summed per entity — a few dozen
/// triples, so grouping is a sort of a small vector rather than a map
/// build. All storage is recycled through the arena.
#[derive(Debug, Default)]
pub(crate) struct EntityGroups {
    /// `(result type, range of `rows`)` of each run built so far.
    runs: Vec<(PathId, usize, usize)>,
    /// The runs, concatenated: `(entity, token, Σ tf)`, each run sorted by
    /// `(entity, token)` with one row per pair.
    rows: Vec<(NodeId, TokenId, u64)>,
}

impl EntityGroups {
    /// Forgets the current subtree's runs, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
        self.rows.clear();
    }

    /// `true` when no run is held.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.rows.is_empty()
    }

    /// The run of result type `path`: for every entity of that type in the
    /// subtree, in document order, its `(entity, token, count in the
    /// entity's subtree)` rows. Built on first request per subtree, from
    /// the `tokens`' counts when `path` sits at the depth `min_depth` of
    /// the subtree `gate` and from its `occurrences` below it.
    pub(crate) fn entities_of(
        &mut self,
        view: &Scoring<'_>,
        path: PathId,
        gate: &LevelEntry,
        tokens: &Tokens<'_>,
        occurrences: &mut Occurrences<'_, '_>,
        min_depth: u32,
    ) -> &[(NodeId, TokenId, u64)] {
        if let Some(&(_, start, end)) = self.runs.iter().find(|run| run.0 == path) {
            return &self.rows[start..end];
        }
        // `path` is a *global* id; under a shard scope the candidate entity's
        // local path is compared through `view.global_path`, and the depth
        // comes from the global table (local depths are preserved by the
        // partitioner, so the truncation height is the same either way).
        let depth = view.path_depth(path);
        let start = self.rows.len();
        if depth == min_depth {
            // A result type at the gate depth has one candidate entity: the
            // gating subtree's root, whose counts are the subtree's, sorted
            // by token.
            if view.global_path(gate.path) == path {
                let rows = tokens.counts.iter().map(|&(t, c)| (gate.node, t, c));
                self.rows.extend(rows);
            }
        } else {
            let tree = view.tree();
            for &(token, node, tf) in occurrences.all() {
                if let Some(r) = tree.ancestor_at_depth(node, depth) {
                    if view.node_path(r) == path {
                        self.rows.push((r, token, u64::from(tf)));
                    }
                }
            }
            // Entities are scored in document order, which fixes the order
            // of every accumulator's f64 adds.
            self.rows[start..].sort_unstable_by_key(|&(r, token, _)| (r, token));
            let mut end = start;
            for i in start..self.rows.len() {
                let row = self.rows[i];
                if end > start && (self.rows[end - 1].0, self.rows[end - 1].1) == (row.0, row.1) {
                    self.rows[end - 1].2 += row.2;
                } else {
                    self.rows[end] = row;
                    end += 1;
                }
            }
            self.rows.truncate(end);
        }
        let end = self.rows.len();
        self.runs.push((path, start, end));
        &self.rows[start..end]
    }
}

/// The node-type accumulate rule over a [`Scoring`] view and a
/// [`ScoreSink`]: walks the view's tree, enumerates candidates, and emits
/// one `accumulate` call per (candidate, entity) contribution — in
/// document order, with per-entity floating-point ops in exactly the
/// sequential order. One corpus sinks straight into the γ-table; a shard
/// walk sinks into a replay log (see `crate::pipeline`). The contribution
/// stream never depends on the sink.
pub(crate) fn accumulate_scoped<S: ScoreSink>(
    view: &Scoring<'_>,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    arena: &mut QueryArena,
    sink: &mut S,
) {
    let lm = view.language_model(config.effective_smoothing());
    arena
        .candidates
        .compile(slots, ErrorModel::new(config.beta));
    // Split the arena into independently-borrowed scratch pieces: the
    // walk owns its scratch while the subtree closure works the scoring
    // scratch. The sink's own storage (table or log) is the caller's to
    // lend.
    let QueryArena {
        walk,
        candidate,
        candidates,
        groups,
        type_order,
        ..
    } = arena;
    let mut candidates_enumerated = 0u64;
    let mut result_type_computations = 0u64;
    let mut entities_scored = 0u64;

    crate::walk::walk_gated_subtrees_scoped(
        view,
        slots,
        config,
        stats,
        walk,
        |gate, tokens, occurrences| {
            // Lines 12–15: enumerate candidates and accumulate entity
            // scores. Entity runs are built lazily per result type.
            groups.clear();
            let mut budget = config.max_candidates_per_subtree;
            crate::walk::enumerate_candidates_in(
                tokens.slot_tokens,
                candidate,
                &mut budget,
                &mut |cand| {
                    candidates_enumerated += 1;
                    let id = candidates.intern(cand);
                    let path = match candidates.result_type(id) {
                        TypeSlot::Path(path) => path,
                        TypeSlot::NoType => return,
                        TypeSlot::Unresolved => {
                            result_type_computations += 1;
                            let slot = find_result_type_scoped(
                                view,
                                cand,
                                config.min_depth,
                                config.depth_decay,
                                type_order,
                            )
                            .map_or(TypeSlot::NoType, |rt| TypeSlot::Path(rt.path));
                            candidates.set_result_type(id, slot);
                            let TypeSlot::Path(path) = slot else { return };
                            path
                        }
                    };
                    let entities =
                        groups.entities_of(view, path, gate, tokens, occurrences, config.min_depth);
                    for counts in entities.chunk_by(|a, b| a.0 == b.0) {
                        // The entity must contain every keyword of the candidate.
                        let r = counts[0].0;
                        let mut score = 0.0f64;
                        let mut ok = true;
                        // An entity at the gate depth is the gate itself, whose
                        // length rides on the entry; deeper ones ask the corpus.
                        let dlen = if r == gate.node {
                            gate.doc_len
                        } else {
                            view.doc_len(r)
                        };
                        for &t in cand.iter() {
                            match counts.iter().find(|row| row.1 == t) {
                                Some(&(_, _, c)) if c > 0 => {
                                    score += lm.log_prob(t, c, dlen);
                                }
                                _ => {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if ok {
                            entities_scored += 1;
                            let weight = match config.prior {
                                EntityPrior::Uniform => 1.0,
                                EntityPrior::DocLength => dlen.max(1) as f64,
                            };
                            sink.accumulate(candidates, id, score.exp() * weight, weight);
                        }
                    }
                },
            );
        },
    );
    stats.candidates_enumerated = candidates_enumerated;
    stats.result_type_computations = result_type_computations;
    stats.entities_scored = entities_scored;
}

/// Final scoring: `log P(Q|C) + log( Σ_r P(C|r)·P(r|T) )` (Eq. 10) for
/// every surviving accumulator of the `filled` arena's table, sorted
/// best-first with a deterministic token tie-break, the best `limit`
/// materialised. Also returns how many candidates survived (`score_sum >
/// 0`), whatever the limit. Accumulator order does not matter because
/// each candidate's accumulator is already complete and the comparator is
/// a total order. `normalizer` is the prior mass the sum is divided by —
/// the entity semantics decides it (see the call site in
/// `crate::pipeline`).
pub(crate) fn finalize_candidates(
    filled: &mut QueryArena,
    normalizer: impl Fn(&Accumulator) -> f64,
    limit: usize,
) -> (Vec<ScoredCandidate>, u64) {
    let mut order = std::mem::take(&mut filled.rank_order);
    order.clear();
    let live = filled.table.live();
    for (i, acc) in live.iter().enumerate() {
        if acc.score_sum > 0.0 {
            let log_score = acc.log_error_weight + (acc.score_sum / normalizer(acc)).ln();
            order.push((log_score, i as u32));
        }
    }
    let key = |entry: &(f64, u32)| filled.candidates.key(live[entry.1 as usize].candidate);
    order.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("scores are never NaN")
            .then_with(|| key(a).cmp(key(b)))
    });
    let scored = order
        .iter()
        .take(limit)
        .map(|entry| {
            let acc = &live[entry.1 as usize];
            ScoredCandidate {
                tokens: key(entry).to_vec(),
                log_score: entry.0,
                distances: filled.candidates.distances(acc.candidate).to_vec(),
                result_path: acc.result_path,
                entity_count: acc.entity_count,
            }
        })
        .collect();
    let survivors = order.len() as u64;
    filled.rank_order = order;
    (scored, survivors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{rank_walked, ArenaPool, Walked};
    use crate::variants::VariantGenerator;
    use xclean_telemetry::Telemetry;
    use xclean_xmltree::parse_document;

    /// [`run_xclean`] over a caller-held telemetry bundle and arena pool.
    fn run_in(
        c: &CorpusIndex,
        slots: &[KeywordSlot],
        config: &XCleanConfig,
        telemetry: &Telemetry,
        arenas: &ArenaPool,
    ) -> RunOutput {
        let ranked = rank_walked(
            Walked::Corpus(c),
            Semantics::NodeType,
            slots,
            config,
            usize::MAX,
            telemetry,
            arenas,
            &mut |_| {},
        );
        RunOutput {
            candidates: ranked.candidates,
            stats: ranked.stats,
        }
    }

    /// Corpus mirroring the paper's running example (Figure 2/Example 5):
    /// `tree`/`trie`/`trees` and `icde`/`icdt` spread over `/a/c` and
    /// `/a/d` record subtrees.
    fn corpus() -> CorpusIndex {
        let xml = "<a>\
            <c><x>tree</x></c>\
            <c><x>trie</x><x>tree</x><y>icde</y></c>\
            <d><x>trie</x><y>icdt icde</y></d>\
            <d><x>trie</x><y>icde</y></d>\
        </a>";
        CorpusIndex::build(parse_document(xml).unwrap())
    }

    fn slots_for(corpus: &CorpusIndex, query: &[&str], eps: usize) -> Vec<KeywordSlot> {
        let gen = VariantGenerator::build(corpus, eps, 14);
        query
            .iter()
            .map(|q| KeywordSlot {
                keyword: q.to_string(),
                variants: gen.variants(q),
            })
            .collect()
    }

    fn term_strings(c: &CorpusIndex, cand: &ScoredCandidate) -> Vec<String> {
        cand.tokens
            .iter()
            .map(|&t| c.vocab().term(t).to_string())
            .collect()
    }

    #[test]
    fn example5_finds_valid_suggestions() {
        let c = corpus();
        let slots = slots_for(&c, &["tree", "icdt"], 1);
        let out = run_xclean(&c, &slots, &XCleanConfig::default());
        assert!(!out.candidates.is_empty());
        let suggestions: Vec<Vec<String>> = out
            .candidates
            .iter()
            .map(|cand| term_strings(&c, cand))
            .collect();
        // "trie icde" and "trie icdt" connect within /a/d records;
        // "tree icde" connects within the second /a/c record.
        assert!(suggestions.contains(&vec!["trie".into(), "icde".into()]));
        assert!(suggestions.contains(&vec!["trie".into(), "icdt".into()]));
        assert!(suggestions.contains(&vec!["tree".into(), "icde".into()]));
        // Every suggested candidate must have at least one entity.
        for cand in &out.candidates {
            assert!(cand.entity_count > 0, "suggestions must have results");
        }
    }

    #[test]
    fn disconnected_candidates_are_not_suggested() {
        // "tree icdt": tree appears only under /a/c subtrees, icdt only
        // under /a/d — they never co-occur below depth 2, so the literal
        // query must not be suggested even though both tokens exist.
        let c = corpus();
        let slots = slots_for(&c, &["tree", "icdt"], 1);
        let out = run_xclean(&c, &slots, &XCleanConfig::default());
        let suggestions: Vec<Vec<String>> = out
            .candidates
            .iter()
            .map(|cand| term_strings(&c, cand))
            .collect();
        assert!(!suggestions.contains(&vec!["tree".into(), "icdt".into()]));
    }

    #[test]
    fn empty_variant_slot_yields_no_candidates() {
        let c = corpus();
        let mut slots = slots_for(&c, &["tree", "icdt"], 1);
        slots[1].variants.clear();
        let out = run_xclean(&c, &slots, &XCleanConfig::default());
        assert!(out.candidates.is_empty());
    }

    #[test]
    fn single_keyword_query_works() {
        let c = corpus();
        let slots = slots_for(&c, &["icde"], 1);
        let out = run_xclean(&c, &slots, &XCleanConfig::default());
        assert!(!out.candidates.is_empty());
        let top = term_strings(&c, &out.candidates[0]);
        assert_eq!(top, vec!["icde".to_string()]);
    }

    #[test]
    fn clean_query_ranks_itself_first() {
        let c = corpus();
        let slots = slots_for(&c, &["trie", "icde"], 1);
        let out = run_xclean(&c, &slots, &XCleanConfig::default());
        let top = term_strings(&c, &out.candidates[0]);
        assert_eq!(top, vec!["trie".to_string(), "icde".to_string()]);
        assert_eq!(out.candidates[0].distances, vec![0, 0]);
    }

    #[test]
    fn reused_arena_is_bit_identical_to_fresh_arenas() {
        // The same interleaved workload — different keyword counts, a
        // γ-bound config that exercises eviction/rejection with recycled
        // table storage, and an empty-slot early-out — through one shared
        // arena must match per-query fresh arenas bit for bit.
        let c = corpus();
        let tight = XCleanConfig {
            gamma: Some(1),
            ..XCleanConfig::default()
        };
        let workload: Vec<(Vec<KeywordSlot>, XCleanConfig)> = vec![
            (slots_for(&c, &["tree", "icdt"], 1), XCleanConfig::default()),
            (slots_for(&c, &["icde"], 1), XCleanConfig::default()),
            (slots_for(&c, &["trie", "icde"], 1), tight.clone()),
            (Vec::new(), XCleanConfig::default()),
            (slots_for(&c, &["tree", "icdt"], 1), tight),
        ];
        let arenas = ArenaPool::default();
        for (slots, config) in &workload {
            let fresh = run_xclean(&c, slots, config);
            let reused = run_in(&c, slots, config, &Telemetry::disabled(), &arenas);
            assert_eq!(fresh.candidates.len(), reused.candidates.len());
            for (a, b) in fresh.candidates.iter().zip(&reused.candidates) {
                assert_eq!(a.tokens, b.tokens);
                assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
                assert_eq!(a.distances, b.distances);
                assert_eq!(a.result_path, b.result_path);
                assert_eq!(a.entity_count, b.entity_count);
            }
            assert_eq!(fresh.stats.pruning, reused.stats.pruning);
            assert_eq!(
                fresh.stats.candidates_enumerated,
                reused.stats.candidates_enumerated
            );
            assert_eq!(fresh.stats.entities_scored, reused.stats.entities_scored);
        }
    }

    #[test]
    fn skipping_does_not_change_results() {
        let c = corpus();
        let slots = slots_for(&c, &["tree", "icdt"], 1);
        let with = run_xclean(&c, &slots, &XCleanConfig::default());
        let without = run_xclean(
            &c,
            &slots,
            &XCleanConfig {
                enable_skipping: false,
                ..Default::default()
            },
        );
        let a: Vec<_> = with
            .candidates
            .iter()
            .map(|x| (&x.tokens, x.log_score))
            .collect();
        let b: Vec<_> = without
            .candidates
            .iter()
            .map(|x| (&x.tokens, x.log_score))
            .collect();
        assert_eq!(a.len(), b.len());
        for ((ta, sa), (tb, sb)) in a.iter().zip(b.iter()) {
            assert_eq!(ta, tb);
            assert!((sa - sb).abs() < 1e-12);
        }
    }

    #[test]
    fn stats_are_populated() {
        let c = corpus();
        let slots = slots_for(&c, &["tree", "icdt"], 1);
        let out = run_xclean(&c, &slots, &XCleanConfig::default());
        assert!(out.stats.subtrees > 0);
        assert!(out.stats.candidates_enumerated > 0);
        // The query scans: its two slots' postings are marked from the
        // level table's kept sets, and every passing subtree is scored
        // from the columns, so none is gathered.
        assert!(out.stats.access.scan_postings() > 0);
        assert_eq!(out.stats.access.from_columns, out.stats.subtrees);
        assert_eq!(out.stats.access.read, 0);
        assert!(out.stats.entities_scored > 0);
    }

    #[test]
    fn tight_gamma_still_returns_top_candidate() {
        let c = corpus();
        let slots = slots_for(&c, &["tree", "icdt"], 1);
        let full = run_xclean(&c, &slots, &XCleanConfig::default());
        let tight = run_xclean(
            &c,
            &slots,
            &XCleanConfig {
                gamma: Some(1),
                ..Default::default()
            },
        );
        assert!(!tight.candidates.is_empty());
        // γ=1 keeps a single accumulator; it should be a real candidate
        // that also appears in the unpruned run.
        let kept = &tight.candidates[0].tokens;
        assert!(full.candidates.iter().any(|c| &c.tokens == kept));
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let c = corpus();
        for query in [&["tree", "icdt"][..], &["trie", "icde"], &["icde"]] {
            let slots = slots_for(&c, query, 2);
            let seq = run_xclean(&c, &slots, &XCleanConfig::default());
            for threads in [2, 3, 8] {
                let par = run_xclean(
                    &c,
                    &slots,
                    &XCleanConfig {
                        num_threads: threads,
                        ..Default::default()
                    },
                );
                assert_eq!(seq.candidates.len(), par.candidates.len());
                for (a, b) in seq.candidates.iter().zip(par.candidates.iter()) {
                    assert_eq!(a.tokens, b.tokens);
                    // Bit-identical, not merely close.
                    assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
                    assert_eq!(a.entity_count, b.entity_count);
                }
                // One corpus is walked once whatever `num_threads` says,
                // so every counter repeats.
                assert_eq!(
                    seq.stats.candidates_enumerated,
                    par.stats.candidates_enumerated
                );
                assert_eq!(seq.stats.entities_scored, par.stats.entities_scored);
                assert_eq!(seq.stats.access, par.stats.access);
            }
        }
    }

    #[test]
    fn phase_timings_are_recorded() {
        let c = corpus();
        let slots = slots_for(&c, &["tree", "icdt"], 1);
        let out = run_xclean(&c, &slots, &XCleanConfig::default());
        assert!(out.stats.walk_nanos > 0);
        assert!(!out.candidates.is_empty());
        assert!(out.stats.rank_nanos > 0);
        // Slot construction is timed by the engine; the direct entry
        // point has no slot phase (documented on RunStats).
        assert_eq!(out.stats.slot_nanos, 0);
    }

    #[test]
    fn phase_timings_recorded_on_every_code_path() {
        let c = corpus();
        // Empty-candidate early return: one slot has no variants.
        let mut slots = slots_for(&c, &["tree", "icdt"], 1);
        slots[1].variants.clear();
        let out = run_xclean(&c, &slots, &XCleanConfig::default());
        assert!(out.candidates.is_empty());
        assert!(out.stats.walk_nanos > 0, "empty path must record walk");
        assert!(out.stats.rank_nanos > 0, "empty path must record rank");
        // A γ that evicts (the unpruned walk is `phase_timings_are_recorded`).
        let slots = slots_for(&c, &["tree", "icdt"], 2);
        let out = run_xclean(
            &c,
            &slots,
            &XCleanConfig {
                gamma: Some(1),
                ..Default::default()
            },
        );
        assert!(out.stats.walk_nanos > 0);
        assert!(out.stats.rank_nanos > 0);
    }

    #[test]
    fn telemetry_on_output_is_bit_identical_and_traced() {
        let c = corpus();
        let slots = slots_for(&c, &["tree", "icdt"], 2);
        for threads in [1usize, 3] {
            let config = XCleanConfig {
                num_threads: threads,
                ..Default::default()
            };
            let plain = run_xclean(&c, &slots, &config);
            let telemetry = Telemetry::with_tracing();
            let traced = run_in(&c, &slots, &config, &telemetry, &ArenaPool::default());
            assert_eq!(plain.candidates.len(), traced.candidates.len());
            for (a, b) in plain.candidates.iter().zip(traced.candidates.iter()) {
                assert_eq!(a.tokens, b.tokens);
                assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
            }
            let spans = telemetry.tracer().finished_spans();
            let walks = spans.iter().filter(|s| s.name == "walk_accumulate");
            assert_eq!(walks.count(), 1, "{spans:?}");
            assert!(spans.iter().any(|s| s.name == "rank"));
        }
    }

    #[test]
    fn scores_decrease_with_edit_distance_ceteris_paribus() {
        let c = corpus();
        // Query exactly "icde": variants icde (d=0) and icdt (d=1) have
        // similar distributions; icde must rank first.
        let slots = slots_for(&c, &["icde"], 1);
        let out = run_xclean(&c, &slots, &XCleanConfig::default());
        assert_eq!(
            term_strings(&c, &out.candidates[0]),
            vec!["icde".to_string()]
        );
        if out.candidates.len() > 1 {
            assert!(out.candidates[0].log_score > out.candidates[1].log_score);
        }
    }
}
