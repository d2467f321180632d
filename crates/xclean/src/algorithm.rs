//! The XClean top-k algorithm (Algorithm 1 of the paper, §V-C).
//!
//! One pass over the variant inverted lists, each keyword's read through
//! one forward cursor per variant (the paper merges them into one list per
//! keyword):
//!
//! 1. pick the **anchor** — the largest keyword head, a keyword's head
//!    being the smallest next node among its variants' cursors;
//! 2. find the gating subtree `g`, the anchor's ancestor at the minimal
//!    depth `d` (the paper truncates the anchor's Dewey code);
//! 3. `skip_to(g)` every keyword (discarding everything before `g`), then
//!    collect all variant occurrences inside `g`'s subtree;
//! 4. enumerate the candidate queries formed by the variants observed in
//!    the subtree, infer each one's best result type (cached), identify
//!    the entity nodes of that type, and accumulate
//!    `Π_{w∈C} P(w|D(r))` per entity into the candidate's accumulator;
//! 5. repeat until any keyword's cursors are exhausted.
//!
//! Steps 1–3 are [`crate::walk`]: with skipping on it finds every `g` in
//! which all keywords occur at once, by ANDing per-keyword entity bitmaps
//! over the depth-`d` subtrees, which is `skip_to` taken to its limit;
//! with it off it walks the cursors linearly as above, consuming every
//! posting instead of skipping.
//! Node-id comparisons stand in for Dewey comparisons throughout (the
//! tree arena is in preorder, so the orders coincide).
//!
//! The pass runs once, on the calling thread, into one accumulator table:
//! `config.num_threads` never reaches inside a corpus walk (see DESIGN.md,
//! "Concurrency & batching").

use std::time::Instant;

use xclean_index::{AccessStats, CorpusIndex, LevelEntry, TokenId};
use xclean_lm::{ErrorModel, LanguageModel};
use xclean_xmltree::{NodeId, PathId};

use crate::arena::QueryArena;
use crate::candidates::{CandId, CandidateTable, TypeSlot};
use crate::config::{EntityPrior, XCleanConfig};
use crate::pipeline::Semantics;
use crate::pruning::{Accumulator, CandidateKey, PruningStats, ScoreSink};
use crate::result_type::find_result_type;
use crate::variants::Variant;
use crate::walk::Occurrences;

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
    /// Posting I/O of the walk: postings read through the cursors (once
    /// per keyword holding the token), postings seeked past, and seeks —
    /// on the scan path only those of the passing subtrees a scorer asked
    /// to gather, one seek per gathered column — and the scan path's own:
    /// postings marked from kept lists and bitmaps, and passing subtrees
    /// served from the columns.
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
/// and ≥ 1 once anything ran). Used by space edits (per-rewriting
/// queries → one response) and by the CLI over a batch.
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
/// term counts. At the gate depth the run is the walk's
/// [`Occurrences::counts`], read only when the gate's path is the result
/// type; below it, the subtree's occurrences summed per entity — a few
/// dozen triples, so grouping is a sort of a small vector rather than a
/// map build. All storage is recycled through the arena.
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
    /// the `occurrences`' counts when `path` sits at the depth `min_depth`
    /// of the subtree `gate` and from the occurrences themselves below it.
    pub(crate) fn entities_of(
        &mut self,
        corpus: &CorpusIndex,
        path: PathId,
        gate: &LevelEntry,
        occurrences: &mut Occurrences<'_, '_>,
        min_depth: u32,
    ) -> &[(NodeId, TokenId, u64)] {
        if let Some(&(_, start, end)) = self.runs.iter().find(|run| run.0 == path) {
            return &self.rows[start..end];
        }
        let tree = corpus.tree();
        let depth = tree.paths().depth(path);
        let start = self.rows.len();
        if depth == min_depth {
            // A result type at the gate depth has one candidate entity: the
            // gating subtree's root, whose counts are the subtree's, sorted
            // by token. They are read only for a gate of that type.
            if gate.path == path {
                let rows = occurrences.counts().iter().map(|&(t, c)| (gate.node, t, c));
                self.rows.extend(rows);
            }
        } else {
            for &(token, node, tf) in occurrences.all() {
                if let Some(r) = tree.ancestor_at_depth(node, depth) {
                    if tree.path(r) == path {
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

/// The prior weight `P(r|T)` of an entity of `dlen` tokens, up to the
/// normaliser the rank phase divides by: 1, or the length under
/// [`EntityPrior::DocLength`].
pub(crate) fn prior_weight(prior: EntityPrior, dlen: u64) -> f64 {
    match prior {
        EntityPrior::Uniform => 1.0,
        EntityPrior::DocLength => dlen.max(1) as f64,
    }
}

/// An entity's weighted contribution to a candidate's accumulator (lines
/// 13–15 of Algorithm 1): `exp(Σ_t log P(t|D(r))) · P(r|T)`, with the
/// candidate's tokens `cand` added in slot order, `counts[i]` occurrences
/// of `cand[i]` in an entity of `dlen` tokens. The product's one
/// contribution formula: [`Contributions`] returns bits this function
/// produced.
fn contribution(
    lm: &LanguageModel<'_>,
    prior: EntityPrior,
    cand: &[TokenId],
    counts: &[u64],
    dlen: u64,
) -> f64 {
    let mut score = 0.0f64;
    for (&t, &c) in cand.iter().zip(counts) {
        score += lm.log_prob(t, c, dlen);
    }
    score.exp() * prior_weight(prior, dlen)
}

/// Slots of the [`Contributions`] memo: a power of two.
const MEMO_SLOTS: usize = 512;

/// The longest candidate, and the largest count per token, a packed memo
/// key holds.
const PACKED_WIDTH: usize = 8;
const PACKED_COUNT: u64 = u8::MAX as u64;

/// One memo slot: the walk that filled it, the full key and the value.
#[derive(Debug, Clone, Copy, Default)]
struct Memo {
    epoch: u32,
    key: [u64; 2],
    weighted: f64,
}

/// `(candidate, |D|)` and the candidate tokens' counts, each in 8 bits, as
/// a memo key; `None` outside that domain.
fn pack(id: CandId, counts: &[u64], dlen: u64) -> Option<[u64; 2]> {
    if counts.len() > PACKED_WIDTH || dlen > u64::from(u32::MAX) {
        return None;
    }
    let mut packed = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > PACKED_COUNT {
            return None;
        }
        packed |= c << (8 * i);
    }
    Some([u64::from(id) << 32 | dlen, packed])
}

/// The memo slot of a packed key.
fn slot_of(key: [u64; 2]) -> usize {
    let mixed = key[0] ^ key[1].wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// One walk's entity contributions, each distinct one computed once.
///
/// Under one walk's language model and prior, a contribution is a pure
/// function of `(candidate, its tokens' counts, |D|)`, and a heavy query
/// meets few distinct ones: thousands of scored entities, a hundred-odd
/// keys, a handful of lengths. So the scorers ask here, and a direct-mapped
/// table of [`MEMO_SLOTS`] returns the `f64` that [`contribution`] computed
/// for the key the first time it was asked, or computes and stores it. A
/// slot answers only for its full key and the current walk's epoch, never
/// for a hash alone, so a returned value has exactly the bits the formula
/// gives; a colliding key overwrites the slot, and a key outside the packed
/// domain is computed directly. [`Contributions::forget`] starts a walk by
/// moving to a new epoch: a light query pays nothing to invalidate the
/// table, and the candidate ids of the last walk, which mean other
/// candidates now, never match.
#[derive(Debug, Default)]
pub(crate) struct Contributions {
    /// `MEMO_SLOTS` slots once a walk has started; empty before.
    memo: Vec<Memo>,
    /// The current walk's; 0 marks a slot no walk filled.
    epoch: u32,
    /// The current entity's count of each candidate token, in slot order.
    counts: Vec<u64>,
}

impl Contributions {
    /// Forgets every stored contribution, by moving to a new epoch; a wrap
    /// to 0 clears the slots instead.
    pub(crate) fn forget(&mut self) {
        if self.memo.is_empty() {
            self.memo.resize(MEMO_SLOTS, Memo::default());
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.memo.fill(Memo::default());
            self.epoch = 1;
        }
    }

    /// The weighted contribution of an entity of `dlen` tokens to
    /// candidate `id`, whose tokens are `cand`, each with the count
    /// `count_of` gives; `None` when `count_of` has none for some token,
    /// which it asks in slot order, stopping at the first.
    pub(crate) fn weighted(
        &mut self,
        lm: &LanguageModel<'_>,
        prior: EntityPrior,
        id: CandId,
        cand: &[TokenId],
        dlen: u64,
        mut count_of: impl FnMut(TokenId) -> Option<u64>,
    ) -> Option<f64> {
        self.counts.clear();
        for &t in cand {
            self.counts.push(count_of(t)?);
        }
        let direct = || contribution(lm, prior, cand, &self.counts, dlen);
        let Some(key) = pack(id, &self.counts, dlen).filter(|_| self.epoch != 0) else {
            return Some(direct());
        };
        let slot = slot_of(key);
        let memo = self.memo[slot];
        if memo.epoch == self.epoch && memo.key == key {
            return Some(memo.weighted);
        }
        let weighted = direct();
        self.memo[slot] = Memo {
            epoch: self.epoch,
            key,
            weighted,
        };
        Some(weighted)
    }

    /// `true` when no slot holds a contribution of the current walk.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.memo
            .iter()
            .all(|m| m.epoch != self.epoch || self.epoch == 0)
    }
}

/// Slots of the [`Patterns`] memo: a power of two.
const PATTERN_SLOTS: usize = 256;

/// What one subtree's candidate enumeration produced, filed under the
/// subtree's held tokens: how many candidates it enumerated, and in
/// enumeration order the id and result type of each that has one — a
/// candidate without a type scores nothing.
#[derive(Debug, Default)]
pub(crate) struct Pattern {
    /// The query that filed it.
    epoch: u32,
    held: Vec<TokenId>,
    enumerated: u64,
    typed: Vec<(CandId, PathId)>,
}

/// The slot of a held-token key.
fn pattern_slot(held: &[TokenId]) -> usize {
    let hash = held.iter().fold(0u64, |h, t| {
        (h.rotate_left(5) ^ u64::from(t.0)).wrapping_mul(0x517C_C1B7_2722_0A95)
    });
    (hash.wrapping_mul(0xFF51_AFD7_ED55_8CCD) >> (64 - PATTERN_SLOTS.trailing_zeros())) as usize
}

/// One query's candidate enumerations, each distinct one run once.
///
/// Within one query the candidates a subtree enumerates, and their order,
/// are a function of the distinct variant tokens it holds (its slots'
/// tokens are those tokens' slots), and a heavy query's thousands of
/// passing subtrees hold a few dozen distinct sets. So the node-type scorer
/// asks here first, and a direct-mapped table of [`PATTERN_SLOTS`] returns
/// the [`Pattern`] filed under the subtree's held tokens, which the scorer
/// replays into the same entity, contribution and sink calls the
/// enumeration made; or it hands back the slot emptied and filed under the
/// key, for the scorer to record its enumeration into. A slot answers only
/// for its full key and the current query's epoch, never for its position
/// alone; a colliding key overwrites the slot, reusing its storage. Ids
/// and result types belong to the query's [`crate::candidates::CandidateTable`],
/// so [`Patterns::forget`] moves to a new epoch whenever the table is
/// compiled, and a shard set's walks, which share the table, share the
/// epoch too.
#[derive(Debug, Default)]
pub(crate) struct Patterns {
    /// `PATTERN_SLOTS` slots once a query has started; empty before.
    slots: Vec<Pattern>,
    /// The current query's, from 1; a slot at 0 was never filled.
    epoch: u32,
}

impl Patterns {
    /// Forgets every filed pattern, by moving to a new epoch; a wrap to 0
    /// clears the slots' epochs instead.
    pub(crate) fn forget(&mut self) {
        if self.slots.is_empty() {
            self.slots.resize_with(PATTERN_SLOTS, Pattern::default);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.iter_mut().for_each(|p| p.epoch = 0);
            self.epoch = 1;
        }
    }

    /// `Ok` with the pattern filed under `held` this query, or `Err` with
    /// the emptied pattern of its slot, now filed under `held`, for the
    /// caller to record the enumeration into. A query starts with
    /// [`Patterns::forget`].
    pub(crate) fn lookup(&mut self, held: &[TokenId]) -> Result<&Pattern, &mut Pattern> {
        let pattern = &mut self.slots[pattern_slot(held)];
        if pattern.epoch == self.epoch && pattern.held == held {
            return Ok(pattern);
        }
        pattern.epoch = self.epoch;
        pattern.held.clear();
        pattern.held.extend_from_slice(held);
        pattern.enumerated = 0;
        pattern.typed.clear();
        Err(pattern)
    }

    /// `true` when no slot holds a pattern of the current query.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.iter().all(|p| p.epoch != self.epoch)
    }
}

/// The node-type accumulate rule over a corpus and a [`ScoreSink`]:
/// builds the corpus's language model, compiles the query's candidate
/// table, then walks the corpus against it — enumerating candidates once
/// per distinct set of held tokens, replaying the [`Patterns`] memo's
/// record for every other subtree holding that set — and emits one
/// `accumulate` call per (candidate, entity) contribution, in document
/// order, with per-entity floating-point ops in exactly the sequential
/// order. The contribution stream never depends on the sink.
pub(crate) fn accumulate_node_type<S: ScoreSink>(
    corpus: &CorpusIndex,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    stats: &mut RunStats,
    arena: &mut QueryArena,
    sink: &mut S,
) {
    let lm = LanguageModel::new(corpus, config.smoothing);
    arena.compile(slots, ErrorModel::new(config.beta));
    // Split the arena into independently-borrowed scratch pieces: the
    // walk owns its scratch while the subtree closure works the scoring
    // scratch. The sink's table is the caller's to lend.
    let QueryArena {
        walk,
        candidate,
        candidates,
        groups,
        type_order,
        contributions,
        patterns,
        ..
    } = arena;
    contributions.forget();
    let mut candidates_enumerated = 0u64;
    let mut result_type_computations = 0u64;
    let mut entities_scored = 0u64;

    crate::walk::walk_gated_subtrees_in(
        corpus,
        slots,
        config,
        stats,
        walk,
        |gate, tokens, occurrences| {
            // Lines 12–15: enumerate candidates and accumulate entity
            // scores — or replay the enumeration filed under the
            // subtree's held tokens. Entity runs are built lazily per
            // result type.
            groups.clear();
            let mut score = |candidates: &CandidateTable, id: CandId, path: PathId| {
                let cand = candidates.key(id);
                let entities =
                    groups.entities_of(corpus, path, gate, occurrences, config.min_depth);
                for counts in entities.chunk_by(|a, b| a.0 == b.0) {
                    let r = counts[0].0;
                    // An entity at the gate depth is the gate itself, whose
                    // length rides on the entry; deeper ones ask the corpus.
                    let dlen = if r == gate.node {
                        gate.doc_len
                    } else {
                        corpus.doc_len(r)
                    };
                    // The entity must contain every keyword of the candidate.
                    let count_of = |t| {
                        let row = counts.iter().find(|row| row.1 == t);
                        row.map(|row| row.2).filter(|&c| c > 0)
                    };
                    if let Some(weighted) =
                        contributions.weighted(&lm, config.prior, id, cand, dlen, count_of)
                    {
                        entities_scored += 1;
                        let weight = prior_weight(config.prior, dlen);
                        sink.accumulate(candidates, id, weighted, weight);
                    }
                }
            };
            let pattern = match patterns.lookup(tokens.held()) {
                Ok(pattern) => {
                    for &(id, path) in &pattern.typed {
                        score(candidates, id, path);
                    }
                    pattern
                }
                Err(pattern) => {
                    let mut budget = crate::walk::MAX_CANDIDATES_PER_SUBTREE;
                    crate::walk::enumerate_candidates_in(
                        tokens.slot_tokens(),
                        candidate,
                        &mut budget,
                        &mut |cand| {
                            pattern.enumerated += 1;
                            let id = candidates.intern(cand);
                            let path = match candidates.result_type(id) {
                                TypeSlot::Path(path) => path,
                                TypeSlot::NoType => return,
                                TypeSlot::Unresolved => {
                                    result_type_computations += 1;
                                    let slot = find_result_type(
                                        corpus,
                                        cand,
                                        config.min_depth,
                                        type_order,
                                    )
                                    .map_or(TypeSlot::NoType, |rt| TypeSlot::Path(rt.path));
                                    candidates.set_result_type(id, slot);
                                    let TypeSlot::Path(path) = slot else { return };
                                    path
                                }
                            };
                            pattern.typed.push((id, path));
                            score(candidates, id, path);
                        },
                    );
                    &*pattern
                }
            };
            candidates_enumerated += pattern.enumerated;
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
    use crate::candidates::CandidateTable;
    use crate::pipeline::{rank_walked, ArenaPool};
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
            c,
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

    /// The memo's answer for a candidate `cand` (id `id`) with `counts`
    /// in an entity of `dlen` tokens, and the formula's, as bits.
    #[allow(clippy::too_many_arguments)]
    fn memo_and_formula(
        memo: &mut Contributions,
        lm: &LanguageModel<'_>,
        prior: EntityPrior,
        id: CandId,
        cand: &[TokenId],
        counts: &[u64],
        dlen: u64,
    ) -> (u64, u64) {
        let mut asked = counts.iter().copied();
        let memo = memo.weighted(lm, prior, id, cand, dlen, |_| asked.next());
        let formula = contribution(lm, prior, cand, counts, dlen);
        (
            memo.expect("every token counted").to_bits(),
            formula.to_bits(),
        )
    }

    fn token(c: &CorpusIndex, term: &str) -> TokenId {
        c.vocab().get(term).expect("a corpus term")
    }

    #[test]
    fn memo_keys_sharing_a_slot_each_get_their_own_bits() {
        let c = corpus();
        let lm = LanguageModel::new(&c, Default::default());
        let cand = [token(&c, "trie"), token(&c, "icde")];
        // Two keys of one candidate, differing in |D| only, in one slot.
        let slot = slot_of(pack(0, &[1, 2], 5).unwrap());
        let other = (6..)
            .find(|&d| slot_of(pack(0, &[1, 2], d).unwrap()) == slot)
            .unwrap();
        let mut memo = Contributions::default();
        memo.forget();
        let mut seen = Vec::new();
        for dlen in [5, 5, other, other, 5, other] {
            let (got, formula) = memo_and_formula(
                &mut memo,
                &lm,
                EntityPrior::Uniform,
                0,
                &cand,
                &[1, 2],
                dlen,
            );
            assert_eq!(got, formula, "|D| = {dlen}");
            assert_eq!(memo.memo[slot].key, pack(0, &[1, 2], dlen).unwrap());
            seen.push(got);
        }
        assert_ne!(seen[0], seen[2], "the colliding keys have different values");
    }

    #[test]
    fn memo_epochs_forget_the_last_walk_and_a_wrap_clears_the_slots() {
        let c = corpus();
        let light = LanguageModel::new(&c, xclean_lm::Smoothing::Dirichlet { mu: 50.0 });
        let heavy = LanguageModel::new(&c, Default::default());
        let cand = [token(&c, "tree")];
        let ask = |memo: &mut Contributions, lm| {
            memo_and_formula(memo, lm, EntityPrior::Uniform, 3, &cand, &[2], 7)
        };
        let mut memo = Contributions::default();
        memo.forget();
        let (stored, _) = ask(&mut memo, &light);
        assert!(!memo.is_empty());
        // The next walk (here under another model) never sees it.
        memo.forget();
        assert!(memo.is_empty());
        let (got, formula) = ask(&mut memo, &heavy);
        assert_eq!(got, formula);
        assert_ne!(got, stored);
        // A walk storing under epoch 1, then a wrap back to 1: the slot is
        // cleared, not answered from.
        let mut memo = Contributions::default();
        memo.forget();
        assert_eq!(memo.epoch, 1);
        assert_eq!(ask(&mut memo, &light).0, stored);
        memo.epoch = u32::MAX;
        memo.forget();
        assert_eq!(memo.epoch, 1);
        assert!(memo.memo.iter().all(|m| m.epoch == 0));
        let (got, formula) = ask(&mut memo, &heavy);
        assert_eq!(got, formula);
    }

    #[test]
    fn memo_keys_outside_the_packed_domain_are_computed_directly() {
        let c = corpus();
        let lm = LanguageModel::new(&c, Default::default());
        let tree = token(&c, "tree");
        let wide = [tree; PACKED_WIDTH + 1];
        let cases: [(&[TokenId], &[u64], u64); 4] = [
            (&wide, &[1; PACKED_WIDTH + 1], 20),
            (&[tree, tree], &[1, PACKED_COUNT + 1], 20),
            (&[tree], &[1], u64::from(u32::MAX) + 1),
            (&[tree], &[u64::MAX], u64::MAX),
        ];
        // Before any walk the memo has no slots and computes everything.
        let mut fresh = Contributions::default();
        let mut memo = Contributions::default();
        memo.forget();
        for (cand, counts, dlen) in cases {
            assert!(pack(9, counts, dlen).is_none());
            for memo in [&mut memo, &mut fresh] {
                let (got, formula) =
                    memo_and_formula(memo, &lm, EntityPrior::DocLength, 9, cand, counts, dlen);
                assert_eq!(got, formula, "{counts:?} |D| = {dlen}");
            }
            assert!(memo.is_empty() && fresh.memo.is_empty());
        }
        // The domain's edge is stored.
        let edge = [tree; PACKED_WIDTH];
        let counts = [PACKED_COUNT; PACKED_WIDTH];
        let dlen = u64::from(u32::MAX);
        let (got, formula) = memo_and_formula(
            &mut memo,
            &lm,
            EntityPrior::Uniform,
            9,
            &edge,
            &counts,
            dlen,
        );
        assert_eq!(got, formula);
        assert!(!memo.is_empty());
        // A missing token stops the count and scores nothing.
        let mut asked = 0;
        let none = memo.weighted(&lm, EntityPrior::Uniform, 1, &[tree, tree], 4, |_| {
            asked += 1;
            None
        });
        assert_eq!((none, asked), (None, 1));
    }

    #[test]
    fn memo_answers_the_doc_length_prior_and_jelinek_mercer_bit_for_bit() {
        let c = corpus();
        let dirichlet = LanguageModel::new(&c, Default::default());
        let jm = LanguageModel::new(&c, xclean_lm::Smoothing::JelinekMercer { lambda: 0.3 });
        let cand = [token(&c, "trie"), token(&c, "icdt")];
        let mut memo = Contributions::default();
        let mut values = Vec::new();
        for (lm, prior) in [
            (&dirichlet, EntityPrior::DocLength),
            (&dirichlet, EntityPrior::Uniform),
            (&jm, EntityPrior::Uniform),
            (&jm, EntityPrior::DocLength),
        ] {
            memo.forget();
            for (counts, dlen) in [
                ([1, 1], 4),
                ([2, 1], 4),
                ([1, 1], 4),
                ([1, 1], 9),
                ([2, 1], 4),
            ] {
                let (got, formula) =
                    memo_and_formula(&mut memo, lm, prior, 2, &cand, &counts, dlen);
                assert_eq!(got, formula, "{prior:?} {counts:?} |D| = {dlen}");
                values.push(got);
            }
        }
        // Each walk's model and prior gave its own values.
        let first: Vec<_> = values.chunks(5).map(|walk| walk[0]).collect();
        for (i, a) in first.iter().enumerate() {
            assert!(first[i + 1..].iter().all(|b| b != a), "{first:?}");
        }
    }

    /// Every contribution a walk emits: `(candidate, weighted, weight)`,
    /// as bits.
    #[derive(Default)]
    struct Emitted(Vec<(CandId, u64, u64)>);

    impl ScoreSink for Emitted {
        fn accumulate(&mut self, _: &CandidateTable, id: CandId, weighted: f64, weight: f64) {
            self.0.push((id, weighted.to_bits(), weight.to_bits()));
        }
    }

    #[test]
    fn a_walk_never_answers_from_the_last_walks_memo() {
        // `tree icde` and `trie icdt` are each their candidate 0, and each
        // scores one entity with one of each token in three: the same
        // memo key, for other tokens. No reset between the walks.
        let c = corpus();
        let config = XCleanConfig::default();
        let walk = |arena: &mut QueryArena, query: &[&str]| {
            let mut emitted = Emitted::default();
            let slots = slots_for(&c, query, 0);
            let mut stats = RunStats::default();
            accumulate_node_type(&c, &slots, &config, &mut stats, arena, &mut emitted);
            emitted.0
        };
        // Reset, as the pool hands arenas out.
        let mut arena = QueryArena::new();
        arena.reset();
        let first = walk(&mut arena, &["tree", "icde"]);
        let second = walk(&mut arena, &["trie", "icdt"]);
        assert_eq!(second, walk(&mut QueryArena::new(), &["trie", "icdt"]));
        assert_eq!((first.len(), second.len()), (1, 1));
        assert_ne!(first[0].1, second[0].1);
    }

    /// A corpus of one `<p>` record per entry of `records`, holding its
    /// words.
    fn records_corpus(records: &[Vec<String>]) -> CorpusIndex {
        let body: String = records
            .iter()
            .map(|words| format!("<p>{}</p>", words.join(" ")))
            .collect();
        CorpusIndex::build(parse_document(&format!("<a>{body}</a>")).unwrap())
    }

    /// Slots over the named terms of `c`, each a variant at distance 0.
    fn term_slots(c: &CorpusIndex, slots: &[&[String]]) -> Vec<KeywordSlot> {
        slots
            .iter()
            .map(|terms| KeywordSlot {
                keyword: terms[0].clone(),
                variants: terms
                    .iter()
                    .map(|term| Variant {
                        token: token(c, term),
                        distance: 0,
                    })
                    .collect(),
            })
            .collect()
    }

    /// The product's run over `c` against the reference's under each
    /// `(γ, enable_skipping)`.
    fn assert_matches_reference(
        c: &CorpusIndex,
        slots: &[KeywordSlot],
        runs: &[(Option<usize>, bool)],
        what: &str,
    ) {
        for &(gamma, enable_skipping) in runs {
            let config = XCleanConfig {
                gamma,
                enable_skipping,
                ..XCleanConfig::default()
            };
            let reference = crate::reference::reference_run(c, Semantics::NodeType, slots, &config);
            let product = crate::reference::product_run(
                c,
                Semantics::NodeType,
                slots,
                &config,
                &ArenaPool::default(),
            );
            let what = format!("{what}, γ = {gamma:?}, skipping {enable_skipping}");
            crate::reference::assert_same(&product, &reference, &config, &what);
        }
    }

    fn words(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i:02}")).collect()
    }

    #[test]
    fn pattern_keys_sharing_a_slot_each_replay_their_own_sequence() {
        // 300 words, each in two records with `zz00`: 300 held-token keys
        // `{w, zz00}`, each met twice in a row, more than the memo's slots.
        let pool = words("ww", 300);
        let records: Vec<Vec<String>> = pool
            .iter()
            .flat_map(|w| [w, w])
            .map(|w| vec![w.clone(), "zz00".into()])
            .collect();
        let c = records_corpus(&records);
        let z = token(&c, "zz00");
        let key = |w: &String| {
            let mut key = [token(&c, w), z];
            key.sort_unstable();
            key
        };
        let (ka, kb) = pool
            .iter()
            .enumerate()
            .find_map(|(i, a)| {
                let slot = pattern_slot(&key(a));
                let b = pool[i + 1..]
                    .iter()
                    .find(|b| pattern_slot(&key(b)) == slot)?;
                Some((key(a), key(b)))
            })
            .expect("two of 300 keys share one of 256 slots");
        // The memo alone: a key is answered only with its own record.
        let mut patterns = Patterns::default();
        patterns.forget();
        let mut file = |held: &[TokenId], id: CandId| {
            let pattern = patterns.lookup(held).expect_err("not filed");
            pattern.enumerated += 1;
            pattern.typed.push((id, PathId(7)));
        };
        file(&ka, 0);
        file(&kb, 1);
        file(&ka, 2);
        let replay = patterns.lookup(&ka).expect("filed");
        assert_eq!(
            (replay.enumerated, &replay.typed[..]),
            (1, &[(2, PathId(7))][..])
        );
        // And in a walk, which meets the colliding keys in turn.
        let slots = term_slots(&c, &[&pool, &["zz00".into()]]);
        let runs = [(None, true), (None, false), (Some(3), true)];
        assert_matches_reference(&c, &slots, &runs, "colliding keys");
    }

    #[test]
    fn a_walk_never_replays_the_last_walks_patterns() {
        // Both queries meet the held tokens `{xx00, yy00}` in the second
        // record, where the first query's candidate 0 is `xx00 yy00` and
        // the second's is `yy00 zz00`, from the first record. No reset
        // between the walks.
        let c = records_corpus(&[
            vec!["yy00".into(), "zz00".into()],
            vec!["xx00".into(), "yy00".into()],
        ]);
        let config = XCleanConfig::default();
        let walk = |arena: &mut QueryArena, slots: &[&[String]]| {
            let mut emitted = Emitted::default();
            let slots = term_slots(&c, slots);
            let mut stats = RunStats::default();
            accumulate_node_type(&c, &slots, &config, &mut stats, arena, &mut emitted);
            (emitted.0, stats.candidates_enumerated)
        };
        let first: &[&[String]] = &[&["xx00".into()], &["yy00".into()]];
        let second: &[&[String]] = &[&["yy00".into()], &["zz00".into(), "xx00".into()]];
        let mut arena = QueryArena::new();
        arena.reset();
        let (once, _) = walk(&mut arena, first);
        assert_eq!(once.len(), 1);
        let (again, enumerated) = walk(&mut arena, second);
        assert_eq!(
            (again.clone(), enumerated),
            walk(&mut QueryArena::new(), second)
        );
        assert_eq!(again.iter().map(|e| e.0).collect::<Vec<_>>(), [0, 1]);
        // The same query again, on the same arena, replays nothing stale
        // either.
        assert_eq!(walk(&mut arena, first).0, once);
    }

    #[test]
    fn a_full_memo_overwrite_re_enumerates_exactly() {
        // Two records in a row of `aa00 bb00` with each of 2 500 words
        // `ccNN`: 2 500 held-token keys overwrite every one of the 256
        // slots again and again, and each key's second record replays what
        // its first filed over the slot's last key. Every key enumerates
        // `aa00 bb00`, which a stale record would score twice.
        let tail = words("cc", 2500);
        let records: Vec<Vec<String>> = tail
            .iter()
            .map(|w| vec!["aa00".into(), "bb00".into(), w.clone()])
            .flat_map(|record| [record.clone(), record])
            .collect();
        let c = records_corpus(&records);
        let second = [vec!["bb00".to_string()], tail].concat();
        let slots = term_slots(&c, &[&["aa00".into()], &second]);
        let mut arena = QueryArena::new();
        let mut stats = RunStats::default();
        let config = XCleanConfig::default();
        accumulate_node_type(
            &c,
            &slots,
            &config,
            &mut stats,
            &mut arena,
            &mut Emitted::default(),
        );
        let patterns = &arena.patterns;
        assert!(patterns.slots.iter().all(|p| p.epoch == patterns.epoch));
        assert_eq!(
            (stats.subtrees, stats.candidates_enumerated),
            (5000, 10_000)
        );
        // The linear walk, 2 501 cursors a subtree, is slow to check in a
        // debug build; the colliding-keys test checks it.
        let runs = [(None, true), (Some(3), true)];
        assert_matches_reference(&c, &slots, &runs, "overwritten slots");
    }

    #[test]
    fn a_gamma_one_run_evicts_as_the_direct_computation_does() {
        // Twenty copies of the running example's records: every
        // contribution's key repeats twenty times, so all but the first
        // of each are memo hits.
        let records = "<c><x>tree</x></c>\
            <c><x>trie</x><x>tree</x><y>icde</y></c>\
            <d><x>trie</x><y>icdt icde</y></d>\
            <d><x>trie</x><y>icde</y></d>"
            .repeat(20);
        let c = CorpusIndex::build(parse_document(&format!("<a>{records}</a>")).unwrap());
        let slots = slots_for(&c, &["tree", "icdt"], 1);
        for prior in [EntityPrior::Uniform, EntityPrior::DocLength] {
            let config = XCleanConfig {
                gamma: Some(1),
                prior,
                ..XCleanConfig::default()
            };
            let reference =
                crate::reference::reference_run(&c, Semantics::NodeType, &slots, &config);
            let arenas = ArenaPool::default();
            for _ in 0..2 {
                let product = crate::reference::product_run(
                    &c,
                    Semantics::NodeType,
                    &slots,
                    &config,
                    &arenas,
                );
                assert!(!product.decisions.is_empty());
                crate::reference::assert_same(&product, &reference, &config, "γ = 1");
            }
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
