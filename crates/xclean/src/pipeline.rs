//! The one orchestration of a suggestion query.
//!
//! The paper defines a single algorithm — Algorithm 1's pass over the
//! variants' lists (§V-C) feeding γ-bounded accumulators (§V-D) — with
//! the entity semantics as a plug-in rule. `rank_walked` is that
//! algorithm run end to end, once:
//!
//! ```text
//! slots → accumulate (through a ScoreSink) → finalize → top-k → SuggestResponse
//! ```
//!
//! [`crate::XCleanEngine`] runs it for every query over the one corpus it
//! holds — however that was stored: a corpus stored as a shard set is the
//! parent read back from its shards (DESIGN.md §16) — and the public
//! `run_xclean` / `run_slca` / `run_elca` run it over a borrowed corpus
//! (`run_corpus`). This module also defines the answer types
//! ([`Suggestion`], [`SuggestResponse`]) and the entity [`Semantics`].
//!
//! The corpus is walked once, on the calling thread, straight into the
//! arena-backed [`AccumulatorTable`]: node-type semantics through
//! `algorithm::accumulate_node_type`, SLCA/ELCA through
//! `slca::accumulate_lca` into the same sink. Every table takes a
//! γ-observer. Serving passes a no-op, which the optimiser erases;
//! explain passes an event-capturing closure (`crate::explain`) and is
//! otherwise the same run.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use xclean_index::{CorpusIndex, TokenId};
use xclean_telemetry::json::Json;
use xclean_telemetry::{ShardAttribution, Telemetry};
use xclean_xmltree::PathId;

use crate::algorithm::{
    accumulate_node_type, finalize_candidates, nanos_since, KeywordSlot, RunOutput, RunStats,
    ScoredCandidate,
};
use crate::arena::QueryArena;
use crate::candidates::{CandId, CandidateTable};
use crate::config::{EntityPrior, XCleanConfig};
use crate::elca::elca_of_lists;
use crate::pruning::{Accumulator, AccumulatorTable, GammaEvent, ScoreSink};
use crate::slca::{accumulate_lca, slca_of_lists};

/// Queries a pool worker claims per dispatch in
/// [`crate::XCleanEngine::suggest_many`] (amortises dispatch traffic on large
/// workloads).
pub const BATCH_CHUNK: usize = 16;

/// Which XML keyword-query semantics defines the entities (§IV-B2, §VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// Result-node-type semantics (XReal-style; the paper's main setting).
    #[default]
    NodeType,
    /// Smallest lowest common ancestor semantics.
    Slca,
    /// Exclusive lowest common ancestor (XRank) semantics.
    Elca,
}

impl Semantics {
    /// Stable wire name (used verbatim in the explain JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            Semantics::NodeType => "node_type",
            Semantics::Slca => "slca",
            Semantics::Elca => "elca",
        }
    }
}

/// One ranked suggestion.
#[derive(Debug, Clone)]
pub struct Suggestion {
    /// The suggested query terms, one per original keyword.
    pub terms: Vec<String>,
    /// Token ids of the terms.
    pub tokens: Vec<TokenId>,
    /// Final log score (comparable only within one query).
    pub log_score: f64,
    /// Per-keyword edit distances from the observed query.
    pub distances: Vec<u32>,
    /// The inferred result type (node-type semantics) if any.
    pub result_path: Option<PathId>,
    /// Number of entities supporting the suggestion (> 0 by construction).
    pub entity_count: u64,
}

impl Suggestion {
    /// The suggestion as a single query string.
    pub fn query_string(&self) -> String {
        self.terms.join(" ")
    }

    /// Total edit distance across keywords.
    pub fn total_distance(&self) -> u32 {
        self.distances.iter().sum()
    }

    /// The suggestion as the JSON object the server's replies and the
    /// CLI's `suggest --json` print: `query`, `terms`, `log_score`,
    /// `distances`, `entities`, in that order.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("query", self.query_string().into()),
            ("terms", self.terms.iter().map(String::as_str).collect()),
            ("log_score", self.log_score.into()),
            ("distances", self.distances.iter().copied().collect()),
            ("entities", self.entity_count.into()),
        ])
    }
}

/// Result of a `suggest` call.
#[derive(Debug, Clone, Default)]
pub struct SuggestResponse {
    /// Top-k suggestions, best first.
    pub suggestions: Vec<Suggestion>,
    /// Wall-clock time of the call.
    pub elapsed: Duration,
    /// Algorithm counters.
    pub stats: RunStats,
    /// Per-shard attribution. Always empty: a shard set is served as its
    /// parent corpus, so no query splits its work by shard. Kept for the
    /// benchmark harness, which reads it.
    pub shard_stats: Vec<ShardAttribution>,
}

impl SuggestResponse {
    /// Rank (1-based) of the given query terms in the suggestion list.
    pub fn rank_of(&self, terms: &[&str]) -> Option<usize> {
        self.suggestions
            .iter()
            .position(|s| s.terms.iter().map(String::as_str).eq(terms.iter().copied()))
            .map(|i| i + 1)
    }
}

/// Recycled per-query scratch ([`QueryArena`]): every table fill checks
/// one out, runs, and returns it, so steady-state workers stop paying the
/// per-query scratch allocations. One brief uncontended lock each way —
/// negligible against query latency.
#[derive(Debug, Default)]
pub(crate) struct ArenaPool(Mutex<Vec<QueryArena>>);

impl ArenaPool {
    /// Upper bound on pooled arenas, so an occasional wide burst does not
    /// pin scratch memory forever.
    const CAP: usize = 64;

    /// Checks a reset arena out of the pool (or makes a fresh one); a
    /// reset arena is indistinguishable from a new one (see `crate::arena`).
    fn checkout(&self) -> QueryArena {
        let mut arena = self
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .pop()
            .unwrap_or_default();
        arena.reset();
        arena
    }

    /// Returns an arena to the pool for the next query to reuse.
    fn checkin(&self, arena: QueryArena) {
        let mut pool = self
            .0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if pool.len() < Self::CAP {
            pool.push(arena);
        }
    }
}

/// The γ-bounded table plus the observer of its decisions — the sink of
/// every walk. Observation is passive (see [`GammaEvent`]).
struct TableSink<'o, F> {
    table: AccumulatorTable,
    observe: &'o mut F,
}

impl<F: FnMut(GammaEvent<'_>)> ScoreSink for TableSink<'_, F> {
    #[inline]
    fn accumulate(&mut self, candidates: &CandidateTable, id: CandId, weighted: f64, weight: f64) {
        self.table
            .add(candidates, id, weighted, weight, self.observe)
    }
}

/// Runs `fill` against the emptied γ-table of a pooled arena and returns
/// the arena holding the filled table next to the candidate table its ids
/// refer to. `fill` also gets the arena's walk scratch; the caller ranks
/// from the arena and then checks it back in.
fn fill_table<F: FnMut(GammaEvent<'_>)>(
    arenas: &ArenaPool,
    gamma: Option<usize>,
    observe: &mut F,
    fill: impl FnOnce(&mut QueryArena, &mut TableSink<'_, F>),
) -> QueryArena {
    let mut arena = arenas.checkout();
    let mut table = std::mem::take(&mut arena.table);
    table.reset(gamma);
    let mut sink = TableSink { table, observe };
    fill(&mut arena, &mut sink);
    arena.table = sink.table;
    arena
}

/// Walks the corpus into the γ-table of a pooled arena under the entity
/// rule `semantics` selects.
fn walk_corpus<F: FnMut(GammaEvent<'_>)>(
    corpus: &CorpusIndex,
    semantics: Semantics,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    arenas: &ArenaPool,
    observe: &mut F,
) -> (QueryArena, RunStats) {
    let mut stats = RunStats::default();
    let filled = fill_table(arenas, config.gamma, observe, |arena, sink| {
        let stats = &mut stats;
        match semantics {
            Semantics::NodeType => accumulate_node_type(corpus, slots, config, stats, arena, sink),
            Semantics::Slca => {
                accumulate_lca(corpus, slots, config, slca_of_lists, stats, arena, sink)
            }
            Semantics::Elca => accumulate_lca(
                corpus,
                slots,
                config,
                |tree, lists| elca_of_lists(tree, lists, config.min_depth),
                stats,
                arena,
                sink,
            ),
        }
    });
    stats.pruning = filled.table.stats();
    (filled, stats)
}

/// What one accumulate → finalize run produced, beyond the ranked
/// candidates: the explain plane reads the extras, serving ignores them.
pub(crate) struct Ranked {
    /// The best `limit` surviving candidates, best first.
    pub(crate) candidates: Vec<ScoredCandidate>,
    /// Candidates surviving finalisation, whatever the limit.
    pub(crate) survivors: u64,
    pub(crate) stats: RunStats,
    /// Accumulators alive when the walk finished (entering rank).
    pub(crate) accumulators: u64,
}

/// Accumulate → finalize over `corpus`, materialising the best `limit`
/// candidates. The only orchestration of those steps in the crate.
/// Telemetry never influences scoring, and neither does `observe`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_walked<F: FnMut(GammaEvent<'_>)>(
    corpus: &CorpusIndex,
    semantics: Semantics,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
    limit: usize,
    telemetry: &Telemetry,
    arenas: &ArenaPool,
    observe: &mut F,
) -> Ranked {
    let walk_start = Instant::now();
    let tracer = telemetry.tracer();
    // Some keyword with no variant at all empties the candidate space;
    // flow through the common finalise path so every `*_nanos` field is
    // recorded even on this early-out.
    let empty = slots.is_empty() || slots.iter().any(|s| s.variants.is_empty());
    // The arena holding the filled table, kept out of the pool until
    // ranked; `None` when nothing ran.
    let (mut filled, mut stats) = if empty {
        (None, RunStats::default())
    } else {
        let _span = tracer.span("walk_accumulate");
        let (arena, stats) = walk_corpus(corpus, semantics, slots, config, arenas, observe);
        (Some(arena), stats)
    };
    stats.walk_nanos = nanos_since(walk_start);
    let accumulators = filled.as_ref().map_or(0, |a| a.table.len() as u64);

    let rank_start = Instant::now();
    let (candidates, survivors) = {
        let _span = tracer.span("rank");
        let normalizer = |acc: &Accumulator| match (semantics, config.prior) {
            // Node type: the total prior mass over *all* entities of the
            // result type (Eq. 8 sums over every r_j; non-matching
            // entities contribute zero).
            (Semantics::NodeType, EntityPrior::Uniform) => {
                corpus.count_nodes_of_path(acc.result_path).max(1) as f64
            }
            (Semantics::NodeType, EntityPrior::DocLength) => {
                corpus.path_doc_len_total(acc.result_path).max(1) as f64
            }
            // LCA entities are candidate-specific, so the normaliser is
            // the candidate's own accumulated prior mass (≥ 1 whenever
            // anything was accumulated).
            (Semantics::Slca | Semantics::Elca, _) => acc.weight_sum,
        };
        match &mut filled {
            Some(arena) => finalize_candidates(arena, normalizer, limit),
            None => (Vec::new(), 0),
        }
    };
    if let Some(arena) = filled {
        arenas.checkin(arena);
    }
    stats.rank_nanos = nanos_since(rank_start);
    Ranked {
        candidates,
        survivors,
        stats,
        accumulators,
    }
}

/// Accumulate → finalize over one borrowed corpus with prebuilt slots —
/// what the public `run_xclean` / `run_slca` / `run_elca` wrap: the same
/// orchestration as an engine query, without telemetry or a warm pool.
pub(crate) fn run_corpus(
    corpus: &CorpusIndex,
    semantics: Semantics,
    slots: &[KeywordSlot],
    config: &XCleanConfig,
) -> RunOutput {
    let Ranked {
        candidates, stats, ..
    } = rank_walked(
        corpus,
        semantics,
        slots,
        config,
        usize::MAX,
        &Telemetry::disabled(),
        &ArenaPool::default(),
        &mut |_| {},
    );
    RunOutput { candidates, stats }
}

/// One executed query: the response plus what only explain reads.
pub(crate) struct Executed {
    pub(crate) slots: Vec<KeywordSlot>,
    pub(crate) response: SuggestResponse,
    /// Candidates surviving finalisation, pre-top-k.
    pub(crate) ranked: u64,
    pub(crate) accumulators: u64,
}
