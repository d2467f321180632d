//! The one orchestration of a suggestion query.
//!
//! The paper defines a single algorithm — Algorithm 1's pass over the
//! variants' lists (§V-C) feeding γ-bounded accumulators (§V-D) — with
//! the entity semantics as a plug-in rule. [`Pipeline`] is that algorithm
//! run end to end, once:
//!
//! ```text
//! slots → accumulate (through a ScoreSink) → finalize → top-k → SuggestResponse
//! ```
//!
//! It owns one corpus — a shard set's is the parent corpus read back from
//! its shards (DESIGN.md §16) — the variant index, the configuration, the
//! entity semantics, telemetry and a pool of query arenas.
//! [`crate::XCleanEngine`] and [`crate::ShardedEngine`] are nominal fronts
//! over an `Arc<Pipeline>`: constructors plus the accessors that only make
//! sense for one shape.
//!
//! The corpus is walked once, on the calling thread, straight into the
//! arena-backed [`AccumulatorTable`]: node-type semantics through
//! [`accumulate_node_type`], SLCA/ELCA through [`accumulate_lca`] into the
//! same sink. Every table takes a γ-observer. Serving passes a no-op,
//! which the optimiser erases; explain passes an event-capturing closure
//! (`crate::explain`) and is otherwise the same run.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xclean_index::{CorpusIndex, LoadReport, SnapshotProvenance, TokenId, Vocabulary};
use xclean_telemetry::json::Json;
use xclean_telemetry::{
    names, Counter, Histogram, MetricsRegistry, ShardAttribution, Telemetry, Tracer,
};
use xclean_xmltree::{PathId, Tokenizer};

use crate::algorithm::{
    accumulate_node_type, finalize_candidates, nanos_since, KeywordSlot, RunOutput, RunStats,
    ScoredCandidate,
};
use crate::arena::QueryArena;
use crate::candidates::{CandId, CandidateTable};
use crate::config::{fnv1a, EntityPrior, XCleanConfig};
use crate::elca::elca_of_lists;
use crate::pruning::{Accumulator, AccumulatorTable, GammaEvent, ScoreSink};
use crate::slca::{accumulate_lca, slca_of_lists};
use crate::variants::{VariantGenerator, PARTITION_THRESHOLD};

/// Queries a pool worker claims per dispatch in
/// [`Pipeline::suggest_many`] (amortises dispatch traffic on large
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

/// Pre-resolved metric handles so the per-query hot path never takes the
/// registry's name-lookup lock: every counter bump and histogram record
/// below is a plain atomic op on a shared [`Arc`], which is what lets the
/// `suggest_many` worker pool aggregate into one engine-lifetime registry
/// without serialising on it.
#[derive(Debug, Clone)]
struct EngineMetrics {
    queries: Arc<Counter>,
    /// Set until the first query is recorded; that query's total latency
    /// also lands in the `FIRST_QUERY` histogram (cold caches, lazy slab
    /// decodes still pending).
    first_query_pending: Arc<AtomicBool>,
    first_query: Arc<Histogram>,
    suggestions: Arc<Counter>,
    subtrees: Arc<Counter>,
    candidates: Arc<Counter>,
    result_types: Arc<Counter>,
    entities: Arc<Counter>,
    postings_read: Arc<Counter>,
    postings_skipped: Arc<Counter>,
    skip_calls: Arc<Counter>,
    evictions: Arc<Counter>,
    rejected: Arc<Counter>,
    stage_slot: Arc<Histogram>,
    stage_walk: Arc<Histogram>,
    stage_rank: Arc<Histogram>,
    stage_total: Arc<Histogram>,
}

impl EngineMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
            queries: registry.counter(names::QUERIES),
            first_query_pending: Arc::new(AtomicBool::new(true)),
            first_query: registry.histogram(names::FIRST_QUERY),
            suggestions: registry.counter(names::SUGGESTIONS),
            subtrees: registry.counter(names::SUBTREES),
            candidates: registry.counter(names::CANDIDATES),
            result_types: registry.counter(names::RESULT_TYPES),
            entities: registry.counter(names::ENTITIES),
            postings_read: registry.counter(names::POSTINGS_READ),
            postings_skipped: registry.counter(names::POSTINGS_SKIPPED),
            skip_calls: registry.counter(names::SKIP_CALLS),
            evictions: registry.counter(names::EVICTIONS),
            rejected: registry.counter(names::REJECTED),
            stage_slot: registry.histogram(names::STAGE_SLOT),
            stage_walk: registry.histogram(names::STAGE_WALK),
            stage_rank: registry.histogram(names::STAGE_RANK),
            stage_total: registry.histogram(names::STAGE_TOTAL),
        }
    }

    fn record_query(&self, response: &SuggestResponse) {
        let stats = &response.stats;
        let total_nanos = (response.elapsed.as_nanos() as u64).max(1);
        self.queries.inc();
        if self.first_query_pending.swap(false, Ordering::Relaxed) {
            self.first_query.record(total_nanos);
        }
        self.suggestions.add(response.suggestions.len() as u64);
        self.subtrees.add(stats.subtrees);
        self.candidates.add(stats.candidates_enumerated);
        self.result_types.add(stats.result_type_computations);
        self.entities.add(stats.entities_scored);
        self.postings_read.add(stats.access.read);
        self.postings_skipped.add(stats.access.skipped);
        self.skip_calls.add(stats.access.skip_calls);
        self.evictions.add(stats.pruning.evictions);
        self.rejected.add(stats.pruning.rejected);
        self.stage_slot.record(stats.slot_nanos);
        self.stage_walk.record(stats.walk_nanos);
        self.stage_rank.record(stats.rank_nanos);
        self.stage_total.record(total_nanos);
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

/// What a pipeline over a shard set keeps of the snapshots its corpus was
/// read back from (`crate::ShardedEngine::from_shards`): the set's
/// identity, which its fingerprint mixes in.
#[derive(Debug)]
pub(crate) struct ShardSet {
    pub(crate) seed: u64,
    pub(crate) parent_fingerprint: u64,
    /// Each shard's node count and snapshot provenance, in id order.
    pub(crate) shards: Vec<(u64, Option<SnapshotProvenance>)>,
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

/// The suggestion pipeline over one corpus (see the module docs). Shared
/// behind an [`Arc`] by the engine fronts and the serving layer; immutable
/// once built.
///
/// Every pipeline carries a [`Telemetry`] bundle: a metrics registry that
/// aggregates counters and stage histograms over its lifetime (across all
/// `suggest_many` workers), and a span tracer that is inert by default.
#[derive(Debug)]
pub struct Pipeline {
    corpus: Arc<CorpusIndex>,
    /// Present iff `corpus` was read back from a shard set.
    set: Option<ShardSet>,
    variants: VariantGenerator,
    config: XCleanConfig,
    semantics: Semantics,
    telemetry: Telemetry,
    metric_handles: EngineMetrics,
    arenas: ArenaPool,
}

impl Pipeline {
    /// Builds the pipeline over `corpus` — with `set` when it was read back
    /// from a shard set — indexing the deletion neighbourhoods of its
    /// vocabulary.
    pub(crate) fn new(
        corpus: Arc<CorpusIndex>,
        set: Option<ShardSet>,
        config: XCleanConfig,
    ) -> Arc<Pipeline> {
        config.validate();
        let vocab = corpus.vocab();
        let mut variants =
            VariantGenerator::build_from_vocab(vocab, config.epsilon, PARTITION_THRESHOLD);
        if config.phonetic_distance.is_some() {
            variants = variants.with_phonetic_vocab(vocab);
        }
        // Build the gate's level table now, not inside the first query.
        corpus.level(config.min_depth);
        let telemetry = Telemetry::disabled();
        Arc::new(Pipeline {
            corpus,
            set,
            variants,
            config,
            semantics: Semantics::NodeType,
            metric_handles: EngineMetrics::new(telemetry.metrics()),
            telemetry,
            arenas: ArenaPool::default(),
        })
    }

    /// Applies a builder step. Builder methods run on a freshly
    /// constructed engine, before its pipeline is handed to anyone else.
    fn edit(mut this: Arc<Pipeline>, step: impl FnOnce(&mut Pipeline)) -> Arc<Pipeline> {
        let unshared = Arc::get_mut(&mut this)
            .expect("engine builder methods run before the pipeline is shared");
        step(unshared);
        this
    }

    /// Builder step: switches entity semantics. Only the one-corpus front
    /// exposes it — a shard set's walk is the node-type rule.
    pub(crate) fn with_semantics(this: Arc<Pipeline>, semantics: Semantics) -> Arc<Pipeline> {
        Self::edit(this, |p| p.semantics = semantics)
    }

    /// Builder step: attaches a telemetry bundle (metrics registry +
    /// optional span tracer). The pipeline records into
    /// `telemetry.metrics()` for its whole lifetime; pass
    /// [`Telemetry::with_tracing`] to also capture per-query spans
    /// exportable as a Chrome trace.
    pub(crate) fn with_telemetry(this: Arc<Pipeline>, telemetry: Telemetry) -> Arc<Pipeline> {
        Self::edit(this, |p| {
            p.metric_handles = EngineMetrics::new(telemetry.metrics());
            p.telemetry = telemetry;
        })
    }

    /// The corpus every query walks.
    pub(crate) fn corpus(&self) -> &Arc<CorpusIndex> {
        &self.corpus
    }

    /// The shard-set identity, if the corpus was read back from a set.
    pub(crate) fn shard_set(&self) -> Option<&ShardSet> {
        self.set.as_ref()
    }

    /// The telemetry bundle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The span tracer (inert unless tracing was enabled).
    pub fn tracer(&self) -> &Tracer {
        self.telemetry.tracer()
    }

    /// The lifetime metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.telemetry.metrics()
    }

    /// The configuration.
    pub fn config(&self) -> &XCleanConfig {
        &self.config
    }

    /// Current entity semantics (always node-type over a shard set).
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// The variant generator (exposed for baselines and diagnostics).
    pub fn variant_generator(&self) -> &VariantGenerator {
        &self.variants
    }

    /// The vocabulary suggestion token ids index.
    pub fn vocab(&self) -> &Vocabulary {
        self.corpus.vocab()
    }

    /// Shard snapshots the corpus was read back from; `1` for one plain
    /// corpus.
    pub fn shard_count(&self) -> u32 {
        self.set.as_ref().map_or(1, |set| set.shards.len() as u32)
    }

    /// `(format_version, checksum)` of the backing snapshot. `None` for
    /// in-memory corpora, a shard set's included: its corpus is
    /// reassembled from several snapshots.
    pub fn snapshot(&self) -> Option<(u32, u64)> {
        self.corpus
            .provenance()
            .map(|p| (u32::from(p.format_version), p.checksum))
    }

    /// A fingerprint of everything that determines this pipeline's
    /// responses: the scoring configuration
    /// ([`XCleanConfig::fingerprint`]) and then, for one plain corpus, the
    /// entity semantics and the corpus shape; for a shard set, the set's
    /// identity and vocabulary shape plus every shard's size — so a
    /// set and its unsharded parent, or two shardings of one corpus, never
    /// share a fingerprint even though their responses are bit-identical
    /// (the cache key is deliberately conservative). Either way each
    /// snapshot-loaded corpus also pins the exact bytes it came from (v2
    /// format version + payload checksum). The serving layer keys its
    /// response cache on this value, so a pipeline rebuilt with a
    /// different β/γ — or over a different snapshot — can never be
    /// answered from stale entries.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.config.fingerprint();
        let mut mix = |v: u64| fnv1a(&mut h, &v.to_le_bytes());
        // A snapshot-loaded corpus's format version and payload checksum.
        let provenance = |p: Option<SnapshotProvenance>| {
            p.into_iter()
                .flat_map(|p| [u64::from(p.format_version), p.checksum])
        };
        let corpus = &self.corpus;
        match &self.set {
            None => {
                mix(match self.semantics {
                    Semantics::NodeType => 0,
                    Semantics::Slca => 1,
                    Semantics::Elca => 2,
                });
                mix(corpus.tree().len() as u64);
                mix(corpus.vocab().len() as u64);
                mix(corpus.vocab().total_tokens());
                mix(corpus.element_count() as u64);
                provenance(corpus.provenance()).for_each(&mut mix);
            }
            Some(set) => {
                mix(set.shards.len() as u64);
                mix(set.seed);
                mix(set.parent_fingerprint);
                mix(corpus.vocab().len() as u64);
                mix(corpus.vocab().total_tokens());
                for &(nodes, shard) in &set.shards {
                    mix(nodes);
                    provenance(shard).for_each(&mut mix);
                }
            }
        }
        h
    }

    /// Records the open/validate timings of one snapshot this pipeline
    /// was loaded from into its metrics registry (one sample per
    /// snapshot), so cold-start cost shows up next to query latencies in
    /// `/metrics` and exported reports.
    pub fn record_snapshot_timings(&self, report: &LoadReport) {
        let m = self.telemetry.metrics();
        m.histogram(names::SNAPSHOT_OPEN)
            .record(report.open_nanos.max(1));
        m.histogram(names::SNAPSHOT_VALIDATE)
            .record(report.validate_nanos.max(1));
    }

    /// Splits a raw query string into keywords (permissive: the user's
    /// tokens are preserved even when short or numeric).
    pub fn parse_query(&self, query: &str) -> Vec<String> {
        Tokenizer::permissive().tokenize(query)
    }

    /// Builds the per-keyword variant slots for a parsed query (including
    /// phonetic variants when configured).
    pub fn make_slots(&self, keywords: &[String]) -> Vec<KeywordSlot> {
        self.slots_for(keywords, &self.config, self.telemetry.tracer())
    }

    fn slots_for(
        &self,
        keywords: &[String],
        config: &XCleanConfig,
        tracer: &Tracer,
    ) -> Vec<KeywordSlot> {
        let _slot_span = tracer.span("slot_build");
        keywords
            .iter()
            .map(|k| {
                let _variant_span = tracer.span_with("variant_gen", || k.clone());
                KeywordSlot {
                    keyword: k.clone(),
                    variants: match config.phonetic_distance {
                        Some(d) => self.variants.variants_with_phonetic(k, d),
                        None => self.variants.variants_within(k, config.epsilon),
                    },
                }
            })
            .collect()
    }

    /// Slots → accumulate → finalize → top-k, once. Serving and explain
    /// both run exactly this; they differ in the `telemetry` spans and
    /// histograms land in and in what `observe` does with γ-decisions.
    /// Neither influences a response bit.
    pub(crate) fn execute<F: FnMut(GammaEvent<'_>)>(
        &self,
        keywords: &[String],
        config: &XCleanConfig,
        telemetry: &Telemetry,
        observe: &mut F,
    ) -> Executed {
        config.validate();
        assert!(
            self.set.is_none() || config.min_depth >= 2,
            "sharded serving requires min_depth >= 2 (got {})",
            config.min_depth
        );
        let start = Instant::now();
        let _query_span = telemetry
            .tracer()
            .span_with("suggest", || keywords.join(" "));
        let slots = self.slots_for(keywords, config, telemetry.tracer());
        let slot_nanos = nanos_since(start);
        let Ranked {
            candidates,
            survivors,
            mut stats,
            accumulators,
        } = rank_walked(
            &self.corpus,
            self.semantics,
            &slots,
            config,
            config.k,
            telemetry,
            &self.arenas,
            observe,
        );
        stats.slot_nanos = slot_nanos;
        debug_assert!(
            stats.slot_nanos > 0 && stats.walk_nanos > 0 && stats.rank_nanos > 0,
            "every stage records a non-zero duration on every code path: {stats:?}"
        );
        let vocab = self.vocab();
        let suggestions = candidates
            .into_iter()
            .map(|c| Suggestion {
                terms: c
                    .tokens
                    .iter()
                    .map(|&t| vocab.term(t).to_string())
                    .collect(),
                tokens: c.tokens,
                log_score: c.log_score,
                distances: c.distances,
                result_path: (c.result_path != PathId::INVALID).then_some(c.result_path),
                entity_count: c.entity_count,
            })
            .collect();
        Executed {
            slots,
            response: SuggestResponse {
                suggestions,
                elapsed: start.elapsed(),
                stats,
                shard_stats: Vec::new(),
            },
            ranked: survivors,
            accumulators,
        }
    }

    /// Suggests up to `k` alternative queries for `query` (§IV Def. 1).
    pub fn suggest(&self, query: &str) -> SuggestResponse {
        self.suggest_keywords(&self.parse_query(query))
    }

    /// Suggests for an already-tokenised query.
    pub fn suggest_keywords(&self, keywords: &[String]) -> SuggestResponse {
        self.suggest_keywords_with(keywords, &self.config)
    }

    /// Suggests with a per-call configuration override. Scoring parameters
    /// (β, smoothing, γ, d, k, skipping, prior) take effect immediately;
    /// `epsilon` is capped by the offline variant index the pipeline was
    /// built with, and `min_depth` must stay ≥ 2 over a shard set. r,
    /// `|C_eff|` and `l_p` are constants. This serving
    /// wrapper is the only place query metrics are recorded.
    pub fn suggest_keywords_with(
        &self,
        keywords: &[String],
        config: &XCleanConfig,
    ) -> SuggestResponse {
        let response = self
            .execute(keywords, config, &self.telemetry, &mut |_| {})
            .response;
        self.metric_handles.record_query(&response);
        response
    }

    /// Answers a whole workload, one [`SuggestResponse`] per query in
    /// input order.
    ///
    /// With `config.num_threads > 1` the queries are claimed in
    /// [`BATCH_CHUNK`]-query chunks by a fixed pool of worker threads that
    /// share the pipeline (and through it the corpus snapshots) by
    /// reference. Every response is bit-identical to what
    /// [`Pipeline::suggest`] returns for the same query, whatever the
    /// thread count. `num_threads == 1` processes the batch inline with no
    /// pool at all.
    pub fn suggest_many(&self, queries: &[&str]) -> Vec<SuggestResponse> {
        let keywords: Vec<Vec<String>> = queries.iter().map(|q| self.parse_query(q)).collect();
        self.suggest_many_keywords(&keywords)
    }

    /// [`Pipeline::suggest_many`] for already-tokenised queries — the
    /// batch entry point the serving layer uses after cache-splitting a
    /// POST body.
    pub fn suggest_many_keywords(&self, queries: &[Vec<String>]) -> Vec<SuggestResponse> {
        // One pool worker per query up to num_threads; each query runs
        // whole on the worker that claimed it. Outputs are bit-identical
        // for any split (see DESIGN.md, "Concurrency & batching").
        let tracer = self.tracer();
        let _batch_span =
            tracer.span_with("suggest_batch", || format!("{} queries", queries.len()));
        let workers = self.config.num_threads.min(queries.len()).max(1);
        if workers <= 1 {
            return queries.iter().map(|kw| self.suggest_keywords(kw)).collect();
        }
        // Pool workers run on their own threads, where the thread-local
        // span stack cannot see `suggest_batch`; each worker adopts it
        // explicitly so the whole batch traces as one tree.
        let batch_parent = tracer.current_span_id();
        // Workers claim chunk indices from a shared cursor and keep what
        // they answered; sorting the claimed chunks by index afterwards
        // restores input order.
        let next_chunk = AtomicUsize::new(0);
        let worker = || {
            let _worker_span = tracer.span_under("batch_worker", batch_parent);
            let mut mine = Vec::new();
            loop {
                let i = next_chunk.fetch_add(1, Ordering::Relaxed);
                let start = i.saturating_mul(BATCH_CHUNK);
                if start >= queries.len() {
                    break mine;
                }
                let batch = &queries[start..queries.len().min(start + BATCH_CHUNK)];
                let responses = batch.iter().map(|kw| self.suggest_keywords(kw)).collect();
                mine.push((i, responses));
            }
        };
        let mut answered: Vec<(usize, Vec<SuggestResponse>)> = std::thread::scope(|scope| {
            let pool: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            pool.into_iter()
                .flat_map(|w| w.join().expect("batch worker panicked"))
                .collect()
        });
        answered.sort_unstable_by_key(|&(i, _)| i);
        answered.into_iter().flat_map(|(_, r)| r).collect()
    }
}
