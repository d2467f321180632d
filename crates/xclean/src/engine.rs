//! The suggestion engine over one corpus.
//!
//! [`XCleanEngine`] holds one corpus index, the FastSS variant index over
//! its vocabulary (built here, offline from any query), the
//! configuration, the entity semantics, telemetry and a pool of query
//! arenas, and answers [`XCleanEngine::suggest`] queries with ranked,
//! *valid* alternative queries — every suggestion is guaranteed to have at
//! least one entity in the data containing all of its keywords. Each
//! query runs the one orchestration in [`crate::pipeline`]; explain runs
//! it observed ([`crate::explain`]). Built once and immutable after, an
//! engine is shared behind an [`Arc`] by the serving layer.
//!
//! An engine serves one corpus, built from XML or opened from one
//! snapshot ([`XCleanEngine::open`], which refuses one shard of a set).
//! A shard set is read back as the corpus it was cut from
//! ([`XCleanEngine::load_snapshots`], [`xclean_index::reassemble_parent`])
//! and keeps nothing of the set: it answers, keys and explains exactly as
//! its parent built in memory (DESIGN.md §16).

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xclean_index::{
    reassemble_parent, storage, CorpusIndex, LoadReport, OpenError, OpenOptions, ShardError,
    Vocabulary,
};
use xclean_telemetry::{names, Counter, Histogram, MetricsRegistry, Tracer};
use xclean_xmltree::{PathId, Tokenizer, XmlTree};

use crate::algorithm::{nanos_since, KeywordSlot, RunStats};
use crate::config::{fnv1a, XCleanConfig};
use crate::pipeline::{
    rank_walked, ArenaPool, Executed, Ranked, Semantics, SuggestResponse, Suggestion, BATCH_CHUNK,
};
use crate::pruning::GammaEvent;
use crate::variants::{VariantGenerator, PARTITION_THRESHOLD};
use crate::Telemetry;

/// The name a shard set was once served under; outside tests its only
/// readers are `xbench/src/{rig,probes,workloads}.rs` (ROADMAP A.7). A set
/// is an [`XCleanEngine`] over the corpus read back from it.
pub type ShardedEngine = XCleanEngine;

/// Pre-resolved metric handles so the per-query hot path never takes the
/// registry's name-lookup lock: every counter bump and histogram record
/// below is a plain atomic op on a shared [`Arc`], which is what lets the
/// `suggest_many` worker pool aggregate into one engine-lifetime registry
/// without serialising on it.
#[derive(Debug)]
struct EngineMetrics {
    queries: Arc<Counter>,
    /// Set until the first query is recorded; that query's total latency
    /// also lands in the `FIRST_QUERY` histogram (cold caches, lazy slab
    /// decodes still pending).
    first_query_pending: AtomicBool,
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
            first_query_pending: AtomicBool::new(true),
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

/// The XClean suggestion engine over one corpus (see the module docs).
///
/// The corpus is held behind an [`Arc`]: it is immutable after
/// construction, and several engines (see [`XCleanEngine::from_shared`])
/// read the same snapshot without copying. The `suggest_many` worker pool
/// shares the engine itself by reference.
///
/// Every engine carries a [`Telemetry`] bundle: a metrics registry that
/// aggregates counters and stage histograms over its lifetime (across all
/// `suggest_many` workers), and a span tracer that is inert by default.
#[derive(Debug)]
pub struct XCleanEngine {
    corpus: Arc<CorpusIndex>,
    variants: VariantGenerator,
    config: XCleanConfig,
    semantics: Semantics,
    telemetry: Telemetry,
    metric_handles: EngineMetrics,
    arenas: ArenaPool,
}

impl XCleanEngine {
    /// Builds the engine over a parsed XML tree (indexes the corpus and
    /// the vocabulary's deletion neighbourhoods).
    pub fn new(tree: XmlTree, config: XCleanConfig) -> Self {
        config.validate();
        let corpus = CorpusIndex::build(tree);
        Self::from_corpus(corpus, config)
    }

    /// Builds the engine from an already-built corpus index.
    pub fn from_corpus(corpus: CorpusIndex, config: XCleanConfig) -> Self {
        Self::from_shared(Arc::new(corpus), config)
    }

    /// Builds the engine over a shared corpus snapshot — several engines
    /// (e.g. with different configs or semantics) can serve the same index
    /// without duplicating it. Indexes the deletion neighbourhoods of its
    /// vocabulary.
    pub fn from_shared(corpus: Arc<CorpusIndex>, config: XCleanConfig) -> Self {
        config.validate();
        let mut variants = VariantGenerator::build(&corpus, config.epsilon, PARTITION_THRESHOLD);
        if config.phonetic_distance.is_some() {
            variants = variants.with_phonetic_index(&corpus);
        }
        // Build the gate's level table now, not inside the first query.
        corpus.level(config.min_depth);
        let telemetry = Telemetry::disabled();
        XCleanEngine {
            corpus,
            variants,
            config,
            semantics: Semantics::NodeType,
            metric_handles: EngineMetrics::new(telemetry.metrics()),
            telemetry,
            arenas: ArenaPool::default(),
        }
    }

    /// Builds the engine over the corpus a shard set stores, read back as
    /// its parent ([`reassemble_parent`], which checks the set and drops
    /// each shard once read).
    pub fn from_shards(shards: Vec<CorpusIndex>, config: XCleanConfig) -> Result<Self, ShardError> {
        Ok(Self::from_corpus(reassemble_parent(shards)?, config))
    }

    /// Builds the node-type engine over the corpus a shard set stores in
    /// the snapshot files `paths`, read back as its parent
    /// ([`reassemble_parent`]), and records one open/validate sample per
    /// file. The only entry that opens several files.
    pub fn load_snapshots<P: AsRef<Path>>(
        paths: &[P],
        config: XCleanConfig,
    ) -> Result<Self, OpenError> {
        let (shards, reports): (Vec<_>, Vec<_>) = paths
            .iter()
            .map(open_snapshot)
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        let engine = Self::from_shards(shards, config).map_err(OpenError::Set)?;
        for report in &reports {
            engine.record_snapshot_timings(report);
        }
        Ok(engine)
    }

    /// Builds the engine over the corpus stored in the snapshot file
    /// `path` with `semantics` and `telemetry`, and records the
    /// snapshot's open/validate timings in `telemetry`'s registry. One
    /// shard of a set is refused ([`OpenError::Shard`]). Every caller
    /// that serves a stored snapshot opens it here; a catalog entry's
    /// path is [`crate::CorpusSpec::resolved_snapshot`].
    pub fn open<P: AsRef<Path>>(
        path: P,
        config: XCleanConfig,
        semantics: Semantics,
        telemetry: Telemetry,
    ) -> Result<(Self, LoadReport), OpenError> {
        let (corpus, report) = open_snapshot(&path)?;
        if let Some(meta) = corpus.shard_meta() {
            return Err(OpenError::Shard {
                path: path.as_ref().display().to_string(),
                shards: meta.shard_count,
            });
        }
        let engine = Self::from_corpus(corpus, config)
            .with_semantics(semantics)
            .with_telemetry(telemetry);
        engine.record_snapshot_timings(&report);
        Ok((engine, report))
    }

    /// Switches entity semantics (default: node-type).
    pub fn with_semantics(self, semantics: Semantics) -> Self {
        XCleanEngine { semantics, ..self }
    }

    /// Attaches a telemetry bundle (metrics registry + optional span
    /// tracer). The engine records into `telemetry.metrics()` for its
    /// whole lifetime; pass [`Telemetry::with_tracing`] to also capture
    /// per-query spans exportable as a Chrome trace.
    pub fn with_telemetry(self, telemetry: Telemetry) -> Self {
        XCleanEngine {
            metric_handles: EngineMetrics::new(telemetry.metrics()),
            telemetry,
            ..self
        }
    }

    /// The corpus index.
    pub fn corpus(&self) -> &CorpusIndex {
        &self.corpus
    }

    /// A shared handle to the corpus snapshot (cheap clone; see
    /// [`XCleanEngine::from_shared`]).
    pub fn corpus_shared(&self) -> Arc<CorpusIndex> {
        Arc::clone(&self.corpus)
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

    /// Current entity semantics.
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

    /// `(format_version, checksum)` of the backing snapshot. `None` for
    /// in-memory corpora, a shard set's included: its corpus is
    /// reassembled from several snapshots.
    pub fn snapshot(&self) -> Option<(u32, u64)> {
        self.corpus
            .provenance()
            .map(|p| (u32::from(p.format_version), p.checksum))
    }

    /// A fingerprint of everything that determines this engine's
    /// responses: the scoring configuration
    /// ([`XCleanConfig::fingerprint`]), the entity semantics, the corpus
    /// shape and, for a corpus opened from a snapshot, the exact bytes it
    /// came from (v2 format version + payload checksum). A corpus read
    /// back from a shard set is its parent, so it keys as its parent built
    /// in memory does. The serving layer keys its response cache on this
    /// value, so an engine rebuilt with a different β/γ — or over a
    /// different snapshot — can never be answered from stale entries.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.config.fingerprint();
        let mut mix = |v: u64| fnv1a(&mut h, &v.to_le_bytes());
        let corpus = &self.corpus;
        mix(match self.semantics {
            Semantics::NodeType => 0,
            Semantics::Slca => 1,
            Semantics::Elca => 2,
        });
        mix(corpus.tree().len() as u64);
        mix(corpus.vocab().len() as u64);
        mix(corpus.vocab().total_tokens());
        mix(corpus.element_count() as u64);
        if let Some(p) = corpus.provenance() {
            mix(u64::from(p.format_version));
            mix(p.checksum);
        }
        h
    }

    /// Records the open/validate timings of one snapshot this engine was
    /// loaded from into its metrics registry (one sample per snapshot),
    /// so cold-start cost shows up next to query latencies in `/metrics`
    /// and exported reports.
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
    /// `epsilon` is capped by the offline variant index the engine was
    /// built with. r,
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
    /// share the engine (and through it the corpus snapshot) by
    /// reference. Every response is bit-identical to what
    /// [`XCleanEngine::suggest`] returns for the same query, whatever the
    /// thread count. `num_threads == 1` processes the batch inline with no
    /// pool at all.
    pub fn suggest_many(&self, queries: &[&str]) -> Vec<SuggestResponse> {
        let keywords: Vec<Vec<String>> = queries.iter().map(|q| self.parse_query(q)).collect();
        self.suggest_many_keywords(&keywords)
    }

    /// [`XCleanEngine::suggest_many`] for already-tokenised queries — the
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

    /// Suggests with the space-edit extension of §VI-A: up to `tau` space
    /// insertions/deletions are applied to the query (validated against
    /// the vocabulary), each rewriting is cleaned as usual, and the pooled
    /// suggestions are ranked together with an extra β-penalty per space
    /// edit. Suggestions from different rewritings may have different
    /// keyword counts.
    pub fn suggest_with_space_edits(&self, query: &str, tau: u32) -> SuggestResponse {
        let start = Instant::now();
        let _span = self
            .tracer()
            .span_with("suggest_space_edits", || query.to_string());
        let keywords = self.parse_query(query);
        let rewritings = crate::space_edits::expand_space_edits(self.corpus(), &keywords, tau);
        let mut pooled: Vec<Suggestion> = Vec::new();
        let mut stats = RunStats::default();
        for rw in &rewritings {
            let r = self.suggest_keywords(&rw.keywords);
            stats += r.stats;
            for mut s in r.suggestions {
                s.log_score -= self.config().beta * f64::from(rw.edits);
                pooled.push(s);
            }
        }
        pooled.sort_by(|a, b| {
            b.log_score
                .partial_cmp(&a.log_score)
                .expect("scores are never NaN")
                .then_with(|| a.terms.cmp(&b.terms))
        });
        pooled.dedup_by(|a, b| a.terms == b.terms);
        pooled.truncate(self.config().k);
        SuggestResponse {
            suggestions: pooled,
            elapsed: start.elapsed(),
            stats,
            shard_stats: Vec::new(),
        }
    }

    /// Returns up to `limit` entity previews for a suggestion: the XML
    /// fragments of entities containing all of the suggestion's keywords,
    /// largest virtual document first. Node-type suggestions use their
    /// inferred `result_path`; SLCA/ELCA suggestions locate the smallest
    /// containing subtrees via a fresh SLCA computation.
    pub fn preview(&self, suggestion: &Suggestion, limit: usize) -> Vec<String> {
        let tree = self.corpus().tree();
        let mut entities: Vec<xclean_xmltree::NodeId> = match suggestion.result_path {
            Some(path) => {
                let depth = tree.paths().depth(path);
                // Entities = ancestors (of the right type) of the rarest
                // keyword's postings that contain all other keywords.
                let rarest = suggestion
                    .tokens
                    .iter()
                    .copied()
                    .min_by_key(|&t| self.corpus().postings(t).len())
                    .expect("non-empty suggestion");
                let mut out = Vec::new();
                for p in self.corpus().postings(rarest).iter() {
                    let Some(r) = tree.ancestor_at_depth(p.node, depth) else {
                        continue;
                    };
                    if tree.path(r) != path || out.last() == Some(&r) {
                        continue;
                    }
                    let has_all = suggestion.tokens.iter().all(|&t| {
                        self.corpus()
                            .postings(t)
                            .nodes()
                            .iter()
                            .any(|&n| tree.is_ancestor_or_self(r, n))
                    });
                    if has_all {
                        out.push(r);
                    }
                }
                out
            }
            None => {
                let lists: Vec<Vec<xclean_xmltree::NodeId>> = suggestion
                    .tokens
                    .iter()
                    .map(|&t| self.corpus().postings(t).nodes().to_vec())
                    .collect();
                crate::slca::slca_of_lists(tree, &lists)
            }
        };
        entities.sort_by_key(|&r| std::cmp::Reverse(self.corpus().doc_len(r)));
        entities.dedup();
        entities
            .into_iter()
            .take(limit)
            .map(|r| xclean_xmltree::writer::subtree_to_xml(tree, r))
            .collect()
    }
}

/// Opens one snapshot file, naming it in the error.
fn open_snapshot<P: AsRef<Path>>(path: P) -> Result<(CorpusIndex, LoadReport), OpenError> {
    let path = path.as_ref();
    storage::open_file(path, &OpenOptions::default()).map_err(|source| OpenError::Snapshot {
        path: path.display().to_string(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_xmltree::parse_document;

    fn engine() -> XCleanEngine {
        let xml = "<dblp>\
            <article><author>hinrich schutze</author><title>geo tagging entities</title></article>\
            <article><author>jones</author><title>health insurance markets</title></article>\
            <article><author>smith</author><title>program instance analysis</title></article>\
            <article><author>smith</author><title>health policy</title></article>\
        </dblp>";
        XCleanEngine::new(
            parse_document(xml).unwrap(),
            XCleanConfig {
                epsilon: 2,
                ..Default::default()
            },
        )
    }

    #[test]
    fn corrects_single_typo() {
        let e = engine();
        let r = e.suggest("helth insurance");
        assert!(!r.suggestions.is_empty());
        assert_eq!(r.suggestions[0].terms, vec!["health", "insurance"]);
        assert_eq!(r.suggestions[0].distances, vec![1, 0]);
        assert!(r.suggestions[0].entity_count > 0);
    }

    #[test]
    fn figure1_bias_case_prefers_connected_correction() {
        // "health insurance" with a typo'd second keyword close to both
        // "insurance" and "instance": instance never co-occurs with
        // health, so XClean must pick insurance (PY08 picks instance).
        let e = engine();
        let r = e.suggest("health insurrance");
        assert_eq!(r.suggestions[0].terms, vec!["health", "insurance"]);
        assert!(
            r.rank_of(&["health", "instance"]).is_none(),
            "health instance has no connected entity"
        );
    }

    #[test]
    fn clean_query_is_top_suggestion() {
        let e = engine();
        let r = e.suggest("health insurance");
        assert_eq!(r.suggestions[0].terms, vec!["health", "insurance"]);
        assert_eq!(r.suggestions[0].total_distance(), 0);
    }

    #[test]
    fn hopeless_query_returns_empty() {
        let e = engine();
        let r = e.suggest("qqqqqqq zzzzzzz");
        assert!(r.suggestions.is_empty());
    }

    #[test]
    fn rank_of_helper() {
        let e = engine();
        let r = e.suggest("helth insurance");
        assert_eq!(r.rank_of(&["health", "insurance"]), Some(1));
        assert_eq!(r.rank_of(&["no", "such"]), None);
    }

    #[test]
    fn k_limits_suggestions() {
        let xml = "<r><a><w>cat car can cap</w></a></r>";
        let eng = XCleanEngine::new(
            parse_document(xml).unwrap(),
            XCleanConfig {
                k: 2,
                ..Default::default()
            },
        );
        let r = eng.suggest("caz");
        assert!(r.suggestions.len() <= 2);
    }

    #[test]
    fn space_edit_suggestion() {
        let xml = "<kb>\
            <doc><t>powerpoint slides</t></doc>\
            <doc><t>power point talks</t></doc>\
        </kb>";
        let e = XCleanEngine::new(parse_document(xml).unwrap(), XCleanConfig::default());
        // Merged form with a typo: plain suggest finds nothing useful for
        // the two-keyword reading, the space-edit variant finds the merge.
        let r = e.suggest_with_space_edits("power point slides", 1);
        assert!(!r.suggestions.is_empty());
        assert_eq!(r.suggestions[0].terms, vec!["powerpoint", "slides"]);
        // τ = 0 degenerates to plain suggestion.
        let r0 = e.suggest_with_space_edits("powerpoint slides", 0);
        assert_eq!(r0.suggestions[0].terms, vec!["powerpoint", "slides"]);
    }

    #[test]
    fn preview_returns_matching_entities() {
        let e = engine();
        let r = e.suggest("helth insurance");
        let previews = e.preview(&r.suggestions[0], 3);
        assert!(!previews.is_empty());
        for p in &previews {
            assert!(p.contains("health"), "{p}");
            assert!(p.contains("insurance"), "{p}");
            assert!(p.starts_with("<article>"), "{p}");
        }
    }

    #[test]
    fn preview_works_for_slca_semantics() {
        let xml = "<db><rec><t>alpha beta</t></rec><rec><t>alpha</t></rec></db>";
        let e = XCleanEngine::new(parse_document(xml).unwrap(), XCleanConfig::default())
            .with_semantics(Semantics::Slca);
        let r = e.suggest("alpha beta");
        assert!(!r.suggestions.is_empty());
        let previews = e.preview(&r.suggestions[0], 2);
        assert!(!previews.is_empty());
        assert!(previews[0].contains("alpha beta"));
    }

    #[test]
    fn query_string_joins_terms() {
        let e = engine();
        let r = e.suggest("helth insurance");
        assert_eq!(r.suggestions[0].query_string(), "health insurance");
    }

    fn assert_same_responses(a: &SuggestResponse, b: &SuggestResponse) {
        assert_eq!(a.suggestions.len(), b.suggestions.len());
        for (x, y) in a.suggestions.iter().zip(b.suggestions.iter()) {
            assert_eq!(x.terms, y.terms);
            assert_eq!(x.log_score.to_bits(), y.log_score.to_bits());
            assert_eq!(x.distances, y.distances);
            assert_eq!(x.entity_count, y.entity_count);
        }
    }

    #[test]
    fn suggest_many_matches_sequential_suggest() {
        // Over two chunks and a partial third, so several workers answer.
        let queries: Vec<&str> = [
            "helth insurance",
            "health insurrance",
            "geo taging",
            "smith",
            "qqqq",
        ]
        .into_iter()
        .cycle()
        .take(2 * crate::pipeline::BATCH_CHUNK + 5)
        .collect();
        for threads in [1usize, 2, 8] {
            let e = XCleanEngine::from_shared(
                engine().corpus_shared(),
                XCleanConfig {
                    num_threads: threads,
                    ..Default::default()
                },
            );
            let batched = e.suggest_many(&queries);
            assert_eq!(batched.len(), queries.len());
            for (q, r) in queries.iter().zip(batched.iter()) {
                assert_same_responses(&e.suggest(q), r);
            }
        }
    }

    #[test]
    fn suggest_many_preserves_input_order() {
        let e = XCleanEngine::from_shared(
            engine().corpus_shared(),
            XCleanConfig {
                num_threads: 4,
                ..Default::default()
            },
        );
        // Distinguishable queries so a misplaced response is detectable;
        // several chunks' worth, each chunk starting at a different one of
        // the six, so a misplaced chunk is detectable too.
        let queries: Vec<&str> = ["helth", "insurance", "markets", "policy", "smith", "jones"]
            .into_iter()
            .cycle()
            .take(3 * crate::pipeline::BATCH_CHUNK)
            .collect();
        let rs = e.suggest_many(&queries);
        for (q, r) in queries.iter().zip(rs.iter()) {
            assert_same_responses(&e.suggest(q), r);
        }
    }

    #[test]
    fn suggest_many_handles_empty_and_oversized_batches() {
        let e = engine();
        assert!(e.suggest_many(&[]).is_empty());
        let e = XCleanEngine::from_shared(
            e.corpus_shared(),
            XCleanConfig {
                num_threads: 8, // more workers than queries, one chunk
                ..Default::default()
            },
        );
        let rs = e.suggest_many(&["helth insurance", "health policy"]);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].suggestions[0].terms, vec!["health", "insurance"]);
    }

    #[test]
    fn from_shared_engines_reuse_one_corpus() {
        let base = engine();
        let shared = base.corpus_shared();
        let other = XCleanEngine::from_shared(Arc::clone(&shared), XCleanConfig::default());
        assert!(std::ptr::eq(base.corpus(), other.corpus()));
        assert_same_responses(
            &base.suggest("helth insurance"),
            &other.suggest("helth insurance"),
        );
    }

    #[test]
    fn fingerprint_separates_configs_semantics_and_corpora() {
        let base = engine();
        let same = XCleanEngine::from_shared(
            base.corpus_shared(),
            XCleanConfig {
                epsilon: 2,
                ..Default::default()
            },
        );
        assert_eq!(base.fingerprint(), same.fingerprint());
        let other_beta = XCleanEngine::from_shared(
            base.corpus_shared(),
            XCleanConfig {
                epsilon: 2,
                beta: 4.0,
                ..Default::default()
            },
        );
        assert_ne!(base.fingerprint(), other_beta.fingerprint());
        let slca = XCleanEngine::from_shared(
            base.corpus_shared(),
            XCleanConfig {
                epsilon: 2,
                ..Default::default()
            },
        )
        .with_semantics(Semantics::Slca);
        assert_ne!(base.fingerprint(), slca.fingerprint());
        let other_corpus = XCleanEngine::new(
            parse_document("<r><a><w>different corpus</w></a></r>").unwrap(),
            XCleanConfig {
                epsilon: 2,
                ..Default::default()
            },
        );
        assert_ne!(base.fingerprint(), other_corpus.fingerprint());
    }

    #[test]
    fn traced_suggest_forms_one_span_tree() {
        let e = XCleanEngine::from_shared(
            engine().corpus_shared(),
            XCleanConfig {
                epsilon: 2,
                num_threads: 4,
                ..Default::default()
            },
        )
        .with_telemetry(Telemetry::with_tracing());
        // The root span a server opens per request (`request_span`),
        // carrying the request's trace ID.
        let traced = {
            let _request = e
                .tracer()
                .span_with("request", || "trace-abc123".to_string());
            e.suggest("helth insurance")
        };
        assert_same_responses(&engine().suggest("helth insurance"), &traced);
        let spans = e.tracer().finished_spans();
        let root = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(root.detail.as_deref(), Some("trace-abc123"));
        // One corpus is walked once, on the thread that asked, whatever
        // `num_threads` says…
        let walks: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "walk_accumulate")
            .collect();
        assert_eq!(walks.len(), 1, "{spans:?}");
        assert_eq!(walks[0].thread, root.thread);
        assert!(spans.iter().all(|s| s.thread == root.thread), "{spans:?}");
        // …and every span reaches the request root through its parents.
        let parent_of: std::collections::HashMap<u64, Option<u64>> =
            spans.iter().map(|s| (s.id, s.parent)).collect();
        for s in &spans {
            let mut cur = s.id;
            while let Some(&Some(p)) = parent_of.get(&cur) {
                cur = p;
            }
            assert_eq!(cur, root.id, "span {} detached from the tree", s.name);
        }
    }

    #[test]
    fn batch_spans_form_one_tree() {
        let e = XCleanEngine::from_shared(
            engine().corpus_shared(),
            XCleanConfig {
                num_threads: 4,
                ..Default::default()
            },
        )
        .with_telemetry(Telemetry::with_tracing());
        let queries: Vec<&str> = ["helth insurance", "health policy", "smith", "jones"]
            .into_iter()
            .cycle()
            .take(3 * crate::pipeline::BATCH_CHUNK)
            .collect();
        e.suggest_many(&queries);
        let spans = e.tracer().finished_spans();
        let batch = spans.iter().find(|s| s.name == "suggest_batch").unwrap();
        // Every pool worker adopts the batch span, whether or not it
        // claimed a chunk.
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "batch_worker").collect();
        assert_eq!(workers.len(), 4);
        for w in &workers {
            assert_eq!(w.parent, Some(batch.id));
        }
        for s in spans.iter().filter(|s| s.name == "suggest") {
            let worker = spans
                .iter()
                .find(|w| Some(w.id) == s.parent)
                .expect("suggest span has a parent");
            assert_eq!(worker.name, "batch_worker");
            assert_eq!(worker.parent, Some(batch.id));
        }
    }

    #[test]
    fn slot_timing_is_reported() {
        let e = engine();
        let r = e.suggest("helth insurance");
        assert!(r.stats.slot_nanos > 0);
        assert!(r.stats.walk_nanos > 0);
    }
}
