//! The user-facing suggestion engine over one corpus.
//!
//! [`XCleanEngine`] builds a [`Pipeline`] over one corpus index and its
//! FastSS variant index (both built offline) and answers
//! [`Pipeline::suggest`] queries with ranked, *valid* alternative queries —
//! every suggestion is guaranteed to have at least one entity in the data
//! containing all of its keywords. All query entry points (`suggest*`,
//! `explain*`, `make_slots`, `fingerprint`, …) are the pipeline's, reached
//! through `Deref`; this front adds the constructors, direct corpus
//! access, the entity semantics, entity previews, and the space-edit
//! extension.
//!
//! However the corpus is stored — built from XML, one snapshot, or a
//! shard set — it is one corpus: a set is read back as its parent
//! ([`xclean_index::reassemble_parent`]), so every semantics and every
//! `min_depth` answers over it exactly as over the parent (DESIGN.md §16).

use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use xclean_index::{
    open_corpus, reassemble_parent, CorpusIndex, LoadReport, OpenError, ShardError,
};
use xclean_xmltree::XmlTree;

use crate::algorithm::RunStats;
use crate::config::XCleanConfig;
use crate::pipeline::{Pipeline, Semantics, SuggestResponse, Suggestion};
use crate::Telemetry;

/// The name a shard set was once served under; outside tests its only
/// readers are `xbench/src/{rig,probes,workloads}.rs` (ROADMAP A.7). A set
/// is an [`XCleanEngine`] over the corpus read back from it.
pub type ShardedEngine = XCleanEngine;

/// The XClean suggestion engine over one corpus.
///
/// The corpus and variant indexes are held behind [`Arc`]s: they are
/// immutable after construction, and the `suggest_many` worker pool (as
/// well as any caller using [`XCleanEngine::corpus_shared`]) reads the
/// same snapshot without copying.
#[derive(Debug)]
pub struct XCleanEngine {
    pipeline: Arc<Pipeline>,
}

impl Deref for XCleanEngine {
    type Target = Pipeline;

    fn deref(&self) -> &Pipeline {
        &self.pipeline
    }
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
    /// without duplicating it.
    pub fn from_shared(corpus: Arc<CorpusIndex>, config: XCleanConfig) -> Self {
        XCleanEngine {
            pipeline: Pipeline::new(corpus, config),
        }
    }

    /// Builds the engine over the corpus a shard set stores, read back as
    /// its parent ([`reassemble_parent`], which checks the set and drops
    /// each shard once read).
    pub fn from_shards(shards: Vec<CorpusIndex>, config: XCleanConfig) -> Result<Self, ShardError> {
        Ok(Self::from_corpus(reassemble_parent(shards)?, config))
    }

    /// Builds the node-type engine over the corpus stored in the snapshot
    /// files `paths` (see [`XCleanEngine::open`]).
    pub fn load_snapshots<P: AsRef<Path>>(
        paths: &[P],
        config: XCleanConfig,
    ) -> Result<Self, OpenError> {
        let opened = Self::open(paths, config, Semantics::NodeType, Telemetry::disabled());
        opened.map(|(engine, _)| engine)
    }

    /// Builds the engine over the corpus stored in the snapshot files
    /// `paths` — one snapshot, or a shard set ([`open_corpus`]) — with
    /// `semantics` and `telemetry`, and records each snapshot's
    /// open/validate timings in `telemetry`'s registry. The load reports
    /// come back in path order. Every caller that serves stored snapshots
    /// opens them here.
    pub fn open<P: AsRef<Path>>(
        paths: &[P],
        config: XCleanConfig,
        semantics: Semantics,
        telemetry: Telemetry,
    ) -> Result<(Self, Vec<LoadReport>), OpenError> {
        let (corpus, reports) = open_corpus(paths)?;
        let engine = Self::from_corpus(corpus, config)
            .with_semantics(semantics)
            .with_telemetry(telemetry);
        for report in &reports {
            engine.record_snapshot_timings(report);
        }
        Ok((engine, reports))
    }

    /// Switches entity semantics (default: node-type).
    pub fn with_semantics(self, semantics: Semantics) -> Self {
        XCleanEngine {
            pipeline: Pipeline::with_semantics(self.pipeline, semantics),
        }
    }

    /// Attaches a telemetry bundle (see [`Pipeline::telemetry`]); opt in
    /// to span tracing with [`Telemetry::with_tracing`].
    pub fn with_telemetry(self, telemetry: Telemetry) -> Self {
        XCleanEngine {
            pipeline: Pipeline::with_telemetry(self.pipeline, telemetry),
        }
    }

    /// The pipeline this engine fronts (what a serving layer holds).
    pub fn pipeline(&self) -> &Arc<Pipeline> {
        &self.pipeline
    }

    /// The corpus index.
    pub fn corpus(&self) -> &CorpusIndex {
        self.pipeline.corpus()
    }

    /// A shared handle to the corpus snapshot (cheap clone; see
    /// [`XCleanEngine::from_shared`]).
    pub fn corpus_shared(&self) -> Arc<CorpusIndex> {
        Arc::clone(self.pipeline.corpus())
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
