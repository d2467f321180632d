//! # xclean
//!
//! Core of the XClean reproduction: valid spelling suggestions for XML
//! keyword queries (Lu, Wang, Li, Liu — ICDE 2011).
//!
//! The engine scores candidate alternative queries by the quality of their
//! query results in the data (Eq. 10 of the paper):
//!
//! ```text
//! P(C|Q,T) ∝ P(Q|C) · (1/N) Σ_r Π_{w∈C} P(w|D(r))
//! ```
//!
//! and computes the top-k candidates in a single pass over the variants'
//! inverted lists (Algorithm 1), with result-type inference (Eq. 7),
//! minimal-depth gating, skip-based list alignment, and probabilistic
//! accumulator pruning (§V-D).
//!
//! ```
//! use xclean::{XCleanConfig, XCleanEngine};
//! use xclean_xmltree::parse_document;
//!
//! let tree = parse_document(
//!     "<dblp><article><author>smith</author><title>health insurance</title></article></dblp>",
//! ).unwrap();
//! let engine = XCleanEngine::new(tree, XCleanConfig::default());
//! let response = engine.suggest("helth insurance");
//! assert_eq!(response.suggestions[0].terms, vec!["health", "insurance"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod arena;
pub mod candidates;
pub mod catalog;
pub mod config;
pub mod elca;
pub mod engine;
pub mod explain;
mod merged;
pub mod pipeline;
pub mod pruning;
#[cfg(test)]
mod reference;
pub mod result_type;
pub mod slca;
pub mod space_edits;
pub mod variants;
pub mod walk;
#[cfg(test)]
mod walk_differential;

pub use algorithm::{run_xclean, KeywordSlot, RunOutput, RunStats, ScoredCandidate};
pub use arena::QueryArena;
pub use candidates::{CandId, CandidateTable, TypeSlot};
pub use catalog::{Catalog, CatalogError, CorpusSpec};
pub use config::{EntityPrior, XCleanConfig};
pub use elca::{elca_of_lists, run_elca};
pub use engine::{ShardedEngine, XCleanEngine};
pub use explain::{
    EvictionExplain, ExplainTrace, GammaEventKind, KeywordExplain, StageCounts, StageNanos,
    VariantExplain, MAX_EXPLAIN_EVICTIONS,
};
pub use pipeline::{Semantics, SuggestResponse, Suggestion};
pub use pruning::{Accumulator, AccumulatorTable, CandidateKey, GammaEvent, PruningStats};
pub use result_type::{find_result_type, ResultType};
pub use slca::{run_slca, slca_of_lists};
pub use space_edits::{expand_space_edits, SpaceVariant};
pub use variants::{Variant, VariantGenerator};
pub use xclean_telemetry as telemetry;
pub use xclean_telemetry::Telemetry;

/// An [`XCleanEngine`] over a corpus stored as a shard set serves the
/// parent corpus it reads back: bit for bit, for every shard count and
/// thread count, from shards in memory or from snapshot files. The
/// refusals of sets that are not one complete set are
/// `xclean_index::shard`'s.
#[cfg(test)]
mod sharded {
    mod tests {
        use crate::{SuggestResponse, XCleanConfig, XCleanEngine};
        use xclean_index::{partition_corpus, CorpusIndex, OpenError, TokenId};
        use xclean_xmltree::{parse_document, PathId};

        fn corpus() -> CorpusIndex {
            let xml = "<dblp>\
                <article><author>hinrich schutze</author><title>geo tagging entities</title></article>\
                <article><author>jones</author><title>health insurance markets</title></article>\
                <article><author>smith</author><title>program instance analysis</title></article>\
                <article><author>smith</author><title>health policy</title></article>\
                <article><author>brown</author><title>insurance analysis policy</title></article>\
                <article><author>schutze</author><title>geo entities health</title></article>\
            </dblp>";
            CorpusIndex::build(parse_document(xml).unwrap())
        }

        fn assert_same(a: &SuggestResponse, b: &SuggestResponse) {
            assert_eq!(a.suggestions.len(), b.suggestions.len());
            for (x, y) in a.suggestions.iter().zip(b.suggestions.iter()) {
                assert_eq!(x.terms, y.terms);
                assert_eq!(x.log_score.to_bits(), y.log_score.to_bits());
                assert_eq!(x.distances, y.distances);
                assert_eq!(x.entity_count, y.entity_count);
            }
        }

        #[test]
        fn sharded_matches_unsharded_bit_for_bit() {
            let parent = corpus();
            let queries = [
                "helth insurance",
                "health insurrance",
                "geo taging",
                "smith",
                "entities",
                "qqqq zzzz",
            ];
            let config = XCleanConfig {
                epsilon: 2,
                ..Default::default()
            };
            let baseline = XCleanEngine::from_corpus(corpus(), config.clone());
            for nshards in [1usize, 2, 3, 6] {
                for threads in [1usize, 2, 8] {
                    let shards = partition_corpus(&parent, nshards, 7).unwrap();
                    let cfg = XCleanConfig {
                        num_threads: threads,
                        ..config.clone()
                    };
                    let engine = XCleanEngine::from_shards(shards, cfg).unwrap();
                    for q in queries {
                        let a = baseline.suggest(q);
                        let b = engine.suggest(q);
                        assert_same(&a, &b);
                        // A set walks its parent, so the scoring counters
                        // are the parent's too.
                        assert_eq!(
                            a.stats.candidates_enumerated, b.stats.candidates_enumerated,
                            "q={q} nshards={nshards} threads={threads}"
                        );
                        assert_eq!(
                            a.stats.result_type_computations,
                            b.stats.result_type_computations
                        );
                        assert_eq!(a.stats.entities_scored, b.stats.entities_scored);
                    }
                }
            }
        }

        #[test]
        fn binding_gamma_merges_identically() {
            // γ=1 forces evictions; the set's walk must reproduce
            // the sequential table's decisions exactly.
            let parent = corpus();
            let config = XCleanConfig {
                epsilon: 2,
                gamma: Some(1),
                ..Default::default()
            };
            let baseline = XCleanEngine::from_corpus(corpus(), config.clone());
            for nshards in [2usize, 3] {
                let shards = partition_corpus(&parent, nshards, 0).unwrap();
                let engine = XCleanEngine::from_shards(shards, config.clone()).unwrap();
                for q in ["helth insurance", "health insurrance"] {
                    let a = baseline.suggest(q);
                    let b = engine.suggest(q);
                    assert_same(&a, &b);
                    assert_eq!(a.stats.pruning, b.stats.pruning, "q={q} nshards={nshards}");
                }
            }
        }

        /// The collection statistics a set scores with are its parent's:
        /// term, cf, df and f_w^p per token; node count, summed document
        /// length, depth and display per path.
        #[test]
        fn global_stats_match_parent_corpus() {
            let parent = corpus();
            let shards = partition_corpus(&parent, 3, 7).unwrap();
            let engine = XCleanEngine::from_shards(shards, XCleanConfig::default()).unwrap();
            let served = engine.corpus();
            assert_eq!(engine.vocab().len(), parent.vocab().len());
            assert_eq!(engine.vocab().total_tokens(), parent.vocab().total_tokens());
            for t in 0..parent.vocab().len() as u32 {
                let t = TokenId(t);
                assert_eq!(engine.vocab().term(t), parent.vocab().term(t));
                assert_eq!(engine.vocab().cf(t), parent.vocab().cf(t));
                assert_eq!(engine.vocab().df(t), parent.vocab().df(t));
                // f_w^p lists match the parent's exactly, root included.
                assert_eq!(
                    served.path_stats().paths_of(t),
                    parent.path_stats().paths_of(t),
                    "token {t:?}"
                );
            }
            assert_eq!(served.tree().paths().len(), parent.tree().paths().len());
            for p in 0..parent.tree().paths().len() as u32 {
                let p = PathId(p);
                assert_eq!(served.count_nodes_of_path(p), parent.count_nodes_of_path(p));
                assert_eq!(served.path_doc_len_total(p), parent.path_doc_len_total(p));
                assert_eq!(
                    served.tree().paths().depth(p),
                    parent.tree().paths().depth(p)
                );
                assert_eq!(
                    served.tree().paths().display(p, served.tree().labels()),
                    parent.tree().paths().display(p, parent.tree().labels())
                );
            }
        }

        #[test]
        fn snapshot_roundtrip_serves_identically() {
            let parent = corpus();
            let shards = partition_corpus(&parent, 2, 7).unwrap();
            let dir =
                std::env::temp_dir().join(format!("xclean-sharded-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let mut paths = Vec::new();
            for (i, s) in shards.iter().enumerate() {
                let p = dir.join(format!("shard-{i}.xci"));
                xclean_index::storage::save_to_file_v2(s, &p).unwrap();
                paths.push(p);
            }
            let config = XCleanConfig {
                epsilon: 2,
                ..Default::default()
            };
            let from_mem = XCleanEngine::from_shards(shards, config.clone()).unwrap();
            let from_disk = XCleanEngine::load_snapshots(&paths, config).unwrap();
            assert_same(
                &from_mem.suggest("helth insurance"),
                &from_disk.suggest("helth insurance"),
            );
            // Missing file errors name the offending path.
            let missing = dir.join("shard-9.xci");
            let err = XCleanEngine::load_snapshots(
                &[paths[0].clone(), missing.clone()],
                XCleanConfig::default(),
            )
            .unwrap_err();
            match err {
                OpenError::Snapshot { path, .. } => {
                    assert!(path.contains("shard-9.xci"), "{path}");
                }
                other => panic!("expected Snapshot error, got {other}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn fingerprint_separates_shardings_and_configs() {
            let parent = corpus();
            let three = partition_corpus(&parent, 3, 7).unwrap();
            let e2 = XCleanEngine::from_shards(
                partition_corpus(&parent, 2, 7).unwrap(),
                XCleanConfig::default(),
            )
            .unwrap();
            let e3 = XCleanEngine::from_shards(three, XCleanConfig::default()).unwrap();
            assert_ne!(e2.fingerprint(), e3.fingerprint());
            let beta = XCleanEngine::from_shards(
                partition_corpus(&parent, 2, 7).unwrap(),
                XCleanConfig {
                    beta: 4.0,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_ne!(e2.fingerprint(), beta.fingerprint());
            // A set takes every semantics, each under its own key.
            let slca = XCleanEngine::from_shards(
                partition_corpus(&parent, 2, 7).unwrap(),
                XCleanConfig::default(),
            )
            .unwrap()
            .with_semantics(crate::Semantics::Slca);
            assert_ne!(e2.fingerprint(), slca.fingerprint());
            assert_eq!(e2.fingerprint(), {
                let again = XCleanEngine::from_shards(
                    partition_corpus(&parent, 2, 7).unwrap(),
                    XCleanConfig::default(),
                )
                .unwrap();
                again.fingerprint()
            });
        }

        #[test]
        fn suggest_many_matches_loop() {
            let parent = corpus();
            let shards = partition_corpus(&parent, 2, 7).unwrap();
            let engine = XCleanEngine::from_shards(
                shards,
                XCleanConfig {
                    epsilon: 2,
                    num_threads: 2,
                    ..Default::default()
                },
            )
            .unwrap();
            let queries = ["helth insurance", "smith", "qqqq"];
            let many = engine.suggest_many(&queries);
            assert_eq!(many.len(), queries.len());
            for (q, r) in queries.iter().zip(&many) {
                assert_same(&engine.suggest(q), r);
            }
        }
    }
}
