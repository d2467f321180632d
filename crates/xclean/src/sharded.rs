//! Suggestion serving over a sharded corpus.
//!
//! [`ShardedEngine`] answers the same queries as [`crate::XCleanEngine`],
//! bit for bit, while the corpus arrives as N shard snapshots produced by
//! [`xclean_index::partition_corpus`]. It is a front over the same
//! [`Pipeline`]: this module validates a shard set and reads it back as
//! the parent corpus ([`xclean_index::reassemble_parent`]); the pipeline
//! then serves that corpus exactly as it serves any other.
//!
//! # A set is read back as its parent (DESIGN.md §16)
//!
//! A shard is a contiguous document-order span of the parent root's
//! children under a copy of the root, and its maps name the parent's id
//! of every local token and path. Laying the shards' nodes after one root
//! in id order rebuilds the parent's tree node for node; appending each
//! shard's lists at the mapped token ids, node ids moved to its span,
//! rebuilds the parent's lists; `cf`/`df` and the per-node token counts
//! are exact integers summed or copied. The corpus encoded from those is
//! the parent's, byte for byte — `tests/shard_readback.rs` pins the v2
//! bytes equal at 1–8 shards — so every response is bit-identical to the
//! unsharded engine's because it is the same computation over the same
//! bytes. The served bytes are owned: the mapped shard files are dropped
//! once read.

use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use xclean_index::{reassemble_parent, CorpusIndex, LoadReport, ShardError, StorageError};

use crate::config::XCleanConfig;
use crate::pipeline::{Pipeline, Semantics, ShardSet};
use crate::Telemetry;

/// Why a shard set could not be assembled into an engine.
#[derive(Debug)]
pub enum ShardedEngineError {
    /// The shard list was empty.
    NoShards,
    /// A corpus in the list carries no shard metadata (not a shard).
    MissingMeta {
        /// Position in the input list.
        index: usize,
    },
    /// The shards do not form one complete set (duplicate/missing ids,
    /// mixed seeds or parent fingerprints, inconsistent global sizes).
    MetaMismatch(String),
    /// Shards were built with different tokenisation policies.
    TokenizerMismatch,
    /// `min_depth` below 2: a set serves gates at depth 2 and below, where
    /// every gating subtree lies inside one shard.
    MinDepthTooShallow(u32),
    /// The set does not read back as one corpus (a map points outside the
    /// set, shards disagree, or some of the parent is held by no shard) —
    /// the set is corrupt or incomplete. The message names the shard.
    Coverage(String),
    /// A shard set was asked for SLCA or ELCA semantics; a set's walk is
    /// the node-type rule.
    NodeTypeOnly(Semantics),
    /// A snapshot failed to open.
    Snapshot {
        /// The offending file.
        path: String,
        /// The underlying storage error.
        source: StorageError,
    },
}

impl std::fmt::Display for ShardedEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedEngineError::NoShards => write!(f, "no shards provided"),
            ShardedEngineError::MissingMeta { index } => {
                write!(f, "corpus at position {index} carries no shard metadata")
            }
            ShardedEngineError::MetaMismatch(m) => write!(f, "inconsistent shard set: {m}"),
            ShardedEngineError::TokenizerMismatch => {
                write!(f, "shards disagree on the tokenisation policy")
            }
            ShardedEngineError::MinDepthTooShallow(d) => {
                write!(f, "sharded serving requires min_depth >= 2 (got {d})")
            }
            ShardedEngineError::Coverage(m) => {
                write!(f, "shard set does not read back as one corpus: {m}")
            }
            ShardedEngineError::NodeTypeOnly(s) => write!(
                f,
                "a shard set answers with node-type semantics only (asked for {})",
                s.as_str()
            ),
            ShardedEngineError::Snapshot { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for ShardedEngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardedEngineError::Snapshot { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// XClean engine over a shard set (node-type semantics —
/// there is no `with_semantics` here, so a set is node-type by type).
///
/// Built from in-memory shard corpora ([`ShardedEngine::from_shards`]) or
/// straight from snapshot files ([`ShardedEngine::load_snapshots`]).
/// Responses are bit-identical to an [`crate::XCleanEngine`] over the
/// unsharded parent corpus, for every shard count and thread count: the
/// engine serves that corpus, read back from the shards (see the module
/// docs). All query entry points are the [`Pipeline`]'s,
/// reached through `Deref`.
#[derive(Debug)]
pub struct ShardedEngine {
    pipeline: Arc<Pipeline>,
}

impl Deref for ShardedEngine {
    type Target = Pipeline;

    fn deref(&self) -> &Pipeline {
        &self.pipeline
    }
}

impl ShardedEngine {
    /// Assembles an engine from one complete shard set. Validates the set
    /// (complete ids, one parent, one tokenizer), reads it back as the
    /// parent corpus ([`reassemble_parent`], which drops each shard once
    /// read), and builds the variant index over its vocabulary.
    pub fn from_shards(
        shards: Vec<CorpusIndex>,
        config: XCleanConfig,
    ) -> Result<Self, ShardedEngineError> {
        if config.min_depth < 2 {
            return Err(ShardedEngineError::MinDepthTooShallow(config.min_depth));
        }
        if shards.is_empty() {
            return Err(ShardedEngineError::NoShards);
        }
        for (i, s) in shards.iter().enumerate() {
            if s.shard_meta().is_none() {
                return Err(ShardedEngineError::MissingMeta { index: i });
            }
        }
        let mut shards = shards;
        shards.sort_by_key(|s| s.shard_meta().expect("checked above").shard_id);

        let first = shards[0].shard_meta().expect("checked above").clone();
        if first.shard_count as usize != shards.len() {
            return Err(ShardedEngineError::MetaMismatch(format!(
                "set declares {} shards but {} were provided",
                first.shard_count,
                shards.len()
            )));
        }
        for (i, s) in shards.iter().enumerate() {
            let m = s.shard_meta().expect("checked above");
            if m.shard_id as usize != i {
                return Err(ShardedEngineError::MetaMismatch(format!(
                    "shard ids are not exactly 0..{} (found duplicate or gap at id {})",
                    shards.len(),
                    m.shard_id
                )));
            }
            if m.shard_count != first.shard_count
                || m.seed != first.seed
                || m.parent_fingerprint != first.parent_fingerprint
                || m.global_vocab_len != first.global_vocab_len
                || m.global_path_len != first.global_path_len
            {
                return Err(ShardedEngineError::MetaMismatch(format!(
                    "shard {} does not belong to the same set as shard 0 \
                     (seed/fingerprint/global sizes differ)",
                    m.shard_id
                )));
            }
            if s.tokenizer().config() != shards[0].tokenizer().config() {
                return Err(ShardedEngineError::TokenizerMismatch);
            }
            if m.token_map.len() != s.vocab().len() {
                return Err(ShardedEngineError::MetaMismatch(format!(
                    "shard {}: token map covers {} of {} local tokens",
                    m.shard_id,
                    m.token_map.len(),
                    s.vocab().len()
                )));
            }
            if m.path_map.len() != s.tree().paths().len() {
                return Err(ShardedEngineError::MetaMismatch(format!(
                    "shard {}: path map covers {} of {} local paths",
                    m.shard_id,
                    m.path_map.len(),
                    s.tree().paths().len()
                )));
            }
        }

        // What the fingerprint keeps of the shards, taken before they go.
        let set = ShardSet {
            seed: first.seed,
            parent_fingerprint: first.parent_fingerprint,
            shards: shards
                .iter()
                .map(|s| (s.tree().len() as u64, s.provenance()))
                .collect(),
        };
        let corpus = reassemble_parent(shards).map_err(|e| {
            ShardedEngineError::Coverage(match e {
                ShardError::Coverage(m) => m,
                e => e.to_string(),
            })
        })?;
        Ok(ShardedEngine {
            pipeline: Pipeline::new(Arc::new(corpus), Some(set), config),
        })
    }

    /// Opens every snapshot path ([`open_snapshots`]) and assembles the
    /// set, recording each snapshot's open/validate timings in the
    /// engine's registry.
    pub fn load_snapshots<P: AsRef<Path>>(
        paths: &[P],
        config: XCleanConfig,
    ) -> Result<Self, ShardedEngineError> {
        let (shards, reports) = open_snapshots(paths)?;
        let engine = Self::from_shards(shards, config)?;
        for report in &reports {
            engine.record_snapshot_timings(report);
        }
        Ok(engine)
    }

    /// Attaches a telemetry bundle (mirrors
    /// [`crate::XCleanEngine::with_telemetry`]).
    pub fn with_telemetry(self, telemetry: Telemetry) -> Self {
        ShardedEngine {
            pipeline: Pipeline::with_telemetry(self.pipeline, telemetry),
        }
    }

    /// The pipeline this engine fronts (what a serving layer holds).
    pub fn pipeline(&self) -> &Arc<Pipeline> {
        &self.pipeline
    }
}

/// Opens every snapshot path in order; a snapshot that fails to open
/// reports its own path.
pub(crate) fn open_snapshots<P: AsRef<Path>>(
    paths: &[P],
) -> Result<(Vec<CorpusIndex>, Vec<LoadReport>), ShardedEngineError> {
    paths
        .iter()
        .map(|p| {
            let p = p.as_ref();
            xclean_index::storage::open_file(p, &xclean_index::OpenOptions::default()).map_err(
                |source| ShardedEngineError::Snapshot {
                    path: p.display().to_string(),
                    source,
                },
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map(|opened| opened.into_iter().unzip())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SuggestResponse, XCleanEngine};
    use xclean_index::{partition_corpus, ShardMeta, TokenId};
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
                let engine = ShardedEngine::from_shards(shards, cfg).unwrap();
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
            let engine = ShardedEngine::from_shards(shards, config.clone()).unwrap();
            for q in ["helth insurance", "health insurrance"] {
                let a = baseline.suggest(q);
                let b = engine.suggest(q);
                assert_same(&a, &b);
                assert_eq!(a.stats.pruning, b.stats.pruning, "q={q} nshards={nshards}");
            }
        }
    }

    #[test]
    fn rejects_incomplete_and_mixed_sets() {
        let parent = corpus();
        let mut shards = partition_corpus(&parent, 3, 7).unwrap();
        shards.remove(1);
        assert!(matches!(
            ShardedEngine::from_shards(shards, XCleanConfig::default()),
            Err(ShardedEngineError::MetaMismatch(_))
        ));
        // Mixed seeds → different parent fingerprints.
        let mut mixed = partition_corpus(&parent, 2, 7).unwrap();
        mixed[1] = partition_corpus(&parent, 2, 8).unwrap().remove(1);
        assert!(matches!(
            ShardedEngine::from_shards(mixed, XCleanConfig::default()),
            Err(ShardedEngineError::MetaMismatch(_))
        ));
        // A plain corpus is not a shard.
        assert!(matches!(
            ShardedEngine::from_shards(vec![corpus()], XCleanConfig::default()),
            Err(ShardedEngineError::MissingMeta { index: 0 })
        ));
        assert!(matches!(
            ShardedEngine::from_shards(Vec::new(), XCleanConfig::default()),
            Err(ShardedEngineError::NoShards)
        ));
    }

    #[test]
    fn rejects_shallow_min_depth() {
        let parent = corpus();
        let shards = partition_corpus(&parent, 2, 7).unwrap();
        let config = XCleanConfig {
            min_depth: 1,
            ..Default::default()
        };
        assert!(matches!(
            ShardedEngine::from_shards(shards, config),
            Err(ShardedEngineError::MinDepthTooShallow(1))
        ));
    }

    /// The message of the [`ShardedEngineError::Coverage`] refusal of a
    /// 2-shard set whose shard 1 carries the metadata `edit` makes.
    fn coverage_refusal(edit: impl FnOnce(&CorpusIndex, &mut ShardMeta)) -> String {
        let mut shards = partition_corpus(&corpus(), 2, 7).unwrap();
        let second = shards.pop().unwrap();
        let mut meta = second.shard_meta().unwrap().clone();
        edit(&second, &mut meta);
        shards.push(second.with_shard_meta(meta));
        match ShardedEngine::from_shards(shards, XCleanConfig::default()) {
            Err(ShardedEngineError::Coverage(m)) => m,
            other => panic!("expected a Coverage refusal, got {other:?}"),
        }
    }

    /// Two local tokens of `shard` whose terms shard 0 of the set holds too.
    fn shared_tokens(shard: &CorpusIndex) -> (usize, usize) {
        let first = &partition_corpus(&corpus(), 2, 7).unwrap()[0];
        let mut shared = (0..shard.vocab().len()).filter(|&t| {
            first
                .vocab()
                .get(shard.vocab().term(TokenId(t as u32)))
                .is_some()
        });
        (shared.next().unwrap(), shared.next().unwrap())
    }

    #[test]
    fn sets_that_do_not_read_back_as_one_corpus_are_refused() {
        // A token map pointing past the set's vocabulary.
        let m = coverage_refusal(|_, meta| meta.token_map[0] = meta.global_vocab_len);
        assert!(m.contains("shard 1") && m.contains("out-of-range"), "{m}");
        // Two shards naming one global token by different terms.
        let m = coverage_refusal(|shard, meta| {
            let (a, b) = shared_tokens(shard);
            meta.token_map.swap(a, b);
        });
        assert!(
            m.contains("shard 1") && m.contains("an earlier shard"),
            "{m}"
        );
        // Two local tokens of one shard mapped to one global token.
        let m = coverage_refusal(|_, meta| meta.token_map[1] = meta.token_map[0]);
        assert!(
            m.contains("shard 1") && m.contains("two local tokens"),
            "{m}"
        );
        // A global token no shard holds: the set declares one more, or so
        // many that no table may be sized by the claim (every shard must
        // agree on the size, or the set is mixed).
        let hole = corpus().vocab().len() as u32;
        for (declared, names) in [
            (hole + 1, format!("global token {hole}")),
            (u32::MAX, "declares".into()),
        ] {
            let shards = partition_corpus(&corpus(), 2, 7)
                .unwrap()
                .into_iter()
                .map(|s| {
                    let mut meta = s.shard_meta().unwrap().clone();
                    meta.global_vocab_len = declared;
                    s.with_shard_meta(meta)
                });
            match ShardedEngine::from_shards(shards.collect(), XCleanConfig::default()) {
                Err(ShardedEngineError::Coverage(m)) => assert!(m.contains(&names), "{m}"),
                other => panic!("expected a Coverage refusal, got {other:?}"),
            }
        }
        // Shards whose roots map to different global paths.
        let m = coverage_refusal(|shard, meta| {
            let root = shard.tree().path(shard.tree().root()).0 as usize;
            meta.path_map[root] += 1;
        });
        assert!(m.contains("shard 1") && m.contains("root path"), "{m}");
        // A node whose reassembled path is not its path map's.
        let m = coverage_refusal(|_, meta| {
            let last = meta.path_map.len() - 1;
            meta.path_map.swap(last - 1, last);
        });
        assert!(m.contains("shard 1") && m.contains("reassembles to"), "{m}");
    }

    /// The collection statistics a set scores with are its parent's:
    /// term, cf, df and f_w^p per token; node count, summed document
    /// length, depth and display per path.
    #[test]
    fn global_stats_match_parent_corpus() {
        let parent = corpus();
        let shards = partition_corpus(&parent, 3, 7).unwrap();
        let engine = ShardedEngine::from_shards(shards, XCleanConfig::default()).unwrap();
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
        let dir = std::env::temp_dir().join(format!("xclean-sharded-test-{}", std::process::id()));
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
        let from_mem = ShardedEngine::from_shards(shards, config.clone()).unwrap();
        let from_disk = ShardedEngine::load_snapshots(&paths, config).unwrap();
        assert_same(
            &from_mem.suggest("helth insurance"),
            &from_disk.suggest("helth insurance"),
        );
        // Missing file errors name the offending path.
        let missing = dir.join("shard-9.xci");
        let err = ShardedEngine::load_snapshots(
            &[paths[0].clone(), missing.clone()],
            XCleanConfig::default(),
        )
        .unwrap_err();
        match err {
            ShardedEngineError::Snapshot { path, .. } => {
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
        let e2 = ShardedEngine::from_shards(
            partition_corpus(&parent, 2, 7).unwrap(),
            XCleanConfig::default(),
        )
        .unwrap();
        let e3 = ShardedEngine::from_shards(three, XCleanConfig::default()).unwrap();
        assert_ne!(e2.fingerprint(), e3.fingerprint());
        let beta = ShardedEngine::from_shards(
            partition_corpus(&parent, 2, 7).unwrap(),
            XCleanConfig {
                beta: 4.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(e2.fingerprint(), beta.fingerprint());
        assert_eq!(e2.fingerprint(), {
            let again = ShardedEngine::from_shards(
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
        let engine = ShardedEngine::from_shards(
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
