//! Suggestion serving over a sharded corpus.
//!
//! [`ShardedEngine`] answers the same queries as [`crate::XCleanEngine`],
//! bit for bit, while holding the corpus as N shard snapshots produced by
//! [`xclean_index::partition_corpus`]. It is a front over the same
//! [`Pipeline`]: this module validates a shard set and reconstructs the
//! whole-collection statistics; the pipeline then walks each query over
//! the shards in shard-id order, on the calling thread, through the
//! query's one candidate table into its one accumulator table, and ranks
//! exactly as over one corpus.
//!
//! # Why the walk is exact (DESIGN.md §16)
//!
//! Three facts compose into the bit-identity guarantee:
//!
//! 1. **Shards are contiguous document-order spans of entities.** With
//!    `min_depth ≥ 2` every gating subtree lies wholly inside one root
//!    child, hence inside exactly one shard, and the unsharded walk's
//!    sequence of qualifying subtrees is the concatenation of the
//!    per-shard sequences (the partitioner preserves preorder and depth).
//! 2. **Every shard scores with global statistics.** Each shard walk
//!    runs through a [`crate::view::Scoring`] scope that substitutes the
//!    reconstructed [`GlobalStats`] — global token/path ids, summed
//!    `cf`/`df`/`f_w^p`, whole-collection normalisers — so each
//!    per-entity `P(w|D(r))` product is computed from exactly the
//!    integers the unsharded corpus holds, in exactly the same order.
//! 3. **Shards walk in id order into one table.** By 1, walking the
//!    shards in id order feeds the query's one table the unsharded run's
//!    `add` sequence — every γ-eviction and rejection decision included.
//!    Candidate ids follow first enumeration over the whole set, as they
//!    do unsharded, and result-type inference reads only global
//!    statistics, so one type cache serves the whole set.
//!
//! Walk-effort counters (`subtrees`, posting I/O) are summed over shard
//! walks and legitimately differ from the unsharded engine's (each shard
//! runs its own anchor dynamics); the scoring counters
//! (`candidates_enumerated`, `result_type_computations`,
//! `entities_scored`) equal the unsharded run's.

use std::collections::HashMap;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use xclean_index::{CorpusIndex, LoadReport, PostingList, StorageError, TokenId, Vocabulary};
use xclean_xmltree::PathId;

use crate::config::XCleanConfig;
use crate::pipeline::{Pipeline, Semantics, Shard, ShardSet};
use crate::view::{GlobalStats, ABSENT_TOKEN};
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
    /// `min_depth` below 2 would let gating subtrees span shards,
    /// breaking the exact-merge contract.
    MinDepthTooShallow(u32),
    /// Global statistics reconstruction found a hole (a global token or
    /// path covered by no shard) — the set is corrupt or incomplete.
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
            ShardedEngineError::MinDepthTooShallow(d) => write!(
                f,
                "sharded serving requires min_depth >= 2 (got {d}): depth-{d} gating \
                 subtrees could span shard boundaries"
            ),
            ShardedEngineError::Coverage(m) => {
                write!(f, "global statistics reconstruction incomplete: {m}")
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
/// unsharded parent corpus, for every shard count and thread count (see
/// the module docs). All query entry points are the [`Pipeline`]'s,
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
    /// (complete ids, one parent, one tokenizer), reconstructs the global
    /// statistics by exact integer summation, and builds the variant
    /// index over the global vocabulary.
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

        let global = reconstruct_global_stats(&shards, &first)?;

        let handles: Vec<Shard> = shards
            .into_iter()
            .map(|s| {
                let meta = s.shard_meta().expect("checked above");
                let mut to_local_token = vec![ABSENT_TOKEN; first.global_vocab_len as usize];
                for (local, &g) in meta.token_map.iter().enumerate() {
                    to_local_token[g as usize] = local as u32;
                }
                let local_to_global_path = meta.path_map.iter().map(|&g| PathId(g)).collect();
                Shard {
                    corpus: Arc::new(s),
                    to_local_token,
                    local_to_global_path,
                }
            })
            .collect();
        let set = ShardSet {
            global,
            empty: PostingList::new(),
            seed: first.seed,
            parent_fingerprint: first.parent_fingerprint,
        };
        Ok(ShardedEngine {
            pipeline: Pipeline::new(handles, Some(set), config),
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

    fn set(&self) -> &ShardSet {
        self.pipeline
            .shard_set()
            .expect("a ShardedEngine's pipeline always carries its shard set")
    }

    /// The partitioner seed the set was built with.
    pub fn seed(&self) -> u64 {
        self.set().seed
    }

    /// Fingerprint of the parent corpus + partitioning parameters shared
    /// by every shard.
    pub fn parent_fingerprint(&self) -> u64 {
        self.set().parent_fingerprint
    }

    /// Display form (`/a/b/c`) of a global path id, for serving layers.
    pub fn path_display(&self, path: PathId) -> Option<&str> {
        self.set()
            .global
            .path_display
            .get(path.0 as usize)
            .map(String::as_str)
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

/// Rebuilds whole-collection statistics by exact integer summation over a
/// validated shard set (see the module docs: integer sums → every derived
/// `f64` is computed from the same integers as the unsharded corpus).
fn reconstruct_global_stats(
    shards: &[CorpusIndex],
    first: &xclean_index::ShardMeta,
) -> Result<GlobalStats, ShardedEngineError> {
    let vocab_len = first.global_vocab_len as usize;
    let path_len = first.global_path_len as usize;

    // Vocabulary: terms via the token maps (cross-checked between
    // shards), cf/df summed. Every global term occurs in ≥ 1 shard
    // because all indexed text lives at depth ≥ 2.
    let mut terms: Vec<Option<String>> = vec![None; vocab_len];
    let mut cf = vec![0u64; vocab_len];
    let mut df = vec![0u64; vocab_len];
    // Per-path tables; the root path needs clamping below.
    let mut path_depths = vec![u32::MAX; path_len];
    let mut path_display: Vec<Option<String>> = vec![None; path_len];
    let mut node_counts = vec![0u64; path_len];
    let mut doc_len_totals = vec![0u64; path_len];
    // f_w^p accumulation keyed (global token, global path).
    let mut paths_of: Vec<HashMap<PathId, u64>> = vec![HashMap::new(); vocab_len];

    let mut root_gpath: Option<PathId> = None;
    for s in shards {
        let meta = s.shard_meta().expect("validated by from_shards");
        for local in 0..s.vocab().len() as u32 {
            let g = meta.token_map[local as usize] as usize;
            if g >= vocab_len {
                return Err(ShardedEngineError::Coverage(format!(
                    "shard {} maps local token {local} to out-of-range global id {g}",
                    meta.shard_id
                )));
            }
            let term = s.vocab().term(TokenId(local));
            match &terms[g] {
                None => terms[g] = Some(term.to_string()),
                Some(t) if t == term => {}
                Some(t) => {
                    return Err(ShardedEngineError::Coverage(format!(
                        "global token {g} is {t:?} in one shard but {term:?} in shard {}",
                        meta.shard_id
                    )))
                }
            }
            cf[g] += s.vocab().cf(TokenId(local));
            df[g] += s.vocab().df(TokenId(local));
            for &(local_path, f) in s.path_stats().paths_of(TokenId(local)) {
                let gp = PathId(meta.path_map[local_path.0 as usize]);
                *paths_of[g].entry(gp).or_insert(0) += u64::from(f);
            }
        }
        let tree = s.tree();
        let shard_root_gpath = PathId(meta.path_map[tree.path(tree.root()).0 as usize]);
        match root_gpath {
            None => root_gpath = Some(shard_root_gpath),
            Some(r) if r == shard_root_gpath => {}
            Some(r) => {
                return Err(ShardedEngineError::Coverage(format!(
                    "shards disagree on the root path (global id {} vs {})",
                    r.0, shard_root_gpath.0
                )))
            }
        }
        for local in 0..tree.paths().len() as u32 {
            let g = meta.path_map[local as usize] as usize;
            if g >= path_len {
                return Err(ShardedEngineError::Coverage(format!(
                    "shard {} maps local path {local} to out-of-range global id {g}",
                    meta.shard_id
                )));
            }
            let lp = PathId(local);
            let depth = tree.paths().depth(lp);
            if path_depths[g] == u32::MAX {
                path_depths[g] = depth;
                path_display[g] = Some(tree.paths().display(lp, tree.labels()));
            } else if path_depths[g] != depth {
                return Err(ShardedEngineError::Coverage(format!(
                    "global path {g} has depth {} in one shard but {depth} in shard {}",
                    path_depths[g], meta.shard_id
                )));
            }
            node_counts[g] += s.count_nodes_of_path(lp) as u64;
            // Doc-length totals sum exactly even for the root path: each
            // shard root's virtual document is the shard's token total,
            // and those sum to the parent corpus's total.
            doc_len_totals[g] += s.path_doc_len_total(lp);
        }
    }

    let root_gpath = root_gpath.expect("at least one shard");
    // The parent corpus has exactly one root node; every shard
    // contributed its replicated copy.
    node_counts[root_gpath.0 as usize] = 1;

    let terms: Vec<String> = terms
        .into_iter()
        .enumerate()
        .map(|(g, t)| {
            t.ok_or_else(|| {
                ShardedEngineError::Coverage(format!("global token {g} occurs in no shard"))
            })
        })
        .collect::<Result<_, _>>()?;
    for (g, &d) in path_depths.iter().enumerate() {
        if d == u32::MAX {
            return Err(ShardedEngineError::Coverage(format!(
                "global path {g} occurs in no shard"
            )));
        }
    }

    let paths_of: Vec<Vec<(PathId, u32)>> = paths_of
        .into_iter()
        .map(|m| {
            let mut list: Vec<(PathId, u32)> = m
                .into_iter()
                .map(|(p, f)| {
                    // f_w^root is the count of root nodes containing w: 1
                    // in the parent corpus, but each shard root counts
                    // itself — clamp the sum back. Non-root paths hold
                    // disjoint node sets across shards, so their sums are
                    // the exact parent values (which fit u32).
                    let f = if p == root_gpath { 1 } else { f };
                    (p, f as u32)
                })
                .collect();
            list.sort_unstable_by_key(|&(p, _)| p);
            list
        })
        .collect();

    // The global vocabulary is a view over the VOCAB section the index
    // builder would write for these terms.
    let vocab = Vocabulary::encoded(&terms, &cf, &df)
        .map_err(|e| ShardedEngineError::Coverage(format!("global vocabulary: {e}")))?;
    Ok(GlobalStats {
        vocab,
        paths_of,
        path_depths,
        path_display: path_display
            .into_iter()
            .map(|d| d.expect("coverage checked above"))
            .collect(),
        path_node_counts: node_counts
            .iter()
            .map(|&c| u32::try_from(c).unwrap_or(u32::MAX))
            .collect(),
        path_doc_len_totals: doc_len_totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SuggestResponse, XCleanEngine};
    use xclean_index::partition_corpus;
    use xclean_xmltree::parse_document;

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
                    // Scoring-effort counters sum exactly across shards,
                    // and one type cache spans the set.
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
        // γ=1 forces evictions; the shard-by-shard walk must reproduce
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

    #[test]
    fn global_stats_match_parent_corpus() {
        let parent = corpus();
        let shards = partition_corpus(&parent, 3, 7).unwrap();
        let engine = ShardedEngine::from_shards(shards, XCleanConfig::default()).unwrap();
        assert_eq!(engine.vocab().len(), parent.vocab().len());
        assert_eq!(engine.vocab().total_tokens(), parent.vocab().total_tokens());
        for t in 0..parent.vocab().len() as u32 {
            let t = TokenId(t);
            assert_eq!(engine.vocab().term(t), parent.vocab().term(t));
            assert_eq!(engine.vocab().cf(t), parent.vocab().cf(t));
            assert_eq!(engine.vocab().df(t), parent.vocab().df(t));
            // f_w^p lists match the parent's exactly, root included.
            assert_eq!(
                engine.set().global.paths_of[t.index()],
                parent.path_stats().paths_of(t),
                "token {t:?}"
            );
        }
        for p in 0..parent.tree().paths().len() as u32 {
            let p = PathId(p);
            assert_eq!(
                engine.set().global.path_node_counts[p.0 as usize] as usize,
                parent.count_nodes_of_path(p)
            );
            assert_eq!(
                engine.set().global.path_doc_len_totals[p.0 as usize],
                parent.path_doc_len_total(p)
            );
            assert_eq!(
                engine.set().global.path_depths[p.0 as usize],
                parent.tree().paths().depth(p)
            );
            assert_eq!(
                engine.path_display(p).unwrap(),
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
