//! Sharded-vs-unsharded bit-identity at realistic corpus scale.
//!
//! The contract (ISSUE PR 9, DESIGN.md §16): for every shard count and
//! every worker-thread count, the sharded [`ShardedEngine`]
//! returns *bit-identical* responses — same suggestions, same order,
//! same `f64` score bits, same pruning decisions — to the plain
//! [`XCleanEngine`] over the unsharded parent corpus. The unit suite in
//! `crates/xclean/src/sharded.rs` pins this on a six-article corpus;
//! this suite re-pins it where the decomposition actually matters:
//!
//!  * a 1000-publication DBLP corpus (tier-1, always runs) across
//!    threads {1, 2, 8} × shards {1, 2, 4, 8};
//!  * a 5k-publication corpus from the large generator (the same scale
//!    `scale_100k.rs` uses for its non-ignored contracts), `#[ignore]`d
//!    so CI's release-mode `-- --ignored` run — not every `cargo test` —
//!    pays for it;
//!  * every semantics the engine ships: a 1-, 2- and 4-shard set of
//!    dblp-1000 and of the mixed-depth library answers as its parent under
//!    SLCA, ELCA and node-type with `min_depth` 1, and so does a 2-shard
//!    catalog entry opened under SLCA.
//!
//! Triage notes live in `tests/README.md` ("Sharded bit-identity").

use xclean_suite::datagen::{
    generate_dblp, generate_large_dblp, make_workload, DblpConfig, LargeDblpConfig, Perturbation,
    WorkloadSpec,
};
use xclean_suite::index::{partition_corpus, storage, CorpusIndex};
use xclean_suite::xclean::{
    Semantics, ShardedEngine, SuggestResponse, Telemetry, XCleanConfig, XCleanEngine,
};

mod support;

/// Full bit-level equality, score bits included: `==` on `f64` would
/// accept `-0.0 == 0.0` and reorderings that round the same way.
fn assert_bit_identical(q: &[String], a: &SuggestResponse, b: &SuggestResponse, what: &str) {
    assert_eq!(
        a.suggestions.len(),
        b.suggestions.len(),
        "{what}: q={q:?} suggestion count"
    );
    for (i, (x, y)) in a.suggestions.iter().zip(b.suggestions.iter()).enumerate() {
        assert_eq!(x.terms, y.terms, "{what}: q={q:?} rank {i} terms");
        assert_eq!(
            x.log_score.to_bits(),
            y.log_score.to_bits(),
            "{what}: q={q:?} rank {i} score bits ({} vs {})",
            x.log_score,
            y.log_score
        );
        assert_eq!(x.distances, y.distances, "{what}: q={q:?} rank {i}");
        assert_eq!(x.entity_count, y.entity_count, "{what}: q={q:?} rank {i}");
    }
    // Scoring effort must be conserved by the scatter — per-shard
    // counters sum to exactly the unsharded totals.
    assert_eq!(
        a.stats.candidates_enumerated, b.stats.candidates_enumerated,
        "{what}: q={q:?} candidates"
    );
    assert_eq!(
        a.stats.entities_scored, b.stats.entities_scored,
        "{what}: q={q:?} entities"
    );
    assert_eq!(a.stats.pruning, b.stats.pruning, "{what}: q={q:?} pruning");
}

fn workload(corpus: &CorpusIndex, n_queries: usize, seed: u64) -> Vec<Vec<String>> {
    let set = make_workload(
        corpus,
        &WorkloadSpec {
            n_queries,
            seed,
            ..WorkloadSpec::dblp(Perturbation::Rand)
        },
    );
    set.cases.into_iter().map(|c| c.dirty).collect()
}

/// Runs the full thread × shard matrix against one parent corpus.
/// `baseline_parent` is a second build of the same deterministic corpus
/// (`CorpusIndex` is intentionally not `Clone` — snapshots own slabs).
fn check_matrix(
    parent: CorpusIndex,
    baseline_parent: CorpusIndex,
    queries: &[Vec<String>],
    config: &XCleanConfig,
    what: &str,
) {
    let baseline = XCleanEngine::from_corpus(baseline_parent, config.clone());
    let expected: Vec<SuggestResponse> = queries
        .iter()
        .map(|q| baseline.suggest_keywords(q))
        .collect();
    for nshards in [1usize, 2, 4, 8] {
        for threads in [1usize, 2, 8] {
            let shards = partition_corpus(&parent, nshards, 42).unwrap();
            let cfg = XCleanConfig {
                num_threads: threads,
                ..config.clone()
            };
            let engine = ShardedEngine::from_shards(shards, cfg).unwrap();
            for (q, want) in queries.iter().zip(&expected) {
                let got = engine.suggest_keywords(q);
                assert_bit_identical(
                    q,
                    want,
                    &got,
                    &format!("{what} nshards={nshards} threads={threads}"),
                );
            }
            // The batch entry point must agree with query-at-a-time.
            let batch = engine.suggest_many_keywords(queries);
            for (q, (want, got)) in queries.iter().zip(expected.iter().zip(&batch)) {
                assert_bit_identical(
                    q,
                    want,
                    got,
                    &format!("{what} batch nshards={nshards} threads={threads}"),
                );
            }
        }
    }
}

fn dblp_1000() -> CorpusIndex {
    CorpusIndex::build(generate_dblp(&DblpConfig {
        publications: 1000,
        ..Default::default()
    }))
}

#[test]
fn dblp_1000_bit_identity_across_threads_and_shards() {
    let parent = dblp_1000();
    let queries = workload(&parent, 30, 9001);
    assert!(queries.len() >= 25, "workload too small: {}", queries.len());
    check_matrix(
        parent,
        dblp_1000(),
        &queries,
        &XCleanConfig::default(),
        "dblp-1000",
    );
}

#[test]
fn dblp_1000_bit_identity_under_binding_gamma() {
    // A binding γ budget makes the merge order observable: the replay
    // must reproduce the sequential table's evictions exactly.
    let parent = dblp_1000();
    let queries = workload(&parent, 15, 77);
    let config = XCleanConfig {
        gamma: Some(3),
        ..Default::default()
    };
    check_matrix(parent, dblp_1000(), &queries, &config, "dblp-1000/gamma=3");
}

#[test]
fn mixed_depth_library_bit_identity_at_and_below_the_gate() {
    // Shard-local paths of the gate's level-table entries must map to the
    // global ids the candidates' result types carry: at `min_depth` 2 the
    // gate is the shelf, at 3 the book with shelf text between entities,
    // and the queries' result types sit at and below either gate
    // (`cross_validation.rs::agreement_across_min_depths` asserts that).
    let build = || CorpusIndex::build(support::mixed_depth_library(12));
    let queries: Vec<Vec<String>> = support::LIBRARY_QUERIES
        .iter()
        .map(|q| q.split_whitespace().map(str::to_string).collect())
        .collect();
    for min_depth in [2, 3] {
        let config = XCleanConfig {
            epsilon: 1,
            min_depth,
            ..Default::default()
        };
        let what = format!("library/min_depth={min_depth}");
        check_matrix(build(), build(), &queries, &config, &what);
    }
}

/// The same matrix at 5k publications. Costs tens of seconds in release;
/// CI's build-and-test job opts in:
///
/// ```text
/// cargo test --release --test sharded_identity -- --ignored
/// ```
#[test]
#[ignore = "tens of seconds in release; CI runs it with --ignored"]
fn large_5k_bit_identity_across_threads_and_shards() {
    let build = || {
        CorpusIndex::build(generate_large_dblp(&LargeDblpConfig {
            publications: 5_000,
            ..Default::default()
        }))
    };
    let parent = build();
    let queries = workload(&parent, 20, 4242);
    check_matrix(
        parent,
        build(),
        &queries,
        &XCleanConfig::default(),
        "large-5k",
    );
}

/// The settings a set was once refused: SLCA, ELCA, and node-type with
/// `min_depth` 1.
const ONCE_REFUSED: [(Semantics, u32); 3] = [
    (Semantics::Slca, 2),
    (Semantics::Elca, 2),
    (Semantics::NodeType, 1),
];

/// A 1-, 2- and 4-shard set of `parent` under each of [`ONCE_REFUSED`]
/// answers as `baseline_parent` (a second build of it) does.
fn check_every_semantics(
    parent: CorpusIndex,
    baseline_parent: CorpusIndex,
    queries: &[Vec<String>],
    config: &XCleanConfig,
    what: &str,
) {
    let baseline_parent = std::sync::Arc::new(baseline_parent);
    for (semantics, min_depth) in ONCE_REFUSED {
        let config = XCleanConfig {
            min_depth,
            ..config.clone()
        };
        let baseline = XCleanEngine::from_shared(baseline_parent.clone(), config.clone())
            .with_semantics(semantics);
        for nshards in [1usize, 2, 4] {
            let shards = partition_corpus(&parent, nshards, 42).unwrap();
            let engine = XCleanEngine::from_shards(shards, config.clone())
                .unwrap()
                .with_semantics(semantics);
            let what = format!(
                "{what} {} min_depth={min_depth} nshards={nshards}",
                semantics.as_str()
            );
            let mut answered = 0;
            for q in queries {
                let want = baseline.suggest_keywords(q);
                assert_bit_identical(q, &want, &engine.suggest_keywords(q), &what);
                answered += usize::from(!want.suggestions.is_empty());
            }
            assert!(answered > 0, "{what}: no query has a suggestion");
        }
    }
}

#[test]
fn dblp_1000_bit_identity_under_every_semantics() {
    let parent = dblp_1000();
    let queries = workload(&parent, 15, 9001);
    check_every_semantics(
        parent,
        dblp_1000(),
        &queries,
        &XCleanConfig::default(),
        "dblp-1000",
    );
}

#[test]
fn mixed_depth_library_bit_identity_under_every_semantics() {
    let build = || CorpusIndex::build(support::mixed_depth_library(12));
    let queries: Vec<Vec<String>> = support::LIBRARY_QUERIES
        .iter()
        .map(|q| q.split_whitespace().map(str::to_string).collect())
        .collect();
    let config = XCleanConfig {
        epsilon: 1,
        ..Default::default()
    };
    check_every_semantics(build(), build(), &queries, &config, "library");
}

/// A set's snapshot files, opened together under SLCA, answer as the
/// parent does, and under their own fingerprint.
#[test]
fn a_catalog_set_opens_under_slca() {
    let parent = dblp_1000();
    let dir = std::env::temp_dir().join(format!("xclean-set-slca-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshots: Vec<_> = partition_corpus(&parent, 2, 42)
        .unwrap()
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let path = dir.join(format!("dblp-shard{i}-of-2.xci"));
            storage::save_to_file_v2(shard, &path).unwrap();
            path
        })
        .collect();
    let open = |semantics| {
        XCleanEngine::open(
            &snapshots,
            XCleanConfig::default(),
            semantics,
            Telemetry::disabled(),
        )
        .unwrap()
        .0
    };
    let (slca, node_type) = (open(Semantics::Slca), open(Semantics::NodeType));
    assert_eq!(slca.semantics(), Semantics::Slca);
    assert_eq!(slca.shard_count(), 2);
    assert_ne!(slca.fingerprint(), node_type.fingerprint());
    let baseline =
        XCleanEngine::from_corpus(parent, XCleanConfig::default()).with_semantics(Semantics::Slca);
    for q in workload(baseline.corpus(), 15, 31) {
        let what = "2-shard catalog entry under slca";
        assert_bit_identical(
            &q,
            &baseline.suggest_keywords(&q),
            &slca.suggest_keywords(&q),
            what,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
