//! Determinism harness for the parallel batched suggestion engine.
//!
//! The contract under test (DESIGN.md, "Concurrency & batching"): for any
//! worker-thread count, `suggest_many` returns *bit-identical* responses —
//! same suggestions, same order, same `f64` score bits — to calling the
//! sequential `suggest` path query by query. The corpus and the ~200-query
//! workload are generated from fixed seeds, so every run of this test (and
//! every machine) exercises the same inputs.

use xclean_suite::datagen::{generate_dblp, make_workload, DblpConfig, Perturbation, WorkloadSpec};
use xclean_suite::xclean::{SuggestResponse, XCleanConfig, XCleanEngine};

/// Builds the shared corpus and the mixed determinism workload:
/// ~200 queries drawn from all three perturbation families.
fn corpus_and_queries() -> (XCleanEngine, Vec<Vec<String>>) {
    let engine = XCleanEngine::new(
        generate_dblp(&DblpConfig {
            publications: 1200,
            ..Default::default()
        }),
        XCleanConfig::default(),
    );
    let mut queries = Vec::new();
    for (p, n, seed) in [
        (Perturbation::Clean, 60, 11),
        (Perturbation::Rand, 80, 22),
        (Perturbation::Rule, 60, 33),
    ] {
        let set = make_workload(
            engine.corpus(),
            &WorkloadSpec {
                n_queries: n,
                seed,
                ..WorkloadSpec::dblp(p)
            },
        );
        queries.extend(set.cases.into_iter().map(|c| c.dirty));
    }
    assert!(
        queries.len() >= 190,
        "workload came up short: {}",
        queries.len()
    );
    (engine, queries)
}

/// Exact (bit-level) equality of two responses, with a query label for
/// diagnosis. Timings are excluded — they are the only fields allowed to
/// differ between runs.
fn assert_identical(q: &[String], a: &SuggestResponse, b: &SuggestResponse) {
    let label = q.join(" ");
    assert_eq!(
        a.suggestions.len(),
        b.suggestions.len(),
        "suggestion count diverged for {label:?}"
    );
    for (i, (x, y)) in a.suggestions.iter().zip(b.suggestions.iter()).enumerate() {
        assert_eq!(x.terms, y.terms, "terms diverged at rank {i} for {label:?}");
        assert_eq!(
            x.log_score.to_bits(),
            y.log_score.to_bits(),
            "score bits diverged at rank {i} for {label:?}: {} vs {}",
            x.log_score,
            y.log_score
        );
        assert_eq!(x.tokens, y.tokens, "tokens diverged for {label:?}");
        assert_eq!(x.distances, y.distances, "distances diverged for {label:?}");
        assert_eq!(
            x.entity_count, y.entity_count,
            "entity count diverged for {label:?}"
        );
    }
    // Walk-level counters must replay identically as well.
    assert_eq!(
        a.stats.candidates_enumerated, b.stats.candidates_enumerated,
        "candidate enumeration diverged for {label:?}"
    );
    assert_eq!(
        a.stats.entities_scored, b.stats.entities_scored,
        "entities scored diverged for {label:?}"
    );
    assert_eq!(
        a.stats.access.skip_calls, b.stats.access.skip_calls,
        "cursor seek accounting diverged for {label:?}"
    );
    // The walk path is a function of the configuration alone.
    assert_eq!(
        a.stats.access.scan_postings() > 0,
        b.stats.access.scan_postings() > 0,
        "walk path diverged for {label:?}"
    );
    assert_eq!(
        (a.stats.subtrees, a.stats.access),
        (b.stats.subtrees, b.stats.access),
        "walk counters diverged for {label:?}"
    );
}

/// The tentpole guarantee: `suggest_many` at 1, 2, and 8 threads is
/// bit-identical to the sequential per-query path over the whole corpus.
#[test]
fn suggest_many_is_bit_identical_across_thread_counts() {
    let (engine, queries) = corpus_and_queries();
    // Both walk paths are on trial: the scan with skipping on, the linear
    // walk with it off.
    for enable_skipping in [true, false] {
        let sequential = XCleanEngine::from_shared(
            engine.corpus_shared(),
            XCleanConfig {
                enable_skipping,
                ..Default::default()
            },
        );
        let baseline: Vec<SuggestResponse> = queries
            .iter()
            .map(|q| sequential.suggest_keywords(q))
            .collect();
        let answered = baseline.iter().filter(|r| !r.suggestions.is_empty());
        let scans = answered
            .clone()
            .filter(|r| r.stats.access.scan_postings() > 0)
            .count();
        let expect = if enable_skipping { answered.count() } else { 0 };
        assert!(
            scans == expect && baseline.iter().any(|r| !r.suggestions.is_empty()),
            "skipping {enable_skipping}: {scans} of {} queries scan",
            baseline.len()
        );
        for threads in [1usize, 2, 8] {
            let pooled = XCleanEngine::from_shared(
                engine.corpus_shared(),
                XCleanConfig {
                    num_threads: threads,
                    enable_skipping,
                    ..Default::default()
                },
            );
            let batched = pooled.suggest_many_keywords(&queries);
            assert_eq!(batched.len(), queries.len());
            for (q, (a, b)) in queries.iter().zip(baseline.iter().zip(batched.iter())) {
                assert_identical(q, a, b);
            }
        }
    }
}

/// `num_threads` on the single-query path must be invisible in the
/// output: one query over one corpus runs on the calling thread whatever
/// the thread count says.
#[test]
fn single_query_parallel_scoring_is_bit_identical() {
    let (engine, queries) = corpus_and_queries();
    let parallel = XCleanEngine::from_shared(
        engine.corpus_shared(),
        XCleanConfig {
            num_threads: 4,
            ..Default::default()
        },
    );
    // A slice of the workload keeps this test fast; the batched test
    // above covers all ~200 queries.
    for q in queries.iter().take(40) {
        assert_identical(
            q,
            &engine.suggest_keywords(q),
            &parallel.suggest_keywords(q),
        );
    }
}

/// Bit-identity must survive a γ that actually binds: with γ = 4, real
/// ε=2 multi-keyword queries overflow the accumulator budget, and every
/// eviction and rejection depends on which candidates share the table.
/// Each query fills one table on one thread, so batch scheduling cannot
/// reach those decisions; pruning stats are compared too.
#[test]
fn binding_gamma_is_bit_identical_across_thread_counts() {
    let (engine, queries) = corpus_and_queries();
    let tight = XCleanConfig {
        gamma: Some(4),
        ..Default::default()
    };
    let sequential = XCleanEngine::from_shared(engine.corpus_shared(), tight.clone());
    let queries: Vec<Vec<String>> = queries.into_iter().take(60).collect();
    let baseline: Vec<SuggestResponse> = queries
        .iter()
        .map(|q| sequential.suggest_keywords(q))
        .collect();
    let mut pruned_somewhere = false;
    for threads in [2usize, 8] {
        let pooled = XCleanEngine::from_shared(
            engine.corpus_shared(),
            XCleanConfig {
                num_threads: threads,
                ..tight.clone()
            },
        );
        let batched = pooled.suggest_many_keywords(&queries);
        for (q, (a, b)) in queries.iter().zip(baseline.iter().zip(batched.iter())) {
            assert_identical(q, a, b);
            assert_eq!(
                a.stats.pruning,
                b.stats.pruning,
                "pruning outcome diverged for {:?}",
                q.join(" ")
            );
            pruned_somewhere |= b.stats.pruning.evictions > 0 || b.stats.pruning.rejected > 0;
        }
    }
    assert!(
        pruned_somewhere,
        "γ=4 never bound on this workload — the test exercises nothing"
    );
}

/// Repeated sequential runs are bit-identical too (no HashMap iteration
/// order, clock, or address-dependent behaviour leaks into scores).
#[test]
fn sequential_runs_are_reproducible() {
    let (engine, queries) = corpus_and_queries();
    for q in queries.iter().take(40) {
        let a = engine.suggest_keywords(q);
        let b = engine.suggest_keywords(q);
        assert_identical(q, &a, &b);
    }
}

/// What a *binding* γ costs in quality (the paper's Table V: flat from
/// γ = 10 up). Thread counts cannot touch a γ-decision, but γ itself
/// can: against the exact ranking (γ = `None`), over the queries on which
/// pruning actually fired, the pruned run must keep the exact top answer
/// first and rank it high when it does not.
#[test]
fn binding_gamma_keeps_the_exact_top_answer() {
    let (engine, queries) = corpus_and_queries();
    let with_gamma = |gamma| XCleanConfig {
        gamma,
        ..Default::default()
    };
    let exact: Vec<SuggestResponse> = queries
        .iter()
        .map(|q| engine.suggest_keywords_with(q, &with_gamma(None)))
        .collect();
    // (γ, queries pruning must fire on): measured 20 and 4 of ~200.
    for (gamma, min_pruned) in [(4, 15), (16, 3)] {
        let (mut pruned, mut top1, mut rr_sum) = (0usize, 0usize, 0.0f64);
        for (q, want) in queries.iter().zip(&exact) {
            let got = engine.suggest_keywords_with(q, &with_gamma(Some(gamma)));
            assert_eq!(want.stats.pruning, Default::default());
            if got.stats.pruning == Default::default() {
                continue;
            }
            // Pruning needs > γ candidates, so the exact run has a best.
            let best = &want.suggestions[0].tokens;
            pruned += 1;
            if let Some(rank) = got.suggestions.iter().position(|s| &s.tokens == best) {
                top1 += usize::from(rank == 0);
                rr_sum += 1.0 / (rank + 1) as f64;
            }
        }
        let (top1, mrr) = (top1 as f64 / pruned as f64, rr_sum / pruned as f64);
        assert!(pruned >= min_pruned, "γ={gamma} bound on only {pruned}");
        assert!(top1 >= 0.95, "γ={gamma}: top-1 agreement {top1}");
        assert!(mrr >= 0.95, "γ={gamma}: MRR vs exact {mrr}");
    }
}
