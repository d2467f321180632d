//! Explain-mode neutrality: running the diagnostics plane must leave
//! served suggestions byte-identical — same terms, same `f64` score
//! *bits*, same distances and entity counts — at every thread count, on
//! both the unsharded and the sharded engine (ISSUE 10 acceptance
//! criterion) — and the one-pipeline matrix: every entry point of every
//! engine shape is the same run (ISSUE 14).

use xclean::telemetry::names;
use xclean::{run_xclean, Semantics, Telemetry, XCleanConfig, XCleanEngine};
use xclean_index::{partition_corpus, CorpusIndex};
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

const QUERIES: &[&str] = &[
    "helth insurance",
    "health insurrance",
    "geo taging",
    "smith",
    "qqqq zzzz",
];

fn assert_bit_identical(
    served: &[xclean::Suggestion],
    explained: &[xclean::Suggestion],
    context: &str,
) {
    assert_eq!(served.len(), explained.len(), "{context}");
    for (a, b) in served.iter().zip(explained) {
        assert_eq!(a.terms, b.terms, "{context}");
        assert_eq!(
            a.log_score.to_bits(),
            b.log_score.to_bits(),
            "{context}: score bits must match exactly"
        );
        assert_eq!(a.distances, b.distances, "{context}");
        assert_eq!(a.entity_count, b.entity_count, "{context}");
    }
}

#[test]
fn explain_is_neutral_on_the_unsharded_engine() {
    for threads in [1usize, 8] {
        let engine = XCleanEngine::from_corpus(
            corpus(),
            XCleanConfig {
                epsilon: 2,
                num_threads: threads,
                ..Default::default()
            },
        );
        for q in QUERIES {
            let ctx = format!("unsharded threads={threads} q={q}");
            // Diagnostics fully off.
            let before = engine.suggest(q);
            // Diagnostics fully on: run explain, then serve again.
            let trace = engine.explain(q);
            let after = engine.suggest(q);
            assert_bit_identical(&before.suggestions, &trace.suggestions, &ctx);
            assert_bit_identical(&before.suggestions, &after.suggestions, &ctx);
        }
    }
}

/// Everything of a trace but its wall times, score and estimate bits
/// included: `Debug` prints every `f64` round-trip exact.
fn trace_facts(trace: &xclean::ExplainTrace) -> String {
    format!(
        "{:?}",
        (
            &trace.keywords,
            trace.semantics,
            trace.gamma,
            trace.stages,
            &trace.evictions,
            trace.eviction_events_total,
            &trace.suggestions,
        )
    )
}

#[test]
fn explain_is_neutral_on_the_sharded_engine() {
    let parent = corpus();
    for threads in [1usize, 8] {
        let unsharded = XCleanEngine::from_corpus(
            corpus(),
            XCleanConfig {
                epsilon: 2,
                num_threads: threads,
                ..Default::default()
            },
        );
        let shards = partition_corpus(&parent, 4, 7).unwrap();
        let engine = XCleanEngine::from_shards(
            shards,
            XCleanConfig {
                epsilon: 2,
                num_threads: threads,
                ..Default::default()
            },
        )
        .unwrap();
        for q in QUERIES {
            let ctx = format!("4-shard threads={threads} q={q}");
            let before = engine.suggest(q);
            let trace = engine.explain(q);
            let after = engine.suggest(q);
            assert_bit_identical(&before.suggestions, &trace.suggestions, &ctx);
            assert_bit_identical(&before.suggestions, &after.suggestions, &ctx);
            // A set is served as its parent corpus: its trace is the
            // parent's in every field but the wall times.
            let parent_trace = unsharded.explain(q);
            assert_eq!(trace_facts(&trace), trace_facts(&parent_trace), "{ctx}");
        }
    }
}

#[test]
fn explain_matches_under_binding_gamma_on_both_engines() {
    // γ=1 forces evictions; explain's observed table must reproduce the
    // serving decisions exactly on both engine shapes.
    let parent = corpus();
    let config = XCleanConfig {
        epsilon: 2,
        gamma: Some(1),
        ..Default::default()
    };
    let unsharded = XCleanEngine::from_corpus(corpus(), config.clone());
    let sharded =
        XCleanEngine::from_shards(partition_corpus(&parent, 4, 7).unwrap(), config).unwrap();
    for q in ["helth insurance", "health insurrance"] {
        let served_u = unsharded.suggest(q);
        let trace_u = unsharded.explain(q);
        assert_bit_identical(&served_u.suggestions, &trace_u.suggestions, q);
        assert_eq!(trace_u.stages.evictions, served_u.stats.pruning.evictions);
        assert_eq!(trace_u.stages.rejected, served_u.stats.pruning.rejected);
        let served_s = sharded.suggest(q);
        let trace_s = sharded.explain(q);
        assert_bit_identical(&served_s.suggestions, &trace_s.suggestions, q);
        assert_eq!(trace_s.stages.evictions, served_s.stats.pruning.evictions);
        assert_eq!(trace_s.stages.rejected, served_s.stats.pruning.rejected);
        // Cross-shape: sharded and unsharded traces agree on suggestions.
        assert_bit_identical(&trace_u.suggestions, &trace_s.suggestions, q);
    }
}

/// One pipeline, one answer: over {one corpus, 1-shard set, 4-shard set}
/// × threads {1, 8} × γ {unbounded, binding}, `suggest`, `suggest_many`
/// and `explain` agree bit for bit with each other and with the top-k of
/// the free `run_xclean` over the unsharded parent; explain accounts for
/// every contribution and moves no serving counter.
#[test]
fn every_entry_point_of_every_shape_is_the_same_run() {
    let parent = corpus();
    for gamma in [None, Some(1)] {
        for threads in [1usize, 8] {
            let config = XCleanConfig {
                epsilon: 2,
                gamma,
                num_threads: threads,
                ..Default::default()
            };
            let unsharded = XCleanEngine::from_corpus(corpus(), config.clone());
            let sharded = |n| {
                let shards = partition_corpus(&parent, n, 7).unwrap();
                XCleanEngine::from_shards(shards, config.clone()).unwrap()
            };
            let (one_shard, four_shards) = (
                sharded(1),
                sharded(4).with_telemetry(Telemetry::with_tracing()),
            );
            let shapes: [(&str, &XCleanEngine); 3] = [
                ("unsharded", &unsharded),
                ("1-shard", &one_shard),
                ("4-shard", &four_shards),
            ];
            for (shape, engine) in shapes {
                let batch = engine.suggest_many(QUERIES);
                for (q, batched) in QUERIES.iter().zip(&batch) {
                    let ctx = format!("{shape} threads={threads} gamma={gamma:?} q={q}");
                    let served = engine.suggest(q);
                    assert_bit_identical(&served.suggestions, &batched.suggestions, &ctx);

                    let queries_before = engine.metrics().counter_value(names::QUERIES);
                    let trace = engine.explain(q);
                    assert_eq!(
                        engine.metrics().counter_value(names::QUERIES),
                        queries_before,
                        "{ctx}: explain must not count as a served query"
                    );
                    assert_bit_identical(&served.suggestions, &trace.suggestions, &ctx);
                    assert_eq!(
                        trace.stages.contributions, served.stats.entities_scored,
                        "{ctx}: every scored entity is one contribution"
                    );
                    assert_eq!(
                        trace.eviction_events_total,
                        served.stats.pruning.evictions + served.stats.pruning.rejected,
                        "{ctx}: explain observes exactly the served γ-decisions"
                    );

                    let slots = unsharded.make_slots(&unsharded.parse_query(q));
                    let free = run_xclean(&parent, &slots, &config);
                    let top_k = free.candidates.iter().take(config.k);
                    assert_eq!(served.suggestions.len(), top_k.len(), "{ctx}");
                    for (s, c) in served.suggestions.iter().zip(top_k) {
                        let terms: Vec<&str> =
                            c.tokens.iter().map(|&t| parent.vocab().term(t)).collect();
                        assert_eq!(s.terms, terms, "{ctx}");
                        assert_eq!(s.log_score.to_bits(), c.log_score.to_bits(), "{ctx}");
                        assert_eq!(s.distances, c.distances, "{ctx}");
                        assert_eq!(s.entity_count, c.entity_count, "{ctx}");
                    }
                }
            }
            // A query over the shard set is one walk at every thread
            // count: each query that walks opens exactly one
            // `walk_accumulate` span, on its own `suggest` span's thread,
            // directly under it — whether `suggest` or a batch worker ran it.
            let spans = four_shards.tracer().finished_spans();
            let walks_query = |keywords: &str| {
                let slots = unsharded.make_slots(&unsharded.parse_query(keywords));
                !slots.is_empty() && slots.iter().all(|s| !s.variants.is_empty())
            };
            let suggests: Vec<_> = spans.iter().filter(|s| s.name == "suggest").collect();
            assert_eq!(suggests.len(), 2 * QUERIES.len(), "threads={threads}");
            let mut walked = 0;
            for query in suggests {
                let keywords = query.detail.as_deref().unwrap_or_default();
                let walks: Vec<_> = spans
                    .iter()
                    .filter(|s| s.name == "walk_accumulate" && s.parent == Some(query.id))
                    .collect();
                let ctx = format!("threads={threads} q={keywords}");
                assert_eq!(walks.len(), usize::from(walks_query(keywords)), "{ctx}");
                for walk in walks {
                    assert_eq!(walk.thread, query.thread, "{ctx}: walk on the caller");
                    walked += 1;
                }
            }
            assert!(walked > 0, "threads={threads}: no query walked");
            let all_walks = spans.iter().filter(|s| s.name == "walk_accumulate");
            assert_eq!(all_walks.count(), walked, "threads={threads}");
        }
    }
}

/// The paper's Figure 2 shape: the second `<c>` holds tree, trie and icde
/// at once, so several candidates compete inside one gating subtree and
/// γ = 1 must take eviction/rejection decisions under every semantics.
fn crowded_corpus() -> CorpusIndex {
    let xml = "<a>\
        <c><x>tree</x></c>\
        <c><x>trie</x><x>tree</x><y>icde</y></c>\
        <d><x>trie</x><y>icdt icde</y></d>\
        <d><x>trie</x><y>icde</y></d>\
    </a>";
    CorpusIndex::build(parse_document(xml).unwrap())
}

/// SLCA and ELCA flow through the same sink, so explain is the served
/// run for them too — γ-decisions included.
#[test]
fn explain_is_the_served_run_under_slca_and_elca() {
    for semantics in [Semantics::Slca, Semantics::Elca] {
        for threads in [1usize, 8] {
            for gamma in [None, Some(1)] {
                let engine = XCleanEngine::from_corpus(
                    crowded_corpus(),
                    XCleanConfig {
                        epsilon: 2,
                        gamma,
                        num_threads: threads,
                        ..Default::default()
                    },
                )
                .with_semantics(semantics);
                let mut events = 0;
                for q in ["tree icdt", "trie icde", "icde", "qqqq zzzz"] {
                    let ctx = format!("{semantics:?} threads={threads} gamma={gamma:?} q={q}");
                    let served = engine.suggest(q);
                    let trace = engine.explain(q);
                    assert_eq!(trace.semantics, semantics.as_str(), "{ctx}");
                    assert_bit_identical(&served.suggestions, &trace.suggestions, &ctx);
                    assert_eq!(
                        trace.stages.contributions, served.stats.entities_scored,
                        "{ctx}"
                    );
                    assert_eq!(
                        trace.eviction_events_total,
                        trace.stages.evictions + trace.stages.rejected,
                        "{ctx}"
                    );
                    assert_eq!(trace.stages.evictions, served.stats.pruning.evictions);
                    assert_eq!(trace.stages.rejected, served.stats.pruning.rejected);
                    events += trace.eviction_events_total;
                }
                // Binding γ must actually bind somewhere, or the equalities
                // above compare zeros.
                assert_eq!(events > 0, gamma.is_some(), "{semantics:?} gamma={gamma:?}");
            }
        }
    }
}
