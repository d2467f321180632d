//! Telemetry integration harness.
//!
//! Three contracts over a generated corpus and workload (fixed seeds, so
//! every run exercises the same inputs):
//!
//! 1. **Zero interference** — suggestions with span tracing enabled are
//!    bit-identical (same terms, same `f64` score bits) to suggestions
//!    from an engine with telemetry disabled, sequentially and through
//!    the `suggest_many` worker pool.
//! 2. **Lifetime aggregation** — the engine's metrics registry equals the
//!    sum of the per-response `RunStats`, however many worker threads
//!    recorded into it.
//! 3. **Exporters** — the chrome trace is valid JSON with complete
//!    (`ph == "X"`) events covering every pipeline stage, and the
//!    Prometheus text rendering carries counter and summary markers.

use xclean_suite::datagen::{generate_dblp, make_workload, DblpConfig, Perturbation, WorkloadSpec};
use xclean_suite::telemetry::{json, names, Telemetry};
use xclean_suite::xclean::{SuggestResponse, XCleanConfig, XCleanEngine};

fn engine_with(threads: usize, telemetry: Telemetry) -> XCleanEngine {
    XCleanEngine::new(
        generate_dblp(&DblpConfig {
            publications: 600,
            ..Default::default()
        }),
        XCleanConfig {
            num_threads: threads,
            ..Default::default()
        },
    )
    .with_telemetry(telemetry)
}

fn workload(engine: &XCleanEngine) -> Vec<Vec<String>> {
    let mut queries = Vec::new();
    for (p, n, seed) in [(Perturbation::Clean, 15, 5), (Perturbation::Rand, 25, 6)] {
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
    queries
}

fn assert_bit_identical(a: &SuggestResponse, b: &SuggestResponse) {
    assert_eq!(a.suggestions.len(), b.suggestions.len());
    for (x, y) in a.suggestions.iter().zip(b.suggestions.iter()) {
        assert_eq!(x.terms, y.terms);
        assert_eq!(x.log_score.to_bits(), y.log_score.to_bits());
        assert_eq!(x.distances, y.distances);
        assert_eq!(x.entity_count, y.entity_count);
    }
}

#[test]
fn tracing_does_not_change_any_suggestion() {
    for threads in [1usize, 4] {
        let plain = engine_with(threads, Telemetry::disabled());
        let traced = engine_with(threads, Telemetry::with_tracing());
        let queries = workload(&plain);
        let plain_rs = plain.suggest_many_keywords(&queries);
        let traced_rs = traced.suggest_many_keywords(&queries);
        assert!(
            !traced.tracer().finished_spans().is_empty(),
            "tracing engine must actually record spans"
        );
        assert!(plain.tracer().finished_spans().is_empty());
        for (a, b) in plain_rs.iter().zip(traced_rs.iter()) {
            assert_bit_identical(a, b);
        }
    }
}

#[test]
fn engine_metrics_aggregate_across_worker_pool() {
    let engine = engine_with(4, Telemetry::disabled());
    let queries = workload(&engine);
    let responses = engine.suggest_many_keywords(&queries);
    let m = engine.metrics();

    assert_eq!(m.counter_value(names::QUERIES), Some(queries.len() as u64));
    let expect = |f: fn(&SuggestResponse) -> u64| responses.iter().map(f).sum::<u64>();
    assert_eq!(
        m.counter_value(names::SUGGESTIONS),
        Some(expect(|r| r.suggestions.len() as u64))
    );
    assert_eq!(
        m.counter_value(names::SUBTREES),
        Some(expect(|r| r.stats.subtrees))
    );
    assert_eq!(
        m.counter_value(names::CANDIDATES),
        Some(expect(|r| r.stats.candidates_enumerated))
    );
    assert_eq!(
        m.counter_value(names::ENTITIES),
        Some(expect(|r| r.stats.entities_scored))
    );
    assert_eq!(
        m.counter_value(names::POSTINGS_READ),
        Some(expect(|r| r.stats.access.read))
    );
    assert_eq!(
        m.counter_value(names::SKIP_CALLS),
        Some(expect(|r| r.stats.access.skip_calls))
    );

    // Every stage histogram saw one sample per query, with a positive sum
    // and ordered quantiles (the ≥ 1-nanosecond guarantee end to end).
    for stage in [
        names::STAGE_SLOT,
        names::STAGE_WALK,
        names::STAGE_RANK,
        names::STAGE_TOTAL,
    ] {
        let s = m.histogram_summary(stage).expect(stage);
        assert_eq!(s.count, queries.len() as u64, "{stage}");
        assert!(s.sum > 0, "{stage}");
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "{stage}: {s:?}");
        assert!(s.p50 >= 1, "{stage}: clamped stage times are never zero");
    }
}

#[test]
fn chrome_trace_covers_the_pipeline() {
    let engine = engine_with(1, Telemetry::with_tracing());
    let queries = workload(&engine);
    engine.suggest_many_keywords(&queries[..4]);

    let spans = engine.tracer().finished_spans();
    for expected in [
        "suggest",
        "slot_build",
        "variant_gen",
        "walk_accumulate",
        "rank",
    ] {
        assert!(
            spans.iter().any(|s| s.name == expected),
            "missing span {expected}"
        );
    }
    // Hierarchy: every slot_build span is a child of a suggest span.
    for s in spans.iter().filter(|s| s.name == "slot_build") {
        let parent = s.parent.expect("slot_build has a parent");
        let p = spans.iter().find(|c| c.id == parent).expect("parent span");
        assert_eq!(p.name, "suggest");
    }

    let trace = engine.tracer().chrome_trace_json().render();
    let v = json::parse(&trace).expect("valid trace JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents");
    assert_eq!(events.len(), spans.len());
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"));
        assert!(e["name"].as_str().is_some());
        assert!(e["tid"].as_u64().is_some());
    }
}

#[test]
fn prometheus_text_has_counter_and_histogram_markers() {
    let engine = engine_with(1, Telemetry::disabled());
    engine.suggest("database systems");
    let text = engine.metrics().metrics_text();
    assert!(text.contains("# TYPE xclean_queries_total counter"));
    assert!(text.contains("xclean_queries_total 1"));
    assert!(text.contains("# TYPE xclean_stage_total_nanos histogram"));
    assert!(text.contains("xclean_stage_total_nanos_bucket{le=\"+Inf\"} 1"));
    assert!(text.contains("xclean_stage_total_nanos_count 1"));
}
