//! # xclean-telemetry
//!
//! Dependency-free observability for the XClean engine (DESIGN.md §9):
//!
//! - [`Tracer`] — a lightweight hierarchical span tracer. Spans carry a
//!   name, optional detail, start/duration in nanoseconds relative to the
//!   tracer's epoch, a parent span, and the recording thread. A disabled
//!   tracer is a zero-allocation no-op: [`Tracer::span`] returns an inert
//!   guard without touching thread-locals or the clock.
//! - [`MetricsRegistry`] — named monotonic [`Counter`]s and log-bucketed
//!   latency [`Histogram`]s (p50/p95/p99). All recording is lock-free
//!   (atomic adds); the registry lock is only taken on first registration
//!   of a name, so a pool of worker threads never serialises on it.
//! - Exporters — [`Tracer::chrome_trace_json`] builds a Chrome
//!   trace-event document (loadable in `chrome://tracing` / Perfetto);
//!   [`Exposition`] is the one Prometheus text-format writer — every
//!   source hands it typed samples and the page is rendered once
//!   ([`MetricsRegistry::metrics_text`] is collect + render for one
//!   registry); [`MetricsRegistry::metrics_json`] is a JSON snapshot.
//! - [`json`] — the workspace's one JSON codec: value, strict parser,
//!   string escaper and printer. Every JSON producer builds a
//!   [`json::Json`] value and its caller prints it once; everything that
//!   reads JSON back parses with it.
//!
//! The crate is intentionally free of workspace and external
//! dependencies so every layer (index, engine, CLI, benches) can depend
//! on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod json;
pub mod log;
pub mod metrics;
pub mod ring;
pub mod runtime;
pub mod span;
pub mod window;

pub use clock::{Clock, ManualClock, MonotonicClock, SharedClock};
pub use log::{set_global, Level, Logger};
pub use metrics::{
    Counter, Exemplar, ExemplarStore, Exposition, Histogram, HistogramSummary, MetricsRegistry,
    Unit, Value,
};
pub use ring::{RequestRecord, RequestRing, ShardAttribution};
pub use runtime::{FlightRecorder, RuntimeEvent, RuntimeEventKind, RuntimeStats};
pub use span::{SpanGuard, SpanRecord, Tracer};
pub use window::{RollingWindows, WindowEvent, WindowSnapshot, SLO_ERROR_BUDGET};

/// Canonical metric names, shared between the recording side
/// (`crates/xclean`, `crates/server`) and consumers (CLI, tests) so the
/// two can never drift apart. Each family is written once, in the table
/// below: the constant, its doc comment and its `# HELP` line all come
/// from the same `(IDENT, "name", "help")` row.
pub mod names {
    macro_rules! families {
        ($(($ident:ident, $name:literal, $help:literal),)+) => {
            $(
                #[doc = $help]
                pub const $ident: &str = $name;
            )+

            /// Every canonical family as `(name, help)`, in table order.
            pub const ALL: &[(&str, &str)] = &[$(($name, $help)),+];
        };
    }

    families! {
        (QUERIES, "xclean_queries_total", "Queries answered over the engine lifetime."),
        (SUGGESTIONS, "xclean_suggestions_total", "Suggestions returned (post top-k truncation)."),
        (SUBTREES, "xclean_subtrees_total", "Gating subtrees processed."),
        (CANDIDATES, "xclean_candidates_enumerated_total",
         "Candidate queries enumerated (with multiplicity)."),
        (RESULT_TYPES, "xclean_result_type_computations_total",
         "Distinct result-type computations."),
        (ENTITIES, "xclean_entities_scored_total", "Entity score contributions accumulated."),
        (POSTINGS_READ, "xclean_postings_read_total",
         "Postings consumed through the walk's cursors, once per keyword holding the token; a scanned query reads only those a scorer asked to gather."),
        (POSTINGS_SKIPPED, "xclean_postings_skipped_total",
         "Postings the walk's cursors seeked past: on a scanned query, those its gathers' per-column seeks jumped."),
        (SKIP_CALLS, "xclean_skip_calls_total",
         "Cursor seeks: on a scanned query, one per column gathered for a subtree."),
        (EVICTIONS, "xclean_pruning_evictions_total", "Accumulators evicted by gamma-pruning."),
        (REJECTED, "xclean_pruning_rejected_total", "Contributions rejected after eviction."),
        (STAGE_SLOT, "xclean_stage_slot_nanos",
         "Variant-slot construction latency in nanoseconds."),
        (STAGE_WALK, "xclean_stage_walk_nanos", "Walk + accumulate phase latency in nanoseconds."),
        (STAGE_RANK, "xclean_stage_rank_nanos", "Finalise + rank phase latency in nanoseconds."),
        (STAGE_TOTAL, "xclean_stage_total_nanos", "Whole suggest call latency in nanoseconds."),
        (SNAPSHOT_OPEN, "xclean_snapshot_open_nanos", "Snapshot open latency in nanoseconds."),
        (SNAPSHOT_VALIDATE, "xclean_snapshot_validate_nanos",
         "Snapshot validation latency in nanoseconds."),
        (FIRST_QUERY, "xclean_first_query_nanos",
         "First suggest call after snapshot open, in nanoseconds."),
        (SERVER_REQUESTS, "xclean_server_requests_total",
         "HTTP requests served by the suggestion server."),
        (SERVER_ERRORS, "xclean_server_errors_total", "HTTP responses with a 4xx/5xx status."),
        (SERVER_REQUEST, "xclean_server_request_nanos",
         "Whole HTTP request latency in nanoseconds."),
        (CONNECTIONS_OPENED, "xclean_server_connections_opened_total",
         "TCP connections accepted by the server."),
        (CONNECTIONS_CLOSED, "xclean_server_connections_closed_total",
         "TCP connections the server finished with."),
        (CONNECTIONS_OPEN, "xclean_server_connections_open", "Connections currently open."),
        (KEEPALIVE_REUSE, "xclean_server_keepalive_reuse_total",
         "Requests served on an already-used keep-alive connection."),
        (LOOP_LAG_SECONDS, "xclean_loop_lag_seconds",
         "Event-loop busy time between epoll_wait calls, in seconds."),
        (QUEUE_WAIT_SECONDS, "xclean_queue_wait_seconds",
         "Job enqueue to worker-pickup wait, in seconds."),
        (EVENTS_PER_WAKE, "xclean_events_per_wake", "Readiness events returned per epoll_wait."),
        (WORKER_UTILIZATION, "xclean_worker_utilization", "Per-worker busy share of wall time."),
        (CACHE_HITS, "xclean_server_cache_hits_total", "Response-cache lookups that hit."),
        (CACHE_MISSES, "xclean_server_cache_misses_total", "Response-cache lookups that missed."),
        (CACHE_EVICTIONS, "xclean_server_cache_evictions_total",
         "Response-cache entries evicted by LRU pressure."),
        (CORPUS_REQUESTS, "xclean_server_corpus_requests_total",
         "Requests routed to the corpus, cache hits included."),
        (CORPUS_ERRORS, "xclean_server_corpus_errors_total",
         "Error responses while serving the corpus."),
        (CORPUS_CACHE_ENTRIES, "xclean_server_corpus_cache_entries",
         "Live response-cache entries for the corpus."),
        (SHARD_SCATTER_SECONDS, "xclean_shard_scatter_seconds",
         "Per-shard scatter-phase latency in seconds, labelled corpus and shard."),
        (SHARD_SKEW, "xclean_server_shard_skew",
         "Straggler skew of the latest sharded request: max/median shard scatter nanos."),
        (CORPUS_BURN_RATE, "xclean_server_corpus_slo_burn_rate",
         "SLO burn rate per corpus and window: breach share over the 1% error budget."),
    }

    /// One-line `# HELP` text for a metric name; a generic fallback for
    /// names registered outside the table (tests, ad hoc).
    pub fn help_for(name: &str) -> &'static str {
        ALL.iter()
            .find(|(n, _)| *n == name)
            .map_or("XClean metric.", |(_, help)| help)
    }
}

/// The telemetry bundle an engine carries: a span tracer (disabled by
/// default) plus a metrics registry (always live — recording is a handful
/// of atomic adds per query).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    tracer: Tracer,
    metrics: MetricsRegistry,
}

impl Telemetry {
    /// Telemetry with tracing disabled (the default): spans are no-ops,
    /// metrics still aggregate.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Telemetry with span tracing enabled.
    pub fn with_tracing() -> Self {
        Telemetry {
            tracer: Tracer::enabled(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

/// The shared Prometheus conformance checker (test support).
#[cfg(test)]
#[path = "../tests/support/conformance.rs"]
pub(crate) mod conformance;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_telemetry_is_disabled() {
        let t = Telemetry::default();
        assert!(!t.tracer().is_enabled());
        {
            let _g = t.tracer().span("noop");
        }
        assert!(t.tracer().finished_spans().is_empty());
    }

    #[test]
    fn with_tracing_records() {
        let t = Telemetry::with_tracing();
        assert!(t.tracer().is_enabled());
        {
            let _g = t.tracer().span("root");
        }
        assert_eq!(t.tracer().finished_spans().len(), 1);
    }

    /// Every family is written once: unique names, a real help sentence
    /// each, and `help_for` finds it (the live-page half of this check —
    /// every family `/metrics` serves has a row — is in the server's
    /// `multi_tenant` page test).
    #[test]
    fn every_canonical_family_has_its_own_help_line() {
        let distinct: std::collections::BTreeSet<&str> =
            names::ALL.iter().map(|(name, _)| *name).collect();
        assert_eq!(distinct.len(), names::ALL.len(), "a name occurs twice");
        let fallback = names::help_for("xclean_not_in_the_table");
        assert_eq!(fallback, "XClean metric.");
        for (name, help) in names::ALL {
            assert!(name.starts_with("xclean_"), "{name}");
            assert!(help.ends_with('.') && *help != fallback, "{name}: {help}");
            assert_eq!(names::help_for(name), *help, "{name}");
        }
        assert_eq!(names::QUERIES, "xclean_queries_total");
        assert_eq!(
            names::ALL[0],
            (names::QUERIES, names::help_for(names::QUERIES))
        );
    }
}
