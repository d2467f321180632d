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
//! - Exporters — [`Tracer::chrome_trace_json`] emits Chrome trace-event
//!   JSON (loadable in `chrome://tracing` / Perfetto); [`Exposition`]
//!   is the one Prometheus text-format writer — every source hands it
//!   typed samples and the page is rendered once
//!   ([`MetricsRegistry::metrics_text`] is collect + render for one
//!   registry); [`MetricsRegistry::metrics_json`] is a JSON snapshot.
//! - [`json`] — the workspace's one JSON codec: value, strict parser,
//!   string escaper and printer. The exporters above write through its
//!   escaper; everything that reads JSON back parses with it.
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
pub use log::{set_global, Level, LevelSpec, LogFormat, Logger};
pub use metrics::{
    Counter, Exemplar, ExemplarStore, Exposition, Histogram, HistogramSummary, MetricsRegistry,
    Unit, Value,
};
pub use ring::{RequestRecord, RequestRing, ShardAttribution};
pub use runtime::{FlightRecorder, RuntimeEvent, RuntimeEventKind, RuntimeStats};
pub use span::{SpanGuard, SpanRecord, Tracer};
pub use window::{RollingWindows, WindowEvent, WindowSnapshot, SLO_ERROR_BUDGET};

/// Canonical metric names used by the engine, shared between the
/// recording side (`crates/xclean`) and consumers (CLI, tests) so the two
/// can never drift apart.
pub mod names {
    /// Queries answered over the engine lifetime.
    pub const QUERIES: &str = "xclean_queries_total";
    /// Suggestions returned (post top-k truncation).
    pub const SUGGESTIONS: &str = "xclean_suggestions_total";
    /// Gating subtrees processed.
    pub const SUBTREES: &str = "xclean_subtrees_total";
    /// Candidate queries enumerated (with multiplicity).
    pub const CANDIDATES: &str = "xclean_candidates_enumerated_total";
    /// Distinct result-type computations.
    pub const RESULT_TYPES: &str = "xclean_result_type_computations_total";
    /// Entity score contributions accumulated.
    pub const ENTITIES: &str = "xclean_entities_scored_total";
    /// Postings consumed via `next()` across all merged lists.
    pub const POSTINGS_READ: &str = "xclean_postings_read_total";
    /// Postings jumped by `skip_to` across all merged lists.
    pub const POSTINGS_SKIPPED: &str = "xclean_postings_skipped_total";
    /// `skip_to` invocations.
    pub const SKIP_CALLS: &str = "xclean_skip_calls_total";
    /// Accumulators evicted by γ-pruning.
    pub const EVICTIONS: &str = "xclean_pruning_evictions_total";
    /// Contributions rejected after eviction.
    pub const REJECTED: &str = "xclean_pruning_rejected_total";
    /// Latency histogram: variant-slot construction.
    pub const STAGE_SLOT: &str = "xclean_stage_slot_nanos";
    /// Latency histogram: walk + accumulate phase.
    pub const STAGE_WALK: &str = "xclean_stage_walk_nanos";
    /// Latency histogram: finalise + rank phase.
    pub const STAGE_RANK: &str = "xclean_stage_rank_nanos";
    /// Latency histogram: whole `suggest` call.
    pub const STAGE_TOTAL: &str = "xclean_stage_total_nanos";
    /// HTTP requests served by the suggestion server.
    pub const SERVER_REQUESTS: &str = "xclean_server_requests_total";
    /// HTTP responses with a 4xx/5xx status.
    pub const SERVER_ERRORS: &str = "xclean_server_errors_total";
    /// Response-cache lookups that hit.
    pub const CACHE_HITS: &str = "xclean_server_cache_hits_total";
    /// Response-cache lookups that missed.
    pub const CACHE_MISSES: &str = "xclean_server_cache_misses_total";
    /// Response-cache entries evicted by LRU pressure.
    pub const CACHE_EVICTIONS: &str = "xclean_server_cache_evictions_total";
    /// Latency histogram: whole HTTP request (parse → response written).
    pub const SERVER_REQUEST: &str = "xclean_server_request_nanos";
    /// TCP connections accepted by the suggestion server.
    pub const CONNECTIONS_OPENED: &str = "xclean_server_connections_opened_total";
    /// TCP connections the suggestion server finished with.
    pub const CONNECTIONS_CLOSED: &str = "xclean_server_connections_closed_total";
    /// Gauge (rendered by the server, not registry-backed): connections
    /// currently open, i.e. opened minus closed.
    pub const CONNECTIONS_OPEN: &str = "xclean_server_connections_open";
    /// Requests served on an already-used keep-alive connection (every
    /// request on a connection beyond its first).
    pub const KEEPALIVE_REUSE: &str = "xclean_server_keepalive_reuse_total";
    /// Latency histogram: snapshot open (read/map bytes into a slab).
    pub const SNAPSHOT_OPEN: &str = "xclean_snapshot_open_nanos";
    /// Latency histogram: snapshot validation (structure + checksum).
    pub const SNAPSHOT_VALIDATE: &str = "xclean_snapshot_validate_nanos";
    /// Latency histogram: first `suggest` call after open (cold caches,
    /// lazy slab decodes still pending).
    pub const FIRST_QUERY: &str = "xclean_first_query_nanos";
    /// Rolling-window gauge: requests completed inside the window
    /// (labelled `window="1m"|"5m"|"15m"`).
    pub const WINDOW_REQUESTS: &str = "xclean_server_window_requests";
    /// Rolling-window gauge: 4xx/5xx responses inside the window.
    pub const WINDOW_ERRORS: &str = "xclean_server_window_errors";
    /// Rolling-window gauge: requests per second over the window.
    pub const WINDOW_QPS: &str = "xclean_server_window_qps";
    /// Rolling-window gauge: error share of requests in the window.
    pub const WINDOW_ERROR_RATIO: &str = "xclean_server_window_error_ratio";
    /// Rolling-window gauge: cache hit share in the window.
    pub const WINDOW_CACHE_HIT_RATIO: &str = "xclean_server_window_cache_hit_ratio";
    /// Rolling-window gauge: request latency quantile (labelled
    /// `window` and `quantile`).
    pub const WINDOW_LATENCY: &str = "xclean_server_window_latency_nanos";
    /// Runtime histogram: event-loop busy time between `epoll_wait`
    /// calls, in fractional seconds.
    pub const LOOP_LAG_SECONDS: &str = "xclean_loop_lag_seconds";
    /// Runtime histogram: job enqueue → worker-pickup wait, in
    /// fractional seconds.
    pub const QUEUE_WAIT_SECONDS: &str = "xclean_queue_wait_seconds";
    /// Runtime histogram: readiness events returned per `epoll_wait`.
    pub const EVENTS_PER_WAKE: &str = "xclean_events_per_wake";
    /// Runtime gauge: per-worker busy share of wall time (labelled
    /// `worker`).
    pub const WORKER_UTILIZATION: &str = "xclean_worker_utilization";
    /// Per-corpus counter (labelled `corpus`): requests routed to the
    /// corpus, including cache hits.
    pub const CORPUS_REQUESTS: &str = "xclean_server_corpus_requests_total";
    /// Per-corpus counter (labelled `corpus`): error responses while
    /// serving the corpus.
    pub const CORPUS_ERRORS: &str = "xclean_server_corpus_errors_total";
    /// Per-corpus counter (labelled `corpus`): individual queries scored
    /// or answered from cache (a batch POST counts each query).
    pub const CORPUS_QUERIES: &str = "xclean_server_corpus_queries_total";
    /// Per-corpus counter (labelled `corpus`): response-cache hits.
    pub const CORPUS_CACHE_HITS: &str = "xclean_server_corpus_cache_hits_total";
    /// Per-corpus counter (labelled `corpus`): response-cache misses.
    pub const CORPUS_CACHE_MISSES: &str = "xclean_server_corpus_cache_misses_total";
    /// Per-corpus gauge (labelled `corpus`): live response-cache entries.
    pub const CORPUS_CACHE_ENTRIES: &str = "xclean_server_corpus_cache_entries";
    /// Per-corpus gauge (labelled `corpus`): shard count of the backing
    /// engine (1 for an unsharded snapshot).
    pub const CORPUS_SHARDS: &str = "xclean_server_corpus_shards";
    /// Per-shard histogram (labelled `corpus` and `shard`): scatter-phase
    /// latency of one shard's Algorithm-1 run, in fractional seconds.
    pub const SHARD_SCATTER_SECONDS: &str = "xclean_shard_scatter_seconds";
    /// Per-corpus gauge (labelled `corpus`): straggler skew of the most
    /// recent sharded request — max shard scatter nanos over the median.
    pub const SHARD_SKEW: &str = "xclean_server_shard_skew";
    /// Per-corpus gauge (labelled `corpus` and `window`): SLO burn rate —
    /// the window's latency-breach share over the 1% error budget.
    pub const CORPUS_BURN_RATE: &str = "xclean_server_corpus_slo_burn_rate";
    /// Per-corpus gauge (labelled `corpus` and `window`): requests that
    /// breached the latency SLO inside the rolling window.
    pub const CORPUS_SLO_BREACHES: &str = "xclean_server_corpus_slo_breaches";
    /// One-line `# HELP` text for a metric name; a generic fallback for
    /// names registered outside this canonical list (tests, ad hoc).
    pub fn help_for(name: &str) -> &'static str {
        match name {
            n if n == QUERIES => "Queries answered over the engine lifetime.",
            n if n == SUGGESTIONS => "Suggestions returned (post top-k truncation).",
            n if n == SUBTREES => "Gating subtrees processed.",
            n if n == CANDIDATES => "Candidate queries enumerated (with multiplicity).",
            n if n == RESULT_TYPES => "Distinct result-type computations.",
            n if n == ENTITIES => "Entity score contributions accumulated.",
            n if n == POSTINGS_READ => "Postings consumed via next() across all merged lists.",
            n if n == POSTINGS_SKIPPED => "Postings jumped by skip_to across all merged lists.",
            n if n == SKIP_CALLS => "skip_to invocations.",
            n if n == EVICTIONS => "Accumulators evicted by gamma-pruning.",
            n if n == REJECTED => "Contributions rejected after eviction.",
            n if n == STAGE_SLOT => "Variant-slot construction latency in nanoseconds.",
            n if n == STAGE_WALK => "Walk + accumulate phase latency in nanoseconds.",
            n if n == STAGE_RANK => "Finalise + rank phase latency in nanoseconds.",
            n if n == STAGE_TOTAL => "Whole suggest call latency in nanoseconds.",
            n if n == SERVER_REQUESTS => "HTTP requests served by the suggestion server.",
            n if n == SERVER_ERRORS => "HTTP responses with a 4xx/5xx status.",
            n if n == CACHE_HITS => "Response-cache lookups that hit.",
            n if n == CACHE_MISSES => "Response-cache lookups that missed.",
            n if n == CACHE_EVICTIONS => "Response-cache entries evicted by LRU pressure.",
            n if n == SERVER_REQUEST => "Whole HTTP request latency in nanoseconds.",
            n if n == CONNECTIONS_OPENED => "TCP connections accepted by the server.",
            n if n == CONNECTIONS_CLOSED => "TCP connections the server finished with.",
            n if n == CONNECTIONS_OPEN => "Connections currently open.",
            n if n == KEEPALIVE_REUSE => {
                "Requests served on an already-used keep-alive connection."
            }
            n if n == SNAPSHOT_OPEN => "Snapshot open latency in nanoseconds.",
            n if n == SNAPSHOT_VALIDATE => "Snapshot validation latency in nanoseconds.",
            n if n == FIRST_QUERY => "First suggest call after snapshot open, in nanoseconds.",
            n if n == WINDOW_REQUESTS => "Requests completed inside the rolling window.",
            n if n == WINDOW_ERRORS => "Error responses inside the rolling window.",
            n if n == WINDOW_QPS => "Requests per second over the rolling window.",
            n if n == WINDOW_ERROR_RATIO => "Error share of requests in the rolling window.",
            n if n == WINDOW_CACHE_HIT_RATIO => "Cache hit share in the rolling window.",
            n if n == WINDOW_LATENCY => "Request latency quantile over the rolling window.",
            n if n == LOOP_LAG_SECONDS => {
                "Event-loop busy time between epoll_wait calls, in seconds."
            }
            n if n == QUEUE_WAIT_SECONDS => "Job enqueue to worker-pickup wait, in seconds.",
            n if n == EVENTS_PER_WAKE => "Readiness events returned per epoll_wait.",
            n if n == WORKER_UTILIZATION => "Per-worker busy share of wall time.",
            n if n == CORPUS_REQUESTS => "Requests routed to the corpus, cache hits included.",
            n if n == CORPUS_ERRORS => "Error responses while serving the corpus.",
            n if n == CORPUS_QUERIES => "Individual queries answered for the corpus.",
            n if n == CORPUS_CACHE_HITS => "Response-cache hits for the corpus.",
            n if n == CORPUS_CACHE_MISSES => "Response-cache misses for the corpus.",
            n if n == CORPUS_CACHE_ENTRIES => "Live response-cache entries for the corpus.",
            n if n == CORPUS_SHARDS => "Shard count of the corpus engine (1 = unsharded).",
            n if n == SHARD_SCATTER_SECONDS => {
                "Per-shard scatter-phase latency in seconds, labelled corpus and shard."
            }
            n if n == SHARD_SKEW => {
                "Straggler skew of the latest sharded request: max/median shard scatter nanos."
            }
            n if n == CORPUS_BURN_RATE => {
                "SLO burn rate per corpus and window: breach share over the 1% error budget."
            }
            n if n == CORPUS_SLO_BREACHES => {
                "Latency-SLO breaches per corpus inside the rolling window."
            }
            _ => "XClean metric.",
        }
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

    #[test]
    fn json_escaping() {
        assert_eq!(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json::escape("\u{1}"), "\\u0001");
        assert_eq!(json::escape("plain"), "plain");
    }
}
