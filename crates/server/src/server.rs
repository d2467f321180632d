//! The long-running suggestion server.
//!
//! Architecture (DESIGN.md §10, §13): one epoll loop thread owns the
//! listener and every client socket; a bounded pool of worker threads
//! does the CPU-bound part, all sharing an immutable [`TenantSet`] — one
//! engine (and through it the corpus) per served corpus, behind an
//! [`Arc`]. Above [`ServerConfig::max_connections`]
//! open sockets the loop answers `503` directly instead of letting
//! latency grow without bound. In front of each tenant's engine
//! sits its own sharded LRU [`crate::ResponseCache`]: the cache value is
//! the rendered per-query JSON result object, so a hot query costs a
//! hash, one shard lock, and a `memcpy` of the response bytes.
//!
//! Routing has two halves. `resolve` runs on the loop thread: method,
//! path, tenant, the `q` or `"query"` decode, normalisation and one
//! cache probe. It answers cache hits and routing errors itself, so a
//! hit never crosses a thread, and hands `/debug/conns` back to the
//! event loop, which alone holds the connection table. Everything else
//! becomes a `Work` item for `compute` on the pool: a miss (carrying its
//! tenant, keywords and cache key, so nothing is parsed or probed
//! twice), a batch POST, `/debug/explain`, and every other page render.
//!
//! Multi-tenancy (DESIGN.md §16): `/suggest/<corpus>` routes by catalog
//! name, bare `/suggest` routes to the primary (first) tenant, and an
//! unknown corpus is a structured JSON `404` that flows through the same
//! observability choke point as every other reply.
//!
//! Observability (DESIGN.md §12): every request — errors, timeouts,
//! load-shed, and panic replies included — carries an `X-Request-Id`
//! (inbound value echoed, else generated deterministically on the loop
//! thread) and is recorded into the [`Observability`] plane after its
//! response is rendered: the request ring (`/debug/requests`), the
//! rolling 1m/5m/15m windows (`/statusz`), and — when slower than the
//! configured threshold — the slow-query log. Recording happens
//! strictly *after* the suggestion work, so responses stay
//! byte-identical with the plane enabled or ignored.
//!
//! Graceful drain: when the [`ShutdownFlag`] trips (SIGINT/SIGTERM or
//! [`ShutdownFlag::trigger`]), the loop stops taking connections,
//! in-flight pipelined requests are answered, the workers are joined,
//! and [`SuggestServer::run`] returns a [`DrainReport`] — the caller
//! then flushes exporters (`--trace-out`, `--metrics-json`).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use xclean::{ExplainTrace, SuggestResponse, Suggestion, XCleanEngine};
use xclean_telemetry::json::{self, Json};
use xclean_telemetry::{
    names, Counter, Exposition, Histogram, MetricsRegistry, MonotonicClock, RequestRecord,
    RuntimeStats, SharedClock, SpanGuard, Value,
};

use crate::cache::CacheKey;
use crate::debug::{self, Observability};
use crate::http::{HttpError, Request};
use crate::shutdown::ShutdownFlag;
use crate::tenant::{Tenant, TenantSet};

/// Upper bound on queries in one batch request: bounds the work a single
/// request can demand from the pool.
pub const MAX_BATCH_QUERIES: usize = 1024;

/// Every route besides `/suggest` and `/suggest/<corpus>`: read-only
/// pages, answered to `GET` and `405` to any other method.
pub const PAGE_ROUTES: [&str; 7] = [
    "/healthz",
    "/metrics",
    "/statusz",
    "/debug/requests",
    "/debug/conns",
    "/debug/flight",
    "/debug/explain",
];

/// Runtime events the flight recorder keeps for `/debug/flight`.
const FLIGHT_EVENTS: usize = 4096;

/// Not a choice any more: the epoll event loop (DESIGN.md §13) is the
/// only way the server serves, and nothing in this crate reads the
/// value. The type and [`ServerConfig::accept_model`] exist solely so
/// that `xbench/src/serve.rs:49` — the benchmark harness, which a
/// product PR may not edit — keeps compiling; the next `[benchmark]` PR
/// deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AcceptModel {
    /// The epoll event loop.
    #[default]
    EventLoop,
}

/// Tunables of the serving layer (the engine has its own config).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Ignored; see [`AcceptModel`].
    pub accept_model: AcceptModel,
    /// Worker threads answering requests.
    pub threads: usize,
    /// Total response-cache entries across shards (0 disables caching).
    pub cache_entries: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Slow-loris deadline: a request whose head and body have not fully
    /// arrived this long after its *first byte* is answered `408` and
    /// the connection closed. Not a socket timeout — the sockets are
    /// nonblocking.
    pub read_timeout: Duration,
    /// Concurrent connections the event loop holds open; above this,
    /// new connections are answered `503` and closed.
    pub max_connections: usize,
    /// Idle keep-alive connections are closed after this long without a
    /// request.
    pub keep_alive_timeout: Duration,
    /// Requests at least this slow are emitted to the slow-query log
    /// (`serve --slow-ms`).
    pub slow_threshold: Duration,
    /// Latency SLO threshold: requests strictly slower than this count
    /// as SLO breaches in the global and per-corpus windows, and feed
    /// the multi-window burn rates on `/statusz` and `/metrics`
    /// (`serve --slo-ms`). The error budget is fixed at
    /// [`xclean_telemetry::SLO_ERROR_BUDGET`].
    pub slo_threshold: Duration,
    /// Slow-query log destination; `None` writes JSON lines to stderr.
    pub slow_log: Option<PathBuf>,
    /// Clock requests are stamped against. The default monotonic clock
    /// is right for serving; tests inject a
    /// [`xclean_telemetry::ManualClock`] to drive window rotation.
    pub clock: SharedClock,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            accept_model: AcceptModel::EventLoop,
            threads: 4,
            cache_entries: 4096,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(5),
            max_connections: 4096,
            keep_alive_timeout: Duration::from_secs(60),
            slow_threshold: Duration::from_millis(100),
            slo_threshold: Duration::from_millis(50),
            slow_log: None,
            clock: Arc::new(MonotonicClock::new()),
        }
    }
}

/// What the server did over its lifetime, returned by
/// [`SuggestServer::run`] after a graceful drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// HTTP requests answered (all routes, all statuses).
    pub requests: u64,
    /// Responses with a 4xx/5xx status.
    pub errors: u64,
    /// Response-cache hits.
    pub cache_hits: u64,
    /// Response-cache misses.
    pub cache_misses: u64,
    /// Response-cache evictions.
    pub cache_evictions: u64,
    /// TCP connections accepted over the lifetime (including shed ones).
    pub connections: u64,
    /// Requests served on an already-used keep-alive connection.
    pub keepalive_reuse: u64,
    /// Event-loop wake-ups observed.
    pub loop_wakes: u64,
    /// Dispatched jobs whose enqueue→worker-pickup wait was measured.
    pub queue_waits: u64,
    /// Runtime flight-recorder events captured over the lifetime.
    pub flight_events: u64,
}

/// The bound-but-not-yet-running server.
#[derive(Debug)]
pub struct SuggestServer {
    tenants: Arc<TenantSet>,
    /// The server's own series (requests, errors, request latency,
    /// connections) — unlabelled on `/metrics`; engine and cache series
    /// live in each tenant's engine registry.
    metrics: MetricsRegistry,
    obs: Arc<Observability>,
    config: ServerConfig,
    listener: TcpListener,
    shutdown: ShutdownFlag,
}

/// Connection-lifecycle counters; the open-connection gauge on
/// `/metrics` is rendered as `opened - closed`.
#[derive(Clone)]
pub(crate) struct ConnStats {
    pub(crate) opened: Arc<Counter>,
    pub(crate) closed: Arc<Counter>,
    pub(crate) reuse: Arc<Counter>,
}

impl ConnStats {
    fn new(registry: &MetricsRegistry) -> ConnStats {
        ConnStats {
            opened: registry.counter(names::CONNECTIONS_OPENED),
            closed: registry.counter(names::CONNECTIONS_CLOSED),
            reuse: registry.counter(names::KEEPALIVE_REUSE),
        }
    }

    /// Connections open right now: opened − closed.
    pub(crate) fn open(&self) -> u64 {
        self.opened.get().saturating_sub(self.closed.get())
    }
}

/// Everything the loop and its workers need to answer a request.
pub(crate) struct Handler {
    pub(crate) tenants: Arc<TenantSet>,
    pub(crate) obs: Arc<Observability>,
    /// Runtime observability: loop-lag/queue-wait/utilization histograms
    /// and the flight recorder. Record-only on the serving path.
    pub(crate) runtime: Arc<RuntimeStats>,
    pub(crate) max_connections: usize,
    /// The server registry; `requests` … `conn_stats` are handles into it.
    metrics: MetricsRegistry,
    pub(crate) requests: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
    latency: Arc<Histogram>,
    pub(crate) conn_stats: ConnStats,
}

/// One rendered response, ready to write.
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) cache_header: Option<String>,
    pub(crate) body: String,
    /// What the ring remembers about the request: filled by the suggest
    /// paths, left at defaults (route `""`) by metadata routes and
    /// errors. The corpus, when set, also selects the tenant whose
    /// request and error counters and rolling windows the request lands
    /// in; [`observe_reply`] fills in the rest.
    obs: RequestRecord,
}

impl Reply {
    fn json(status: u16, body: Json) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            cache_header: None,
            body: body.render(),
            obs: RequestRecord::default(),
        }
    }

    pub(crate) fn error(status: u16, message: &str) -> Reply {
        let error = Json::object([("code", status.into()), ("message", message.into())]);
        Reply::json(status, Json::object([("error", error)]))
    }

    /// The `408` for a request that outlived [`ServerConfig::read_timeout`].
    pub(crate) fn timeout() -> Reply {
        Reply::error(408, "request read timed out").tagged("timeout")
    }

    /// Sets the ring route tag unless the handler already set one.
    pub(crate) fn tagged(mut self, route: &'static str) -> Reply {
        if self.obs.route.is_empty() {
            self.obs.route = route;
        }
        self
    }
}

impl SuggestServer {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over a
    /// shared engine — the single-corpus form: the engine serves as the
    /// sole tenant under the conventional name `default`, so `/suggest`
    /// and `/suggest/default` answer identically.
    pub fn bind(
        engine: Arc<XCleanEngine>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<SuggestServer> {
        SuggestServer::bind_tenants(vec![("default".to_string(), engine)], addr, config)
    }

    /// Binds over a whole catalog of corpora, in order, with the first
    /// entry as the primary tenant. Each tenant gets a private response
    /// cache (of the configured size) whose counters are registered in
    /// that tenant's engine registry; the server's own series get a
    /// registry created here, so `GET /metrics` shows each series once:
    /// the server's unlabelled, every tenant's under its `corpus`. The
    /// observability plane (request ring, windows, slow log) is built
    /// here from the config and shared by all tenants.
    pub fn bind_tenants(
        corpora: Vec<(String, Arc<XCleanEngine>)>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<SuggestServer> {
        let listener = TcpListener::bind(addr)?;
        let tenants = Arc::new(TenantSet::build(corpora, config.cache_entries)?);
        let slow_sink: Box<dyn io::Write + Send> = match &config.slow_log {
            Some(path) => Box::new(std::fs::File::create(path)?),
            None => Box::new(io::stderr()),
        };
        let obs = Arc::new(Observability::new(
            Arc::clone(&config.clock),
            config.slow_threshold.as_nanos() as u64,
            config.slo_threshold.as_nanos() as u64,
            slow_sink,
        ));
        Ok(SuggestServer {
            tenants,
            metrics: MetricsRegistry::default(),
            obs,
            config,
            listener,
            shutdown: ShutdownFlag::new(),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers (or observes) graceful drain.
    pub fn shutdown_flag(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// The primary tenant's engine fingerprint (its cache-key component).
    pub fn fingerprint(&self) -> u64 {
        self.tenants.primary().fingerprint()
    }

    /// The corpora this server fronts, primary first.
    pub fn tenants(&self) -> &Arc<TenantSet> {
        &self.tenants
    }

    /// The server's own metrics registry: the unlabelled `/metrics`
    /// series. Cheap to clone; readable during and after `run`.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The server's observability plane (request ring, windows, slow
    /// log) — shared with the workers; readable during and after `run`.
    pub fn observability(&self) -> Arc<Observability> {
        Arc::clone(&self.obs)
    }

    /// Serves from the epoll event loop until the shutdown flag trips,
    /// then drains: stops accepting, answers in-flight requests, joins
    /// the workers, and reports lifetime totals. Linux only — elsewhere
    /// this returns [`io::ErrorKind::Unsupported`] without serving.
    pub fn run(self) -> io::Result<DrainReport> {
        let registry = &self.metrics;
        let conn_stats = ConnStats::new(registry);
        let runtime = Arc::new(RuntimeStats::new(self.config.threads.max(1), FLIGHT_EVENTS));
        let handler = Arc::new(Handler {
            tenants: Arc::clone(&self.tenants),
            obs: Arc::clone(&self.obs),
            runtime: Arc::clone(&runtime),
            max_connections: self.config.max_connections,
            metrics: registry.clone(),
            requests: registry.counter(names::SERVER_REQUESTS),
            errors: registry.counter(names::SERVER_ERRORS),
            latency: registry.histogram(names::SERVER_REQUEST),
            conn_stats: conn_stats.clone(),
        });
        self.run_event_loop(&handler)?;
        let (cache_hits, cache_misses, cache_evictions) = self.tenants.cache_totals();
        Ok(DrainReport {
            requests: handler.requests.get(),
            errors: handler.errors.get(),
            cache_hits,
            cache_misses,
            cache_evictions,
            connections: conn_stats.opened.get(),
            keepalive_reuse: conn_stats.reuse.get(),
            loop_wakes: runtime.events_per_wake().count(),
            queue_waits: runtime.queue_wait().count(),
            flight_events: runtime.flight().total_recorded(),
        })
    }

    /// The epoll event loop (Linux).
    #[cfg(target_os = "linux")]
    fn run_event_loop(&self, handler: &Arc<Handler>) -> io::Result<()> {
        crate::event_loop::run_event_loop(&self.listener, handler, &self.config, &self.shutdown)
    }

    /// There is no other wire path: a clear error beats a silent
    /// behavioural downgrade.
    #[cfg(not(target_os = "linux"))]
    fn run_event_loop(&self, _handler: &Arc<Handler>) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "xclean-server serves from a Linux epoll event loop; this platform is not supported",
        ))
    }
}

/// The reply for a request the framer rejected. Separated from the
/// socket so tests can drive every error path directly.
pub(crate) fn reply_for(error: HttpError) -> Reply {
    match error {
        HttpError::Malformed(m) => Reply::error(400, m).tagged("malformed"),
        HttpError::BodyTooLarge { advertised, limit } => Reply::error(
            413,
            &format!("body of {advertised} bytes exceeds limit of {limit}"),
        )
        .tagged("body_too_large"),
    }
}

/// The single bookkeeping choke point: lifetime counters, the latency
/// histogram, and the observability plane all record here, so the ring
/// and `/metrics` can never disagree about what was served.
pub(crate) fn observe_reply(handler: &Handler, reply: Reply, trace_id: String, arrived_nanos: u64) {
    let total_nanos = handler
        .obs
        .clock()
        .now_nanos()
        .saturating_sub(arrived_nanos)
        .max(1);
    handler.requests.inc();
    if reply.status >= 400 {
        handler.errors.inc();
    }
    handler.latency.record(total_nanos);
    let mut record = reply.obs;
    record.trace_id = trace_id;
    record.status = reply.status;
    record.total_nanos = total_nanos;
    record.arrived_nanos = arrived_nanos;
    if record.route.is_empty() {
        record.route = "other";
    }
    // A reply tagged with a corpus is that tenant's: its request and
    // error counters and its rolling windows (graded by the event the
    // global windows get) count exactly the ring records that carry its
    // name.
    let tenant = handler.tenants.get(&record.corpus);
    let event = handler.obs.observe(record);
    if let Some(tenant) = tenant {
        tenant.requests().inc();
        if event.error {
            tenant.errors().inc();
        }
        tenant.record_window(arrived_nanos, &event);
    }
}

/// Splits a request target into path and (un-decoded) query string.
fn split_target(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    }
}

/// The raw value of `name` in a query string, if present.
fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == name).then_some(v)
    })
}

/// Percent-decodes a query-string value (`+` means space). `None` on
/// truncated or non-hex escapes, or when the bytes are not UTF-8.
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = std::str::from_utf8(bytes.get(i + 1..i + 3)?).ok()?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// What the loop-side half of routing decided about one request.
pub(crate) enum Resolved {
    /// Answered without the pool: a cache hit, or an error that needs
    /// neither the engine nor a page render.
    Reply(Reply),
    /// `GET /debug/conns` for up to this many rows: the loop answers it
    /// from its own connection table, which no other thread can read.
    Conns(usize),
    /// Work for a pool worker.
    Work(Work),
}

impl From<Reply> for Resolved {
    fn from(reply: Reply) -> Resolved {
        Resolved::Reply(reply)
    }
}

/// A pool-side page: renders from live state (or runs the engine under
/// observation, for explain), given the request's raw query string.
type Page = fn(&Handler, &str) -> Reply;

/// The pool-side half's input. It owns everything [`resolve`] found out,
/// so a worker neither parses the request nor probes the cache again.
pub(crate) enum Work {
    /// A single query the cache did not hold. `tenant` indexes the
    /// [`TenantSet`]; `key.query` is the normalized query.
    Miss {
        tenant: usize,
        keywords: Vec<String>,
        key: CacheKey,
    },
    /// A batch POST's queries, in request order.
    Batch { tenant: usize, queries: Vec<String> },
    /// A page route with its ring tag and raw query string.
    Page {
        render: Page,
        tag: &'static str,
        query: String,
    },
}

impl Work {
    /// The catalog position of the tenant this work computes for.
    pub(crate) fn tenant(&self) -> Option<usize> {
        match self {
            Work::Miss { tenant, .. } | Work::Batch { tenant, .. } => Some(*tenant),
            Work::Page { .. } => None,
        }
    }
}

/// Resolve, then compute: the whole route in one call, as the unit
/// tests drive it. The server runs the halves on different threads, and
/// `/debug/conns` here sees an empty connection table.
#[cfg(test)]
pub(crate) fn route(request: &Request, handler: &Handler, trace_id: &str) -> Reply {
    match resolve(request, handler, trace_id) {
        Resolved::Reply(reply) => reply,
        Resolved::Conns(_) => conns_reply(handler, []),
        Resolved::Work(work) => compute(work, handler, trace_id),
    }
}

/// The loop-side half of routing: method, path and tenant, the `q` or
/// `"query"` decode, normalisation and one cache probe. Its cost is
/// linear in the request bytes the framer already bounded, and it never
/// runs the engine or renders a page — those become [`Work`].
pub(crate) fn resolve(request: &Request, handler: &Handler, trace_id: &str) -> Resolved {
    let (path, query) = split_target(&request.path);
    if let Some(name) = path.strip_prefix("/suggest/") {
        // Per-corpus routing: an unknown corpus is a structured 404 that
        // flows through `observe_reply` like every other answer (its
        // ring tag distinguishes it from a plain bad path).
        let Some(tenant) = handler.tenants.index_of(name) else {
            return Reply::error(404, &format!("no such corpus: {name}"))
                .tagged("unknown_corpus")
                .into();
        };
        return resolve_suggest(handler, tenant, request, query, trace_id);
    }
    let (render, tag): (Page, &'static str) = match (request.method.as_str(), path) {
        ("GET", "/healthz") => (healthz, "healthz"),
        ("GET", "/metrics") => (metrics, "metrics"),
        ("GET", "/statusz") => (statusz, "statusz"),
        ("GET", "/debug/requests") => (debug_requests, "debug_requests"),
        ("GET", "/debug/conns") => {
            return match parse_count(query, "n", 20, debug::MAX_DEBUG_CONNS) {
                Ok(n) => Resolved::Conns(n),
                Err(m) => Reply::error(400, &m).tagged("debug_conns").into(),
            }
        }
        ("GET", "/debug/flight") => (debug_flight, "debug_flight"),
        ("GET", "/debug/explain") => (debug_explain, "debug_explain"),
        (_, "/suggest") => return resolve_suggest(handler, 0, request, query, trace_id),
        (_, page) if PAGE_ROUTES.contains(&page) => {
            return Reply::error(405, "method not allowed")
                .tagged("method_not_allowed")
                .into()
        }
        _ => {
            return Reply::error(404, "no such endpoint")
                .tagged("not_found")
                .into()
        }
    };
    Resolved::Work(Work::Page {
        render,
        tag,
        query: query.to_string(),
    })
}

/// The `500` a worker answers when computing work for `tenant` (see
/// [`Work::tenant`]) panicked. It keeps the corpus, so the failure lands
/// in that tenant's errors and windows like any other reply it routed.
pub(crate) fn panic_reply(handler: &Handler, tenant: Option<usize>) -> Reply {
    let mut reply = Reply::error(500, "internal error").tagged("panic");
    if let Some(tenant) = tenant {
        reply.obs.corpus = handler.tenants.at(tenant).name().to_string();
    }
    reply
}

/// The pool-side half of routing: runs the engine for a miss or a
/// batch, or renders a page.
pub(crate) fn compute(work: Work, handler: &Handler, trace_id: &str) -> Reply {
    match work {
        Work::Miss {
            tenant,
            keywords,
            key,
        } => computed_result(&keywords, key, handler.tenants.at(tenant), trace_id),
        Work::Batch { tenant, queries } => {
            let tenant = handler.tenants.at(tenant);
            let _request_span = request_span(tenant, trace_id);
            let (body, hits, misses, obs) = batch_suggest(&queries, tenant);
            Reply {
                status: 200,
                content_type: "application/json",
                cache_header: Some(format!("hits={hits} misses={misses}")),
                body,
                obs,
            }
        }
        Work::Page { render, tag, query } => render(handler, &query).tagged(tag),
    }
}

/// Method dispatch for one resolved tenant — shared by bare `/suggest`
/// (primary) and `/suggest/<corpus>`.
fn resolve_suggest(
    handler: &Handler,
    index: usize,
    request: &Request,
    query: &str,
    trace_id: &str,
) -> Resolved {
    let tenant = handler.tenants.at(index);
    let resolved = match request.method.as_str() {
        "GET" => suggest_get(query, index, tenant, trace_id),
        "POST" => suggest_post(request, index, tenant, trace_id),
        _ => Reply::error(405, "method not allowed")
            .tagged("method_not_allowed")
            .into(),
    };
    let Resolved::Reply(reply) = resolved else {
        return resolved;
    };
    let mut reply = reply.tagged("suggest");
    // Every routed request — errors included — carries the resolved
    // corpus name into the ring, the slow log, and the tenant's counters
    // and windows.
    if reply.obs.corpus.is_empty() {
        reply.obs.corpus = tenant.name().to_string();
    }
    reply.into()
}

fn healthz(handler: &Handler, _query: &str) -> Reply {
    for tenant in handler.tenants.iter() {
        if let Err(m) = tenant.cache().check_consistency() {
            return Reply::error(
                500,
                &format!("cache inconsistent (corpus {}): {m}", tenant.name()),
            );
        }
    }
    // The top-level fields keep the single-corpus shape (they describe
    // the primary tenant); the `corpora` array covers the whole catalog.
    let primary = handler.tenants.primary();
    let queries = primary
        .engine()
        .metrics()
        .counter_value(names::QUERIES)
        .unwrap_or(0);
    let hex = |n: u64| Json::from(format!("{n:016x}"));
    // The file a corpus serves; `null` for one built in memory or read
    // back from a shard set.
    let snapshot = |tenant: &Tenant| -> Json {
        tenant
            .engine()
            .snapshot()
            .map(|(format, checksum)| {
                Json::object([("format", format.into()), ("checksum", hex(checksum))])
            })
            .into()
    };
    let corpora = handler.tenants.iter().map(|tenant| {
        Json::object([
            ("name", tenant.name().into()),
            ("fingerprint", hex(tenant.fingerprint())),
            ("snapshot", snapshot(tenant)),
            ("requests", tenant.requests().get().into()),
            ("cache_entries", tenant.cache().len().into()),
        ])
    });
    let cache = Json::object([
        ("entries", primary.cache().len().into()),
        ("capacity", primary.cache().capacity().into()),
        ("shards", primary.cache().shard_count().into()),
    ]);
    let body = Json::object([
        ("status", "ok".into()),
        ("fingerprint", hex(primary.fingerprint())),
        ("uptime_secs", handler.obs.uptime_secs().into()),
        ("snapshot", snapshot(primary)),
        ("queries_total", queries.into()),
        ("max_connections", handler.max_connections.into()),
        ("open_connections", handler.conn_stats.open().into()),
        ("cache", cache),
        ("corpora", corpora.collect()),
    ]);
    Reply::json(200, body)
}

/// `GET /metrics`: one collect-then-render pass in which every series
/// has one owner. Every source hands the page typed samples;
/// [`Exposition::render`] writes the text once.
fn metrics(handler: &Handler, _query: &str) -> Reply {
    let mut page = Exposition::new();
    // The server's own registry, unlabelled.
    handler.metrics.collect(&mut page, &[]);
    // The open-connection gauge is derived (opened − closed) rather than
    // registered: the registry only holds monotonic series.
    let open = Value::Int(handler.conn_stats.open());
    page.gauge(names::CONNECTIONS_OPEN, &[], open);
    handler
        .runtime
        .collect(&mut page, handler.obs.uptime_nanos());
    // Every tenant's engine registry under its corpus: engine counters,
    // stage histograms, cache and per-corpus request counters.
    for tenant in handler.tenants.iter() {
        let corpus = [("corpus", tenant.name())];
        tenant.engine().metrics().collect(&mut page, &corpus);
    }
    handler
        .tenants
        .collect(&mut page, handler.obs.clock().now_nanos());
    Reply {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        cache_header: None,
        body: page.render(),
        obs: RequestRecord::default(),
    }
}

fn statusz(handler: &Handler, _query: &str) -> Reply {
    Reply {
        status: 200,
        content_type: "text/plain; charset=utf-8",
        cache_header: None,
        body: debug::render_statusz(handler),
        obs: RequestRecord::default(),
    }
}

/// Parses a bounded count parameter for the debug endpoints. Absent →
/// `default`; present values must be integers in `0..=max` — negative,
/// non-numeric, and absurdly large values are a 400, never silently
/// clamped (a clamped answer looks complete while hiding history).
fn parse_count(query: &str, name: &str, default: usize, max: usize) -> Result<usize, String> {
    match query_param(query, name) {
        None => Ok(default),
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n <= max => Ok(n),
            Ok(n) => Err(format!("{name}={n} exceeds the maximum of {max}")),
            Err(_) => Err(format!(
                "{name} must be a non-negative integer (at most {max})"
            )),
        },
    }
}

fn debug_requests(handler: &Handler, query: &str) -> Reply {
    let n = match parse_count(query, "n", 20, debug::MAX_DEBUG_REQUESTS) {
        Ok(n) => n,
        Err(m) => return Reply::error(400, &m),
    };
    // `corpus=<name>` narrows the history to one tenant's requests. An
    // unknown name is a structured 400, never an empty-but-200 answer
    // that looks like "no traffic" (the `parse_count` discipline).
    let records = match query_param(query, "corpus") {
        None => handler.obs.recent(n),
        Some(name) => {
            if handler.tenants.get(name).is_none() {
                return Reply::error(400, &format!("no such corpus: {name}"));
            }
            let mut filtered: Vec<RequestRecord> = handler
                .obs
                .recent(debug::MAX_DEBUG_REQUESTS)
                .into_iter()
                .filter(|r| r.corpus == name)
                .collect();
            filtered.truncate(n);
            filtered
        }
    };
    Reply::json(
        200,
        debug::requests_json(&records, handler.obs.total_observed()),
    )
}

/// The `GET /debug/conns` reply over `rows`, which the event loop builds
/// from its own connection table.
pub(crate) fn conns_reply(handler: &Handler, rows: impl IntoIterator<Item = Json>) -> Reply {
    let body = debug::conns_json(handler.conn_stats.open(), rows);
    Reply::json(200, body).tagged("debug_conns")
}

fn debug_flight(handler: &Handler, query: &str) -> Reply {
    let n = match parse_count(query, "events", 256, debug::MAX_FLIGHT_EVENTS) {
        Ok(n) => n,
        Err(m) => return Reply::error(400, &m),
    };
    Reply::json(200, handler.runtime.flight().chrome_trace_json(n))
}

/// `GET /debug/explain?corpus=<c>&q=<q>`: runs the suggestion pipeline
/// under observation and returns the structured trace. Explain is the
/// serving run without the serving wrapper — it never consults or fills
/// the response cache (bypass by construction, not by flag) nor moves a
/// query counter, and the suggestions in the trace are bit-identical to
/// what `/suggest` would serve for the same query.
fn debug_explain(handler: &Handler, query: &str) -> Reply {
    let tenant = match query_param(query, "corpus") {
        None => handler.tenants.primary(),
        Some(name) => match handler.tenants.get(name) {
            Some(t) => t,
            None => return Reply::error(404, &format!("no such corpus: {name}")),
        },
    };
    let Some(raw) = query_param(query, "q") else {
        return Reply::error(400, "missing q parameter");
    };
    let Some(decoded) = percent_decode(raw) else {
        return Reply::error(400, "bad percent-encoding in q");
    };
    let keywords = tenant.engine().parse_query(&decoded);
    if keywords.is_empty() {
        return Reply::error(400, "query contains no keywords");
    }
    let trace = tenant.engine().explain_keywords(&keywords);
    let normalized = keywords.join(" ");
    let mut reply = Reply::json(200, explain_json(tenant.name(), &normalized, &trace));
    reply.obs.route = "debug_explain";
    reply.obs.query = normalized;
    reply.obs.corpus = tenant.name().to_string();
    reply
}

/// One [`ExplainTrace`] as the `/debug/explain` response body. Schema
/// documented in DESIGN.md §17.
fn explain_json(corpus: &str, normalized: &str, trace: &ExplainTrace) -> Json {
    let keywords = trace.keywords.iter().map(|k| {
        let variants = k.variants.iter().map(|v| {
            Json::object([
                ("term", v.term.as_str().into()),
                ("distance", v.distance.into()),
            ])
        });
        Json::object([
            ("keyword", k.keyword.as_str().into()),
            ("variants", variants.collect()),
        ])
    });
    let s = &trace.stages;
    let stages = Json::object([
        ("keywords", s.keywords.into()),
        ("variants", s.variants.into()),
        ("candidate_space", s.candidate_space.into()),
        ("subtrees", s.subtrees.into()),
        ("candidates_enumerated", s.candidates_enumerated.into()),
        (
            "result_type_computations",
            s.result_type_computations.into(),
        ),
        ("entities_scored", s.entities_scored.into()),
        ("contributions", s.contributions.into()),
        ("accumulators", s.accumulators.into()),
        ("evictions", s.evictions.into()),
        ("rejected", s.rejected.into()),
        ("ranked", s.ranked.into()),
        ("suggestions", s.suggestions.into()),
    ]);
    let n = &trace.nanos;
    let nanos = Json::object([
        ("slot", n.slot.into()),
        ("walk", n.walk.into()),
        ("rank", n.rank.into()),
        ("total", n.total.into()),
    ]);
    let evictions = trace.evictions.iter().map(|e| {
        Json::object([
            ("kind", e.kind.as_str().into()),
            ("terms", e.terms.iter().map(String::as_str).collect()),
            ("estimate", e.estimate.into()),
        ])
    });
    let truncated = trace.eviction_events_total > trace.evictions.len() as u64;
    Json::object([
        ("corpus", corpus.into()),
        ("query", normalized.into()),
        ("semantics", trace.semantics.into()),
        ("gamma", trace.gamma.into()),
        ("cache", "bypassed".into()),
        ("keywords", keywords.collect()),
        ("stages", stages),
        ("nanos", nanos),
        ("evictions", evictions.collect()),
        ("eviction_events_total", trace.eviction_events_total.into()),
        ("evictions_truncated", truncated.into()),
        ("suggestions", suggestions_json(&trace.suggestions)),
    ])
}

/// One per-query result object — the unit the cache stores, printed. It
/// contains only the *normalized* query and the (deterministic)
/// suggestions, never timings, so a cached body is byte-identical to a
/// freshly computed one.
fn result_body(normalized: &str, response: &SuggestResponse) -> Arc<str> {
    let result = Json::object([
        ("query", normalized.into()),
        ("suggestions", suggestions_json(&response.suggestions)),
    ]);
    Arc::from(result.render())
}

/// The suggestions array shared by `/suggest` result objects and
/// `/debug/explain` traces — one builder, so an explain trace's
/// suggestions are byte-identical to the served ones by construction.
fn suggestions_json(suggestions: &[Suggestion]) -> Json {
    suggestions.iter().map(Suggestion::to_json).collect()
}

/// The root span of one request's engine work: engine spans opened
/// inside it chain under it, so the trace ID names one tree in exported
/// traces.
fn request_span<'t>(tenant: &'t Tenant, trace_id: &str) -> SpanGuard<'t> {
    tenant
        .engine()
        .tracer()
        .span_with("request", || trace_id.to_string())
}

/// The reply for one single-query answer, hit or computed: the body is
/// the cached (or just cached) result object, byte for byte.
fn single_query_reply(body: &str, obs: RequestRecord) -> Reply {
    let outcome = if obs.cache_hit == Some(true) {
        "hit"
    } else {
        "miss"
    };
    Reply {
        status: 200,
        content_type: "application/json",
        cache_header: Some(outcome.to_string()),
        body: body.to_string(),
        obs,
    }
}

/// Probes the cache for one normalized query. A hit is answered here;
/// a miss becomes [`Work::Miss`], carrying the keywords and key so the
/// worker neither re-parses nor re-probes — and the miss is counted by
/// the worker that computes it, not by this probe.
fn lookup(index: usize, tenant: &Tenant, keywords: Vec<String>, trace_id: &str) -> Resolved {
    let key = CacheKey {
        query: keywords.join(" "),
        fingerprint: tenant.fingerprint(),
    };
    let Some(hit) = tenant.cache().probe(&key) else {
        return Resolved::Work(Work::Miss {
            tenant: index,
            keywords,
            key,
        });
    };
    let _request_span = request_span(tenant, trace_id);
    let obs = RequestRecord {
        route: "suggest",
        query: key.query,
        corpus: tenant.name().to_string(),
        cache_hit: Some(true),
        ..RequestRecord::default()
    };
    single_query_reply(&hit, obs).into()
}

/// Computes one query the cache missed, stores the rendered result
/// object, and returns it with what the ring should remember (per-stage
/// nanos and counters).
fn computed_result(keywords: &[String], key: CacheKey, tenant: &Tenant, trace_id: &str) -> Reply {
    let _request_span = request_span(tenant, trace_id);
    tenant.cache().record_miss();
    let response = tenant.engine().suggest_keywords(keywords);
    let rendered = result_body(&key.query, &response);
    let obs = RequestRecord {
        route: "suggest",
        query: key.query.clone(),
        corpus: tenant.name().to_string(),
        cache_hit: Some(false),
        slot_nanos: response.stats.slot_nanos,
        walk_nanos: response.stats.walk_nanos,
        rank_nanos: response.stats.rank_nanos,
        candidates: response.stats.candidates_enumerated,
        entities: response.stats.entities_scored,
        suggestions: response.suggestions.len() as u64,
        ..RequestRecord::default()
    };
    tenant.cache().insert(key, Arc::clone(&rendered));
    single_query_reply(&rendered, obs)
}

fn suggest_get(query: &str, index: usize, tenant: &Tenant, trace_id: &str) -> Resolved {
    let Some(raw) = query_param(query, "q") else {
        return Reply::error(400, "missing q parameter").into();
    };
    let Some(decoded) = percent_decode(raw) else {
        return Reply::error(400, "bad percent-encoding in q").into();
    };
    let keywords = tenant.engine().parse_query(&decoded);
    if keywords.is_empty() {
        return Reply::error(400, "query contains no keywords").into();
    }
    lookup(index, tenant, keywords, trace_id)
}

fn suggest_post(request: &Request, index: usize, tenant: &Tenant, trace_id: &str) -> Resolved {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Reply::error(400, "body is not utf-8").into();
    };
    let parsed = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Reply::error(400, &format!("invalid JSON body: {e}")).into(),
    };
    match (parsed.get("query"), parsed.get("queries")) {
        (Some(_), Some(_)) => Reply::error(400, "give \"query\" or \"queries\", not both").into(),
        (Some(q), None) => {
            let Some(q) = q.as_str() else {
                return Reply::error(400, "\"query\" must be a string").into();
            };
            let keywords = tenant.engine().parse_query(q);
            if keywords.is_empty() {
                return Reply::error(400, "query contains no keywords").into();
            }
            lookup(index, tenant, keywords, trace_id)
        }
        (None, Some(qs)) => {
            let Some(items) = qs.as_array() else {
                return Reply::error(400, "\"queries\" must be an array of strings").into();
            };
            if items.len() > MAX_BATCH_QUERIES {
                return Reply::error(
                    400,
                    &format!("at most {MAX_BATCH_QUERIES} queries per batch"),
                )
                .into();
            }
            let Some(queries) = items
                .iter()
                .map(|q| q.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
            else {
                return Reply::error(400, "\"queries\" must be an array of strings").into();
            };
            Resolved::Work(Work::Batch {
                tenant: index,
                queries,
            })
        }
        (None, None) => Reply::error(400, "body must contain \"query\" or \"queries\"").into(),
    }
}

/// The batch path: answer every hit from the cache, send the misses
/// through `suggest_many_keywords` (the engine's worker pool) in one go,
/// and reassemble in request order.
fn batch_suggest(raw: &[String], tenant: &Tenant) -> (String, u64, u64, RequestRecord) {
    let keyword_lists: Vec<Vec<String>> =
        raw.iter().map(|q| tenant.engine().parse_query(q)).collect();
    let mut slots: Vec<Option<Arc<str>>> = vec![None; raw.len()];
    let mut miss_idx = Vec::new();
    let mut hits = 0u64;
    for (i, keywords) in keyword_lists.iter().enumerate() {
        let key = CacheKey {
            query: keywords.join(" "),
            fingerprint: tenant.fingerprint(),
        };
        match tenant.cache().get(&key) {
            Some(hit) => {
                slots[i] = Some(hit);
                hits += 1;
            }
            None => miss_idx.push(i),
        }
    }
    let misses = miss_idx.len() as u64;
    let mut obs = RequestRecord {
        route: "suggest_batch",
        corpus: tenant.name().to_string(),
        cache_hit: Some(miss_idx.is_empty()),
        ..RequestRecord::default()
    };
    if !miss_idx.is_empty() {
        let miss_keywords: Vec<Vec<String>> =
            miss_idx.iter().map(|&i| keyword_lists[i].clone()).collect();
        let responses = tenant.engine().suggest_many_keywords(&miss_keywords);
        for (&i, response) in miss_idx.iter().zip(responses.iter()) {
            obs.slot_nanos += response.stats.slot_nanos;
            obs.walk_nanos += response.stats.walk_nanos;
            obs.rank_nanos += response.stats.rank_nanos;
            obs.candidates += response.stats.candidates_enumerated;
            obs.entities += response.stats.entities_scored;
            obs.suggestions += response.suggestions.len() as u64;
            let normalized = keyword_lists[i].join(" ");
            let rendered = result_body(&normalized, response);
            tenant.cache().insert(
                CacheKey {
                    query: normalized,
                    fingerprint: tenant.fingerprint(),
                },
                Arc::clone(&rendered),
            );
            slots[i] = Some(rendered);
        }
    }
    // The one JSON text not printed by the codec: the cache stores result
    // objects already printed, so the batch envelope splices them in
    // rather than parse and print them again.
    let mut body = String::from("{\"results\":[");
    for (i, slot) in slots.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(slot.as_deref().expect("every slot answered"));
    }
    body.push_str("]}");
    (body, hits, misses, obs)
}

/// A handler over in-memory corpora given as `(name, xml)` pairs, with
/// 64-entry caches, two workers and a 64-event flight recorder — what
/// the unit tests route through without a socket.
#[cfg(test)]
pub(crate) fn test_handler(
    clock: Arc<xclean_telemetry::ManualClock>,
    corpora: &[(&str, &str)],
) -> Handler {
    let corpora = corpora.iter().map(|&(name, xml)| {
        let tree = xclean_xmltree::parse_document(xml).unwrap();
        let engine = XCleanEngine::new(tree, xclean::XCleanConfig::default());
        (name.to_string(), Arc::new(engine))
    });
    let tenants = Arc::new(TenantSet::build(corpora.collect(), 64).unwrap());
    let registry = MetricsRegistry::default();
    let obs = Arc::new(Observability::new(
        clock,
        1_000_000_000, // 1 s: nothing is "slow" under a manual clock
        1_000_000,     // 1 ms SLO: advance the clock past it to breach
        Box::new(io::sink()),
    ));
    Handler {
        requests: registry.counter(names::SERVER_REQUESTS),
        errors: registry.counter(names::SERVER_ERRORS),
        latency: registry.histogram(names::SERVER_REQUEST),
        conn_stats: ConnStats::new(&registry),
        metrics: registry,
        runtime: Arc::new(RuntimeStats::new(2, 64)),
        max_connections: 4096,
        tenants,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_telemetry::{ManualClock, RuntimeEventKind};

    fn handler() -> Handler {
        handler_with_clock(ManualClock::starting_at(0))
    }

    fn handler_with_clock(clock: Arc<ManualClock>) -> Handler {
        let xml = "<db><rec><t>health insurance</t></rec><rec><t>program instance</t></rec></db>";
        test_handler(clock, &[("default", xml)])
    }

    /// Routes and observes one request, as the loop would; returns the
    /// status, `X-Cache` header and body the client saw.
    fn serve(h: &Handler, request: &Request) -> (u16, Option<String>, String) {
        let reply = route(request, h, T);
        let seen = (reply.status, reply.cache_header.clone(), reply.body.clone());
        observe_reply(h, reply, T.to_string(), 0);
        seen
    }

    /// `GET /metrics`, checked as one conformant document.
    fn metrics_page(h: &Handler) -> String {
        let reply = route(&get("/metrics"), h, T);
        assert_eq!(reply.status, 200);
        crate::conformance::check_page(&reply.body);
        reply.body
    }

    fn post(body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: "/suggest".to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    const T: &str = "t-test";

    #[test]
    fn single_query_misses_then_hits_bit_identically() {
        let h = handler();
        let first = route(&post(r#"{"query": "helth insurance"}"#), &h, T);
        assert_eq!(first.status, 200);
        assert_eq!(first.cache_header.as_deref(), Some("miss"));
        assert!(
            first.body.contains("\"health insurance\""),
            "{}",
            first.body
        );
        // Different raw spelling, same normalized form → hit, same bytes.
        let second = route(&post(r#"{"query": "  HELTH   insurance "}"#), &h, T);
        assert_eq!(second.cache_header.as_deref(), Some("hit"));
        assert_eq!(first.body, second.body);
        assert_eq!(h.tenants.primary().cache().counters(), (1, 1, 0));
        // The miss carried engine work in its observability payload.
        assert_eq!(first.obs.cache_hit, Some(false));
        assert!(first.obs.walk_nanos > 0);
        assert_eq!(second.obs.cache_hit, Some(true));
        assert_eq!(second.obs.walk_nanos, 0);
        assert_eq!(first.obs.query, "helth insurance");
    }

    #[test]
    fn get_suggest_decodes_and_matches_post() {
        let h = handler();
        let via_get = route(&get("/suggest?q=helth%20insurance"), &h, T);
        assert_eq!(via_get.status, 200, "{}", via_get.body);
        let via_post = route(&post(r#"{"query": "helth insurance"}"#), &h, T);
        assert_eq!(via_get.body, via_post.body);
        assert_eq!(
            via_post.cache_header.as_deref(),
            Some("hit"),
            "shared cache"
        );
        // '+' decodes to space too.
        let plus = route(&get("/suggest?q=helth+insurance"), &h, T);
        assert_eq!(plus.body, via_get.body);
        // Error paths.
        assert_eq!(route(&get("/suggest"), &h, T).status, 400);
        assert_eq!(route(&get("/suggest?q=%zz"), &h, T).status, 400);
        assert_eq!(route(&get("/suggest?q=..."), &h, T).status, 400);
    }

    #[test]
    fn batch_reassembles_in_order_and_uses_cache() {
        let h = handler();
        let warm = route(&post(r#"{"query": "program instance"}"#), &h, T);
        assert_eq!(warm.status, 200);
        let reply = route(
            &post(r#"{"queries": ["helth insurance", "program instance", "zzz qqq"]}"#),
            &h,
            T,
        );
        assert_eq!(reply.status, 200);
        assert_eq!(reply.cache_header.as_deref(), Some("hits=1 misses=2"));
        let order: Vec<usize> = ["helth insurance", "program instance", "\"zzz qqq\""]
            .iter()
            .map(|n| reply.body.find(*n).expect(n))
            .collect();
        assert!(order[0] < order[1] && order[1] < order[2], "{}", reply.body);
        assert_eq!(reply.obs.route, "suggest_batch");
        assert!(reply.obs.walk_nanos > 0, "misses did engine work");
    }

    #[test]
    fn malformed_bodies_yield_structured_errors() {
        let h = handler();
        for (body, needle) in [
            ("{not json", "invalid JSON body"),
            ("[1,2]", "must contain"),
            (r#"{"query": 7}"#, "must be a string"),
            (r#"{"queries": "x"}"#, "array of strings"),
            (r#"{"queries": [1]}"#, "array of strings"),
            (r#"{"query": "a", "queries": ["b"]}"#, "not both"),
            (r#"{"query": "...!!!"}"#, "no keywords"),
        ] {
            let reply = route(&post(body), &h, T);
            assert_eq!(reply.status, 400, "{body}");
            assert!(reply.body.contains("\"error\""), "{}", reply.body);
            assert!(reply.body.contains(needle), "{body} → {}", reply.body);
        }
    }

    /// The default `max_body_bytes` admits a 1 MiB string; parsing one
    /// used to take quadratic time (18 s in a release build).
    #[test]
    fn a_body_sized_query_string_is_answered_promptly() {
        let h = handler();
        let body = Json::object([("query", "?!".repeat(512 * 1024).into())]).render();
        let start = std::time::Instant::now();
        let reply = route(&post(&body), &h, T);
        let elapsed = start.elapsed();
        assert_eq!(reply.status, 400, "{}", reply.body);
        assert!(reply.body.contains("no keywords"), "{}", reply.body);
        assert!(elapsed.as_secs() < 5, "took {elapsed:?}");
    }

    #[test]
    fn routing_rejects_unknown_paths_and_methods() {
        let h = handler();
        let mut r = post("{}");
        r.path = "/nope".to_string();
        assert_eq!(route(&r, &h, T).status, 404);
        let mut r = post("{}");
        r.method = "GET".to_string();
        assert_eq!(route(&r, &h, T).status, 400, "GET /suggest wants ?q=");
        let mut r = post("{}");
        r.method = "DELETE".to_string();
        r.path = "/metrics".to_string();
        assert_eq!(route(&r, &h, T).status, 405);
        let mut r = post("{}");
        r.path = "/statusz".to_string();
        assert_eq!(route(&r, &h, T).status, 405);
        // Every listed page answers GET (some want a parameter: 400) and
        // refuses other methods.
        for page in PAGE_ROUTES {
            assert!(
                [200, 400].contains(&route(&get(page), &h, T).status),
                "{page}"
            );
            let mut r = get(page);
            r.method = "PUT".to_string();
            assert_eq!(route(&r, &h, T).status, 405, "{page}");
        }
    }

    #[test]
    fn healthz_reports_fingerprint_provenance_and_uptime() {
        let clock = ManualClock::starting_at(0);
        let h = handler_with_clock(Arc::clone(&clock));
        let _ = route(&post(r#"{"query": "helth insurance"}"#), &h, T);
        clock.advance_secs(7);
        let reply = route(&get("/healthz"), &h, T);
        assert_eq!(reply.status, 200);
        assert!(reply.body.contains("\"status\":\"ok\""), "{}", reply.body);
        assert!(reply.body.contains("\"queries_total\":1"), "{}", reply.body);
        assert!(reply.body.contains("\"uptime_secs\":7"), "{}", reply.body);
        // An in-memory corpus has no snapshot provenance.
        assert!(reply.body.contains("\"snapshot\":null"), "{}", reply.body);
        assert!(
            reply.body.contains(&format!(
                "\"fingerprint\":\"{:016x}\"",
                h.tenants.primary().fingerprint()
            )),
            "{}",
            reply.body
        );
        assert!(
            reply.body.contains("\"cache\":{\"entries\":1"),
            "{}",
            reply.body
        );
        // Satellite: runtime shape for load balancers.
        assert!(
            reply.body.contains("\"max_connections\":4096"),
            "{}",
            reply.body
        );
        assert!(
            reply.body.contains("\"open_connections\":0"),
            "{}",
            reply.body
        );
    }

    #[test]
    fn statusz_and_debug_requests_render() {
        let h = handler();
        let reply = route(&post(r#"{"query": "helth insurance"}"#), &h, T);
        observe_reply(&h, reply, "trace-xyz".to_string(), 0);
        let status = route(&get("/statusz"), &h, T);
        assert_eq!(status.status, 200);
        assert!(status.body.contains("uptime_secs:"), "{}", status.body);
        assert!(status.body.contains("trace-xyz"), "{}", status.body);
        let dbg = route(&get("/debug/requests?n=5"), &h, T);
        assert_eq!(dbg.status, 200);
        assert!(
            dbg.body.contains("\"trace_id\":\"trace-xyz\""),
            "{}",
            dbg.body
        );
        assert!(
            dbg.body.contains("\"query\":\"helth insurance\""),
            "{}",
            dbg.body
        );
        assert_eq!(route(&get("/debug/requests?n=x"), &h, T).status, 400);
    }

    /// Satellite: every debug endpoint rejects non-numeric, negative,
    /// and absurd counts with a structured 400 instead of silently
    /// clamping.
    #[test]
    fn debug_count_params_reject_garbage_with_400() {
        let h = handler();
        for (path, ok_path) in [
            ("/debug/requests", "/debug/requests?n=5"),
            ("/debug/conns", "/debug/conns?n=5"),
            ("/debug/flight", "/debug/flight?events=5"),
        ] {
            let param = if path == "/debug/flight" {
                "events"
            } else {
                "n"
            };
            for bad in ["x", "-1", "3.5", "", "99999999999999999999"] {
                let reply = route(&get(&format!("{path}?{param}={bad}")), &h, T);
                assert_eq!(reply.status, 400, "{path} {param}={bad}: {}", reply.body);
                assert!(reply.body.contains("\"error\""), "{}", reply.body);
            }
            // Absurd-but-parseable values are rejected, not clamped.
            let absurd = route(&get(&format!("{path}?{param}=1000001")), &h, T);
            assert_eq!(absurd.status, 400, "{}", absurd.body);
            assert!(
                absurd.body.contains("exceeds the maximum"),
                "{}",
                absurd.body
            );
            // Defaults and explicit sane values still work.
            assert_eq!(route(&get(path), &h, T).status, 200, "{path}");
            assert_eq!(route(&get(ok_path), &h, T).status, 200, "{ok_path}");
        }
    }

    /// `/debug/conns` is validated in `resolve` and handed to the loop,
    /// which alone holds the connection table; the reply wraps the rows
    /// it builds.
    #[test]
    fn debug_conns_reflects_registry_entries() {
        let h = handler();
        assert!(matches!(
            resolve(&get("/debug/conns?n=5"), &h, T),
            Resolved::Conns(5)
        ));
        assert!(matches!(
            resolve(&get("/debug/conns"), &h, T),
            Resolved::Conns(20)
        ));
        h.conn_stats.opened.inc();
        let row = Json::object([("id", 3u64.into()), ("requests", 2u64.into())]);
        let reply = conns_reply(&h, [row]);
        assert_eq!(reply.status, 200);
        assert_eq!(reply.obs.route, "debug_conns");
        assert_eq!(
            reply.body,
            "{\"open\":1,\"conns\":[{\"id\":3,\"requests\":2}]}"
        );
        let bad = route(&get("/debug/conns?n=x"), &h, T);
        assert_eq!((bad.status, bad.obs.route), (400, "debug_conns"));
        // Method guard covers the new endpoints too.
        let mut del = get("/debug/conns");
        del.method = "DELETE".to_string();
        assert_eq!(route(&del, &h, T).status, 405);
        let mut del = get("/debug/flight");
        del.method = "DELETE".to_string();
        assert_eq!(route(&del, &h, T).status, 405);
    }

    #[test]
    fn debug_flight_dumps_chrome_trace_events() {
        let h = handler();
        h.runtime
            .flight()
            .push(1_000, RuntimeEventKind::ConnOpen { conn: 9 });
        let reply = route(&get("/debug/flight?events=10"), &h, T);
        assert_eq!(reply.status, 200);
        assert!(
            reply.body.starts_with("{\"traceEvents\":["),
            "{}",
            reply.body
        );
        assert!(reply.body.contains("\"conn_open\""), "{}", reply.body);
        assert!(reply.body.contains("\"conn\":9"), "{}", reply.body);
    }

    #[test]
    fn metrics_include_runtime_series() {
        let h = handler();
        h.runtime.record_loop_wake(3, 1_500);
        h.runtime.record_queue_wait(2_000);
        h.runtime.record_worker_busy(0, 10);
        let body = metrics_page(&h);
        for line in [
            format!("{}_count 1\n", names::LOOP_LAG_SECONDS),
            format!("{}_count 1\n", names::QUEUE_WAIT_SECONDS),
            format!("{}_sum 0.000002\n", names::QUEUE_WAIT_SECONDS),
            format!("{}_sum 3\n", names::EVENTS_PER_WAKE),
            format!("{}{{worker=\"0\"}} ", names::WORKER_UTILIZATION),
        ] {
            assert!(body.contains(&line), "missing {line:?} in:\n{body}");
        }
    }

    #[test]
    fn batch_and_single_share_cache_entries() {
        let h = handler();
        let single = route(&post(r#"{"query": "helth insurance"}"#), &h, T);
        let batch = route(&post(r#"{"queries": ["helth insurance"]}"#), &h, T);
        assert_eq!(batch.cache_header.as_deref(), Some("hits=1 misses=0"));
        // The envelope splices the cached result text unchanged.
        let envelope = ["{\"results\":[", &single.body, "]}"].concat();
        assert_eq!(batch.body, envelope);
    }

    /// Satellite: every error reply path is traced and counted — the
    /// ring and the lifetime metrics must agree exactly.
    #[test]
    fn every_error_path_lands_in_ring_and_metrics() {
        let h = handler();
        let mut del = get("/metrics");
        del.method = "DELETE".to_string();
        let replies: Vec<Reply> = vec![
            // Unreadable requests: malformed head, oversized body, timeout.
            reply_for(HttpError::Malformed("bad request line")),
            reply_for(HttpError::BodyTooLarge {
                advertised: 999,
                limit: 16,
            }),
            Reply::timeout(),
            // Routed errors: 404, 405, invalid body.
            route(&get("/nope"), &h, T),
            route(&del, &h, T),
            route(&post("{not json"), &h, T),
            // Load-shed and panic replies use the same constructors.
            Reply::error(503, "server overloaded; retry").tagged("overload"),
            Reply::error(500, "internal error").tagged("panic"),
        ];
        let expected: Vec<u16> = vec![400, 413, 408, 404, 405, 400, 503, 500];
        let statuses: Vec<u16> = replies.iter().map(|r| r.status).collect();
        assert_eq!(statuses, expected);
        for (i, reply) in replies.into_iter().enumerate() {
            observe_reply(&h, reply, format!("err-{i}"), 0);
        }
        // Ring and metrics agree: every reply counted, every one an error.
        assert_eq!(h.requests.get(), expected.len() as u64);
        assert_eq!(h.errors.get(), expected.len() as u64);
        assert_eq!(h.obs.total_observed(), expected.len() as u64);
        let records = h.obs.recent(100);
        assert_eq!(records.len(), expected.len());
        assert!(records.iter().all(|r| r.is_error()));
        assert!(records.iter().all(|r| !r.trace_id.is_empty()));
        let routes: std::collections::BTreeSet<&str> = records.iter().map(|r| r.route).collect();
        for tag in [
            "malformed",
            "body_too_large",
            "timeout",
            "not_found",
            "method_not_allowed",
            "suggest",
            "overload",
            "panic",
        ] {
            assert!(routes.contains(tag), "missing route tag {tag}: {routes:?}");
        }
        // The windows saw them too, and the page says the same.
        assert_eq!(h.obs.window_snapshots()[0].errors, expected.len() as u64);
        let body = metrics_page(&h);
        for line in [
            format!("{} 8\n", names::SERVER_REQUESTS),
            format!("{} 8\n", names::SERVER_ERRORS),
            format!("{}_count 8\n", names::SERVER_REQUEST),
            format!("{} 0\n", names::CONNECTIONS_OPEN),
            // The one routed error (the invalid body) is the default
            // corpus's; the engine answered nothing.
            format!("{}{{corpus=\"default\"}} 1\n", names::CORPUS_ERRORS),
            format!("{}{{corpus=\"default\"}} 0\n", names::QUERIES),
        ] {
            assert!(body.contains(&line), "missing {line:?} in:\n{body}");
        }
    }

    const TWO_CORPORA: [(&str, &str); 2] = [
        ("default", "<db><rec><t>health insurance</t></rec></db>"),
        ("dblp", "<db><rec><t>program instance</t></rec></db>"),
    ];

    fn two_corpus_handler() -> Handler {
        test_handler(ManualClock::starting_at(0), &TWO_CORPORA)
    }

    #[test]
    fn corpus_routes_resolve_tenants_and_isolate_caches() {
        let h = two_corpus_handler();
        // Bare /suggest and /suggest/default answer from the same tenant
        // (and the same cache).
        let bare = serve(&h, &get("/suggest?q=helth+insurance"));
        let named = serve(&h, &get("/suggest/default?q=helth+insurance"));
        assert_eq!(bare.0, 200, "{}", bare.2);
        assert_eq!(named.2, bare.2);
        assert_eq!(named.1.as_deref(), Some("hit"));
        // The second corpus scores against its own index: same raw
        // query, different corpus, different answer and a cache miss.
        let other = serve(&h, &get("/suggest/dblp?q=program+instanse"));
        assert_eq!(other.0, 200, "{}", other.2);
        assert_eq!(other.1.as_deref(), Some("miss"));
        assert!(other.2.contains("program instance"), "{}", other.2);
        // POST routes per corpus too.
        let mut p = post(r#"{"query": "program instanse"}"#);
        p.path = "/suggest/dblp".to_string();
        assert_eq!(serve(&h, &p).1.as_deref(), Some("hit"));
        // Caches never bled into each other.
        assert_eq!(h.tenants.primary().cache().counters(), (1, 1, 0));
        assert_eq!(h.tenants.get("dblp").unwrap().cache().counters(), (1, 1, 0));
        // Per-corpus counters saw exactly the routed traffic.
        assert_eq!(h.tenants.primary().requests().get(), 2);
        assert_eq!(h.tenants.get("dblp").unwrap().requests().get(), 2);
        assert_eq!(h.tenants.primary().errors().get(), 0);
    }

    /// Satellite: unknown-corpus requests return a structured JSON 404
    /// that flows through `observe_reply` like every other answer.
    #[test]
    fn unknown_corpus_is_a_structured_404_and_lands_in_the_ring() {
        let h = two_corpus_handler();
        let reply = route(&get("/suggest/nope?q=health"), &h, T);
        assert_eq!(reply.status, 404);
        assert!(reply.body.contains("\"error\""), "{}", reply.body);
        assert!(
            reply.body.contains("no such corpus: nope"),
            "{}",
            reply.body
        );
        observe_reply(&h, reply, "t-404".to_string(), 0);
        assert_eq!(h.requests.get(), 1);
        assert_eq!(h.errors.get(), 1);
        let records = h.obs.recent(10);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].route, "unknown_corpus");
        assert_eq!(records[0].trace_id, "t-404");
        // No tenant was charged for the miss-route.
        assert!(h.tenants.iter().all(|t| t.requests().get() == 0));
        // Trailing-slash and method variants stay structured.
        assert_eq!(route(&get("/suggest/?q=x"), &h, T).status, 404);
        let mut del = get("/suggest/dblp?q=x");
        del.method = "DELETE".to_string();
        assert_eq!(route(&del, &h, T).status, 405);
    }

    #[test]
    fn observability_pages_cover_every_corpus() {
        let h = two_corpus_handler();
        serve(&h, &get("/suggest/dblp?q=program"));
        let health = route(&get("/healthz"), &h, T);
        assert!(health.body.contains("\"corpora\":["), "{}", health.body);
        assert!(health.body.contains("\"name\":\"dblp\""), "{}", health.body);
        let status = route(&get("/statusz"), &h, T);
        assert!(status.body.contains("corpora: 2"), "{}", status.body);
        assert!(
            status.body.contains("corpus[dblp]: cache="),
            "{}",
            status.body
        );
        assert!(status.body.contains("corpus[default]:"), "{}", status.body);
        assert!(
            status
                .body
                .contains("cache=1/64 requests=1 errors=0 queries=1\n"),
            "{}",
            status.body
        );
        let body = metrics_page(&h);
        for line in [
            format!("{}{{corpus=\"dblp\"}} 1\n", names::CORPUS_REQUESTS),
            format!("{}{{corpus=\"dblp\"}} 1\n", names::QUERIES),
            format!("{}{{corpus=\"dblp\"}} 1\n", names::CACHE_MISSES),
            format!("{}{{corpus=\"dblp\"}} 0\n", names::CACHE_HITS),
            format!("{}{{corpus=\"dblp\"}} 1\n", names::CORPUS_CACHE_ENTRIES),
            format!("{}{{corpus=\"default\"}} 0\n", names::CORPUS_REQUESTS),
            format!("{}{{corpus=\"default\"}} 0\n", names::QUERIES),
        ] {
            assert!(body.contains(&line), "missing {line:?} in:\n{body}");
        }
    }

    /// Tentpole: `/debug/explain` returns the full pipeline trace, on
    /// both the primary and a named corpus, without ever touching the
    /// response cache — and its suggestions are byte-identical to what
    /// `/suggest` serves.
    #[test]
    fn debug_explain_traces_the_pipeline_and_bypasses_the_cache() {
        let h = two_corpus_handler();
        let explain = route(&get("/debug/explain?q=helth+insurance"), &h, T);
        assert_eq!(explain.status, 200, "{}", explain.body);
        for needle in [
            "\"corpus\":\"default\"",
            "\"query\":\"helth insurance\"",
            "\"cache\":\"bypassed\"",
            "\"stages\":{\"keywords\":2,",
            "\"keyword\":\"helth\"",
            "\"nanos\":{\"slot\":",
            "\"eviction_events_total\":",
            "\"suggestions\":[",
        ] {
            assert!(explain.body.contains(needle), "{needle}: {}", explain.body);
        }
        assert_eq!(explain.obs.route, "debug_explain");
        assert_eq!(explain.obs.corpus, "default");
        // Explain never consulted or filled any cache.
        assert_eq!(h.tenants.primary().cache().counters(), (0, 0, 0));
        assert_eq!(h.tenants.get("dblp").unwrap().cache().counters(), (0, 0, 0));
        // The first real /suggest for the same query is still a miss —
        // and its suggestions array is byte-identical to the trace's.
        let served = route(&get("/suggest?q=helth+insurance"), &h, T);
        assert_eq!(served.cache_header.as_deref(), Some("miss"));
        let tail = &served.body[served.body.find("\"suggestions\":").unwrap()..];
        let suggestions = &tail[..tail.len() - 1]; // drop the closing '}'
        assert!(
            explain.body.contains(suggestions),
            "served {suggestions} not in {}",
            explain.body
        );
        // Named-corpus routing, and the parameter error paths.
        let named = route(&get("/debug/explain?corpus=dblp&q=program+instanse"), &h, T);
        assert_eq!(named.status, 200, "{}", named.body);
        assert!(named.body.contains("\"corpus\":\"dblp\""), "{}", named.body);
        assert_eq!(
            route(&get("/debug/explain?corpus=nope&q=x"), &h, T).status,
            404
        );
        let missing = route(&get("/debug/explain"), &h, T);
        assert_eq!(missing.status, 400);
        assert!(
            missing.body.contains("missing q parameter"),
            "{}",
            missing.body
        );
        assert_eq!(route(&get("/debug/explain?q=%zz"), &h, T).status, 400);
        assert_eq!(route(&get("/debug/explain?q=..."), &h, T).status, 400);
        let mut del = get("/debug/explain?q=x");
        del.method = "DELETE".to_string();
        assert_eq!(route(&del, &h, T).status, 405);
    }

    /// Satellite: ring records carry the resolved corpus name, and
    /// `/debug/requests?corpus=` filters by it — with a strict 400 on
    /// unknown names.
    #[test]
    fn debug_requests_filters_by_corpus() {
        let h = two_corpus_handler();
        let r1 = route(&get("/suggest/dblp?q=program"), &h, T);
        observe_reply(&h, r1, "t-dblp".to_string(), 0);
        let r2 = route(&get("/suggest?q=health"), &h, T);
        observe_reply(&h, r2, "t-default".to_string(), 0);
        let records = h.obs.recent(10);
        assert_eq!(records.len(), 2);
        assert!(records.iter().any(|r| r.corpus == "dblp"));
        assert!(records.iter().any(|r| r.corpus == "default"));
        let filtered = route(&get("/debug/requests?corpus=dblp"), &h, T);
        assert_eq!(filtered.status, 200);
        assert!(filtered.body.contains("t-dblp"), "{}", filtered.body);
        assert!(!filtered.body.contains("t-default"), "{}", filtered.body);
        assert!(
            filtered.body.contains("\"corpus\":\"dblp\""),
            "{}",
            filtered.body
        );
        let unknown = route(&get("/debug/requests?corpus=nope"), &h, T);
        assert_eq!(unknown.status, 400);
        assert!(
            unknown.body.contains("no such corpus: nope"),
            "{}",
            unknown.body
        );
    }

    /// Per-tenant rolling windows grade requests against the SLO and
    /// surface as `/statusz` rows (breach counts included) and burn-rate
    /// series on `/metrics`.
    #[test]
    fn per_tenant_windows_render() {
        let clock = ManualClock::starting_at(0);
        let h = test_handler(Arc::clone(&clock), &TWO_CORPORA);
        // One fast request on default, one SLO-breaching request (2 ms
        // against the 1 ms test threshold) on dblp.
        let r = route(&get("/suggest?q=health"), &h, T);
        observe_reply(&h, r, "t-fast".to_string(), 0);
        let r = route(&get("/suggest/dblp?q=program"), &h, T);
        clock.advance(2_000_000);
        observe_reply(&h, r, "t-slow".to_string(), 0);
        let now = h.obs.clock().now_nanos();
        let snaps = h.tenants.get("dblp").unwrap().window_snapshots(now);
        assert_eq!(snaps[0].count, 1);
        assert_eq!(snaps[0].slo_breaches, 1);
        let snaps = h.tenants.primary().window_snapshots(now);
        assert_eq!(snaps[0].count, 1);
        assert_eq!(snaps[0].slo_breaches, 0);
        let status = route(&get("/statusz"), &h, T);
        assert!(
            status.body.contains("corpus[dblp] window[1m]:"),
            "{}",
            status.body
        );
        assert!(
            status.body.contains("slo_breaches=1 burn_rate=100.00"),
            "{}",
            status.body
        );
        let body = metrics_page(&h);
        for line in [
            format!(
                "{}{{corpus=\"dblp\",window=\"1m\"}} 100\n",
                names::CORPUS_BURN_RATE
            ),
            format!(
                "{}{{corpus=\"dblp\",window=\"15m\"}} 100\n",
                names::CORPUS_BURN_RATE
            ),
            format!(
                "{}{{corpus=\"default\",window=\"1m\"}} 0\n",
                names::CORPUS_BURN_RATE
            ),
        ] {
            assert!(body.contains(&line), "missing {line:?} in:\n{body}");
        }
    }

    const METHODS: [&str; 3] = ["GET", "POST", "DELETE"];
    const PATHS: [&str; 9] = [
        "/suggest",
        "/suggest/default",
        "/suggest/nope",
        "/suggest/",
        "/debug/explain",
        "/debug/conns",
        "/healthz",
        "/metrics",
        "/",
    ];

    proptest::proptest! {
        /// Resolve runs on the loop thread, so no target, `q` value,
        /// percent-encoding or body may panic it: each request gets a
        /// reply (a hit or an error) or becomes pool work.
        #[test]
        fn resolve_answers_or_hands_off_any_request(
            method in 0..METHODS.len(),
            path in 0..PATHS.len(),
            raw in "[-a-zA-Z0-9%+&=?/ .\u{e9}]{0,24}",
            escaped in proptest::collection::vec(0u8..=255, 0..8),
            body in proptest::collection::vec(0u8..=255, 0..24),
            json_body in 0..2u8,
        ) {
            let (method, path) = (METHODS[method], PATHS[path]);
            let h = handler();
            let encoded: String = escaped.iter().map(|b| format!("%{b:02x}")).collect();
            let mut request = get(&format!("{path}?q={raw}{encoded}&n={raw}"));
            request.method = method.to_string();
            request.body = if json_body == 1 {
                Json::object([("query", String::from_utf8_lossy(&body).as_ref().into())])
                    .render()
                    .into_bytes()
            } else {
                body
            };
            match resolve(&request, &h, T) {
                Resolved::Reply(reply) => {
                    proptest::prop_assert!(
                        [400, 404, 405].contains(&reply.status),
                        "{} {}: {}", reply.status, request.path, reply.body
                    );
                }
                Resolved::Work(Work::Miss { keywords, key, .. }) => {
                    proptest::prop_assert!(!keywords.is_empty());
                    proptest::prop_assert_eq!(key.query, keywords.join(" "));
                }
                Resolved::Conns(n) => proptest::prop_assert!(n <= debug::MAX_DEBUG_CONNS),
                Resolved::Work(Work::Batch { .. } | Work::Page { .. }) => {}
            }
        }
    }

    #[test]
    fn resolve_answers_hits_and_hands_misses_and_pages_to_the_pool() {
        let h = handler();
        let query = get("/suggest?q=helth+insurance");
        let Resolved::Work(miss @ Work::Miss { .. }) = resolve(&query, &h, T) else {
            panic!("a cold query is pool work");
        };
        // The probe counted nothing; the worker counts the miss once.
        assert_eq!(h.tenants.primary().cache().counters(), (0, 0, 0));
        let computed = compute(miss, &h, T);
        assert_eq!(computed.cache_header.as_deref(), Some("miss"));
        assert_eq!(h.tenants.primary().cache().counters(), (0, 1, 0));
        let Resolved::Reply(hit) = resolve(&query, &h, T) else {
            panic!("a cached query is answered in resolve");
        };
        assert_eq!(hit.cache_header.as_deref(), Some("hit"));
        assert_eq!(hit.body, computed.body);
        assert_eq!(h.tenants.primary().cache().counters(), (1, 1, 0));
        // The tenant counts its replies as they are observed.
        assert_eq!(h.tenants.primary().requests().get(), 0);
        observe_reply(&h, computed, T.to_string(), 0);
        observe_reply(&h, hit, T.to_string(), 0);
        assert_eq!(h.tenants.primary().requests().get(), 2);
        for page in ["/healthz", "/metrics", "/statusz", "/debug/explain?q=helth"] {
            assert!(
                matches!(
                    resolve(&get(page), &h, T),
                    Resolved::Work(Work::Page { .. })
                ),
                "{page} renders on the pool"
            );
        }
        let batch = post(r#"{"queries": ["helth insurance"]}"#);
        assert!(matches!(
            resolve(&batch, &h, T),
            Resolved::Work(Work::Batch { .. })
        ));
    }

    /// A miss or batch whose compute panics answers a `500` that keeps
    /// its corpus, so the tenant's errors and windows see the failure;
    /// a page has no corpus to keep.
    #[test]
    fn a_panicking_miss_or_batch_keeps_its_corpus() {
        let h = two_corpus_handler();
        let miss = get("/suggest/dblp?q=program");
        let mut batch = post(r#"{"queries": ["program"]}"#);
        batch.path = "/suggest/dblp".to_string();
        for request in [miss, batch] {
            let Resolved::Work(work) = resolve(&request, &h, T) else {
                panic!("{} is pool work", request.path);
            };
            let reply = panic_reply(&h, work.tenant());
            assert_eq!((reply.status, reply.obs.route), (500, "panic"));
            assert_eq!(reply.obs.corpus, "dblp");
            observe_reply(&h, reply, T.to_string(), 0);
        }
        let dblp = h.tenants.get("dblp").unwrap();
        assert_eq!((dblp.requests().get(), dblp.errors().get()), (2, 2));
        let now = h.obs.clock().now_nanos();
        assert_eq!(dblp.window_snapshots(now)[0].errors, 2);
        assert!(h.obs.recent(10).iter().all(|r| r.corpus == "dblp"));
        let Resolved::Work(page) = resolve(&get("/healthz"), &h, T) else {
            panic!("a page is pool work");
        };
        assert_eq!(panic_reply(&h, page.tenant()).obs.corpus, "");
    }

    #[test]
    fn percent_decode_handles_escapes_and_rejects_garbage() {
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert_eq!(percent_decode("a+b").as_deref(), Some("a b"));
        assert_eq!(percent_decode("a%20b%2Fc").as_deref(), Some("a b/c"));
        assert_eq!(
            percent_decode(
                "%
"
            ),
            None
        );
        assert_eq!(percent_decode("%zz"), None);
        assert_eq!(percent_decode("%e2%82%ac").as_deref(), Some("€"));
        assert_eq!(percent_decode("%ff"), None, "lone 0xff is not utf-8");
    }

    #[test]
    fn split_target_and_query_param() {
        assert_eq!(split_target("/suggest?q=a&n=2"), ("/suggest", "q=a&n=2"));
        assert_eq!(split_target("/healthz"), ("/healthz", ""));
        assert_eq!(query_param("q=a&n=2", "n"), Some("2"));
        assert_eq!(query_param("q=a&n=2", "q"), Some("a"));
        assert_eq!(query_param("q=a", "missing"), None);
        assert_eq!(query_param("", "q"), None);
    }

    /// Serving answers from the caller's engine allocation, so binding
    /// never copies the corpus or its variant table: one engine bound
    /// alone, or under two names, is the same `Arc` in every tenant.
    #[test]
    fn bound_tenants_share_the_callers_engine() {
        let tree = xclean_xmltree::parse_document("<r><p>alpha beta</p></r>").unwrap();
        let engine = Arc::new(XCleanEngine::new(tree, xclean::XCleanConfig::default()));
        let server =
            SuggestServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
                .unwrap();
        assert!(Arc::ptr_eq(server.tenants().primary().engine(), &engine));
        let corpora = ["a", "b"].map(|name| (name.to_string(), Arc::clone(&engine)));
        let server =
            SuggestServer::bind_tenants(corpora.into(), "127.0.0.1:0", ServerConfig::default())
                .unwrap();
        for tenant in server.tenants().iter() {
            assert!(Arc::ptr_eq(tenant.engine(), &engine), "{}", tenant.name());
        }
        assert_eq!(server.tenants().len(), 2);
    }
}
