//! The server's per-request observability plane (DESIGN.md §12).
//!
//! One [`Observability`] instance per server bundles everything the
//! debug/status endpoints read and every completed request writes:
//!
//! - a bounded lock-striped [`RequestRing`] of recent requests (all
//!   statuses, error paths included) behind `GET /debug/requests?n=K`;
//! - the slow-query log: every request whose total time reaches the
//!   configured threshold is additionally written as one JSON line to
//!   stderr or `--slow-log <path>` — the durable record of slow
//!   requests, since fast traffic does evict them from the ring;
//! - [`RollingWindows`] (1m/5m/15m) behind the table on `GET /statusz`;
//! - the deterministic trace-ID generator handed to each worker.
//!
//! Everything is record-only with respect to the suggestion path: a
//! request pushes one record after its response is rendered, and nothing
//! the engine computes ever reads this state — which is what keeps the
//! bit-identity contract (suggestions identical with observability on or
//! off) true by construction rather than by care.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xclean_telemetry::json::Json;
use xclean_telemetry::{
    RequestRecord, RequestRing, RollingWindows, SharedClock, WindowEvent, WindowSnapshot,
};

/// Ring stripes: enough that an 8-worker pool rarely collides on a lock.
const RING_STRIPES: usize = 8;

/// Hard cap on `?n=` for `/debug/requests` (the ring is smaller anyway).
pub const MAX_DEBUG_REQUESTS: usize = 1000;

/// Hard cap on `?n=` for `/debug/conns`.
pub const MAX_DEBUG_CONNS: usize = 1000;

/// Hard cap on `?events=` for `/debug/flight` (the recorder is bounded
/// to 4096 events anyway; this just rejects absurd asks early).
pub const MAX_FLIGHT_EVENTS: usize = 65_536;

/// Per-server observability state; shared by the accept loop and every
/// worker through an `Arc`.
pub struct Observability {
    clock: SharedClock,
    ring: RequestRing,
    windows: RollingWindows,
    slow_threshold_nanos: u64,
    slo_threshold_nanos: u64,
    slow_sink: Mutex<Box<dyn Write + Send>>,
    start_nanos: u64,
    trace_seed: u64,
    next_worker: AtomicU64,
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("ring_capacity", &self.ring.capacity())
            .field("slow_threshold_nanos", &self.slow_threshold_nanos)
            .field("slo_threshold_nanos", &self.slo_threshold_nanos)
            .field("trace_seed", &self.trace_seed)
            .finish_non_exhaustive()
    }
}

impl Observability {
    /// Builds the plane. `slow_sink` receives one JSON line per slow
    /// request (pass `Box::new(std::io::stderr())` for the default).
    /// `slo_threshold_nanos` is the latency objective requests are graded
    /// against for the SLO windows (breach = strictly slower).
    pub fn new(
        clock: SharedClock,
        ring_capacity: usize,
        slow_threshold_nanos: u64,
        slo_threshold_nanos: u64,
        trace_seed: u64,
        slow_sink: Box<dyn Write + Send>,
    ) -> Observability {
        let start_nanos = clock.now_nanos();
        Observability {
            ring: RequestRing::new(ring_capacity, RING_STRIPES),
            windows: RollingWindows::new(),
            slow_threshold_nanos,
            slo_threshold_nanos,
            slow_sink: Mutex::new(slow_sink),
            start_nanos,
            trace_seed,
            next_worker: AtomicU64::new(0),
            clock,
        }
    }

    /// The clock requests are stamped against.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Whole seconds since the plane was built (server start).
    pub fn uptime_secs(&self) -> u64 {
        (self.clock.now_nanos() - self.start_nanos) / 1_000_000_000
    }

    /// Nanoseconds since the plane was built — the wall-time base the
    /// worker-utilization gauge divides busy time by.
    pub fn uptime_nanos(&self) -> u64 {
        self.clock.now_nanos().saturating_sub(self.start_nanos)
    }

    /// The slow-request threshold in nanoseconds.
    pub fn slow_threshold_nanos(&self) -> u64 {
        self.slow_threshold_nanos
    }

    /// The latency-SLO objective in nanoseconds: a request strictly
    /// slower than this breaches (counted by the burn-rate windows).
    pub fn slo_threshold_nanos(&self) -> u64 {
        self.slo_threshold_nanos
    }

    /// Whether a request of `total_nanos` breaches the latency SLO —
    /// the one comparison the global and per-tenant windows share, so
    /// their burn rates can never disagree about grading.
    pub fn slo_breach(&self, total_nanos: u64) -> bool {
        total_nanos > self.slo_threshold_nanos
    }

    /// A trace-ID generator for one worker thread. Worker indices are
    /// handed out in call order, so a fixed seed plus a fixed pool size
    /// yields a fully deterministic ID space — nothing here reads the
    /// wall clock or a random source.
    pub fn trace_gen(&self) -> TraceIdGen {
        TraceIdGen {
            seed: self.trace_seed,
            worker: self.next_worker.fetch_add(1, Ordering::Relaxed),
            counter: Cell::new(0),
        }
    }

    /// Records one completed request: into the ring and the rolling
    /// windows always, and — when its total time reaches the threshold —
    /// as one line of the slow-query log. Returns the record's ring
    /// sequence number.
    pub fn observe(&self, record: RequestRecord) -> u64 {
        self.windows.record(
            record.arrived_nanos,
            &WindowEvent {
                total_nanos: record.total_nanos,
                error: record.is_error(),
                cache_hit: record.cache_hit,
                slo_breach: self.slo_breach(record.total_nanos),
            },
        );
        let slow_copy = (record.total_nanos >= self.slow_threshold_nanos).then(|| record.clone());
        let seq = self.ring.push(record);
        if let Some(mut slow) = slow_copy {
            // The log line carries the ring seq, so a slow-log entry names
            // the same record `/debug/requests` shows.
            slow.seq = seq;
            let mut sink = self.slow_sink.lock().expect("slow sink poisoned");
            let _ = writeln!(sink, "{}", slow.to_json().render());
            let _ = sink.flush();
        }
        seq
    }

    /// The `n` most recent requests, newest first.
    pub fn recent(&self, n: usize) -> Vec<RequestRecord> {
        self.ring.recent(n.min(MAX_DEBUG_REQUESTS))
    }

    /// Requests observed over the server lifetime.
    pub fn total_observed(&self) -> u64 {
        self.ring.total_recorded()
    }

    /// The `n` slowest among the recent retained requests.
    pub fn slowest_recent(&self, n: usize) -> Vec<RequestRecord> {
        let mut all = self.ring.recent(MAX_DEBUG_REQUESTS);
        all.sort_by_key(|r| std::cmp::Reverse(r.total_nanos));
        all.truncate(n);
        all
    }

    /// Point-in-time 1m/5m/15m aggregates.
    pub fn window_snapshots(&self) -> Vec<WindowSnapshot> {
        self.windows.snapshot(self.clock.now_nanos())
    }
}

/// Deterministic per-worker trace-ID source: `seed-worker-counter` in
/// hex, e.g. `0005ca1e-02-00002a`. One lives on the stack of each thread
/// that generates IDs (the event loop holds the one behind every
/// request, error and load-shed reply), so generation is a `Cell` bump —
/// no locks, no clock, no randomness.
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    worker: u64,
    counter: Cell<u64>,
}

impl TraceIdGen {
    /// The next trace ID.
    pub fn next_id(&self) -> String {
        let n = self.counter.get();
        self.counter.set(n + 1);
        format!("{:08x}-{:02x}-{:06x}", self.seed, self.worker, n)
    }
}

/// One live connection's introspection state (DESIGN.md §14). The entry
/// is shared between the serving path (which bumps plain atomics — no
/// map lock on the hot path) and `/debug/conns` readers.
#[derive(Debug)]
pub struct ConnEntry {
    id: u64,
    opened_nanos: u64,
    /// 0 = open, 1 = draining (set once at graceful-drain start).
    draining: AtomicU64,
    requests: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    pipeline: AtomicU64,
    last_active_nanos: AtomicU64,
}

impl ConnEntry {
    /// Mirrors the connection's current counters into the entry. Called
    /// from the event loop after each burst of activity.
    pub fn update(&self, requests: u64, bytes_in: u64, bytes_out: u64, pipeline: u64, now: u64) {
        self.requests.store(requests, Ordering::Relaxed);
        self.bytes_in.store(bytes_in, Ordering::Relaxed);
        self.bytes_out.store(bytes_out, Ordering::Relaxed);
        self.pipeline.store(pipeline, Ordering::Relaxed);
        self.last_active_nanos.store(now, Ordering::Relaxed);
    }

    /// Marks the connection as draining (shown as `state: "draining"`).
    pub fn set_draining(&self) {
        self.draining.store(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one registry entry, for rendering and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// Connection ID (the event-loop token).
    pub id: u64,
    /// `"open"` or `"draining"`.
    pub state: &'static str,
    /// Nanos since the connection was accepted.
    pub age_nanos: u64,
    /// Nanos since the last observed activity.
    pub idle_nanos: u64,
    /// Requests surfaced on this connection so far.
    pub requests: u64,
    /// Bytes read off the socket.
    pub bytes_in: u64,
    /// Bytes written to the socket.
    pub bytes_out: u64,
    /// Requests in flight (surfaced but not yet flushed).
    pub pipeline: u64,
    /// Whether the connection has been reused for more than one request
    /// (the keep-alive signal).
    pub reused: bool,
}

/// Live-connection registry behind `GET /debug/conns?n=K` and the
/// `/statusz` runtime section. Bounded: at most `capacity` connections
/// are tracked at once (later ones are served normally, just not
/// introspectable); capacity 0 disables tracking entirely — the same
/// on/off convention as `cache_entries: 0` and the flight recorder.
#[derive(Debug, Default)]
pub struct ConnRegistry {
    capacity: usize,
    conns: Mutex<BTreeMap<u64, Arc<ConnEntry>>>,
}

impl ConnRegistry {
    /// A registry tracking at most `capacity` live connections.
    pub fn new(capacity: usize) -> ConnRegistry {
        ConnRegistry {
            capacity,
            conns: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether tracking is on (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Starts tracking a connection accepted at `now`. `None` when the
    /// registry is disabled or full — the caller serves the connection
    /// either way.
    pub fn register(&self, id: u64, now: u64) -> Option<Arc<ConnEntry>> {
        if self.capacity == 0 {
            return None;
        }
        let mut conns = self.conns.lock().expect("conn registry poisoned");
        if conns.len() >= self.capacity {
            return None;
        }
        let entry = Arc::new(ConnEntry {
            id,
            opened_nanos: now,
            draining: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            pipeline: AtomicU64::new(0),
            last_active_nanos: AtomicU64::new(now),
        });
        conns.insert(id, Arc::clone(&entry));
        Some(entry)
    }

    /// Stops tracking `id` (connection closed). Unknown IDs are a no-op
    /// (the connection may never have been registered under a full
    /// registry).
    pub fn unregister(&self, id: u64) {
        self.conns
            .lock()
            .expect("conn registry poisoned")
            .remove(&id);
    }

    /// Currently tracked connections.
    pub fn tracked(&self) -> usize {
        self.conns.lock().expect("conn registry poisoned").len()
    }

    /// The up-to-`n` longest-lived tracked connections (oldest first —
    /// long-lived keep-alive sockets are what an operator hunts for).
    pub fn snapshot(&self, n: usize, now: u64) -> Vec<ConnSnapshot> {
        let conns = self.conns.lock().expect("conn registry poisoned");
        conns
            .values()
            .take(n)
            .map(|e| ConnSnapshot {
                id: e.id,
                state: if e.draining.load(Ordering::Relaxed) != 0 {
                    "draining"
                } else {
                    "open"
                },
                age_nanos: now.saturating_sub(e.opened_nanos),
                idle_nanos: now.saturating_sub(e.last_active_nanos.load(Ordering::Relaxed)),
                requests: e.requests.load(Ordering::Relaxed),
                bytes_in: e.bytes_in.load(Ordering::Relaxed),
                bytes_out: e.bytes_out.load(Ordering::Relaxed),
                pipeline: e.pipeline.load(Ordering::Relaxed),
                reused: e.requests.load(Ordering::Relaxed) > 1,
            })
            .collect()
    }

    /// The `GET /debug/conns` body: `open` is the lifetime opened−closed
    /// gauge (counts every live socket), `tracked` how many of those the
    /// bounded registry holds. Ages are seconds to the millisecond.
    pub fn conns_json(&self, n: usize, now: u64, open: u64) -> Json {
        let secs = |nanos: u64| (nanos as f64 / 1e6).round() / 1e3;
        let conns = self.snapshot(n, now).into_iter().map(|s| {
            Json::object([
                ("id", s.id.into()),
                ("state", s.state.into()),
                ("age_secs", secs(s.age_nanos).into()),
                ("idle_secs", secs(s.idle_nanos).into()),
                ("requests", s.requests.into()),
                ("bytes_in", s.bytes_in.into()),
                ("bytes_out", s.bytes_out.into()),
                ("pipeline", s.pipeline.into()),
                ("reused", s.reused.into()),
            ])
        });
        Json::object([
            ("open", open.into()),
            ("tracked", self.tracked().into()),
            ("conns", conns.collect()),
        ])
    }
}

/// The `GET /debug/requests` body: newest-first records under a
/// `requests` key plus the lifetime total (so a reader can tell how much
/// history the bounded ring dropped).
pub fn requests_json(records: &[RequestRecord], total_observed: u64) -> Json {
    Json::object([
        ("total_observed", total_observed.into()),
        (
            "requests",
            records.iter().map(RequestRecord::to_json).collect(),
        ),
    ])
}

/// Everything `GET /statusz` shows that the plane does not itself own.
#[derive(Debug, Clone, Default)]
pub struct StatuszInfo {
    /// Engine fingerprint (cache keying / config identity).
    pub fingerprint: u64,
    /// Snapshot provenance as `(format_version, checksum)`, when the
    /// corpus was loaded from a snapshot rather than built in memory.
    pub snapshot: Option<(u32, u64)>,
    /// Response-cache occupancy.
    pub cache_entries: usize,
    /// Response-cache capacity.
    pub cache_capacity: usize,
    /// Lifetime requests answered.
    pub requests_total: u64,
    /// Lifetime error responses.
    pub errors_total: u64,
    /// Lifetime TCP connections accepted.
    pub connections_opened: u64,
    /// Lifetime TCP connections finished.
    pub connections_closed: u64,
    /// Requests served on an already-used keep-alive connection.
    pub keepalive_reuse: u64,
    /// Connection cap above which accepts are shed with 503s.
    pub max_connections: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Event-loop wake-ups observed.
    pub loop_wakes: u64,
    /// Loop-lag p50 in nanos (busy time between `epoll_wait` calls).
    pub loop_lag_p50_nanos: u64,
    /// Loop-lag p99 in nanos.
    pub loop_lag_p99_nanos: u64,
    /// Jobs whose enqueue→pickup wait was measured.
    pub queue_waits: u64,
    /// Queue-wait p50 in nanos.
    pub queue_wait_p50_nanos: u64,
    /// Queue-wait p99 in nanos.
    pub queue_wait_p99_nanos: u64,
    /// Per-worker busy share of wall time, one entry per worker.
    pub worker_utilization: Vec<f64>,
    /// Flight-recorder events currently buffered.
    pub flight_len: usize,
    /// Flight-recorder capacity (0 = disabled).
    pub flight_capacity: usize,
    /// Flight-recorder events captured over the lifetime.
    pub flight_recorded: u64,
    /// Connections the live registry is tracking right now.
    pub conns_tracked: usize,
    /// One row per served corpus, catalog order (primary first); empty
    /// only for callers that predate multi-tenancy.
    pub corpora: Vec<CorpusRow>,
}

/// One corpus row of the `/statusz` dashboard.
#[derive(Debug, Default, Clone)]
pub struct CorpusRow {
    /// Catalog name (`/suggest/<name>`).
    pub name: String,
    /// Shards answering the corpus (1 = unsharded).
    pub shards: u32,
    /// Response-cache occupancy.
    pub cache_entries: usize,
    /// Response-cache capacity.
    pub cache_capacity: usize,
    /// Requests routed to the corpus.
    pub requests: u64,
    /// Error responses while serving the corpus.
    pub errors: u64,
    /// Individual queries answered (batch POSTs count each query):
    /// every query does one cache lookup, so hits + misses.
    pub queries: u64,
    /// The tenant's own 1m/5m/15m window snapshots (qps, quantiles,
    /// SLO breaches) — empty for callers that predate per-tenant windows.
    pub windows: Vec<WindowSnapshot>,
}

/// Renders the `GET /statusz` text dashboard.
pub fn render_statusz(obs: &Observability, info: &StatuszInfo) -> String {
    let mut out = String::from("xclean suggestion server\n\n");
    out.push_str(&format!("uptime_secs: {}\n", obs.uptime_secs()));
    out.push_str(&format!("engine_fingerprint: {:016x}\n", info.fingerprint));
    match info.snapshot {
        Some((format, checksum)) => out.push_str(&format!(
            "snapshot: format=v{format} checksum={checksum:016x}\n"
        )),
        None => out.push_str("snapshot: none (corpus built in memory)\n"),
    }
    out.push_str(&format!(
        "cache: entries={} capacity={}\n",
        info.cache_entries, info.cache_capacity
    ));
    out.push_str(&format!(
        "requests_total: {}  errors_total: {}\n",
        info.requests_total, info.errors_total
    ));
    out.push_str(&format!(
        "connections: open={} opened={} closed={} keepalive_reuse={}\n",
        info.connections_opened
            .saturating_sub(info.connections_closed),
        info.connections_opened,
        info.connections_closed,
        info.keepalive_reuse
    ));
    out.push_str(&format!(
        "slow_threshold_ms: {}\n",
        obs.slow_threshold_nanos() / 1_000_000
    ));
    out.push_str(&format!(
        "slo_threshold_ms: {} (error budget {:.0}%)\n",
        obs.slo_threshold_nanos() / 1_000_000,
        xclean_telemetry::SLO_ERROR_BUDGET * 100.0
    ));
    out.push_str(&format!(
        "runtime: workers={} max_connections={}\n",
        info.workers, info.max_connections
    ));
    out.push_str(&format!(
        "loop: wakes={} lag_p50_ns={} lag_p99_ns={}\n",
        info.loop_wakes, info.loop_lag_p50_nanos, info.loop_lag_p99_nanos
    ));
    // Cache hits and routing errors are answered on the loop thread;
    // only misses, batches and page renders become pool jobs.
    out.push_str(&format!(
        "queue_wait: jobs={} p50_ns={} p99_ns={} (pool jobs only: misses, batches, pages)\n",
        info.queue_waits, info.queue_wait_p50_nanos, info.queue_wait_p99_nanos
    ));
    out.push_str("worker_utilization:");
    if info.worker_utilization.is_empty() {
        out.push_str(" (none)");
    }
    for (i, u) in info.worker_utilization.iter().enumerate() {
        out.push_str(&format!(" w{i}={u:.3}"));
    }
    out.push_str(" (pool jobs only)\n");
    out.push_str(&format!(
        "flight_recorder: buffered={} capacity={} recorded={}\n",
        info.flight_len, info.flight_capacity, info.flight_recorded
    ));
    out.push_str(&format!("conns_tracked: {}\n", info.conns_tracked));
    out.push_str(&format!("corpora: {}\n", info.corpora.len()));
    for row in &info.corpora {
        out.push_str(&format!(
            "  corpus[{}]: shards={} cache={}/{} requests={} errors={} queries={}\n",
            row.name,
            row.shards,
            row.cache_entries,
            row.cache_capacity,
            row.requests,
            row.errors,
            row.queries
        ));
        for s in &row.windows {
            out.push_str(&format!(
                "  corpus[{}] window[{}]: requests={} errors={} qps={:.4} \
                 slo_breaches={} burn_rate={:.2} p50_ns={} p99_ns={}\n",
                row.name,
                s.label,
                s.count,
                s.errors,
                s.qps(),
                s.slo_breaches,
                s.slo_burn_rate(),
                s.p50_nanos,
                s.p99_nanos
            ));
        }
    }
    out.push('\n');
    out.push_str(
        "window  requests  errors  qps        err_ratio  hit_ratio  p50_ns      p95_ns      p99_ns\n",
    );
    for s in obs.window_snapshots() {
        out.push_str(&format!(
            "{:<7} {:<9} {:<7} {:<10.4} {:<10.4} {:<10.4} {:<11} {:<11} {}\n",
            s.label,
            s.count,
            s.errors,
            s.qps(),
            s.error_ratio(),
            s.cache_hit_ratio(),
            s.p50_nanos,
            s.p95_nanos,
            s.p99_nanos
        ));
    }
    out.push_str("\nslowest recent requests:\n");
    let slowest = obs.slowest_recent(5);
    if slowest.is_empty() {
        out.push_str("  (none yet)\n");
    }
    for r in &slowest {
        out.push_str(&format!(
            "  {:>12} ns  {}  {}  {}  {}\n",
            r.total_nanos,
            r.status,
            r.trace_id,
            r.route,
            if r.query.is_empty() { "-" } else { &r.query }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xclean_telemetry::{Clock, ManualClock};

    /// A slow-log sink tests can read back.
    #[derive(Clone, Default)]
    pub(crate) struct SharedSink(pub Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// 1 ms latency SLO for every test plane: coarse enough that only
    /// deliberately slow records breach.
    const TEST_SLO_NANOS: u64 = 1_000_000;

    fn obs_with(clock: Arc<ManualClock>, threshold: u64) -> (Observability, SharedSink) {
        let sink = SharedSink::default();
        let obs = Observability::new(
            clock,
            64,
            threshold,
            TEST_SLO_NANOS,
            0x5ca1e,
            Box::new(sink.clone()),
        );
        (obs, sink)
    }

    fn record(total: u64, status: u16) -> RequestRecord {
        RequestRecord {
            trace_id: "t-1".into(),
            route: "suggest",
            query: "helth insurance".into(),
            status,
            cache_hit: Some(false),
            slot_nanos: total / 4,
            walk_nanos: total / 4,
            rank_nanos: total / 4,
            total_nanos: total,
            ..Default::default()
        }
    }

    #[test]
    fn slow_requests_hit_the_log_and_fast_ones_do_not() {
        let clock = ManualClock::starting_at(0);
        let (obs, sink) = obs_with(clock, 1_000_000);
        obs.observe(record(999_999, 200));
        assert!(sink.0.lock().unwrap().is_empty());
        obs.observe(record(1_000_000, 200));
        let log = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with('{') && lines[0].ends_with('}'),
            "{log}"
        );
        assert!(lines[0].contains("\"total_nanos\":1000000"), "{log}");
        assert_eq!(obs.recent(10).len(), 2, "both land in the main ring");
        assert_eq!(obs.slowest_recent(1)[0].total_nanos, 1_000_000);
    }

    #[test]
    fn windows_advance_with_the_injected_clock() {
        let clock = ManualClock::starting_at(0);
        let (obs, _sink) = obs_with(Arc::clone(&clock), u64::MAX);
        let mut r = record(100, 200);
        r.arrived_nanos = clock.now_nanos();
        obs.observe(r);
        assert_eq!(obs.window_snapshots()[0].count, 1);
        clock.advance_secs(61);
        let snaps = obs.window_snapshots();
        assert_eq!(snaps[0].count, 0, "1m window forgot");
        assert_eq!(snaps[1].count, 1, "5m window remembers");
        assert_eq!(obs.uptime_secs(), 61);
    }

    #[test]
    fn trace_ids_are_deterministic_per_worker() {
        let clock = ManualClock::starting_at(0);
        let (obs, _sink) = obs_with(clock, u64::MAX);
        let w0 = obs.trace_gen();
        let w1 = obs.trace_gen();
        assert_eq!(w0.next_id(), "0005ca1e-00-000000");
        assert_eq!(w0.next_id(), "0005ca1e-00-000001");
        assert_eq!(w1.next_id(), "0005ca1e-01-000000");
    }

    /// The plane grades every observed request against its SLO with one
    /// strict comparison; the window breach counters see exactly the
    /// graded outcomes.
    #[test]
    fn observe_grades_requests_against_the_slo() {
        let clock = ManualClock::starting_at(0);
        let (obs, _sink) = obs_with(clock, u64::MAX);
        assert!(!obs.slo_breach(TEST_SLO_NANOS), "at objective = no breach");
        assert!(obs.slo_breach(TEST_SLO_NANOS + 1));
        obs.observe(record(TEST_SLO_NANOS, 200));
        obs.observe(record(TEST_SLO_NANOS + 1, 200));
        obs.observe(record(10 * TEST_SLO_NANOS, 200));
        let s = obs.window_snapshots()[0];
        assert_eq!(s.count, 3);
        assert_eq!(s.slo_breaches, 2);
        assert_eq!(s.slo_burn_rate(), (2.0 / 3.0) / 0.01);
    }

    #[test]
    fn statusz_renders_per_corpus_window_rows() {
        let clock = ManualClock::starting_at(0);
        let (obs, _sink) = obs_with(clock, u64::MAX);
        let text = render_statusz(
            &obs,
            &StatuszInfo {
                corpora: vec![CorpusRow {
                    name: "dblp".into(),
                    shards: 2,
                    windows: vec![WindowSnapshot {
                        label: "1m",
                        window_secs: 60,
                        count: 200,
                        errors: 1,
                        slo_breaches: 4,
                        p50_nanos: 511,
                        p99_nanos: 2047,
                        ..WindowSnapshot::default()
                    }],
                    ..CorpusRow::default()
                }],
                ..StatuszInfo::default()
            },
        );
        assert!(
            text.contains("slo_threshold_ms: 1 (error budget 1%)"),
            "{text}"
        );
        assert!(
            text.contains(
                "  corpus[dblp] window[1m]: requests=200 errors=1 qps=3.3333 \
                 slo_breaches=4 burn_rate=2.00 p50_ns=511 p99_ns=2047"
            ),
            "{text}"
        );
    }

    #[test]
    fn statusz_renders_all_sections() {
        let clock = ManualClock::starting_at(0);
        let (obs, _sink) = obs_with(Arc::clone(&clock), u64::MAX);
        let mut r = record(5_000, 200);
        r.trace_id = "abc123".into();
        obs.observe(r);
        clock.advance_secs(3);
        let text = render_statusz(
            &obs,
            &StatuszInfo {
                fingerprint: 0xdead_beef,
                snapshot: Some((2, 0xfeed)),
                cache_entries: 3,
                cache_capacity: 64,
                requests_total: 1,
                errors_total: 0,
                connections_opened: 5,
                connections_closed: 3,
                keepalive_reuse: 7,
                max_connections: 4096,
                workers: 4,
                loop_wakes: 11,
                queue_waits: 9,
                worker_utilization: vec![0.25, 0.5],
                flight_capacity: 4096,
                flight_recorded: 42,
                conns_tracked: 2,
                ..StatuszInfo::default()
            },
        );
        assert!(text.contains("uptime_secs: 3"), "{text}");
        assert!(
            text.contains("runtime: workers=4 max_connections=4096"),
            "{text}"
        );
        assert!(text.contains("loop: wakes=11"), "{text}");
        assert!(text.contains("queue_wait: jobs=9"), "{text}");
        assert!(
            text.contains("(pool jobs only: misses, batches, pages)\n"),
            "{text}"
        );
        assert!(
            text.contains("worker_utilization: w0=0.250 w1=0.500"),
            "{text}"
        );
        assert!(
            text.contains("flight_recorder: buffered=0 capacity=4096 recorded=42"),
            "{text}"
        );
        assert!(text.contains("conns_tracked: 2"), "{text}");
        assert!(
            text.contains("connections: open=2 opened=5 closed=3 keepalive_reuse=7"),
            "{text}"
        );
        assert!(
            text.contains("engine_fingerprint: 00000000deadbeef"),
            "{text}"
        );
        assert!(
            text.contains("snapshot: format=v2 checksum=000000000000feed"),
            "{text}"
        );
        assert!(text.contains("1m"), "{text}");
        assert!(text.contains("abc123"), "{text}");
        let no_snapshot = render_statusz(&obs, &StatuszInfo::default());
        assert!(
            no_snapshot.contains("corpus built in memory"),
            "{no_snapshot}"
        );
    }

    #[test]
    fn conn_registry_tracks_updates_and_renders() {
        let reg = ConnRegistry::new(2);
        assert!(reg.is_enabled());
        let a = reg.register(7, 1_000_000_000).expect("tracked");
        let _b = reg.register(8, 2_000_000_000).expect("tracked");
        assert!(reg.register(9, 3_000_000_000).is_none(), "bounded");
        assert_eq!(reg.tracked(), 2);
        a.update(3, 100, 900, 1, 3_000_000_000);
        let snaps = reg.snapshot(10, 4_000_000_000);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].id, 7, "oldest first");
        assert_eq!(snaps[0].requests, 3);
        assert_eq!(snaps[0].bytes_in, 100);
        assert_eq!(snaps[0].bytes_out, 900);
        assert_eq!(snaps[0].pipeline, 1);
        assert!(snaps[0].reused);
        assert_eq!(snaps[0].age_nanos, 3_000_000_000);
        assert_eq!(snaps[0].idle_nanos, 1_000_000_000);
        assert!(!snaps[1].reused, "no requests yet");
        a.set_draining();
        let body = reg.conns_json(1, 4_000_000_000, 5).render();
        assert!(
            body.starts_with("{\"open\":5,\"tracked\":2,\"conns\":[{"),
            "{body}"
        );
        assert!(body.contains("\"id\":7"), "{body}");
        assert!(body.contains("\"state\":\"draining\""), "{body}");
        assert!(body.contains("\"age_secs\":3,"), "{body}");
        assert!(body.contains("\"reused\":true"), "{body}");
        assert!(!body.contains("\"id\":8"), "n=1 cap: {body}");
        reg.unregister(7);
        reg.unregister(42); // unknown: no-op
        assert_eq!(reg.tracked(), 1);
        assert!(reg.register(9, 5_000_000_000).is_some(), "slot freed");
    }

    #[test]
    fn disabled_conn_registry_is_inert() {
        let reg = ConnRegistry::new(0);
        assert!(!reg.is_enabled());
        assert!(reg.register(1, 0).is_none());
        assert_eq!(reg.tracked(), 0);
        assert_eq!(
            reg.conns_json(10, 0, 3).render(),
            "{\"open\":3,\"tracked\":0,\"conns\":[]}"
        );
    }

    #[test]
    fn debug_requests_body_shape() {
        let clock = ManualClock::starting_at(0);
        let (obs, _sink) = obs_with(clock, u64::MAX);
        obs.observe(record(10, 200));
        obs.observe(record(20, 200));
        let body = requests_json(&obs.recent(1), obs.total_observed()).render();
        assert!(
            body.starts_with("{\"total_observed\":2,\"requests\":[{"),
            "{body}"
        );
        assert!(body.contains("\"total_nanos\":20"), "{body}");
        assert!(
            !body.contains("\"total_nanos\":10"),
            "newest-first cap: {body}"
        );
    }
}
