//! The server's per-request observability plane (DESIGN.md §12), and
//! the debug and status pages that read it.
//!
//! One [`Observability`] instance per server bundles everything the
//! debug/status endpoints read and every completed request writes:
//!
//! - a bounded [`RequestRing`] of recent requests (all statuses, error
//!   paths included) behind `GET /debug/requests?n=K`;
//! - the slow-query log: every request whose total time reaches the
//!   configured threshold is additionally written as one JSON line to
//!   stderr or `--slow-log <path>` — the durable record of slow
//!   requests, since fast traffic does evict them from the ring;
//! - [`RollingWindows`] (1m/5m/15m) behind the table on `GET /statusz`.
//!
//! The event loop is the plane's only writer: it observes every reply
//! as its bytes flush, and it owns the one [`TraceIdGen`] and the
//! connection table `GET /debug/conns` reads.
//!
//! Everything is record-only with respect to the suggestion path: a
//! request pushes one record after its response is rendered, and nothing
//! the engine computes ever reads this state — which is what keeps the
//! bit-identity contract (suggestions identical with observability on or
//! off) true by construction rather than by care.

use std::cell::Cell;
use std::io::Write;
use std::sync::Mutex;

use xclean_telemetry::json::Json;
use xclean_telemetry::{
    RequestRecord, RequestRing, RollingWindows, SharedClock, WindowEvent, WindowSnapshot,
};

use crate::conn::Connection;
use crate::server::Handler;

/// Recent requests the ring keeps for `/debug/requests`.
const RING_CAPACITY: usize = 512;

/// Seed of the generated trace IDs (the first field of every ID).
const TRACE_SEED: u64 = 0x5ca1_ab1e;

/// Hard cap on `?n=` for `/debug/requests` (the ring is smaller anyway).
pub const MAX_DEBUG_REQUESTS: usize = 1000;

/// Hard cap on `?n=` for `/debug/conns`.
pub const MAX_DEBUG_CONNS: usize = 1000;

/// Hard cap on `?events=` for `/debug/flight` (the recorder is bounded
/// to 4096 events anyway; this just rejects absurd asks early).
pub const MAX_FLIGHT_EVENTS: usize = 65_536;

/// Per-server observability state, shared by the loop and every worker
/// through an `Arc`.
pub struct Observability {
    clock: SharedClock,
    ring: RequestRing,
    windows: RollingWindows,
    slow_threshold_nanos: u64,
    slo_threshold_nanos: u64,
    slow_sink: Mutex<Box<dyn Write + Send>>,
    start_nanos: u64,
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("slow_threshold_nanos", &self.slow_threshold_nanos)
            .field("slo_threshold_nanos", &self.slo_threshold_nanos)
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
        slow_threshold_nanos: u64,
        slo_threshold_nanos: u64,
        slow_sink: Box<dyn Write + Send>,
    ) -> Observability {
        let start_nanos = clock.now_nanos();
        Observability {
            ring: RequestRing::new(RING_CAPACITY, 1),
            windows: RollingWindows::new(),
            slow_threshold_nanos,
            slo_threshold_nanos,
            slow_sink: Mutex::new(slow_sink),
            start_nanos,
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

    /// Records one completed request: into the ring and the rolling
    /// windows always, and — when its total time reaches the threshold —
    /// as one line of the slow-query log. Returns the window event the
    /// request was graded by, so a tenant's windows file the same one.
    pub fn observe(&self, record: RequestRecord) -> WindowEvent {
        let event = WindowEvent {
            total_nanos: record.total_nanos,
            error: record.is_error(),
            cache_hit: record.cache_hit,
            slo_breach: self.slo_breach(record.total_nanos),
        };
        self.windows.record(record.arrived_nanos, &event);
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
        event
    }

    /// The `n` most recent requests, newest first.
    pub fn recent(&self, n: usize) -> Vec<RequestRecord> {
        self.ring.recent(n.min(MAX_DEBUG_REQUESTS))
    }

    /// Requests observed over the server lifetime.
    pub fn total_observed(&self) -> u64 {
        self.ring.total_recorded()
    }

    /// The `n` slowest among the recent retained replies that carry a
    /// corpus — the suggest routes' — so page renders (`/metrics`,
    /// `/debug/requests`, …) never push a slow query out.
    pub fn slowest_recent(&self, n: usize) -> Vec<RequestRecord> {
        let mut all = self.ring.recent(MAX_DEBUG_REQUESTS);
        all.retain(|r| !r.corpus.is_empty());
        all.sort_by_key(|r| std::cmp::Reverse(r.total_nanos));
        all.truncate(n);
        all
    }

    /// Point-in-time 1m/5m/15m aggregates.
    pub fn window_snapshots(&self) -> Vec<WindowSnapshot> {
        self.windows.snapshot(self.clock.now_nanos())
    }
}

/// Deterministic trace-ID source: `seed-00-counter` in hex, e.g.
/// `5ca1ab1e-00-00002a`. The event loop holds the one behind every
/// request, error and load-shed reply, so generation is a `Cell` bump —
/// no locks, no clock, no randomness. The `00` field keeps the ID shape
/// clients already parse.
#[derive(Debug, Default)]
pub struct TraceIdGen {
    counter: Cell<u64>,
}

impl TraceIdGen {
    /// The next trace ID.
    pub fn next_id(&self) -> String {
        let n = self.counter.get();
        self.counter.set(n + 1);
        format!("{TRACE_SEED:08x}-00-{n:06x}")
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

/// One `GET /debug/conns` row: connection `id` (its event-loop token),
/// accepted at `opened_nanos`, as its state machine stands at `now`.
/// Ages are seconds to the millisecond; `idle_secs` runs from the last
/// bytes read or response completed.
pub(crate) fn conn_row<T>(
    id: u64,
    opened_nanos: u64,
    conn: &Connection<T>,
    now: u64,
    draining: bool,
) -> Json {
    let secs = |nanos: u64| (nanos as f64 / 1e6).round() / 1e3;
    let requests = conn.requests_started();
    Json::object([
        ("id", id.into()),
        ("state", if draining { "draining" } else { "open" }.into()),
        ("age_secs", secs(now.saturating_sub(opened_nanos)).into()),
        (
            "idle_secs",
            secs(now.saturating_sub(conn.idle_since())).into(),
        ),
        ("requests", requests.into()),
        ("bytes_in", conn.bytes_in().into()),
        ("bytes_out", conn.bytes_out().into()),
        ("pipeline", conn.pipeline_depth().into()),
        ("reused", (requests > 1).into()),
    ])
}

/// The `GET /debug/conns` body: `open` is the lifetime opened − closed
/// gauge, `conns` the rows in accept order.
pub(crate) fn conns_json(open: u64, rows: impl IntoIterator<Item = Json>) -> Json {
    Json::object([("open", open.into()), ("conns", rows.into_iter().collect())])
}

/// Renders the `GET /statusz` text dashboard straight from the live
/// state the handler holds.
pub(crate) fn render_statusz(h: &Handler) -> String {
    let obs = &h.obs;
    let primary = h.tenants.primary();
    let mut out = String::from("xclean suggestion server\n\n");
    out.push_str(&format!("uptime_secs: {}\n", obs.uptime_secs()));
    out.push_str(&format!(
        "engine_fingerprint: {:016x}\n",
        primary.fingerprint()
    ));
    match primary.engine().snapshot() {
        Some((format, checksum)) => out.push_str(&format!(
            "snapshot: format=v{format} checksum={checksum:016x}\n"
        )),
        None => out.push_str("snapshot: none (corpus built in memory)\n"),
    }
    out.push_str(&format!(
        "cache: entries={} capacity={}\n",
        primary.cache().len(),
        primary.cache().capacity()
    ));
    out.push_str(&format!(
        "requests_total: {}  errors_total: {}\n",
        h.requests.get(),
        h.errors.get()
    ));
    let conns = &h.conn_stats;
    out.push_str(&format!(
        "connections: open={} opened={} closed={} keepalive_reuse={}\n",
        conns.open(),
        conns.opened.get(),
        conns.closed.get(),
        conns.reuse.get()
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
    let runtime = &h.runtime;
    out.push_str(&format!(
        "runtime: workers={} max_connections={}\n",
        runtime.workers(),
        h.max_connections
    ));
    let lag = runtime.loop_lag().summary();
    out.push_str(&format!(
        "loop: wakes={} lag_p50_ns={} lag_p99_ns={}\n",
        lag.count, lag.p50, lag.p99
    ));
    // Cache hits, routing errors and `/debug/conns` are answered on the
    // loop thread; only misses, batches and page renders are pool jobs.
    let wait = runtime.queue_wait().summary();
    out.push_str(&format!(
        "queue_wait: jobs={} p50_ns={} p99_ns={} (pool jobs only: misses, batches, pages)\n",
        wait.count, wait.p50, wait.p99
    ));
    out.push_str("worker_utilization:");
    let utilization = runtime.utilization(obs.uptime_nanos());
    if utilization.is_empty() {
        out.push_str(" (none)");
    }
    for (i, u) in utilization.iter().enumerate() {
        out.push_str(&format!(" w{i}={u:.3}"));
    }
    out.push_str(" (pool jobs only)\n");
    let flight = runtime.flight();
    out.push_str(&format!(
        "flight_recorder: buffered={} capacity={} recorded={}\n",
        flight.len(),
        flight.capacity(),
        flight.total_recorded()
    ));
    out.push_str(&format!("corpora: {}\n", h.tenants.len()));
    let now = obs.clock().now_nanos();
    for t in h.tenants.iter() {
        let (hits, misses, _) = t.cache().counters();
        out.push_str(&format!(
            "  corpus[{}]: cache={}/{} requests={} errors={} queries={}\n",
            t.name(),
            t.cache().len(),
            t.cache().capacity(),
            t.requests().get(),
            t.errors().get(),
            hits + misses
        ));
        for s in t.window_snapshots(now) {
            out.push_str(&format!(
                "  corpus[{}] window[{}]: requests={} errors={} qps={:.4} \
                 slo_breaches={} burn_rate={:.2} p50_ns={} p99_ns={}\n",
                t.name(),
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
        let obs = Observability::new(clock, threshold, TEST_SLO_NANOS, Box::new(sink.clone()));
        (obs, sink)
    }

    fn record(total: u64, status: u16) -> RequestRecord {
        RequestRecord {
            trace_id: "t-1".into(),
            route: "suggest",
            query: "helth insurance".into(),
            corpus: "default".into(),
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
    fn slowest_recent_ranks_only_replies_with_a_corpus() {
        let clock = ManualClock::starting_at(0);
        let (obs, _sink) = obs_with(clock, u64::MAX);
        obs.observe(record(500_000, 200));
        // Page renders, each slower than the miss.
        for route in [
            "metrics",
            "debug_requests",
            "statusz",
            "healthz",
            "metrics",
            "debug_requests",
        ] {
            obs.observe(RequestRecord {
                route,
                status: 200,
                total_nanos: 900_000,
                ..RequestRecord::default()
            });
        }
        obs.observe(record(100_000, 200));
        let slowest = obs.slowest_recent(5);
        let ranked: Vec<u64> = slowest.iter().map(|r| r.total_nanos).collect();
        assert_eq!(ranked, [500_000, 100_000]);
        assert_eq!(obs.recent(10).len(), 8, "every reply stays in the ring");
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
    fn trace_ids_are_deterministic() {
        let ids = TraceIdGen::default();
        assert_eq!(ids.next_id(), "5ca1ab1e-00-000000");
        assert_eq!(ids.next_id(), "5ca1ab1e-00-000001");
        assert_eq!(TraceIdGen::default().next_id(), "5ca1ab1e-00-000000");
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

    const XML: &str = "<db><rec><t>health insurance</t></rec></db>";

    #[test]
    fn statusz_renders_per_corpus_window_rows() {
        let h = crate::server::test_handler(ManualClock::starting_at(0), &[("dblp", XML)]);
        // 200 requests in the dblp windows: 190 fast ones in the
        // [256, 512) ns bucket, 10 in [1024, 2048) of which one failed
        // and four breached the SLO.
        let tenant = h.tenants.primary();
        for i in 0..200u64 {
            let slow = i >= 190;
            let event = WindowEvent {
                total_nanos: if slow { 1_500 } else { 300 },
                error: i == 199,
                cache_hit: None,
                slo_breach: slow && i < 194,
            };
            tenant.record_window(0, &event);
        }
        let text = render_statusz(&h);
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
        let h = crate::server::test_handler(Arc::clone(&clock), &[("default", XML)]);
        let mut r = record(5_000, 200);
        r.trace_id = "abc123".into();
        h.obs.observe(r);
        h.requests.inc();
        for _ in 0..5 {
            h.conn_stats.opened.inc();
        }
        for _ in 0..3 {
            h.conn_stats.closed.inc();
        }
        for _ in 0..7 {
            h.conn_stats.reuse.inc();
        }
        for _ in 0..11 {
            h.runtime.record_loop_wake(1, 100);
        }
        for _ in 0..9 {
            h.runtime.record_queue_wait(100);
        }
        h.runtime
            .flight()
            .push(0, xclean_telemetry::RuntimeEventKind::ConnOpen { conn: 2 });
        clock.advance_secs(4);
        h.runtime.record_worker_busy(0, 1_000_000_000);
        h.runtime.record_worker_busy(1, 2_000_000_000);
        let text = render_statusz(&h);
        assert!(text.starts_with("xclean suggestion server\n\n"), "{text}");
        assert!(text.contains("uptime_secs: 4"), "{text}");
        assert!(
            text.contains("requests_total: 1  errors_total: 0"),
            "{text}"
        );
        assert!(
            text.contains("runtime: workers=2 max_connections=4096"),
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
            text.contains("flight_recorder: buffered=1 capacity=64 recorded=1\n"),
            "{text}"
        );
        assert!(!text.contains("conns_tracked"), "{text}");
        assert!(
            text.contains("connections: open=2 opened=5 closed=3 keepalive_reuse=7"),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "engine_fingerprint: {:016x}\n",
                h.tenants.primary().fingerprint()
            )),
            "{text}"
        );
        assert!(text.contains("corpus built in memory"), "{text}");
        assert!(text.contains("cache: entries=0 capacity=64\n"), "{text}");
        assert!(
            text.contains("corpora: 1\n  corpus[default]: cache=0/64"),
            "{text}"
        );
        assert!(text.contains("1m"), "{text}");
        assert!(text.contains("abc123"), "{text}");
    }

    /// A socket stand-in: reads hand out its bytes, then would block;
    /// writes take everything.
    struct Wire(Vec<u8>);

    impl crate::conn::ConnIo for Wire {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0.drain(..n);
            Ok(n)
        }
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
    }

    /// The loop's connection table is the registry: a row reads the
    /// state machine itself.
    #[test]
    fn conn_registry_tracks_updates_and_renders() {
        let sec = 1_000_000_000;
        let mut c: Connection<()> = Connection::new(sec, 1 << 20, 32);
        let fresh = conn_row(8, sec, &c, 2 * sec, false).render();
        assert_eq!(
            fresh,
            "{\"id\":8,\"state\":\"open\",\"age_secs\":1,\"idle_secs\":1,\"requests\":0,\
             \"bytes_in\":0,\"bytes_out\":0,\"pipeline\":0,\"reused\":false}"
        );
        // Two pipelined requests arrive at 2 s; the first is answered at 3 s.
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        assert_eq!(c.on_readable(&mut Wire(wire.to_vec()), 2 * sec).len(), 2);
        let response = crate::conn::Response {
            status: 200,
            content_type: "text/plain",
            extra: Vec::new(),
            body: b"ok".to_vec(),
            close: false,
        };
        c.complete(0, response, (), 3 * sec);
        c.on_writable(&mut Wire(Vec::new()));
        let row = conn_row(7, sec, &c, 4 * sec, true);
        assert_eq!(row["id"].as_u64(), Some(7));
        assert_eq!(row["state"], "draining");
        assert_eq!(row["age_secs"].as_f64(), Some(3.0));
        assert_eq!(row["idle_secs"].as_f64(), Some(1.0));
        assert_eq!(row["requests"].as_u64(), Some(2));
        assert_eq!(row["bytes_in"].as_u64(), Some(wire.len() as u64));
        assert!(row["bytes_out"].as_u64().unwrap() > 2);
        assert_eq!(row["pipeline"].as_u64(), Some(1));
        assert_eq!(row["reused"], Json::Bool(true));
        let body = conns_json(5, [row]).render();
        assert!(
            body.starts_with("{\"open\":5,\"conns\":[{\"id\":7,"),
            "{body}"
        );
        assert_eq!(conns_json(3, []).render(), "{\"open\":3,\"conns\":[]}");
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
