//! Server-runtime observability: event-loop and worker-pool health.
//!
//! Where [`crate::ring`] and [`crate::window`] make individual *requests*
//! observable, this module makes the *runtime carrying them* observable:
//!
//! - **Loop lag** — how long one event-loop iteration spent processing
//!   before it could call `epoll_wait` again. A saturated loop shows up
//!   here long before it shows up as 503s.
//! - **Events per wake** — how many readiness events each `epoll_wait`
//!   returned. Rising batch sizes mean the loop is falling behind.
//! - **Queue wait** — enqueue → worker-pickup latency for dispatched
//!   jobs. This is the saturation signal for the scoring worker pool.
//! - **Worker busy time** — per-worker busy nanoseconds, turned into a
//!   utilization gauge against wall time at collection.
//! - **Flight recorder** — a bounded [`Ring`] of runtime events (loop
//!   iterations, connection opens/closes, job dispatch/completion)
//!   dumpable as Chrome trace-event JSON for `chrome://tracing`.
//!
//! Everything here is record-only and clock-agnostic: callers stamp
//! times with their own [`crate::clock::Clock`], so tests drive the whole
//! module with a [`crate::clock::ManualClock`] and zero sleeps. Recording
//! is lock-free (atomic histogram buckets) except for flight-recorder
//! pushes, which take the ring's one short mutex — and a capacity of 0
//! disables the recorder entirely, making `push` a no-op.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;
use crate::metrics::{Exposition, Histogram, Unit, Value};
use crate::names;
use crate::ring::Ring;

/// One kind of runtime event the flight recorder can remember.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeEventKind {
    /// One event-loop iteration: `epoll_wait` returned `events`
    /// readiness events and the previous iteration's processing took
    /// `lag_nanos` before the loop could wait again.
    LoopWake {
        /// Readiness events returned by this wait.
        events: u64,
        /// Nanoseconds the loop spent busy before this wait.
        lag_nanos: u64,
    },
    /// A connection was accepted and registered.
    ConnOpen {
        /// Connection token/ID.
        conn: u64,
    },
    /// A connection was closed (any reason: EOF, error, timeout, drain).
    ConnClose {
        /// Connection token/ID.
        conn: u64,
    },
    /// A parsed request was dispatched to the worker pool.
    Dispatch {
        /// Connection token/ID.
        conn: u64,
        /// Request sequence number on that connection.
        seq: u64,
    },
    /// A response was completed and handed back for writing.
    Complete {
        /// Connection token/ID.
        conn: u64,
        /// Request sequence number on that connection.
        seq: u64,
        /// HTTP status of the response.
        status: u16,
    },
}

impl RuntimeEventKind {
    /// The event's display name (also the Chrome trace-event name).
    pub fn name(&self) -> &'static str {
        match self {
            RuntimeEventKind::LoopWake { .. } => "loop_wake",
            RuntimeEventKind::ConnOpen { .. } => "conn_open",
            RuntimeEventKind::ConnClose { .. } => "conn_close",
            RuntimeEventKind::Dispatch { .. } => "dispatch",
            RuntimeEventKind::Complete { .. } => "complete",
        }
    }

    /// The event's payload (the Chrome `args`).
    fn args_json(&self) -> Json {
        match *self {
            RuntimeEventKind::LoopWake { events, lag_nanos } => {
                Json::object([("events", events.into()), ("lag_nanos", lag_nanos.into())])
            }
            RuntimeEventKind::ConnOpen { conn } | RuntimeEventKind::ConnClose { conn } => {
                Json::object([("conn", conn.into())])
            }
            RuntimeEventKind::Dispatch { conn, seq } => {
                Json::object([("conn", conn.into()), ("seq", seq.into())])
            }
            RuntimeEventKind::Complete { conn, seq, status } => Json::object([
                ("conn", conn.into()),
                ("seq", seq.into()),
                ("status", status.into()),
            ]),
        }
    }
}

/// One recorded runtime event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeEvent {
    /// Monotonic recording sequence number (assigned by the recorder).
    pub seq: u64,
    /// Event timestamp in clock nanoseconds.
    pub ts_nanos: u64,
    /// What happened.
    pub kind: RuntimeEventKind,
}

/// Bounded ring of [`RuntimeEvent`]s; capacity 0 disables recording.
pub type FlightRecorder = Ring<RuntimeEvent>;

impl Ring<RuntimeEvent> {
    /// A recorder retaining the most recent `capacity` events. Capacity
    /// 0 means disabled: pushes are no-ops and dumps are empty.
    pub fn new(capacity: usize) -> Self {
        Ring::with_capacity(capacity)
    }

    /// Whether the recorder retains anything (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// Records one event at `ts_nanos`; evicts the oldest when full.
    /// No-op when disabled.
    pub fn push(&self, ts_nanos: u64, kind: RuntimeEventKind) {
        self.push_with(|seq| RuntimeEvent {
            seq,
            ts_nanos,
            kind,
        });
    }

    /// The `n` most recent events, oldest first (ready for replay).
    pub fn recent(&self, n: usize) -> Vec<RuntimeEvent> {
        self.newest(n)
    }

    /// The `n` most recent events as a Chrome trace-event document —
    /// instant events loadable in `chrome://tracing` / Perfetto, same
    /// envelope as [`crate::Tracer::chrome_trace_json`].
    pub fn chrome_trace_json(&self, n: usize) -> Json {
        let events = self.recent(n).into_iter().map(|e| {
            Json::object([
                ("name", e.kind.name().into()),
                ("cat", "runtime".into()),
                ("ph", "i".into()),
                ("ts", (e.ts_nanos as f64 / 1e3).into()),
                ("pid", 1u32.into()),
                ("tid", 0u32.into()),
                ("s", "g".into()),
                ("args", e.kind.args_json()),
            ])
        });
        Json::object([("traceEvents", events.collect())])
    }
}

/// The server-runtime stats bundle: one per running server.
///
/// Recording methods take explicit values (the caller stamps times with
/// its own clock); collecting takes the elapsed wall nanos so worker
/// utilization is a pure function of what was recorded.
#[derive(Debug)]
pub struct RuntimeStats {
    loop_lag: Histogram,
    events_per_wake: Histogram,
    queue_wait: Histogram,
    worker_busy: Vec<AtomicU64>,
    flight: FlightRecorder,
}

impl RuntimeStats {
    /// Stats for a pool of `workers` workers and a flight recorder of
    /// `flight_capacity` events (0 disables the recorder).
    pub fn new(workers: usize, flight_capacity: usize) -> Self {
        RuntimeStats {
            loop_lag: Histogram::default(),
            events_per_wake: Histogram::default(),
            queue_wait: Histogram::default(),
            worker_busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            flight: FlightRecorder::new(flight_capacity),
        }
    }

    /// Records one event-loop iteration: `events` readiness events were
    /// drained, after the loop spent `lag_nanos` busy since its previous
    /// wait returned.
    pub fn record_loop_wake(&self, events: u64, lag_nanos: u64) {
        self.events_per_wake.record(events);
        self.loop_lag.record(lag_nanos);
    }

    /// Records one job's enqueue → worker-pickup wait.
    pub fn record_queue_wait(&self, nanos: u64) {
        self.queue_wait.record(nanos);
    }

    /// Adds busy time to worker `worker` (ignored if out of range —
    /// degenerate configs must not panic the pool).
    pub fn record_worker_busy(&self, worker: usize, nanos: u64) {
        if let Some(w) = self.worker_busy.get(worker) {
            w.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// The loop-lag histogram (nanosecond samples).
    pub fn loop_lag(&self) -> &Histogram {
        &self.loop_lag
    }

    /// The events-per-wake histogram.
    pub fn events_per_wake(&self) -> &Histogram {
        &self.events_per_wake
    }

    /// The queue-wait histogram (nanosecond samples).
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// Number of workers tracked.
    pub fn workers(&self) -> usize {
        self.worker_busy.len()
    }

    /// Busy nanoseconds recorded for worker `worker` (0 if out of range).
    pub fn worker_busy_nanos(&self, worker: usize) -> u64 {
        self.worker_busy
            .get(worker)
            .map_or(0, |w| w.load(Ordering::Relaxed))
    }

    /// Per-worker utilization over `elapsed_nanos` of wall time, each
    /// clamped to [0, 1]. All zeros when no time has elapsed.
    pub fn utilization(&self, elapsed_nanos: u64) -> Vec<f64> {
        self.worker_busy
            .iter()
            .map(|w| {
                if elapsed_nanos == 0 {
                    0.0
                } else {
                    (w.load(Ordering::Relaxed) as f64 / elapsed_nanos as f64).min(1.0)
                }
            })
            .collect()
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Hands `page` the runtime series: events-per-wake (integer
    /// bounds), loop-lag and queue-wait (fractional seconds), and the
    /// per-worker utilization gauge computed against `elapsed_nanos` of
    /// wall time. The histograms are collected even when empty, so a
    /// scrape before the first request has the full runtime shape.
    pub fn collect(&self, page: &mut Exposition, elapsed_nanos: u64) {
        for (name, unit, h) in [
            (names::EVENTS_PER_WAKE, Unit::Raw, &self.events_per_wake),
            (names::LOOP_LAG_SECONDS, Unit::Seconds, &self.loop_lag),
            (names::QUEUE_WAIT_SECONDS, Unit::Seconds, &self.queue_wait),
        ] {
            page.histogram(name, &[], unit, h);
        }
        for (i, u) in self.utilization(elapsed_nanos).into_iter().enumerate() {
            page.gauge(
                names::WORKER_UTILIZATION,
                &[("worker", &i.to_string())],
                Value::Ratio(u),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::conformance::check_page;
    use crate::json;

    fn page_of(stats: &RuntimeStats, elapsed_nanos: u64) -> String {
        let mut page = Exposition::new();
        stats.collect(&mut page, elapsed_nanos);
        page.render()
    }

    /// ManualClock drives the histograms: lag and queue-wait samples are
    /// clock differences, no sleeps anywhere.
    #[test]
    fn manual_clock_drives_loop_lag_and_queue_wait() {
        let clock = ManualClock::starting_at(1_000);
        let stats = RuntimeStats::new(2, 16);

        let wait_returned = clock.now_nanos();
        clock.advance(700); // the loop is "busy" for 700 ns
        let next_wait = clock.now_nanos();
        stats.record_loop_wake(3, next_wait - wait_returned);

        let enqueued = clock.now_nanos();
        clock.advance(5_000); // the job waits 5 µs for a worker
        stats.record_queue_wait(clock.now_nanos() - enqueued);

        assert_eq!(stats.loop_lag().count(), 1);
        assert_eq!(stats.loop_lag().sum(), 700);
        // 700 lands in [512, 1024): quantile reports the upper bound.
        assert_eq!(stats.loop_lag().quantile(0.5), 1023);
        assert_eq!(stats.events_per_wake().sum(), 3);
        assert_eq!(stats.queue_wait().count(), 1);
        assert_eq!(stats.queue_wait().sum(), 5_000);
    }

    #[test]
    fn worker_utilization_is_busy_over_wall() {
        let stats = RuntimeStats::new(2, 0);
        stats.record_worker_busy(0, 250);
        stats.record_worker_busy(0, 250);
        stats.record_worker_busy(1, 2_000); // more busy than wall: clamp
        stats.record_worker_busy(9, 1); // out of range: ignored
        let u = stats.utilization(1_000);
        assert_eq!(u.len(), 2);
        assert!((u[0] - 0.5).abs() < 1e-9, "{u:?}");
        assert_eq!(u[1], 1.0, "{u:?}");
        assert_eq!(stats.utilization(0), vec![0.0, 0.0]);
        assert_eq!(stats.worker_busy_nanos(0), 500);
        assert_eq!(stats.worker_busy_nanos(9), 0);
    }

    #[test]
    fn flight_recorder_wraps_around_keeping_newest() {
        let rec = FlightRecorder::new(4);
        assert!(rec.is_enabled());
        for i in 0..10u64 {
            rec.push(i * 100, RuntimeEventKind::ConnOpen { conn: i });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.total_recorded(), 10);
        let events = rec.recent(100);
        let conns: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                RuntimeEventKind::ConnOpen { conn } => conn,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(conns, [6, 7, 8, 9], "oldest evicted, order preserved");
        assert_eq!(events[0].seq, 7);
        // recent(n) trims from the old end.
        let last_two = rec.recent(2);
        assert_eq!(last_two.len(), 2);
        assert_eq!(last_two[1].ts_nanos, 900);
    }

    #[test]
    fn zero_capacity_recorder_is_inert() {
        let rec = FlightRecorder::new(0);
        assert!(!rec.is_enabled());
        rec.push(1, RuntimeEventKind::ConnOpen { conn: 1 });
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.total_recorded(), 0);
        assert_eq!(rec.chrome_trace_json(10).render(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn chrome_trace_dump_is_loadable_instant_events() {
        let rec = FlightRecorder::new(8);
        rec.push(
            1_500,
            RuntimeEventKind::LoopWake {
                events: 2,
                lag_nanos: 300,
            },
        );
        rec.push(2_000, RuntimeEventKind::Dispatch { conn: 7, seq: 1 });
        rec.push(
            3_000,
            RuntimeEventKind::Complete {
                conn: 7,
                seq: 1,
                status: 200,
            },
        );
        rec.push(4_000, RuntimeEventKind::ConnClose { conn: 7 });
        let json = rec.chrome_trace_json(10).render();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(
            json.contains("\"name\":\"loop_wake\",\"cat\":\"runtime\",\"ph\":\"i\",\"ts\":1.5,"),
            "{json}"
        );
        assert!(
            json.contains("\"args\":{\"events\":2,\"lag_nanos\":300}"),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"complete\"") && json.contains("\"status\":200"),
            "{json}"
        );
        // Events come out in recording (chronological) order.
        let wake = json.find("loop_wake").unwrap();
        let close = json.find("conn_close").unwrap();
        assert!(wake < close);
        let v = json::parse(&json).expect("the dump is JSON");
        let events = v["traceEvents"].as_array().expect("traceEvents");
        assert_eq!(events.len(), 4);
        assert_eq!(events[0]["name"], "loop_wake");
        assert_eq!(events[0]["ph"], "i");
        assert_eq!(events[0]["args"]["lag_nanos"].as_u64(), Some(300));
        assert_eq!(events[2]["args"]["status"].as_u64(), Some(200));
    }

    #[test]
    fn runtime_metrics_render_seconds_and_are_present_when_empty() {
        let stats = RuntimeStats::new(1, 0);
        // Empty: every series still renders, so a scrape taken before
        // the first request has the same shape as any later one.
        let empty = page_of(&stats, 0);
        for name in [
            names::EVENTS_PER_WAKE,
            names::LOOP_LAG_SECONDS,
            names::QUEUE_WAIT_SECONDS,
        ] {
            assert!(
                empty.contains(&format!("{name}_bucket{{le=\"+Inf\"}} 0")),
                "{name} missing from empty render: {empty}"
            );
            assert!(empty.contains(&format!("{name}_count 0")), "{empty}");
        }
        assert!(
            empty.contains("xclean_worker_utilization{worker=\"0\"} 0.000000"),
            "{empty}"
        );

        stats.record_loop_wake(3, 700);
        stats.record_queue_wait(700);
        stats.record_worker_busy(0, 500);
        let text = page_of(&stats, 1_000);
        // 700 ns is bucket [512, 1024): le is 1023 ns = 0.000001023 s.
        assert!(
            text.contains("xclean_loop_lag_seconds_bucket{le=\"0.000001023\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("xclean_loop_lag_seconds_sum 0.0000007"),
            "{text}"
        );
        assert!(
            text.contains("xclean_queue_wait_seconds_bucket{le=\"0.000001023\"} 1"),
            "{text}"
        );
        // events-per-wake keeps integer bounds: 3 is in [2, 4) → le 3.
        assert!(
            text.contains("xclean_events_per_wake_bucket{le=\"3\"} 1"),
            "{text}"
        );
        assert!(text.contains("xclean_events_per_wake_sum 3"), "{text}");
        assert!(
            text.contains("xclean_worker_utilization{worker=\"0\"} 0.500000"),
            "{text}"
        );
    }

    /// The runtime series hold the same conformance invariants as every
    /// other source (the shared checker): HELP/TYPE pairing, cumulative
    /// buckets with float `le` ending at `+Inf` == `_count`.
    #[test]
    fn runtime_metrics_are_conformant() {
        let stats = RuntimeStats::new(2, 0);
        for v in [0u64, 1, 3, 700, 700, 5_000] {
            stats.record_queue_wait(v);
            stats.record_loop_wake(v, v);
        }
        let samples = check_page(&page_of(&stats, 1_000));
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "xclean_queue_wait_seconds_bucket"
                    && s.labels == [("le".to_string(), "+Inf".to_string())]
            })
            .expect("+Inf bucket");
        assert_eq!(inf.value, "6");
    }

    #[test]
    fn concurrent_flight_pushes_never_lose_count() {
        let rec = FlightRecorder::new(1024);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..100 {
                        rec.push(i, RuntimeEventKind::ConnOpen { conn: t });
                    }
                });
            }
        });
        assert_eq!(rec.total_recorded(), 800);
        assert_eq!(rec.len(), 800);
    }
}
