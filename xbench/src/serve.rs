//! The in-process server under test and the closed-loop client pass
//! that drives it.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xclean::XCleanEngine;
use xclean_server::{
    AcceptModel, DrainReport, Observability, ServerConfig, ShutdownFlag, SuggestServer, TenantSet,
};
use xclean_telemetry::RequestRecord;

use crate::client::{HttpConn, Reply};
use crate::error::{setup, BenchError};
use crate::reference::Pacer;

/// Response-cache entries of the server under test: more than the hot
/// pool (every `serve_hot` request hits), far fewer than the full pool
/// cycled in order (every `serve_miss` request misses).
pub const CACHE_ENTRIES: usize = 256;

/// Server worker threads. The client holds one connection with one
/// request in flight and the process is pinned to one CPU (see
/// [`crate::affinity`]), so a second worker would never have work.
pub const WORKERS: usize = 1;

/// A `SuggestServer` running on its own thread, stopped when dropped.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    flag: ShutdownFlag,
    tenants: Arc<TenantSet>,
    obs: Arc<Observability>,
    thread: Option<JoinHandle<std::io::Result<DrainReport>>>,
}

impl ServerHandle {
    /// Binds an epoll-model server with a [`CACHE_ENTRIES`]-entry cache
    /// and [`WORKERS`] worker thread(s) to a loopback port and starts it.
    /// Returns the handle and the bind time in milliseconds.
    pub fn start(engine: Arc<XCleanEngine>) -> Result<(ServerHandle, f64), BenchError> {
        let t = Instant::now();
        let server = SuggestServer::bind(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                accept_model: AcceptModel::EventLoop,
                threads: WORKERS,
                cache_entries: CACHE_ENTRIES,
                ..ServerConfig::default()
            },
        )
        .map_err(setup("bind server"))?;
        let bind_ms = t.elapsed().as_secs_f64() * 1e3;
        let addr = server.local_addr().map_err(setup("server address"))?;
        let flag = server.shutdown_flag();
        let tenants = Arc::clone(server.tenants());
        let obs = server.observability();
        let thread = std::thread::Builder::new()
            .name("xbench-server".to_string())
            .spawn(move || server.run())
            .map_err(setup("spawn server thread"))?;
        Ok((
            ServerHandle {
                addr,
                flag,
                tenants,
                obs,
                thread: Some(thread),
            },
            bind_ms,
        ))
    }

    /// Opens a keep-alive connection to the server.
    pub fn connect(&self) -> Result<HttpConn, BenchError> {
        HttpConn::connect(self.addr).map_err(setup("connect to server"))
    }

    /// Lifetime response-cache `(hits, misses, evictions)`.
    pub fn cache_counters(&self) -> (u64, u64, u64) {
        self.tenants.cache_totals()
    }

    /// The engine fingerprint the server keys its response cache with.
    pub fn fingerprint(&self) -> u64 {
        self.tenants.primary().fingerprint()
    }

    /// Requests the server's observability plane has recorded so far.
    pub fn observed(&self) -> u64 {
        self.obs.total_observed()
    }

    /// The server's own record of the request answered since `seen`
    /// requests had been recorded. The record is pushed when the reply's
    /// bytes are flushed, which the client can see a moment before the
    /// push; this yields until it lands.
    pub fn record_after(&self, seen: u64) -> Result<RequestRecord, BenchError> {
        let waiting = Instant::now();
        while self.obs.total_observed() <= seen {
            if waiting.elapsed() > Duration::from_secs(5) {
                return Err(BenchError::Setup(
                    "the server never recorded a request it answered".to_string(),
                ));
            }
            std::thread::yield_now();
        }
        self.obs
            .recent(1)
            .pop()
            .ok_or_else(|| BenchError::Setup("the server's request ring is empty".to_string()))
    }

    /// Drains the server and returns its lifetime report. The caller has
    /// dropped its connections, so the drain has nothing to wait for.
    pub fn stop(mut self) -> Result<DrainReport, BenchError> {
        self.flag.trigger();
        let thread = self.thread.take().expect("server thread is joined once");
        thread
            .join()
            .map_err(|_| BenchError::Setup("server thread panicked".to_string()))?
            .map_err(setup("server run"))
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.flag.trigger();
        if let Some(thread) = self.thread.take() {
            // A panic or I/O error here was already reported by `stop`, or
            // the run is failing for another reason that is reported instead.
            let _ = thread.join();
        }
    }
}

/// One closed-loop pass: `total` requests, request `i` being
/// `requests[i % requests.len()]`, each sent when the reply to the one
/// before has arrived. Calls `check(query index, reply)` on every reply
/// and then `pacer` (a measured pass has one), both outside the timed
/// span. Returns the per-request latencies in nanoseconds and the pass's
/// wall time (the pacer's kernel runs included).
pub fn http_pass(
    conn: &mut HttpConn,
    requests: &[Vec<u8>],
    total: usize,
    mut pacer: Option<&mut Pacer<'_>>,
    mut check: impl FnMut(usize, &Reply<'_>) -> Result<(), BenchError>,
) -> Result<(Vec<u64>, Duration), BenchError> {
    let mut nanos = Vec::with_capacity(total);
    let wall = Instant::now();
    for i in 0..total {
        let query = i % requests.len();
        let failure = |detail: String| BenchError::HttpFailure { query, detail };
        let sent = Instant::now();
        conn.send(&requests[query])
            .map_err(|e| failure(format!("write: {e}")))?;
        let reply = conn.recv().map_err(failure)?;
        nanos.push(sent.elapsed().as_nanos() as u64);
        if reply.status != 200 {
            return Err(failure(format!("status {}", reply.status)));
        }
        check(query, &reply)?;
        if let Some(pacer) = pacer.as_deref_mut() {
            pacer.after_request();
        }
    }
    Ok((nanos, wall.elapsed()))
}
