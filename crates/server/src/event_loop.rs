//! The epoll event loop — the server's one wire path (DESIGN.md §13).
//!
//! One loop thread owns the listener, every connected socket, and the
//! [`crate::conn::Connection`] state machine of each. Routing has two
//! halves: the loop runs [`resolve`] (method, path, tenant, query
//! decode and normalisation, one cache probe) and answers cache hits,
//! routing errors and `/debug/conns` (rows read off its own connection
//! table) itself; a worker pool runs [`compute`] (the engine for a miss
//! or a batch, and every other page render). The split is deliberate:
//! suggestion scoring can take milliseconds, and running it on the loop
//! thread would head-of-line block every other connection, while a
//! resolve costs microseconds — and a hit then pays no thread hand-off
//! at all. Work flows loop → workers over an unbounded channel
//! (backpressure lives in the per-connection pipeline cap and the
//! `max_connections` accept cap, not in a queue bound); computed replies
//! flow back over a completion channel, and the worker bumps an
//! `eventfd` so the loop wakes from `epoll_wait` to flush them.
//!
//! The loop's contracts, verified by the conformance suite:
//!
//! - every response — framing errors, 408s and load-shed 503s included —
//!   carries `X-Request-Id` (inbound echoed, else generated — all IDs
//!   come from the loop thread's lane, so they stay deterministic under
//!   a fixed seed);
//! - [`crate::server::observe_reply`] is the single bookkeeping choke
//!   point, called in *wire order* as responses flush (the tokens
//!   [`crate::conn::Connection::complete`] returns);
//! - a suggestion body does not depend on how its request arrived: one
//!   per `Connection: close` socket, one by one on a keep-alive socket
//!   and pipelined in a single write all yield the same bytes;
//! - every connection leaves through [`EventLoop::close_conn`], so the
//!   open-connection gauge, the flight recorder and `/debug/conns` (which
//!   reads the loop's own connection table) cannot disagree about which
//!   sockets exist.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use xclean_telemetry::RuntimeEventKind;

use crate::conn::{ConnEvent, Connection, DeadlineAction, Response};
use crate::debug::{self, TraceIdGen};
use crate::epoll::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::http::render_response;
use crate::server::{
    compute, conns_reply, observe_reply, panic_reply, reply_for, resolve, Handler, Reply, Resolved,
    ServerConfig, Work,
};
use crate::shutdown::ShutdownFlag;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// Readiness events drained per `epoll_wait`.
const WAIT_CAPACITY: usize = 256;
/// Loop tick: the upper bound on shutdown-detection and deadline-scan
/// latency when no I/O is happening.
const TICK_MS: i32 = 50;
/// Deadline scans are amortised to at most one per this many nanos.
const SCAN_INTERVAL_NANOS: u64 = 100_000_000;
/// Pipelined requests one connection may have in flight before the loop
/// stops reading from it (backpressure).
const MAX_PIPELINE: usize = 32;
/// During graceful drain, connections that still owe responses get this
/// long to take delivery before being dropped.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Per-response observability payload threaded through the connection
/// state machine and recorded — in wire order — when the response bytes
/// are flushed.
struct ObsToken {
    reply: Reply,
    trace_id: String,
    arrived: u64,
    /// Pipeline position, for the flight recorder's `complete` event.
    seq: u64,
}

/// One live client socket.
struct Conn {
    stream: TcpStream,
    machine: Connection<ObsToken>,
    /// `(read, write)` interest currently registered with epoll.
    registered: (bool, bool),
    /// Clock nanos at accept.
    opened: u64,
}

/// A resolved request on its way to the worker pool.
struct Job {
    conn_token: u64,
    seq: u64,
    work: Work,
    trace_id: String,
    /// Nanos at which the request was surfaced and queued: the start of
    /// its latency, and of the worker's queue-wait sample.
    arrived: u64,
}

/// A routed reply on its way back to the loop.
struct Done {
    conn_token: u64,
    seq: u64,
    reply: Reply,
    trace_id: String,
    arrived: u64,
}

/// Runs the event loop until drain completes. The worker pool lives
/// inside; the caller (`SuggestServer::run`) owns report assembly.
pub(crate) fn run_event_loop(
    listener: &TcpListener,
    handler: &Arc<Handler>,
    config: &ServerConfig,
    shutdown: &ShutdownFlag,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let wake = Arc::new(WakeFd::new()?);
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(wake.raw_fd(), EPOLLIN, TOKEN_WAKE)?;

    let (job_tx, job_rx) = channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (done_tx, done_rx) = channel::<Done>();

    std::thread::scope(|scope| {
        for worker in 0..config.threads.max(1) {
            let rx = Arc::clone(&job_rx);
            let handler = Arc::clone(handler);
            let done = done_tx.clone();
            let wake = Arc::clone(&wake);
            scope.spawn(move || worker_loop(&rx, &handler, &done, &wake, worker));
        }
        drop(done_tx); // workers hold the only senders
        let mut state = EventLoop {
            epoll,
            wake,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            handler,
            config,
            ids: TraceIdGen::default(),
            job_tx: Some(job_tx),
            done_rx,
            draining: false,
            drain_deadline: u64::MAX,
            last_scan: 0,
        };
        let result = state.run(listener, shutdown);
        // Dropping the state drops `job_tx`; workers see the closed
        // channel, finish their current job, and exit — the scope joins
        // them before returning.
        drop(state);
        result
    })
}

/// CPU-bound half: dequeue resolved work, compute it (engine or page),
/// hand the reply back, and wake the loop. A panicking compute costs one
/// reply, not the pool — the client gets a 500 like any other response.
fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    handler: &Handler,
    done: &Sender<Done>,
    wake: &WakeFd,
    worker: usize,
) {
    loop {
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else {
            return; // channel closed: drain complete
        };
        let picked = handler.obs.clock().now_nanos();
        handler
            .runtime
            .record_queue_wait(picked.saturating_sub(job.arrived));
        let tenant = job.work.tenant();
        let reply = guarded(|| compute(job.work, handler, &job.trace_id))
            .unwrap_or_else(|| panic_reply(handler, tenant));
        handler.runtime.record_worker_busy(
            worker,
            handler.obs.clock().now_nanos().saturating_sub(picked),
        );
        let delivered = done.send(Done {
            conn_token: job.conn_token,
            seq: job.seq,
            reply,
            trace_id: job.trace_id,
            arrived: job.arrived,
        });
        if delivered.is_err() {
            return; // loop is gone (forced teardown)
        }
        wake.notify();
    }
}

/// Runs one routing half so that a panic inside it costs one `500`
/// reply (the caller's), not the thread.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

struct EventLoop<'a> {
    epoll: Epoll,
    wake: Arc<WakeFd>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    handler: &'a Arc<Handler>,
    config: &'a ServerConfig,
    /// The server's one trace-ID source (echo-or-generate at parse time,
    /// plus inline error replies and load-shed 503s).
    ids: TraceIdGen,
    job_tx: Option<Sender<Job>>,
    done_rx: Receiver<Done>,
    draining: bool,
    drain_deadline: u64,
    last_scan: u64,
}

impl EventLoop<'_> {
    fn now(&self) -> u64 {
        self.handler.obs.clock().now_nanos()
    }

    fn run(&mut self, listener: &TcpListener, shutdown: &ShutdownFlag) -> io::Result<()> {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; WAIT_CAPACITY];
        // Loop lag = busy time between returning from one `epoll_wait`
        // and calling the next: how long ready sockets sat unserviced
        // while the loop processed the previous batch.
        let mut last_return = self.now();
        loop {
            let lag = self.now().saturating_sub(last_return);
            let n = self.epoll.wait(&mut events, TICK_MS)?;
            last_return = self.now();
            self.handler.runtime.record_loop_wake(n as u64, lag);
            if n > 0 {
                // Idle ticks are counted above but kept out of the
                // flight recorder — they would drown real events.
                self.handler.runtime.flight().push(
                    last_return,
                    RuntimeEventKind::LoopWake {
                        events: n as u64,
                        lag_nanos: lag,
                    },
                );
            }
            for ev in &events[..n] {
                match ev.token() {
                    TOKEN_LISTENER => {
                        if !self.draining {
                            self.accept_ready(listener);
                        }
                    }
                    TOKEN_WAKE => {} // drained by pump_done below
                    token => self.conn_ready(token, ev.events()),
                }
            }
            self.pump_done();
            let now = self.now();
            if now.saturating_sub(self.last_scan) >= SCAN_INTERVAL_NANOS {
                self.last_scan = now;
                self.scan_deadlines(now);
            }
            if !self.draining && shutdown.is_triggered() {
                self.begin_drain(listener);
            }
            if self.draining {
                if self.conns.is_empty() {
                    return Ok(());
                }
                if self.now() >= self.drain_deadline {
                    // Grace expired: peers that never read their final
                    // response forfeit it.
                    let now = self.now();
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.close_conn(token, now);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Accepts until `WouldBlock`; over the connection cap, answers 503
    /// and closes (the accepted socket is still blocking, so the one
    /// small write needs no registration).
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.handler.conn_stats.opened.inc();
                    if self.conns.len() >= self.config.max_connections {
                        self.shed(&stream);
                        self.handler.conn_stats.closed.inc();
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.handler.conn_stats.closed.inc();
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                        .is_err()
                    {
                        self.handler.conn_stats.closed.inc();
                        continue;
                    }
                    let now = self.now();
                    let machine = Connection::new(now, self.config.max_body_bytes, MAX_PIPELINE);
                    self.handler
                        .runtime
                        .flight()
                        .push(now, RuntimeEventKind::ConnOpen { conn: token });
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            machine,
                            registered: (true, false),
                            opened: now,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Best-effort 503 on a connection the cap rejected.
    fn shed(&mut self, stream: &TcpStream) {
        let arrived = self.now();
        let trace_id = self.ids.next_id();
        let reply = Reply::error(503, "server overloaded; retry").tagged("overload");
        let bytes = render_response(
            reply.status,
            reply.content_type,
            &[("X-Request-Id", trace_id.as_str())],
            reply.body.as_bytes(),
            false,
        );
        let _ = (&mut (&*stream)).write_all(&bytes);
        observe_reply(self.handler, reply, trace_id, arrived);
    }

    /// Socket readiness for one connection.
    fn conn_ready(&mut self, token: u64, bits: u32) {
        let now = self.now();
        let mut events = Vec::new();
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                events = conn.machine.on_readable(&mut conn.stream, now);
            }
            if bits & EPOLLOUT != 0 {
                conn.machine.on_writable(&mut conn.stream);
            }
        }
        self.dispatch(token, events);
        self.sync_conn(token);
    }

    /// Resolves surfaced requests: cache hits and every error are
    /// answered here, the rest goes to the pool. Answering inline can
    /// free pipeline slots and surface more buffered requests; those are
    /// worked off in the same loop, not by recursion.
    fn dispatch(&mut self, token: u64, mut events: Vec<ConnEvent>) {
        while !events.is_empty() {
            let mut follow_on = Vec::new();
            for event in events {
                follow_on.extend(self.dispatch_one(token, event));
            }
            events = follow_on;
        }
    }

    /// One surfaced request; returns the requests an inline answer
    /// unblocked.
    fn dispatch_one(&mut self, token: u64, event: ConnEvent) -> Vec<ConnEvent> {
        let arrived = self.now();
        let (seq, request) = match event {
            ConnEvent::Request { seq, request } => (seq, request),
            ConnEvent::BadRequest { seq, error } => {
                let trace_id = self.ids.next_id();
                return self.complete_one(token, seq, reply_for(error), trace_id, arrived, true);
            }
        };
        let trace_id = request
            .header("x-request-id")
            .map(str::to_string)
            .unwrap_or_else(|| self.ids.next_id());
        if seq > 0 {
            self.handler.conn_stats.reuse.inc();
        }
        self.handler
            .runtime
            .flight()
            .push(arrived, RuntimeEventKind::Dispatch { conn: token, seq });
        let resolved = guarded(|| resolve(&request, self.handler, &trace_id))
            .unwrap_or_else(|| Reply::error(500, "internal error").tagged("panic").into());
        let reply = match resolved {
            Resolved::Reply(reply) => reply,
            Resolved::Conns(n) => self.conns_reply(n),
            Resolved::Work(work) => {
                if let Some(tx) = &self.job_tx {
                    let _ = tx.send(Job {
                        conn_token: token,
                        seq,
                        work,
                        trace_id,
                        arrived,
                    });
                }
                return Vec::new();
            }
        };
        self.complete_one(token, seq, reply, trace_id, arrived, false)
    }

    /// `GET /debug/conns`: up to `n` rows from the connection table, in
    /// token order — which is accept order.
    fn conns_reply(&self, n: usize) -> Reply {
        let now = self.now();
        let mut tokens: Vec<u64> = self.conns.keys().copied().collect();
        tokens.sort_unstable();
        let rows = tokens.into_iter().take(n).map(|token| {
            let conn = &self.conns[&token];
            debug::conn_row(token, conn.opened, &conn.machine, now, self.draining)
        });
        conns_reply(self.handler, rows)
    }

    /// Delivers one reply into its connection's pipeline slot; responses
    /// that just became wire bytes are observed in wire order, then the
    /// socket is flushed opportunistically (the common case finishes
    /// without ever registering `EPOLLOUT`). Returns the buffered
    /// requests a freed pipeline slot surfaced, for the caller to
    /// [`EventLoop::dispatch`].
    fn complete_one(
        &mut self,
        token: u64,
        seq: u64,
        mut reply: Reply,
        trace_id: String,
        arrived: u64,
        force_close: bool,
    ) -> Vec<ConnEvent> {
        let now = self.now();
        let follow_on = {
            let Some(conn) = self.conns.get_mut(&token) else {
                // The socket broke before its answer came back; the work
                // still happened — count it.
                observe_reply(self.handler, reply, trace_id, arrived);
                return Vec::new();
            };
            let mut extra = vec![("X-Request-Id".to_string(), trace_id.clone())];
            if let Some(h) = &reply.cache_header {
                extra.push(("X-Cache".to_string(), h.clone()));
            }
            let response = Response {
                status: reply.status,
                content_type: reply.content_type,
                extra,
                body: std::mem::take(&mut reply.body).into_bytes(),
                close: force_close,
            };
            let token_payload = ObsToken {
                reply,
                trace_id,
                arrived,
                seq,
            };
            let flushed = conn.machine.complete(seq, response, token_payload, now);
            for t in flushed {
                self.handler.runtime.flight().push(
                    now,
                    RuntimeEventKind::Complete {
                        conn: token,
                        seq: t.seq,
                        status: t.reply.status,
                    },
                );
                observe_reply(self.handler, t.reply, t.trace_id, t.arrived);
            }
            conn.machine.on_writable(&mut conn.stream);
            // A freed pipeline slot may unblock already-buffered
            // requests (backpressure release).
            conn.machine.parse_buffered(now)
        };
        self.sync_conn(token);
        follow_on
    }

    /// Pulls every completed reply the workers have queued. The wake fd
    /// is drained first so level-triggered epoll quiets down.
    fn pump_done(&mut self) {
        self.wake.drain();
        while let Ok(done) = self.done_rx.try_recv() {
            let follow_on = self.complete_one(
                done.conn_token,
                done.seq,
                done.reply,
                done.trace_id,
                done.arrived,
                false,
            );
            self.dispatch(done.conn_token, follow_on);
        }
    }

    /// Mirrors the state machine's interest into epoll and reaps
    /// finished connections — the one choke point every connection event
    /// funnels through.
    fn sync_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.machine.finished() {
            let now = self.now();
            self.close_conn(token, now);
            return;
        }
        let want = conn.machine.interest();
        if (want.read, want.write) != conn.registered {
            let mut bits = EPOLLRDHUP;
            if want.read {
                bits |= EPOLLIN;
            }
            if want.write {
                bits |= EPOLLOUT;
            }
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), bits, token)
                .is_ok()
            {
                conn.registered = (want.read, want.write);
            }
        }
    }

    /// The one teardown: deregisters the socket, drops it, and tells the
    /// gauge and the flight recorder.
    fn close_conn(&mut self, token: u64, now: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.epoll.del(conn.stream.as_raw_fd());
        self.handler.conn_stats.closed.inc();
        self.handler
            .runtime
            .flight()
            .push(now, RuntimeEventKind::ConnClose { conn: token });
    }

    /// Applies the timeout policy: 408s for stalled partial requests
    /// (slow-loris), silent closes for idle keep-alive sockets.
    fn scan_deadlines(&mut self, now: u64) {
        let read_to = self.config.read_timeout.as_nanos() as u64;
        let ka_to = self.config.keep_alive_timeout.as_nanos() as u64;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let action = match self.conns.get_mut(&token) {
                Some(conn) => conn.machine.check_deadlines(now, read_to, ka_to),
                None => continue,
            };
            match action {
                DeadlineAction::None => {}
                DeadlineAction::Respond408 { seq } => {
                    let trace_id = self.ids.next_id();
                    // A 408 closes the stream: nothing follows it.
                    self.complete_one(token, seq, Reply::timeout(), trace_id, now, true);
                }
                DeadlineAction::CloseIdle => self.close_conn(token, now),
            }
        }
    }

    /// Stops accepting and puts every connection into drain: idle ones
    /// close now; ones with in-flight pipelined requests get their
    /// answers, the last marked `Connection: close`.
    fn begin_drain(&mut self, listener: &TcpListener) {
        self.draining = true;
        let _ = self.epoll.del(listener.as_raw_fd());
        self.drain_deadline = self.now().saturating_add(DRAIN_GRACE.as_nanos() as u64);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.machine.begin_drain();
                conn.machine.on_writable(&mut conn.stream);
            }
            self.sync_conn(token);
        }
    }
}
