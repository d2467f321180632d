//! `loadgen` — a keep-alive HTTP load generator for the suggestion
//! server (DESIGN.md §13).
//!
//! Drives thousands of concurrent persistent connections from a single
//! epoll loop (the same [`xclean_server::epoll`] shim the server's
//! event loop uses), each running a closed loop: send one
//! `GET /suggest?q=…`, read the full response, record its latency, send
//! the next. Prints a JSON report — sustained queries/sec plus
//! p50/p95/p99 latency — to stdout (logs go to stderr).
//!
//! ```text
//! cargo run -p xclean-server --release --example loadgen -- \
//!     --addr 127.0.0.1:8080 --connections 1000 --duration 30
//! ```
//!
//! Options:
//!
//! - `--addr HOST:PORT` — target server (default `127.0.0.1:8080`).
//! - `--connections N` — concurrent persistent connections (default 64).
//! - `--duration SECS` — measured window (default 30).
//! - `--warmup SECS` — unrecorded lead-in (default 2).
//! - `--queries PATH` — newline-separated query mix (default: a built-in
//!   list of typo'd DBLP-flavoured queries).
//! - `--path P` — endpoint path for every request (default `/suggest`;
//!   use `/suggest/<corpus>` against a multi-tenant catalog server).
//! - `--target P[=W]` — repeatable weighted multi-target mix: each
//!   request picks one path from the declared targets, proportionally to
//!   the integer weights (default weight 1). Mutually exclusive with
//!   `--path`; the report then carries a `per_target` breakdown with
//!   per-path q/s and p50/p95/p99 latency.
//! - `--healthz-every N` — fold one cheap `GET /healthz` into every Nth
//!   request per connection (0 = pure suggestion traffic, the default).
//! - `--out PATH` — write the JSON report to a file instead of stdout.
//!
//! Every non-200 status, framing error, or mid-response disconnect
//! counts as an error in the report; the PR-6 acceptance bar is zero.

#[cfg(target_os = "linux")]
fn main() {
    linux::main()
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("loadgen: drives sockets through epoll(7) and only runs on Linux");
    std::process::exit(2);
}

#[cfg(target_os = "linux")]
mod linux {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    use xclean_server::epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
    use xclean_telemetry::json::Json;

    const DEFAULT_QUERIES: &[&str] = &[
        "databse systems",
        "xml keywrd search",
        "relatinal algebra",
        "quer optimization",
        "data integraton",
        "infomation retrieval",
        "spelling correcton",
        "strem processing",
        "grph databases",
        "machne learning",
        "distriuted transactions",
        "apprximate matching",
        "semi structured dta",
        "top k rankng",
        "edit distnce",
        "probabilstic models",
    ];

    struct Options {
        addr: String,
        connections: usize,
        duration: Duration,
        warmup: Duration,
        queries: Vec<String>,
        /// Weighted request paths: `(path, weight)`, weights ≥ 1.
        targets: Vec<(String, u64)>,
        healthz_every: usize,
        out: Option<String>,
    }

    fn parse_args() -> Options {
        let mut opts = Options {
            addr: "127.0.0.1:8080".to_string(),
            connections: 64,
            duration: Duration::from_secs(30),
            warmup: Duration::from_secs(2),
            queries: DEFAULT_QUERIES.iter().map(|q| q.to_string()).collect(),
            targets: Vec::new(),
            healthz_every: 0,
            out: None,
        };
        let mut path_flag: Option<String> = None;
        let mut args = std::env::args().skip(1);
        let next = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next().unwrap_or_else(|| {
                eprintln!("loadgen: {flag} expects a value");
                std::process::exit(2);
            })
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--addr" => opts.addr = next("--addr", &mut args),
                "--connections" => {
                    opts.connections = next("--connections", &mut args)
                        .parse()
                        .expect("--connections expects a number")
                }
                "--duration" => {
                    opts.duration = Duration::from_secs_f64(
                        next("--duration", &mut args)
                            .parse()
                            .expect("--duration expects seconds"),
                    )
                }
                "--warmup" => {
                    opts.warmup = Duration::from_secs_f64(
                        next("--warmup", &mut args)
                            .parse()
                            .expect("--warmup expects seconds"),
                    )
                }
                "--healthz-every" => {
                    opts.healthz_every = next("--healthz-every", &mut args)
                        .parse()
                        .expect("--healthz-every expects a number")
                }
                "--queries" => {
                    let path = next("--queries", &mut args);
                    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                        eprintln!("loadgen: cannot read queries file {path}: {e}");
                        std::process::exit(2);
                    });
                    opts.queries = text
                        .lines()
                        .map(str::trim)
                        .filter(|l| !l.is_empty() && !l.starts_with('#'))
                        .map(str::to_string)
                        .collect();
                    assert!(!opts.queries.is_empty(), "{path} holds no queries");
                }
                "--path" => path_flag = Some(next("--path", &mut args)),
                "--target" => {
                    let spec = next("--target", &mut args);
                    let (path, weight) = match spec.rsplit_once('=') {
                        Some((p, w)) => {
                            let weight: u64 = w.parse().unwrap_or_else(|_| {
                                eprintln!(
                                    "loadgen: --target {spec}: weight must be a positive integer"
                                );
                                std::process::exit(2);
                            });
                            (p.to_string(), weight)
                        }
                        None => (spec.clone(), 1),
                    };
                    if weight == 0 || !path.starts_with('/') {
                        eprintln!("loadgen: --target {spec}: expects /path[=positive-weight]");
                        std::process::exit(2);
                    }
                    opts.targets.push((path, weight));
                }
                "--out" => opts.out = Some(next("--out", &mut args)),
                other => {
                    eprintln!(
                        "loadgen: unknown argument {other:?} (expected --addr --connections \
                         --duration --warmup --queries --path --target --healthz-every --out)"
                    );
                    std::process::exit(2);
                }
            }
        }
        assert!(opts.connections > 0, "--connections must be positive");
        match (path_flag, opts.targets.is_empty()) {
            (Some(_), false) => {
                eprintln!("loadgen: --path and --target are mutually exclusive");
                std::process::exit(2);
            }
            (Some(p), true) => {
                assert!(p.starts_with('/'), "--path expects an absolute path");
                opts.targets.push((p, 1));
            }
            (None, true) => opts.targets.push(("/suggest".to_string(), 1)),
            (None, false) => {}
        }
        opts
    }

    /// Percent-encodes a query for the `q=` parameter (ASCII-safe for
    /// the built-in mix; anything non-alphanumeric goes `%XX`).
    fn encode_query(q: &str) -> String {
        let mut out = String::with_capacity(q.len());
        for b in q.bytes() {
            match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
                _ => out.push_str(&format!("%{b:02X}")),
            }
        }
        out
    }

    /// One persistent connection in its closed request→response loop.
    struct Conn {
        stream: TcpStream,
        /// The request currently going out, and how much of it has been
        /// written.
        out_buf: Vec<u8>,
        out_pos: usize,
        /// Bytes of the response currently coming in.
        in_buf: Vec<u8>,
        /// When the in-flight request was sent (nanos since epoch).
        sent_at: u64,
        /// Index into the per-connection request schedule.
        step: usize,
        /// Target index of the in-flight request ([`HEALTHZ_TARGET`] for
        /// a folded-in `/healthz` probe).
        in_flight_target: usize,
        /// Registered write interest, mirrored into `EPOLL_CTL_MOD`.
        want_write: bool,
        alive: bool,
    }

    /// `Conn::in_flight_target` sentinel for `/healthz` probes, which
    /// belong to no declared target.
    const HEALTHZ_TARGET: usize = usize::MAX;

    /// Per-target slice of the tally, one per declared `--target`.
    #[derive(Default)]
    struct TargetTally {
        requests: u64,
        errors: u64,
        /// Measured-window latencies of this target's requests, so the
        /// report can break p50/p95/p99 down per path.
        latencies: Vec<u64>,
    }

    /// Everything the report needs, accumulated as responses complete.
    struct Tally {
        latencies: Vec<u64>,
        warmup_requests: u64,
        requests: u64,
        errors: u64,
        bytes_in: u64,
        per_target: Vec<TargetTally>,
    }

    struct Loadgen {
        epoll: Epoll,
        conns: Vec<Conn>,
        /// Pre-rendered request bytes, indexed `[target][query]`.
        requests: Vec<Vec<Vec<u8>>>,
        /// Weighted target rotation: one entry per unit of weight.
        target_schedule: Vec<usize>,
        healthz_every: usize,
        epoch: Instant,
        measuring_from: u64,
        tally: Tally,
    }

    impl Loadgen {
        fn now(&self) -> u64 {
            self.epoch.elapsed().as_nanos() as u64
        }

        /// The next request on `conn`'s schedule: its own rotation of the
        /// weighted target mix crossed with the query mix, with a
        /// `/healthz` folded in every Nth step when requested. Returns
        /// the request bytes plus the target index they count against.
        fn next_request(&self, token: usize) -> (Vec<u8>, usize) {
            let conn = &self.conns[token];
            if self.healthz_every > 0 && conn.step % self.healthz_every == self.healthz_every - 1 {
                return (
                    b"GET /healthz HTTP/1.1\r\nHost: loadgen\r\n\r\n".to_vec(),
                    HEALTHZ_TARGET,
                );
            }
            // Offset by the token so concurrent connections spread over
            // the mix instead of hammering one cache entry in lockstep.
            let target = self.target_schedule[(conn.step + token) % self.target_schedule.len()];
            let queries = &self.requests[target];
            (queries[(conn.step + token) % queries.len()].clone(), target)
        }

        fn send_next(&mut self, token: usize) {
            let (request, target) = self.next_request(token);
            let now = self.now();
            let conn = &mut self.conns[token];
            conn.step += 1;
            conn.out_buf = request;
            conn.out_pos = 0;
            conn.sent_at = now;
            conn.in_flight_target = target;
            self.flush(token);
        }

        /// Writes as much of the pending request as the socket accepts,
        /// tracking EPOLLOUT interest for the remainder.
        fn flush(&mut self, token: usize) {
            let conn = &mut self.conns[token];
            while conn.out_pos < conn.out_buf.len() {
                match conn.stream.write(&conn.out_buf[conn.out_pos..]) {
                    Ok(0) => return self.fail(token, "zero-length write"),
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return self.fail(token, &format!("write: {e}")),
                }
            }
            let want_write = conn.out_pos < conn.out_buf.len();
            if want_write != conn.want_write {
                conn.want_write = want_write;
                let events = EPOLLIN | if want_write { EPOLLOUT } else { 0 };
                let _ = self
                    .epoll
                    .modify(conn.stream.as_raw_fd(), events, token as u64);
            }
        }

        /// Reads available bytes and completes at most one response (the
        /// loop is closed: exactly one request is ever in flight).
        fn on_readable(&mut self, token: usize) {
            let mut chunk = [0u8; 16 * 1024];
            loop {
                let conn = &mut self.conns[token];
                match conn.stream.read(&mut chunk) {
                    Ok(0) => return self.fail(token, "server closed mid-response"),
                    Ok(n) => {
                        conn.in_buf.extend_from_slice(&chunk[..n]);
                        self.tally.bytes_in += n as u64;
                        if self.try_complete(token) {
                            return;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return self.fail(token, &format!("read: {e}")),
                }
            }
        }

        /// If a full response is buffered, records it and sends the next
        /// request. Returns true when the response completed.
        fn try_complete(&mut self, token: usize) -> bool {
            let conn = &self.conns[token];
            let head_end = match conn.in_buf.windows(4).position(|w| w == b"\r\n\r\n") {
                Some(i) => i + 4,
                None => return false,
            };
            let head = String::from_utf8_lossy(&conn.in_buf[..head_end]);
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let content_length: usize = head
                .lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.trim().parse().ok())
                .unwrap_or(0);
            if conn.in_buf.len() < head_end + content_length {
                return false;
            }
            let sent_at = conn.sent_at;
            let now = self.now();
            let conn = &mut self.conns[token];
            conn.in_buf.drain(..head_end + content_length);
            let target = conn.in_flight_target;
            if status != 200 {
                self.tally.errors += 1;
                if target != HEALTHZ_TARGET {
                    self.tally.per_target[target].errors += 1;
                }
            } else if now >= self.measuring_from {
                self.tally.requests += 1;
                let latency = now.saturating_sub(sent_at).max(1);
                if target != HEALTHZ_TARGET {
                    let t = &mut self.tally.per_target[target];
                    t.requests += 1;
                    t.latencies.push(latency);
                }
                self.tally.latencies.push(latency);
            } else {
                self.tally.warmup_requests += 1;
            }
            self.send_next(token);
            true
        }

        /// Counts an error and retires the connection.
        fn fail(&mut self, token: usize, what: &str) {
            let conn = &mut self.conns[token];
            if conn.alive {
                eprintln!("loadgen: connection {token} failed: {what}");
                self.tally.errors += 1;
                conn.alive = false;
                let _ = self.epoll.del(conn.stream.as_raw_fd());
            }
        }
    }

    fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    pub fn main() {
        let opts = parse_args();
        let requests: Vec<Vec<Vec<u8>>> = opts
            .targets
            .iter()
            .map(|(path, _weight)| {
                opts.queries
                    .iter()
                    .map(|q| {
                        format!(
                            "GET {path}?q={} HTTP/1.1\r\nHost: loadgen\r\n\r\n",
                            encode_query(q)
                        )
                        .into_bytes()
                    })
                    .collect()
            })
            .collect();
        let target_schedule: Vec<usize> = opts
            .targets
            .iter()
            .enumerate()
            .flat_map(|(i, (_path, weight))| std::iter::repeat_n(i, *weight as usize))
            .collect();

        eprintln!(
            "loadgen: starting {} connection(s) to {} for {:.0}s after {:.0}s warm-up; \
             {} queries, {} target(s)",
            opts.connections,
            opts.addr,
            opts.duration.as_secs_f64(),
            opts.warmup.as_secs_f64(),
            opts.queries.len(),
            opts.targets.len(),
        );

        // Connect in waves: the listen backlog is finite, so a burst of
        // thousands of SYNs would stall on retransmits.
        let epoll = Epoll::new().expect("epoll_create1");
        let mut conns = Vec::with_capacity(opts.connections);
        for token in 0..opts.connections {
            let stream = {
                let mut attempt = 0;
                loop {
                    match TcpStream::connect(&opts.addr) {
                        Ok(s) => break s,
                        Err(e) if attempt < 40 => {
                            attempt += 1;
                            std::thread::sleep(Duration::from_millis(50));
                            if attempt == 40 {
                                eprintln!("loadgen: connect to {} still retrying: {e}", opts.addr);
                            }
                        }
                        Err(e) => {
                            eprintln!("loadgen: cannot connect to {}: {e}", opts.addr);
                            std::process::exit(1);
                        }
                    }
                }
            };
            stream.set_nonblocking(true).expect("set_nonblocking");
            stream.set_nodelay(true).ok();
            epoll
                .add(stream.as_raw_fd(), EPOLLIN, token as u64)
                .expect("epoll add");
            conns.push(Conn {
                stream,
                out_buf: Vec::new(),
                out_pos: 0,
                in_buf: Vec::new(),
                sent_at: 0,
                step: token % opts.queries.len().max(1),
                in_flight_target: HEALTHZ_TARGET,
                want_write: false,
                alive: true,
            });
            if token % 100 == 99 {
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        let epoch = Instant::now();
        let mut gen = Loadgen {
            epoll,
            conns,
            requests,
            target_schedule,
            healthz_every: opts.healthz_every,
            epoch,
            measuring_from: opts.warmup.as_nanos() as u64,
            tally: Tally {
                latencies: Vec::with_capacity(1 << 20),
                warmup_requests: 0,
                requests: 0,
                errors: 0,
                bytes_in: 0,
                per_target: opts
                    .targets
                    .iter()
                    .map(|_| TargetTally::default())
                    .collect(),
            },
        };

        // Prime every connection's closed loop.
        for token in 0..gen.conns.len() {
            gen.send_next(token);
        }

        let deadline = (opts.warmup + opts.duration).as_nanos() as u64;
        let mut events = [EpollEvent { events: 0, data: 0 }; 1024];
        while gen.now() < deadline {
            let n = gen.epoll.wait(&mut events, 100).expect("epoll_wait");
            for event in &events[..n] {
                let token = event.token() as usize;
                let bits = event.events();
                if !gen.conns[token].alive {
                    continue;
                }
                if bits & (EPOLLERR | EPOLLHUP) != 0 {
                    gen.fail(token, "socket error/hangup");
                    continue;
                }
                if bits & EPOLLOUT != 0 {
                    gen.flush(token);
                }
                if bits & EPOLLIN != 0 && gen.conns[token].alive {
                    gen.on_readable(token);
                }
            }
            if gen.conns.iter().all(|c| !c.alive) {
                eprintln!("loadgen: every connection failed; giving up");
                break;
            }
        }

        // In-flight requests at the deadline are simply abandoned (the
        // measured window is over); sockets close on drop.
        let measured_secs = gen
            .now()
            .saturating_sub(gen.measuring_from)
            .min(opts.duration.as_nanos() as u64) as f64
            / 1e9;
        let mut latencies = std::mem::take(&mut gen.tally.latencies);
        latencies.sort_unstable();
        let qps = gen.tally.requests as f64 / measured_secs.max(1e-9);
        let p50 = percentile(&latencies, 0.50);
        let p95 = percentile(&latencies, 0.95);
        let p99 = percentile(&latencies, 0.99);
        let max = latencies.last().copied().unwrap_or(0);
        let alive = gen.conns.iter().filter(|c| c.alive).count();

        eprintln!(
            "loadgen: {} request(s) in {measured_secs:.1}s ({qps:.1} q/s), {} error(s), \
             {alive}/{} connection(s) alive; p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms",
            gen.tally.requests,
            gen.tally.errors,
            opts.connections,
            p50 as f64 / 1e6,
            p95 as f64 / 1e6,
            p99 as f64 / 1e6,
        );

        let per_target: Json = opts
            .targets
            .iter()
            .zip(&mut gen.tally.per_target)
            .map(|((path, weight), t)| {
                t.latencies.sort_unstable();
                Json::object([
                    ("path", path.as_str().into()),
                    ("weight", (*weight).into()),
                    ("requests", t.requests.into()),
                    ("errors", t.errors.into()),
                    (
                        "queries_per_sec",
                        (t.requests as f64 / measured_secs.max(1e-9)).into(),
                    ),
                    (
                        "latency_nanos",
                        Json::object([
                            ("p50", percentile(&t.latencies, 0.50).into()),
                            ("p95", percentile(&t.latencies, 0.95).into()),
                            ("p99", percentile(&t.latencies, 0.99).into()),
                        ]),
                    ),
                ])
            })
            .collect();

        let report = Json::object([
            ("bench", "loadgen".into()),
            ("target", opts.addr.as_str().into()),
            ("connections", opts.connections.into()),
            ("connections_alive_at_end", alive.into()),
            ("warmup_secs", opts.warmup.as_secs_f64().into()),
            ("duration_secs", measured_secs.into()),
            ("query_mix", opts.queries.len().into()),
            ("healthz_every", opts.healthz_every.into()),
            ("warmup_requests", gen.tally.warmup_requests.into()),
            ("requests", gen.tally.requests.into()),
            ("errors", gen.tally.errors.into()),
            ("queries_per_sec", qps.into()),
            ("per_target", per_target),
            ("bytes_in", gen.tally.bytes_in.into()),
            (
                "latency_nanos",
                Json::object([
                    ("p50", p50.into()),
                    ("p95", p95.into()),
                    ("p99", p99.into()),
                    ("max", max.into()),
                    ("samples", latencies.len().into()),
                ]),
            ),
        ]);
        let text = report.render_pretty();
        match &opts.out {
            None => println!("{text}"),
            Some(path) => {
                std::fs::write(path, &text).unwrap_or_else(|e| {
                    eprintln!("loadgen: cannot write report {path}: {e}");
                    std::process::exit(1);
                });
                eprintln!("loadgen: report written to {path}");
            }
        }
        if gen.tally.errors > 0 || gen.tally.requests == 0 {
            std::process::exit(1);
        }
    }
}
