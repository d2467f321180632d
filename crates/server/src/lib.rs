//! # xclean-server
//!
//! A long-running HTTP/1.1 JSON suggestion server over the XClean
//! engine (DESIGN.md §10). The paper builds its indexes offline so
//! queries can be answered interactively (§VII-A); this crate is the
//! online half: load a persisted [`xclean_index`] snapshot once, share
//! it behind an `Arc` across a bounded worker pool, and answer
//! `POST /suggest` from a sharded LRU response cache keyed by
//! `(normalized query, engine fingerprint)`.
//!
//! There is one wire path (DESIGN.md §13): an epoll event loop owns the
//! listener and every client socket (HTTP/1.1 keep-alive, pipelining,
//! per-connection deadlines), answers cache hits itself, and hands
//! engine work and page renders to the worker pool. Serving therefore needs Linux — elsewhere
//! [`SuggestServer::run`] returns `ErrorKind::Unsupported`; the rest of
//! the crate (framing, state machine, cache, JSON, routing) is portable.
//!
//! Multi-tenancy (DESIGN.md §16): the server fronts a catalog of
//! corpora — each a [`tenant::Tenant`] with its own engine and private
//! response cache. `/suggest/<name>` routes by
//! catalog name; bare `/suggest` serves the primary (first)
//! corpus, so single-corpus deployments keep their exact contract.
//!
//! Endpoints:
//!
//! - `POST /suggest` — body `{"query": "…"}` or `{"queries": ["…", …]}`;
//!   responds with rendered suggestion lists and an `X-Cache` header.
//! - `GET /suggest?q=…` — single percent-encoded query, same body shape.
//! - `GET|POST /suggest/<corpus>` — the same two forms against a named
//!   catalog corpus; an unknown name is a structured JSON `404`.
//! - `GET /healthz` — liveness JSON: engine fingerprint, snapshot
//!   provenance, uptime, and cache occupancy.
//! - `GET /metrics` — Prometheus text page on which every series has
//!   one owner: the server's own registry unlabelled, then every
//!   corpus's engine registry (engine counters/histograms, cache and
//!   request counters) under `corpus="<name>"`.
//! - `GET /statusz` — human-readable dashboard: uptime, provenance,
//!   1m/5m/15m window table, slowest recent queries.
//! - `GET /debug/requests?n=K` — the K most recent requests from the
//!   bounded request ring, as JSON.
//! - `GET /debug/conns?n=K` — the K oldest open connections, read by the
//!   event loop from its own connection table: state, age, idle time,
//!   requests served, bytes in/out, pipeline depth, keep-alive reuse.
//! - `GET /debug/flight?events=N` — the runtime flight recorder (loop
//!   wakes, conn open/close, dispatch/complete) as Chrome-trace JSON.
//! - `GET /debug/explain?q=…[&corpus=…]` — one query run through the
//!   pipeline under observation: per-keyword variants, stage counters and
//!   nanos, per-shard attribution and the suggestions, cache bypassed.
//!
//! Every response — errors and load-shed replies included — carries an
//! `X-Request-Id` header (inbound value echoed, else generated from a
//! seeded counter on the loop thread), and every completed request
//! lands in the request ring; requests over the slow threshold
//! additionally go to the slow-query log (see [`debug`]).
//!
//! Robustness: a slow-loris deadline on every partial request and an idle
//! timeout on every keep-alive socket, bounded request head and body
//! sizes, a connection cap with `503` load-shedding, a per-connection
//! pipeline cap, structured JSON error responses on every failure path,
//! and SIGINT/SIGTERM graceful drain (stop accepting, answer in-flight,
//! then return so the caller can flush exporters).
//!
//! Like `xclean-telemetry`, the crate is std-only: HTTP framing and the
//! LRU cache are implemented here rather than imported, and JSON is the
//! telemetry crate's one codec (`xclean_telemetry::json`, re-exported as
//! [`json`]).

// Two vetted FFI-shim exceptions: shutdown::install_signal_handler
// (signal(2)) and the epoll module (epoll(7)/eventfd(2)).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod conn;
pub mod debug;
#[cfg(target_os = "linux")]
pub mod epoll;
#[cfg(target_os = "linux")]
mod event_loop;
pub mod http;
pub mod json;
pub mod server;
pub mod shutdown;
pub mod tenant;

pub use cache::{CacheKey, ResponseCache};
pub use debug::{Observability, TraceIdGen};
pub use server::{
    AcceptModel, DrainReport, ServerConfig, SuggestServer, MAX_BATCH_QUERIES, PAGE_ROUTES,
};
pub use shutdown::{install_signal_handler, ShutdownFlag};
pub use tenant::{Tenant, TenantSet};

/// The workspace's one Prometheus conformance checker (test support).
#[cfg(test)]
#[path = "../../telemetry/tests/support/conformance.rs"]
pub(crate) mod conformance;
