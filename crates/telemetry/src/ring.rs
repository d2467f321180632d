//! The bounded rings the observability plane keeps, and the request
//! record the serving layer pushes into one of them.
//!
//! [`Ring`] is the one bounded buffer: a mutexed `VecDeque`, its
//! capacity and a lifetime push counter. Two fronts wrap it:
//!
//! - [`RequestRing`] holds one [`RequestRecord`] per finished HTTP
//!   request — success or error — and `GET /debug/requests` reads the
//!   most recent ones back, newest first;
//! - [`crate::FlightRecorder`] holds runtime events for `GET
//!   /debug/flight`, oldest first.
//!
//! Both are **bounded** (old entries are overwritten, so memory is
//! O(capacity) for the process lifetime) and **record-only**: nothing on
//! the suggestion path reads them; a push is the only interaction. The
//! bit-identity contract of the engine is therefore untouchable from
//! here by construction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// Per-shard attribution for one sharded suggestion request.
///
/// Nothing fills it: the sharded engine serves a set as its parent corpus
/// and walks it once, so no query's work splits by shard. The type stays
/// for the benchmark harness, which reads and builds it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardAttribution {
    /// Shard index (document order, 0-based).
    pub shard: u32,
    /// Nanoseconds the shard's walk + accumulate took.
    pub scatter_nanos: u64,
    /// Gated subtrees the shard's anchor walk visited.
    pub subtrees: u64,
    /// Candidate queries the shard enumerated.
    pub candidates: u64,
    /// Entity score contributions the shard computed.
    pub entities: u64,
    /// Contributions the shard's walk added to the query's table (equal
    /// to `entities`).
    pub contributions: u64,
}

impl ShardAttribution {
    /// The attribution as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("shard", self.shard.into()),
            ("scatter_nanos", self.scatter_nanos.into()),
            ("subtrees", self.subtrees.into()),
            ("candidates", self.candidates.into()),
            ("entities", self.entities.into()),
            ("contributions", self.contributions.into()),
        ])
    }
}

/// One completed request, as the observability plane remembers it.
#[derive(Debug, Clone, Default)]
pub struct RequestRecord {
    /// Monotonic completion sequence number (assigned by the ring).
    pub seq: u64,
    /// The request's trace ID (inbound `X-Request-Id` or generated).
    pub trace_id: String,
    /// Coarse route tag (`suggest`, `suggest_batch`, `metrics`, …).
    pub route: &'static str,
    /// Normalized query text (empty for non-suggest routes).
    pub query: String,
    /// HTTP status of the response.
    pub status: u16,
    /// Response-cache outcome, when the route consults the cache.
    pub cache_hit: Option<bool>,
    /// Variant-slot construction nanos (0 on cache hits / error paths).
    pub slot_nanos: u64,
    /// Walk + accumulate nanos.
    pub walk_nanos: u64,
    /// Finalise + rank nanos.
    pub rank_nanos: u64,
    /// Whole-request nanos (parse → response rendered), clock-derived.
    pub total_nanos: u64,
    /// Candidate queries enumerated.
    pub candidates: u64,
    /// Entity score contributions accumulated.
    pub entities: u64,
    /// Suggestions returned.
    pub suggestions: u64,
    /// Arrival time in clock nanos (see [`crate::clock::Clock`]).
    pub arrived_nanos: u64,
    /// Resolved corpus name (empty for non-tenant routes and for
    /// requests that never matched a catalog entry).
    pub corpus: String,
    /// Per-shard attribution; always empty (see [`ShardAttribution`]).
    pub shards: Vec<ShardAttribution>,
}

impl RequestRecord {
    /// Whether the response status counts as an error.
    pub fn is_error(&self) -> bool {
        self.status >= 400
    }

    /// The record as one JSON object — the `/debug/requests` item shape
    /// and, printed compact, the slow-query-log line.
    pub fn to_json(&self) -> Json {
        let cache = self.cache_hit.map(|hit| if hit { "hit" } else { "miss" });
        let stages = Json::object([
            ("slot_nanos", self.slot_nanos.into()),
            ("walk_nanos", self.walk_nanos.into()),
            ("rank_nanos", self.rank_nanos.into()),
        ]);
        Json::object([
            ("seq", self.seq.into()),
            ("trace_id", self.trace_id.as_str().into()),
            ("route", self.route.into()),
            ("query", self.query.as_str().into()),
            ("status", self.status.into()),
            ("cache", cache.into()),
            ("stages", stages),
            ("total_nanos", self.total_nanos.into()),
            ("candidates", self.candidates.into()),
            ("entities", self.entities.into()),
            ("suggestions", self.suggestions.into()),
            ("arrived_nanos", self.arrived_nanos.into()),
            ("corpus", self.corpus.as_str().into()),
            (
                "shards",
                self.shards.iter().map(ShardAttribution::to_json).collect(),
            ),
        ])
    }
}

/// A bounded ring: it keeps the newest `capacity` items and counts
/// every push over its lifetime. Capacity 0 keeps and counts nothing.
/// [`RequestRing`] and [`crate::FlightRecorder`] are its two uses.
#[derive(Debug)]
pub struct Ring<T> {
    items: Mutex<VecDeque<T>>,
    capacity: usize,
    pushed: AtomicU64,
}

impl<T: Clone> Ring<T> {
    /// A ring retaining the most recent `capacity` items.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Ring {
            items: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity,
            pushed: AtomicU64::new(0),
        }
    }

    /// Maximum items retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes the item `make` builds from its sequence number (1, 2, …
    /// in push order, so the deque stays in sequence order) and returns
    /// that number; evicts the oldest item when full. A zero-capacity
    /// ring builds nothing and returns 0.
    pub(crate) fn push_with(&self, make: impl FnOnce(u64) -> T) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut q = self.items.lock().expect("ring poisoned");
        let seq = self.pushed.fetch_add(1, Ordering::Relaxed) + 1;
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(make(seq));
        seq
    }

    /// Items pushed over the ring's lifetime (≥ `len()`).
    pub fn total_recorded(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Items currently retained.
    pub fn len(&self) -> usize {
        self.items.lock().expect("ring poisoned").len()
    }

    /// Whether the ring retains nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `n` most recent items, oldest first.
    pub(crate) fn newest(&self, n: usize) -> Vec<T> {
        let q = self.items.lock().expect("ring poisoned");
        q.range(q.len().saturating_sub(n)..).cloned().collect()
    }
}

/// The bounded ring of [`RequestRecord`]s behind `/debug/requests`.
pub type RequestRing = Ring<RequestRecord>;

impl Ring<RequestRecord> {
    /// A ring retaining the most recent `capacity` records (clamped to
    /// ≥ 1). `_stripes` is accepted and ignored: the ring is one deque,
    /// since the server's event loop is its only writer. The argument
    /// exists solely so that `xbench/src/probes.rs` — the benchmark
    /// harness, which a product change may not edit — keeps compiling;
    /// the next benchmark change drops it.
    pub fn new(capacity: usize, _stripes: usize) -> Self {
        Ring::with_capacity(capacity.max(1))
    }

    /// Records one completed request; assigns and returns its sequence
    /// number. Evicts the oldest record when full.
    pub fn push(&self, mut record: RequestRecord) -> u64 {
        self.push_with(|seq| {
            record.seq = seq;
            record
        })
    }

    /// The `n` most recent records, newest first.
    pub fn recent(&self, n: usize) -> Vec<RequestRecord> {
        let mut records = self.newest(n);
        records.reverse();
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trace: &str, total: u64) -> RequestRecord {
        RequestRecord {
            trace_id: trace.to_string(),
            route: "suggest",
            query: "helth insurance".to_string(),
            status: 200,
            cache_hit: Some(false),
            slot_nanos: 10,
            walk_nanos: 20,
            rank_nanos: 5,
            total_nanos: total,
            candidates: 3,
            entities: 7,
            suggestions: 2,
            ..Default::default()
        }
    }

    #[test]
    fn push_assigns_increasing_seq_and_recent_is_newest_first() {
        let ring = RequestRing::new(8, 2);
        for i in 0..5 {
            assert_eq!(ring.push(record(&format!("t{i}"), i)), i + 1);
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.total_recorded(), 5);
        let recent = ring.recent(3);
        let traces: Vec<&str> = recent.iter().map(|r| r.trace_id.as_str()).collect();
        assert_eq!(traces, ["t4", "t3", "t2"]);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let ring = RequestRing::new(4, 2);
        assert_eq!(ring.capacity(), 4);
        for i in 0..100 {
            ring.push(record(&format!("t{i}"), i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.total_recorded(), 100);
        // The survivors are the 4 newest.
        let seqs: Vec<u64> = ring.recent(10).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [100, 99, 98, 97]);
    }

    #[test]
    fn concurrent_pushes_never_lose_count() {
        let ring = RequestRing::new(1024, 8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..100 {
                        ring.push(record(&format!("w{t}-{i}"), i));
                    }
                });
            }
        });
        assert_eq!(ring.total_recorded(), 800);
        assert_eq!(ring.len(), 800);
        // Sequence numbers are unique.
        let mut seqs: Vec<u64> = ring.recent(800).iter().map(|r| r.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 800);
    }

    #[test]
    fn json_shape_escapes_and_orders_fields() {
        let mut r = record("abc\"123", 1234);
        r.query = "a\nb".to_string();
        r.seq = 9;
        let json = r.to_json().render();
        assert!(
            json.starts_with("{\"seq\":9,\"trace_id\":\"abc\\\"123\""),
            "{json}"
        );
        assert!(json.contains("\"query\":\"a\\nb\""), "{json}");
        assert!(json.contains("\"cache\":\"miss\""), "{json}");
        assert!(
            json.contains("\"stages\":{\"slot_nanos\":10,\"walk_nanos\":20,\"rank_nanos\":5}"),
            "{json}"
        );
        assert!(json.contains("\"total_nanos\":1234"), "{json}");
        let mut none = record("t", 1);
        none.cache_hit = None;
        assert!(none.to_json().render().contains("\"cache\":null"));
    }

    #[test]
    fn json_carries_corpus_and_shard_attribution() {
        let mut r = record("t", 1);
        let bare = r.to_json().render();
        assert!(bare.ends_with("\"corpus\":\"\",\"shards\":[]}"), "{bare}");
        r.corpus = "dblp".to_string();
        r.shards = vec![
            ShardAttribution {
                shard: 0,
                scatter_nanos: 500,
                subtrees: 3,
                candidates: 7,
                entities: 11,
                contributions: 5,
            },
            ShardAttribution {
                shard: 1,
                scatter_nanos: 900,
                ..Default::default()
            },
        ];
        let json = r.to_json().render();
        assert!(json.contains("\"corpus\":\"dblp\""), "{json}");
        assert!(
            json.contains(
                "\"shards\":[{\"shard\":0,\"scatter_nanos\":500,\"subtrees\":3,\
                 \"candidates\":7,\"entities\":11,\"contributions\":5},"
            ),
            "{json}"
        );
        assert!(
            json.contains("{\"shard\":1,\"scatter_nanos\":900"),
            "{json}"
        );
        assert!(json.ends_with("]}"), "{json}");
        let v = crate::json::parse(&json).expect("the record is JSON");
        assert_eq!(v["trace_id"], "t");
        assert_eq!(v["corpus"], "dblp");
        assert_eq!(v["total_nanos"].as_u64(), Some(1));
        assert_eq!(v["stages"]["walk_nanos"].as_u64(), Some(20));
        assert_eq!(v["shards"][0]["contributions"].as_u64(), Some(5));
        assert_eq!(v["shards"][1]["scatter_nanos"].as_u64(), Some(900));
    }

    #[test]
    fn request_ring_capacity_is_what_was_asked() {
        assert_eq!(RequestRing::new(5, 8).capacity(), 5);
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        let ring = RequestRing::new(0, 0);
        assert_eq!(ring.capacity(), 1);
        ring.push(record("a", 1));
        ring.push(record("b", 2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.recent(5)[0].trace_id, "b");
    }
}
