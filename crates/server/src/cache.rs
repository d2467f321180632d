//! Sharded LRU response cache for the suggestion server's hot path.
//!
//! Keys are `(normalized query, engine fingerprint)` — the fingerprint
//! ([`xclean::XCleanConfig::fingerprint`] mixed with semantics and
//! corpus shape) guarantees that entries can never be served across
//! configurations that could rank differently. Values are the rendered
//! per-query JSON result objects, shared as `Arc<str>` so a hit costs
//! one clone of a pointer.
//!
//! Sharding: the key hash picks one of `shards` independent
//! `Mutex<LruShard>`s, so concurrent workers only contend when they
//! touch the same shard. Each shard is an exact LRU over its own
//! capacity slice, implemented as a `HashMap` plus a recency `BTreeMap`
//! keyed by a monotonically increasing touch stamp — O(log n) per
//! operation with no unsafe linked-list juggling.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xclean_telemetry::{names, Counter, MetricsRegistry};

/// A cache key: the normalized query plus the engine fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Tokenizer-normalized query (lower-cased, whitespace-collapsed).
    pub query: String,
    /// [`xclean::XCleanEngine::fingerprint`] of the answering engine.
    pub fingerprint: u64,
}

#[derive(Debug)]
struct LruShard {
    /// key → (value, last-touch stamp).
    entries: HashMap<CacheKey, (Arc<str>, u64)>,
    /// last-touch stamp → key; the first entry is the LRU victim.
    recency: BTreeMap<u64, CacheKey>,
    /// Next touch stamp (monotonic within the shard).
    clock: u64,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        LruShard {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            capacity,
        }
    }

    fn touch(&mut self, key: &CacheKey) -> Option<Arc<str>> {
        let (value, stamp) = self.entries.get_mut(key)?;
        let value = Arc::clone(value);
        let old = *stamp;
        self.clock += 1;
        *stamp = self.clock;
        let moved = self.recency.remove(&old).expect("stamp tracked");
        self.recency.insert(self.clock, moved);
        Some(value)
    }

    /// Inserts (or refreshes) an entry; returns whether the key was new
    /// and the number of evictions it caused.
    fn insert(&mut self, key: CacheKey, value: Arc<str>) -> (bool, u64) {
        self.clock += 1;
        if let Some((_, old)) = self.entries.insert(key.clone(), (value, self.clock)) {
            self.recency.remove(&old);
            self.recency.insert(self.clock, key);
            return (false, 0);
        }
        self.recency.insert(self.clock, key);
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let (_, victim) = self.recency.pop_first().expect("len > capacity ≥ 0");
            self.entries.remove(&victim);
            evicted += 1;
        }
        (true, evicted)
    }
}

/// The sharded LRU cache. Capacity 0 disables caching entirely (every
/// lookup is a miss and nothing is stored).
#[derive(Debug)]
pub struct ResponseCache {
    shards: Vec<Mutex<LruShard>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    stored: AtomicU64,
}

impl ResponseCache {
    /// Creates a cache of at most `capacity` entries across `shards`
    /// shards (counters registered in `registry`). Shard count is capped
    /// so every shard holds at least one entry.
    pub fn new(capacity: usize, shards: usize, registry: &MetricsRegistry) -> Self {
        let shard_count = shards.clamp(1, capacity.max(1));
        // Distribute capacity as evenly as possible; the first
        // `capacity % shard_count` shards take the remainder.
        let base = capacity / shard_count;
        let extra = capacity % shard_count;
        ResponseCache {
            shards: (0..shard_count)
                .map(|i| Mutex::new(LruShard::new(base + usize::from(i < extra))))
                .collect(),
            hits: registry.counter(names::CACHE_HITS),
            misses: registry.counter(names::CACHE_MISSES),
            evictions: registry.counter(names::CACHE_EVICTIONS),
            stored: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<LruShard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up a key, refreshing its recency and bumping the hit or
    /// miss counter.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<str>> {
        let hit = self.probe(key);
        if hit.is_none() {
            self.record_miss();
        }
        hit
    }

    /// Looks up a key like [`ResponseCache::get`] but counts only a hit:
    /// the caller hands a miss to whoever computes the answer, and that
    /// party counts it once with [`ResponseCache::record_miss`].
    pub fn probe(&self, key: &CacheKey) -> Option<Arc<str>> {
        let hit = self.shard_of(key).lock().expect("shard lock").touch(key);
        if hit.is_some() {
            self.hits.inc();
        }
        hit
    }

    /// Counts one miss found by an earlier [`ResponseCache::probe`].
    pub fn record_miss(&self) {
        self.misses.inc();
    }

    /// Stores a value (no-op when the cache is disabled).
    pub fn insert(&self, key: CacheKey, value: Arc<str>) {
        let shard = self.shard_of(&key);
        let mut guard = shard.lock().expect("shard lock");
        if guard.capacity == 0 {
            return;
        }
        let (new, evicted) = guard.insert(key, value);
        // Kept by delta under the shard's own lock, so `stored` is the
        // sum of shard lengths whenever no insert is in progress.
        self.stored.fetch_add(u64::from(new), Ordering::Relaxed);
        self.stored.fetch_sub(evicted, Ordering::Relaxed);
        drop(guard);
        if evicted > 0 {
            self.evictions.add(evicted);
        }
    }

    /// Number of currently cached entries.
    pub fn len(&self) -> usize {
        self.stored.load(Ordering::Relaxed) as usize
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards (for diagnostics/tests).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").capacity)
            .sum()
    }

    /// Verifies no shard mutex is poisoned (a worker panicked while
    /// holding it) and that internal maps agree; used by tests and the
    /// health endpoint.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let guard = shard
                .lock()
                .map_err(|_| format!("shard {i} mutex poisoned"))?;
            if guard.entries.len() != guard.recency.len() {
                return Err(format!(
                    "shard {i}: {} entries vs {} recency stamps",
                    guard.entries.len(),
                    guard.recency.len()
                ));
            }
            if guard.entries.len() > guard.capacity {
                return Err(format!("shard {i} over capacity"));
            }
        }
        Ok(())
    }

    /// (hits, misses, evictions) counter values.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits.get(), self.misses.get(), self.evictions.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: &str, fp: u64) -> CacheKey {
        CacheKey {
            query: q.to_string(),
            fingerprint: fp,
        }
    }

    fn cache(capacity: usize, shards: usize) -> ResponseCache {
        ResponseCache::new(capacity, shards, &MetricsRegistry::default())
    }

    #[test]
    fn get_after_insert_hits() {
        let c = cache(8, 2);
        assert!(c.get(&key("a", 1)).is_none());
        c.insert(key("a", 1), Arc::from("va"));
        assert_eq!(c.get(&key("a", 1)).as_deref(), Some("va"));
        let (hits, misses, evictions) = c.counters();
        assert_eq!((hits, misses, evictions), (1, 1, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_discipline_within_one_shard() {
        let c = cache(2, 1);
        c.insert(key("a", 0), Arc::from("va"));
        c.insert(key("b", 0), Arc::from("vb"));
        // Touch a so b becomes the LRU victim.
        assert!(c.get(&key("a", 0)).is_some());
        c.insert(key("c", 0), Arc::from("vc"));
        assert!(c.get(&key("a", 0)).is_some(), "a was recently used");
        assert!(c.get(&key("b", 0)).is_none(), "b was the LRU victim");
        assert!(c.get(&key("c", 0)).is_some());
        assert_eq!(c.counters().2, 1, "exactly one eviction");
        c.check_consistency().unwrap();
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let c = cache(2, 1);
        c.insert(key("a", 0), Arc::from("v1"));
        c.insert(key("b", 0), Arc::from("vb"));
        c.insert(key("a", 0), Arc::from("v2"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().2, 0, "refresh never evicts");
        assert_eq!(c.get(&key("a", 0)).as_deref(), Some("v2"));
    }

    /// `len()` is kept by delta, never recounted: after any mix of fresh
    /// inserts, re-inserts and evictions it equals the sum of the shard
    /// lengths, at every capacity/shard shape.
    #[test]
    fn len_tracks_the_shards_through_inserts_reinserts_and_evictions() {
        for (capacity, shards) in [(1, 1), (1, 8), (3, 1), (3, 8), (64, 1), (64, 8)] {
            let c = cache(capacity, shards);
            let shard_sum = |c: &ResponseCache| -> usize {
                c.shards
                    .iter()
                    .map(|s| s.lock().unwrap().entries.len())
                    .sum()
            };
            for round in 0..3 {
                for i in 0..(2 * capacity + 5) {
                    // Fresh keys, then the same keys again (refresh or
                    // re-admission after eviction), with lookups between.
                    c.insert(key(&format!("q{i}"), 7), Arc::from("v"));
                    if i % 3 == 0 {
                        c.insert(key(&format!("q{i}"), 7), Arc::from("v2"));
                        let _ = c.get(&key(&format!("q{}", i / 2), 7));
                    }
                    assert_eq!(c.len(), shard_sum(&c), "{capacity}/{shards} r{round} i{i}");
                    assert!(c.len() <= capacity);
                }
            }
            assert!(c.counters().2 > 0, "{capacity}/{shards}: nothing evicted");
            c.check_consistency().unwrap();
        }
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = cache(0, 4);
        c.insert(key("a", 0), Arc::from("va"));
        assert!(c.get(&key("a", 0)).is_none());
        assert_eq!(c.len(), 0);
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn shard_count_capped_by_capacity() {
        let c = cache(3, 16);
        assert_eq!(c.shard_count(), 3);
        assert_eq!(c.capacity(), 3);
        let c = cache(64, 8);
        assert_eq!(c.shard_count(), 8);
        assert_eq!(c.capacity(), 64);
    }
}
