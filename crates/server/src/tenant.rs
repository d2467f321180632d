//! Multi-tenant serving: the corpus → engine routing table behind
//! `/suggest/<corpus>`.
//!
//! One server process fronts a *catalog* of corpora (DESIGN.md §16).
//! Each corpus is a [`Tenant`]: a name, an engine — unsharded or
//! scatter-gather sharded, the serving layer never cares which — and a
//! private [`ResponseCache`]. Caches are partitioned per tenant rather
//! than shared: keys already carry the engine fingerprint, but separate
//! caches mean one hot corpus can never evict another's working set, and
//! per-corpus occupancy is observable on `/statusz` and `/metrics`.
//!
//! The first catalog entry is the *primary* tenant. It keeps the exact
//! single-corpus contract of earlier PRs: bare `/suggest` routes to it,
//! `/metrics` renders its registry as the unlabelled base series, and
//! `/healthz` reports its fingerprint and snapshot. Every tenant
//! (primary included) additionally gets `corpus`-labelled series and a
//! `/statusz` row, so dashboards distinguish corpora without breaking
//! single-corpus scrapes.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xclean::Pipeline;
use xclean_telemetry::{
    names, Counter, Exposition, Histogram, RollingWindows, ShardAttribution, Unit, Value,
    WindowEvent, WindowSnapshot,
};

use crate::cache::ResponseCache;

/// One served corpus: engine, private response cache, and per-corpus
/// lifetime counters (collected as `corpus`-labelled `/metrics` series,
/// so they live outside any registry — registries only hold unlabelled
/// samples).
#[derive(Debug)]
pub struct Tenant {
    name: String,
    /// One corpus or a scatter-gather shard set — the same pipeline type
    /// either way, so routing, caching and rendering never ask which.
    engine: Arc<Pipeline>,
    cache: Arc<ResponseCache>,
    fingerprint: u64,
    requests: Counter,
    errors: Counter,
    queries: Counter,
    /// Per-corpus 1m/5m/15m qps/latency/error/SLO windows, advanced by
    /// this tenant's own request arrivals.
    windows: RollingWindows,
    /// Scatter latency per shard, index = shard ordinal (one entry for
    /// unsharded tenants). Histograms are atomic inside, so the serving
    /// path records lock-free.
    scatter: Vec<Histogram>,
    /// Straggler skew of the most recent scattered request — max shard
    /// scatter nanos over the median — stored as `f64` bits.
    skew: AtomicU64,
}

impl Tenant {
    /// The catalog name this tenant serves under (`/suggest/<name>`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine answering this corpus.
    pub fn engine(&self) -> &Pipeline {
        &self.engine
    }

    /// The tenant-private response cache.
    pub fn cache(&self) -> &Arc<ResponseCache> {
        &self.cache
    }

    /// Cached engine fingerprint (cache keying, `/healthz`).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Requests routed to this corpus, cache hits and errors included.
    pub fn requests(&self) -> &Counter {
        &self.requests
    }

    /// Error responses while serving this corpus.
    pub fn errors(&self) -> &Counter {
        &self.errors
    }

    /// Individual queries answered (a batch POST counts each query).
    pub fn queries(&self) -> &Counter {
        &self.queries
    }

    /// Folds one completed request into this tenant's rolling windows.
    pub fn record_window(&self, now_nanos: u64, event: &WindowEvent) {
        self.windows.record(now_nanos, event);
    }

    /// Snapshots the tenant's 1m/5m/15m windows at `now_nanos`.
    pub fn window_snapshots(&self, now_nanos: u64) -> Vec<WindowSnapshot> {
        self.windows.snapshot(now_nanos)
    }

    /// Folds one request's per-shard scatter attribution into the
    /// scatter histograms and refreshes the straggler-skew gauge
    /// (max shard nanos / median shard nanos for *this* request —
    /// last scattered request wins, 0 when nothing scattered yet).
    pub fn record_shards(&self, shards: &[ShardAttribution]) {
        if shards.is_empty() {
            return;
        }
        for s in shards {
            if let Some(h) = self.scatter.get(s.shard as usize) {
                h.record(s.scatter_nanos);
            }
        }
        let mut nanos: Vec<u64> = shards.iter().map(|s| s.scatter_nanos).collect();
        nanos.sort_unstable();
        let median = nanos[nanos.len() / 2];
        let max = *nanos.last().expect("non-empty");
        let skew = if median == 0 {
            0.0
        } else {
            max as f64 / median as f64
        };
        self.skew.store(skew.to_bits(), Ordering::Relaxed);
    }

    /// Straggler skew of the most recent scattered request.
    pub fn shard_skew(&self) -> f64 {
        f64::from_bits(self.skew.load(Ordering::Relaxed))
    }

    /// Per-shard scatter latency histograms, index = shard ordinal.
    pub fn scatter_histograms(&self) -> &[Histogram] {
        &self.scatter
    }
}

/// The immutable routing table: every tenant the server fronts, in
/// catalog order, with the first entry as primary.
#[derive(Debug)]
pub struct TenantSet {
    tenants: Vec<Tenant>,
    by_name: HashMap<String, usize>,
}

impl TenantSet {
    /// Builds the set from `(name, engine)` pairs in catalog order. Each
    /// tenant gets its own [`ResponseCache`] of `cache_entries` entries
    /// over `cache_shards` shards, with the cache counters registered in
    /// that tenant's engine registry. Errors on an empty catalog, a
    /// duplicate name, or a name that cannot appear in a request path.
    pub fn build(
        corpora: Vec<(String, Arc<Pipeline>)>,
        cache_entries: usize,
        cache_shards: usize,
    ) -> io::Result<TenantSet> {
        if corpora.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "catalog has no corpora",
            ));
        }
        let mut tenants = Vec::with_capacity(corpora.len());
        let mut by_name = HashMap::with_capacity(corpora.len());
        for (name, engine) in corpora {
            if name.is_empty() || name.contains(['/', '?', '#', ' ']) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("corpus name {name:?} cannot appear in a request path"),
                ));
            }
            if by_name.insert(name.clone(), tenants.len()).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate corpus name {name:?}"),
                ));
            }
            let cache = Arc::new(ResponseCache::new(
                cache_entries,
                cache_shards,
                engine.metrics(),
            ));
            let fingerprint = engine.fingerprint();
            let shard_count = engine.shard_count() as usize;
            tenants.push(Tenant {
                name,
                engine,
                cache,
                fingerprint,
                requests: Counter::default(),
                errors: Counter::default(),
                queries: Counter::default(),
                windows: RollingWindows::new(),
                scatter: (0..shard_count).map(|_| Histogram::default()).collect(),
                skew: AtomicU64::new(0),
            });
        }
        Ok(TenantSet { tenants, by_name })
    }

    /// The primary tenant (first catalog entry): bare `/suggest` routes
    /// here and `/metrics` renders its registry unlabelled.
    pub fn primary(&self) -> &Tenant {
        &self.tenants[0]
    }

    /// The tenant serving `name`, if the catalog has one.
    pub fn get(&self, name: &str) -> Option<&Tenant> {
        self.by_name.get(name).map(|&i| &self.tenants[i])
    }

    /// All tenants in catalog order.
    pub fn iter(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.iter()
    }

    /// Number of corpora served.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Never true: [`TenantSet::build`] rejects empty catalogs.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// `(hits, misses, evictions)` summed across every tenant cache —
    /// the drain-report totals.
    pub fn cache_totals(&self) -> (u64, u64, u64) {
        let mut totals = (0, 0, 0);
        for t in &self.tenants {
            let (h, m, e) = t.cache.counters();
            totals.0 += h;
            totals.1 += m;
            totals.2 += e;
        }
        totals
    }

    /// Hands `page` every tenant's labelled series: `corpus` counters
    /// and gauges, `corpus`+`shard` scatter histograms, the straggler
    /// skew of the latest scattered request, and `corpus`+`window` SLO
    /// burn rates and breach counts snapshotted at `now_nanos`. The
    /// primary appears here too, beside its registry's unlabelled
    /// series, so multi-corpus dashboards need only one shape.
    pub fn collect(&self, page: &mut Exposition, now_nanos: u64) {
        for t in &self.tenants {
            let corpus = [("corpus", t.name.as_str())];
            let (hits, misses, _) = t.cache.counters();
            for (name, value) in [
                (names::CORPUS_REQUESTS, t.requests.get()),
                (names::CORPUS_ERRORS, t.errors.get()),
                (names::CORPUS_QUERIES, t.queries.get()),
                (names::CORPUS_CACHE_HITS, hits),
                (names::CORPUS_CACHE_MISSES, misses),
            ] {
                page.counter(name, &corpus, value);
            }
            let shards = u64::from(t.engine.shard_count());
            for (name, value) in [
                (
                    names::CORPUS_CACHE_ENTRIES,
                    Value::Int(t.cache.len() as u64),
                ),
                (names::CORPUS_SHARDS, Value::Int(shards)),
                (names::SHARD_SKEW, Value::Float(t.shard_skew())),
            ] {
                page.gauge(name, &corpus, value);
            }
            for (shard, h) in t.scatter.iter().enumerate() {
                page.histogram(
                    names::SHARD_SCATTER_SECONDS,
                    &[corpus[0], ("shard", &shard.to_string())],
                    Unit::Seconds,
                    h,
                );
            }
            for s in t.window_snapshots(now_nanos) {
                let labels = [corpus[0], ("window", s.label)];
                let burn = Value::Float(s.slo_burn_rate());
                page.gauge(names::CORPUS_BURN_RATE, &labels, burn);
                let breaches = Value::Int(s.slo_breaches);
                page.gauge(names::CORPUS_SLO_BREACHES, &labels, breaches);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean::{XCleanConfig, XCleanEngine};
    use xclean_xmltree::parse_document;

    /// The set's collected page, checked as one document.
    fn page_of(set: &TenantSet, now_nanos: u64) -> String {
        let mut page = Exposition::new();
        set.collect(&mut page, now_nanos);
        let text = page.render();
        crate::conformance::check_page(&text);
        text
    }

    fn engine(xml: &str) -> Arc<Pipeline> {
        let engine = XCleanEngine::new(parse_document(xml).unwrap(), XCleanConfig::default());
        Arc::clone(engine.pipeline())
    }

    #[test]
    fn build_routes_by_name_and_keeps_order() {
        let set = TenantSet::build(
            vec![
                ("default".into(), engine("<r><p>alpha beta</p></r>")),
                ("dblp".into(), engine("<r><p>gamma delta epsilon</p></r>")),
            ],
            16,
            2,
        )
        .unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.primary().name(), "default");
        assert_eq!(set.get("dblp").unwrap().name(), "dblp");
        assert!(set.get("nope").is_none());
        let names: Vec<&str> = set.iter().map(Tenant::name).collect();
        assert_eq!(names, ["default", "dblp"]);
        // Distinct corpus shapes → distinct fingerprints → cache keys
        // could not collide even if the caches were shared.
        assert_ne!(
            set.primary().fingerprint(),
            set.get("dblp").unwrap().fingerprint()
        );
    }

    #[test]
    fn build_rejects_empty_duplicate_and_unroutable_names() {
        assert!(TenantSet::build(vec![], 16, 2).is_err());
        let dup = TenantSet::build(
            vec![
                ("a".into(), engine("<r><p>x</p></r>")),
                ("a".into(), engine("<r><p>y</p></r>")),
            ],
            16,
            2,
        );
        assert!(dup.unwrap_err().to_string().contains("duplicate"));
        for bad in ["", "a/b", "a b", "a?b", "a#b"] {
            let r = TenantSet::build(vec![(bad.into(), engine("<r><p>x</p></r>"))], 16, 2);
            assert!(r.is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn shard_metrics_render_scatter_histograms_and_skew() {
        let set = TenantSet::build(
            vec![
                ("default".into(), engine("<r><p>alpha beta</p></r>")),
                ("dblp".into(), engine("<r><p>gamma delta</p></r>")),
            ],
            16,
            2,
        )
        .unwrap();
        let t = set.get("dblp").unwrap();
        assert_eq!(t.shard_skew(), 0.0, "no scattered request yet");
        let attr = |shard: u32, scatter_nanos: u64| ShardAttribution {
            shard,
            scatter_nanos,
            subtrees: 1,
            candidates: 1,
            entities: 1,
            contributions: 1,
        };
        // Three shards: sorted nanos [1000, 2000, 6000] → upper median
        // 2000, max 6000 → skew 3. Only shard 0 exists on this
        // (unsharded) tenant, so only its histogram records.
        t.record_shards(&[attr(0, 1_000), attr(1, 6_000), attr(2, 2_000)]);
        assert_eq!(t.shard_skew(), 3.0);
        assert_eq!(t.scatter_histograms().len(), 1);
        let text = page_of(&set, 0);
        assert!(
            text.contains(&format!(
                "# TYPE {} histogram",
                names::SHARD_SCATTER_SECONDS
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "{}_count{{corpus=\"dblp\",shard=\"0\"}} 1",
                names::SHARD_SCATTER_SECONDS
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "{}_count{{corpus=\"default\",shard=\"0\"}} 0",
                names::SHARD_SCATTER_SECONDS
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!("{}{{corpus=\"dblp\"}} 3", names::SHARD_SKEW)),
            "{text}"
        );
        assert!(
            text.contains(&format!("{}{{corpus=\"default\"}} 0", names::SHARD_SKEW)),
            "{text}"
        );
    }

    #[test]
    fn slo_metrics_render_burn_rate_and_breaches_per_window() {
        let set = TenantSet::build(
            vec![
                ("default".into(), engine("<r><p>alpha beta</p></r>")),
                ("dblp".into(), engine("<r><p>gamma delta</p></r>")),
            ],
            16,
            2,
        )
        .unwrap();
        let t = set.get("dblp").unwrap();
        t.record_window(
            1_000,
            &WindowEvent {
                total_nanos: 5_000,
                error: false,
                cache_hit: Some(false),
                slo_breach: true,
            },
        );
        // One request, one breach → ratio 1.0 → burn rate 100× the 1%
        // budget, in every window.
        let text = page_of(&set, 2_000);
        for window in ["1m", "5m", "15m"] {
            assert!(
                text.contains(&format!(
                    "{}{{corpus=\"dblp\",window=\"{window}\"}} 100",
                    names::CORPUS_BURN_RATE
                )),
                "{text}"
            );
            assert!(
                text.contains(&format!(
                    "{}{{corpus=\"dblp\",window=\"{window}\"}} 1",
                    names::CORPUS_SLO_BREACHES
                )),
                "{text}"
            );
            assert!(
                text.contains(&format!(
                    "{}{{corpus=\"default\",window=\"{window}\"}} 0",
                    names::CORPUS_BURN_RATE
                )),
                "{text}"
            );
        }
        let snaps = t.window_snapshots(2_000);
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].slo_breaches, 1);
    }

    #[test]
    fn explain_dispatch_is_bit_identical_to_serving() {
        let e = engine("<r><p>health insurance</p><p>health policy</p></r>");
        let keywords = e.parse_query("helth insurance");
        let served = e.suggest_keywords(&keywords);
        let trace = e.explain_keywords(&keywords);
        assert_eq!(served.suggestions.len(), trace.suggestions.len());
        for (a, b) in served.suggestions.iter().zip(&trace.suggestions) {
            assert_eq!(a.terms, b.terms);
            assert_eq!(a.log_score.to_bits(), b.log_score.to_bits());
        }
    }

    #[test]
    fn corpus_metrics_render_labelled_series() {
        let set = TenantSet::build(
            vec![
                ("default".into(), engine("<r><p>alpha beta</p></r>")),
                ("dblp".into(), engine("<r><p>gamma delta</p></r>")),
            ],
            16,
            2,
        )
        .unwrap();
        set.get("dblp").unwrap().requests().inc();
        let text = page_of(&set, 0);
        assert!(
            text.contains(&format!("{}{{corpus=\"dblp\"}} 1", names::CORPUS_REQUESTS)),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "{}{{corpus=\"default\"}} 0",
                names::CORPUS_REQUESTS
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!("# TYPE {} gauge", names::CORPUS_SHARDS)),
            "{text}"
        );
        assert!(
            text.contains(&format!("{}{{corpus=\"default\"}} 1", names::CORPUS_SHARDS)),
            "{text}"
        );
    }
}
