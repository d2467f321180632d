//! Multi-tenant serving: the corpus → engine routing table behind
//! `/suggest/<corpus>`.
//!
//! One server process fronts a *catalog* of corpora (DESIGN.md §16).
//! Each corpus is a [`Tenant`]: a name, the caller's shared
//! `Arc<XCleanEngine>` over the corpus — never a copy, and the serving
//! layer never asks how the corpus is stored — and a private
//! [`ResponseCache`]. Caches are partitioned per tenant rather
//! than shared: keys already carry the engine fingerprint, but separate
//! caches mean one hot corpus can never evict another's working set, and
//! per-corpus occupancy is observable on `/statusz` and `/metrics`.
//!
//! The first catalog entry is the *primary* tenant: bare `/suggest`
//! routes to it and the top-level `/healthz` fields describe it. On
//! `/metrics` no tenant is special (DESIGN.md §9): every tenant's engine
//! registry — engine counters, stage histograms, this cache's
//! hit/miss/eviction counters and the per-corpus request/error counters —
//! is collected under `corpus="<name>"`, and [`TenantSet::collect`] adds
//! only what a name-keyed registry cannot hold.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use xclean::catalog::valid_corpus_name;
use xclean::{CatalogError, XCleanEngine};
use xclean_telemetry::json::Json;
use xclean_telemetry::{
    names, Counter, Exposition, MetricsRegistry, RollingWindows, Value, WindowEvent, WindowSnapshot,
};

use crate::cache::ResponseCache;

/// Lock stripes of each tenant's response cache: enough that the workers
/// seldom meet on one lock (capped by the cache so each shard holds an
/// entry).
pub const CACHE_SHARDS: usize = 8;

/// One served corpus: engine, private response cache, and per-corpus
/// lifetime counters (handles into the engine's registry, like the
/// cache's, so `/metrics` collects them under this tenant's `corpus`).
#[derive(Debug)]
pub struct Tenant {
    name: String,
    /// The engine over the corpus, however it is stored, so routing,
    /// caching and rendering never ask how.
    engine: Arc<XCleanEngine>,
    cache: Arc<ResponseCache>,
    fingerprint: u64,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    /// Per-corpus 1m/5m/15m qps/latency/error/SLO windows, advanced by
    /// this tenant's own request arrivals.
    windows: RollingWindows,
}

impl Tenant {
    /// The catalog name this tenant serves under (`/suggest/<name>`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine answering this corpus: the caller's shared allocation,
    /// never a copy.
    pub fn engine(&self) -> &Arc<XCleanEngine> {
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

    /// Replies tagged with this corpus — suggest hits, misses, batches,
    /// their errors, and explain traces — bumped in `observe_reply`.
    pub fn requests(&self) -> &Counter {
        &self.requests
    }

    /// Error responses while serving this corpus.
    pub fn errors(&self) -> &Counter {
        &self.errors
    }

    /// Folds one completed request into this tenant's rolling windows.
    pub fn record_window(&self, now_nanos: u64, event: &WindowEvent) {
        self.windows.record(now_nanos, event);
    }

    /// Snapshots the tenant's 1m/5m/15m windows at `now_nanos`.
    pub fn window_snapshots(&self, now_nanos: u64) -> Vec<WindowSnapshot> {
        self.windows.snapshot(now_nanos)
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
    /// over [`CACHE_SHARDS`] shards, with the cache counters and the
    /// per-corpus request/error counters registered in that tenant's
    /// engine registry. Errors on an empty catalog, a
    /// duplicate name, or a name the catalog's
    /// [`valid_corpus_name`] rejects.
    pub fn build(
        corpora: Vec<(String, Arc<XCleanEngine>)>,
        cache_entries: usize,
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
            // The catalog's naming rule: `[a-z0-9_-]` routes verbatim
            // through paths and query parameters, which are not decoded.
            if !valid_corpus_name(&name) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    CatalogError::BadName(name).to_string(),
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
                CACHE_SHARDS,
                engine.metrics(),
            ));
            let fingerprint = engine.fingerprint();
            tenants.push(Tenant {
                requests: engine.metrics().counter(names::CORPUS_REQUESTS),
                errors: engine.metrics().counter(names::CORPUS_ERRORS),
                name,
                engine,
                cache,
                fingerprint,
                windows: RollingWindows::new(),
            });
        }
        Ok(TenantSet { tenants, by_name })
    }

    /// The primary tenant (first catalog entry): bare `/suggest` routes
    /// here and the top-level `/healthz` fields describe it.
    pub fn primary(&self) -> &Tenant {
        &self.tenants[0]
    }

    /// The tenant serving `name`, if the catalog has one.
    pub fn get(&self, name: &str) -> Option<&Tenant> {
        self.index_of(name).map(|i| &self.tenants[i])
    }

    /// The catalog position of the tenant serving `name` — how a
    /// resolved request names its tenant across the hand-off to a pool
    /// worker.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// The tenant at catalog position `index` (0 is the primary).
    pub(crate) fn at(&self, index: usize) -> &Tenant {
        &self.tenants[index]
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

    /// Hands `page` the little a name-keyed registry cannot hold, per
    /// tenant: the live cache-entries gauge and `corpus`+`window` SLO
    /// burn rates snapshotted at `now_nanos`.
    /// Everything else a tenant counts is in its engine registry.
    pub fn collect(&self, page: &mut Exposition, now_nanos: u64) {
        for t in &self.tenants {
            let corpus = ("corpus", t.name.as_str());
            let entries = Value::Int(t.cache.len() as u64);
            page.gauge(names::CORPUS_CACHE_ENTRIES, &[corpus], entries);
            for s in t.window_snapshots(now_nanos) {
                let burn = Value::Float(s.slo_burn_rate());
                let labels = [corpus, ("window", s.label)];
                page.gauge(names::CORPUS_BURN_RATE, &labels, burn);
            }
        }
    }

    /// The `serve --metrics-json` document: the server's own registry
    /// and every tenant's engine registry, each in
    /// [`MetricsRegistry::metrics_json`] shape —
    /// `{"server": {…}, "corpora": {"<name>": {…}, …}}`.
    pub fn metrics_json(&self, server: &MetricsRegistry) -> Json {
        let corpora = self
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.engine.metrics().metrics_json()));
        Json::object([
            ("server", server.metrics_json()),
            ("corpora", Json::object(corpora)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean::XCleanConfig;
    use xclean_xmltree::parse_document;

    /// The set's collected page, checked as one document.
    fn page_of(set: &TenantSet, now_nanos: u64) -> String {
        let mut page = Exposition::new();
        set.collect(&mut page, now_nanos);
        let text = page.render();
        crate::conformance::check_page(&text);
        text
    }

    fn engine(xml: &str) -> Arc<XCleanEngine> {
        let engine = XCleanEngine::new(parse_document(xml).unwrap(), XCleanConfig::default());
        Arc::new(engine)
    }

    #[test]
    fn build_routes_by_name_and_keeps_order() {
        let set = TenantSet::build(
            vec![
                ("default".into(), engine("<r><p>alpha beta</p></r>")),
                ("dblp".into(), engine("<r><p>gamma delta epsilon</p></r>")),
            ],
            16,
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
        assert!(TenantSet::build(vec![], 16).is_err());
        let dup = TenantSet::build(
            vec![
                ("a".into(), engine("<r><p>x</p></r>")),
                ("a".into(), engine("<r><p>y</p></r>")),
            ],
            16,
        );
        assert!(dup.unwrap_err().to_string().contains("duplicate"));
        // `a&b` could never be picked by `?corpus=` (the parameter splits
        // at `&`), `a%20b` never routed by `/suggest/<name>` (paths are
        // not decoded); the rest break the catalog's charset.
        for bad in ["", "a/b", "a b", "a?b", "a#b", "a&b", "a%20b", "Dblp", "ü"] {
            let r = TenantSet::build(vec![(bad.into(), engine("<r><p>x</p></r>"))], 16);
            let err = r.expect_err(bad).to_string();
            assert!(err.contains("invalid corpus name"), "{bad:?}: {err}");
        }
        let long = "a".repeat(xclean::catalog::MAX_NAME_LEN + 1);
        assert!(TenantSet::build(vec![(long, engine("<r><p>x</p></r>"))], 16).is_err());
    }

    #[test]
    fn slo_metrics_render_burn_rate_and_breaches_per_window() {
        let set = TenantSet::build(
            vec![
                ("default".into(), engine("<r><p>alpha beta</p></r>")),
                ("dblp".into(), engine("<r><p>gamma delta</p></r>")),
            ],
            16,
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
        // budget, in every window. The breach count itself is the
        // snapshot's (and `/statusz`'s), not a series.
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

    /// A tenant's lifetime counters are handles into its engine
    /// registry, so collecting that registry under `corpus` is what puts
    /// them — and the cache's — on the page; `collect` adds the gauges.
    #[test]
    fn corpus_metrics_render_labelled_series() {
        let set = TenantSet::build(
            vec![
                ("default".into(), engine("<r><p>alpha beta</p></r>")),
                ("dblp".into(), engine("<r><p>gamma delta</p></r>")),
            ],
            16,
        )
        .unwrap();
        let dblp = set.get("dblp").unwrap();
        dblp.requests().inc();
        let registry = dblp.engine().metrics();
        assert_eq!(registry.counter_value(names::CORPUS_REQUESTS), Some(1));
        assert_eq!(registry.counter_value(names::CORPUS_ERRORS), Some(0));
        assert_eq!(registry.counter_value(names::CACHE_HITS), Some(0));
        let mut page = Exposition::new();
        for t in set.iter() {
            t.engine()
                .metrics()
                .collect(&mut page, &[("corpus", t.name())]);
        }
        set.collect(&mut page, 0);
        let text = page.render();
        crate::conformance::check_page(&text);
        for line in [
            format!("{}{{corpus=\"dblp\"}} 1\n", names::CORPUS_REQUESTS),
            format!("{}{{corpus=\"default\"}} 0\n", names::CORPUS_REQUESTS),
            format!("{}{{corpus=\"dblp\"}} 0\n", names::CACHE_EVICTIONS),
            format!("{}{{corpus=\"default\"}} 0\n", names::CORPUS_CACHE_ENTRIES),
        ] {
            assert!(text.contains(&line), "missing {line:?} in:\n{text}");
        }
    }

    #[test]
    fn metrics_json_names_the_server_and_every_corpus() {
        let set = TenantSet::build(
            vec![
                ("default".into(), engine("<r><p>alpha beta</p></r>")),
                ("dblp".into(), engine("<r><p>gamma delta</p></r>")),
            ],
            16,
        )
        .unwrap();
        let server = MetricsRegistry::default();
        server.counter(names::SERVER_REQUESTS).add(3);
        set.get("dblp").unwrap().requests().inc();
        let doc = xclean_telemetry::json::parse(&set.metrics_json(&server).render()).expect("JSON");
        assert_eq!(
            doc["server"]["counters"][names::SERVER_REQUESTS].as_u64(),
            Some(3)
        );
        let corpora = &doc["corpora"];
        assert_eq!(
            corpora["dblp"]["counters"][names::CORPUS_REQUESTS].as_u64(),
            Some(1)
        );
        assert_eq!(
            corpora["default"]["counters"][names::CORPUS_REQUESTS].as_u64(),
            Some(0)
        );
    }
}
