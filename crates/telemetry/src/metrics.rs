//! Engine-lifetime metrics: named counters and log-bucketed histograms.
//!
//! Recording is lock-free: counters are single `AtomicU64`s and a
//! histogram is a fixed array of atomic buckets, so the `suggest_many`
//! worker pool aggregates into one registry without serialising. The
//! registry's interior lock is taken only when a *name* is first
//! registered; hot paths hold pre-resolved `Arc` handles.
//!
//! **Bucket scheme** (documented in DESIGN.md §9): bucket `i ≥ 1` covers
//! values in `[2^(i-1), 2^i)`; bucket 0 holds the value 0. Quantiles are
//! answered with the *upper bound* of the bucket where the cumulative
//! count crosses the rank, i.e. an over-estimate by at most 2× — the
//! right trade-off for latency monitoring where order of magnitude and
//! tail direction matter more than the third significant digit.
//!
//! [`Exposition`], below, is the workspace's one Prometheus text-format
//! writer: every `/metrics` source hands it typed samples.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::json::Json;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 plus one per power of two up to
/// `2^63`. Shared with the rolling-window wheels ([`crate::window`]), so
/// windowed quantiles and lifetime quantiles use one bucket scheme.
pub(crate) const HIST_BUCKETS: usize = 64;

/// The bucket index holding `value` (0 → 0; v ≥ 1 → ⌊log₂ v⌋ + 1).
pub(crate) fn log2_bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i` (what quantiles report).
pub(crate) fn log2_bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        i if i >= HIST_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// The `q`-quantile over a plain (non-atomic) bucket array: the upper
/// bound of the bucket where the cumulative count crosses the rank.
pub(crate) fn log2_quantile(counts: &[u64; HIST_BUCKETS], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return log2_bucket_upper(i);
        }
    }
    log2_bucket_upper(HIST_BUCKETS - 1)
}

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 95th-percentile upper bound.
    pub p95: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[log2_bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` sample; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        log2_quantile(&self.bucket_counts(), q)
    }

    /// A plain snapshot of the per-bucket counts.
    fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Count/sum/p50/p95/p99 snapshot.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// How a histogram's samples are written on the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// As recorded: integer `le` bounds and `_sum`.
    Raw,
    /// Nanoseconds written as fractional seconds (`*_seconds` families).
    Seconds,
}

impl Unit {
    fn write(self, v: u64) -> String {
        match self {
            Unit::Raw => v.to_string(),
            // Plain `f64` display never uses scientific notation, so `le`
            // values stay parseable Prometheus floats.
            Unit::Seconds => format!("{}", v as f64 / 1e9),
        }
    }
}

/// A counter or gauge value, typed by how it is written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An integer.
    Int(u64),
    /// A float in its shortest round-trip form (`3`, `66.66666666666667`).
    Float(f64),
    /// A share or rate at fixed `{:.6}` precision.
    Ratio(f64),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Ratio(v) => write!(f, "{v:.6}"),
        }
    }
}

/// A point-in-time copy of one [`Histogram`], as collected.
#[derive(Debug)]
struct HistogramSample {
    unit: Unit,
    counts: [u64; HIST_BUCKETS],
    sum: u64,
}

#[derive(Debug)]
enum SampleData {
    Scalar(Value),
    Histogram(Box<HistogramSample>),
}

#[derive(Debug)]
struct Family {
    kind: &'static str,
    /// `(label pairs already written as k="v",…; data)` in arrival order.
    samples: Vec<(String, SampleData)>,
}

/// One `/metrics` page in the making (DESIGN.md §9): every source hands
/// it typed samples, it groups them by family, and [`Exposition::render`]
/// is the only code in the workspace that writes the Prometheus text
/// format — `# HELP`/`# TYPE` pairing, `_bucket{le=…}` / `+Inf` / `_sum`
/// / `_count`, label-value escaping and seconds formatting. Families
/// come out in name order, a family's samples in the order collected, so
/// a page is one conformant document whatever order the sources ran in.
#[derive(Debug, Default)]
pub struct Exposition {
    families: BTreeMap<&'static str, Family>,
}

impl Exposition {
    /// An empty page.
    pub fn new() -> Self {
        Exposition::default()
    }

    fn push(
        &mut self,
        name: &'static str,
        kind: &'static str,
        labels: &[(&str, &str)],
        data: SampleData,
    ) {
        let family = self.families.entry(name).or_insert(Family {
            kind,
            samples: Vec::new(),
        });
        debug_assert_eq!(family.kind, kind, "{name} collected as two types");
        let labels: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        family.samples.push((labels.join(","), data));
    }

    /// Adds one counter sample.
    pub fn counter(&mut self, name: &'static str, labels: &[(&str, &str)], value: u64) {
        let data = SampleData::Scalar(Value::Int(value));
        self.push(name, "counter", labels, data);
    }

    /// Adds one gauge sample.
    pub fn gauge(&mut self, name: &'static str, labels: &[(&str, &str)], value: Value) {
        self.push(name, "gauge", labels, SampleData::Scalar(value));
    }

    /// Adds a point-in-time copy of `h` as one histogram sample. Empty
    /// histograms still emit their zero bucket, `+Inf`, `_sum` and
    /// `_count`, so a series is present from the first scrape.
    pub fn histogram(
        &mut self,
        name: &'static str,
        labels: &[(&str, &str)],
        unit: Unit,
        h: &Histogram,
    ) {
        let sample = HistogramSample {
            unit,
            counts: h.bucket_counts(),
            sum: h.sum(),
        };
        let data = SampleData::Histogram(Box::new(sample));
        self.push(name, "histogram", labels, data);
    }

    /// The page as Prometheus text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                crate::names::help_for(name),
                family.kind
            ));
            for (labels, data) in &family.samples {
                let braced = match labels.as_str() {
                    "" => String::new(),
                    labels => format!("{{{labels}}}"),
                };
                match data {
                    SampleData::Scalar(value) => out.push_str(&format!("{name}{braced} {value}\n")),
                    SampleData::Histogram(h) => h.write(&mut out, name, labels, &braced),
                }
            }
        }
        out
    }
}

impl HistogramSample {
    /// Cumulative `_bucket` lines up to the highest occupied bucket (the
    /// final bucket is only ever shown as `+Inf`, which always carries
    /// the total), then `_sum` and `_count` under the same labels.
    /// `labels` is the sample's `k="v",…` text, `braced` the same in
    /// braces (both empty for an unlabelled sample).
    fn write(&self, out: &mut String, name: &str, labels: &str, braced: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let max_used = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate().take(max_used + 1) {
            cum += c;
            if i == HIST_BUCKETS - 1 {
                break;
            }
            out.push_str(&format!(
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}\n",
                self.unit.write(log2_bucket_upper(i))
            ));
        }
        let total: u64 = self.counts.iter().sum();
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {total}\n\
             {name}_sum{braced} {}\n{name}_count{braced} {total}\n",
            self.unit.write(self.sum)
        ));
    }
}

/// Escapes a label *value*: backslash, double-quote and newline are
/// backslash-escaped per the text exposition format; everything else
/// passes through verbatim.
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

/// Shared registry of named counters and histograms; cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// Returns (registering on first use) the counter named `name`.
    /// Callers on hot paths should resolve once and keep the `Arc`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some(c) = self.inner.counters.read().expect("lock").get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.inner
                .counters
                .write()
                .expect("lock")
                .entry(name)
                .or_default(),
        )
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.inner.histograms.read().expect("lock").get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.inner
                .histograms
                .write()
                .expect("lock")
                .entry(name)
                .or_default(),
        )
    }

    /// Value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner
            .counters
            .read()
            .expect("lock")
            .get(name)
            .map(|c| c.get())
    }

    /// Summary of a histogram, if registered.
    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        self.inner
            .histograms
            .read()
            .expect("lock")
            .get(name)
            .map(|h| h.summary())
    }

    /// Hands every counter and histogram (nanosecond units) to `page`
    /// under `labels` — how one page carries several registries of the
    /// same families, e.g. each tenant's engine under its `corpus`.
    pub fn collect(&self, page: &mut Exposition, labels: &[(&str, &str)]) {
        for (name, c) in self.inner.counters.read().expect("lock").iter() {
            page.counter(name, labels, c.get());
        }
        for (name, h) in self.inner.histograms.read().expect("lock").iter() {
            page.histogram(name, labels, Unit::Raw, h);
        }
    }

    /// Prometheus text-format snapshot of this registry alone: collect,
    /// then render (see [`Exposition`]).
    pub fn metrics_text(&self) -> String {
        let mut page = Exposition::new();
        self.collect(&mut page, &[]);
        page.render()
    }

    /// JSON snapshot:
    /// `{"counters": {name: value, …},
    ///   "histograms": {name: {count, sum, p50, p95, p99}, …}}`.
    pub fn metrics_json(&self) -> Json {
        let counters = self.inner.counters.read().expect("lock");
        let counters = counters.iter().map(|(&name, c)| (name, c.get().into()));
        let histograms = self.inner.histograms.read().expect("lock");
        let histograms = histograms.iter().map(|(&name, h)| {
            let s = h.summary();
            let summary = Json::object([
                ("count", s.count.into()),
                ("sum", s.sum.into()),
                ("p50", s.p50.into()),
                ("p95", s.p95.into()),
                ("p99", s.p99.into()),
            ]);
            (name, summary)
        });
        Json::object([
            ("counters", Json::object(counters)),
            ("histograms", Json::object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{check_page, series_identities};

    #[test]
    fn counters_accumulate_and_share() {
        let r = MetricsRegistry::default();
        let a = r.counter("xclean_test_total");
        let b = r.counter("xclean_test_total");
        a.add(3);
        b.inc();
        assert_eq!(r.counter_value("xclean_test_total"), Some(4));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn counters_are_thread_safe() {
        let r = MetricsRegistry::default();
        let c = r.counter("xclean_mt_total");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(log2_bucket_of(0), 0);
        assert_eq!(log2_bucket_of(1), 1);
        assert_eq!(log2_bucket_of(2), 2);
        assert_eq!(log2_bucket_of(3), 2);
        assert_eq!(log2_bucket_of(4), 3);
        assert_eq!(log2_bucket_of(1023), 10);
        assert_eq!(log2_bucket_of(1024), 11);
        assert_eq!(log2_bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(log2_bucket_upper(0), 0);
        assert_eq!(log2_bucket_upper(1), 1);
        assert_eq!(log2_bucket_upper(10), 1023);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = Histogram::default();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        // 9 of 10 samples in bucket 1 (upper bound 1): p50 = 1, p90 = 1;
        // the straggler pushes p99 into 1000's bucket [512, 1024) → 1023.
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.9), 1);
        assert_eq!(h.quantile(0.99), 1023);
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 1009);
        assert_eq!(s.p50, 1);
        assert_eq!(s.p99, 1023);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn prometheus_text_format() {
        let r = MetricsRegistry::default();
        r.counter("xclean_queries_total").add(2);
        r.histogram("xclean_stage_walk_nanos").record(700);
        let text = r.metrics_text();
        assert!(text.contains("# TYPE xclean_queries_total counter"));
        assert!(text.contains("xclean_queries_total 2"));
        assert!(text.contains("# TYPE xclean_stage_walk_nanos histogram"));
        // 700 lands in bucket [512, 1024): cumulative count 1 at le=1023.
        assert!(text.contains("xclean_stage_walk_nanos_bucket{le=\"1023\"} 1"));
        assert!(text.contains("xclean_stage_walk_nanos_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("xclean_stage_walk_nanos_sum 700"));
        assert!(text.contains("xclean_stage_walk_nanos_count 1"));
    }

    /// A registry-only page is one conformant document: HELP/TYPE
    /// pairing, family membership and bucket shape all hold (the shared
    /// checker, `tests/support/conformance.rs`).
    #[test]
    fn prometheus_help_type_pairing() {
        let r = MetricsRegistry::default();
        r.counter("xclean_queries_total").inc();
        r.counter("xclean_subtrees_total").add(3);
        r.histogram("xclean_stage_walk_nanos").record(7);
        r.histogram("xclean_stage_rank_nanos");
        let samples = check_page(&r.metrics_text());
        assert_eq!(
            series_identities(&samples),
            [
                "xclean_queries_total",
                "xclean_stage_rank_nanos_bucket",
                "xclean_stage_rank_nanos_count",
                "xclean_stage_rank_nanos_sum",
                "xclean_stage_walk_nanos_bucket",
                "xclean_stage_walk_nanos_count",
                "xclean_stage_walk_nanos_sum",
                "xclean_subtrees_total",
            ]
        );
    }

    /// Two registries of the same families share one page under
    /// different label sets: one HELP/TYPE pair per family, one sample
    /// (or bucket set) per registry, in collection order.
    #[test]
    fn labelled_collect_puts_two_registries_in_one_family() {
        let (a, b) = (MetricsRegistry::default(), MetricsRegistry::default());
        a.counter("xclean_queries_total").add(2);
        b.counter("xclean_queries_total").inc();
        b.histogram("xclean_stage_walk_nanos").record(700);
        let mut page = Exposition::new();
        a.collect(&mut page, &[("corpus", "default")]);
        b.collect(&mut page, &[("corpus", "dblp")]);
        let text = page.render();
        let samples = check_page(&text);
        assert_eq!(text.matches("# TYPE").count(), 2, "{text}");
        assert_eq!(
            series_identities(&samples),
            [
                "xclean_queries_total{corpus=\"dblp\"}",
                "xclean_queries_total{corpus=\"default\"}",
                "xclean_stage_walk_nanos_bucket{corpus=\"dblp\"}",
                "xclean_stage_walk_nanos_count{corpus=\"dblp\"}",
                "xclean_stage_walk_nanos_sum{corpus=\"dblp\"}",
            ]
        );
        assert!(
            text.contains(
                "xclean_queries_total{corpus=\"default\"} 2\n\
                 xclean_queries_total{corpus=\"dblp\"} 1\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("xclean_stage_walk_nanos_bucket{corpus=\"dblp\",le=\"1023\"} 1\n"),
            "{text}"
        );
    }

    /// Series come out in deterministic sorted order: two snapshots of
    /// the same registry are byte-identical, and counter names appear in
    /// lexicographic order.
    #[test]
    fn prometheus_sorted_deterministic_order() {
        let r = MetricsRegistry::default();
        // Register deliberately out of order.
        r.counter("xclean_zz_total").inc();
        r.counter("xclean_aa_total").inc();
        r.histogram("xclean_mm_nanos").record(1);
        let a = r.metrics_text();
        let b = r.metrics_text();
        assert_eq!(a, b);
        let aa = a.find("xclean_aa_total").unwrap();
        let zz = a.find("xclean_zz_total").unwrap();
        assert!(aa < zz, "counters must be sorted by name");
    }

    /// Histogram `_bucket` series are cumulative, end at `le="+Inf"`
    /// with integer nanosecond bounds before it, and `+Inf` equals
    /// `_count` (the shared checker), here with known totals.
    #[test]
    fn prometheus_histogram_bucket_consistency() {
        let r = MetricsRegistry::default();
        let h = r.histogram("xclean_stage_walk_nanos");
        for v in [0u64, 1, 3, 700, 700, 5000] {
            h.record(v);
        }
        let text = r.metrics_text();
        let samples = check_page(&text);
        let buckets: Vec<_> = samples
            .iter()
            .filter(|s| s.name == "xclean_stage_walk_nanos_bucket")
            .collect();
        assert!(buckets.len() >= 2);
        let last = buckets.last().unwrap();
        assert_eq!(last.labels, [("le".to_string(), "+Inf".to_string())]);
        assert_eq!(last.value, "6", "+Inf bucket must hold every sample");
        assert!(text.contains("xclean_stage_walk_nanos_count 6"));
        // 0 + 1 + 3 + 700 + 700 + 5000
        assert!(text.contains("xclean_stage_walk_nanos_sum 6404"));
    }

    #[test]
    fn label_value_escaping() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("q=\"x\\y\nz\""), "q=\\\"x\\\\y\\nz\\\"");
        // On a page, the escaped value reads back as what was collected.
        let mut page = Exposition::new();
        page.gauge(
            "xclean_test_gauge",
            &[("corpus", "q=\"x\\y\nz\"")],
            Value::Int(1),
        );
        let samples = check_page(&page.render());
        assert_eq!(samples[0].labels[0].1, "q=\"x\\y\nz\"");
    }

    #[test]
    fn labeled_histogram_renders_cumulative_seconds_buckets() {
        let h = Histogram::default();
        h.record(700);
        h.record(800);
        let mut page = Exposition::new();
        let name = "xclean_test_seconds";
        page.histogram(
            name,
            &[("corpus", "dblp"), ("shard", "1")],
            Unit::Seconds,
            &h,
        );
        // An empty histogram still emits its zero bucket, +Inf, sum, count.
        page.histogram(
            name,
            &[("corpus", "a"), ("shard", "0")],
            Unit::Seconds,
            &Histogram::default(),
        );
        let out = page.render();
        check_page(&out);
        assert_eq!(out.matches("# TYPE").count(), 1, "one family: {out}");
        for line in [
            "xclean_test_seconds_bucket{corpus=\"dblp\",shard=\"1\",le=\"0.000001023\"} 2\n",
            "xclean_test_seconds_bucket{corpus=\"dblp\",shard=\"1\",le=\"+Inf\"} 2\n",
            "xclean_test_seconds_sum{corpus=\"dblp\",shard=\"1\"} 0.0000015\n",
            "xclean_test_seconds_count{corpus=\"dblp\",shard=\"1\"} 2\n",
            "xclean_test_seconds_bucket{corpus=\"a\",shard=\"0\",le=\"0\"} 0\n",
            "xclean_test_seconds_count{corpus=\"a\",shard=\"0\"} 0\n",
        ] {
            assert!(out.contains(line), "missing {line:?} in {out}");
        }
    }

    #[test]
    fn json_snapshot_shape() {
        let r = MetricsRegistry::default();
        r.counter("xclean_queries_total").inc();
        r.histogram("xclean_stage_rank_nanos").record(5);
        r.histogram("xclean_stage_walk_nanos").record(u64::MAX);
        let json = r.metrics_json().render();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"xclean_queries_total\":1"));
        assert!(json.contains("\"xclean_stage_rank_nanos\":{\"count\":1,\"sum\":5"));
        // Sums print exactly, not through an `f64`.
        assert!(json.contains("\"sum\":18446744073709551615"), "{json}");
        let v = crate::json::parse(&json).expect("the snapshot is JSON");
        assert_eq!(v["counters"]["xclean_queries_total"].as_u64(), Some(1));
        let rank = &v["histograms"]["xclean_stage_rank_nanos"];
        for key in ["count", "sum", "p50", "p95", "p99"] {
            assert!(rank[key].as_u64().is_some(), "{key} in {json}");
        }
    }
}
