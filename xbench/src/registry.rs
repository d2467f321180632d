//! The benchmark's vocabulary: every metric name with its unit and which
//! direction is better. `BENCHMARK.json` at the repo root lists the same
//! names; a test holds the two together. What the file alone decides —
//! the bounds and how long a run measures — is read from it at run time.

use xclean_server::json::{self, Json};

use crate::error::{setup, BenchError};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; reported by every workload from the
/// untraced run.
pub const END_TO_END: [MetricDef; 7] = [
    lower("setup_s", "s"),
    higher("throughput_qps", "1/s"),
    lower("latency_p50_us", "us"),
    lower("latency_p99_us", "us"),
    higher("mrr", "ratio"),
    lower("peak_rss_mb", "MB"),
    lower("snapshot_bytes_per_input_byte", "ratio"),
];

/// Single layers, measured in the traced run from outside the product
/// crates. The prefix is the workspace crate the number belongs to.
pub const PER_LAYER: [MetricDef; 56] = [
    // Cold path → `setup_s`.
    lower("bench.datagen_s", "s"),
    lower("xmltree.parse_s", "s"),
    lower("index.build_s", "s"),
    lower("index.save_s", "s"),
    lower("index.open_ms", "ms"),
    lower("index.open_validate_ms", "ms"),
    lower("index.partition_s", "s"),
    lower("index.snapshot_bytes", "bytes"),
    lower("fastss.build_ms", "ms"),
    lower("xclean.engine_construct_ms", "ms"),
    lower("xclean.first_query_ms", "ms"),
    lower("xclean.sharded_load_ms", "ms"),
    lower("server.bind_ms", "ms"),
    lower("bench.ready_s", "s"),
    // Candidate generation → `latency_p50_us` where the engine runs.
    lower("fastss.variants_us_per_keyword", "us"),
    lower("fastss.variants_per_keyword", "count"),
    lower("fastss.edit_distance_ns_per_pair", "ns"),
    lower("xclean.make_slots_us", "us"),
    // The list walk → `throughput_qps`, `latency_p99_us` where the engine runs.
    lower("index.walk_bare_us", "us"),
    lower("index.postings_read", "count"),
    higher("index.postings_skipped", "count"),
    lower("index.skip_calls", "count"),
    higher("index.skip_ratio", "ratio"),
    // Scoring and ranking → the same.
    lower("xclean.run_us", "us"),
    lower("xclean.slot_ns", "ns"),
    lower("xclean.walk_ns", "ns"),
    lower("xclean.rank_ns", "ns"),
    lower("xclean.subtrees", "count"),
    lower("xclean.candidates", "count"),
    lower("xclean.result_types", "count"),
    lower("xclean.entities_scored", "count"),
    lower("xclean.gamma_evictions", "count"),
    lower("xclean.gamma_rejected", "count"),
    lower("xclean.result_type_ratio", "ratio"),
    lower("xclean.top1pct_time_share", "ratio"),
    lower("lm.score_ns_per_call", "ns"),
    // Scatter-gather → `sharded_direct` only.
    lower("xclean.sharded_scatter_us", "us"),
    lower("xclean.sharded_gather_us", "us"),
    lower("xclean.sharded_contributions", "count"),
    lower("xclean.shard_skew", "ratio"),
    lower("xclean.sharded_overhead_ratio", "ratio"),
    // The serving shell → `serve_hot`, and a small share of `serve_miss`.
    lower("server.http_parse_ns", "ns"),
    lower("server.http_render_ns", "ns"),
    lower("server.json_escape_ns", "ns"),
    lower("server.cache_hit_ns", "ns"),
    lower("server.cache_miss_ns", "ns"),
    lower("server.cache_insert_evict_ns", "ns"),
    lower("server.conn_cycle_ns", "ns"),
    lower("server.loop_wakes_per_request", "count"),
    lower("server.flight_events_per_request", "count"),
    lower("server.bytes_out_per_request", "bytes"),
    higher("server.cache_hit_ratio", "ratio"),
    lower("server.shell_us", "us"),
    lower("telemetry.record_ns_per_request", "ns"),
    // The tracing itself.
    higher("bench.trace_overhead_ratio", "ratio"),
    lower("bench.unattributed_share", "ratio"),
];

/// What `BENCHMARK.json` alone decides.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// How long one run measures, seconds.
    pub run_seconds: f64,
    /// Each end-to-end metric's bound, in [`END_TO_END`] order.
    pub bounds: Vec<f64>,
}

impl Contract {
    /// Reads `BENCHMARK.json` from the current directory (the repo root).
    pub fn load() -> Result<Contract, BenchError> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(setup("read BENCHMARK.json (run from the repo root)"))?;
        Contract::parse(&text)
    }

    /// The contract in the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Contract, BenchError> {
        let file = json::parse(text).map_err(setup("parse BENCHMARK.json"))?;
        let malformed =
            || BenchError::Setup("BENCHMARK.json lacks a bound or run_seconds".to_string());
        let listed = file
            .get("end_to_end")
            .and_then(Json::as_array)
            .ok_or_else(malformed)?;
        let bounds = END_TO_END
            .iter()
            .map(|def| {
                listed
                    .iter()
                    .find(|e| e.get("name").and_then(Json::as_str) == Some(def.name))
                    .and_then(|e| match e.get("bound") {
                        Some(Json::Num(b)) => Some(*b),
                        _ => None,
                    })
                    .ok_or_else(malformed)
            })
            .collect::<Result<Vec<f64>, _>>()?;
        match file.get("run_seconds") {
            Some(Json::Num(s)) => Ok(Contract {
                run_seconds: *s,
                bounds,
            }),
            _ => Err(malformed()),
        }
    }
}

/// A set of measured values keyed by registry name, printed in registry
/// order. Setting a name the registry lacks, or printing with one unset,
/// is a bug in the harness and panics.
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Records `name = value`.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the registry"));
        assert!(value.is_finite(), "metric {name:?} = {value} is not finite");
        self.values[i] = Some(value);
    }

    /// `(definition, value)` in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, f64)> + '_ {
        self.defs.iter().zip(&self.values).map(|(d, v)| {
            (
                d,
                v.unwrap_or_else(|| panic!("metric {:?} was never measured", d.name)),
            )
        })
    }

    /// The `metrics` object of the result line: every value with all the
    /// digits `f64` prints.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key:?} missing in {entry:?}"))
    }

    fn assert_matches(section: &str, defs: &[MetricDef]) {
        let file = benchmark_json();
        let listed = file.get(section).and_then(Json::as_array).unwrap();
        let listed: Vec<(&str, &str, &str)> = listed
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let registered: Vec<(&str, &str, &str)> = defs
            .iter()
            .map(|d| (d.name, d.unit, d.better.as_str()))
            .collect();
        assert_eq!(listed, registered, "{section} differs from the registry");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registered_end_to_end_metrics() {
        assert_matches("end_to_end", &END_TO_END);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registered_per_layer_metrics() {
        assert_matches("per_layer", &PER_LAYER);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_four_workloads() {
        let file = benchmark_json();
        let listed: Vec<&str> = file
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let registered: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, registered);
    }

    #[test]
    fn the_contract_has_a_bound_per_metric_and_a_window_the_time_cap_allows() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract = Contract::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(contract.bounds.len(), END_TO_END.len());
        for (def, bound) in END_TO_END.iter().zip(&contract.bounds) {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}: {bound}", def.name);
        }
        assert!((1.0..=60.0).contains(&contract.run_seconds));
        assert!(Contract::parse("{\"run_seconds\": 10, \"end_to_end\": []}").is_err());
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{d:?}");
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn metrics_print_in_registry_order_with_units() {
        let mut m = Metrics::new(&END_TO_END[..2]);
        m.set("throughput_qps", 1234.5678);
        m.set("setup_s", 3.25);
        assert_eq!(
            m.to_json(),
            "{\"setup_s\": {\"value\": 3.25, \"unit\": \"s\"}, \
             \"throughput_qps\": {\"value\": 1234.5678, \"unit\": \"1/s\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn an_unmeasured_metric_cannot_be_printed() {
        Metrics::new(&END_TO_END).to_json();
    }
}
