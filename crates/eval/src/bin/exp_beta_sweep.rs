//! Experiment E6 — Table IV: MRR vs the error penalty β.
//!
//! Sweeps β ∈ {0, 1, 2, 5, 8, 10} with γ = 1000. Expected shape: MRR
//! climbs steeply from β = 0, plateaus around β = 5, with occasional minor
//! decreases beyond (the paper's explanation: small β is too lenient to
//! distant-but-frequent variants).

use xclean::XCleanConfig;
use xclean_eval::datasets::{build_dblp, build_inex, default_config, query_sets, scale};
use xclean_eval::metrics::MetricAccumulator;
use xclean_eval::report::{f2, render_table, write_json};
use xclean_telemetry::json::Json;

const BETAS: &[f64] = &[0.0, 1.0, 2.0, 5.0, 8.0, 10.0];

struct Row {
    query_set: String,
    betas: Vec<f64>,
    mrr: Vec<f64>,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("query_set", self.query_set.as_str().into()),
            ("betas", self.betas.iter().copied().collect()),
            ("mrr", self.mrr.iter().copied().collect()),
        ])
    }
}

fn main() {
    let scale = scale();
    println!("== E6 / Table IV: MRR vs β (γ=1000, scale {scale}) ==\n");
    let mut rows: Vec<Row> = Vec::new();
    for (dataset, engine) in [
        ("DBLP", build_dblp(scale, default_config())),
        ("INEX", build_inex(scale, default_config())),
    ] {
        for set in query_sets(&engine, dataset) {
            xclean_telemetry::log_info!("xclean_eval", "sweeping beta", dataset = set.name);
            let mut mrrs = Vec::new();
            for &beta in BETAS {
                let cfg = XCleanConfig {
                    beta,
                    ..default_config()
                };
                let mut acc = MetricAccumulator::new(10);
                for case in &set.cases {
                    let resp = engine.suggest_keywords_with(&case.dirty, &cfg);
                    let suggestions: Vec<Vec<String>> =
                        resp.suggestions.into_iter().map(|s| s.terms).collect();
                    acc.record(&suggestions, &case.clean);
                }
                mrrs.push(acc.finish().mrr);
            }
            rows.push(Row {
                query_set: set.name.clone(),
                betas: BETAS.to_vec(),
                mrr: mrrs,
            });
        }
    }
    let headers: Vec<String> = std::iter::once("query set".to_string())
        .chain(BETAS.iter().map(|b| format!("β={b}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table = render_table(
        &header_refs,
        &rows
            .iter()
            .map(|r| {
                std::iter::once(r.query_set.clone())
                    .chain(r.mrr.iter().map(|&m| f2(m)))
                    .collect()
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    let dump: Json = rows.iter().map(Row::to_json).collect();
    let path = write_json("table4_beta_sweep", &dump).expect("write json");
    println!("json: {}", path.display());
}
