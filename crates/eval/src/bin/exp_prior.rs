//! Experiment E12 (extension) — entity priors: uniform vs document-length.
//!
//! The paper uses the uniform prior `P(r_j|T) = 1/N` and notes the
//! framework generalises to non-uniform priors; this experiment measures
//! the document-length prior's effect on suggestion quality across all
//! six query sets.

use xclean::{EntityPrior, XCleanConfig};
use xclean_eval::datasets::{build_dblp, build_inex, default_config, query_sets, scale};
use xclean_eval::metrics::MetricAccumulator;
use xclean_eval::report::{f2, render_table, write_json};
use xclean_telemetry::json::Json;

struct Row {
    query_set: String,
    uniform_mrr: f64,
    doclen_mrr: f64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("query_set", self.query_set.as_str().into()),
            ("uniform_mrr", self.uniform_mrr.into()),
            ("doclen_mrr", self.doclen_mrr.into()),
        ])
    }
}

fn main() {
    let scale = scale();
    println!("== E12: entity prior ablation (scale {scale}) ==\n");
    let mut rows: Vec<Row> = Vec::new();
    for (dataset, engine) in [
        ("DBLP", build_dblp(scale, default_config())),
        ("INEX", build_inex(scale, default_config())),
    ] {
        for set in query_sets(&engine, dataset) {
            let mut mrrs = Vec::new();
            for prior in [EntityPrior::Uniform, EntityPrior::DocLength] {
                let cfg = XCleanConfig {
                    prior,
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
                uniform_mrr: mrrs[0],
                doclen_mrr: mrrs[1],
            });
        }
    }
    let table = render_table(
        &["query set", "uniform prior MRR", "doc-length prior MRR"],
        &rows
            .iter()
            .map(|r| vec![r.query_set.clone(), f2(r.uniform_mrr), f2(r.doclen_mrr)])
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    let dump: Json = rows.iter().map(Row::to_json).collect();
    let path = write_json("exp12_prior", &dump).expect("write json");
    println!("json: {}", path.display());
}
