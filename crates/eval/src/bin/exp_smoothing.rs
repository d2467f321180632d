//! Experiment E13 (extension) — language-model smoothing: Dirichlet μ
//! sweep vs Jelinek–Mercer λ sweep.
//!
//! The paper fixes Dirichlet smoothing ("the state-of-the-art language
//! modeling approach"); this ablation checks how sensitive suggestion
//! quality is to the scheme and its parameter.

use xclean::XCleanConfig;
use xclean_eval::datasets::{build_dblp, build_inex, default_config, query_sets, scale};
use xclean_eval::metrics::MetricAccumulator;
use xclean_eval::report::{f2, render_table, write_json};
use xclean_lm::Smoothing;
use xclean_telemetry::json::Json;

struct Row {
    query_set: String,
    label: String,
    mrr: f64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("query_set", self.query_set.as_str().into()),
            ("label", self.label.as_str().into()),
            ("mrr", self.mrr.into()),
        ])
    }
}

fn main() {
    let scale = scale();
    println!("== E13: LM smoothing ablation (scale {scale}) ==\n");
    let schemes: Vec<(String, Smoothing)> = vec![
        ("dirichlet μ=500".into(), Smoothing::Dirichlet { mu: 500.0 }),
        (
            "dirichlet μ=2000".into(),
            Smoothing::Dirichlet { mu: 2000.0 },
        ),
        (
            "dirichlet μ=8000".into(),
            Smoothing::Dirichlet { mu: 8000.0 },
        ),
        (
            "jelinek–mercer λ=0.1".into(),
            Smoothing::JelinekMercer { lambda: 0.1 },
        ),
        (
            "jelinek–mercer λ=0.5".into(),
            Smoothing::JelinekMercer { lambda: 0.5 },
        ),
        (
            "jelinek–mercer λ=0.9".into(),
            Smoothing::JelinekMercer { lambda: 0.9 },
        ),
    ];
    let mut rows: Vec<Row> = Vec::new();
    for (dataset, engine) in [
        ("DBLP", build_dblp(scale, default_config())),
        ("INEX", build_inex(scale, default_config())),
    ] {
        // RAND sets carry the signal; CLEAN/RULE behave analogously.
        let set = &query_sets(&engine, dataset)[1];
        for (label, smoothing) in &schemes {
            let cfg = XCleanConfig {
                smoothing: Some(*smoothing),
                ..default_config()
            };
            let mut acc = MetricAccumulator::new(10);
            for case in &set.cases {
                let resp = engine.suggest_keywords_with(&case.dirty, &cfg);
                let suggestions: Vec<Vec<String>> =
                    resp.suggestions.into_iter().map(|s| s.terms).collect();
                acc.record(&suggestions, &case.clean);
            }
            rows.push(Row {
                query_set: set.name.clone(),
                label: label.clone(),
                mrr: acc.finish().mrr,
            });
        }
    }
    let table = render_table(
        &["query set", "smoothing", "MRR"],
        &rows
            .iter()
            .map(|r| vec![r.query_set.clone(), r.label.clone(), f2(r.mrr)])
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    let dump: Json = rows.iter().map(Row::to_json).collect();
    let path = write_json("exp13_smoothing", &dump).expect("write json");
    println!("json: {}", path.display());
}
