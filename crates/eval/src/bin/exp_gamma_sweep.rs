//! Experiment E7 — Table V: MRR vs the accumulator budget γ.
//!
//! Sweeps γ ∈ {10, 100, 1000, 10000} for XClean (in-memory accumulators,
//! §V-D) and PY08 (top segments per keyword). Expected shape: quality
//! saturates by γ ≈ 1000 for XClean, by γ ≈ 100 for PY08, with the larger
//! candidate spaces (RULE sets) benefiting most from bigger γ.

use xclean::XCleanConfig;
use xclean_eval::datasets::{build_dblp, build_inex, default_config, query_sets, scale};
use xclean_eval::harness::run_set;
use xclean_eval::metrics::MetricAccumulator;
use xclean_eval::report::{f2, render_table, write_json};
use xclean_eval::systems::Py08Suggester;
use xclean_telemetry::json::Json;

const GAMMAS: &[usize] = &[10, 100, 1000, 10_000];

struct Row {
    system: String,
    query_set: String,
    gammas: Vec<usize>,
    mrr: Vec<f64>,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("system", self.system.as_str().into()),
            ("query_set", self.query_set.as_str().into()),
            ("gammas", self.gammas.iter().copied().collect()),
            ("mrr", self.mrr.iter().copied().collect()),
        ])
    }
}

fn main() {
    let scale = scale();
    println!("== E7 / Table V: MRR vs γ (β=5, scale {scale}) ==\n");
    let mut rows: Vec<Row> = Vec::new();
    for (dataset, engine) in [
        ("DBLP", build_dblp(scale, default_config())),
        ("INEX", build_inex(scale, default_config())),
    ] {
        for set in query_sets(&engine, dataset) {
            xclean_telemetry::log_info!("xclean_eval", "sweeping gamma", dataset = set.name);
            // XClean: γ = accumulator bound.
            let mut xc = Vec::new();
            for &gamma in GAMMAS {
                let cfg = XCleanConfig {
                    gamma: Some(gamma),
                    ..default_config()
                };
                let mut acc = MetricAccumulator::new(10);
                for case in &set.cases {
                    let resp = engine.suggest_keywords_with(&case.dirty, &cfg);
                    let suggestions: Vec<Vec<String>> =
                        resp.suggestions.into_iter().map(|s| s.terms).collect();
                    acc.record(&suggestions, &case.clean);
                }
                xc.push(acc.finish().mrr);
            }
            rows.push(Row {
                system: "XClean".into(),
                query_set: set.name.clone(),
                gammas: GAMMAS.to_vec(),
                mrr: xc,
            });
            // PY08: γ = per-keyword candidate budget.
            let mut py = Vec::new();
            for &gamma in GAMMAS {
                let sys = Py08Suggester::new(&engine, engine.corpus(), gamma);
                py.push(run_set(&sys, &set, 10).mrr);
            }
            rows.push(Row {
                system: "PY08".into(),
                query_set: set.name.clone(),
                gammas: GAMMAS.to_vec(),
                mrr: py,
            });
        }
    }
    let headers: Vec<String> = ["system", "query set"]
        .into_iter()
        .map(String::from)
        .chain(GAMMAS.iter().map(|g| format!("γ={g}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table = render_table(
        &header_refs,
        &rows
            .iter()
            .map(|r| {
                vec![r.system.clone(), r.query_set.clone()]
                    .into_iter()
                    .chain(r.mrr.iter().map(|&m| f2(m)))
                    .collect()
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    let dump: Json = rows.iter().map(Row::to_json).collect();
    let path = write_json("table5_gamma_sweep", &dump).expect("write json");
    println!("json: {}", path.display());
}
