//! Experiment E10 — §VI-B: node-type vs SLCA (vs ELCA) semantics.
//!
//! The paper reports the SLCA variant "works equally well on the DBLP
//! dataset (data-centric), but less well on the INEX dataset
//! (document-centric)". This experiment measures MRR for all three
//! implemented semantics on all six query sets (ELCA is this
//! reproduction's extension, exercising the framework's generality).

use xclean::Semantics;
use xclean_eval::datasets::{build_dblp, build_inex, default_config, query_sets, scale};
use xclean_eval::harness::run_set;
use xclean_eval::report::{f2, render_table, write_json};
use xclean_eval::systems::XCleanSuggester;
use xclean_telemetry::json::Json;

struct Row {
    query_set: String,
    node_type_mrr: f64,
    slca_mrr: f64,
    elca_mrr: f64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("query_set", self.query_set.as_str().into()),
            ("node_type_mrr", self.node_type_mrr.into()),
            ("slca_mrr", self.slca_mrr.into()),
            ("elca_mrr", self.elca_mrr.into()),
        ])
    }
}

fn main() {
    let scale = scale();
    println!("== E10 / §VI-B: node-type vs SLCA semantics (scale {scale}) ==\n");
    let mut rows: Vec<Row> = Vec::new();
    for (dataset, engine) in [
        ("DBLP", build_dblp(scale, default_config())),
        ("INEX", build_inex(scale, default_config())),
    ] {
        let sets = query_sets(&engine, dataset);
        let nt_results: Vec<f64> = {
            let sys = XCleanSuggester::new(&engine);
            sets.iter().map(|s| run_set(&sys, s, 10).mrr).collect()
        };
        let engine_slca = engine.with_semantics(Semantics::Slca);
        let slca_results: Vec<f64> = {
            let sys = XCleanSuggester::new(&engine_slca);
            sets.iter().map(|s| run_set(&sys, s, 10).mrr).collect()
        };
        let engine_elca = engine_slca.with_semantics(Semantics::Elca);
        let elca_results: Vec<f64> = {
            let sys = XCleanSuggester::new(&engine_elca);
            sets.iter().map(|s| run_set(&sys, s, 10).mrr).collect()
        };
        for (((set, nt), slca), elca) in sets
            .iter()
            .zip(nt_results)
            .zip(slca_results)
            .zip(elca_results)
        {
            rows.push(Row {
                query_set: set.name.clone(),
                node_type_mrr: nt,
                slca_mrr: slca,
                elca_mrr: elca,
            });
        }
    }
    let table = render_table(
        &["query set", "node-type MRR", "SLCA MRR", "ELCA MRR"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.query_set.clone(),
                    f2(r.node_type_mrr),
                    f2(r.slca_mrr),
                    f2(r.elca_mrr),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    let dump: Json = rows.iter().map(Row::to_json).collect();
    let path = write_json("exp10_slca", &dump).expect("write json");
    println!("json: {}", path.display());
}
