//! Experiment E3 — Table III: example suggestions, XClean vs PY08.
//!
//! Reproduces the qualitative comparison of the paper's Table III: for a
//! handful of dirty queries, prints the top-3 suggestions of both systems,
//! showing PY08's rare-token / connectivity biases against XClean's
//! result-quality-driven ranking.

use xclean_eval::datasets::{build_dblp, default_config, query_sets, scale};
use xclean_eval::report::write_json;
use xclean_eval::systems::{Py08Suggester, Suggester, XCleanSuggester};
use xclean_telemetry::json::Json;

struct Example {
    dirty: String,
    clean: String,
    xclean_top3: Vec<String>,
    py08_top3: Vec<String>,
}

impl Example {
    fn to_json(&self) -> Json {
        Json::object([
            ("dirty", self.dirty.as_str().into()),
            ("clean", self.clean.as_str().into()),
            (
                "xclean_top3",
                self.xclean_top3.iter().map(String::as_str).collect(),
            ),
            (
                "py08_top3",
                self.py08_top3.iter().map(String::as_str).collect(),
            ),
        ])
    }
}

fn main() {
    let scale = scale();
    println!("== E3 / Table III: example suggestions (scale {scale}) ==\n");
    let engine = build_dblp(scale, default_config());
    let xclean = XCleanSuggester::new(&engine);
    let py08 = Py08Suggester::new(&engine, engine.corpus(), 100);

    let sets = query_sets(&engine, "DBLP");
    let rule_set = &sets[2];
    let mut examples = Vec::new();
    for case in rule_set.cases.iter().take(6) {
        let x: Vec<String> = xclean
            .suggest(&case.dirty)
            .into_iter()
            .take(3)
            .map(|s| s.join(" "))
            .collect();
        let p: Vec<String> = py08
            .suggest(&case.dirty)
            .into_iter()
            .take(3)
            .map(|s| s.join(" "))
            .collect();
        examples.push(Example {
            dirty: case.dirty_string(),
            clean: case.clean_string(),
            xclean_top3: x,
            py08_top3: p,
        });
    }
    for e in &examples {
        println!("dirty query : {}", e.dirty);
        println!("ground truth: {}", e.clean);
        println!("  XClean : {}", e.xclean_top3.join("  |  "));
        println!("  PY08   : {}", e.py08_top3.join("  |  "));
        println!();
    }
    let dump: Json = examples.iter().map(Example::to_json).collect();
    let path = write_json("table3_examples", &dump).expect("write json");
    println!("json: {}", path.display());
}
