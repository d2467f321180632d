//! Experiment E2 — Table II: query sets and sample queries.
//!
//! Builds the six query sets (DBLP/INEX × CLEAN/RAND/RULE) and prints,
//! for each, its size, average length, average injected edit distance,
//! and a sample dirty/clean pair — the content of the paper's Table II.

use xclean_eval::datasets::{build_dblp, build_inex, default_config, query_sets, scale};
use xclean_eval::report::{render_table, write_json};
use xclean_fastss::edit_distance;
use xclean_telemetry::json::Json;

struct Row {
    set: String,
    queries: usize,
    avg_len: f64,
    avg_edit_distance: f64,
    sample_dirty: String,
    sample_clean: String,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("set", self.set.as_str().into()),
            ("queries", self.queries.into()),
            ("avg_len", self.avg_len.into()),
            ("avg_edit_distance", self.avg_edit_distance.into()),
            ("sample_dirty", self.sample_dirty.as_str().into()),
            ("sample_clean", self.sample_clean.as_str().into()),
        ])
    }
}

fn main() {
    let scale = scale();
    println!("== E2 / Table II: query sets (scale {scale}) ==\n");
    let mut rows = Vec::new();
    for (dataset, engine) in [
        ("DBLP", build_dblp(scale, default_config())),
        ("INEX", build_inex(scale, default_config())),
    ] {
        for set in query_sets(&engine, dataset) {
            let avg_len = set.cases.iter().map(|c| c.dirty.len() as f64).sum::<f64>()
                / set.cases.len().max(1) as f64;
            let (mut dist, mut n) = (0usize, 0usize);
            for c in &set.cases {
                for (d, cl) in c.dirty.iter().zip(c.clean.iter()) {
                    if d != cl {
                        dist += edit_distance(d, cl);
                        n += 1;
                    }
                }
            }
            let sample = set.cases.first();
            rows.push(Row {
                set: set.name.clone(),
                queries: set.cases.len(),
                avg_len,
                avg_edit_distance: if n == 0 { 0.0 } else { dist as f64 / n as f64 },
                sample_dirty: sample.map(|c| c.dirty_string()).unwrap_or_default(),
                sample_clean: sample.map(|c| c.clean_string()).unwrap_or_default(),
            });
        }
    }
    let table = render_table(
        &[
            "query set",
            "#q",
            "avg len",
            "avg ed",
            "sample (dirty)",
            "(clean)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.set.clone(),
                    r.queries.to_string(),
                    format!("{:.1}", r.avg_len),
                    format!("{:.2}", r.avg_edit_distance),
                    r.sample_dirty.clone(),
                    r.sample_clean.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    let dump: Json = rows.iter().map(Row::to_json).collect();
    let path = write_json("table2_querysets", &dump).expect("write json");
    println!("json: {}", path.display());
}
