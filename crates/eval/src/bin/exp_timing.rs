//! Experiment E8 — Table VI: average running time per query.
//!
//! Compares XClean, PY08 and the naïve per-candidate evaluator on all six
//! query sets (γ=1000). Expected shape (paper §VII-D): XClean faster than
//! PY08 (single pass vs repeated passes); RULE sets slower than RAND and
//! CLEAN for every system (more distant variants → more candidates);
//! INEX slower than DBLP (bigger data and vocabulary).
//!
//! Prints milliseconds to three decimals (microsecond resolution: an
//! XClean query on DBLP takes about a tenth of a millisecond); the JSON
//! copy keeps seconds. Run with `--release`; debug-build timings are not
//! meaningful.

use std::time::Instant;

use xclean::XCleanConfig;
use xclean_baselines::run_naive;
use xclean_eval::datasets::{build_dblp, build_inex, default_config, query_sets, scale};
use xclean_eval::harness::run_set;
use xclean_eval::report::{render_table, write_json};
use xclean_eval::systems::{Py08Suggester, XCleanSuggester};
use xclean_telemetry::json::Json;

struct Row {
    query_set: String,
    xclean_secs: f64,
    py08_secs: f64,
    naive_secs: f64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("query_set", self.query_set.as_str().into()),
            ("xclean_secs", self.xclean_secs.into()),
            ("py08_secs", self.py08_secs.into()),
            ("naive_secs", self.naive_secs.into()),
        ])
    }
}

fn main() {
    let scale = scale();
    println!("== E8 / Table VI: average running time in milliseconds (γ=1000, scale {scale}) ==\n");
    let mut rows: Vec<Row> = Vec::new();
    for (dataset, engine) in [
        ("DBLP", build_dblp(scale, default_config())),
        ("INEX", build_inex(scale, default_config())),
    ] {
        let sets = query_sets(&engine, dataset);
        let xclean = XCleanSuggester::new(&engine);
        let py08 = Py08Suggester::new(&engine, engine.corpus(), 1000);
        for set in &sets {
            xclean_telemetry::log_info!("xclean_eval", "timing dataset", dataset = set.name);
            let rx = run_set(&xclean, set, 10);
            let rp = run_set(&py08, set, 10);
            // Naïve evaluator, timed directly (no pruning — the point is
            // the cost of candidate-at-a-time evaluation).
            let cfg = XCleanConfig {
                gamma: None,
                ..default_config()
            };
            // The naïve evaluator is orders of magnitude slower (it
            // enumerates the full Cartesian candidate space); it is timed
            // on a query subsample, and only on the data-centric corpus —
            // on INEX its candidate spaces are intractably large, which is
            // itself the finding.
            let naive_secs = if dataset == "DBLP" {
                let naive_sample = set.cases.iter().take(12).collect::<Vec<_>>();
                let start = Instant::now();
                for case in &naive_sample {
                    let slots = engine.make_slots(&case.dirty);
                    let _ = run_naive(engine.corpus(), &slots, &cfg);
                }
                start.elapsed().as_secs_f64() / naive_sample.len().max(1) as f64
            } else {
                f64::NAN
            };
            rows.push(Row {
                query_set: set.name.clone(),
                xclean_secs: rx.avg_time_secs,
                py08_secs: rp.avg_time_secs,
                naive_secs,
            });
        }
    }
    let table = render_table(
        &["query set", "XClean (ms)", "PY08 (ms)", "naive (ms)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.query_set.clone(),
                    format!("{:.3}", r.xclean_secs * 1e3),
                    format!("{:.3}", r.py08_secs * 1e3),
                    format!("{:.3}", r.naive_secs * 1e3),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    let dump: Json = rows.iter().map(Row::to_json).collect();
    let path = write_json("table6_timing", &dump).expect("write json");
    println!("json: {}", path.display());
}
