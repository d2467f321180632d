//! Experiment E1 — Table I: dataset statistics.
//!
//! Prints, for the two synthetic corpora, the columns of the paper's
//! Table I (size, node count, max/avg depth) plus vocabulary size and the
//! encoded inverted-index size.

use xclean_eval::datasets::{build_dblp, build_inex, default_config, scale};
use xclean_eval::report::{render_table, write_json};
use xclean_index::codec;
use xclean_telemetry::json::Json;
use xclean_xmltree::TreeStats;

struct Row {
    dataset: String,
    size_mb: f64,
    nodes: usize,
    max_depth: u32,
    avg_depth: f64,
    distinct_paths: usize,
    vocabulary: usize,
    index_mb: f64,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::object([
            ("dataset", self.dataset.as_str().into()),
            ("size_mb", self.size_mb.into()),
            ("nodes", self.nodes.into()),
            ("max_depth", self.max_depth.into()),
            ("avg_depth", self.avg_depth.into()),
            ("distinct_paths", self.distinct_paths.into()),
            ("vocabulary", self.vocabulary.into()),
            ("index_mb", self.index_mb.into()),
        ])
    }
}

fn main() {
    let scale = scale();
    println!("== E1 / Table I: dataset statistics (scale {scale}) ==\n");
    let mut rows = Vec::new();
    for (name, engine) in [
        ("INEX", build_inex(scale, default_config())),
        ("DBLP", build_dblp(scale, default_config())),
    ] {
        let corpus = engine.corpus();
        let stats = TreeStats::compute(corpus.tree());
        let index_bytes: usize = corpus.posting_lists().map(|l| codec::encode(l).len()).sum();
        rows.push(Row {
            dataset: name.to_string(),
            size_mb: stats.size_bytes as f64 / 1e6,
            nodes: stats.node_count,
            max_depth: stats.max_depth,
            avg_depth: stats.avg_depth,
            distinct_paths: stats.distinct_paths,
            vocabulary: corpus.vocab().len(),
            index_mb: index_bytes as f64 / 1e6,
        });
    }
    let table = render_table(
        &[
            "dataset",
            "size (MB)",
            "#node",
            "max depth",
            "avg depth",
            "#paths",
            "|V|",
            "index (MB)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    format!("{:.1}", r.size_mb),
                    r.nodes.to_string(),
                    r.max_depth.to_string(),
                    format!("{:.2}", r.avg_depth),
                    r.distinct_paths.to_string(),
                    r.vocabulary.to_string(),
                    format!("{:.1}", r.index_mb),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    let dump: Json = rows.iter().map(Row::to_json).collect();
    let path = write_json("table1_datasets", &dump).expect("write json");
    println!("json: {}", path.display());
}
