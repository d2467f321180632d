//! Experiment E11 — ablations of XClean's design choices (DESIGN.md §7):
//!
//! 1. **skip_to alignment** on/off: postings read vs skipped and time
//!    (with it on, queries whose slots all hold a fair share of the
//!    postings mark them in entity bitmaps instead: `scanned`, read one
//!    at a time or covered by a bitmap the level table keeps);
//! 2. **minimal depth d** sweep: candidate-space size and quality;
//! 3. **probabilistic pruning** on/off: accumulator count vs quality.

use xclean::XCleanConfig;
use xclean_eval::datasets::{build_dblp, default_config, query_sets, scale};
use xclean_eval::metrics::MetricAccumulator;
use xclean_eval::report::{f2, render_table, write_json};
use xclean_telemetry::json::Json;

#[derive(Default)]
struct AblationResult {
    label: String,
    mrr: f64,
    avg_secs: f64,
    postings_read: u64,
    postings_skipped: u64,
    postings_scanned: u64,
    subtrees: u64,
    candidates: u64,
    evictions: u64,
}

impl AblationResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("label", self.label.as_str().into()),
            ("mrr", self.mrr.into()),
            ("avg_secs", self.avg_secs.into()),
            ("postings_read", self.postings_read.into()),
            ("postings_skipped", self.postings_skipped.into()),
            ("postings_scanned", self.postings_scanned.into()),
            ("subtrees", self.subtrees.into()),
            ("candidates", self.candidates.into()),
            ("evictions", self.evictions.into()),
        ])
    }
}

fn run(
    engine: &xclean::XCleanEngine,
    set: &xclean_datagen::QuerySet,
    cfg: &XCleanConfig,
    label: &str,
) -> AblationResult {
    let mut acc = MetricAccumulator::new(10);
    let mut out = AblationResult {
        label: label.to_string(),
        ..Default::default()
    };
    let start = std::time::Instant::now();
    for case in &set.cases {
        let resp = engine.suggest_keywords_with(&case.dirty, cfg);
        out.postings_read += resp.stats.access.read;
        out.postings_skipped += resp.stats.access.skipped;
        out.postings_scanned += resp.stats.access.scan_postings();
        out.subtrees += resp.stats.subtrees;
        out.candidates += resp.stats.candidates_enumerated;
        out.evictions += resp.stats.pruning.evictions;
        let suggestions: Vec<Vec<String>> = resp.suggestions.into_iter().map(|s| s.terms).collect();
        acc.record(&suggestions, &case.clean);
    }
    out.avg_secs = start.elapsed().as_secs_f64() / set.cases.len().max(1) as f64;
    out.mrr = acc.finish().mrr;
    out
}

fn main() {
    let scale = scale();
    println!("== E11: ablations (DBLP-RAND & DBLP-RULE, scale {scale}) ==\n");
    let engine = build_dblp(scale, default_config());
    let sets = query_sets(&engine, "DBLP");
    let mut results: Vec<AblationResult> = Vec::new();

    for set in &sets[1..=2] {
        // (1) skipping ablation
        for (label, skip) in [("skip_to ON", true), ("skip_to OFF", false)] {
            let cfg = XCleanConfig {
                enable_skipping: skip,
                ..default_config()
            };
            results.push(run(&engine, set, &cfg, &format!("{}: {label}", set.name)));
        }
        // (2) min-depth sweep
        for d in [1u32, 2, 3] {
            let cfg = XCleanConfig {
                min_depth: d,
                ..default_config()
            };
            results.push(run(&engine, set, &cfg, &format!("{}: d={d}", set.name)));
        }
        // (3) pruning ablation
        for (label, gamma) in [
            ("γ=1000", Some(1000)),
            ("γ=25", Some(25)),
            ("no pruning", None),
        ] {
            let cfg = XCleanConfig {
                gamma,
                ..default_config()
            };
            results.push(run(&engine, set, &cfg, &format!("{}: {label}", set.name)));
        }
    }

    let table = render_table(
        &[
            "configuration",
            "MRR",
            "avg s",
            "read",
            "skipped",
            "scanned",
            "subtrees",
            "candidates",
            "evictions",
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    f2(r.mrr),
                    format!("{:.4}", r.avg_secs),
                    r.postings_read.to_string(),
                    r.postings_skipped.to_string(),
                    r.postings_scanned.to_string(),
                    r.subtrees.to_string(),
                    r.candidates.to_string(),
                    r.evictions.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    let dump: Json = results.iter().map(AblationResult::to_json).collect();
    let path = write_json("exp11_ablation", &dump).expect("write json");
    println!("json: {}", path.display());
}
