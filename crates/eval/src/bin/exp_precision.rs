//! Experiment E5 — Figures 4(a)–4(f): Precision@N for N = 1..10.
//!
//! One sub-figure per query set; XClean's curve should be high and flat
//! (correct suggestion at the top), PY08's low and gradually rising (the
//! correct suggestion sits deep in its list), the search engines capped at
//! their single-suggestion precision@1.

use xclean_eval::datasets::{
    build_dblp, build_inex, build_search_engines, default_config, query_sets, scale,
};
use xclean_eval::harness::{default_threads, run_set_parallel, SetResult};
use xclean_eval::report::{f2, render_table, write_json};
use xclean_eval::systems::{Py08Suggester, SeSuggester, Suggester, XCleanSuggester};
use xclean_telemetry::json::Json;

fn main() {
    let scale = scale();
    println!("== E5 / Figure 4(a)-(f): Precision@N (scale {scale}) ==\n");
    let mut results: Vec<SetResult> = Vec::new();

    for (dataset, engine) in [
        ("DBLP", build_dblp(scale, default_config())),
        ("INEX", build_inex(scale, default_config())),
    ] {
        let sets = query_sets(&engine, dataset);
        let (se1, _) = build_search_engines(&[&sets[0]]);
        let xclean = XCleanSuggester::new(&engine);
        let py08 = Py08Suggester::new(&engine, engine.corpus(), 100);
        let se1 = SeSuggester::new(se1, "SE1");
        let systems: Vec<&(dyn Suggester + Sync)> = vec![&xclean, &py08, &se1];
        for set in &sets {
            println!("-- {} --", set.name);
            let mut rows = Vec::new();
            for sys in &systems {
                let r = run_set_parallel(*sys, set, 10, default_threads());
                let mut row = vec![r.system.clone()];
                for n in [1usize, 2, 3, 5, 10] {
                    row.push(f2(r.precision_at[n - 1]));
                }
                rows.push(row);
                results.push(r);
            }
            println!(
                "{}",
                render_table(&["system", "P@1", "P@2", "P@3", "P@5", "P@10"], &rows)
            );
        }
    }
    let dump: Json = results.iter().map(SetResult::to_json).collect();
    let path = write_json("fig4_precision", &dump).expect("write json");
    println!("json: {}", path.display());
}
