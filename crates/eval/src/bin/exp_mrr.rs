//! Experiment E4 — Figure 3: MRR of all systems on all six query sets.
//!
//! Expected shape (paper §VII-C): XClean ≫ PY08 everywhere; the simulated
//! search engines win on CLEAN sets (they rarely second-guess clean
//! queries) and do better on RULE than RAND (their log/misspelling table
//! covers human misspellings); XClean is competitive without any log.

use xclean_eval::datasets::{
    build_dblp, build_inex, build_search_engines, default_config, query_sets, scale,
};
use xclean_eval::harness::{default_threads, run_set_parallel, SetResult};
use xclean_eval::report::{f2, render_table, write_json};
use xclean_eval::systems::{Py08Suggester, SeSuggester, Suggester, XCleanSuggester};
use xclean_telemetry::json::Json;

fn main() {
    let scale = scale();
    println!("== E4 / Figure 3: MRR of all systems (scale {scale}) ==\n");
    let mut results: Vec<SetResult> = Vec::new();

    for (dataset, engine) in [
        ("DBLP", build_dblp(scale, default_config())),
        ("INEX", build_inex(scale, default_config())),
    ] {
        let sets = query_sets(&engine, dataset);
        let (se1, se2) = build_search_engines(&[&sets[0]]);
        let xclean = XCleanSuggester::new(&engine);
        let py08 = Py08Suggester::new(&engine, engine.corpus(), 100);
        let se1 = SeSuggester::new(se1, "SE1");
        let se2 = SeSuggester::new(se2, "SE2");
        let systems: Vec<&(dyn Suggester + Sync)> = vec![&xclean, &py08, &se1, &se2];
        for set in &sets {
            for sys in &systems {
                xclean_telemetry::log_info!(
                    "xclean_eval",
                    "running system",
                    system = sys.name(),
                    dataset = set.name,
                    queries = set.cases.len(),
                );
                results.push(run_set_parallel(*sys, set, 10, default_threads()));
            }
        }
    }

    // Pivot: rows = query set, columns = system.
    let set_names: Vec<String> = {
        let mut v: Vec<String> = results.iter().map(|r| r.query_set.clone()).collect();
        v.dedup();
        v
    };
    let sys_names = ["XClean", "PY08", "SE1", "SE2"];
    let rows: Vec<Vec<String>> = set_names
        .iter()
        .map(|set| {
            let mut row = vec![set.clone()];
            for sys in sys_names {
                let mrr = results
                    .iter()
                    .find(|r| &r.query_set == set && r.system == sys)
                    .map(|r| f2(r.mrr))
                    .unwrap_or_default();
                row.push(mrr);
            }
            row
        })
        .collect();
    let table = render_table(&["query set", "XClean", "PY08", "SE1", "SE2"], &rows);
    println!("{table}");
    println!("(SE MRR values are lower bounds: the engines return at most one suggestion)");
    let dump: Json = results.iter().map(SetResult::to_json).collect();
    let path = write_json("fig3_mrr", &dump).expect("write json");
    println!("json: {}", path.display());
}
