//! Shared experiment setup: the two corpora, their engines, query sets,
//! and the simulated search engines. Every `exp_*` binary builds its
//! inputs through this module so experiments are consistent and
//! reproducible.

use xclean::{Semantics, XCleanConfig, XCleanEngine};
use xclean_baselines::{SeConfig, SearchEngineCorrector};
use xclean_datagen::{
    generate_dblp, generate_inex, make_workload, DblpConfig, InexConfig, Perturbation, QuerySet,
    WorkloadSpec, COMMON_MISSPELLINGS,
};
use xclean_index::CorpusIndex;

/// Scale factor for corpus sizes, read from `XCLEAN_SCALE` (default 1.0).
/// CI and quick runs can set e.g. `XCLEAN_SCALE=0.1`.
pub fn scale() -> f64 {
    std::env::var("XCLEAN_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0)
        .unwrap_or(1.0)
}

/// Default engine configuration used across experiments (β=5, γ=1000,
/// ε=2, d=2, r=0.8, k=10 — the paper's reported settings).
pub fn default_config() -> XCleanConfig {
    XCleanConfig::default()
}

/// Builds the DBLP-substitute engine at the given scale
/// (scale 1.0 → 20 000 publications).
pub fn build_dblp(scale: f64, config: XCleanConfig) -> XCleanEngine {
    let publications = ((20_000.0 * scale) as usize).max(200);
    let tree = generate_dblp(&DblpConfig {
        publications,
        ..Default::default()
    });
    XCleanEngine::new(tree, config)
}

/// Builds the INEX-substitute engine at the given scale
/// (scale 1.0 → 3 000 articles).
pub fn build_inex(scale: f64, config: XCleanConfig) -> XCleanEngine {
    let articles = ((3_000.0 * scale) as usize).max(50);
    let tree = generate_inex(&InexConfig {
        articles,
        ..Default::default()
    });
    XCleanEngine::new(tree, config)
}

/// The three query sets (CLEAN, RAND, RULE) for one dataset.
pub fn query_sets(engine: &XCleanEngine, dataset: &str) -> Vec<QuerySet> {
    let spec = |p| match dataset {
        "DBLP" => WorkloadSpec::dblp(p),
        "INEX" => WorkloadSpec::inex(p),
        other => panic!("unknown dataset {other}"),
    };
    [Perturbation::Clean, Perturbation::Rand, Perturbation::Rule]
        .into_iter()
        .map(|p| make_workload(engine.corpus(), &spec(p)))
        .collect()
}

/// Publications of the large generated corpus the profile diagnostics
/// run over (scale 1.0 → the 100 000 of the `xbench` corpus).
pub fn profile_publications(scale: f64) -> usize {
    ((100_000.0 * scale) as usize).max(500)
}

/// The profile diagnostics' query pool: RAND then RULE dirty queries over
/// `corpus`, the shape of the `xbench` pool (scale 1.0 → 1024 of each)
/// but not its seeds.
pub fn profile_pool(corpus: &CorpusIndex, scale: f64) -> Vec<Vec<String>> {
    let per_set = ((1024.0 * scale) as usize).clamp(40, 1024);
    let mut pool = Vec::new();
    for perturbation in [Perturbation::Rand, Perturbation::Rule] {
        let spec = WorkloadSpec {
            n_queries: per_set,
            ..WorkloadSpec::dblp(perturbation)
        };
        let cases = make_workload(corpus, &spec).cases;
        pool.extend(cases.into_iter().map(|c| c.dirty));
    }
    pool
}

/// Builds the two simulated search engines from a synthetic query log:
/// the CLEAN workloads (what real users asked) with Zipf-ish frequencies,
/// plus the misspelling table. SE1 is stronger (ε=2, full table); SE2 is
/// weaker (ε=1, popularity-heavier) — mirroring that the two real engines
/// performed similarly but not identically.
pub fn build_search_engines(
    clean_sets: &[&QuerySet],
) -> (SearchEngineCorrector, SearchEngineCorrector) {
    let mut log: Vec<(String, u64)> = Vec::new();
    for set in clean_sets {
        for (i, case) in set.cases.iter().enumerate() {
            let freq = (1000 / (i + 1)) as u64 + 1;
            log.push((case.clean_string(), freq));
        }
    }
    let table: Vec<(String, String)> = COMMON_MISSPELLINGS
        .iter()
        .map(|&(m, c)| (m.to_string(), c.to_string()))
        .collect();
    let se1 = SearchEngineCorrector::build(
        log.iter().map(|(q, f)| (q.as_str(), *f)),
        table.clone(),
        SeConfig {
            epsilon: 2,
            beta: 5.0,
            alpha: 1.0,
        },
    );
    let se2 = SearchEngineCorrector::build(
        log.iter().map(|(q, f)| (q.as_str(), *f)),
        table,
        SeConfig {
            epsilon: 1,
            beta: 4.0,
            alpha: 1.5,
        },
    );
    (se1, se2)
}

/// Convenience: an engine with SLCA semantics sharing the same corpus
/// parameters (rebuilds the corpus; used by exp_slca).
pub fn build_dblp_slca(scale: f64, config: XCleanConfig) -> XCleanEngine {
    build_dblp(scale, config).with_semantics(Semantics::Slca)
}

/// INEX engine with SLCA semantics.
pub fn build_inex_slca(scale: f64, config: XCleanConfig) -> XCleanEngine {
    build_inex(scale, config).with_semantics(Semantics::Slca)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_builds_quickly() {
        let e = build_dblp(0.02, default_config());
        assert!(e.corpus().vocab().len() > 100);
        let sets = query_sets(&e, "DBLP");
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].name, "DBLP-CLEAN");
        assert_eq!(sets[1].name, "DBLP-RAND");
        assert_eq!(sets[2].name, "DBLP-RULE");
        assert!(!sets[1].cases.is_empty());
    }

    #[test]
    fn search_engines_build_from_clean_sets() {
        let e = build_dblp(0.02, default_config());
        let sets = query_sets(&e, "DBLP");
        let (se1, _se2) = build_search_engines(&[&sets[0]]);
        // A clean query term is known to the log.
        let case = &sets[0].cases[0];
        assert!(se1.knows(&case.clean[0]));
    }

    #[test]
    fn scale_env_parsing() {
        // No env set in tests → default.
        assert!(scale() > 0.0);
    }
}
