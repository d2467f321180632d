//! Shared experiment setup: the two corpora, their engines, query sets,
//! and the simulated search engines. Every experiment builds its inputs
//! through this module so experiments are consistent and reproducible.

use xclean::{XCleanConfig, XCleanEngine};
use xclean_baselines::{SeConfig, SearchEngineCorrector};
use xclean_datagen::{
    generate_dblp, generate_inex, make_workload, DblpConfig, InexConfig, Perturbation, QuerySet,
    WorkloadSpec, COMMON_MISSPELLINGS,
};
use xclean_index::CorpusIndex;

/// Parses a corpus scale factor (the `exp` binary's `XCLEAN_SCALE`):
/// anything but a positive number means 1.0.
pub fn parse_scale(text: &str) -> f64 {
    text.parse().ok().filter(|&s: &f64| s > 0.0).unwrap_or(1.0)
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

/// One corpus of the paper's pair: its engine (the paper's settings,
/// `XCleanConfig::default()`) and its CLEAN, RAND and RULE query sets.
pub struct Dataset {
    /// `DBLP` or `INEX`.
    pub name: &'static str,
    /// The engine over the generated corpus.
    pub engine: XCleanEngine,
    /// CLEAN, RAND, RULE (see [`query_sets`]).
    pub query_sets: Vec<QuerySet>,
}

impl Dataset {
    /// The DBLP substitute at `scale`.
    pub fn dblp(scale: f64) -> Dataset {
        Dataset::new("DBLP", build_dblp(scale, XCleanConfig::default()))
    }

    /// The INEX substitute at `scale`.
    pub fn inex(scale: f64) -> Dataset {
        Dataset::new("INEX", build_inex(scale, XCleanConfig::default()))
    }

    fn new(name: &'static str, engine: XCleanEngine) -> Dataset {
        let query_sets = query_sets(&engine, name);
        Dataset {
            name,
            engine,
            query_sets,
        }
    }
}

/// Both corpora, DBLP first.
pub fn datasets(scale: f64) -> [Dataset; 2] {
    [Dataset::dblp(scale), Dataset::inex(scale)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_builds_quickly() {
        let dblp = Dataset::dblp(0.02);
        assert!(dblp.engine.corpus().vocab().len() > 100);
        let sets = &dblp.query_sets;
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].name, "DBLP-CLEAN");
        assert_eq!(sets[1].name, "DBLP-RAND");
        assert_eq!(sets[2].name, "DBLP-RULE");
        assert!(!sets[1].cases.is_empty());
    }

    #[test]
    fn search_engines_build_from_clean_sets() {
        let sets = Dataset::dblp(0.02).query_sets;
        let (se1, _se2) = build_search_engines(&[&sets[0]]);
        // A clean query term is known to the log.
        let case = &sets[0].cases[0];
        assert!(se1.knows(&case.clean[0]));
    }

    #[test]
    fn scale_parsing_falls_back_to_one() {
        for text in ["0", "-1", "abc", ""] {
            assert_eq!(parse_scale(text), 1.0, "{text:?}");
        }
        assert_eq!(parse_scale("0.05"), 0.05);
        assert_eq!(parse_scale("2"), 2.0);
    }
}
