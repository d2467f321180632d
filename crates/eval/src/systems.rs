//! The systems under evaluation, behind one suggestion interface.
//!
//! §VII-B compares XClean against the adapted PY08 baseline and two
//! commercial search engines (simulated here by a query-log corrector;
//! see `xclean_baselines::selog`). All are wrapped in [`Suggester`] so the
//! harness can treat them uniformly.

use xclean::{KeywordSlot, Semantics, XCleanConfig, XCleanEngine};
use xclean_baselines::{Py08, SearchEngineCorrector};
use xclean_index::CorpusIndex;

/// A system that maps a keyword query to ranked alternative queries.
pub trait Suggester {
    /// System name used in result tables.
    fn name(&self) -> &str;

    /// Ranked suggestions (term sequences), best first.
    fn suggest(&self, keywords: &[String]) -> Vec<Vec<String>>;
}

/// XClean with any semantics, under the engine's configuration or a
/// per-call override.
pub struct XCleanSuggester<'a> {
    engine: &'a XCleanEngine,
    config: Option<XCleanConfig>,
    label: String,
}

impl<'a> XCleanSuggester<'a> {
    /// Wraps an engine; the label reflects its semantics.
    pub fn new(engine: &'a XCleanEngine) -> Self {
        let label = match engine.semantics() {
            Semantics::NodeType => "XClean".to_string(),
            Semantics::Slca => "XClean-SLCA".to_string(),
            Semantics::Elca => "XClean-ELCA".to_string(),
        };
        XCleanSuggester {
            engine,
            config: None,
            label,
        }
    }

    /// Suggests with `config` instead of the engine's own (the parameter
    /// sweeps).
    pub fn with_config(self, config: XCleanConfig) -> Self {
        XCleanSuggester {
            config: Some(config),
            ..self
        }
    }
}

impl Suggester for XCleanSuggester<'_> {
    fn name(&self) -> &str {
        &self.label
    }

    fn suggest(&self, keywords: &[String]) -> Vec<Vec<String>> {
        let config = self.config.as_ref().unwrap_or(self.engine.config());
        self.engine
            .suggest_keywords_with(keywords, config)
            .suggestions
            .into_iter()
            .map(|s| s.terms)
            .collect()
    }
}

/// PY08 baseline wrapper (owns the variant generation path the paper
/// grants it too).
pub struct Py08Suggester<'a> {
    py08: Py08,
    engine: &'a XCleanEngine,
    k: usize,
}

impl<'a> Py08Suggester<'a> {
    /// Builds PY08 over the same corpus/variant machinery as the engine.
    pub fn new(engine: &'a XCleanEngine, corpus: &CorpusIndex, gamma: usize) -> Self {
        let cfg: &XCleanConfig = engine.config();
        Py08Suggester {
            py08: Py08::build(corpus, cfg.beta, gamma),
            engine,
            k: cfg.k,
        }
    }
}

impl Suggester for Py08Suggester<'_> {
    fn name(&self) -> &str {
        "PY08"
    }

    fn suggest(&self, keywords: &[String]) -> Vec<Vec<String>> {
        let slots: Vec<KeywordSlot> = self.engine.make_slots(keywords);
        let corpus = self.engine.corpus();
        self.py08
            .suggest(corpus, &slots, self.k)
            .into_iter()
            .map(|c| {
                c.tokens
                    .iter()
                    .map(|&t| corpus.vocab().term(t).to_string())
                    .collect()
            })
            .collect()
    }
}

/// Simulated search engine. Returns at most one suggestion; when it stays
/// silent the input query itself is reported (rank-1 identity), matching
/// how the paper scores the engines on CLEAN sets.
pub struct SeSuggester {
    corrector: SearchEngineCorrector,
    label: String,
}

impl SeSuggester {
    /// Wraps a log-based corrector under a display name (`SE1`, `SE2`).
    pub fn new(corrector: SearchEngineCorrector, label: &str) -> Self {
        SeSuggester {
            corrector,
            label: label.to_string(),
        }
    }
}

impl Suggester for SeSuggester {
    fn name(&self) -> &str {
        &self.label
    }

    fn suggest(&self, keywords: &[String]) -> Vec<Vec<String>> {
        match self.corrector.suggest(keywords) {
            Some(fix) => vec![fix],
            None => vec![keywords.to_vec()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_baselines::SeConfig;
    use xclean_xmltree::parse_document;

    fn engine() -> XCleanEngine {
        let xml = "<db>\
            <rec><t>health insurance</t></rec>\
            <rec><t>program instance</t></rec>\
        </db>";
        XCleanEngine::new(parse_document(xml).unwrap(), XCleanConfig::default())
    }

    fn kw(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn xclean_suggester_roundtrip() {
        let e = engine();
        let s = XCleanSuggester::new(&e);
        assert_eq!(s.name(), "XClean");
        let out = s.suggest(&kw(&["helth", "insurance"]));
        assert_eq!(out[0], kw(&["health", "insurance"]));
    }

    #[test]
    fn py08_suggester_runs() {
        let e = engine();
        let s = Py08Suggester::new(&e, e.corpus(), 100);
        assert_eq!(s.name(), "PY08");
        let out = s.suggest(&kw(&["helth", "insurance"]));
        assert!(!out.is_empty());
    }

    #[test]
    fn se_suggester_identity_on_silence() {
        let corr = SearchEngineCorrector::build(
            [("health insurance", 10)],
            std::iter::empty(),
            SeConfig::default(),
        );
        let s = SeSuggester::new(corr, "SE1");
        let clean = kw(&["health", "insurance"]);
        assert_eq!(s.suggest(&clean), vec![clean.clone()]);
        let out = s.suggest(&kw(&["helth", "insurance"]));
        assert_eq!(out, vec![clean]);
    }
}
