//! Per-keyword variant generation (`var_ε(q_i)`, §V-A).
//!
//! Wraps the FastSS index built over the corpus vocabulary and produces,
//! for each query keyword, the list of vocabulary tokens within edit
//! distance ε together with their exact distances.

use std::collections::HashMap;

use xclean_fastss::{soundex, SoundexCode, VariantIndex, VariantIndexConfig};
use xclean_index::{CorpusIndex, TokenId};

/// One variant of a query keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// The vocabulary token.
    pub token: TokenId,
    /// Edit distance from the observed keyword.
    pub distance: u32,
}

/// The paper's `l_p` (§V-A): vocabulary words longer than this many
/// characters use the partitioned FastSS scheme.
pub const PARTITION_THRESHOLD: usize = 14;

/// Variant generator over a corpus vocabulary.
#[derive(Debug)]
pub struct VariantGenerator {
    index: VariantIndex,
    /// Soundex code → vocabulary tokens, built on demand for the
    /// cognitive-error extension (§VI-A); `None` until requested.
    phonetic: Option<HashMap<SoundexCode, Vec<TokenId>>>,
}

impl VariantGenerator {
    /// Builds the FastSS index over the corpus vocabulary: the paper's
    /// offline step of §V-A, which every engine start runs here. Token
    /// ids in the produced [`Variant`]s are the corpus's.
    pub fn build(corpus: &CorpusIndex, epsilon: usize, partition_threshold: usize) -> Self {
        let terms: Vec<&str> = corpus.vocab().iter_terms().collect();
        let index = VariantIndex::build(
            &terms,
            VariantIndexConfig {
                epsilon,
                partition_threshold,
            },
        );
        VariantGenerator {
            index,
            phonetic: None,
        }
    }

    /// Additionally indexes the vocabulary by Soundex code, enabling
    /// [`Self::variants_with_phonetic`] (the §VI-A cognitive-error
    /// extension).
    pub fn with_phonetic_index(mut self, corpus: &CorpusIndex) -> Self {
        let mut map: HashMap<SoundexCode, Vec<TokenId>> = HashMap::new();
        for (i, term) in corpus.vocab().iter_terms().enumerate() {
            if let Some(code) = soundex(term) {
                map.entry(code).or_default().push(TokenId(i as u32));
            }
        }
        self.phonetic = Some(map);
        self
    }

    /// `var(q)` extended with *cognitive* variants: all vocabulary tokens
    /// sharing the keyword's Soundex code, assigned `phonetic_distance`
    /// unless an edit-based match already gives them a smaller distance.
    /// Requires [`Self::with_phonetic_index`].
    pub fn variants_with_phonetic(&self, keyword: &str, phonetic_distance: u32) -> Vec<Variant> {
        let mut out = self.variants(keyword);
        let Some(map) = &self.phonetic else {
            return out;
        };
        let Some(code) = soundex(keyword) else {
            return out;
        };
        if let Some(tokens) = map.get(&code) {
            for &t in tokens {
                if !out.iter().any(|v| v.token == t) {
                    out.push(Variant {
                        token: t,
                        distance: phonetic_distance,
                    });
                }
            }
        }
        out.sort_unstable_by_key(|v| (v.distance, v.token));
        out
    }

    /// `var_ε(q)`: vocabulary tokens within ε edits of `keyword`, sorted
    /// by (distance, token id). The keyword itself is included with
    /// distance 0 when it is in the vocabulary.
    pub fn variants(&self, keyword: &str) -> Vec<Variant> {
        self.index
            .query(keyword)
            .into_iter()
            .map(|m| Variant {
                token: TokenId(m.word),
                distance: m.distance,
            })
            .collect()
    }

    /// Like [`Self::variants`] with a per-call tightened threshold.
    pub fn variants_within(&self, keyword: &str, max_ed: usize) -> Vec<Variant> {
        self.index
            .query_within(keyword, max_ed)
            .into_iter()
            .map(|m| Variant {
                token: TokenId(m.word),
                distance: m.distance,
            })
            .collect()
    }

    /// The ε the generator was built with.
    pub fn epsilon(&self) -> usize {
        self.index.epsilon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_xmltree::parse_document;

    fn corpus() -> CorpusIndex {
        let xml = "<r><p>tree trees trie icde icdt health insurance instance</p></r>";
        CorpusIndex::build(parse_document(xml).unwrap())
    }

    #[test]
    fn paper_example2_variants() {
        let c = corpus();
        let g = VariantGenerator::build(&c, 1, 14);
        let names = |vs: &[Variant]| -> Vec<String> {
            vs.iter()
                .map(|v| c.vocab().term(v.token).to_string())
                .collect()
        };
        let v = g.variants("tree");
        assert_eq!(names(&v), vec!["tree", "trees", "trie"]);
        assert_eq!(v[0].distance, 0);
        let v = g.variants("icdt");
        assert_eq!(names(&v), vec!["icdt", "icde"]);
    }

    #[test]
    fn out_of_vocabulary_keyword_still_gets_variants() {
        let c = corpus();
        let g = VariantGenerator::build(&c, 2, 14);
        let v = g.variants("helth");
        assert_eq!(v.len(), 1);
        assert_eq!(c.vocab().term(v[0].token), "health");
        assert_eq!(v[0].distance, 1);
    }

    #[test]
    fn hopeless_keyword_has_no_variants() {
        let c = corpus();
        let g = VariantGenerator::build(&c, 2, 14);
        assert!(g.variants("zzzzzzzz").is_empty());
    }

    #[test]
    fn phonetic_variants_extend_the_set() {
        let xml = "<r><p>rupert robert smith katherine</p></r>";
        let c = CorpusIndex::build(xclean_xmltree::parse_document(xml).unwrap());
        let g = VariantGenerator::build(&c, 1, 14).with_phonetic_index(&c);
        // "rabard" (R163) is ≥2 edits from both robert and rupert, so at
        // ε=1 edit matching finds nothing — both arrive phonetically.
        assert!(g.variants("rabard").is_empty());
        let vars = g.variants_with_phonetic("rabard", 2);
        let names: Vec<&str> = vars.iter().map(|v| c.vocab().term(v.token)).collect();
        assert!(names.contains(&"rupert"), "{names:?}");
        assert!(names.contains(&"robert"), "{names:?}");
        assert!(vars.iter().all(|v| v.distance == 2));
        // Edit distance wins when smaller: "rupert" itself stays at 0.
        let vars = g.variants_with_phonetic("rupert", 2);
        let self_match = vars
            .iter()
            .find(|v| c.vocab().term(v.token) == "rupert")
            .unwrap();
        assert_eq!(self_match.distance, 0);
    }

    #[test]
    fn phonetic_without_index_degrades_gracefully() {
        let c = corpus();
        let g = VariantGenerator::build(&c, 1, 14);
        assert_eq!(g.variants_with_phonetic("tree", 2), g.variants("tree"));
    }
}
