//! Unified smoothed unigram language model.
//!
//! The paper uses Dirichlet smoothing (§IV-B2) as "the state-of-the-art";
//! Jelinek–Mercer interpolation is the other standard choice in the
//! Zhai–Lafferty family and is provided for the smoothing ablation:
//!
//! ```text
//! Dirichlet:      p(w|D) = (count + μ·p(w|B)) / (|D| + μ)
//! Jelinek–Mercer: p(w|D) = (1−λ)·count/|D| + λ·p(w|B)
//! ```

use xclean_index::{CorpusIndex, TokenId, Vocabulary};

/// Smoothing scheme and its parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Smoothing {
    /// Dirichlet prior with mass `mu` (the paper's choice).
    Dirichlet {
        /// Smoothing mass μ > 0.
        mu: f64,
    },
    /// Linear interpolation with background weight `lambda` ∈ (0, 1).
    JelinekMercer {
        /// Background interpolation weight λ.
        lambda: f64,
    },
}

impl Default for Smoothing {
    /// Dirichlet with μ = 2000 (the common LM-IR default).
    fn default() -> Self {
        Smoothing::Dirichlet { mu: 2000.0 }
    }
}

impl Smoothing {
    /// Names the out-of-range parameter, if any (NaN is out of range).
    pub fn check(&self) -> Result<(), &'static str> {
        match *self {
            Smoothing::Dirichlet { mu } if mu > 0.0 => Ok(()),
            Smoothing::Dirichlet { .. } => Err("μ must be positive"),
            Smoothing::JelinekMercer { lambda } if lambda > 0.0 && lambda < 1.0 => Ok(()),
            Smoothing::JelinekMercer { .. } => Err("λ must be in (0, 1)"),
        }
    }

    /// Panics on out-of-range parameters (see [`Self::check`]).
    pub fn validate(&self) {
        if let Err(m) = self.check() {
            panic!("{m}");
        }
    }
}

/// Where the background distribution `p(w|B)` comes from: a whole corpus
/// index, or a bare vocabulary (e.g. the reconstructed *global* vocabulary
/// of a sharded corpus, where no single `CorpusIndex` holds the collection
/// statistics). Both compute `cf(w) / total_tokens`, so the same token
/// statistics give bit-identical probabilities either way.
#[derive(Debug, Clone, Copy)]
enum Background<'a> {
    Corpus(&'a CorpusIndex),
    Vocab(&'a Vocabulary),
}

impl Background<'_> {
    #[inline]
    fn prob(&self, token: TokenId) -> f64 {
        match self {
            Background::Corpus(c) => c.background_prob(token),
            Background::Vocab(v) => v.background_prob(token),
        }
    }
}

/// Smoothed unigram model over a corpus, generalising
/// [`crate::DirichletModel`].
#[derive(Debug, Clone, Copy)]
pub struct LanguageModel<'a> {
    background: Background<'a>,
    smoothing: Smoothing,
}

impl<'a> LanguageModel<'a> {
    /// Creates the model; panics on invalid parameters.
    pub fn new(corpus: &'a CorpusIndex, smoothing: Smoothing) -> Self {
        smoothing.validate();
        LanguageModel {
            background: Background::Corpus(corpus),
            smoothing,
        }
    }

    /// Creates the model over a bare vocabulary's collection statistics;
    /// panics on invalid parameters. Given the same per-token `cf` and
    /// total, probabilities are bit-identical to [`LanguageModel::new`].
    pub fn from_vocab(vocab: &'a Vocabulary, smoothing: Smoothing) -> Self {
        smoothing.validate();
        LanguageModel {
            background: Background::Vocab(vocab),
            smoothing,
        }
    }

    /// The active smoothing scheme.
    pub fn smoothing(&self) -> Smoothing {
        self.smoothing
    }

    /// `log p(w|D)` for a token with `count` occurrences in a virtual
    /// document of `doc_len` tokens.
    pub fn log_prob(&self, token: TokenId, count: u64, doc_len: u64) -> f64 {
        let pb = self.background.prob(token);
        let p = match self.smoothing {
            Smoothing::Dirichlet { mu } => (count as f64 + mu * pb) / (doc_len as f64 + mu),
            Smoothing::JelinekMercer { lambda } => {
                let ml = if doc_len == 0 {
                    0.0
                } else {
                    count as f64 / doc_len as f64
                };
                (1.0 - lambda) * ml + lambda * pb
            }
        };
        if p <= 0.0 {
            f64::NEG_INFINITY
        } else {
            p.ln()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_xmltree::parse_document;

    fn corpus() -> CorpusIndex {
        CorpusIndex::build(
            parse_document("<r><d>apple apple banana</d><d>banana cherry</d></r>").unwrap(),
        )
    }

    #[test]
    fn dirichlet_matches_dedicated_model() {
        let c = corpus();
        let a = LanguageModel::new(&c, Smoothing::Dirichlet { mu: 50.0 });
        let b = crate::DirichletModel::new(&c, 50.0);
        let apple = c.vocab().get("apple").unwrap();
        for (count, dlen) in [(0u64, 3u64), (1, 3), (2, 5), (0, 0)] {
            assert!(
                (a.log_prob(apple, count, dlen) - b.log_prob(apple, count, dlen)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn jelinek_mercer_matches_formula() {
        let c = corpus();
        let m = LanguageModel::new(&c, Smoothing::JelinekMercer { lambda: 0.3 });
        let banana = c.vocab().get("banana").unwrap();
        // cf(banana)=2, total=5 → pb = 0.4
        let expect = (0.7 * (1.0 / 4.0) + 0.3 * 0.4f64).ln();
        assert!((m.log_prob(banana, 1, 4) - expect).abs() < 1e-12);
    }

    #[test]
    fn jm_distribution_sums_to_one() {
        let c = corpus();
        let m = LanguageModel::new(&c, Smoothing::JelinekMercer { lambda: 0.25 });
        // doc = first <d>: apple×2 banana×1, length 3.
        let counts = [("apple", 2u64), ("banana", 1), ("cherry", 0)];
        let sum: f64 = counts
            .iter()
            .map(|&(w, cnt)| m.log_prob(c.vocab().get(w).unwrap(), cnt, 3).exp())
            .sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn present_beats_absent_under_both() {
        let c = corpus();
        let apple = c.vocab().get("apple").unwrap();
        let cherry = c.vocab().get("cherry").unwrap();
        for s in [
            Smoothing::Dirichlet { mu: 100.0 },
            Smoothing::JelinekMercer { lambda: 0.4 },
        ] {
            let m = LanguageModel::new(&c, s);
            assert!(m.log_prob(apple, 2, 3) > m.log_prob(cherry, 0, 3), "{s:?}");
        }
    }

    #[test]
    fn vocab_background_matches_corpus_background() {
        let c = corpus();
        for s in [
            Smoothing::Dirichlet { mu: 77.0 },
            Smoothing::JelinekMercer { lambda: 0.3 },
        ] {
            let a = LanguageModel::new(&c, s);
            let b = LanguageModel::from_vocab(c.vocab(), s);
            for w in ["apple", "banana", "cherry"] {
                let t = c.vocab().get(w).unwrap();
                for (count, dlen) in [(0u64, 3u64), (1, 3), (2, 5), (0, 0)] {
                    assert_eq!(
                        a.log_prob(t, count, dlen).to_bits(),
                        b.log_prob(t, count, dlen).to_bits(),
                        "{s:?} {w} {count}/{dlen}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "λ must be in")]
    fn invalid_lambda_rejected() {
        let c = corpus();
        let _ = LanguageModel::new(&c, Smoothing::JelinekMercer { lambda: 1.0 });
    }
}
