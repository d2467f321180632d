//! The paper's Dirichlet-smoothed unigram model (§IV-B2, Eq. before Eq. 7),
//! as [`LanguageModel`] computes it under [`Smoothing::Dirichlet`]
//! (test-only):
//!
//! ```text
//! p(w|D) = (count(w, D) + μ · p(w|B)) / (|D| + μ)
//! ```
//!
//! where `B` is the background (whole-collection) model and μ the
//! smoothing mass. Entities' virtual documents `D(r)` supply `count` and
//! `|D|`; the corpus vocabulary supplies `p(w|B)`.

mod tests {
    use crate::{LanguageModel, Smoothing};
    use xclean_index::CorpusIndex;
    use xclean_xmltree::parse_document;

    fn corpus() -> CorpusIndex {
        let xml = "<r>\
            <d>apple apple banana</d>\
            <d>banana cherry</d>\
            <d>apple cherry cherry durian</d>\
        </r>";
        CorpusIndex::build(parse_document(xml).unwrap())
    }

    fn dirichlet(c: &CorpusIndex, mu: f64) -> LanguageModel<'_> {
        LanguageModel::new(c, Smoothing::Dirichlet { mu })
    }

    #[test]
    fn present_token_beats_absent_token() {
        let c = corpus();
        let m = dirichlet(&c, 100.0);
        let apple = c.vocab().get("apple").unwrap();
        let durian = c.vocab().get("durian").unwrap();
        // In a doc of length 3 with 2 apples and 0 durians:
        assert!(m.log_prob(apple, 2, 3) > m.log_prob(durian, 0, 3));
    }

    #[test]
    fn smoothing_gives_nonzero_to_absent_tokens() {
        let c = corpus();
        let m = dirichlet(&c, 100.0);
        let durian = c.vocab().get("durian").unwrap();
        let lp = m.log_prob(durian, 0, 3);
        assert!(lp.is_finite());
        assert!(lp < 0.0);
    }

    #[test]
    fn matches_formula_exactly() {
        let c = corpus();
        let mu = 50.0;
        let m = dirichlet(&c, mu);
        let banana = c.vocab().get("banana").unwrap();
        // cf(banana)=2, total=9 → p(w|B)=2/9
        let expect = ((1.0 + mu * (2.0 / 9.0)) / (4.0 + mu)).ln();
        let got = m.log_prob(banana, 1, 4);
        assert!((got - expect).abs() < 1e-12);
        // Bit for bit, present and absent, an empty document included.
        let apple = c.vocab().get("apple").unwrap();
        let pb = c.background_prob(apple);
        for (count, dlen) in [(0u64, 3u64), (1, 3), (2, 5), (0, 0)] {
            let expect = ((count as f64 + mu * pb) / (dlen as f64 + mu)).ln();
            assert_eq!(m.log_prob(apple, count, dlen).to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn distribution_sums_to_one_over_vocabulary() {
        let c = corpus();
        let m = dirichlet(&c, 10.0);
        // For any fixed document, Σ_w p(w|D) over the vocabulary is 1 when
        // counts are the document's true counts. Use doc = first <d>.
        let doc_counts = [("apple", 2u64), ("banana", 1), ("cherry", 0), ("durian", 0)];
        let doc_len = 3u64;
        let sum: f64 = doc_counts
            .iter()
            .map(|&(w, cnt)| {
                let t = c.vocab().get(w).unwrap();
                m.log_prob(t, cnt, doc_len).exp()
            })
            .sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum was {sum}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mu_rejected() {
        let c = corpus();
        let _ = dirichlet(&c, 0.0);
    }

    #[test]
    fn negative_and_nan_mu_rejected() {
        for mu in [-1.0, f64::NAN] {
            assert_eq!(
                Smoothing::Dirichlet { mu }.check(),
                Err("μ must be positive")
            );
        }
    }
}
