//! Tunable parameters of the XClean engine.

use crate::variants::PARTITION_THRESHOLD;

/// The entity prior `P(r_j|T)` of Eq. 8.
///
/// The paper evaluates the uniform prior and notes the framework "can be
/// easily generalized to non-uniform priors if additional data or domain
/// knowledge is available". [`EntityPrior::DocLength`] implements the
/// natural data-driven choice: an entity's prior mass is proportional to
/// its virtual-document length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntityPrior {
    /// `P(r_j|T) = 1/N` over the N nodes of the result type (the paper's
    /// setting).
    #[default]
    Uniform,
    /// `P(r_j|T) ∝ |D(r_j)|` — longer entities are a priori likelier
    /// targets.
    DocLength,
}

/// Configuration of the XClean suggestion engine. Field defaults follow
/// the settings the paper reports as best (§VII): β = 5, ε = 2, d = 2,
/// γ = 1000, k = 10. The paper's r = 0.8, its `|C_eff|` bound and its
/// FastSS partition threshold `l_p` are constants
/// ([`crate::result_type::DEPTH_DECAY`],
/// [`crate::walk::MAX_CANDIDATES_PER_SUBTREE`],
/// [`crate::variants::PARTITION_THRESHOLD`]).
#[derive(Debug, Clone, PartialEq)]
pub struct XCleanConfig {
    /// Maximum edit errors per keyword (ε of `var_ε(q)`).
    pub epsilon: usize,
    /// Error-model penalty β (Eq. 5). The paper's sweep (Table IV) finds
    /// β = 5 best.
    pub beta: f64,
    /// Minimal depth threshold `d`: result types shallower than this are
    /// not considered and subtrees are gated at this depth (§V-B). The
    /// paper finds d = 2 sufficient.
    pub min_depth: u32,
    /// Maximum number of in-memory score accumulators γ (§V-D). `None`
    /// disables pruning (keep every candidate).
    pub gamma: Option<usize>,
    /// Number of suggestions to return.
    pub k: usize,
    /// Always [`PARTITION_THRESHOLD`] (`l_p`): [`Self::check`] rejects
    /// any other value, and the engine reads the constant. The field
    /// stays only because the benchmark harness (`xbench/`) reads it.
    pub partition_threshold: usize,
    /// When `true` (default), the walk scans the level table's kept entity
    /// sets, so no subtree some keyword misses is visited; `false` walks
    /// the merged lists linearly, consuming every posting (ablation E11).
    pub enable_skipping: bool,
    /// The entity prior `P(r_j|T)` (Eq. 8).
    pub prior: EntityPrior,
    /// When set, Soundex-equal vocabulary words join each keyword's
    /// variant set with this pseudo edit distance (the §VI-A
    /// cognitive-error extension). `None` disables phonetic matching.
    pub phonetic_distance: Option<u32>,
    /// Language-model smoothing: Dirichlet with mass μ = 2000 by default
    /// (§IV-B2, the paper's setting); Jelinek–Mercer for the smoothing
    /// ablation.
    pub smoothing: xclean_lm::Smoothing,
    /// Worker threads across the queries of a `suggest_many` batch. One
    /// query always runs whole on one thread. `1` (default) runs fully sequentially; any value produces
    /// bit-identical suggestions (see DESIGN.md, "Concurrency &
    /// batching").
    pub num_threads: usize,
}

impl Default for XCleanConfig {
    fn default() -> Self {
        XCleanConfig {
            epsilon: 2,
            beta: 5.0,
            min_depth: 2,
            gamma: Some(1000),
            k: 10,
            partition_threshold: PARTITION_THRESHOLD,
            enable_skipping: true,
            prior: EntityPrior::Uniform,
            phonetic_distance: None,
            smoothing: xclean_lm::Smoothing::default(),
            num_threads: 1,
        }
    }
}

/// FNV-1a accumulation step, shared by the fingerprint methods.
#[inline]
pub(crate) fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

impl XCleanConfig {
    /// The smoothing scheme the language model uses: `smoothing` itself,
    /// kept as an accessor because the benchmark harness (`xbench/`)
    /// reads it.
    pub fn effective_smoothing(&self) -> xclean_lm::Smoothing {
        self.smoothing
    }

    /// A 64-bit FNV-1a fingerprint of every *result-relevant* parameter.
    ///
    /// Two configs with equal fingerprints produce bit-identical
    /// suggestions for the same query over the same corpus. `num_threads`
    /// is deliberately excluded: the engine guarantees it never changes
    /// results, only wall-clock. The fixed constants of the model (r,
    /// `|C_eff|`, `l_p`) are not hashed either: they are the same for every
    /// valid config, `partition_threshold` included. The serving layer
    /// keys its response cache on this
    /// value so entries can never leak across configurations.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv1a(&mut h, &(self.epsilon as u64).to_le_bytes());
        fnv1a(&mut h, &self.beta.to_bits().to_le_bytes());
        fnv1a(&mut h, &u64::from(self.min_depth).to_le_bytes());
        // Option/enum values get a tag byte so `None` can never collide
        // with a payload that happens to encode to the same bytes.
        match self.gamma {
            None => fnv1a(&mut h, &[0]),
            Some(g) => {
                fnv1a(&mut h, &[1]);
                fnv1a(&mut h, &(g as u64).to_le_bytes());
            }
        }
        fnv1a(&mut h, &(self.k as u64).to_le_bytes());
        fnv1a(&mut h, &[u8::from(self.enable_skipping)]);
        fnv1a(
            &mut h,
            &[match self.prior {
                EntityPrior::Uniform => 0,
                EntityPrior::DocLength => 1,
            }],
        );
        match self.phonetic_distance {
            None => fnv1a(&mut h, &[0]),
            Some(d) => {
                fnv1a(&mut h, &[1]);
                fnv1a(&mut h, &u64::from(d).to_le_bytes());
            }
        }
        match self.smoothing {
            xclean_lm::Smoothing::Dirichlet { mu } => {
                fnv1a(&mut h, &[0]);
                fnv1a(&mut h, &mu.to_bits().to_le_bytes());
            }
            xclean_lm::Smoothing::JelinekMercer { lambda } => {
                fnv1a(&mut h, &[1]);
                fnv1a(&mut h, &lambda.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Names the first out-of-range parameter, if any. Input that arrives
    /// from outside (CLI flags) is held to this, so a bad value is a usage
    /// error instead of a panic.
    pub fn check(&self) -> Result<(), &'static str> {
        self.smoothing.check()?;
        let rules = [
            (self.beta >= 0.0, "β must be non-negative"),
            (self.min_depth >= 1, "min depth must be at least 1"),
            (self.k >= 1, "k must be at least 1"),
            (
                self.gamma.is_none_or(|g| g >= 1),
                "γ must be at least 1 when set",
            ),
            (self.num_threads >= 1, "num_threads must be at least 1"),
            (
                self.partition_threshold == PARTITION_THRESHOLD,
                "partition_threshold is fixed at 14",
            ),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            Some(&(_, reason)) => Err(reason),
            None => Ok(()),
        }
    }

    /// Panics on an out-of-range parameter (see [`Self::check`]). Called
    /// by the engine constructors, where a bad value is a programming
    /// error.
    pub fn validate(&self) {
        if let Err(m) = self.check() {
            panic!("{m}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = XCleanConfig::default();
        assert_eq!(c.beta, 5.0);
        assert_eq!(c.min_depth, 2);
        assert_eq!(c.gamma, Some(1000));
        assert_eq!(c.smoothing, xclean_lm::Smoothing::Dirichlet { mu: 2000.0 });
        c.validate();
    }

    #[test]
    fn fingerprint_tracks_scoring_params_only() {
        let base = XCleanConfig::default();
        assert_eq!(base.fingerprint(), XCleanConfig::default().fingerprint());
        // The thread count never changes results, so it must not change
        // the fingerprint either.
        let threaded = XCleanConfig {
            num_threads: 8,
            ..Default::default()
        };
        assert_eq!(base.fingerprint(), threaded.fingerprint());
        // Every scoring parameter must perturb it.
        for changed in [
            XCleanConfig {
                beta: 4.0,
                ..Default::default()
            },
            XCleanConfig {
                gamma: None,
                ..Default::default()
            },
            XCleanConfig {
                gamma: Some(999),
                ..Default::default()
            },
            XCleanConfig {
                epsilon: 1,
                ..Default::default()
            },
            XCleanConfig {
                k: 5,
                ..Default::default()
            },
            XCleanConfig {
                smoothing: xclean_lm::Smoothing::Dirichlet { mu: 1999.0 },
                ..Default::default()
            },
            XCleanConfig {
                smoothing: xclean_lm::Smoothing::JelinekMercer { lambda: 0.5 },
                ..Default::default()
            },
            XCleanConfig {
                phonetic_distance: Some(1),
                ..Default::default()
            },
            XCleanConfig {
                prior: EntityPrior::DocLength,
                ..Default::default()
            },
            XCleanConfig {
                enable_skipping: false,
                ..Default::default()
            },
        ] {
            assert_ne!(base.fingerprint(), changed.fingerprint(), "{changed:?}");
        }
    }

    #[test]
    fn check_names_the_bad_value_without_panicking() {
        assert_eq!(XCleanConfig::default().check(), Ok(()));
        let bad = |c: XCleanConfig| c.check().unwrap_err();
        assert_eq!(
            bad(XCleanConfig {
                k: 0,
                ..Default::default()
            }),
            "k must be at least 1"
        );
        assert_eq!(
            bad(XCleanConfig {
                beta: f64::NAN,
                ..Default::default()
            }),
            "β must be non-negative"
        );
        assert_eq!(
            bad(XCleanConfig {
                smoothing: xclean_lm::Smoothing::JelinekMercer { lambda: 1.0 },
                ..Default::default()
            }),
            "λ must be in (0, 1)"
        );
        assert_eq!(
            bad(XCleanConfig {
                partition_threshold: 10,
                ..Default::default()
            }),
            "partition_threshold is fixed at 14"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_mu_rejected() {
        XCleanConfig {
            smoothing: xclean_lm::Smoothing::Dirichlet { mu: 0.0 },
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "num_threads must be at least 1")]
    fn zero_threads_rejected() {
        XCleanConfig {
            num_threads: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_gamma_rejected() {
        XCleanConfig {
            gamma: Some(0),
            ..Default::default()
        }
        .validate();
    }
}
