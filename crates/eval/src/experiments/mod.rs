//! The paper's experiments (§VII), the ablations this reproduction adds
//! and the two profile diagnostics, as library code: each is one
//! [`Experiment`] whose [`run`](Experiment::run) returns a [`Report`].
//! The `exp` binary prints them; `tests/claims.rs` and `tests/goldens.rs`
//! check them. DESIGN.md §4 indexes them; EXPERIMENTS.md records their
//! results.

mod paper;
mod variant_profile;
mod walk_profile;

use crate::report::Report;

/// One experiment. Its [`name`](Experiment::name) is the `exp` argument
/// and the stem of its `results/exp_<name>.txt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// E1, Table I: dataset statistics.
    Datasets,
    /// E2, Table II: the six query sets and a sample of each.
    QuerySets,
    /// E3, Table III: example suggestions, XClean vs PY08.
    Examples,
    /// E4, Figure 3: MRR of every system on every query set.
    Mrr,
    /// E5, Figure 4(a)–(f): Precision@N.
    Precision,
    /// E6, Table IV: MRR vs the error penalty β.
    BetaSweep,
    /// E7, Table V: MRR vs the accumulator budget γ.
    GammaSweep,
    /// E8, Table VI: average running time per query.
    Timing,
    /// E10, §VI-B: node-type vs SLCA vs ELCA semantics.
    Slca,
    /// E11: ablations of skipping, minimal depth and pruning.
    Ablation,
    /// E12: uniform vs document-length entity prior.
    Prior,
    /// E13: Dirichlet vs Jelinek–Mercer smoothing.
    Smoothing,
    /// Diagnostic: who pays for Algorithm 1's walk.
    WalkProfile,
    /// Diagnostic: where a `var_ε(q_i)` lookup goes.
    VariantProfile,
}

impl Experiment {
    /// Every experiment, in the order `run_experiments.sh` runs them.
    pub const ALL: [Experiment; 14] = [
        Experiment::Datasets,
        Experiment::QuerySets,
        Experiment::Examples,
        Experiment::Mrr,
        Experiment::Precision,
        Experiment::BetaSweep,
        Experiment::GammaSweep,
        Experiment::Timing,
        Experiment::Slca,
        Experiment::Ablation,
        Experiment::Prior,
        Experiment::Smoothing,
        Experiment::WalkProfile,
        Experiment::VariantProfile,
    ];

    /// The experiment's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Datasets => "datasets",
            Experiment::QuerySets => "querysets",
            Experiment::Examples => "examples",
            Experiment::Mrr => "mrr",
            Experiment::Precision => "precision",
            Experiment::BetaSweep => "beta_sweep",
            Experiment::GammaSweep => "gamma_sweep",
            Experiment::Timing => "timing",
            Experiment::Slca => "slca",
            Experiment::Ablation => "ablation",
            Experiment::Prior => "prior",
            Experiment::Smoothing => "smoothing",
            Experiment::WalkProfile => "walk_profile",
            Experiment::VariantProfile => "variant_profile",
        }
    }

    /// Runs the experiment with its corpora scaled by `scale` (1.0 is the
    /// size EXPERIMENTS.md records). Timed experiments should run in a
    /// release build.
    pub fn run(self, scale: f64) -> Report {
        match self {
            Experiment::Datasets => paper::e1_datasets(scale),
            Experiment::QuerySets => paper::e2_query_sets(scale),
            Experiment::Examples => paper::e3_examples(scale),
            Experiment::Mrr => paper::e4_mrr(scale),
            Experiment::Precision => paper::e5_precision(scale),
            Experiment::BetaSweep => paper::e6_beta_sweep(scale),
            Experiment::GammaSweep => paper::e7_gamma_sweep(scale),
            Experiment::Timing => paper::e8_timing(scale),
            Experiment::Slca => paper::e10_semantics(scale),
            Experiment::Ablation => paper::e11_ablation(scale),
            Experiment::Prior => paper::e12_prior(scale),
            Experiment::Smoothing => paper::e13_smoothing(scale),
            Experiment::WalkProfile => walk_profile::run(scale),
            Experiment::VariantProfile => variant_profile::run(scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = Experiment::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Experiment::ALL.len());
    }
}
