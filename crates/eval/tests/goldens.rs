//! Golden tables: every paper experiment (E1–E8, E10–E13) at scale 0.02,
//! wall-clock cells masked, compared byte for byte with
//! `tests/goldens/<name>.txt`. A change that moves an answer fails here
//! and regenerates the golden visibly: the failure writes the actual text
//! to `target/goldens/` and names the `cp` that accepts it.
//!
//! The two profiles are not here: their deciles are ordered by time.

use std::path::Path;

use xclean_eval::Experiment;

const SCALE: f64 = 0.02;

fn check(experiment: Experiment) {
    let name = experiment.name();
    let actual = experiment.run(SCALE).render_masked();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/goldens").join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if actual != expected {
        let dir = root.join("../../target/goldens");
        std::fs::create_dir_all(&dir).expect("create target/goldens");
        std::fs::write(dir.join(format!("{name}.txt")), &actual).expect("write actual");
        panic!(
            "{name} differs from {}; if the change is intended, run\n  \
             cp target/goldens/{name}.txt crates/eval/tests/goldens/{name}.txt\n\
             from the repository root. Actual:\n{actual}",
            golden.display()
        );
    }
}

#[test]
fn e1_datasets() {
    check(Experiment::Datasets);
}

#[test]
fn e2_query_sets() {
    check(Experiment::QuerySets);
}

#[test]
fn e3_examples() {
    check(Experiment::Examples);
}

#[test]
fn e4_mrr() {
    check(Experiment::Mrr);
}

#[test]
fn e5_precision() {
    check(Experiment::Precision);
}

#[test]
fn e6_beta_sweep() {
    check(Experiment::BetaSweep);
}

#[test]
fn e7_gamma_sweep() {
    check(Experiment::GammaSweep);
}

#[test]
fn e8_timing() {
    check(Experiment::Timing);
}

#[test]
fn e10_semantics() {
    check(Experiment::Slca);
}

#[test]
fn e11_ablation() {
    check(Experiment::Ablation);
}

#[test]
fn e12_prior() {
    check(Experiment::Prior);
}

#[test]
fn e13_smoothing() {
    check(Experiment::Smoothing);
}
