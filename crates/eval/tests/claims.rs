//! EXPERIMENTS.md's claims table, one test per row, read from the
//! experiments' typed tables at scale 1 (the scale the claims are made
//! at). Ignored by default: at scale 1 the experiments take minutes even
//! in release. Run with
//!
//! ```text
//! cargo test --release -p xclean-eval --test claims -- --ignored
//! ```
//!
//! An experiment several rows read runs once per test process.

use std::sync::OnceLock;

use xclean_eval::report::f2;
use xclean_eval::{Experiment, Report, Table};

const SCALE: f64 = 1.0;
const CLEAN: [&str; 2] = ["DBLP-CLEAN", "INEX-CLEAN"];
const DIRTY: [&str; 4] = ["DBLP-RAND", "DBLP-RULE", "INEX-RAND", "INEX-RULE"];
const SETS: [&str; 6] = [
    "DBLP-CLEAN",
    "DBLP-RAND",
    "DBLP-RULE",
    "INEX-CLEAN",
    "INEX-RAND",
    "INEX-RULE",
];

fn report(experiment: Experiment) -> &'static Report {
    static REPORTS: [OnceLock<Report>; Experiment::ALL.len()] =
        [const { OnceLock::new() }; Experiment::ALL.len()];
    let i = Experiment::ALL
        .iter()
        .position(|&e| e == experiment)
        .expect("listed");
    REPORTS[i].get_or_init(|| experiment.run(SCALE))
}

/// The experiment's first (for all but E5, only) table.
fn table(experiment: Experiment) -> &'static Table {
    report(experiment).tables().next().expect("a table")
}

/// Row 1 (Fig. 3): XClean beats PY08 on every query set.
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row1_xclean_beats_py08_on_every_set() {
    let mrr = table(Experiment::Mrr);
    for set in SETS {
        let (xclean, py08) = (mrr.value(set, "XClean"), mrr.value(set, "PY08"));
        assert!(
            xclean > py08,
            "{set}: XClean {} ≤ PY08 {}",
            f2(xclean),
            f2(py08)
        );
    }
}

/// Row 2 (Fig. 3): the search engines at least tie XClean on CLEAN and
/// fall behind it on every dirty set.
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row2_search_engines_win_clean_and_lose_dirty() {
    let mrr = table(Experiment::Mrr);
    for se in ["SE1", "SE2"] {
        for set in CLEAN {
            assert!(
                mrr.value(set, se) >= mrr.value(set, "XClean"),
                "{se} on {set}"
            );
        }
        for set in DIRTY {
            assert!(
                mrr.value(set, se) < mrr.value(set, "XClean"),
                "{se} on {set}"
            );
        }
    }
}

/// Row 3 (Fig. 4): PY08 degrades clean queries — it ranks the unchanged
/// query first on fewer than half of each CLEAN set.
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row3_py08_degrades_clean_queries() {
    let precision = report(Experiment::Precision);
    for (set, table) in SETS.iter().zip(precision.tables()) {
        if CLEAN.contains(set) {
            let p1 = table.value("PY08", "P@1");
            assert!(p1 < 0.5, "{set}: PY08 P@1 {}", f2(p1));
        }
    }
}

/// Row 4 (Fig. 4): XClean's precision is high and flat — its first
/// suggestion beats PY08's whole top ten — while PY08's rises with N.
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row4_xclean_precision_high_and_flat_py08_low_and_rising() {
    let precision = report(Experiment::Precision);
    for (set, table) in SETS.iter().zip(precision.tables()) {
        let xclean_p1 = table.value("XClean", "P@1");
        let (py08_p1, py08_p10) = (table.value("PY08", "P@1"), table.value("PY08", "P@10"));
        assert!(
            xclean_p1 > py08_p10,
            "{set}: XClean P@1 {} ≤ PY08 P@10 {}",
            f2(xclean_p1),
            f2(py08_p10)
        );
        assert!(py08_p10 > py08_p1, "{set}: PY08 does not rise");
    }
}

/// Row 5 (Table IV): MRR climbs up to β = 5, and β = 5 is within 0.05 of
/// the sweep's best (the plateau, with minor decreases beyond).
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row5_beta_five_is_best() {
    let sweep = table(Experiment::BetaSweep);
    for set in SETS {
        let mrr = |beta: &str| sweep.value(set, &format!("β={beta}"));
        for lower in ["0", "1", "2"] {
            assert!(mrr("5") >= mrr(lower), "{set}: β={lower} beats β=5");
        }
        let best = ["0", "1", "2", "5", "8", "10"]
            .map(mrr)
            .into_iter()
            .fold(0.0, f64::max);
        assert!(
            mrr("5") >= best - 0.05,
            "{set}: β=5 {} vs best {}",
            f2(mrr("5")),
            f2(best)
        );
    }
}

/// Row 6 (Table V): γ = 1000 accumulators suffice — as good as γ = 10000
/// in Table V, and as good as no pruning at all in E11.
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row6_gamma_1000_suffices() {
    let sweep = table(Experiment::GammaSweep);
    for set in SETS {
        let row = format!("XClean {set}");
        assert_eq!(
            sweep.value(&row, "γ=1000"),
            sweep.value(&row, "γ=10000"),
            "{set}"
        );
    }
    let ablation = table(Experiment::Ablation);
    for set in ["DBLP-RAND", "DBLP-RULE"] {
        assert_eq!(
            ablation.value(&format!("{set}: γ=1000"), "MRR"),
            ablation.value(&format!("{set}: no pruning"), "MRR"),
            "{set}"
        );
    }
}

/// Row 7 (Table VI): XClean is faster than PY08 on every set but
/// INEX-CLEAN, the naïve evaluator is ≥ 10× slower than XClean on every
/// DBLP set, and INEX is slower than DBLP for XClean and PY08.
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row7_xclean_faster_than_py08_and_inex_slower_than_dblp() {
    let timing = table(Experiment::Timing);
    for set in SETS.into_iter().filter(|&set| set != "INEX-CLEAN") {
        let (xclean, py08) = (
            timing.value(set, "XClean (ms)"),
            timing.value(set, "PY08 (ms)"),
        );
        assert!(xclean < py08, "{set}: XClean {xclean} ms ≥ PY08 {py08} ms");
    }
    for set in &SETS[..3] {
        let (xclean, naive) = (
            timing.value(set, "XClean (ms)"),
            timing.value(set, "naive (ms)"),
        );
        assert!(
            naive >= 10.0 * xclean,
            "{set}: naive {naive} ms vs XClean {xclean} ms"
        );
    }
    for perturbation in ["CLEAN", "RAND", "RULE"] {
        for system in ["XClean (ms)", "PY08 (ms)"] {
            let dblp = timing.value(&format!("DBLP-{perturbation}"), system);
            let inex = timing.value(&format!("INEX-{perturbation}"), system);
            assert!(
                inex > dblp,
                "{perturbation} {system}: INEX {inex} ≤ DBLP {dblp}"
            );
        }
    }
}

/// Row 8 (§VI-B): SLCA works as well as node-type semantics on DBLP
/// (within 0.05 on every set) and less well on INEX (more than 0.05
/// behind on some set).
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row8_slca_equal_on_dblp_worse_on_inex() {
    let semantics = table(Experiment::Slca);
    let gap = |set: &str| semantics.value(set, "SLCA MRR") - semantics.value(set, "node-type MRR");
    for set in &SETS[..3] {
        assert!(gap(set) >= -0.05, "{set}: SLCA {} behind", f2(-gap(set)));
    }
    assert!(
        SETS[3..].iter().any(|set| gap(set) < -0.05),
        "SLCA is within 0.05 of node-type on every INEX set"
    );
}

/// Row 9 (§V-C): skipping reads at least 5× fewer postings.
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row9_skipping_avoids_most_posting_reads() {
    let ablation = table(Experiment::Ablation);
    for set in ["DBLP-RAND", "DBLP-RULE"] {
        let on = ablation.value(&format!("{set}: skip_to ON"), "read");
        let off = ablation.value(&format!("{set}: skip_to OFF"), "read");
        assert!(
            off >= 5.0 * on,
            "{set}: {on} postings read with skipping, {off} without"
        );
    }
}

/// Row 10 (§V-B): d = 2 has E11's best MRR, and d = 1 enumerates more
/// candidates and takes longer.
#[test]
#[ignore = "scale 1; run in release with --ignored"]
fn row10_min_depth_two_is_best() {
    let ablation = table(Experiment::Ablation);
    for set in ["DBLP-RAND", "DBLP-RULE"] {
        let value = |d: u32, column: &str| ablation.value(&format!("{set}: d={d}"), column);
        for d in [1, 3] {
            assert!(value(2, "MRR") >= value(d, "MRR"), "{set}: d={d} beats d=2");
        }
        assert!(
            value(1, "candidates") > value(2, "candidates"),
            "{set}: candidates"
        );
        assert!(value(1, "avg s") > value(2, "avg s"), "{set}: time");
    }
}
