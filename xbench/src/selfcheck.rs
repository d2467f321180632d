//! The A/A self-check: two interleaved sets of runs of this same binary,
//! compared the way a later change will be compared with its parent.
//!
//! For every workload and end-to-end metric it prints both sets'
//! medians, how much worse the worse set's median is (as a share of the
//! other's), and each set's run-to-run spread (interquartile distance
//! over the median, one seed per run), next to the bound `BENCHMARK.json`
//! fixes. A disagreement or a spread beyond its bound is a breach.

use std::process::Command;

use xclean_server::json::{self, Json};

use crate::error::{setup, BenchError};
use crate::registry::{Better, Contract, END_TO_END};
use crate::stats::median;
use crate::workloads::Workload;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// By what share of `parent` the value `change` is worse, given which
/// direction is better; negative when it is better.
pub fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (change - parent) / parent,
        Better::Higher => (parent - change) / parent,
    }
}

/// One child run's end-to-end values, in registry order.
fn child_run(workload: Workload, seed: u64, seconds: f64) -> Result<Vec<f64>, BenchError> {
    let exe = std::env::current_exe().map_err(setup("locate xbench"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(setup("spawn xbench"))?;
    let failed =
        |why: &str| BenchError::Setup(format!("{} seed {seed}: child run {why}", workload.name()));
    if !output.status.success() {
        return Err(failed("exited non-zero"));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|_| failed("printed non-utf-8"))?;
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| failed("printed nothing"))?;
    let result = json::parse(last).map_err(|_| failed("printed no result line"))?;
    END_TO_END
        .iter()
        .map(
            |def| match result.get("metrics")?.get(def.name)?.get("value")? {
                Json::Num(v) => Some(*v),
                _ => None,
            },
        )
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| failed("left a metric out"))
}

/// Runs the self-check with `runs` runs per set and workload (at least
/// 5 for a meaningful median), each as long as `BENCHMARK.json` says, and
/// prints its report (Markdown).
pub fn selfcheck(runs: usize) -> Result<(), BenchError> {
    if runs < 2 {
        return Err(BenchError::Usage("--runs must be at least 2".to_string()));
    }
    let Contract {
        run_seconds: seconds,
        bounds,
    } = Contract::load()?;

    // sets[set][workload][metric] = one value per run. The sets are
    // interleaved run by run, so slow drift of the machine hits both.
    let mut sets = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; 2];
    for run in 0..runs {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for set in &mut sets {
                let values = child_run(workload, run as u64 + 1, seconds)?;
                for (column, value) in set[w].iter_mut().zip(values) {
                    column.push(value);
                }
            }
        }
    }

    println!(
        "A/A self-check: 2 interleaved sets x {runs} runs (seeds 1..={runs}) x {} workloads, {seconds} s per run\n",
        Workload::ALL.len()
    );
    println!("| workload | metric | median A | median B | worse by | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut breaches = 0;
    let mut worst = vec![(0.0f64, 0.0f64); END_TO_END.len()];
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (i, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][w][i], &sets[1][w][i]);
            let (ma, mb) = (median(a), median(b));
            // Either set could be the parent: take the worse direction.
            let worse = worsening(ma, mb, def.better).max(worsening(mb, ma, def.better));
            let (sa, sb) = (spread(a), spread(b));
            let breach = worse > bounds[i] || sa.max(sb) > bounds[i];
            breaches += usize::from(breach);
            worst[i] = (worst[i].0.max(worse), worst[i].1.max(sa.max(sb)));
            println!(
                "| {} | {} | {ma:.4} | {mb:.4} | {:.2} % | {:.2} % | {:.2} % | {:.1} % | {} |",
                workload.name(),
                def.name,
                100.0 * worse,
                100.0 * sa,
                100.0 * sb,
                100.0 * bounds[i],
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    println!("\n| metric | worst A/A disagreement | worst spread | bound |");
    println!("|---|---|---|---|");
    for (def, ((worse, spread), bound)) in END_TO_END.iter().zip(worst.iter().zip(&bounds)) {
        println!(
            "| {} | {:.2} % | {:.2} % | {:.1} % |",
            def.name,
            100.0 * worse,
            100.0 * spread,
            100.0 * bound
        );
    }
    if breaches > 0 {
        return Err(BenchError::SelfcheckBreach { breaches });
    }
    println!("\nno breach: both sets agree within every bound");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
    }
}
