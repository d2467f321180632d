//! Exact percentiles, whole-pass windows and aggregation across passes.
//!
//! A *pass* is one traversal of a workload's query pool. A run executes
//! whole passes only, so every run measures the identical query mix, and
//! every per-pass figure is computed from that pass's exact samples — no
//! histogram buckets anywhere. Each pass is taken to reference speed by
//! the reference kernel's runs *during that pass* (see
//! [`crate::reference`]), and the run's value is the best quartile across
//! its passes.

use std::time::{Duration, Instant};

use crate::reference::NOMINAL_NANOS;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the smallest value with at least `p` of the sample at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(
        (0.0..=1.0).contains(&p),
        "percentile rank {p} outside [0, 1]"
    );
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The value `p` of the way through a non-empty sample in ascending
/// order, interpolating linearly between neighbours.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&p), "quantile rank {p} outside [0, 1]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = p * (v.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(v.len() - 1);
    v[below] + (v[above] - v[below]) * (at - below as f64)
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// What one pass measured, as the clock saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct PassSummary {
    /// Requests completed in the pass.
    pub requests: usize,
    /// Requests per second over the pass's wall time.
    pub qps: f64,
    /// Mean request latency, microseconds.
    pub mean_us: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// How long each run of the reference kernel during the pass took,
    /// nanoseconds (see [`crate::reference`]).
    pub kernel_runs: Vec<u64>,
}

impl PassSummary {
    /// Summarises one pass from its per-request latencies (nanoseconds,
    /// any order), its wall time without the reference kernel's runs, and
    /// those runs' durations.
    pub fn from_samples(mut nanos: Vec<u64>, wall: Duration, kernel_runs: Vec<u64>) -> Self {
        nanos.sort_unstable();
        PassSummary {
            requests: nanos.len(),
            qps: nanos.len() as f64 / wall.as_secs_f64(),
            mean_us: nanos.iter().sum::<u64>() as f64 / nanos.len() as f64 / 1e3,
            p50_us: percentile(&nanos, 0.50) as f64 / 1e3,
            p99_us: percentile(&nanos, 0.99) as f64 / 1e3,
            kernel_runs,
        }
    }
}

/// Which quartile of the per-pass values a run reports: the one on the
/// better side (the first for a duration, the third for a rate).
const BEST_QUARTILE: f64 = 0.25;

/// A run's value per metric. Each pass is first taken to reference speed
/// by the median of the reference kernel's runs during that very pass:
/// the machine changes speed by a third and more for seconds to minutes
/// at a time, and the kernel, sharing the pass's stretch of time, changes
/// with it. The run's value is then the best quartile across passes:
/// what is left after scaling is mostly one-sided (a pass that straddles
/// a change of speed, a stall), so the better quartile moves less than
/// the median when half the passes were disturbed. On two sweeps of ten
/// runs per workload, four of the second ten at two thirds speed, raw
/// medians spread 15–37 % between runs and these values 2–7 %
/// (`AA_REPORT.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Whole passes executed.
    pub passes: usize,
    /// Samples per pass.
    pub samples_per_pass: usize,
    /// Runs of the reference kernel in the window.
    pub kernel_runs: usize,
    /// Median of per-pass throughputs, as the clock saw them.
    pub raw_qps: f64,
    /// Median across passes of `nominal / median kernel run of the
    /// pass`: what a duration was typically multiplied by to read at
    /// reference speed.
    pub scale: f64,
    /// Best quartile of per-pass throughputs at reference speed.
    pub qps: f64,
    /// Best quartile of per-pass mean latencies at reference speed.
    pub mean_us: f64,
    /// Best quartile of per-pass p50s at reference speed.
    pub p50_us: f64,
    /// Best quartile of per-pass p99s at reference speed.
    pub p99_us: f64,
    /// Wall time of the whole window, seconds.
    pub seconds: f64,
    /// Every pass's raw throughput, in order.
    pub pass_qps: Vec<f64>,
    /// Every pass's median kernel run, milliseconds, in order.
    pub pass_kernel_ms: Vec<f64>,
}

/// Aggregates the passes of one measured window; `nominal_kernel_nanos`
/// is what a kernel run takes at reference speed.
pub fn summarize_window(
    passes: &[PassSummary],
    wall: Duration,
    nominal_kernel_nanos: f64,
) -> WindowSummary {
    let pass_kernel: Vec<f64> = passes
        .iter()
        .map(|p| median(&p.kernel_runs.iter().map(|&n| n as f64).collect::<Vec<_>>()))
        .collect();
    let scales: Vec<f64> = pass_kernel
        .iter()
        .map(|k| nominal_kernel_nanos / k)
        .collect();
    let duration = |f: fn(&PassSummary) -> f64| {
        let scaled: Vec<f64> = passes.iter().zip(&scales).map(|(p, s)| f(p) * s).collect();
        quantile(&scaled, BEST_QUARTILE)
    };
    let pass_qps: Vec<f64> = passes.iter().map(|p| p.qps).collect();
    let scaled_qps: Vec<f64> = pass_qps.iter().zip(&scales).map(|(q, s)| q / s).collect();
    WindowSummary {
        passes: passes.len(),
        samples_per_pass: passes[0].requests,
        kernel_runs: passes.iter().map(|p| p.kernel_runs.len()).sum(),
        raw_qps: median(&pass_qps),
        scale: median(&scales),
        qps: quantile(&scaled_qps, 1.0 - BEST_QUARTILE),
        mean_us: duration(|p| p.mean_us),
        p50_us: duration(|p| p.p50_us),
        p99_us: duration(|p| p.p99_us),
        seconds: wall.as_secs_f64(),
        pass_qps,
        pass_kernel_ms: pass_kernel.iter().map(|k| k / 1e6).collect(),
    }
}

/// Runs `pass` repeatedly and stops at the first pass boundary at or
/// after `budget` on `clock` (seconds since the window opened) — never
/// mid-pass, and never before one pass has run.
pub fn run_whole_passes<E>(
    budget: f64,
    mut clock: impl FnMut() -> f64,
    mut pass: impl FnMut() -> Result<PassSummary, E>,
) -> Result<Vec<PassSummary>, E> {
    let mut out = Vec::new();
    loop {
        out.push(pass()?);
        if clock() >= budget {
            return Ok(out);
        }
    }
}

/// [`run_whole_passes`] against the wall clock, returning the window
/// summary.
pub fn measure_window<E>(
    seconds: f64,
    pass: impl FnMut() -> Result<PassSummary, E>,
) -> Result<WindowSummary, E> {
    let start = Instant::now();
    let passes = run_whole_passes(seconds, || start.elapsed().as_secs_f64(), pass)?;
    Ok(summarize_window(&passes, start.elapsed(), NOMINAL_NANOS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_over_exact_samples() {
        let s: Vec<u64> = (1..=2048).collect();
        assert_eq!(percentile(&s, 0.50), 1024);
        // 2048 samples leave 20 beyond p99.
        assert_eq!(percentile(&s, 0.99), 2028);
        assert_eq!(s.len() as u64 - percentile(&s, 0.99), 20);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 1.0), 2048);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.51), 3);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quantile_interpolates_between_neighbours() {
        let v = [50.0, 10.0, 30.0, 20.0, 40.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.25), 20.0);
        assert_eq!(quantile(&v, 0.75), 40.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn pass_summary_sorts_and_converts_units() {
        let p = PassSummary::from_samples(
            vec![4_000, 1_000, 3_000, 2_000],
            Duration::from_secs(2),
            vec![7],
        );
        assert_eq!(p.requests, 4);
        assert_eq!(p.qps, 2.0);
        assert_eq!(p.mean_us, 2.5);
        assert_eq!(p.p50_us, 2.0);
        assert_eq!(p.p99_us, 4.0);
        assert_eq!(p.kernel_runs, vec![7]);
    }

    fn pass(qps: f64, p50: f64, p99: f64, kernel_runs: Vec<u64>) -> PassSummary {
        PassSummary {
            requests: 16,
            qps,
            mean_us: p50,
            p50_us: p50,
            p99_us: p99,
            kernel_runs,
        }
    }

    #[test]
    fn window_value_is_the_best_quartile_across_passes() {
        // Two of five passes hit by a stall must not move the run's value.
        let w = summarize_window(
            &[
                pass(100.0, 10.0, 50.0, vec![1_000]),
                pass(10.0, 90.0, 900.0, vec![1_000]),
                pass(100.0, 10.0, 50.0, vec![1_000]),
                pass(40.0, 30.0, 400.0, vec![1_000]),
                pass(100.0, 10.0, 50.0, vec![1_000]),
            ],
            Duration::from_secs(5),
            1_000.0,
        );
        assert_eq!(w.passes, 5);
        assert_eq!(w.samples_per_pass, 16);
        assert_eq!((w.scale, w.kernel_runs), (1.0, 5));
        assert_eq!((w.raw_qps, w.qps), (100.0, 100.0));
        assert_eq!((w.mean_us, w.p50_us, w.p99_us), (10.0, 10.0, 50.0));
        // Between neighbours the quartile interpolates.
        let w = summarize_window(
            &[
                pass(80.0, 12.0, 60.0, vec![1_000]),
                pass(100.0, 10.0, 50.0, vec![1_000]),
                pass(90.0, 11.0, 55.0, vec![1_000]),
            ],
            Duration::from_secs(3),
            1_000.0,
        );
        assert_eq!(
            (w.raw_qps, w.qps, w.p50_us, w.p99_us),
            (90.0, 95.0, 10.5, 52.5)
        );
    }

    #[test]
    fn each_pass_is_scaled_by_its_own_kernel_runs() {
        // The machine ran the first two passes at half speed (their kernel
        // runs took twice the nominal time) and the last two at full
        // speed: at reference speed all four read the same. One kernel
        // run hit by a stall does not move its pass's factor.
        let w = summarize_window(
            &[
                pass(50.0, 20.0, 100.0, vec![2_000, 2_000, 9_000]),
                pass(50.0, 20.0, 100.0, vec![2_000, 2_000]),
                pass(100.0, 10.0, 50.0, vec![1_000, 1_000]),
                pass(100.0, 10.0, 50.0, vec![1_000, 1_000, 1_000]),
            ],
            Duration::from_secs(1),
            1_000.0,
        );
        assert_eq!(w.kernel_runs, 10);
        assert_eq!(w.scale, 0.75);
        assert_eq!((w.raw_qps, w.qps), (75.0, 100.0));
        assert_eq!((w.mean_us, w.p50_us, w.p99_us), (10.0, 10.0, 50.0));
        assert_eq!(w.pass_kernel_ms, vec![0.002, 0.002, 0.001, 0.001]);
    }

    #[test]
    fn window_stops_at_the_first_pass_boundary_after_the_budget() {
        // Each pass takes 4 "seconds" on a scripted clock; a 10 s budget
        // therefore ends after the third pass (t = 12), not mid-pass.
        let mut now = 0.0;
        let mut runs = 0;
        let passes = run_whole_passes::<()>(
            10.0,
            || {
                now += 4.0;
                now
            },
            || {
                runs += 1;
                Ok(PassSummary::from_samples(
                    vec![1],
                    Duration::from_secs(4),
                    vec![1],
                ))
            },
        )
        .unwrap();
        assert_eq!(passes.len(), 3);
        assert_eq!(runs, 3);
    }

    #[test]
    fn window_runs_at_least_one_pass_and_propagates_failures() {
        let passes = run_whole_passes::<()>(
            0.0,
            || 99.0,
            || {
                Ok(PassSummary::from_samples(
                    vec![1],
                    Duration::from_secs(1),
                    vec![1],
                ))
            },
        )
        .unwrap();
        assert_eq!(passes.len(), 1);
        let err = run_whole_passes(5.0, || 0.0, || Err::<PassSummary, _>("wrong answer"));
        assert_eq!(err, Err("wrong answer"));
    }
}
