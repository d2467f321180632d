//! `xbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//! runs one workload in this process and prints its metrics;
//! `xbench selfcheck [--runs N]` runs the A/A self-check. Without
//! `--seconds` a run measures for `run_seconds` of `BENCHMARK.json`.
//!
//! The last line of standard output of a workload run is the result as
//! one JSON object. Any wrong answer, failed operation or tripped
//! validity guard exits non-zero without printing a result.

use std::process::ExitCode;
use std::time::Instant;

use xclean_xbench::error::BenchError;
use xclean_xbench::registry::Contract;
use xclean_xbench::run::{run, RunArgs};
use xclean_xbench::selfcheck::selfcheck;
use xclean_xbench::workloads::Workload;

const USAGE: &str = "xbench --workload <engine_direct|sharded_direct|serve_hot|serve_miss> \
                     [--seed N] [--seconds S] [--trace 0|1]  |  \
                     xbench selfcheck [--runs N]";

/// `--flag value` pairs.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, BenchError> {
    if !args.len().is_multiple_of(2) {
        return Err(BenchError::Usage(USAGE.to_string()));
    }
    Ok(args
        .chunks(2)
        .map(|pair| (pair[0].as_str(), pair[1].as_str()))
        .collect())
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, BenchError> {
    value
        .parse()
        .map_err(|_| BenchError::Usage(format!("{flag} {value:?} is not a number; {USAGE}")))
}

fn parse_run(args: &[String]) -> Result<RunArgs, BenchError> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, None, false);
    for (flag, value) in flags(args)? {
        match flag {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    BenchError::Usage(format!("unknown workload {value:?}; {USAGE}"))
                })?);
            }
            "--seed" => seed = number(flag, value)?,
            "--seconds" => seconds = Some(number::<f64>(flag, value)?),
            "--trace" => trace = number::<u8>(flag, value)? != 0,
            _ => return Err(BenchError::Usage(format!("unknown flag {flag:?}; {USAGE}"))),
        }
    }
    let seconds = match seconds {
        Some(seconds) => seconds,
        None => Contract::load()?.run_seconds,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(BenchError::Usage(format!(
            "--seconds {seconds} outside (0, 600]"
        )));
    }
    Ok(RunArgs {
        workload: workload.ok_or_else(|| BenchError::Usage(USAGE.to_string()))?,
        seed,
        seconds,
        trace,
    })
}

/// Runs per set and workload of the self-check.
fn parse_selfcheck(args: &[String]) -> Result<usize, BenchError> {
    let mut runs = 5;
    for (flag, value) in flags(args)? {
        match flag {
            "--runs" => runs = number(flag, value)?,
            _ => return Err(BenchError::Usage(format!("unknown flag {flag:?}; {USAGE}"))),
        }
    }
    Ok(runs)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("selfcheck") => parse_selfcheck(&args[1..]).and_then(selfcheck),
        _ => parse_run(&args).and_then(|a| {
            println!("{}", run(&a, process_start)?.to_json());
            Ok(())
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xbench: {e}");
            ExitCode::from(if matches!(e, BenchError::Usage(_)) {
                2
            } else {
                1
            })
        }
    }
}
