//! One invocation: set up, measure, check, report.
//!
//! An untraced run reports the end-to-end metrics; a traced run reports
//! the per-layer table and writes a Chrome trace. Both print a
//! provenance block and every metric by name with its unit, then the
//! machine-readable result as the last line of standard output.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::affinity::pin_to_one_cpu;
use crate::error::{setup, BenchError};
use crate::probes::{self, ShellPieces};
use crate::reference::{SetupClock, NOMINAL_NANOS};
use crate::registry::{Metrics, END_TO_END, PER_LAYER};
use crate::rig::{build_sharded, WorkDir, HOT_POOL_SIZE, POOL_SIZE, SHARDS};
use crate::serve::{CACHE_ENTRIES, WORKERS};
use crate::spans::{chrome_trace_json, layer_table, Recorder, MAX_TRACE_EVENTS};
use crate::stats::{measure_window, WindowSummary};
use crate::workloads::{Prepared, Workload};

/// The command line of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Decides the order in which the pool is traversed.
    pub seed: u64,
    /// How long to measure; the window ends at the first pass boundary
    /// at or after this many seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

/// What a run hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in measured windows.
    pub attempted: u64,
    /// The metrics this kind of run reports.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: operations that fail abort the run before this
    /// is printed, so a printed result is always correct with none failed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
            self.attempted,
            self.metrics.to_json()
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, BenchError> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(setup("read /proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError::Setup("no VmHWM in /proc/self/status".to_string()))
}

/// The machine as the run sees it.
#[derive(Debug, Clone, Copy)]
struct Host {
    /// `available_parallelism` before pinning.
    cores: usize,
    /// The CPU the process is pinned to.
    cpu: usize,
}

fn print_provenance(args: &RunArgs, p: &Prepared, host: Host) {
    let o = &p.rig.offline;
    let Host { cores: n, cpu } = host;
    println!(
        "xbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "provenance: available_parallelism={n} kernel={} rustc=\"{}\" git={}",
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    println!(
        "corpus: nodes={} terms={} xml_bytes={} snapshot_bytes={} mapped={} shards={SHARDS}",
        o.nodes,
        o.terms,
        o.xml_bytes,
        p.snapshot_bytes(),
        o.mapped
    );
    println!(
        "pool: {} queries of {POOL_SIZE} ({} RAND + {} RULE, the same on every run, in the order --seed decides; \
         serve_hot cycles the first {HOT_POOL_SIZE} of that order), {} requests per pass",
        p.pool.len(),
        POOL_SIZE / 2,
        POOL_SIZE / 2,
        p.pass_requests
    );
    println!(
        "load: closed loop, one request in flight; process pinned to CPU {cpu} of {n}; engine threads=1; \
         serve_* use {WORKERS} server worker and 1 client connection on 1 client thread, \
         cache_entries={CACHE_ENTRIES} (not sized from the core count: with one request in flight \
         a second worker or connection would never have work)"
    );
}

fn print_window(label: &str, w: &WindowSummary) {
    println!(
        "{label}: {} whole pass(es) x {} samples in {:.3} s; raw median {:.3} q/s; {} reference-kernel run(s), \
         each pass scaled by its own (median factor {:.4}, i.e. a kernel run of {:.3} ms against the nominal {:.3}); \
         values are the best quartile across passes; raw per-pass q/s @ kernel ms: {}",
        w.passes,
        w.samples_per_pass,
        w.seconds,
        w.raw_qps,
        w.kernel_runs,
        w.scale,
        NOMINAL_NANOS / w.scale / 1e6,
        NOMINAL_NANOS / 1e6,
        w.pass_qps
            .iter()
            .zip(&w.pass_kernel_ms)
            .map(|(q, k)| format!("{q:.0}@{k:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
}

fn print_metrics(m: &Metrics) {
    for (def, value) in m.iter() {
        println!("  {:<40} {:>18.6} {}", def.name, value, def.unit);
    }
}

/// Runs the invocation `args` describes and prints its report; the
/// caller prints [`Outcome::to_json`] as the last line.
pub fn run(args: &RunArgs, process_start: Instant) -> Result<Outcome, BenchError> {
    let host = Host {
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        cpu: pin_to_one_cpu().map_err(setup("pin to one CPU"))?,
    };
    let work = WorkDir::create(args.workload.name())?;
    if args.trace {
        traced(args, &work, host)
    } else {
        untraced(args, &work, host, process_start)
    }
}

fn untraced(
    args: &RunArgs,
    work: &WorkDir,
    host: Host,
    process_start: Instant,
) -> Result<Outcome, BenchError> {
    let mut clock = SetupClock::starting_at(process_start);
    let mut prepared = Prepared::new(args.workload, args.seed, work.path(), &mut clock)?;
    let (kernel, raw_setup_s, setup_s) = clock.finish();
    print_provenance(args, &prepared, host);
    println!(
        "set-up: {raw_setup_s:.3} s as the clock saw it, {setup_s:.3} s at reference speed \
         (stage by stage, each scaled by the reference kernel's runs at its end)"
    );

    let window = measure_window(args.seconds, || prepared.pass(&kernel))?;
    print_window("window", &window);

    let mut m = Metrics::new(&END_TO_END);
    m.set("setup_s", setup_s);
    m.set("throughput_qps", window.qps);
    m.set("latency_p50_us", window.p50_us);
    m.set("latency_p99_us", window.p99_us);
    m.set("mrr", prepared.mrr);
    m.set(
        "snapshot_bytes_per_input_byte",
        prepared.snapshot_bytes() as f64 / prepared.rig.offline.xml_bytes as f64,
    );
    let attempted = prepared.attempted;
    if let Some(ratio) = prepared.finish()? {
        println!("guard: cache hit ratio after warm-up = {ratio}");
    }
    m.set("peak_rss_mb", peak_rss_mb()?);
    println!("end-to-end metrics ({attempted} operations attempted, 0 failed):");
    print_metrics(&m);
    Ok(Outcome {
        attempted,
        metrics: m,
    })
}

fn traced(args: &RunArgs, work: &WorkDir, host: Host) -> Result<Outcome, BenchError> {
    let mut clock = SetupClock::starting_at(Instant::now());
    let mut prepared = Prepared::new(args.workload, args.seed, work.path(), &mut clock)?;
    let (kernel, ..) = clock.finish();
    print_provenance(args, &prepared, host);

    // Half the time untraced, half traced: the ratio of the two is what
    // the tracing costs.
    let plain = measure_window(args.seconds / 2.0, || prepared.pass(&kernel))?;
    print_window("untraced window", &plain);
    let mut rec = Recorder::new();
    let mut pieces = ShellPieces::new();
    let spanned = measure_window(args.seconds / 2.0, || {
        prepared.traced_pass(&kernel, &mut rec, &mut pieces)
    })?;
    print_window("traced window", &spanned);

    let table = layer_table(rec.spans());
    let trace_dir = work
        .path()
        .parent()
        .expect("work dir has a parent")
        .with_file_name("xbench-trace");
    std::fs::create_dir_all(&trace_dir).map_err(setup("create trace dir"))?;
    let trace_path: PathBuf = trace_dir.join(format!("{}.trace.json", args.workload.name()));
    std::fs::write(&trace_path, chrome_trace_json(rec.spans())).map_err(setup("write trace"))?;
    println!(
        "trace: {} span(s) over {} request(s), first {} written to {}",
        rec.spans().len(),
        table.requests,
        rec.spans().len().min(MAX_TRACE_EVENTS),
        trace_path.display()
    );
    println!("layer self times (traced window):");
    for (layer, (count, nanos)) in &table.layers {
        println!(
            "  {layer:<10} {count:>9} span(s) {:>12.3} ms {:>7.3} %",
            *nanos as f64 / 1e6,
            100.0 * *nanos as f64 / table.total as f64
        );
    }
    drop(rec);

    let mut m = Metrics::new(&PER_LAYER);
    m.set(
        "bench.trace_overhead_ratio",
        plain.mean_us / spanned.mean_us,
    );
    m.set("bench.unattributed_share", table.unattributed_share());

    // The layer probes need the whole rig: build what this workload did
    // not already set up.
    let built;
    let (sharded, shard_timings) = match prepared.sharded() {
        Some(own) => own,
        None => {
            built = build_sharded(&prepared.rig, work.path())?;
            (&built.0, &built.1)
        }
    };
    probes::offline(&mut m, &prepared.rig, shard_timings);
    let unsharded = probes::engine(&mut m, &prepared.rig.engine, &prepared.rig.pool);
    probes::sharded(&mut m, sharded, &prepared.rig.pool, &unsharded);
    let (served_pool, pass_requests) = if args.workload.is_served() {
        (&prepared.pool, prepared.pass_requests)
    } else {
        (&prepared.rig.pool, prepared.rig.pool.len())
    };
    probes::server(&mut m, &prepared.rig, served_pool, pass_requests)?;

    let attempted = prepared.attempted;
    prepared.finish()?;
    println!("per-layer metrics ({attempted} operations attempted in the two windows, 0 failed):");
    print_metrics(&m);
    Ok(Outcome {
        attempted,
        metrics: m,
    })
}
