//! The `xclean` subcommands.
//!
//! ```text
//! xclean index build <data.xml> --out index.xci    build & persist an index
//!     [--catalog catalog.xcc --name C]             … and register it
//! xclean index inspect <index.xci>                 snapshot summary
//! xclean suggest <data.xml|index.xci> <query…>     clean a keyword query
//! xclean serve <index.xci> --port 8080             long-running HTTP server
//! xclean serve --catalog catalog.xcc --port 8080   multi-corpus HTTP server
//! xclean stats <data.xml|index.xci>                corpus statistics
//! xclean generate <dblp|inex> --out corpus.xml     synthetic corpus
//! ```

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xclean::{
    Catalog, CorpusSpec, RunStats, Semantics, Suggestion, Telemetry, XCleanConfig, XCleanEngine,
};
use xclean_datagen::{generate_dblp, generate_inex, DblpConfig, InexConfig};
use xclean_index::{storage, CorpusIndex, OpenError, OpenOptions};
use xclean_server::{ServerConfig, SuggestServer, PAGE_ROUTES};
use xclean_telemetry::json::Json;
use xclean_xmltree::{parse_document, to_xml, TreeStats};

use crate::args::{ArgError, Args};

/// Outcome of a command: output lines plus an exit code.
pub struct CmdOutput {
    /// Lines to print to stdout.
    pub lines: Vec<String>,
    /// Process exit code (0 = success).
    pub code: i32,
}

impl CmdOutput {
    fn ok(lines: Vec<String>) -> Self {
        CmdOutput { lines, code: 0 }
    }

    fn fail(msg: String) -> Self {
        CmdOutput {
            lines: vec![format!("error: {msg}")],
            code: 2,
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
xclean — valid spelling suggestions for XML keyword queries (ICDE 2011)

USAGE:
    xclean index build <data.xml> --out <index.xci>
            [--catalog <catalog.xcc> [--name <corpus>]]
            (writes the v2 format — columnar, checksummed, mmap-servable.
             With --catalog, the snapshot is also registered under
             --name (default `default`) in the catalog file — created if
             missing, the entry replaced if the name already exists —
             ready for `xclean serve --catalog`)
    xclean index inspect <index.xci>
            (summarises a snapshot without materialising the index:
             format version, section sizes and checksum)
    xclean suggest <data.xml | index.xci> <query keywords…>
            [--k N] [--beta B] [--gamma G] [--epsilon E] [--min-depth D]
            [--semantics node-type|slca|elca] [--phonetic DIST]
            [--space-edits TAU] [--preview N] [--threads N] [--json]
            [--trace-out trace.json] [--metrics-json]
    xclean suggest <data.xml | index.xci> --batch <workload.txt>
            [--threads N] [--k N] [… same tuning flags] [--json]
            [--trace-out trace.json] [--metrics-json]
            (workload file: one query per line; blank lines and
             #-comments are skipped)
            (--threads sizes the --batch worker pool; threads are only
             ever spent across the queries of a batch — one query runs
             on the calling thread whatever N is, and no N changes a
             byte of any answer)
            (--trace-out writes a Chrome trace-event JSON of the query's
             pipeline spans — load it in Perfetto / chrome://tracing;
             --metrics-json appends the engine's aggregated counters and
             p50/p95/p99 stage histograms as one JSON line)
    xclean serve <index.xci | --catalog catalog.xcc>
            [--host H] [--port P] [--threads N] [--max-connections N]
            [--cache-entries N] [--max-body-bytes N]
            [--k N] [--beta B] [--gamma G] [--epsilon E] [--min-depth D]
            [--semantics node-type|slca|elca] [--phonetic DIST]
            [--trace-out trace.json] [--metrics-json metrics.json]
            [--slow-ms MS] [--slow-log FILE] [--slo-ms MS]
            (long-running HTTP server: POST/GET /suggest, GET /healthz,
             GET /metrics, GET /statusz, GET /debug/requests?n=K,
             GET /debug/conns?n=K, GET /debug/flight?events=N,
             GET /debug/explain?q=Q[&corpus=C];
             with --catalog, every declared corpus is served under
             POST/GET /suggest/<name> from its snapshot, and the tuning
             flags configure every corpus, while bare /suggest and the
             top-level /healthz fields keep tracking the first
             (primary) catalog entry; /metrics carries the server's own
             series unlabelled and every corpus's engine, cache and
             request series under a `corpus` label;
             answers repeated queries from a sharded LRU response cache;
             every response carries an X-Request-Id; requests slower
             than --slow-ms (default 100) are logged as JSON lines to
             --slow-log (default stderr); requests slower than --slo-ms
             (default 50) count as SLO breaches in the per-corpus burn
             rates on /statusz and /metrics; Ctrl-C drains in-flight
             requests, then flushes --trace-out (the primary corpus's
             spans) / --metrics-json, the latter as
             {server: {…}, corpora: {<name>: {…}, …}})
            (connections are HTTP/1.1 keep-alive with pipelining, served
             from one nonblocking epoll loop that hands parsed requests
             to --threads scoring workers; above --max-connections open
             sockets new ones are answered 503 and closed. serve needs
             Linux; every other subcommand is portable)
            (snapshots are served straight from their bytes, mmap-ed
             where the platform and the file allow and read into
             memory otherwise; a bare snapshot serves as the one
             corpus `default`; a snapshot holding one shard of a set
             is refused, here and by `suggest`)
    xclean stats <data.xml | index.xci>
    xclean generate <dblp | dblp-large | inex> --out <corpus.xml>
            [--size N] [--seed S] [--vocab N] [--vocab-rotation N]
            (--vocab-rotation shifts the dblp vocabulary tables so a
             multi-corpus catalog can hold several DBLP-flavoured
             corpora with different hot terms)
";

/// Dispatches a full argument vector (without the program name).
pub fn run(raw: Vec<String>) -> CmdOutput {
    let Some(cmd) = raw.first().cloned() else {
        return CmdOutput {
            lines: vec![USAGE.to_string()],
            code: 1,
        };
    };
    let rest: Vec<String> = raw[1..].to_vec();
    let result = match cmd.as_str() {
        "index" => cmd_index(rest),
        "suggest" => cmd_suggest(rest),
        "serve" => cmd_serve(rest),
        "stats" => cmd_stats(rest),
        "generate" => cmd_generate(rest),
        "help" | "--help" | "-h" => {
            return CmdOutput::ok(vec![USAGE.to_string()]);
        }
        other => Err(ArgError(format!("unknown command {other:?}\n{USAGE}"))),
    };
    match result {
        Ok(out) => out,
        Err(e) => CmdOutput::fail(e.to_string()),
    }
}

/// Loads a corpus from either an XML document or a persisted `.xci` index,
/// a shard snapshot read as itself (what `index` and `stats` report on).
fn load_corpus(path: &str) -> Result<CorpusIndex, ArgError> {
    if path.ends_with(".xci") {
        storage::open_file(path, &OpenOptions::default())
            .map(|(corpus, _report)| corpus)
            .map_err(|e| ArgError(format!("{path}: {e}")))
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| ArgError(format!("{path}: {e}")))?;
        let tree = parse_document(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
        Ok(CorpusIndex::build(tree))
    }
}

/// `xclean index <build|inspect> …`.
fn cmd_index(raw: Vec<String>) -> Result<CmdOutput, ArgError> {
    match raw.first().map(String::as_str) {
        Some("build") => cmd_index_build(raw[1..].to_vec()),
        Some("inspect") => cmd_index_inspect(raw[1..].to_vec()),
        _ => Err(ArgError(format!(
            "index expects a subcommand: build or inspect\n{USAGE}"
        ))),
    }
}

/// `xclean index build <data> --out <index.xci> [--catalog F [--name C]]`:
/// builds the index and persists it as a v2 snapshot. With `--catalog`
/// the snapshot is also registered in a corpus catalog — repeated
/// invocations with different `--name`s assemble a multi-corpus catalog
/// for `xclean serve --catalog`.
fn cmd_index_build(raw: Vec<String>) -> Result<CmdOutput, ArgError> {
    let args = Args::parse(raw, &[])?;
    args.reject_unknown(&["out", "catalog", "name"])?;
    let [input] = args.positional() else {
        return Err(ArgError(
            "usage: xclean index build <data.xml> --out <index.xci> \
             [--catalog <catalog.xcc> [--name <corpus>]]"
                .into(),
        ));
    };
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("--out <index.xci> is required".into()))?;
    if args.get("name").is_some() && args.get("catalog").is_none() {
        return Err(ArgError("--name only makes sense with --catalog".into()));
    }
    // The updated catalog is read and checked before the snapshot is
    // written, so a catalog that cannot be read, or a bad name, fails
    // the command with nothing left on disk.
    let catalog = match args.get("catalog") {
        Some(path) => Some((path, register(path, args.get("name"), out)?)),
        None => None,
    };
    let corpus = load_corpus(input)?;
    storage::save_to_file_v2(&corpus, out).map_err(|e| ArgError(e.to_string()))?;
    let size = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    let mut lines = vec![format!(
        "indexed {} nodes, {} terms → {out} (v2, {:.1} MB)",
        corpus.tree().len(),
        corpus.vocab().len(),
        size as f64 / 1e6
    )];
    if let Some((path, catalog)) = catalog {
        catalog
            .save(path)
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        lines.push(format!(
            "catalog: corpus {:?} registered → {path} ({} corpora)",
            args.get("name").unwrap_or("default"),
            catalog.corpora.len()
        ));
    }
    Ok(CmdOutput::ok(lines))
}

/// The catalog at `path` (empty if there is none yet) with `snapshot`
/// registered under `name` (default `default`), replacing an entry of
/// that name. The path is stored relative to the catalog file's
/// directory when the snapshot sits underneath it, absolute otherwise.
fn register(path: &str, name: Option<&str>, snapshot: &str) -> Result<Catalog, ArgError> {
    let mut catalog = if Path::new(path).exists() {
        Catalog::load(path).map_err(|e| ArgError(format!("{path}: {e}")))?
    } else {
        Catalog::default()
    };
    let (snapshot, base) = (absolute(snapshot)?, absolute(path)?);
    let base = base.parent().expect("an absolute file path has a parent");
    let spec = CorpusSpec {
        name: name.unwrap_or("default").to_string(),
        snapshot: snapshot
            .strip_prefix(base)
            .unwrap_or(&snapshot)
            .display()
            .to_string(),
    };
    match catalog.corpora.iter_mut().find(|c| c.name == spec.name) {
        Some(existing) => *existing = spec,
        None => catalog.corpora.push(spec),
    }
    catalog
        .validate()
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    Ok(catalog)
}

/// `path` made absolute through its directory, which must exist (the
/// file itself need not).
fn absolute(path: &str) -> Result<PathBuf, ArgError> {
    let p = Path::new(path);
    let dir = p.parent().filter(|d| !d.as_os_str().is_empty());
    let file = p
        .file_name()
        .ok_or_else(|| ArgError(format!("{path}: not a file path")))?;
    let dir = std::fs::canonicalize(dir.unwrap_or(Path::new(".")))
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    Ok(dir.join(file))
}

/// `xclean index inspect <index.xci>`: reads only the snapshot framing
/// ([`storage::summarize_file`]) — no postings decode, no tree replay —
/// so it answers in O(terms) even on multi-hundred-MB snapshots.
fn cmd_index_inspect(raw: Vec<String>) -> Result<CmdOutput, ArgError> {
    let args = Args::parse(raw, &[])?;
    args.reject_unknown(&[])?;
    let [path] = args.positional() else {
        return Err(ArgError("usage: xclean index inspect <index.xci>".into()));
    };
    let s = storage::summarize_file(path).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let mut lines = vec![
        format!("snapshot    {path}"),
        format!("format      v{}", s.format_version),
        format!("size        {:.2} MB", s.total_bytes as f64 / 1e6),
        format!("checksum    {:016x} (fnv1a, verified)", s.checksum),
        format!("nodes       {}", s.nodes),
        format!("labels      {}", s.labels),
        format!("terms       {}", s.terms),
        format!("tokens      {}", s.total_tokens),
        format!(
            "postings    {:.2} MB ({:.1}% of snapshot)",
            s.postings_bytes as f64 / 1e6,
            100.0 * s.postings_bytes as f64 / (s.total_bytes as f64).max(1.0)
        ),
        format!(
            "tokenizer   min_len={} drop_numbers={} drop_stop_words={}",
            s.tokenizer.min_token_len, s.tokenizer.drop_numbers, s.tokenizer.drop_stop_words
        ),
    ];
    lines.push("sections".to_string());
    for sec in &s.sections {
        lines.push(format!(
            "  {:<14} {:>12} B ({:.1}%)",
            sec.name,
            sec.bytes,
            100.0 * sec.bytes as f64 / (s.total_bytes as f64).max(1.0)
        ));
    }
    Ok(CmdOutput::ok(lines))
}

/// Renders the per-stage summary table: stage, time, share of `total`,
/// and the counters that explain where that time went.
fn stage_table(stats: &RunStats, total: Duration, suggestions: usize) -> Vec<String> {
    let total_nanos = (total.as_nanos() as u64).max(1);
    let row = |stage: &str, nanos: u64, counters: String| {
        format!(
            "  {:<6} {:>9.3}ms {:>6.1}%  {counters}",
            stage,
            nanos as f64 / 1e6,
            100.0 * nanos as f64 / total_nanos as f64,
        )
    };
    vec![
        format!("  {:<6} {:>11} {:>7}  counters", "stage", "time", "%"),
        row(
            "slots",
            stats.slot_nanos,
            "variant generation (FastSS + phonetic)".to_string(),
        ),
        row(
            "walk",
            stats.walk_nanos,
            format!(
                "{} subtrees, {} from columns; postings: {} scanned, {} cached; \
                 {} read, {} skipped in {} seeks",
                stats.subtrees,
                stats.access.from_columns,
                stats.access.scanned,
                stats.access.cached,
                stats.access.read,
                stats.access.skipped,
                stats.access.skip_calls
            ),
        ),
        row(
            "rank",
            stats.rank_nanos,
            format!(
                "{} candidates, {} entities, {} result types; γ: {} evicted, {} rejected",
                stats.candidates_enumerated,
                stats.entities_scored,
                stats.result_type_computations,
                stats.pruning.evictions,
                stats.pruning.rejected
            ),
        ),
        row("total", total_nanos, format!("{suggestions} suggestion(s)")),
    ]
}

/// Sums per-response stats for the batch-mode stage table (stage times
/// are CPU time across all workers, so they can exceed wall-clock).
fn merge_batch_stats(responses: &[xclean::SuggestResponse]) -> (RunStats, Duration, usize) {
    let mut merged = RunStats::default();
    let mut cpu = Duration::ZERO;
    let mut suggestions = 0usize;
    for r in responses {
        merged += r.stats;
        cpu += r.elapsed;
        suggestions += r.suggestions.len();
    }
    (merged, cpu, suggestions)
}

/// Parses the engine tuning flags shared by `suggest` and `serve`
/// (scoring parameters only — concurrency is each command's own affair).
fn tuning_from_args(args: &Args) -> Result<(XCleanConfig, Semantics), ArgError> {
    let mut config = XCleanConfig {
        k: args.get_parsed("k", 10usize)?,
        beta: args.get_parsed("beta", 5.0f64)?,
        epsilon: args.get_parsed("epsilon", 2usize)?,
        min_depth: args.get_parsed("min-depth", 2u32)?,
        ..Default::default()
    };
    if let Some(g) = args.get("gamma") {
        config.gamma = if g == "none" {
            None
        } else {
            Some(
                g.parse()
                    .map_err(|_| ArgError(format!("--gamma: cannot parse {g:?}")))?,
            )
        };
    }
    if let Some(p) = args.get("phonetic") {
        config.phonetic_distance = Some(
            p.parse()
                .map_err(|_| ArgError(format!("--phonetic: cannot parse {p:?}")))?,
        );
    }
    let semantics = match args.get("semantics").unwrap_or("node-type") {
        "node-type" => Semantics::NodeType,
        "slca" => Semantics::Slca,
        "elca" => Semantics::Elca,
        other => return Err(ArgError(format!("unknown semantics {other:?}"))),
    };
    config.check().map_err(|m| ArgError(m.to_string()))?;
    Ok((config, semantics))
}

fn cmd_suggest(raw: Vec<String>) -> Result<CmdOutput, ArgError> {
    let args = Args::parse(raw, &["json", "metrics-json"])?;
    args.reject_unknown(&[
        "k",
        "beta",
        "gamma",
        "epsilon",
        "min-depth",
        "semantics",
        "phonetic",
        "space-edits",
        "json",
        "preview",
        "threads",
        "batch",
        "trace-out",
        "metrics-json",
    ])?;
    let [input, query @ ..] = args.positional() else {
        return Err(ArgError("usage: xclean suggest <data> <query…>".into()));
    };
    let batch_file = args.get("batch");
    if query.is_empty() && batch_file.is_none() {
        return Err(ArgError(
            "no query keywords given (or use --batch <file>)".into(),
        ));
    }
    if !query.is_empty() && batch_file.is_some() {
        return Err(ArgError(
            "--batch replaces the inline query; give one or the other".into(),
        ));
    }
    let threads: usize = args.get_parsed("threads", 1usize)?;
    if threads == 0 {
        return Err(ArgError("--threads must be at least 1".into()));
    }
    let (mut config, semantics) = tuning_from_args(&args)?;
    config.num_threads = threads;
    let tau: u32 = args.get_parsed("space-edits", 0u32)?;

    let trace_out = args.get("trace-out").map(str::to_string);
    // Span capture is opt-in; the metrics registry is always live.
    let telemetry = match trace_out {
        Some(_) => Telemetry::with_tracing(),
        None => Telemetry::disabled(),
    };
    // A snapshot opens the one way `serve` opens it: one shard of a set
    // is refused, never answered as a corpus of its own.
    let engine = if input.ends_with(".xci") {
        XCleanEngine::open(input, config, semantics, telemetry)
            .map(|(engine, _)| engine)
            .map_err(|e| ArgError(e.to_string()))?
    } else {
        XCleanEngine::from_corpus(load_corpus(input)?, config)
            .with_semantics(semantics)
            .with_telemetry(telemetry)
    };
    let mut out = if let Some(batch) = batch_file {
        if tau > 0 {
            return Err(ArgError(
                "--space-edits is not supported with --batch".into(),
            ));
        }
        cmd_suggest_batch(&engine, batch, args.has_flag("json"))?
    } else {
        cmd_suggest_one(&engine, &args, query, tau)?
    };
    if let Some(path) = trace_out {
        let spans = engine.tracer().finished_spans().len();
        std::fs::write(&path, engine.tracer().chrome_trace_json().render())
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        out.lines
            .push(format!("trace: {spans} spans → {path} (chrome://tracing)"));
    }
    if args.has_flag("metrics-json") {
        out.lines.push(engine.metrics().metrics_json().render());
    }
    Ok(out)
}

fn cmd_suggest_one(
    engine: &XCleanEngine,
    args: &Args,
    query: &[String],
    tau: u32,
) -> Result<CmdOutput, ArgError> {
    let query_str = query.join(" ");
    let response = if tau > 0 {
        engine.suggest_with_space_edits(&query_str, tau)
    } else {
        engine.suggest(&query_str)
    };

    let mut lines = Vec::new();
    if args.has_flag("json") {
        let items: Json = response
            .suggestions
            .iter()
            .map(Suggestion::to_json)
            .collect();
        lines.push(items.render_pretty());
    } else if response.suggestions.is_empty() {
        lines.push("no valid suggestion (no candidate query has results)".to_string());
    } else {
        let previews: usize = args.get_parsed("preview", 0usize)?;
        for (i, s) in response.suggestions.iter().enumerate() {
            lines.push(format!(
                "{:>2}. {:<45} score {:>9.3}  entities {:>5}  edits {:?}",
                i + 1,
                s.query_string(),
                s.log_score,
                s.entity_count,
                s.distances
            ));
            if previews > 0 && i == 0 {
                for frag in engine.preview(s, previews) {
                    let short: String = frag.chars().take(160).collect();
                    lines.push(format!("      ↳ {short}"));
                }
            }
        }
        lines.extend(stage_table(
            &response.stats,
            response.elapsed,
            response.suggestions.len(),
        ));
    }
    Ok(CmdOutput::ok(lines))
}

/// The `--batch <file>` workload mode: answers every query in the file
/// through [`XCleanEngine::suggest_many`] (pooled when `--threads > 1`)
/// and reports per-query results plus throughput.
fn cmd_suggest_batch(engine: &XCleanEngine, path: &str, json: bool) -> Result<CmdOutput, ArgError> {
    let text = std::fs::read_to_string(path).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let queries: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if queries.is_empty() {
        return Err(ArgError(format!("{path}: no queries (one per line)")));
    }
    let start = std::time::Instant::now();
    let responses = engine.suggest_many(&queries);
    let elapsed = start.elapsed();

    let mut lines = Vec::new();
    if json {
        let items: Json = queries
            .iter()
            .zip(responses.iter())
            .map(|(q, r)| {
                let suggestions: Json = r
                    .suggestions
                    .iter()
                    .map(|s| {
                        Json::object([
                            ("query", s.query_string().into()),
                            ("log_score", s.log_score.into()),
                            ("distances", s.distances.iter().copied().collect()),
                            ("entities", s.entity_count.into()),
                        ])
                    })
                    .collect();
                Json::object([("input", (*q).into()), ("suggestions", suggestions)])
            })
            .collect();
        lines.push(items.render_pretty());
    } else {
        for (q, r) in queries.iter().zip(responses.iter()) {
            match r.suggestions.first() {
                Some(best) => lines.push(format!(
                    "{:<35} → {:<35} score {:>9.3}  ({} suggestions)",
                    q,
                    best.query_string(),
                    best.log_score,
                    r.suggestions.len()
                )),
                None => lines.push(format!("{q:<35} → (no valid suggestion)")),
            }
        }
        let qps = queries.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        lines.push(format!(
            "[{} queries in {:?} on {} thread(s); {:.1} q/s]",
            queries.len(),
            elapsed,
            engine.config().num_threads,
            qps
        ));
        // Stage shares are of summed per-query CPU time, not wall-clock,
        // so they stay meaningful however wide the worker pool is.
        let (merged, cpu, suggestions) = merge_batch_stats(&responses);
        lines.extend(stage_table(&merged, cpu, suggestions));
    }
    Ok(CmdOutput::ok(lines))
}

/// `xclean serve <index.xci>`: the long-running suggestion server.
/// Loads the snapshot once, then blocks in the event loop until
/// SIGINT/SIGTERM triggers a graceful drain; the returned lines are the
/// post-drain summary.
fn cmd_serve(raw: Vec<String>) -> Result<CmdOutput, ArgError> {
    let args = Args::parse(raw, &[])?;
    args.reject_unknown(&[
        "catalog",
        "host",
        "port",
        "threads",
        "max-connections",
        "cache-entries",
        "max-body-bytes",
        "k",
        "beta",
        "gamma",
        "epsilon",
        "min-depth",
        "semantics",
        "phonetic",
        "trace-out",
        "metrics-json",
        "slow-ms",
        "slo-ms",
        "slow-log",
    ])?;
    let catalog_path = args.get("catalog");
    // A bare snapshot is a one-entry catalog: `default` → snapshot,
    // resolved against the working directory.
    let (specs, base) = match (args.positional(), catalog_path) {
        ([], Some(cat_path)) => {
            let catalog =
                Catalog::load(cat_path).map_err(|e| ArgError(format!("{cat_path}: {e}")))?;
            if catalog.corpora.is_empty() {
                return Err(ArgError(format!("{cat_path}: catalog declares no corpora")));
            }
            let base = Path::new(cat_path)
                .parent()
                .unwrap_or_else(|| Path::new(""))
                .to_path_buf();
            (catalog.corpora, base)
        }
        ([snapshot], None) => (
            vec![CorpusSpec {
                name: "default".to_string(),
                snapshot: snapshot.clone(),
            }],
            PathBuf::new(),
        ),
        ([_], Some(_)) => {
            return Err(ArgError(
                "give a snapshot positional OR --catalog, not both".into(),
            ))
        }
        _ => {
            return Err(ArgError(
                "usage: xclean serve <index.xci | --catalog catalog.xcc> [--port P] \
                 [--threads N] [--cache-entries N]"
                    .into(),
            ))
        }
    };
    let (config, semantics) = tuning_from_args(&args)?;
    let defaults = ServerConfig::default();
    let slow_ms: u64 = args.get_parsed("slow-ms", 100u64)?;
    let slo_ms: u64 = args.get_parsed("slo-ms", 50u64)?;
    let server_config = ServerConfig {
        threads: args.get_parsed("threads", defaults.threads)?,
        max_connections: args.get_parsed("max-connections", defaults.max_connections)?,
        cache_entries: args.get_parsed("cache-entries", defaults.cache_entries)?,
        max_body_bytes: args.get_parsed("max-body-bytes", defaults.max_body_bytes)?,
        slow_threshold: Duration::from_millis(slow_ms),
        slo_threshold: Duration::from_millis(slo_ms),
        slow_log: args.get("slow-log").map(PathBuf::from),
        ..defaults
    };
    if server_config.max_connections == 0 {
        return Err(ArgError("--max-connections must be at least 1".into()));
    }
    if server_config.threads == 0 {
        return Err(ArgError("--threads must be at least 1".into()));
    }
    // `bind_tenants` takes the config; the banner prints what it got.
    let (threads, cache_entries) = (server_config.threads, server_config.cache_entries);
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args.get_parsed("port", 8080u16)?;
    let trace_out = args.get("trace-out").map(str::to_string);
    let metrics_out = args.get("metrics-json").map(str::to_string);

    if !cfg!(target_os = "linux") {
        return Err(ArgError(
            "serve needs Linux: the server's one wire path is an epoll event loop \
             (every other subcommand is portable)"
                .into(),
        ));
    }

    // The server path deliberately refuses to parse XML on the fly: a
    // long-running process should start from the index built offline
    // (`xclean index build`), exactly as the paper
    // separates offline indexing from interactive querying. v2 snapshots
    // open as a view over the file bytes (mmap-ed where possible), so no
    // start re-encodes the corpus; what a start pays is the checksum pass
    // over the file and the engine build, which fills the FastSS table
    // over the vocabulary. The banner times open, validate and engine.
    let origin = catalog_path.map_or(String::new(), |c| format!("{c}: "));
    let mut corpora: Vec<(String, Arc<XCleanEngine>)> = Vec::new();
    let mut banner: Vec<String> = Vec::new();
    for (i, spec) in specs.into_iter().enumerate() {
        // `--trace-out` writes the primary tenant's spans, so only it
        // records any.
        let telemetry = match trace_out {
            Some(_) if i == 0 => Telemetry::with_tracing(),
            _ => Telemetry::disabled(),
        };
        let path = spec.resolved_snapshot(&base);
        let started = Instant::now();
        let (engine, report) = XCleanEngine::open(&path, config.clone(), semantics, telemetry)
            .map_err(|e| {
                let hint = match e {
                    OpenError::Snapshot {
                        source: storage::StorageError::Io(_),
                        ..
                    } => {
                        " (build a snapshot first: xclean index build <data.xml> --out <index.xci>)"
                    }
                    _ => "",
                };
                ArgError(format!("{origin}corpus {:?}: {e}{hint}", spec.name))
            })?;
        // The snapshot was opened and validated; the rest of `open` is
        // the engine.
        let engine_nanos = (started.elapsed().as_nanos() as u64)
            .saturating_sub(report.open_nanos + report.validate_nanos);
        let backing = if report.mapped {
            "mmap-backed"
        } else {
            "in-memory"
        };
        banner.push(format!(
            "snapshot {}: v{} {backing} ({:.2} MB) — open {:.1}ms, validate {:.1}ms, engine {:.1}ms",
            path.display(),
            report.format_version,
            report.total_bytes as f64 / 1e6,
            report.open_nanos as f64 / 1e6,
            report.validate_nanos as f64 / 1e6,
            engine_nanos as f64 / 1e6,
        ));
        banner.push(format!(
            "corpus {}: fingerprint {:016x} → /suggest/{}",
            spec.name,
            engine.fingerprint(),
            spec.name
        ));
        corpora.push((spec.name, Arc::new(engine)));
    }
    // The primary (first) tenant's tracer feeds the post-drain trace
    // flush, exactly like the engine did in single-corpus mode.
    let primary_engine = corpora[0].1.clone();
    let addr = format!("{host}:{port}");
    let server = SuggestServer::bind_tenants(corpora, &addr, server_config)
        .map_err(|e| ArgError(format!("cannot bind {addr}: {e}")))?;
    let bound = server
        .local_addr()
        .map_err(|e| ArgError(format!("{addr}: {e}")))?;

    // `run` consumes the server; the metrics flush reads these after it.
    let (server_metrics, tenants) = (server.metrics().clone(), Arc::clone(server.tenants()));
    let cache_shards = tenants.primary().cache().shard_count();

    xclean_server::install_signal_handler();
    banner.push(format!(
        "xclean-server listening on http://{bound} — epoll event loop (keep-alive), {threads} worker(s), cache {cache_entries} entries / {cache_shards} shard(s), fingerprint {:016x}",
        server.fingerprint()
    ));
    banner.push(format!(
        "endpoints: POST/GET /suggest{}   GET {}   (Ctrl-C drains)",
        if catalog_path.is_some() {
            " /suggest/<corpus>"
        } else {
            ""
        },
        PAGE_ROUTES.join(" ")
    ));
    banner.push(format!(
        "slow-query log: threshold {slow_ms}ms → {}",
        args.get("slow-log").unwrap_or("stderr")
    ));
    // Banner goes out before the blocking event loop — CmdOutput lines
    // would only print after drain, far too late for "is it up yet?". A
    // reader that has gone away ends the banner, not the server.
    let mut stdout = std::io::stdout().lock();
    let _ = banner
        .iter()
        .try_for_each(|line| writeln!(stdout, "{line}"))
        .and_then(|()| stdout.flush());
    drop(stdout);

    let report = server.run().map_err(|e| ArgError(format!("server: {e}")))?;

    let mut lines = vec![
        format!(
            "drained: {} request(s), {} error(s) over {} connection(s) ({} keep-alive reuse); \
             cache {} hit(s) / {} miss(es) / {} eviction(s)",
            report.requests,
            report.errors,
            report.connections,
            report.keepalive_reuse,
            report.cache_hits,
            report.cache_misses,
            report.cache_evictions
        ),
        format!(
            "runtime: {} loop wake(s), {} queued job(s), {} flight event(s)",
            report.loop_wakes, report.queue_waits, report.flight_events
        ),
    ];
    if let Some(path) = trace_out {
        let spans = primary_engine.tracer().finished_spans().len();
        std::fs::write(&path, primary_engine.tracer().chrome_trace_json().render())
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        lines.push(format!("trace: {spans} spans → {path} (chrome://tracing)"));
    }
    if let Some(path) = metrics_out {
        std::fs::write(&path, tenants.metrics_json(&server_metrics).render())
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        lines.push(format!("metrics → {path}"));
    }
    Ok(CmdOutput::ok(lines))
}

fn cmd_stats(raw: Vec<String>) -> Result<CmdOutput, ArgError> {
    let args = Args::parse(raw, &[])?;
    args.reject_unknown(&[])?;
    let [input] = args.positional() else {
        return Err(ArgError("usage: xclean stats <data.xml|index.xci>".into()));
    };
    let corpus = load_corpus(input)?;
    let s = TreeStats::compute(corpus.tree());
    Ok(CmdOutput::ok(vec![
        format!("size        {:.2} MB", s.size_bytes as f64 / 1e6),
        format!("nodes       {}", s.node_count),
        format!("max depth   {}", s.max_depth),
        format!("avg depth   {:.2}", s.avg_depth),
        format!("node types  {}", s.distinct_paths),
        format!("vocabulary  {}", corpus.vocab().len()),
        format!("tokens      {}", corpus.vocab().total_tokens()),
        format!("elements    {}", corpus.element_count()),
    ]))
}

fn cmd_generate(raw: Vec<String>) -> Result<CmdOutput, ArgError> {
    let args = Args::parse(raw, &[])?;
    args.reject_unknown(&["out", "size", "seed", "vocab", "vocab-rotation"])?;
    let [kind] = args.positional() else {
        return Err(ArgError(
            "usage: xclean generate <dblp|dblp-large|inex> --out <corpus.xml>".into(),
        ));
    };
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("--out <corpus.xml> is required".into()))?;
    let tree = match kind.as_str() {
        "dblp" => generate_dblp(&DblpConfig {
            publications: args.get_parsed("size", 20_000usize)?,
            seed: args.get_parsed("seed", DblpConfig::default().seed)?,
            vocab_rotation: args.get_parsed("vocab-rotation", 0usize)?,
            ..Default::default()
        }),
        "dblp-large" => {
            let defaults = xclean_datagen::LargeDblpConfig::default();
            xclean_datagen::generate_large_dblp(&xclean_datagen::LargeDblpConfig {
                publications: args.get_parsed("size", defaults.publications)?,
                vocab_terms: args.get_parsed("vocab", defaults.vocab_terms)?,
                seed: args.get_parsed("seed", defaults.seed)?,
                ..defaults
            })
        }
        "inex" => generate_inex(&InexConfig {
            articles: args.get_parsed("size", 3_000usize)?,
            seed: args.get_parsed("seed", InexConfig::default().seed)?,
            ..Default::default()
        }),
        other => return Err(ArgError(format!("unknown dataset {other:?}"))),
    };
    let xml = to_xml(&tree);
    let mut f = std::fs::File::create(out).map_err(|e| ArgError(format!("{out}: {e}")))?;
    f.write_all(xml.as_bytes())
        .map_err(|e| ArgError(format!("{out}: {e}")))?;
    Ok(CmdOutput::ok(vec![format!(
        "wrote {} ({} nodes, {:.1} MB)",
        out,
        tree.len(),
        xml.len() as f64 / 1e6
    )]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xclean_telemetry::json;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("xclean_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn write_sample_xml(name: &str) -> String {
        let path = tmp(name);
        std::fs::write(
            &path,
            "<db><rec><t>health insurance</t></rec><rec><t>program instance</t></rec></db>",
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(vec![]);
        assert_eq!(out.code, 1);
        assert!(out.lines[0].contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        let out = run(argv(&["frobnicate"]));
        assert_eq!(out.code, 2);
        // `index` needs a subcommand: a missing or unknown one (a data
        // file included) prints the usage instead of building anything.
        for args in [
            vec!["index"],
            vec!["index", "frobnicate"],
            vec!["index", "data.xml", "--out", "data.xci"],
            vec!["index", "upgrade", "old.xci", "--out", "new.xci"],
        ] {
            let out = run(argv(&args));
            assert_eq!(out.code, 2, "{args:?}");
            assert!(out.lines[0].contains("USAGE"), "{:?}", out.lines);
        }
    }

    #[test]
    fn suggest_from_xml() {
        let xml = write_sample_xml("suggest.xml");
        let out = run(argv(&["suggest", &xml, "helth", "insurance"]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        assert!(out.lines[0].contains("health insurance"), "{:?}", out.lines);
    }

    #[test]
    fn suggest_json_output() {
        let xml = write_sample_xml("suggest_json.xml");
        let out = run(argv(&["suggest", &xml, "helth", "insurance", "--json"]));
        assert_eq!(out.code, 0);
        let v = json::parse(&out.lines[0]).unwrap();
        assert_eq!(v[0]["query"], "health insurance");
        assert!(v[0]["entities"].as_u64().unwrap() > 0);
    }

    #[test]
    fn index_then_suggest_from_index() {
        let xml = write_sample_xml("roundtrip.xml");
        let idx = tmp("roundtrip.xci").to_string_lossy().into_owned();
        let out = run(argv(&["index", "build", &xml, "--out", &idx]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        let out = run(argv(&["suggest", &idx, "helth", "insurance"]));
        assert_eq!(out.code, 0);
        assert!(out.lines[0].contains("health insurance"));
    }

    #[test]
    fn stats_command() {
        let xml = write_sample_xml("stats.xml");
        let out = run(argv(&["stats", &xml]));
        assert_eq!(out.code, 0);
        assert!(out.lines.iter().any(|l| l.starts_with("nodes")));
        assert!(out.lines.iter().any(|l| l.contains("vocabulary")));
    }

    #[test]
    fn generate_and_stat() {
        let path = tmp("gen.xml").to_string_lossy().into_owned();
        let out = run(argv(&["generate", "dblp", "--out", &path, "--size", "50"]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        let out = run(argv(&["stats", &path]));
        assert_eq!(out.code, 0);
    }

    #[test]
    fn semantics_and_config_flags() {
        let xml = write_sample_xml("flags.xml");
        for sem in ["node-type", "slca", "elca"] {
            let out = run(argv(&[
                "suggest",
                &xml,
                "helth",
                "insurance",
                "--semantics",
                sem,
                "--k",
                "3",
                "--gamma",
                "none",
                "--beta",
                "4",
            ]));
            assert_eq!(out.code, 0, "{sem}: {:?}", out.lines);
            assert!(out.lines[0].contains("health insurance"), "{sem}");
        }
    }

    #[test]
    fn preview_flag_prints_fragments() {
        let xml = write_sample_xml("preview.xml");
        let out = run(argv(&[
            "suggest",
            &xml,
            "helth",
            "insurance",
            "--preview",
            "2",
        ]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        assert!(
            out.lines
                .iter()
                .any(|l| l.contains("↳") && l.contains("health insurance")),
            "{:?}",
            out.lines
        );
    }

    #[test]
    fn bad_flags_are_rejected() {
        let xml = write_sample_xml("bad.xml");
        let out = run(argv(&["suggest", &xml, "x", "--nonsense", "1"]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("unknown option"));
        let out = run(argv(&["suggest", &xml, "x", "--semantics", "weird"]));
        assert_eq!(out.code, 2);
    }

    fn write_workload(name: &str) -> String {
        let path = tmp(name);
        std::fs::write(
            &path,
            "# sample workload\nhelth insurance\n\nprogram instence\nqqqq zzzz\n",
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn batch_mode_answers_every_query() {
        let xml = write_sample_xml("batch.xml");
        let wl = write_workload("batch.txt");
        for threads in ["1", "4"] {
            let out = run(argv(&[
                "suggest",
                &xml,
                "--batch",
                &wl,
                "--threads",
                threads,
            ]));
            assert_eq!(out.code, 0, "{threads}: {:?}", out.lines);
            // 3 query lines (comment + blank skipped) + 1 summary line
            // + 5 stage-table lines (header, slots, walk, rank, total).
            assert_eq!(out.lines.len(), 9, "{:?}", out.lines);
            assert!(out.lines[0].contains("health insurance"), "{:?}", out.lines);
            assert!(out.lines[1].contains("program instance"), "{:?}", out.lines);
            assert!(
                out.lines[2].contains("no valid suggestion"),
                "{:?}",
                out.lines
            );
            assert!(out.lines[3].contains("3 queries"), "{:?}", out.lines);
            assert!(out.lines[4].contains("stage"), "{:?}", out.lines);
            let walk = &out.lines[6];
            assert!(
                walk.contains("from columns") && walk.contains("scanned"),
                "{walk}"
            );
        }
    }

    #[test]
    fn batch_mode_json_output() {
        let xml = write_sample_xml("batch_json.xml");
        let wl = write_workload("batch_json.txt");
        let out = run(argv(&[
            "suggest",
            &xml,
            "--batch",
            &wl,
            "--threads",
            "2",
            "--json",
        ]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        let v = json::parse(&out.lines[0]).unwrap();
        assert_eq!(v[0]["input"], "helth insurance");
        assert_eq!(v[0]["suggestions"][0]["query"], "health insurance");
        assert_eq!(v[2]["input"], "qqqq zzzz");
    }

    /// `--json` bytes are pinned — pretty layout, key order, number
    /// formatting — by goldens that predate `xclean_telemetry::json`'s
    /// printer (`tests/fixtures/README.md`). They are answered from v2
    /// snapshots this test builds from the goldens' two corpora.
    #[test]
    fn json_output_matches_the_committed_goldens() {
        const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
        let tiny_xml = tmp("golden_tiny.xml");
        std::fs::write(
            &tiny_xml,
            "<db><rec><t>health insurance</t></rec><rec><t>program instance</t></rec>\
             <rec><t>data integration</t></rec></db>",
        )
        .unwrap();
        let tiny = tmp("golden_tiny.xci").to_string_lossy().into_owned();
        let dblp50 = tmp("golden_dblp50.xci").to_string_lossy().into_owned();
        for (xml, xci) in [
            (tiny_xml.to_string_lossy().into_owned(), &tiny),
            (format!("{FIXTURES}/dblp50.xml"), &dblp50),
        ] {
            assert_eq!(run(argv(&["index", "build", &xml, "--out", xci])).code, 0);
        }
        let workload = format!("{FIXTURES}/golden/batch_dblp50.txt");
        for (args, golden) in [
            (
                vec!["suggest", &tiny, "helth insurance", "--json"],
                "suggest_tiny.json",
            ),
            (
                vec!["suggest", &dblp50, "quey", "--json"],
                "suggest_dblp50.json",
            ),
            (
                vec!["suggest", &dblp50, "zzzzqq", "--json"],
                "suggest_none.json",
            ),
            (
                vec![
                    "suggest",
                    &dblp50,
                    "--batch",
                    &workload,
                    "--threads",
                    "2",
                    "--json",
                ],
                "batch_dblp50.json",
            ),
        ] {
            let out = run(argv(&args));
            assert_eq!(out.code, 0, "{golden}: {:?}", out.lines);
            let expected = std::fs::read_to_string(format!("{FIXTURES}/golden/{golden}")).unwrap();
            assert_eq!(out.lines.join("\n") + "\n", expected, "{golden}");
        }
    }

    #[test]
    fn batch_and_inline_query_conflict() {
        let xml = write_sample_xml("batch_conflict.xml");
        let wl = write_workload("batch_conflict.txt");
        let out = run(argv(&["suggest", &xml, "helth", "--batch", &wl]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("--batch"), "{:?}", out.lines);
        let out = run(argv(&["suggest", &xml, "helth", "--threads", "0"]));
        assert_eq!(out.code, 2);
    }

    /// An out-of-range tuning value is a usage error (exit 2, the reason
    /// on the first line) from both commands that take tuning flags —
    /// never the engine constructor's panic.
    #[test]
    fn out_of_range_tuning_is_a_usage_error() {
        let xml = write_sample_xml("bad_tuning.xml");
        for (flag, value, reason) in [
            ("--k", "0", "k must be at least 1"),
            ("--beta", "-1", "β must be non-negative"),
            ("--min-depth", "0", "min depth must be at least 1"),
            ("--gamma", "0", "γ must be at least 1"),
        ] {
            for mut cmd in [vec!["suggest", &xml, "helth"], vec!["serve", &xml]] {
                cmd.extend([flag, value]);
                let out = run(argv(&cmd));
                assert_eq!(out.code, 2, "{cmd:?}: {:?}", out.lines);
                assert!(out.lines[0].contains(reason), "{cmd:?}: {:?}", out.lines);
            }
        }
    }

    #[test]
    fn batch_results_are_thread_count_invariant() {
        let xml = write_sample_xml("batch_invariant.xml");
        let wl = write_workload("batch_invariant.txt");
        let mut outputs = Vec::new();
        for threads in ["1", "2", "8"] {
            let out = run(argv(&[
                "suggest",
                &xml,
                "--batch",
                &wl,
                "--threads",
                threads,
                "--json",
            ]));
            assert_eq!(out.code, 0);
            outputs.push(out.lines.join("\n"));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn index_inspect_summarises_snapshot() {
        let xml = write_sample_xml("inspect.xml");
        let idx = tmp("inspect.xci").to_string_lossy().into_owned();
        assert_eq!(run(argv(&["index", "build", &xml, "--out", &idx])).code, 0);
        let out = run(argv(&["index", "inspect", &idx]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        let text = out.lines.join("\n");
        // The default build format is v2: checksummed, six sections.
        assert!(text.contains("format      v2"), "{text}");
        assert!(text.contains("(fnv1a, verified)"), "{text}");
        for sec in [
            "TREE",
            "DIRECT",
            "VOCAB",
            "POSTINGS",
            "PATHSTATS",
            "TOKENIZER",
        ] {
            assert!(text.contains(sec), "missing section {sec}: {text}");
        }
        // The sample corpus has 4 distinct ≥3-char terms over 5 nodes.
        assert!(text.contains("nodes       5"), "{text}");
        assert!(text.contains("terms       4"), "{text}");
        assert!(text.contains("tokenizer   min_len=3"), "{text}");
        // Inspect must agree with a full load.
        let (corpus, _) = storage::open_file(&idx, &OpenOptions::default()).unwrap();
        assert!(text.contains(&format!("terms       {}", corpus.vocab().len())));
    }

    #[test]
    fn index_inspect_rejects_non_snapshots() {
        let xml = write_sample_xml("inspect_bad.xml");
        let out = run(argv(&["index", "inspect", &xml]));
        assert_eq!(out.code, 2, "{:?}", out.lines);
        let out = run(argv(&["index", "inspect"]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("usage"), "{:?}", out.lines);
    }

    #[test]
    fn serve_validates_before_binding() {
        // Missing snapshot path.
        let out = run(argv(&["serve"]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("usage"), "{:?}", out.lines);
        // Nonexistent snapshot: the error points at `index build`.
        let out = run(argv(&["serve", "/nonexistent/corpus.xci"]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("index build"), "{:?}", out.lines);
        // A file that is not a v2 snapshot is refused with the way out.
        let xml = write_sample_xml("serve_not_v2.xml");
        let not_v2 = tmp("serve_not_v2.xci").to_string_lossy().into_owned();
        std::fs::copy(&xml, &not_v2).unwrap();
        let out = run(argv(&["serve", &not_v2]));
        assert_eq!(out.code, 2);
        for needle in [not_v2.as_str(), "not an xclean v2 snapshot", "index build"] {
            assert!(out.lines[0].contains(needle), "{needle}: {:?}", out.lines);
        }
        // Flag typos and zero-width pools are rejected up front.
        let xml = write_sample_xml("serve_flags.xml");
        let idx = tmp("serve_flags.xci").to_string_lossy().into_owned();
        assert_eq!(run(argv(&["index", "build", &xml, "--out", &idx])).code, 0);
        let out = run(argv(&["serve", &idx, "--cache-entires", "64"]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("unknown option"), "{:?}", out.lines);
        let out = run(argv(&["serve", &idx, "--threads", "0"]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("--threads"), "{:?}", out.lines);
        let out = run(argv(&["serve", &idx, "--port", "notaport"]));
        assert_eq!(out.code, 2);
        // There is one wire path, so the flags that chose between two
        // are gone, not ignored; so is the logger's threshold. (So are
        // the two that chose how to open a snapshot:
        // `crates/cli/tests/errors.rs`.)
        for flag in ["--thread-pool", "--event-loop", "--log-level"] {
            let out = run(argv(&["serve", &idx, flag, "--threads", "2"]));
            assert_eq!(out.code, 2, "{flag}: {:?}", out.lines);
            assert!(
                out.lines[0].contains("unknown option"),
                "{flag}: {:?}",
                out.lines
            );
        }
        // A zero connection cap is rejected before binding.
        let out = run(argv(&["serve", &idx, "--max-connections", "0"]));
        assert_eq!(out.code, 2);
        assert!(
            out.lines[0].contains("--max-connections"),
            "{:?}",
            out.lines
        );
    }

    /// The usage text names every route the server answers.
    #[test]
    fn serve_usage_names_every_route() {
        let serve =
            &USAGE[USAGE.find("xclean serve").unwrap()..USAGE.find("xclean stats").unwrap()];
        for route in ["/suggest", "/suggest/<name>"]
            .into_iter()
            .chain(PAGE_ROUTES)
        {
            assert!(serve.contains(route), "{route} missing:\n{serve}");
        }
    }

    /// The flight recorder and the connection table have fixed sizes:
    /// the flags that used to size them are unknown options.
    #[test]
    fn serve_rejects_the_retired_ring_flags() {
        for flag in ["--flight-events", "--conn-registry"] {
            let out = run(argv(&["serve", "c.xci", flag, "64"]));
            assert_eq!(out.code, 2, "{flag}: {:?}", out.lines);
            assert!(
                out.lines[0].contains("unknown option"),
                "{flag}: {:?}",
                out.lines
            );
        }
    }

    #[test]
    fn index_build_registers_a_catalog_and_serve_validates_it() {
        let xml = write_sample_xml("buildcat.xml");
        let cat = tmp("buildcat.xcc").to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&cat);
        let snapshot = |name: &str| tmp(name).to_string_lossy().into_owned();
        let (idx, idx2) = (snapshot("buildcat.xci"), snapshot("buildcat2.xci"));
        let build = |out: &str, name: &str| {
            run(argv(&[
                "index",
                "build",
                &xml,
                "--out",
                out,
                "--catalog",
                &cat,
                "--name",
                name,
            ]))
        };
        let out = build(&idx, "dblp");
        assert_eq!(out.code, 0, "{:?}", out.lines);
        let loaded = Catalog::load(&cat).expect("catalog loads");
        assert_eq!(loaded.corpora.len(), 1);
        assert_eq!(loaded.corpora[0].name, "dblp");
        // A snapshot next to the catalog file is stored relative to it.
        assert_eq!(loaded.corpora[0].snapshot, "buildcat.xci");
        // Same name replaces; a second name appends; no name is `default`.
        assert_eq!(build(&idx, "dblp").code, 0);
        assert_eq!(Catalog::load(&cat).unwrap().corpora.len(), 1);
        assert_eq!(build(&idx2, "inex").code, 0);
        let out = run(argv(&[
            "index",
            "build",
            &xml,
            "--out",
            &idx2,
            "--catalog",
            &cat,
        ]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        let loaded = Catalog::load(&cat).unwrap();
        let names: Vec<_> = loaded.corpora.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["dblp", "inex", "default"]);
        // An invalid corpus name is refused before the snapshot is written.
        let idx3 = snapshot("buildcat3.xci");
        let _ = std::fs::remove_file(&idx3);
        assert_eq!(build(&idx3, "Not/Valid").code, 2);
        assert!(!std::path::Path::new(&idx3).exists());
        // --name is a catalog option, and `index shard` is gone.
        let out = run(argv(&[
            "index", "build", &xml, "--out", &idx, "--name", "x",
        ]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("--catalog"), "{:?}", out.lines);
        let out = run(argv(&["index", "shard", &xml, "--shards", "2"]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("build or inspect"), "{:?}", out.lines);
        // serve: catalog and positional snapshot are mutually exclusive,
        // a shard file is refused naming the corpus, and a missing
        // snapshot file is reported by path — all before binding.
        let out = run(argv(&["serve", &idx, "--catalog", &cat]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("not both"), "{:?}", out.lines);
        // Served bare, a shard of a 2-shard set is refused.
        let (corpus, _) = storage::open_file(&idx, &OpenOptions::default()).unwrap();
        let shard = snapshot("buildcat-shard0-of-2.xci");
        let parts = xclean_index::partition_corpus(&corpus, 2, 0).unwrap();
        storage::save_to_file_v2(&parts[0], &shard).unwrap();
        // `index inspect` lists its SHARD section and nothing more of the set.
        let out = run(argv(&["index", "inspect", &shard]));
        assert!(out
            .lines
            .iter()
            .any(|l| l.trim_start().starts_with("SHARD")));
        assert!(
            !out.lines.iter().any(|l| l.starts_with("shard")),
            "{:?}",
            out.lines
        );
        let out = run(argv(&["serve", &shard]));
        assert_eq!(out.code, 2);
        assert!(
            out.lines[0].contains("corpus \"default\"") && out.lines[0].contains("2 shards"),
            "{:?}",
            out.lines
        );
        let out = run(argv(&["serve", "--catalog", "/nonexistent/cat.xcc"]));
        assert_eq!(out.code, 2);
        std::fs::remove_file(&idx2).unwrap();
        let out = run(argv(&["serve", "--catalog", &cat]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("buildcat2.xci"), "{:?}", out.lines);
    }

    #[test]
    fn missing_file_is_reported() {
        let out = run(argv(&["stats", "/nonexistent/file.xml"]));
        assert_eq!(out.code, 2);
        assert!(out.lines[0].contains("error"));
    }

    #[test]
    fn suggest_prints_stage_table() {
        let xml = write_sample_xml("stage_table.xml");
        let out = run(argv(&["suggest", &xml, "helth", "insurance"]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        let table: Vec<&String> = out.lines.iter().filter(|l| l.starts_with("  ")).collect();
        assert_eq!(table.len(), 5, "{:?}", out.lines);
        assert!(table[0].contains("stage") && table[0].contains("counters"));
        assert!(table[1].contains("slots"));
        assert!(table[2].contains("walk") && table[2].contains("from columns"));
        assert!(table[2].contains("scanned") && table[2].contains("cached"));
        assert!(table[3].contains("rank") && table[3].contains("candidates"));
        assert!(table[4].contains("total") && table[4].contains("suggestion"));
        for row in &table[1..] {
            assert!(row.contains("ms") && row.contains('%'), "{row}");
        }
    }

    #[test]
    fn trace_out_writes_chrome_trace_json() {
        let xml = write_sample_xml("trace.xml");
        let trace = tmp("trace.json").to_string_lossy().into_owned();
        let out = run(argv(&[
            "suggest",
            &xml,
            "helth",
            "insurance",
            "--trace-out",
            &trace,
        ]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        assert!(
            out.lines.iter().any(|l| l.contains("trace:")),
            "{:?}",
            out.lines
        );
        let text = std::fs::read_to_string(&trace).unwrap();
        let v = json::parse(&text).unwrap();
        let events = v["traceEvents"].as_array().expect("traceEvents array");
        assert!(!events.is_empty());
        let names: Vec<&str> = events.iter().map(|e| e["name"].as_str().unwrap()).collect();
        for expected in [
            "suggest",
            "slot_build",
            "variant_gen",
            "walk_accumulate",
            "rank",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        for e in events {
            assert_eq!(e["ph"].as_str(), Some("X"), "{e:?}");
            assert!(e["ts"].as_u64().is_some() || e["ts"].as_f64().is_some());
            assert!(e["dur"].as_u64().is_some() || e["dur"].as_f64().is_some());
        }
    }

    #[test]
    fn metrics_json_reports_counters_and_stage_histograms() {
        let xml = write_sample_xml("metrics.xml");
        let out = run(argv(&[
            "suggest",
            &xml,
            "helth",
            "insurance",
            "--metrics-json",
        ]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        let v = json::parse(out.lines.last().unwrap()).expect("metrics JSON line");
        assert_eq!(v["counters"]["xclean_queries_total"].as_u64(), Some(1));
        // The query scans and is scored from the entity columns, so no
        // posting is read through the merged lists; the walk's work shows
        // in the subtrees it handed over.
        assert!(v["counters"]["xclean_subtrees_total"].as_u64().unwrap() > 0);
        let stages = [
            "xclean_stage_slot_nanos",
            "xclean_stage_walk_nanos",
            "xclean_stage_rank_nanos",
            "xclean_stage_total_nanos",
        ];
        for s in stages {
            let h = &v["histograms"][s];
            assert!(h["count"].as_u64().unwrap() >= 1, "{s}: {h:?}");
            for q in ["p50", "p95", "p99"] {
                assert!(h[q].as_u64().is_some(), "{s} missing {q}");
            }
        }
    }

    #[test]
    fn batch_metrics_aggregate_across_workers() {
        let xml = write_sample_xml("batch_metrics.xml");
        let wl = write_workload("batch_metrics.txt");
        let out = run(argv(&[
            "suggest",
            &xml,
            "--batch",
            &wl,
            "--threads",
            "4",
            "--metrics-json",
        ]));
        assert_eq!(out.code, 0, "{:?}", out.lines);
        let v = json::parse(out.lines.last().unwrap()).unwrap();
        assert_eq!(v["counters"]["xclean_queries_total"].as_u64(), Some(3));
        assert_eq!(
            v["histograms"]["xclean_stage_total_nanos"]["count"].as_u64(),
            Some(3)
        );
    }
}
