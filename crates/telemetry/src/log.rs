//! Dependency-free leveled structured logging.
//!
//! Every binary in the workspace used to write ad-hoc `eprintln!` lines;
//! this module gives them one shared format instead. A [`Logger`] is
//!
//! - **leveled** — one threshold, [`Level::Error`] through
//!   [`Level::Trace`], for the whole process (`serve --log-level`);
//! - **structured** — every line is logfmt carrying a timestamp, level,
//!   target, message, and arbitrary key=value fields
//!   (`ts=1.234 level=info target=server msg="..." key=value`);
//! - **testable** — the clock and the sink are injected, so tests pin
//!   timestamps with a [`ManualClock`](crate::ManualClock) and capture
//!   output in a buffer. Nothing here sleeps or reads the wall clock.
//!
//! Binaries use the process-global logger (installed once with
//! [`set_global`], defaulting to `info` on stderr) through the
//! [`log_error!`](crate::log_error) … [`log_trace!`](crate::log_trace)
//! macros:
//!
//! ```
//! use xclean_telemetry::{log_info, log_warn};
//! log_info!("server", "listening", addr = "127.0.0.1:8080", threads = 4);
//! log_warn!("loadgen", format!("wave {} straggled", 3));
//! ```

use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::{MonotonicClock, SharedClock};

/// Log severity, most severe first. Filtering keeps a record when its
/// level is *at most* the configured level (`Error` always passes;
/// `Trace` only at the most verbose setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed; someone should look.
    Error,
    /// Something surprising that the process survived.
    Warn,
    /// Normal operational landmarks (startup, shutdown, progress).
    Info,
    /// Detail useful when debugging a specific subsystem.
    Debug,
    /// Firehose detail (per-iteration, per-event).
    Trace,
}

impl Level {
    /// The lowercase name used in log lines and `--log-level`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (case-insensitive). `None` for unknown names.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Quotes a logfmt value when needed (spaces, quotes, `=`, or empties);
/// bare otherwise.
fn logfmt_value(v: &str) -> String {
    if !v.is_empty()
        && v.chars()
            .all(|c| !c.is_whitespace() && c != '"' && c != '=' && c != '\\')
    {
        v.to_string()
    } else {
        format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

/// A leveled structured logger writing one logfmt line per record to a
/// sink.
pub struct Logger {
    level: Level,
    clock: SharedClock,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("level", &self.level)
            .finish_non_exhaustive()
    }
}

impl Logger {
    /// A logger with an injected clock and sink (the test constructor).
    pub fn new(level: Level, clock: SharedClock, sink: Box<dyn Write + Send>) -> Logger {
        Logger {
            level,
            clock,
            sink: Mutex::new(sink),
        }
    }

    /// A production logger: monotonic clock, writing to stderr.
    pub fn stderr(level: Level) -> Logger {
        Logger::new(
            level,
            Arc::new(MonotonicClock::new()),
            Box::new(std::io::stderr()),
        )
    }

    /// Whether a record at `level` would be written.
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level
    }

    /// Writes one record (if the level allows it). `fields` are
    /// appended key=value pairs; keys are caller-controlled identifiers,
    /// values arbitrary text.
    pub fn log(&self, level: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
        if !self.enabled(level) {
            return;
        }
        let ts = self.clock.now_nanos() as f64 / 1e9;
        let mut line = format!(
            "ts={ts:.6} level={level} target={} msg={}",
            logfmt_value(target),
            logfmt_value(msg)
        );
        for (k, v) in fields {
            line.push_str(&format!(" {k}={}", logfmt_value(v)));
        }
        line.push('\n');
        let mut sink = self.sink.lock().expect("log sink poisoned");
        // A broken sink must never take the process down with it.
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.flush();
    }
}

static GLOBAL: OnceLock<Logger> = OnceLock::new();

/// Installs the process-global logger. Returns `false` (and drops the
/// argument) if one was already installed — first writer wins, so `serve`
/// can configure logging before any subsystem emits a line.
pub fn set_global(logger: Logger) -> bool {
    GLOBAL.set(logger).is_ok()
}

/// The process-global logger; installs the default (`info`, stderr) on
/// first use if none was set.
pub fn global() -> &'static Logger {
    GLOBAL.get_or_init(|| Logger::stderr(Level::Info))
}

/// Logs through the global logger at an explicit level:
/// `log_event!(Level::Info, "target", "message", key = value, …)`.
/// Field values are rendered with `Display`. Prefer the per-level
/// shorthands ([`log_info!`](crate::log_info) etc.).
#[macro_export]
macro_rules! log_event {
    ($level:expr, $target:expr, $msg:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        let level = $level;
        let target = $target;
        let logger = $crate::log::global();
        if logger.enabled(level) {
            logger.log(
                level,
                target,
                ::std::convert::AsRef::<str>::as_ref(&$msg),
                &[$((stringify!($k), ::std::format!("{}", $v))),*],
            );
        }
    }};
}

/// `log_error!("target", "message", key = value, …)` — see [`log_event!`](crate::log_event).
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::log::Level::Error, $target, $($rest)+)
    };
}

/// `log_warn!("target", "message", key = value, …)` — see [`log_event!`](crate::log_event).
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::log::Level::Warn, $target, $($rest)+)
    };
}

/// `log_info!("target", "message", key = value, …)` — see [`log_event!`](crate::log_event).
#[macro_export]
macro_rules! log_info {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::log::Level::Info, $target, $($rest)+)
    };
}

/// `log_debug!("target", "message", key = value, …)` — see [`log_event!`](crate::log_event).
#[macro_export]
macro_rules! log_debug {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::log::Level::Debug, $target, $($rest)+)
    };
}

/// `log_trace!("target", "message", key = value, …)` — see [`log_event!`](crate::log_event).
#[macro_export]
macro_rules! log_trace {
    ($target:expr, $($rest:tt)+) => {
        $crate::log_event!($crate::log::Level::Trace, $target, $($rest)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    /// A capturing sink shared between the logger and the test.
    #[derive(Clone, Default)]
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedSink {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    fn logger(level: Level, nanos: u64) -> (Logger, SharedSink) {
        let sink = SharedSink::default();
        let logger = Logger::new(
            level,
            ManualClock::starting_at(nanos),
            Box::new(sink.clone()),
        );
        (logger, sink)
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Trace);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert_eq!(Level::Debug.to_string(), "debug");
    }

    #[test]
    fn logfmt_lines_carry_ts_level_target_and_fields() {
        let (logger, sink) = logger(Level::Info, 1_500_000);
        logger.log(
            Level::Info,
            "server",
            "listening",
            &[
                ("addr", "127.0.0.1:80".to_string()),
                ("threads", "4".to_string()),
            ],
        );
        assert_eq!(
            sink.text(),
            "ts=0.001500 level=info target=server msg=listening addr=127.0.0.1:80 threads=4\n"
        );
    }

    #[test]
    fn logfmt_quotes_values_with_spaces_and_quotes() {
        let (logger, sink) = logger(Level::Info, 0);
        logger.log(
            Level::Warn,
            "bench",
            "wave 3 straggled",
            &[("q", "helth \"cover\"".to_string())],
        );
        assert_eq!(
            sink.text(),
            "ts=0.000000 level=warn target=bench msg=\"wave 3 straggled\" \
             q=\"helth \\\"cover\\\"\"\n"
        );
    }

    #[test]
    fn filtered_records_write_nothing() {
        let (logger, sink) = logger(Level::Warn, 0);
        assert!(logger.enabled(Level::Error) && !logger.enabled(Level::Info));
        logger.log(Level::Info, "bench", "dropped", &[]);
        logger.log(Level::Debug, "server", "dropped too", &[]);
        logger.log(Level::Warn, "server", "kept", &[]);
        let text = sink.text();
        assert!(!text.contains("dropped"), "{text}");
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("msg=kept"), "{text}");
    }

    #[test]
    fn macros_route_through_the_global_logger() {
        // The global logger defaults to info on stderr; this only checks
        // the macros expand and filter without panicking.
        crate::log_info!("telemetry::test", "macro smoke", n = 1, label = "x");
        crate::log_trace!("telemetry::test", "filtered at default level");
        crate::log_event!(Level::Warn, "telemetry::test", format!("msg {}", 2));
        assert!(!global().enabled(Level::Trace));
    }
}
