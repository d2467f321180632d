//! In-memory spans recorded by the harness around each call into a
//! layer's public function, and what is derived from them: per-layer
//! self time and a Chrome-trace file.
//!
//! A span's *self time* is its duration minus the part of its interval
//! its child spans cover. Root spans belong to the harness itself (layer
//! `bench`), so their self time is the share of a request no layer
//! accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer name of the harness's own root spans.
pub const BENCH_LAYER: &str = "bench";

/// Most spans written to the Chrome-trace file; the per-layer table is
/// always computed from every span.
pub const MAX_TRACE_EVENTS: usize = 50_000;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The workspace crate that owns the called function.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start: u64,
    /// End, nanoseconds since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

/// Records spans in memory; nothing is written until the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span; returns its index.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, request: u64) -> usize {
        let start = self.now();
        self.begin_at(name, layer, request, start)
    }

    fn begin_at(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        start: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) -> u64 {
        let end = self.now();
        self.end_at(id, end)
    }

    fn end_at(&mut self, id: usize, end: u64) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = end;
        end - self.spans[id].start
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.begin(name, layer, request);
        let out = f(self);
        self.end(id);
        out
    }

    /// Lays `pieces` (name, layer, nanoseconds) end to end as children of
    /// the closed span `parent`, starting at its start and clipped to its
    /// end. Used where a request's server-side pieces were timed
    /// in-process, outside the round trip they are attributed to.
    pub fn attribute(&mut self, parent: usize, pieces: &[(&'static str, &'static str, u64)]) {
        let (mut at, end, request) = {
            let p = &self.spans[parent];
            (p.start, p.end, p.request)
        };
        for &(name, layer, nanos) in pieces {
            let stop = (at + nanos).min(end);
            self.spans.push(Span {
                name,
                layer,
                start: at,
                end: stop,
                parent: Some(parent),
                request,
            });
            at = stop;
        }
    }

    /// Every span recorded so far, in start order per nesting level.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of the intervals
/// its children cover (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start.max(spans[p].start);
            let hi = s.end.min(spans[p].end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// Layer → (span count, self time in nanoseconds), by layer name.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Total duration of the root spans, nanoseconds.
    pub total: u64,
    /// Root spans.
    pub requests: u64,
}

impl LayerTable {
    /// Share of the traced total that no layer below the harness
    /// accounts for: 1 − Σ layer self times / total.
    pub fn unattributed_share(&self) -> f64 {
        let attributed: u64 = self
            .layers
            .iter()
            .filter(|(layer, _)| **layer != BENCH_LAYER)
            .map(|(_, (_, nanos))| nanos)
            .sum();
        1.0 - attributed as f64 / self.total as f64
    }
}

/// Sums self times by layer.
pub fn layer_table(spans: &[Span]) -> LayerTable {
    let own = self_times(spans);
    let mut table = LayerTable {
        layers: BTreeMap::new(),
        total: 0,
        requests: 0,
    };
    for (s, own) in spans.iter().zip(own) {
        let entry = table.layers.entry(s.layer).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += own;
        if s.parent.is_none() {
            table.total += s.end - s.start;
            table.requests += 1;
        }
    }
    table
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the first
/// [`MAX_TRACE_EVENTS`] spans: complete events, microsecond timestamps,
/// the layer as category, parent and request id as arguments.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().take(MAX_TRACE_EVENTS).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}",
            s.name,
            s.layer,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.request,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("request", BENCH_LAYER, 0, 100, None),
            span("slots", "xclean", 10, 40, Some(0)),
            span("variants", "fastss", 15, 35, Some(1)),
            span("run", "xclean", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20, 50]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span("request", BENCH_LAYER, 100, 200, None),
            span("a", "server", 110, 150, Some(0)),
            span("b", "server", 140, 170, Some(0)),
            span("c", "server", 190, 260, Some(0)),
            span("d", "server", 120, 130, Some(0)),
        ];
        // Covered: [110,170) ∪ [190,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn layer_table_sums_self_times_and_finds_the_unattributed_share() {
        let spans = [
            span("request", BENCH_LAYER, 0, 100, None),
            span("slots", "xclean", 10, 40, Some(0)),
            span("variants", "fastss", 15, 35, Some(1)),
            span("run", "xclean", 40, 90, Some(0)),
            span("request", BENCH_LAYER, 100, 200, None),
            span("run", "xclean", 100, 180, Some(4)),
        ];
        let t = layer_table(&spans);
        assert_eq!(t.total, 200);
        assert_eq!(t.requests, 2);
        assert_eq!(t.layers[BENCH_LAYER], (2, 40));
        assert_eq!(t.layers["xclean"], (3, 140));
        assert_eq!(t.layers["fastss"], (1, 20));
        assert!((t.unattributed_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_under_the_innermost_open_one() {
        let mut r = Recorder::new();
        let root = r.begin_at("request", BENCH_LAYER, 7, 0);
        let a = r.begin_at("slots", "xclean", 7, 10);
        let b = r.begin_at("variants", "fastss", 7, 12);
        assert_eq!(r.end_at(b, 20), 8);
        r.end_at(a, 30);
        let c = r.begin_at("run", "xclean", 7, 30);
        r.end_at(c, 80);
        r.end_at(root, 100);
        let parents: Vec<_> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(r.spans().iter().all(|s| s.request == 7));
        assert_eq!(self_times(r.spans()), vec![30, 12, 8, 50]);
    }

    #[test]
    fn attributed_pieces_become_clipped_children() {
        let mut r = Recorder::new();
        let root = r.begin_at("round_trip", "server", 1, 1_000);
        r.end_at(root, 1_100);
        r.attribute(
            root,
            &[
                ("parse", "server", 30),
                ("engine", "xclean", 50),
                ("render", "server", 40),
            ],
        );
        let s = r.spans();
        assert_eq!((s[1].start, s[1].end), (1_000, 1_030));
        assert_eq!((s[2].start, s[2].end), (1_030, 1_080));
        // Clipped to the round trip it is attributed to.
        assert_eq!((s[3].start, s[3].end), (1_080, 1_100));
        assert_eq!(self_times(s)[0], 0);
    }

    #[test]
    fn chrome_trace_is_json_the_repo_parser_accepts() {
        let spans = [
            span("request", BENCH_LAYER, 0, 1_500, None),
            span("run", "xclean", 250, 1_250, Some(0)),
        ];
        let json = xclean_server::json::parse(&chrome_trace_json(&spans)).unwrap();
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("xclean"));
        assert_eq!(
            events[1].get("dur"),
            Some(&xclean_server::json::Json::Num(1.0))
        );
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }
}
