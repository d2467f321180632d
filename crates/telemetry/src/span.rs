//! Hierarchical span tracing.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s; the guard records a
//! [`SpanRecord`] into the tracer's one buffer when dropped. The buffer
//! is a [`Ring`] of the newest [`SPAN_CAPACITY`] spans, so a tracing
//! server's memory stays bounded however long it runs; the export
//! counts the spans it let go. Parent
//! attribution uses a thread-local stack of open spans (spans are
//! strictly nested per thread by guard drop order), and each recording
//! thread is tagged with a small stable id so traces from the
//! `suggest_many` worker pool land in separate Chrome-trace lanes.
//!
//! **Disabled-path contract:** a disabled tracer performs *no* work —
//! [`Tracer::span`] is a branch on an `Option` that returns an inert
//! guard without reading the clock, touching thread-local state, or
//! allocating. The detail closure of [`Tracer::span_with`] is never
//! evaluated when disabled.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::json::Json;
use crate::ring::Ring;

/// Finished spans a tracer keeps for export: the newest ones, the older
/// ones counted as dropped. A suggestion records about five, so this
/// holds the last ~13 000 queries' worth.
pub const SPAN_CAPACITY: usize = 1 << 16;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id within the tracer (allocation order, starts at 1).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name (e.g. `"walk_accumulate"`).
    pub name: &'static str,
    /// Optional dynamic detail (query text, shard range, …).
    pub detail: Option<String>,
    /// Start offset from the tracer epoch, in nanoseconds.
    pub start_nanos: u64,
    /// Span duration in nanoseconds (≥ 1 by construction).
    pub dur_nanos: u64,
    /// Small stable id of the recording thread (1, 2, …).
    pub thread: u64,
}

#[derive(Debug)]
struct TracerInner {
    /// Distinguishes tracers on the shared thread-local span stack.
    tracer_id: u64,
    epoch: Instant,
    next_span: AtomicU64,
    finished: Ring<SpanRecord>,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small per-thread id, assigned on first span recorded by a thread.
    static THREAD_TAG: Cell<u64> = const { Cell::new(0) };
    /// Stack of open spans on this thread as `(tracer_id, span_id)`.
    /// Keyed by tracer so two live tracers interleaving on one thread
    /// cannot adopt each other's spans as parents.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| {
        let mut tag = t.get();
        if tag == 0 {
            tag = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
            t.set(tag);
        }
        tag
    })
}

/// Hierarchical span tracer; cheap to clone (shared buffers) and safe to
/// use from many threads at once.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing, for free.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                tracer_id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                finished: Ring::with_capacity(SPAN_CAPACITY),
            })),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; it is recorded when the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.start_under(name, None, None)
    }

    /// Like [`Tracer::span`] with a lazily-built detail string. The
    /// closure only runs when the tracer is enabled, so dynamic labels
    /// cost nothing on the disabled path.
    pub fn span_with(&self, name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard<'_> {
        if self.inner.is_some() {
            self.start_under(name, Some(detail()), None)
        } else {
            SpanGuard { active: None }
        }
    }

    /// The id of the innermost open span *on the calling thread*, if any.
    /// Capture this before handing work to another thread and pass it to
    /// [`Tracer::span_under`] there, so a request's spans form one tree
    /// even across the worker pool (the stack itself is thread-local and
    /// cannot see across threads).
    pub fn current_span_id(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|&&(t, _)| t == inner.tracer_id)
                .map(|&(_, id)| id)
        })
    }

    /// Opens a span with an explicit parent (typically a span id captured
    /// on another thread via [`Tracer::current_span_id`]). The span still
    /// joins this thread's stack, so spans nested under it chain normally.
    pub fn span_under(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        self.start_under(name, None, parent)
    }

    /// The one way a span opens: under `explicit_parent` when given,
    /// else under this thread's innermost open span of this tracer.
    fn start_under(
        &self,
        name: &'static str,
        detail: Option<String>,
        explicit_parent: Option<u64>,
    ) -> SpanGuard<'_> {
        let Some(inner) = &self.inner else {
            return SpanGuard { active: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        // The explicit parent wins over whatever is open on this thread
        // (usually nothing — the point is adoption across threads), but
        // the new span still joins the local stack so its own children
        // parent under it.
        let parent = explicit_parent.or_else(|| self.current_span_id());
        SPAN_STACK.with(|s| s.borrow_mut().push((inner.tracer_id, id)));
        SpanGuard {
            active: Some(ActiveSpan {
                inner,
                id,
                parent,
                name,
                detail,
                start: Instant::now(),
            }),
        }
    }

    /// Snapshot of the finished spans kept (the newest
    /// [`SPAN_CAPACITY`]), in start order.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = inner.finished.newest(SPAN_CAPACITY);
        out.sort_by_key(|s| (s.start_nanos, s.id));
        out
    }

    /// Finished spans the buffer let go to keep the newest
    /// [`SPAN_CAPACITY`].
    pub fn dropped_spans(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.finished.dropped())
    }

    /// Exports the finished spans kept as a Chrome trace-event document
    /// (the `{"traceEvents": [...]}` envelope with complete — `"ph":
    /// "X"` — events), loadable in `chrome://tracing` and Perfetto.
    /// Timestamps and durations are microseconds with nanosecond
    /// precision. An enabled tracer's document also carries
    /// `"otherData": {"dropped_spans": n}`, the spans it let go.
    pub fn chrome_trace_json(&self) -> Json {
        let events = self.finished_spans().into_iter().map(|s| {
            let mut args = vec![("span_id", s.id.into())];
            args.extend(s.parent.map(|p| ("parent_id", p.into())));
            args.extend(s.detail.map(|d| ("detail", d.into())));
            Json::object([
                ("name", s.name.into()),
                ("cat", "xclean".into()),
                ("ph", "X".into()),
                ("ts", (s.start_nanos as f64 / 1e3).into()),
                ("dur", (s.dur_nanos as f64 / 1e3).into()),
                ("pid", 1u32.into()),
                ("tid", s.thread.into()),
                ("args", Json::object(args)),
            ])
        });
        let mut trace = vec![("traceEvents", events.collect())];
        if self.is_enabled() {
            let dropped = Json::object([("dropped_spans", self.dropped_spans().into())]);
            trace.push(("otherData", dropped));
        }
        Json::object(trace)
    }
}

#[derive(Debug)]
struct ActiveSpan<'a> {
    inner: &'a Arc<TracerInner>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    detail: Option<String>,
    start: Instant,
}

/// RAII guard for an open span; records the span when dropped. Inert (all
/// methods and the drop are no-ops) when the tracer is disabled.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_nanos = (active.start.elapsed().as_nanos() as u64).max(1);
        let start_nanos = (active.start - active.inner.epoch).as_nanos() as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop in strict nesting order per thread, so our entry
            // is the deepest one belonging to this tracer.
            if let Some(pos) = s
                .iter()
                .rposition(|&(t, id)| t == active.inner.tracer_id && id == active.id)
            {
                s.remove(pos);
            }
        });
        let thread = thread_tag();
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            detail: active.detail,
            start_nanos,
            dur_nanos,
            thread,
        };
        active.inner.finished.push_with(|_| record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        {
            let _a = t.span("a");
            let _b = t.span_with("b", || panic!("detail closure must not run"));
        }
        assert!(t.finished_spans().is_empty());
        assert_eq!(t.chrome_trace_json().render(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let t = Tracer::enabled();
        {
            let _root = t.span("root");
            {
                let _child = t.span("child");
                let _grandchild = t.span("grandchild");
            }
            let _sibling = t.span("sibling");
        }
        let spans = t.finished_spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("root");
        assert_eq!(root.parent, None);
        assert_eq!(by_name("child").parent, Some(root.id));
        assert_eq!(by_name("grandchild").parent, Some(by_name("child").id));
        assert_eq!(by_name("sibling").parent, Some(root.id));
        for s in &spans {
            assert!(s.dur_nanos >= 1);
        }
        // Parent spans start no later and end no earlier than children.
        let child = by_name("child");
        assert!(root.start_nanos <= child.start_nanos);
        assert!(root.start_nanos + root.dur_nanos >= child.start_nanos + child.dur_nanos);
    }

    #[test]
    fn two_tracers_do_not_adopt_each_others_spans() {
        let a = Tracer::enabled();
        let b = Tracer::enabled();
        {
            let _outer = a.span("outer_a");
            let _inner = b.span("inner_b"); // must NOT parent under outer_a
            let _leaf = a.span("leaf_a"); // must parent under outer_a
        }
        assert_eq!(b.finished_spans()[0].parent, None);
        let spans = a.finished_spans();
        let outer = spans.iter().find(|s| s.name == "outer_a").unwrap();
        let leaf = spans.iter().find(|s| s.name == "leaf_a").unwrap();
        assert_eq!(leaf.parent, Some(outer.id));
    }

    #[test]
    fn threads_get_distinct_lanes() {
        let t = Tracer::enabled();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _s = t.span("worker");
                });
            }
        });
        let spans = t.finished_spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].thread, spans[1].thread);
        // Cross-thread spans have no parent (the stack is thread-local).
        assert!(spans.iter().all(|s| s.parent.is_none()));
    }

    #[test]
    fn span_under_adopts_cross_thread_parent() {
        let t = Tracer::enabled();
        {
            let _req = t.span("request");
            let parent = t.current_span_id();
            assert!(parent.is_some());
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _w = t.span_under("partition", parent);
                    let _leaf = t.span("partition_leaf"); // chains under partition
                });
            });
        }
        let spans = t.finished_spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let req = by_name("request");
        let part = by_name("partition");
        assert_eq!(part.parent, Some(req.id), "cross-thread adoption");
        assert_eq!(by_name("partition_leaf").parent, Some(part.id));
        assert_ne!(req.thread, part.thread);
    }

    #[test]
    fn span_under_on_disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert_eq!(t.current_span_id(), None);
        {
            let _s = t.span_under("x", Some(7));
            let _d = t.span_with("y", || panic!("must not run"));
        }
        assert!(t.finished_spans().is_empty());
    }

    #[test]
    fn chrome_trace_shape() {
        let t = Tracer::enabled();
        {
            let _s = t.span_with("suggest", || "helth \"insurance\"".into());
        }
        let json = t.chrome_trace_json().render();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"suggest\""));
        assert!(json.contains("helth \\\"insurance\\\""));
        assert!(json.contains("\"pid\":1"));
        let v = crate::json::parse(&json).expect("the trace is JSON");
        let event = &v["traceEvents"][0];
        assert_eq!(event["name"], "suggest");
        assert_eq!(event["ph"], "X");
        assert!(event["ts"].as_f64().is_some() && event["dur"].as_f64().is_some());
        assert_eq!(event["args"]["detail"], "helth \"insurance\"");
        assert_eq!(v["otherData"]["dropped_spans"].as_u64(), Some(0));
    }

    /// Queries past the buffer's capacity, each a `suggest` span over
    /// its stages: the trace keeps exactly the newest `SPAN_CAPACITY`
    /// spans and reports the rest as dropped.
    #[test]
    fn spans_past_the_capacity_are_dropped_and_counted() {
        let t = Tracer::enabled();
        let queries = SPAN_CAPACITY / 4 + 10;
        for q in 0..queries {
            let _suggest = t.span_with("suggest", || format!("q{q}"));
            for stage in ["slot_build", "walk_accumulate", "rank"] {
                let _stage = t.span(stage);
            }
        }
        let spans = t.finished_spans();
        assert_eq!(spans.len(), SPAN_CAPACITY);
        assert_eq!(t.dropped_spans(), 40);
        // The newest are kept: the first query's spans are gone.
        let last = format!("q{}", queries - 1);
        assert!(spans
            .iter()
            .any(|s| s.detail.as_deref() == Some(last.as_str())));
        assert!(!spans.iter().any(|s| s.detail.as_deref() == Some("q0")));
        let v = crate::json::parse(&t.chrome_trace_json().render()).unwrap();
        assert_eq!(v["otherData"]["dropped_spans"].as_u64(), Some(40));
        assert_eq!(
            v["traceEvents"].as_array().map(<[_]>::len),
            Some(SPAN_CAPACITY)
        );
    }
}
