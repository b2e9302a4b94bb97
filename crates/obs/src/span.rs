//! Hierarchical timing spans.
//!
//! A [`Span`] is opened by name, optionally annotated with `key=value`
//! fields, and records itself when dropped: its elapsed time feeds the
//! per-name aggregates in [`crate::summary`], and — when a trace sink
//! is installed — one JSONL line is appended per close.
//!
//! Parent linkage is thread-aware. Each thread tracks its innermost
//! open span; [`Span::open`] links to it. Worker threads spawned by the
//! rayon stand-in start with no current span, so code fanning out over
//! the pool captures the parent id *before* the parallel region and
//! opens worker spans with [`Span::open_with_link`] — the trace then
//! shows `sim.batch` spans nesting under the `sim.run` that spawned
//! them, whichever thread they closed on.
//!
//! Linkage is also process-aware. A span can belong to a 128-bit
//! *trace* ([`crate::TraceId`]) and carry a `remote_parent`: the span
//! id of a parent that closed in another process. [`Span::ctx`] hands
//! out a shippable [`crate::TraceContext`]; [`Span::open_in_context`]
//! reopens it on the far side. Span ids are allocated as
//! `process salt + counter` in a 63-bit space, so ids minted by a
//! client and a daemon land in disjoint ranges and their merged JSONL
//! needs no renumbering. The active trace id propagates like the
//! current span: a thread-local that child spans inherit implicitly.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::trace::{process_salt, TraceContext, TraceId};
use crate::{sink, summary};

/// Span ids are unique per process and never reused; 0 means "none".
/// The running counter is offset by [`span_id_base`] so concurrently
/// tracing processes allocate from disjoint ranges.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Small dense thread ids (assigned on first span activity per thread),
/// stable for the thread's lifetime and friendlier in traces than the
/// opaque `std::thread::ThreadId` debug rendering.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Per-process base for span ids: the process salt squeezed into 62
/// bits, leaving headroom so `base + counter` never wraps and is never
/// 0 (the counter starts at 1).
fn span_id_base() -> u64 {
    static BASE: OnceLock<u64> = OnceLock::new();
    *BASE.get_or_init(|| process_salt() & ((1 << 62) - 1))
}

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    /// Innermost open span on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// Trace id of the innermost open traced span (0 = none). Child
    /// spans inherit it implicitly, like the current span id.
    static CURRENT_TRACE: Cell<u128> = const { Cell::new(0) };
}

/// This thread's dense trace id, assigned on first use.
pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        id
    })
}

/// The innermost open span on the calling thread, if any: the
/// thread-local state the nesting tests read.
#[cfg(test)]
pub(crate) fn current_span_id() -> Option<u64> {
    let id = CURRENT_SPAN.with(Cell::get);
    (id != 0).then_some(id)
}

/// The trace the calling thread is currently inside, if any. Capture
/// it with the parent's [`Span::id`] before a parallel region and pass
/// both to [`Span::open_with_link`] so worker-side spans nest under the
/// parent and stay in the trace.
pub fn current_trace() -> Option<TraceId> {
    TraceId::from_u128(CURRENT_TRACE.with(Cell::get))
}

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// The recording state of an open span. Boxed so an inert [`Span`] is a
/// single pointer-sized `None`.
pub(crate) struct SpanData {
    pub(crate) id: u64,
    /// Parent span id (0 = root).
    pub(crate) parent: u64,
    /// Parent span id in *another process* (0 = none). Distinct from
    /// `parent` so merge tooling can tell in-process nesting from
    /// wire-stitched links.
    pub(crate) remote_parent: u64,
    /// Trace this span belongs to (0 = untraced).
    pub(crate) trace: u128,
    /// Value to restore as the thread's current span on close.
    prev: u64,
    /// Value to restore as the thread's current trace on close.
    prev_trace: u128,
    /// Whether this span installed itself as the thread's current span
    /// (false for cross-thread spans opened with an explicit parent on
    /// a thread that is not the parent's).
    installed_on: u64,
    pub(crate) thread: u64,
    pub(crate) name: &'static str,
    start: Instant,
    pub(crate) start_ns: u64,
    pub(crate) fields: Vec<(&'static str, FieldValue)>,
}

/// An RAII timing region. Inert (a no-op carrying no allocation) when
/// tracing is off or the name is filtered out; otherwise records itself
/// to the summary aggregates and the trace sink on drop.
pub struct Span {
    inner: Option<Box<SpanData>>,
}

impl Span {
    /// Opens a span as a child of the calling thread's innermost open
    /// span, inside the thread's current trace (if any). Costs one
    /// relaxed atomic load when tracing is off.
    #[inline]
    pub fn open(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { inner: None };
        }
        Span::open_slow(
            name,
            CURRENT_SPAN.with(Cell::get),
            CURRENT_TRACE.with(Cell::get),
            0,
        )
    }

    /// Opens a span with an explicit parent and trace — the cross-thread
    /// variant for work fanned over the rayon stand-in pool, where the
    /// worker thread has no current span or trace of its own: capture
    /// the parent's [`Span::id`] and [`current_trace`] before the
    /// parallel region and pass them here.
    #[inline]
    pub fn open_with_link(name: &'static str, parent: Option<u64>, trace: Option<TraceId>) -> Span {
        if !crate::enabled() {
            return Span { inner: None };
        }
        Span::open_slow(
            name,
            parent.unwrap_or(0),
            trace.map_or(0, TraceId::as_u128),
            0,
        )
    }

    /// Opens a span that continues a trace begun in *another process*:
    /// the context's span id becomes this span's `remote_parent`, and
    /// its trace id (when present) becomes the thread's current trace
    /// for the span's extent. With `None` (or a context carrying no
    /// trace id) this is a plain [`Span::open`] — requests without
    /// trace headers cost nothing extra.
    #[inline]
    pub fn open_in_context(name: &'static str, ctx: Option<&TraceContext>) -> Span {
        if !crate::enabled() {
            return Span { inner: None };
        }
        let (trace, remote_parent) = match ctx {
            Some(ctx) => (ctx.trace.map_or(0, TraceId::as_u128), ctx.parent),
            None => (CURRENT_TRACE.with(Cell::get), 0),
        };
        Span::open_slow(name, CURRENT_SPAN.with(Cell::get), trace, remote_parent)
    }

    /// Opens a span that is guaranteed to be in a trace: the thread's
    /// current trace if one is active, else a freshly generated id.
    /// This is the client-side root — open it, ship [`Span::ctx`] on
    /// the wire, and every span the far side opens in that context
    /// shares the trace id.
    #[inline]
    pub fn open_traced(name: &'static str) -> Span {
        if !crate::enabled() {
            return Span { inner: None };
        }
        let mut trace = CURRENT_TRACE.with(Cell::get);
        if trace == 0 {
            trace = TraceId::generate().as_u128();
        }
        Span::open_slow(name, CURRENT_SPAN.with(Cell::get), trace, 0)
    }

    fn open_slow(name: &'static str, parent: u64, trace: u128, remote_parent: u64) -> Span {
        if !crate::filter_matches(name) {
            return Span { inner: None };
        }
        let id = span_id_base() + NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let thread = thread_id();
        let prev = CURRENT_SPAN.with(|cell| cell.replace(id));
        let prev_trace = CURRENT_TRACE.with(|cell| cell.replace(trace));
        Span {
            inner: Some(Box::new(SpanData {
                id,
                parent,
                remote_parent,
                trace,
                prev,
                prev_trace,
                installed_on: thread,
                thread,
                name,
                start: Instant::now(),
                start_ns: crate::epoch().elapsed().as_nanos() as u64,
                fields: Vec::new(),
            })),
        }
    }

    /// This span's id, for parenting work on other threads.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|d| d.id)
    }

    /// This span's trace id, if it belongs to a trace.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.inner
            .as_ref()
            .and_then(|d| TraceId::from_u128(d.trace))
    }

    /// A shippable handle to this span: its trace id (if any) plus its
    /// span id, for continuing the trace in another process via
    /// [`Span::open_in_context`]. `None` when the span is inert.
    pub fn ctx(&self) -> Option<TraceContext> {
        self.inner
            .as_ref()
            .map(|d| TraceContext::new(TraceId::from_u128(d.trace), d.id))
    }

    /// Attaches a field (builder form).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<FieldValue>) -> Span {
        self.record(key, value);
        self
    }

    /// Attaches a field to an open span. No-op when inert.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(data) = self.inner.as_mut() {
            data.fields.push((key, value.into()));
        }
    }

    /// Attaches a field whose value is only computed when the span is
    /// recording — the zero-overhead-when-off form for values that are
    /// not already at hand (gate counts, depths, ...).
    pub fn record_with<V: Into<FieldValue>>(
        &mut self,
        key: &'static str,
        value: impl FnOnce() -> V,
    ) {
        if let Some(data) = self.inner.as_mut() {
            data.fields.push((key, value().into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.inner.take() else {
            return;
        };
        // Restore the thread-current chain, but only on the thread that
        // installed this span (guards against guards sent across
        // threads, which std::thread::scope workers never do here).
        if thread_id() == data.installed_on {
            CURRENT_SPAN.with(|cell| cell.set(data.prev));
            CURRENT_TRACE.with(|cell| cell.set(data.prev_trace));
        }
        let elapsed_ns = data.start.elapsed().as_nanos() as u64;
        summary::record_span(data.name, elapsed_ns);
        sink::write_span(&data, elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_when_disabled() {
        let _g = crate::test_guard();
        crate::disable();
        let span = Span::open("test.inert");
        assert!(span.id().is_none());
        assert!(span.ctx().is_none());
        assert!(current_span_id().is_none());
    }

    #[test]
    fn nesting_links_parents_on_one_thread() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        let outer = Span::open("test.outer");
        let outer_id = outer.id().unwrap();
        assert_eq!(current_span_id(), Some(outer_id));
        {
            let inner = Span::open("test.inner");
            assert_eq!(inner.inner.as_ref().unwrap().parent, outer_id);
            assert_eq!(current_span_id(), inner.id());
        }
        // Dropping the inner span restores the outer as current.
        assert_eq!(current_span_id(), Some(outer_id));
        drop(outer);
        assert_eq!(current_span_id(), None);
        crate::disable();
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        let parent = Span::open("test.parent");
        let parent_id = parent.id();
        let child_parent = std::thread::scope(|s| {
            s.spawn(|| {
                let child = Span::open_with_link("test.child", parent_id, None);
                child.inner.as_ref().unwrap().parent
            })
            .join()
            .unwrap()
        });
        assert_eq!(Some(child_parent), parent_id);
        drop(parent);
        crate::disable();
    }

    #[test]
    fn filtered_names_are_inert() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        crate::set_filter(Some("keep."));
        assert!(Span::open("keep.this").id().is_some());
        assert!(Span::open("drop.this").id().is_none());
        crate::set_filter(None);
        crate::disable();
    }

    #[test]
    fn fields_collect_in_order() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        let mut span = Span::open("test.fields").with("a", 1u64);
        span.record("b", "two");
        span.record_with("c", || 3.0f64);
        let data = span.inner.as_ref().unwrap();
        assert_eq!(data.fields.len(), 3);
        assert_eq!(data.fields[0], ("a", FieldValue::U64(1)));
        assert_eq!(data.fields[1], ("b", FieldValue::Str("two".into())));
        assert_eq!(data.fields[2], ("c", FieldValue::F64(3.0)));
        drop(span);
        crate::disable();
    }

    #[test]
    fn traced_root_propagates_to_children() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        assert_eq!(current_trace(), None);
        let root = Span::open_traced("test.root");
        let trace = root.trace_id().unwrap();
        assert_eq!(current_trace(), Some(trace));
        {
            // Plain children inherit the trace implicitly.
            let child = Span::open("test.child");
            assert_eq!(child.trace_id(), Some(trace));
            // Nested open_traced joins the active trace instead of
            // minting a new one.
            let nested = Span::open_traced("test.nested");
            assert_eq!(nested.trace_id(), Some(trace));
        }
        drop(root);
        assert_eq!(current_trace(), None);
        crate::disable();
    }

    #[test]
    fn context_round_trip_stitches_remote_parent() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        let client = Span::open_traced("test.client");
        let ctx = client.ctx().unwrap();
        assert_eq!(ctx.parent, client.id().unwrap());
        // "Server side": no local current span, remote context present.
        let (remote_parent, trace, parent) = std::thread::scope(|s| {
            s.spawn(|| {
                let server = Span::open_in_context("test.server", Some(&ctx));
                let data = server.inner.as_ref().unwrap();
                (data.remote_parent, data.trace, data.parent)
            })
            .join()
            .unwrap()
        });
        assert_eq!(remote_parent, client.id().unwrap());
        assert_eq!(trace, client.trace_id().unwrap().as_u128());
        assert_eq!(parent, 0, "no in-process parent on the far side");
        drop(client);
        crate::disable();
    }

    #[test]
    fn missing_context_is_a_plain_open() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        let span = Span::open_in_context("test.plain", None);
        let data = span.inner.as_ref().unwrap();
        assert_eq!(data.remote_parent, 0);
        assert_eq!(data.trace, 0);
        drop(span);
        crate::disable();
    }

    #[test]
    fn link_carries_trace_across_threads() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        let root = Span::open_traced("test.fanroot");
        let parent = root.id();
        let trace = current_trace();
        let (child_parent, child_trace) = std::thread::scope(|s| {
            s.spawn(move || {
                let child = Span::open_with_link("test.fanchild", parent, trace);
                let data = child.inner.as_ref().unwrap();
                (data.parent, data.trace)
            })
            .join()
            .unwrap()
        });
        assert_eq!(Some(child_parent), root.id());
        assert_eq!(child_trace, root.trace_id().unwrap().as_u128());
        drop(root);
        crate::disable();
    }

    #[test]
    fn span_ids_are_salted_above_the_process_base() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        let span = Span::open("test.salted");
        let id = span.id().unwrap();
        assert!(id > span_id_base(), "ids sit above the per-process base");
        drop(span);
        crate::disable();
    }
}
