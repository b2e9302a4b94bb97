//! # supermarq-obs — zero-dependency structured tracing and metrics
//!
//! The paper's headline claim is *scalability*: SupermarQ scores must
//! stay measurable as devices and workloads grow. That requires seeing
//! where time goes. This crate is the workspace's telemetry layer:
//!
//! - **Spans** ([`Span`]) — named, hierarchical timing regions with
//!   `key=value` fields, monotonic start/elapsed timestamps, and parent
//!   linkage. Parent linkage is thread-aware: each thread tracks its
//!   current span, and code fanning work over the rayon stand-in pool
//!   captures the parent id before the parallel region and opens worker
//!   spans with [`Span::open_with_link`], so batch spans nest under
//!   the run that spawned them even though they close on other threads.
//! - **Metrics** ([`metrics`]) — a global registry of atomic counters
//!   and fixed-bucket (power-of-two) histograms. Hot paths are
//!   lock-free: one atomic add per update, with call-site handles cached
//!   through the [`counter!`]/[`histogram!`] macros.
//! - **Sinks** — a JSONL trace writer (`sink`) emitting one event per
//!   span close as a single atomic append, and an end-of-process summary
//!   table (`summary`) with per-span-name count/total/mean/p50/p99
//!   plus every registered metric.
//! - **Distributed traces** ([`TraceId`], [`TraceContext`]) — 128-bit
//!   trace ids that propagate across process boundaries: a client opens
//!   a root with [`Span::open_traced`], ships [`Span::ctx`] on the
//!   wire, and the server continues the trace with
//!   [`Span::open_in_context`], recording the client's span id as a
//!   `remote_parent`. Span ids are salted per process, so merged JSONL
//!   from both sides forms one well-formed forest.
//! - **Rolling windows** ([`WindowedHistogram`]) — time-sliced latency
//!   histograms for live telemetry ("p99 over the last minute", not
//!   "since boot").
//!
//! ## Overhead contract
//!
//! Tracing is **off by default** and must cost near-zero when off: a
//! span site is a single relaxed atomic load (`enabled`), metric
//! updates are one atomic add, and no field values are computed (use
//! [`Span::record_with`] for anything that isn't already at hand).
//! Enabling tracing must never perturb results — the instrumented
//! layers only *observe*; Counts, store records, and figure tables stay
//! byte-identical with tracing on or off (test-enforced at the
//! workspace level).
//!
//! ## Filtering
//!
//! The `SUPERMARQ_TRACE` environment variable holds a comma-separated
//! list of span-name prefixes (e.g. `transpile.,sim.run`); when set and
//! non-empty, only matching spans are recorded. It is re-read every
//! time tracing is enabled.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod metrics;
pub(crate) mod sink;
mod span;
pub(crate) mod summary;
mod trace;
pub(crate) mod window;

pub use span::{current_trace, FieldValue, Span};
pub use trace::{TraceContext, TraceId};
pub use window::{WindowDigest, WindowedHistogram};

/// The single global switch. Span sites load this with relaxed ordering
/// and bail before doing any other work when tracing is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` when tracing is on. One relaxed atomic load — the entire cost
/// of an untraced span site.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn filter() -> &'static Mutex<Option<Vec<String>>> {
    static FILTER: OnceLock<Mutex<Option<Vec<String>>>> = OnceLock::new();
    FILTER.get_or_init(|| Mutex::new(None))
}

/// Turns tracing on, re-reading the `SUPERMARQ_TRACE` prefix filter
/// from the environment.
pub fn enable() {
    let env = std::env::var("SUPERMARQ_TRACE").ok();
    set_filter(env.as_deref());
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns tracing off. Open spans on any thread become no-ops at close.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Overrides the span-name prefix filter (`None` or `""` admits every
/// span). Normally set from `SUPERMARQ_TRACE` by [`enable`]; exposed so
/// tests can exercise filtering without touching the process
/// environment.
pub(crate) fn set_filter(spec: Option<&str>) {
    let prefixes = spec.and_then(|s| {
        let parts: Vec<String> = s
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(str::to_string)
            .collect();
        (!parts.is_empty()).then_some(parts)
    });
    *filter().lock().expect("filter lock poisoned") = prefixes;
}

/// `true` when the active filter admits `name` (prefix match).
pub(crate) fn filter_matches(name: &str) -> bool {
    match &*filter().lock().expect("filter lock poisoned") {
        None => true,
        Some(prefixes) => prefixes.iter().any(|p| name.starts_with(p)),
    }
}

/// The process-wide monotonic epoch all `start_ns` timestamps are
/// relative to (first use wins).
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Opens (or truncates) `path` as the JSONL trace sink and enables
/// tracing. One line is appended per span close; see `sink` for the
/// event schema.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be created.
pub fn init_trace_file(path: impl AsRef<Path>) -> io::Result<()> {
    sink::set_trace_file(path.as_ref())?;
    enable();
    Ok(())
}

/// Flushes the trace sink, if one is installed.
pub fn flush() {
    sink::flush();
}

/// The end-of-process summary table (spans + metrics); see
/// `summary::render`.
pub fn summary_table() -> String {
    summary::render()
}

/// The single reporting path for human-facing progress lines: prints to
/// stderr and, when tracing is on, mirrors the message into the trace
/// as a `{"type":"log"}` event so trace files are self-contained.
pub fn progress(message: &str) {
    eprintln!("{message}");
    if enabled() {
        sink::write_log(message);
    }
}

/// Emits a structured `{"type":"event"}` trace line (no timing, no
/// span id) — used for one-shot facts like end-of-sweep statistics.
/// No-op when tracing is off.
pub fn emit_event(name: &str, fields: &[(&str, FieldValue)]) {
    if enabled() {
        sink::write_event(name, fields);
    }
}

/// Resets all aggregated state — span summaries, metric values, the
/// trace sink, and the filter — but not the enabled flag. For tests.
pub fn reset_for_tests() {
    summary::reset();
    metrics::reset();
    sink::clear_trace_writer();
    set_filter(None);
}

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    // Tests mutate process-global tracing state; serialize them. A
    // poisoned lock only means a previous test panicked — the guard is
    // still valid for mutual exclusion.
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        let _g = test_guard();
        disable();
        assert!(!enabled());
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }

    #[test]
    fn filter_prefix_semantics() {
        let _g = test_guard();
        set_filter(Some("transpile.,sim.run"));
        assert!(filter_matches("transpile.route"));
        assert!(filter_matches("sim.run"));
        assert!(!filter_matches("sim.batch"));
        assert!(!filter_matches("store.read"));
        set_filter(Some(""));
        assert!(filter_matches("anything"));
        set_filter(None);
        assert!(filter_matches("anything"));
    }
}
