//! In-daemon telemetry: the span ring buffer and the Prometheus text
//! exposition.
//!
//! The JSONL trace sink is process-global and file-backed — right for
//! offline analysis, wrong for a live daemon that wants to answer
//! "what just happened" over the wire. [`SpanRing`] is the in-memory
//! complement: a bounded ring of completed [`SpanRecord`]s, overwriting
//! oldest-first, queryable through the `trace` protocol op.
//!
//! Lock-light, not lock-free: one atomic head allocates slots
//! (`fetch_add`), and each slot is its own tiny mutex held only for a
//! record move. Writers never contend on a shared lock unless the ring
//! has fully wrapped within one write's critical section (at which
//! point losing a record to overwrite is the documented retention
//! policy anyway). Readers walk the ring newest-backward and return
//! spans oldest-first.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use supermarq_store::Json;

use crate::server::ServeMetrics;

/// One completed span, flattened for the wire. Field names mirror the
/// JSONL sink schema (`id`/`parent`/`trace`/`elapsed_ns`) so tooling
/// can treat ring output and trace files uniformly.
#[derive(Debug, Clone)]
pub(crate) struct SpanRecord {
    /// Span name (`serve.request`, `serve.execute`, ...).
    pub name: &'static str,
    /// Request op (`run`, `batch`, ...) or `""` when not applicable.
    pub op: &'static str,
    /// 32-hex trace id, when the span belonged to a distributed trace.
    pub trace: Option<String>,
    /// Span id (0 when tracing was off — the record still carries
    /// timing).
    pub span: u64,
    /// Remote parent span id (0 = none).
    pub parent: u64,
    /// Milliseconds since the daemon started.
    pub start_ms: u64,
    /// Wall time the span covered.
    pub elapsed_ns: u64,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// How the result was obtained (`warm`, `executed`, `coalesced`,
    /// or `""` for non-run ops).
    pub source: &'static str,
}

impl SpanRecord {
    /// Strict-JSON object for the `trace` op response.
    pub(crate) fn to_json(&self) -> Json {
        let mut obj = vec![
            ("name".into(), Json::str(self.name)),
            ("op".into(), Json::str(self.op)),
        ];
        if let Some(trace) = &self.trace {
            obj.push(("trace".into(), Json::str(trace)));
        }
        obj.push(("span".into(), Json::uint(self.span)));
        obj.push(("parent".into(), Json::uint(self.parent)));
        obj.push(("start_ms".into(), Json::uint(self.start_ms)));
        obj.push(("elapsed_ns".into(), Json::uint(self.elapsed_ns)));
        obj.push(("ok".into(), Json::Bool(self.ok)));
        obj.push(("source".into(), Json::str(self.source)));
        Json::Obj(obj)
    }
}

/// Bounded ring of recently completed spans; see the module docs.
#[derive(Debug)]
pub(crate) struct SpanRing {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    /// Total records ever pushed; `head % slots.len()` is the next slot.
    head: AtomicU64,
}

impl SpanRing {
    /// A ring keeping the most recent `capacity` records (minimum 1).
    pub(crate) fn new(capacity: usize) -> SpanRing {
        SpanRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Number of records the ring retains.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one completed span, overwriting the oldest when full.
    pub(crate) fn push(&self, record: SpanRecord) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(record);
    }

    /// The most recent records, oldest first, optionally filtered by
    /// 32-hex trace id. `limit` caps the result (clamped to capacity);
    /// a filter that matches nothing returns an empty vec.
    pub(crate) fn recent(&self, limit: usize, trace_filter: Option<&str>) -> Vec<SpanRecord> {
        let limit = limit.min(self.slots.len());
        let head = self.head.load(Ordering::Relaxed);
        let n = self.slots.len() as u64;
        let mut out = Vec::new();
        // Walk newest-backward so the limit keeps the *latest* spans.
        for back in 0..head.min(n) {
            if out.len() >= limit {
                break;
            }
            let seq = head - 1 - back;
            let slot = &self.slots[(seq % n) as usize];
            let record = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone();
            let Some(record) = record else { continue };
            if let Some(filter) = trace_filter {
                if record.trace.as_deref() != Some(filter) {
                    continue;
                }
            }
            out.push(record);
        }
        out.reverse();
        out
    }
}

/// Formats one Prometheus sample line. Values are `u64`/`f64` rendered
/// through Rust's `Display`, which never produces scientific notation —
/// keeping every line inside the exposition grammar
/// `name(\{labels\})? value`.
fn sample(out: &mut String, name: &str, labels: &str, value: impl std::fmt::Display) {
    out.push_str(name);
    out.push_str(labels);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Renders the full Prometheus text exposition for a server: lifetime
/// counters, queue-depth/in-flight gauges, lifetime latency summaries
/// (quantiles are power-of-two bucket upper bounds), and the rolling
/// 60 s window digests as gauges.
pub(crate) fn prometheus_text(metrics: &ServeMetrics, queue_depth: u64, inflight: u64) -> String {
    let mut out = String::with_capacity(2048);
    for (name, value) in metrics.counters() {
        let full = format!("supermarq_serve_{name}_total");
        out.push_str(&format!("# TYPE {full} counter\n"));
        sample(&mut out, &full, "", value);
    }
    out.push_str("# TYPE supermarq_serve_queue_depth gauge\n");
    sample(&mut out, "supermarq_serve_queue_depth", "", queue_depth);
    out.push_str("# TYPE supermarq_serve_inflight gauge\n");
    sample(&mut out, "supermarq_serve_inflight", "", inflight);
    for (stem, hist, window) in [
        (
            "supermarq_serve_request_latency",
            &metrics.request_ns,
            &metrics.request_window,
        ),
        (
            "supermarq_serve_warm_hit_latency",
            &metrics.warm_hit_ns,
            &metrics.warm_window,
        ),
    ] {
        // Lifetime summary.
        let name = format!("{stem}_seconds");
        out.push_str(&format!("# TYPE {name} summary\n"));
        sample(
            &mut out,
            &name,
            "{quantile=\"0.5\"}",
            seconds(hist.quantile(0.50)),
        );
        sample(
            &mut out,
            &name,
            "{quantile=\"0.99\"}",
            seconds(hist.quantile(0.99)),
        );
        sample(&mut out, &format!("{name}_sum"), "", seconds(hist.sum()));
        sample(&mut out, &format!("{name}_count"), "", hist.count());
        // Rolling window, exported as gauges (a Prometheus summary
        // cannot express "over the last minute").
        let digest = window.snapshot();
        for (suffix, value) in [
            ("window_p50_seconds", seconds(digest.p50)),
            ("window_p99_seconds", seconds(digest.p99)),
        ] {
            let full = format!("{stem}_{suffix}");
            out.push_str(&format!("# TYPE {full} gauge\n"));
            sample(&mut out, &full, "", value);
        }
        let full = format!("{stem}_window_count");
        out.push_str(&format!("# TYPE {full} gauge\n"));
        sample(&mut out, &full, "", digest.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: u64, trace: Option<&str>) -> SpanRecord {
        SpanRecord {
            name: "serve.request",
            op: "run",
            trace: trace.map(str::to_string),
            span: n,
            parent: 0,
            start_ms: n,
            elapsed_ns: n * 100,
            ok: true,
            source: "warm",
        }
    }

    #[test]
    fn ring_keeps_the_newest_records_in_order() {
        let ring = SpanRing::new(4);
        for n in 0..10 {
            ring.push(record(n, None));
        }
        let recent = ring.recent(16, None);
        let spans: Vec<u64> = recent.iter().map(|r| r.span).collect();
        assert_eq!(spans, [6, 7, 8, 9], "oldest-first, newest retained");
        // Limit keeps the latest, still oldest-first.
        let limited: Vec<u64> = ring.recent(2, None).iter().map(|r| r.span).collect();
        assert_eq!(limited, [8, 9]);
    }

    #[test]
    fn ring_filters_by_trace_id() {
        let ring = SpanRing::new(8);
        ring.push(record(1, Some("aa")));
        ring.push(record(2, None));
        ring.push(record(3, Some("bb")));
        ring.push(record(4, Some("aa")));
        let aa: Vec<u64> = ring.recent(8, Some("aa")).iter().map(|r| r.span).collect();
        assert_eq!(aa, [1, 4]);
        assert!(ring.recent(8, Some("zz")).is_empty());
    }

    #[test]
    fn record_json_shape() {
        let json = record(7, Some("abc")).to_json();
        assert_eq!(
            json.get("name").and_then(Json::as_str),
            Some("serve.request")
        );
        assert_eq!(json.get("trace").and_then(Json::as_str), Some("abc"));
        assert_eq!(json.get("span").and_then(Json::as_u64), Some(7));
        assert_eq!(json.get("elapsed_ns").and_then(Json::as_u64), Some(700));
        // Untraced records omit the trace key entirely.
        assert!(record(1, None).to_json().get("trace").is_none());
    }

    #[test]
    fn ring_push_is_safe_under_contention() {
        let ring = SpanRing::new(16);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for n in 0..100 {
                        ring.push(record(t * 1000 + n, None));
                    }
                });
            }
        });
        let recent = ring.recent(16, None);
        assert_eq!(recent.len(), 16, "full ring after 400 pushes");
    }
}
