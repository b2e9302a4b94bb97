//! The wire protocol: one strict-JSON request per line, answered by one
//! or more strict-JSON response lines.
//!
//! Grammar (each `<...>` is a single `\n`-terminated JSON object):
//!
//! ```text
//! request  := {"op":"ping"}
//!           | {"op":"run","spec":<RunSpec>[,"trace":<ctx>]}
//!           | {"op":"batch","grid":<SweepGrid>[,"trace":<ctx>]}
//!           | {"op":"stats"}
//!           | {"op":"metrics"[,"format":"json"|"prometheus"]}
//!           | {"op":"trace"[,"id":S][,"limit":N]}
//!           | {"op":"shutdown"}
//! ctx      := {"id":<32-hex trace id>,"parent":<span id>}
//!
//! response := {"type":"pong"}                                 (ping)
//!           | <result-line> [<timing-line>]                   (run)
//!           | {"type":"batch","total":N,"hits":H,
//!              "misses":M,"failures":F} <result-line>*N       (batch)
//!           | {"type":"stats","store":{..},"serve":{..}}      (stats)
//!           | {"type":"metrics","format":"json",
//!              "serve":{..},"window":{..}}                    (metrics)
//!           | {"type":"metrics","format":"prometheus",
//!              "body":S}                                      (metrics)
//!           | {"type":"trace","count":N,"spans":[{..}..]}     (trace)
//!           | {"type":"shutdown"}                             (shutdown)
//!           | {"type":"error","kind":K,"message":S
//!              [,"retry_after_ms":N]}                         (any)
//! ```
//!
//! A `<result-line>` is exactly [`SweepResult::to_line`]: the stored
//! record serialization on success, `{"schema":..,"error":..,"spec":..}`
//! on executor failure. That makes daemon responses byte-identical to
//! `supermarq batch` output and to the store's on-disk objects — the
//! property the hammer and smoke tests pin.
//!
//! The optional `trace` field continues a client-initiated distributed
//! trace through the daemon. It is parsed *leniently*: a junk, missing,
//! oversized, or otherwise malformed context degrades to "no trace"
//! (the server starts a fresh root) and is **never** a protocol error —
//! observability must not be able to fail a request. A `run` that *did*
//! carry a context gets one extra `{"type":"timing",...}` line after
//! its result, attributing server time to queue wait vs. execution;
//! requests without a context get byte-identical responses to a daemon
//! that has never heard of tracing.
//!
//! Responses never use the key `"type":"error"` for anything but
//! protocol-level errors, so clients classify lines by that key alone.
//!
//! [`SweepResult::to_line`]: supermarq_store::SweepResult::to_line

use supermarq_obs::{TraceContext, TraceId};
use supermarq_store::{Json, RunSpec, SweepGrid};

/// Maximum accepted request-frame length in bytes (newline included).
/// Anything longer gets a typed `oversized` error and the connection is
/// closed (there is no way to resynchronize mid-line).
pub const MAX_FRAME: usize = 1 << 20;

/// Requested wire format for the `metrics` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Strict JSON (the default).
    #[default]
    Json,
    /// Prometheus text exposition, shipped as an escaped string field.
    Prometheus,
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Execute (or fetch) a single run, optionally inside a
    /// client-initiated trace.
    Run {
        /// The run to execute or fetch.
        spec: RunSpec,
        /// Distributed-trace context, when the client sent a valid one.
        trace: Option<TraceContext>,
    },
    /// Expand and execute a whole grid server-side.
    Batch {
        /// The grid to expand.
        grid: SweepGrid,
        /// Distributed-trace context, when the client sent a valid one.
        trace: Option<TraceContext>,
    },
    /// Store + service counters.
    Stats,
    /// Live telemetry: counters, gauges, windowed latency.
    Metrics(MetricsFormat),
    /// Recent completed spans from the in-daemon ring buffer.
    Trace {
        /// Only return spans from this trace (32-hex id). A filter that
        /// matches nothing returns zero spans, not an error.
        id: Option<String>,
        /// At most this many spans (server clamps to the ring size).
        limit: Option<u64>,
    },
    /// Graceful shutdown: finish in-flight jobs, then exit.
    Shutdown,
}

impl Request {
    /// The request's `op` name on the wire.
    pub(crate) fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Run { .. } => "run",
            Request::Batch { .. } => "batch",
            Request::Stats => "stats",
            Request::Metrics(_) => "metrics",
            Request::Trace { .. } => "trace",
            Request::Shutdown => "shutdown",
        }
    }

    /// The distributed-trace context a `run` or `batch` carried.
    pub(crate) fn trace(&self) -> Option<TraceContext> {
        match self {
            Request::Run { trace, .. } | Request::Batch { trace, .. } => *trace,
            _ => None,
        }
    }
}

/// Error taxonomy for `{"type":"error","kind":...}` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unintelligible or schema-violating request.
    Parse,
    /// Job queue full; retry after `retry_after_ms`.
    Busy,
    /// Request frame exceeded [`MAX_FRAME`].
    Oversized,
    /// Daemon is draining; no new work accepted.
    ShuttingDown,
    /// Server-side invariant violation (e.g. executor panic).
    Internal,
}

impl ErrorKind {
    /// The wire name of this kind.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Busy => "busy",
            ErrorKind::Oversized => "oversized",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Lenient trace-context extraction: any malformation — wrong type,
/// junk or oversized id, missing parent — degrades to `None` ("no
/// trace") rather than an error. A request must never fail because its
/// observability envelope was bad.
fn parse_trace(value: &Json) -> Option<TraceContext> {
    let ctx = value.get("trace")?;
    let id = ctx.get("id").and_then(Json::as_str)?;
    let trace = TraceId::parse(id)?;
    let parent = ctx.get("parent").and_then(Json::as_u64).unwrap_or(0);
    Some(TraceContext::new(Some(trace), parent))
}

fn trace_to_json(ctx: &TraceContext) -> Option<Json> {
    let id = ctx.trace?;
    Some(Json::Obj(vec![
        ("id".into(), Json::str(id.to_hex())),
        ("parent".into(), Json::uint(ctx.parent)),
    ]))
}

/// Parses one request line. Strict about the operation envelope (any
/// deviation is an error message the server wraps in a typed `parse`
/// response — never a panic); lenient only about the optional `trace`
/// field, which degrades to "no trace" when malformed.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field 'op'")?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "run" => {
            let spec = value.get("spec").ok_or("'run' request missing 'spec'")?;
            let spec = RunSpec::from_json(spec).map_err(|e| format!("bad spec: {e}"))?;
            Ok(Request::Run {
                spec,
                trace: parse_trace(&value),
            })
        }
        "batch" => {
            let grid = value.get("grid").ok_or("'batch' request missing 'grid'")?;
            let grid = SweepGrid::from_json(grid).map_err(|e| format!("bad grid: {e}"))?;
            Ok(Request::Batch {
                grid,
                trace: parse_trace(&value),
            })
        }
        "metrics" => match value.get("format").map(Json::as_str) {
            None => Ok(Request::Metrics(MetricsFormat::Json)),
            Some(Some("json")) => Ok(Request::Metrics(MetricsFormat::Json)),
            Some(Some("prometheus")) => Ok(Request::Metrics(MetricsFormat::Prometheus)),
            Some(other) => Err(format!(
                "unknown metrics format {:?} (expected \"json\" or \"prometheus\")",
                other.unwrap_or("<non-string>")
            )),
        },
        "trace" => Ok(Request::Trace {
            id: value.get("id").and_then(Json::as_str).map(str::to_string),
            limit: value.get("limit").and_then(Json::as_u64),
        }),
        other => Err(format!("unknown op '{other}'")),
    }
}

/// Encodes a request for the wire (client side).
pub fn encode_request(request: &Request) -> String {
    let mut obj = vec![("op".into(), Json::str(request.op()))];
    match request {
        Request::Ping | Request::Stats | Request::Shutdown => {}
        Request::Run { spec, .. } => obj.push(("spec".into(), spec.to_json())),
        Request::Batch { grid, .. } => obj.push(("grid".into(), grid.to_json())),
        Request::Metrics(format) => obj.push((
            "format".into(),
            Json::str(match format {
                MetricsFormat::Json => "json",
                MetricsFormat::Prometheus => "prometheus",
            }),
        )),
        Request::Trace { id, limit } => {
            obj.extend(id.as_ref().map(|id| ("id".into(), Json::str(id))));
            obj.extend(limit.map(|limit| ("limit".into(), Json::uint(limit))));
        }
    }
    if let Some(ctx) = request.trace().as_ref().and_then(trace_to_json) {
        obj.push(("trace".into(), ctx));
    }
    Json::Obj(obj).to_string()
}

/// The `ping` response.
pub(crate) fn pong_line() -> String {
    Json::Obj(vec![("type".into(), Json::str("pong"))]).to_string()
}

/// The `shutdown` acknowledgement.
pub(crate) fn shutdown_line() -> String {
    Json::Obj(vec![("type".into(), Json::str("shutdown"))]).to_string()
}

/// A typed error response.
pub(crate) fn error_line(kind: ErrorKind, message: &str, retry_after_ms: Option<u64>) -> String {
    let mut obj = vec![
        ("type".into(), Json::str("error")),
        ("kind".into(), Json::str(kind.as_str())),
        ("message".into(), Json::str(message)),
    ];
    if let Some(ms) = retry_after_ms {
        obj.push(("retry_after_ms".into(), Json::uint(ms)));
    }
    Json::Obj(obj).to_string()
}

/// The `batch` response header; exactly `total` result lines follow.
pub(crate) fn batch_header_line(total: u64, hits: u64, misses: u64, failures: u64) -> String {
    Json::Obj(vec![
        ("type".into(), Json::str("batch")),
        ("total".into(), Json::uint(total)),
        ("hits".into(), Json::uint(hits)),
        ("misses".into(), Json::uint(misses)),
        ("failures".into(), Json::uint(failures)),
    ])
    .to_string()
}

/// The `stats` response: the store's [`StoreStats::to_json`] schema plus
/// service counters, one serializer end to end.
///
/// [`StoreStats::to_json`]: supermarq_store::StoreStats::to_json
pub(crate) fn stats_line(store: Json, serve: Json) -> String {
    Json::Obj(vec![
        ("type".into(), Json::str("stats")),
        ("store".into(), store),
        ("serve".into(), serve),
    ])
    .to_string()
}

/// The extra line a traced `run` gets after its result: server-side
/// time attribution. `source` is `"warm"` (answered from the store
/// before queueing), `"executed"` (simulated by a worker), or
/// `"coalesced"` (joined an in-flight twin).
pub(crate) fn timing_line(source: &str, total_ns: u64, queue_ns: u64, execute_ns: u64) -> String {
    Json::Obj(vec![
        ("type".into(), Json::str("timing")),
        ("source".into(), Json::str(source)),
        ("total_ns".into(), Json::uint(total_ns)),
        ("queue_ns".into(), Json::uint(queue_ns)),
        ("execute_ns".into(), Json::uint(execute_ns)),
    ])
    .to_string()
}

/// The JSON-format `metrics` response: lifetime counters (the same
/// `serve` object the `stats` op carries) plus rolling-window digests.
pub(crate) fn metrics_json_line(serve: Json, window: Json) -> String {
    Json::Obj(vec![
        ("type".into(), Json::str("metrics")),
        ("format".into(), Json::str("json")),
        ("serve".into(), serve),
        ("window".into(), window),
    ])
    .to_string()
}

/// The Prometheus-format `metrics` response. The exposition text is
/// shipped as one escaped JSON string field so the protocol stays
/// line-oriented; clients unwrap `body` before handing it to a scraper.
pub(crate) fn metrics_prometheus_line(body: &str) -> String {
    Json::Obj(vec![
        ("type".into(), Json::str("metrics")),
        ("format".into(), Json::str("prometheus")),
        ("body".into(), Json::str(body)),
    ])
    .to_string()
}

/// The `trace` response: recent completed spans, newest last.
pub(crate) fn trace_line(spans: Vec<Json>) -> String {
    Json::Obj(vec![
        ("type".into(), Json::str("trace")),
        ("count".into(), Json::uint(spans.len() as u64)),
        ("spans".into(), Json::Arr(spans)),
    ])
    .to_string()
}

/// Classifies a response line: `Err((kind, message))` when it is a
/// protocol error, `Ok(parsed)` otherwise.
pub(crate) fn classify_response(line: &str) -> Result<Json, (String, String)> {
    match Json::parse(line) {
        Ok(value) => {
            if value.get("type").and_then(Json::as_str) == Some("error") {
                let kind = value
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("internal")
                    .to_string();
                let message = value
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                Err((kind, message))
            } else {
                Ok(value)
            }
        }
        Err(e) => Err(("parse".into(), format!("unparseable response: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RunSpec {
        RunSpec::new("ghz", vec![("size".into(), "3".into())], "IonQ", 100, 2, 7)
    }

    fn ctx() -> TraceContext {
        TraceContext::new(
            TraceId::from_u128(0xdead_beef_0000_0000_0000_0000_0000_0042),
            99,
        )
    }

    #[test]
    fn requests_round_trip_through_the_wire() {
        let grid = SweepGrid {
            benchmarks: vec![("ghz".into(), vec![("size".into(), "3".into())])],
            devices: vec!["IonQ".into()],
            shots: vec![10],
            seeds: vec![1],
            repetitions: 1,
            transpile: Default::default(),
            division: "closed".into(),
        };
        for request in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Run {
                spec: spec(),
                trace: None,
            },
            Request::Run {
                spec: spec(),
                trace: Some(ctx()),
            },
            Request::Batch {
                grid: grid.clone(),
                trace: Some(ctx()),
            },
            Request::Metrics(MetricsFormat::Json),
            Request::Metrics(MetricsFormat::Prometheus),
            Request::Trace {
                id: Some(ctx().trace.unwrap().to_hex()),
                limit: Some(32),
            },
            Request::Trace {
                id: None,
                limit: None,
            },
        ] {
            let line = encode_request(&request);
            let back = parse_request(&line).unwrap();
            match (&request, &back) {
                (Request::Run { spec: a, trace: ta }, Request::Run { spec: b, trace: tb }) => {
                    assert_eq!(a, b);
                    assert_eq!(ta, tb);
                }
                (Request::Batch { grid: a, trace: ta }, Request::Batch { grid: b, trace: tb }) => {
                    assert_eq!(a.expand(), b.expand());
                    assert_eq!(ta, tb);
                }
                (Request::Metrics(a), Request::Metrics(b)) => assert_eq!(a, b),
                (Request::Trace { id: a, limit: la }, Request::Trace { id: b, limit: lb }) => {
                    assert_eq!(a, b);
                    assert_eq!(la, lb);
                }
                _ => assert_eq!(
                    std::mem::discriminant(&request),
                    std::mem::discriminant(&back)
                ),
            }
        }
    }

    #[test]
    fn malformed_requests_produce_messages_never_panics() {
        for junk in [
            "",
            "not json",
            "{}",
            "[1,2]",
            r#"{"op":42}"#,
            r#"{"op":"transmogrify"}"#,
            r#"{"op":"run"}"#,
            r#"{"op":"run","spec":17}"#,
            r#"{"op":"batch","grid":[]}"#,
            r#"{"op":"batch","grid":{"benchmarks":"all"}}"#,
            r#"{"op":"metrics","format":"xml"}"#,
            r#"{"op":"metrics","format":7}"#,
        ] {
            assert!(parse_request(junk).is_err(), "{junk:?} must be rejected");
        }
    }

    #[test]
    fn malformed_trace_contexts_degrade_to_none_never_error() {
        let spec_json = spec().to_json().to_string();
        for trace in [
            r#"null"#,
            r#"17"#,
            r#""deadbeef""#,
            r#"{}"#,
            r#"{"id":17}"#,
            r#"{"id":"zz"}"#,
            r#"{"id":""}"#,
            r#"{"id":"00000000000000000000000000000000"}"#,
            // One hex digit too many (oversized).
            r#"{"id":"0123456789abcdef0123456789abcdef0","parent":4}"#,
        ] {
            let line = format!(r#"{{"op":"run","spec":{spec_json},"trace":{trace}}}"#);
            match parse_request(&line) {
                Ok(Request::Run { trace, .. }) => {
                    assert_eq!(trace, None, "junk context must degrade to None: {line}")
                }
                other => panic!("junk trace must not fail the request: {other:?}"),
            }
        }
        // A valid id with a missing parent still joins the trace.
        let line = format!(
            r#"{{"op":"run","spec":{spec_json},"trace":{{"id":"0123456789abcdef0123456789abcdef"}}}}"#
        );
        match parse_request(&line) {
            Ok(Request::Run {
                trace: Some(ctx), ..
            }) => {
                assert_eq!(ctx.parent, 0);
                assert!(ctx.trace.is_some());
            }
            other => panic!("valid id without parent must parse: {other:?}"),
        }
    }

    #[test]
    fn error_lines_carry_kind_and_optional_retry() {
        let plain = error_line(ErrorKind::Parse, "bad", None);
        assert_eq!(plain, r#"{"type":"error","kind":"parse","message":"bad"}"#);
        let busy = error_line(ErrorKind::Busy, "queue full", Some(250));
        assert!(busy.contains("\"retry_after_ms\":250"));
        let (kind, message) = classify_response(&busy).unwrap_err();
        assert_eq!(kind, "busy");
        assert_eq!(message, "queue full");
        assert!(classify_response(&pong_line()).is_ok());
    }

    #[test]
    fn telemetry_response_lines_are_classifiable() {
        let timing = timing_line("warm", 1000, 0, 0);
        let parsed = classify_response(&timing).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("timing"));
        assert_eq!(parsed.get("total_ns").and_then(Json::as_u64), Some(1000));
        let prom = metrics_prometheus_line("a_total 1\n");
        let parsed = classify_response(&prom).unwrap();
        assert_eq!(
            parsed.get("body").and_then(Json::as_str),
            Some("a_total 1\n")
        );
        let trace = trace_line(vec![Json::Obj(vec![("span".into(), Json::uint(7))])]);
        let parsed = classify_response(&trace).unwrap();
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(1));
    }
}
