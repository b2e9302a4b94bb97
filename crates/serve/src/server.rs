//! The daemon core: accept loop, per-connection handlers, and the
//! worker pool draining the job queue.
//!
//! Layout:
//!
//! - one **accept thread** (non-blocking + poll, so shutdown is prompt);
//! - one detached **handler thread per connection**, counted so shutdown
//!   can wait for responses in flight;
//! - `workers` **worker threads** popping the [`JobQueue`] and running
//!   jobs through [`SweepEngine::run_job`] — the exact path `supermarq
//!   batch` uses, which is what makes daemon responses byte-identical
//!   to offline sweeps.
//!
//! Graceful shutdown (a `shutdown` request, [`RunningServer::shutdown`],
//! or drop): stop admission, drain every accepted job, join workers,
//! then wait for handlers to finish writing. Because all persistence
//! goes through the store's atomic tmp+rename, even a SIGKILL strands at
//! worst a `tmp/` file that `Store::gc` collects once it is stale.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use supermarq_obs::metrics::Histogram;
use supermarq_obs::{counter, gauge, histogram, Span, TraceContext, WindowedHistogram};
use supermarq_store::{Json, RunOutcome, RunRecord, RunSpec, Store, SweepEngine, SweepResult};

use crate::protocol::{self, ErrorKind, MetricsFormat, Request, MAX_FRAME};
use crate::queue::{Job, JobQueue, Submit};
use crate::telemetry::{self, SpanRecord, SpanRing};

/// How the server executes a cache miss. The daemon is as
/// executor-agnostic as the sweep engine: the CLI passes
/// `supermarq::execute_spec`, tests pass synthetic closures.
pub type Executor = Arc<dyn Fn(&RunSpec) -> Result<RunOutcome, String> + Send + Sync>;

/// Poll interval for the accept loop and connection reads; bounds how
/// long shutdown can lag behind the stop signal.
const POLL: Duration = Duration::from_millis(100);

/// `retry_after_ms` hint attached to `busy` rejections.
const RETRY_AFTER_MS: u64 = 200;

/// Completed span records retained for the `trace` op (ring buffer,
/// oldest overwritten first).
const TRACE_BUFFER: usize = 512;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7787` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads; `0` means `rayon::current_num_threads()`.
    pub workers: usize,
    /// Maximum queued (accepted, not yet running) jobs before `busy`.
    pub queue_capacity: usize,
    /// Serve warm requests from the store (`false` forces re-execution;
    /// results are still persisted).
    pub use_cache: bool,
    /// Close a connection after this long with no complete request.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 256,
            use_cache: true,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Service counters, readable while the daemon runs. Mirrored into the
/// global obs registry as `serve.*` so `--profile` sees them; kept here
/// as plain per-server atomics so tests get deterministic values.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Request lines received (including malformed ones).
    pub requests: AtomicU64,
    /// Run/batch cells answered straight from the store.
    pub hits: AtomicU64,
    /// Run/batch cells that needed a job.
    pub misses: AtomicU64,
    /// Misses that joined an in-flight twin instead of a new job.
    pub coalesced: AtomicU64,
    /// Jobs actually executed by a worker (not resolved warm).
    pub simulations: AtomicU64,
    /// Requests rejected with `busy`.
    pub rejected: AtomicU64,
    /// Protocol errors returned (parse, oversized, internal).
    pub errors: AtomicU64,
    /// End-to-end latency per request line, nanoseconds.
    pub request_ns: Histogram,
    /// Latency of warm single-run hits, nanoseconds.
    pub warm_hit_ns: Histogram,
    /// Rolling 60 s window over request latency (live telemetry; the
    /// lifetime histograms above never forget).
    pub request_window: WindowedHistogram,
    /// Rolling 60 s window over warm-hit latency.
    pub warm_window: WindowedHistogram,
}

impl ServeMetrics {
    /// Strict-JSON snapshot, embedded in `stats` responses and the
    /// JSON-format `metrics` response — one serializer for both ops, so
    /// the schemas cannot drift.
    pub fn to_json(&self, queue_depth: usize, inflight: usize) -> Json {
        fn hist(h: &Histogram) -> Json {
            Json::Obj(vec![
                ("count".into(), Json::uint(h.count())),
                ("p50_ns".into(), Json::uint(h.quantile(0.5))),
                ("p99_ns".into(), Json::uint(h.quantile(0.99))),
                ("mean_ns".into(), Json::float(h.mean())),
            ])
        }
        let n = |a: &AtomicU64| Json::uint(a.load(Ordering::Relaxed));
        Json::Obj(vec![
            ("requests".into(), n(&self.requests)),
            ("hits".into(), n(&self.hits)),
            ("misses".into(), n(&self.misses)),
            ("coalesced".into(), n(&self.coalesced)),
            ("simulations".into(), n(&self.simulations)),
            ("rejected".into(), n(&self.rejected)),
            ("errors".into(), n(&self.errors)),
            ("queue_depth".into(), Json::uint(queue_depth as u64)),
            ("inflight".into(), Json::uint(inflight as u64)),
            ("request_ns".into(), hist(&self.request_ns)),
            ("warm_hit_ns".into(), hist(&self.warm_hit_ns)),
        ])
    }

    /// Rolling-window digests for the JSON-format `metrics` response.
    pub fn window_json(&self) -> Json {
        fn digest(w: &WindowedHistogram) -> Json {
            let d = w.snapshot();
            Json::Obj(vec![
                ("count".into(), Json::uint(d.count)),
                ("p50_ns".into(), Json::uint(d.p50)),
                ("p99_ns".into(), Json::uint(d.p99)),
                ("window_ms".into(), Json::uint(d.window_ms)),
            ])
        }
        Json::Obj(vec![
            ("request".into(), digest(&self.request_window)),
            ("warm_hit".into(), digest(&self.warm_window)),
        ])
    }
}

/// State shared by the accept loop, handlers, and workers.
struct Shared {
    config: ServeConfig,
    store: Store,
    exec: Executor,
    queue: JobQueue,
    metrics: ServeMetrics,
    /// Completed span records for the `trace` op.
    ring: SpanRing,
    /// Daemon start time; ring records stamp `start_ms` against it.
    started: Instant,
    stop: AtomicBool,
    /// Live connection-handler count, awaited at shutdown.
    active: Mutex<usize>,
    idle: Condvar,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.close();
    }
}

/// Constructor namespace for the daemon.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts the accept loop and worker pool.
    /// Returns immediately; the daemon runs on background threads until
    /// [`RunningServer::shutdown`] (or a client `shutdown` request).
    pub fn bind(config: ServeConfig, store: Store, exec: Executor) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            rayon::current_num_threads().max(1)
        } else {
            config.workers
        };
        let queue_capacity = config.queue_capacity;
        let shared = Arc::new(Shared {
            config,
            store,
            exec,
            queue: JobQueue::new(queue_capacity),
            metrics: ServeMetrics::default(),
            ring: SpanRing::new(TRACE_BUFFER),
            started: Instant::now(),
            stop: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
        });
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&shared, listener))?
        };
        Ok(RunningServer {
            addr,
            shared,
            accept: Some(accept),
            workers: worker_handles,
        })
    }
}

/// Handle to a live daemon. Dropping it performs a graceful shutdown.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl RunningServer {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live service counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Whether a stop was requested (client `shutdown` or signal path).
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: drain accepted jobs, join workers and the
    /// accept thread, wait for handlers to finish writing.
    pub fn shutdown(mut self) {
        self.finish();
    }

    /// One-line counter summary for CLI output.
    pub fn summary(&self) -> String {
        let m = &self.shared.metrics;
        let n = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "serve: requests={} hits={} misses={} coalesced={} simulations={} rejected={} errors={}",
            n(&m.requests),
            n(&m.hits),
            n(&m.misses),
            n(&m.coalesced),
            n(&m.simulations),
            n(&m.rejected),
            n(&m.errors),
        )
    }

    fn finish(&mut self) {
        self.shared.begin_shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Handlers may still be streaming responses for drained jobs;
        // give them a bounded window to finish.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut active = self.shared.active.lock().unwrap();
        while *active > 0 && Instant::now() < deadline {
            let (guard, _) = self
                .shared
                .idle
                .wait_timeout(active, Duration::from_millis(50))
                .unwrap();
            active = guard;
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.finish();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                *shared.active.lock().unwrap() += 1;
                let conn = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || {
                        handle_connection(&conn, stream);
                        *conn.active.lock().unwrap() -= 1;
                        conn.idle.notify_all();
                    });
                if spawned.is_err() {
                    // Thread spawn failed; undo the count and move on.
                    *shared.active.lock().unwrap() -= 1;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        job.mark_dequeued();
        gauge!("serve.queue_depth").set(shared.queue.depth() as i64);
        let engine = SweepEngine::new(&shared.store).with_cache(shared.config.use_cache);
        let exec = &shared.exec;
        // Continue the submitting request's trace (in-process link:
        // the request span is the parent, the trace id flows to every
        // store/executor span `run_job` opens via the thread-current
        // chain).
        let link = job.link;
        let mut span = Span::open_with_link(
            "serve.execute",
            link.map(|ctx| ctx.parent).filter(|&p| p != 0),
            link.and_then(|ctx| ctx.trace),
        );
        let span_id = span.id();
        let start_ms = elapsed_ms(shared.started);
        let exec_start = Instant::now();
        // `run_job` re-consults the store at execution time, so a job
        // queued behind a twin published meanwhile (by another process
        // on a shared store) resolves warm. A panicking executor must
        // not strand coalesced waiters: convert it to an error result.
        let result = catch_unwind(AssertUnwindSafe(|| {
            engine.run_job(&job.spec, |spec| (exec)(spec))
        }))
        .unwrap_or_else(|_| SweepResult {
            spec: job.spec.clone(),
            from_cache: false,
            store_error: false,
            outcome: Err("internal: executor panicked".into()),
        });
        let execute_ns = u64::try_from(exec_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        job.set_execute_ns(execute_ns);
        span.record("ok", result.outcome.is_ok());
        span.record("from_cache", result.from_cache);
        drop(span);
        if !result.from_cache {
            shared.metrics.simulations.fetch_add(1, Ordering::Relaxed);
            counter!("serve.simulations").incr();
        }
        shared.ring.push(SpanRecord {
            name: "serve.execute",
            op: "job",
            trace: link.and_then(|ctx| ctx.trace).map(|t| t.to_hex()),
            span: span_id.unwrap_or(0),
            parent: link.map_or(0, |ctx| ctx.parent),
            start_ms,
            elapsed_ns: execute_ns,
            ok: result.outcome.is_ok(),
            source: if result.from_cache {
                "warm"
            } else {
                "executed"
            },
        });
        shared.queue.complete(&job, result);
    }
}

/// Milliseconds since `since`, saturating.
fn elapsed_ms(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// One complete request frame, or the reason there is none.
enum Frame {
    Line(String),
    Eof,
    TooLong,
    Stopped,
}

/// Reads one `\n`-terminated frame, enforcing [`MAX_FRAME`], the idle
/// timeout, and the stop flag (the stream has a `POLL` read timeout, so
/// this loop wakes regularly). A partial line at EOF is still returned
/// for processing — a truncated frame earns a typed parse error, not a
/// silent drop.
fn read_frame(reader: &mut BufReader<TcpStream>, stop: &AtomicBool, idle: Duration) -> Frame {
    let mut buf: Vec<u8> = Vec::new();
    let deadline = Instant::now() + idle;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Frame::Stopped;
        }
        let limit = (MAX_FRAME + 1 - buf.len()) as u64;
        match (&mut *reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) => {
                if buf.is_empty() {
                    return Frame::Eof;
                }
                // EOF after a partial line buffered on an earlier
                // iteration: surface it so it earns a parse error.
                return Frame::Line(String::from_utf8_lossy(&buf).into_owned());
            }
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return Frame::Line(String::from_utf8_lossy(&buf).into_owned());
                }
                if buf.len() > MAX_FRAME {
                    return Frame::TooLong;
                }
                // No delimiter, under the cap, yet `read_until`
                // returned: the peer closed mid-line.
                return Frame::Line(String::from_utf8_lossy(&buf).into_owned());
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return Frame::Eof;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Frame::Eof,
        }
    }
}

fn write_line(out: &mut impl Write, line: &str) -> bool {
    out.write_all(line.as_bytes())
        .and_then(|_| out.write_all(b"\n"))
        .and_then(|_| out.flush())
        .is_ok()
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, &shared.stop, shared.config.idle_timeout) {
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue; // blank keep-alives from interactive netcat
                }
                if !handle_request(shared, &line, &mut writer) {
                    return;
                }
            }
            Frame::TooLong => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                counter!("serve.errors").incr();
                let message = format!("request frame exceeds {MAX_FRAME} bytes");
                write_line(
                    &mut writer,
                    &protocol::error_line(ErrorKind::Oversized, &message, None),
                );
                // The rest of the oversized line is unread; there is no
                // way to resynchronize, so close.
                return;
            }
            Frame::Eof | Frame::Stopped => return,
        }
    }
}

/// Per-request facts the dispatch handlers report back so the epilogue
/// (latency histograms, ring record) can attribute the outcome.
struct Outcome {
    ok: bool,
    /// `warm` / `executed` / `coalesced` for run-shaped work, `""`
    /// otherwise.
    source: &'static str,
}

/// Serves one request line. Returns `false` when the connection should
/// close (write failure, shutdown, unrecoverable framing).
fn handle_request(shared: &Arc<Shared>, line: &str, out: &mut impl Write) -> bool {
    shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
    counter!("serve.requests").incr();
    let start = Instant::now();
    let start_ms = elapsed_ms(shared.started);
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(message) => {
            // Parse failures still get a (trace-less) span and latency
            // sample: a flood of junk shows up in telemetry too.
            let mut span = Span::open("serve.request");
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            counter!("serve.errors").incr();
            span.record("ok", false);
            let keep_open =
                write_line(out, &protocol::error_line(ErrorKind::Parse, &message, None));
            let span_id = span.id();
            drop(span);
            finish_request(
                shared, start, start_ms, "parse", span_id, 0, None, false, "",
            );
            return keep_open;
        }
    };
    // The request span continues the client's trace when the frame
    // carried a context: the client's span id becomes `remote_parent`,
    // and the trace id flows to every child span on this thread.
    let (op, ctx) = match &request {
        Request::Ping => ("ping", None),
        Request::Stats => ("stats", None),
        Request::Shutdown => ("shutdown", None),
        Request::Metrics(_) => ("metrics", None),
        Request::Trace { .. } => ("trace", None),
        Request::Run { trace, .. } => ("run", *trace),
        Request::Batch { trace, .. } => ("batch", *trace),
    };
    let mut span = Span::open_in_context("serve.request", ctx.as_ref());
    span.record("op", op);
    let mut outcome = Outcome {
        ok: true,
        source: "",
    };
    let keep_open = match request {
        Request::Ping => write_line(out, &protocol::pong_line()),
        Request::Stats => write_line(out, &stats_response(shared)),
        Request::Metrics(format) => write_line(out, &metrics_response(shared, format)),
        Request::Trace { id, limit } => {
            write_line(out, &trace_response(shared, id.as_deref(), limit))
        }
        Request::Shutdown => {
            write_line(out, &protocol::shutdown_line());
            shared.begin_shutdown();
            false
        }
        Request::Run { spec, trace } => handle_run(
            shared,
            &spec,
            trace.as_ref(),
            out,
            start,
            &span,
            &mut outcome,
        ),
        Request::Batch { grid, .. } => handle_batch(shared, &grid, out, &span, &mut outcome),
    };
    span.record("ok", outcome.ok);
    let span_id = span.id();
    let trace = span.trace_id().or(ctx.and_then(|c| c.trace));
    // The ring's serve.request record points back at the *client's*
    // span when one was given, so merged tooling sees the stitch even
    // without trace files.
    let remote_parent = ctx.map_or(0, |c| c.parent);
    drop(span);
    finish_request(
        shared,
        start,
        start_ms,
        op,
        span_id,
        remote_parent,
        trace.map(|t| t.to_hex()),
        outcome.ok,
        outcome.source,
    );
    keep_open
}

/// Request epilogue: latency histograms (lifetime + rolling window) and
/// the ring record every protocol op leaves behind.
#[allow(clippy::too_many_arguments)]
fn finish_request(
    shared: &Shared,
    start: Instant,
    start_ms: u64,
    op: &'static str,
    span_id: Option<u64>,
    parent: u64,
    trace: Option<String>,
    ok: bool,
    source: &'static str,
) {
    let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    shared.metrics.request_ns.record(elapsed_ns);
    shared.metrics.request_window.record(elapsed_ns);
    histogram!("serve.request_ns").record(elapsed_ns);
    shared.ring.push(SpanRecord {
        name: "serve.request",
        op,
        trace,
        span: span_id.unwrap_or(0),
        parent,
        start_ms,
        elapsed_ns,
        ok,
        source,
    });
}

fn stats_response(shared: &Shared) -> String {
    let store = match shared.store.stats() {
        Ok(stats) => stats.to_json(),
        Err(e) => Json::Obj(vec![("error".into(), Json::str(e.to_string()))]),
    };
    protocol::stats_line(
        store,
        shared
            .metrics
            .to_json(shared.queue.depth(), shared.queue.inflight()),
    )
}

fn metrics_response(shared: &Shared, format: MetricsFormat) -> String {
    let depth = shared.queue.depth();
    let inflight = shared.queue.inflight();
    match format {
        MetricsFormat::Json => protocol::metrics_json_line(
            shared.metrics.to_json(depth, inflight),
            shared.metrics.window_json(),
        ),
        MetricsFormat::Prometheus => protocol::metrics_prometheus_line(
            &telemetry::prometheus_text(&shared.metrics, depth as u64, inflight as u64),
        ),
    }
}

fn trace_response(shared: &Shared, id: Option<&str>, limit: Option<u64>) -> String {
    let limit = limit.unwrap_or(64).min(shared.ring.capacity() as u64) as usize;
    let spans = shared.ring.recent(limit, id);
    protocol::trace_line(spans.iter().map(SpanRecord::to_json).collect())
}

/// Waits for a queued job inside a `serve.wait` child span, so traces
/// show queue wait distinctly from execution.
fn wait_traced(job: &Job, coalesced: bool) -> SweepResult {
    let mut span = Span::open("serve.wait");
    span.record("coalesced", coalesced);
    job.wait()
}

#[allow(clippy::too_many_arguments)]
fn handle_run(
    shared: &Shared,
    spec: &RunSpec,
    wire_ctx: Option<&TraceContext>,
    out: &mut impl Write,
    start: Instant,
    span: &Span,
    outcome: &mut Outcome,
) -> bool {
    // The timing echo is strictly opt-in: only requests that carried a
    // trace context get the extra line, so untraced responses stay
    // byte-identical to the pre-telemetry wire format.
    let echo = wire_ctx.is_some();
    if shared.config.use_cache {
        if let Some(record) = shared.store.get(spec) {
            shared.metrics.hits.fetch_add(1, Ordering::Relaxed);
            counter!("serve.hits").incr();
            let warm_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shared.metrics.warm_hit_ns.record(warm_ns);
            shared.metrics.warm_window.record(warm_ns);
            histogram!("serve.warm_hit_ns").record(warm_ns);
            outcome.source = "warm";
            let mut keep_open = write_line(out, &record.to_line());
            if keep_open && echo {
                keep_open = write_line(out, &protocol::timing_line("warm", warm_ns, 0, 0));
            }
            return keep_open;
        }
    }
    // The job link is *this server's* request span (which itself points
    // at the client's root): the worker parents its execute span here.
    let submitted = match shared.queue.submit(spec, span.ctx()) {
        Submit::New(job) => {
            shared.metrics.misses.fetch_add(1, Ordering::Relaxed);
            counter!("serve.misses").incr();
            gauge!("serve.queue_depth").set(shared.queue.depth() as i64);
            outcome.source = "executed";
            Some((job, false))
        }
        Submit::Joined(job) => {
            shared.metrics.misses.fetch_add(1, Ordering::Relaxed);
            shared.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
            counter!("serve.misses").incr();
            counter!("serve.coalesced").incr();
            outcome.source = "coalesced";
            Some((job, true))
        }
        Submit::Full => {
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            counter!("serve.rejected").incr();
            outcome.ok = false;
            return write_line(
                out,
                &protocol::error_line(ErrorKind::Busy, "job queue full", Some(RETRY_AFTER_MS)),
            );
        }
        Submit::Closed => {
            outcome.ok = false;
            write_line(
                out,
                &protocol::error_line(ErrorKind::ShuttingDown, "daemon is draining", None),
            );
            return false;
        }
    };
    let (job, coalesced) = submitted.expect("submit variants handled above");
    let result = wait_traced(&job, coalesced);
    outcome.ok = result.outcome.is_ok();
    let mut keep_open = write_line(out, &result.to_line());
    if keep_open && echo {
        let total_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        keep_open = write_line(
            out,
            &protocol::timing_line(outcome.source, total_ns, job.queue_ns(), job.execute_ns()),
        );
    }
    keep_open
}

fn handle_batch(
    shared: &Shared,
    grid: &supermarq_store::SweepGrid,
    out: &mut impl Write,
    span: &Span,
    outcome: &mut Outcome,
) -> bool {
    let specs = grid.expand();
    // Partition warm cells exactly like `SweepEngine::run` does, so the
    // response body is byte-identical to `supermarq batch` output.
    let cached: Vec<Option<RunRecord>> = specs
        .iter()
        .map(|spec| {
            if shared.config.use_cache {
                shared.store.get(spec)
            } else {
                None
            }
        })
        .collect();
    let miss_specs: Vec<RunSpec> = specs
        .iter()
        .zip(&cached)
        .filter(|(_, c)| c.is_none())
        .map(|(s, _)| s.clone())
        .collect();
    let (jobs, coalesced) = match shared.queue.submit_all(&miss_specs, span.ctx()) {
        Ok(admitted) => admitted,
        Err(Submit::Full) => {
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            counter!("serve.rejected").incr();
            outcome.ok = false;
            let message = format!(
                "job queue cannot admit {} jobs; retry later",
                miss_specs.len()
            );
            return write_line(
                out,
                &protocol::error_line(ErrorKind::Busy, &message, Some(RETRY_AFTER_MS)),
            );
        }
        Err(_) => {
            outcome.ok = false;
            write_line(
                out,
                &protocol::error_line(ErrorKind::ShuttingDown, "daemon is draining", None),
            );
            return false;
        }
    };
    let hits = (specs.len() - miss_specs.len()) as u64;
    shared.metrics.hits.fetch_add(hits, Ordering::Relaxed);
    shared
        .metrics
        .misses
        .fetch_add(miss_specs.len() as u64, Ordering::Relaxed);
    shared
        .metrics
        .coalesced
        .fetch_add(coalesced, Ordering::Relaxed);
    counter!("serve.hits").add(hits);
    counter!("serve.misses").add(miss_specs.len() as u64);
    counter!("serve.coalesced").add(coalesced);
    gauge!("serve.queue_depth").set(shared.queue.depth() as i64);
    // Wait for every job, then assemble lines in grid order. Waiting
    // first lets the header carry the failure count.
    let fresh: Vec<SweepResult> = jobs.iter().map(|job| job.wait()).collect();
    let failures = fresh.iter().filter(|r| r.outcome.is_err()).count() as u64;
    let header =
        protocol::batch_header_line(specs.len() as u64, hits, miss_specs.len() as u64, failures);
    if !write_line(out, &header) {
        return false;
    }
    let mut next_fresh = fresh.into_iter();
    for record in cached {
        let line = match record {
            Some(record) => record.to_line(),
            None => match next_fresh.next() {
                Some(result) => result.to_line(),
                None => protocol::error_line(ErrorKind::Internal, "job result missing", None),
            },
        };
        if !write_line(out, &line) {
            return false;
        }
    }
    true
}
