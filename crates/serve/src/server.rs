//! The daemon core: accept loop, per-connection handlers, and the
//! worker pool draining the job queue.
//!
//! Layout:
//!
//! - one **accept thread** (non-blocking + poll, so shutdown is prompt);
//! - one detached **handler thread per connection**, counted so shutdown
//!   can wait for responses in flight;
//! - `workers` **worker threads** popping the job queue and running
//!   jobs through [`SweepEngine::run_job`] — the exact path `supermarq
//!   batch` uses, which is what makes daemon responses byte-identical
//!   to offline sweeps.
//!
//! `run` and `batch` share one request body: warm cells come straight
//! from the store, the misses are admitted to the queue all or nothing
//! (a `run` is a one-cell batch), and the two differ only in the lines
//! they write. Every frame, parsed or not, ends in one epilogue that
//! feeds [`ServeMetrics`] and the span ring.
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
use supermarq_obs::{Span, WindowedHistogram};
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

/// Service counters, readable while the daemon runs: the one store
/// behind the `stats` and `metrics` ops (JSON and Prometheus) and the
/// exit summary. Plain per-server atomics, so tests get deterministic
/// values.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Request frames received (including malformed and oversized ones).
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
    /// Protocol errors returned (parse, oversized).
    pub errors: AtomicU64,
    /// End-to-end latency per request frame, nanoseconds.
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
    /// The lifetime counters by name, in schema order: the one list
    /// every report of them (`stats`, `metrics`, Prometheus, the exit
    /// summary) walks.
    pub(crate) fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("requests", &self.requests),
            ("hits", &self.hits),
            ("misses", &self.misses),
            ("coalesced", &self.coalesced),
            ("simulations", &self.simulations),
            ("rejected", &self.rejected),
            ("errors", &self.errors),
        ]
        .map(|(name, counter)| (name, counter.load(Ordering::Relaxed)))
    }

    /// Strict-JSON snapshot, embedded in `stats` responses and the
    /// JSON-format `metrics` response — one serializer for both ops, so
    /// the schemas cannot drift.
    fn to_json(&self, queue_depth: usize, inflight: usize) -> Json {
        fn hist(h: &Histogram) -> Json {
            Json::Obj(vec![
                ("count".into(), Json::uint(h.count())),
                ("p50_ns".into(), Json::uint(h.quantile(0.5))),
                ("p99_ns".into(), Json::uint(h.quantile(0.99))),
                ("mean_ns".into(), Json::float(h.mean())),
            ])
        }
        let mut obj: Vec<(String, Json)> = self
            .counters()
            .iter()
            .map(|&(name, value)| (name.into(), Json::uint(value)))
            .collect();
        obj.extend([
            ("queue_depth".into(), Json::uint(queue_depth as u64)),
            ("inflight".into(), Json::uint(inflight as u64)),
            ("request_ns".into(), hist(&self.request_ns)),
            ("warm_hit_ns".into(), hist(&self.warm_hit_ns)),
        ]);
        Json::Obj(obj)
    }

    /// Rolling-window digests for the JSON-format `metrics` response.
    fn window_json(&self) -> Json {
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
        let counters: Vec<String> = self
            .shared
            .metrics
            .counters()
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        format!("serve: {}", counters.join(" "))
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
        let execute_ns = elapsed_ns(exec_start);
        job.set_execute_ns(execute_ns);
        span.record("ok", result.outcome.is_ok());
        span.record("from_cache", result.from_cache);
        drop(span);
        if !result.from_cache {
            shared.metrics.simulations.fetch_add(1, Ordering::Relaxed);
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

/// Nanoseconds since `since`, saturating.
fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
        let frame = match read_frame(&mut reader, &shared.stop, shared.config.idle_timeout) {
            Frame::Line(line) if line.trim().is_empty() => continue, // keep-alives from netcat
            Frame::Line(line) => Some(line),
            Frame::TooLong => None,
            Frame::Eof | Frame::Stopped => return,
        };
        if !handle_request(shared, frame.as_deref(), &mut writer) {
            return;
        }
    }
}

/// Per-request facts the handlers report back so the epilogue's ring
/// record can attribute the outcome.
struct Outcome {
    ok: bool,
    /// `warm` / `executed` / `coalesced` for a `run`, `""` otherwise.
    source: &'static str,
}

/// Serves one request frame; `None` is a frame longer than
/// [`MAX_FRAME`]. Every frame, parsed or not, ends in the same
/// epilogue: the `requests` count, latency histograms (lifetime and
/// rolling window) and a ring record. Returns `false` when the
/// connection should close (write failure, shutdown, unrecoverable
/// framing).
fn handle_request(shared: &Shared, frame: Option<&str>, out: &mut impl Write) -> bool {
    shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let start_ms = elapsed_ms(shared.started);
    let request = match frame {
        Some(line) => protocol::parse_request(line).map_err(|message| (ErrorKind::Parse, message)),
        None => Err((
            ErrorKind::Oversized,
            format!("request frame exceeds {MAX_FRAME} bytes"),
        )),
    };
    // The request span continues the client's trace when the frame
    // carried a context: the client's span id becomes `remote_parent`,
    // and the trace id flows to every child span on this thread.
    let ctx = request.as_ref().ok().and_then(Request::trace);
    let mut span = Span::open_in_context("serve.request", ctx.as_ref());
    let mut outcome = Outcome {
        ok: true,
        source: "",
    };
    let (op, keep_open) = match request {
        // A rejected frame still gets a (trace-less) span, a latency
        // sample and a ring record: a flood of junk shows up in
        // telemetry too. The rest of an oversized line is unread and
        // there is no way to resynchronize, so it closes the connection.
        Err((kind, message)) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            outcome.ok = false;
            let written = write_line(out, &protocol::error_line(kind, &message, None));
            (kind.as_str(), written && kind == ErrorKind::Parse)
        }
        Ok(request) => {
            let op = request.op();
            span.record("op", op);
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
                Request::Run { spec, trace } => {
                    let echo = trace.is_some();
                    handle_run(shared, &spec, echo, start, &span, out, &mut outcome)
                }
                Request::Batch { grid, .. } => {
                    handle_batch(shared, &grid.expand(), &span, out, &mut outcome)
                }
            };
            (op, keep_open)
        }
    };
    span.record("ok", outcome.ok);
    let span_id = span.id();
    let trace = span.trace_id().or(ctx.and_then(|c| c.trace));
    drop(span);
    let elapsed_ns = elapsed_ns(start);
    shared.metrics.request_ns.record(elapsed_ns);
    shared.metrics.request_window.record(elapsed_ns);
    shared.ring.push(SpanRecord {
        name: "serve.request",
        op,
        trace: trace.map(|t| t.to_hex()),
        span: span_id.unwrap_or(0),
        // The ring's serve.request record points back at the *client's*
        // span when one was given, so merged tooling sees the stitch
        // even without trace files.
        parent: ctx.map_or(0, |c| c.parent),
        start_ms,
        elapsed_ns,
        ok: outcome.ok,
        source: outcome.source,
    });
    keep_open
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

/// One cell of a `run` or `batch`, resolved.
enum Cell {
    /// Served from the store.
    Warm(RunRecord),
    /// Resolved by a job: the job (for its timings) and its result.
    Fresh(Arc<Job>, SweepResult),
}

impl Cell {
    /// The cell's result line, exactly as `supermarq batch` writes it.
    fn to_line(&self) -> String {
        match self {
            Cell::Warm(record) => record.to_line(),
            Cell::Fresh(_, result) => result.to_line(),
        }
    }
}

/// A request's cells in request order, with their tallies.
struct Resolved {
    cells: Vec<Cell>,
    hits: u64,
    misses: u64,
    coalesced: u64,
}

/// A request whose misses the queue did not admit: why, and how many
/// cells needed a job.
struct Refused {
    reason: Submit,
    misses: usize,
}

/// The body `run` and `batch` share. It serves warm cells from the
/// store, admits the misses to the queue as one all-or-nothing unit (a
/// `run` is a one-cell batch; a request with no misses never touches
/// the queue), counts the request, and waits for its jobs.
fn resolve(shared: &Shared, specs: &[RunSpec], span: &Span) -> Result<Resolved, Refused> {
    let use_cache = shared.config.use_cache;
    let stored: Vec<Option<RunRecord>> = specs
        .iter()
        .map(|spec| use_cache.then(|| shared.store.get(spec)).flatten())
        .collect();
    let miss_specs: Vec<RunSpec> = specs
        .iter()
        .zip(&stored)
        .filter(|(_, record)| record.is_none())
        .map(|(spec, _)| spec.clone())
        .collect();
    // The job link is *this server's* request span (which itself points
    // at the client's root): the worker parents its execute span here.
    let admitted = if miss_specs.is_empty() {
        Ok((Vec::new(), 0))
    } else {
        shared.queue.submit_all(&miss_specs, span.ctx())
    };
    let metrics = &shared.metrics;
    let (jobs, coalesced) = match admitted {
        Ok(admitted) => admitted,
        Err(reason) => {
            if matches!(reason, Submit::Full) {
                metrics.rejected.fetch_add(1, Ordering::Relaxed);
            }
            let misses = miss_specs.len();
            return Err(Refused { reason, misses });
        }
    };
    let misses = miss_specs.len() as u64;
    let hits = specs.len() as u64 - misses;
    metrics.hits.fetch_add(hits, Ordering::Relaxed);
    metrics.misses.fetch_add(misses, Ordering::Relaxed);
    metrics.coalesced.fetch_add(coalesced, Ordering::Relaxed);
    // Queue wait gets its own span, so traces show it apart from
    // execution.
    let waiting = (misses > 0).then(|| Span::open("serve.wait").with("coalesced", coalesced > 0));
    let mut jobs = jobs.into_iter();
    let cells = stored
        .into_iter()
        .map(|record| match record {
            Some(record) => Cell::Warm(record),
            None => {
                let job = jobs.next().expect("submit_all returns one job per miss");
                let result = job.wait();
                Cell::Fresh(job, result)
            }
        })
        .collect();
    drop(waiting);
    Ok(Resolved {
        cells,
        hits,
        misses,
        coalesced,
    })
}

/// Answers a request whose misses were refused: `busy` with a retry
/// hint when the queue is full, `shutting-down` (and close) when the
/// daemon is draining.
fn refuse(out: &mut impl Write, refused: Refused, busy: &str, outcome: &mut Outcome) -> bool {
    outcome.ok = false;
    match refused.reason {
        Submit::Full => write_line(
            out,
            &protocol::error_line(ErrorKind::Busy, busy, Some(RETRY_AFTER_MS)),
        ),
        Submit::Closed => {
            write_line(
                out,
                &protocol::error_line(ErrorKind::ShuttingDown, "daemon is draining", None),
            );
            false
        }
    }
}

/// Writes a `run`'s result line and, when the request carried a trace
/// context (`echo`), its timing line. The echo is strictly opt-in, so
/// untraced responses stay byte-identical to the pre-telemetry wire
/// format.
fn handle_run(
    shared: &Shared,
    spec: &RunSpec,
    echo: bool,
    start: Instant,
    span: &Span,
    out: &mut impl Write,
    outcome: &mut Outcome,
) -> bool {
    let mut resolved = match resolve(shared, std::slice::from_ref(spec), span) {
        Ok(resolved) => resolved,
        Err(refused) => return refuse(out, refused, "job queue full", outcome),
    };
    match resolved.cells.pop().expect("a run has one cell") {
        Cell::Warm(record) => {
            let warm_ns = elapsed_ns(start);
            shared.metrics.warm_hit_ns.record(warm_ns);
            shared.metrics.warm_window.record(warm_ns);
            outcome.source = "warm";
            write_line(out, &record.to_line())
                && (!echo || write_line(out, &protocol::timing_line("warm", warm_ns, 0, 0)))
        }
        Cell::Fresh(job, result) => {
            outcome.source = if resolved.coalesced > 0 {
                "coalesced"
            } else {
                "executed"
            };
            outcome.ok = result.outcome.is_ok();
            write_line(out, &result.to_line())
                && (!echo
                    || write_line(
                        out,
                        &protocol::timing_line(
                            outcome.source,
                            elapsed_ns(start),
                            job.queue_ns(),
                            job.execute_ns(),
                        ),
                    ))
        }
    }
}

/// Writes a `batch`'s header, then one result line per cell in grid
/// order — byte-identical to `supermarq batch` output. Waiting for
/// every job first lets the header carry the failure count.
fn handle_batch(
    shared: &Shared,
    specs: &[RunSpec],
    span: &Span,
    out: &mut impl Write,
    outcome: &mut Outcome,
) -> bool {
    let resolved = match resolve(shared, specs, span) {
        Ok(resolved) => resolved,
        Err(refused) => {
            let busy = format!(
                "job queue cannot admit {} jobs; retry later",
                refused.misses
            );
            return refuse(out, refused, &busy, outcome);
        }
    };
    let failures = resolved
        .cells
        .iter()
        .filter(|cell| matches!(cell, Cell::Fresh(_, result) if result.outcome.is_err()))
        .count() as u64;
    let header =
        protocol::batch_header_line(specs.len() as u64, resolved.hits, resolved.misses, failures);
    write_line(out, &header)
        && resolved
            .cells
            .iter()
            .all(|cell| write_line(out, &cell.to_line()))
}
