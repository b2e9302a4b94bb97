//! End-to-end CLI tests for the daemon workflow (`supermarq serve` +
//! `supermarq client`) and the Ctrl-C path of `supermarq batch`.
//!
//! These live in an integration test (own process) because they install
//! a real SIGINT handler and raise real signals; doing that inside the
//! unit-test binary would race every other test sharing the flag. The
//! two tests here still serialize against each other for the same
//! reason.

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use supermarq_cli::commands::{dispatch, CliError};
use supermarq_serve::signal;
use supermarq_store::{Json, RunRecord, Store};

/// Serializes the tests in this file: both manipulate the process-wide
/// SIGINT flag.
static SIGNAL_LOCK: Mutex<()> = Mutex::new(());

fn run(tokens: &[&str]) -> Result<String, CliError> {
    dispatch(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "supermarq-cli-serve-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls an `--addr-file` until the daemon writes its bound address.
fn wait_for_addr(path: &std::path::Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return addr.to_string();
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote {path:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn serve_daemon_round_trip_via_client_commands() {
    let _guard = SIGNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::clear();
    let store_dir = temp_dir("daemon");
    let addr_file = temp_dir("addr").join("addr.txt");
    std::fs::create_dir_all(addr_file.parent().unwrap()).unwrap();
    let serve_argv: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--store",
        store_dir.to_str().unwrap(),
        "--addr-file",
        addr_file.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let daemon = std::thread::spawn(move || dispatch(&serve_argv));
    let addr = wait_for_addr(&addr_file);

    assert_eq!(run(&["client", "ping", "--addr", &addr]).unwrap(), "pong");

    // A remote run produces the same record line as a local `run --json`
    // against the daemon's store (second query: warm hit, byte-equal).
    let remote = run(&[
        "client", "run", "ghz", "--size", "3", "--device", "ionq", "--shots", "100", "--reps", "2",
        "--seed", "5", "--addr", &addr,
    ])
    .unwrap();
    let record = RunRecord::from_str(&remote).unwrap();
    assert_eq!(record.spec.benchmark, "ghz");
    assert_eq!(record.spec.device, "IonQ");
    let local = run(&[
        "run",
        "ghz",
        "--size",
        "3",
        "--device",
        "ionq",
        "--shots",
        "100",
        "--reps",
        "2",
        "--seed",
        "5",
        "--json",
        "--store",
        store_dir.to_str().unwrap(),
    ])
    .unwrap();
    assert_eq!(remote, local, "daemon and local records must be diffable");

    // A batch shipped to the daemon: grid order, parseable lines, and a
    // rerun is byte-identical and all-warm.
    let batch_argv = [
        "client",
        "batch",
        "--benchmarks",
        "ghz",
        "--sizes",
        "3,4",
        "--devices",
        "ionq,aqt",
        "--shots",
        "50",
        "--reps",
        "1",
        "--addr",
        &addr,
    ];
    let first = run(&batch_argv).unwrap();
    assert_eq!(first.lines().count(), 4);
    for line in first.lines() {
        RunRecord::from_str(line).unwrap();
    }
    let second = run(&batch_argv).unwrap();
    assert_eq!(first, second);

    // Daemon stats and `cache stats --format json` share the store
    // serializer: the daemon's "store" object equals the CLI's "stats".
    let stats = Json::parse(&run(&["client", "stats", "--addr", &addr]).unwrap()).unwrap();
    assert!(stats.get("serve").is_some());
    assert_eq!(
        stats
            .get("serve")
            .and_then(|s| s.get("simulations"))
            .and_then(Json::as_u64),
        Some(5),
        "1 run + 4 cold batch cells, reruns all warm"
    );
    let cli_stats = Json::parse(
        &run(&[
            "cache",
            "stats",
            "--store",
            store_dir.to_str().unwrap(),
            "--format",
            "json",
        ])
        .unwrap(),
    )
    .unwrap();
    assert_eq!(
        cli_stats.get("stats").map(Json::to_string),
        stats.get("store").map(Json::to_string),
        "one schema for daemon and CLI store stats"
    );

    // Graceful remote shutdown: the serve command returns its summary.
    run(&["client", "shutdown", "--addr", &addr]).unwrap();
    let summary = daemon.join().unwrap().unwrap();
    assert!(summary.starts_with("serve: requests="), "{summary}");
    assert!(summary.contains("simulations=5"), "{summary}");
}

#[test]
fn client_telemetry_commands_and_cross_request_tracing() {
    let _guard = SIGNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::clear();
    let store_dir = temp_dir("telemetry");
    let addr_file = temp_dir("telemetry-addr").join("addr.txt");
    std::fs::create_dir_all(addr_file.parent().unwrap()).unwrap();
    let serve_argv: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--store",
        store_dir.to_str().unwrap(),
        "--addr-file",
        addr_file.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let daemon = std::thread::spawn(move || dispatch(&serve_argv));
    let addr = wait_for_addr(&addr_file);

    // Tracing on for the whole scenario (manual init rather than
    // `--trace-out`, which would disable tracing when the first client
    // dispatch returns while the in-process daemon is still serving).
    let trace_file = temp_dir("telemetry-trace").join("trace.jsonl");
    std::fs::create_dir_all(trace_file.parent().unwrap()).unwrap();
    supermarq_obs::init_trace_file(&trace_file).unwrap();

    // A traced remote run: the client opens `client.run`, the daemon
    // continues the trace and echoes timing (printed to stderr).
    let remote = run(&[
        "client", "run", "ghz", "--size", "3", "--device", "ionq", "--shots", "80", "--reps", "1",
        "--seed", "9", "--addr", &addr,
    ])
    .unwrap();
    RunRecord::from_str(&remote).unwrap();

    // `client metrics` (JSON): serve counters + rolling-window digests,
    // and the serve object's field set matches the `stats` op exactly —
    // both serialize through ServeMetrics::to_json.
    let metrics = Json::parse(&run(&["client", "metrics", "--addr", &addr]).unwrap()).unwrap();
    assert_eq!(metrics.get("type").and_then(Json::as_str), Some("metrics"));
    assert_eq!(metrics.get("format").and_then(Json::as_str), Some("json"));
    let keys = |value: &Json| -> Vec<String> {
        match value {
            Json::Obj(pairs) => {
                let mut k: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
                k.sort();
                k
            }
            other => panic!("expected object, got {other:?}"),
        }
    };
    let stats = Json::parse(&run(&["client", "stats", "--addr", &addr]).unwrap()).unwrap();
    assert_eq!(
        keys(stats.get("serve").unwrap()),
        keys(metrics.get("serve").unwrap()),
        "stats and metrics must expose the same serve schema"
    );
    assert!(
        metrics
            .get("window")
            .and_then(|w| w.get("request"))
            .and_then(|r| r.get("p99_ns"))
            .and_then(Json::as_u64)
            .is_some(),
        "windowed p99 present"
    );

    // `client metrics --format prometheus`: exposition text with the
    // windowed quantiles and gauges, every sample line well-formed.
    let text = run(&[
        "client",
        "metrics",
        "--format",
        "prometheus",
        "--addr",
        &addr,
    ])
    .unwrap();
    assert!(text.contains("supermarq_serve_requests_total"), "{text}");
    assert!(
        text.contains("supermarq_serve_request_latency_window_p99_seconds"),
        "{text}"
    );
    assert!(text.contains("supermarq_serve_queue_depth"), "{text}");
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line.rsplit_once(' ').expect("name value");
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
        assert!(
            !value.contains(['e', 'E']),
            "scientific notation in {line:?}"
        );
    }

    // `client watch`: two polls, last sample returned.
    let watch = run(&[
        "client",
        "watch",
        "--interval-ms",
        "20",
        "--count",
        "2",
        "--addr",
        &addr,
    ])
    .unwrap();
    assert!(watch.contains("requests="), "{watch}");
    assert!(watch.contains("warm_hit="), "{watch}");
    assert!(watch.contains("window_p50_ns="), "{watch}");

    // The daemon's span close lines land asynchronously; wait for them.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        supermarq_obs::flush();
        let raw = std::fs::read_to_string(&trace_file).unwrap_or_default();
        if raw.contains("serve.execute") && raw.contains("\"serve.request\"") {
            break;
        }
        assert!(Instant::now() < deadline, "daemon spans never flushed");
        std::thread::sleep(Duration::from_millis(10));
    }
    supermarq_obs::disable();
    supermarq_obs::flush();

    // Merged (single-process here) JSONL: strict-JSON lines forming one
    // stitched chain client.run <- serve.request <- serve.execute.
    let raw = std::fs::read_to_string(&trace_file).unwrap();
    let spans: Vec<Json> = raw
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad trace line {l:?}: {e}")))
        .filter(|v| v.get("type").and_then(Json::as_str) == Some("span"))
        .collect();
    let named = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {name} span in trace file"))
    };
    let client_root = named("client.run");
    let trace_id = client_root
        .get("trace")
        .and_then(Json::as_str)
        .expect("client root carries a trace id")
        .to_string();
    let request = spans
        .iter()
        .find(|s| {
            s.get("name").and_then(Json::as_str) == Some("serve.request")
                && s.get("trace").and_then(Json::as_str) == Some(trace_id.as_str())
        })
        .expect("daemon continued the client trace");
    assert_eq!(
        request.get("remote_parent").and_then(Json::as_u64),
        client_root.get("id").and_then(Json::as_u64),
        "serve.request stitches to the client span across the wire"
    );
    let request_id = request.get("id").and_then(Json::as_u64);
    assert!(
        spans.iter().any(|s| {
            s.get("name").and_then(Json::as_str) == Some("serve.execute")
                && s.get("trace").and_then(Json::as_str) == Some(trace_id.as_str())
                && s.get("parent").and_then(Json::as_u64) == request_id
        }),
        "serve.execute joins the same trace under serve.request"
    );

    // `client trace --id`: the daemon's ring filtered to this trace.
    let ring = Json::parse(
        &run(&[
            "client", "trace", "--id", &trace_id, "--limit", "32", "--addr", &addr,
        ])
        .unwrap(),
    )
    .unwrap();
    assert_eq!(ring.get("type").and_then(Json::as_str), Some("trace"));
    let ring_spans = ring.get("spans").and_then(Json::as_arr).unwrap();
    assert!(!ring_spans.is_empty(), "ring has spans for the trace");
    for span in ring_spans {
        assert_eq!(
            span.get("trace").and_then(Json::as_str),
            Some(trace_id.as_str()),
            "--id must filter exactly"
        );
    }

    run(&["client", "shutdown", "--addr", &addr]).unwrap();
    daemon.join().unwrap().unwrap();
    supermarq_obs::reset_for_tests();
}

#[test]
fn client_watch_warm_hit_is_cells_served_warm_over_cells_requested() {
    let _guard = SIGNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::clear();
    let store_dir = temp_dir("watch");
    let addr_file = temp_dir("watch-addr").join("addr.txt");
    std::fs::create_dir_all(addr_file.parent().unwrap()).unwrap();
    let serve_argv: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--store",
        store_dir.to_str().unwrap(),
        "--addr-file",
        addr_file.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let daemon = std::thread::spawn(move || dispatch(&serve_argv));
    let addr = wait_for_addr(&addr_file);

    // Eight cells; ghz 5 and 6 do not fit AQT's four qubits, so those
    // two fail, are never stored, and miss again on the warm pass.
    let batch_argv = [
        "client",
        "batch",
        "--benchmarks",
        "ghz",
        "--sizes",
        "3,4,5,6",
        "--devices",
        "IonQ,AQT",
        "--shots",
        "50",
        "--reps",
        "1",
        "--addr",
        &addr,
    ];
    run(&batch_argv).unwrap();
    run(&batch_argv).unwrap();

    // 6 warm cells of 16 requested: the watch's own stats and metrics
    // polls request no cells and must not move the ratio.
    let watch = run(&["client", "watch", "--count", "1", "--addr", &addr]).unwrap();
    assert!(watch.contains(" warm_hit=37.5% "), "{watch}");

    run(&["client", "shutdown", "--addr", &addr]).unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn batch_ctrl_c_flushes_completed_cells_and_resumes() {
    let _guard = SIGNAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::clear();
    let store_dir = temp_dir("interrupt");
    let out_file = store_dir.join("out.jsonl");
    let store_arg = store_dir.to_str().unwrap().to_string();
    let argv: Vec<String> = [
        "batch",
        "--benchmarks",
        "ghz,qaoa-swap",
        "--sizes",
        "3,4",
        "--devices",
        "ionq,aqt",
        "--shots",
        "300",
        "--seeds",
        "1,2,3",
        "--reps",
        "1",
        "--store",
        &store_arg,
        "--out",
        out_file.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    // Watcher: as soon as the first result is persisted, deliver SIGINT
    // (the installed handler turns it into the cooperative flag).
    let watch_store = store_dir.clone();
    let watcher = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        let store = Store::open(&watch_store).unwrap();
        while store.stats().map(|s| s.entries).unwrap_or(0) == 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        signal::raise();
        true
    });
    let result = dispatch(&argv);
    assert!(watcher.join().unwrap(), "no cell ever completed");

    // The command reports the interrupt as a failure with a resume hint,
    // and whatever completed was flushed to the output file.
    let message = match result {
        Err(CliError::Failure(message)) => message,
        other => panic!("expected an interrupt failure, got {other:?}"),
    };
    assert!(message.contains("interrupted"), "{message}");
    assert!(message.contains("rerun the same command"), "{message}");
    let flushed = std::fs::read_to_string(&out_file).unwrap();
    assert_eq!(flushed.lines().count(), 24, "every cell gets a line");
    let completed = Store::open(&store_dir).unwrap().stats().unwrap().entries;
    assert!(completed >= 1, "at least the watched cell persisted");
    assert_eq!(
        flushed
            .lines()
            .filter(|l| RunRecord::from_str(l).is_ok())
            .count(),
        completed,
        "flushed success lines must match persisted entries"
    );

    // Rerunning the same command resumes: completed cells replay as
    // hits, interrupted ones execute, and the file ends fully populated.
    signal::clear();
    let summary = dispatch(&argv).unwrap();
    assert!(summary.contains("failures=0"), "{summary}");
    assert!(summary.contains(&format!("hits={completed} ")), "{summary}");
    let final_text = std::fs::read_to_string(&out_file).unwrap();
    assert_eq!(final_text.lines().count(), 24);
    for line in final_text.lines() {
        RunRecord::from_str(line).unwrap();
    }
}
