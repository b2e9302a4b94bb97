//! Protocol robustness at the socket level: malformed, truncated, and
//! oversized request frames. The contract is absolute — every frame
//! earns a typed error response (or a clean close after one); never a
//! panic, never a hung connection.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use supermarq_obs::TraceId;
use supermarq_serve::protocol::{encode_request, parse_request};
use supermarq_serve::{Client, Request, RunningServer, ServeConfig, Server, MAX_FRAME};
use supermarq_store::{Json, RunOutcome, RunSpec, Store, SweepGrid, TranspileSpec, MAX_GRID_CELLS};

fn temp_store(tag: &str) -> Store {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "supermarq-serve-proto-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

fn start_server(tag: &str) -> RunningServer {
    Server::bind(
        ServeConfig {
            idle_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        },
        temp_store(tag),
        Arc::new(|spec: &RunSpec| {
            Ok(RunOutcome {
                scores: vec![spec.seed as f64 / 10.0],
                swap_count: 0,
                two_qubit_gates: 1,
            })
        }),
    )
    .unwrap()
}

/// Sends raw bytes and reads one response line, with a hang guard.
fn raw_round_trip(addr: SocketAddr, payload: &[u8]) -> Option<String> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(payload).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim_end().to_string()),
        Err(e) => panic!("connection hung or died on {payload:?}: {e}"),
    }
}

fn assert_error_kind(line: &str, kind: &str) {
    let value = Json::parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"));
    assert_eq!(value.get("type").and_then(Json::as_str), Some("error"));
    assert_eq!(
        value.get("kind").and_then(Json::as_str),
        Some(kind),
        "{line}"
    );
    assert!(value.get("message").and_then(Json::as_str).is_some());
}

#[test]
fn malformed_corpus_gets_typed_parse_errors_and_connection_survives() {
    let server = start_server("corpus");
    let addr = server.addr();
    let corpus: [&[u8]; 12] = [
        b"not json\n",
        b"{}\n",
        b"[]\n",
        b"42\n",
        b"\"op\"\n",
        b"{\"op\":42}\n",
        b"{\"op\":\"launch-missiles\"}\n",
        b"{\"op\":\"run\"}\n",
        b"{\"op\":\"run\",\"spec\":[]}\n",
        b"{\"op\":\"batch\",\"grid\":{\"benchmarks\":3}}\n",
        b"{\"op\":\"run\",\"spec\":{\"benchmark\":\"ghz\"}}\n",
        &[0xff, 0xfe, 0x01, b'\n'], // invalid UTF-8
    ];
    for payload in corpus {
        let line = raw_round_trip(addr, payload).expect("a response line");
        assert_error_kind(&line, "parse");
    }
    // One connection, garbage then a valid request: the parse error
    // must not poison the stream.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"garbage\n{\"op\":\"ping\"}\n").unwrap();
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert_error_kind(first.trim_end(), "parse");
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    assert_eq!(second.trim_end(), r#"{"type":"pong"}"#);
    server.shutdown();
}

#[test]
fn truncated_frame_gets_a_parse_error_then_a_clean_close() {
    let server = start_server("truncated");
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // A request cut mid-object, never newline-terminated; then the
    // client half-closes, signalling EOF.
    writer
        .write_all(b"{\"op\":\"run\",\"spec\":{\"benchm")
        .unwrap();
    writer.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_error_kind(line.trim_end(), "parse");
    // And then the server closes: next read is EOF, not a hang.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
    server.shutdown();
}

#[test]
fn oversized_frame_gets_a_typed_error_and_the_connection_closes() {
    let server = start_server("oversized");
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // A single frame just past the cap. Write may fail partway once the
    // server closes its end — that is acceptable; the error line must
    // still arrive.
    let huge = vec![b'x'; MAX_FRAME + 2];
    let _ = writer.write_all(&huge);
    let _ = writer.flush();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_error_kind(line.trim_end(), "oversized");
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap(),
        0,
        "connection must close after an unrecoverable frame"
    );
    server.shutdown();
}

#[test]
fn oversized_frames_are_counted_like_any_other_request() {
    let server = start_server("oversized-accounting");
    let addr = server.addr();
    // The oversized frame: its error line, then the close. The close
    // comes after the request's accounting, so reading to EOF orders
    // the counters below.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let _ = writer.write_all(&vec![b'x'; MAX_FRAME + 2]);
    let _ = writer.flush();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_error_kind(line.trim_end(), "oversized");
    assert_eq!(reader.read_line(&mut String::new()).unwrap(), 0);

    // A junk line, then `stats` and `trace` on the same connection:
    // frames on one connection are served in order, epilogue included.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let frames = format!(
        "junk\n{}\n{}\n",
        encode_request(&Request::Stats),
        encode_request(&Request::Trace {
            id: None,
            limit: Some(64),
        })
    );
    writer.write_all(frames.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };
    assert_error_kind(&next(), "parse");
    let stats = Json::parse(&next()).unwrap();
    let trace = Json::parse(&next()).unwrap();
    let serve = stats.get("serve").unwrap();
    let count = |key: &str| serve.get(key).and_then(Json::as_u64);
    assert_eq!(count("requests"), Some(3), "{stats}");
    assert_eq!(count("errors"), Some(2), "{stats}");
    // The `stats` request is still open while it reports, so two
    // latency samples: the oversized frame and the junk line.
    let request_ns = serve.get("request_ns").unwrap();
    assert_eq!(request_ns.get("count").and_then(Json::as_u64), Some(2));

    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    let ops: Vec<&str> = spans
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("serve.request"))
        .filter_map(|s| s.get("op").and_then(Json::as_str))
        .collect();
    assert_eq!(ops, ["oversized", "parse", "stats"], "{trace}");
    assert_eq!(spans[0].get("ok"), Some(&Json::Bool(false)), "{trace}");
    server.shutdown();
}

#[test]
fn over_cap_grid_gets_a_typed_error_and_the_connection_survives() {
    let server = start_server("overcap");
    // shots x seeds = side^2 runs, just past the cap, in a frame of a few
    // KB: the daemon must refuse it before expanding it.
    let side = (MAX_GRID_CELLS as f64).sqrt() as u64 + 1;
    let grid = SweepGrid {
        benchmarks: vec![("ghz".into(), vec![("size".into(), "3".into())])],
        devices: vec!["IonQ".into()],
        shots: (1..=side).collect(),
        seeds: (0..side).collect(),
        repetitions: 1,
        transpile: TranspileSpec::default(),
        division: "closed".into(),
    };
    let frame = format!("{{\"op\":\"batch\",\"grid\":{}}}\n", grid.to_json());
    assert!(frame.len() < MAX_FRAME);
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(frame.as_bytes()).unwrap();
    writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert_error_kind(first.trim_end(), "parse");
    assert!(first.contains("bad grid"), "{first}");
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    assert_eq!(second.trim_end(), r#"{"type":"pong"}"#);
    server.shutdown();
}

#[test]
fn empty_and_whitespace_lines_are_ignored_keepalives() {
    let server = start_server("blank");
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"\n\r\n   \n{\"op\":\"ping\"}\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        line.trim_end(),
        r#"{"type":"pong"}"#,
        "blanks must be skipped"
    );
    server.shutdown();
}

#[test]
fn typed_client_reports_protocol_errors_as_errors() {
    let server = start_server("typed");
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.get("serve").is_some());
    server.shutdown();
}

#[test]
fn frame_sized_string_parses_in_linear_time() {
    // One string filling a whole MAX_FRAME request, with multibyte
    // characters and an escape in it. Re-validating the rest of the
    // frame at every character took tens of seconds here; one pass over
    // the bytes takes milliseconds.
    let head = r#"{"op":"ping","pad":""#;
    let tail = r#"\n"}"#;
    let unit = "abcdefgh∑é";
    let mut pad = unit.repeat((MAX_FRAME - head.len() - tail.len()) / unit.len());
    pad.push_str(&"x".repeat(MAX_FRAME - head.len() - tail.len() - pad.len()));
    let frame = format!("{head}{pad}{tail}");
    assert_eq!(frame.len(), MAX_FRAME);
    let start = std::time::Instant::now();
    let request = parse_request(&frame);
    let elapsed = start.elapsed();
    assert!(matches!(request, Ok(Request::Ping)), "{request:?}");
    assert!(elapsed < Duration::from_secs(2), "parsing took {elapsed:?}");
}

/// One fixed, valid spec for the trace-field fuzzing below.
fn fixed_spec() -> RunSpec {
    SweepGrid {
        benchmarks: vec![("ghz".into(), vec![("size".into(), "3".into())])],
        devices: vec!["IonQ".into()],
        shots: vec![64],
        seeds: vec![1],
        repetitions: 2,
        transpile: TranspileSpec::default(),
        division: "closed".into(),
    }
    .expand()
    .remove(0)
}

/// Arbitrary junk for the optional `trace` field on a `run` frame:
/// wrong types, wrong lengths, truncated/oversized/zero hex — and,
/// when the random hex happens to be exactly 32 nonzero digits, a
/// well-formed context that must survive the round trip.
fn junk_trace() -> impl Strategy<Value = Json> {
    (
        0u32..8,
        prop::collection::vec(0u32..16, 0..48),
        0u64..u64::MAX,
    )
        .prop_map(|(variant, nibbles, parent)| {
            let hex: String = nibbles
                .iter()
                .map(|&n| char::from_digit(n, 16).unwrap())
                .collect();
            match variant {
                0 => Json::Null,
                1 => Json::Bool(parent % 2 == 0),
                2 => Json::uint(parent),
                3 => Json::str(hex), // right shape, wrong type (bare string)
                4 => Json::Arr(vec![]),
                5 => Json::Obj(vec![]), // object missing `id`
                6 => Json::Obj(vec![("id".into(), Json::uint(parent))]), // id wrong type
                _ => Json::Obj(vec![
                    ("id".into(), Json::str(hex)),
                    ("parent".into(), Json::uint(parent)),
                ]),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A valid `run` frame with an arbitrary `trace` field always
    /// parses, never errors: junk/missing/oversized contexts degrade
    /// to an untraced request (`trace: None`), and only a well-formed
    /// `{id: 32-hex-nonzero}` object survives the round trip.
    #[test]
    fn junk_trace_fields_degrade_to_untraced_never_error(junk in junk_trace()) {
        let spec = fixed_spec();
        let encoded = encode_request(&Request::Run { spec: spec.clone(), trace: None });
        let mut obj = match Json::parse(&encoded).unwrap() {
            Json::Obj(pairs) => pairs,
            other => panic!("encoded request is not an object: {other:?}"),
        };
        obj.push(("trace".into(), junk.clone()));
        let frame = Json::Obj(obj).to_string();

        // Parse level: the frame is accepted, and the context survives
        // exactly when the id is a valid 32-hex nonzero trace id.
        let parsed = parse_request(&frame).expect("junk trace must not fail the frame");
        let expected_id = junk.get("id").and_then(Json::as_str).and_then(TraceId::parse);
        match parsed {
            Request::Run { trace, .. } => match expected_id {
                Some(id) => {
                    let ctx = trace.expect("valid context must be kept");
                    prop_assert_eq!(ctx.trace, Some(id));
                    prop_assert_eq!(ctx.parent, junk.get("parent").and_then(Json::as_u64).unwrap_or(0));
                }
                None => prop_assert!(trace.is_none(), "junk must degrade to None"),
            },
            other => panic!("round-tripped into {other:?}"),
        }

        // Socket level: the daemon answers with a result line, not an
        // error — tracing junk never breaks the request itself.
        static SERVER: std::sync::OnceLock<RunningServer> = std::sync::OnceLock::new();
        let server = SERVER.get_or_init(|| start_server("tracejunk"));
        let mut payload = frame.into_bytes();
        payload.push(b'\n');
        let line = raw_round_trip(server.addr(), &payload).expect("a response line");
        let value = Json::parse(&line).expect("response must be valid JSON");
        prop_assert_ne!(value.get("type").and_then(Json::as_str), Some("error"), "{}", line);
    }

    /// Arbitrary junk frames (newlines stripped so each is one frame)
    /// always produce exactly one parseable JSON response line.
    #[test]
    fn junk_frames_always_get_a_json_response(bytes in prop::collection::vec(0u8..=255, 1..200)) {
        static SERVER: std::sync::OnceLock<RunningServer> = std::sync::OnceLock::new();
        let server = SERVER.get_or_init(|| start_server("proptest"));
        let mut payload: Vec<u8> = bytes
            .into_iter()
            .filter(|&b| b != b'\n' && b != b'\r')
            .collect();
        payload.push(b'\n');
        if payload.iter().all(|b| b.is_ascii_whitespace()) {
            return; // blank keep-alive: legitimately no response
        }
        let line = raw_round_trip(server.addr(), &payload).expect("a response line");
        let value = Json::parse(&line).expect("response must be valid JSON");
        // Random bytes can only ever parse as a protocol error (it
        // takes a well-formed op to get anything else).
        prop_assert_eq!(value.get("type").and_then(Json::as_str), Some("error"));
    }
}
