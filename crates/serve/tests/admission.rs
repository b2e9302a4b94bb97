//! Admission at the socket: a one-worker daemon with a one-job queue,
//! driven into `busy` by a gated executor.
//!
//! With the only worker parked on the gate and the only queue slot
//! taken, the exact wire answers are pinned: a distinct `run` is
//! refused with `job queue full`, a `batch` that cannot fit is refused
//! whole, and a duplicate `run` still coalesces onto the running job
//! and returns the first run's line. `stats` counts what happened.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use supermarq_serve::protocol::encode_request;
use supermarq_serve::{Client, Request, ServeConfig, Server};
use supermarq_store::{Json, RunOutcome, RunSpec, Store, SweepGrid, TranspileSpec};

fn temp_store(tag: &str) -> Store {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "supermarq-serve-admission-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

fn grid(seeds: &[u64]) -> SweepGrid {
    SweepGrid {
        benchmarks: vec![("ghz".into(), vec![("size".into(), "3".into())])],
        devices: vec!["IonQ".into()],
        shots: vec![64],
        seeds: seeds.to_vec(),
        repetitions: 1,
        transpile: TranspileSpec::default(),
        division: "closed".into(),
    }
}

fn spec(seed: u64) -> RunSpec {
    grid(&[seed]).expand().remove(0)
}

/// A latch the executor blocks on until the test lifts it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn lift(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// One raw connection: requests go out as encoded frames, answers come
/// back as the exact lines the daemon wrote.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Conn {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, request: &Request) {
        let mut frame = encode_request(request);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "connection closed before an answer");
        line.trim_end().to_string()
    }

    fn run(addr: SocketAddr, seed: u64) -> Conn {
        let mut conn = Conn::open(addr);
        conn.send(&Request::Run {
            spec: spec(seed),
            trace: None,
        });
        conn
    }
}

/// The `serve` object of a fresh `stats` answer.
fn serve_stats(scraper: &mut Client) -> Json {
    scraper.stats().unwrap().get("serve").unwrap().clone()
}

fn counter(serve: &Json, key: &str) -> u64 {
    serve
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats serve object missing {key}"))
}

/// Polls `stats` until `key` reaches `want`.
fn await_counter(scraper: &mut Client, key: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if counter(&serve_stats(scraper), key) == want {
            return;
        }
        assert!(Instant::now() < deadline, "{key} never reached {want}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn full_queue_refuses_new_work_but_coalesces_duplicates() {
    let gate = Arc::new(Gate::default());
    let started = Arc::new(AtomicUsize::new(0));
    let (exec_gate, exec_started) = (Arc::clone(&gate), Arc::clone(&started));
    let server = Server::bind(
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        },
        temp_store("busy"),
        Arc::new(move |spec: &RunSpec| {
            exec_started.fetch_add(1, Ordering::SeqCst);
            exec_gate.wait();
            Ok(RunOutcome {
                scores: vec![spec.seed as f64 / 10.0],
                swap_count: 0,
                two_qubit_gates: 1,
            })
        }),
    )
    .unwrap();
    let addr = server.addr();
    let mut scraper = Client::connect(addr).unwrap();
    scraper
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // The first distinct run occupies the only worker...
    let mut first = Conn::run(addr, 1);
    let deadline = Instant::now() + Duration::from_secs(30);
    while started.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "the worker never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...and the second waits in the only queue slot.
    let mut second = Conn::run(addr, 2);
    await_counter(&mut scraper, "queue_depth", 1);

    // A third distinct run is refused, and its connection stays usable.
    let mut third = Conn::run(addr, 3);
    assert_eq!(
        third.line(),
        r#"{"type":"error","kind":"busy","message":"job queue full","retry_after_ms":200}"#
    );
    third.send(&Request::Ping);
    assert_eq!(third.line(), r#"{"type":"pong"}"#);

    // A batch that cannot fit is refused whole; the message counts
    // every cell that needed a job, the in-flight twin included.
    let mut batch = Conn::open(addr);
    batch.send(&Request::Batch {
        grid: grid(&[1, 3, 4]),
        trace: None,
    });
    assert_eq!(
        batch.line(),
        r#"{"type":"error","kind":"busy","message":"job queue cannot admit 3 jobs; retry later","retry_after_ms":200}"#
    );

    // A duplicate of the running job needs no slot: it joins.
    let mut duplicate = Conn::run(addr, 1);
    await_counter(&mut scraper, "coalesced", 1);
    let serve = serve_stats(&mut scraper);
    assert_eq!(counter(&serve, "rejected"), 2, "{serve}");
    assert_eq!(counter(&serve, "coalesced"), 1, "{serve}");
    assert_eq!(counter(&serve, "misses"), 3, "{serve}");
    assert_eq!(counter(&serve, "hits"), 0, "{serve}");
    assert_eq!(counter(&serve, "simulations"), 0, "{serve}");
    assert_eq!(counter(&serve, "queue_depth"), 1, "{serve}");
    assert_eq!(counter(&serve, "inflight"), 2, "{serve}");

    gate.lift();
    let first_line = first.line();
    assert_eq!(
        duplicate.line(),
        first_line,
        "the joiner gets the first run's line"
    );
    let second_line = second.line();
    let seed = |line: &str| {
        Json::parse(line)
            .unwrap()
            .get("spec")
            .and_then(|s| s.get("seed"))
            .and_then(Json::as_u64)
    };
    assert_eq!(seed(&first_line), Some(1), "{first_line}");
    assert_eq!(seed(&second_line), Some(2), "{second_line}");

    let serve = serve_stats(&mut scraper);
    assert_eq!(counter(&serve, "simulations"), 2, "{serve}");
    assert_eq!(counter(&serve, "rejected"), 2, "{serve}");
    assert_eq!(counter(&serve, "coalesced"), 1, "{serve}");
    assert_eq!(started.load(Ordering::SeqCst), 2, "one execution per job");
    server.shutdown();
}
