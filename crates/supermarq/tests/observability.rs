//! Cross-crate contracts for the `supermarq-obs` observability layer:
//! tracing must never perturb results (Counts, warm batch JSONL), and
//! the JSONL trace it emits must be strict JSON whose span parent ids
//! form a forest.
//!
//! Tracing state is process-global, so every test takes `guard()` first.

use std::path::PathBuf;
use std::sync::Mutex;

use supermarq::spec::execute_spec;
use supermarq_circuit::Circuit;
use supermarq_sim::{Counts, Executor, NoiseModel};
use supermarq_store::{Json, RunSpec, Store, SweepEngine};

/// Serializes tests that flip the global tracing switch.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("supermarq-obs-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ghz_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cx(0, q);
    }
    for q in 0..n {
        c.measure(q);
    }
    c
}

/// Runs `op` with tracing enabled and a live trace file, then restores
/// the disabled state. Returns the op's result and the trace contents.
fn with_tracing<T>(tag: &str, op: impl FnOnce() -> T) -> (T, String) {
    let dir = temp_dir(tag);
    let trace = dir.join("trace.jsonl");
    supermarq_obs::init_trace_file(&trace).unwrap();
    let result = op();
    supermarq_obs::flush();
    supermarq_obs::disable();
    let text = std::fs::read_to_string(&trace).unwrap();
    supermarq_obs::reset_for_tests();
    (result, text)
}

#[test]
fn tracing_does_not_perturb_executor_counts() {
    let _g = guard();
    supermarq_obs::disable();
    let circuit = ghz_circuit(4);
    let cases: [(&str, Executor); 2] = [
        ("fast-path", Executor::noiseless()),
        (
            "trajectory",
            Executor::new(NoiseModel::uniform_depolarizing(0.01)),
        ),
    ];
    for (label, executor) in &cases {
        let plain: Counts = executor.run(&circuit, 500, 7);
        let (traced, text) = with_tracing(&format!("counts-{label}"), || {
            executor.run(&circuit, 500, 7)
        });
        assert_eq!(plain, traced, "{label}: tracing changed the histogram");
        assert!(
            text.contains("\"name\":\"sim.run\""),
            "{label}: trace missing sim.run span"
        );
    }
}

#[test]
fn tracing_does_not_perturb_warm_batch_jsonl() {
    let _g = guard();
    supermarq_obs::disable();
    let store = Store::open(temp_dir("warm-batch")).unwrap();
    let specs = vec![
        RunSpec::new("ghz", vec![("size".into(), "3".into())], "IonQ", 50, 1, 1),
        RunSpec::new("ghz", vec![("size".into(), "4".into())], "IonQ", 50, 1, 1),
    ];
    let exec = |spec: &RunSpec| execute_spec(spec).map_err(|e| e.to_string());
    // Cold pass to populate the store; everything after is cache-served.
    SweepEngine::new(&store).run(&specs, exec);

    let mut plain = Vec::new();
    let report = SweepEngine::new(&store)
        .run_to_writer(&specs, exec, &mut plain)
        .unwrap();
    assert_eq!(report.stats.hits, specs.len(), "warm pass must be all hits");

    let (traced, _) = with_tracing("warm-batch-trace", || {
        let mut buf = Vec::new();
        SweepEngine::new(&store)
            .run_to_writer(&specs, exec, &mut buf)
            .unwrap();
        buf
    });
    assert_eq!(
        plain, traced,
        "tracing changed the warm batch JSONL byte stream"
    );
}

#[test]
fn trace_lines_are_strict_json_and_parents_form_a_forest() {
    let _g = guard();
    supermarq_obs::disable();
    let device = supermarq_device::Device::all_paper_devices()
        .into_iter()
        .find(|d| d.name() == "IonQ")
        .unwrap();
    let bench = supermarq::benchmarks::GhzBenchmark::new(3);
    let config = supermarq::RunConfig {
        shots: 100,
        repetitions: 1,
        seed: 1,
        ..Default::default()
    };
    let (_, text) = with_tracing("parse", || {
        supermarq::run_on_device(&bench, &device, &config).unwrap()
    });
    assert!(!text.is_empty(), "trace file is empty");

    let mut span_ids = Vec::new();
    let mut parents = Vec::new();
    let mut names = Vec::new();
    for line in text.lines() {
        // Every line must round-trip through the store's strict parser.
        let json = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        if json.get("type").and_then(Json::as_str) != Some("span") {
            continue;
        }
        names.push(json.get("name").and_then(Json::as_str).unwrap().to_string());
        span_ids.push(json.get("id").and_then(Json::as_u64).unwrap());
        match json.get("parent").unwrap() {
            Json::Null => parents.push(None),
            parent => parents.push(Some(parent.as_u64().unwrap())),
        }
        assert!(json.get("thread").and_then(Json::as_u64).is_some());
        assert!(json.get("elapsed_ns").and_then(Json::as_u64).is_some());
    }
    // Ids are unique, and every parent reference resolves: the spans
    // form a forest (roots are spans opened on threads with no current
    // span, e.g. pool workers outside a parented region).
    let unique: std::collections::BTreeSet<u64> = span_ids.iter().copied().collect();
    assert_eq!(unique.len(), span_ids.len(), "duplicate span ids");
    for parent in parents.into_iter().flatten() {
        assert!(unique.contains(&parent), "dangling parent id {parent}");
    }
    // The full pipeline ran under the trace: all five transpiler stages
    // plus the simulator and scoring spans must be present.
    for expected in [
        "run.benchmark",
        "transpile.run",
        "transpile.optimize",
        "transpile.place",
        "transpile.route",
        "transpile.decompose",
        "transpile.schedule",
        "sim.run",
        "sim.batch",
        "bench.score",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "trace has no {expected} span; got {names:?}"
        );
    }
}

/// Parses a trace's span lines into `id -> (name, parent, thread)`.
fn span_table(text: &str) -> std::collections::BTreeMap<u64, (String, Option<u64>, u64)> {
    let mut spans = std::collections::BTreeMap::new();
    for line in text.lines() {
        let json = Json::parse(line).unwrap();
        if json.get("type").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let name = json.get("name").and_then(Json::as_str).unwrap().to_string();
        let id = json.get("id").and_then(Json::as_u64).unwrap();
        let thread = json.get("thread").and_then(Json::as_u64).unwrap();
        spans.insert(
            id,
            (name, json.get("parent").and_then(Json::as_u64), thread),
        );
    }
    spans
}

#[test]
fn every_sim_run_nests_under_run_benchmark_across_the_pool() {
    let _g = guard();
    supermarq_obs::disable();
    let device = supermarq_device::Device::ionq();
    let bench = supermarq::benchmarks::GhzBenchmark::new(4);
    let config = supermarq::RunConfig {
        shots: 200,
        repetitions: 3,
        seed: 1,
        ..Default::default()
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    // The calling thread may drain every repetition itself; run until a
    // pool worker has run one, checking every trace on the way.
    let mut on_worker = false;
    for attempt in 0..50 {
        let (_, text) = with_tracing(&format!("nesting-{attempt}"), || {
            pool.install(|| supermarq::run_on_device(&bench, &device, &config).unwrap())
        });
        let spans = span_table(&text);
        let ancestors = |mut id: u64| {
            let mut names = Vec::new();
            while let Some(parent) = spans[&id].1 {
                names.push(spans[&parent].0.as_str());
                id = parent;
            }
            names
        };
        let root_thread = spans
            .values()
            .find(|(name, _, _)| name == "run.benchmark")
            .expect("a run.benchmark span")
            .2;
        let mut sim_runs = 0;
        for (&id, (name, _, thread)) in &spans {
            if name == "sim.run" || name == "bench.score" {
                assert_eq!(
                    ancestors(id),
                    ["run.repetition", "run.benchmark"],
                    "{name} {id} on thread {thread} is not inside its repetition"
                );
            }
            if name == "sim.run" {
                sim_runs += 1;
                on_worker |= *thread != root_thread;
            }
        }
        assert_eq!(sim_runs, 3, "one sim.run per repetition");
        if on_worker {
            break;
        }
    }
    assert!(on_worker, "no repetition ran on a pool worker in 50 runs");
}
