//! Robustness suite for the run-artifact store: corruption injection,
//! crash simulation, concurrent writers, and sweep determinism.
//!
//! The store's contract is that *nothing on disk can make it panic or
//! return wrong data*: bad entries are cache misses, stray temp files
//! are invisible, and a warm sweep replays byte-identically.

use std::fs;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

use supermarq_store::{
    RunOutcome, RunRecord, RunSpec, Store, SweepEngine, SweepGrid, TranspileSpec,
};

fn temp_store(tag: &str) -> Store {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "supermarq-store-robust-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

fn spec(seed: u64) -> RunSpec {
    RunSpec::new(
        "ghz",
        vec![("size".into(), "3".into())],
        "IonQ",
        100,
        2,
        seed,
    )
}

fn record(seed: u64) -> RunRecord {
    RunRecord {
        spec: spec(seed),
        outcome: RunOutcome {
            scores: vec![0.875, 0.9125],
            swap_count: 1,
            two_qubit_gates: 2,
        },
    }
}

/// The single object file backing `spec(seed)`.
fn object_file(store: &Store, seed: u64) -> PathBuf {
    store.object_path(&spec(seed).content_hash())
}

#[test]
fn truncated_entry_is_a_miss_not_a_panic() {
    let store = temp_store("truncate");
    store.put(&record(1)).unwrap();
    let path = object_file(&store, 1);
    let full = fs::read_to_string(&path).unwrap();
    // Every truncation point inside the JSON body must read as a clean
    // miss. (Cutting only the trailing newline leaves a complete record,
    // which legitimately still hits.)
    for cut in 0..full.trim_end().len() {
        fs::write(&path, &full[..cut]).unwrap();
        assert!(store.get(&spec(1)).is_none(), "cut at {cut}");
    }
    // Restoring the bytes restores the hit.
    fs::write(&path, &full).unwrap();
    assert_eq!(store.get(&spec(1)), Some(record(1)));
}

#[test]
fn garbled_entries_are_misses_and_gc_removes_them() {
    let store = temp_store("garble");
    store.put(&record(1)).unwrap();
    store.put(&record(2)).unwrap();
    let garblings: [&[u8]; 5] = [
        b"not json at all",
        b"{\"schema\":1,\"hash\":\"00\",\"spec\":{}}",
        b"[1,2,3]",
        b"{}",
        &[0xff, 0xfe, 0x00, 0x01], // invalid UTF-8
    ];
    let path = object_file(&store, 1);
    for garbage in garblings {
        fs::write(&path, garbage).unwrap();
        assert!(store.get(&spec(1)).is_none());
        // The sibling entry stays readable throughout.
        assert_eq!(store.get(&spec(2)), Some(record(2)));
    }
    let verify = store.verify().unwrap();
    assert_eq!(verify.ok, 1);
    assert_eq!(verify.corrupt.len(), 1);
    let gc = store.gc().unwrap();
    assert_eq!(gc.removed_objects, 1);
    assert_eq!(gc.kept, 1);
    assert!(store.verify().unwrap().is_clean());
    assert!(!path.exists());
}

#[test]
fn schema_version_mismatch_is_a_miss_and_gc_fodder() {
    let store = temp_store("schema");
    store.put(&record(1)).unwrap();
    let path = object_file(&store, 1);
    // A plausible record from a future schema version.
    let future = fs::read_to_string(&path)
        .unwrap()
        .replace("\"schema\":2", "\"schema\":3");
    fs::write(&path, future).unwrap();
    assert!(store.get(&spec(1)).is_none(), "future schema must miss");
    assert_eq!(store.verify().unwrap().corrupt.len(), 1);
    assert_eq!(store.gc().unwrap().removed_objects, 1);
}

#[test]
fn record_filed_under_wrong_address_is_a_miss() {
    let store = temp_store("misfiled");
    store.put(&record(1)).unwrap();
    // Copy the valid record for seed 1 into seed 2's slot: internally
    // consistent JSON, wrong address.
    let wrong = object_file(&store, 2);
    fs::create_dir_all(wrong.parent().unwrap()).unwrap();
    fs::copy(object_file(&store, 1), &wrong).unwrap();
    assert!(store.get(&spec(2)).is_none());
    let verify = store.verify().unwrap();
    assert_eq!(verify.misplaced.len(), 1);
    assert_eq!(store.gc().unwrap().removed_objects, 1);
    // The correctly-filed entry survives.
    assert_eq!(store.get(&spec(1)), Some(record(1)));
}

#[test]
fn reads_accept_exactly_a_consistent_record_at_its_own_address() {
    let store = temp_store("read-contract");
    store.put(&record(1)).unwrap();
    let path = object_file(&store, 1);
    let original = fs::read_to_string(&path).unwrap();
    let edit = |from: &str, to: &str| {
        assert!(original.contains(from), "{from} not in {original}");
        fs::write(&path, original.replacen(from, to, 1)).unwrap();
    };

    // A spec field edited without its hash: a miss, and corrupt.
    edit("\"shots\":100", "\"shots\":101");
    assert!(store.get(&spec(1)).is_none(), "edited spec must miss");
    let verify = store.verify().unwrap();
    assert_eq!((verify.ok, verify.corrupt.len()), (0, 1));
    assert!(verify.misplaced.is_empty());

    // The hash field edited (to a well-formed, wrong digest): a miss,
    // and corrupt.
    let hash = spec(1).content_hash();
    let flipped = if hash.starts_with('0') { "1" } else { "0" };
    edit(
        &format!("\"hash\":\"{hash}\""),
        &format!("\"hash\":\"{flipped}{}\"", &hash[1..]),
    );
    assert!(store.get(&spec(1)).is_none(), "edited hash must miss");
    let verify = store.verify().unwrap();
    assert_eq!((verify.ok, verify.corrupt.len()), (0, 1));
    assert!(verify.misplaced.is_empty());

    // The original bytes hit again.
    fs::write(&path, &original).unwrap();
    assert_eq!(store.get(&spec(1)), Some(record(1)));

    // The params keys reordered in the file: the same spec, so a hit
    // with the same record, and valid.
    let two_params = RunRecord {
        spec: RunSpec::new(
            "ghz",
            vec![("size".into(), "3".into()), ("alpha".into(), "x".into())],
            "IonQ",
            100,
            2,
            1,
        ),
        outcome: record(1).outcome,
    };
    store.put(&two_params).unwrap();
    let path = store.object_path(&two_params.spec.content_hash());
    let line = fs::read_to_string(&path).unwrap();
    let sorted = "\"params\":{\"alpha\":\"x\",\"size\":\"3\"}";
    assert!(line.contains(sorted), "{line}");
    fs::write(
        &path,
        line.replace(sorted, "\"params\":{\"size\":\"3\",\"alpha\":\"x\"}"),
    )
    .unwrap();
    assert_eq!(store.get(&two_params.spec), Some(two_params));
    let verify = store.verify().unwrap();
    assert_eq!((verify.ok, verify.corrupt.len()), (2, 0));
    assert!(verify.misplaced.is_empty());
}

#[test]
fn crash_simulation_stray_tmp_files_are_ignored_and_gced() {
    let store = temp_store("crash");
    store.put(&record(1)).unwrap();
    // Simulate writers killed mid-write: half-written payloads stranded
    // in tmp/ under various names.
    let tmp = store.root().join("tmp");
    fs::write(tmp.join("deadbeef.12345.0.tmp"), "{\"schema\":1,\"ha").unwrap();
    fs::write(
        tmp.join(format!("{}.999.7.tmp", spec(1).content_hash())),
        record(1).to_line(),
    )
    .unwrap();
    fs::write(tmp.join("noise"), [0u8; 10]).unwrap();
    // Reads and writes are unaffected.
    assert_eq!(store.get(&spec(1)), Some(record(1)));
    store.put(&record(2)).unwrap();
    assert_eq!(store.get(&spec(2)), Some(record(2)));
    // Stats surface the leftovers. Default gc spares them — the files
    // are fresh, indistinguishable from a live writer's in-flight
    // records in a shared store — but an exclusive owner (zero grace)
    // clears exactly them.
    assert_eq!(store.stats().unwrap().stray_tmp, 3);
    assert_eq!(store.gc().unwrap().removed_tmp, 0);
    assert_eq!(store.stats().unwrap().stray_tmp, 3);
    let gc = store.gc_with_grace(std::time::Duration::ZERO).unwrap();
    assert_eq!(gc.removed_tmp, 3);
    assert_eq!(gc.removed_objects, 0);
    assert_eq!(gc.kept, 2);
    assert_eq!(store.stats().unwrap().stray_tmp, 0);
    assert_eq!(store.get(&spec(1)), Some(record(1)));
}

#[test]
fn concurrent_writers_on_the_same_key_never_corrupt() {
    let store = temp_store("concurrent");
    let threads = 8;
    let rounds = 25;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..rounds {
                    store.put(&record(7)).unwrap();
                }
            });
        }
        // A racing reader sees either a miss (before first publication)
        // or the complete record — never a torn write.
        scope.spawn(|| {
            for _ in 0..threads * rounds {
                if let Some(found) = store.get(&spec(7)) {
                    assert_eq!(found, record(7));
                }
            }
        });
    });
    assert_eq!(store.get(&spec(7)), Some(record(7)));
    let stats = store.stats().unwrap();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.stray_tmp, 0, "every temp file was renamed or cleaned");
    assert!(store.verify().unwrap().is_clean());
}

#[test]
fn concurrent_writers_on_distinct_keys_all_land() {
    let store = temp_store("concurrent-distinct");
    let per_thread = 10u64;
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let store = &store;
            scope.spawn(move || {
                for i in 0..per_thread {
                    store.put(&record(t * per_thread + i)).unwrap();
                }
            });
        }
    });
    assert_eq!(store.stats().unwrap().entries, 40);
    for seed in 0..40 {
        assert_eq!(store.get(&spec(seed)), Some(record(seed)));
    }
}

#[test]
fn second_sweep_pass_is_all_hits_with_byte_identical_jsonl() {
    let store = temp_store("determinism");
    let grid = SweepGrid {
        benchmarks: vec![
            ("ghz".into(), vec![("size".into(), "3".into())]),
            ("ghz".into(), vec![("size".into(), "5".into())]),
        ],
        devices: vec!["IonQ".into(), "IBM-Montreal".into()],
        shots: vec![64, 128],
        seeds: vec![3],
        repetitions: 2,
        transpile: TranspileSpec::default(),
        division: "closed".into(),
    };
    let specs = grid.expand();
    assert_eq!(specs.len(), 8);
    let executions = AtomicUsize::new(0);
    let exec = |spec: &RunSpec| {
        executions.fetch_add(1, Ordering::Relaxed);
        // A deterministic stand-in executor: pure function of the spec.
        Ok(RunOutcome {
            scores: (0..spec.repetitions)
                .map(|r| (spec.seed + spec.shots + r) as f64 / 1000.0)
                .collect(),
            swap_count: spec.shots / 2,
            two_qubit_gates: spec.shots,
        })
    };
    let engine = SweepEngine::new(&store);
    let mut first = Vec::new();
    let report1 = engine.run_to_writer(&specs, exec, &mut first).unwrap();
    assert_eq!(report1.stats.misses, 8);
    assert_eq!(executions.load(Ordering::Relaxed), 8);

    let mut second = Vec::new();
    let report2 = engine.run_to_writer(&specs, exec, &mut second).unwrap();
    assert_eq!(report2.stats.hits, 8, "second pass must be all-hits");
    assert_eq!(report2.stats.misses, 0);
    assert_eq!(
        executions.load(Ordering::Relaxed),
        8,
        "second pass must perform zero executions"
    );
    assert_eq!(first, second, "JSONL must be byte-identical across passes");
    // Every line is a valid, hash-consistent record.
    for line in String::from_utf8(second).unwrap().lines() {
        RunRecord::from_str(line).unwrap();
    }
}

#[test]
fn interrupted_sweep_resumes_where_it_left_off() {
    let store = temp_store("resume");
    let specs: Vec<RunSpec> = (0..6).map(spec_n).collect();
    fn spec_n(n: u64) -> RunSpec {
        RunSpec::new("ghz", vec![("size".into(), "3".into())], "AQT", 32, 1, n)
    }
    let exec = |spec: &RunSpec| {
        Ok(RunOutcome {
            scores: vec![spec.seed as f64 / 10.0],
            swap_count: 0,
            two_qubit_gates: 1,
        })
    };
    // "Crash" after the first three jobs: only they were persisted.
    let engine = SweepEngine::new(&store);
    engine.run(&specs[..3], exec);
    // The rerun of the full grid executes only the remainder.
    let executions = AtomicUsize::new(0);
    let report = engine.run(&specs, |spec| {
        executions.fetch_add(1, Ordering::Relaxed);
        exec(spec)
    });
    assert_eq!(report.stats.hits, 3);
    assert_eq!(report.stats.misses, 3);
    assert_eq!(executions.load(Ordering::Relaxed), 3);
}
