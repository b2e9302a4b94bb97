//! Criterion micro-benchmarks of every substrate the reproduction is built
//! on: statevector simulation, specialized gate kernels, noisy trajectory
//! execution (sequential vs. parallel), transpilation, circuit generation
//! (VQE and QAOA parameter searches included), Clifford synthesis,
//! stabilizer simulation, convex-hull geometry, feature extraction, and
//! warm run-store reads.
//!
//! Run with `cargo bench -p supermarq-bench`; a machine-readable summary
//! is written to `BENCH_sim.json` at the repo root. CI runs
//! `cargo bench -- --test` (smoke mode), which executes every routine once
//! without timing and leaves `BENCH_sim.json` untouched.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use supermarq::benchmarks::{GhzBenchmark, MerminBellBenchmark, QaoaVanillaBenchmark};
use supermarq::CircuitFamily;
use supermarq::{BenchmarkRegistry, FeatureVector, Mirror};
use supermarq_bench::figure2_points;
use supermarq_circuit::{Circuit, Gate};
use supermarq_clifford::{diagonalize, CliffordOp, StabilizerExecutor, StabilizerSimulator};
use supermarq_device::Device;
use supermarq_geometry::{monte_carlo_volume, ConvexHull};
use supermarq_pauli::{mermin_operator, tfim_hamiltonian};
use supermarq_sim::{krylov, Executor, NoiseModel, StateVector};
use supermarq_transpile::Transpiler;

fn ghz_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    c
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_ghz");
    for n in [10usize, 14, 18, 20, 22, 24, 26] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let circuit = ghz_circuit(n);
            b.iter(|| black_box(Executor::final_state(&circuit).expect("unitary circuit")));
        });
    }
    group.finish();
}

/// Intra-statevector scaling: a noiseless 22-qubit GHZ `final_state`
/// under explicit pools of 1/2/4/8 threads. Shot-level fan-out has a
/// single trajectory to work with here, so any speedup comes from the
/// chunked gate kernels splitting the amplitude array itself; the
/// per-thread-count ids feed the "segments vs speedup" table in
/// `BENCH_sim.json`.
fn bench_intra_statevector(c: &mut Criterion) {
    let circuit = ghz_circuit(22);
    let mut group = c.benchmark_group("intra_statevector_ghz22");
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("fixed-size pool");
        group.bench_with_input(BenchmarkId::new("threads", threads), &pool, |b, pool| {
            b.iter(|| {
                pool.install(|| {
                    black_box(Executor::final_state(&circuit).expect("unitary circuit"))
                })
            });
        });
    }
    group.finish();
}

/// The 18-qubit uniform superposition the kernel benchmarks act on.
fn kernels_base_state() -> StateVector {
    const N: usize = 18;
    let mut base = StateVector::zero_state(N);
    for q in 0..N {
        base.apply_gate(&Gate::H, &[q]);
    }
    base
}

/// Specialized gate kernels vs. the dense-matrix fallback on an 18-qubit
/// state. `apply_gate` dispatches diagonal/permutation gates to in-place
/// kernels; `apply_matrix1`/`apply_matrix2` force the generic path, so the
/// `*_dense` ids are the baselines the kernels are measured against.
fn bench_kernels(c: &mut Criterion) {
    let base = kernels_base_state();
    let mut group = c.benchmark_group("kernels_18q");
    let one_q: &[(&str, Gate)] = &[
        ("x_kernel", Gate::X),
        ("z_kernel", Gate::Z),
        ("t_kernel", Gate::T),
        ("rz_kernel", Gate::Rz(0.3)),
    ];
    for (id, gate) in one_q {
        let mut psi = base.clone();
        group.bench_function(id, |b| {
            b.iter(|| {
                psi.apply_gate(gate, &[9]);
                black_box(&psi);
            });
        });
    }
    {
        let m = Gate::Z.matrix1().expect("Z has a 1q matrix");
        let mut psi = base.clone();
        group.bench_function("z_dense", |b| {
            b.iter(|| {
                psi.apply_matrix1(&m, 9);
                black_box(&psi);
            });
        });
    }
    let two_q: &[(&str, Gate)] = &[
        ("cx_kernel", Gate::Cx),
        ("cz_kernel", Gate::Cz),
        ("swap_kernel", Gate::Swap),
        ("rzz_kernel", Gate::Rzz(0.3)),
    ];
    for (id, gate) in two_q {
        let mut psi = base.clone();
        group.bench_function(id, |b| {
            b.iter(|| {
                psi.apply_gate(gate, &[3, 12]);
                black_box(&psi);
            });
        });
    }
    {
        let m = Gate::Cx.matrix2().expect("CX has a 2q matrix");
        let mut psi = base.clone();
        group.bench_function("cx_dense", |b| {
            b.iter(|| {
                psi.apply_matrix2(&m, 3, 12);
                black_box(&psi);
            });
        });
    }
    {
        let psi = base.clone();
        group.bench_function("probability_of_one", |b| {
            b.iter(|| black_box(psi.probability_of_one(9)));
        });
    }
    group.finish();
}

/// The noisy 16-qubit GHZ run of `trajectory_throughput`: 100 shots at
/// 0.002 depolarizing, seed 7.
fn ghz16_noisy_100shots(exec: &Executor, circuit: &Circuit) -> supermarq_sim::Counts {
    exec.run(circuit, 100, 7)
}

/// Shot throughput on a 16-qubit noisy GHZ benchmark: one worker thread
/// (the sequential baseline) vs. the ambient rayon pool, plus one
/// noiseless `final_state` of the same circuit (`ghz16_final_state`),
/// the unit the `BENCH_ASSERT` invariant prices the noisy run in. The
/// speedup between the first two ids is exported to `BENCH_sim.json`.
fn bench_trajectory_throughput(c: &mut Criterion) {
    let circuit = ghz_circuit(16);
    let exec = Executor::new(NoiseModel::uniform_depolarizing(0.002));
    let mut group = c.benchmark_group("trajectory_throughput");
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    group.bench_function("ghz16_noisy_100shots_seq1", |b| {
        b.iter(|| sequential.install(|| black_box(ghz16_noisy_100shots(&exec, &circuit))));
    });
    group.bench_function("ghz16_noisy_100shots_par", |b| {
        b.iter(|| black_box(ghz16_noisy_100shots(&exec, &circuit)));
    });
    group.bench_function("ghz16_final_state", |b| {
        b.iter(|| sequential.install(|| black_box(Executor::final_state(&circuit))));
    });
    group.finish();
}

/// Noisy shots against their count on an installed pool of one: a
/// 10-qubit GHZ circuit under the IonQ model (depolarizing, idle
/// relaxation, readout error) from the 35 shots of a Fig. 2 IonQ cell to
/// 2,000. Shots that draw the same events share one state, so the cost
/// grows more slowly than the shot count.
fn bench_noisy_shots_scaling(c: &mut Criterion) {
    let circuit = ghz_circuit(10);
    let exec = Executor::new(Device::ionq().noise_model());
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    let mut group = c.benchmark_group("noisy_shots_scaling");
    for shots in [35usize, 100, 350, 1000, 2000] {
        group.bench_with_input(BenchmarkId::from_parameter(shots), &shots, |b, &shots| {
            b.iter(|| sequential.install(|| black_box(exec.run(&circuit, shots, 7))));
        });
    }
    group.finish();
}

/// Noisy 6-qubit GHZ trajectories under the ambient pool, plus the
/// 1000-shot run under an installed pool of one (`1000_seq1`). On small
/// circuits every gate kernel asks for the thread count, so the pair
/// shows what the ambient lookup costs per call; `BENCH_ASSERT=1` bounds
/// their ratio.
fn bench_trajectory_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("noisy_trajectories_ghz6");
    let circuit = ghz_circuit(6);
    let exec = Executor::new(NoiseModel::uniform_depolarizing(0.01));
    for shots in [100usize, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(shots), &shots, |b, &shots| {
            b.iter(|| black_box(exec.run(&circuit, shots, 7)));
        });
    }
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    group.bench_function("1000_seq1", |b| {
        b.iter(|| sequential.install(|| black_box(exec.run(&circuit, 1000, 7))));
    });
    group.finish();
}

fn bench_transpiler(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpile");
    let vanilla = QaoaVanillaBenchmark::new(6, 1).circuits().remove(0);
    for device in [Device::ibm_montreal(), Device::ionq()] {
        group.bench_with_input(
            BenchmarkId::from_parameter(device.name().to_string()),
            &device,
            |b, device| {
                let t = Transpiler::for_device(device);
                b.iter(|| black_box(t.run(&vanilla).unwrap()));
            },
        );
    }
    group.finish();
}

/// Circuit generation through the registry, as every run path builds a
/// benchmark: VQE at sizes 3-5 and both QAOA ansatzes at size 6, whose
/// classical parameter searches dominate, and the whole IonQ column of
/// Fig. 2 (25 cells).
fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    let registry = BenchmarkRegistry::builtin();
    let cells: Vec<(String, Vec<(String, String)>)> = figure2_points()
        .into_iter()
        .flat_map(|(_, points, _)| points)
        .collect();
    for (id, params) in &cells {
        let size = params
            .iter()
            .find(|(k, _)| k == "size")
            .map(|(_, v)| v.as_str());
        let wanted = match id.as_str() {
            "vqe" => matches!(size, Some("3" | "4" | "5")),
            "qaoa-vanilla" | "qaoa-swap" => size == Some("6"),
            _ => false,
        };
        if wanted {
            let name = format!("{id}_{}", size.unwrap_or("?"));
            group.bench_function(&name, |b| {
                b.iter(|| black_box(registry.build(id, params).expect("Fig. 2 cell")));
            });
        }
    }
    group.bench_function("ionq_column", |b| {
        b.iter(|| {
            for (id, params) in &cells {
                black_box(registry.build(id, params).expect("Fig. 2 cell"));
            }
        });
    });
    group.finish();
}

fn bench_clifford(c: &mut Criterion) {
    c.bench_function("mermin_diagonalize_n8", |b| {
        let m = mermin_operator(8);
        let strings: Vec<_> = m.iter().map(|(_, p)| p.clone()).collect();
        b.iter(|| black_box(diagonalize(&strings).unwrap()));
    });
    c.bench_function("chp_ghz_200q", |b| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        b.iter(|| {
            let mut sim = StabilizerSimulator::new(200);
            sim.apply(CliffordOp::H(0));
            for q in 0..199 {
                sim.apply(CliffordOp::Cx(q, q + 1));
            }
            let mut rng = StdRng::seed_from_u64(1);
            // measure_all is mask-limited to 64 qubits; measure per qubit.
            let mut parity = false;
            for q in 0..200 {
                parity ^= sim.measure(q, &mut rng);
            }
            black_box(parity)
        });
    });
}

/// Qubits vs time for wide Clifford mirrors: `success_fraction` of the
/// GHZ mirror at 100 shots, noiseless and under IonQ's noise model. Every
/// id contains `ghz_<n>q`, so the filter `ghz_200q` selects the 200-qubit
/// pair together with `chp_ghz_200q`, the one-run baseline of the
/// `BENCH_ASSERT` invariant.
fn bench_clifford_mirror(c: &mut Criterion) {
    const SHOTS: usize = 100;
    let mut group = c.benchmark_group("clifford_mirror");
    let noises = [
        ("ideal", NoiseModel::ideal()),
        ("ionq", Device::ionq().noise_model()),
    ];
    for n in [50usize, 100, 200] {
        let mirror = Mirror::new(GhzBenchmark::new(n));
        let circuit = mirror.circuits().remove(0);
        let expected = mirror.expected_bits();
        for (name, noise) in &noises {
            let exec = StabilizerExecutor::new(noise.clone());
            group.bench_function(&format!("ghz_{n}q_{name}"), |b| {
                b.iter(|| black_box(exec.success_fraction(&circuit, &expected, SHOTS, 7)));
            });
        }
    }
    group.finish();
}

fn bench_geometry(c: &mut Criterion) {
    let suite = supermarq::coverage::supermarq_suite();
    let points: Vec<Vec<f64>> = suite
        .iter()
        .map(|circ| FeatureVector::of(circ).to_vec())
        .collect();
    c.bench_function("hull_volume_6d_52pts", |b| {
        b.iter(|| black_box(ConvexHull::new(&points).unwrap().volume()));
    });
    c.bench_function("monte_carlo_volume_3d", |b| {
        let pts: Vec<Vec<f64>> = (0..8)
            .map(|m| {
                (0..3)
                    .map(|i| if m >> i & 1 == 1 { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        b.iter(|| black_box(monte_carlo_volume(&pts, 200, 3)));
    });
}

fn bench_features(c: &mut Criterion) {
    c.bench_function("features_ghz_1000q", |b| {
        let circuit = GhzBenchmark::new(1000).circuits().remove(0);
        b.iter(|| black_box(FeatureVector::of(&circuit)));
    });
    c.bench_function("features_mermin_6q", |b| {
        let circuit = MerminBellBenchmark::new(6).circuits().remove(0);
        b.iter(|| black_box(FeatureVector::of(&circuit)));
    });
}

fn bench_krylov(c: &mut Criterion) {
    c.bench_function("krylov_tfim_evolution_10q", |b| {
        let h = tfim_hamiltonian(10, 1.0, 1.0);
        let psi = StateVector::zero_state(10);
        b.iter(|| black_box(krylov::evolve(&h, &psi, 0.5, 20, 2)));
    });
}

/// Warm-hit quantiles from the serve daemon's own latency histogram,
/// captured after the round-trip bench: (samples, p50 ns, p99 ns).
static SERVE_WARM_HIT: std::sync::OnceLock<(u64, u64, u64)> = std::sync::OnceLock::new();

/// Serve-daemon warm-hit latency: a pre-warmed store behind a loopback
/// TCP daemon, measured as full client round-trips for a `run` request
/// answered entirely from the cache. The executor is poisoned so a cold
/// path would fail loudly. The server-side histogram supplies the
/// p50/p99 exported to `BENCH_sim.json`.
fn bench_serve_warm_hit(c: &mut Criterion) {
    use supermarq_serve::{Client, ServeConfig, Server};
    use supermarq_store::{RunOutcome, RunSpec, Store, SweepEngine};

    let dir = std::env::temp_dir().join(format!("supermarq-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("bench store");
    let spec = RunSpec::new(
        "ghz",
        vec![("size".to_string(), "3".to_string())],
        "IonQ",
        100,
        2,
        1,
    );
    SweepEngine::new(&store).run_job(&spec, |s| {
        Ok(RunOutcome {
            scores: vec![0.5; s.repetitions as usize],
            swap_count: 0,
            two_qubit_gates: 2,
        })
    });
    let server = Server::bind(
        ServeConfig::default(),
        store,
        std::sync::Arc::new(|_: &RunSpec| Err("warm bench must never execute".into())),
    )
    .expect("loopback daemon");
    let mut client = Client::connect(server.addr()).expect("loopback client");
    c.bench_function("serve_warm_hit/run_round_trip", |b| {
        b.iter(|| black_box(client.run(&spec).expect("warm hit")));
    });
    let metrics = server.metrics();
    let _ = SERVE_WARM_HIT.set((
        metrics.warm_hit_ns.count(),
        metrics.warm_hit_ns.quantile(0.5),
        metrics.warm_hit_ns.quantile(0.99),
    ));
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store layer on a warm daemon cell, over the 25 IonQ Fig. 2 specs
/// in a store filled by real runs: the content hash alone, a warm
/// `Store::get`, and a get plus the `to_line` a reply sends. Each
/// iteration covers all 25 cells.
fn bench_store_warm(c: &mut Criterion) {
    use supermarq::spec::execute_spec;
    use supermarq_bench::shots_for;
    use supermarq_store::{Store, SweepEngine, SweepGrid, TranspileSpec};

    let dir = std::env::temp_dir().join(format!("supermarq-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("bench store");
    let ionq = Device::ionq();
    let specs = SweepGrid {
        benchmarks: figure2_points()
            .into_iter()
            .flat_map(|(_, points, _)| points)
            .collect(),
        devices: vec![ionq.name().to_string()],
        shots: vec![shots_for(&ionq)],
        seeds: vec![1],
        repetitions: 3,
        transpile: TranspileSpec::default(),
        division: "closed".into(),
    }
    .expand();
    let filled =
        SweepEngine::new(&store).run(&specs, |spec| execute_spec(spec).map_err(|e| e.to_string()));
    assert_eq!(filled.stats.failures, 0, "every IonQ cell runs");
    let mut group = c.benchmark_group("store_warm");
    group.bench_function("ionq_column_content_hash", |b| {
        b.iter(|| {
            for spec in &specs {
                black_box(spec.content_hash());
            }
        });
    });
    group.bench_function("ionq_column_get", |b| {
        b.iter(|| {
            for spec in &specs {
                black_box(store.get(spec).expect("warm cell"));
            }
        });
    });
    group.bench_function("ionq_column_get_to_line", |b| {
        b.iter(|| {
            for spec in &specs {
                black_box(store.get(spec).expect("warm cell").to_line());
            }
        });
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_statevector,
    bench_intra_statevector,
    bench_kernels,
    bench_trajectory_throughput,
    bench_noisy_shots_scaling,
    bench_trajectory_execution,
    bench_transpiler,
    bench_generation,
    bench_clifford,
    bench_clifford_mirror,
    bench_geometry,
    bench_features,
    bench_krylov,
    bench_store_warm,
    bench_serve_warm_hit
);

/// Best-effort `git describe --always --dirty` for the bench metadata;
/// `null` when git is unavailable or the tree is not a repository.
fn git_describe() -> String {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output();
    match out {
        Ok(out) if out.status.success() => {
            let desc = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if desc.is_empty() {
                "null".to_string()
            } else {
                format!("\"{}\"", desc.replace('"', "'"))
            }
        }
        _ => "null".to_string(),
    }
}

/// Serializes the recorded measurements to `BENCH_sim.json` at the repo
/// root (manual formatting; the workspace has no serde). Skipped in
/// `--test` smoke mode so CI never clobbers real numbers.
fn export_bench_json() {
    let measurements = criterion::measurements();
    let lookup = |id: &str| {
        measurements
            .iter()
            .find(|(name, _)| name == id)
            .map(|&(_, nanos)| nanos)
    };
    let seq = lookup("trajectory_throughput/ghz16_noisy_100shots_seq1");
    let par = lookup("trajectory_throughput/ghz16_noisy_100shots_par");
    let speedup = match (seq, par) {
        (Some(s), Some(p)) if p > 0.0 => format!("{:.3}", s / p),
        _ => "null".to_string(),
    };
    let rayon_env = match std::env::var("RAYON_NUM_THREADS") {
        Ok(v) => format!("\"{}\"", v.replace('"', "'")),
        Err(_) => "null".to_string(),
    };
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_else(|_| "null".to_string());
    let mut json = String::from("{\n");
    json.push_str("  \"source\": \"cargo bench -p supermarq-bench (benches/substrate.rs)\",\n");
    json.push_str("  \"metadata\": {\n");
    json.push_str(&format!(
        "    \"rayon_threads\": {},\n",
        rayon::current_num_threads()
    ));
    json.push_str(&format!("    \"rayon_num_threads_env\": {rayon_env},\n"));
    json.push_str(&format!("    \"git_describe\": {},\n", git_describe()));
    json.push_str(&format!("    \"timestamp_unix_secs\": {timestamp}\n"));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"rayon_threads\": {},\n",
        rayon::current_num_threads()
    ));
    json.push_str(&format!(
        "  \"trajectory_speedup_seq1_vs_pool\": {speedup},\n"
    ));
    // Segments-vs-speedup table: how the chunked kernels scale when the
    // only parallelism available is *inside* one statevector.
    json.push_str("  \"intra_statevector_ghz22\": [\n");
    let base = lookup("intra_statevector_ghz22/threads/1");
    let rows: Vec<String> = [1usize, 2, 4, 8]
        .iter()
        .filter_map(|&threads| {
            let nanos = lookup(&format!("intra_statevector_ghz22/threads/{threads}"))?;
            let speedup = match base {
                Some(b) if nanos > 0.0 => format!("{:.3}", b / nanos),
                _ => "null".to_string(),
            };
            Some(format!(
                "    {{ \"segments\": {threads}, \"ns_per_iter\": {nanos:.1}, \"speedup_vs_1\": {speedup} }}"
            ))
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");
    // Daemon warm-hit latency: full TCP round-trips from the client's
    // side (ns_per_iter below) plus the server-side histogram quantiles.
    json.push_str("  \"serve_warm_hit\": ");
    match SERVE_WARM_HIT.get() {
        Some(&(samples, p50, p99)) => json.push_str(&format!(
            "{{ \"samples\": {samples}, \"p50_ns\": {p50}, \"p99_ns\": {p99} }},\n"
        )),
        None => json.push_str("null,\n"),
    }
    json.push_str("  \"measurements_ns_per_iter\": {\n");
    let body: Vec<String> = measurements
        .iter()
        .map(|(id, nanos)| format!("    \"{}\": {:.1}", id.replace('"', "'"), nanos))
        .collect();
    json.push_str(&body.join(",\n"));
    json.push_str("\n  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(err) => eprintln!("\nfailed to write {path}: {err}"),
    }
}

/// Median nanoseconds per call of the dense two-qubit path
/// (`apply_matrix2` with the CX matrix) and of the CX kernel
/// (`apply_gate(Cx)`), over single calls alternated on one 18-qubit
/// state in an installed pool of one thread. Alternating exposes both
/// paths to the same cache and clock state, the median drops the calls
/// the scheduler interrupted, and one thread keeps the load on a
/// second vCPU out of the ratio.
fn interleaved_cx_medians() -> (f64, f64) {
    const CALLS: usize = 3_000;
    let m = Gate::Cx.matrix2().expect("CX has a 2q matrix");
    let mut psi = kernels_base_state();
    let mut dense = Vec::with_capacity(CALLS);
    let mut kernel = Vec::with_capacity(CALLS);
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    one_thread.install(|| {
        for _ in 0..CALLS {
            let start = Instant::now();
            psi.apply_matrix2(&m, 3, 12);
            black_box(&psi);
            dense.push(start.elapsed().as_nanos());
            let start = Instant::now();
            psi.apply_gate(&Gate::Cx, &[3, 12]);
            black_box(&psi);
            kernel.push(start.elapsed().as_nanos());
        }
    });
    let median = |mut v: Vec<u128>| {
        v.sort_unstable();
        v[v.len() / 2] as f64
    };
    (median(dense), median(kernel))
}

/// Median nanoseconds of `ghz16_noisy_100shots_seq1` and of
/// `ghz16_final_state`, over 21 calls of each alternated on an installed
/// pool of one, so both see the same cache and clock state.
fn interleaved_ghz16_medians() -> (f64, f64) {
    const CALLS: usize = 21;
    let circuit = ghz_circuit(16);
    let exec = Executor::new(NoiseModel::uniform_depolarizing(0.002));
    let mut noisy = Vec::with_capacity(CALLS);
    let mut ideal = Vec::with_capacity(CALLS);
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    one_thread.install(|| {
        for _ in 0..CALLS {
            let start = Instant::now();
            black_box(ghz16_noisy_100shots(&exec, &circuit));
            noisy.push(start.elapsed().as_nanos());
            let start = Instant::now();
            black_box(Executor::final_state(&circuit).expect("unitary circuit"));
            ideal.push(start.elapsed().as_nanos());
        }
    });
    let median = |mut v: Vec<u128>| {
        v.sort_unstable();
        v[v.len() / 2] as f64
    };
    (median(noisy), median(ideal))
}

/// A measurement returning `(slower, faster)` nanoseconds.
type Timing = fn() -> (f64, f64);

/// The `BENCH_ASSERT=1` invariants: `(slower, faster, limit, timing)`
/// requires time(`slower`) <= `limit` * time(`faster`). An invariant is
/// checked when the filtered run measured both of its ids, on their
/// criterion means unless it names its own timing.
/// * The dense two-qubit path stays within 2.5x of the specialized CX
///   kernel on the 18-qubit state (the O(4*2^n) full scan it replaced
///   sat around 4.6x in criterion means). Means over a few criterion
///   iterations on 2 vCPUs failed about a third of runs without a
///   regression, so it reads medians of interleaved calls on one thread
///   instead: about 2.2 (1.8-2.6 on a shared 2-vCPU VM), and 5.8-7.8
///   with the full scan put back.
/// * The ambient pool adds no per-call cost that an installed pool of one
///   avoids: on one CPU the ratio is about 1, and a thread-count lookup
///   that reread the environment on every gate kernel put it near 60.
/// * 100 noiseless shots of the 200-qubit GHZ mirror cost no more than
///   one CHP run of a 200-qubit GHZ state: the shots are Pauli frames
///   over one reference tableau run (about 0.3), where a full tableau
///   run per shot put it at 11-13.
/// * 100 noisy shots of the 16-qubit GHZ circuit (0.002 depolarizing, a
///   pool of one) cost at most 100 noiseless `final_state`s of it, as
///   medians of interleaved calls: shots that draw the same events share
///   one state, so the run evolves a handful of cohorts (32-35 on a
///   2-vCPU VM), where one trajectory per shot put it near 1,300-1,900.
const INVARIANTS: [(&str, &str, f64, Option<Timing>); 4] = [
    (
        "kernels_18q/cx_dense",
        "kernels_18q/cx_kernel",
        2.5,
        Some(interleaved_cx_medians),
    ),
    (
        "noisy_trajectories_ghz6/1000",
        "noisy_trajectories_ghz6/1000_seq1",
        1.5,
        None,
    ),
    ("clifford_mirror/ghz_200q_ideal", "chp_ghz_200q", 1.0, None),
    (
        "trajectory_throughput/ghz16_noisy_100shots_seq1",
        "trajectory_throughput/ghz16_final_state",
        100.0,
        Some(interleaved_ghz16_medians),
    ),
];

/// `BENCH_ASSERT=1` turns the run into a pass/fail perf gate over every
/// invariant whose two ids were measured. Returns `false` — and `main`
/// exits nonzero — when a ratio regresses or no invariant was measured.
fn run_assertions() -> bool {
    let measurements = criterion::measurements();
    let lookup = |id: &str| {
        measurements
            .iter()
            .find(|(name, _)| name == id)
            .map(|&(_, nanos)| nanos)
    };
    let mut checked = 0;
    let mut ok = true;
    for (slower, faster, limit, timing) in INVARIANTS {
        let (Some(slow), Some(fast)) = (lookup(slower), lookup(faster)) else {
            continue;
        };
        let (slow, fast) = timing.map_or((slow, fast), |measure| measure());
        checked += 1;
        if fast <= 0.0 {
            eprintln!("BENCH_ASSERT: {faster} reported a non-positive time");
            ok = false;
            continue;
        }
        let ratio = slow / fast;
        let pass = ratio <= limit;
        println!(
            "\nBENCH_ASSERT: {slower} / {faster} = {ratio:.2} (limit {limit}) -> {}",
            if pass { "ok" } else { "FAIL" }
        );
        ok &= pass;
    }
    if checked == 0 {
        eprintln!("BENCH_ASSERT: no invariant had both of its ids measured");
        eprintln!(
            "BENCH_ASSERT: run with a filter that includes kernels_18q, \
             noisy_trajectories_ghz6, ghz_200q or trajectory_throughput"
        );
        return false;
    }
    ok
}

fn main() {
    benches();
    if criterion::is_test_mode() {
        return;
    }
    let asserting = std::env::var("BENCH_ASSERT").is_ok_and(|v| v == "1");
    if asserting && !run_assertions() {
        std::process::exit(1);
    }
    // Assert runs are usually filtered, and filtered runs are partial
    // either way: never let them clobber the full BENCH_sim.json.
    if asserting || criterion::has_filter() {
        println!("skipping BENCH_sim.json export (partial or asserting run)");
        return;
    }
    export_bench_json();
}
