//! Byte-identity guard for the benchmark-registry refactor: the store
//! cache keys of every Fig. 2 grid cell (and the standard-suite specs
//! behind Fig. 3) are pinned to the exact SHA-256 values produced before
//! the refactor. If any of these change, every cache on every machine
//! silently invalidates and fig2/fig3 outputs shift — bump
//! `SCHEMA_VERSION` instead of editing the constants. The noisy Counts
//! those records hold are pinned the same way (`noisy_counts_digest`), and
//! so are the records themselves — seeds, relabeling, mitigation and
//! scoring of both divisions (`run_records_digest`) — and every output
//! built from a circuit analysis: transpiled circuits, diagnostics with
//! their blame, and feature vectors (`analysis_outputs_digest`). The
//! Table I comparison corpora are pinned circuit by circuit
//! (`table1_corpora_digest`), and so are the classically optimized VQE
//! and QAOA parameters and ideal energies (`optimizer_outputs_digest`).
//! The statevector's unitary paths are pinned amplitude for amplitude:
//! final states, noiseless Counts and scores, the statevector mirror
//! fallback and Krylov evolution (`unitary_outputs_digest`).

use std::fmt::Write;

use supermarq::benchmarks::{QaoaSwapBenchmark, QaoaVanillaBenchmark, VqeBenchmark};
use supermarq::coverage::{
    cbg2021_suite, ppl2020_suite, qasmbench_suite, supermarq_suite, triq_suite,
};
use supermarq::registry::{BenchmarkEntry, BenchmarkRegistry, ParamKind};
use supermarq::spec::execute_spec;
use supermarq::{Benchmark, CircuitFamily, FeatureVector, Mirror};
use supermarq_bench::{figure2_points, shots_for};
use supermarq_circuit::Gate;
use supermarq_clifford::{diagonalize, StabilizerExecutor};
use supermarq_device::Device;
use supermarq_pauli::{mermin_operator, tfim_hamiltonian};
use supermarq_sim::{krylov, Executor, NoiseModel, StateVector};
use supermarq_store::{RunRecord, RunSpec};
use supermarq_transpile::{PipelineId, TranspileError, Transpiler};
use supermarq_verify::verify_on_device;

/// Combined SHA-256 over the canonical strings of every Fig. 2 cell
/// spec, captured on the pre-refactor tree (hard-coded factory match).
const FIG2_COMBINED: &str = "b85ec95886a9c3213b9dac7436d684724908b89e31ee86b06d27a274ad70b270";

/// Number of Fig. 2 cells (8 benchmarks x sizes x 8 devices as the
/// harness laid them out pre-refactor).
const FIG2_CELLS: usize = 200;

/// Content hashes of the first eight cells (the GHZ row), pre-refactor.
const FIRST_GHZ_HASHES: [&str; 8] = [
    "6e60ec3cf117aaee0bbe1919aedd3c024501508dd0f7e1ea02d22f2907010a0a",
    "4edf03a6aa3583d32e7e2bceb5b1bf27cfa40f07d6897862ad3e4fc3faff6629",
    "a2fb35318a8d9e7e6b622bbd58a708b44848fcd368f15e50a6f3a4df4cbd0dd6",
    "012d5feee2d838c649dd03726ca5e250747bfa5acd3f5c776fa232a1261f4812",
    "67a4a9823122006bf6a35edba89bb89bfc4976f61a7cbd2cdaa5c5ac4f415cae",
    "76e9c2872fd5fce5a10d458e47c1423d4f7b901b0dc602a6b7ce305e312e1396",
    "217de2554dc86aee96e7bf0ed2476e359da1da71dc43994e7a2cdf3257a8b0e2",
    "7cc450441f0b2157190f0b25174accad8f1aa5a50470c2c9ad5a37a2a5242bbc",
];

/// Every Fig. 2 cell spec, exactly as `fig2_scores` builds them.
fn fig2_specs() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (_, points, _) in figure2_points() {
        for (id, params) in points {
            for device in Device::all_paper_devices() {
                specs.push(RunSpec::new(
                    id.clone(),
                    params.clone(),
                    device.name(),
                    shots_for(&device),
                    3,
                    7,
                ));
            }
        }
    }
    specs
}

/// The tentpole acceptance gate: after routing `benchmark_from_params`
/// through the registry, every pre-existing cache key is byte-identical.
#[test]
fn fig2_cache_keys_are_byte_identical_to_pre_registry_baseline() {
    let specs = fig2_specs();
    assert_eq!(specs.len(), FIG2_CELLS, "Fig. 2 grid shape changed");
    let mut all = String::new();
    for s in &specs {
        all.push_str(&s.canonical_string());
    }
    assert_eq!(
        supermarq_store::hash::sha256_hex(all.as_bytes()),
        FIG2_COMBINED,
        "canonical spec encoding drifted — every store cache key changes"
    );
    for (s, expected) in specs.iter().zip(FIRST_GHZ_HASHES) {
        assert_eq!(s.benchmark, "ghz");
        assert_eq!(s.content_hash(), expected, "{}", s.canonical_string());
    }
}

/// Every Fig. 2 cell still resolves through the registry — the specs are
/// not just byte-stable but executable.
#[test]
fn fig2_specs_still_build_through_the_registry() {
    let registry = BenchmarkRegistry::builtin();
    for s in fig2_specs() {
        registry
            .build(&s.benchmark, &s.params)
            .unwrap_or_else(|e| panic!("{}: {e}", s.benchmark));
    }
}

/// SHA-256 over the noisy trajectory Counts of every registry base entry
/// on every Table II device (see [`noisy_counts_listing`]), captured
/// before the noise model was lowered to a flat program. Every Fig. 2/3
/// score, JSONL line and store record is a function of these Counts, so
/// the trajectory sampler must reproduce them bit for bit.
const NOISY_COUNTS_DIGEST: &str =
    "61bfe8556ebff2ab7a97bdfc4533baa17983f98df7a1607ff19b49ed4f48fa0e";

/// The smallest instance of `entry` with at least three qubits, every
/// non-size parameter at its registry default.
fn small_instance(entry: &BenchmarkEntry) -> Box<dyn Benchmark> {
    let registry = BenchmarkRegistry::builtin();
    (1..=4)
        .filter_map(|size: usize| {
            let params: Vec<(String, String)> = entry
                .schema()
                .iter()
                .map(|p| {
                    let value = match (p.kind, p.default) {
                        (ParamKind::Size { .. }, _) => size.to_string(),
                        (_, Some(default)) => default(size, 1),
                        (_, None) => unreachable!("non-size parameters declare defaults"),
                    };
                    (p.key.to_string(), value)
                })
                .collect();
            registry.build(entry.id(), &params).ok()
        })
        .find(|b| b.num_qubits() >= 3)
        .unwrap_or_else(|| panic!("{} has no instance of 3+ qubits", entry.id()))
}

/// One line per (entry, device, circuit): the sorted `(bits, count)`
/// pairs of 200 noisy shots of the transpiled, compacted circuit.
fn noisy_counts_listing() -> String {
    let mut all = String::new();
    for entry in BenchmarkRegistry::builtin().entries() {
        let benchmark = small_instance(entry);
        for device in Device::all_paper_devices() {
            let transpiler = Transpiler::for_device(&device);
            let exec = Executor::new(device.noise_model());
            for (i, c) in benchmark.circuits().iter().enumerate() {
                write!(all, "{} {} {i}:", benchmark.name(), device.name()).unwrap();
                match transpiler.run(c) {
                    Ok(t) => {
                        let (compact, _) = t.circuit.compacted();
                        for (bits, count) in exec.run(&compact, 200, 1000 + i as u64).iter() {
                            write!(all, " {bits}={count}").unwrap();
                        }
                    }
                    Err(e) => write!(all, " {e}").unwrap(),
                }
                all.push('\n');
            }
        }
    }
    all
}

/// Noisy trajectory Counts are pinned, not just their statistics.
#[test]
fn noisy_counts_digest() {
    let listing = noisy_counts_listing();
    assert_eq!(
        supermarq_store::hash::sha256_hex(listing.as_bytes()),
        NOISY_COUNTS_DIGEST,
        "noisy trajectory Counts drifted:\n{listing}"
    );
}

/// SHA-256 over [`tableau_outputs_listing`], captured while the tableau
/// still built X, Z, S†, CZ and SWAP from H, S and CX. Each tableau row
/// is the exact image `U P U†` and the measurement draws depend only on
/// the rows, so any correct statement of the Clifford rules reproduces
/// these outputs bit for bit.
const TABLEAU_OUTPUTS_DIGEST: &str =
    "7f9862b7b01f2682828226927fee5ba2ea374acc772fa773820049ba80c82e38";

/// The registry entries whose circuits the tableau runs.
const CLIFFORD_IDS: [&str; 5] = ["ghz", "bit-code", "phase-code", "bv", "mermin-bell"];

/// `(base id, size)` of the wide Clifford mirrors that
/// `supermarq bench mirror` scores on the tableau.
const WIDE_MIRRORS: [(&str, usize); 5] = [
    ("ghz", 100),
    ("ghz", 200),
    ("bv", 60),
    ("bit-code", 50),
    ("phase-code", 50),
];

/// Every output the tableau produces, one line each:
/// - `StabilizerExecutor::run` Counts at 300 shots of the smallest 3+
///   qubit instance of each [`CLIFFORD_IDS`] entry and its mirror, raw
///   and transpiled-and-compacted on every Table II device, each under
///   ideal noise and under every device's noise model;
/// - `success_fraction` of the [`WIDE_MIRRORS`] at 40 shots, under ideal
///   and IonQ noise;
/// - the QASM and diagonal terms of `diagonalize(mermin_operator(n))`
///   for n = 2..8.
fn tableau_outputs_listing() -> String {
    let registry = BenchmarkRegistry::builtin();
    let devices = Device::all_paper_devices();
    let mut models = vec![("ideal".to_string(), NoiseModel::ideal())];
    models.extend(
        devices
            .iter()
            .map(|d| (d.name().to_string(), d.noise_model())),
    );
    let mut all = String::new();
    for id in CLIFFORD_IDS {
        let entry = registry.get(id).expect("registered");
        let base = small_instance(entry);
        let mirror = Mirror::new(small_instance(entry));
        for (name, circuits) in [
            (base.name(), base.circuits()),
            (mirror.name(), mirror.circuits()),
        ] {
            for (i, c) in circuits.iter().enumerate() {
                let mut layouts = vec![("raw".to_string(), c.clone())];
                for device in &devices {
                    let t = Transpiler::for_device(device)
                        .run(c)
                        .unwrap_or_else(|e| panic!("{name} on {}: {e}", device.name()));
                    layouts.push((device.name().to_string(), t.circuit.compacted().0));
                }
                for (layout, circuit) in &layouts {
                    for (model, noise) in &models {
                        write!(all, "{name} {i} {layout} {model}:").unwrap();
                        let exec = StabilizerExecutor::new(noise.clone());
                        for (bits, count) in exec.run(circuit, 300, 2000 + i as u64).iter() {
                            write!(all, " {bits}={count}").unwrap();
                        }
                        all.push('\n');
                    }
                }
            }
        }
    }
    let ionq = Device::ionq().noise_model();
    for (id, size) in WIDE_MIRRORS {
        let entry = registry.get(id).expect("registered");
        let params: Vec<(String, String)> = entry
            .schema()
            .iter()
            .map(|p| {
                let value = p.default.map_or(size.to_string(), |d| d(size, 1));
                (p.key.to_string(), value)
            })
            .collect();
        let mirror = Mirror::new(registry.build(id, &params).expect("valid parameters"));
        let expected = mirror.expected_bits();
        for (model, noise) in [("ideal", NoiseModel::ideal()), ("IonQ", ionq.clone())] {
            let exec = StabilizerExecutor::new(noise);
            for (i, c) in mirror.circuits().iter().enumerate() {
                let fraction = exec.success_fraction(c, &expected, 40, 3000 + i as u64);
                writeln!(all, "{} {i} {model}: {fraction:?}", mirror.name()).unwrap();
            }
        }
    }
    for n in 2..=8 {
        let strings: Vec<_> = mermin_operator(n).iter().map(|(_, p)| p.clone()).collect();
        let d = diagonalize(&strings).expect("Mermin terms commute");
        write!(all, "mermin {n}:\n{}terms:", d.circuit.to_qasm()).unwrap();
        for (sign, mask) in &d.diagonal_terms {
            write!(all, " {sign}*{mask}").unwrap();
        }
        all.push('\n');
    }
    all
}

/// Tableau Counts, mirror success fractions and Mermin basis changes are
/// pinned bit for bit.
#[test]
fn tableau_outputs_digest() {
    let listing = tableau_outputs_listing();
    assert_eq!(
        supermarq_store::hash::sha256_hex(listing.as_bytes()),
        TABLEAU_OUTPUTS_DIGEST,
        "tableau outputs drifted:\n{listing}"
    );
}

/// SHA-256 over the store record lines of [`run_record_specs`], captured
/// before the Closed, Open and noiseless runs shared one runner body.
const RUN_RECORDS_DIGEST: &str = "8f7ff30bc6172e9bf4ca56f5bf066778ced11ddf361de05ecee5c6dd7914aa1b";

/// Two slices of Fig. 2, each in the closed and the open division: the
/// 25-cell IonQ column at paper settings (35 shots, 3 repetitions), and
/// the smallest instance of every panel on IBM-Guadalupe at 200 shots x
/// 2 repetitions, where placement and routing move qubits so readout
/// relabeling is exercised.
fn run_record_specs() -> Vec<RunSpec> {
    let ionq = Device::ionq();
    let mut cells = Vec::new();
    for (_, points, _) in figure2_points() {
        for (id, params) in &points {
            cells.push(RunSpec::new(
                id.clone(),
                params.clone(),
                ionq.name(),
                shots_for(&ionq),
                3,
                7,
            ));
        }
        let (id, params) = &points[0];
        cells.push(RunSpec::new(
            id.clone(),
            params.clone(),
            "IBM-Guadalupe",
            200,
            2,
            7,
        ));
    }
    let mut specs = Vec::new();
    for division in ["closed", "open"] {
        for cell in &cells {
            let mut spec = cell.clone();
            spec.division = division.into();
            specs.push(spec);
        }
    }
    specs
}

/// Store records — scores, swap and gate counts — are pinned bit for bit
/// in both divisions, not just range-checked.
#[test]
fn run_records_digest() {
    let mut listing = String::new();
    for spec in run_record_specs() {
        let outcome = execute_spec(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.benchmark));
        listing.push_str(&RunRecord { spec, outcome }.to_line());
        listing.push('\n');
    }
    assert_eq!(
        supermarq_store::hash::sha256_hex(listing.as_bytes()),
        RUN_RECORDS_DIGEST,
        "run records drifted:\n{listing}"
    );
}

/// SHA-256 over [`analysis_outputs_listing`], captured while circuit
/// analyses were still read through a shared per-pipeline cache and the
/// verify checks through a dataflow engine.
const ANALYSIS_OUTPUTS_DIGEST: &str =
    "031ca40592986957da86a4172254430ca93dd1676f01d70512791ecd7ba8b5c3";

/// The smallest 3+ qubit instance of every registry entry, then its
/// mirror.
fn small_instances_and_mirrors() -> Vec<Box<dyn Benchmark>> {
    let mut benchmarks: Vec<Box<dyn Benchmark>> = Vec::new();
    for entry in BenchmarkRegistry::builtin().entries() {
        benchmarks.push(small_instance(entry));
        benchmarks.push(Box::new(Mirror::new(small_instance(entry))));
    }
    benchmarks
}

/// Every output built from a circuit analysis, one item per line:
/// - for every circuit of [`small_instances_and_mirrors`] on every Table
///   II device under every built-in pipeline: on success the final QASM,
///   every `TranspileResult` field and each accumulated diagnostic (with
///   its `[pass: ...]` blame); on failure the error and, for a
///   verification failure, each of its diagnostics;
/// - the `verify_on_device` report of each raw circuit on each device;
/// - `FeatureVector::as_array` bit patterns of every circuit and of
///   `Benchmark::features`, for those benchmarks and `standard_suite()`.
fn analysis_outputs_listing() -> String {
    let devices = Device::all_paper_devices();
    let benchmarks = small_instances_and_mirrors();
    let mut all = String::new();
    for benchmark in &benchmarks {
        let name = benchmark.name();
        for (i, c) in benchmark.circuits().iter().enumerate() {
            for device in &devices {
                let dev = device.name();
                let report = verify_on_device(c, device);
                for d in report.sorted() {
                    writeln!(all, "{name} {i} {dev} raw: {d}").unwrap();
                }
                for pipeline in PipelineId::ALL {
                    let transpiler = Transpiler::for_device(device).with_pipeline(pipeline);
                    let label = format!("{name} {i} {dev} {pipeline}");
                    match transpiler.run_with_context(c) {
                        Ok(ctx) => {
                            for d in ctx.diagnostics() {
                                writeln!(all, "{label} diagnostic: {d}").unwrap();
                            }
                            let t = transpiler.run(c).unwrap_or_else(|e| panic!("{label}: {e}"));
                            writeln!(
                                all,
                                "{label}: initial={:?} final={:?} swaps={} 2q={} depth={} \
                                 measured_on={:?}\n{}",
                                t.initial_mapping,
                                t.final_mapping,
                                t.swap_count,
                                t.two_qubit_gates,
                                t.depth,
                                t.measured_on,
                                t.circuit.to_qasm()
                            )
                            .unwrap();
                        }
                        Err(e) => {
                            writeln!(all, "{label} error: {e}").unwrap();
                            if let TranspileError::Verification { diagnostics, .. } = &e {
                                for d in diagnostics {
                                    writeln!(all, "{label} error diagnostic: {d}").unwrap();
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let suite = supermarq::benchmarks::standard_suite();
    for benchmark in benchmarks.iter().chain(&suite) {
        let name = benchmark.name();
        let bits = |f: FeatureVector| f.as_array().map(f64::to_bits);
        for (i, c) in benchmark.circuits().iter().enumerate() {
            writeln!(all, "{name} {i} features: {:?}", bits(FeatureVector::of(c))).unwrap();
        }
        writeln!(all, "{name} features: {:?}", bits(benchmark.features())).unwrap();
    }
    all
}

/// Transpiled circuits, `TranspileResult` fields, diagnostics with their
/// blame, raw-circuit reports and feature vectors are pinned bit for bit.
#[test]
fn analysis_outputs_digest() {
    let listing = analysis_outputs_listing();
    assert_eq!(
        supermarq_store::hash::sha256_hex(listing.as_bytes()),
        ANALYSIS_OUTPUTS_DIGEST,
        "analysis outputs drifted:\n{listing}"
    );
}

/// SHA-256 over the OpenQASM of every circuit of the five Table I
/// corpora, captured while they still lived in their own crate.
const TABLE1_CORPORA_DIGEST: &str =
    "e9e1f9cd369a75758af0ae4dcf12b5b341e2ea3fc54553ec3dc8562861f989da";

/// The Table I corpora (`supermarq export` writes the first of them) are
/// pinned circuit for circuit, in catalog order.
#[test]
fn table1_corpora_digest() {
    let mut all = String::new();
    for (name, suite) in [
        ("supermarq", supermarq_suite()),
        ("qasmbench", qasmbench_suite()),
        ("cbg2021", cbg2021_suite()),
        ("triq", triq_suite()),
        ("ppl2020", ppl2020_suite()),
    ] {
        for (i, c) in suite.iter().enumerate() {
            writeln!(all, "{name} {i}\n{}", c.to_qasm()).unwrap();
        }
    }
    assert_eq!(
        supermarq_store::hash::sha256_hex(all.as_bytes()),
        TABLE1_CORPORA_DIGEST,
        "Table I corpora drifted"
    );
}

/// SHA-256 over [`optimizer_outputs_listing`], captured while every VQE
/// energy was evaluated on a fresh ansatz circuit and every QAOA energy
/// through `qaoa_p1_energy`.
const OPTIMIZER_OUTPUTS_DIGEST: &str =
    "e961441fce7b92d981a29fc920589028bdd12ca2045ed7b7a69dff06ba8ebc45";

/// The classically optimized proxy applications, one `Debug` line each:
/// `VqeBenchmark` at sizes 2-8 with 1 and 2 ansatz layers, and
/// `QaoaVanillaBenchmark` and `QaoaSwapBenchmark` at sizes 2-12 on SK
/// seeds 1-3. `Debug` prints each f64 in shortest round-trip form, so the
/// listing pins every optimized parameter and ideal energy bit for bit.
fn optimizer_outputs_listing() -> String {
    let mut all = String::new();
    for n in 2..=8 {
        for layers in [1, 2] {
            writeln!(all, "{:?}", VqeBenchmark::new(n, layers)).unwrap();
        }
    }
    for n in 2..=12 {
        for seed in 1..=3 {
            writeln!(all, "{:?}", QaoaVanillaBenchmark::new(n, seed)).unwrap();
            writeln!(all, "{:?}", QaoaSwapBenchmark::new(n, seed)).unwrap();
        }
    }
    all
}

/// The VQE and QAOA optimizers reach the same optimum bits.
#[test]
fn optimizer_outputs_digest() {
    let listing = optimizer_outputs_listing();
    assert_eq!(
        supermarq_store::hash::sha256_hex(listing.as_bytes()),
        OPTIMIZER_OUTPUTS_DIGEST,
        "optimizer outputs drifted:\n{listing}"
    );
}

/// SHA-256 over [`unitary_outputs_listing`], captured while the unitary
/// paths still dispatched a fused program of their own op type.
const UNITARY_OUTPUTS_DIGEST: &str =
    "963fb9991280a2a6fa3062d48292f59d3821130d3f5387440ece975417e5ea4b";

/// Every amplitude as its `re` and `im` bit patterns.
fn amplitude_bits(out: &mut String, psi: &StateVector) {
    for a in psi.amplitudes() {
        write!(out, " {:x}:{:x}", a.re.to_bits(), a.im.to_bits()).unwrap();
    }
}

/// Every output of the statevector's unitary paths, one line each:
/// - for every circuit of [`small_instances_and_mirrors`]: the
///   `Executor::final_state` amplitude bits (or its error) and the
///   noiseless `Executor::run` Counts at 200 shots;
/// - `run_noiseless` score bits of each of those benchmarks on every
///   Table II device;
/// - `Mirror::score_noiseless` of every non-Clifford mirror (the
///   statevector fallback);
/// - `krylov::evolve` amplitude bits for the TFIM at n = 3-6.
fn unitary_outputs_listing() -> String {
    let devices = Device::all_paper_devices();
    let benchmarks = small_instances_and_mirrors();
    let mut all = String::new();
    for benchmark in &benchmarks {
        let name = benchmark.name();
        for (i, c) in benchmark.circuits().iter().enumerate() {
            write!(all, "{name} {i} final_state:").unwrap();
            match Executor::final_state(c) {
                Ok(psi) => amplitude_bits(&mut all, &psi),
                Err(e) => write!(all, " {e}").unwrap(),
            }
            write!(all, "\n{name} {i} counts:").unwrap();
            for (bits, count) in Executor::noiseless().run(c, 200, 4000 + i as u64).iter() {
                write!(all, " {bits}={count}").unwrap();
            }
            all.push('\n');
        }
        for device in &devices {
            let dev = device.name();
            match supermarq::runner::run_noiseless(benchmark.as_ref(), device, 200, 5) {
                Ok(score) => writeln!(all, "{name} {dev} noiseless: {:x}", score.to_bits()),
                Err(e) => writeln!(all, "{name} {dev} noiseless error: {e}"),
            }
            .unwrap();
        }
    }
    for entry in BenchmarkRegistry::builtin().entries() {
        let mirror = Mirror::new(small_instance(entry));
        if !mirror.is_clifford() {
            let (score, path) = mirror.score_noiseless(200, 11).expect("narrow mirror");
            writeln!(all, "{} {path:?}: {:x}", mirror.name(), score.to_bits()).unwrap();
        }
    }
    for n in 3..=6 {
        let mut psi = StateVector::zero_state(n);
        for q in 0..n {
            psi.apply_gate(&Gate::H, &[q]);
            psi.apply_gate(&Gate::Ry(0.3 + 0.1 * q as f64), &[q]);
        }
        let evolved = krylov::evolve(&tfim_hamiltonian(n, 1.0, 0.8), &psi, 0.6, 20, 4);
        write!(all, "tfim {n}:").unwrap();
        amplitude_bits(&mut all, &evolved);
        all.push('\n');
    }
    all
}

/// Final states, noiseless Counts and scores, the statevector mirror
/// fallback and Krylov evolution are pinned bit for bit.
#[test]
fn unitary_outputs_digest() {
    let listing = unitary_outputs_listing();
    assert_eq!(
        supermarq_store::hash::sha256_hex(listing.as_bytes()),
        UNITARY_OUTPUTS_DIGEST,
        "unitary outputs drifted:\n{listing}"
    );
}

#[test]
#[ignore = "baseline dump helper"]
fn dump_baseline() {
    let specs = fig2_specs();
    let mut all = String::new();
    for s in &specs {
        all.push_str(&s.canonical_string());
    }
    println!("cells={}", specs.len());
    println!(
        "combined={}",
        supermarq_store::hash::sha256_hex(all.as_bytes())
    );
    for s in specs.iter().take(8) {
        println!("{} {}", s.benchmark, s.content_hash());
    }
}
