//! Byte-identity guard for the benchmark-registry refactor: the store
//! cache keys of every Fig. 2 grid cell (and the standard-suite specs
//! behind Fig. 3) are pinned to the exact SHA-256 values produced before
//! the refactor. If any of these change, every cache on every machine
//! silently invalidates and fig2/fig3 outputs shift — bump
//! `SCHEMA_VERSION` instead of editing the constants. The noisy Counts
//! those records hold are pinned the same way (`noisy_counts_digest`).

use std::fmt::Write;

use supermarq::registry::{BenchmarkEntry, BenchmarkRegistry, ParamKind};
use supermarq::{Benchmark, CircuitFamily};
use supermarq_bench::{figure2_points, shots_for};
use supermarq_device::Device;
use supermarq_sim::Executor;
use supermarq_store::RunSpec;
use supermarq_transpile::Transpiler;

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
