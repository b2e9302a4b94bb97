//! Executing [`RunSpec`]s: the bridge between the content-addressed
//! store and the evaluation harness.
//!
//! The store crate is executor-agnostic; this module gives its specs
//! meaning. A spec's `(benchmark, params)` pair resolves through
//! [`benchmark_from_params`] — a thin wrapper over the
//! [`BenchmarkRegistry`], which
//! validates strictly (every declared parameter present, nothing else —
//! so each logical run has exactly one canonical spec and therefore one
//! cache key) — the device by catalog name, and the transpile strings
//! through [`run_config_from_spec`]. [`execute_spec`] runs the whole
//! pipeline and produces the [`RunOutcome`] the store persists.

use supermarq_device::Device;
use supermarq_store::{RunOutcome, RunSpec, TranspileSpec};
use supermarq_transpile::{PipelineId, PlacementStrategy, TranspileError};

use crate::benchmark::Benchmark;
use crate::registry::BenchmarkRegistry;
use crate::runner::{run_on_device, run_on_device_open, RunConfig, RunError};

/// Why a spec could not be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The benchmark needs more qubits than the device has — the
    /// *expected* failure mode (the black X's of Fig. 2), distinguished
    /// so sweeps can render it rather than report an error.
    DoesNotFit {
        /// Qubits the benchmark needs.
        needed: usize,
        /// Qubits the device has.
        available: usize,
    },
    /// The spec itself is malformed: unknown benchmark, device,
    /// parameter, or transpile configuration.
    Invalid(String),
    /// The pipeline ran and failed (routing, verification, ...).
    Failed(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::DoesNotFit { needed, available } => {
                write!(f, "benchmark needs {needed} qubits, device has {available}")
            }
            ExecError::Invalid(m) => write!(f, "invalid spec: {m}"),
            ExecError::Failed(m) => write!(f, "execution failed: {m}"),
        }
    }
}

/// The default initial state used across the harness when none is
/// specified: alternating, starting flipped (`1010…`).
pub fn default_init(size: usize) -> String {
    (0..size)
        .map(|i| if i % 2 == 0 { '1' } else { '0' })
        .collect()
}

/// Instantiates a benchmark from a spec's `(benchmark, params)` pair by
/// resolving through the built-in
/// [`BenchmarkRegistry`], including
/// `-mirror` variants.
///
/// # Errors
///
/// Returns [`ExecError::Invalid`] for unknown benchmark ids, missing or
/// extra parameters, or out-of-range values.
pub fn benchmark_from_params(
    id: &str,
    params: &[(String, String)],
) -> Result<Box<dyn Benchmark>, ExecError> {
    BenchmarkRegistry::builtin().build(id, params)
}

/// Translates a spec's transpile strings (+ shots/reps/seed) into the
/// runner's [`RunConfig`].
///
/// # Errors
///
/// Returns [`ExecError::Invalid`] for unknown placement or pipeline ids.
pub fn run_config_from_spec(spec: &RunSpec) -> Result<RunConfig, ExecError> {
    let placement = match spec.transpile.placement.as_str() {
        "trivial" => PlacementStrategy::Trivial,
        "greedy" => PlacementStrategy::Greedy,
        "noise-aware" => PlacementStrategy::NoiseAware,
        other => {
            return Err(ExecError::Invalid(format!(
                "unknown placement strategy '{other}'"
            )))
        }
    };
    let pipeline = PipelineId::parse(&spec.transpile.pipeline).ok_or_else(|| {
        ExecError::Invalid(format!("unknown pipeline '{}'", spec.transpile.pipeline))
    })?;
    Ok(RunConfig {
        shots: spec.shots as usize,
        seed: spec.seed,
        repetitions: spec.repetitions as usize,
        placement,
        pipeline,
    })
}

/// The spec-side encoding of a [`RunConfig`]'s transpile settings —
/// the inverse of [`run_config_from_spec`].
pub fn transpile_spec_of(config: &RunConfig) -> TranspileSpec {
    TranspileSpec {
        placement: match config.placement {
            PlacementStrategy::Trivial => "trivial",
            PlacementStrategy::Greedy => "greedy",
            PlacementStrategy::NoiseAware => "noise-aware",
        }
        .into(),
        pipeline: config.pipeline.as_str().into(),
    }
}

/// Resolves a catalog device by case-insensitive name.
///
/// # Errors
///
/// Returns [`ExecError::Invalid`] naming the unknown device.
pub fn device_from_spec(name: &str) -> Result<Device, ExecError> {
    Device::all_paper_devices()
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| ExecError::Invalid(format!("unknown device '{name}'")))
}

/// Executes a spec end-to-end: build the benchmark, resolve the device,
/// transpile, simulate under noise, score — and package the result as
/// the [`RunOutcome`] the store persists. Deterministic: equal specs
/// produce equal outcomes at any thread count.
///
/// # Errors
///
/// [`ExecError::DoesNotFit`] when the benchmark exceeds the device,
/// [`ExecError::Invalid`] for malformed specs, [`ExecError::Failed`] for
/// pipeline failures.
pub fn execute_spec(spec: &RunSpec) -> Result<RunOutcome, ExecError> {
    let benchmark = benchmark_from_params(&spec.benchmark, &spec.params)?;
    let device = device_from_spec(&spec.device)?;
    let config = run_config_from_spec(spec)?;
    let result = match spec.division.as_str() {
        "closed" => run_on_device(benchmark.as_ref(), &device, &config),
        "open" => run_on_device_open(benchmark.as_ref(), &device, &config),
        other => {
            return Err(ExecError::Invalid(format!("unknown division '{other}'")));
        }
    };
    match result {
        Ok(r) => Ok(RunOutcome {
            scores: r.scores,
            swap_count: r.swap_count as u64,
            two_qubit_gates: r.two_qubit_gates as u64,
        }),
        Err(RunError::Transpile(TranspileError::TooManyQubits { needed, available })) => {
            Err(ExecError::DoesNotFit { needed, available })
        }
        Err(e) => Err(ExecError::Failed(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::CircuitFamily;
    use crate::benchmarks::GhzBenchmark;

    fn p(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn factory_builds_every_benchmark() {
        let cases: Vec<(&str, Vec<(String, String)>)> = vec![
            ("ghz", p(&[("size", "4")])),
            ("mermin-bell", p(&[("size", "3")])),
            (
                "bit-code",
                p(&[("size", "3"), ("rounds", "2"), ("init", "101")]),
            ),
            (
                "phase-code",
                p(&[("size", "3"), ("rounds", "1"), ("init", "110")]),
            ),
            ("qaoa-vanilla", p(&[("size", "4"), ("seed", "1")])),
            ("qaoa-swap", p(&[("size", "4"), ("seed", "1")])),
            ("vqe", p(&[("size", "4"), ("layers", "1")])),
            ("hamsim", p(&[("size", "4"), ("steps", "4")])),
        ];
        for (id, params) in cases {
            let b = benchmark_from_params(id, &params).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(b.num_qubits() >= 3, "{id}");
            assert!(!b.circuits().is_empty(), "{id}");
        }
    }

    #[test]
    fn factory_rejects_malformed_params() {
        // Unknown benchmark.
        assert!(benchmark_from_params("frobnicate", &p(&[("size", "3")])).is_err());
        // Missing parameter.
        assert!(benchmark_from_params("ghz", &[]).is_err());
        // Extra parameter (canonicality: one spec per logical run).
        assert!(benchmark_from_params("ghz", &p(&[("size", "3"), ("rounds", "2")])).is_err());
        // Bad values.
        assert!(benchmark_from_params("ghz", &p(&[("size", "abc")])).is_err());
        assert!(benchmark_from_params("ghz", &p(&[("size", "1")])).is_err());
        assert!(benchmark_from_params("mermin-bell", &p(&[("size", "17")])).is_err());
        assert!(benchmark_from_params(
            "bit-code",
            &p(&[("size", "3"), ("rounds", "2"), ("init", "10")])
        )
        .is_err());
        assert!(benchmark_from_params(
            "bit-code",
            &p(&[("size", "3"), ("rounds", "0"), ("init", "101")])
        )
        .is_err());
    }

    #[test]
    fn transpile_spec_round_trips_through_run_config() {
        for placement in [
            PlacementStrategy::Trivial,
            PlacementStrategy::Greedy,
            PlacementStrategy::NoiseAware,
        ] {
            for pipeline in PipelineId::ALL {
                let config = RunConfig {
                    placement,
                    pipeline,
                    ..RunConfig::default()
                };
                let mut spec = RunSpec::new("ghz", p(&[("size", "3")]), "IonQ", 100, 1, 0);
                spec.transpile = transpile_spec_of(&config);
                let back = run_config_from_spec(&spec).unwrap();
                assert_eq!(back.placement, placement);
                assert_eq!(back.pipeline, pipeline);
            }
        }
        // Unknown pipeline names are rejected.
        let mut spec = RunSpec::new("ghz", p(&[("size", "3")]), "IonQ", 100, 1, 0);
        spec.transpile.pipeline = "frobnicate".into();
        assert!(run_config_from_spec(&spec).is_err());
        // Default TranspileSpec matches the default RunConfig.
        let spec = RunSpec::new("ghz", p(&[("size", "3")]), "IonQ", 100, 1, 0);
        assert_eq!(spec.transpile, transpile_spec_of(&RunConfig::default()));
    }

    #[test]
    fn execute_spec_matches_direct_runner_call() {
        let spec = RunSpec::new("ghz", p(&[("size", "3")]), "IonQ", 200, 2, 5);
        let outcome = execute_spec(&spec).unwrap();
        let direct = run_on_device(
            &GhzBenchmark::new(3),
            &device_from_spec("IonQ").unwrap(),
            &run_config_from_spec(&spec).unwrap(),
        )
        .unwrap();
        assert_eq!(outcome.scores, direct.scores);
        assert_eq!(outcome.swap_count as usize, direct.swap_count);
        assert_eq!(outcome.two_qubit_gates as usize, direct.two_qubit_gates);
    }

    #[test]
    fn oversized_spec_reports_does_not_fit() {
        let spec = RunSpec::new("ghz", p(&[("size", "6")]), "AQT", 100, 1, 0);
        match execute_spec(&spec).unwrap_err() {
            ExecError::DoesNotFit { needed, available } => {
                assert_eq!(needed, 6);
                assert_eq!(available, 4);
            }
            other => panic!("expected DoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn bad_device_and_division_are_invalid() {
        let spec = RunSpec::new("ghz", p(&[("size", "3")]), "NotADevice", 100, 1, 0);
        assert!(matches!(
            execute_spec(&spec).unwrap_err(),
            ExecError::Invalid(_)
        ));
        let mut spec = RunSpec::new("ghz", p(&[("size", "3")]), "IonQ", 100, 1, 0);
        spec.division = "hybrid".into();
        assert!(matches!(
            execute_spec(&spec).unwrap_err(),
            ExecError::Invalid(_)
        ));
    }

    #[test]
    fn open_division_executes_through_mitigation() {
        let mut spec = RunSpec::new("ghz", p(&[("size", "3")]), "AQT", 300, 1, 3);
        spec.division = "open".into();
        let open = execute_spec(&spec).unwrap();
        assert_eq!(open.scores.len(), 1);
        assert!(open.scores[0] > 0.0 && open.scores[0] <= 1.0);
    }

    #[test]
    fn default_init_alternates_starting_flipped() {
        assert_eq!(default_init(4), "1010");
        assert_eq!(default_init(3), "101");
    }
}
