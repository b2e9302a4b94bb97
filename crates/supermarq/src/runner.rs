//! The full-system evaluation harness behind the paper's Fig. 2.
//!
//! For each (benchmark, device) pair: transpile under the Closed Division,
//! execute the physical circuits under the device's derived noise model,
//! relabel outcomes back to program-qubit order, and score. Benchmarks that
//! exceed a device's qubit count report
//! [`supermarq_transpile::TranspileError::TooManyQubits`] — the black X's
//! of Fig. 2.

use rayon::prelude::*;
use supermarq_classical::stats::{mean, std_dev};
use supermarq_device::Device;
use supermarq_obs::Span;
use supermarq_sim::{Counts, Executor, MAX_QUBITS};
use supermarq_transpile::{
    relabel_counts, PipelineId, PlacementStrategy, TranspileError, Transpiler,
};

use crate::benchmark::{Benchmark, ScoreError};
use crate::mitigation::ReadoutMitigator;

/// Why a harness run failed: the circuit could not be compiled for the
/// device, a compiled circuit is too wide to simulate, or the
/// measurement data could not be scored.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Transpilation failed (the `TooManyQubits` case is Fig. 2's black
    /// X's — benchmark exceeds the device).
    Transpile(TranspileError),
    /// A compiled circuit touches more qubits than the statevector
    /// simulator holds.
    TooWide {
        /// Qubits the compacted circuit touches.
        qubits: usize,
        /// The simulator's limit, [`MAX_QUBITS`].
        limit: usize,
    },
    /// The benchmark's scoring function rejected the measurement data.
    Score(ScoreError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Transpile(e) => write!(f, "transpile failed: {e}"),
            RunError::TooWide { qubits, limit } => write!(
                f,
                "compiled circuit touches {qubits} qubits, past the \
                 {limit}-qubit statevector limit"
            ),
            RunError::Score(e) => write!(f, "scoring failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<TranspileError> for RunError {
    fn from(e: TranspileError) -> Self {
        RunError::Transpile(e)
    }
}

impl From<ScoreError> for RunError {
    fn from(e: ScoreError) -> Self {
        RunError::Score(e)
    }
}

/// Execution configuration for a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Shots per circuit per repetition (the paper used 2000 on IBM, 1024
    /// on AQT, 35 on IonQ).
    pub shots: usize,
    /// Base RNG seed; circuit `i` of repetition `r` runs with
    /// `seed + r + 0x9e37_79b9_7f4a_7c15 * (i + 1)` (wrapping).
    pub seed: u64,
    /// Number of independent repetitions (for the Fig. 2 error bars).
    pub repetitions: usize,
    /// Placement strategy for the transpiler.
    pub placement: PlacementStrategy,
    /// Named transpile pipeline (replaces the old `optimize` + `verify`
    /// flag pair; `closed-stages` interleaves verification, `no-optimize`
    /// is the ablation hook).
    pub pipeline: PipelineId,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            shots: 2000,
            seed: 0,
            repetitions: 3,
            placement: PlacementStrategy::Greedy,
            pipeline: PipelineId::default(),
        }
    }
}

/// Result of evaluating one benchmark on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Benchmark display name.
    pub benchmark: String,
    /// Device display name.
    pub device: String,
    /// Per-repetition scores.
    pub scores: Vec<f64>,
    /// SWAPs the router inserted.
    pub swap_count: usize,
    /// Native two-qubit gates in the executed circuit(s).
    pub two_qubit_gates: usize,
}

impl BenchmarkResult {
    /// Mean score across repetitions.
    pub fn mean_score(&self) -> f64 {
        mean(&self.scores)
    }

    /// Standard deviation across repetitions (the Fig. 2 error bars).
    pub fn std_dev(&self) -> f64 {
        std_dev(&self.scores)
    }
}

/// Runs `benchmark` on `device`.
///
/// # Errors
///
/// [`RunError::Transpile`] when transpilation fails (`TooManyQubits`
/// when the benchmark does not fit the device), [`RunError::TooWide`]
/// when a compiled circuit is too wide to simulate, [`RunError::Score`]
/// when the measurement data cannot be scored.
pub fn run_on_device(
    benchmark: &dyn Benchmark,
    device: &Device,
    config: &RunConfig,
) -> Result<BenchmarkResult, RunError> {
    run(
        "closed",
        benchmark,
        device,
        config,
        &Executor::new(device.noise_model()),
        None,
    )
}

/// Runs `benchmark` on `device` in the *Open Division*: identical pipeline
/// to [`run_on_device`] plus readout-error mitigation (inverse confusion
/// transform built from the device's calibrated measurement error) before
/// scoring — the post-processing step the Closed Division forbids and the
/// paper defers to future work (Sec. V).
///
/// # Errors
///
/// [`RunError::Transpile`] when transpilation fails (`TooManyQubits`
/// when the benchmark does not fit the device), [`RunError::TooWide`]
/// when a compiled circuit is too wide to simulate, [`RunError::Score`]
/// when the measurement data cannot be scored.
pub fn run_on_device_open(
    benchmark: &dyn Benchmark,
    device: &Device,
    config: &RunConfig,
) -> Result<BenchmarkResult, RunError> {
    let mitigator =
        ReadoutMitigator::uniform(benchmark.num_qubits(), device.calibration().err_meas);
    run(
        "open",
        benchmark,
        device,
        config,
        &Executor::new(device.noise_model()),
        Some(&mitigator),
    )
}

/// Runs `benchmark` noiselessly end-to-end through the same transpilation
/// pipeline, one repetition — the sanity reference: scores should be ~1.
///
/// # Errors
///
/// [`RunError::Transpile`] when transpilation fails, [`RunError::TooWide`]
/// when a compiled circuit is too wide to simulate, [`RunError::Score`]
/// when the measurement data cannot be scored.
pub fn run_noiseless(
    benchmark: &dyn Benchmark,
    device: &Device,
    shots: usize,
    seed: u64,
) -> Result<f64, RunError> {
    let config = RunConfig {
        shots,
        seed,
        repetitions: 1,
        ..RunConfig::default()
    };
    let result = run(
        "noiseless",
        benchmark,
        device,
        &config,
        &Executor::noiseless(),
        None,
    )?;
    Ok(result.scores[0])
}

/// The `run.benchmark` span wrapping one division's run.
fn run_span(
    division: &'static str,
    benchmark: &dyn Benchmark,
    device: &Device,
    config: &RunConfig,
) -> Span {
    let mut span = Span::open("run.benchmark")
        .with("division", division)
        .with("shots", config.shots)
        .with("repetitions", config.repetitions);
    span.record_with("benchmark", || benchmark.name());
    span.record_with("device", || device.name().to_string());
    span
}

/// The one harness body, inside one `run.benchmark` span: transpile and
/// compact every circuit, refuse one wider than the statevector holds,
/// then per repetition, inside one `run.repetition` span, execute each
/// circuit, relabel to program order, optionally mitigate readout, and
/// score inside a `bench.score` span.
fn run(
    division: &'static str,
    benchmark: &dyn Benchmark,
    device: &Device,
    config: &RunConfig,
    executor: &Executor,
    mitigator: Option<&ReadoutMitigator>,
) -> Result<BenchmarkResult, RunError> {
    let span = run_span(division, benchmark, device, config);
    let transpiler = Transpiler::for_device(device)
        .with_placement(config.placement)
        .with_pipeline(config.pipeline);
    let transpiled = benchmark
        .circuits()
        .iter()
        .map(|c| transpiler.run(c))
        .collect::<Result<Vec<_>, _>>()?;
    // Simulate only the physical qubits each circuit touches: a small
    // benchmark placed on a 27-qubit lattice occupies a handful of qubits.
    let prepared: Vec<_> = transpiled.iter().map(|t| t.compacted()).collect();
    if let Some(qubits) = prepared
        .iter()
        .map(|(c, _)| c.num_qubits())
        .find(|&n| n > MAX_QUBITS)
    {
        return Err(RunError::TooWide {
            qubits,
            limit: MAX_QUBITS,
        });
    }
    // Fan the repetitions out over the rayon pool; every job derives its
    // seed from (config.seed, rep, circuit index) alone, so the scores
    // are deterministic regardless of thread count. A repetition may run
    // on a pool worker, which has no current span, so each opens its
    // run.repetition span linked to run.benchmark explicitly; the
    // executor's sim.run and the bench.score span nest under it.
    let (parent, trace) = (span.id(), supermarq_obs::current_trace());
    let per_rep: Vec<Result<f64, ScoreError>> = (0..config.repetitions)
        .into_par_iter()
        .map(|rep| {
            let _rep_span =
                Span::open_with_link("run.repetition", parent, trace).with("repetition", rep);
            let counts: Vec<Counts> = prepared
                .iter()
                .enumerate()
                .map(|(i, (circuit, readout))| {
                    let seed = config
                        .seed
                        .wrapping_add(rep as u64)
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
                    let counts =
                        relabel_counts(&executor.run(circuit, config.shots, seed), readout);
                    match mitigator {
                        Some(m) => m.mitigate(&counts),
                        None => counts,
                    }
                })
                .collect();
            let _span = Span::open("bench.score");
            benchmark.score(&counts)
        })
        .collect();
    let scores = per_rep.into_iter().collect::<Result<Vec<f64>, _>>()?;
    Ok(BenchmarkResult {
        benchmark: benchmark.name(),
        device: device.name().to_string(),
        scores,
        swap_count: transpiled.iter().map(|t| t.swap_count).sum(),
        two_qubit_gates: transpiled.iter().map(|t| t.two_qubit_gates).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{BitCodeBenchmark, GhzBenchmark, MerminBellBenchmark};

    #[test]
    fn ghz_runs_on_every_fitting_device() {
        let b = GhzBenchmark::new(4);
        let config = RunConfig {
            shots: 500,
            repetitions: 2,
            ..RunConfig::default()
        };
        for device in Device::all_paper_devices() {
            let result = run_on_device(&b, &device, &config).unwrap();
            assert_eq!(result.scores.len(), 2);
            let m = result.mean_score();
            assert!(m > 0.2 && m <= 1.0, "{}: mean={m}", device.name());
        }
    }

    #[test]
    fn stage_verification_runs_clean_in_the_harness() {
        let b = GhzBenchmark::new(4);
        let config = RunConfig {
            shots: 200,
            repetitions: 1,
            pipeline: PipelineId::ClosedStages,
            ..RunConfig::default()
        };
        for device in [Device::ibm_casablanca(), Device::ionq()] {
            run_on_device(&b, &device, &config).unwrap();
        }
    }

    #[test]
    fn oversized_benchmark_reports_too_many_qubits() {
        let b = GhzBenchmark::new(6);
        let err = run_on_device(&b, &Device::aqt(), &RunConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            RunError::Transpile(TranspileError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn circuit_past_the_statevector_limit_is_a_typed_error() {
        let err = run_on_device(
            &GhzBenchmark::new(27),
            &Device::ibm_montreal(),
            &RunConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunError::TooWide {
                qubits: 27,
                limit: MAX_QUBITS
            }
        );
    }

    #[test]
    fn noiseless_pipeline_scores_near_one() {
        let ghz = GhzBenchmark::new(4);
        let bit = BitCodeBenchmark::new(2, 1, &[true, false]);
        for device in [Device::ibm_casablanca(), Device::ionq()] {
            let s = run_noiseless(&ghz, &device, 3000, 5).unwrap();
            assert!(s > 0.98, "{} ghz: {s}", device.name());
            let s = run_noiseless(&bit, &device, 1000, 5).unwrap();
            assert!(s > 0.98, "{} bit: {s}", device.name());
        }
    }

    #[test]
    fn mermin_on_ionq_beats_sparse_superconducting() {
        // Fig. 2b story: all-to-all connectivity wins the communication-
        // heavy benchmark despite worse 2q fidelity.
        let b = MerminBellBenchmark::new(4);
        let config = RunConfig {
            shots: 2000,
            repetitions: 3,
            ..RunConfig::default()
        };
        let ion = run_on_device(&b, &Device::ionq(), &config).unwrap();
        let ibm = run_on_device(&b, &Device::ibm_toronto(), &config).unwrap();
        assert!(ion.swap_count < ibm.swap_count + 1);
        assert!(
            ion.mean_score() > ibm.mean_score() - 0.05,
            "ion={} toronto={}",
            ion.mean_score(),
            ibm.mean_score()
        );
    }

    #[test]
    fn open_division_beats_closed_on_readout_limited_benchmarks() {
        // GHZ's Hellinger score is readout-limited on superconducting
        // devices; mitigation should recover a solid chunk of it.
        let b = GhzBenchmark::new(4);
        let device = Device::ibm_guadalupe();
        let config = RunConfig {
            shots: 4000,
            repetitions: 2,
            seed: 3,
            ..RunConfig::default()
        };
        let closed = run_on_device(&b, &device, &config).unwrap();
        let open = super::run_on_device_open(&b, &device, &config).unwrap();
        assert!(
            open.mean_score() > closed.mean_score(),
            "open {} vs closed {}",
            open.mean_score(),
            closed.mean_score()
        );
    }

    #[test]
    fn runner_scores_bit_identical_across_thread_counts() {
        let b = GhzBenchmark::new(4);
        let config = RunConfig {
            shots: 300,
            repetitions: 2,
            ..RunConfig::default()
        };
        let device = Device::ibm_casablanca();
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let single = pool(1).install(|| run_on_device(&b, &device, &config).unwrap());
        let multi = pool(4).install(|| run_on_device(&b, &device, &config).unwrap());
        assert_eq!(single.scores, multi.scores);
    }

    #[test]
    fn repetition_scores_vary_with_seed() {
        let b = GhzBenchmark::new(4);
        let config = RunConfig {
            shots: 300,
            repetitions: 4,
            ..RunConfig::default()
        };
        let result = run_on_device(&b, &Device::ibm_toronto(), &config).unwrap();
        // Not all identical (noise realizations differ).
        let first = result.scores[0];
        assert!(result.scores.iter().any(|&s| (s - first).abs() > 1e-6));
        assert!(result.std_dev() > 0.0);
    }
}
