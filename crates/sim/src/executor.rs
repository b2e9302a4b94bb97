//! Shot-based circuit execution.
//!
//! A noiseless circuit whose only collapses are final measurements is
//! evaluated once by [`Executor::final_state`], the one unitary
//! evaluator: it fuses the circuit's gates into kernels (`crate::fusion`)
//! and applies them, and every shot samples the final state. A noisy (or
//! mid-circuit-collapsing) circuit is lowered once per run to a
//! [`NoisyProgram`], and every shot samples that program as one quantum
//! trajectory. Shots that have drawn the same events so far share one
//! state (`crate::cohort`), with Counts bit-identical to running each
//! shot on its own.
//!
//! Shots are embarrassingly parallel: each one draws from its own RNG
//! stream derived deterministically from `(seed, shot_index)` with a
//! SplitMix-style mix, so per-shot results do not depend on which worker
//! thread runs them or in what order. Shots are split into one
//! contiguous batch per worker thread; per-batch partial histograms are
//! merged with [`Counts::merge`] (commutative integer addition into an
//! ordered map), making the final [`Counts`] bit-identical for a fixed
//! seed regardless of thread count or batch partition —
//! `RAYON_NUM_THREADS=1` and a full pool agree exactly. Each batch is
//! wrapped in a `sim.batch` tracing span parented (cross-thread) to the
//! enclosing `sim.run`; tracing never affects the partition or the
//! per-shot RNG streams, so results are byte-identical with tracing on
//! or off.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::fmt;
use std::ops::Range;
use supermarq_obs::{counter, Span};

use crate::cohort;
use crate::counts::Counts;
use crate::fusion;
use crate::noise::{NoiseModel, NoisyProgram};
use crate::state::{CumulativeSampler, StateVector};
use supermarq_circuit::{Circuit, Gate, GateKind};

/// Typed failure of the executor's unitary-only evaluation paths.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The circuit contains an instruction (currently: `Reset`) that the
    /// unitary-only paths cannot evaluate; trajectory simulation can.
    UnsupportedInstruction {
        /// Index of the offending instruction in the circuit.
        index: usize,
        /// The offending gate.
        gate: Gate,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnsupportedInstruction { index, gate } => write!(
                f,
                "instruction {index} ({gate:?}) is not supported on the unitary-only \
                 evaluation path; use trajectory simulation"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Executes circuits for a number of shots under a [`NoiseModel`].
///
/// When the model is ideal and the circuit contains no mid-circuit
/// measurement or reset, the final state is computed once and sampled
/// `shots` times through a precomputed cumulative-probability table;
/// otherwise each shot is a quantum trajectory of the circuit's
/// [`NoisyProgram`], and shots share a state for as long as their draws
/// agree.
///
/// # Example
///
/// ```
/// use supermarq_circuit::Circuit;
/// use supermarq_sim::Executor;
///
/// let mut c = Circuit::new(1);
/// c.h(0).measure(0);
/// let counts = Executor::noiseless().run(&c, 2000, 42);
/// assert_eq!(counts.total(), 2000);
/// let p0 = counts.probability(0);
/// assert!((p0 - 0.5).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Executor {
    noise: NoiseModel,
}

/// Derives the independent RNG stream for one shot: a SplitMix64-style
/// finalizer over `(seed, shot_index)` feeding the generator's own seed
/// expansion, so neighboring shot indices land in uncorrelated streams.
///
/// This is the workspace's per-shot stream contract: every shot-based
/// executor draws shot `i` of a run seeded `seed` from
/// `shot_rng(seed, i)`, so results do not depend on batching or threads.
pub fn shot_rng(seed: u64, shot: u64) -> StdRng {
    let mut z = seed ^ shot.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

impl Executor {
    /// An executor with the given noise model.
    pub fn new(noise: NoiseModel) -> Self {
        Executor { noise }
    }

    /// A noiseless executor.
    pub fn noiseless() -> Self {
        Executor {
            noise: NoiseModel::ideal(),
        }
    }

    /// Runs `circuit` for `shots` shots with a deterministic RNG seed and
    /// returns the histogram of classical-register values.
    ///
    /// Shots fan out over the rayon pool; each draws from its own
    /// deterministic RNG stream (see the module docs), so the result is
    /// bit-identical for a fixed seed regardless of thread count.
    ///
    /// # Panics
    ///
    /// Panics if the circuit exceeds the simulator's qubit limit.
    pub fn run(&self, circuit: &Circuit, shots: usize, seed: u64) -> Counts {
        let n = circuit.num_qubits();
        let needs_trajectories = !self.noise.is_ideal() || has_nonfinal_collapse(circuit);
        let run_span = Span::open("sim.run")
            .with("shots", shots)
            .with("qubits", n)
            .with("trajectories", needs_trajectories);
        counter!("sim.shots").add(shots as u64);
        if !needs_trajectories {
            // Single pass: evaluate the unitary once, then sample measured
            // qubits from the final state by binary search over a
            // precomputed cumulative-probability table. A reset sends the
            // circuit to trajectories (`has_nonfinal_collapse`), so the
            // evaluation succeeds.
            if let Ok(state) = Self::final_state(circuit) {
                let measured_mask = circuit
                    .iter()
                    .filter(|instr| instr.gate.kind() == GateKind::Measurement)
                    .fold(0u64, |mask, instr| mask | 1 << instr.qubits[0]);
                let sampler = CumulativeSampler::new(&state);
                return sample_shots(n, shots, &run_span, false, |range, _, acc| {
                    for i in range {
                        acc.record(sampler.sample(&mut shot_rng(seed, i as u64)) & measured_mask);
                    }
                    0
                });
            }
        }
        counter!("sim.trajectories").add(shots as u64);
        let program = NoisyProgram::lower(circuit, &self.noise);
        run_program(circuit, &program, shots, seed, &run_span)
    }

    /// Computes the exact final state of the unitary part of `circuit`
    /// (ignoring measurements and barriers): the noiseless path of
    /// [`Executor::run`] and every noiseless reference value. The gates
    /// are fused into kernels first (one-qubit runs into single matrix
    /// applications, X/CX/SWAP runs into single index permutations).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnsupportedInstruction`] naming the first
    /// reset if the circuit contains one — a reset-bearing circuit has no
    /// single final state; evaluate it with trajectory simulation
    /// ([`Executor::run`]) instead.
    pub fn final_state(circuit: &Circuit) -> Result<StateVector, ExecError> {
        if let Some((index, instr)) = circuit
            .iter()
            .enumerate()
            .find(|(_, instr)| instr.gate.kind() == GateKind::Reset)
        {
            return Err(ExecError::UnsupportedInstruction {
                index,
                gate: instr.gate,
            });
        }
        let (kernels, fused_away) = fusion::fuse(circuit);
        let _span = Span::open("sim.unitary_eval")
            .with("qubits", circuit.num_qubits())
            .with("ops", kernels.len())
            .with("gates_fused", fused_away);
        counter!("sim.fusion.gates_saved").add(fused_away as u64);
        let mut state = StateVector::zero_state(circuit.num_qubits());
        for kernel in &kernels {
            state.apply_kernel(kernel);
        }
        Ok(state)
    }
}

/// Splits `0..shots` into one contiguous range per worker thread
/// (`shots.div_ceil(threads)` shots each, matching the rayon stand-in's
/// own chunking). The partition only groups work: per-shot RNG streams
/// depend solely on the shot index, and [`Counts::merge`] is commutative
/// addition, so any partition yields bit-identical results.
fn batch_ranges(shots: usize) -> Vec<std::ops::Range<usize>> {
    if shots == 0 {
        return Vec::new();
    }
    let chunk = shots.div_ceil(rayon::current_num_threads()).max(1);
    (0..shots.div_ceil(chunk))
        .map(|i| (i * chunk)..((i + 1) * chunk).min(shots))
        .collect()
}

/// Samples `program` (lowered from `circuit`) for `shots` shots seeded
/// `seed`, each batch as one cohort tree (see `crate::cohort`).
fn run_program(
    circuit: &Circuit,
    program: &NoisyProgram,
    shots: usize,
    seed: u64,
    run_span: &Span,
) -> Counts {
    let (gates, n) = (
        cohort::prepare(circuit.instructions()),
        circuit.num_qubits(),
    );
    sample_shots(n, shots, run_span, true, |range, batches, acc| {
        let tree = cohort::run_batch(&gates, n, &program.ops, seed, range, batches, acc);
        counter!("sim.cohort_reruns").add(tree.reruns as u64);
        tree.cohorts
    })
}

/// Runs `batch(range, batches, acc)` for each of the `batches` ranges of
/// `batch_ranges(shots)` on the pool, accumulating into a per-batch
/// histogram, and merges the histograms in batch order. `batch` returns
/// the number of states it evolved (0 when shots sample a state evolved
/// before), which each batch's `sim.batch` span (parented to `run_span`,
/// marked with whether shots are trajectories) records as `cohorts`.
fn sample_shots(
    num_qubits: usize,
    shots: usize,
    run_span: &Span,
    trajectories: bool,
    batch: impl Fn(Range<usize>, usize, &mut Counts) -> usize + Sync,
) -> Counts {
    // Batch spans close on pool worker threads, which have no
    // thread-current span; parent them to sim.run explicitly and hand
    // over the active trace, if any.
    let (parent, trace) = (run_span.id(), supermarq_obs::current_trace());
    let ranges = batch_ranges(shots);
    let batches = ranges.len();
    let partials: Vec<Counts> = ranges
        .into_par_iter()
        .map(|range| {
            let mut span = Span::open_with_link("sim.batch", parent, trace)
                .with("shots", range.len())
                .with("trajectories", trajectories);
            let mut acc = Counts::new(num_qubits);
            let cohorts = batch(range, batches, &mut acc);
            counter!("sim.cohorts").add(cohorts as u64);
            span.record("cohorts", cohorts);
            acc
        })
        .collect();
    let mut total = Counts::new(num_qubits);
    for partial in &partials {
        total.merge(partial);
    }
    total
}

/// `true` if a measurement or reset is followed by later non-measurement
/// activity on any qubit (which forces per-shot trajectory simulation).
fn has_nonfinal_collapse(circuit: &Circuit) -> bool {
    let mut seen_collapse = false;
    for instr in circuit.iter() {
        match instr.gate.kind() {
            GateKind::Reset => return true,
            GateKind::Measurement => seen_collapse = true,
            GateKind::Barrier => {}
            _ => {
                if seen_collapse {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{coin, NoisyOp};
    use rand::Rng;
    use supermarq_circuit::C64;
    use supermarq_pauli::Pauli;

    /// Samples one trajectory of `program` (lowered from `circuit`) on its
    /// own state and returns the classical register: the per-shot oracle
    /// the cohort runner must reproduce bit for bit. Amplitude damping is
    /// unravelled into jump / no-jump Kraus branches and always draws,
    /// even when the qubit's excited population is 0; every other channel
    /// draws exactly when its probability is positive.
    fn run_trajectory(circuit: &Circuit, program: &NoisyProgram, rng: &mut StdRng) -> u64 {
        let mut state = StateVector::zero_state(circuit.num_qubits());
        let mut classical = 0u64;
        let pauli = |state: &mut StateVector, q: usize, p: Pauli| {
            let gate = [Gate::I, Gate::X, Gate::Y, Gate::Z][p as usize];
            state.apply_matrix1(&gate.matrix1().expect("Pauli matrix"), q);
        };
        for op in &program.ops {
            match *op {
                NoisyOp::Gate(i) => state.apply_instruction(&circuit.instructions()[i]),
                NoisyOp::Measure { q, flip } => {
                    let bit = state.measure_qubit(q, rng) ^ coin(flip, rng);
                    classical = classical & !(1 << q) | (bit as u64) << q;
                }
                NoisyOp::Reset { q, flip } => {
                    state.reset_qubit(q, rng);
                    if coin(flip, rng) {
                        pauli(&mut state, q, Pauli::X);
                    }
                }
                NoisyOp::Idle { q, gamma, p_phi } => {
                    if gamma > 0.0 {
                        if rng.gen::<f64>() < gamma * state.probability_of_one(q) {
                            // Jump: project onto |1> then flip to |0>.
                            state.project_qubit(q, true);
                            pauli(&mut state, q, Pauli::X);
                        } else {
                            // No jump: K0 = diag(1, sqrt(1 - gamma)), renormalized.
                            let k0 = [
                                [C64::ONE, C64::ZERO],
                                [C64::ZERO, C64::real((1.0 - gamma).sqrt())],
                            ];
                            state.apply_matrix1(&k0, q);
                            state.renormalize();
                        }
                    }
                    if coin(p_phi, rng) {
                        pauli(&mut state, q, Pauli::Z);
                    }
                }
                NoisyOp::Depolarize { .. } | NoisyOp::Pauli { .. } => {
                    op.sample_pauli(rng, |q, p| pauli(&mut state, q, p))
                }
            }
        }
        classical
    }

    /// The oracle's Counts: every shot on its own state, from its own
    /// stream.
    fn per_shot_counts(
        circuit: &Circuit,
        program: &NoisyProgram,
        shots: usize,
        seed: u64,
    ) -> Counts {
        let mut counts = Counts::new(circuit.num_qubits());
        for i in 0..shots {
            counts.record(run_trajectory(
                circuit,
                program,
                &mut shot_rng(seed, i as u64),
            ));
        }
        counts
    }

    /// A random circuit on 2-5 qubits with mid-circuit measurements and
    /// resets, ending in `measure_all`, lowered under a random model with
    /// every channel on; then `Pauli` channels and `Idle` windows with
    /// large `gamma` (so that jumps occur) are spliced in at random.
    fn random_case(rng: &mut StdRng) -> (Circuit, NoisyProgram) {
        let n = rng.gen_range(2..=5usize);
        let mut c = Circuit::new(n);
        for _ in 0..rng.gen_range(6..30) {
            let q = rng.gen_range(0..n);
            let r = (q + rng.gen_range(1..n)) % n;
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            match rng.gen_range(0..9) {
                0 => c.h(q),
                1 => c.x(q),
                2 => c.ry(theta, q),
                3 => c.rz(theta, q),
                4 => c.cx(q, r),
                5 => c.rzz(theta, q, r),
                6 => c.sx(q),
                7 => c.measure(q),
                _ => c.reset(q),
            };
        }
        c.measure_all();
        let mut noise = NoiseModel {
            depolarizing_1q: rng.gen_range(0.0..0.2),
            depolarizing_2q: rng.gen_range(0.0..0.3),
            readout_error: rng.gen_range(0.0..0.2),
            reset_error: rng.gen_range(0.0..0.2),
            t1: rng.gen_range(0.5..20.0),
            crosstalk: rng.gen_range(0.0..1.0),
            ..NoiseModel::ideal()
        };
        noise.t2 = rng.gen_range(0.2..2.0) * noise.t1;
        noise.durations.measurement = rng.gen_range(0.0..4.0);
        let mut program = NoisyProgram::lower(&c, &noise);
        for _ in 0..rng.gen_range(1..8) {
            let q = rng.gen_range(0..n);
            let at = rng.gen_range(0..=program.ops.len());
            let op = if rng.gen::<bool>() {
                let probs = [(); 3].map(|_| rng.gen_range(0.0..0.3));
                NoisyOp::Pauli { q, probs }
            } else {
                let (gamma, p_phi) = (rng.gen_range(0.3..0.95), rng.gen_range(0.0..0.5));
                NoisyOp::Idle { q, gamma, p_phi }
            };
            program.ops.insert(at, op);
        }
        (c, program)
    }

    #[test]
    fn cohort_counts_equal_per_shot_trajectories() {
        let mut rng = StdRng::seed_from_u64(2028);
        let (mut jumps_seen, mut pauli_ops) = (false, 0);
        for case in 0..60 {
            let (c, program) = random_case(&mut rng);
            let (shots, seed) = (rng.gen_range(1..400), rng.gen());
            let oracle = per_shot_counts(&c, &program, shots, seed);
            for threads in [1, 4] {
                let counts = with_threads(threads, || {
                    run_program(&c, &program, shots, seed, &Span::open("test"))
                });
                assert_eq!(counts, oracle, "case {case}, {threads} threads");
            }
            pauli_ops += program
                .ops
                .iter()
                .filter(|op| matches!(op, NoisyOp::Pauli { .. }))
                .count();
            jumps_seen |= program
                .ops
                .iter()
                .any(|op| matches!(op, NoisyOp::Idle { gamma, .. } if *gamma > 0.3));
        }
        assert!(jumps_seen && pauli_ops > 0);
        // A certain jump: |1> idling with gamma = 0.6 decays in 60% of
        // shots, and the cohort path reads the same shots as decayed.
        let mut c = Circuit::new(1);
        c.x(0).measure(0);
        let program = NoisyProgram {
            ops: vec![
                NoisyOp::Gate(0),
                NoisyOp::Idle {
                    q: 0,
                    gamma: 0.6,
                    p_phi: 0.0,
                },
                NoisyOp::Measure { q: 0, flip: 0.0 },
            ],
        };
        let oracle = per_shot_counts(&c, &program, 2000, 9);
        assert_eq!(
            run_program(&c, &program, 2000, 9, &Span::open("test")),
            oracle
        );
        assert!((oracle.probability(0) - 0.6).abs() < 0.05, "{oracle:?}");
    }

    #[test]
    fn memory_cap_engages_on_sixteen_qubits() {
        // Heavy two-qubit depolarizing on a 16-qubit ladder splits the
        // 300 shots into far more cohorts than 64 MiB of 1 MiB states
        // can hold at once, so some minority shots are set aside and
        // rerun from the start.
        let n = 16;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        let program = NoisyProgram::lower(&c, &NoiseModel::uniform_depolarizing(0.3));
        let (shots, seed) = (300, 77);
        let oracle = per_shot_counts(&c, &program, shots, seed);
        for threads in [1, 4] {
            let (counts, reruns) = with_threads(threads, || {
                let mut counts = Counts::new(n);
                let mut reruns = 0;
                let gates = cohort::prepare(c.instructions());
                let ranges = batch_ranges(shots);
                let batches = ranges.len();
                for range in ranges {
                    let ops = &program.ops;
                    let tree = cohort::run_batch(&gates, n, ops, seed, range, batches, &mut counts);
                    reruns += tree.reruns;
                }
                (counts, reruns)
            });
            assert!(reruns > 0, "{threads} threads: the cap never engaged");
            assert_eq!(counts, oracle, "{threads} threads");
        }
    }

    #[test]
    fn deterministic_mid_circuit_measurements_run_as_one_cohort_per_batch() {
        let mut c = Circuit::new(3);
        c.x(0)
            .measure(0)
            .cx(0, 1)
            .measure(1)
            .reset(0)
            .cx(1, 2)
            .measure_all();
        assert!(has_nonfinal_collapse(&c));
        let program = NoisyProgram::lower(&c, &NoiseModel::ideal());
        for threads in [1, 4] {
            with_threads(threads, || {
                let ranges = batch_ranges(500);
                let batches = ranges.len();
                let gates = cohort::prepare(c.instructions());
                for range in ranges {
                    let mut counts = Counts::new(3);
                    let tree = cohort::run_batch(
                        &gates,
                        3,
                        &program.ops,
                        3,
                        range.clone(),
                        batches,
                        &mut counts,
                    );
                    assert_eq!(tree.cohorts, 1, "{threads} threads, batch {range:?}");
                    assert_eq!(counts.count(0b110), range.len());
                }
            });
        }
    }

    #[test]
    fn noiseless_bell_state_counts() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let counts = Executor::noiseless().run(&c, 4000, 11);
        assert_eq!(counts.total(), 4000);
        assert_eq!(counts.count(0b01) + counts.count(0b10), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00={p00}");
    }

    #[test]
    fn unmeasured_qubits_report_zero() {
        let mut c = Circuit::new(2);
        c.x(0).x(1).measure(0); // only qubit 0 measured
        let counts = Executor::noiseless().run(&c, 10, 1);
        assert_eq!(counts.count(0b01), 10);
    }

    #[test]
    fn mid_circuit_measurement_forces_trajectories() {
        // Measure |+> then CNOT conditioned on the *quantum* state: the
        // post-measurement state is classical, so qubit 1 copies qubit 0.
        let mut c = Circuit::new(2);
        c.h(0).measure(0).cx(0, 1).measure(1);
        let counts = Executor::noiseless().run(&c, 2000, 5);
        for (bits, _) in counts.iter() {
            let b0 = bits & 1;
            let b1 = (bits >> 1) & 1;
            assert_eq!(b0, b1, "bits={bits:02b}");
        }
    }

    #[test]
    fn reset_clears_qubit() {
        let mut c = Circuit::new(1);
        c.x(0).reset(0).measure(0);
        let counts = Executor::noiseless().run(&c, 100, 9);
        assert_eq!(counts.count(0), 100);
    }

    #[test]
    fn depolarizing_noise_degrades_ghz_fidelity() {
        let n = 4;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        let ideal = Executor::noiseless().run(&c, 2000, 3);
        let noisy = Executor::new(NoiseModel::uniform_depolarizing(0.05)).run(&c, 2000, 3);
        let good = |counts: &Counts| {
            (counts.count(0) + counts.count((1 << n) - 1)) as f64 / counts.total() as f64
        };
        assert!(good(&ideal) > 0.99);
        assert!(good(&noisy) < 0.95);
        assert!(good(&noisy) > 0.3);
    }

    #[test]
    fn readout_error_flips_deterministic_outcome() {
        let mut c = Circuit::new(1);
        c.x(0).measure(0);
        let noise = NoiseModel {
            readout_error: 0.2,
            ..NoiseModel::ideal()
        };
        let counts = Executor::new(noise).run(&c, 5000, 13);
        let flip_rate = counts.probability(0);
        assert!((flip_rate - 0.2).abs() < 0.03, "flip_rate={flip_rate}");
    }

    #[test]
    fn relaxation_during_long_measurement_damages_idle_qubit() {
        let make_noise = || {
            let mut nm = NoiseModel::ideal();
            nm.t1 = 5.0;
            nm.durations.measurement = 5.0;
            nm.durations.one_qubit = 0.0;
            nm
        };
        // Parallel measurement: barrier puts both measures in one layer, so
        // qubit 1 never idles next to a long readout and survives in |1>.
        let mut parallel = Circuit::new(2);
        parallel.x(1).barrier_all().measure(0).measure(1);
        let counts_parallel = Executor::new(make_noise()).run(&parallel, 4000, 17);
        // Serialized: qubit 1 idles for the 5 us of qubit 0's readout, which
        // equals T1, so it decays with probability 1 - exp(-1) ~ 0.63.
        let mut serial = Circuit::new(2);
        serial.x(1).measure(0).barrier_all().measure(1);
        let counts_serial = Executor::new(make_noise()).run(&serial, 4000, 17);
        let survival_parallel = counts_parallel.marginal(&[1]).probability(1);
        let survival_serial = counts_serial.marginal(&[1]).probability(1);
        assert!(
            survival_parallel > 0.95,
            "parallel survival {survival_parallel}"
        );
        assert!(
            (survival_serial - (-1.0f64).exp()).abs() < 0.05,
            "serial survival {survival_serial}"
        );
    }

    #[test]
    fn final_state_ignores_measurements() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let psi = Executor::final_state(&c).expect("unitary circuit");
        assert!((psi.probability(0b00) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn final_state_rejects_reset_with_typed_error() {
        let mut c = Circuit::new(1);
        c.x(0).reset(0);
        let err = Executor::final_state(&c).expect_err("reset is unsupported");
        assert_eq!(
            err,
            ExecError::UnsupportedInstruction {
                index: 1,
                gate: Gate::Reset,
            }
        );
        // The Display form names the instruction for sweep-level reporting.
        assert!(format!("{err}").contains("instruction 1"), "{err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let noise = NoiseModel::uniform_depolarizing(0.02);
        let a = Executor::new(noise.clone()).run(&c, 500, 99);
        let b = Executor::new(noise).run(&c, 500, 99);
        assert_eq!(a, b);
    }

    /// A noisy circuit with mid-circuit measurement and reset: the fully
    /// general trajectory path.
    fn mid_circuit_noisy() -> (Circuit, NoiseModel) {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).measure(1).reset(1).cx(1, 2).measure_all();
        let mut noise = NoiseModel::uniform_depolarizing(0.02);
        noise.readout_error = 0.01;
        noise.t1 = 200.0;
        (c, noise)
    }

    fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn counts_bit_identical_across_thread_counts_trajectory_path() {
        let (c, noise) = mid_circuit_noisy();
        let exec = Executor::new(noise);
        let single = with_threads(1, || exec.run(&c, 700, 41));
        for threads in [2, 4, 8] {
            let multi = with_threads(threads, || exec.run(&c, 700, 41));
            assert_eq!(single, multi, "threads={threads}");
        }
        // And against the ambient (default-pool) configuration.
        assert_eq!(single, exec.run(&c, 700, 41));
    }

    #[test]
    fn counts_bit_identical_across_thread_counts_fast_path() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
        let exec = Executor::noiseless();
        let single = with_threads(1, || exec.run(&c, 1000, 17));
        for threads in [2, 4, 8] {
            let multi = with_threads(threads, || exec.run(&c, 1000, 17));
            assert_eq!(single, multi, "threads={threads}");
        }
        assert_eq!(single, exec.run(&c, 1000, 17));
    }

    #[test]
    fn shot_streams_are_independent_of_shot_count() {
        // Stream derivation is per-shot, so a prefix of shots yields a
        // sub-histogram of the longer run.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let exec = Executor::new(NoiseModel::uniform_depolarizing(0.05));
        let long = exec.run(&c, 400, 7);
        let short = exec.run(&c, 100, 7);
        assert_eq!(long.total(), 400);
        assert_eq!(short.total(), 100);
        for (bits, count) in short.iter() {
            assert!(count <= long.count(bits), "bits={bits:02b}");
        }
    }

    #[test]
    fn fusion_preserves_fast_path_counts() {
        // A circuit with long fusable 1q runs: the fused evaluation must
        // agree with applying every gate individually.
        let mut c = Circuit::new(3);
        c.h(0)
            .t(0)
            .s(0)
            .h(1)
            .x(1)
            .cx(0, 1)
            .h(2)
            .t(2)
            .h(0)
            .measure_all();
        let fused_state = Executor::final_state(&c).expect("unitary circuit");
        let mut unfused = StateVector::zero_state(3);
        for instr in c.iter() {
            if instr.gate.is_unitary() {
                unfused.apply_instruction(instr);
            }
        }
        assert!(
            fused_state.fidelity(&unfused) > 1.0 - 1e-12,
            "fused and unfused states diverge"
        );
    }

    #[test]
    fn barrier_bearing_noisy_circuits_run() {
        let mut c = Circuit::new(2);
        c.h(0).barrier_all().x(1).barrier_all().measure_all();
        let counts = Executor::new(NoiseModel::uniform_depolarizing(0.01)).run(&c, 50, 3);
        assert_eq!(counts.total(), 50);
    }
}
