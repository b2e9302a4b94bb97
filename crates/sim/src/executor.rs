//! Shot-based circuit execution.
//!
//! A noisy (or mid-circuit-collapsing) circuit is lowered once per run to
//! a [`NoisyProgram`], and every shot samples that program as one quantum
//! trajectory.
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
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::fmt;
use supermarq_obs::{counter, Span};

use crate::counts::Counts;
use crate::fusion::{fuse_1q_runs, fuse_permutation_runs, FusedOp};
use crate::noise::{coin, NoiseModel, NoisyOp, NoisyProgram};
use crate::state::{CumulativeSampler, StateVector};
use supermarq_circuit::{Circuit, Gate, GateKind, C64};
use supermarq_pauli::Pauli;

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
/// otherwise each shot is an independent quantum trajectory of the
/// circuit's [`NoisyProgram`].
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

    /// The executor's noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
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
            // Single pass: apply unitaries once (with 1q runs fused), then
            // sample measured qubits from the final state by binary search
            // over a precomputed cumulative-probability table.
            match Self::fast_path_state(circuit) {
                Ok((state, measured_mask)) => {
                    let sampler = CumulativeSampler::new(&state);
                    return sample_shots(n, shots, seed, &run_span, false, |rng| {
                        sampler.sample(rng) & measured_mask
                    });
                }
                Err(_) => {
                    // Unreachable today (`has_nonfinal_collapse` routes every
                    // reset-bearing circuit to trajectories), but degrade
                    // gracefully instead of aborting a sweep if the fast-path
                    // eligibility check and the evaluator ever disagree.
                    counter!("sim.fast_path_fallbacks").incr();
                }
            }
        }
        counter!("sim.trajectories").add(shots as u64);
        let program = NoisyProgram::lower(circuit, &self.noise);
        sample_shots(n, shots, seed, &run_span, true, |rng| {
            run_trajectory(circuit, &program, rng)
        })
    }

    /// Applies the unitary part of `circuit` (with adjacent one-qubit
    /// gates fused into single matrix applications) for the noiseless fast
    /// path, returning the final state and the mask of measured qubits.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnsupportedInstruction`] if the circuit
    /// contains a reset: `run` routes reset-bearing circuits through
    /// trajectory simulation via `has_nonfinal_collapse`, and falls back
    /// to it should this error ever surface anyway.
    fn fast_path_state(circuit: &Circuit) -> Result<(StateVector, u64), ExecError> {
        let (ops, fused_1q) = fuse_1q_runs(circuit);
        let (ops, fused_perm) = fuse_permutation_runs(ops, circuit.num_qubits());
        let fused_away = fused_1q + fused_perm;
        let _span = Span::open("sim.unitary_eval")
            .with("qubits", circuit.num_qubits())
            .with("ops", ops.len())
            .with("gates_fused", fused_away);
        counter!("sim.fusion.gates_saved").add(fused_away as u64);
        let mut state = StateVector::zero_state(circuit.num_qubits());
        let mut measured_mask = 0u64;
        for op in &ops {
            match op {
                FusedOp::Fused1q { qubit, matrix } => state.apply_matrix1(matrix, *qubit),
                FusedOp::Permutation { cols, offset } => state.permute_amps(cols, *offset),
                FusedOp::Instr { index, instr } => match instr.gate.kind() {
                    GateKind::OneQubitUnitary | GateKind::TwoQubitUnitary => {
                        state.apply_instruction(instr);
                    }
                    GateKind::Measurement => measured_mask |= 1 << instr.qubits[0],
                    GateKind::Reset => {
                        return Err(ExecError::UnsupportedInstruction {
                            index: *index,
                            gate: instr.gate,
                        })
                    }
                    GateKind::Barrier => {}
                },
            }
        }
        Ok((state, measured_mask))
    }

    /// Computes the exact final state of the unitary part of `circuit`
    /// (ignoring measurements), for noiseless reference values. Runs of
    /// adjacent one-qubit gates are fused into single matrix applications
    /// first.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnsupportedInstruction`] if the circuit
    /// contains a reset — a reset-bearing circuit has no single final
    /// state; evaluate it with trajectory simulation ([`Executor::run`])
    /// instead.
    pub fn final_state(circuit: &Circuit) -> Result<StateVector, ExecError> {
        Ok(Self::fast_path_state(circuit)?.0)
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

/// Runs `shot` once per shot index on that shot's own stream
/// ([`shot_rng`]), one `sim.batch` span (parented to `run_span`, marked
/// with whether shots are trajectories) per batch, and merges the
/// per-batch histograms in batch order.
fn sample_shots(
    num_qubits: usize,
    shots: usize,
    seed: u64,
    run_span: &Span,
    trajectories: bool,
    shot: impl Fn(&mut StdRng) -> u64 + Sync,
) -> Counts {
    // Batch spans close on pool worker threads, which have no
    // thread-current span; parent them to sim.run explicitly and hand
    // over the active trace, if any.
    let (parent, trace) = (run_span.id(), supermarq_obs::current_trace());
    let partials: Vec<Counts> = batch_ranges(shots)
        .into_par_iter()
        .map(|batch| {
            let _span = Span::open_with_link("sim.batch", parent, trace)
                .with("shots", batch.len())
                .with("trajectories", trajectories);
            let mut acc = Counts::new(num_qubits);
            for i in batch {
                acc.record(shot(&mut shot_rng(seed, i as u64)));
            }
            acc
        })
        .collect();
    let mut total = Counts::new(num_qubits);
    for partial in &partials {
        total.merge(partial);
    }
    total
}

/// Samples one trajectory of `program` (lowered from `circuit`) and
/// returns the classical register. Amplitude damping is unravelled into
/// jump / no-jump Kraus branches and always draws, even when the qubit's
/// excited population is 0; every other channel draws exactly when its
/// probability is positive.
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
    fn fast_path_names_the_offending_reset_instruction() {
        let mut c = Circuit::new(1);
        c.x(0).reset(0).measure(0);
        // `run` never routes reset-bearing circuits here; call the helper
        // directly to pin the typed error and its instruction index.
        let err = Executor::fast_path_state(&c).expect_err("reset is unsupported");
        assert_eq!(
            err,
            ExecError::UnsupportedInstruction {
                index: 1,
                gate: Gate::Reset,
            }
        );
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
        let (fused_state, _) = Executor::fast_path_state(&c).expect("unitary circuit");
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
