//! Noisy stabilizer-circuit execution at scale.
//!
//! The paper's first design principle is scalability: benchmarks must run
//! "from just a few qubits to hundreds, thousands, and beyond". For the
//! Clifford benchmarks (GHZ, the bit/phase codes, the Mermin–Bell basis
//! change) this executor delivers exactly that: shots sample
//! *Pauli-twirled* noise in time polynomial in the qubit count, where the
//! statevector executor is exponential.
//!
//! Each call runs the circuit once on a noiseless CHP tableau, the
//! reference, and records how every measurement and reset resolved. A
//! shot is then a Pauli frame, the difference between its state and the
//! reference's: gates conjugate the frame with [`SignedPauli::apply`],
//! sampled Paulis multiply into it, and a measurement reads the
//! reference outcome flipped by the frame's X bit. A Pauli frame changes
//! only stabilizer signs, so a measurement is random for a shot exactly
//! when it was random for the reference; the shot then makes the same
//! single draw a full tableau trajectory makes, and moves onto the other
//! outcome by multiplying in the stabilizer the measurement replaced. A
//! shot costs O(1) per gate and O(n) per random measurement, and every
//! draw happens where the trajectory made it, so Counts are those of
//! per-shot tableau runs bit for bit (a test keeps that trajectory as
//! the oracle).
//!
//! The executor interprets the circuit's [`NoisyProgram::twirled`]
//! program, so it reads the same lowered noise as the statevector and
//! density-matrix backends. Depolarizing noise is already Pauli;
//! readout and reset errors are classical flips and X gates; idle
//! relaxation (amplitude damping is not Clifford) arrives as the Pauli
//! channel with the exact channel's Pauli-transfer diagonal, so
//! populations and coherences decay at the exact rates. Gates are mapped
//! to tableau primitives once per call through [`clifford_ops`], the
//! recognizer behind [`crate::is_clifford_circuit`], and shot `i` draws
//! from [`shot_rng`]`(seed, i)` like the statevector executor's.

use rand::rngs::StdRng;
use rand::Rng;

use supermarq_circuit::Circuit;
use supermarq_sim::noise::coin;
use supermarq_sim::{shot_rng, Counts, NoiseModel, NoisyOp, NoisyProgram};

use crate::chp::StabilizerSimulator;
use crate::frame::SignedPauli;
use crate::ops::{clifford_ops, CliffordOp};

/// Executes Clifford circuits for many shots under a Pauli-twirled noise
/// model: one reference tableau run per call, one Pauli frame per shot.
///
/// # Example
///
/// ```
/// use supermarq_circuit::Circuit;
/// use supermarq_clifford::StabilizerExecutor;
/// use supermarq_sim::NoiseModel;
///
/// // A 40-qubit GHZ ladder: far beyond statevector reach per-shot cost.
/// let n = 40;
/// let mut c = Circuit::new(n);
/// c.h(0);
/// for q in 0..n - 1 {
///     c.cx(q, q + 1);
/// }
/// c.measure_all();
/// let counts = StabilizerExecutor::new(NoiseModel::ideal()).run(&c, 50, 7);
/// assert!(counts.iter().all(|(k, _)| k == 0 || k == (1u64 << n) - 1));
/// ```
#[derive(Debug, Clone)]
pub struct StabilizerExecutor {
    noise: NoiseModel,
}

impl StabilizerExecutor {
    /// An executor with the given noise model (Pauli-twirled where needed).
    pub fn new(noise: NoiseModel) -> Self {
        StabilizerExecutor { noise }
    }

    /// Runs `circuit` for `shots` trajectory shots.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains non-Clifford gates or more than 64
    /// qubits (the histogram key limit).
    pub fn run(&self, circuit: &Circuit, shots: usize, seed: u64) -> Counts {
        assert!(
            circuit.num_qubits() <= 64,
            "histogram keys are limited to 64 qubits"
        );
        let mut counts = Counts::new(circuit.num_qubits());
        self.for_each_shot(circuit, shots, seed, |classical| {
            let bits = classical.iter().enumerate();
            counts.record(bits.fold(0, |acc, (q, &b)| acc | u64::from(b) << q));
        });
        counts
    }

    /// Fraction of `shots` trajectories whose final classical register
    /// equals `expected` (one bool per program qubit; unmeasured qubits
    /// read `false`).
    ///
    /// Unlike [`StabilizerExecutor::run`] this builds no histogram, so
    /// there is **no 64-qubit cap**: it is the mirror-benchmark scoring
    /// path at 100+ qubits, polynomial in width like the tableau itself.
    ///
    /// # Panics
    ///
    /// Panics if `expected.len() != circuit.num_qubits()`, `shots == 0`,
    /// or the circuit contains non-Clifford gates.
    pub fn success_fraction(
        &self,
        circuit: &Circuit,
        expected: &[bool],
        shots: usize,
        seed: u64,
    ) -> f64 {
        assert_eq!(
            expected.len(),
            circuit.num_qubits(),
            "expected bitstring length mismatch"
        );
        assert!(shots > 0, "need at least one shot");
        let mut hits = 0usize;
        self.for_each_shot(circuit, shots, seed, |classical| {
            hits += usize::from(classical == expected);
        });
        hits as f64 / shots as f64
    }

    /// Lowers `circuit` once, runs the noiseless reference, then hands
    /// each shot's classical register (indexed by program qubit) to
    /// `record`.
    fn for_each_shot(
        &self,
        circuit: &Circuit,
        shots: usize,
        seed: u64,
        mut record: impl FnMut(&[bool]),
    ) {
        let gates = clifford_gates(circuit);
        let program = NoisyProgram::lower(circuit, &self.noise).twirled();
        let collapses = reference_run(&program, &gates, circuit.num_qubits());
        let mut frame = SignedPauli::identity(circuit.num_qubits());
        let mut classical = vec![false; circuit.num_qubits()];
        for shot in 0..shots {
            classical.fill(false);
            sample_frame(
                &program,
                &gates,
                &collapses,
                &mut frame,
                &mut shot_rng(seed, shot as u64),
                &mut classical,
            );
            record(&classical);
        }
    }
}

/// Each instruction's tableau primitives (none for measurements, resets
/// and barriers).
///
/// # Panics
///
/// Panics on a unitary that is not Clifford.
fn clifford_gates(circuit: &Circuit) -> Vec<Vec<CliffordOp>> {
    circuit
        .iter()
        .map(|instr| match clifford_ops(instr) {
            Some(ops) => ops,
            None if instr.gate.is_unitary() => {
                panic!("{:?} is not a Clifford gate", instr.gate)
            }
            None => Vec::new(),
        })
        .collect()
}

/// How one `Measure` or `Reset` resolved on the noiseless reference.
enum Collapse {
    /// The state fixed the outcome; a shot reads it flipped by its
    /// frame's X bit on the qubit.
    Determined(bool),
    /// The outcome was random and the reference took 0. The Pauli is the
    /// stabilizer the measurement replaced: it anticommutes with the
    /// measured Z, commutes with every stabilizer left, so it maps the
    /// collapsed state onto the other outcome's.
    Random(SignedPauli),
}

impl Collapse {
    /// A shot's outcome when its frame is `frame`: a determined outcome
    /// flips with the frame's X bit on `q`; a random one is the same
    /// single draw the tableau makes, and when it differs from the
    /// frame's X bit the frame takes on the replaced stabilizer (up to
    /// phase, which the frame never reads).
    fn resolve(&self, frame: &mut SignedPauli, q: usize, rng: &mut StdRng) -> bool {
        match self {
            Collapse::Determined(outcome) => outcome ^ frame.x[q],
            Collapse::Random(d) => {
                let outcome = rng.gen::<bool>();
                if outcome != frame.x[q] {
                    frame.left_multiply(d);
                }
                outcome
            }
        }
    }
}

/// Runs the gates of `program` once on a noiseless tableau, skipping its
/// noise, and records each `Measure` and `Reset` in program order. A
/// random outcome is taken as 0 without a draw.
fn reference_run(program: &NoisyProgram, gates: &[Vec<CliffordOp>], n: usize) -> Vec<Collapse> {
    let mut sim = StabilizerSimulator::new(n);
    let mut collapses = Vec::new();
    for op in &program.ops {
        match *op {
            NoisyOp::Gate(i) => gates[i].iter().for_each(|&g| sim.apply(g)),
            NoisyOp::Measure { q, .. } | NoisyOp::Reset { q, .. } => {
                let collapse = match sim.collapse(q, || false) {
                    (outcome, None) => Collapse::Determined(outcome),
                    (_, Some(d)) => Collapse::Random(d.clone()),
                };
                if matches!(op, NoisyOp::Reset { .. })
                    && matches!(collapse, Collapse::Determined(true))
                {
                    sim.apply(CliffordOp::X(q));
                }
                collapses.push(collapse);
            }
            _ => {}
        }
    }
    collapses
}

/// One shot of a twirled program as a Pauli frame over the reference
/// run: the shot's state is `frame` applied to the reference state, up
/// to phase. A Pauli changes only stabilizer signs, so a measurement is
/// random for the shot exactly when it was for the reference, and the
/// shot makes every draw the full tableau trajectory would make, in the
/// same order. Measured bits go into `classical`.
fn sample_frame(
    program: &NoisyProgram,
    gates: &[Vec<CliffordOp>],
    collapses: &[Collapse],
    frame: &mut SignedPauli,
    rng: &mut StdRng,
    classical: &mut [bool],
) {
    frame.x.fill(false);
    frame.z.fill(false);
    let mut collapses = collapses.iter();
    let mut next = || collapses.next().expect("one record per collapse");
    for op in &program.ops {
        match *op {
            // The frame's sign is never read.
            NoisyOp::Gate(i) => gates[i].iter().for_each(|&g| frame.apply(g)),
            NoisyOp::Measure { q, flip } => {
                classical[q] = next().resolve(frame, q, rng) ^ coin(flip, rng);
            }
            NoisyOp::Reset { q, flip } => {
                // The shot and the reference both return q to |0>, so
                // only the reset error stays in the frame.
                next().resolve(frame, q, rng);
                frame.x[q] = coin(flip, rng);
            }
            NoisyOp::Depolarize { .. } | NoisyOp::Pauli { .. } => op.sample_pauli(rng, |q, p| {
                let (x, z) = p.xz_bits();
                frame.x[q] ^= x;
                frame.z[q] ^= z;
            }),
            NoisyOp::Idle { .. } => unreachable!("twirled programs carry no Idle ops"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_PI_2;
    use supermarq_device::Device;
    use supermarq_sim::noise::GateDurations;
    use supermarq_sim::Executor;

    /// One full tableau trajectory of a twirled program, writing measured
    /// bits into `classical`: how every shot ran before frame sampling,
    /// kept as the oracle the frame sampler must match bit for bit.
    fn run_shot(
        program: &NoisyProgram,
        gates: &[Vec<CliffordOp>],
        rng: &mut StdRng,
        classical: &mut [bool],
    ) {
        let mut sim = StabilizerSimulator::new(classical.len());
        for op in &program.ops {
            match *op {
                NoisyOp::Gate(i) => gates[i].iter().for_each(|&g| sim.apply(g)),
                NoisyOp::Measure { q, flip } => {
                    classical[q] = sim.measure(q, rng) ^ coin(flip, rng)
                }
                NoisyOp::Reset { q, flip } => {
                    sim.reset(q, rng);
                    if coin(flip, rng) {
                        sim.apply(CliffordOp::X(q));
                    }
                }
                NoisyOp::Depolarize { .. } | NoisyOp::Pauli { .. } => {
                    op.sample_pauli(rng, |q, p| {
                        // Y = iXZ: conjugation ignores the phase.
                        let (x, z) = p.xz_bits();
                        if z {
                            sim.apply(CliffordOp::Z(q));
                        }
                        if x {
                            sim.apply(CliffordOp::X(q));
                        }
                    })
                }
                NoisyOp::Idle { .. } => unreachable!("twirled programs carry no Idle ops"),
            }
        }
    }

    /// Every shot's classical register from full tableau trajectories,
    /// shot `i` drawing from `shot_rng(seed, i)`.
    fn oracle_registers(
        c: &Circuit,
        noise: &NoiseModel,
        shots: usize,
        seed: u64,
    ) -> Vec<Vec<bool>> {
        let gates = clifford_gates(c);
        let program = NoisyProgram::lower(c, noise).twirled();
        (0..shots)
            .map(|shot| {
                let mut classical = vec![false; c.num_qubits()];
                run_shot(
                    &program,
                    &gates,
                    &mut shot_rng(seed, shot as u64),
                    &mut classical,
                );
                classical
            })
            .collect()
    }

    /// A random Clifford circuit on 2 to 8 qubits: every primitive's
    /// family, with mid-circuit measurements, resets and
    /// measure-after-reset among the gates, ending in `measure_all`.
    fn random_clifford_circuit(rng: &mut StdRng) -> Circuit {
        let n = rng.gen_range(2..=8);
        let mut c = Circuit::new(n);
        for _ in 0..rng.gen_range(8..40) {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            match rng.gen_range(0..16) {
                0 | 1 => c.h(a),
                2 => c.s(a),
                3 => c.sdg(a),
                4 => c.x(a),
                5 => c.y(a),
                6 => c.z(a),
                7 => c.sx(a),
                8 | 9 => c.cx(a, b),
                10 => c.cz(a, b),
                11 => c.swap(a, b),
                12 => c.rzz(FRAC_PI_2, a, b),
                13 => c.measure(a),
                14 => c.reset(a),
                _ => c.reset(a).measure(a),
            };
        }
        c.measure_all();
        c
    }

    /// A noise model with depolarizing (plus crosstalk), readout, reset
    /// and T1/T2 idle noise at random rates and durations.
    fn random_noise(rng: &mut StdRng) -> NoiseModel {
        let t1 = rng.gen_range(2.0..40.0);
        NoiseModel {
            depolarizing_1q: rng.gen_range(0.0..0.05),
            depolarizing_2q: rng.gen_range(0.0..0.15),
            readout_error: rng.gen_range(0.0..0.15),
            reset_error: rng.gen_range(0.0..0.2),
            t1,
            t2: t1 * rng.gen_range(0.1..2.2),
            durations: GateDurations {
                one_qubit: rng.gen_range(0.0..0.5),
                two_qubit: rng.gen_range(0.0..2.0),
                measurement: rng.gen_range(0.0..5.0),
                reset: rng.gen_range(0.0..5.0),
            },
            crosstalk: rng.gen_range(0.0..1.0),
            ..NoiseModel::ideal()
        }
    }

    /// Frame sampling reproduces the full tableau trajectories bit for
    /// bit: `run` Counts and `success_fraction` equal the oracle's on
    /// random circuits, under random noise models and every Table II
    /// device's model, at several seeds.
    #[test]
    fn frame_sampling_matches_full_tableau_trajectories() {
        const SHOTS: usize = 64;
        let (mut random_measures, mut random_resets) = (0, 0);
        for case in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let c = random_clifford_circuit(&mut rng);
            let mut models = vec![NoiseModel::ideal()];
            models.extend((0..3).map(|_| random_noise(&mut rng)));
            models.extend(Device::all_paper_devices().iter().map(Device::noise_model));
            for noise in &models {
                let exec = StabilizerExecutor::new(noise.clone());
                for seed in [case, 1000 + case, u64::MAX - case] {
                    let registers = oracle_registers(&c, noise, SHOTS, seed);
                    let mut counts = Counts::new(c.num_qubits());
                    for register in &registers {
                        let bits = register.iter().enumerate();
                        counts.record(bits.fold(0, |acc, (q, &b)| acc | u64::from(b) << q));
                    }
                    assert_eq!(exec.run(&c, SHOTS, seed), counts, "case {case}, {noise:?}");
                    let expected = &registers[0];
                    let hits = registers.iter().filter(|r| r == &expected).count();
                    assert_eq!(
                        exec.success_fraction(&c, expected, SHOTS, seed).to_bits(),
                        (hits as f64 / SHOTS as f64).to_bits(),
                        "case {case}, {noise:?}"
                    );
                }
            }
            // Count random collapses so the corpus provably exercises the
            // replaced-stabilizer update and the reset rule.
            let program = NoisyProgram::lower(&c, &NoiseModel::ideal());
            let collapses = reference_run(&program, &clifford_gates(&c), c.num_qubits());
            let kinds = program
                .ops
                .iter()
                .filter(|op| matches!(op, NoisyOp::Measure { .. } | NoisyOp::Reset { .. }));
            for (op, collapse) in kinds.zip(&collapses) {
                if let Collapse::Random(_) = collapse {
                    match op {
                        NoisyOp::Reset { .. } => random_resets += 1,
                        _ => random_measures += 1,
                    }
                }
            }
        }
        assert!(
            random_measures > 20,
            "random measurements: {random_measures}"
        );
        assert!(random_resets > 20, "random resets: {random_resets}");
    }

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        c
    }

    /// GHZ "good outcome" mass (all-zeros + all-ones fraction).
    fn ghz_mass(counts: &Counts, n: usize) -> f64 {
        (counts.count(0) + counts.count(((1u128 << n) - 1) as u64)) as f64 / counts.total() as f64
    }

    #[test]
    fn noiseless_matches_statevector_executor() {
        let c = ghz(5);
        let chp = StabilizerExecutor::new(NoiseModel::ideal()).run(&c, 4000, 3);
        let sv = Executor::noiseless().run(&c, 4000, 3);
        assert!((ghz_mass(&chp, 5) - 1.0).abs() < 1e-12);
        assert!((ghz_mass(&sv, 5) - 1.0).abs() < 1e-12);
        assert!((chp.probability(0) - sv.probability(0)).abs() < 0.05);
    }

    #[test]
    fn depolarizing_statistics_match_statevector_executor() {
        // Depolarizing noise is exactly Pauli, so the two executors sample
        // the same channel; GHZ good-mass must agree within shot noise.
        let c = ghz(4);
        let noise = NoiseModel::uniform_depolarizing(0.03);
        let chp = StabilizerExecutor::new(noise.clone()).run(&c, 20000, 7);
        let sv = Executor::new(noise).run(&c, 20000, 7);
        let (a, b) = (ghz_mass(&chp, 4), ghz_mass(&sv, 4));
        assert!((a - b).abs() < 0.02, "chp={a} sv={b}");
    }

    #[test]
    fn readout_error_statistics_match() {
        let mut c = Circuit::new(2);
        c.x(0).measure_all();
        let noise = NoiseModel {
            readout_error: 0.1,
            ..NoiseModel::ideal()
        };
        let chp = StabilizerExecutor::new(noise.clone()).run(&c, 20000, 9);
        let sv = Executor::new(noise).run(&c, 20000, 9);
        for k in 0..4u64 {
            assert!(
                (chp.probability(k) - sv.probability(k)).abs() < 0.015,
                "k={k}: {} vs {}",
                chp.probability(k),
                sv.probability(k)
            );
        }
    }

    #[test]
    fn twirled_relaxation_reproduces_population_decay() {
        // Prepare |1>, idle for T1, measure: survival must be ~exp(-1) in
        // *population*, which the twirl preserves: P(flip) = px + py = g/2...
        // The twirl halves the bit-flip rate vs the true channel (which
        // always decays toward |0>), so compare against the twirl's own
        // analytic prediction rather than exp(-1).
        let mut c = Circuit::new(2);
        c.x(1).measure(0).barrier_all().measure(1);
        let mut noise = NoiseModel::ideal();
        noise.t1 = 5.0;
        noise.durations.measurement = 5.0;
        noise.durations.one_qubit = 0.0;
        let counts = StabilizerExecutor::new(noise).run(&c, 30000, 11);
        let survival = counts.marginal(&[1]).probability(1);
        let gamma: f64 = 1.0 - (-1.0f64).exp();
        let twirl_flip = gamma / 2.0; // px + py
        assert!(
            (survival - (1.0 - twirl_flip)).abs() < 0.02,
            "survival={survival} expected={}",
            1.0 - twirl_flip
        );
    }

    /// Two-sided Hoeffding half-width for a frequency over `shots`
    /// independent shots, at failure probability `1e-6`.
    fn hoeffding(shots: usize) -> f64 {
        ((2.0f64 / 1e-6).ln() / (2.0 * shots as f64)).sqrt()
    }

    #[test]
    fn twirled_relaxation_keeps_the_exact_coherence() {
        // |+> idles one T1 during qubit 1's readout, then H maps its
        // coherence onto P(0) = (1 + e^{-1/2}) / 2 ~ 0.8033 — the exact
        // channel's value, which the twirl must reproduce.
        let mut c = Circuit::new(2);
        c.h(0).measure(1).barrier_all().h(0).measure(0);
        let mut noise = NoiseModel::ideal();
        noise.t1 = 5.0;
        noise.durations.measurement = 5.0;
        noise.durations.one_qubit = 0.0;
        let shots = 40_000;
        let counts = StabilizerExecutor::new(noise).run(&c, shots, 5);
        let p0 = counts.marginal(&[0]).probability(0);
        let exact = (1.0 + (-0.5f64).exp()) / 2.0;
        assert!(
            (p0 - exact).abs() < hoeffding(shots),
            "P(q0 = 0) = {p0}, exact {exact}"
        );
    }

    #[test]
    fn every_recognized_clifford_gate_runs_on_the_tableau() {
        use std::f64::consts::{FRAC_PI_2, PI};
        use supermarq_circuit::Gate;
        let one_qubit = [
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rz(FRAC_PI_2),
            Gate::Rx(FRAC_PI_2),
            Gate::Ry(-FRAC_PI_2),
            Gate::P(FRAC_PI_2),
            Gate::U(FRAC_PI_2, 0.0, PI),
        ];
        let two_qubit = [
            Gate::Rzz(FRAC_PI_2),
            Gate::Rxx(FRAC_PI_2),
            Gate::Ryy(FRAC_PI_2),
            Gate::Cp(PI),
        ];
        let gates = one_qubit.iter().map(|g| (*g, vec![1]));
        for (gate, qubits) in gates.chain(two_qubit.iter().map(|g| (*g, vec![0, 1]))) {
            // Entangle and rotate first so the gate acts on a generic
            // stabilizer state, then read out in a rotated basis.
            let mut c = Circuit::new(2);
            c.h(0).cx(0, 1).s(1).h(1);
            c.append(gate, &qubits);
            c.h(0).h(1).measure_all();
            let shots = 4000;
            let counts = StabilizerExecutor::new(NoiseModel::ideal()).run(&c, shots, 9);
            let exact = Executor::final_state(&c).expect("unitary").probabilities();
            for (bits, &p) in exact.iter().enumerate() {
                let f = counts.probability(bits as u64);
                assert!(
                    (f - p).abs() < hoeffding(shots),
                    "{gate:?}: P({bits:02b}) tableau {f} vs statevector {p}"
                );
            }
        }
    }

    #[test]
    fn scales_to_sixty_qubits() {
        // 60-qubit noisy GHZ: statevector would need 2^60 amplitudes.
        let n = 60;
        let c = ghz(n);
        let noise = NoiseModel::uniform_depolarizing(0.002);
        let counts = StabilizerExecutor::new(noise).run(&c, 300, 13);
        let mass = ghz_mass(&counts, n);
        assert!(mass > 0.5 && mass < 1.0, "mass={mass}");
    }

    #[test]
    fn bit_code_runs_at_scale() {
        // A 31-data-qubit bit code (61 qubits total) with mid-circuit
        // measurement and reset, executed as stabilizer trajectories.
        let d = 15;
        let n = 2 * d - 1;
        let mut c = Circuit::new(n);
        for i in 0..d {
            c.x(2 * i);
        }
        for i in 0..d - 1 {
            c.cx(2 * i, 2 * i + 1);
            c.cx(2 * (i + 1), 2 * i + 1);
        }
        for i in 0..d - 1 {
            c.measure(2 * i + 1);
            c.reset(2 * i + 1);
        }
        c.measure_all();
        let counts = StabilizerExecutor::new(NoiseModel::ideal()).run(&c, 100, 17);
        // Deterministic ideal outcome: all data 1, ancilla 0.
        let mut expect = 0u64;
        for i in 0..d {
            expect |= 1 << (2 * i);
        }
        assert_eq!(counts.count(expect), 100);
    }

    #[test]
    fn run_executes_clifford_subset() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).barrier_all().measure_all();
        let counts = StabilizerExecutor::new(NoiseModel::ideal()).run(&c, 1, 11);
        assert!(counts.iter().all(|(bits, _)| bits == 0 || bits == 0b111));
    }

    /// Cross-validation against the statevector simulator on a circuit
    /// with a deterministic outcome: X on 0, then a CX chain.
    #[test]
    fn matches_statevector_for_deterministic_outcomes() {
        let mut c = Circuit::new(4);
        c.x(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
        let counts = Executor::noiseless().run(&c, 50, 13);
        assert_eq!(counts.count(0b1111), 50);
        let tableau = StabilizerExecutor::new(NoiseModel::ideal()).run(&c, 1, 14);
        assert_eq!(tableau.count(0b1111), 1);
    }

    #[test]
    #[should_panic(expected = "is not a Clifford gate")]
    fn rejects_non_clifford() {
        let mut c = Circuit::new(1);
        c.t(0);
        StabilizerExecutor::new(NoiseModel::ideal()).run(&c, 1, 1);
    }

    #[test]
    fn success_fraction_has_no_qubit_cap() {
        // 100 qubits: beyond the histogram's u64 keys, fine here.
        let n = 100;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.x(q);
        }
        c.measure_all();
        let expected = vec![true; n];
        let exec = StabilizerExecutor::new(NoiseModel::ideal());
        assert_eq!(exec.success_fraction(&c, &expected, 50, 3), 1.0);
        assert_eq!(exec.success_fraction(&c, &vec![false; n], 50, 3), 0.0);
    }

    #[test]
    fn success_fraction_matches_histogram_probability() {
        let c = ghz(5);
        let noise = NoiseModel::uniform_depolarizing(0.02);
        let exec = StabilizerExecutor::new(noise);
        let counts = exec.run(&c, 4000, 21);
        let frac = exec.success_fraction(&c, &[false; 5], 4000, 21);
        // Identical seed and trajectory stream: exact agreement.
        assert!(
            (frac - counts.probability(0)).abs() < 1e-12,
            "frac={frac} hist={}",
            counts.probability(0)
        );
    }
}
