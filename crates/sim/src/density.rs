//! Exact density-matrix simulation with Kraus channels.
//!
//! The trajectory executor ([`crate::Executor`]) samples noise
//! stochastically; this module evolves the full density matrix
//! `rho -> sum_k K_k rho K_k^dagger` exactly, with no sampling error.
//! [`DensityMatrix::run_program`] interprets the same lowered
//! [`NoisyProgram`] the trajectory and stabilizer executors sample, with
//! every channel of the noise model (crosstalk, per-edge and per-qubit
//! rates, relaxation, readout and reset errors). It serves two purposes:
//!
//! * **validation** — the exact oracle the trajectory executor, and the
//!   stabilizer executor on the [`NoisyProgram::twirled`] program, must
//!   match within a shot-count-derived bound (`tests/properties.rs`);
//! * **small-instance scoring** — exact noisy output distributions for
//!   benchmarks of ≤ ~10 qubits, useful when shot noise would obscure an
//!   ablation.
//!
//! Memory is `4^n` amplitudes, so the register limit is half the
//! statevector simulator's.

use supermarq_circuit::{Circuit, Gate, C64};

use crate::noise::{NoisyOp, NoisyProgram};

/// Maximum density-matrix register size (`4^13` complex entries = 1 GiB).
pub const MAX_DENSITY_QUBITS: usize = 13;

/// An exact `2^n x 2^n` density matrix, row-major, little-endian qubit
/// indexing (matching [`crate::StateVector`]).
///
/// # Example
///
/// ```
/// use supermarq_sim::DensityMatrix;
/// use supermarq_circuit::Gate;
///
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_gate(&Gate::H, &[0]);
/// rho.depolarize(0, 0.75); // p = 3/4 fully mixes: rho -> I/2
/// assert!((rho.probability_of_basis(0) - 0.5).abs() < 1e-12);
/// assert!((rho.purity() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    dim: usize,
    /// Row-major `dim x dim` matrix.
    elems: Vec<C64>,
}

impl DensityMatrix {
    /// The pure state `|0...0><0...0|`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > MAX_DENSITY_QUBITS`.
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= MAX_DENSITY_QUBITS,
            "register too large: {num_qubits} > {MAX_DENSITY_QUBITS}"
        );
        let dim = 1usize << num_qubits;
        let mut elems = vec![C64::ZERO; dim * dim];
        elems[0] = C64::ONE;
        DensityMatrix {
            num_qubits,
            dim,
            elems,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> C64 {
        self.elems[r * self.dim + c]
    }

    /// The trace (should remain 1).
    pub fn trace(&self) -> C64 {
        (0..self.dim).map(|i| self.at(i, i)).sum()
    }

    /// Purity `Tr(rho^2)`: 1 for pure states, `1/2^n` for the maximally
    /// mixed state.
    pub fn purity(&self) -> f64 {
        let mut total = 0.0;
        for r in 0..self.dim {
            for c in 0..self.dim {
                total += (self.at(r, c) * self.at(c, r)).re;
            }
        }
        total
    }

    /// Probability of computational-basis outcome `bits`.
    pub fn probability_of_basis(&self, bits: u64) -> f64 {
        self.at(bits as usize, bits as usize).re
    }

    /// The diagonal as a probability distribution.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim).map(|i| self.at(i, i).re).collect()
    }

    /// Applies a single-qubit operator pair `rho -> A rho A^dagger`
    /// (non-unitary allowed — used for Kraus terms), accumulating into a
    /// scratch buffer.
    fn accumulate_kraus1(&self, a: &[[C64; 2]; 2], qubit: usize, out: &mut [C64]) {
        let bit = 1usize << qubit;
        // B = A rho: rows transform.
        // C = B A^dagger: columns transform with conjugate.
        // Work directly: out[r][c] += sum_{r', c'} A[rb][rb'] rho[r'][c'] conj(A[cb][cb'])
        // where rb is the qubit bit of r, rest of r must match r'.
        for r in 0..self.dim {
            let rb = (r & bit != 0) as usize;
            let r_base = r & !bit;
            for c in 0..self.dim {
                let cb = (c & bit != 0) as usize;
                let c_base = c & !bit;
                let mut acc = C64::ZERO;
                for rb2 in 0..2 {
                    let a_r = a[rb][rb2];
                    if a_r == C64::ZERO {
                        continue;
                    }
                    let rr = r_base | (rb2 * bit);
                    for (cb2, a_cb2) in a[cb].iter().enumerate() {
                        let a_c = a_cb2.conj();
                        if a_c == C64::ZERO {
                            continue;
                        }
                        let cc = c_base | (cb2 * bit);
                        acc += a_r * self.at(rr, cc) * a_c;
                    }
                }
                out[r * self.dim + c] += acc;
            }
        }
    }

    /// Applies a two-qubit unitary `rho -> U rho U^dagger` with the
    /// [`Gate::matrix2`] basis convention (first operand = MSB).
    fn apply_unitary2(&mut self, u: &[[C64; 4]; 4], q0: usize, q1: usize) {
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let sub = |idx: usize| -> usize {
            (((idx & b0) != 0) as usize) << 1 | ((idx & b1) != 0) as usize
        };
        let compose = |base: usize, s: usize| -> usize {
            let mut idx = base;
            if s & 0b10 != 0 {
                idx |= b0;
            }
            if s & 0b01 != 0 {
                idx |= b1;
            }
            idx
        };
        let mut out = vec![C64::ZERO; self.dim * self.dim];
        for r in 0..self.dim {
            let rs = sub(r);
            let r_base = r & !(b0 | b1);
            for c in 0..self.dim {
                let cs = sub(c);
                let c_base = c & !(b0 | b1);
                let mut acc = C64::ZERO;
                for rs2 in 0..4 {
                    let u_r = u[rs][rs2];
                    if u_r == C64::ZERO {
                        continue;
                    }
                    let rr = compose(r_base, rs2);
                    for (cs2, u_cs2) in u[cs].iter().enumerate() {
                        let u_c = u_cs2.conj();
                        if u_c == C64::ZERO {
                            continue;
                        }
                        let cc = compose(c_base, cs2);
                        acc += u_r * self.at(rr, cc) * u_c;
                    }
                }
                out[r * self.dim + c] = acc;
            }
        }
        self.elems = out;
    }

    /// Applies a unitary gate.
    ///
    /// # Panics
    ///
    /// Panics for non-unitary gates or operand mismatches.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        if let Some(m) = gate.matrix1() {
            assert_eq!(qubits.len(), 1, "one-qubit gate takes one operand");
            let mut out = vec![C64::ZERO; self.dim * self.dim];
            self.accumulate_kraus1(&m, qubits[0], &mut out);
            self.elems = out;
        } else if let Some(m) = gate.matrix2() {
            assert_eq!(qubits.len(), 2, "two-qubit gate takes two operands");
            self.apply_unitary2(&m, qubits[0], qubits[1]);
        } else {
            panic!("apply_gate called with non-unitary gate {gate:?}");
        }
    }

    /// Applies a single-qubit channel given by Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics (in debug) if the Kraus set is not trace-preserving.
    pub fn apply_kraus1(&mut self, kraus: &[[[C64; 2]; 2]], qubit: usize) {
        let mut out = vec![C64::ZERO; self.dim * self.dim];
        for k in kraus {
            self.accumulate_kraus1(k, qubit, &mut out);
        }
        self.elems = out;
        debug_assert!(
            (self.trace().re - 1.0).abs() < 1e-6,
            "channel not trace preserving"
        );
    }

    /// The Pauli channel applying X, Y, Z with probabilities
    /// `[p_x, p_y, p_z]`.
    fn pauli_channel(&mut self, qubit: usize, probs: [f64; 3]) {
        let weights = [
            1.0 - probs.iter().sum::<f64>(),
            probs[0],
            probs[1],
            probs[2],
        ];
        let kraus: Vec<[[C64; 2]; 2]> = [Gate::I, Gate::X, Gate::Y, Gate::Z]
            .iter()
            .zip(weights)
            .map(|(g, w)| {
                g.matrix1()
                    .expect("Pauli matrix")
                    .map(|row| row.map(|e| e.scale(w.sqrt())))
            })
            .collect();
        self.apply_kraus1(&kraus, qubit);
    }

    /// The single-qubit depolarizing channel with probability `p`.
    pub fn depolarize(&mut self, qubit: usize, p: f64) {
        self.pauli_channel(qubit, [p / 3.0; 3]);
    }

    /// The amplitude-damping channel with decay probability `gamma`.
    pub fn amplitude_damp(&mut self, qubit: usize, gamma: f64) {
        let k0 = [
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::real((1.0 - gamma).sqrt())],
        ];
        let k1 = [[C64::ZERO, C64::real(gamma.sqrt())], [C64::ZERO, C64::ZERO]];
        self.apply_kraus1(&[k0, k1], qubit);
    }

    /// The phase-damping (dephasing) channel: phase flip with probability
    /// `p`.
    pub fn dephase(&mut self, qubit: usize, p: f64) {
        self.pauli_channel(qubit, [0.0, 0.0, p]);
    }

    /// The symmetric readout-error channel applied as a classical bit-flip
    /// channel on the diagonal (used when extracting final distributions).
    pub fn classical_bitflip(&mut self, qubit: usize, p: f64) {
        self.pauli_channel(qubit, [p, 0.0, 0.0]);
    }

    /// Applies a lowered noisy program exactly. Afterwards the diagonal is
    /// the distribution of the classical register that
    /// [`crate::Executor::run`] samples from the same program, provided
    /// every qubit is measured and no gate or reset touches a qubit after
    /// its last measurement.
    ///
    /// A measurement is the full-dephasing channel. A qubit's last record
    /// is final, so its readout flip is applied to the qubit, which is
    /// then frozen: later idle noise on it is skipped. Earlier records are
    /// overwritten, so their flips are moot. A reset is amplitude damping
    /// with `gamma = 1` followed by its flip.
    pub fn run_program(&mut self, circuit: &Circuit, program: &NoisyProgram) {
        let mut last_measure = vec![usize::MAX; self.num_qubits];
        for (k, op) in program.ops.iter().enumerate() {
            if let NoisyOp::Measure { q, .. } = *op {
                last_measure[q] = k;
            }
        }
        // `usize::MAX` (never measured) keeps a qubit live throughout.
        let live = |q: usize, k: usize| k < last_measure[q];
        for (k, op) in program.ops.iter().enumerate() {
            match *op {
                NoisyOp::Gate(i) => {
                    let instr = &circuit.instructions()[i];
                    self.apply_gate(&instr.gate, &instr.qubits);
                }
                NoisyOp::Depolarize { ref qubits, p } => match qubits[..] {
                    [q] => self.depolarize(q, p),
                    [a, b] => self.depolarize2(a, b, p),
                    _ => unreachable!("depolarizing acts on one or two qubits"),
                },
                NoisyOp::Measure { q, flip } => {
                    self.dephase(q, 0.5);
                    if k == last_measure[q] {
                        self.classical_bitflip(q, flip);
                    }
                }
                NoisyOp::Reset { q, flip } => {
                    self.amplitude_damp(q, 1.0);
                    self.classical_bitflip(q, flip);
                }
                NoisyOp::Idle { q, gamma, p_phi } if live(q, k) => {
                    self.amplitude_damp(q, gamma);
                    self.dephase(q, p_phi);
                }
                NoisyOp::Pauli { q, probs } if live(q, k) => self.pauli_channel(q, probs),
                NoisyOp::Idle { .. } | NoisyOp::Pauli { .. } => {}
            }
        }
    }

    /// The exact two-qubit depolarizing channel: with probability `p` a
    /// uniformly random non-identity two-qubit Pauli is applied (matching
    /// the trajectory sampler's convention).
    pub fn depolarize2(&mut self, q0: usize, q1: usize, p: f64) {
        if p <= 0.0 {
            return;
        }
        // rho -> (1-p) rho + p/15 sum_{P != II} P rho P.
        let paulis = [Gate::I, Gate::X, Gate::Y, Gate::Z];
        let original = self.clone();
        // Start with the (1-p) identity part.
        for e in self.elems.iter_mut() {
            *e = e.scale(1.0 - p);
        }
        for (i, ga) in paulis.iter().enumerate() {
            for (j, gb) in paulis.iter().enumerate() {
                if i == 0 && j == 0 {
                    continue;
                }
                let mut term = original.clone();
                if *ga != Gate::I {
                    term.apply_gate(ga, &[q0]);
                }
                if *gb != Gate::I {
                    term.apply_gate(gb, &[q1]);
                }
                let w = p / 15.0;
                for (dst, src) in self.elems.iter_mut().zip(&term.elems) {
                    *dst += src.scale(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::noise::NoiseModel;
    use crate::state::StateVector;

    #[test]
    fn pure_state_evolution_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(0.7, 2).cz(1, 2).rzz(0.4, 0, 2);
        let psi: StateVector = Executor::final_state(&c).expect("unitary circuit");
        let mut rho = DensityMatrix::zero_state(3);
        rho.run_program(&c, &NoisyProgram::lower(&c, &NoiseModel::ideal()));
        for (i, p) in psi.probabilities().iter().enumerate() {
            assert!(
                (rho.probability_of_basis(i as u64) - p).abs() < 1e-10,
                "i={i}"
            );
        }
        assert!((rho.purity() - 1.0).abs() < 1e-10);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarization_at_three_quarters_gives_maximally_mixed() {
        // The "with probability p apply a random Pauli" convention reaches
        // the maximally mixed state at p = 3/4, where the channel equals
        // (rho + X rho X + Y rho Y + Z rho Z)/4 = I/2.
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H, &[0]);
        rho.depolarize(0, 0.75);
        assert!((rho.probability_of_basis(0) - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
        // At p = 1 the state is (rho + 2|-><-|)/3 for input |+>: purity 5/9.
        let mut rho2 = DensityMatrix::zero_state(1);
        rho2.apply_gate(&Gate::H, &[0]);
        rho2.depolarize(0, 1.0);
        assert!(
            (rho2.purity() - 5.0 / 9.0).abs() < 1e-12,
            "purity={}",
            rho2.purity()
        );
    }

    #[test]
    fn amplitude_damping_fixed_point_is_ground_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::X, &[0]);
        rho.amplitude_damp(0, 0.3);
        assert!((rho.probability_of_basis(1) - 0.7).abs() < 1e-12);
        rho.amplitude_damp(0, 1.0);
        assert!((rho.probability_of_basis(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dephasing_kills_coherences_not_populations() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H, &[0]);
        let before = rho.probabilities();
        rho.dephase(0, 0.5); // Kraus weights give off-diagonal damping
        let after = rho.probabilities();
        assert!((before[0] - after[0]).abs() < 1e-12);
        // Purity drops strictly below 1.
        assert!(rho.purity() < 0.999);
    }

    #[test]
    fn program_applies_reset_readout_and_freezes_measured_qubits() {
        // q0: X, reset (error 0.2), measure (readout error 0.1), then idles
        // through q1's long readout. Its record is already final, so the
        // idle decay must not reach the distribution.
        let mut c = Circuit::new(2);
        c.x(0).reset(0).measure(0).barrier_all().x(1).measure(1);
        let noise = NoiseModel {
            reset_error: 0.2,
            readout_error: 0.1,
            t1: 1.0,
            ..NoiseModel::ideal()
        };
        let mut rho = DensityMatrix::zero_state(2);
        rho.run_program(&c, &NoisyProgram::lower(&c, &noise));
        // q0 reads 1 if the reset failed xor the readout flipped; q1 is
        // excited only after q0's readout and reads 1 unless flipped.
        let q0_one = 0.2 * 0.9 + 0.8 * 0.1;
        let q0 = rho.probability_of_basis(0b01) + rho.probability_of_basis(0b11);
        assert!((q0 - q0_one).abs() < 1e-12, "q0: {q0}");
        let q1 = rho.probability_of_basis(0b10) + rho.probability_of_basis(0b11);
        assert!((q1 - 0.9).abs() < 1e-12, "q1: {q1}");
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn classical_bitflip_mixes_outcomes() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::X, &[1]);
        rho.classical_bitflip(1, 0.25);
        assert!((rho.probability_of_basis(0b10) - 0.75).abs() < 1e-12);
        assert!((rho.probability_of_basis(0b00) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn two_qubit_depolarizing_preserves_trace() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::H, &[0]);
        rho.apply_gate(&Gate::Cx, &[0, 1]);
        rho.depolarize2(0, 1, 0.2);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        assert!(rho.purity() < 1.0);
        // Bell parity is damped: P(00) + P(11) = 1 - p * 8/15 ... just check
        // it dropped but remains dominant.
        let even = rho.probability_of_basis(0) + rho.probability_of_basis(3);
        assert!(even < 1.0 && even > 0.8, "even={even}");
    }

    #[test]
    #[should_panic(expected = "register too large")]
    fn rejects_oversized_register() {
        DensityMatrix::zero_state(MAX_DENSITY_QUBITS + 1);
    }
}
