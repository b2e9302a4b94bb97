//! Phase-tracked Pauli strings under Clifford conjugation.
//!
//! [`SignedPauli::apply`] is the crate's one statement of the Clifford
//! sign and bit rules: the CHP tableau conjugates each of its `2n` rows
//! with it, the stabilizer executor its per-shot Pauli frames, and
//! [`crate::diagonalize`] its generators.

use supermarq_circuit::{GateKind, Instruction};
use supermarq_pauli::PauliString;

use crate::ops::{clifford_ops, CliffordOp};

/// A Pauli string together with a sign, `(-1)^minus * P`, that can be
/// conjugated by Clifford gates: applying gate `G` maps the operator to
/// `G P G^\dagger`.
///
/// Clifford conjugation of a Hermitian Pauli keeps it a Hermitian Pauli, so
/// a single sign bit suffices (no `i` phases appear).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SignedPauli {
    pub(crate) x: Vec<bool>,
    pub(crate) z: Vec<bool>,
    pub(crate) minus: bool,
}

impl SignedPauli {
    /// Wraps a plain Pauli string with a positive sign.
    pub(crate) fn from_string(p: &PauliString) -> Self {
        let (x, z) = p.to_xz_bits();
        SignedPauli { x, z, minus: false }
    }

    /// The positive identity on `n` qubits.
    pub(crate) fn identity(n: usize) -> Self {
        SignedPauli {
            x: vec![false; n],
            z: vec![false; n],
            minus: false,
        }
    }

    /// Number of qubits.
    pub(crate) fn num_qubits(&self) -> usize {
        self.x.len()
    }

    /// `true` if the sign is negative.
    pub(crate) fn is_negative(&self) -> bool {
        self.minus
    }

    /// The sign as `+1.0` or `-1.0`.
    pub(crate) fn sign(&self) -> f64 {
        if self.minus {
            -1.0
        } else {
            1.0
        }
    }

    /// The underlying (unsigned) Pauli string.
    pub(crate) fn to_pauli_string(&self) -> PauliString {
        PauliString::from_xz_bits(&self.x, &self.z)
    }

    /// `true` if no site carries an X component (the operator is diagonal in
    /// the computational basis).
    pub(crate) fn is_diagonal(&self) -> bool {
        self.x.iter().all(|&b| !b)
    }

    /// The Z-support bit mask (valid once diagonal): bit `q` set when site
    /// `q` carries Z.
    ///
    /// # Panics
    ///
    /// Panics if the operator is not diagonal or has more than 64 qubits.
    pub(crate) fn z_mask(&self) -> u64 {
        assert!(self.is_diagonal(), "operator is not diagonal");
        assert!(self.num_qubits() <= 64, "mask limited to 64 qubits");
        let mut mask = 0u64;
        for (q, &zq) in self.z.iter().enumerate() {
            if zq {
                mask |= 1 << q;
            }
        }
        mask
    }

    /// The X bit at `qubit`.
    pub(crate) fn x_bit(&self, qubit: usize) -> bool {
        self.x[qubit]
    }

    /// The Z bit at `qubit`.
    pub(crate) fn z_bit(&self, qubit: usize) -> bool {
        self.z[qubit]
    }

    /// Conjugates the operator by one Clifford primitive:
    /// `P -> U P U^\dagger`. Sign flips read the bits before the update.
    ///
    /// # Panics
    ///
    /// Panics if an operand is out of range.
    #[inline]
    pub(crate) fn apply(&mut self, op: CliffordOp) {
        let (x, z) = (&mut self.x, &mut self.z);
        match op {
            CliffordOp::H(q) => {
                // X <-> Z, Y -> -Y.
                self.minus ^= x[q] & z[q];
                std::mem::swap(&mut x[q], &mut z[q]);
            }
            CliffordOp::S(q) => {
                // X -> Y, Y -> -X, Z -> Z.
                self.minus ^= x[q] & z[q];
                z[q] ^= x[q];
            }
            CliffordOp::Sdg(q) => {
                // X -> -Y, Y -> X, Z -> Z.
                self.minus ^= x[q] & !z[q];
                z[q] ^= x[q];
            }
            // X flips Z and Y; Z flips X and Y.
            CliffordOp::X(q) => self.minus ^= z[q],
            CliffordOp::Z(q) => self.minus ^= x[q],
            CliffordOp::Cx(c, t) => {
                // X_c -> X_c X_t, Z_t -> Z_c Z_t (Aaronson–Gottesman).
                self.minus ^= x[c] & z[t] & (x[t] == z[c]);
                x[t] ^= x[c];
                z[c] ^= z[t];
            }
            CliffordOp::Cz(a, b) => {
                // X_a -> X_a Z_b, X_b -> Z_a X_b.
                self.minus ^= x[a] & x[b] & (z[a] ^ z[b]);
                z[a] ^= x[b];
                z[b] ^= x[a];
            }
            CliffordOp::Swap(a, b) => {
                x.swap(a, b);
                z.swap(a, b);
            }
        }
    }

    /// Left-multiplies by a commuting operator, `P -> Q P` (the
    /// Aaronson–Gottesman `rowsum`). The product of anticommuting
    /// operators carries an `i` phase, which no sign bit can hold; the
    /// sign is then meaningless.
    pub(crate) fn left_multiply(&mut self, q: &SignedPauli) {
        // Powers of i: 2 per minus sign, plus one g term per site.
        let mut phase = 2 * (i32::from(self.minus) + i32::from(q.minus));
        for j in 0..self.x.len() {
            phase += g_phase(q.x[j], q.z[j], self.x[j], self.z[j]);
            self.x[j] ^= q.x[j];
            self.z[j] ^= q.z[j];
        }
        self.minus = phase.rem_euclid(4) == 2;
    }

    /// Conjugates through every instruction of a circuit, in program order,
    /// yielding `C P C^\dagger` for the whole circuit `C`. Each gate is
    /// lowered through [`clifford_ops`].
    ///
    /// Barriers and measurements are skipped (measurement is not a
    /// conjugation; callers apply this before the readout layer).
    ///
    /// # Panics
    ///
    /// Panics on a reset or a unitary that is not Clifford.
    pub(crate) fn conjugate_circuit(&mut self, instructions: &[Instruction]) {
        for instr in instructions {
            match clifford_ops(instr) {
                Some(ops) => ops.into_iter().for_each(|op| self.apply(op)),
                None if matches!(instr.gate.kind(), GateKind::Barrier | GateKind::Measurement) => {}
                None => panic!("{:?} is not a supported Clifford gate", instr.gate),
            }
        }
    }
}

/// AG phase function `g(x1, z1, x2, z2)`: the exponent of `i` produced when
/// multiplying the single-qubit Paulis `(x1, z1) * (x2, z2)`.
fn g_phase(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
    match (x1, z1) {
        (false, false) => 0,
        (true, true) => (z2 as i32) - (x2 as i32),
        (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1),
        (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_circuit::{Circuit, Gate, C64};
    use supermarq_pauli::Pauli;
    use supermarq_sim::StateVector;

    fn sp(s: &str) -> SignedPauli {
        SignedPauli::from_string(&s.parse().unwrap())
    }

    type M2 = [[C64; 2]; 2];
    type M4 = [[C64; 4]; 4];

    /// `a (x) b`, with `a` on qubit 0, the most significant index bit (the
    /// basis order of `Gate::matrix2`).
    fn kron(a: M2, b: M2) -> M4 {
        let mut out = [[C64::ZERO; 4]; 4];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, entry) in row.iter_mut().enumerate() {
                *entry = a[r / 2][c / 2] * b[r % 2][c % 2];
            }
        }
        out
    }

    fn mul(a: &M4, b: &M4) -> M4 {
        let mut out = [[C64::ZERO; 4]; 4];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, entry) in row.iter_mut().enumerate() {
                for (k, bk) in b.iter().enumerate() {
                    *entry += a[r][k] * bk[c];
                }
            }
        }
        out
    }

    fn dagger(a: &M4) -> M4 {
        let mut out = [[C64::ZERO; 4]; 4];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, entry) in row.iter_mut().enumerate() {
                *entry = a[c][r].conj();
            }
        }
        out
    }

    /// The dense matrix of a signed two-qubit Pauli.
    fn dense(p: &SignedPauli) -> M4 {
        let (z, o, i) = (C64::ZERO, C64::ONE, C64::I);
        let factor = |q| match p.to_pauli_string().get(q) {
            Pauli::I => [[o, z], [z, o]],
            Pauli::X => [[z, o], [o, z]],
            Pauli::Y => [[z, -i], [i, z]],
            Pauli::Z => [[o, z], [z, -o]],
        };
        let mut m = kron(factor(0), factor(1));
        for entry in m.iter_mut().flatten() {
            *entry = *entry * p.sign();
        }
        m
    }

    /// The dense two-qubit unitary of `op`, from the matrix of the gate
    /// [`CliffordOp::to_instruction`] emits.
    fn unitary(op: CliffordOp) -> M4 {
        let instr = op.to_instruction();
        let id = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]];
        match instr.qubits[..] {
            [0] => kron(instr.gate.matrix1().unwrap(), id),
            [1] => kron(id, instr.gate.matrix1().unwrap()),
            [0, 1] => instr.gate.matrix2().unwrap(),
            [1, 0] => {
                let swap = Gate::Swap.matrix2().unwrap();
                mul(&mul(&swap, &instr.gate.matrix2().unwrap()), &swap)
            }
            _ => unreachable!("two-qubit register"),
        }
    }

    /// All 32 signed two-qubit Paulis.
    fn signed_paulis() -> Vec<SignedPauli> {
        let mut out = Vec::new();
        for a in Pauli::ALL {
            for b in Pauli::ALL {
                for minus in [false, true] {
                    let mut p = SignedPauli::from_string(&PauliString::new(vec![a, b]));
                    p.minus = minus;
                    out.push(p);
                }
            }
        }
        out
    }

    fn assert_dense_eq(got: &M4, want: &M4, what: &str) {
        for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
            assert!(g.approx_eq(*w, 1e-12), "{what}: {got:?} != {want:?}");
        }
    }

    /// The exact oracle for the one rule set: every primitive, on every
    /// wire (order), maps each signed two-qubit Pauli `P` to `U P U^dagger`
    /// computed from the dense gate matrix. This covers the sign of every
    /// row a tableau can hold, destabilizers included.
    #[test]
    fn apply_matches_dense_conjugation_for_every_primitive() {
        let mut ops = Vec::new();
        for q in [0, 1] {
            use CliffordOp::*;
            ops.extend([H(q), S(q), Sdg(q), X(q), Z(q)]);
        }
        for (a, b) in [(0, 1), (1, 0)] {
            use CliffordOp::*;
            ops.extend([Cx(a, b), Cz(a, b), Swap(a, b)]);
        }
        for op in ops {
            let u = unitary(op);
            for p in signed_paulis() {
                let want = mul(&mul(&u, &dense(&p)), &dagger(&u));
                let mut got = p.clone();
                got.apply(op);
                assert_dense_eq(&dense(&got), &want, &format!("{op:?} on {p:?}"));
            }
        }
    }

    /// `left_multiply` is the matrix product for every commuting pair.
    #[test]
    fn left_multiply_matches_the_dense_product() {
        for p in signed_paulis() {
            for q in signed_paulis() {
                let (dp, dq) = (dense(&p), dense(&q));
                let (pq, qp) = (mul(&dq, &dp), mul(&dp, &dq));
                let mut pairs = pq.iter().flatten().zip(qp.iter().flatten());
                if !pairs.all(|(a, b)| a.approx_eq(*b, 1e-12)) {
                    continue; // anticommuting: the product has an i phase
                }
                let mut got = p.clone();
                got.left_multiply(&q);
                assert_dense_eq(&dense(&got), &pq, &format!("{q:?} * {p:?}"));
            }
        }
    }

    #[test]
    fn hadamard_exchanges_x_and_z() {
        let mut p = sp("X");
        p.apply(CliffordOp::H(0));
        assert_eq!(p.to_pauli_string().to_string(), "Z");
        assert!(!p.is_negative());
        let mut p = sp("Y");
        p.apply(CliffordOp::H(0));
        assert_eq!(p.to_pauli_string().to_string(), "Y");
        assert!(p.is_negative()); // H Y H = -Y
    }

    #[test]
    fn s_gate_rotation() {
        let mut p = sp("X");
        p.apply(CliffordOp::S(0));
        assert_eq!(p.to_pauli_string().to_string(), "Y");
        assert!(!p.is_negative());
        let mut p = sp("Y");
        p.apply(CliffordOp::S(0));
        assert_eq!(p.to_pauli_string().to_string(), "X");
        assert!(p.is_negative()); // S Y Sdg = -X
        let mut p = sp("X");
        p.apply(CliffordOp::Sdg(0));
        assert_eq!(p.to_pauli_string().to_string(), "Y");
        assert!(p.is_negative()); // Sdg X S = -Y
    }

    #[test]
    fn pauli_gates_flip_signs() {
        let mut p = sp("Z");
        p.apply(CliffordOp::X(0));
        assert!(p.is_negative());
        let mut p = sp("X");
        p.apply(CliffordOp::Z(0));
        assert!(p.is_negative());
        // Y has no primitive: it lowers through `clifford_ops`.
        let mut p = sp("Y");
        p.conjugate_circuit(&[Instruction::new(Gate::Y, vec![0])]);
        assert!(!p.is_negative());
    }

    #[test]
    fn z_mask_of_diagonal() {
        let p = sp("ZIZ");
        assert!(p.is_diagonal());
        assert_eq!(p.z_mask(), 0b101);
        assert!(!sp("XI").is_diagonal());
    }

    /// Cross-validates the conjugation engine against exact statevector
    /// algebra: for random Clifford circuits `C` and Paulis `P`, check that
    /// `C P C^\dagger` computed symbolically equals the matrix product.
    #[test]
    fn conjugation_matches_statevector_algebra() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        let n = 3;
        for _trial in 0..40 {
            // Random Clifford circuit.
            let mut circuit = Circuit::new(n);
            for _ in 0..8 {
                match rng.gen_range(0..5) {
                    0 => {
                        circuit.h(rng.gen_range(0..n));
                    }
                    1 => {
                        circuit.s(rng.gen_range(0..n));
                    }
                    2 => {
                        circuit.sdg(rng.gen_range(0..n));
                    }
                    3 => {
                        let a = rng.gen_range(0..n);
                        let b = (a + rng.gen_range(1..n)) % n;
                        circuit.cx(a, b);
                    }
                    _ => {
                        let a = rng.gen_range(0..n);
                        let b = (a + rng.gen_range(1..n)) % n;
                        circuit.cz(a, b);
                    }
                }
            }
            // Random Pauli string (not all-identity).
            let paulis: Vec<Pauli> = (0..n)
                .map(|_| [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][rng.gen_range(0..4usize)])
                .collect();
            let p = PauliString::new(paulis);
            if p.is_identity() {
                continue;
            }
            // Symbolic conjugation.
            let mut signed = SignedPauli::from_string(&p);
            signed.conjugate_circuit(circuit.instructions());
            // Statevector check: for random |psi>, <psi| C P C^dag |psi>
            // must equal sign * <psi| Q |psi> where Q is the symbolic
            // result. Build |psi> = C |basis-ish random state>.
            let mut psi = StateVector::zero_state(n);
            for q in 0..n {
                psi.apply_gate(&Gate::Ry(rng.gen_range(0.0..3.0)), &[q]);
                psi.apply_gate(&Gate::Rz(rng.gen_range(0.0..3.0)), &[q]);
            }
            psi.apply_gate(&Gate::Cx, &[0, 1]);
            // LHS: <psi| C P C^dag |psi> = <C^dag psi | P | C^dag psi>.
            let adj = circuit.adjoint().expect("clifford circuits are unitary");
            let mut phi = psi.clone();
            for instr in adj.iter() {
                phi.apply_instruction(instr);
            }
            let lhs = phi.expectation_pauli(&p);
            let rhs = signed.sign() * psi.expectation_pauli(&signed.to_pauli_string());
            assert!((lhs - rhs).abs() < 1e-9, "lhs={lhs} rhs={rhs} p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "not a supported Clifford gate")]
    fn non_clifford_gate_rejected() {
        let mut p = sp("X");
        p.conjugate_circuit(&[Instruction::new(Gate::T, vec![0])]);
    }
}
