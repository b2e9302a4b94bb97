//! The [`Circuit`] container and its builder API.

use crate::gate::{Gate, GateKind};
use crate::CircuitError;

/// A single operation applied to an ordered list of qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The operation.
    pub gate: Gate,
    /// Operand qubits, in gate order (e.g. `[control, target]` for `Cx`).
    pub qubits: Vec<usize>,
}

impl Instruction {
    /// Creates a new instruction.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        Instruction { gate, qubits }
    }

    /// `true` if this instruction is a two-qubit unitary.
    pub fn is_two_qubit(&self) -> bool {
        self.gate.is_two_qubit()
    }
}

/// A quantum circuit over `num_qubits` qubits: an ordered list of
/// [`Instruction`]s.
///
/// Builder methods (`h`, `cx`, `rz`, ...) validate operands and return
/// `&mut Self` so calls can be chained; they panic on invalid operands
/// (see [`Circuit::append`]).
///
/// # Example
///
/// ```
/// use supermarq_circuit::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// assert_eq!(bell.depth(), 2);
/// assert_eq!(bell.gate_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// Number of qubits in the circuit register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The instruction list, in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Total number of instructions excluding barriers.
    pub fn gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.kind() != GateKind::Barrier)
            .count()
    }

    /// Number of two-qubit unitary gates (`n_e` in the paper's notation).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.is_two_qubit())
            .count()
    }

    /// Number of measurement instructions.
    pub fn measurement_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.kind() == GateKind::Measurement)
            .count()
    }

    /// Number of reset instructions.
    pub fn reset_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.kind() == GateKind::Reset)
            .count()
    }

    /// `true` if the circuit contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends an instruction after validating its operands.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if any operand is out of
    /// range, [`CircuitError::DuplicateQubit`] if a multi-qubit gate
    /// repeats an operand, and [`CircuitError::ArityMismatch`] if the
    /// operand count does not match the gate's arity (barriers are exempt:
    /// their arity is variable).
    pub(crate) fn push(&mut self, gate: Gate, qubits: &[usize]) -> Result<&mut Self, CircuitError> {
        if gate.kind() != GateKind::Barrier && qubits.len() != gate.arity() {
            return Err(CircuitError::ArityMismatch {
                gate: gate.qasm_name(),
                expected: gate.arity(),
                got: qubits.len(),
            });
        }
        for &q in qubits {
            if q >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        for (i, &q) in qubits.iter().enumerate() {
            if qubits[..i].contains(&q) {
                return Err(CircuitError::DuplicateQubit { qubit: q });
            }
        }
        self.instructions
            .push(Instruction::new(gate, qubits.to_vec()));
        Ok(self)
    }

    /// Appends an instruction without any operand validation.
    ///
    /// This is the deliberate escape hatch for constructing malformed
    /// circuits — e.g. seeding mutations when testing the
    /// `supermarq-verify` static analyses. Production code should use
    /// [`Circuit::append`] or a builder method, which validate operands,
    /// so invalid operands cannot enter a circuit silently.
    pub fn push_unchecked(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        self.instructions
            .push(Instruction::new(gate, qubits.to_vec()));
        self
    }

    /// Appends an instruction, panicking on invalid operands.
    ///
    /// This is the convenience wrapper the builder methods (`h`, `cx`, ...)
    /// sit on.
    ///
    /// # Panics
    ///
    /// Panics with `"invalid instruction operands"` if operands are out of
    /// range, duplicated, or mismatch the gate's arity.
    pub fn append(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        self.push(gate, qubits)
            .expect("invalid instruction operands")
    }

    /// Appends every instruction of `other` to this circuit.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than this circuit has.
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot extend {}-qubit circuit with {}-qubit circuit",
            self.num_qubits,
            other.num_qubits
        );
        self.instructions.extend(other.instructions.iter().cloned());
        self
    }

    /// Returns the adjoint (inverse) of this circuit.
    ///
    /// # Errors
    ///
    /// Returns `None` if the circuit contains a non-invertible operation
    /// (measure or reset). Barriers are preserved.
    pub fn adjoint(&self) -> Option<Circuit> {
        let mut out = Circuit::new(self.num_qubits);
        for instr in self.instructions.iter().rev() {
            if instr.gate.kind() == GateKind::Barrier {
                out.instructions.push(instr.clone());
                continue;
            }
            let inv = instr.gate.inverse()?;
            out.instructions
                .push(Instruction::new(inv, instr.qubits.clone()));
        }
        Some(out)
    }

    // --- chained builder methods -------------------------------------------------

    /// Applies a Hadamard gate.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.append(Gate::H, &[q])
    }

    /// Applies a Pauli-X gate.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.append(Gate::X, &[q])
    }

    /// Applies a Pauli-Y gate.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Y, &[q])
    }

    /// Applies a Pauli-Z gate.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Z, &[q])
    }

    /// Applies an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.append(Gate::S, &[q])
    }

    /// Applies an S-dagger gate.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Sdg, &[q])
    }

    /// Applies a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.append(Gate::T, &[q])
    }

    /// Applies a T-dagger gate.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Tdg, &[q])
    }

    /// Applies a sqrt(X) gate.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Sx, &[q])
    }

    /// Applies an X-rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.append(Gate::Rx(theta), &[q])
    }

    /// Applies a Y-rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.append(Gate::Ry(theta), &[q])
    }

    /// Applies a Z-rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.append(Gate::Rz(theta), &[q])
    }

    /// Applies a phase gate `p(lambda)`.
    pub fn p(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.append(Gate::P(lambda), &[q])
    }

    /// Applies a general single-qubit unitary `u3(theta, phi, lambda)`.
    pub fn u(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.append(Gate::U(theta, phi, lambda), &[q])
    }

    /// Applies a CNOT with the given control and target.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.append(Gate::Cx, &[control, target])
    }

    /// Applies a controlled-Z.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.append(Gate::Cz, &[a, b])
    }

    /// Applies a controlled-phase gate.
    pub fn cp(&mut self, lambda: f64, a: usize, b: usize) -> &mut Self {
        self.append(Gate::Cp(lambda), &[a, b])
    }

    /// Applies a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.append(Gate::Swap, &[a, b])
    }

    /// Applies an XX-rotation.
    pub fn rxx(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.append(Gate::Rxx(theta), &[a, b])
    }

    /// Applies a ZZ-rotation.
    pub fn rzz(&mut self, theta: f64, a: usize, b: usize) -> &mut Self {
        self.append(Gate::Rzz(theta), &[a, b])
    }

    /// Measures one qubit into its like-indexed classical bit.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Measure, &[q])
    }

    /// Measures every qubit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.append(Gate::Measure, &[q]);
        }
        self
    }

    /// Resets one qubit to `|0>`.
    pub fn reset(&mut self, q: usize) -> &mut Self {
        self.append(Gate::Reset, &[q])
    }

    /// Inserts a barrier across all qubits.
    pub fn barrier_all(&mut self) -> &mut Self {
        let qubits: Vec<usize> = (0..self.num_qubits).collect();
        self.instructions
            .push(Instruction::new(Gate::Barrier, qubits));
        self
    }

    /// Inserts a barrier across the given qubits.
    ///
    /// # Panics
    ///
    /// Panics if any qubit is out of range or duplicated.
    pub fn barrier(&mut self, qubits: &[usize]) -> &mut Self {
        self.push(Gate::Barrier, qubits)
            .expect("invalid barrier operands")
    }

    /// Returns an equivalent circuit over only the qubits this circuit
    /// actually operates on, together with the old-to-new index mapping
    /// (`None` for untouched qubits).
    ///
    /// Barrier operand lists are filtered to touched qubits (and dropped
    /// when empty); barriers alone do not mark a qubit as used. This is
    /// what lets a few-qubit benchmark transpiled onto a 27-qubit device be
    /// simulated over just the qubits it occupies.
    pub fn compacted(&self) -> (Circuit, Vec<Option<usize>>) {
        let mut used = vec![false; self.num_qubits];
        for instr in &self.instructions {
            if instr.gate.kind() != GateKind::Barrier {
                for &q in &instr.qubits {
                    used[q] = true;
                }
            }
        }
        let mut mapping: Vec<Option<usize>> = vec![None; self.num_qubits];
        let mut next = 0usize;
        for (q, m) in mapping.iter_mut().enumerate() {
            if used[q] {
                *m = Some(next);
                next += 1;
            }
        }
        let mut out = Circuit::new(next);
        for instr in &self.instructions {
            let qubits: Vec<usize> = instr.qubits.iter().filter_map(|&q| mapping[q]).collect();
            if instr.gate.kind() == GateKind::Barrier {
                if !qubits.is_empty() {
                    out.instructions
                        .push(Instruction::new(Gate::Barrier, qubits));
                }
            } else {
                out.instructions.push(Instruction::new(instr.gate, qubits));
            }
        }
        (out, mapping)
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl Extend<Instruction> for Circuit {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        for instr in iter {
            self.push(instr.gate, &instr.qubits)
                .expect("invalid instruction operands");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitError;

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(4);
        assert_eq!(c.num_qubits(), 4);
        assert!(c.is_empty());
        assert_eq!(c.gate_count(), 0);
    }

    #[test]
    fn builder_chains_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(0.5, 2).measure_all();
        assert_eq!(c.gate_count(), 7);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.measurement_count(), 3);
        assert_eq!(c.reset_count(), 0);
    }

    #[test]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        let err = c.push(Gate::H, &[2]).unwrap_err();
        assert_eq!(
            err,
            CircuitError::QubitOutOfRange {
                qubit: 2,
                num_qubits: 2
            }
        );
    }

    #[test]
    fn push_rejects_duplicates() {
        let mut c = Circuit::new(2);
        let err = c.push(Gate::Cx, &[1, 1]).unwrap_err();
        assert_eq!(err, CircuitError::DuplicateQubit { qubit: 1 });
    }

    #[test]
    fn push_rejects_arity_mismatch() {
        let mut c = Circuit::new(3);
        let err = c.push(Gate::Cx, &[0]).unwrap_err();
        assert_eq!(
            err,
            CircuitError::ArityMismatch {
                gate: "cx",
                expected: 2,
                got: 1
            }
        );
        let err = c.push(Gate::H, &[0, 1]).unwrap_err();
        assert_eq!(
            err,
            CircuitError::ArityMismatch {
                gate: "h",
                expected: 1,
                got: 2
            }
        );
        // Barriers take any number of operands.
        assert!(c.push(Gate::Barrier, &[0, 1, 2]).is_ok());
        assert!(c.push(Gate::Barrier, &[]).is_ok());
    }

    #[test]
    fn push_unchecked_bypasses_validation() {
        let mut c = Circuit::new(1);
        c.push_unchecked(Gate::Cx, &[0, 7]);
        assert_eq!(c.gate_count(), 1);
        assert_eq!(c.instructions()[0].qubits, vec![0, 7]);
    }

    #[test]
    #[should_panic(expected = "invalid instruction operands")]
    fn append_panics_on_bad_operand() {
        let mut c = Circuit::new(1);
        c.append(Gate::Cx, &[0, 1]);
    }

    #[test]
    fn adjoint_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(0).cx(0, 1).t(1);
        let adj = c.adjoint().unwrap();
        let gates: Vec<Gate> = adj.iter().map(|i| i.gate).collect();
        assert_eq!(gates, vec![Gate::Tdg, Gate::Cx, Gate::Sdg, Gate::H]);
    }

    #[test]
    fn adjoint_fails_with_measurement() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        assert!(c.adjoint().is_none());
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.extend_from(&b);
        assert_eq!(a.gate_count(), 2);
        assert_eq!(a.instructions()[1].gate, Gate::Cx);
    }

    #[test]
    #[should_panic(expected = "cannot extend")]
    fn extend_from_rejects_larger_register() {
        let mut a = Circuit::new(1);
        let b = Circuit::new(2);
        a.extend_from(&b);
    }

    #[test]
    fn barriers_excluded_from_gate_count() {
        let mut c = Circuit::new(2);
        c.h(0).barrier_all().h(1);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.instructions().len(), 3);
    }

    #[test]
    fn into_iterator_and_extend() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let instrs: Vec<Instruction> = (&c).into_iter().cloned().collect();
        let mut d = Circuit::new(2);
        d.extend(instrs);
        assert_eq!(c, d);
    }
}
