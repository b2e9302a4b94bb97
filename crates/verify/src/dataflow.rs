//! Forward abstract interpretation over the circuit IR.
//!
//! A circuit is a loop-free, branch-free instruction list, which makes it
//! the easiest possible program to analyze: a dataflow fact computed by
//! walking the instructions once is already the fixpoint. This module
//! provides the tiny engine the concrete domains share — a [`Domain`] is an
//! initial state plus a transfer function per instruction; with no
//! branches there is nothing to join, and with no loops nothing to widen.
//!
//! Concrete domains live next door:
//!
//! * [`crate::lightcone`] — liveness and measurement lightcones (V008/V009);
//! * [`crate::stabilizer`] — Clifford tracking and the Pauli-tableau
//!   equivalence prover behind the scalable V006 tier (V010);
//! * the gate-provenance domain lives in `supermarq-transpile`, where the
//!   pass manager owns the per-pass instruction diffs that feed
//!   `Diagnostic::blame`.
//!
//! Every interpretation run is wrapped in an `obs` span named
//! `verify.dataflow` carrying the domain name, direction and gate count, so
//! traces show where analysis time goes.

use supermarq_circuit::{Circuit, Instruction};
use supermarq_obs::Span;

/// An abstract domain: a lattice of facts with a per-instruction transfer
/// function.
///
/// `transfer` receives the *original* instruction index even when the
/// interpretation direction is reversed, so findings recorded in the state
/// always refer to positions in the analyzed circuit.
pub trait Domain {
    /// The abstract state (a lattice element).
    type State;

    /// Short name used in `obs` spans and diagnostics.
    fn name(&self) -> &'static str;

    /// The state before any instruction has executed.
    fn initial(&self, circuit: &Circuit) -> Self::State;

    /// Folds one instruction into the state.
    fn transfer(&self, state: &mut Self::State, index: usize, instr: &Instruction);
}

/// Runs `domain` forward over `circuit`, returning the final state.
pub fn interpret<D: Domain>(domain: &D, circuit: &Circuit) -> D::State {
    let mut span = Span::open("verify.dataflow");
    span.record("domain", domain.name());
    span.record("direction", "forward");
    span.record("instructions", circuit.instructions().len());
    let mut state = domain.initial(circuit);
    for (i, instr) in circuit.iter().enumerate() {
        domain.transfer(&mut state, i, instr);
    }
    state
}

/// Runs `domain` over `circuit` in reverse instruction order.
///
/// Backward analyses (demand-driven facts such as measurement lightcones)
/// are forward interpretations of the reversed program; `transfer` still
/// sees original instruction indices.
pub fn interpret_rev<D: Domain>(domain: &D, circuit: &Circuit) -> D::State {
    let mut span = Span::open("verify.dataflow");
    span.record("domain", domain.name());
    span.record("direction", "reverse");
    span.record("instructions", circuit.instructions().len());
    let mut state = domain.initial(circuit);
    for (i, instr) in circuit.iter().enumerate().rev() {
        domain.transfer(&mut state, i, instr);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_circuit::GateKind;

    /// A toy domain counting unitaries, to pin the engine's contract.
    struct CountUnitaries;

    impl Domain for CountUnitaries {
        type State = (usize, Vec<usize>);

        fn name(&self) -> &'static str {
            "count-unitaries"
        }

        fn initial(&self, _circuit: &Circuit) -> Self::State {
            (0, Vec::new())
        }

        fn transfer(&self, state: &mut Self::State, index: usize, instr: &Instruction) {
            if matches!(
                instr.gate.kind(),
                GateKind::OneQubitUnitary | GateKind::TwoQubitUnitary
            ) {
                state.0 += 1;
                state.1.push(index);
            }
        }
    }

    #[test]
    fn forward_and_reverse_visit_every_instruction() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let fwd = interpret(&CountUnitaries, &c);
        assert_eq!(fwd.0, 2);
        assert_eq!(fwd.1, vec![0, 1]);
        let rev = interpret_rev(&CountUnitaries, &c);
        assert_eq!(rev.0, 2);
        // Reverse order, original indices.
        assert_eq!(rev.1, vec![1, 0]);
    }
}
