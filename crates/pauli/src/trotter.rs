//! Generic Trotterization: compiling `exp(-i H t)` for a Pauli-sum
//! Hamiltonian into a circuit.
//!
//! The Hamiltonian-simulation benchmark hand-writes its TFIM Trotter
//! circuit; this module provides the general machinery (paper Sec. IV-F
//! cites Trotterization as the circuit-generation method): each term
//! `c * P` becomes a basis change into Z-type support, a CX parity ladder,
//! an `Rz(2 c dt)` on the ladder root, and the uncomputation.

use supermarq_circuit::{Circuit, Gate};

use crate::string::{Pauli, PauliString};
use crate::sum::PauliSum;

/// Appends `exp(-i theta P)` for a single Pauli string to `circuit`.
///
/// Identity strings contribute only a global phase and emit nothing.
///
/// # Panics
///
/// Panics if the string length mismatches the circuit width.
pub(crate) fn append_pauli_exponential(circuit: &mut Circuit, p: &PauliString, theta: f64) {
    assert_eq!(p.num_qubits(), circuit.num_qubits(), "size mismatch");
    let support = p.support();
    if support.is_empty() {
        return;
    }
    // Basis change: X -> H, Y -> Sdg then H (so that the term becomes Z).
    for &q in &support {
        match p.get(q) {
            Pauli::X => {
                circuit.h(q);
            }
            Pauli::Y => {
                circuit.sdg(q).h(q);
            }
            Pauli::Z | Pauli::I => {}
        }
    }
    // Parity ladder onto the last support qubit.
    for w in support.windows(2) {
        circuit.cx(w[0], w[1]);
    }
    let root = *support.last().expect("non-empty support");
    circuit.rz(2.0 * theta, root);
    for w in support.windows(2).rev() {
        circuit.cx(w[0], w[1]);
    }
    // Undo basis change.
    for &q in &support {
        match p.get(q) {
            Pauli::X => {
                circuit.h(q);
            }
            Pauli::Y => {
                circuit.append(Gate::H, &[q]);
                circuit.s(q);
            }
            Pauli::Z | Pauli::I => {}
        }
    }
}

/// Builds the first-order Trotter circuit for `exp(-i H t)` with the given
/// number of steps: `prod_k [ prod_terms exp(-i c_j P_j dt) ]`.
///
/// # Panics
///
/// Panics if `steps == 0`.
///
/// # Example
///
/// ```
/// use supermarq_pauli::{tfim_hamiltonian, trotter::trotter_circuit};
///
/// let h = tfim_hamiltonian(4, 1.0, 0.5);
/// let circuit = trotter_circuit(&h, 0.3, 5);
/// assert_eq!(circuit.num_qubits(), 4);
/// assert!(circuit.two_qubit_gate_count() > 0);
/// ```
pub fn trotter_circuit(h: &PauliSum, t: f64, steps: usize) -> Circuit {
    assert!(steps > 0, "need at least one Trotter step");
    let dt = t / steps as f64;
    let mut circuit = Circuit::new(h.num_qubits());
    for _ in 0..steps {
        for (c, p) in h.iter() {
            append_pauli_exponential(&mut circuit, p, c * dt);
        }
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::tfim_hamiltonian;
    use supermarq_circuit::C64;
    use supermarq_sim::{Executor, StateVector};

    /// Exact `exp(-i theta P)|psi>` using `P^2 = I`:
    /// `cos(theta) |psi> - i sin(theta) P |psi>`, with `P` applied as
    /// gates (keeping this test independent of the sim crate's Pauli
    /// types, which would otherwise be a second crate version).
    fn exact_pauli_exponential(p: &PauliString, theta: f64, psi: &StateVector) -> StateVector {
        let mut p_psi = psi.clone();
        for (q, &pauli) in p.paulis().iter().enumerate() {
            match pauli {
                Pauli::I => {}
                Pauli::X => p_psi.apply_gate(&Gate::X, &[q]),
                Pauli::Y => p_psi.apply_gate(&Gate::Y, &[q]),
                Pauli::Z => p_psi.apply_gate(&Gate::Z, &[q]),
            }
        }
        let amps: Vec<C64> = psi
            .amplitudes()
            .iter()
            .zip(p_psi.amplitudes())
            .map(|(&a, &b)| a.scale(theta.cos()) + (C64::new(0.0, -theta.sin()) * b))
            .collect();
        StateVector::from_amplitudes(amps)
    }

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn single_z_exponential_is_rz() {
        // exp(-i theta Z) == Rz(2 theta).
        let mut c = Circuit::new(1);
        append_pauli_exponential(&mut c, &ps("Z"), 0.4);
        assert_eq!(c.gate_count(), 1);
        assert_eq!(c.instructions()[0].gate, Gate::Rz(0.8));
    }

    #[test]
    fn identity_term_emits_nothing() {
        let mut c = Circuit::new(2);
        append_pauli_exponential(&mut c, &ps("II"), 1.0);
        assert!(c.is_empty());
    }

    #[test]
    fn x_exponential_matches_rx() {
        // exp(-i theta X) == Rx(2 theta) up to global phase: compare on a
        // superposition state.
        let theta = 0.7;
        let mut via_pauli = Circuit::new(1);
        via_pauli.ry(0.9, 0);
        append_pauli_exponential(&mut via_pauli, &ps("X"), theta);
        let mut via_rx = Circuit::new(1);
        via_rx.ry(0.9, 0).rx(2.0 * theta, 0);
        let a = Executor::final_state(&via_pauli).expect("unitary circuit");
        let b = Executor::final_state(&via_rx).expect("unitary circuit");
        assert!(a.fidelity(&b) > 1.0 - 1e-10);
    }

    #[test]
    fn y_exponential_matches_ry() {
        let theta = -0.6;
        let mut via_pauli = Circuit::new(1);
        via_pauli.h(0);
        append_pauli_exponential(&mut via_pauli, &ps("Y"), theta);
        let mut via_ry = Circuit::new(1);
        via_ry.h(0).ry(2.0 * theta, 0);
        let a = Executor::final_state(&via_pauli).expect("unitary circuit");
        let b = Executor::final_state(&via_ry).expect("unitary circuit");
        assert!(a.fidelity(&b) > 1.0 - 1e-10, "fid={}", a.fidelity(&b));
    }

    #[test]
    fn zz_exponential_matches_rzz() {
        let theta = 0.35;
        let mut via_pauli = Circuit::new(2);
        via_pauli.h(0).h(1);
        append_pauli_exponential(&mut via_pauli, &ps("ZZ"), theta);
        let mut via_rzz = Circuit::new(2);
        via_rzz.h(0).h(1).rzz(2.0 * theta, 0, 1);
        let a = Executor::final_state(&via_pauli).expect("unitary circuit");
        let b = Executor::final_state(&via_rzz).expect("unitary circuit");
        assert!(a.fidelity(&b) > 1.0 - 1e-10);
    }

    #[test]
    fn mixed_weight3_exponential_matches_analytic_form() {
        // Compare exp(-i theta XYZ) acting on a random-ish state against
        // the closed form cos(theta) I - i sin(theta) XYZ.
        let theta = 0.45;
        let mut prep = Circuit::new(3);
        prep.ry(0.8, 0).ry(1.9, 1).ry(0.3, 2).cx(0, 1);
        let psi0 = Executor::final_state(&prep).expect("unitary circuit");
        let exact = exact_pauli_exponential(&ps("XYZ"), theta, &psi0);
        let mut circuit = prep.clone();
        append_pauli_exponential(&mut circuit, &ps("XYZ"), theta);
        let via_circuit = Executor::final_state(&circuit).expect("unitary circuit");
        assert!(
            via_circuit.fidelity(&exact) > 1.0 - 1e-9,
            "fid={}",
            via_circuit.fidelity(&exact)
        );
    }

    #[test]
    fn trotterized_tfim_converges_with_step_count() {
        // First-order Trotter: error vs a very fine reference must fall as
        // steps grow. (A Krylov cross-check against the exact propagator
        // lives in the workspace integration tests, where a single version
        // of every crate is in scope.)
        let n = 4;
        let h = tfim_hamiltonian(n, 1.0, 0.7);
        let t = 0.5;
        let run = |steps: usize| -> StateVector {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.h(q);
            }
            let trot = trotter_circuit(&h, t, steps);
            c.extend_from(&trot);
            Executor::final_state(&c).expect("unitary circuit")
        };
        let reference = run(1024);
        let mut last_err = f64::INFINITY;
        for steps in [2usize, 8, 32] {
            let err = 1.0 - run(steps).fidelity(&reference);
            assert!(
                err < last_err + 1e-12,
                "steps={steps}: err={err} last={last_err}"
            );
            last_err = err;
        }
        assert!(last_err < 1e-3, "final error {last_err}");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn rejects_mismatched_register() {
        let mut c = Circuit::new(2);
        append_pauli_exponential(&mut c, &ps("ZZZ"), 0.1);
    }
}
