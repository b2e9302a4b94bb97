//! Clifford recognition: rewriting IR gates into tableau primitives.
//!
//! [`SignedPauli::apply`](crate::SignedPauli::apply) states a conjugation
//! rule for eight primitives ([`CliffordOp`]); the CHP tableau
//! ([`crate::StabilizerSimulator`]) applies it to each of its rows.
//! [`clifford_ops`] is the only map from IR gates onto the primitives.
//! Real transpiled circuits carry a much richer gate alphabet — fused
//! `U(theta, phi, lambda)` gates, quarter-turn `rz`/`rx`/`ry` rotations
//! from decomposition, `rxx` on ion hardware — many of which are Clifford
//! *in disguise*. This module decides, per instruction, whether the gate
//! is a Clifford unitary and if so produces an equivalent sequence of
//! tableau primitives (equal up to global phase, which conjugation never
//! sees).
//!
//! Rotation angles are snapped to the nearest multiple of `pi/2` within
//! [`ANGLE_TOL`]; fused/decomposed Clifford products land within float
//! error of an exact quarter turn, so the snap keeps symbolic verification
//! available after optimization without ever misclassifying a genuinely
//! non-Clifford rotation from the benchmark families (QAOA/VQE angles are
//! nowhere near a quarter turn in practice, and a wrong snap would be
//! caught by the equivalence check itself, not hidden).

use supermarq_circuit::{Circuit, Gate, Instruction};

/// Largest distance from an exact multiple of `pi/2` that still counts as
/// a quarter turn.
pub const ANGLE_TOL: f64 = 1e-9;

/// A Clifford primitive: one of the eight gates
/// [`SignedPauli::apply`](crate::SignedPauli::apply) states a rule for.
/// Sequences of these are what recognition produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CliffordOp {
    /// Hadamard on a wire.
    H(usize),
    /// Phase gate on a wire.
    S(usize),
    /// Inverse phase gate on a wire.
    Sdg(usize),
    /// Pauli-X on a wire.
    X(usize),
    /// Pauli-Z on a wire.
    Z(usize),
    /// CNOT (control, target).
    Cx(usize, usize),
    /// Controlled-Z.
    Cz(usize, usize),
    /// SWAP.
    Swap(usize, usize),
}

impl CliffordOp {
    /// The equivalent circuit instruction (exact, no phase ambiguity):
    /// how [`crate::diagonalize`] emits its basis change, and how tests
    /// cross-check the rules against dense matrices.
    pub fn to_instruction(self) -> Instruction {
        match self {
            CliffordOp::H(q) => Instruction::new(Gate::H, vec![q]),
            CliffordOp::S(q) => Instruction::new(Gate::S, vec![q]),
            CliffordOp::Sdg(q) => Instruction::new(Gate::Sdg, vec![q]),
            CliffordOp::X(q) => Instruction::new(Gate::X, vec![q]),
            CliffordOp::Z(q) => Instruction::new(Gate::Z, vec![q]),
            CliffordOp::Cx(a, b) => Instruction::new(Gate::Cx, vec![a, b]),
            CliffordOp::Cz(a, b) => Instruction::new(Gate::Cz, vec![a, b]),
            CliffordOp::Swap(a, b) => Instruction::new(Gate::Swap, vec![a, b]),
        }
    }
}

/// Snaps `theta` to a quarter-turn count in `0..4`, or `None` if it is not
/// within [`ANGLE_TOL`] of a multiple of `pi/2`.
pub fn quarter_turns(theta: f64) -> Option<u8> {
    let half_pi = std::f64::consts::FRAC_PI_2;
    let k = (theta / half_pi).round();
    if (theta - k * half_pi).abs() > ANGLE_TOL || !k.is_finite() {
        return None;
    }
    Some((k as i64).rem_euclid(4) as u8)
}

/// `Rz(k * pi/2)` as tableau primitives (up to global phase).
fn rz_quarters(k: u8, q: usize) -> Vec<CliffordOp> {
    match k {
        0 => vec![],
        1 => vec![CliffordOp::S(q)],
        2 => vec![CliffordOp::Z(q)],
        _ => vec![CliffordOp::Sdg(q)],
    }
}

/// `Rx(k * pi/2)` via `Rx = H Rz H`.
fn rx_quarters(k: u8, q: usize) -> Vec<CliffordOp> {
    if k == 0 {
        return vec![];
    }
    let mut ops = vec![CliffordOp::H(q)];
    ops.extend(rz_quarters(k, q));
    ops.push(CliffordOp::H(q));
    ops
}

/// `Ry(k * pi/2)` via `Ry = S Rx Sdg` (applied right-to-left: Sdg first).
fn ry_quarters(k: u8, q: usize) -> Vec<CliffordOp> {
    if k == 0 {
        return vec![];
    }
    let mut ops = vec![CliffordOp::Sdg(q)];
    ops.extend(rx_quarters(k, q));
    ops.push(CliffordOp::S(q));
    ops
}

/// `Rzz(k * pi/2)` via `Rzz = CX (I x Rz) CX`.
fn rzz_quarters(k: u8, a: usize, b: usize) -> Vec<CliffordOp> {
    if k == 0 {
        return vec![];
    }
    let mut ops = vec![CliffordOp::Cx(a, b)];
    ops.extend(rz_quarters(k, b));
    ops.push(CliffordOp::Cx(a, b));
    ops
}

/// Recognizes one instruction as a Clifford unitary.
///
/// Returns the equivalent primitive sequence (in application order, first
/// element applied first), or `None` when the gate is not Clifford.
/// Measurements, resets and barriers are *not* unitaries and return `None`;
/// callers interested in "Clifford circuit" semantics handle those
/// explicitly.
pub fn clifford_ops(instr: &Instruction) -> Option<Vec<CliffordOp>> {
    let q = |i: usize| instr.qubits[i];
    let ops = match instr.gate {
        Gate::I => vec![],
        Gate::H => vec![CliffordOp::H(q(0))],
        Gate::X => vec![CliffordOp::X(q(0))],
        // Y = iXZ: conjugation ignores the phase, so Z then X suffices.
        Gate::Y => vec![CliffordOp::Z(q(0)), CliffordOp::X(q(0))],
        Gate::Z => vec![CliffordOp::Z(q(0))],
        Gate::S => vec![CliffordOp::S(q(0))],
        Gate::Sdg => vec![CliffordOp::Sdg(q(0))],
        Gate::Sx => rx_quarters(1, q(0)),
        Gate::Sxdg => rx_quarters(3, q(0)),
        Gate::T | Gate::Tdg => return None,
        Gate::Rz(theta) | Gate::P(theta) => rz_quarters(quarter_turns(theta)?, q(0)),
        Gate::Rx(theta) => rx_quarters(quarter_turns(theta)?, q(0)),
        Gate::Ry(theta) => ry_quarters(quarter_turns(theta)?, q(0)),
        Gate::U(theta, phi, lambda) => {
            // U = e^{i a} Rz(phi) Ry(theta) Rz(lambda), applied lambda-first.
            //
            // At the gimbal-degenerate poles only a *combination* of the Z
            // angles is physical, and fused Clifford products routinely come
            // out with individually non-quarter angles there (e.g.
            // U(pi, pi/4, -3pi/4) = Rz(pi) Y up to phase):
            //   theta = 0:  U ~ Rz(phi + lambda)
            //   theta = pi: U ~ Rz(phi - lambda) Y
            match quarter_turns(theta) {
                Some(0) => rz_quarters(quarter_turns(phi + lambda)?, q(0)),
                Some(2) => {
                    // Y first (Z then X applies as X*Z ~ Y), then the rz.
                    let mut ops = vec![CliffordOp::Z(q(0)), CliffordOp::X(q(0))];
                    ops.extend(rz_quarters(quarter_turns(phi - lambda)?, q(0)));
                    ops
                }
                Some(kt) => {
                    let kp = quarter_turns(phi)?;
                    let kl = quarter_turns(lambda)?;
                    let mut ops = rz_quarters(kl, q(0));
                    ops.extend(ry_quarters(kt, q(0)));
                    ops.extend(rz_quarters(kp, q(0)));
                    ops
                }
                None => return None,
            }
        }
        Gate::Cx => vec![CliffordOp::Cx(q(0), q(1))],
        Gate::Cz => vec![CliffordOp::Cz(q(0), q(1))],
        Gate::Swap => vec![CliffordOp::Swap(q(0), q(1))],
        Gate::Cp(lambda) => match quarter_turns(lambda)? {
            0 => vec![],
            // Cp(pi) = CZ; the odd quarter turns (Cp(pi/2) = CS) are not
            // Clifford.
            2 => vec![CliffordOp::Cz(q(0), q(1))],
            _ => return None,
        },
        Gate::Rzz(theta) => rzz_quarters(quarter_turns(theta)?, q(0), q(1)),
        Gate::Rxx(theta) => {
            // Rxx = (H x H) Rzz (H x H).
            let k = quarter_turns(theta)?;
            if k == 0 {
                return Some(vec![]);
            }
            let mut ops = vec![CliffordOp::H(q(0)), CliffordOp::H(q(1))];
            ops.extend(rzz_quarters(k, q(0), q(1)));
            ops.push(CliffordOp::H(q(0)));
            ops.push(CliffordOp::H(q(1)));
            ops
        }
        Gate::Ryy(theta) => {
            // Ryy = (S x S) Rxx (Sdg x Sdg), applied Sdg-first.
            let k = quarter_turns(theta)?;
            if k == 0 {
                return Some(vec![]);
            }
            let mut ops = vec![CliffordOp::Sdg(q(0)), CliffordOp::Sdg(q(1))];
            ops.push(CliffordOp::H(q(0)));
            ops.push(CliffordOp::H(q(1)));
            ops.extend(rzz_quarters(k, q(0), q(1)));
            ops.push(CliffordOp::H(q(0)));
            ops.push(CliffordOp::H(q(1)));
            ops.push(CliffordOp::S(q(0)));
            ops.push(CliffordOp::S(q(1)));
            ops
        }
        Gate::Measure | Gate::Reset | Gate::Barrier => return None,
    };
    Some(ops)
}

/// `true` if the tableau can run `circuit`: every unitary is recognized
/// by [`clifford_ops`]. Measurements, resets and barriers are allowed.
pub fn is_clifford_circuit(circuit: &Circuit) -> bool {
    circuit
        .iter()
        .all(|instr| !instr.gate.is_unitary() || clifford_ops(instr).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};
    use supermarq_sim::StateVector;

    #[test]
    fn quarter_turn_snapping() {
        assert_eq!(quarter_turns(0.0), Some(0));
        assert_eq!(quarter_turns(FRAC_PI_2), Some(1));
        assert_eq!(quarter_turns(PI), Some(2));
        assert_eq!(quarter_turns(-FRAC_PI_2), Some(3));
        assert_eq!(quarter_turns(5.0 * FRAC_PI_2), Some(1));
        assert_eq!(quarter_turns(FRAC_PI_2 + 1e-12), Some(1));
        assert_eq!(quarter_turns(0.7), None);
        assert_eq!(quarter_turns(FRAC_PI_2 + 1e-6), None);
    }

    /// Fidelity-1 check that `ops` implements `instr` up to global phase,
    /// probed on a spread of entangled states.
    fn assert_ops_match(instr: &Instruction, ops: &[CliffordOp]) {
        let n = 2;
        for seed_gate in 0..3usize {
            let mut prep = Circuit::new(n);
            match seed_gate {
                0 => {
                    prep.h(0).cx(0, 1);
                }
                1 => {
                    prep.h(0).h(1).s(1).cz(0, 1);
                }
                _ => {
                    prep.x(0).h(1);
                }
            }
            let mut via_gate = StateVector::zero_state(n);
            let mut via_ops = StateVector::zero_state(n);
            for p in prep.iter() {
                via_gate.apply_instruction(p);
                via_ops.apply_instruction(p);
            }
            via_gate.apply_instruction(instr);
            for op in ops {
                via_ops.apply_instruction(&op.to_instruction());
            }
            let f = via_gate.fidelity(&via_ops);
            assert!((f - 1.0).abs() < 1e-9, "{instr:?} vs {ops:?}: fidelity {f}");
        }
    }

    #[test]
    fn recognition_matches_statevector_for_all_clifford_gates() {
        let one_q: Vec<Gate> = vec![
            Gate::I,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rz(FRAC_PI_2),
            Gate::Rz(-PI),
            Gate::Rx(FRAC_PI_2),
            Gate::Rx(PI),
            Gate::Ry(FRAC_PI_2),
            Gate::Ry(-FRAC_PI_2),
            Gate::P(PI),
            Gate::P(FRAC_PI_2),
            Gate::U(FRAC_PI_2, 0.0, PI), // H up to phase
            Gate::U(PI, FRAC_PI_2, -FRAC_PI_2),
            // Gimbal-degenerate poles: only phi +/- lambda is physical, and
            // fusion emits individually non-quarter angles there.
            Gate::U(0.0, 0.75, FRAC_PI_2 - 0.75),
            Gate::U(PI, FRAC_PI_2 / 2.0, -1.5 * FRAC_PI_2),
        ];
        for gate in one_q {
            let instr = Instruction::new(gate, vec![0]);
            let ops = clifford_ops(&instr).unwrap_or_else(|| panic!("{gate:?} should be Clifford"));
            assert_ops_match(&instr, &ops);
        }
        let two_q: Vec<Gate> = vec![
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Cp(PI),
            Gate::Rzz(FRAC_PI_2),
            Gate::Rzz(-FRAC_PI_2),
            Gate::Rxx(FRAC_PI_2),
            Gate::Ryy(FRAC_PI_2),
            Gate::Ryy(PI),
        ];
        for gate in two_q {
            let instr = Instruction::new(gate, vec![0, 1]);
            let ops = clifford_ops(&instr).unwrap_or_else(|| panic!("{gate:?} should be Clifford"));
            assert_ops_match(&instr, &ops);
        }
    }

    #[test]
    fn non_clifford_gates_are_rejected() {
        for gate in [
            Gate::T,
            Gate::Tdg,
            Gate::Rz(0.3),
            Gate::Rx(1.0),
            Gate::Ry(0.25),
            Gate::P(0.7),
            Gate::U(0.5, 0.0, 0.0),
            Gate::U(FRAC_PI_2, 0.3, PI),
        ] {
            let instr = Instruction::new(gate, vec![0]);
            assert!(clifford_ops(&instr).is_none(), "{gate:?}");
        }
        for gate in [Gate::Cp(FRAC_PI_2), Gate::Rzz(0.4), Gate::Rxx(1.1)] {
            let instr = Instruction::new(gate, vec![0, 1]);
            assert!(clifford_ops(&instr).is_none(), "{gate:?}");
        }
        // Non-unitaries are not "Clifford unitaries" either.
        assert!(clifford_ops(&Instruction::new(Gate::Measure, vec![0])).is_none());
    }

    #[test]
    fn clifford_circuits_allow_measurement_and_reset() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(FRAC_PI_2, 1).barrier_all().measure_all();
        c.reset(0);
        assert!(is_clifford_circuit(&c));
        c.rz(0.3, 1);
        assert!(!is_clifford_circuit(&c));
    }

    #[test]
    fn ops_apply_cleanly_to_a_tableau() {
        use crate::StabilizerSimulator;
        // Sx Sx = X up to phase: the tableau must agree.
        let mut via_ops = StabilizerSimulator::new(1);
        let sx = Instruction::new(Gate::Sx, vec![0]);
        for _ in 0..2 {
            for op in clifford_ops(&sx).unwrap() {
                via_ops.apply(op);
            }
        }
        let mut via_x = StabilizerSimulator::new(1);
        via_x.apply(CliffordOp::X(0));
        for row in 0..2 {
            assert_eq!(via_ops.row_pauli(row), via_x.row_pauli(row));
        }
    }
}
