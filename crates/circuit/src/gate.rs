//! The gate set of the circuit IR.
//!
//! The set mirrors OpenQASM 2.0's `qelib1.inc` plus the two-qubit rotations
//! (`rxx`, `ryy`, `rzz`) that the SupermarQ benchmarks use natively (e.g. the
//! ZZ-SWAP network of the QAOA benchmark and the Mølmer–Sørensen gate of
//! trapped-ion hardware), plus the non-unitary `measure` and `reset`
//! operations that the error-correction proxy-applications require.

use crate::math::C64;

/// A quantum operation, parameterized where applicable by rotation angles in
/// radians.
///
/// Unitary gates expose their matrix via [`Gate::matrix1`] /
/// [`Gate::matrix2`]; the non-unitary operations (`Measure`, `Reset`) and the
/// scheduling pseudo-operation (`Barrier`) do not have matrices.
///
/// # Example
///
/// ```
/// use supermarq_circuit::{Gate, GateKind};
///
/// assert_eq!(Gate::H.arity(), 1);
/// assert_eq!(Gate::Cx.arity(), 2);
/// assert_eq!(Gate::Cx.kind(), GateKind::TwoQubitUnitary);
/// assert!(!Gate::Measure.is_unitary());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (explicit idle).
    I,
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate.
    Sdg,
    /// `T = diag(1, e^{i pi/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X (`sx`), a native IBM gate.
    Sx,
    /// Inverse square root of X.
    Sxdg,
    /// Rotation about X by the given angle.
    Rx(f64),
    /// Rotation about Y by the given angle.
    Ry(f64),
    /// Rotation about Z by the given angle.
    Rz(f64),
    /// Phase rotation `diag(1, e^{i lambda})` (`u1`/`p` in OpenQASM).
    P(f64),
    /// General single-qubit unitary `U(theta, phi, lambda)` (OpenQASM `u3`).
    U(f64, f64, f64),
    /// Controlled-X.
    Cx,
    /// Controlled-Z.
    Cz,
    /// Controlled phase `diag(1,1,1,e^{i lambda})`.
    Cp(f64),
    /// SWAP.
    Swap,
    /// Two-qubit XX rotation `exp(-i theta/2 X⊗X)` (Mølmer–Sørensen family).
    Rxx(f64),
    /// Two-qubit YY rotation `exp(-i theta/2 Y⊗Y)`.
    Ryy(f64),
    /// Two-qubit ZZ rotation `exp(-i theta/2 Z⊗Z)`.
    Rzz(f64),
    /// Computational-basis measurement (destructive readout into a classical
    /// bit with the same index as the qubit).
    Measure,
    /// Reset to `|0>`.
    Reset,
    /// Scheduling barrier over its operand qubits.
    Barrier,
}

/// The broad structural class of a [`Gate`], used by analyses that only care
/// about arity and unitarity rather than the specific operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// A unitary acting on a single qubit.
    OneQubitUnitary,
    /// A unitary acting on two qubits.
    TwoQubitUnitary,
    /// A measurement.
    Measurement,
    /// A reset.
    Reset,
    /// A barrier pseudo-gate.
    Barrier,
}

impl Gate {
    /// Number of qubit operands the gate acts on.
    ///
    /// `Barrier` reports arity 0 here because it accepts a variable number of
    /// operands; the [`crate::Instruction`] carries the actual operand list.
    pub fn arity(&self) -> usize {
        match self.kind() {
            GateKind::OneQubitUnitary | GateKind::Measurement | GateKind::Reset => 1,
            GateKind::TwoQubitUnitary => 2,
            GateKind::Barrier => 0,
        }
    }

    /// Structural classification of the gate.
    pub fn kind(&self) -> GateKind {
        use Gate::*;
        match self {
            I | H | X | Y | Z | S | Sdg | T | Tdg | Sx | Sxdg | Rx(_) | Ry(_) | Rz(_) | P(_)
            | U(..) => GateKind::OneQubitUnitary,
            Cx | Cz | Cp(_) | Swap | Rxx(_) | Ryy(_) | Rzz(_) => GateKind::TwoQubitUnitary,
            Measure => GateKind::Measurement,
            Reset => GateKind::Reset,
            Barrier => GateKind::Barrier,
        }
    }

    /// `true` for unitary gates (excludes measure/reset/barrier).
    pub fn is_unitary(&self) -> bool {
        matches!(
            self.kind(),
            GateKind::OneQubitUnitary | GateKind::TwoQubitUnitary
        )
    }

    /// `true` for two-qubit unitary gates.
    pub(crate) fn is_two_qubit(&self) -> bool {
        self.kind() == GateKind::TwoQubitUnitary
    }

    /// The OpenQASM 2.0 mnemonic of this gate.
    pub fn qasm_name(&self) -> &'static str {
        use Gate::*;
        match self {
            I => "id",
            H => "h",
            X => "x",
            Y => "y",
            Z => "z",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            Sx => "sx",
            Sxdg => "sxdg",
            Rx(_) => "rx",
            Ry(_) => "ry",
            Rz(_) => "rz",
            P(_) => "p",
            U(..) => "u3",
            Cx => "cx",
            Cz => "cz",
            Cp(_) => "cp",
            Swap => "swap",
            Rxx(_) => "rxx",
            Ryy(_) => "ryy",
            Rzz(_) => "rzz",
            Measure => "measure",
            Reset => "reset",
            Barrier => "barrier",
        }
    }

    /// The rotation parameters of this gate, in OpenQASM order.
    pub fn params(&self) -> Vec<f64> {
        use Gate::*;
        match *self {
            Rx(t) | Ry(t) | Rz(t) | P(t) | Cp(t) | Rxx(t) | Ryy(t) | Rzz(t) => vec![t],
            U(a, b, c) => vec![a, b, c],
            _ => Vec::new(),
        }
    }

    /// The inverse gate, for unitary gates.
    ///
    /// Returns `None` for `Measure`, `Reset` and `Barrier`.
    pub fn inverse(&self) -> Option<Gate> {
        use Gate::*;
        Some(match *self {
            I => I,
            H => H,
            X => X,
            Y => Y,
            Z => Z,
            S => Sdg,
            Sdg => S,
            T => Tdg,
            Tdg => T,
            Sx => Sxdg,
            Sxdg => Sx,
            Rx(t) => Rx(-t),
            Ry(t) => Ry(-t),
            Rz(t) => Rz(-t),
            P(t) => P(-t),
            U(a, b, c) => U(-a, -c, -b),
            Cx => Cx,
            Cz => Cz,
            Cp(t) => Cp(-t),
            Swap => Swap,
            Rxx(t) => Rxx(-t),
            Ryy(t) => Ryy(-t),
            Rzz(t) => Rzz(-t),
            Measure | Reset | Barrier => return None,
        })
    }

    /// The 2x2 unitary matrix of a single-qubit gate, row-major.
    ///
    /// Returns `None` for gates that are not single-qubit unitaries.
    pub fn matrix1(&self) -> Option<[[C64; 2]; 2]> {
        use Gate::*;
        let z = C64::ZERO;
        let o = C64::ONE;
        let i = C64::I;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        Some(match *self {
            I => [[o, z], [z, o]],
            H => [[C64::real(s), C64::real(s)], [C64::real(s), C64::real(-s)]],
            X => [[z, o], [o, z]],
            Y => [[z, -i], [i, z]],
            Z => [[o, z], [z, -o]],
            S => [[o, z], [z, i]],
            Sdg => [[o, z], [z, -i]],
            T => [[o, z], [z, C64::cis(std::f64::consts::FRAC_PI_4)]],
            Tdg => [[o, z], [z, C64::cis(-std::f64::consts::FRAC_PI_4)]],
            Sx => [
                [C64::new(0.5, 0.5), C64::new(0.5, -0.5)],
                [C64::new(0.5, -0.5), C64::new(0.5, 0.5)],
            ],
            Sxdg => [
                [C64::new(0.5, -0.5), C64::new(0.5, 0.5)],
                [C64::new(0.5, 0.5), C64::new(0.5, -0.5)],
            ],
            Rx(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                [
                    [C64::real(c), C64::new(0.0, -sn)],
                    [C64::new(0.0, -sn), C64::real(c)],
                ]
            }
            Ry(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                [
                    [C64::real(c), C64::real(-sn)],
                    [C64::real(sn), C64::real(c)],
                ]
            }
            Rz(t) => [[C64::cis(-t / 2.0), z], [z, C64::cis(t / 2.0)]],
            P(t) => [[o, z], [z, C64::cis(t)]],
            U(theta, phi, lam) => {
                let (c, sn) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                [
                    [C64::real(c), -C64::cis(lam) * sn],
                    [C64::cis(phi) * sn, C64::cis(phi + lam) * c],
                ]
            }
            _ => return None,
        })
    }

    /// The 4x4 unitary matrix of a two-qubit gate, row-major, with the first
    /// operand as the most-significant qubit of the index (i.e. basis order
    /// `|q0 q1> = |00>, |01>, |10>, |11>`).
    ///
    /// Returns `None` for gates that are not two-qubit unitaries.
    pub fn matrix2(&self) -> Option<[[C64; 4]; 4]> {
        use Gate::*;
        let z = C64::ZERO;
        let o = C64::ONE;
        Some(match *self {
            Cx => [[o, z, z, z], [z, o, z, z], [z, z, z, o], [z, z, o, z]],
            Cz => [[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, -o]],
            Cp(t) => [
                [o, z, z, z],
                [z, o, z, z],
                [z, z, o, z],
                [z, z, z, C64::cis(t)],
            ],
            Swap => [[o, z, z, z], [z, z, o, z], [z, o, z, z], [z, z, z, o]],
            Rxx(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                let (c, ms) = (C64::real(c), C64::new(0.0, -sn));
                [[c, z, z, ms], [z, c, ms, z], [z, ms, c, z], [ms, z, z, c]]
            }
            Ryy(t) => {
                let (c, sn) = ((t / 2.0).cos(), (t / 2.0).sin());
                let (c, ps, ms) = (C64::real(c), C64::new(0.0, sn), C64::new(0.0, -sn));
                [[c, z, z, ps], [z, c, ms, z], [z, ms, c, z], [ps, z, z, c]]
            }
            Rzz(t) => {
                let e = C64::cis(-t / 2.0);
                let f = C64::cis(t / 2.0);
                [[e, z, z, z], [z, f, z, z], [z, z, f, z], [z, z, z, e]]
            }
            _ => return None,
        })
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.qasm_name())
        } else {
            let p: Vec<String> = params.iter().map(|x| format!("{x:.10}")).collect();
            write!(f, "{}({})", self.qasm_name(), p.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_unitary2(m: &[[C64; 2]; 2]) -> bool {
        // M * M^dagger == I
        let mut prod = [[C64::ZERO; 2]; 2];
        for r in 0..2 {
            for c in 0..2 {
                for (mrk, mck) in m[r].iter().zip(&m[c]) {
                    prod[r][c] += *mrk * mck.conj();
                }
            }
        }
        prod[0][0].approx_eq(C64::ONE, 1e-10)
            && prod[1][1].approx_eq(C64::ONE, 1e-10)
            && prod[0][1].approx_eq(C64::ZERO, 1e-10)
            && prod[1][0].approx_eq(C64::ZERO, 1e-10)
    }

    fn is_unitary4(m: &[[C64; 4]; 4]) -> bool {
        let mut ok = true;
        for r in 0..4 {
            for c in 0..4 {
                let mut e = C64::ZERO;
                for (mrk, mck) in m[r].iter().zip(&m[c]) {
                    e += *mrk * mck.conj();
                }
                let expect = if r == c { C64::ONE } else { C64::ZERO };
                ok &= e.approx_eq(expect, 1e-10);
            }
        }
        ok
    }

    #[test]
    fn all_one_qubit_matrices_are_unitary() {
        let gates = [
            Gate::I,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rx(0.7),
            Gate::Ry(-1.3),
            Gate::Rz(2.1),
            Gate::P(0.4),
            Gate::U(1.0, 2.0, 3.0),
        ];
        for g in gates {
            let m = g.matrix1().unwrap_or_else(|| panic!("{g:?} has no matrix"));
            assert!(is_unitary2(&m), "{g:?} matrix not unitary");
        }
    }

    #[test]
    fn all_two_qubit_matrices_are_unitary() {
        let gates = [
            Gate::Cx,
            Gate::Cz,
            Gate::Cp(0.9),
            Gate::Swap,
            Gate::Rxx(0.7),
            Gate::Ryy(1.1),
            Gate::Rzz(-0.5),
        ];
        for g in gates {
            let m = g.matrix2().unwrap();
            assert!(is_unitary4(&m), "{g:?} matrix not unitary");
        }
    }

    #[test]
    fn inverse_of_inverse_is_identity_variant() {
        let gates = [Gate::S, Gate::T, Gate::Sx, Gate::Rx(0.3), Gate::Cp(1.2)];
        for g in gates {
            assert_eq!(g.inverse().unwrap().inverse().unwrap(), g);
        }
        assert_eq!(Gate::Measure.inverse(), None);
        assert_eq!(Gate::Reset.inverse(), None);
    }

    #[test]
    fn gate_times_inverse_is_identity_matrix() {
        let gates = [
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Rx(0.8),
            Gate::Ry(0.8),
            Gate::Rz(0.8),
            Gate::U(0.5, 1.5, 2.5),
        ];
        for g in gates {
            let m = g.matrix1().unwrap();
            let inv = g.inverse().unwrap().matrix1().unwrap();
            let mut prod = [[C64::ZERO; 2]; 2];
            for r in 0..2 {
                for c in 0..2 {
                    for k in 0..2 {
                        prod[r][c] += m[r][k] * inv[k][c];
                    }
                }
            }
            // Allow a global phase: normalize by prod[0][0].
            let phase = prod[0][0];
            assert!(phase.norm() > 0.99, "{g:?}");
            assert!(prod[0][1].approx_eq(C64::ZERO, 1e-10));
            assert!(prod[1][0].approx_eq(C64::ZERO, 1e-10));
            assert!((prod[1][1] / phase).approx_eq(C64::ONE, 1e-10));
        }
    }

    #[test]
    fn u3_specializations_match_standard_gates() {
        use std::f64::consts::PI;
        // H = U(pi/2, 0, pi) up to global phase.
        let h = Gate::U(PI / 2.0, 0.0, PI).matrix1().unwrap();
        let href = Gate::H.matrix1().unwrap();
        for r in 0..2 {
            for c in 0..2 {
                assert!(
                    h[r][c].approx_eq(href[r][c], 1e-12),
                    "H mismatch at {r},{c}"
                );
            }
        }
        // X = U(pi, 0, pi).
        let x = Gate::U(PI, 0.0, PI).matrix1().unwrap();
        let xref = Gate::X.matrix1().unwrap();
        for r in 0..2 {
            for c in 0..2 {
                assert!(x[r][c].approx_eq(xref[r][c], 1e-12));
            }
        }
    }

    #[test]
    fn rzz_diagonal_structure() {
        let m = Gate::Rzz(1.0).matrix2().unwrap();
        // Diagonal entries for |00>,|11> equal e^{-i/2}; |01>,|10> equal e^{+i/2}.
        assert!(m[0][0].approx_eq(C64::cis(-0.5), 1e-12));
        assert!(m[3][3].approx_eq(C64::cis(-0.5), 1e-12));
        assert!(m[1][1].approx_eq(C64::cis(0.5), 1e-12));
        assert!(m[2][2].approx_eq(C64::cis(0.5), 1e-12));
    }

    #[test]
    fn kinds_and_arities() {
        assert_eq!(Gate::H.kind(), GateKind::OneQubitUnitary);
        assert_eq!(Gate::Cx.kind(), GateKind::TwoQubitUnitary);
        assert_eq!(Gate::Measure.kind(), GateKind::Measurement);
        assert_eq!(Gate::Reset.kind(), GateKind::Reset);
        assert_eq!(Gate::Barrier.kind(), GateKind::Barrier);
        assert_eq!(Gate::Measure.arity(), 1);
        assert_eq!(Gate::Swap.arity(), 2);
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert!(Gate::Rz(0.5).to_string().starts_with("rz(0.5"));
    }
}
