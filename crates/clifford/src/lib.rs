//! Stabilizer (Clifford) formalism for the SupermarQ reproduction.
//!
//! The Mermin–Bell benchmark (paper Sec. IV-B) measures the expectation of
//! the Mermin operator by rotating the prepared GHZ state "into the shared
//! basis of the Mermin operator such that the expectation of each term can
//! be measured simultaneously". All `2^{n-1}` terms of the operator
//! mutually commute, so such a basis exists and is reachable with a Clifford
//! circuit. This crate provides:
//!
//! * `SignedPauli` — a phase-tracked Pauli string that can be conjugated
//!   by Clifford gates (`P -> G P G^\dagger`). `SignedPauli::apply` is
//!   the crate's one statement of the sign and bit rules, one rule per
//!   [`CliffordOp`] primitive;
//! * [`clifford_ops`] — the only map from IR gates (quarter-turn
//!   rotations, fused `U` gates, `rxx`, ...) onto those primitives, and
//!   [`is_clifford_circuit`], which asks whether the tableau can run a
//!   circuit;
//! * [`diagonalize`] — synthesis of a Clifford circuit that simultaneously
//!   maps a set of commuting Pauli strings to diagonal (Z-type) strings;
//! * [`StabilizerSimulator`] — an Aaronson–Gottesman CHP tableau simulator
//!   whose `2n` rows are `SignedPauli`s conjugated by the same rules, used
//!   to cross-check Clifford circuits at sizes far beyond the statevector
//!   simulator's reach, and [`StabilizerExecutor`], which runs a circuit
//!   once on it and samples each noisy shot as a Pauli frame
//!   (a `SignedPauli` conjugated by the same rules).
//!
//! # Example
//!
//! ```
//! use supermarq_clifford::{CliffordOp, StabilizerSimulator};
//!
//! // Tableau row n + q is the image of Z_q under the applied gates:
//! // X_1 flips the sign of Z_0 Z_1.
//! let mut sim = StabilizerSimulator::new(2);
//! for op in [CliffordOp::H(0), CliffordOp::Cx(0, 1), CliffordOp::X(1)] {
//!     sim.apply(op);
//! }
//! assert_eq!(sim.row_pauli(3), (true, "ZZ".parse().unwrap()));
//! ```

pub(crate) mod chp;
pub(crate) mod executor;
pub(crate) mod frame;
pub(crate) mod ops;
pub(crate) mod synth;

pub use chp::StabilizerSimulator;
pub use executor::StabilizerExecutor;
pub use ops::{clifford_ops, is_clifford_circuit, CliffordOp};
pub use synth::{diagonalize, Diagonalization, DiagonalizeError};
