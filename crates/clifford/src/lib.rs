//! Stabilizer (Clifford) formalism for the SupermarQ reproduction.
//!
//! The Mermin–Bell benchmark (paper Sec. IV-B) measures the expectation of
//! the Mermin operator by rotating the prepared GHZ state "into the shared
//! basis of the Mermin operator such that the expectation of each term can
//! be measured simultaneously". All `2^{n-1}` terms of the operator
//! mutually commute, so such a basis exists and is reachable with a Clifford
//! circuit. This crate provides:
//!
//! * [`SignedPauli`] — a phase-tracked Pauli string that can be conjugated
//!   by Clifford gates (`P -> G P G^\dagger`). [`SignedPauli::apply`] is
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
//! use supermarq_clifford::{CliffordOp, SignedPauli, StabilizerSimulator};
//!
//! // Tableau row n + q is the image of Z_q: conjugating a lone Z_1 by
//! // the same gates gives the same signed Pauli.
//! let mut sim = StabilizerSimulator::new(2);
//! let mut z1 = SignedPauli::from_string(&"IZ".parse().unwrap());
//! for op in [CliffordOp::H(0), CliffordOp::Cx(0, 1), CliffordOp::X(1)] {
//!     sim.apply(op);
//!     z1.apply(op);
//! }
//! assert_eq!(sim.row_pauli(3), (true, "ZZ".parse().unwrap()));
//! assert_eq!(sim.row_pauli(3), (z1.is_negative(), z1.to_pauli_string()));
//! ```

pub mod chp;
pub mod executor;
pub mod frame;
pub mod ops;
pub mod synth;

pub use chp::StabilizerSimulator;
pub use executor::StabilizerExecutor;
pub use frame::SignedPauli;
pub use ops::{clifford_ops, is_clifford_circuit, quarter_turns, CliffordOp};
pub use synth::{diagonalize, Diagonalization, DiagonalizeError};
