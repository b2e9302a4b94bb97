//! Pauli-operator algebra for the SupermarQ reproduction.
//!
//! Provides single-qubit Paulis, phase-tracked [`PauliString`]s, weighted
//! sums of strings ([`PauliSum`], used as observables and Hamiltonians), and
//! the benchmark-specific operators the paper needs: the Mermin operator of
//! Eq. 7, the Sherrington–Kirkpatrick cost Hamiltonian of the QAOA
//! benchmarks, and the transverse-field Ising Hamiltonian of the VQE and
//! Hamiltonian-simulation benchmarks.
//!
//! # Example
//!
//! ```
//! use supermarq_pauli::PauliString;
//!
//! let xx: PauliString = "XX".parse().unwrap();
//! let yy: PauliString = "YY".parse().unwrap();
//! assert!(xx.commutes_with(&yy));
//! let (phase, prod) = xx.multiply(&yy);
//! assert_eq!(prod.to_string(), "ZZ");
//! assert_eq!(phase, 2); // XX * YY = -ZZ, i.e. phase i^2
//! ```

pub(crate) mod operators;
pub(crate) mod string;
pub(crate) mod sum;
pub mod trotter;

pub use operators::{mermin_operator, sk_hamiltonian, tfim_hamiltonian};
pub use string::{ParsePauliError, Pauli, PauliString};
pub use sum::PauliSum;
