//! Facade crate for the SupermarQ (HPCA 2022) reproduction workspace.
//!
//! Re-exports every subsystem crate under one roof so examples and
//! integration tests can use a single dependency:
//!
//! ```
//! use supermarq_repro::circuit::Circuit;
//!
//! let mut ghz = Circuit::new(3);
//! ghz.h(0).cx(0, 1).cx(1, 2).measure_all();
//! assert_eq!(ghz.depth(), 4);
//! ```

pub use supermarq_circuit as circuit;
pub use supermarq_classical as classical;
pub use supermarq_clifford as clifford;
pub use supermarq_device as device;
pub use supermarq_geometry as geometry;
pub use supermarq_pauli as pauli;
pub use supermarq_sim as sim;
pub use supermarq_transpile as transpile;
pub use supermarq_verify as verify;

/// The paper's primary contribution: features, benchmarks, suite, coverage.
pub use supermarq as core;
