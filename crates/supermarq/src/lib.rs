//! SupermarQ: a scalable quantum benchmark suite — the paper's primary
//! contribution, reproduced in Rust.
//!
//! This crate ties the substrates together into the system the paper
//! describes (Tomesh et al., HPCA 2022):
//!
//! * [`FeatureVector`] — the six hardware-agnostic application features of
//!   Sec. III-B (Program Communication, Critical-Depth,
//!   Entanglement-Ratio, Parallelism, Liveness, Measurement);
//! * [`Benchmark`] — the scalable benchmark abstraction: a circuit
//!   generator plus an efficiently computable score function;
//! * [`benchmarks`] — the eight applications of Sec. IV (GHZ, Mermin–Bell,
//!   the bit/phase error-correction proxies, Vanilla and ZZ-SWAP QAOA,
//!   VQE, and Hamiltonian simulation) plus the scored Table-I corpus
//!   (QFT, Bernstein–Vazirani, ripple-carry adder, Grover);
//! * [`registry`] — the data-driven [`BenchmarkRegistry`] every spec and
//!   CLI flag resolves through;
//! * `mirror` — the [`Mirror`] wrapper: scalable verification by
//!   appending the inverse circuit, CHP-accelerated when Clifford;
//! * [`runner`] — the evaluation harness (transpile for a device, execute
//!   under its noise model, score) behind Fig. 2;
//! * [`coverage`] — the convex-hull feature-space coverage metric behind
//!   Table I;
//! * [`correlation`] — the feature-vs-performance `R^2` analysis behind
//!   Figs. 3 and 4;
//! * [`spec`] — the executor for `supermarq-store` run specs, making
//!   every harness run content-addressable and cacheable.
//!
//! # Example
//!
//! ```
//! use supermarq::benchmarks::GhzBenchmark;
//! use supermarq::{CircuitFamily, FeatureVector};
//!
//! let ghz = GhzBenchmark::new(4);
//! let features = FeatureVector::of(&ghz.circuits()[0]);
//! // The CNOT ladder is fully serial: every 2q gate on the critical path.
//! assert!((features.critical_depth - 1.0).abs() < 1e-12);
//! ```

pub(crate) mod benchmark;
pub mod benchmarks;
pub mod correlation;
pub mod coverage;
pub mod features;
pub(crate) mod mirror;
pub(crate) mod mitigation;
pub mod registry;
pub mod runner;
pub mod spec;

pub use benchmark::{Benchmark, CircuitFamily, ScoreError, ScoringStrategy};
pub use features::FeatureVector;
pub use mirror::{Mirror, MirrorPath};
pub use registry::{BenchmarkEntry, BenchmarkRegistry, ParamKind, ParamSpec};
pub use runner::{run_on_device, run_on_device_open, BenchmarkResult, RunConfig, RunError};
