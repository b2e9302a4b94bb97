//! The Closed-Division compiler of the SupermarQ reproduction.
//!
//! The paper evaluates benchmarks under a *Closed Division* (Sec. V) that
//! permits exactly the optimizations cloud platforms apply automatically:
//!
//! * transpilation of OpenQASM to native gates — [`decompose`],
//! * noise-aware qubit mapping — [`placement`],
//! * SWAP insertions — [`routing`],
//! * reordering of commuting gates and cancellation of adjacent gates —
//!   [`cancel`] and single-qubit fusion in [`fuse`].
//!
//! Pulse-level optimization and error mitigation are out of scope, matching
//! the Closed Division rules. The [`Transpiler`] orchestrates the pipeline
//! and reports swap overhead — the quantity that drives the paper's
//! connectivity-vs-fidelity findings (Sec. VI: "the additional swap
//! operations that must be inserted to match the program connectivity
//! quickly deteriorate performance").
//!
//! The pipeline is *data*: each stage is a [`PassSpec`], a [`Pass`] run
//! over a shared [`PassContext`] (which owns the working circuit and the
//! qubit [`Layout`], and records every rewrite for blame), and each
//! built-in [`PipelineId`] — `closed-default`, `closed-stages`,
//! `no-optimize`, ... — is a static list of them in run order. A pass that
//! needs a circuit analysis calls it on the working circuit; nothing is
//! cached between passes. The default `closed-default` pipeline reproduces
//! the historical hard-coded sequence bit-identically.
//!
//! # Example
//!
//! ```
//! use supermarq_circuit::Circuit;
//! use supermarq_device::Device;
//! use supermarq_transpile::Transpiler;
//!
//! let mut ghz = Circuit::new(4);
//! ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
//! let result = Transpiler::for_device(&Device::ibm_casablanca()).run(&ghz).unwrap();
//! // Every two-qubit gate acts on coupled physical qubits.
//! let topo = Device::ibm_casablanca();
//! for instr in result.circuit.iter().filter(|i| i.is_two_qubit()) {
//!     assert!(topo.topology().are_adjacent(instr.qubits[0], instr.qubits[1]));
//! }
//! ```

pub mod cancel;
pub mod decompose;
pub(crate) mod diff;
pub mod fuse;
pub(crate) mod pass;
pub(crate) mod passes;
pub(crate) mod pipeline;
pub mod placement;
pub(crate) mod provenance;
pub mod routing;
pub(crate) mod transpiler;

pub use diff::differential_pipelines;
pub use pass::{run_pass, Layout, Pass, PassContext};
pub use pipeline::{PassSpec, PipelineId};
pub use placement::PlacementStrategy;
pub use transpiler::{relabel_counts, TranspileError, TranspileResult, Transpiler};
