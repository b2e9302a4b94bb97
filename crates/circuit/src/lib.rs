//! Quantum circuit intermediate representation for the SupermarQ reproduction.
//!
//! This crate is the foundation of the workspace: it defines the gate set,
//! the [`Circuit`] container, structural analyses (moment scheduling, DAG
//! critical path, interaction graph) and OpenQASM 2.0 import/export.
//!
//! Each analysis is a plain function of `&Circuit`, called where its
//! result is used: [`CircuitLayers::of`], [`Circuit::depth`],
//! [`Circuit::gate_count`], [`Circuit::two_qubit_gate_count`],
//! [`InteractionGraph::of`] and [`CriticalPathInfo::of`]. Nothing caches
//! them, so no result can outlive the circuit it describes.
//!
//! The SupermarQ paper specifies its benchmarks "at the level of OpenQASM"
//! (Sec. III, Principle 3), so the IR here deliberately mirrors the OpenQASM
//! 2.0 operation set: a universal collection of named 1- and 2-qubit gates
//! plus `measure`, `reset` and `barrier`.
//!
//! # Example
//!
//! ```
//! use supermarq_circuit::Circuit;
//!
//! // The 3-qubit GHZ preparation circuit from Fig. 1a of the paper.
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2).measure_all();
//! assert_eq!(c.num_qubits(), 3);
//! assert_eq!(c.two_qubit_gate_count(), 2);
//! let qasm = c.to_qasm();
//! assert!(qasm.contains("cx q[0],q[1];"));
//! ```

pub(crate) mod analysis;
pub(crate) mod circuit;
pub(crate) mod diagram;
pub(crate) mod gate;
pub(crate) mod graph;
pub(crate) mod math;
pub(crate) mod qasm;

pub use analysis::{CircuitLayers, CriticalPathInfo, LivenessMatrix};
pub use circuit::{Circuit, Instruction};
pub use gate::{Gate, GateKind};
pub use graph::InteractionGraph;
pub use math::C64;
pub use qasm::ParseQasmError;

/// Errors produced while constructing or mutating a [`Circuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CircuitError {
    /// A gate referenced a qubit index `>= num_qubits`.
    QubitOutOfRange { qubit: usize, num_qubits: usize },
    /// A multi-qubit gate was applied to a repeated qubit.
    DuplicateQubit { qubit: usize },
    /// A gate received the wrong number of operands (e.g. `cx` on one
    /// qubit). `gate` is the OpenQASM mnemonic; barriers are exempt since
    /// their arity is variable.
    ArityMismatch {
        gate: &'static str,
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {num_qubits}-qubit circuit"
                )
            }
            CircuitError::DuplicateQubit { qubit } => {
                write!(f, "duplicate qubit {qubit} in multi-qubit gate")
            }
            CircuitError::ArityMismatch {
                gate,
                expected,
                got,
            } => {
                write!(f, "gate '{gate}' expects {expected} operand(s), got {got}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}
