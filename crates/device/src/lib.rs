//! Device models for the SupermarQ reproduction.
//!
//! The paper evaluates its suite on nine QPUs across three architectures
//! (IBM superconducting, IonQ trapped-ion, AQT@LBNL superconducting) whose
//! characteristics are summarized in Table II. Since real hardware is not
//! available, each machine is modeled here as a
//! [`Device`]: a qubit [`Topology`], a [`Calibration`] record carrying the
//! Table II numbers, and a native gate set — from which a trajectory
//! [`supermarq_sim::NoiseModel`] is derived. This is the same substitution
//! the paper's own artifact makes ("this artifact uses circuit simulation
//! in place of real hardware evaluations").
//!
//! # Example
//!
//! ```
//! use supermarq_device::Device;
//!
//! let ionq = Device::ionq();
//! assert_eq!(ionq.num_qubits(), 11);
//! assert_eq!(ionq.topology().edge_count(), 11 * 10 / 2); // all-to-all
//! let noise = ionq.noise_model();
//! assert!(noise.depolarizing_2q > noise.depolarizing_1q);
//! ```

pub(crate) mod calibration;
pub(crate) mod catalog;
pub(crate) mod topology;

pub use calibration::Calibration;
pub use catalog::{Device, NativeGateSet};
pub use topology::Topology;
