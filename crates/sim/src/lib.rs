//! Statevector simulation with trajectory-based noise for the SupermarQ
//! reproduction.
//!
//! The paper's artifact replaces real quantum hardware with noisy circuit
//! simulation; this crate is that substrate. It provides:
//!
//! * [`StateVector`] — an exact `2^n` statevector with gate application,
//!   projective measurement, reset, sampling and Pauli expectations. Gate
//!   kernels are SIMD-lane inner loops chunked across the thread pool for
//!   large states (amplitudes stay bit-identical at any thread count);
//! * [`NoiseModel`] — the device's error channels: depolarizing noise
//!   after each gate, thermal relaxation (amplitude damping + dephasing)
//!   on idle qubits derived from `T1`/`T2` and gate durations, readout
//!   error, reset error, and a crosstalk penalty for simultaneous
//!   two-qubit gates;
//! * [`NoisyProgram`] — a circuit lowered against a noise model into a
//!   flat list of gates and resolved noise events ([`NoisyOp`]). It is the
//!   one statement of what the model means; every backend interprets it;
//! * [`Executor`] — runs a circuit for a number of shots and returns
//!   [`Counts`], sampling the lowered program per shot when noise or
//!   mid-circuit measurement makes trajectories differ. Shots run in
//!   parallel on a rayon pool, shot `i` drawing from [`shot_rng`]`(seed,
//!   i)`, so results are bit-identical regardless of thread count
//!   (`RAYON_NUM_THREADS` tunes the pool);
//! * [`DensityMatrix`] — exact Kraus evolution; `run_program` applies a
//!   lowered program exactly and is the trajectory sampler's oracle;
//! * [`krylov`] — Lanczos/Krylov `exp(-iHt)|psi>` reference evolution used
//!   to score the Hamiltonian-simulation benchmark against exact dynamics.
//!
//! # Example
//!
//! ```
//! use supermarq_circuit::Circuit;
//! use supermarq_sim::{Executor, NoiseModel};
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1).measure_all();
//! let counts = Executor::noiseless().run(&bell, 1000, 7);
//! // Only |00> and |11> appear for a noiseless Bell state.
//! assert!(counts.iter().all(|(k, _)| k == 0b00 || k == 0b11));
//! let _noisy = Executor::new(NoiseModel::uniform_depolarizing(0.01)).run(&bell, 100, 7);
//! ```

mod chunk;
pub mod counts;
pub mod density;
pub mod executor;
mod fusion;
pub mod krylov;
pub mod noise;
mod pool;
mod simd;
pub mod state;

pub use counts::Counts;
pub use density::DensityMatrix;
pub use executor::{shot_rng, ExecError, Executor};
pub use noise::{NoiseModel, NoisyOp, NoisyProgram};
pub use state::{CumulativeSampler, StateVector, MAX_QUBITS, MIN_NORM_SQR};
