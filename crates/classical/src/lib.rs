//! Classical math substrate for the SupermarQ reproduction.
//!
//! The paper's benchmarks lean on classical computation in three places:
//!
//! 1. **Scoring** — Hellinger fidelity between measured and ideal
//!    distributions (GHZ, bit/phase code), and linear regression / `R^2`
//!    for the feature-correlation study of Figs. 3 and 4 ([`stats`]);
//! 2. **Classical optimization of the variational proxy-applications** —
//!    the paper finds optimal QAOA/VQE parameters classically and runs only
//!    the final circuit on hardware ([`opt`], [`qaoa`]);
//! 3. **Exactly solvable references** — the level-1 QAOA energy on
//!    Sherrington–Kirkpatrick instances in closed form ([`qaoa`]), the 1-D
//!    transverse-field Ising ground energy via free fermions (`tfim`),
//!    and brute-force Ising optima for small instances ([`maxcut`]).
//!
//! # Example
//!
//! ```
//! use supermarq_classical::stats::hellinger_fidelity_maps;
//! use std::collections::BTreeMap;
//!
//! let p = BTreeMap::from([(0u64, 0.5), (3u64, 0.5)]);
//! let q = BTreeMap::from([(0u64, 0.5), (3u64, 0.5)]);
//! assert!((hellinger_fidelity_maps(&p, &q) - 1.0).abs() < 1e-12);
//! ```

pub(crate) mod linalg;
pub mod maxcut;
pub mod opt;
pub mod qaoa;
pub mod stats;
pub(crate) mod tfim;

pub use tfim::tfim_ground_energy;
