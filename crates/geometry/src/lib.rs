//! Computational geometry for the SupermarQ coverage metric.
//!
//! The paper's Table I scores each benchmark suite by "the volume of the
//! convex hull defined by their feature vectors" in the six-dimensional
//! feature space (Sec. IV-G). The original artifact used scipy/qhull; this
//! crate implements the required machinery from scratch:
//!
//! * [`ConvexHull`] — exact d-dimensional convex hull via an incremental
//!   (quickhull-style) algorithm, with exact volume by fanning simplices
//!   from an interior point;
//! * `simplex` — a two-phase dense simplex LP solver, used for convex-hull
//!   membership tests;
//! * [`monte_carlo_volume`] — randomized volume estimation used to
//!   cross-check the exact computation in tests and ablation benches.
//!
//! # Example
//!
//! ```
//! use supermarq_geometry::ConvexHull;
//!
//! // Unit square in 2-D.
//! let pts = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
//! let hull = ConvexHull::new(&pts).unwrap();
//! assert!((hull.volume() - 1.0).abs() < 1e-9);
//! ```

pub(crate) mod hull;
pub(crate) mod linalg;
pub(crate) mod montecarlo;
pub(crate) mod simplex;

pub use hull::{hull_volume, hull_volume_joggled, ConvexHull, HullError};
pub use montecarlo::monte_carlo_volume;
pub use simplex::{in_convex_hull, LpOutcome};
