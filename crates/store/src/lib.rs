//! # supermarq-store — run-artifact store and batch sweep engine
//!
//! The paper's evaluation is a large sweep: every Fig. 2 / Fig. 3 cell
//! is a `(benchmark, size, device, shots, repetitions, seed)` run, and
//! recomputing it from scratch on every invocation dominates cost. This
//! crate makes sweeps **incremental and resumable**:
//!
//! - [`RunSpec`] canonically names a run and derives a stable SHA-256
//!   content hash (`spec`).
//! - [`Store`] is an on-disk content-addressed cache of [`RunRecord`]s —
//!   JSON files under `.supermarq-store/`, atomic temp-file+rename
//!   writes, with corrupt or version-mismatched entries treated as
//!   misses, never panics (`store`).
//! - [`SweepEngine`] expands a [`SweepGrid`] into jobs, partitions them
//!   into cache hits vs. misses, fans the misses over the rayon pool,
//!   streams results as JSONL, and reports [`SweepStats`] (`sweep`).
//!
//! The crate is deliberately *executor-agnostic*: it knows nothing of
//! circuits or simulators. Callers (the `supermarq` runner, the CLI, the
//! figure binaries) supply a `Fn(&RunSpec) -> Result<RunOutcome, String>`
//! closure, which keeps the dependency arrow pointing at this crate and
//! lets tests drive the engine with synthetic executors.

pub mod hash;
pub(crate) mod json;
pub(crate) mod record;
pub(crate) mod spec;
pub(crate) mod store;
pub(crate) mod sweep;

pub use json::{Json, Number};
pub use record::{RunOutcome, RunRecord};
pub use spec::{RunSpec, TranspileSpec, SCHEMA_VERSION};
pub use store::{
    default_root, GcReport, Store, StoreStats, VerifyReport, DEFAULT_STORE_DIR, TMP_GRACE,
};
pub use sweep::{SweepEngine, SweepGrid, SweepReport, SweepResult, SweepStats, MAX_GRID_CELLS};
