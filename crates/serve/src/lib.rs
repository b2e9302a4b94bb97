//! # supermarq-serve — benchmark-as-a-service over the run store
//!
//! The store (PR 3) made every run content-addressable; this crate puts
//! a socket in front of it. `supermarq serve` is a long-running daemon
//! speaking a line-oriented strict-JSON protocol over plain
//! `std::net::TcpListener` — no async runtime, no HTTP stack, zero new
//! dependencies — in the spirit of QSimBench's "serve precomputed
//! traces" pitch: clients ask for runs, warm hits come straight off
//! disk, misses are simulated once and cached forever.
//!
//! The moving parts:
//!
//! - [`protocol`] — request/response grammar ([`Request`], typed error
//!   lines, [`MAX_FRAME`]). Result lines are exactly
//!   [`SweepResult::to_line`], so daemon output is byte-identical to
//!   `supermarq batch`.
//! - `queue` (private) — the bounded, coalescing job queue:
//!   backpressure via `busy` + `retry_after_ms`, duplicate specs share
//!   one simulation, graceful drain on shutdown.
//! - `server` — [`Server::bind`] / [`RunningServer`]: accept loop,
//!   per-connection handlers, worker pool over
//!   [`SweepEngine::run_job`], per-request obs spans, and
//!   [`ServeMetrics`], the one counter store behind `stats`, `metrics`
//!   and the exit summary.
//! - `telemetry` (private) — the in-daemon ring of completed spans
//!   (queried by the `trace` op) and the Prometheus text exposition
//!   behind `metrics`.
//! - `client` — the blocking [`Client`] used by `supermarq client`,
//!   the hammer tests, and the warm-hit benchmark.
//! - [`signal`] — flag-based Ctrl-C interception shared with the batch
//!   CLI.
//!
//! Distributed tracing rides the same protocol: `run`/`batch` frames
//! may carry a `trace` context (128-bit trace id + client span id), and
//! the daemon stitches its `serve.request` → `serve.execute` spans under
//! the client's root so both processes' JSONL merges into one forest.
//! Untraced requests are byte-identical to the pre-tracing protocol.
//!
//! Crash-safety is inherited, not reinvented: all persistence goes
//! through the store's atomic tmp+rename publication, so `kill -9` at
//! any instant strands at most a stale `tmp/` file that `Store::gc`
//! collects, and a restarted daemon resumes from whatever completed.
//!
//! Like the sweep engine, the daemon is executor-agnostic: it takes an
//! [`Executor`] closure, so tests drive it with synthetic workloads and
//! the CLI wires in `supermarq::execute_spec`.
//!
//! [`SweepResult::to_line`]: supermarq_store::SweepResult::to_line
//! [`SweepEngine::run_job`]: supermarq_store::SweepEngine::run_job

pub(crate) mod client;
pub mod protocol;
mod queue;
pub(crate) mod server;
pub mod signal;
mod telemetry;

pub use client::{BatchResponse, Client, RunTiming};
pub use protocol::{ErrorKind, MetricsFormat, Request, MAX_FRAME};
pub use server::{Executor, RunningServer, ServeConfig, ServeMetrics, Server};
