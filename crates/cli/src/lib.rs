//! Library surface of the `supermarq` CLI.
//!
//! The binary in `main.rs` is a thin shell over [`commands::dispatch`];
//! exposing the dispatcher as a library lets integration tests drive
//! whole commands (including `serve` and signal handling) in their own
//! process without shelling out to a built binary.

pub(crate) mod args;
pub mod commands;
