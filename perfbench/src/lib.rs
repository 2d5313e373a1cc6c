//! The repository benchmark's library: workloads, timing harness, output
//! checks, spans and statistics. `src/main.rs` is the one command;
//! `src/bin/compare.rs` reads result sets of two builds.

pub mod checks;
pub mod gen;
pub mod real;
pub mod report;
pub mod stats;
pub mod svcmix;
pub mod trace;
pub mod world;
pub mod worlds;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["fig12b-256n", "transport-4n", "svc-mix"];
