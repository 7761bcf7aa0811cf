//! The round-cost ledger: the repository's benchmark (README.md, `../BENCHMARK.json`).
//!
//! Two binaries share this library. `bench` measures the end-to-end metrics of one
//! workload with nothing traced ([`run`]); `bench-trace` times calls into each layer's
//! public functions and counts allocations and bytes ([`trace`]). Every workload
//! reaches the program through one adapter in [`substrate`].

pub mod aa;
pub mod alloc;
pub mod catalog;
pub mod cli;
pub mod procfs;
pub mod result;
pub mod run;
pub mod spans;
pub mod stats;
pub mod substrate;
pub mod trace;
pub mod workloads;
