//! Facade crate for the DSSP reproduction.
//!
//! This workspace reproduces *Dynamic Stale Synchronous Parallel Distributed Training
//! for Deep Learning* (Zhao, An, Liu, Chen — ICDCS 2019) as a stack of eight Rust
//! crates. `dssp` re-exports the public API of each substrate so downstream users can
//! depend on a single crate, and it owns the workspace-level integration tests
//! (`tests/`) and runnable examples (`examples/`).
//!
//! The layering, bottom to top:
//!
//! | module | crate | provides |
//! |---|---|---|
//! | [`tensor`] | `dssp-tensor` | dense `f32` tensors, matmul/conv kernels |
//! | [`nn`] | `dssp-nn` | layers, models, loss, SGD with momentum, the mini-batch gradient step |
//! | [`data`] | `dssp-data` | synthetic datasets, sharding, batch iteration |
//! | [`cluster`] | `dssp-cluster` | device/link profiles, per-iteration time model |
//! | [`ps`] | `dssp-ps` | parameter server, BSP/ASP/SSP/DSSP policies |
//! | [`sim`] | `dssp-sim` | discrete-event simulator (real training, virtual time) |
//! | [`core`](mod@core) | `dssp-core` | experiments, presets, metrics, shared driver, threaded runtime |
//! | [`net`] | `dssp-net` | wire protocol, TCP/loopback transports, multi-process deployment |
//! | [`coord`] | `dssp-coord` | multi-server groups: shard servers + clock/controller coordinator |
//! | [`bench`](mod@bench) | `dssp-bench` | figure/table regeneration for the paper's evaluation, the `repro` CLI |
//!
//! # Example
//!
//! ```
//! use dssp::core::ExperimentBuilder;
//! use dssp::ps::PolicyKind;
//!
//! let trace = ExperimentBuilder::small_mlp()
//!     .policy(PolicyKind::Dssp { s_l: 3, r_max: 12 })
//!     .epochs(1)
//!     .run();
//! assert!(trace.total_pushes > 0);
//! ```

#![deny(missing_docs)]

pub use dssp_bench as bench;
pub use dssp_cluster as cluster;
pub use dssp_coord as coord;
pub use dssp_core as core;
pub use dssp_data as data;
pub use dssp_net as net;
pub use dssp_nn as nn;
pub use dssp_ps as ps;
pub use dssp_sim as sim;
pub use dssp_tensor as tensor;

pub use dssp_core::{Experiment, ExperimentBuilder, JobConfig, RunTrace, Scale};
pub use dssp_ps::PolicyKind;
