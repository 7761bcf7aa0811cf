//! High-level API for the DSSP reproduction.
//!
//! `dssp-core` ties the substrates together into the workflow a user of the system
//! actually runs:
//!
//! * [`Experiment`] / [`ExperimentBuilder`] — configure a distributed training run
//!   (model, dataset, cluster, paradigm) and execute it on the discrete-event simulator,
//!   producing a [`RunTrace`];
//! * [`presets`] — ready-made configurations for every experiment in the paper's
//!   evaluation section (Figures 3a–3f, Figure 4, Table I), at a quick and a full scale;
//! * [`metrics`] — time-to-accuracy tables (Table I), curve averaging ("Average SSP
//!   s=3 to 15"), throughput summaries;
//! * [`report`] — CSV and Markdown rendering of traces and tables;
//! * [`events`] — the structured observability event stream: a lock-free, bounded,
//!   append-only log of synchronization decisions, flushed as NDJSON per role;
//! * [`analyze`] — fleet health analytics over those streams: per-round
//!   compute/comms/gate-wait breakdowns, cross-role push-latency percentiles,
//!   staleness CDF and straggler detection, joined on the v6 causal trace ids;
//! * [`chrome_trace`] — Trace Event Format (chrome-trace) export of event streams
//!   and run traces for timeline viewers;
//! * [`json`] — the minimal hand-rolled JSON reader those artifacts are read back
//!   with (the offline serde shim does not serialize);
//! * [`driver`] — the transport-agnostic worker step-loop and server decision-loop
//!   shared by the threaded runtime and the networked runtime (`dssp-net`), including
//!   the deterministic scheduling gate used for cross-substrate equivalence testing;
//! * [`runtime`] — a real multi-threaded parameter-server runtime built on crossbeam
//!   channels that exercises the exact same [`dssp_ps::ParameterServer`] logic with real
//!   concurrency and wall-clock time;
//! * [`pool`] — a scoped thread pool used to run independent experiments (figure
//!   sweeps) concurrently with deterministic, input-ordered results.
//!
//! # Example
//!
//! ```
//! use dssp_core::ExperimentBuilder;
//! use dssp_ps::PolicyKind;
//!
//! let trace = ExperimentBuilder::small_mlp()
//!     .policy(PolicyKind::Dssp { s_l: 3, r_max: 12 })
//!     .epochs(1)
//!     .run();
//! assert!(trace.total_pushes > 0);
//! ```

#![deny(missing_docs)]

pub mod analyze;
pub mod chrome_trace;
pub use dssp_sim::driver;
pub mod events;
mod experiment;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod presets;
pub mod report;
pub mod runtime;

pub use driver::{JobConfig, ServerLoop, WorkerStep};
pub use dssp_sim::{RunTrace, TracePoint, WorkerSummary};
pub use experiment::{Experiment, ExperimentBuilder};
pub use presets::Scale;
