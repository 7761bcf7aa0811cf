//! Discrete-event simulator for data-parallel parameter-server training.
//!
//! The paper's experiments run four distributed paradigms on physical GPU clusters and
//! measure test accuracy against wall-clock training time. This crate reproduces those
//! experiments by combining:
//!
//! * **real training** — every simulated worker holds a real model replica
//!   (`dssp-nn`), computes real mini-batch gradients on its data shard (`dssp-data`),
//!   and the real parameter server (`dssp-ps`) applies them, so staleness has its true
//!   effect on convergence; with
//! * **virtual time** — per-iteration compute and communication durations come from the
//!   cluster time model (`dssp-cluster`), so a 300-epoch multi-GPU experiment collapses
//!   to seconds of CPU time while preserving the ordering, waiting-time and throughput
//!   phenomena the paradigms differ in.
//!
//! The simulation loop mirrors Algorithm 1: a worker pulls the global weights, computes
//! a mini-batch gradient, pushes it, and may start its next iteration only after the
//! server's `OK`. Blocked workers are woken by the pushes that release them.
//!
//! # What runs where
//!
//! The server side is the shared [`driver::ServerLoop`]: it applies and gates every
//! push, steps the learning-rate schedule, decides when an evaluation is due and
//! assembles the [`RunTrace`]. One event loop, on the thread that calls
//! `Simulation::run`, keeps only what virtual time needs: the queue, the clock, the
//! server link, the time model, and each worker's state and waiting time. It hands a
//! push arrival to [`driver::ServerLoop::handle_push_slice`] and starts the `OK`s it
//! returns in order, the pusher first; after the end-of-training drain, every worker's
//! summary goes in through [`driver::ServerLoop::handle_done`]. The real training work
//! runs as tasks on a pool private to `run`, with `available_parallelism() − 1` helper
//! threads (none on a 1-core host):
//!
//! * **A gradient is a task from its pull to its push.** The event loop copies the
//!   global weights into the worker's lane (its [`driver::WorkerStep`], whose replica
//!   holds the weights and the gradient) and submits the lane's task when the iteration
//!   starts. It joins the task when the worker's push arrives and hands the server loop
//!   the gradient where the replica left it.
//! * **An evaluation is a task on a weight snapshot.** When the server loop hands out
//!   a due evaluation, the event loop copies the server weights into the evaluator's
//!   lane, which scores them with the job's one evaluator replica, and submits the
//!   task. It joins the task at the next evaluation or at the end of the run and hands
//!   the point back with its accuracy and training loss.
//!
//! The evaluator and the first worker live on helper 1, and the other workers are
//! dealt round-robin over the helpers, then the event loop. When a task's home thread
//! has not started it by its join, the event loop runs it in place.
//!
//! Why the trace stays bit for bit the one-thread trace, on any number of cores: a
//! gradient depends only on the weights its pull copied, its worker's replica and its
//! worker's batch stream, and nothing else touches those between the submit and the
//! join. An evaluation reads only its snapshot and the evaluator's replica. Every
//! server update, every clock read and every RNG draw of the time model stays on the
//! event loop, in event order, and the schedule's epoch comes from the push counts,
//! never from a lane that may already be drawing its next batch.
//!
//! # Example
//!
//! ```
//! use dssp_sim::{SimConfig, Simulation};
//! use dssp_nn::models::ModelSpec;
//! use dssp_ps::PolicyKind;
//! use dssp_cluster::ClusterSpec;
//! use dssp_data::SyntheticVectorSpec;
//!
//! let config = SimConfig {
//!     model: ModelSpec::Mlp { input_dim: 16, hidden: vec![16], classes: 4 },
//!     data: dssp_sim::DataSpec::Vector(SyntheticVectorSpec {
//!         classes: 4, dim: 16, train_size: 128, test_size: 64, noise_std: 0.5,
//!     }),
//!     cluster: ClusterSpec::heterogeneous_pair(),
//!     policy: PolicyKind::Dssp { s_l: 3, r_max: 12 },
//!     batch_size: 16,
//!     epochs: 2,
//!     ..SimConfig::default_small()
//! };
//! let trace = Simulation::new(config).run();
//! assert!(trace.total_pushes > 0);
//! ```

pub mod driver;
mod engine;
mod event;
mod pool;
mod trace;
mod worker;

pub use engine::{DataSpec, SimConfig, Simulation};
pub use trace::{GroupServerStats, RunTrace, TracePoint, WorkerSummary};
