//! `dssp-net` — the networked DSSP parameter server.
//!
//! The simulator (`dssp-sim`) and the threaded runtime (`dssp-core::runtime`) exercise
//! the paper's server and synchronization controller inside one process. This crate
//! adds the boundary that defines production parameter-server systems (Li et al.'s
//! Parameter Server, MXNet's KVStore): a wire protocol, a transport, and per-worker
//! connection state, so the *same* decision logic gates workers across OS processes —
//! the single-machine analogue of the paper's 4-node testbed.
//!
//! Layers, bottom to top:
//!
//! | module | provides |
//! |---|---|
//! | [`wire`] | versioned, length-prefixed little-endian codec for the protocol messages (v8: 35 kinds incl. the multi-server group and migration sets), streaming writers/reader for the bulk frames |
//! | [`transport`] | [`ServerTransport`]/[`WorkerTransport`]: one frame writer and one frame reader per end, plus every message operation written once over them with the streaming codecs; a server end's [`ServerReplies`] and the [`ServeStep`] it runs on every arrival; the in-process [`transport::loopback`], whose channels carry the bytes TCP writes |
//! | [`tcp`] | the real-socket transport (`std::net`, blocking reader thread per connection that runs the serving step on the frame it read, read-timeout peer attribution) |
//! | [`elastic`] | [`Lifecycle`]: the one lifecycle of every serving role (open, push hooks, checkpoints, close) and its [`goodbye`]; the [`FaultClock`] |
//! | [`server`] | [`serve`]: the single server's serving step, one message at a time |
//! | [`worker`] | [`worker::run_worker_loop`]: the worker's run, once, over a [`worker::WorkerLink`]; [`run_worker`] is it over the single-server link |
//! | [`launch`] | [`launch::launch`]: server in-process + one child process per worker |
//! | [`cli`] | flag parsing shared by the `repro` subcommands and the launchers |
//! | [`metrics`] | atomic counter registry + hand-rolled Prometheus `GET /metrics` endpoint (`--metrics-addr`) |
//! | [`obs`] | the per-process observability bundle: event log + metrics + endpoint behind one set of hot-path hooks |
//!
//! The multi-server group deployment — N storage-only shard servers plus a
//! clock-only coordinator speaking this crate's protocol — lives one layer up in
//! `dssp-coord`.
//!
//! Both runtimes sit on `dssp_core::driver`, so a run over [`transport::loopback`] in
//! deterministic mode is bitwise-equal to a deterministic threaded run — the
//! workspace-level `net_equivalence` test asserts exactly that. Loopback moves the
//! same encoded frames as TCP, which ships IEEE-754 bit patterns verbatim, so the
//! equality extends across real sockets.
//!
//! The steady-state round is **one round trip, delta-shipping, copy-once and
//! allocation-free**. Since protocol v7 the `OK` carries the weights: the server
//! follows every `PushReply` with the shards that advanced past what it last shipped
//! that rank (`PullReplyDelta`; a full `PullReply` on first contact, with delta pulls
//! off, or on a version mismatch), so a worker asks for weights exactly once, before
//! its first iteration. The TCP transport writes every bulk frame as one vectored
//! syscall of a stack header plus the run's own bytes and reads it from the socket
//! straight into the buffer it is for — a gradient `Vec` recycled between the command
//! loop and the connection's reader, the worker's own weight ranges — so no bulk byte
//! is staged or copied twice, and neither end allocates per message once warm
//! (enforced by a counting-allocator test).
//!
//! # Example (in-process loopback)
//!
//! ```
//! use dssp_core::driver::JobConfig;
//! use dssp_net::{serve, run_worker, transport::loopback};
//! use dssp_ps::PolicyKind;
//!
//! let mut job = JobConfig::small(PolicyKind::Bsp);
//! job.epochs = 1;
//! let (mut server, workers) = loopback(job.num_workers);
//! let handles: Vec<_> = workers
//!     .into_iter()
//!     .enumerate()
//!     .map(|(rank, mut transport)| {
//!         let job = job.clone();
//!         std::thread::spawn(move || run_worker(&job, rank, &mut transport).unwrap())
//!     })
//!     .collect();
//! let trace = serve(&job, &mut server).unwrap();
//! for handle in handles {
//!     handle.join().unwrap();
//! }
//! assert!(trace.total_pushes > 0);
//! ```

#![deny(missing_docs)]

pub mod cli;
pub mod elastic;
mod error;
pub mod launch;
pub mod metrics;
pub mod obs;
pub mod server;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use elastic::{goodbye, FaultClock, Lifecycle};
pub use error::{NetError, FAULT_EXIT_CODE};
pub use metrics::{Metrics, MetricsServer};
pub use obs::Obs;
pub use server::{require_helloed, serve, validate_hello};
pub use tcp::{TcpServerTransport, TcpWorkerTransport, TransportStats};
pub use transport::{
    reclaim, Arrival, PullOutcome, PullView, ServeStep, ServerReplies, ServerTransport, StepsRun,
    WorkerTransport,
};
pub use wire::{Message, PullApplied, ShardUpdate, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerReport};
