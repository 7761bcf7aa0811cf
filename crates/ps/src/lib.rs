//! Parameter-server core for the DSSP reproduction.
//!
//! This crate implements the paper's primary contribution and the synchronization
//! machinery it sits on:
//!
//! * [`ClockTable`] — the array `t` of Algorithm 1 (push requests received per worker);
//! * [`IntervalTracker`] — table `A` of Algorithm 2 (the two most recent push
//!   timestamps per worker, from which iteration intervals are measured, Figure 1);
//! * [`StalenessRule`] — the server-side decision logic: one rule over the staleness
//!   range `[s_L, s_L + r_max]`, of which the four paradigms are points ([`PolicyKind`]:
//!   SSP is `r_max = 0`, BSP is SSP at `s = 0`, ASP is SSP at `s = ∞`);
//! * [`SyncController`] — Algorithm 2: the DSSP synchronization controller that
//!   simulates the next `r_max` iterations of the fastest and slowest workers and picks
//!   the number of extra iterations `r*` minimizing the predicted waiting time
//!   (Figure 2);
//! * [`ParameterServer`] — the server of Algorithm 1: one push path,
//!   [`ParameterServer::handle_push_into`], that applies the pushed gradient to the
//!   globally shared weights via SGD at once and gates the worker's next iteration
//!   with an `OK` decision ([`SyncGate::on_push`]);
//! * [`theory`] — numeric helpers for the regret bounds of Theorems 1 and 2;
//! * [`codec`] — the strict little-endian byte codec a [`Checkpoint`] and the wire
//!   protocol (`dssp_net::wire`) are both read and written through.
//!
//! The crate is runtime-agnostic: it contains no threads and no virtual clock. Both the
//! discrete-event simulator (`dssp-sim`) and the multi-threaded runtime
//! (`dssp-core::runtime`) drive the same `ParameterServer`, so the decision logic under
//! test is identical in both settings.
//!
//! # Example
//!
//! ```
//! use dssp_ps::{ParameterServer, PolicyKind, ServerConfig};
//! use dssp_nn::{Sgd, SgdConfig};
//!
//! let config = ServerConfig::new(2, PolicyKind::Dssp { s_l: 3, r_max: 12 });
//! let sgd = Sgd::new(SgdConfig::default(), 4);
//! let mut server = ParameterServer::new(vec![0.0; 4], sgd, config);
//! let mut released = Vec::new(); // reused across pushes: workers this push unblocks
//! let decision = server.handle_push_into(0, &[0.1, 0.1, 0.1, 0.1], 1.0, &mut released);
//! assert!(decision.ok_now);
//! ```

#![deny(missing_docs)]

mod checkpoint;
mod clock;
pub mod codec;
mod controller;
mod gate;
mod policy;
mod server;
mod sharded;
pub mod theory;

pub use checkpoint::{
    coord_checkpoint_name, server_checkpoint_name, shard_checkpoint_name, Checkpoint,
    CheckpointError, LayoutSnapshot, StoreSnapshot, CHECKPOINT_MAGIC, CHECKPOINT_TMP_SUFFIX,
    CHECKPOINT_VERSION, MAX_CHECKPOINT_LEN,
};
pub use clock::{ClockTable, IntervalTracker, WorkerId};
pub use controller::{ControllerDecision, SyncController};
pub use gate::{GateSnapshot, SyncGate};
pub use policy::{PolicyKind, StalenessRule};
pub use server::{ParameterServer, PushDecision, ServerConfig, ServerStats};
pub use sharded::{delta_compatible, shard_range, ShardedStore};
