//! `dssp-coord` — multi-server parameter-server groups: sharded scale-out with a
//! split clock/controller service.
//!
//! The paper already separates the parameter server (Algorithm 1) from the
//! synchronization controller (Algorithm 2); the single-server `dssp-net` deployment
//! collapses both into one process, making that process's bandwidth and push
//! aggregation the scaling wall. This crate removes the wall the way production
//! parameter-server systems do (Li et al.'s Parameter Server, MXNet's KVStore):
//!
//! * **N shard servers** ([`serve_shard`]) each own a contiguous run of the model's
//!   global shards — the closed-form [`GroupLayout`], two nested applications of
//!   `dssp_ps::shard_range`, so ownership is never wire-carried — and do nothing but
//!   apply gradient slices and serve (delta) pulls for their slice;
//! * **one coordinator** ([`coordinate`]) owns the `ClockTable`/`IntervalTracker`/
//!   staleness-rule state (a clock-only `dssp_core::driver::ServerLoop` over
//!   `dssp_ps::SyncGate`) and exchanges only tiny `ClockPush`/`GroupGrant` messages
//!   with workers — the synchronization decision lives apart from the storage path;
//! * **workers** ([`run_group_worker`]) run the single-server worker's loop
//!   (`dssp_net::worker::run_worker_loop`) over a group link that fans their bulk
//!   traffic directly over the owning shard servers ([`ShardFan`]): pipelined slice
//!   pushes (acked, so `Done` implies applied) with every server's shards written
//!   right behind its ack, assembled straight into the same reused global
//!   weight/version buffers the single-server worker uses. A round is two exchanges:
//!   the grant's per-rank push counts say whether those weights may be kept
//!   ([`keeps_weights`]); when not, the worker pulls again, with per-server delta
//!   pulls preserved.
//!
//! Because SGD is elementwise, each server's slice (weights *and* optimizer state)
//! evolves bitwise identically to the corresponding slice of a single server that
//! applies the same pushes in the same order. Deterministic mode imposes exactly that
//! order across the group (grant/apply/confirm serialization, see
//! [`coordinate`]'s module docs), which is how the workspace-level
//! `net_equivalence` test proves threaded == 1-server TCP == N-server group
//! **bitwise**. Outside deterministic mode each shard server applies pushes in its
//! own arrival order — the standard behaviour of asynchronous sharded parameter
//! servers.
//!
//! Layouts are **epoch-versioned**: every group starts at the closed-form epoch-0
//! [`GroupLayout`] and can change it mid-job through a coordinator-driven two-phase
//! **live migration** (freeze at a quiescent round boundary → transfer each moving
//! shard's weights and momentum → commit the new assignment everywhere, or roll
//! back). Operators trigger one with `repro -- drain <server>` / `repro -- rebalance`
//! (the admin channel, [`run_admin_command`]); jobs can schedule one declaratively
//! (`--migrate drain:2:64`). Every push and pull is epoch-stamped, and a stale route
//! gets a typed, retryable `NetError::EpochRefused` — never silent misapplication,
//! never a hang.
//!
//! | module | provides |
//! |---|---|
//! | [`layout`] | [`GroupLayout`]: epoch-versioned shard→server assignment + [`MigrationPlan`] |
//! | [`shard_server`] | [`ShardServerState`] + [`serve_shard`]: the storage-only loop |
//! | [`coordinator`] | [`coordinate`]: the clock/controller service + migration driver |
//! | [`client`] | [`ShardFan`] fan-out + [`run_group_worker`] (the one worker loop over the group's link) + [`run_admin_command`] |
//! | [`run`] | [`run_group_threads`]: whole group over TCP in one process |
//! | [`launch`] | [`launch_group`]: real server/worker processes + in-process coordinator |

#![deny(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod launch;
pub mod layout;
pub mod run;
pub mod shard_server;

pub use client::{
    keeps_weights, run_admin_command, run_group_worker, FanOutcome, ServerCounters, ServerLink,
    ShardFan,
};
pub use coordinator::coordinate;
pub use launch::{launch_group, GroupLaunchOutcome, LISTEN_LINE_PREFIX};
pub use layout::{GroupLayout, MigrationPlan, ShardMove};
pub use run::{connect_links, run_group_threads, GroupRunOutcome};
pub use shard_server::{initial_params, serve_shard, ShardServeReport, ShardServerState};
