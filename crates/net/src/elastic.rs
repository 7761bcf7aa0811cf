//! The lifecycle every serving role runs — the single server, the group coordinator
//! and each shard server — written once: [`Lifecycle`] opens the role (its
//! checkpoint, its observability bundle, its fault clock), runs the hooks after
//! every push, writes forced and final checkpoints, and closes the role;
//! [`goodbye`] ends its run on its peers. Each loop keeps only its protocol.
//!
//! A role is named by the [`Role`] and index its event log and metrics already
//! use. [`Lifecycle::open`] is the one place that works out what else the role is
//! called: its checkpoint file, its metrics port (shard server `i` serves at the
//! base `--metrics-addr` port + 1 + `i`, the others at the base) and the role a
//! [`FaultPlan`] names it by (the single server plays the group's server 0).
//!
//! The chaos matrix in the workspace tests kills processes at precise protocol
//! phases. Rather than each loop re-implementing "count occurrences of phase X and
//! die after N", a [`FaultClock`] owns the per-role occurrence counters and returns
//! [`NetError::FaultInjected`] the moment the configured plan comes due — the loop
//! propagates that error and the process exits *without* a protocol goodbye, so
//! peers observe the same abrupt connection loss a real crash produces. An `abort`
//! plan returns [`NetError::Aborted`] instead: the one way to stop a run from inside,
//! through the role's ordinary error path and its `Shutdown` broadcast.
//!
//! The durable half writes a snapshot every [`CheckpointSpec::every_pushes`] applied
//! pushes, on a migration commit and at run end, always atomically (temp file +
//! rename, via [`Checkpoint::save_atomic`]) under the role's file name, so a
//! restarted process can pick the run back up with `--restore`.

use crate::metrics::derive_metrics_addr;
use crate::obs::Obs;
use crate::tcp::TransportStats;
use crate::transport::ServerTransport;
use crate::wire::{Message, SHUTDOWN_SERVER_ERROR};
use crate::NetError;
use dssp_core::driver::{CheckpointSpec, FaultAction, FaultPhase, FaultPlan, FaultRole, JobConfig};
use dssp_core::events::Role;
use dssp_ps::Checkpoint;
use std::path::PathBuf;

/// Per-role occurrence counters for the fault phases, firing the job's
/// [`FaultPlan`] when it comes due.
///
/// Each serving role's [`Lifecycle`] holds one clock for that role (a group worker's
/// link keeps its own), and the phase hook runs at the canonical point: [`FaultClock::push`] after a push is applied (or granted),
/// [`FaultClock::pull`] after a pull is served, [`FaultClock::gate_blocked`] when a
/// push is deferred by the synchronization policy, and [`FaultClock::checkpoint`]
/// right after a checkpoint file lands. A plan for a *different* role is ignored, so
/// every process can carry the full job config unchanged. When a count makes the plan
/// fire is [`FaultPlan::due`]'s rule. A restarted process is *not* given the plan
/// again (the harness drops `--fault` on restart legs), so it runs clean.
#[derive(Debug, Clone)]
pub struct FaultClock {
    plan: Option<FaultPlan>,
    pushes: u64,
    pulls: u64,
    blocked: u64,
    checkpoints: u64,
    prepares: u64,
    transfers: u64,
    commits: u64,
}

impl FaultClock {
    /// A clock for `role`, armed with the job's plan if it targets that role.
    pub fn new(job: &JobConfig, role: FaultRole) -> Self {
        Self {
            plan: job.fault_plan.filter(|p| p.role == role),
            pushes: 0,
            pulls: 0,
            blocked: 0,
            checkpoints: 0,
            prepares: 0,
            transfers: 0,
            commits: 0,
        }
    }

    /// Counts one applied (or granted) push; errs if the plan's push phase is due.
    pub fn push(&mut self) -> Result<(), NetError> {
        self.pushes += 1;
        self.due(FaultPhase::Push, self.pushes)
    }

    /// Counts one served pull; errs if the plan's pull phase is due.
    pub fn pull(&mut self) -> Result<(), NetError> {
        self.pulls += 1;
        self.due(FaultPhase::Pull, self.pulls)
    }

    /// Counts one gate-deferred push; errs if the plan's gate phase is due.
    pub fn gate_blocked(&mut self) -> Result<(), NetError> {
        self.blocked += 1;
        self.due(FaultPhase::GateBlocked, self.blocked)
    }

    /// Counts one written checkpoint; errs if the plan's checkpoint phase is due.
    pub fn checkpoint(&mut self) -> Result<(), NetError> {
        self.checkpoints += 1;
        self.due(FaultPhase::Checkpoint, self.checkpoints)
    }

    /// Counts one migration prepare handled; errs if the plan's prepare phase is due.
    pub fn migrate_prepare(&mut self) -> Result<(), NetError> {
        self.prepares += 1;
        self.due(FaultPhase::MigratePrepare, self.prepares)
    }

    /// Counts one shard transfer leg handled; errs if the plan's transfer phase is due.
    pub fn migrate_transfer(&mut self) -> Result<(), NetError> {
        self.transfers += 1;
        self.due(FaultPhase::MigrateTransfer, self.transfers)
    }

    /// Counts one migration commit handled; errs if the plan's commit phase is due.
    pub fn migrate_commit(&mut self) -> Result<(), NetError> {
        self.commits += 1;
        self.due(FaultPhase::MigrateCommit, self.commits)
    }

    /// An `abort` plan ends the role's run with [`NetError::Aborted`], the ordinary
    /// error its serving loop answers with the server-error `Shutdown` broadcast;
    /// the kill actions with [`NetError::FaultInjected`], an abrupt death.
    fn due(&self, phase: FaultPhase, count: u64) -> Result<(), NetError> {
        match self.plan {
            Some(plan) if plan.due(phase, count) => Err(match plan.action {
                FaultAction::Abort => NetError::Aborted {
                    pushes: self.pushes,
                },
                FaultAction::KillRestart | FaultAction::KillEvict => plan.into(),
            }),
            _ => Ok(()),
        }
    }
}

/// One serving role's life, from its restore to its final checkpoint and event-log
/// flush. See the module docs for what it owns.
///
/// Dropped without [`Lifecycle::close`] — on any error path, an injected kill
/// included — it still flushes the role's event log, best effort, so a failed role
/// leaves its timeline behind.
pub struct Lifecycle {
    /// The role's structured events and metrics.
    pub obs: Obs,
    /// The role's fault clock, for the phases only some roles run (pulls served,
    /// migration legs); the push-phase hooks run in [`Lifecycle::after_push`].
    pub fault: FaultClock,
    /// The job digest every client's hello must carry and every checkpoint of the
    /// run is stamped with.
    pub digest: u64,
    sink: CheckpointSink,
    closed: bool,
}

impl Lifecycle {
    /// Opens serving role `role` number `index` (0 for the single server and the
    /// coordinator) of `job`: loads the role's checkpoint when the job restores, and
    /// builds its observability bundle, fault clock and checkpoint cadence. Returns
    /// the loaded checkpoint, which the role rebuilds its own state from.
    pub fn open(
        job: &JobConfig,
        role: Role,
        index: usize,
    ) -> Result<(Self, Option<Checkpoint>), NetError> {
        // Checkpoint file, metrics port offset, fault-plan name. The base metrics
        // port is the coordinator's, which shares the host with its shard servers in
        // in-process runs; the single server plays the group's server 0.
        let (file, port, fault) = match role {
            Role::Server => (
                dssp_ps::server_checkpoint_name(),
                0,
                FaultRole::ShardServer(0),
            ),
            Role::Coordinator => (dssp_ps::coord_checkpoint_name(), 0, FaultRole::Coordinator),
            Role::ShardServer => (
                dssp_ps::shard_checkpoint_name(index),
                1 + index as u16,
                FaultRole::ShardServer(index),
            ),
            Role::Worker => {
                return Err(NetError::Protocol(
                    "a worker is not a serving role".to_string(),
                ))
            }
        };
        let digest = job.stable_digest();
        let restored = match job.checkpoint.as_ref().filter(|c| c.restore) {
            Some(spec) => Some(Checkpoint::load_for_job(&spec.dir.join(&file), digest)?),
            None => None,
        };
        let metrics_addr = job
            .metrics_addr
            .as_deref()
            .map(|base| derive_metrics_addr(base, port))
            .transpose()?;
        let obs = Obs::new(
            role,
            index as u32,
            job.event_log.as_deref(),
            metrics_addr.as_deref(),
        )?;
        let life = Self {
            obs,
            fault: FaultClock::new(job, fault),
            sink: CheckpointSink::new(job.checkpoint.as_ref(), &file),
            digest,
            closed: false,
        };
        Ok((life, restored))
    }

    /// The hooks after an applied push, in order: the push fault, the gate fault
    /// when the push was deferred (`granted` false), the cadence checkpoint once
    /// `version` reaches its mark, its event and the checkpoint fault. `snapshot`
    /// is given the job digest and runs only when a file is due.
    pub fn after_push(
        &mut self,
        granted: bool,
        version: u64,
        snapshot: impl FnOnce(u64) -> Checkpoint,
    ) -> Result<(), NetError> {
        self.fault.push()?;
        if !granted {
            self.fault.gate_blocked()?;
        }
        let digest = self.digest;
        if self.sink.maybe_write(version, || snapshot(digest))? {
            self.obs.on_checkpoint(version);
            self.fault.checkpoint()?;
        }
        Ok(())
    }

    /// Writes a checkpoint at model version `version` now, whatever the cadence —
    /// a migration commit forces one, so a later restore never resurrects the
    /// pre-migration layout — and records it. A no-op when the job keeps none.
    pub fn checkpoint(
        &mut self,
        version: u64,
        snapshot: impl FnOnce(u64) -> Checkpoint,
    ) -> Result<(), NetError> {
        let digest = self.digest;
        if self.sink.write(|| snapshot(digest))? {
            self.obs.on_checkpoint(version);
        }
        Ok(())
    }

    /// Closes a completed run: the final checkpoint, so `--restore` always finds
    /// the terminal state whatever the cadence, the transport's byte counters, then
    /// the event log.
    pub fn close(
        &mut self,
        version: u64,
        snapshot: impl FnOnce(u64) -> Checkpoint,
        stats: &TransportStats,
    ) -> Result<(), NetError> {
        self.checkpoint(version, snapshot)?;
        self.obs.mirror_transport(stats);
        self.closed = true;
        self.obs.flush()?;
        Ok(())
    }
}

impl Drop for Lifecycle {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.obs.flush();
        }
    }
}

/// Ends a serving role's run on its peers and returns `result`: the `ok` reason's
/// `Shutdown` after a completed run, the server-error one after any failure — an
/// `abort` plan's included — to every client of `transport` and to whatever `also`
/// reaches (the coordinator's shard servers). An injected kill dies without it, as
/// a crash would. `ok` is [`SHUTDOWN_OK`](crate::wire::SHUTDOWN_OK) except on a
/// shard server, which passes on the reason its coordinator ended the group with.
pub fn goodbye<T>(
    result: Result<T, NetError>,
    ok: u8,
    transport: &mut dyn ServerTransport,
    also: impl FnOnce(&Message),
) -> Result<T, NetError> {
    let reason = match &result {
        Ok(_) => ok,
        Err(e) if e.is_injected_kill() => return result,
        Err(_) => SHUTDOWN_SERVER_ERROR,
    };
    let bye = Message::Shutdown { reason };
    transport.broadcast(&bye);
    also(&bye);
    result
}

/// Writes a role's checkpoint file on the configured push cadence and whenever
/// asked, always atomically (temp + rename). Inert when the job carries no
/// [`CheckpointSpec`]: every write is then a no-op.
#[derive(Debug)]
struct CheckpointSink {
    path: Option<PathBuf>,
    every: u64,
    next_at: u64,
}

impl CheckpointSink {
    /// A sink writing `file_name` inside the spec's directory, or an inert sink when
    /// the job has no checkpoint spec.
    fn new(spec: Option<&CheckpointSpec>, file_name: &str) -> Self {
        match spec {
            Some(s) => Self {
                path: Some(s.dir.join(file_name)),
                every: s.every_pushes.max(1),
                next_at: s.every_pushes.max(1),
            },
            None => Self {
                path: None,
                every: 0,
                next_at: u64::MAX,
            },
        }
    }

    /// Writes a checkpoint if `version` (applied pushes so far) reached the cadence
    /// mark. `make` is only invoked when a write actually happens. Returns whether a
    /// file was written.
    fn maybe_write(
        &mut self,
        version: u64,
        make: impl FnOnce() -> Checkpoint,
    ) -> Result<bool, NetError> {
        if version < self.next_at || !self.write(make)? {
            return Ok(false);
        }
        // Catch up past `version` so a burst of pushes between polls writes once.
        while self.next_at <= version {
            self.next_at += self.every;
        }
        Ok(true)
    }

    /// Writes a checkpoint now, without moving the cadence mark. Returns whether a
    /// file was written (false when inert).
    fn write(&mut self, make: impl FnOnce() -> Checkpoint) -> Result<bool, NetError> {
        let Some(path) = &self.path else {
            return Ok(false);
        };
        make().save_atomic(path)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_ps::PolicyKind;

    /// A clock for `role` armed with `spec`, run through `n` pushes: the first
    /// error, if one came due.
    fn pushes(spec: &str, role: FaultRole, n: u64) -> Option<NetError> {
        let mut job = JobConfig::small(PolicyKind::Asp);
        job.fault_plan = FaultPlan::parse(spec);
        let mut clock = FaultClock::new(&job, role);
        (0..n).find_map(|_| clock.push().err())
    }

    #[test]
    fn an_abort_plan_ends_the_run_at_its_push_and_the_kill_plans_die() {
        let server = FaultRole::ShardServer(0);
        assert!(matches!(
            pushes("server0:push:abort:3", server, 5),
            Some(NetError::Aborted { pushes: 3 })
        ));
        assert!(pushes("server0:push:abort:3", server, 2).is_none());
        assert!(matches!(
            pushes("coord:push:abort:1", FaultRole::Coordinator, 1),
            Some(NetError::Aborted { pushes: 1 })
        ));
        for spec in ["server0:push:restart:3", "server0:push:evict:3"] {
            match pushes(spec, server, 5) {
                Some(NetError::FaultInjected { plan }) => assert_eq!(plan, spec),
                other => panic!("{spec}: expected FaultInjected, got {other:?}"),
            }
        }
        // Another role's plan never fires here.
        assert!(pushes("server1:push:abort:1", server, 5).is_none());
    }
}
