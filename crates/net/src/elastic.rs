//! Elasticity plumbing shared by every serving loop: structured fault injection
//! ([`FaultClock`]) and durable checkpoint cadence ([`CheckpointSink`]).
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
//! [`CheckpointSink`] is the durable half: it decides *when* a snapshot is due
//! (every [`CheckpointSpec::every_pushes`] applied pushes) and writes it atomically
//! (temp file + rename, via [`Checkpoint::save_atomic`]) under the role-conventional
//! file name, so a restarted process can pick the run back up with
//! `--restore`.

use crate::NetError;
use dssp_core::driver::{CheckpointSpec, FaultAction, FaultPhase, FaultPlan, FaultRole, JobConfig};
use dssp_ps::Checkpoint;
use std::path::PathBuf;

/// Per-role occurrence counters for the fault phases, firing the job's
/// [`FaultPlan`] when it comes due.
///
/// Each serving loop creates one clock for its own role and calls the phase hook at
/// the canonical point: [`FaultClock::push`] after a push is applied (or granted),
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

/// Writes a role's checkpoint file on the configured push cadence, always
/// atomically (temp + rename), and once more unconditionally at run end.
///
/// Inactive when the job carries no [`CheckpointSpec`] — every hook is then a no-op,
/// so serving loops call the sink unconditionally.
#[derive(Debug)]
pub struct CheckpointSink {
    path: Option<PathBuf>,
    every: u64,
    next_at: u64,
    /// Checkpoint files written so far (tests assert cadence through this).
    pub written: u64,
}

impl CheckpointSink {
    /// A sink writing `file_name` inside the spec's directory, or an inert sink when
    /// the job has no checkpoint spec.
    pub fn new(spec: Option<&CheckpointSpec>, file_name: &str) -> Self {
        match spec {
            Some(s) => Self {
                path: Some(s.dir.join(file_name)),
                every: s.every_pushes.max(1),
                next_at: s.every_pushes.max(1),
                written: 0,
            },
            None => Self {
                path: None,
                every: 0,
                next_at: u64::MAX,
                written: 0,
            },
        }
    }

    /// Whether this sink actually persists anything.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// The file this sink writes, when active.
    pub fn path(&self) -> Option<&PathBuf> {
        self.path.as_ref()
    }

    /// Writes a checkpoint if `version` (applied pushes so far) reached the cadence
    /// mark. `make` is only invoked when a write actually happens. Returns whether a
    /// file was written.
    pub fn maybe_write(
        &mut self,
        version: u64,
        make: impl FnOnce() -> Checkpoint,
    ) -> Result<bool, NetError> {
        let Some(path) = &self.path else {
            return Ok(false);
        };
        if version < self.next_at {
            return Ok(false);
        }
        make().save_atomic(path)?;
        self.written += 1;
        // Catch up past `version` so a burst of pushes between polls writes once.
        while self.next_at <= version {
            self.next_at += self.every;
        }
        Ok(true)
    }

    /// Writes the final checkpoint unconditionally (run end), so `--restore` always
    /// finds the run's terminal state regardless of cadence alignment.
    pub fn finalize(&mut self, make: impl FnOnce() -> Checkpoint) -> Result<(), NetError> {
        if let Some(path) = &self.path {
            make().save_atomic(path)?;
            self.written += 1;
        }
        Ok(())
    }

    /// Writes a checkpoint now regardless of cadence (migration commits force one, so
    /// a post-commit restore never resurrects a pre-migration layout). No-op when
    /// inert; does not advance the cadence mark.
    pub fn force(&mut self, make: impl FnOnce() -> Checkpoint) -> Result<(), NetError> {
        if let Some(path) = &self.path {
            make().save_atomic(path)?;
            self.written += 1;
        }
        Ok(())
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
