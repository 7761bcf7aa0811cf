//! The worker's run, written once: [`run_worker_loop`] is the worker half of the
//! paper's Algorithm 1 — take the weights, compute, push, wait for `OK` — on
//! [`dssp_core::driver::WorkerStep`], and it reaches its server side only through a
//! [`WorkerLink`]. [`run_worker`] is that loop over a single-server link on a
//! [`WorkerTransport`]; `dssp_coord::run_group_worker` is the same loop over a link
//! that fans out to a group's shard servers and exchanges clocks with its
//! coordinator.
//!
//! The loop owns what must not exist twice: the resume point and the replayed batch
//! schedule, the model replica (its weights are the cache every pull writes into and
//! its gradient is what every push sends, one copy of each for the whole run), the
//! cached per-shard versions, the [`WorkerReport`], the causal trace-id sequence,
//! every worker-side event record and the worker's chaos fault points. A link owns
//! only the messages.
//!
//! Against a single server a round is one round trip: the worker pushes, waits for
//! its `OK` (`PushReply`) and reads the weights the server sends right behind it
//! ([`WorkerTransport::recv_pull_apply`]) — it asks for nothing. Only the `OK` of its
//! final push comes alone, and only its very first weights are requested, with an
//! explicit `Pull` after the handshake: a fresh process (or one rejoining a restored
//! server) holds nothing, so that reply is always a full one. After it, when
//! `JobConfig::delta_pulls` is set (the default), the server ships only the shards
//! that advanced past what it last sent this rank. Against a group the weights come
//! behind the slice acks of the push instead, read into the same buffers; the pull
//! after the `OK` keeps them when they hold every push the grant counted and asks
//! again otherwise.
//!
//! Because the buffers are reused, a TCP worker performs zero heap allocations per
//! round: gradients are accumulated in the replica and written to the socket straight
//! from it ([`WorkerTransport::send_push`]), and the weights are read from the socket
//! straight into the replica, a delta's shard runs each into their own key range. A
//! reply that leaves the weights at another length than the model's ends the run with
//! a protocol error naming both counts, before the step runs.

use crate::transport::{PullOutcome, WorkerTransport};
use crate::wire::{Message, PROTOCOL_VERSION, SHUTDOWN_OK};
use crate::NetError;
use dssp_core::driver::{FaultPhase, FaultRole, JobConfig, WorkerStep};
use dssp_core::events::{trace_id, EventKind, EventLog, Role, SpanOp, NO_TRACE};
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

/// What a worker experienced during its run, for logging and tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerReport {
    /// This worker's rank.
    pub rank: usize,
    /// Iterations actually completed.
    pub iterations: u64,
    /// Epochs completed over its shard.
    pub epochs: usize,
    /// Wall-clock seconds spent waiting for deferred `OK`s.
    pub waiting_time_s: f64,
    /// Sum of `granted_extra` over every push reply — nonzero means the DSSP
    /// controller let this worker run ahead (`r* > 0`).
    pub granted_extra_total: u64,
    /// Per-shard versions reported by the last pull (length = server shard count).
    pub last_shard_versions: Vec<u64>,
    /// Pull replies that arrived as full models (always ≥ 1: the initial pull).
    pub full_pulls: u64,
    /// Pull replies that arrived as shard deltas (0 when `delta_pulls` is off).
    pub delta_pulls: u64,
    /// Whether the server shut the run down before this worker finished (chaos abort
    /// or server failure). The worker still exited cleanly.
    pub shutdown_early: bool,
}

/// How an exchange on a [`WorkerLink`] ends when it does not yield its value.
#[derive(Debug)]
pub enum LinkEnd {
    /// The server side shut the run down instead of answering ([`SHUTDOWN_OK`] or
    /// the error reason). Not a failure of this worker: the run ends cleanly.
    Shutdown(u8),
    /// The exchange failed.
    Failed(NetError),
}

impl From<NetError> for LinkEnd {
    fn from(e: NetError) -> Self {
        LinkEnd::Failed(e)
    }
}

impl LinkEnd {
    /// The end a message the protocol does not allow at this point stands for: the
    /// run's shutdown if it is one, a protocol violation otherwise.
    pub fn unexpected(rank: usize, msg: Message) -> Self {
        match msg {
            Message::Shutdown { reason } => LinkEnd::Shutdown(reason),
            other => LinkEnd::Failed(NetError::Protocol(format!(
                "worker {rank} received unexpected {other:?}"
            ))),
        }
    }
}

/// The exchanges of a worker's run that differ between a single server and a group.
/// [`run_worker_loop`] calls them in protocol order — `join`, then `pull` /
/// `pulled` / `push` / `await_ok` per round, then `done` and `await_ok` until the
/// shutdown — and each yields its value or the [`LinkEnd`] it met. A test drives the
/// loop through a scripted implementation.
pub trait WorkerLink {
    /// Handshake and admission. Yields the number of this rank's pushes the server
    /// side has already confirmed: zero on a fresh run, the restored clock when it
    /// came back from a checkpoint.
    fn join(&mut self) -> Result<u64, LinkEnd>;

    /// Brings the caller's weight and per-shard version caches up to date, asking
    /// for the weights first when `ask` is set: the opening pull. Every later pull's
    /// weights are already on their way, behind the `OK` of a single server or
    /// behind the slice acks of a group's shard servers. Yields whether a full model
    /// arrived (versus a delta) and the payload of the worker's `pull` event: a
    /// single server's weight version; a group has no one version and counts its pull
    /// rounds.
    fn pull(
        &mut self,
        ask: bool,
        trace: u64,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<(bool, u64), LinkEnd>;

    /// Told that the pull is recorded and its fault point passed, before the
    /// compute starts. Only a deterministic group has something to say here.
    fn pulled(&mut self) -> Result<(), LinkEnd> {
        Ok(())
    }

    /// Ships iteration `iteration`'s gradients. Every push but a rank's final one is
    /// handed the loop's weight and version buffers: a link whose servers answer a
    /// push with their weights (a group's shard servers) reads them in before it
    /// returns, and its next unasked [`WorkerLink::pull`] keeps them or pulls again.
    /// A single server's weights ride the `OK` instead, so it ignores the buffers.
    fn push(
        &mut self,
        iteration: u64,
        trace: u64,
        grads: &[f32],
        weights: Option<(&mut Vec<f32>, &mut Vec<u64>)>,
    ) -> Result<(), LinkEnd>;

    /// Blocks for the next `OK` — the one for push `iteration`, or after `done` a
    /// late one for the final push — and yields the extra iterations it granted.
    fn await_ok(&mut self, iteration: u64) -> Result<u64, LinkEnd>;

    /// Reports the finished run. The shutdown broadcast that answers it arrives
    /// through [`WorkerLink::await_ok`].
    fn done(&mut self, iterations: u64, epochs: u64, waiting_time_s: f64) -> Result<(), LinkEnd>;
}

/// Runs the worker side of a training job over the link `connect` builds (it is
/// handed the model's parameter count and the worker's event log, if enabled): join
/// and fast-forward to the admitted clock, opening pull, then per iteration compute →
/// push → `OK` → weights, with the final push not awaited, `Done`, and the drain
/// until `Shutdown`.
///
/// A `Shutdown` met at any exchange (abort paths) ends the run cleanly with
/// [`WorkerReport::shutdown_early`] set rather than erroring, so chaos-testing a
/// server does not turn healthy workers into crashed processes.
///
/// # Panics
///
/// Panics if the configuration is inconsistent or `rank` is out of range.
pub fn run_worker_loop<L: WorkerLink>(
    job: &JobConfig,
    rank: usize,
    connect: impl FnOnce(usize, Option<&Arc<EventLog>>) -> L,
) -> Result<WorkerReport, NetError> {
    // The worker's event timeline (`--event-log DIR` → `DIR/worker-<rank>.ndjson`):
    // join/push/pull plus the gate-block/gate-release pair bracketing every deferred
    // `OK` wait, from which the chrome-trace exporter reconstructs the per-worker
    // compute/blocked/pull lanes.
    let log = job
        .event_log
        .as_ref()
        .map(|dir| EventLog::for_dir(Role::Worker, rank as u32, dir));
    let ev = |kind: EventKind, payload: u64, trace: u64| {
        if let Some(log) = &log {
            log.record_traced(kind, payload, trace);
        }
    };
    let mut step = WorkerStep::for_rank(job, rank);
    let mut link = connect(step.param_len(), log.as_ref());
    let mut report = WorkerReport {
        rank,
        ..WorkerReport::default()
    };
    // The per-shard versions of the weights the replica holds.
    let mut versions: Vec<u64> = Vec::new();
    // This process's structured chaos hook, if the plan targets this rank.
    let fault = job.fault_plan.filter(|p| p.role == FaultRole::Worker(rank));
    let due = |phase: FaultPhase, count: u64| match fault {
        Some(plan) if plan.due(phase, count) => Err(NetError::from(plan)),
        _ => Ok(()),
    };
    // Causal trace ids: a per-rank sequence starting at 1 (so id 0 stays `NO_TRACE`),
    // one fresh id per worker-originated operation. The id rides the wire frames and
    // is stamped into both ends' event logs, which is what lets `repro analyze` join
    // a worker's span to the server events it caused.
    let mut trace_seq: u32 = 0;
    let mut fresh_trace = || {
        trace_seq = trace_seq.wrapping_add(1);
        trace_id(rank as u32, trace_seq)
    };

    // Every way out of the session is a `LinkEnd`: the shutdown broadcast that
    // answers `Done`, a shutdown met earlier, or a failure.
    let mut session = || -> Result<Infallible, LinkEnd> {
        // The worker fast-forwards its batch schedule to the pushes already confirmed
        // for its rank — replaying the draws, not the compute — and resumes at the
        // next iteration.
        let resume_from = link.join()?;
        ev(EventKind::Join, resume_from, NO_TRACE);
        step.skip_to(resume_from.min(step.target()));
        let target = step.target();
        // The opening pull is always asked for: this process holds nothing yet.
        let mut ask = true;
        let mut push_trace = NO_TRACE;
        let mut pulls_done: u64 = 0;
        loop {
            // A pull that has to ask is an operation of its own; weights that ride an
            // `OK` are the second half of that push and share its trace id.
            let pull_trace = if ask { fresh_trace() } else { push_trace };
            ev(EventKind::SpanBegin, SpanOp::Pull.code(), pull_trace);
            let (full, clock) = link.pull(ask, pull_trace, step.arenas().0, &mut versions)?;
            if full {
                report.full_pulls += 1;
            } else {
                report.delta_pulls += 1;
            }
            pulls_done += 1;
            ev(EventKind::Pull, clock, pull_trace);
            ev(EventKind::SpanEnd, SpanOp::Pull.code(), pull_trace);
            due(FaultPhase::Pull, pulls_done)?;
            link.pulled()?;
            if step.finished() {
                break; // resumed at the target: nothing left to push
            }

            let (pulled, params) = (step.arenas().0.len(), step.param_len());
            if pulled != params {
                let msg = format!("worker {rank} pulled {pulled} weights for {params} parameters");
                return Err(LinkEnd::Failed(NetError::Protocol(msg)));
            }
            step.compute();
            let iteration = step.completed();
            // One trace id per push. Its span covers the send plus the gate wait, so
            // the analyzer can split "network + apply" from "blocked on the DSSP gate".
            push_trace = fresh_trace();
            ev(EventKind::SpanBegin, SpanOp::Push.code(), push_trace);
            let (weights, grads) = step.arenas();
            let fetch = (iteration < target).then_some((weights, &mut versions));
            link.push(iteration, push_trace, grads, fetch)?;
            ev(EventKind::Push, iteration, push_trace);
            due(FaultPhase::Push, iteration)?;
            if iteration == target {
                // Final push: report Done without waiting for the OK (no weights
                // follow it).
                ev(EventKind::SpanEnd, SpanOp::Push.code(), push_trace);
                break;
            }
            due(FaultPhase::GateBlocked, iteration)?;
            ev(EventKind::GateBlock, iteration, push_trace);
            let wait_start = Instant::now();
            let granted_extra = link.await_ok(iteration)?;
            let waited = wait_start.elapsed();
            report.waiting_time_s += waited.as_secs_f64();
            report.granted_extra_total += granted_extra;
            ev(
                EventKind::GateRelease,
                waited.as_micros() as u64,
                push_trace,
            );
            if granted_extra > 0 {
                ev(EventKind::CreditGrant, granted_extra, push_trace);
            }
            ev(EventKind::SpanEnd, SpanOp::Push.code(), push_trace);
            ask = false;
        }
        link.done(step.completed(), step.epoch() as u64, report.waiting_time_s)?;
        // Drain until the shutdown broadcast; an `OK` for the final push may still be
        // in flight (the server side answers every granted push, even the last one).
        loop {
            report.granted_extra_total += link.await_ok(target)?;
        }
    };
    let Err(end) = session();
    let result = match end {
        LinkEnd::Failed(e) => Err(e),
        LinkEnd::Shutdown(reason) => {
            report.iterations = step.completed();
            report.epochs = step.epoch();
            report.shutdown_early = reason != SHUTDOWN_OK || !step.finished();
            report.last_shard_versions = versions;
            Ok(report)
        }
    };
    // Flushed on every way out — including errors, so an evicted or chaos-killed
    // worker still leaves its timeline behind.
    if let (Some(log), Some(dir)) = (&log, &job.event_log) {
        let flushed = log.flush_to_dir(dir);
        if result.is_ok() {
            flushed?;
        }
    }
    result
}

/// Runs the worker side of a training job against a single server over the given
/// transport: [`run_worker_loop`] over the link below.
///
/// # Panics
///
/// Panics if the configuration is inconsistent or `rank` is out of range.
pub fn run_worker(
    job: &JobConfig,
    rank: usize,
    transport: &mut dyn WorkerTransport,
) -> Result<WorkerReport, NetError> {
    run_worker_loop(job, rank, |_, _| SingleServer {
        job,
        rank,
        transport,
    })
}

/// The link to one server that holds the whole model and the gate.
struct SingleServer<'a> {
    job: &'a JobConfig,
    rank: usize,
    transport: &'a mut dyn WorkerTransport,
}

impl WorkerLink for SingleServer<'_> {
    fn join(&mut self) -> Result<u64, LinkEnd> {
        self.transport.send(&Message::Hello {
            version: PROTOCOL_VERSION,
            rank: self.rank as u32,
            num_workers: self.job.num_workers as u32,
            config_digest: self.job.stable_digest(),
        })?;
        self.transport.send(&Message::JoinRequest)?;
        match self.transport.recv()? {
            Message::JoinAck { clock, .. } => Ok(clock),
            other => Err(LinkEnd::unexpected(self.rank, other)),
        }
    }

    fn pull(
        &mut self,
        ask: bool,
        trace: u64,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<(bool, u64), LinkEnd> {
        if ask {
            self.transport.send(&Message::Pull { trace })?;
        }
        match self.transport.recv_pull_apply(weights, versions)? {
            PullOutcome::Applied(applied) => {
                self.transport.note_confirmed_clock(applied.clock);
                Ok((applied.full, applied.clock))
            }
            PullOutcome::Shutdown { reason } => Err(LinkEnd::Shutdown(reason)),
        }
    }

    fn push(
        &mut self,
        iteration: u64,
        trace: u64,
        grads: &[f32],
        _weights: Option<(&mut Vec<f32>, &mut Vec<u64>)>,
    ) -> Result<(), LinkEnd> {
        Ok(self.transport.send_push(iteration, trace, grads)?)
    }

    fn await_ok(&mut self, _iteration: u64) -> Result<u64, LinkEnd> {
        match self.transport.recv()? {
            Message::PushReply { granted_extra, .. } => Ok(granted_extra),
            other => Err(LinkEnd::unexpected(self.rank, other)),
        }
    }

    fn done(&mut self, iterations: u64, epochs: u64, waiting_time_s: f64) -> Result<(), LinkEnd> {
        Ok(self.transport.send(&Message::Done {
            iterations,
            epochs,
            waiting_time_s,
        })?)
    }
}
