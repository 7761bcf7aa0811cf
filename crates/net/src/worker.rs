//! The networked worker client: the same training step-loop as the threaded runtime
//! ([`dssp_core::driver::WorkerStep`]), talking to the server over a
//! [`WorkerTransport`].
//!
//! A round is one round trip: the worker pushes, waits for its `OK` (`PushReply`) and
//! reads the weights the server sends right behind it
//! ([`WorkerTransport::recv_pull_apply`]) — it asks for nothing. Only the `OK` of its
//! final push comes alone, and only its very first weights are requested, with an
//! explicit `Pull` after the handshake: a fresh process (or one rejoining a restored
//! server) holds nothing, so that reply is always a full one. After it, when
//! `JobConfig::delta_pulls` is set (the default), the server ships only the shards
//! that advanced past what it last sent this rank.
//!
//! The steady-state loop reuses three buffers across the whole run — the cached
//! weight vector, the cached per-shard version vector, and the gradient vector — so a
//! TCP worker performs zero heap allocations per message: gradients are computed into
//! the reused buffer and written to the socket straight from it
//! ([`WorkerTransport::send_push`]), and the weights are read from the socket straight
//! into the cache, a delta's shard runs each into their own key range.

use crate::elastic::fault_due;
use crate::transport::{PullOutcome, WorkerTransport};
use crate::wire::{Message, PROTOCOL_VERSION, SHUTDOWN_OK};
use crate::NetError;
use dssp_core::driver::{FaultPhase, FaultRole, JobConfig, WorkerStep};
use dssp_core::events::{trace_id, EventKind, EventLog, Role, SpanOp};
use std::time::Instant;

/// Records one structured event when the worker's event log is enabled.
#[inline]
fn ev(log: Option<&EventLog>, kind: EventKind, payload: u64) {
    if let Some(log) = log {
        log.record(kind, payload);
    }
}

/// Records one traced event when the worker's event log is enabled.
#[inline]
fn ev_traced(log: Option<&EventLog>, kind: EventKind, payload: u64, trace: u64) {
    if let Some(log) = log {
        log.record_traced(kind, payload, trace);
    }
}

/// This worker's causal trace-id source: a per-rank sequence starting at 1 (so id 0
/// stays [`dssp_core::events::NO_TRACE`]), one fresh id per worker-originated
/// operation. The id rides the v6 wire frames and is stamped into both ends' event
/// logs, which is what lets `repro analyze` join a worker's span to the server
/// events it caused.
struct TraceSource {
    rank: u32,
    seq: u32,
}

impl TraceSource {
    fn new(rank: usize) -> Self {
        Self {
            rank: rank as u32,
            seq: 0,
        }
    }

    /// Mints the next trace id.
    fn next(&mut self) -> u64 {
        self.seq = self.seq.wrapping_add(1);
        trace_id(self.rank, self.seq)
    }
}

/// What a worker experienced during its run, for logging and tests.
#[derive(Debug, Clone, PartialEq)]
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

/// Runs the worker side of a training job over the given transport: handshake, initial
/// pull, then one push → `OK` + weights round per iteration until the target is
/// reached.
///
/// A mid-run `Shutdown` from the server (abort paths) ends the loop cleanly with
/// [`WorkerReport::shutdown_early`] set rather than erroring, so chaos-testing a server
/// does not turn healthy workers into crashed processes.
///
/// # Panics
///
/// Panics if the configuration is inconsistent or `rank` is out of range.
pub fn run_worker(
    job: &JobConfig,
    rank: usize,
    transport: &mut dyn WorkerTransport,
) -> Result<WorkerReport, NetError> {
    // The worker's event timeline (`--event-log DIR` → `DIR/worker-<rank>.ndjson`):
    // join/push/pull plus the gate-block/gate-release pair bracketing every deferred
    // `OK` wait, from which the chrome-trace exporter reconstructs the per-worker
    // compute/blocked/pull lanes. Flushed on every exit path — including errors, so an
    // evicted or chaos-killed worker still leaves its timeline behind.
    let log = job
        .event_log
        .as_ref()
        .map(|_| EventLog::new(Role::Worker, rank as u32));
    let result = run_worker_inner(job, rank, transport, log.as_ref());
    if let (Some(log), Some(dir)) = (&log, &job.event_log) {
        let flushed = log.flush_to_dir(dir);
        if result.is_ok() {
            flushed?;
        }
    }
    result
}

fn run_worker_inner(
    job: &JobConfig,
    rank: usize,
    transport: &mut dyn WorkerTransport,
    log: Option<&EventLog>,
) -> Result<WorkerReport, NetError> {
    let mut step = WorkerStep::for_rank(job, rank);
    let mut report = WorkerReport {
        rank,
        iterations: 0,
        epochs: 0,
        waiting_time_s: 0.0,
        granted_extra_total: 0,
        last_shard_versions: Vec::new(),
        full_pulls: 0,
        delta_pulls: 0,
        shutdown_early: false,
    };
    // The three buffers of the steady-state loop, reused across every iteration.
    let mut weights: Vec<f32> = Vec::new();
    let mut versions: Vec<u64> = Vec::new();
    let mut grads: Vec<f32> = Vec::new();

    transport.send(&Message::Hello {
        version: PROTOCOL_VERSION,
        rank: rank as u32,
        num_workers: job.num_workers as u32,
        config_digest: job.stable_digest(),
    })?;

    // Membership handshake: the server answers with the number of pushes it has
    // already confirmed from this rank — zero on a fresh run, the restored count when
    // the server came back from a checkpoint. The worker fast-forwards its batch
    // schedule to that point and resumes at the next iteration.
    transport.send(&Message::JoinRequest)?;
    let resume_from = match transport.recv()? {
        Message::JoinAck { clock, .. } => clock,
        Message::Shutdown { .. } => {
            report.shutdown_early = true;
            report.last_shard_versions = versions;
            return Ok(report);
        }
        other => return Err(unexpected(rank, &other)),
    };
    ev(log, EventKind::Join, resume_from);
    if resume_from > 0 {
        step.skip_to(resume_from.min(step.target()));
        report.iterations = step.completed();
        report.epochs = step.epoch();
    }

    // This process's structured chaos hook, if the plan targets this rank.
    let fault = job.fault_plan.filter(|p| p.role == FaultRole::Worker(rank));
    let mut pulls_done: u64 = 0;
    let mut traces = TraceSource::new(rank);

    // The one pull this worker ever asks for: it holds nothing yet, so the reply is a
    // full one. Every later set of weights arrives unrequested, behind an `OK`.
    let pull_trace = traces.next();
    ev_traced(log, EventKind::SpanBegin, SpanOp::Pull.code(), pull_trace);
    transport.send(&Message::Pull { trace: pull_trace })?;
    match transport.recv_pull_apply(&mut weights, &mut versions)? {
        PullOutcome::Applied(applied) => {
            record_pull(&mut report, applied.full);
            ev_traced(log, EventKind::Pull, applied.clock, pull_trace);
            ev_traced(log, EventKind::SpanEnd, SpanOp::Pull.code(), pull_trace);
        }
        PullOutcome::Shutdown { .. } => {
            report.shutdown_early = true;
            report.last_shard_versions = versions;
            return Ok(report);
        }
    }
    pulls_done += 1;
    fault_due(fault.as_ref(), FaultPhase::Pull, pulls_done)?;

    let target = step.target();
    for iter in step.completed()..target {
        step.compute_gradient_into(&weights, &mut grads);
        report.iterations = step.completed();
        report.epochs = step.epoch();
        // One trace id per round. The push span covers the send plus the gate wait, so
        // the analyzer can split "network + apply" from "blocked on the DSSP gate"; the
        // pull span that follows it covers the weights riding the `OK`, and shares the
        // id the server stamps on both halves.
        let push_trace = traces.next();
        ev_traced(log, EventKind::SpanBegin, SpanOp::Push.code(), push_trace);
        transport.send_push(iter + 1, push_trace, &grads)?;
        ev_traced(log, EventKind::Push, iter + 1, push_trace);
        fault_due(fault.as_ref(), FaultPhase::Push, iter + 1)?;
        if iter + 1 == target {
            // Final push: report Done without waiting for the OK (no weights follow it).
            ev_traced(log, EventKind::SpanEnd, SpanOp::Push.code(), push_trace);
            break;
        }
        fault_due(fault.as_ref(), FaultPhase::GateBlocked, iter + 1)?;
        ev_traced(log, EventKind::GateBlock, iter + 1, push_trace);
        let wait_start = Instant::now();
        match transport.recv()? {
            Message::PushReply { granted_extra, .. } => {
                let waited = wait_start.elapsed();
                report.waiting_time_s += waited.as_secs_f64();
                report.granted_extra_total += granted_extra;
                ev_traced(
                    log,
                    EventKind::GateRelease,
                    waited.as_micros() as u64,
                    push_trace,
                );
                if granted_extra > 0 {
                    ev_traced(log, EventKind::CreditGrant, granted_extra, push_trace);
                }
                ev_traced(log, EventKind::SpanEnd, SpanOp::Push.code(), push_trace);
            }
            Message::Shutdown { reason } => {
                report.shutdown_early = reason != SHUTDOWN_OK || !step.finished();
                report.last_shard_versions = versions;
                return Ok(report);
            }
            other => return Err(unexpected(rank, &other)),
        }
        // The weights as of the `OK` are already on their way: no request to send.
        ev_traced(log, EventKind::SpanBegin, SpanOp::Pull.code(), push_trace);
        match transport.recv_pull_apply(&mut weights, &mut versions)? {
            PullOutcome::Applied(applied) => {
                record_pull(&mut report, applied.full);
                transport.note_confirmed_clock(applied.clock);
                ev_traced(log, EventKind::Pull, applied.clock, push_trace);
                ev_traced(log, EventKind::SpanEnd, SpanOp::Pull.code(), push_trace);
            }
            PullOutcome::Shutdown { reason } => {
                report.shutdown_early = reason != SHUTDOWN_OK || !step.finished();
                report.last_shard_versions = versions;
                return Ok(report);
            }
        }
        pulls_done += 1;
        fault_due(fault.as_ref(), FaultPhase::Pull, pulls_done)?;
    }

    transport.send(&Message::Done {
        iterations: step.completed(),
        epochs: step.epoch() as u64,
        waiting_time_s: report.waiting_time_s,
    })?;

    // Drain until the shutdown broadcast; a PushReply for the final push may still be
    // in flight (the server answers every granted push, even the last one — that one
    // without weights behind it).
    loop {
        match transport.recv()? {
            Message::Shutdown { reason } => {
                report.shutdown_early = reason != SHUTDOWN_OK;
                report.last_shard_versions = versions;
                return Ok(report);
            }
            Message::PushReply { granted_extra, .. } => {
                report.granted_extra_total += granted_extra;
            }
            other => return Err(unexpected(rank, &other)),
        }
    }
}

fn record_pull(report: &mut WorkerReport, full: bool) {
    if full {
        report.full_pulls += 1;
    } else {
        report.delta_pulls += 1;
    }
}

fn unexpected(rank: usize, msg: &Message) -> NetError {
    NetError::Protocol(format!("worker {rank} received unexpected {msg:?}"))
}
