//! The coordinator service: the clock/controller half of a multi-server group.
//!
//! The coordinator owns exactly the state the paper's Algorithms 1 and 2 need —
//! worker clocks, the interval table, the synchronization policy — via a clock-only
//! [`ServerLoop`] (`dssp_ps::SyncGate` underneath), and never touches bulk data:
//! workers push and pull weight shards directly against the shard servers and
//! exchange only tiny `ClockPush`/`GroupGrant` messages here. The coordinator also
//! keeps one client link per shard server for evaluation pulls (assembling the global
//! weights into a reused buffer, delta-incrementally), end-of-run statistics
//! collection, and shutdown propagation.
//!
//! A group round is two exchanges: the push round, in which every shard server
//! writes its weights right behind the slice ack, and this clock hop, which the
//! worker starts once every ack is in, while the last server's weights are still on
//! their way. Every grant ([`Message::GroupGrant`]) carries the gate's per-rank push
//! counts at the moment of the decision, and the worker keeps the weights it already
//! holds iff every counted push is in them (`dssp_coord::keeps_weights`); the gate
//! counts a push only after all its slices were acked, so a pull after the grant
//! would see every counted push and the rule is exact.
//!
//! The loop is a serving step with the shape of every serving loop, and the transport
//! runs it on every arrival ([`ServerTransport::run_steps`]; over TCP on the connection
//! thread that read the frame, which runs the gate and writes the grant itself): offer
//! each arriving `ClockPush` / `Done` to the [`ServerLoop`], drain what it is ready to
//! release, apply it (a clock push is [`ServerLoop::handle_push_slice`] with no
//! gradients) and deliver the grants. The closing evaluation, the shard servers'
//! counters and the final checkpoint follow once the step reports every worker done.
//! A reply that cannot be delivered — the worker died between its message and the
//! answer — evicts that worker; it never fails the group. Restore, events and
//! metrics, the hooks after each clock push, the forced and final checkpoints and
//! the closing `Shutdown` (to the workers and, as the extra recipient, the shard
//! servers) are `dssp-net`'s [`Lifecycle`] and [`goodbye`], which every serving role
//! runs.
//!
//! # Deterministic mode
//!
//! Under [`JobConfig::deterministic`] the coordinator additionally serializes the
//! group so an N-server run is bitwise equal to a single server: the loop releases
//! events in canonical `(iteration, rank)` order; a released push is granted back to
//! its worker ([`Message::PushGrant`]) and the clock only advances once the worker
//! confirms every shard server acked its slices ([`Message::PushApplied`], sent
//! before the last server's shards are read: that server wrote them before it serves
//! anything else, so what the worker reads is its store at the apply); granted
//! workers' pulls are awaited ([`Message::PullDone`]) before the next mutating event
//! is dispatched. No gradient application, pull, or evaluation can therefore
//! interleave with another mutation — the exact serialization a single server's
//! command loop gets for free.

use crate::client::{FanOutcome, ServerCounters, ServerLink, ShardFan};
use crate::layout::MigrationPlan;
use dssp_core::driver::{JobConfig, MigrationCommand, OkReply, ServerLoop, WorkerEvent};
use dssp_core::events::{trace_id, EventKind, Role, NO_TRACE};
use dssp_net::wire::{MIGRATE_CONTROL, PROTOCOL_VERSION, SHUTDOWN_OK};
use dssp_net::{
    goodbye, reclaim, require_helloed, validate_hello, Arrival, Lifecycle, Message, NetError,
    ServeStep, ServerReplies, ServerTransport, TransportStats,
};
use dssp_ps::{CheckpointError, LayoutSnapshot};
use dssp_sim::{GroupServerStats, RunTrace, WorkerSummary};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// Runs a full training job as the coordinator of a group and returns the run trace,
/// with [`RunTrace::group_servers`] aggregating every shard server's counters.
///
/// `transport` serves the workers (one slot per rank); `links` are fresh connections
/// to the shard servers, in server order (the coordinator handshakes them itself,
/// announcing rank `num_workers`). On every exit path — success, protocol failure, or
/// an `abort` fault plan (`coord:push:abort:N`) — `Shutdown` is broadcast to all
/// workers *and* propagated to every shard server, so no group process is ever
/// leaked; only a kill plan dies without it, as a crash would.
///
/// # Panics
///
/// Panics if the configuration is inconsistent ([`JobConfig::validate`]).
pub fn coordinate(
    job: &JobConfig,
    transport: &mut dyn ServerTransport,
    links: Vec<ServerLink>,
) -> Result<RunTrace, NetError> {
    job.validate();
    // One slot per worker, plus at most one spare: the operator's admin channel
    // (rank `num_workers`), used by `drain`/`rebalance` CLI clients mid-run.
    let extra = transport.num_workers().wrapping_sub(job.num_workers);
    if extra > 1 {
        return Err(NetError::Protocol(format!(
            "coordinator transport serves {} workers but the job has {}",
            transport.num_workers(),
            job.num_workers
        )));
    }
    let admin = (extra == 1).then_some(job.num_workers);
    // The fan comes back out of the coordinator however its run ends, for the
    // goodbye; a restore that fails before the fan exists still shuts the workers
    // down, and the dropped shard-server links tell the shard servers their
    // coordinator is gone.
    let mut fan = None;
    let result = Lifecycle::open(job, Role::Coordinator, 0).and_then(|(life, restored)| {
        // Start fresh, or resume the synchronization state (clocks, credits, interval
        // tick) and the layout the group had migrated to before the crash, adopted
        // into the fan before any traffic flows.
        let restoring = restored.is_some();
        let (sl, restored_layout) = match restored {
            Some(ckpt) => (ServerLoop::restore(job, &ckpt, true)?, ckpt.layout),
            None => (ServerLoop::clock_only(job), None),
        };
        let group = ShardFan::new(job, sl.param_len(), links);
        let mut coordinator = Box::new(Coordinator::new(job, sl, admin, life, group));
        let mut settled = coordinator
            .open(restored_layout, restoring)
            .and_then(|()| coordinator.settle(&mut *transport));
        if let Ok(false) = settled {
            let (step, outcome) = transport.run_steps(coordinator);
            coordinator = reclaim(step)?;
            settled = outcome.map(|()| true);
        }
        let (trace, group) = coordinator.finish(settled, transport.transport_stats());
        fan = Some(group);
        trace
    });
    goodbye(result, SHUTDOWN_OK, transport, |bye| {
        if let Some(fan) = &mut fan {
            fan.send_all(bye);
        }
    })
}

/// The coordinator's per-run state: the clock-only decision loop plus the
/// deterministic-mode serialization bookkeeping. It is the serving step the
/// transport runs on every arrival.
struct Coordinator {
    job: JobConfig,
    sl: ServerLoop,
    /// The links to the shard servers: evaluation pulls, migrations, statistics.
    fan: ShardFan,
    helloed: Vec<bool>,
    /// Last announced ClockPush iteration per worker (a granted worker whose push was
    /// final will never pull again, so no PullDone is expected from it).
    last_iter: Vec<u64>,
    /// Last causal trace id per worker (a worker has one operation in flight at a
    /// time), stamped into the gate events its clock pushes produce.
    last_trace: Vec<u64>,
    /// Sequence for coordinator-originated traces (migration legs, evaluation
    /// pulls); their rank slot is `num_workers` — one past the worker ranks.
    coord_seq: u32,
    /// The granted push we are waiting on (deterministic mode).
    pending_apply: Option<WorkerEvent>,
    /// A released event we could not dispatch yet (pulls still in flight).
    held: Option<WorkerEvent>,
    /// Which workers have a granted pull in flight (everyone's initial pull at the
    /// start). Per-worker so evicting a dead worker cancels exactly its pull.
    pull_pending: Vec<bool>,
    /// The role's lifecycle: chaos hooks, events and counters, and the durable
    /// checkpoint (clock state only — the weights live on the shard servers, which
    /// checkpoint themselves).
    life: Lifecycle,
    /// Reused assembly buffers for evaluation pulls.
    eval_weights: Vec<f32>,
    eval_versions: Vec<u64>,
    start: Instant,
    /// The admin channel's transport rank (`num_workers`) when the transport bound
    /// the spare slot, `None` on transports sized exactly to the worker count.
    admin: Option<usize>,
    /// Whether the admin slot has handshaked (version-checked `Hello`).
    admin_helloed: bool,
    /// A migration armed (by the admin channel or the declarative spec) and waiting
    /// for group quiescence to execute.
    armed: Option<ArmedMigration>,
    /// Non-deterministic mode: clock grants produced while a migration is armed are
    /// withheld here and flushed after the commit's `LayoutUpdate` broadcast — the
    /// per-connection TCP ordering then guarantees every worker adopts the new
    /// layout before its next fan-out.
    withheld: Vec<(usize, Message)>,
    /// Which workers are blocked at the gate awaiting a clock grant (the
    /// non-deterministic quiescence signal: such a worker has no fan-out in flight).
    awaiting_grant: Vec<bool>,
    /// Which workers have reported `Done` or been evicted (also quiescent).
    finished: Vec<bool>,
}

/// A migration waiting at the coordinator for the group to reach a quiescent round
/// boundary.
struct ArmedMigration {
    /// The drain or rebalance to run.
    command: MigrationCommand,
    /// The admin rank to answer with [`Message::AdminAck`], `None` when the spec
    /// armed the migration.
    requester: Option<usize>,
}

impl ServeStep for Coordinator {
    /// One message (or lost connection) in: dispatch it, then settle.
    fn step(
        &mut self,
        arrival: Arrival,
        replies: &mut dyn ServerReplies,
    ) -> Result<bool, NetError> {
        match arrival {
            // The operator's CLI hung up after its ack (or mid-request): the admin
            // slot is not a worker, nothing to evict.
            Err(NetError::ClientLost { rank }) if Some(rank) == self.admin => {}
            // A worker died mid-run: reap it instead of stalling the gate.
            Err(NetError::ClientLost { rank }) => self.evict(replies, rank)?,
            Err(e) => return Err(e),
            Ok((rank, msg)) if Some(rank) == self.admin => self.handle_admin(replies, rank, msg)?,
            Ok((rank, msg)) => self.dispatch(replies, rank, msg)?,
        }
        self.settle(replies)
    }
}

impl Coordinator {
    fn new(
        job: &JobConfig,
        sl: ServerLoop,
        admin: Option<usize>,
        life: Lifecycle,
        fan: ShardFan,
    ) -> Self {
        let det = job.deterministic;
        // Zero on a fresh run, the checkpointed clocks after a restore.
        let last_iter = sl.push_counts();
        Self {
            job: job.clone(),
            helloed: vec![false; job.num_workers],
            last_iter,
            last_trace: vec![NO_TRACE; job.num_workers],
            coord_seq: 0,
            pending_apply: None,
            held: None,
            // Deterministic mode: every worker — finished or not, on a restore —
            // pulls before anything else.
            pull_pending: vec![det; job.num_workers],
            life,
            eval_weights: Vec::new(),
            eval_versions: Vec::new(),
            start: Instant::now(),
            admin,
            admin_helloed: false,
            armed: None,
            withheld: Vec::new(),
            awaiting_grant: vec![false; job.num_workers],
            finished: vec![false; job.num_workers],
            sl,
            fan,
        }
    }

    /// Handshakes every shard server and adopts the layout a restored group had
    /// migrated to, checking that the restored shard servers agree with the clocks.
    fn open(
        &mut self,
        restored_layout: Option<LayoutSnapshot>,
        restoring: bool,
    ) -> Result<(), NetError> {
        let fan = &mut self.fan;
        fan.set_event_log(self.life.obs.event_log().cloned());
        fan.hello(&self.job, self.job.num_workers as u32)?;
        if let Some(l) = restored_layout.filter(|l| l.epoch != 0) {
            fan.adopt(l.epoch, &l.assignment)?;
        }
        if restoring {
            check_restore_skew(&self.sl, fan)?;
        }
        self.life
            .obs
            .set_layout(fan.layout().epoch(), fan.layout().shards() as u64);
        Ok(())
    }

    fn pulls_in_flight(&self) -> bool {
        self.pull_pending.iter().any(|&p| p)
    }

    /// Mints the next coordinator-originated trace id (rank slot `num_workers`).
    fn next_coord_trace(&mut self) -> u64 {
        self.coord_seq = self.coord_seq.wrapping_add(1);
        trace_id(self.job.num_workers as u32, self.coord_seq)
    }

    /// Reaps one dead (or explicitly evicted) worker: cancels whatever it had in
    /// flight (a granted-but-unconfirmed push, a pending pull, queued events),
    /// reclaims its policy credits, retires its clock, and delivers the grants its
    /// departure releases to the survivors.
    fn evict(&mut self, replies: &mut dyn ServerReplies, rank: usize) -> Result<(), NetError> {
        if self
            .pending_apply
            .as_ref()
            .is_some_and(|ev| ev.worker() == rank)
        {
            self.pending_apply = None;
        }
        if self.held.as_ref().is_some_and(|ev| ev.worker() == rank) {
            self.held = None;
        }
        self.pull_pending[rank] = false;
        self.finished[rank] = true;
        self.awaiting_grant[rank] = false;
        let now = self.start.elapsed().as_secs_f64();
        let mut released = Vec::new();
        self.sl.evict_worker(rank, now, &mut released);
        self.life.obs.on_eviction(rank);
        for reply in &released {
            self.life.obs.event_traced(
                EventKind::GateRelease,
                reply.worker as u64,
                self.last_trace[reply.worker],
            );
        }
        self.life.obs.sync_loop(&self.sl);
        for reply in &released {
            self.send_grant(replies, reply.worker, reply.granted_extra)?;
        }
        Ok(())
    }

    /// Sends `msg` to a worker and reports whether it went out. A failed send means
    /// the worker died between its last message and this reply: it is reaped like any
    /// other [`NetError::ClientLost`] instead of the broken link aborting the whole
    /// group, and the caller carries on with the survivors. Each failure retires one
    /// more worker, so the mutual recursion with [`Coordinator::evict`] (whose
    /// released grants come back through here) is bounded by the fleet size.
    fn send_or_evict(
        &mut self,
        replies: &mut dyn ServerReplies,
        worker: usize,
        msg: &Message,
    ) -> Result<bool, NetError> {
        if replies.send(worker, msg).is_ok() {
            return Ok(true);
        }
        self.evict(replies, worker)?;
        Ok(false)
    }

    /// Delivers one clock grant — or withholds it while a migration is armed in
    /// non-deterministic mode, so the grantee stays blocked at the gate until the
    /// commit's layout broadcast has gone out ahead of it. Deterministic mode never
    /// withholds: the dispatch loop simply stops releasing events while armed, and
    /// quiescence follows from the drained pulls.
    fn send_grant(
        &mut self,
        replies: &mut dyn ServerReplies,
        worker: usize,
        granted_extra: u64,
    ) -> Result<(), NetError> {
        let msg = Message::GroupGrant {
            granted_extra,
            version: self.sl.version(),
            counted: (0..self.job.num_workers)
                .map(|w| self.sl.push_count(w))
                .collect(),
        };
        if self.armed.is_some() && !self.job.deterministic {
            self.withheld.push((worker, msg));
        } else if self.send_or_evict(replies, worker, &msg)? {
            self.awaiting_grant[worker] = false;
        } else {
            return Ok(());
        }
        if self.job.deterministic && self.last_iter[worker] < self.sl.targets()[worker] {
            self.pull_pending[worker] = true;
        }
        Ok(())
    }

    /// Sends every withheld grant (after a commit's layout broadcast, or after a
    /// refused/rolled-back migration disarms).
    fn flush_withheld(&mut self, replies: &mut dyn ServerReplies) -> Result<(), NetError> {
        for (worker, msg) in std::mem::take(&mut self.withheld) {
            if self.send_or_evict(replies, worker, &msg)? {
                self.awaiting_grant[worker] = false;
            }
        }
        Ok(())
    }

    /// Non-deterministic quiescence: every worker is finished or blocked at the gate
    /// awaiting a grant. A worker sends `ClockPush` only once every shard server acked
    /// its slices, and it pulls again only after receiving a grant — so when all are
    /// blocked, no slice or pull request is in flight anywhere in the group. The last
    /// server's shards may still be on their way to a worker, but that server wrote
    /// them before it reads anything the migration sends it.
    fn quiescent(&self) -> bool {
        (0..self.job.num_workers).all(|w| self.finished[w] || self.awaiting_grant[w])
    }

    /// Dispatches everything the loop is ready to release — under deterministic
    /// mode's serialization rules: one granted push at a time, no mutation while a
    /// granted pull is in flight — and runs an armed migration once the group is
    /// quiescent. Then reports whether every worker is done; until then, mirrors the
    /// transport's counters.
    fn settle(&mut self, replies: &mut dyn ServerReplies) -> Result<bool, NetError> {
        let det = self.job.deterministic;
        // Arm the declarative migration, if it came due (admin requests arm as they
        // arrive); execution always waits for group quiescence below.
        self.maybe_arm();
        while self.pending_apply.is_none() && !self.sl.all_done() {
            // Freeze point: release nothing more while armed. Once every granted
            // pull has drained the group is quiescent (no granted push is pending
            // either — `pending_apply` is `None` here).
            let frozen = det && self.armed.is_some();
            if frozen && self.pulls_in_flight() {
                break;
            }
            if let Some(armed) = self.armed.take_if(|_| frozen) {
                self.execute_armed(replies, armed)?;
                continue;
            }
            if self.held.is_none() {
                self.held = self.sl.next_ready();
            }
            let Some(event) = self.held.take() else { break };
            // Mutating events wait until every granted pull completed.
            if self.pulls_in_flight() {
                self.held = Some(event);
                break;
            }
            match event {
                WorkerEvent::Push { worker, .. } if det => {
                    // Grant the apply slot; the clock advances on PushApplied.
                    if self.send_or_evict(replies, worker, &Message::PushGrant)? {
                        self.pending_apply = Some(event);
                    }
                }
                WorkerEvent::Push { worker, .. } => self.apply_push(replies, worker)?,
                WorkerEvent::Done(summary) => self.apply_done(replies, summary)?,
                WorkerEvent::Pull { worker } => {
                    return Err(NetError::Protocol(format!(
                        "the coordinator's loop released a pull of worker {worker}, but \
                         group workers pull from the shard servers"
                    )))
                }
            }
        }
        // Non-deterministic mode reaches quiescence when every worker is blocked at
        // the gate (their grants withheld while armed).
        let quiescent = !det && self.armed.is_some() && self.quiescent();
        if let Some(armed) = self.armed.take_if(|_| quiescent) {
            self.execute_armed(replies, armed)?;
        }
        if self.sl.all_done() {
            return Ok(true);
        }
        self.life.obs.mirror_transport(&replies.transport_stats());
        self.life
            .obs
            .metrics()
            .reconnects
            .store(self.fan.reconnects, Relaxed);
        Ok(false)
    }

    /// Offers one worker's message to the loop, or answers it at the protocol level.
    fn dispatch(
        &mut self,
        replies: &mut dyn ServerReplies,
        rank: usize,
        msg: Message,
    ) -> Result<(), NetError> {
        if !matches!(msg, Message::Hello { .. }) {
            require_helloed(&self.helloed, rank)?;
        }
        match msg {
            Message::Hello {
                version,
                rank: hello_rank,
                num_workers,
                config_digest,
            } => {
                validate_hello(
                    rank,
                    version,
                    hello_rank,
                    num_workers,
                    config_digest,
                    self.job.num_workers,
                    self.life.digest,
                    &mut self.helloed,
                )?;
                self.life.obs.on_join(rank);
            }
            Message::JoinRequest => {
                // Membership: admit the worker at the number of pushes already
                // confirmed from its rank — zero on a fresh run, the restored clock
                // after a checkpoint restore — and hand it the committed layout, so a
                // (re)joiner of a migrated group routes correctly from its very first
                // fan-out.
                let epoch = self.fan.layout().epoch();
                let ack = Message::JoinAck {
                    clock: self.sl.push_count(rank),
                    epoch,
                    assignment: if epoch == 0 {
                        Vec::new()
                    } else {
                        self.fan.layout().assignment().to_vec()
                    },
                };
                self.send_or_evict(replies, rank, &ack)?;
            }
            Message::Evict { rank: victim } => {
                let victim = victim as usize;
                if victim >= self.job.num_workers {
                    return Err(NetError::Protocol(format!(
                        "eviction of rank {victim}, job has {} workers",
                        self.job.num_workers
                    )));
                }
                self.evict(replies, victim)?;
            }
            Message::ClockPush { iteration, trace } => {
                // Every shard server acked the worker's slices for this iteration
                // before it announced the push; until its grant goes out it is
                // blocked.
                self.awaiting_grant[rank] = true;
                self.last_iter[rank] = iteration;
                self.last_trace[rank] = trace;
                self.sl.offer(WorkerEvent::Push {
                    worker: rank,
                    iteration,
                    grads: Vec::new(), // the gradients went to the shard servers
                });
            }
            Message::PushApplied { iteration } => {
                match self.pending_apply.take() {
                    Some(WorkerEvent::Push {
                        worker,
                        iteration: granted,
                        ..
                    }) if worker == rank && granted == iteration => {}
                    Some(ev) => {
                        return Err(NetError::Protocol(format!(
                            "PushApplied({iteration}) from worker {rank} does not \
                             match the granted push {ev:?}"
                        )))
                    }
                    None => {
                        return Err(NetError::Protocol(format!(
                            "PushApplied({iteration}) from worker {rank} without a \
                             granted push"
                        )))
                    }
                }
                self.apply_push(replies, rank)?;
            }
            Message::PullDone => {
                if !self.job.deterministic {
                    return Err(NetError::Protocol(format!(
                        "PullDone from worker {rank} outside deterministic mode"
                    )));
                }
                if !self.pull_pending[rank] {
                    return Err(NetError::Protocol(format!(
                        "unexpected PullDone from worker {rank}"
                    )));
                }
                self.pull_pending[rank] = false;
            }
            Message::Done {
                iterations,
                epochs,
                waiting_time_s,
            } => {
                self.finished[rank] = true;
                self.sl.offer(WorkerEvent::Done(WorkerSummary {
                    worker: rank,
                    iterations,
                    epochs: epochs as usize,
                    waiting_time_s,
                }));
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected {other:?} from worker {rank} at the coordinator"
                )))
            }
        }
        Ok(())
    }

    /// Closes a run and hands the fan back for the goodbye. A completed run (all
    /// workers reported Done, and every push they made was acked by every shard
    /// server before that — the group state is final) assembles the weights for the
    /// closing evaluation, gathers per-server statistics and closes the role; a
    /// failed one only hands the fan back.
    fn finish(
        mut self: Box<Self>,
        settled: Result<bool, NetError>,
        stats: TransportStats,
    ) -> (Result<RunTrace, NetError>, ShardFan) {
        let closed = settled.and_then(|_| self.close(stats));
        let Coordinator {
            sl,
            fan,
            eval_weights,
            ..
        } = *self;
        let trace = closed.map(|(total, group_servers)| {
            let mut trace = sl.finish_external(&eval_weights, total);
            trace.group_servers = group_servers;
            trace
        });
        (trace, fan)
    }

    /// The end of a completed run: the closing evaluation's weights, every shard
    /// server's counters and the terminal checkpoint. Yields the run's wall time and
    /// the counters.
    fn close(&mut self, stats: TransportStats) -> Result<(f64, Vec<GroupServerStats>), NetError> {
        let total = self.start.elapsed().as_secs_f64();
        let eval_trace = self.next_coord_trace();
        pull_for_eval(
            &self.job,
            &mut self.fan,
            eval_trace,
            &mut self.eval_weights,
            &mut self.eval_versions,
        )?;
        self.life.fault.pull()?;
        self.life.obs.sync_loop(&self.sl);
        // Final statistics snapshot, per-link tolerant: a shard server that died (or
        // a link torn by a mid-run worker eviction) yields a zeroed row instead of
        // discarding every survivor's counters from the trace.
        let group_servers = collect_group_stats(&mut self.fan);
        self.life
            .obs
            .metrics()
            .reconnects
            .store(self.fan.reconnects, Relaxed);
        // Closed before `finish_external` consumes the decision loop the terminal
        // clock checkpoint is cut from.
        self.life
            .close(self.sl.version(), |digest| self.sl.snapshot(digest), &stats)?;
        Ok((total, group_servers))
    }

    /// Applies one clock push (released by the loop, or confirmed by its worker's
    /// `PushApplied` in deterministic mode): the gradients already sit on the shard
    /// servers, so only the synchronization state advances. Delivers the resulting
    /// grants, then runs the elasticity hooks — the coordinator's push phase is a
    /// processed clock push, its gate phase a deferred one, and its checkpoint covers
    /// the clock state.
    fn apply_push(
        &mut self,
        replies: &mut dyn ServerReplies,
        pusher: usize,
    ) -> Result<(), NetError> {
        let now = self.start.elapsed().as_secs_f64();
        let mut oks = Vec::new();
        let decision = self.sl.handle_push_slice(pusher, &[], now, &mut oks);
        self.life
            .obs
            .on_push(pusher, decision.staleness, &oks, &self.sl, &self.last_trace);
        self.deliver(replies, &oks)?;
        let granted = oks.iter().any(|r| r.worker == pusher);
        self.life.after_push(granted, self.sl.version(), |digest| {
            self.sl.snapshot(digest)
        })
    }

    /// Applies one worker's `Done` and delivers the grants its retirement releases.
    fn apply_done(
        &mut self,
        replies: &mut dyn ServerReplies,
        summary: WorkerSummary,
    ) -> Result<(), NetError> {
        let now = self.start.elapsed().as_secs_f64();
        let mut oks = Vec::new();
        self.sl.handle_done(summary, now, &mut oks);
        self.deliver(replies, &oks)
    }

    /// Delivers the grants one applied event released and runs any evaluation that
    /// came due (pulling the group's weights first).
    fn deliver(
        &mut self,
        replies: &mut dyn ServerReplies,
        oks: &[OkReply],
    ) -> Result<(), NetError> {
        // A granted worker that has not run its final iteration will pull next; in
        // deterministic mode the coordinator must wait for that pull before the next
        // mutation (tracked inside `send_grant`).
        for ok in oks {
            self.send_grant(replies, ok.worker, ok.granted_extra)?;
        }
        if let Some(point) = self.sl.take_pending_eval() {
            let eval_trace = self.next_coord_trace();
            pull_for_eval(
                &self.job,
                &mut self.fan,
                eval_trace,
                &mut self.eval_weights,
                &mut self.eval_versions,
            )?;
            let accuracy = self.sl.accuracy(&self.eval_weights);
            self.sl.record_eval(point, accuracy);
            self.life.fault.pull()?;
        }
        Ok(())
    }

    /// Arms the declarative migration spec when it comes due. It fires at most once
    /// per group life — only from the launch layout (epoch 0), so a coordinator
    /// restored after its commit does not migrate again.
    fn maybe_arm(&mut self) {
        if self.armed.is_some() {
            return;
        }
        if let Some(spec) = self.job.migration.as_ref() {
            if self.fan.layout().epoch() == 0 && self.sl.version() >= spec.at_version {
                self.armed = Some(ArmedMigration {
                    command: MigrationCommand::Drain(spec.drain),
                    requester: None,
                });
            }
        }
    }

    /// Handles one message from the admin channel (the operator's drain/rebalance
    /// CLI). The slot's handshake is version-checked only — an operator does not
    /// know the job's config digest — and it carries nothing but `Hello`, `Drain`
    /// and `Rebalance`.
    fn handle_admin(
        &mut self,
        replies: &mut dyn ServerReplies,
        admin: usize,
        msg: Message,
    ) -> Result<(), NetError> {
        match msg {
            Message::Hello { version, .. } => {
                if version != PROTOCOL_VERSION {
                    return Err(NetError::Protocol(format!(
                        "admin channel speaks protocol {version}, this group runs \
                         {PROTOCOL_VERSION}"
                    )));
                }
                self.admin_helloed = true;
            }
            Message::Drain { server } => {
                let command = MigrationCommand::Drain(server as usize);
                self.admin_request(replies, admin, command)?;
            }
            Message::Rebalance => {
                self.admin_request(replies, admin, MigrationCommand::Rebalance)?;
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected {other:?} on the admin channel"
                )))
            }
        }
        Ok(())
    }

    /// Validates and arms an operator-requested migration, or answers immediately
    /// with a refusing [`Message::AdminAck`] carrying the planner's reason. The
    /// accepting ack is only sent once the migration commits (or the rollback's
    /// refusal, if it does not), so the operator's exit status reflects the outcome.
    fn admin_request(
        &mut self,
        replies: &mut dyn ServerReplies,
        admin: usize,
        command: MigrationCommand,
    ) -> Result<(), NetError> {
        if !self.admin_helloed {
            return Err(NetError::Protocol(
                "admin command before the channel's hello".to_string(),
            ));
        }
        let reason = if self.armed.is_some() {
            "a migration is already in flight".to_string()
        } else {
            match plan_for(&self.fan, command) {
                Ok(_) => {
                    self.armed = Some(ArmedMigration {
                        command,
                        requester: Some(admin),
                    });
                    return Ok(());
                }
                Err(reason) => reason,
            }
        };
        replies.send(
            admin,
            &Message::AdminAck {
                epoch: self.fan.layout().epoch(),
                accepted: false,
                reason,
            },
        )
    }

    /// Runs the armed migration at a quiescent round boundary: plan, prepare,
    /// transfer, commit — or roll the fleet back and surface the typed error. Either
    /// way the armed state is consumed and any withheld grants are flushed, so the
    /// group never stays frozen.
    fn execute_armed(
        &mut self,
        replies: &mut dyn ServerReplies,
        armed: ArmedMigration,
    ) -> Result<(), NetError> {
        let ArmedMigration { command, requester } = armed;
        let plan = match plan_for(&self.fan, command) {
            Ok(plan) => plan,
            Err(reason) => {
                // The layout changed between arming and quiescence (an interleaved
                // admin migration): refuse, thaw, carry on.
                if let Some(admin) = requester {
                    let _ = replies.send(
                        admin,
                        &Message::AdminAck {
                            epoch: self.fan.layout().epoch(),
                            accepted: false,
                            reason,
                        },
                    );
                }
                return self.flush_withheld(replies);
            }
        };
        let epoch = plan.from_epoch + 1;
        // One coordinator-originated trace id covers the whole migration: every
        // control leg, shard transfer and the commit/rollback terminal carry it, so
        // `repro analyze`/`repro trace` can follow a drain end-to-end like a push.
        let mig_trace = self.next_coord_trace();
        match self.migrate(replies, &plan, epoch, mig_trace) {
            Ok(()) => {
                if let Some(admin) = requester {
                    let _ = replies.send(
                        admin,
                        &Message::AdminAck {
                            epoch,
                            accepted: true,
                            reason: String::new(),
                        },
                    );
                }
                self.flush_withheld(replies)
            }
            Err(e) => {
                // Commit-or-rollback: any failed leg thaws every frozen server
                // before the typed error tears the run down. An injected fault
                // simulates a crash and dies abruptly instead; the workers' bounded
                // freeze probes then degrade the orphaned freeze into a typed error,
                // and the shard servers exit when their coordinator link drops.
                if !e.is_injected_kill() {
                    self.fan.send_all(&Message::MigrateAbort { epoch });
                    self.life
                        .obs
                        .event_traced(EventKind::MigrationRollback, epoch, mig_trace);
                }
                if let Some(admin) = requester {
                    let _ = replies.send(
                        admin,
                        &Message::AdminAck {
                            epoch,
                            accepted: false,
                            reason: format!("{e}"),
                        },
                    );
                }
                Err(e)
            }
        }
    }

    /// The two-phase migration proper. **Prepare** freezes every server toward
    /// `epoch` (pushes and pulls refused from the ack on); **transfer** relays each
    /// moving shard's weights, version and momentum slice source → destination
    /// through the coordinator (shard servers never dial each other); **commit**
    /// broadcasts the new assignment, awaits every server's rebuild ack, re-routes
    /// the fan and the workers, and forces a durable checkpoint recording the layout.
    fn migrate(
        &mut self,
        replies: &mut dyn ServerReplies,
        plan: &MigrationPlan,
        epoch: u64,
        mig_trace: u64,
    ) -> Result<(), NetError> {
        self.life
            .obs
            .event_traced(EventKind::MigrationPrepare, epoch, mig_trace);
        for server in 0..self.fan.num_links() {
            self.fan
                .send_to(server, &Message::MigratePrepare { epoch })?;
        }
        for server in 0..self.fan.num_links() {
            expect_control_ack(self.fan.recv_from(server)?, epoch, server)?;
        }
        self.life.fault.migrate_prepare()?;
        for mv in &plan.moves {
            self.life.fault.migrate_transfer()?;
            self.fan.send_to(
                mv.from as usize,
                &Message::MigrateRequest {
                    epoch,
                    shard: mv.shard,
                    trace: mig_trace,
                },
            )?;
            let payload = self.fan.recv_from(mv.from as usize)?;
            match &payload {
                Message::MigrateShard {
                    epoch: e, shard, ..
                } if *e == epoch && *shard == mv.shard => {}
                other => {
                    return Err(NetError::Protocol(format!(
                        "transfer of shard {} from server {}: expected its MigrateShard, \
                         got {other:?}",
                        mv.shard, mv.from
                    )))
                }
            }
            self.fan.send_to(mv.to as usize, &payload)?;
            match self.fan.recv_from(mv.to as usize)? {
                Message::MigrateAck { epoch: e, shard } if e == epoch && shard == mv.shard => {}
                other => {
                    return Err(NetError::Protocol(format!(
                        "server {} never staged shard {}: expected its MigrateAck, got \
                         {other:?}",
                        mv.to, mv.shard
                    )))
                }
            }
            self.life
                .obs
                .event_traced(EventKind::ShardTransfer, u64::from(mv.shard), mig_trace);
        }
        for server in 0..self.fan.num_links() {
            // The hook sits between the per-server sends, so the chaos matrix can
            // tear a commit mid-broadcast.
            self.life.fault.migrate_commit()?;
            self.fan.send_to(
                server,
                &Message::LayoutUpdate {
                    epoch,
                    assignment: plan.assignment.clone(),
                },
            )?;
        }
        for server in 0..self.fan.num_links() {
            expect_control_ack(self.fan.recv_from(server)?, epoch, server)?;
        }
        self.fan.adopt(epoch, &plan.assignment)?;
        self.life
            .obs
            .event_traced(EventKind::MigrationCommit, epoch, mig_trace);
        self.life
            .obs
            .set_layout(epoch, self.fan.layout().shards() as u64);
        // Force the clock checkpoint with the committed layout, regardless of
        // cadence: a coordinator restored from anything older would route by a
        // retired assignment and refuse the (migrated) shard servers' state.
        let assignment = plan.assignment.clone();
        self.life.checkpoint(self.sl.version(), |digest| {
            let mut ckpt = self.sl.snapshot(digest);
            ckpt.layout = Some(LayoutSnapshot { epoch, assignment });
            ckpt
        })?;
        // Re-route every live worker *before* any withheld grant reaches it: on one
        // TCP connection the layout always arrives ahead of the grant that lets the
        // worker fan out again. Best-effort per worker — a rank that is between
        // `Done` and the shutdown broadcast may already have hung up.
        for worker in 0..self.job.num_workers {
            if self.helloed[worker] && !self.finished[worker] {
                let _ = replies.send(
                    worker,
                    &Message::LayoutUpdate {
                        epoch,
                        assignment: plan.assignment.clone(),
                    },
                );
            }
        }
        Ok(())
    }
}

/// Plans the layout change `command` asks for, from the fan's current layout.
fn plan_for(fan: &ShardFan, command: MigrationCommand) -> Result<MigrationPlan, String> {
    match command {
        MigrationCommand::Drain(server) => fan.layout().drain_plan(server),
        MigrationCommand::Rebalance => fan.layout().rebalance_plan(),
    }
}

/// Validates one control-phase [`Message::MigrateAck`] (prepare or commit leg).
fn expect_control_ack(msg: Message, epoch: u64, server: usize) -> Result<(), NetError> {
    match msg {
        Message::MigrateAck { epoch: e, shard } if e == epoch && shard == MIGRATE_CONTROL => Ok(()),
        other => Err(NetError::Protocol(format!(
            "server {server} answered the epoch-{epoch} migration control message with {other:?}"
        ))),
    }
}

/// Verifies that every restored shard server sits at exactly the push count the
/// coordinator's checkpoint records. The per-role checkpoints are written
/// independently, so a crash can land between a shard's write and the coordinator's
/// (or vice versa); resuming such a torn set would double-apply or drop the pushes in
/// the gap. A typed refusal here is what keeps the restart leg of the chaos matrix
/// deterministic: either every checkpoint agrees and the run resumes bitwise, or the
/// fleet aborts cleanly before a single gradient moves.
fn check_restore_skew(sl: &ServerLoop, fan: &mut ShardFan) -> Result<(), NetError> {
    let expected = sl.version();
    let expected_epoch = fan.layout().epoch();
    let stats = fan
        .collect_stats()
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    // Layout-epoch skew first, across the whole fleet: a server restored from the
    // wrong side of a live migration holds shards its checkpoint's layout assigned
    // it, not the ones the coordinator's layout does — push counts alone cannot see
    // that, and a push-count mismatch on an earlier server must not mask it.
    for counters in &stats {
        if counters.epoch != expected_epoch {
            return Err(NetError::Checkpoint(CheckpointError::LayoutSkew {
                found: counters.epoch,
                expected: expected_epoch,
            }));
        }
    }
    for (server, ServerCounters { pushes, .. }) in stats.into_iter().enumerate() {
        if pushes != expected {
            return Err(NetError::Protocol(format!(
                "restore skew: shard server {server} restored to push {pushes} but the \
                 coordinator checkpoint records {expected}; the per-role checkpoints \
                 were torn by the crash, cannot resume"
            )));
        }
    }
    Ok(())
}

/// Assembles the group's current weights into the reused buffers via a fan-out pull
/// (delta-incremental against the coordinator's own cache when the job allows).
fn pull_for_eval(
    job: &JobConfig,
    fan: &mut ShardFan,
    trace: u64,
    weights: &mut Vec<f32>,
    versions: &mut Vec<u64>,
) -> Result<(), NetError> {
    match fan.pull_group(job.delta_pulls, trace, weights, versions)? {
        FanOutcome::Applied => Ok(()),
        FanOutcome::Shutdown { .. } => Err(NetError::Protocol(
            "a shard server shut down underneath the coordinator".to_string(),
        )),
    }
}

/// Gathers every shard server's counters into [`GroupServerStats`] rows. Per-link
/// tolerant ([`ShardFan::collect_stats`]): an unreachable server contributes
/// a zero-countered row (its layout columns still fill in), so one dead link cannot
/// strip the whole `group_servers` section from the trace of an otherwise graceful
/// shutdown.
fn collect_group_stats(fan: &mut ShardFan) -> Vec<GroupServerStats> {
    let layout = fan.layout().clone();
    fan.collect_stats()
        .into_iter()
        .enumerate()
        .map(|(server, counters)| {
            let counters = counters.unwrap_or_default();
            let (start, end) = layout.key_range(server);
            GroupServerStats {
                server,
                params: end - start,
                shards: layout.owned_shards(server),
                pushes: counters.pushes,
                pulls_full: counters.pulls_full,
                pulls_delta: counters.pulls_delta,
                bytes_sent: counters.bytes_sent,
                bytes_received: counters.bytes_received,
            }
        })
        .collect()
}
