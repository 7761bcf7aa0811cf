//! The networked parameter server: one serving step over a [`ServerTransport`],
//! driving the shared [`dssp_core::driver::ServerLoop`].
//!
//! The step is "message (or lost connection) in → dispatch → drain what the loop is
//! ready to release → all done?". The transport runs it on every arrival, one at a
//! time ([`ServerTransport::run_steps`]): loopback on the serving thread, TCP on the
//! connection thread that read the frame, under its lock. The step is the only code
//! that touches the [`dssp_ps::ParameterServer`] and answers through the reply side it
//! is handed ([`ServerReplies`]). A round is **one round trip**: the `OK` carries the
//! weights.
//! Whenever the loop grants a worker its `OK` — when the push arrives, or later, when
//! another push, a `Done` or an eviction releases it — it writes the `PushReply` and,
//! straight after it on the same connection, the pull reply the worker would
//! otherwise have had to ask for: the weights as of the `OK`, which is exactly what
//! the threaded runtime hands out as `WorkerCommand::Proceed(weights)`. The reply is
//! cut from a borrowed [`PullView`] of the store against the per-shard versions this
//! loop last shipped to that rank — it keeps that record itself, starts it empty in
//! every server life and drops it with the rank's eviction — so it is a delta of the
//! shards that advanced since, or a full reply when there is no usable record or the
//! job runs with delta pulls off. Only the `OK` of a rank's final push travels alone:
//! both ends know the rank's iteration target from the digest-checked job. An
//! explicit `Pull` is first contact (and first contact after a restore): it is
//! answered in full and resets the record.
//!
//! The loop has one shape in every mode: **offer** each arriving event to the
//! [`ServerLoop`], **drain** what it is ready to release — arrival order, or the
//! canonical order of deterministic mode, which this module never sees — and
//! **deliver** the `OK`s each applied event appends to the reply scratch. The
//! steady-state loop allocates nothing per message under any policy (`zero_alloc_net.rs`;
//! the DSSP decision path in `dssp-ps`'s `zero_alloc_push.rs`): every push is applied by
//! the one `Serving::apply_push` — [`ServerLoop::handle_push_slice`] with reusable reply
//! scratch, the consumed gradient buffer recycled back to the transport's per-connection
//! pool — and every transport runs the same step, so the bitwise equivalence suites
//! exercise the code wall-clock runs serve with.
//!
//! The role's elastic life — restoring its checkpoint, its events and metrics, the
//! fault and checkpoint hooks after each push, the final checkpoint and the
//! `Shutdown` it ends with — is the [`Lifecycle`] and [`goodbye`] every serving role
//! shares; this module keeps only the protocol.

use crate::elastic::{goodbye, Lifecycle};
use crate::tcp::TransportStats;
use crate::transport::{reclaim, Arrival, PullView, ServeStep, ServerReplies, ServerTransport};
use crate::wire::{Message, PROTOCOL_VERSION, SHUTDOWN_OK};
use crate::NetError;
use dssp_core::driver::{JobConfig, OkReply, ServerLoop, WorkerEvent};
use dssp_core::events::{EventKind, Role, NO_TRACE};
use dssp_sim::{RunTrace, WorkerSummary};
use std::time::Instant;

/// Runs a full training job as the server side of the given transport and returns the
/// run trace.
///
/// The server handshakes every worker (protocol version, worker count and
/// [`JobConfig::stable_digest`] must all match — the digest covers `delta_pulls`, so
/// a delta-pulling worker cannot join a full-pull job, but masks the chaos knobs, so
/// a restarted process with a different fault plan still interoperates), serves
/// pulls, applies pushes through the shared decision loop, and — on every exit path,
/// success or failure — broadcasts `Shutdown` so worker processes never hang.
///
/// With a [`dssp_core::driver::CheckpointSpec`] the server persists its full state
/// (weights, momentum, clocks, credits) on the configured push cadence and can
/// restart from the resulting file; a worker that dies mid-run is evicted instead of
/// stalling the gate ([`NetError::ClientLost`] reaping).
///
/// # Panics
///
/// Panics if the configuration is inconsistent ([`JobConfig::validate`]).
pub fn serve(job: &JobConfig, transport: &mut dyn ServerTransport) -> Result<RunTrace, NetError> {
    job.validate();
    if transport.num_workers() != job.num_workers {
        return Err(NetError::Protocol(format!(
            "transport serves {} workers but the job has {}",
            transport.num_workers(),
            job.num_workers
        )));
    }
    let result = Lifecycle::open(job, Role::Server, 0).and_then(|(life, restored)| {
        // Start fresh, or pick the run back up from the durable checkpoint: weights,
        // optimizer momentum, per-worker clocks and the policy's credit state all
        // resume, and every worker re-handshakes and is re-admitted at its restored
        // push count.
        let mut sl = match restored {
            Some(ckpt) => ServerLoop::restore(job, &ckpt, false)?,
            None => ServerLoop::new(job),
        };
        // Networked workers open every life — first contact, or first contact after
        // a restore — with an explicit pull.
        sl.expect_opening_pulls();
        life.obs.sync_loop(&sl);
        let mut serving = Box::new(Serving {
            sl,
            life,
            helloed: vec![false; job.num_workers],
            last_trace: vec![NO_TRACE; job.num_workers],
            shipped: vec![Vec::new(); job.num_workers],
            delta_pulls: job.delta_pulls,
            oks: Vec::new(),
            start: Instant::now(),
        });
        if !serving.settle(&mut *transport)? {
            let (step, outcome) = transport.run_steps(serving);
            outcome?;
            serving = reclaim(step)?;
        }
        serving.finish(transport.transport_stats())
    });
    goodbye(result, SHUTDOWN_OK, transport, |_| {})
}

/// Everything one run threads through its messages: the serving step a transport
/// runs on every arrival.
struct Serving {
    sl: ServerLoop,
    /// The role's lifecycle: the elasticity hooks every push runs through and the
    /// observability bundle.
    life: Lifecycle,
    /// Which ranks completed their handshake.
    helloed: Vec<bool>,
    /// Per-rank causal trace table: a worker has at most one operation in flight, so
    /// its most recent trace id is the one its gate-block/release events — and the
    /// weights that ride its `OK` — belong to. `NO_TRACE` for ranks that have not sent
    /// a traced operation yet.
    last_trace: Vec<u64>,
    /// Per rank, the per-shard versions of the last pull reply shipped to it: what the
    /// next `OK`'s delta is cut against. Empty until the rank's first reply in this
    /// server life, and again after its eviction.
    shipped: Vec<Vec<u64>>,
    delta_pulls: bool,
    /// Reusable scratch for the `OK`s one push releases.
    oks: Vec<OkReply>,
    start: Instant,
}

impl ServeStep for Serving {
    /// One message (or lost connection) in: dispatch it, then settle.
    fn step(
        &mut self,
        arrival: Arrival,
        replies: &mut dyn ServerReplies,
    ) -> Result<bool, NetError> {
        match arrival {
            Ok((rank, msg)) => self.dispatch(rank, msg, replies)?,
            // A worker died mid-run: reap it instead of stalling the gate — reclaim
            // its credits, retire its clock, and release anyone it was blocking.
            Err(NetError::ClientLost { rank }) => self.evict_client(rank, replies)?,
            Err(e) => return Err(e),
        }
        self.settle(replies)
    }
}

impl Serving {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Closes a completed run: final counters, then the lifecycle's close (terminal
    /// checkpoint, transport counters, event log), then the trace.
    fn finish(mut self, stats: TransportStats) -> Result<RunTrace, NetError> {
        self.life.obs.sync_loop(&self.sl);
        self.life
            .close(self.sl.version(), |digest| self.sl.snapshot(digest), &stats)?;
        let wall = self.now();
        Ok(self.sl.finish(wall))
    }

    /// Applies everything the loop is ready to release, then reports whether every
    /// worker has reported `Done`; until then, mirrors the transport's counters.
    fn settle(&mut self, replies: &mut dyn ServerReplies) -> Result<bool, NetError> {
        while let Some(event) = self.sl.next_ready() {
            self.process_event(event, replies)?;
        }
        if self.sl.all_done() {
            return Ok(true);
        }
        self.life.obs.mirror_transport(&replies.transport_stats());
        Ok(false)
    }

    /// Offers one message to the loop, or answers it at the protocol level.
    fn dispatch(
        &mut self,
        rank: usize,
        msg: Message,
        replies: &mut dyn ServerReplies,
    ) -> Result<(), NetError> {
        let num_workers = self.helloed.len();
        if !matches!(msg, Message::Hello { .. }) {
            require_helloed(&self.helloed, rank)?;
        }
        match msg {
            Message::Hello {
                version,
                rank: hello_rank,
                num_workers: hello_workers,
                config_digest,
            } => {
                validate_hello(
                    rank,
                    version,
                    hello_rank,
                    hello_workers,
                    config_digest,
                    num_workers,
                    self.life.digest,
                    &mut self.helloed,
                )?;
                self.life.obs.on_join(rank);
            }
            Message::JoinRequest => {
                // Membership: admit the worker at the number of pushes this server
                // has already confirmed from its rank — zero on a fresh run, the
                // restored clock after a checkpoint restore.
                let ack = Message::JoinAck {
                    clock: self.sl.push_count(rank),
                    epoch: 0,
                    assignment: Vec::new(),
                };
                if replies.send(rank, &ack).is_err() {
                    self.evict_client(rank, replies)?;
                }
            }
            Message::Evict { rank: victim } => {
                let victim = victim as usize;
                if victim >= num_workers {
                    return Err(NetError::Protocol(format!(
                        "eviction of rank {victim}, job has {num_workers} workers"
                    )));
                }
                self.evict_client(victim, replies)?;
            }
            Message::Pull { trace } => {
                self.last_trace[rank] = trace;
                self.sl.offer(WorkerEvent::Pull { worker: rank });
            }
            Message::Push {
                iteration,
                trace,
                grads,
            } => {
                // Refused before it is queued: no weight or optimizer state moves.
                let params = self.sl.server().weights().len();
                if grads.len() != params {
                    return Err(NetError::Protocol(format!(
                        "worker {rank} pushed {} gradients for {params} parameters",
                        grads.len()
                    )));
                }
                self.last_trace[rank] = trace;
                self.sl.offer(WorkerEvent::Push {
                    worker: rank,
                    iteration,
                    grads,
                });
            }
            Message::Done {
                iterations,
                epochs,
                waiting_time_s,
            } => {
                self.sl.offer(WorkerEvent::Done(WorkerSummary {
                    worker: rank,
                    iterations,
                    epochs: epochs as usize,
                    waiting_time_s,
                }));
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected {other:?} from worker {rank}"
                )))
            }
        }
        Ok(())
    }

    /// Reaps one dead (or explicitly evicted) worker: reclaims its policy credits,
    /// retires its clock, forgets its queued events and what was last shipped to it,
    /// and delivers the `OK`s its departure releases to the survivors. The replies
    /// are a fresh vector, not the member scratch: a failed delivery reaps the next
    /// rank from inside this one's delivery loop.
    fn evict_client(
        &mut self,
        worker: usize,
        replies: &mut dyn ServerReplies,
    ) -> Result<(), NetError> {
        let now = self.now();
        let mut released = Vec::new();
        self.sl.evict_worker(worker, now, &mut released);
        self.life.obs.on_eviction(worker);
        self.shipped[worker].clear();
        for reply in &released {
            self.life
                .obs
                .event(EventKind::GateRelease, reply.worker as u64);
        }
        self.life.obs.sync_loop(&self.sl);
        self.deliver_replies(&released, replies)
    }

    /// Ships the current weights to `rank` from a borrowed view of the store — the
    /// shards that advanced past what this loop last shipped to it when the job pulls
    /// incrementally and that record fits the store, everything otherwise (an empty
    /// record fits nothing) — and records what the rank now holds. A pure read served
    /// at the transport level: it never enters the decision loop (and must not advance
    /// its logical clock). A failed send means the rank died awaiting the reply; it is
    /// reaped instead of crashing the run.
    fn ship_weights(
        &mut self,
        rank: usize,
        replies: &mut dyn ServerReplies,
    ) -> Result<(), NetError> {
        let store = self.sl.server().store();
        let view = PullView {
            clock: self.sl.version(),
            versions: store.versions(),
            offsets: store.offsets(),
            weights: store.as_flat(),
            known: self.delta_pulls.then_some(self.shipped[rank].as_slice()),
        };
        // Whether the reply ships as a delta: the exported delta-hit-rate signal.
        let delta = view.delta_applicable();
        match replies.send_pull_reply(rank, &view) {
            Ok(()) => {
                let shipped = &mut self.shipped[rank];
                shipped.clear();
                shipped.extend_from_slice(store.versions());
                self.life.obs.on_pull(rank, delta, self.last_trace[rank]);
            }
            Err(_) => self.evict_client(rank, replies)?,
        }
        self.life.fault.pull()
    }

    /// Delivers every released `OK`: the `PushReply` and, unless it answers the rank's
    /// final push, the weights right behind it. A failed send means the recipient died
    /// between its push and this reply — it is reaped like any other
    /// [`NetError::ClientLost`] instead of the broken socket crashing the whole run,
    /// and delivery continues with whatever its departure releases (each failure
    /// retires one more worker, so the mutual recursion with
    /// [`Serving::evict_client`] is bounded by the fleet size).
    fn deliver_replies(
        &mut self,
        oks: &[OkReply],
        replies: &mut dyn ServerReplies,
    ) -> Result<(), NetError> {
        for reply in oks {
            let rank = reply.worker;
            let msg = Message::PushReply {
                granted_extra: reply.granted_extra,
                version: self.sl.version(),
            };
            if replies.send(rank, &msg).is_err() {
                self.evict_client(rank, replies)?;
            } else if self.sl.push_count(rank) < self.sl.targets()[rank] {
                self.ship_weights(rank, replies)?;
            }
        }
        Ok(())
    }

    /// Applies one event the loop released and delivers the resulting protocol
    /// messages.
    fn process_event(
        &mut self,
        event: WorkerEvent,
        replies: &mut dyn ServerReplies,
    ) -> Result<(), NetError> {
        match event {
            WorkerEvent::Pull { worker } => {
                // An explicit pull is a worker with an empty cache — first contact, or
                // first contact after a restore: whatever was shipped to the rank
                // before no longer describes what it holds.
                self.shipped[worker].clear();
                self.ship_weights(worker, replies)
            }
            WorkerEvent::Push { worker, grads, .. } => self.apply_push(worker, grads, replies),
            WorkerEvent::Done(summary) => {
                let now = self.now();
                let mut oks = Vec::new();
                self.sl.handle_done(summary, now, &mut oks);
                self.deliver_replies(&oks, replies)
            }
        }
    }

    /// The one place a push is applied, in both modes, without allocating: borrowed
    /// gradients into reusable reply scratch, the buffer back to the connection pool,
    /// the staleness sample and events exported, the `OK`s delivered, then the
    /// elasticity hooks of the push phase.
    fn apply_push(
        &mut self,
        rank: usize,
        grads: Vec<f32>,
        replies: &mut dyn ServerReplies,
    ) -> Result<(), NetError> {
        let now = self.now();
        let mut oks = std::mem::take(&mut self.oks);
        oks.clear();
        let decision = self.sl.handle_push_slice(rank, &grads, now, &mut oks);
        replies.recycle_f32s(rank, grads);
        if let Some(point) = self.sl.take_pending_eval() {
            let accuracy = self.sl.accuracy(self.sl.server().weights());
            self.sl.record_eval(point, accuracy);
        }
        let granted = oks.iter().any(|r| r.worker == rank);
        self.life
            .obs
            .on_push(rank, decision.staleness, &oks, &self.sl, &self.last_trace);
        let delivered = self.deliver_replies(&oks, replies);
        self.oks = oks;
        delivered?;
        self.life.after_push(granted, self.sl.version(), |digest| {
            self.sl.snapshot(digest)
        })
    }
}

/// Rejects traffic from a client that has not completed its handshake yet. Shared by
/// the single-server loop, the group coordinator and the shard servers.
pub fn require_helloed(helloed: &[bool], rank: usize) -> Result<(), NetError> {
    if helloed[rank] {
        Ok(())
    } else {
        Err(NetError::Protocol(format!(
            "client {rank} sent traffic before its hello"
        )))
    }
}

/// Validates the fields common to every handshake — protocol version, announced rank
/// vs. connection attribution, worker count and config digest — and records the
/// client in `helloed` (rejecting duplicates). The serving loops layer their own
/// topology checks (a shard server's `servers`/`server_index`) on top.
#[allow(clippy::too_many_arguments)]
pub fn validate_hello(
    rank: usize,
    version: u16,
    hello_rank: u32,
    num_workers: u32,
    config_digest: u64,
    expected_workers: usize,
    expected_digest: u64,
    helloed: &mut [bool],
) -> Result<(), NetError> {
    if version != PROTOCOL_VERSION {
        return Err(NetError::Protocol(format!(
            "client {rank} speaks protocol v{version}, this end speaks v{PROTOCOL_VERSION}"
        )));
    }
    if hello_rank as usize != rank {
        return Err(NetError::Protocol(format!(
            "connection attributed to rank {rank} announced rank {hello_rank}"
        )));
    }
    if num_workers as usize != expected_workers {
        return Err(NetError::Protocol(format!(
            "client {rank} expects {num_workers} workers, job has {expected_workers}"
        )));
    }
    if config_digest != expected_digest {
        return Err(NetError::Protocol(format!(
            "client {rank} trains a different job (config digest {config_digest:#018x} != {expected_digest:#018x})"
        )));
    }
    if helloed[rank] {
        return Err(NetError::Protocol(format!(
            "duplicate hello from rank {rank}"
        )));
    }
    helloed[rank] = true;
    Ok(())
}
