//! The storage-only half of a group: one shard server's state and serving loop.
//!
//! A shard server owns a contiguous slice of the model (the key ranges of the global
//! shards [`crate::GroupLayout`] assigns to it), an [`Sgd`] optimizer for exactly that
//! slice, and nothing else — no clocks, no policy, no notion of which worker is ahead.
//! It applies every [`Message::PushSlice`] on receipt and acknowledges it, so a
//! worker's `Done` implies its gradients are in the weights. Because SGD is
//! elementwise, a slice of the optimizer state evolves bitwise identically to the
//! corresponding slice of a whole-model optimizer; that is what makes an N-server
//! group bitwise equal to a single server under deterministic scheduling.
//!
//! **A group round is two exchanges.** A slice with `pull` set is answered with a
//! [`Message::SliceApplied`] and, in the same gathered write straight from the store,
//! a [`Message::PullReplyDelta`] of every owned shard (global shard indices). The ack
//! carries, per rank, the highest iteration this server has applied from it, which
//! is what the worker checks its grant against to keep those weights or pull again.
//! The record is not checkpointed: a restored server starts from zeros, so workers
//! pull again until it has seen each rank. A rank's final slice asks for nothing and
//! gets a plain [`Message::SliceAck`]. For every counter and hook the fused reply is
//! one served pull — counted as the pull it replaces would have been (a delta pull,
//! or a full one with delta pulls off), recorded as a `Pull` event with the push's
//! trace, and passed through the `pull` fault point. Explicit [`Message::PullShards`]
//! requests are answered by the same streaming writer — incrementally when the
//! client's version vector permits, fully otherwise.
//!
//! The loop is a serving step the transport runs on every arrival
//! ([`ServerTransport::run_steps`]); over TCP the connection thread that read a slice
//! applies it and writes the reply itself, under the server's lock (why that write
//! cannot deadlock is in `dssp_net::tcp`'s module docs). It tolerates worker
//! disconnects (finished workers drop their connections while slower peers keep
//! training) and ends on the coordinator's `Shutdown`, whose reason its goodbye passes
//! on to every client still connected. Restore, events and
//! metrics, the hooks after each push, the forced and final checkpoints and that
//! goodbye are `dssp-net`'s [`Lifecycle`] and [`goodbye`], which every serving role
//! runs; this module keeps the slice's state and protocol.
//!
//! **Live migration** (coordinator-driven, two-phase): a [`Message::MigratePrepare`]
//! freezes the server at its current epoch — every epoch-stamped push or pull is
//! refused with a typed, retryable [`Message::EpochRefused`] until the migration
//! resolves. While frozen, the server answers [`Message::MigrateRequest`] by
//! extracting one owned shard (weights, per-shard version **and the SGD momentum
//! slice**, so the migrated group stays bitwise-equal to a statically-launched one)
//! and stages shards arriving via [`Message::MigrateShard`]. A
//! [`Message::LayoutUpdate`] commits: the store and optimizer are rebuilt from
//! retained + staged shards under the new assignment, a checkpoint is forced so a
//! later restore can never resurrect the pre-migration layout, and serving resumes. A
//! [`Message::MigrateAbort`] rolls back: staged shards are discarded and the old
//! layout keeps serving. A server drained to zero shards stays in the fleet and keeps
//! acking (empty) push slices so per-server clocks stay uniform.

use crate::layout::GroupLayout;
use dssp_core::driver::JobConfig;
use dssp_core::events::{EventKind, Role};
use dssp_net::wire::{MIGRATE_CONTROL, SHUTDOWN_OK};
use dssp_net::{
    goodbye, reclaim, require_helloed, validate_hello, Arrival, Lifecycle, Message, NetError, Obs,
    PullView, ServeStep, ServerReplies, ServerTransport,
};
use dssp_nn::{Model, Sgd};
use dssp_ps::{Checkpoint, CheckpointError, LayoutSnapshot, ShardedStore, StoreSnapshot};
use std::sync::atomic::Ordering::Relaxed;

/// One shard server's storage and counters, independent of any transport. Benchmarks
/// and tests drive it directly; [`serve_shard`] wraps it in the wire loop.
pub struct ShardServerState {
    layout: GroupLayout,
    index: usize,
    store: ShardedStore,
    sgd: Sgd,
    pushes: u64,
    pulls_full: u64,
    pulls_delta: u64,
    /// The epoch a `MigratePrepare` froze this server toward; `None` while serving.
    pending_epoch: Option<u64>,
    /// Shards staged for this server by the in-flight migration:
    /// `(global shard, version, weights, velocity)`.
    staged: Vec<(u32, u64, Vec<f32>, Vec<f32>)>,
}

impl ShardServerState {
    /// Builds server `index`'s slice of a job: the model is regenerated from the job
    /// seed (every process arrives at identical initial weights this way) and sliced
    /// to the server's key range, along with a fresh optimizer for that slice.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or `index` is out of range.
    pub fn from_job(job: &JobConfig, index: usize) -> Self {
        job.validate();
        Self::with_initial(job, index, job.model.build(job.seed).params())
    }

    /// Like [`ShardServerState::from_job`] but slices an already materialized full
    /// initial parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `initial` has the wrong length.
    pub fn with_initial(job: &JobConfig, index: usize, initial: &[f32]) -> Self {
        let layout = GroupLayout::new(initial.len(), job.shards, job.servers);
        assert!(index < job.servers, "server index out of range");
        let (start, end) = layout.key_range(index);
        let store =
            ShardedStore::with_offsets(initial[start..end].to_vec(), layout.local_offsets(index));
        let sgd = Sgd::new(job.sgd.clone(), end - start);
        Self {
            layout,
            index,
            store,
            sgd,
            pushes: 0,
            pulls_full: 0,
            pulls_delta: 0,
            pending_epoch: None,
            staged: Vec::new(),
        }
    }

    /// This server's index in the group.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The group layout the server derives its ownership from.
    pub fn layout(&self) -> &GroupLayout {
        &self.layout
    }

    /// Parameters in this server's slice.
    pub fn slice_len(&self) -> usize {
        self.store.len()
    }

    /// Global shards this server owns.
    pub fn owned_shards(&self) -> usize {
        self.store.num_shards()
    }

    /// Slice pushes applied so far (this server's local clock).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// The slice weights, for tests and eval assembly.
    pub fn weights(&self) -> &[f32] {
        self.store.as_flat()
    }

    /// The layout epoch this server currently serves at.
    pub fn epoch(&self) -> u64 {
        self.layout.epoch()
    }

    /// The epoch an in-flight migration froze this server toward, if any.
    pub fn pending_epoch(&self) -> Option<u64> {
        self.pending_epoch
    }

    /// Freezes the server toward `epoch` (migration prepare). Every epoch-stamped
    /// push or pull is refused until [`ShardServerState::commit_layout`] or
    /// [`ShardServerState::thaw`] resolves the migration.
    pub fn freeze(&mut self, epoch: u64) -> Result<(), NetError> {
        if let Some(pending) = self.pending_epoch {
            return Err(NetError::Protocol(format!(
                "server {} asked to prepare epoch {epoch} while already frozen toward {pending}",
                self.index
            )));
        }
        if epoch != self.layout.epoch() + 1 {
            return Err(NetError::Protocol(format!(
                "server {} at epoch {} asked to prepare non-successor epoch {epoch}",
                self.index,
                self.layout.epoch()
            )));
        }
        self.pending_epoch = Some(epoch);
        self.staged.clear();
        Ok(())
    }

    /// Rolls the in-flight migration toward `epoch` back: staged shards are dropped
    /// and the old layout keeps serving. An abort for any other epoch (a stray retry
    /// after this server already committed) is ignored.
    pub fn thaw(&mut self, epoch: u64) {
        if self.pending_epoch == Some(epoch) {
            self.pending_epoch = None;
            self.staged.clear();
        }
    }

    /// Extracts one owned shard for transfer: its version, weight slice and momentum
    /// slice, borrowed so the caller can encode a [`Message::MigrateShard`] zero-copy.
    pub fn extract(&self, epoch: u64, shard: u32) -> Result<(u64, &[f32], &[f32]), NetError> {
        if self.pending_epoch != Some(epoch) {
            return Err(NetError::Protocol(format!(
                "server {} asked to extract shard {shard} for epoch {epoch} but is {}",
                self.index,
                match self.pending_epoch {
                    Some(p) => format!("frozen toward {p}"),
                    None => format!("serving epoch {} unfrozen", self.layout.epoch()),
                }
            )));
        }
        let (lo, hi) = self.layout.shard_span(self.index);
        let shard = shard as usize;
        if shard < lo || shard >= hi {
            return Err(NetError::Protocol(format!(
                "server {} owns shards {lo}..{hi}, cannot extract shard {shard}",
                self.index
            )));
        }
        let local = shard - lo;
        let (a, b) = self.store.key_range(local);
        Ok((
            self.store.versions()[local],
            self.store.shard(local),
            &self.sgd.velocity()[a..b],
        ))
    }

    /// Stages one shard arriving from the in-flight migration for adoption at commit.
    pub fn stage(
        &mut self,
        epoch: u64,
        shard: u32,
        version: u64,
        weights: Vec<f32>,
        velocity: Vec<f32>,
    ) -> Result<(), NetError> {
        if self.pending_epoch != Some(epoch) {
            return Err(NetError::Protocol(format!(
                "server {} received shard {shard} for epoch {epoch} without a matching prepare",
                self.index
            )));
        }
        let (gs, ge) = self.layout.shard_key_range(shard as usize);
        if weights.len() != ge - gs || velocity.len() != ge - gs {
            return Err(NetError::Protocol(format!(
                "staged shard {shard} carries {} weights / {} velocity, its key range holds {}",
                weights.len(),
                velocity.len(),
                ge - gs
            )));
        }
        self.staged.retain(|(s, ..)| *s != shard);
        self.staged.push((shard, version, weights, velocity));
        Ok(())
    }

    /// Commits the migration: rebuilds the store and optimizer from retained + staged
    /// shards under the new assignment and adopts `epoch` as current. The push clock
    /// is untouched — a drained server keeps counting empty pushes so per-server
    /// clocks stay uniform.
    pub fn commit_layout(&mut self, epoch: u64, assignment: &[u32]) -> Result<(), NetError> {
        let next = GroupLayout::from_parts(
            self.layout.params(),
            self.layout.servers(),
            assignment.to_vec(),
            epoch,
        )
        .map_err(NetError::Protocol)?;
        let (old_lo, old_hi) = self.layout.shard_span(self.index);
        let (new_lo, new_hi) = next.shard_span(self.index);
        let mut flat = Vec::new();
        let mut velocity = Vec::new();
        let mut versions = Vec::new();
        let mut offsets = vec![0usize];
        for shard in new_lo..new_hi {
            let owned_before = shard >= old_lo && shard < old_hi && self.store.num_shards() > 0;
            if owned_before {
                let local = shard - old_lo;
                let (a, b) = self.store.key_range(local);
                flat.extend_from_slice(self.store.shard(local));
                velocity.extend_from_slice(&self.sgd.velocity()[a..b]);
                versions.push(self.store.versions()[local]);
            } else {
                let staged = self
                    .staged
                    .iter()
                    .find(|(s, ..)| *s as usize == shard)
                    .ok_or_else(|| {
                        NetError::Protocol(format!(
                            "server {} committing epoch {epoch}: shard {shard} was never staged",
                            self.index
                        ))
                    })?;
                flat.extend_from_slice(&staged.2);
                velocity.extend_from_slice(&staged.3);
                versions.push(staged.1);
            }
            offsets.push(flat.len());
        }
        let schedule_epoch = self.sgd.current_epoch();
        let config = self.sgd.config().clone();
        self.store = ShardedStore::restore(flat, offsets, versions);
        self.sgd = Sgd::restore(config, velocity, schedule_epoch);
        self.layout = next;
        self.pending_epoch = None;
        self.staged.clear();
        Ok(())
    }

    /// Applies one gradient slice with the server's optimizer and bumps every owned
    /// shard's version; returns the local version after the push.
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the server's key range.
    pub fn apply_slice(&mut self, grads: &[f32]) -> u64 {
        assert_eq!(
            grads.len(),
            self.store.len(),
            "gradient slice length {} does not match server {}'s slice {}",
            grads.len(),
            self.index,
            self.store.len()
        );
        self.sgd.step(self.store.flat_mut(), grads);
        self.store.bump_all_versions();
        self.pushes += 1;
        self.pushes
    }

    /// Captures this server's durable state — slice weights, per-shard versions, and
    /// the optimizer momentum — as a store-only [`Checkpoint`] stamped with
    /// `job_digest`. The local push counter is not stored separately: every applied
    /// slice bumps every owned shard's version, so it is recoverable as the maximum
    /// shard version.
    pub fn snapshot(&self, job_digest: u64) -> Checkpoint {
        Checkpoint {
            job_digest,
            tick: 0.0, // shard servers keep no logical clock
            store: Some(StoreSnapshot::capture(&self.store, &self.sgd)),
            gate: None,
            layout: Some(LayoutSnapshot {
                epoch: self.layout.epoch(),
                assignment: self.layout.assignment().to_vec(),
            }),
        }
    }

    /// Rebuilds server `index` from a checkpoint taken by
    /// [`ShardServerState::snapshot`] under the same (chaos-masked) job. The pull
    /// counters restart at zero — they are served-traffic statistics, not state a
    /// restored run depends on.
    ///
    /// Refuses, with [`CheckpointError::RoleMismatch`], a checkpoint that has no store
    /// section or whose slice does not match the key range its layout — or, absent
    /// one, the job — gives server `index`: the coordinator and every shard server
    /// of a group share one job digest, so another role's or shard's file gets here.
    pub fn restore(
        job: &JobConfig,
        index: usize,
        ckpt: &Checkpoint,
    ) -> Result<Self, CheckpointError> {
        let mut fresh = Self::from_job(job, index);
        // A post-migration checkpoint carries the layout it was taken under; rebuild
        // ownership from it so the restored server serves the migrated assignment,
        // not the closed-form one the job implies.
        if let Some(snap) = ckpt.layout.as_ref().filter(|l| l.epoch != 0) {
            fresh.layout = GroupLayout::from_parts(
                fresh.layout.params(),
                fresh.layout.servers(),
                snap.assignment.clone(),
                snap.epoch,
            )
            .map_err(|_| CheckpointError::RoleMismatch("malformed layout assignment"))?;
        }
        ckpt.require_role(None, Some(&fresh.layout.local_offsets(index)))?;
        let Some(snap) = &ckpt.store else {
            return Err(CheckpointError::RoleMismatch("no store section"));
        };
        (fresh.store, fresh.sgd) = snap.rebuild(job.sgd.clone());
        fresh.pushes = snap.versions.iter().copied().max().unwrap_or(0);
        Ok(fresh)
    }

    /// The view a pull of this server's shards is answered from, and the global
    /// index of its first owned shard: the reply ships the stale shards when `known`
    /// (the client's versions of exactly the owned shards) is compatible, every owned
    /// shard otherwise.
    fn pull_view<'a>(&'a self, known: Option<&'a [u64]>) -> (u32, PullView<'a>) {
        let (first, _) = self.layout.shard_span(self.index);
        let view = PullView {
            clock: self.pushes,
            versions: self.store.versions(),
            offsets: self.store.offsets(),
            weights: self.store.as_flat(),
            known,
        };
        (first as u32, view)
    }

    /// The typed, retryable refusal of an epoch-stale or mid-migration request: while
    /// frozen the assignment is withheld (empty — the client must wait and retry),
    /// after a commit it carries the new truth so the client re-routes.
    fn refusal(&self) -> Message {
        match self.pending_epoch {
            Some(pending) => Message::EpochRefused {
                epoch: pending,
                assignment: Vec::new(),
            },
            None => Message::EpochRefused {
                epoch: self.epoch(),
                assignment: self.layout.assignment().to_vec(),
            },
        }
    }

    /// Counts one served pull, incremental or full.
    fn count_pull(&mut self, delta: bool) {
        if delta {
            self.pulls_delta += 1;
        } else {
            self.pulls_full += 1;
        }
    }
}

/// What [`serve_shard`] reports when its run ends cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardServeReport {
    /// Slice pushes applied.
    pub pushes: u64,
    /// Pulls answered with every owned shard.
    pub pulls_full: u64,
    /// Pulls answered incrementally.
    pub pulls_delta: u64,
}

/// Runs shard server `index` of a group over the given transport until the
/// coordinator shuts it down.
///
/// The transport must serve `job.num_workers + 1` client slots: ranks
/// `0..num_workers` are workers and rank `num_workers` is the coordinator. Every
/// client handshakes with a [`Message::GroupHello`] whose topology and config digest
/// must match the server's own job. Worker disconnects are tolerated at any time
/// (the coordinator is the authority on run health); a coordinator disconnect without
/// a preceding `Shutdown` is an error. On any error but an injected kill — an `abort`
/// fault plan (`server1:push:abort:N`) included — the server broadcasts the
/// server-error `Shutdown` to every client before it returns.
///
/// # Panics
///
/// Panics if the configuration is inconsistent or `index` is out of range, or if
/// `sgd.schedule` is not constant: a shard server applies slices without the gate's
/// push counts, so it cannot step a schedule's epoch the way `ServerLoop` does.
pub fn serve_shard(
    job: &JobConfig,
    index: usize,
    transport: &mut dyn ServerTransport,
) -> Result<ShardServeReport, NetError> {
    job.validate();
    assert!(
        matches!(job.sgd.schedule, dssp_nn::LrSchedule::Constant { .. }),
        "a group's shard servers cannot step {:?}: use a constant schedule",
        job.sgd.schedule
    );
    let result = Lifecycle::open(job, Role::ShardServer, index)
        .and_then(|(life, restored)| serve_shard_inner(job, index, transport, life, restored));
    // A completed run passes on the reason the coordinator ended the group with.
    let ok = result.as_ref().map_or(SHUTDOWN_OK, |&(_, reason)| reason);
    goodbye(result, ok, transport, |_| {}).map(|(report, _)| report)
}

/// The shard server's protocol, from its first frame to the coordinator's
/// `Shutdown`: returns the run's counters and that `Shutdown`'s reason.
fn serve_shard_inner(
    job: &JobConfig,
    index: usize,
    transport: &mut dyn ServerTransport,
    life: Lifecycle,
    restored: Option<Checkpoint>,
) -> Result<(ShardServeReport, u8), NetError> {
    if transport.num_workers() != job.num_workers + 1 {
        return Err(NetError::Protocol(format!(
            "shard server transport has {} client slots, need workers + coordinator = {}",
            transport.num_workers(),
            job.num_workers + 1
        )));
    }
    let state = match restored {
        Some(ckpt) => ShardServerState::restore(job, index, &ckpt)?,
        None => ShardServerState::from_job(job, index),
    };
    life.obs
        .set_layout(state.epoch(), state.owned_shards() as u64);
    life.obs.mirror_transport(&transport.transport_stats());
    let serving = Box::new(ShardServing {
        state,
        helloed: vec![false; job.num_workers + 1],
        applied: vec![0; job.num_workers],
        servers: job.servers,
        delta_pulls: job.delta_pulls,
        life,
        ended: None,
    });
    let (step, outcome) = transport.run_steps(serving);
    outcome?;
    reclaim::<ShardServing>(step)?
        .ended
        .ok_or_else(|| NetError::Protocol("the shard server's run ended without Shutdown".into()))
}

/// One shard server's run: its slice and what its protocol tracks, the serving step
/// the transport runs on every arrival.
struct ShardServing {
    state: ShardServerState,
    /// Which clients completed their handshake: the workers, then the coordinator.
    helloed: Vec<bool>,
    /// Per rank, the highest iteration applied since this server started: what a
    /// `SliceApplied` tells the worker its weights hold.
    applied: Vec<u64>,
    servers: usize,
    delta_pulls: bool,
    life: Lifecycle,
    /// The counters and the reason of the coordinator's `Shutdown`, once it came.
    ended: Option<(ShardServeReport, u8)>,
}

impl ServeStep for ShardServing {
    /// One message (or lost connection) in; the run is complete at the coordinator's
    /// `Shutdown`.
    fn step(
        &mut self,
        arrival: Arrival,
        replies: &mut dyn ServerReplies,
    ) -> Result<bool, NetError> {
        let coordinator_rank = self.applied.len();
        match arrival {
            Ok((rank, msg)) => self.dispatch(rank, msg, replies)?,
            // Finished workers drop their connections while the run continues; only
            // the coordinator's departure is fatal (it always sends Shutdown first).
            Err(NetError::ClientLost { rank }) if rank != coordinator_rank => {}
            Err(NetError::ClientLost { rank }) => {
                return Err(NetError::Protocol(format!(
                    "coordinator (rank {rank}) vanished without Shutdown"
                )))
            }
            Err(e) => return Err(e),
        }
        if self.ended.is_some() {
            return Ok(true);
        }
        self.life.obs.mirror_transport(&replies.transport_stats());
        Ok(false)
    }
}

impl ShardServing {
    /// Answers one client's message.
    fn dispatch(
        &mut self,
        rank: usize,
        msg: Message,
        replies: &mut dyn ServerReplies,
    ) -> Result<(), NetError> {
        let coordinator_rank = self.applied.len();
        let index = self.state.index();
        let (state, life) = (&mut self.state, &mut self.life);
        // The coordinator's `Shutdown` is exempt from the handshake: its fan can
        // reach a server a failed hello never reached.
        if !matches!(msg, Message::GroupHello { .. } | Message::Shutdown { .. }) {
            require_helloed(&self.helloed, rank)?;
        }
        let coordinator_only = matches!(
            msg,
            Message::MigratePrepare { .. }
                | Message::MigrateRequest { .. }
                | Message::MigrateShard { .. }
                | Message::LayoutUpdate { .. }
                | Message::MigrateAbort { .. }
                | Message::StatsRequest
                | Message::Shutdown { .. }
        );
        if coordinator_only && rank != coordinator_rank {
            let sent = format!("{msg:?}");
            let kind = sent.split([' ', '(']).next().unwrap_or_default();
            return Err(NetError::Protocol(format!(
                "worker {rank} sent {kind} (coordinator-only)"
            )));
        }
        match msg {
            Message::GroupHello {
                version,
                rank: hello_rank,
                num_workers,
                config_digest,
                servers,
                server_index,
            } => {
                // Topology first (this server's identity), then the checks every
                // handshake shares.
                if servers as usize != self.servers || server_index as usize != index {
                    return Err(NetError::Protocol(format!(
                        "client {rank} expects a {servers}-server group talking to server \
                         {server_index}; this is server {index} of a {}-server group",
                        self.servers
                    )));
                }
                validate_hello(
                    rank,
                    version,
                    hello_rank,
                    num_workers,
                    config_digest,
                    coordinator_rank,
                    life.digest,
                    &mut self.helloed,
                )?;
                life.obs.on_join(rank);
            }
            Message::PushSlice {
                iteration,
                epoch,
                trace,
                pull,
                grads,
            } => {
                if rank == coordinator_rank {
                    return Err(NetError::Protocol(
                        "coordinator must not push gradients".to_string(),
                    ));
                }
                if state.pending_epoch().is_some() || epoch != state.epoch() {
                    // Frozen mid-migration, or the worker routed by a retired
                    // layout: refuse retryably instead of corrupting the slice. The
                    // refusal comes alone; the worker retries the whole slice.
                    replies.recycle_f32s(rank, grads);
                    return replies.send(rank, &state.refusal());
                }
                if grads.len() != state.slice_len() {
                    return Err(NetError::Protocol(format!(
                        "worker {rank} pushed a slice of {} gradients to server {index}, \
                         which holds {} parameters",
                        grads.len(),
                        state.slice_len()
                    )));
                }
                let version = state.apply_slice(&grads);
                // Max, not assignment: a slice replayed by a restarted worker must not
                // lower what this server vouches for.
                self.applied[rank] = self.applied[rank].max(iteration);
                replies.recycle_f32s(rank, grads);
                if pull {
                    let (first, view) = state.pull_view(None);
                    let ack = Some((version, &self.applied[..]));
                    replies.send_shard_reply(rank, ack, first, &view)?;
                    state.count_pull(self.delta_pulls);
                } else {
                    replies.send(rank, &Message::SliceAck { version })?;
                }
                // A shard server has no gate: its pushes counter is also its local
                // clock, so the version gauge mirrors it.
                life.obs.event_traced(EventKind::Push, rank as u64, trace);
                life.obs.metrics().pushes.store(state.pushes, Relaxed);
                life.obs.metrics().version.store(state.pushes, Relaxed);
                if pull {
                    on_pull(&life.obs, state, rank, trace);
                    life.fault.pull()?;
                }
                life.after_push(true, state.pushes, |digest| state.snapshot(digest))?;
            }
            Message::PullShards {
                known_versions,
                all,
                epoch,
                trace,
            } => {
                if state.pending_epoch().is_some() || epoch != state.epoch() {
                    replies.recycle_u64s(rank, known_versions);
                    return replies.send(rank, &state.refusal());
                }
                if known_versions.len() != state.owned_shards() {
                    return Err(NetError::Protocol(format!(
                        "pull for server {index} carries {} versions, it owns {} shards",
                        known_versions.len(),
                        state.owned_shards()
                    )));
                }
                let (first, view) = state.pull_view((!all).then_some(&known_versions[..]));
                let delta = view.delta_applicable();
                replies.send_shard_reply(rank, None, first, &view)?;
                state.count_pull(delta);
                replies.recycle_u64s(rank, known_versions);
                on_pull(&life.obs, state, rank, trace);
                life.fault.pull()?;
            }
            // --- Migration protocol (coordinator-only, two-phase) -----------------
            Message::MigratePrepare { epoch } => {
                // The chaos hook fires before the ack so a kill here leaves the
                // coordinator with an unacknowledged prepare — the rollback path.
                life.fault.migrate_prepare()?;
                state.freeze(epoch)?;
                life.obs.event(EventKind::MigrationPrepare, epoch);
                replies.send(
                    rank,
                    &Message::MigrateAck {
                        epoch,
                        shard: MIGRATE_CONTROL,
                    },
                )?;
            }
            Message::MigrateRequest {
                epoch,
                shard,
                trace,
            } => {
                life.fault.migrate_transfer()?;
                let (version, weights, velocity) = state.extract(epoch, shard)?;
                // The outgoing shard carries the migration's trace, so the
                // destination's stage event joins the same causal chain.
                let payload = Message::MigrateShard {
                    epoch,
                    shard,
                    version,
                    trace,
                    weights: weights.to_vec(),
                    velocity: velocity.to_vec(),
                };
                replies.send(rank, &payload)?;
                life.obs
                    .event_traced(EventKind::ShardTransfer, u64::from(shard), trace);
            }
            Message::MigrateShard {
                epoch,
                shard,
                version,
                trace,
                weights,
                velocity,
            } => {
                life.fault.migrate_transfer()?;
                state.stage(epoch, shard, version, weights, velocity)?;
                life.obs
                    .event_traced(EventKind::ShardTransfer, u64::from(shard), trace);
                replies.send(rank, &Message::MigrateAck { epoch, shard })?;
            }
            Message::LayoutUpdate { epoch, assignment } => {
                // The chaos hook fires before the commit is applied: a kill here
                // models a server that never learned the outcome and must restore
                // into a typed refusal, never a silent divergence.
                life.fault.migrate_commit()?;
                state.commit_layout(epoch, &assignment)?;
                life.obs.event(EventKind::MigrationCommit, epoch);
                life.obs
                    .set_layout(state.epoch(), state.owned_shards() as u64);
                // Force a checkpoint at the commit boundary so a later restore can
                // never resurrect the pre-migration layout.
                life.checkpoint(state.pushes, |digest| state.snapshot(digest))?;
                replies.send(
                    rank,
                    &Message::MigrateAck {
                        epoch,
                        shard: MIGRATE_CONTROL,
                    },
                )?;
            }
            Message::MigrateAbort { epoch } => {
                state.thaw(epoch);
                life.obs.event(EventKind::MigrationRollback, epoch);
            }
            // Membership is the coordinator's business; a shard server has no clocks
            // to reap, so an eviction notice is acknowledged by simply ignoring it.
            Message::Evict { .. } => {}
            Message::StatsRequest => {
                let t = replies.transport_stats();
                replies.send(
                    rank,
                    &Message::StatsReply {
                        pushes: state.pushes,
                        pulls_full: state.pulls_full,
                        pulls_delta: state.pulls_delta,
                        bytes_sent: t.bytes_sent,
                        bytes_received: t.bytes_received,
                        epoch: state.epoch(),
                    },
                )?;
            }
            Message::Shutdown { reason } => {
                // Persist the terminal slice state, then end the run; the goodbye
                // passes `reason` on to any worker still connected (e.g. blocked
                // mid-fan-out on an abort).
                let stats = replies.transport_stats();
                life.close(state.pushes, |digest| state.snapshot(digest), &stats)?;
                let report = ShardServeReport {
                    pushes: state.pushes,
                    pulls_full: state.pulls_full,
                    pulls_delta: state.pulls_delta,
                };
                self.ended = Some((report, reason));
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unexpected {other:?} from client {rank} at shard server {index}"
                )))
            }
        }
        Ok(())
    }
}

/// Records one served pull — a `PullShards` reply, or the shards behind a
/// `SliceApplied` — with the pulling operation's trace, and mirrors the pull counters.
fn on_pull(obs: &Obs, state: &ShardServerState, rank: usize, trace: u64) {
    obs.event_traced(EventKind::Pull, rank as u64, trace);
    obs.metrics().pulls_full.store(state.pulls_full, Relaxed);
    obs.metrics().pulls_delta.store(state.pulls_delta, Relaxed);
}

/// Builds the full model's initial weights the way every worker and server does (from
/// the job seed), for tests and benchmarks that slice them by hand.
pub fn initial_params(job: &JobConfig) -> Vec<f32> {
    job.model.build(job.seed).params_flat()
}
