//! The transport-agnostic training driver.
//!
//! The DSSP decision logic (`dssp_ps::ParameterServer`) is runtime-agnostic; what *was*
//! duplicated between runtimes was everything around it: building the job, the worker
//! step-loop (pull → compute → push) and the server decision-loop (apply push, gate,
//! step the schedule, evaluate, summarize). Four substrates drive these pieces: the
//! simulator ([`crate::Simulation`], virtual time), the threaded runtime
//! (`dssp_core::runtime`), the networked server (`dssp-net`, TCP or loopback) and the
//! group coordinator (`dssp-coord`, a clock-only loop). The simulator keeps only its
//! event loop — queue, clock, link, time model — and hands every push to the same
//! [`ServerLoop::handle_push_slice`] a serving loop calls; the networked worker's round
//! exists once too, in `dssp_net::worker::run_worker_loop`. A serving loop offers each
//! event to the [`ServerLoop`], drains what it is ready to release, applies it
//! ([`ServerLoop::handle_push_slice`] / [`ServerLoop::handle_done`], or
//! [`ServerLoop::evict_worker`] for a dead worker) and delivers the `OK`s appended to
//! its reply scratch; the order events come back out in is the loop's own business.
//!
//! Three rules live here once. After each push the optimizer's epoch becomes the
//! slowest worker's, derived from the push counts. The loop decides when an evaluation
//! is due and keeps the trace points; the substrate decides who scores the weights
//! ([`ServerLoop::take_pending_eval`]). Every worker's summary arrives through
//! [`ServerLoop::handle_done`].
//!
//! # Deterministic mode
//!
//! Real-time substrates are racy: which worker's push reaches the server first depends
//! on OS scheduling, so two runs — or the same run on two substrates — differ bitwise
//! even with identical seeds. Setting [`JobConfig::deterministic`] makes
//! [`ServerLoop::next_ready`] impose a canonical event order (a private
//! `DeterministicGate` instead of the arrival-order queue): the loop buffers offered
//! events and only releases a push when every runnable worker's next event has arrived,
//! always picking the lowest-ranked one, and the policy clock becomes a logical event
//! counter instead of wall time. Two deterministic runs of the same job produce bitwise-identical
//! weights, accuracies and synchronization statistics on *any* substrate (threads,
//! loopback channels, TCP sockets); only wall-clock fields differ (see
//! [`RunTrace::with_times_zeroed`]). The cost is lockstep-ish pacing, so the
//! mode is for equivalence testing and debugging, not throughput.

use crate::pool::lock;
use crate::{DataSpec, RunTrace, TracePoint, WorkerSummary};
use dssp_data::BatchIter;
use dssp_nn::models::ModelSpec;
use dssp_nn::{Evaluator, Model, Sgd, SgdConfig, TrainStep};
use dssp_ps::{ParameterServer, PolicyKind, ServerConfig, SyncGate};
use dssp_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of one distributed training job, shared by every substrate (the
/// simulator maps its `SimConfig`, which also models the cluster, onto one).
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Model architecture replicated by every worker.
    pub model: ModelSpec,
    /// Dataset specification.
    pub data: DataSpec,
    /// Number of workers.
    pub num_workers: usize,
    /// Synchronization paradigm.
    pub policy: PolicyKind,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Passes over each worker's shard.
    pub epochs: usize,
    /// Server-side SGD configuration.
    pub sgd: SgdConfig,
    /// Master seed.
    pub seed: u64,
    /// Evaluate the global weights every this many pushes.
    pub eval_every_pushes: u64,
    /// Cap on test examples per evaluation.
    pub eval_max_examples: usize,
    /// Artificial extra compute delay per iteration for each worker, in milliseconds.
    /// An empty vector means no extra delay; otherwise it must have one entry per
    /// worker. Unequal delays emulate a heterogeneous cluster.
    pub extra_compute_delay_ms: Vec<u64>,
    /// Number of contiguous key-range shards for the server's parameter storage
    /// (1 = flat). Weight arithmetic is bitwise independent of this setting.
    pub shards: usize,
    /// Number of shard-server processes the model's shards are spread over in a
    /// multi-server group deployment (`dssp-coord`). `1` is the classic single-server
    /// topology (and the only value the simulator, the threaded runtime and plain
    /// `dssp-net` serve/worker accept). Server `i` owns the contiguous run of global
    /// shards given by `dssp_ps::shard_range(shards, servers, i)`, so the assignment
    /// is never carried on the wire. Part of the config digest: a group worker cannot
    /// silently join a job with a different topology.
    pub servers: usize,
    /// Whether networked workers receive incremental weights — only the shards whose
    /// version advanced past what they hold (the single server tracks what it last
    /// shipped each rank; a group worker sends its cached per-shard versions with
    /// `PullShards`) — instead of re-downloading the full model every iteration. On by
    /// default; bitwise-neutral (the reconstructed weights are identical either way).
    /// Included in the config digest so a delta-pulling worker cannot silently join a
    /// full-pull job. Ignored by the simulator and the threaded runtime, which move no
    /// weights over a wire.
    pub delta_pulls: bool,
    /// Impose a canonical event order and a logical policy clock so runs are bitwise
    /// reproducible across substrates (see the module docs). Off by default.
    pub deterministic: bool,
    /// Chaos hook: which process stops, in which protocol phase, and whether the run
    /// is expected to be restarted from checkpoints, to continue after eviction, or
    /// to be aborted with the shutdown broadcast. `None` disables the hook. Excluded
    /// from [`JobConfig::stable_digest`] so a restarted (fault-free) process accepts
    /// checkpoints taken by its faulted predecessor.
    pub fault_plan: Option<FaultPlan>,
    /// Checkpoint persistence: directory, cadence and restore flag. `None` disables
    /// checkpointing. Excluded from [`JobConfig::stable_digest`] (where a run stores
    /// its state does not change what it computes).
    pub checkpoint: Option<CheckpointSpec>,
    /// How long a peer may stay silent, in milliseconds: the threaded runtime's server
    /// waits this long without any worker message before checking for dead worker
    /// threads, and a group's links to its shard servers (`run_group_threads`,
    /// `launch_group`, `repro`) use it as their read timeout.
    pub stall_timeout_ms: u64,
    /// Observability: directory the networked roles flush their structured event logs
    /// to as NDJSON, one file per role (`server.ndjson`, `coord.ndjson`,
    /// `shard-<i>.ndjson`, `worker-<rank>.ndjson`). `None` disables event recording
    /// entirely (the hooks cost one branch). Excluded from
    /// [`JobConfig::stable_digest`]: observing a run does not change what it
    /// computes.
    pub event_log: Option<std::path::PathBuf>,
    /// Observability: base `HOST:PORT` for the hand-rolled Prometheus `GET /metrics`
    /// endpoints. The single server and the group coordinator listen at the base
    /// port; shard server `i` listens at `port + 1 + i`; workers expose no endpoint.
    /// `None` disables the listeners. Excluded from [`JobConfig::stable_digest`] like
    /// [`JobConfig::event_log`].
    pub metrics_addr: Option<String>,
    /// Declarative live-migration trigger for group runs: run this drain once the
    /// coordinator's clock reaches the spec's version (at the next quiescent round
    /// boundary). `None` means migrations happen only via the admin channel.
    /// Excluded from [`JobConfig::stable_digest`]: migration moves shard ownership
    /// between servers, never shard boundaries or weight arithmetic, so the computed
    /// model is bitwise unchanged.
    pub migration: Option<MigrationSpec>,
}

/// Which layout change a migration runs: a declared [`MigrationSpec`] always drains,
/// the admin channel asks for either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCommand {
    /// Move every shard off this server (it stays in the fleet, empty).
    Drain(usize),
    /// Re-spread the shards evenly over the currently active servers.
    Rebalance,
}

/// A declarative migration trigger: drain server `drain` once the coordinator's model
/// version (total applied pushes) reaches `at_version`. Fires at most once per group
/// life — only while the layout is still at epoch 0 — so a restarted coordinator that
/// restored a migrated (epoch ≥ 1) layout does not migrate again. Only a drain is
/// declared: the launch layout is the balanced one, so a rebalance from it would have
/// nothing to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationSpec {
    /// The server whose shards move off.
    pub drain: usize,
    /// Fire at the first quiescent round boundary at or after this model version.
    pub at_version: u64,
}

impl MigrationSpec {
    /// Parses the CLI form `drain:<server>:<at_version>`. Returns `None` on any
    /// malformed component.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut parts = spec.split(':');
        if parts.next()? != "drain" {
            return None;
        }
        let drain = parts.next()?.parse().ok()?;
        let at_version = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Self { drain, at_version })
    }

    /// Why a job with `servers` shard servers can never run this spec, if it cannot:
    /// a single server reads no spec, and a drain must name a server the group has.
    pub fn misfit(&self, servers: usize) -> Option<String> {
        let spec = self.to_spec();
        if servers == 1 {
            Some(format!(
                "migration {spec} needs a multi-server group, the job has one server"
            ))
        } else if self.drain >= servers {
            Some(format!(
                "migration {spec} names server {}, the job has {servers} servers",
                self.drain
            ))
        } else {
            None
        }
    }

    /// Renders the spec in the CLI form [`MigrationSpec::parse`] accepts.
    pub fn to_spec(&self) -> String {
        format!("drain:{}:{}", self.drain, self.at_version)
    }
}

/// Which process a [`FaultPlan`] kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRole {
    /// The worker with this rank.
    Worker(usize),
    /// The shard server with this index (the classic single server is index 0).
    ShardServer(usize),
    /// The group coordinator.
    Coordinator,
}

/// In which protocol phase a [`FaultPlan`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// While a push is being produced or applied.
    Push,
    /// While a pull is being served.
    Pull,
    /// While the faulting worker is blocked by the synchronization gate.
    GateBlocked,
    /// Immediately after a checkpoint was written.
    Checkpoint,
    /// During the migration prepare phase (pushes frozen, before any shard moved).
    MigratePrepare,
    /// During a migration shard transfer (source extracting or destination staging).
    MigrateTransfer,
    /// During the migration commit broadcast (some peers on the new epoch, some not).
    MigrateCommit,
}

/// What happens when a [`FaultPlan`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The process dies abruptly (no protocol goodbye), is restarted from its
    /// checkpoint, and the run completes.
    KillRestart,
    /// The process dies abruptly and is evicted: workers are reaped via the
    /// `ClientLost` path and the run continues (or, for servers, ends with a typed
    /// error).
    KillEvict,
    /// A serving role (shard server or coordinator, never a worker) stops the run:
    /// it leaves through its ordinary error path, `dssp_net::NetError::Aborted`, and
    /// broadcasts the server-error `Shutdown` so no peer is leaked.
    Abort,
}

/// A structured fault injection: `role` stops in `phase` after `after` occurrences of
/// that phase, with `action` deciding whether it is killed (and then restarted or
/// evicted by the chaos harness) or aborts the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Which process stops.
    pub role: FaultRole,
    /// In which protocol phase it stops.
    pub phase: FaultPhase,
    /// Killed and restarted from checkpoint, killed and evicted, or aborting.
    pub action: FaultAction,
    /// Fire after this many occurrences of the phase (1-based: `1` = first).
    pub after: u64,
}

impl FaultPlan {
    /// Parses the CLI form `role:phase:action:after` where role is `worker<rank>`,
    /// `server<index>` or `coord`; phase is `push`, `pull`, `gate`, `ckpt`, `prepare`,
    /// `transfer` or `commit` (one spelling per [`FaultPhase`]); action is `restart`,
    /// `evict` or `abort`. Returns `None` on any malformed component, and for a worker
    /// that aborts (only a serving role can stop the run).
    pub fn parse(spec: &str) -> Option<Self> {
        let mut parts = spec.split(':');
        let role = parts.next()?;
        let role = if let Some(rank) = role.strip_prefix("worker") {
            FaultRole::Worker(rank.parse().ok()?)
        } else if let Some(index) = role.strip_prefix("server") {
            FaultRole::ShardServer(index.parse().ok()?)
        } else if role == "coord" {
            FaultRole::Coordinator
        } else {
            return None;
        };
        let phase = match parts.next()? {
            "push" => FaultPhase::Push,
            "pull" => FaultPhase::Pull,
            "gate" => FaultPhase::GateBlocked,
            "ckpt" => FaultPhase::Checkpoint,
            "prepare" => FaultPhase::MigratePrepare,
            "transfer" => FaultPhase::MigrateTransfer,
            "commit" => FaultPhase::MigrateCommit,
            _ => return None,
        };
        let action = match parts.next()? {
            "restart" => FaultAction::KillRestart,
            "evict" => FaultAction::KillEvict,
            "abort" if !matches!(role, FaultRole::Worker(_)) => FaultAction::Abort,
            _ => return None,
        };
        let after: u64 = parts.next()?.parse().ok()?;
        if parts.next().is_some() || after == 0 {
            return None;
        }
        Some(Self {
            role,
            phase,
            action,
            after,
        })
    }

    /// Renders the plan back into the CLI form accepted by [`FaultPlan::parse`].
    pub fn to_spec(&self) -> String {
        let role = match self.role {
            FaultRole::Worker(rank) => format!("worker{rank}"),
            FaultRole::ShardServer(index) => format!("server{index}"),
            FaultRole::Coordinator => "coord".to_string(),
        };
        let phase = match self.phase {
            FaultPhase::Push => "push",
            FaultPhase::Pull => "pull",
            FaultPhase::GateBlocked => "gate",
            FaultPhase::Checkpoint => "ckpt",
            FaultPhase::MigratePrepare => "prepare",
            FaultPhase::MigrateTransfer => "transfer",
            FaultPhase::MigrateCommit => "commit",
        };
        let action = match self.action {
            FaultAction::KillRestart => "restart",
            FaultAction::KillEvict => "evict",
            FaultAction::Abort => "abort",
        };
        format!("{role}:{phase}:{action}:{}", self.after)
    }

    /// Why a job of `num_workers` workers on `servers` shard servers cannot carry this
    /// plan, or `None` when it can. A plan naming a worker rank or shard-server index
    /// the job lacks would never fire, and a worker that aborts is not a plan
    /// [`FaultPlan::parse`] accepts. (The coordinator is not checked: any job may run
    /// as a group.)
    pub fn misfit(&self, num_workers: usize, servers: usize) -> Option<String> {
        match (self.role, self.action) {
            (FaultRole::Worker(_), FaultAction::Abort) => Some(format!(
                "fault plan {}: a worker cannot abort the run",
                self.to_spec()
            )),
            (FaultRole::Worker(rank), _) if rank >= num_workers => Some(format!(
                "fault plan {} names worker {rank}, the job has {num_workers} workers",
                self.to_spec()
            )),
            (FaultRole::ShardServer(index), _) if index >= servers => Some(format!(
                "fault plan {} names server {index}, the job has {servers} servers",
                self.to_spec()
            )),
            _ => None,
        }
    }

    /// Whether the plan fires at the `count`-th occurrence (1-based) of `phase`. It
    /// fires on `count >= after` rather than equality, so a plan accidentally left
    /// in place on a process that resumes past `after` still fires instead of being
    /// skipped over. The caller has already matched [`FaultPlan::role`].
    pub fn due(&self, phase: FaultPhase, count: u64) -> bool {
        self.phase == phase && count >= self.after
    }
}

/// Checkpoint persistence settings carried by a [`JobConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory the role-conventional checkpoint files live in.
    pub dir: std::path::PathBuf,
    /// Write a checkpoint every this many applied pushes.
    pub every_pushes: u64,
    /// Restore from the directory's checkpoints at startup instead of starting fresh.
    pub restore: bool,
}

impl JobConfig {
    /// A small default configuration: MLP on a synthetic vector task, two workers.
    pub fn small(policy: PolicyKind) -> Self {
        Self {
            model: ModelSpec::Mlp {
                input_dim: 16,
                hidden: vec![24],
                classes: 4,
            },
            data: DataSpec::Vector(dssp_data::SyntheticVectorSpec {
                classes: 4,
                dim: 16,
                train_size: 512,
                test_size: 128,
                noise_std: 0.7,
            }),
            num_workers: 2,
            policy,
            batch_size: 16,
            epochs: 2,
            sgd: SgdConfig::default(),
            seed: 11,
            eval_every_pushes: 16,
            eval_max_examples: 128,
            extra_compute_delay_ms: Vec::new(),
            shards: 1,
            servers: 1,
            delta_pulls: true,
            deterministic: false,
            fault_plan: None,
            checkpoint: None,
            stall_timeout_ms: 30_000,
            event_log: None,
            metrics_addr: None,
            migration: None,
        }
    }

    /// A small configuration on the paper's downsized-AlexNet analogue (convolutional
    /// image model), two workers.
    pub fn small_alexnet(policy: PolicyKind) -> Self {
        Self {
            model: ModelSpec::DownsizedAlexNet {
                image_side: 8,
                classes: 4,
            },
            data: DataSpec::Image(
                dssp_data::SyntheticImageSpec::cifar10_like()
                    .with_classes(4)
                    .with_image_side(8)
                    .with_sizes(64, 32),
            ),
            batch_size: 8,
            epochs: 1,
            eval_every_pushes: 4,
            eval_max_examples: 32,
            seed: 5,
            ..Self::small(policy)
        }
    }

    /// Checks that a substrate can run this job; every substrate's entry point
    /// (`run_threaded`, `serve`, the coordinator, the shard servers, the launchers)
    /// calls it first, and so do [`WorkerStep`] and [`ServerLoop`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (zero workers, class mismatch, zero
    /// shards, a delay vector whose length differs from the worker count), or with
    /// [`JobConfig::misfit`]'s reason.
    pub fn validate(&self) {
        assert!(self.num_workers > 0, "need at least one worker");
        assert!(self.shards > 0, "need at least one storage shard");
        assert!(self.servers > 0, "need at least one shard server");
        assert!(
            self.servers <= self.shards,
            "cannot spread {} shards over {} shard servers (every server must own at \
             least one shard; raise --shards)",
            self.shards,
            self.servers
        );
        assert_eq!(
            self.model.classes(),
            self.data.classes(),
            "model and dataset class counts must agree"
        );
        assert!(
            self.extra_compute_delay_ms.is_empty()
                || self.extra_compute_delay_ms.len() == self.num_workers,
            "extra_compute_delay_ms must be empty or have one entry per worker"
        );
        if let Some(why) = self.misfit() {
            panic!("{why}");
        }
    }

    /// Why this job cannot run although each field is well formed, or `None` when it
    /// can: a worker whose training shard would be empty (fewer training examples
    /// than workers), a fault plan the job cannot carry ([`FaultPlan::misfit`]), or
    /// a migration it can never run ([`MigrationSpec::misfit`]).
    /// [`JobConfig::validate`] panics with it; `job_from_flags` returns it.
    ///
    /// # Panics
    ///
    /// Panics if the job has zero workers.
    pub fn misfit(&self) -> Option<String> {
        let sizes = self.data.shard_sizes(self.num_workers);
        if sizes.contains(&0) {
            return Some(format!(
                "{} training examples cannot give each of {} workers a shard",
                sizes.iter().sum::<usize>(),
                self.num_workers
            ));
        }
        self.fault_plan
            .and_then(|plan| plan.misfit(self.num_workers, self.servers))
            .or_else(|| self.migration.and_then(|spec| spec.misfit(self.servers)))
    }

    /// A stable fingerprint of every training-relevant field (FNV-1a over a canonical
    /// rendering). The networked runtime embeds it in the `Hello` handshake so a server
    /// and its workers refuse to train under silently different configurations, and
    /// checkpoints record it so only the job that wrote one restores from it.
    ///
    /// The chaos, persistence and observability hooks (`fault_plan`, `checkpoint`,
    /// `stall_timeout_ms`, `event_log`, `metrics_addr`, `migration`) are masked: they
    /// change how a run is interrupted, stored, observed or re-sharded but not what it
    /// computes, so a restarted process — which runs without the fault plan that
    /// killed its predecessor — still accepts the predecessor's checkpoints.
    pub fn stable_digest(&self) -> u64 {
        // Exhaustive on purpose (no `..`): a new field does not compile until it is
        // classified here as hashed or masked, so it cannot silently miss the handshake.
        let Self {
            model,
            data,
            num_workers,
            policy,
            batch_size,
            epochs,
            sgd,
            seed,
            eval_every_pushes,
            eval_max_examples,
            extra_compute_delay_ms,
            shards,
            servers,
            delta_pulls,
            deterministic,
            fault_plan: _,
            checkpoint: _,
            stall_timeout_ms: _,
            event_log: _,
            metrics_addr: _,
            migration: _,
        } = self;
        let canonical = format!(
            "{model:?}|{data:?}|{num_workers}|{policy:?}|{batch_size}|{epochs}|{sgd:?}|{seed}|\
             {eval_every_pushes}|{eval_max_examples}|{extra_compute_delay_ms:?}|{shards}|\
             {servers}|{delta_pulls}|{deterministic}"
        );
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in canonical.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Iterations of one pass over a shard of `shard_len` examples.
    fn epoch_len(&self, shard_len: usize) -> u64 {
        shard_len.div_ceil(self.batch_size) as u64
    }

    /// Per-worker iteration target for a shard of `shard_len` examples.
    fn target_iterations(&self, shard_len: usize) -> u64 {
        self.epochs as u64 * self.epoch_len(shard_len)
    }
}

/// One worker's training step-loop state: its model replica, shard iterator and scratch
/// buffers. Transport-agnostic — the surrounding runtime decides how weights arrive and
/// where gradients go.
pub struct WorkerStep {
    rank: usize,
    step: TrainStep,
    batches: BatchIter,
    batch_x: Tensor,
    batch_labels: Vec<usize>,
    target: u64,
    completed: u64,
    loss: f32,
    delay: Option<Duration>,
}

impl std::fmt::Debug for WorkerStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerStep")
            .field("rank", &self.rank)
            .field("target", &self.target)
            .field("completed", &self.completed)
            .finish()
    }
}

impl WorkerStep {
    /// Builds the step-loop state for worker `rank` from the job seed alone: generates
    /// only the training split and keeps the rank's shard ([`DataSpec::train_shard`]),
    /// never the test split a worker does not read. Every substrate — and, in the
    /// networked runtime, every *process* — arrives at identical state this way.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or `rank` is out of range.
    pub fn for_rank(config: &JobConfig, rank: usize) -> Self {
        config.validate();
        assert!(rank < config.num_workers, "worker rank out of range");
        let shard = config
            .data
            .train_shard(config.seed, config.num_workers, rank);
        Self::with_shard(config, rank, shard)
    }

    /// Like [`WorkerStep::for_rank`] but takes rank's shard directly, for substrates
    /// that already generated the dataset in-process (the simulator and the threaded
    /// runtime share one generation across the server and all workers).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or `rank` is out of range.
    pub fn with_shard(config: &JobConfig, rank: usize, shard: dssp_data::Shard) -> Self {
        config.validate();
        assert!(rank < config.num_workers, "worker rank out of range");
        let target = config.target_iterations(shard.len());
        let batches = BatchIter::new(
            shard,
            config.batch_size,
            config.seed.wrapping_add(rank as u64 + 1),
        );
        Self {
            rank,
            step: TrainStep::new(config.model.build(config.seed)),
            batches,
            batch_x: Tensor::default(),
            batch_labels: Vec::new(),
            target,
            completed: 0,
            loss: 0.0,
            delay: config
                .extra_compute_delay_ms
                .get(rank)
                .copied()
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
        }
    }

    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total iterations this worker will run.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Iterations completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Whether the worker has run all of its iterations.
    pub fn finished(&self) -> bool {
        self.completed >= self.target
    }

    /// Completed passes over this worker's shard.
    pub fn epoch(&self) -> usize {
        self.batches.epoch()
    }

    /// Total number of model parameters (the flat weight/gradient vector length).
    /// A group worker's link lays its fan out from this before the first pull.
    pub fn param_len(&self) -> usize {
        self.step.param_len()
    }

    /// Fast-forwards the worker past its first `completed` iterations without running
    /// them: draws and discards that many mini-batches so the (deterministic) data
    /// stream sits exactly where the `completed`-th iteration left it. This is the
    /// restart path — a worker rejoining at a checkpointed clock replays its batch
    /// schedule, not its compute, and then continues bitwise-identically to a worker
    /// that never died.
    ///
    /// # Panics
    ///
    /// Panics if called after the worker already ran iterations, or if `completed`
    /// exceeds the iteration target.
    pub fn skip_to(&mut self, completed: u64) {
        assert_eq!(self.completed, 0, "skip_to only applies to a fresh worker");
        assert!(
            completed <= self.target,
            "cannot skip past the iteration target"
        );
        for _ in 0..completed {
            self.batches
                .next_batch_into(&mut self.batch_x, &mut self.batch_labels);
        }
        self.completed = completed;
    }

    /// The replica's weights, for a pull to write in place, and the gradient of its
    /// last iteration, for the push that goes out at the same time: the worker's one
    /// copy of each ([`TrainStep::arenas`]).
    pub fn arenas(&mut self) -> (&mut Vec<f32>, &[f32]) {
        self.step.arenas()
    }

    /// The flat gradient of the last iteration, for the push (empty before the first).
    pub fn grads(&self) -> &[f32] {
        self.step.grads()
    }

    /// Runs one training iteration on the weights the replica holds: draws the next
    /// mini-batch and leaves the flat gradient in [`WorkerStep::grads`]. After the
    /// first iteration no heap allocation happens.
    ///
    /// # Panics
    ///
    /// Panics if a pull left the weights at another length than the parameter count.
    pub fn compute(&mut self) {
        self.next_batch();
        self.loss = self.step.gradient(&self.batch_x, &self.batch_labels);
        self.completed += 1;
    }

    /// [`WorkerStep::compute`] on a copy of `weights`, with a copy of the flat gradient
    /// written into the caller-owned `out` (resized to the parameter count; no
    /// allocation once warm).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the parameter count.
    pub fn compute_gradient_into(&mut self, weights: &[f32], out: &mut Vec<f32>) {
        self.next_batch();
        self.loss = self
            .step
            .gradient_into(weights, &self.batch_x, &self.batch_labels, out);
        self.completed += 1;
    }

    /// Applies the configured artificial compute delay (heterogeneity emulation), then
    /// draws the iteration's mini-batch.
    fn next_batch(&mut self) {
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
        self.batches
            .next_batch_into(&mut self.batch_x, &mut self.batch_labels);
    }

    /// The training loss of the last iteration's mini-batch (0 before the first).
    pub fn loss(&self) -> f32 {
        self.loss
    }
}

/// One event arriving at the server from a worker, as seen by [`ServerLoop`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerEvent {
    /// The worker pushed the gradients of its `iteration`-th iteration (1-based).
    Push {
        /// Pushing worker's rank.
        worker: usize,
        /// 1-based iteration number of this push.
        iteration: u64,
        /// Flat gradient vector (empty at a group coordinator, whose workers apply
        /// their gradients on the shard servers).
        grads: Vec<f32>,
    },
    /// The worker finished all of its iterations; the summary it reports.
    Done(WorkerSummary),
    /// The worker asks for the current weights: the explicit pull a networked worker
    /// opens with. Pulls are served by the transport layer and change no server
    /// state; the variant exists so deterministic mode can hold every push back until
    /// all opening pulls are in ([`ServerLoop::expect_opening_pulls`]).
    Pull {
        /// Pulling worker's rank.
        worker: usize,
    },
}

impl WorkerEvent {
    /// The rank the event came from.
    pub fn worker(&self) -> usize {
        match *self {
            WorkerEvent::Push { worker, .. } | WorkerEvent::Pull { worker } => worker,
            WorkerEvent::Done(ref summary) => summary.worker,
        }
    }
}

/// An `OK` the server owes a worker after handling an event: the worker may start its
/// next iteration. The substrate decides how to deliver it (channel send with fresh
/// weights, or a `PushReply` frame with the pull reply right behind it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OkReply {
    /// The worker to release.
    pub worker: usize,
    /// Extra-iteration credits the DSSP controller granted at this event (0 for
    /// catch-up releases and non-DSSP policies).
    pub granted_extra: u64,
}

/// Where a [`ServerLoop`]'s parameter storage lives.
enum Backend {
    /// Storage and gating in one process — the classic topology every pre-group
    /// substrate uses.
    Local(ParameterServer),
    /// Gating only: the weights live on remote shard servers and only clock messages
    /// reach this loop (the `dssp-coord` coordinator). Pushes carry no gradients, and
    /// the coordinator assembles the weights every evaluation scores.
    Clock(SyncGate),
}

/// The server decision-loop state every substrate shares: owns the [`ParameterServer`]
/// (or, in a group coordinator, just its gating half), the order events are processed
/// in, the learning-rate schedule's epoch, the evaluation cadence and trace points,
/// and the run summary.
///
/// Every serving loop drives it the same way: [`ServerLoop::offer`] each arriving
/// event, drain [`ServerLoop::next_ready`], apply what comes out with
/// [`ServerLoop::handle_push_slice`] / [`ServerLoop::handle_done`] (and
/// [`ServerLoop::evict_worker`] when a worker dies), and deliver the `OK`s those
/// append to the caller's reply scratch.
pub struct ServerLoop {
    backend: Backend,
    /// Deterministic mode's canonical event order; `None` processes events in arrival
    /// order through `arrivals`.
    order: Option<DeterministicGate>,
    arrivals: VecDeque<WorkerEvent>,
    /// The job's one evaluator replica, shared with whichever thread scores an
    /// evaluation ([`ServerLoop::evaluator`]).
    eval: Arc<Mutex<Evaluator>>,
    eval_every: u64,
    last_eval: u64,
    points: Vec<TracePoint>,
    /// Iterations of one pass over each worker's shard: what turns a push count into
    /// the epoch the schedule follows.
    epoch_lens: Vec<u64>,
    /// Reusable scratch for the workers released by an event, so the networked hot
    /// path ([`ServerLoop::handle_push_slice`]) allocates nothing per message.
    released_scratch: Vec<usize>,
    summaries: Vec<Option<WorkerSummary>>,
    done: Vec<bool>,
    done_count: usize,
    targets: Vec<u64>,
    policy_label: String,
    model_name: String,
    num_workers: usize,
    /// The policy clock at the last event ([`ServerLoop::clock`]): a logical event
    /// counter in deterministic mode, `origin` plus wall time otherwise.
    tick: f64,
    /// Where this life's wall clock starts on the policy clock: 0 for a fresh loop,
    /// the checkpointed tick for a restored one, so a restored wall-clock loop keeps
    /// feeding the interval table monotonic timestamps.
    origin: f64,
    /// The point of an evaluation a push made due, until the substrate takes it
    /// ([`ServerLoop::take_pending_eval`]).
    pending_eval: Option<TracePoint>,
}

impl std::fmt::Debug for ServerLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerLoop")
            .field("policy", &self.policy_label)
            .field("version", &self.version())
            .field("done", &self.done_count)
            .finish()
    }
}

impl ServerLoop {
    /// Builds the full server side of a job: evaluation batch, initial model weights
    /// and the gated [`ParameterServer`]. The server reads the test split and only
    /// the sizes of the training shards, so it generates the test split alone and
    /// computes the sizes from the spec ([`DataSpec::test_batch`],
    /// [`DataSpec::shard_sizes`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn new(config: &JobConfig) -> Self {
        Self::from_spec(config, false)
    }

    /// Like [`ServerLoop::new`] but reads an already generated dataset (the simulator
    /// and the threaded runtime share one generation between the server and all
    /// worker shards).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn with_dataset(config: &JobConfig, dataset: &dssp_data::Dataset) -> Self {
        config.validate();
        let eval_batch = dataset.test_batch(config.eval_max_examples);
        Self::build(
            config,
            dataset.shard_sizes(config.num_workers),
            eval_batch,
            false,
        )
    }

    /// Builds the **gating-only** server side of a job: the same evaluation batch (from
    /// the test split alone), run summary and decision logic as [`ServerLoop::new`],
    /// but no parameter storage —
    /// the weights live on remote shard servers. This is the group coordinator's loop:
    /// it applies pushes with empty gradient slices (only the clock matters), scores
    /// the group's assembled weights when [`ServerLoop::take_pending_eval`] hands it an
    /// evaluation, and is finished with [`ServerLoop::finish_external`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn clock_only(config: &JobConfig) -> Self {
        Self::from_spec(config, true)
    }

    /// A server loop from the spec: the shard sizes without generating the training
    /// split, and the evaluation batch from the test split alone.
    fn from_spec(config: &JobConfig, clock_only: bool) -> Self {
        config.validate();
        let eval_batch = config
            .data
            .test_batch(config.seed, config.eval_max_examples);
        let shard_sizes = config.data.shard_sizes(config.num_workers);
        Self::build(config, shard_sizes, eval_batch, clock_only)
    }

    fn build(
        config: &JobConfig,
        shard_sizes: Vec<usize>,
        eval_batch: (Tensor, Vec<usize>),
        clock_only: bool,
    ) -> Self {
        let targets: Vec<u64> = shard_sizes
            .iter()
            .map(|&len| config.target_iterations(len))
            .collect();
        let reference = config.model.build(config.seed);
        let backend = if clock_only {
            Backend::Clock(SyncGate::new(config.num_workers, config.policy))
        } else {
            let initial_params = reference.params_flat();
            let sgd = Sgd::new(config.sgd.clone(), initial_params.len());
            Backend::Local(ParameterServer::new(
                initial_params,
                sgd,
                ServerConfig::new(config.num_workers, config.policy).with_shards(config.shards),
            ))
        };
        Self {
            backend,
            order: config
                .deterministic
                .then(|| DeterministicGate::new(targets.clone())),
            arrivals: VecDeque::new(),
            eval: Arc::new(Mutex::new(Evaluator::new(
                reference,
                eval_batch,
                config.batch_size,
            ))),
            eval_every: config.eval_every_pushes,
            last_eval: 0,
            points: Vec::new(),
            epoch_lens: shard_sizes
                .iter()
                .map(|&len| config.epoch_len(len))
                .collect(),
            released_scratch: Vec::new(),
            summaries: vec![None; config.num_workers],
            done: vec![false; config.num_workers],
            done_count: 0,
            targets,
            policy_label: config.policy.label(),
            model_name: config.model.display_name(),
            num_workers: config.num_workers,
            tick: 0.0,
            origin: 0.0,
            pending_eval: None,
        }
    }

    /// Per-worker iteration targets (used by workers and launch tooling).
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// Total number of model parameters. Available in both backends (the evaluation
    /// replica knows the model size even when the weights live remotely), so a group
    /// coordinator can size its assembly buffers.
    pub fn param_len(&self) -> usize {
        lock(&self.eval).param_len()
    }

    /// The underlying parameter server (weights, clocks, statistics).
    ///
    /// # Panics
    ///
    /// Panics on a clock-only loop, which has no local parameter store.
    pub fn server(&self) -> &ParameterServer {
        match &self.backend {
            Backend::Local(ps) => ps,
            Backend::Clock(_) => panic!("clock-only server loops have no parameter store"),
        }
    }

    /// The gating half, wherever it lives.
    fn gate(&self) -> &SyncGate {
        match &self.backend {
            Backend::Local(ps) => ps.gate(),
            Backend::Clock(gate) => gate,
        }
    }

    /// Copies the current global weights (what an `OK` or pull reply ships). The
    /// networked runtime serves pulls zero-copy from the store instead
    /// (`ParameterServer::store`); this allocating form remains for the threaded
    /// runtime, whose `OK`s move an owned weight vector across a channel.
    ///
    /// # Panics
    ///
    /// Panics on a clock-only loop.
    pub fn pull(&self) -> Vec<f32> {
        self.server().weights().to_vec()
    }

    /// Total pushes applied so far.
    pub fn version(&self) -> u64 {
        self.gate().version()
    }

    /// Number of workers currently blocked by the synchronization policy (waiting for
    /// the slowest worker to catch up). Feeds the serving loops' blocked-worker gauge.
    pub fn blocked_count(&self) -> usize {
        self.gate().blocked_workers().len()
    }

    /// Whether every worker has reported `Done` (or been evicted).
    pub fn all_done(&self) -> bool {
        self.done_count >= self.num_workers
    }

    /// Whether the loop knows this worker is not dead: it reported `Done` (or was
    /// evicted), or an event of its is still queued. Stall detectors use this so a
    /// worker whose final `Done` is held back by the deterministic order while a slow
    /// peer computes is not misdiagnosed as crashed.
    pub fn worker_accounted_for(&self, worker: usize) -> bool {
        self.done[worker]
            || match &self.order {
                Some(order) => order.has_queued(worker),
                None => self.arrivals.iter().any(|e| e.worker() == worker),
            }
    }

    /// The number of pushes received from one worker so far (the clock a rejoining
    /// worker is admitted at).
    pub fn push_count(&self, worker: usize) -> u64 {
        self.gate().clocks().count(worker)
    }

    /// All per-worker push counts, in rank order.
    pub fn push_counts(&self) -> Vec<u64> {
        self.gate().clocks().counts().to_vec()
    }

    /// The synchronization statistics accumulated so far (both backends).
    pub fn stats(&self) -> &dssp_ps::ServerStats {
        self.gate().stats()
    }

    /// Captures this loop's durable state as a [`dssp_ps::Checkpoint`] stamped with
    /// `job_digest` (callers pass [`JobConfig::stable_digest`]): store + optimizer +
    /// gate for a local loop, gate only for a clock-only loop, plus the policy clock so
    /// a restored loop keeps feeding the interval table monotonic timestamps.
    pub fn snapshot(&self, job_digest: u64) -> dssp_ps::Checkpoint {
        let store = match &self.backend {
            Backend::Local(ps) => Some(dssp_ps::StoreSnapshot::capture(ps.store(), ps.optimizer())),
            Backend::Clock(_) => None,
        };
        dssp_ps::Checkpoint {
            job_digest,
            tick: self.tick,
            store,
            gate: Some(self.gate().snapshot()),
            layout: None,
        }
    }

    /// Rebuilds a server loop from a checkpoint taken by [`ServerLoop::snapshot`]
    /// under the same (chaos-masked) job configuration, reading the data as
    /// [`ServerLoop::new`] does (the test split alone). Worker `Done` bookkeeping
    /// restarts empty: every worker — including ones already at their target —
    /// reconnects and re-announces its completion, repopulating the summaries. The
    /// deterministic order resumes from the checkpointed push counts, so a rejoining
    /// worker's first push (iteration `count + 1`) sorts exactly where it would have in
    /// the unfailed run.
    ///
    /// Refuses, with [`dssp_ps::CheckpointError::RoleMismatch`], a checkpoint whose
    /// sections do not match the loop kind implied by the configuration (`clock_only`
    /// needs a gate section; a full loop needs both) or whose table and store sizes
    /// disagree with it — a group's processes share one job digest, so another
    /// role's file gets this far. Refuses, with
    /// [`dssp_ps::CheckpointError::RetiredWorkers`], one that records retired
    /// workers: a restore resumes a full fleet, and a retired worker's replayed
    /// pushes would corrupt the clock array.
    pub fn restore(
        config: &JobConfig,
        ckpt: &dssp_ps::Checkpoint,
        clock_only: bool,
    ) -> Result<Self, dssp_ps::CheckpointError> {
        let mut sl = Self::from_spec(config, clock_only);
        let store_offsets = match &sl.backend {
            Backend::Local(ps) => Some(ps.store().offsets()),
            Backend::Clock(_) => None,
        };
        ckpt.require_role(Some(config.num_workers), store_offsets)?;
        if ckpt.has_retired_workers() {
            return Err(dssp_ps::CheckpointError::RetiredWorkers);
        }
        let gate_snap = ckpt.gate.as_ref().expect("require_role checked the gate");
        let gate = SyncGate::restore(config.policy, gate_snap);
        sl.backend = if clock_only {
            Backend::Clock(gate)
        } else {
            let store_snap = ckpt.store.as_ref().expect("require_role checked the store");
            let (store, sgd) = store_snap.rebuild(config.sgd.clone());
            Backend::Local(ParameterServer::restore(
                store,
                sgd,
                gate,
                ServerConfig::new(config.num_workers, config.policy).with_shards(config.shards),
            ))
        };
        if let Some(order) = sl.order.as_mut() {
            order.resume_from(&gate_snap.counts);
        }
        (sl.tick, sl.origin) = (ckpt.tick, ckpt.tick);
        sl.last_eval = sl.version();
        Ok(sl)
    }

    /// Tells the loop its workers open with an explicit pull (the networked runtime;
    /// threads and group workers are handed their starting weights): in deterministic
    /// mode no push is then released before every worker's opening
    /// [`WorkerEvent::Pull`] has been, so all of them start from the same weights.
    pub fn expect_opening_pulls(&mut self) {
        if let Some(order) = self.order.as_mut() {
            order.await_opening_pulls();
        }
    }

    /// Queues an arriving event. Nothing is applied until [`ServerLoop::next_ready`]
    /// hands the event back.
    pub fn offer(&mut self, event: WorkerEvent) {
        match self.order.as_mut() {
            Some(order) => order.offer(event),
            None => self.arrivals.push_back(event),
        }
    }

    /// The next event to apply, or `None` when the loop must wait for more arrivals:
    /// arrival order normally, the canonical `(iteration, rank)` order in
    /// deterministic mode (see the module docs). The caller applies a push with
    /// [`ServerLoop::handle_push_slice`] and a `Done` with
    /// [`ServerLoop::handle_done`], and serves a pull from the store itself.
    pub fn next_ready(&mut self) -> Option<WorkerEvent> {
        match self.order.as_mut() {
            Some(order) => order.next(),
            None => self.arrivals.pop_front(),
        }
    }

    /// The policy clock for one more event: the logical tick in deterministic mode,
    /// wall time since this life's start past `origin` otherwise.
    fn clock(&mut self, wall_now: f64) -> f64 {
        self.tick = if self.order.is_some() {
            self.tick + 1.0
        } else {
            self.origin + wall_now
        };
        self.tick
    }

    /// Turns the workers in `released_scratch` into the `OK`s now owed (workers that
    /// already reported `Done` are skipped: their `OK`s have nowhere to go) and tells
    /// the deterministic order they are runnable again.
    fn owe_released(&mut self, replies: &mut Vec<OkReply>) {
        for &released in &self.released_scratch {
            if !self.done[released] {
                replies.push(OkReply {
                    worker: released,
                    granted_extra: 0,
                });
                if let Some(order) = self.order.as_mut() {
                    order.on_released(released);
                }
            }
        }
    }

    /// Applies one push at wall-clock time `wall_now` (seconds since run start, virtual
    /// time on the simulator; ignored in deterministic mode, where a logical event
    /// counter feeds the policy), steps the schedule's epoch, notes whether an
    /// evaluation came due, and appends the `OK`s now owed (pusher first when granted,
    /// then the workers it released) to the caller-owned `replies` buffer, which is
    /// **not** cleared first. The gradient is borrowed and
    /// all bookkeeping reuses member scratch, so the networked server's steady-state
    /// command loop performs no heap allocation per push (periodic evaluations
    /// excepted) under every policy — `dssp-ps`'s `zero_alloc_push` suite counts the
    /// decision path with the DSSP controller consulted, `dssp-net`'s `zero_alloc_net`
    /// the whole round. A clock-only loop takes an empty slice: its workers applied
    /// their gradients on the shard servers.
    ///
    /// Returns the policy's [`dssp_ps::PushDecision`] for this push — whether the
    /// pusher proceeds, any r* credit granted, and the pusher's staleness — so serving
    /// loops can export gate activity (events, metrics) without re-deriving clock
    /// state.
    pub fn handle_push_slice(
        &mut self,
        worker: usize,
        grads: &[f32],
        wall_now: f64,
        replies: &mut Vec<OkReply>,
    ) -> dssp_ps::PushDecision {
        let now = self.clock(wall_now);
        self.released_scratch.clear();
        let decision = match &mut self.backend {
            Backend::Local(ps) => {
                ps.handle_push_into(worker, grads, now, &mut self.released_scratch)
            }
            Backend::Clock(gate) => gate.on_push(worker, now, &mut self.released_scratch),
        };
        let granted = decision.ok_now && !self.done[worker];
        if granted {
            replies.push(OkReply {
                worker,
                granted_extra: decision.granted_extra,
            });
        }
        // The push carried the pusher's iteration number: its push count.
        let iteration = self.push_count(worker);
        if let Some(order) = self.order.as_mut() {
            order.on_push_processed(worker, iteration, granted);
        }
        self.owe_released(replies);
        // The schedule follows the slowest worker: the next push is applied at its rate.
        let epoch = self.slowest_epoch();
        if let Backend::Local(ps) = &mut self.backend {
            ps.set_epoch(epoch);
        }
        if self.version() - self.last_eval >= self.eval_every {
            self.last_eval = self.version();
            self.pending_eval = Some(self.point_at(now));
        }
        decision
    }

    /// Applies one worker's `Done` — records its summary and retires its clock so the
    /// gate stops waiting on it — and appends the `OK`s its retirement releases to
    /// `replies` (not cleared first). A repeated `Done` changes nothing.
    pub fn handle_done(
        &mut self,
        summary: WorkerSummary,
        wall_now: f64,
        replies: &mut Vec<OkReply>,
    ) {
        // A `Done` is an event on the logical clock even though no rule reads its time.
        self.clock(wall_now);
        let worker = summary.worker;
        if self.done[worker] {
            return;
        }
        self.summaries[worker] = Some(summary);
        self.done[worker] = true;
        self.done_count += 1;
        self.released_scratch.clear();
        match &mut self.backend {
            Backend::Local(ps) => ps.retire_worker(worker, &mut self.released_scratch),
            Backend::Clock(gate) => gate.retire_into(worker, &mut self.released_scratch),
        }
        self.owe_released(replies);
    }

    /// Evicts a dead worker mid-run: reclaims its DSSP credits, retires its clock so
    /// the gate stops waiting on it, drops whatever it still had queued, synthesizes
    /// the worker summary its `Done` will never deliver (its push count so far, zero
    /// waiting time), and appends the `OK`s its departure releases to `replies` (not
    /// cleared first). Idempotent per worker.
    pub fn evict_worker(&mut self, worker: usize, wall_now: f64, replies: &mut Vec<OkReply>) {
        match self.order.as_mut() {
            Some(order) => order.forget_worker(worker),
            None => self.arrivals.retain(|e| e.worker() != worker),
        }
        if self.done[worker] {
            return;
        }
        self.clock(wall_now);
        self.released_scratch.clear();
        match &mut self.backend {
            Backend::Local(ps) => {
                ps.evict_worker(worker, &mut self.released_scratch);
            }
            Backend::Clock(gate) => {
                gate.evict_into(worker, &mut self.released_scratch);
            }
        }
        self.summaries[worker] = Some(WorkerSummary {
            worker,
            iterations: self.push_count(worker),
            epochs: 0,
            waiting_time_s: 0.0,
        });
        self.done[worker] = true;
        self.done_count += 1;
        self.owe_released(replies);
    }

    /// The slowest active worker's epoch (every worker's once all have retired),
    /// from the push counts alone: a worker that pushed `k ≥ 1` times has drawn `k`
    /// batches, so its batch iterator is in epoch `(k − 1) / epoch_len`.
    fn slowest_epoch(&self) -> usize {
        let clocks = self.gate().clocks();
        let all_retired = (0..self.num_workers).all(|w| !clocks.is_active(w));
        (0..self.num_workers)
            .filter(|&w| all_retired || clocks.is_active(w))
            .map(|w| clocks.count(w).saturating_sub(1) / self.epoch_lens[w].max(1))
            .min()
            .unwrap_or(0) as usize
    }

    /// A trace point stamped at policy time `now` with the current version and epoch;
    /// its accuracy is the evaluation's to fill.
    fn point_at(&self, now: f64) -> TracePoint {
        TracePoint {
            time_s: now,
            pushes: self.version(),
            epoch: self.slowest_epoch(),
            test_accuracy: 0.0,
            train_loss: 0.0,
        }
    }

    /// Takes the evaluation the last push made due, if any: its trace point, stamped
    /// with the policy clock, the version and the slowest worker's epoch. The caller
    /// scores the global weights of that moment — the store's, or a group's assembled
    /// slices — in place with [`ServerLoop::accuracy`] or on another thread with
    /// [`ServerLoop::evaluator`], and hands the point back with
    /// [`ServerLoop::record_eval`].
    pub fn take_pending_eval(&mut self) -> Option<TracePoint> {
        self.pending_eval.take()
    }

    /// Appends a point taken with [`ServerLoop::take_pending_eval`] to the trace, with
    /// the accuracy its weights scored.
    pub fn record_eval(&mut self, point: TracePoint, accuracy: f32) {
        self.points.push(TracePoint {
            test_accuracy: f64::from(accuracy),
            ..point
        });
    }

    /// Scores `weights` on the held-out batch with the job's evaluator replica.
    pub fn accuracy(&self, weights: &[f32]) -> f32 {
        lock(&self.eval).accuracy(weights)
    }

    /// The job's evaluator replica, for a substrate that scores evaluations off its
    /// event loop (the simulator's pool). It is the replica [`ServerLoop::accuracy`]
    /// and the closing evaluation use: there is one per job.
    pub fn evaluator(&self) -> Arc<Mutex<Evaluator>> {
        Arc::clone(&self.eval)
    }

    /// Final evaluation and trace assembly. `wall_total` is the wall-clock duration of
    /// the run (replaced by the logical clock in deterministic mode).
    ///
    /// # Panics
    ///
    /// Panics if some worker never reported `Done` (callers must check
    /// [`ServerLoop::all_done`] first), or on a clock-only loop (use
    /// [`ServerLoop::finish_external`]).
    pub fn finish(self, wall_total: f64) -> RunTrace {
        let accuracy = self.accuracy(self.server().weights());
        self.close(accuracy, wall_total)
    }

    /// [`ServerLoop::finish`] for clock-only loops: the final evaluation runs on the
    /// externally supplied weights (the group's assembled model).
    ///
    /// # Panics
    ///
    /// Panics if some worker never reported `Done`.
    pub fn finish_external(self, weights: &[f32], wall_total: f64) -> RunTrace {
        let accuracy = self.accuracy(weights);
        self.close(accuracy, wall_total)
    }

    /// Appends the closing evaluation's point and assembles the trace; the run lasted
    /// until the policy clock's last tick in deterministic mode.
    fn close(mut self, accuracy: f32, wall_total: f64) -> RunTrace {
        let total = if self.order.is_some() {
            self.tick
        } else {
            self.origin + wall_total
        };
        self.record_eval(self.point_at(total), accuracy);
        let server_stats = self.stats().clone();
        let total_pushes = self.version();
        RunTrace {
            policy: self.policy_label,
            model: self.model_name,
            workers: self.num_workers,
            points: self.points,
            total_time_s: total,
            total_pushes,
            worker_summaries: self
                .summaries
                .into_iter()
                .map(|s| s.expect("summary recorded for every worker"))
                .collect(),
            server_stats,
            group_servers: Vec::new(),
        }
    }
}

/// Gate state of one worker, from the server's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateState {
    /// Computing; its next event will be a push (or its final push's `Done`).
    Running,
    /// Yet to collect its initial weights; its next event will be a pull (substrates
    /// whose workers open with an explicit pull only).
    AwaitingPull,
    /// Blocked by the policy; it will send nothing until released.
    Blocked,
    /// Its final push was dispatched; its next event will be `Done`.
    Draining,
    /// Retired.
    Done,
}

/// Imposes a canonical, arrival-order-independent processing order on worker events
/// (see the module docs on deterministic mode). Private to [`ServerLoop`], which
/// feeds every offered event through [`DeterministicGate::offer`], drains
/// [`DeterministicGate::next`], and reports each outcome itself.
///
/// An event is only released once every worker that could still produce one has
/// delivered its next event, and among the queued heads the smallest
/// `(iteration, rank)` key wins — a Kahn-style merge that is fair across workers and
/// independent of arrival timing. After a push is applied the loop reports the outcome
/// ([`DeterministicGate::on_push_processed`] / [`DeterministicGate::on_released`]) so
/// the gate can track which workers are runnable.
///
/// Every substrate hands a released worker the weights as of its `OK` — inline with
/// the `OK` on a channel, or right behind it on a socket — so once a worker runs, the
/// gate orders pushes and `Done`s and nothing else. The one pull it knows is the
/// **initial-pull barrier** of substrates whose workers open with an explicit pull
/// ([`DeterministicGate::await_opening_pulls`]): no push may be applied before every
/// worker has collected its starting weights, or a late starter would begin from
/// weights the other substrates never hand out as a starting point.
#[derive(Debug)]
struct DeterministicGate {
    queues: Vec<VecDeque<WorkerEvent>>,
    states: Vec<GateState>,
    targets: Vec<u64>,
    /// Iteration of the last dispatched push per worker; a silent runnable worker's
    /// next event therefore has key `last_key + 1`, which bounds how long dispatch must
    /// wait for it.
    last_key: Vec<u64>,
}

impl DeterministicGate {
    /// Creates a gate for workers with the given iteration targets, all of them
    /// running their first iteration.
    fn new(targets: Vec<u64>) -> Self {
        let n = targets.len();
        Self {
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            states: vec![GateState::Running; n],
            targets,
            last_key: vec![0; n],
        }
    }

    /// Moves a fresh gate to a run restored from a checkpoint where each worker has
    /// already pushed `counts[w]` times: dispatch bookkeeping starts from those
    /// iteration keys instead of zero. Workers already at their target are expected
    /// to re-announce only their `Done`.
    ///
    /// # Panics
    ///
    /// Panics if `counts` and the targets differ in length or a count exceeds its
    /// target.
    fn resume_from(&mut self, counts: &[u64]) {
        assert_eq!(
            self.targets.len(),
            counts.len(),
            "count/target length mismatch"
        );
        for (w, &count) in counts.iter().enumerate() {
            assert!(
                count <= self.targets[w],
                "restored count exceeds iteration target"
            );
            if count >= self.targets[w] {
                self.states[w] = GateState::Draining;
            }
        }
        self.last_key.copy_from_slice(counts);
    }

    /// Every worker opens — or, after a restore, re-opens — with an explicit pull
    /// before anything else.
    fn await_opening_pulls(&mut self) {
        self.states.fill(GateState::AwaitingPull);
    }

    /// Removes an evicted worker from dispatch: its queued events are dropped and it
    /// never again gates other workers' dispatch. Anything it still had in flight is
    /// gone with it.
    fn forget_worker(&mut self, worker: usize) {
        self.queues[worker].clear();
        self.states[worker] = GateState::Done;
    }

    /// Enqueues an incoming event.
    fn offer(&mut self, event: WorkerEvent) {
        let worker = event.worker();
        self.queues[worker].push_back(event);
    }

    /// Releases the next event in canonical order, or `None` if the gate must wait for
    /// more arrivals.
    fn next(&mut self) -> Option<WorkerEvent> {
        // Phase 1, the initial-pull barrier: while any worker still owes its opening
        // pull, only pulls may pass — applying a push first would let its starting
        // weights drift from the ones every other worker started from.
        let mut any_awaiting = false;
        for w in 0..self.states.len() {
            if self.states[w] == GateState::AwaitingPull {
                any_awaiting = true;
                if matches!(self.queues[w].front(), Some(WorkerEvent::Pull { .. })) {
                    self.states[w] = GateState::Running;
                    return self.queues[w].pop_front();
                }
            }
        }
        if any_awaiting {
            return None;
        }
        // Phase 2: release the queued head with the smallest (iteration, rank) key —
        // but only once no silent runnable worker could still produce a smaller one
        // (its next key is bounded below by its last dispatched iteration + 1).
        let mut best: Option<(u64, usize)> = None;
        for w in 0..self.states.len() {
            if matches!(self.states[w], GateState::Running | GateState::Draining) {
                if let Some(front) = self.queues[w].front() {
                    let key = Self::event_key(front);
                    if best.is_none_or(|(k, r)| (key, w) < (k, r)) {
                        best = Some((key, w));
                    }
                }
            }
        }
        let (key, w) = best?;
        for v in 0..self.states.len() {
            if matches!(self.states[v], GateState::Running | GateState::Draining)
                && self.queues[v].is_empty()
                && (self.last_key[v] + 1, v) < (key, w)
            {
                return None; // worker v's in-flight event sorts earlier; wait for it
            }
        }
        let event = self.queues[w].pop_front();
        match &event {
            Some(WorkerEvent::Push { iteration, .. }) => self.last_key[w] = *iteration,
            Some(WorkerEvent::Done(_)) => self.states[w] = GateState::Done,
            _ => {}
        }
        event
    }

    /// Canonical ordering key of an event: the 1-based iteration it concludes (`Done`
    /// sorts right after the worker's final push).
    fn event_key(event: &WorkerEvent) -> u64 {
        match event {
            WorkerEvent::Push { iteration, .. } => *iteration,
            WorkerEvent::Done(summary) => summary.iterations + 1,
            WorkerEvent::Pull { .. } => 0,
        }
    }

    /// Reports the outcome of a dispatched push: whether the pusher was granted its
    /// `OK` (`ok`), and which 1-based iteration the push carried.
    fn on_push_processed(&mut self, worker: usize, iteration: u64, ok: bool) {
        self.states[worker] = if iteration >= self.targets[worker] {
            // The final push is followed by `Done` without waiting for the OK.
            GateState::Draining
        } else if !ok {
            GateState::Blocked
        } else {
            GateState::Running
        };
    }

    /// Whether an event of this worker is still queued.
    fn has_queued(&self, worker: usize) -> bool {
        !self.queues[worker].is_empty()
    }

    /// Reports that a previously blocked worker received its deferred `OK`.
    fn on_released(&mut self, worker: usize) {
        if self.states[worker] == GateState::Blocked {
            self.states[worker] = GateState::Running;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_digest_is_stable_and_sensitive() {
        let a = JobConfig::small(PolicyKind::Bsp);
        let b = JobConfig::small(PolicyKind::Bsp);
        assert_eq!(a.stable_digest(), b.stable_digest());
        let mut c = JobConfig::small(PolicyKind::Bsp);
        c.seed += 1;
        assert_ne!(a.stable_digest(), c.stable_digest());
        let d = JobConfig::small(PolicyKind::Asp);
        assert_ne!(a.stable_digest(), d.stable_digest());
        // Checkpoints record the digest, so its value for an existing job must never
        // change: this literal was read off the function before it destructured.
        let mut e = JobConfig::small(PolicyKind::Ssp { s: 1 });
        e.num_workers = 3;
        e.epochs = 8;
        assert_eq!(e.stable_digest(), 0x14ac_4b7f_9b9f_cae3);
        // The masked hooks change how a run is interrupted or observed, not the job.
        e.fault_plan = FaultPlan::parse("coord:push:abort:3");
        e.stall_timeout_ms += 1;
        e.event_log = Some("events".into());
        assert_eq!(e.stable_digest(), 0x14ac_4b7f_9b9f_cae3);
    }

    /// The optimizer follows the slowest worker, whose push count alone gives its
    /// epoch: the decay lands on the push that brings the slowest worker's count into
    /// the milestone epoch, not on a faster worker's, and the trace points carry it.
    #[test]
    fn a_step_schedule_decays_when_the_slowest_worker_enters_the_milestone_epoch() {
        let mut config = JobConfig::small(PolicyKind::Asp);
        config.sgd.schedule = dssp_nn::LrSchedule::step(0.1, 0.1, &[1]);
        config.eval_every_pushes = 1;
        config.validate();
        let mut sl = ServerLoop::new(&config);
        // 512 examples over 2 workers in batches of 16: 16 pushes per epoch.
        let epoch_len = 16;
        let grads = vec![0.0; sl.param_len()];
        let (base, decayed) = (
            config.sgd.schedule.lr_at_epoch(0),
            config.sgd.schedule.lr_at_epoch(1),
        );
        let push = |sl: &mut ServerLoop, worker: usize| {
            sl.handle_push_slice(worker, &grads, 0.0, &mut Vec::new());
            let point = sl.take_pending_eval().expect("every push evaluates");
            (sl.server().optimizer().current_lr(), point.epoch)
        };
        for _ in 0..=epoch_len {
            // Worker 0 ends in epoch 1, but worker 1 has not pushed yet.
            assert_eq!(push(&mut sl, 0), (base, 0));
        }
        for _ in 0..epoch_len {
            assert_eq!(push(&mut sl, 1), (base, 0));
        }
        assert_eq!(push(&mut sl, 1), (decayed, 1));
        assert_eq!(push(&mut sl, 0), (decayed, 1));
    }

    /// Both splits in one generation, as the simulator and the threaded runtime hand
    /// them to `with_dataset` / `with_shard`: the reference the split-wise paths of
    /// `for_rank` and `new` must match bit for bit.
    fn whole_dataset(config: &JobConfig) -> dssp_data::Dataset {
        DataSpec::generate(&config.data, config.seed)
    }

    /// Jobs whose training sets 3 workers do not divide (512 and 64 examples).
    fn uneven_jobs() -> [JobConfig; 2] {
        [
            JobConfig::small(PolicyKind::Bsp),
            JobConfig::small_alexnet(PolicyKind::Bsp),
        ]
        .map(|config| JobConfig {
            num_workers: 3,
            ..config
        })
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A worker that generates only the training split steps exactly like one handed
    /// its shard of the whole dataset, at every rank.
    #[test]
    fn worker_step_runs_its_shard_deterministically() {
        for config in uneven_jobs() {
            let dataset = whole_dataset(&config);
            let init = ServerLoop::with_dataset(&config, &dataset).pull();
            for (rank, shard) in dataset.shard_train(3).into_iter().enumerate() {
                let mut a = WorkerStep::for_rank(&config, rank);
                let mut b = WorkerStep::with_shard(&config, rank, shard);
                assert_eq!(a.target(), b.target());
                assert!(a.target() > 1);
                for _ in 0..2 {
                    for step in [&mut a, &mut b] {
                        step.arenas().0.copy_from_slice(&init);
                        step.compute();
                    }
                    assert_eq!(
                        bits(a.grads()),
                        bits(b.grads()),
                        "rank {rank}: bitwise-equal gradients"
                    );
                }
                assert_eq!(a.completed(), 2);
                assert!(!a.finished());
            }
        }
    }

    /// A server that generates only the test split and sizes the shards from the spec
    /// sets the same targets and scores the same accuracy as one built from the whole
    /// dataset; so does the clock-only loop.
    #[test]
    fn a_server_loop_from_the_spec_matches_one_from_the_whole_dataset() {
        for config in uneven_jobs() {
            let reference = ServerLoop::with_dataset(&config, &whole_dataset(&config));
            let init = reference.pull();
            for sl in [ServerLoop::new(&config), ServerLoop::clock_only(&config)] {
                assert_eq!(sl.targets(), reference.targets());
                assert_eq!(
                    sl.accuracy(&init).to_bits(),
                    reference.accuracy(&init).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "64 training examples cannot give each of 65 workers a shard")]
    fn validate_refuses_a_worker_without_a_shard() {
        let mut config = JobConfig::small_alexnet(PolicyKind::Asp);
        config.num_workers = 65;
        config.validate();
    }

    fn done(worker: usize, iterations: u64) -> WorkerSummary {
        WorkerSummary {
            worker,
            iterations,
            epochs: 1,
            waiting_time_s: 0.0,
        }
    }

    #[test]
    fn server_loop_tracks_done_workers_and_finishes() {
        let mut config = JobConfig::small(PolicyKind::Asp);
        config.num_workers = 2;
        let mut sl = ServerLoop::new(&config);
        let grads = vec![0.0; sl.param_len()];
        let mut replies = Vec::new();
        sl.handle_push_slice(0, &grads, 0.1, &mut replies);
        assert_eq!(
            replies,
            vec![OkReply {
                worker: 0,
                granted_extra: 0
            }]
        );
        assert!(!sl.all_done());
        for w in 0..2 {
            sl.handle_done(done(w, 1), 0.2, &mut replies);
        }
        assert!(sl.all_done());
        let trace = sl.finish(0.3);
        assert_eq!(trace.total_pushes, 1);
        assert_eq!(trace.worker_summaries.len(), 2);
    }

    #[test]
    fn a_restored_wall_clock_loop_continues_the_policy_clock() {
        let config = JobConfig::small(PolicyKind::Asp);
        let mut sl = ServerLoop::new(&config);
        let grads = vec![0.0; sl.param_len()];
        for now in [1.0, 2.0] {
            sl.handle_push_slice(0, &grads, now, &mut Vec::new());
        }
        let digest = config.stable_digest();
        let bytes = sl.snapshot(digest).encode();
        let ckpt = dssp_ps::Checkpoint::decode_for_job(&bytes, digest).unwrap();
        // The restarted process's wall clock starts again at 0; the policy clock
        // carries on from the checkpoint's 2.0 s.
        let mut sl = ServerLoop::restore(&config, &ckpt, false).unwrap();
        sl.handle_push_slice(0, &grads, 0.1, &mut Vec::new());
        assert_eq!(sl.gate().intervals().latest(0), Some(2.0 + 0.1));
        for w in 0..2 {
            sl.handle_done(done(w, 3), 0.2, &mut Vec::new());
        }
        assert_eq!(sl.finish(0.3).total_time_s, 2.0 + 0.3);
    }

    #[test]
    fn fault_plans_round_trip_every_action_and_no_worker_aborts() {
        for spec in [
            "worker1:gate:restart:2",
            "server0:ckpt:evict:1",
            "server1:push:abort:3",
            "coord:commit:abort:4",
        ] {
            let plan = FaultPlan::parse(spec).unwrap_or_else(|| panic!("{spec} parses"));
            assert_eq!(plan.to_spec(), spec);
        }
        assert_eq!(
            FaultPlan::parse("coord:push:abort:3").map(|p| p.action),
            Some(FaultAction::Abort)
        );
        assert_eq!(FaultPlan::parse("worker0:push:abort:1"), None);
    }

    /// A plan for a worker rank or a server index the job lacks would never fire.
    #[test]
    fn a_fault_plan_must_name_a_role_the_job_has() {
        let plan = |spec| FaultPlan::parse(spec).unwrap();
        assert_eq!(plan("worker1:push:evict:1").misfit(2, 1), None);
        assert_eq!(plan("server1:push:abort:1").misfit(2, 2), None);
        assert_eq!(plan("coord:push:abort:1").misfit(2, 1), None);
        assert!(plan("worker5:push:evict:1").misfit(2, 1).is_some());
        assert!(plan("server3:push:evict:1").misfit(2, 2).is_some());
        let built = FaultPlan {
            role: FaultRole::Worker(0),
            phase: FaultPhase::Push,
            action: FaultAction::Abort,
            after: 1,
        };
        assert!(built.misfit(2, 1).is_some());
    }

    #[test]
    #[should_panic(expected = "names worker 5")]
    fn validate_refuses_a_fault_plan_for_a_missing_worker() {
        let mut config = JobConfig::small(PolicyKind::Asp);
        config.fault_plan = FaultPlan::parse("worker5:push:evict:1");
        config.validate();
    }

    #[test]
    fn gate_orders_concurrent_pushes_by_iteration_then_rank() {
        let mut gate = DeterministicGate::new(vec![2, 2]);
        // Worker 1's push arrives first, but the gate holds it until worker 0's is in.
        gate.offer(WorkerEvent::Push {
            worker: 1,
            iteration: 1,
            grads: vec![],
        });
        assert!(gate.next().is_none(), "must wait for worker 0");
        gate.offer(WorkerEvent::Push {
            worker: 0,
            iteration: 1,
            grads: vec![],
        });
        let first = gate.next().expect("both queued");
        assert_eq!(first.worker(), 0, "equal iterations break ties by rank");
        gate.on_push_processed(0, 1, true);
        // Worker 0's next push can only carry iteration 2, which sorts after worker 1's
        // queued iteration 1 — so worker 1 dispatches without waiting (no starvation).
        let second = gate.next().expect("worker 1's head is provably minimal");
        assert_eq!(second.worker(), 1);
        gate.on_push_processed(1, 1, true);
        assert!(gate.next().is_none(), "both workers' next events in flight");
        // Iteration 2 pushes tie again and break by rank, but only once both are in.
        gate.offer(WorkerEvent::Push {
            worker: 1,
            iteration: 2,
            grads: vec![],
        });
        assert!(
            gate.next().is_none(),
            "worker 0's iteration 2 could still win"
        );
        gate.offer(WorkerEvent::Push {
            worker: 0,
            iteration: 2,
            grads: vec![],
        });
        assert_eq!(gate.next().unwrap().worker(), 0);
    }

    #[test]
    fn gate_blocked_workers_do_not_stall_dispatch() {
        let mut gate = DeterministicGate::new(vec![3, 3]);
        gate.offer(WorkerEvent::Push {
            worker: 0,
            iteration: 1,
            grads: vec![],
        });
        gate.offer(WorkerEvent::Push {
            worker: 1,
            iteration: 1,
            grads: vec![],
        });
        gate.next().unwrap();
        gate.on_push_processed(0, 1, false); // worker 0 blocked
                                             // Worker 1's queued push dispatches even though worker 0 will stay silent.
        let ev = gate.next().expect("blocked worker must not gate others");
        assert_eq!(ev.worker(), 1);
        gate.on_push_processed(1, 1, true);
        gate.on_released(0);
        // Worker 0 is runnable again: dispatch now waits for both.
        gate.offer(WorkerEvent::Push {
            worker: 1,
            iteration: 2,
            grads: vec![],
        });
        assert!(gate.next().is_none(), "waits for released worker 0");
    }

    #[test]
    fn gate_with_pull_step_serves_pulls_before_any_push() {
        let mut gate = DeterministicGate::new(vec![2, 2]);
        gate.await_opening_pulls();
        // Worker 1 pulled and even pushed already; worker 0 still owes its initial
        // pull, so nothing mutating may pass.
        gate.offer(WorkerEvent::Pull { worker: 1 });
        gate.offer(WorkerEvent::Push {
            worker: 1,
            iteration: 1,
            grads: vec![],
        });
        assert!(matches!(gate.next(), Some(WorkerEvent::Pull { worker: 1 })));
        assert!(
            gate.next().is_none(),
            "worker 0 owes a pull; pushes must wait"
        );
        gate.offer(WorkerEvent::Pull { worker: 0 });
        assert!(matches!(gate.next(), Some(WorkerEvent::Pull { worker: 0 })));
        // Now both are running; worker 1's push still waits for worker 0's.
        assert!(gate.next().is_none());
        gate.offer(WorkerEvent::Push {
            worker: 0,
            iteration: 1,
            grads: vec![],
        });
        assert_eq!(gate.next().unwrap().worker(), 0);
        gate.on_push_processed(0, 1, true);
        // The barrier is the opening pulls only: worker 0's `OK` carried its weights,
        // so worker 1's queued push passes without waiting for another pull.
        assert_eq!(gate.next().unwrap().worker(), 1);
    }

    #[test]
    fn gate_final_push_expects_done_even_when_blocked() {
        let mut gate = DeterministicGate::new(vec![1, 2]);
        gate.offer(WorkerEvent::Push {
            worker: 0,
            iteration: 1,
            grads: vec![],
        });
        gate.offer(WorkerEvent::Push {
            worker: 1,
            iteration: 1,
            grads: vec![],
        });
        assert_eq!(gate.next().unwrap().worker(), 0);
        // Final push of worker 0, blocked by the policy: its Done is still expected
        // (key 2), but worker 1's queued iteration-1 push sorts first.
        gate.on_push_processed(0, 1, false);
        gate.offer(WorkerEvent::Done(done(0, 1)));
        assert_eq!(gate.next().unwrap().worker(), 1);
        gate.on_push_processed(1, 1, true);
        let ev = gate.next().unwrap();
        assert_eq!(ev, WorkerEvent::Done(done(0, 1)));
        // After Done, worker 0 no longer gates worker 1's second push.
        assert!(gate.next().is_none(), "waits for worker 1's next event");
        gate.offer(WorkerEvent::Push {
            worker: 1,
            iteration: 2,
            grads: vec![],
        });
        assert_eq!(gate.next().unwrap().worker(), 1);
    }
}
