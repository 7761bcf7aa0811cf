//! The parameter server of Algorithm 1 (server part).

use crate::clock::WorkerId;
use crate::gate::SyncGate;
use crate::policy::PolicyKind;
use crate::sharded::ShardedStore;
use dssp_nn::Sgd;
use serde::{Deserialize, Serialize};

/// Configuration of a [`ParameterServer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Number of workers connected to the server.
    pub num_workers: usize,
    /// The synchronization policy to apply.
    pub policy: PolicyKind,
    /// Number of contiguous key-range shards the parameter storage is split into.
    /// `1` is the classic flat store; larger values exercise the key-sharded storage a
    /// multi-server deployment would use (per-shard version counters are reported by
    /// networked pulls). Bitwise weight evolution is independent of this setting.
    pub shards: usize,
}

impl ServerConfig {
    /// Creates a configuration for `num_workers` workers under `policy` with unsharded
    /// (single-shard) storage.
    pub fn new(num_workers: usize, policy: PolicyKind) -> Self {
        Self {
            num_workers,
            policy,
            shards: 1,
        }
    }

    /// Splits the parameter storage into `shards` contiguous key ranges, returning
    /// `self` for chaining.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// Outcome of one push request ([`ParameterServer::handle_push_into`],
/// [`SyncGate::on_push`]); the workers it releases go to a caller-owned buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushDecision {
    /// Whether the pushing worker may start its next iteration immediately
    /// (the `OK` signal of Algorithm 1).
    pub ok_now: bool,
    /// The server weight version (total pushes applied) after this push.
    pub version: u64,
    /// Extra-iteration credits the DSSP controller granted *at this push* (`r*` of
    /// Algorithm 2; always 0 for BSP/ASP/SSP and for pushes that spend an existing
    /// credit).
    pub granted_extra: u64,
    /// The pushing worker's staleness at push time (its clock lead over the slowest
    /// active worker) — the per-push sample behind [`ServerStats`]'s staleness sum and
    /// maximum, surfaced here so networked serving loops can export it without
    /// re-deriving clock state. Taken after this push advanced the pusher's clock and
    /// before the rule decided (see [`ServerStats::staleness_max`]), so a push the rule
    /// blocks at `s_U` reads `s_U + 1`.
    pub staleness: u64,
}

/// Aggregate statistics the server keeps about synchronization behaviour.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Total pushes applied.
    pub pushes: u64,
    /// Number of pushes that resulted in the pusher being blocked.
    pub blocked_pushes: u64,
    /// Number of deferred `OK`s that were eventually sent (worker releases).
    pub releases: u64,
    /// Sum of the pusher's lead over the slowest worker at push time.
    pub staleness_sum: u64,
    /// Maximum observed lead over the slowest worker at push time. The sample is taken
    /// after the pusher's clock advanced for the push and before the rule decided on
    /// it, so it counts the push being judged: under a rule bounded by `s_U` it reads
    /// `s_U + 1` at most — the lead of the push that was then blocked — while no worker
    /// computes on weights more than `s_U` clocks behind ([`SyncGate::on_push`] takes
    /// the sample). Literal DSSP re-grants credits and has no such bound.
    pub staleness_max: u64,
    /// Total extra-iteration credits granted by the DSSP synchronization controller
    /// (sum of every `r*` decision; 0 unless the policy is a DSSP variant).
    pub credits_granted: u64,
    /// Unspent credits returned to the pool when a worker was evicted mid-run (0 in a
    /// fixed-fleet run; only a DSSP variant can have credits to reclaim).
    #[serde(default)]
    pub credits_reclaimed: u64,
}

impl ServerStats {
    /// Mean staleness (lead over the slowest worker) observed at push time.
    pub fn mean_staleness(&self) -> f64 {
        if self.pushes == 0 {
            0.0
        } else {
            self.staleness_sum as f64 / self.pushes as f64
        }
    }

    /// Fraction of pushes whose worker had to wait for a deferred `OK`.
    pub fn blocked_fraction(&self) -> f64 {
        if self.pushes == 0 {
            0.0
        } else {
            self.blocked_pushes as f64 / self.pushes as f64
        }
    }
}

/// The parameter server: holds the globally shared weights, applies pushed gradients via
/// SGD, and gates workers according to the configured [`PolicyKind`].
///
/// A push has one way in, [`ParameterServer::handle_push_into`], and it is Algorithm 1's
/// server part read top to bottom: the SGD step on the store (`w ← w − η·g`, every push
/// at once), the version bump, then [`SyncGate::on_push`].
///
/// The server is runtime-agnostic — it never blocks a thread itself. A push reports
/// whether the pushing worker may continue and which previously blocked workers are
/// released; the surrounding runtime (simulator, thread pool or socket loop) is
/// responsible for actually delivering the `OK` signals.
pub struct ParameterServer {
    store: ShardedStore,
    optimizer: Sgd,
    /// The gating-only half (clocks, intervals, policy, statistics) — the same state a
    /// multi-server group's coordinator runs without any storage.
    gate: SyncGate,
    config: ServerConfig,
}

impl std::fmt::Debug for ParameterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParameterServer")
            .field("params", &self.store.len())
            .field("shards", &self.store.num_shards())
            .field("policy", &self.config.policy.label())
            .field("version", &self.gate.version())
            .field("blocked", &self.gate.blocked_workers())
            .finish()
    }
}

impl ParameterServer {
    /// Creates a server holding `initial_params` and applying pushes with `optimizer`.
    ///
    /// The parameters live in a [`ShardedStore`] with `config.shards` contiguous key
    /// ranges (1 = flat). Sharding only affects the per-shard version metadata reported
    /// to networked pulls; the weight arithmetic is elementwise and therefore bitwise
    /// identical across shard counts.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero workers or zero shards.
    pub fn new(initial_params: Vec<f32>, optimizer: Sgd, config: ServerConfig) -> Self {
        assert!(config.num_workers > 0, "need at least one worker");
        Self {
            store: ShardedStore::new(initial_params, config.shards),
            optimizer,
            gate: SyncGate::new(config.num_workers, config.policy),
            config,
        }
    }

    /// The current globally shared weights (what a `pull` returns).
    pub fn weights(&self) -> &[f32] {
        self.store.as_flat()
    }

    /// The sharded parameter storage (key ranges and per-shard versions).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Per-shard update versions, in shard order (reported by networked pull replies).
    pub fn shard_versions(&self) -> &[u64] {
        self.store.versions()
    }

    /// The server weight version: the total number of pushes applied so far.
    pub fn version(&self) -> u64 {
        self.gate.version()
    }

    /// Synchronization statistics accumulated so far.
    pub fn stats(&self) -> &ServerStats {
        self.gate.stats()
    }

    /// The configuration this server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The gating-only half: clocks, intervals, policy state and statistics. This is
    /// the exact state a multi-server group's coordinator runs stand-alone.
    pub fn gate(&self) -> &SyncGate {
        &self.gate
    }

    /// The server-side optimizer, exposing its momentum state for checkpointing.
    pub fn optimizer(&self) -> &Sgd {
        &self.optimizer
    }

    /// Rebuilds a server from checkpointed parts: the parameter store (weights, shard
    /// layout, and per-shard versions), the optimizer (with its momentum velocity and
    /// schedule epoch), and the gate (clocks, intervals, policy credits, statistics).
    /// That is all of a server's state: every push is applied before the next arrives,
    /// so nothing is pending between pushes, where checkpoints are taken.
    ///
    /// # Panics
    ///
    /// Panics if the store's shard count disagrees with `config.shards`.
    pub fn restore(
        store: ShardedStore,
        optimizer: Sgd,
        gate: SyncGate,
        config: ServerConfig,
    ) -> Self {
        assert_eq!(
            store.num_shards(),
            config.shards,
            "restored store shard count disagrees with the configuration"
        );
        Self {
            store,
            optimizer,
            gate,
            config,
        }
    }

    /// Informs the server-side optimizer of the current epoch so learning-rate schedules
    /// can take effect.
    pub fn set_epoch(&mut self, epoch: usize) {
        self.optimizer.set_epoch(epoch);
    }

    /// Handles a push request from `worker` carrying mini-batch gradients, at time
    /// `now` (seconds), appending any released workers to the caller-owned `released`
    /// buffer (not cleared first).
    ///
    /// The gradients are applied to the global weights immediately (Algorithm 1, server
    /// line 2), the worker's clock is incremented, and the policy decides whether the
    /// worker gets its `OK` now or must wait. This is every substrate's hot path: with
    /// a warm `released` it performs no heap allocation under any policy (the DSSP
    /// controller evaluates its two timelines without storing them, the release scan
    /// reuses member scratch; `tests/zero_alloc_push.rs` counts it).
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the parameter vector length or the worker id
    /// is out of range.
    pub fn handle_push_into(
        &mut self,
        worker: WorkerId,
        grads: &[f32],
        now: f64,
        released: &mut Vec<WorkerId>,
    ) -> PushDecision {
        assert_eq!(
            grads.len(),
            self.store.len(),
            "gradient length {} does not match parameter length {}",
            grads.len(),
            self.store.len()
        );
        assert!(worker < self.config.num_workers, "worker id out of range");

        self.optimizer.step(self.store.flat_mut(), grads);
        self.store.bump_all_versions();
        self.gate.on_push(worker, now, released)
    }

    /// Copies the current weights into `out` (cleared first) — what a worker's `pull`
    /// request returns before it overwrites its local replica. A bounds-checked memcpy
    /// into the caller-owned buffer; nothing is allocated once `out` is warm.
    pub fn pull_into(&self, out: &mut Vec<f32>) {
        self.store.pull_into(out);
    }

    /// The incremental pull: copies only the shards stale relative to the client's
    /// `known` version vector into caller-owned buffers (see
    /// [`ShardedStore::pull_delta_into`]); returns the number of shards shipped. The
    /// TCP transport bypasses this copy entirely — it encodes stale ranges straight
    /// from [`ParameterServer::store`] into the frame buffer via its `PullView` — but
    /// this is the storage-level form for substrates that need owned buffers.
    ///
    /// # Panics
    ///
    /// Panics if `known` has the wrong length (check
    /// [`ShardedStore::delta_compatible`] first).
    pub fn pull_delta_into(
        &self,
        known: &[u64],
        meta: &mut Vec<(u32, u64)>,
        weights: &mut Vec<f32>,
    ) -> usize {
        self.store.pull_delta_into(known, meta, weights)
    }

    /// Marks a worker as retired (it has completed its configured epochs and will push
    /// no more). Retired workers no longer count as the "slowest" worker, so workers
    /// that were waiting on them can be released; any such releases are appended to
    /// the caller-owned `released` buffer (not cleared first).
    pub fn retire_worker(&mut self, worker: WorkerId, released: &mut Vec<WorkerId>) {
        self.gate.retire_into(worker, released);
    }

    /// Evicts a worker that died mid-run: reclaims its unspent DSSP credits into
    /// [`ServerStats::credits_reclaimed`], forgets its pace measurements, retires its
    /// clock, and appends anyone who was blocked on it to `released` (not cleared
    /// first). Returns the reclaimed credit count.
    pub fn evict_worker(&mut self, worker: WorkerId, released: &mut Vec<WorkerId>) -> u64 {
        self.gate.evict_into(worker, released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_nn::{LrSchedule, SgdConfig};

    fn server(policy: PolicyKind, workers: usize, dims: usize) -> ParameterServer {
        let sgd = Sgd::new(
            SgdConfig {
                schedule: LrSchedule::constant(1.0),
                momentum: 0.0,
                weight_decay: 0.0,
            },
            dims,
        );
        ParameterServer::new(vec![0.0; dims], sgd, ServerConfig::new(workers, policy))
    }

    /// One push through [`ParameterServer::handle_push_into`] with a fresh `released`
    /// buffer: what it decided and whom it released.
    struct Pushed {
        ok_now: bool,
        released: Vec<WorkerId>,
        granted_extra: u64,
    }

    fn push(s: &mut ParameterServer, worker: WorkerId, grads: &[f32], now: f64) -> Pushed {
        let mut released = Vec::new();
        let decision = s.handle_push_into(worker, grads, now, &mut released);
        Pushed {
            ok_now: decision.ok_now,
            released,
            granted_extra: decision.granted_extra,
        }
    }

    #[test]
    fn push_applies_gradient_to_weights() {
        let mut s = server(PolicyKind::Asp, 1, 3);
        push(&mut s, 0, &[1.0, 2.0, 3.0], 0.0);
        assert_eq!(s.weights(), &[-1.0, -2.0, -3.0]);
        assert_eq!(s.version(), 1);
        let mut pulled = Vec::new();
        s.pull_into(&mut pulled);
        assert_eq!(pulled, vec![-1.0, -2.0, -3.0]);
    }

    #[test]
    fn bsp_releases_waiters_when_last_worker_pushes() {
        let mut s = server(PolicyKind::Bsp, 3, 1);
        let r0 = push(&mut s, 0, &[0.1], 1.0);
        assert!(!r0.ok_now);
        let r1 = push(&mut s, 1, &[0.1], 2.0);
        assert!(!r1.ok_now);
        assert!(r1.released.is_empty());
        let r2 = push(&mut s, 2, &[0.1], 3.0);
        assert!(r2.ok_now);
        let mut released = r2.released.clone();
        released.sort_unstable();
        assert_eq!(released, vec![0, 1]);
        assert!(s.gate().blocked_workers().is_empty());
    }

    #[test]
    fn asp_never_blocks_any_worker() {
        let mut s = server(PolicyKind::Asp, 2, 1);
        for i in 0..20 {
            let r = push(&mut s, 0, &[0.0], i as f64);
            assert!(r.ok_now);
            assert!(r.released.is_empty());
        }
        assert_eq!(s.stats().blocked_pushes, 0);
        assert_eq!(s.stats().staleness_max, 20);
    }

    #[test]
    fn ssp_blocks_beyond_threshold_and_releases_after_catch_up() {
        let mut s = server(PolicyKind::Ssp { s: 1 }, 2, 1);
        assert!(push(&mut s, 0, &[0.0], 1.0).ok_now);
        let r = push(&mut s, 0, &[0.0], 2.0);
        assert!(!r.ok_now, "lead 2 exceeds threshold 1");
        assert_eq!(s.gate().blocked_workers(), &[0]);
        // Worker 1 pushes once: lead of worker 0 drops to 1, so it gets released.
        let r = push(&mut s, 1, &[0.0], 3.0);
        assert!(r.ok_now);
        assert_eq!(r.released, vec![0]);
        assert_eq!(s.stats().releases, 1);
    }

    #[test]
    fn stats_track_staleness_and_blocking() {
        let mut s = server(PolicyKind::Ssp { s: 0 }, 2, 1);
        push(&mut s, 0, &[0.0], 1.0); // lead 1, blocked
        push(&mut s, 1, &[0.0], 2.0); // lead 0, ok + releases worker 0
        let st = s.stats();
        assert_eq!(st.pushes, 2);
        assert_eq!(st.blocked_pushes, 1);
        assert_eq!(st.releases, 1);
        assert!((st.mean_staleness() - 0.5).abs() < 1e-9);
        assert!((st.blocked_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn epoch_forwarding_changes_learning_rate() {
        let sgd = Sgd::new(
            SgdConfig {
                schedule: LrSchedule::step(1.0, 0.1, &[1]),
                momentum: 0.0,
                weight_decay: 0.0,
            },
            1,
        );
        let mut s = ParameterServer::new(vec![0.0], sgd, ServerConfig::new(1, PolicyKind::Asp));
        push(&mut s, 0, &[1.0], 0.0);
        assert!((s.weights()[0] + 1.0).abs() < 1e-6);
        s.set_epoch(1);
        push(&mut s, 0, &[1.0], 1.0);
        assert!((s.weights()[0] + 1.1).abs() < 1e-6);
    }

    #[test]
    fn retiring_a_finished_worker_releases_the_waiters() {
        // Two-worker BSP: worker 0 pushes and waits for worker 1. If worker 1 has
        // finished training, retiring it must release worker 0.
        let mut s = server(PolicyKind::Bsp, 2, 1);
        let r = push(&mut s, 0, &[0.0], 1.0);
        assert!(!r.ok_now);
        let mut released = Vec::new();
        s.retire_worker(1, &mut released);
        assert_eq!(released, vec![0]);
        assert!(s.gate().blocked_workers().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match parameter length")]
    fn wrong_gradient_length_panics() {
        let mut s = server(PolicyKind::Asp, 1, 2);
        push(&mut s, 0, &[1.0], 0.0);
    }

    #[test]
    fn sharded_storage_evolves_bitwise_identically_to_flat_storage() {
        // The same push sequence against a 1-shard and a 4-shard server must produce
        // exactly the same weights at every step — sharding is metadata, not math.
        let make = |shards: usize| {
            let sgd = Sgd::new(
                SgdConfig {
                    schedule: LrSchedule::step(0.3, 0.5, &[1]),
                    momentum: 0.9,
                    weight_decay: 0.01,
                },
                9,
            );
            let initial: Vec<f32> = (0..9).map(|i| (i as f32).sin()).collect();
            ParameterServer::new(
                initial,
                sgd,
                ServerConfig::new(2, PolicyKind::Asp).with_shards(shards),
            )
        };
        let mut flat = make(1);
        let mut sharded = make(4);
        assert_eq!(sharded.store().num_shards(), 4);
        for i in 0..12u64 {
            let grads: Vec<f32> = (0..9)
                .map(|j| ((i as f32) * 0.3 + j as f32).cos())
                .collect();
            let worker = (i % 2) as usize;
            push(&mut flat, worker, &grads, i as f64);
            push(&mut sharded, worker, &grads, i as f64);
            assert_eq!(flat.weights(), sharded.weights(), "diverged at push {i}");
        }
        let (mut flat_pull, mut sharded_pull) = (Vec::new(), Vec::new());
        flat.pull_into(&mut flat_pull);
        sharded.pull_into(&mut sharded_pull);
        assert_eq!(flat_pull, sharded_pull);
        // Every shard saw every whole-model update.
        assert_eq!(sharded.shard_versions(), &[12, 12, 12, 12]);
        assert_eq!(flat.shard_versions(), &[12]);
        // A server-level delta pull against a half-stale cache ships the stale half.
        let (mut meta, mut delta_weights) = (Vec::new(), Vec::new());
        let shipped = sharded.pull_delta_into(&[12, 11, 12, 11], &mut meta, &mut delta_weights);
        assert_eq!(shipped, 2);
        assert_eq!(meta, vec![(1, 12), (3, 12)]);
        let store = sharded.store();
        assert_eq!(
            delta_weights,
            [store.shard(1), store.shard(3)].concat(),
            "delta weights are the stale shards' ranges, in shard order"
        );
    }

    #[test]
    fn push_result_reports_dssp_controller_grants() {
        let mut s = server(PolicyKind::Dssp { s_l: 1, r_max: 8 }, 2, 1);
        // Build interval history: worker 0 pushes every 1 s, worker 1 every 10 s.
        assert_eq!(push(&mut s, 0, &[0.0], 1.0).granted_extra, 0);
        assert_eq!(push(&mut s, 1, &[0.0], 10.0).granted_extra, 0);
        assert_eq!(push(&mut s, 0, &[0.0], 2.0).granted_extra, 0);
        assert_eq!(push(&mut s, 1, &[0.0], 20.0).granted_extra, 0);
        assert_eq!(push(&mut s, 0, &[0.0], 3.0).granted_extra, 0); // lead 1 <= s_l
        let r = push(&mut s, 0, &[0.0], 4.0); // lead 2 > s_l: controller consulted
        assert!(r.ok_now);
        assert!(r.granted_extra > 0, "fast worker should be granted extras");
        assert_eq!(s.stats().credits_granted, r.granted_extra);
    }

    #[test]
    fn non_dssp_policies_never_grant_extras() {
        let mut s = server(PolicyKind::Ssp { s: 1 }, 2, 1);
        for i in 0..6 {
            let r = push(&mut s, i % 2, &[0.0], i as f64);
            assert_eq!(r.granted_extra, 0);
        }
        assert_eq!(s.stats().credits_granted, 0);
    }

    #[test]
    fn debug_output_mentions_policy() {
        let s = server(PolicyKind::Dssp { s_l: 3, r_max: 12 }, 2, 1);
        assert!(format!("{s:?}").contains("DSSP s=3, r=12"));
        assert_eq!(s.config().num_workers, 2);
    }
}
