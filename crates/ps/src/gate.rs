//! The gating-only half of the parameter server.
//!
//! A classic deployment runs Algorithm 1's storage (weights + SGD) and Algorithm 2's
//! synchronization state (clocks, intervals, policy) in one process. Sharded
//! deployments split them: the model is spread over a fleet of storage-only shard
//! servers while one lightweight **coordinator** owns the synchronization state and
//! exchanges only tiny clock messages with workers. [`SyncGate`] is that coordinator
//! state, extracted from [`crate::ParameterServer`] (which now composes a gate with
//! its storage, so the single-process decision logic is *the same code* the
//! coordinator runs — a push through either path updates identical clocks, interval
//! tables, policy state and statistics).
//!
//! The gate keeps each fact once: the clock array `t`, table `A`, the credits `r_p`
//! (inside the rule), the blocked set, and [`ServerStats`], whose push count is the
//! weight version and whose grant counter is the only one.
//!
//! **Where the staleness sample is taken.** [`SyncGate::on_push`] takes it after the
//! pusher's clock has been incremented for this push and before the staleness rule
//! decides whether the push gets its `OK`. The sample therefore counts the push being
//! judged: a worker that was allowed to start an iteration at lead `s_U` pushes at
//! lead `s_U + 1`, the rule sees that and withholds the `OK`, and `s_U + 1` is what
//! [`ServerStats::staleness_max`] shows. A rule bounded by `s_U` (SSP at `s`, strict
//! DSSP at `s_L + r_max`) thus reads `s_U + 1` at most — by construction, not an
//! off-by-one in the gate: no worker ever *computes* on weights more than `s_U`
//! clocks behind. Literal Algorithm 1 can re-grant credits and has no such bound.

use crate::clock::{ClockTable, IntervalTracker, WorkerId};
use crate::policy::{PolicyKind, StalenessRule};
use crate::server::{PushDecision, ServerStats};

/// A full copy of a [`SyncGate`]'s mutable state, as captured by
/// [`SyncGate::snapshot`] and replayed by [`SyncGate::restore`]. This is the
/// coordinator's half of a checkpoint: everything Algorithm 1's clock array and
/// Algorithm 2's tables have accumulated, including the DSSP credit balances.
#[derive(Debug, Clone, PartialEq)]
pub struct GateSnapshot {
    /// Per-worker push counters (array `t` of Algorithm 1).
    pub counts: Vec<u64>,
    /// Per-worker retired flags.
    pub retired: Vec<bool>,
    /// Latest push timestamp per worker (table `A` column 0).
    pub latest: Vec<Option<f64>>,
    /// Previous push timestamp per worker (table `A` column 1).
    pub previous: Vec<Option<f64>>,
    /// Workers waiting for a deferred `OK`, in blocking order.
    pub blocked: Vec<WorkerId>,
    /// Synchronization statistics accumulated so far (`stats.pushes` is the weight
    /// version).
    pub stats: ServerStats,
    /// Per-worker remaining DSSP credits (empty for policies without credits).
    pub credits: Vec<u64>,
    /// Cumulative controller invocations.
    pub controller_invocations: u64,
}

/// The synchronization state of Algorithms 1 and 2 without any parameter storage:
/// per-worker clocks, the push-timestamp table, the staleness rule, the blocked set and
/// the synchronization statistics.
///
/// [`crate::ParameterServer`] embeds one of these next to its weight store; a
/// multi-server group's coordinator runs one *without* any store, leaving the weights
/// to its shard servers.
pub struct SyncGate {
    clocks: ClockTable,
    intervals: IntervalTracker,
    kind: PolicyKind,
    rule: StalenessRule,
    blocked: Vec<WorkerId>,
    /// Reusable scratch for [`SyncGate::drain_released_into`] so the still-blocked
    /// survivors can be rebuilt without allocating on the push path.
    blocked_scratch: Vec<WorkerId>,
    stats: ServerStats,
    num_workers: usize,
}

impl std::fmt::Debug for SyncGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncGate")
            .field("policy", &self.kind.label())
            .field("version", &self.version())
            .field("blocked", &self.blocked)
            .finish()
    }
}

impl SyncGate {
    /// Creates the synchronization state for `num_workers` workers under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` is zero.
    pub fn new(num_workers: usize, policy: PolicyKind) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        Self {
            clocks: ClockTable::new(num_workers),
            intervals: IntervalTracker::new(num_workers),
            kind: policy,
            rule: policy.build(num_workers),
            blocked: Vec::new(),
            blocked_scratch: Vec::new(),
            stats: ServerStats::default(),
            num_workers,
        }
    }

    /// Number of workers this gate tracks.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Total pushes recorded so far (the server weight version).
    pub fn version(&self) -> u64 {
        self.stats.pushes
    }

    /// The per-worker push counters (array `t` of Algorithm 1).
    pub fn clocks(&self) -> &ClockTable {
        &self.clocks
    }

    /// The push-timestamp table (table `A` of Algorithm 2).
    pub fn intervals(&self) -> &IntervalTracker {
        &self.intervals
    }

    /// Synchronization statistics accumulated so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Workers currently waiting for a deferred `OK`.
    pub fn blocked_workers(&self) -> &[WorkerId] {
        &self.blocked
    }

    /// Records one push from `worker` at time `now`: increments its clock, updates the
    /// interval table and staleness statistics (sampled before the rule decides; see
    /// [`ServerStats::staleness_max`]), consults the policy, and appends any workers
    /// this push releases to the caller-owned `released` buffer (not cleared first). No
    /// weights are touched — the caller applies the gradient to whatever storage it
    /// owns (in place, or remotely on a group of shard servers).
    ///
    /// # Panics
    ///
    /// Panics if the worker id is out of range.
    pub fn on_push(
        &mut self,
        worker: WorkerId,
        now: f64,
        released: &mut Vec<WorkerId>,
    ) -> PushDecision {
        assert!(worker < self.num_workers, "worker id out of range");
        self.clocks.increment(worker);
        self.intervals.record_push(worker, now);

        self.stats.pushes += 1;
        let lead = self.clocks.lead_over_slowest(worker);
        self.stats.staleness_sum += lead;
        self.stats.staleness_max = self.stats.staleness_max.max(lead);

        let (ok_now, granted_extra) = self.rule.on_push(worker, &self.clocks, &self.intervals);
        self.stats.credits_granted += granted_extra;
        if !ok_now {
            self.stats.blocked_pushes += 1;
            self.blocked.push(worker);
        }

        self.drain_released_into(if ok_now { None } else { Some(worker) }, released);
        PushDecision {
            ok_now,
            version: self.version(),
            granted_extra,
            staleness: lead,
        }
    }

    /// Marks a worker as retired (it has completed its configured epochs and will push
    /// no more), appending any workers this releases to `released` (not cleared first).
    pub fn retire_into(&mut self, worker: WorkerId, released: &mut Vec<WorkerId>) {
        self.clocks.retire(worker);
        self.drain_released_into(None, released);
    }

    /// Evicts a dead worker: retires its clock, forgets its interval measurements,
    /// returns its unspent extra-iteration credits to the pool (counted in
    /// [`ServerStats::credits_reclaimed`]), drops it from the blocked set, and appends
    /// any workers its departure releases to `released` (not cleared first). Returns
    /// the number of credits reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if the worker id is out of range.
    pub fn evict_into(&mut self, worker: WorkerId, released: &mut Vec<WorkerId>) -> u64 {
        assert!(worker < self.num_workers, "worker id out of range");
        let reclaimed = self.rule.reclaim_credits(worker);
        self.stats.credits_reclaimed += reclaimed;
        self.intervals.forget(worker);
        self.clocks.retire(worker);
        self.blocked.retain(|&w| w != worker);
        self.drain_released_into(None, released);
        reclaimed
    }

    /// Captures every mutable field of the gate for checkpointing. The policy *kind*
    /// is not part of the snapshot — the restoring side rebuilds the gate from its own
    /// `JobConfig` (whose digest the checkpoint codec verifies).
    pub fn snapshot(&self) -> GateSnapshot {
        GateSnapshot {
            counts: self.clocks.counts().to_vec(),
            retired: self.clocks.retired_flags().to_vec(),
            latest: (0..self.num_workers)
                .map(|w| self.intervals.latest(w))
                .collect(),
            previous: (0..self.num_workers)
                .map(|w| self.intervals.previous(w))
                .collect(),
            blocked: self.blocked.clone(),
            stats: self.stats.clone(),
            credits: self.rule.credits().to_vec(),
            controller_invocations: self.rule.controller_invocations(),
        }
    }

    /// Rebuilds a gate from a [`GateSnapshot`] under `policy` (the same policy the
    /// snapshotted gate ran — the caller guarantees this via the job-config digest).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's tables disagree on the worker count or it is zero.
    pub fn restore(policy: PolicyKind, snap: &GateSnapshot) -> Self {
        let num_workers = snap.counts.len();
        assert!(num_workers > 0, "need at least one worker");
        let mut restored = Self {
            clocks: ClockTable::restore(snap.counts.clone(), snap.retired.clone()),
            intervals: IntervalTracker::restore(snap.latest.clone(), snap.previous.clone()),
            kind: policy,
            rule: policy.build(num_workers),
            blocked: snap.blocked.clone(),
            blocked_scratch: Vec::new(),
            stats: snap.stats.clone(),
            num_workers,
        };
        if !snap.credits.is_empty() {
            restored
                .rule
                .restore_credits(&snap.credits, snap.controller_invocations);
        }
        restored
    }

    /// Re-evaluates blocked workers after a clock change, appending those released to
    /// `released`. Preserves the blocking order of the survivors and allocates nothing
    /// once the member scratch is warm.
    fn drain_released_into(
        &mut self,
        just_blocked: Option<WorkerId>,
        released: &mut Vec<WorkerId>,
    ) {
        std::mem::swap(&mut self.blocked, &mut self.blocked_scratch);
        self.blocked.clear();
        for i in 0..self.blocked_scratch.len() {
            let w = self.blocked_scratch[i];
            // The worker that was blocked by this very push cannot be released by it.
            if Some(w) == just_blocked {
                self.blocked.push(w);
                continue;
            }
            if self.rule.may_release(w, &self.clocks) {
                self.stats.releases += 1;
                released.push(w);
            } else {
                self.blocked.push(w);
            }
        }
        self.blocked_scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_alone_reproduces_the_bsp_release_pattern() {
        let mut g = SyncGate::new(3, PolicyKind::Bsp);
        let mut released = Vec::new();
        assert!(!g.on_push(0, 1.0, &mut released).ok_now);
        assert!(!g.on_push(1, 2.0, &mut released).ok_now);
        assert!(released.is_empty());
        let d = g.on_push(2, 3.0, &mut released);
        assert!(d.ok_now);
        released.sort_unstable();
        assert_eq!(released, vec![0, 1]);
        assert_eq!(g.version(), 3);
        assert_eq!(g.stats().blocked_pushes, 2);
        assert_eq!(g.stats().releases, 2);
    }

    #[test]
    fn retiring_releases_waiters_without_any_storage() {
        let mut g = SyncGate::new(2, PolicyKind::Bsp);
        let mut released = Vec::new();
        assert!(!g.on_push(0, 1.0, &mut released).ok_now);
        g.retire_into(1, &mut released);
        assert_eq!(released, vec![0]);
        assert!(g.blocked_workers().is_empty());
    }

    #[test]
    fn dssp_gate_grants_extras_like_the_full_server() {
        let mut g = SyncGate::new(2, PolicyKind::Dssp { s_l: 1, r_max: 8 });
        let mut released = Vec::new();
        for (w, t) in [(0, 1.0), (1, 10.0), (0, 2.0), (1, 20.0), (0, 3.0)] {
            g.on_push(w, t, &mut released);
        }
        let d = g.on_push(0, 4.0, &mut released);
        assert!(d.ok_now);
        assert!(d.granted_extra > 0, "fast worker should be granted extras");
        assert_eq!(g.stats().credits_granted, d.granted_extra);
    }
}
