//! Staleness accounting: the distribution of how far ahead of the slowest worker each
//! push was made.
//!
//! The paper reasons about staleness through its theory (Theorems 1–2 bound the regret
//! in terms of the threshold) and through aggregate observations ("a larger threshold of
//! SSP incurs more staler gradients"). The [`StalenessTracker`] records the full
//! per-push distribution so experiments can report not just the mean and maximum but the
//! whole histogram and its percentiles, which is what the ablation benches compare
//! across paradigms.
//!
//! **Where the sample is taken.** [`crate::SyncGate::on_push`] records it after the
//! pusher's clock has been incremented for this push and before the staleness rule
//! decides whether the push gets its `OK`. The sample therefore counts the push being
//! judged: a worker that was allowed to start an iteration at lead `s_U` pushes at
//! lead `s_U + 1`, the rule sees that and withholds the `OK`, and `s_U + 1` is what
//! the histogram and [`crate::ServerStats::staleness_max`] show. A rule bounded by
//! `s_U` (SSP at `s`, strict DSSP at `s_L + r_max`) thus reads `s_U + 1` at most — by
//! construction, not an off-by-one in the gate: no worker ever *computes* on weights
//! more than `s_U` clocks behind. Literal Algorithm 1 can re-grant credits and has no
//! such bound.

use crate::clock::WorkerId;
use serde::{Deserialize, Serialize};

/// A histogram of per-push staleness (the pushing worker's lead over the slowest active
/// worker at push time), with per-worker totals.
///
/// The sample is taken after the pusher's clock advanced for the push and before the
/// rule decided on it, so it counts the push being judged: a rule bounded by `s_U`
/// reads `s_U + 1` at most — the lead of the push that is then blocked — and no worker
/// computes on weights more than `s_U` clocks behind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StalenessTracker {
    /// `buckets[s]` counts pushes made with staleness exactly `s`; the last bucket
    /// absorbs everything at or above `buckets.len() - 1`.
    buckets: Vec<u64>,
    /// Per-worker sum of staleness values, for per-worker means.
    per_worker_sum: Vec<u64>,
    /// Per-worker push counts.
    per_worker_pushes: Vec<u64>,
    /// Largest staleness observed (even if it fell into the overflow bucket).
    max_seen: u64,
}

impl StalenessTracker {
    /// Creates a tracker for `num_workers` workers with `max_bucket + 1` histogram
    /// buckets (staleness values above `max_bucket` share the final bucket).
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` is zero.
    pub fn new(num_workers: usize, max_bucket: u64) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        Self {
            buckets: vec![0; (max_bucket + 1) as usize],
            per_worker_sum: vec![0; num_workers],
            per_worker_pushes: vec![0; num_workers],
            max_seen: 0,
        }
    }

    /// Records one push from `worker` with the given staleness (lead over the slowest
    /// worker at push time).
    ///
    /// # Panics
    ///
    /// Panics if the worker id is out of range.
    pub fn record(&mut self, worker: WorkerId, staleness: u64) {
        let idx = (staleness as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.per_worker_sum[worker] += staleness;
        self.per_worker_pushes[worker] += 1;
        self.max_seen = self.max_seen.max(staleness);
    }

    /// Total number of pushes recorded.
    pub fn total_pushes(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The histogram counts, indexed by staleness (the final bucket is an overflow
    /// bucket).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The largest staleness value ever recorded.
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Mean staleness across all recorded pushes.
    pub fn mean(&self) -> f64 {
        let total = self.total_pushes();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = self.per_worker_sum.iter().sum();
        sum as f64 / total as f64
    }

    /// The smallest staleness value `s` such that at least `q` (in `[0, 1]`) of all
    /// recorded pushes had staleness at most `s`. Returns 0 when nothing was recorded.
    ///
    /// Values that fell into the overflow bucket are reported at the overflow index, so
    /// high quantiles are a lower bound when `max()` exceeds the bucket range.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.total_pushes();
        if total == 0 {
            return 0;
        }
        let threshold = (q * total as f64).ceil() as u64;
        let mut cumulative = 0;
        for (s, &count) in self.buckets.iter().enumerate() {
            cumulative += count;
            if cumulative >= threshold {
                return s as u64;
            }
        }
        (self.buckets.len() - 1) as u64
    }

    /// Per-worker sums of recorded staleness values (for checkpointing).
    pub fn per_worker_sums(&self) -> &[u64] {
        &self.per_worker_sum
    }

    /// Per-worker push counts (for checkpointing).
    pub fn per_worker_push_counts(&self) -> &[u64] {
        &self.per_worker_pushes
    }

    /// Rebuilds a tracker from checkpointed histogram and per-worker tables.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty, the per-worker tables are empty, or their lengths
    /// differ.
    pub fn restore(
        buckets: Vec<u64>,
        per_worker_sum: Vec<u64>,
        per_worker_pushes: Vec<u64>,
        max_seen: u64,
    ) -> Self {
        assert!(!buckets.is_empty(), "need at least one bucket");
        assert!(!per_worker_sum.is_empty(), "need at least one worker");
        assert_eq!(
            per_worker_sum.len(),
            per_worker_pushes.len(),
            "per-worker table length mismatch"
        );
        Self {
            buckets,
            per_worker_sum,
            per_worker_pushes,
            max_seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarises_staleness() {
        let mut t = StalenessTracker::new(2, 8);
        t.record(0, 0);
        t.record(0, 2);
        t.record(1, 4);
        t.record(1, 0);
        assert_eq!(t.total_pushes(), 4);
        assert_eq!(t.max(), 4);
        assert!((t.mean() - 1.5).abs() < 1e-12);
        assert_eq!(t.per_worker_sums(), [2, 4]);
        assert_eq!(t.per_worker_push_counts(), [2, 2]);
        assert_eq!(t.buckets()[0], 2);
    }

    #[test]
    fn overflow_bucket_absorbs_large_values_but_max_is_exact() {
        let mut t = StalenessTracker::new(1, 4);
        t.record(0, 100);
        assert_eq!(t.buckets()[4], 1);
        assert_eq!(t.max(), 100);
    }

    #[test]
    fn quantiles_walk_the_histogram() {
        let mut t = StalenessTracker::new(1, 10);
        for s in [0u64, 0, 1, 1, 1, 2, 3, 5, 5, 9] {
            t.record(0, s);
        }
        assert_eq!(t.quantile(0.0), 0);
        assert_eq!(t.quantile(0.2), 0);
        assert_eq!(t.quantile(0.5), 1);
        assert_eq!(t.quantile(0.9), 5);
        assert_eq!(t.quantile(1.0), 9);
    }

    #[test]
    fn empty_tracker_is_well_behaved() {
        let t = StalenessTracker::new(3, 4);
        assert_eq!(t.total_pushes(), 0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.quantile(0.5), 0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn out_of_range_quantile_panics() {
        StalenessTracker::new(1, 4).quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        StalenessTracker::new(0, 4);
    }
}
