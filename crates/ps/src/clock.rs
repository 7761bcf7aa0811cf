//! Worker clocks and iteration-interval measurement.
//!
//! These two structures correspond directly to the bookkeeping in the paper:
//! [`ClockTable`] is the array `t` of Algorithm 1 ("`t_i` stores the number of push
//! requests received from worker `i` so far") and [`IntervalTracker`] is table `A` of
//! Algorithm 2 ("the timestamps of the two latest push requests by all workers"), which
//! is how the server measures iteration intervals from push timestamps (Figure 1).

use serde::{Deserialize, Serialize};

/// Identifier of a worker (dense indices `0..num_workers`).
pub type WorkerId = usize;

/// Per-worker iteration (push) counters held by the server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClockTable {
    counts: Vec<u64>,
    retired: Vec<bool>,
}

impl ClockTable {
    /// Creates a table for `num_workers` workers with all counters at zero.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` is zero.
    pub fn new(num_workers: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        Self {
            counts: vec![0; num_workers],
            retired: vec![false; num_workers],
        }
    }

    /// Number of workers tracked.
    pub fn num_workers(&self) -> usize {
        self.counts.len()
    }

    /// Marks a worker as retired: it has finished its share of the training and will
    /// send no further pushes, so it must no longer count as the "slowest" worker when
    /// deciding whether others may proceed.
    pub fn retire(&mut self, worker: WorkerId) {
        self.retired[worker] = true;
    }

    /// Whether the worker is still active (not retired).
    pub fn is_active(&self, worker: WorkerId) -> bool {
        !self.retired[worker]
    }

    /// `(min, max)` over the counters of active (non-retired) workers; falls back to
    /// all workers when every worker has retired so min/max queries stay well-defined.
    /// A single allocation-free pass — this runs on every push.
    fn active_min_max(&self) -> (u64, u64) {
        let mut min = u64::MAX;
        let mut max = 0;
        let mut any_active = false;
        for (&c, &r) in self.counts.iter().zip(&self.retired) {
            if !r {
                any_active = true;
                min = min.min(c);
                max = max.max(c);
            }
        }
        if !any_active {
            min = *self.counts.iter().min().expect("at least one worker");
            max = *self.counts.iter().max().expect("at least one worker");
        }
        (min, max)
    }

    /// The number of pushes received from `worker`.
    ///
    /// # Panics
    ///
    /// Panics if the worker id is out of range.
    pub fn count(&self, worker: WorkerId) -> u64 {
        self.counts[worker]
    }

    /// Increments the push counter for `worker` and returns the new value.
    ///
    /// # Panics
    ///
    /// Panics if the worker id is out of range.
    pub fn increment(&mut self, worker: WorkerId) -> u64 {
        self.counts[worker] += 1;
        self.counts[worker]
    }

    /// The smallest counter value among active workers (the slowest worker's iteration
    /// count).
    pub fn slowest_count(&self) -> u64 {
        self.active_min_max().0
    }

    /// The largest counter value among active workers (the fastest worker's iteration
    /// count).
    pub fn fastest_count(&self) -> u64 {
        self.active_min_max().1
    }

    /// An active worker with the smallest counter (lowest id wins ties).
    pub fn slowest_worker(&self) -> WorkerId {
        let min = self.slowest_count();
        self.counts
            .iter()
            .enumerate()
            .position(|(w, &c)| c == min && (self.is_active(w) || self.retired.iter().all(|&r| r)))
            .expect("non-empty")
    }

    /// Whether `worker` currently has the (joint) largest counter.
    pub fn is_fastest(&self, worker: WorkerId) -> bool {
        self.counts[worker] == self.fastest_count()
    }

    /// How many iterations `worker` is ahead of the slowest active worker (zero if the
    /// slowest active worker is actually ahead of it).
    pub fn lead_over_slowest(&self, worker: WorkerId) -> u64 {
        self.counts[worker].saturating_sub(self.slowest_count())
    }

    /// Spread between the fastest and slowest workers, i.e. the realized staleness gap.
    pub fn spread(&self) -> u64 {
        self.fastest_count() - self.slowest_count()
    }

    /// All counters, indexed by worker id.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all counters (total pushes received by the server).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-worker retired flags, indexed by worker id (for checkpointing).
    pub fn retired_flags(&self) -> &[bool] {
        &self.retired
    }

    /// Rebuilds a table from checkpointed counters and retired flags.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty or their lengths differ.
    pub fn restore(counts: Vec<u64>, retired: Vec<bool>) -> Self {
        assert!(!counts.is_empty(), "need at least one worker");
        assert_eq!(counts.len(), retired.len(), "flag/count length mismatch");
        Self { counts, retired }
    }
}

/// Table `A` of Algorithm 2: the two most recent push timestamps per worker.
///
/// Times are seconds as `f64`; the simulator supplies virtual time, the threaded runtime
/// supplies wall-clock time relative to the start of training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalTracker {
    latest: Vec<Option<f64>>,
    previous: Vec<Option<f64>>,
}

impl IntervalTracker {
    /// Creates a tracker for `num_workers` workers with no recorded pushes.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` is zero.
    pub fn new(num_workers: usize) -> Self {
        assert!(num_workers > 0, "need at least one worker");
        Self {
            latest: vec![None; num_workers],
            previous: vec![None; num_workers],
        }
    }

    /// Records a push from `worker` at time `now` (Algorithm 2 lines 1–2).
    ///
    /// # Panics
    ///
    /// Panics if the worker id is out of range or time runs backwards for this worker.
    pub fn record_push(&mut self, worker: WorkerId, now: f64) {
        if let Some(prev) = self.latest[worker] {
            assert!(
                now >= prev,
                "push timestamps must be monotonic per worker: {now} < {prev}"
            );
        }
        self.previous[worker] = self.latest[worker];
        self.latest[worker] = Some(now);
    }

    /// The timestamp of the most recent push from `worker`, if any.
    pub fn latest(&self, worker: WorkerId) -> Option<f64> {
        self.latest[worker]
    }

    /// The measured length of the most recent iteration interval of `worker`
    /// (`A[i][0] − A[i][1]`), if two pushes have been observed.
    pub fn interval(&self, worker: WorkerId) -> Option<f64> {
        match (self.latest[worker], self.previous[worker]) {
            (Some(a), Some(b)) => Some(a - b),
            _ => None,
        }
    }

    /// Number of workers tracked.
    pub fn num_workers(&self) -> usize {
        self.latest.len()
    }

    /// The timestamp preceding [`IntervalTracker::latest`] for `worker`, if any (for
    /// checkpointing).
    pub fn previous(&self, worker: WorkerId) -> Option<f64> {
        self.previous[worker]
    }

    /// Rebuilds a tracker from checkpointed timestamp pairs.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty or their lengths differ.
    pub fn restore(latest: Vec<Option<f64>>, previous: Vec<Option<f64>>) -> Self {
        assert!(!latest.is_empty(), "need at least one worker");
        assert_eq!(
            latest.len(),
            previous.len(),
            "timestamp table length mismatch"
        );
        Self { latest, previous }
    }

    /// Forgets both timestamps of `worker` — the eviction path, so a rejoining worker
    /// re-measures its pace from scratch instead of mixing lives.
    ///
    /// # Panics
    ///
    /// Panics if the worker id is out of range.
    pub fn forget(&mut self, worker: WorkerId) {
        self.latest[worker] = None;
        self.previous[worker] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_table_tracks_fastest_and_slowest() {
        let mut t = ClockTable::new(3);
        t.increment(0);
        t.increment(0);
        t.increment(1);
        assert_eq!(t.count(0), 2);
        assert_eq!(t.slowest_count(), 0);
        assert_eq!(t.slowest_worker(), 2);
        assert!(t.is_fastest(0));
        assert!(!t.is_fastest(1));
        assert_eq!(t.spread(), 2);
        assert_eq!(t.lead_over_slowest(0), 2);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn ties_resolve_to_lowest_id() {
        let mut t = ClockTable::new(3);
        t.increment(1);
        t.increment(2);
        // workers 1 and 2 tie at 1, worker 0 is slowest
        assert_eq!(t.slowest_worker(), 0);
        assert!(t.is_fastest(1) && t.is_fastest(2));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ClockTable::new(0);
    }

    #[test]
    fn retired_workers_do_not_count_as_slowest() {
        let mut t = ClockTable::new(3);
        t.increment(0);
        t.increment(0);
        t.increment(1);
        // Worker 2 never pushed; retiring it makes worker 1 the slowest.
        assert_eq!(t.slowest_worker(), 2);
        t.retire(2);
        assert!(!t.is_active(2));
        assert_eq!(t.slowest_worker(), 1);
        assert_eq!(t.slowest_count(), 1);
        assert_eq!(t.lead_over_slowest(0), 1);
        // Retiring everyone falls back to the full table rather than panicking.
        t.retire(0);
        t.retire(1);
        assert_eq!(t.slowest_count(), 0);
    }

    #[test]
    fn lead_is_zero_for_workers_behind_the_slowest_active() {
        let mut t = ClockTable::new(2);
        t.increment(0);
        t.increment(0);
        t.retire(1);
        // Worker 1 (retired, count 0) is behind the slowest active worker (worker 0).
        assert_eq!(t.lead_over_slowest(1), 0);
    }

    #[test]
    fn interval_tracker_measures_push_gaps() {
        let mut a = IntervalTracker::new(2);
        assert!(a.interval(0).is_none());
        a.record_push(0, 1.0);
        assert!(a.interval(0).is_none());
        a.record_push(0, 3.5);
        assert_eq!(a.interval(0), Some(2.5));
        assert_eq!(a.latest(0), Some(3.5));
        assert!(a.interval(1).is_none());
        a.record_push(1, 2.0);
        a.record_push(1, 6.0);
        assert_eq!(a.interval(1), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn non_monotonic_push_times_panic() {
        let mut a = IntervalTracker::new(1);
        a.record_push(0, 5.0);
        a.record_push(0, 4.0);
    }

    #[test]
    fn interval_uses_two_latest_pushes_only() {
        let mut a = IntervalTracker::new(1);
        a.record_push(0, 0.0);
        a.record_push(0, 10.0);
        a.record_push(0, 11.0);
        assert_eq!(a.interval(0), Some(1.0));
    }
}
