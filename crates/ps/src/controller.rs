//! The DSSP synchronization controller (Algorithm 2 of the paper).
//!
//! When the fastest worker exceeds the lower staleness bound `s_L`, the server asks the
//! controller how many *extra* iterations that worker should run before it stops to wait
//! for the slowest worker. The controller simulates the next `r_max` iterations of both
//! the fastest and the slowest worker from their measured iteration intervals (Figure 1)
//! and picks the stopping point `r*` whose predicted completion time is closest to one
//! of the slowest worker's predicted completion times — i.e. the point with the least
//! predicted waiting time (Figure 2).

use crate::clock::{IntervalTracker, WorkerId};
use serde::{Deserialize, Serialize};

/// The outcome of one controller invocation. The two simulated timelines are evaluated,
/// not stored: `Sim_p[r] = A[p][0] + r·I_p` and `Sim_slowest[k] = A[slowest][0] +
/// (k+1)·I_slowest` for `r, k = 0..=r_max`, where `I` is the latest interval of table
/// `A` — whoever wants to display them (`repro fig2`) rebuilds them from
/// [`IntervalTracker::latest`] and [`IntervalTracker::interval`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerDecision {
    /// The chosen number of extra iterations `r*` (0 means "wait now").
    pub extra_iterations: u64,
    /// Predicted waiting time (seconds) if the fast worker stops after `r*` extra
    /// iterations.
    pub predicted_wait: f64,
}

/// The DSSP synchronization controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncController {
    r_max: u64,
    invocations: u64,
}

impl SyncController {
    /// Creates a controller allowing at most `r_max` extra iterations
    /// (`r_max = s_U − s_L`). It keeps no per-worker state — every interval is read
    /// from the [`IntervalTracker`] handed to [`SyncController::decide`] — so
    /// `_num_workers` is unused.
    pub fn new(_num_workers: usize, r_max: u64) -> Self {
        Self {
            r_max,
            invocations: 0,
        }
    }

    /// The maximum number of extra iterations this controller will ever grant.
    pub fn r_max(&self) -> u64 {
        self.r_max
    }

    /// Number of times the controller has been invoked.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Overwrites the invocation counter — the checkpoint-restore path, so a resumed
    /// run reports the same cumulative controller statistics as an unfailed one.
    pub fn set_invocations(&mut self, invocations: u64) {
        self.invocations = invocations;
    }

    /// Runs Algorithm 2 and returns the number of extra iterations the fastest worker
    /// `fast` should be allowed beyond `s_L`, with the waiting time it predicts.
    ///
    /// If either worker's iteration interval cannot be measured yet (fewer than two
    /// pushes observed), the controller conservatively returns `r* = 0`, i.e. plain SSP
    /// behaviour at the lower bound. Allocates nothing.
    pub fn decide(
        &mut self,
        fast: WorkerId,
        slowest: WorkerId,
        tracker: &IntervalTracker,
    ) -> ControllerDecision {
        self.invocations += 1;
        let (Some(fast_interval), Some(slow_interval), Some(fast_latest), Some(slow_latest)) = (
            tracker.interval(fast),
            tracker.interval(slowest),
            tracker.latest(fast),
            tracker.latest(slowest),
        ) else {
            return ControllerDecision {
                extra_iterations: 0,
                predicted_wait: 0.0,
            };
        };
        let fast_interval = fast_interval.max(0.0);
        let slow_interval = slow_interval.max(0.0);

        // Pick the r whose predicted stop time is closest to one of the slowest worker's
        // predicted push times; ties resolve to the smaller r (less staleness).
        let mut best_r = 0;
        let mut best_gap = f64::INFINITY;
        for r in 0..=self.r_max {
            // Sim_p[r]: the fast worker's predicted push time after r extra iterations.
            let fast_t = fast_latest + r as f64 * fast_interval;
            let mut gap = f64::INFINITY;
            for k in 0..=self.r_max {
                // Sim_slowest[k]: the slowest worker's predicted push times, starting
                // from its *next* push (Algorithm 2 line 7: Sim_slowest[0] =
                // A[slowest][0] + I_slowest).
                let slow_t = slow_latest + (k + 1) as f64 * slow_interval;
                gap = gap.min((slow_t - fast_t).abs());
            }
            if gap + 1e-12 < best_gap {
                best_gap = gap;
                best_r = r;
            }
        }
        ControllerDecision {
            extra_iterations: best_r,
            predicted_wait: best_gap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracker where worker 0 pushes every `fast` seconds and worker 1 every
    /// `slow` seconds, with both having just pushed.
    fn tracker(fast: f64, slow: f64) -> IntervalTracker {
        let mut t = IntervalTracker::new(2);
        t.record_push(0, 0.0);
        t.record_push(0, fast);
        t.record_push(1, 0.0);
        t.record_push(1, slow);
        t
    }

    #[test]
    fn returns_zero_without_interval_measurements() {
        let mut c = SyncController::new(2, 8);
        let t = IntervalTracker::new(2);
        let d = c.decide(0, 1, &t);
        assert_eq!(d.extra_iterations, 0);
    }

    #[test]
    fn figure2_scenario_prefers_running_ahead() {
        // Fast worker iterates every 1s, slow worker every 4s; both just pushed at the
        // same time. Waiting immediately wastes ~3s; running 3-4 more fast iterations
        // aligns the fast worker's stop with the slow worker's next push.
        let mut c = SyncController::new(2, 8);
        let d = c.decide(0, 1, &tracker(1.0, 4.0));
        assert!(
            d.extra_iterations >= 3,
            "expected >=3 extra, got {}",
            d.extra_iterations
        );
        assert!(d.predicted_wait <= 1.0);
    }

    #[test]
    fn equal_speeds_need_no_extra_iterations() {
        let mut c = SyncController::new(2, 8);
        let d = c.decide(0, 1, &tracker(2.0, 2.0));
        // The slow timeline starts one full interval after the fast worker's last push,
        // so r = 1 aligns exactly; r = 0 would wait a full interval. Either 0 or 1 is a
        // small answer; the key property is the predicted wait is (near) zero.
        assert!(d.extra_iterations <= 1);
        assert!(d.predicted_wait < 1e-9);
    }

    #[test]
    fn extra_iterations_never_exceed_r_max() {
        // Slow worker is extremely slow; the best alignment would be far beyond r_max,
        // so the controller must clamp at r_max.
        let mut c = SyncController::new(2, 5);
        let d = c.decide(0, 1, &tracker(1.0, 1000.0));
        assert!(d.extra_iterations <= 5);
    }

    #[test]
    fn r_max_zero_always_waits_immediately() {
        let mut c = SyncController::new(2, 0);
        let d = c.decide(0, 1, &tracker(1.0, 10.0));
        assert_eq!(d.extra_iterations, 0);
    }

    #[test]
    fn predicted_wait_is_minimal_over_the_timelines() {
        let mut c = SyncController::new(2, 10);
        let d = c.decide(0, 1, &tracker(1.3, 5.7));
        // Recompute the minimum by brute force over both timelines and compare.
        let mut best = f64::INFINITY;
        for r in 0..=10 {
            for k in 0..=10 {
                let (f, s) = (1.3 + r as f64 * 1.3, 5.7 + (k + 1) as f64 * 5.7);
                best = best.min((s - f).abs());
            }
        }
        assert!((d.predicted_wait - best).abs() < 1e-9);
    }

    #[test]
    fn invocation_counter_increments() {
        let mut c = SyncController::new(2, 3);
        assert_eq!(c.invocations(), 0);
        let _ = c.decide(0, 1, &tracker(1.0, 2.0));
        let _ = c.decide(0, 1, &tracker(1.0, 2.0));
        assert_eq!(c.invocations(), 2);
    }
}
