//! The server-side synchronization rule: BSP, ASP, SSP and DSSP as one staleness range.
//!
//! The rule answers one question for the parameter server (Algorithm 1, server part):
//! after worker `p`'s push has been applied, may `p` start its next iteration now, or
//! must it wait until other workers catch up? Blocked workers are re-evaluated whenever
//! any other worker pushes.
//!
//! The paper defines DSSP as SSP whose fixed threshold became a range
//! `[s_L, s_U = s_L + r_max]`, so the four paradigms are points on one axis and
//! [`StalenessRule`] is the only implementation: SSP is the range of width zero
//! (`r_max = 0`), BSP is SSP at `s = 0`, ASP is SSP at `s = ∞`. [`PolicyKind`] is how
//! configurations spell those points.

use crate::clock::{ClockTable, IntervalTracker, WorkerId};
use crate::controller::SyncController;
use serde::{Deserialize, Serialize};

/// Serializable description of a synchronization policy, used in experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Bulk Synchronous Parallel: every worker waits for all others at every iteration.
    Bsp,
    /// Asynchronous Parallel: no synchronization at all.
    Asp,
    /// Stale Synchronous Parallel with a fixed staleness threshold `s`.
    Ssp {
        /// The staleness threshold.
        s: u64,
    },
    /// Dynamic Stale Synchronous Parallel with a staleness threshold range
    /// `[s_l, s_l + r_max]`, following Algorithm 1 of the paper literally: every time the
    /// fastest worker exceeds `s_l`, the synchronization controller may grant it up to
    /// `r_max` further iterations, and nothing stops it from being granted again later,
    /// so the *cumulative* lead over the slowest worker is not hard-capped at
    /// `s_U = s_l + r_max`. This is what lets DSSP track ASP's progress on strongly
    /// heterogeneous clusters (the paper's Figure 4 / Table I behaviour) while staying
    /// SSP-like on nearly homogeneous ones.
    Dssp {
        /// Lower bound of the staleness threshold range (`s_L`).
        s_l: u64,
        /// Width of the range (`r_max = s_U − s_L`), the most extra iterations a single
        /// controller decision may grant.
        r_max: u64,
    },
    /// DSSP with strict range enforcement: like [`PolicyKind::Dssp`] but the worker's
    /// cumulative lead over the slowest worker is additionally capped at
    /// `s_U = s_l + r_max`, so the realized staleness never leaves the range Theorem 2
    /// assumes. Provided as an ablation of the design choice (PAPER.md, "DSSP decision
    /// logic"; `repro ablation_strict`).
    DsspStrict {
        /// Lower bound of the staleness threshold range (`s_L`).
        s_l: u64,
        /// Width of the range (`r_max = s_U − s_L`).
        r_max: u64,
    },
}

impl PolicyKind {
    /// Builds the runtime rule for `num_workers` workers: BSP is the point `(0, 0)` of
    /// the `(s_l, r_max)` plane, ASP `(∞, 0)`, SSP `(s, 0)`, and the DSSP kinds their
    /// own range.
    pub fn build(&self, num_workers: usize) -> StalenessRule {
        match *self {
            PolicyKind::Bsp => StalenessRule::fixed(0),
            PolicyKind::Asp => StalenessRule::fixed(u64::MAX),
            PolicyKind::Ssp { s } => StalenessRule::fixed(s),
            PolicyKind::Dssp { s_l, r_max } => StalenessRule::range(num_workers, s_l, r_max, false),
            PolicyKind::DsspStrict { s_l, r_max } => {
                StalenessRule::range(num_workers, s_l, r_max, true)
            }
        }
    }

    /// A short label for reports and plots ("BSP", "SSP s=3", ...).
    pub fn label(&self) -> String {
        match *self {
            PolicyKind::Bsp => "BSP".to_string(),
            PolicyKind::Asp => "ASP".to_string(),
            PolicyKind::Ssp { s } => format!("SSP s={s}"),
            PolicyKind::Dssp { s_l, r_max } => format!("DSSP s={s_l}, r={r_max}"),
            PolicyKind::DsspStrict { s_l, r_max } => format!("DSSP-strict s={s_l}, r={r_max}"),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The one synchronization rule (Algorithm 1 + 2): a worker may proceed while its lead
/// over the slowest active worker is within the staleness range `[s_L, s_L + r_max]`.
///
/// Up to `s_L` it always proceeds. When the fastest worker exceeds `s_L` and the range
/// has width (`r_max > 0`), the [`SyncController`] predicts how many extra iterations
/// (up to `r_max`) the worker should run to minimise its waiting time, and the worker
/// receives that many credits (`r_p` in Algorithm 1). Credits are consumed one per
/// push, can be held by different workers simultaneously, and can change over time —
/// which is exactly the paper's claim of per-worker, time-varying thresholds. A range
/// of width zero never consults the controller and never holds a credit: that is SSP,
/// with BSP (`s_L = 0`) and ASP (`s_L = u64::MAX`) as its end points.
#[derive(Debug)]
pub struct StalenessRule {
    s_l: u64,
    r_max: u64,
    strict: bool,
    /// Remaining extra-iteration credits per worker (`r_p`). Empty for the
    /// fixed-threshold kinds, so their checkpoints carry no credit table.
    credits: Vec<u64>,
    controller: SyncController,
}

impl StalenessRule {
    /// The fixed threshold `s` (BSP, ASP, SSP): the range `[s, s]`.
    fn fixed(s: u64) -> Self {
        Self::range(0, s, 0, false)
    }

    /// The range `[s_l, s_l + r_max]` over `num_workers` credit balances. `strict`
    /// additionally caps the worker's cumulative lead at `s_U = s_l + r_max` (the
    /// strict-range ablation, [`PolicyKind::DsspStrict`]); without it Algorithm 1 is
    /// followed literally.
    fn range(num_workers: usize, s_l: u64, r_max: u64, strict: bool) -> Self {
        Self {
            s_l,
            r_max,
            strict,
            credits: vec![0; num_workers],
            controller: SyncController::new(num_workers, r_max),
        }
    }

    /// The lower staleness bound `s_L`.
    pub fn s_l(&self) -> u64 {
        self.s_l
    }

    /// The range width `r_max = s_U − s_L`.
    pub fn r_max(&self) -> u64 {
        self.r_max
    }

    /// Number of controller invocations so far.
    pub fn controller_invocations(&self) -> u64 {
        self.controller.invocations()
    }

    /// Per-worker remaining extra-iteration credit balances, for checkpointing. Empty
    /// for the fixed-threshold kinds.
    pub fn credits(&self) -> &[u64] {
        &self.credits
    }

    /// Called after `worker`'s push has been applied and its clock incremented.
    /// Returns whether the worker may start its next iteration immediately, and the
    /// extra iterations `r*` the controller granted at this push.
    pub fn on_push(
        &mut self,
        worker: WorkerId,
        clocks: &ClockTable,
        intervals: &IntervalTracker,
    ) -> (bool, u64) {
        let lead = clocks.lead_over_slowest(worker);
        if self.r_max == 0 {
            return (lead <= self.s_l, 0);
        }
        // Algorithm 1, server lines 3-5: spend an existing credit.
        if self.credits[worker] > 0 {
            self.credits[worker] -= 1;
            return (true, 0);
        }
        // Lines 7-9: within the lower bound, proceed.
        if lead <= self.s_l {
            return (true, 0);
        }
        // Lines 11-15: only the current fastest worker consults the controller (the
        // paper calls the controller only for the fastest worker to save server time).
        if clocks.is_fastest(worker) {
            let decision = self
                .controller
                .decide(worker, clocks.slowest_worker(), intervals);
            // Algorithm 1 grants the controller's r* outright; the strict variant
            // additionally caps the grant so the worker's lead over the slowest worker
            // never exceeds s_U = s_L + r_max (the range Theorem 2 reasons about).
            let granted = if self.strict {
                let available = (self.s_l + self.r_max + 1).saturating_sub(lead);
                decision.extra_iterations.min(available)
            } else {
                decision.extra_iterations
            };
            if granted > 0 {
                // The worker runs exactly `granted` extra iterations: this OK starts the
                // first one, the remaining `granted - 1` are spent at future pushes.
                self.credits[worker] = granted - 1;
                return (true, granted);
            }
        }
        // Line 17: wait until the slowest worker catches up to within s_L.
        (false, 0)
    }

    /// Called for a currently blocked worker whenever any clock has advanced. Returns
    /// `true` if that worker may now be released: a waiter is only ever let go at the
    /// lower bound, never on credit.
    pub fn may_release(&self, worker: WorkerId, clocks: &ClockTable) -> bool {
        clocks.lead_over_slowest(worker) <= self.s_l
    }

    /// Restores checkpointed credit/controller state. How many credits were ever
    /// granted is the gate's count ([`crate::ServerStats::credits_granted`]), not the
    /// rule's.
    ///
    /// # Panics
    ///
    /// Panics if `credits` has the wrong length.
    pub fn restore_credits(&mut self, credits: &[u64], invocations: u64) {
        assert_eq!(
            credits.len(),
            self.credits.len(),
            "checkpointed credit table has the wrong worker count"
        );
        self.credits.copy_from_slice(credits);
        self.controller.set_invocations(invocations);
    }

    /// Removes a worker's remaining credits from the pool (the eviction path) and
    /// returns the reclaimed amount.
    pub fn reclaim_credits(&mut self, worker: WorkerId) -> u64 {
        self.credits.get_mut(worker).map_or(0, std::mem::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Harness {
        clocks: ClockTable,
        intervals: IntervalTracker,
        /// Credits the rule granted over every push so far.
        granted: u64,
    }

    impl Harness {
        fn new(workers: usize) -> Self {
            Self {
                clocks: ClockTable::new(workers),
                intervals: IntervalTracker::new(workers),
                granted: 0,
            }
        }

        /// Simulates worker `w` pushing at time `now` and asks the rule for a decision.
        fn push(&mut self, rule: &mut StalenessRule, w: WorkerId, now: f64) -> bool {
            self.clocks.increment(w);
            self.intervals.record_push(w, now);
            let (ok, granted) = rule.on_push(w, &self.clocks, &self.intervals);
            self.granted += granted;
            ok
        }

        fn release(&self, rule: &StalenessRule, w: WorkerId) -> bool {
            rule.may_release(w, &self.clocks)
        }
    }

    #[test]
    fn bsp_blocks_until_everyone_pushes() {
        let mut h = Harness::new(3);
        let mut bsp = PolicyKind::Bsp.build(3);
        assert!(
            !h.push(&mut bsp, 0, 1.0),
            "first pusher must wait for the rest"
        );
        assert!(!h.push(&mut bsp, 1, 2.0));
        assert!(
            h.push(&mut bsp, 2, 3.0),
            "last pusher completes the superstep"
        );
        // After worker 2's push all three are at clock 1, so the blocked ones release.
        assert!(h.release(&bsp, 0));
        assert!(h.release(&bsp, 1));
    }

    #[test]
    fn asp_never_blocks() {
        let mut h = Harness::new(2);
        let mut asp = PolicyKind::Asp.build(2);
        for i in 0..10 {
            assert!(h.push(&mut asp, 0, i as f64));
        }
    }

    #[test]
    fn ssp_allows_lead_up_to_threshold() {
        let mut h = Harness::new(2);
        let mut ssp = PolicyKind::Ssp { s: 2 }.build(2);
        // Worker 0 pushes repeatedly while worker 1 never pushes.
        assert!(h.push(&mut ssp, 0, 1.0)); // lead 1
        assert!(h.push(&mut ssp, 0, 2.0)); // lead 2
        assert!(!h.push(&mut ssp, 0, 3.0), "lead 3 exceeds threshold 2");
        // Once worker 1 pushes, worker 0's lead drops to 2 and it can be released.
        assert!(!h.release(&ssp, 0));
        h.push(&mut ssp, 1, 4.0);
        assert!(h.release(&ssp, 0));
    }

    #[test]
    fn ssp_zero_threshold_degenerates_to_bsp_like_lockstep() {
        let mut h = Harness::new(2);
        let mut ssp = PolicyKind::Ssp { s: 0 }.build(2);
        assert!(!h.push(&mut ssp, 0, 1.0));
        assert!(h.push(&mut ssp, 1, 2.0));
    }

    #[test]
    fn dssp_with_zero_range_behaves_like_ssp_at_lower_bound() {
        // The general statement: every kind that spells the same `(s_l, 0)` point makes
        // the same decisions, never consults the controller and never grants a credit.
        let sequence: Vec<(WorkerId, f64)> = vec![
            (0, 1.0),
            (0, 2.0),
            (0, 3.0),
            (1, 4.0),
            (0, 5.0),
            (0, 6.0),
            (1, 7.0),
        ];
        let decisions = |kind: PolicyKind| {
            let mut h = Harness::new(2);
            let mut rule = kind.build(2);
            let oks: Vec<bool> = sequence
                .iter()
                .map(|&(w, t)| h.push(&mut rule, w, t))
                .collect();
            assert_eq!(rule.controller_invocations(), 0, "{kind}");
            assert_eq!(h.granted, 0, "{kind}");
            oks
        };
        for s in [0, 1, 2, 5] {
            let ssp = decisions(PolicyKind::Ssp { s });
            assert_eq!(ssp, decisions(PolicyKind::Dssp { s_l: s, r_max: 0 }));
            assert_eq!(ssp, decisions(PolicyKind::DsspStrict { s_l: s, r_max: 0 }));
        }
        assert_eq!(
            decisions(PolicyKind::Bsp),
            decisions(PolicyKind::Ssp { s: 0 })
        );
        assert_eq!(
            decisions(PolicyKind::Asp),
            decisions(PolicyKind::Ssp { s: u64::MAX })
        );
    }

    #[test]
    fn dssp_grants_extra_iterations_to_a_fast_worker() {
        let mut h = Harness::new(2);
        let mut dssp = PolicyKind::Dssp { s_l: 1, r_max: 8 }.build(2);
        // Build interval history: worker 0 pushes every second, worker 1 every 10 s.
        assert!(h.push(&mut dssp, 0, 1.0)); // lead 1 <= s_l
        assert!(h.push(&mut dssp, 1, 10.0)); // lead 0
        assert!(h.push(&mut dssp, 0, 2.0)); // lead 1, interval(0) = 1
        assert!(h.push(&mut dssp, 1, 20.0)); // lead 0, interval(1) = 10
        assert!(h.push(&mut dssp, 0, 3.0)); // lead 1
                                            // Next push exceeds s_l = 1: the controller should grant extra iterations
                                            // because worker 0 is much faster than worker 1.
        let ok = h.push(&mut dssp, 0, 4.0);
        assert!(ok, "controller should let the fast worker run ahead");
        assert!(h.granted > 0);
        assert_eq!(dssp.controller_invocations(), 1);
    }

    #[test]
    fn dssp_strict_credits_are_spent_one_per_push_and_lead_stays_in_range() {
        let mut h = Harness::new(2);
        let mut dssp = PolicyKind::DsspStrict { s_l: 1, r_max: 4 }.build(2);
        // Worker 0 is fast (interval 1 s), worker 1 is slow (interval 10 s).
        assert!(h.push(&mut dssp, 0, 1.0));
        assert!(h.push(&mut dssp, 1, 10.0));
        assert!(h.push(&mut dssp, 0, 2.0));
        assert!(h.push(&mut dssp, 1, 20.0));
        assert!(h.push(&mut dssp, 0, 3.0)); // lead 1, still within s_l
                                            // Exceed s_l: the controller grants extra iterations (clamped to r_max = 4).
        let ok = h.push(&mut dssp, 0, 4.0);
        assert!(ok);
        let granted = h.granted;
        assert!(granted > 0 && granted <= 4, "granted={granted}");
        let mut extra_ok = 0;
        let mut t = 5.0;
        loop {
            if h.push(&mut dssp, 0, t) {
                extra_ok += 1;
                t += 1.0;
            } else {
                break;
            }
            assert!(extra_ok < 20, "worker 0 should eventually block");
        }
        // The realized lead never exceeds s_U = s_l + r_max under the strict variant.
        assert!(h.clocks.spread() <= 1 + 4 + 1);
        assert!(dssp.strict);
    }

    #[test]
    fn dssp_literal_regrants_extra_iterations_to_a_persistently_faster_worker() {
        // Algorithm 1 taken literally: whenever the fastest worker exceeds s_L and its
        // credit is exhausted, the controller is consulted again and may grant more
        // iterations, so a much faster worker keeps making progress well past
        // s_U = s_L + r_max instead of degenerating into SSP at the upper bound.
        let mut h = Harness::new(2);
        let mut dssp = PolicyKind::Dssp { s_l: 1, r_max: 4 }.build(2);
        assert!(h.push(&mut dssp, 0, 1.0));
        assert!(h.push(&mut dssp, 1, 10.0));
        assert!(h.push(&mut dssp, 0, 2.0));
        assert!(h.push(&mut dssp, 1, 20.0));
        let mut t = 3.0;
        let mut consecutive_ok = 0;
        while h.push(&mut dssp, 0, t) {
            consecutive_ok += 1;
            t += 1.0;
            assert!(
                consecutive_ok < 200,
                "the fast worker must still block eventually"
            );
        }
        // The fast worker ran far beyond the strict upper bound before finally blocking
        // (it blocks once its predicted timeline has overtaken every predicted push of
        // the slow worker), and the controller was consulted more than once.
        assert!(
            h.clocks.spread() > 1 + 4 + 1,
            "literal DSSP should exceed s_U, spread = {}",
            h.clocks.spread()
        );
        assert!(dssp.controller_invocations() >= 2);
        assert!(!dssp.strict);
    }

    #[test]
    fn dssp_strict_blocks_no_later_than_literal_dssp() {
        // The strict variant can only be more conservative than the literal algorithm.
        let sequence: Vec<(WorkerId, f64)> = vec![
            (0, 1.0),
            (1, 10.0),
            (0, 2.0),
            (1, 20.0),
            (0, 3.0),
            (0, 4.0),
            (0, 5.0),
            (0, 6.0),
            (0, 7.0),
            (0, 8.0),
        ];
        let mut ha = Harness::new(2);
        let mut hb = Harness::new(2);
        let mut literal = PolicyKind::Dssp { s_l: 1, r_max: 2 }.build(2);
        let mut strict = PolicyKind::DsspStrict { s_l: 1, r_max: 2 }.build(2);
        for &(w, t) in &sequence {
            let a = ha.push(&mut literal, w, t);
            let b = hb.push(&mut strict, w, t);
            if b {
                assert!(
                    a,
                    "strict granted an OK at ({w}, {t}) that literal DSSP denied"
                );
            }
        }
    }

    #[test]
    fn dssp_blocked_worker_released_when_slowest_catches_up() {
        let mut h = Harness::new(2);
        let mut dssp = PolicyKind::Dssp { s_l: 1, r_max: 2 }.build(2);
        h.push(&mut dssp, 0, 1.0);
        h.push(&mut dssp, 0, 2.0);
        // Without interval data for worker 1 the controller returns 0, so worker 0 blocks.
        assert!(!h.push(&mut dssp, 0, 3.0));
        assert!(!h.release(&dssp, 0));
        h.push(&mut dssp, 1, 4.0);
        h.push(&mut dssp, 1, 5.0);
        assert!(h.release(&dssp, 0));
    }

    #[test]
    fn policy_kind_builds_and_labels() {
        let point = |kind: PolicyKind| {
            let rule = kind.build(2);
            (rule.s_l(), rule.r_max(), rule.strict)
        };
        assert_eq!(point(PolicyKind::Bsp), (0, 0, false));
        assert_eq!(point(PolicyKind::Asp), (u64::MAX, 0, false));
        assert_eq!(point(PolicyKind::Ssp { s: 5 }), (5, 0, false));
        assert_eq!(
            point(PolicyKind::Dssp { s_l: 3, r_max: 12 }),
            (3, 12, false)
        );
        assert_eq!(
            point(PolicyKind::DsspStrict { s_l: 3, r_max: 12 }),
            (3, 12, true)
        );
        // Only the DSSP kinds carry a credit table (and so checkpoint one).
        assert!(PolicyKind::Ssp { s: 5 }.build(2).credits().is_empty());
        assert_eq!(
            PolicyKind::Dssp { s_l: 3, r_max: 0 }.build(2).credits(),
            [0, 0]
        );
        assert_eq!(PolicyKind::Bsp.label(), "BSP");
        assert_eq!(PolicyKind::Asp.label(), "ASP");
        assert_eq!(
            PolicyKind::Dssp { s_l: 3, r_max: 12 }.label(),
            "DSSP s=3, r=12"
        );
        assert_eq!(
            PolicyKind::DsspStrict { s_l: 3, r_max: 12 }.label(),
            "DSSP-strict s=3, r=12"
        );
        assert_eq!(PolicyKind::Ssp { s: 5 }.to_string(), "SSP s=5");
    }
}
