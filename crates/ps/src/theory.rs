//! Numeric evaluation of the paper's regret bounds (Theorems 1 and 2).
//!
//! Theorem 1 (from Ho et al., adapted in the paper): SGD under SSP with staleness
//! threshold `s` and `P` workers has regret
//! `R[X] ≤ 4 F L sqrt(2 (s + 1) P T)`.
//!
//! Theorem 2 (the paper's contribution): under DSSP with threshold range
//! `[s_L, s_L + r]`, the regret is bounded by `4 F L sqrt(2 (s_L + r + 1) P T)` — the
//! same `O(√T)` rate, so SGD still converges in expectation.
//!
//! These helpers evaluate the bounds numerically so tests and benches can verify the
//! claimed relationships (DSSP's bound equals SSP's bound at the upper end of the range,
//! the bound grows with staleness, and regret/T vanishes as T grows).

/// Parameters of the regret bound: the Lipschitz constant `L`, the diameter bound `F`,
/// and the number of workers `P`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundParams {
    /// Bound on the distance between iterates: `D(w‖w') ≤ F²`.
    pub f: f64,
    /// Lipschitz constant of the per-iteration losses.
    pub l: f64,
    /// Number of workers.
    pub p: usize,
}

impl Default for BoundParams {
    fn default() -> Self {
        Self {
            f: 1.0,
            l: 1.0,
            p: 4,
        }
    }
}

/// The SSP regret bound of Theorem 1: `4 F L sqrt(2 (s + 1) P T)`.
///
/// # Panics
///
/// Panics if `params.p` is zero.
pub fn ssp_regret_bound(params: &BoundParams, s: u64, t: u64) -> f64 {
    assert!(params.p > 0, "need at least one worker");
    4.0 * params.f * params.l * (2.0 * (s as f64 + 1.0) * params.p as f64 * t as f64).sqrt()
}

/// The DSSP regret bound of Theorem 2: `4 F L sqrt(2 (s_L + r + 1) P T)` where `r` is the
/// largest value in the range `[0, s_U − s_L]`.
pub fn dssp_regret_bound(params: &BoundParams, s_l: u64, r_max: u64, t: u64) -> f64 {
    ssp_regret_bound(params, s_l + r_max, t)
}

/// The per-iteration regret `bound / T`, which must vanish as `T → ∞` for the algorithm
/// to converge in expectation.
pub fn regret_rate(bound: f64, t: u64) -> f64 {
    if t == 0 {
        f64::INFINITY
    } else {
        bound / t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dssp_bound_equals_ssp_bound_at_upper_end_of_range() {
        let p = BoundParams::default();
        // DSSP with range [s_L, s_L + r_max] shares the bound of SSP with s = s_L + r_max.
        assert_eq!(
            dssp_regret_bound(&p, 3, 12, 10_000),
            ssp_regret_bound(&p, 15, 10_000)
        );
    }

    #[test]
    fn bound_grows_with_staleness_and_workers() {
        let p = BoundParams::default();
        assert!(ssp_regret_bound(&p, 5, 1000) > ssp_regret_bound(&p, 3, 1000));
        let more_workers = BoundParams { p: 16, ..p };
        assert!(ssp_regret_bound(&more_workers, 3, 1000) > ssp_regret_bound(&p, 3, 1000));
    }

    #[test]
    fn regret_rate_vanishes_with_t() {
        let p = BoundParams::default();
        let rate_small = regret_rate(ssp_regret_bound(&p, 3, 100), 100);
        let rate_large = regret_rate(ssp_regret_bound(&p, 3, 1_000_000), 1_000_000);
        assert!(rate_large < rate_small);
        assert!(rate_large < 0.05);
    }

    #[test]
    fn bound_scales_as_sqrt_t() {
        let p = BoundParams::default();
        let b1 = ssp_regret_bound(&p, 3, 10_000);
        let b4 = ssp_regret_bound(&p, 3, 40_000);
        assert!((b4 / b1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_iterations_has_infinite_rate() {
        assert!(regret_rate(1.0, 0).is_infinite());
    }
}
