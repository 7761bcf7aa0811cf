//! Sampling per-iteration times for simulated workers.

use crate::ClusterSpec;
use dssp_nn::CostProfile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Deterministic (pre-jitter) cost of one worker iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationCost {
    /// Gradient-computation time in seconds (the solid block of Figure 1).
    pub compute_s: f64,
    /// Push + pull communication time in seconds (the blank block of Figure 1).
    pub comm_s: f64,
}

impl IterationCost {
    /// Total iteration time excluding any waiting for the server's `OK`.
    pub fn total(&self) -> f64 {
        self.compute_s + self.comm_s
    }

    /// Compute/communication ratio (the quantity the paper's Section V-C analysis is
    /// built around).
    pub fn compute_comm_ratio(&self) -> f64 {
        if self.comm_s == 0.0 {
            f64::INFINITY
        } else {
            self.compute_s / self.comm_s
        }
    }
}

/// Samples per-iteration times for every worker of a cluster running a specific model
/// and batch size, applying device jitter and injected slowdowns.
#[derive(Debug, Clone)]
pub struct TimeModel {
    cluster: ClusterSpec,
    cost: CostProfile,
    batch_size: usize,
    rngs: Vec<ChaCha8Rng>,
}

impl TimeModel {
    /// Creates a time model for `cluster` running a model with `cost` at `batch_size`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn new(cluster: ClusterSpec, cost: CostProfile, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let rngs = (0..cluster.num_workers())
            .map(|w| ChaCha8Rng::seed_from_u64(seed.wrapping_add(w as u64 * 7919)))
            .collect();
        Self {
            cluster,
            cost,
            batch_size,
            rngs,
        }
    }

    /// The cluster this model describes.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The model cost profile in use.
    pub fn cost(&self) -> &CostProfile {
        &self.cost
    }

    /// The mini-batch size in use.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The deterministic iteration cost of `worker` (no jitter, no slowdowns).
    pub fn nominal_cost(&self, worker: usize) -> IterationCost {
        self.cluster
            .iteration_cost(worker, &self.cost, self.batch_size)
    }

    /// Seconds for which one parameter/gradient transfer occupies the server's link
    /// (serialization time, excluding latency).
    ///
    /// The simulator serialises these transfers on the parameter server's link, which is
    /// what makes synchronized (bursty) communication under BSP slower than the
    /// staggered communication of ASP/SSP/DSSP for parameter-heavy models.
    pub fn link_occupancy_seconds(&self) -> f64 {
        self.cluster.link.occupancy_seconds(self.cost.param_bytes())
    }

    /// One-way propagation latency of the link.
    pub fn link_latency_seconds(&self) -> f64 {
        self.cluster.link.latency_s
    }

    /// Samples the duration of `worker`'s next iteration starting at time `now`:
    /// compute time with jitter and active slowdowns, plus communication time.
    pub fn sample_iteration(&mut self, worker: usize, now: f64) -> IterationCost {
        let nominal = self.nominal_cost(worker);
        let jitter = self.cluster.workers[worker].device.jitter;
        let factor = if jitter > 0.0 {
            self.rngs[worker].gen_range(1.0 - jitter..=1.0 + jitter)
        } else {
            1.0
        };
        let slowdown = self.cluster.slowdown_factor(worker, now);
        IterationCost {
            compute_s: nominal.compute_s * factor * slowdown,
            comm_s: nominal.comm_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceProfile, LinkProfile, SlowdownEvent, WorkerSpec};

    fn cost() -> CostProfile {
        CostProfile {
            flops_per_example: 1_000_000,
            param_count: 50_000,
            has_fc_layers: true,
        }
    }

    #[test]
    fn iteration_cost_helpers() {
        let c = IterationCost {
            compute_s: 2.0,
            comm_s: 0.5,
        };
        assert!((c.total() - 2.5).abs() < 1e-12);
        assert!((c.compute_comm_ratio() - 4.0).abs() < 1e-12);
        let free = IterationCost {
            compute_s: 1.0,
            comm_s: 0.0,
        };
        assert!(free.compute_comm_ratio().is_infinite());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let cluster = ClusterSpec::heterogeneous_pair();
        let mut a = TimeModel::new(cluster.clone(), cost(), 64, 5);
        let mut b = TimeModel::new(cluster, cost(), 64, 5);
        for i in 0..10 {
            let t = i as f64;
            assert_eq!(a.sample_iteration(0, t), b.sample_iteration(0, t));
        }
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let cluster = ClusterSpec::heterogeneous_pair();
        let mut m = TimeModel::new(cluster, cost(), 64, 9);
        let nominal = m.nominal_cost(0);
        for i in 0..100 {
            let s = m.sample_iteration(0, i as f64);
            assert!(s.compute_s >= nominal.compute_s * 0.95);
            assert!(s.compute_s <= nominal.compute_s * 1.05);
            assert_eq!(s.comm_s, nominal.comm_s);
        }
    }

    #[test]
    fn slowdown_inflates_compute_during_its_window() {
        let cluster = ClusterSpec::homogeneous(
            1,
            WorkerSpec::single(DeviceProfile::new("nojitter", 1.0e6, 0.0)),
            LinkProfile::new("link", 1.0e9, 0.0),
        )
        .with_slowdown(SlowdownEvent {
            worker: 0,
            start_s: 100.0,
            duration_s: 50.0,
            factor: 4.0,
        });
        let mut m = TimeModel::new(cluster, cost(), 32, 1);
        let before = m.sample_iteration(0, 0.0);
        let during = m.sample_iteration(0, 120.0);
        let after = m.sample_iteration(0, 200.0);
        assert!((during.compute_s / before.compute_s - 4.0).abs() < 1e-9);
        assert!((after.compute_s - before.compute_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        TimeModel::new(ClusterSpec::heterogeneous_pair(), cost(), 0, 1);
    }
}
