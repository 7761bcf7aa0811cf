//! Cluster composition: workers, network links, and failure injection.

use crate::device::DeviceProfile;
use crate::timemodel::IterationCost;
use dssp_nn::CostProfile;
use serde::{Deserialize, Serialize};

/// Network link between a worker and the parameter server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Human-readable link name.
    pub name: String,
    /// Usable bandwidth in bytes per virtual second.
    pub bytes_per_sec: f64,
    /// One-way latency in seconds added to every push and pull.
    pub latency_s: f64,
}

impl LinkProfile {
    /// Creates a custom link profile.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not positive or latency is negative.
    pub fn new(name: impl Into<String>, bytes_per_sec: f64, latency_s: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        assert!(latency_s >= 0.0, "latency must be non-negative");
        Self {
            name: name.into(),
            bytes_per_sec,
            latency_s,
        }
    }

    /// 100 Gbps InfiniBand EDR with dedicated switch ports (the SOSCIP cluster).
    ///
    /// Scaled to the reproduction's virtual-time units, like [`DeviceProfile`]: the
    /// ratio between link speed and device throughput matches the real testbed.
    pub fn infiniband_edr() -> Self {
        Self::new("InfiniBand-EDR", 12.5e6, 0.002)
    }

    /// A shared 10 Gbps Ethernet-class link (the Docker heterogeneous testbed).
    pub fn ethernet_10g() -> Self {
        Self::new("10GbE", 1.25e6, 0.004)
    }

    /// Seconds needed to transfer `bytes` one way, including latency.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + self.occupancy_seconds(bytes)
    }

    /// Seconds for which a transfer of `bytes` occupies the link's bandwidth
    /// (serialization time only, excluding propagation latency).
    ///
    /// The simulator serialises concurrent transfers on the parameter server's link by
    /// this amount; latency is added afterwards but does not block other transfers.
    pub fn occupancy_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bytes_per_sec
    }
}

/// One worker machine: a device and how many of them it aggregates locally.
///
/// In the paper's homogeneous setup each worker is a POWER8 server with 4 P100s whose
/// gradients are summed locally before a single push, so a worker's effective throughput
/// is `gpus × device throughput` while its communication volume stays one model's worth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// The accelerator installed in this worker.
    pub device: DeviceProfile,
    /// Number of identical accelerators aggregated locally by this worker.
    pub gpus: usize,
}

impl WorkerSpec {
    /// A worker with a single accelerator.
    pub fn single(device: DeviceProfile) -> Self {
        Self { device, gpus: 1 }
    }

    /// A worker aggregating `gpus` identical accelerators.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is zero.
    pub fn multi(device: DeviceProfile, gpus: usize) -> Self {
        assert!(gpus > 0, "a worker needs at least one device");
        Self { device, gpus }
    }

    /// Effective throughput of the worker in FLOP per virtual second.
    pub fn effective_flops_per_sec(&self) -> f64 {
        self.device.flops_per_sec * self.gpus as f64
    }
}

/// A transient slowdown injected into a worker (straggler / interference / thermal
/// throttling), used by the failure-injection tests and the instability experiments the
/// paper lists as future work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowdownEvent {
    /// The affected worker.
    pub worker: usize,
    /// Virtual time at which the slowdown begins.
    pub start_s: f64,
    /// Duration of the slowdown in seconds.
    pub duration_s: f64,
    /// Multiplicative factor applied to compute time while active (> 1 slows down).
    pub factor: f64,
}

impl SlowdownEvent {
    /// Whether the event is active at time `now`.
    pub fn active_at(&self, now: f64) -> bool {
        now >= self.start_s && now < self.start_s + self.duration_s
    }
}

/// A complete cluster: workers, the link to the parameter server, and optional injected
/// slowdowns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// The worker machines.
    pub workers: Vec<WorkerSpec>,
    /// The network link between every worker and the server.
    pub link: LinkProfile,
    /// Injected transient slowdowns.
    pub slowdowns: Vec<SlowdownEvent>,
}

impl ClusterSpec {
    /// Creates a cluster from explicit worker specs and a link.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty.
    pub fn new(workers: Vec<WorkerSpec>, link: LinkProfile) -> Self {
        assert!(!workers.is_empty(), "a cluster needs at least one worker");
        Self {
            workers,
            link,
            slowdowns: Vec::new(),
        }
    }

    /// A homogeneous cluster of `n` identical workers.
    pub fn homogeneous(n: usize, worker: WorkerSpec, link: LinkProfile) -> Self {
        Self::new(vec![worker; n], link)
    }

    /// The paper's homogeneous testbed: 4 workers, each an IBM POWER8 server with
    /// 4 × P100, on InfiniBand EDR.
    ///
    /// In the paper's MXNet deployment "one of the 4 servers is also elected to run the
    /// parameter server", so worker 0 carries the server process alongside its GPUs and
    /// runs slightly slower than its peers (modelled as the
    /// [`DeviceProfile::p100_ps_host`] profile). This small persistent asymmetry is what
    /// makes the staleness thresholds of SSP and DSSP bind occasionally even on the
    /// "homogeneous" cluster — with four perfectly identical workers no worker would ever
    /// be more than one iteration ahead and all staleness-bounded paradigms would
    /// degenerate into one another.
    pub fn soscip_like() -> Self {
        let mut workers = vec![WorkerSpec::multi(DeviceProfile::p100(), 4); 4];
        workers[0] = WorkerSpec::multi(DeviceProfile::p100_ps_host(), 4);
        Self::new(workers, LinkProfile::infiniband_edr())
    }

    /// The paper's heterogeneous testbed (Figure 4 / Table I): two workers, one with a
    /// GTX 1060 and one with a GTX 1080 Ti, on a shared Ethernet-class link.
    ///
    /// Worker 0 is the slow GTX 1060, worker 1 the fast GTX 1080 Ti.
    pub fn heterogeneous_pair() -> Self {
        Self::new(
            vec![
                WorkerSpec::single(DeviceProfile::gtx1060()),
                WorkerSpec::single(DeviceProfile::gtx1080ti()),
            ],
            LinkProfile::ethernet_10g(),
        )
    }

    /// Adds an injected slowdown, returning `self` for chaining.
    pub fn with_slowdown(mut self, event: SlowdownEvent) -> Self {
        assert!(
            event.worker < self.workers.len(),
            "slowdown targets unknown worker"
        );
        self.slowdowns.push(event);
        self
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Whether all workers have identical effective throughput.
    pub fn is_homogeneous(&self) -> bool {
        let first = self.workers[0].effective_flops_per_sec();
        self.workers
            .iter()
            .all(|w| (w.effective_flops_per_sec() - first).abs() < f64::EPSILON * first.abs())
    }

    /// The product of all slowdown factors active for `worker` at time `now`.
    pub fn slowdown_factor(&self, worker: usize, now: f64) -> f64 {
        self.slowdowns
            .iter()
            .filter(|e| e.worker == worker && e.active_at(now))
            .map(|e| e.factor)
            .product()
    }

    /// The deterministic (jitter-free) per-iteration cost of `worker` for a model with
    /// the given cost profile and mini-batch size: compute time plus the push + pull
    /// communication time (Figure 1's "computing time" and "communication time").
    ///
    /// # Panics
    ///
    /// Panics if the worker index is out of range.
    pub fn iteration_cost(
        &self,
        worker: usize,
        cost: &CostProfile,
        batch_size: usize,
    ) -> IterationCost {
        let spec = &self.workers[worker];
        let compute_s = cost.flops_per_batch(batch_size) as f64 / spec.effective_flops_per_sec();
        // Push the gradients up and pull the new weights down, each one model's worth.
        let comm_s = 2.0 * self.link.transfer_seconds(cost.param_bytes());
        IterationCost { compute_s, comm_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost_fc() -> CostProfile {
        CostProfile {
            flops_per_example: 500_000,
            param_count: 200_000,
            has_fc_layers: true,
        }
    }

    fn cost_conv() -> CostProfile {
        CostProfile {
            flops_per_example: 5_000_000,
            param_count: 20_000,
            has_fc_layers: false,
        }
    }

    #[test]
    fn soscip_cluster_has_a_ps_host_and_heterogeneous_pair_is_unequal() {
        // Worker 0 co-hosts the parameter server and is slightly slower than its peers;
        // the idealised variant is perfectly homogeneous.
        let soscip = ClusterSpec::soscip_like();
        assert!(!soscip.is_homogeneous());
        let p100s = WorkerSpec::multi(DeviceProfile::p100(), 4);
        assert!(ClusterSpec::homogeneous(4, p100s, LinkProfile::infiniband_edr()).is_homogeneous());
        assert_eq!(soscip.num_workers(), 4);
        let ps_host = soscip.workers[0].effective_flops_per_sec();
        let peer = soscip.workers[1].effective_flops_per_sec();
        assert!(ps_host < peer);
        assert!(ps_host > 0.8 * peer, "co-location overhead should be mild");
        assert!(!ClusterSpec::heterogeneous_pair().is_homogeneous());
        assert_eq!(ClusterSpec::heterogeneous_pair().num_workers(), 2);
    }

    #[test]
    fn heterogeneous_fast_worker_computes_faster() {
        let c = ClusterSpec::heterogeneous_pair();
        let slow = c.iteration_cost(0, &cost_conv(), 128);
        let fast = c.iteration_cost(1, &cost_conv(), 128);
        assert!(fast.compute_s < slow.compute_s);
        // Communication time is identical: same link, same model.
        assert!((fast.comm_s - slow.comm_s).abs() < 1e-12);
    }

    #[test]
    fn fc_model_is_communication_bound_and_conv_model_compute_bound() {
        // This is the paper's Section V-C dichotomy, expressed in the time model.
        let c = ClusterSpec::soscip_like();
        let fc = c.iteration_cost(0, &cost_fc(), 128);
        let conv = c.iteration_cost(0, &cost_conv(), 128);
        assert!(
            fc.comm_s / fc.compute_s > conv.comm_s / conv.compute_s,
            "FC model should have a larger comm/compute ratio"
        );
    }

    #[test]
    fn multi_gpu_worker_scales_compute_not_comm() {
        let single = ClusterSpec::homogeneous(
            2,
            WorkerSpec::single(DeviceProfile::p100()),
            LinkProfile::infiniband_edr(),
        );
        let quad = ClusterSpec::homogeneous(
            2,
            WorkerSpec::multi(DeviceProfile::p100(), 4),
            LinkProfile::infiniband_edr(),
        );
        let s = single.iteration_cost(0, &cost_conv(), 128);
        let q = quad.iteration_cost(0, &cost_conv(), 128);
        assert!((s.compute_s / q.compute_s - 4.0).abs() < 1e-9);
        assert!((s.comm_s - q.comm_s).abs() < 1e-12);
    }

    #[test]
    fn slowdown_factor_is_time_bounded() {
        let c = ClusterSpec::heterogeneous_pair().with_slowdown(SlowdownEvent {
            worker: 1,
            start_s: 10.0,
            duration_s: 5.0,
            factor: 3.0,
        });
        assert_eq!(c.slowdown_factor(1, 5.0), 1.0);
        assert_eq!(c.slowdown_factor(1, 12.0), 3.0);
        assert_eq!(c.slowdown_factor(1, 15.0), 1.0);
        assert_eq!(c.slowdown_factor(0, 12.0), 1.0);
    }

    #[test]
    fn link_transfer_includes_latency() {
        let l = LinkProfile::new("test", 1000.0, 0.5);
        assert!((l.transfer_seconds(2000) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_cluster_rejected() {
        ClusterSpec::new(vec![], LinkProfile::ethernet_10g());
    }

    #[test]
    #[should_panic(expected = "unknown worker")]
    fn slowdown_on_missing_worker_rejected() {
        ClusterSpec::heterogeneous_pair().with_slowdown(SlowdownEvent {
            worker: 9,
            start_s: 0.0,
            duration_s: 1.0,
            factor: 2.0,
        });
    }
}
