//! GPU device profiles.

use serde::{Deserialize, Serialize};

/// An accelerator profile: effective training throughput plus run-to-run jitter.
///
/// Throughput is expressed in FLOP/s *at the reproduction's scale*: the absolute
/// numbers are scaled down so that the small models in `dssp-nn::models` take a fraction
/// of a virtual second per iteration, while the **ratios** between devices match the
/// published training-throughput ratios of the real GPUs (P100 ≈ 2.6× a GTX 1060,
/// GTX 1080 Ti ≈ 1.9× a GTX 1060). The paradigm comparison depends only on these ratios
/// and on the compute/communication ratio of the model, not on absolute seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: String,
    /// Effective throughput in FLOP per virtual second.
    pub flops_per_sec: f64,
    /// Multiplicative jitter amplitude: each iteration's compute time is multiplied by a
    /// factor drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl DeviceProfile {
    /// Creates a custom device profile.
    ///
    /// # Panics
    ///
    /// Panics if `flops_per_sec` is not positive or `jitter` is not in `[0, 1)`.
    pub fn new(name: impl Into<String>, flops_per_sec: f64, jitter: f64) -> Self {
        assert!(flops_per_sec > 0.0, "throughput must be positive");
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        Self {
            name: name.into(),
            flops_per_sec,
            jitter,
        }
    }

    /// NVIDIA P100 (the SOSCIP cluster's GPU).
    pub fn p100() -> Self {
        Self::new("P100", 260.0e6, 0.03)
    }

    /// NVIDIA P100 on the worker that also hosts the parameter-server process.
    ///
    /// The paper's MXNet deployment elects one of the four SOSCIP servers to run the
    /// parameter server alongside its GPUs; sharing cores and memory bandwidth with the
    /// server process costs that worker roughly 12 % of its training throughput, which is
    /// the persistent asymmetry that makes staleness thresholds bind on an otherwise
    /// homogeneous cluster.
    pub fn p100_ps_host() -> Self {
        Self::new("P100 (PS host)", 260.0e6 * 0.88, 0.03)
    }

    /// NVIDIA GTX 1080 Ti (the fast worker of the heterogeneous cluster).
    pub fn gtx1080ti() -> Self {
        Self::new("GTX1080Ti", 190.0e6, 0.04)
    }

    /// NVIDIA GTX 1060 (the slow worker of the heterogeneous cluster).
    pub fn gtx1060() -> Self {
        Self::new("GTX1060", 100.0e6, 0.04)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_ratios_match_published_ordering() {
        let p100 = DeviceProfile::p100();
        let ti = DeviceProfile::gtx1080ti();
        let gtx = DeviceProfile::gtx1060();
        assert!(p100.flops_per_sec > ti.flops_per_sec);
        assert!(ti.flops_per_sec > gtx.flops_per_sec);
        let ratio = ti.flops_per_sec / gtx.flops_per_sec;
        assert!(
            (1.5..2.5).contains(&ratio),
            "1080Ti/1060 ratio {ratio} out of range"
        );
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_rejected() {
        DeviceProfile::new("bad", 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "jitter must be in")]
    fn invalid_jitter_rejected() {
        DeviceProfile::new("bad", 1.0, 1.5);
    }
}
