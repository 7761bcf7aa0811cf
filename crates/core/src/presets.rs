//! Ready-made experiment configurations for every experiment in the paper.
//!
//! Each preset mirrors one workload of the paper's evaluation section at a reduced
//! scale (see README's "Reproducing the paper's figures and tables" for the two
//! scales):
//!
//! | paper workload | preset |
//! |---|---|
//! | downsized AlexNet on CIFAR-10, 4-worker homogeneous SOSCIP cluster (Fig. 3a/3b) | [`alexnet_homogeneous`] |
//! | ResNet-50 on CIFAR-100, same cluster (Fig. 3c/3d) | [`resnet50_homogeneous`] |
//! | ResNet-110 on CIFAR-100, same cluster (Fig. 3e/3f) | [`resnet110_homogeneous`] |
//! | ResNet-110 on CIFAR-100, 2-worker GTX 1060 + GTX 1080 Ti cluster (Fig. 4 / Table I) | [`resnet110_heterogeneous`] |
//!
//! The paper's hyperparameters (batch 128, 300 epochs, lr 0.001 / 0.05 with 0.1 decay at
//! epochs 200 and 250) are scaled to the reproduction's smaller datasets: batch 32,
//! 6–12 epochs, proportionally larger learning rates, with the decay milestones kept at
//! the same 2/3 and 5/6 fractions of training.

use dssp_cluster::ClusterSpec;
use dssp_data::SyntheticImageSpec;
use dssp_nn::models::ModelSpec;
use dssp_nn::{CostProfile, LrSchedule, SgdConfig};
use dssp_ps::PolicyKind;
use dssp_sim::{DataSpec, SimConfig};
use serde::{Deserialize, Serialize};

/// Cost profile (in the cluster model's scaled units) standing in for the paper's real
/// downsized AlexNet: parameter-heavy (dominated by the two fully connected layers),
/// comparatively few FLOPs per example, so with a mini-batch of 32 the per-iteration
/// compute is roughly 10× the one-way transfer time on the homogeneous cluster's link.
pub fn alexnet_paper_cost() -> CostProfile {
    CostProfile {
        flops_per_example: 500_000,
        param_count: 4_800,
        has_fc_layers: true,
    }
}

/// Cost profile standing in for a CIFAR-style ResNet-50: far fewer parameters than the
/// AlexNet (no fully connected layers except the classifier) but roughly 3× its FLOPs.
pub fn resnet50_paper_cost() -> CostProfile {
    CostProfile {
        flops_per_example: 1_400_000,
        param_count: 1_500,
        has_fc_layers: false,
    }
}

/// Cost profile standing in for a CIFAR-style ResNet-110: roughly 2.3× the parameters
/// and FLOPs of the ResNet-50 profile, still parameter-light relative to the AlexNet.
pub fn resnet110_paper_cost() -> CostProfile {
    CostProfile {
        flops_per_example: 3_200_000,
        param_count: 3_400,
        has_fc_layers: false,
    }
}

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Small datasets and few epochs: seconds per run, used by tests and Criterion
    /// benches.
    Quick,
    /// The scale `repro --full` regenerates the figures at (tens of seconds per run; see
    /// README's "Reproducing the paper's figures and tables").
    Full,
}

impl Scale {
    fn sizes(self, full_train: usize, full_test: usize) -> (usize, usize) {
        match self {
            Scale::Quick => (full_train / 4, full_test / 2),
            Scale::Full => (full_train, full_test),
        }
    }

    fn epochs(self, full: usize) -> usize {
        match self {
            Scale::Quick => (full / 3).max(1),
            Scale::Full => full,
        }
    }
}

/// The DSSP configuration used throughout the paper's experiments:
/// `s_L = 3`, range `[0, 12]` (equivalent to SSP thresholds 3..=15).
pub fn dssp_reference() -> PolicyKind {
    PolicyKind::Dssp { s_l: 3, r_max: 12 }
}

/// The SSP threshold sweep the paper averages over: `s = 3, 4, ..., 15`.
pub fn ssp_sweep() -> Vec<PolicyKind> {
    (3..=15).map(|s| PolicyKind::Ssp { s }).collect()
}

/// The four headline paradigms compared in Figures 3a/3c/3e (SSP represented by its
/// lower-bound threshold; the averaged-SSP curve is produced by [`ssp_sweep`]).
pub fn headline_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Bsp,
        PolicyKind::Asp,
        PolicyKind::Ssp { s: 3 },
        dssp_reference(),
    ]
}

/// The number of classes used for the CIFAR-10-like task.
pub const CIFAR10_LIKE_CLASSES: usize = 10;

/// The number of classes used for the CIFAR-100-like task.
///
/// The synthetic stand-in uses 20 classes rather than 100 so that the scaled-down
/// ResNets reach a meaningful accuracy within the reduced epoch budget; the task still
/// plays CIFAR-100's role of being markedly harder than the 10-class task.
pub const CIFAR100_LIKE_CLASSES: usize = 20;

const IMAGE_SIDE: usize = 8;

fn cifar10_like(scale: Scale) -> DataSpec {
    let (train, test) = scale.sizes(2_000, 400);
    DataSpec::Image(
        SyntheticImageSpec::cifar10_like()
            .with_image_side(IMAGE_SIDE)
            .with_classes(CIFAR10_LIKE_CLASSES)
            .with_sizes(train, test)
            // Slightly harder than the library default so the accuracy curve keeps
            // climbing over the whole epoch budget instead of saturating early
            // (calibrated with the `stale_check` binary).
            .with_noise(1.2),
    )
}

fn cifar100_like(scale: Scale) -> DataSpec {
    let (train, test) = scale.sizes(2_000, 400);
    DataSpec::Image(
        SyntheticImageSpec::cifar100_like()
            .with_image_side(IMAGE_SIDE)
            .with_classes(CIFAR100_LIKE_CLASSES)
            .with_sizes(train, test),
    )
}

/// Figure 3a/3b workload: the downsized AlexNet (3 conv + 2 FC layers) on the
/// CIFAR-10-like task, 4-worker homogeneous cluster (4 × P100 per worker, InfiniBand).
pub fn alexnet_homogeneous(policy: PolicyKind, scale: Scale) -> SimConfig {
    let epochs = scale.epochs(12);
    SimConfig {
        model: ModelSpec::DownsizedAlexNet {
            image_side: IMAGE_SIDE,
            classes: CIFAR10_LIKE_CLASSES,
        },
        data: cifar10_like(scale),
        cluster: ClusterSpec::soscip_like(),
        policy,
        batch_size: 32,
        epochs,
        // The paper trains the downsized AlexNet with lr 0.001 and batch 128. The
        // reproduction's synthetic task and batch 32 need a proportionally different
        // setting; the values below were calibrated with the `stale_check` binary to sit
        // in the same regime as the paper's runs — the most aggressive setting at which
        // the most-stale paradigm (ASP) still converges, so that staleness degrades but
        // does not destroy training.
        sgd: SgdConfig {
            schedule: LrSchedule::constant(0.004),
            momentum: 0.3,
            weight_decay: 1e-4,
        },
        seed: 2019,
        eval_every_pushes: 16,
        eval_max_examples: 256,
        cost_override: Some(alexnet_paper_cost()),
    }
}

fn resnet_homogeneous(policy: PolicyKind, blocks: usize, scale: Scale) -> SimConfig {
    let epochs = scale.epochs(9);
    // Decay at the same 2/3 and 5/6 fractions the paper uses (200 and 250 of 300).
    let milestones = [(epochs * 2) / 3, (epochs * 5) / 6];
    SimConfig {
        model: ModelSpec::ResNetCifar {
            image_side: IMAGE_SIDE,
            blocks,
            classes: CIFAR100_LIKE_CLASSES,
        },
        data: cifar100_like(scale),
        cluster: ClusterSpec::soscip_like(),
        policy,
        batch_size: 32,
        epochs,
        // The paper uses lr 0.05 with momentum on CIFAR-100; scaled to the synthetic
        // 20-class task and calibrated (see `resnet_check`) so that the four-worker
        // asynchronous runs remain stable — with four concurrent pushers, a 0.9 server
        // momentum amplifies stale gradients enough to diverge even BSP.
        sgd: SgdConfig {
            schedule: LrSchedule::step(0.02, 0.1, &milestones),
            momentum: 0.5,
            weight_decay: 1e-4,
        },
        seed: 2019,
        eval_every_pushes: 16,
        eval_max_examples: 256,
        cost_override: Some(if blocks >= 9 {
            resnet110_paper_cost()
        } else {
            resnet50_paper_cost()
        }),
    }
}

/// Figure 3c/3d workload: the ResNet-50 analogue (4 residual blocks) on the
/// CIFAR-100-like task, 4-worker homogeneous cluster.
pub fn resnet50_homogeneous(policy: PolicyKind, scale: Scale) -> SimConfig {
    resnet_homogeneous(policy, 4, scale)
}

/// Figure 3e/3f workload: the ResNet-110 analogue (9 residual blocks) on the
/// CIFAR-100-like task, 4-worker homogeneous cluster.
pub fn resnet110_homogeneous(policy: PolicyKind, scale: Scale) -> SimConfig {
    resnet_homogeneous(policy, 9, scale)
}

/// Figure 4 / Table I workload: the ResNet-110 analogue on the CIFAR-100-like task over
/// the heterogeneous two-worker cluster (GTX 1060 + GTX 1080 Ti).
pub fn resnet110_heterogeneous(policy: PolicyKind, scale: Scale) -> SimConfig {
    let mut config = resnet_homogeneous(policy, 9, scale);
    config.cluster = ClusterSpec::heterogeneous_pair();
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_nn::Model;

    #[test]
    fn alexnet_preset_is_fc_heavy_and_resnet_is_not() {
        let alexnet = alexnet_homogeneous(PolicyKind::Bsp, Scale::Quick);
        let resnet = resnet110_homogeneous(PolicyKind::Bsp, Scale::Quick);
        assert!(alexnet.model.has_fc_layers());
        assert!(!resnet.model.has_fc_layers());
        // The FC-bearing model must have MORE parameters but FEWER FLOPs than the deep
        // conv model — that is the entire premise of the paper's Section V-C analysis.
        // The presets encode this through the paper-architecture cost overrides that
        // drive the cluster time model.
        let a_cost = alexnet
            .cost_override
            .expect("alexnet preset sets a cost override");
        let r_cost = resnet
            .cost_override
            .expect("resnet preset sets a cost override");
        assert!(
            a_cost.param_count > r_cost.param_count,
            "alexnet params {} should exceed resnet params {}",
            a_cost.param_count,
            r_cost.param_count
        );
        assert!(
            a_cost.flops_per_example < r_cost.flops_per_example,
            "alexnet flops {} should be below resnet flops {}",
            a_cost.flops_per_example,
            r_cost.flops_per_example
        );
        // And the resulting compute/communication ratios must sit on opposite sides.
        assert!(
            a_cost.compute_comm_ratio(32) < r_cost.compute_comm_ratio(32),
            "FC-heavy model must be the communication-bound one"
        );
    }

    #[test]
    fn resnet110_is_deeper_than_resnet50() {
        let r50 = resnet50_homogeneous(PolicyKind::Bsp, Scale::Quick)
            .model
            .build(0);
        let r110 = resnet110_homogeneous(PolicyKind::Bsp, Scale::Quick)
            .model
            .build(0);
        assert!(r110.flops_per_example() > 2 * r50.flops_per_example());
    }

    #[test]
    fn heterogeneous_preset_uses_two_unequal_workers() {
        let config = resnet110_heterogeneous(dssp_reference(), Scale::Quick);
        assert_eq!(config.cluster.num_workers(), 2);
        assert!(!config.cluster.is_homogeneous());
    }

    #[test]
    fn ssp_sweep_covers_3_to_15() {
        let sweep = ssp_sweep();
        assert_eq!(sweep.len(), 13);
        assert_eq!(sweep[0], PolicyKind::Ssp { s: 3 });
        assert_eq!(sweep[12], PolicyKind::Ssp { s: 15 });
    }

    #[test]
    fn quick_scale_is_smaller_than_full() {
        let quick = alexnet_homogeneous(PolicyKind::Bsp, Scale::Quick);
        let full = alexnet_homogeneous(PolicyKind::Bsp, Scale::Full);
        assert!(quick.epochs < full.epochs);
        match (&quick.data, &full.data) {
            (DataSpec::Image(q), DataSpec::Image(f)) => assert!(q.train_size < f.train_size),
            _ => panic!("presets should use image data"),
        }
    }

    #[test]
    fn headline_policies_cover_all_four_paradigms() {
        let labels: Vec<String> = headline_policies().iter().map(|p| p.label()).collect();
        assert!(labels.iter().any(|l| l == "BSP"));
        assert!(labels.iter().any(|l| l == "ASP"));
        assert!(labels.iter().any(|l| l.starts_with("SSP")));
        assert!(labels.iter().any(|l| l.starts_with("DSSP")));
    }
}
