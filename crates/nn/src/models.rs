//! Model zoo: laptop-scale analogues of the architectures evaluated in the paper.
//!
//! The paper trains three networks: a **downsized AlexNet** (3 convolutional + 2 fully
//! connected layers) on CIFAR-10, and **ResNet-50 / ResNet-110** on CIFAR-100. What
//! matters for the distributed-paradigm comparison is not the absolute size of these
//! networks but two structural properties:
//!
//! 1. whether the model has fully connected layers (parameter-heavy, communication
//!    bound) or is purely convolutional (compute bound) — Section V-C of the paper;
//! 2. the relative depth (ResNet-110 vs ResNet-50) which controls how much compute one
//!    iteration costs.
//!
//! The constructors here reproduce those properties at a scale that trains in seconds on
//! a CPU. [`ModelSpec`] is the serializable description used by experiment configs so
//! each simulated worker can build an identical replica.

use crate::layers::{
    Conv2dLayer, DenseLayer, Flatten, MaxPool2dLayer, PackLanes, ReluLayer, ResidualBlock,
};
use crate::{Layer, Sequential};
use dssp_tensor::Conv2dSpec;
use serde::{Deserialize, Serialize};

/// A serializable description of a model architecture.
///
/// Experiment configurations store a `ModelSpec`; every worker replica is built from the
/// same spec and seed, so all replicas start from identical weights — matching the
/// paper's setup where each of the 16 GPU replicas loads a copy of the same model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Multi-layer perceptron on flat feature vectors.
    Mlp {
        /// Input feature count.
        input_dim: usize,
        /// Hidden layer widths.
        hidden: Vec<usize>,
        /// Number of output classes.
        classes: usize,
    },
    /// Softmax (multinomial logistic) regression, the smallest convex-ish baseline.
    LogisticRegression {
        /// Input feature count.
        input_dim: usize,
        /// Number of output classes.
        classes: usize,
    },
    /// The paper's downsized AlexNet: 3 conv layers + 2 fully connected layers.
    DownsizedAlexNet {
        /// Input image side length (images are `3 x side x side`).
        image_side: usize,
        /// Number of output classes.
        classes: usize,
    },
    /// A CIFAR-style residual network with `blocks` residual blocks and no fully
    /// connected layers besides the classifier head.
    ResNetCifar {
        /// Input image side length (images are `3 x side x side`).
        image_side: usize,
        /// Number of residual blocks (the paper's ResNet-50 and ResNet-110 map to
        /// shallower and deeper settings of this knob).
        blocks: usize,
        /// Number of output classes.
        classes: usize,
    },
}

impl ModelSpec {
    /// Builds a fresh model replica with deterministic initial weights.
    pub fn build(&self, seed: u64) -> Sequential {
        match self {
            ModelSpec::Mlp {
                input_dim,
                hidden,
                classes,
            } => mlp(*input_dim, hidden, *classes, seed),
            ModelSpec::LogisticRegression { input_dim, classes } => {
                logistic_regression(*input_dim, *classes, seed)
            }
            ModelSpec::DownsizedAlexNet {
                image_side,
                classes,
            } => downsized_alexnet(*image_side, *classes, seed),
            ModelSpec::ResNetCifar {
                image_side,
                blocks,
                classes,
            } => resnet_cifar(*image_side, *blocks, *classes, seed),
        }
    }

    /// Whether the architecture contains fully connected layers other than the
    /// classifier head (the paper's "DNNs with fully connected layers" category).
    pub fn has_fc_layers(&self) -> bool {
        matches!(
            self,
            ModelSpec::Mlp { .. }
                | ModelSpec::LogisticRegression { .. }
                | ModelSpec::DownsizedAlexNet { .. }
        )
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        match self {
            ModelSpec::Mlp { classes, .. }
            | ModelSpec::LogisticRegression { classes, .. }
            | ModelSpec::DownsizedAlexNet { classes, .. }
            | ModelSpec::ResNetCifar { classes, .. } => *classes,
        }
    }

    /// A short human-readable name for reports.
    pub fn display_name(&self) -> String {
        match self {
            ModelSpec::Mlp { hidden, .. } => format!("mlp-{}h", hidden.len()),
            ModelSpec::LogisticRegression { .. } => "logreg".to_string(),
            ModelSpec::DownsizedAlexNet { .. } => "downsized-alexnet".to_string(),
            ModelSpec::ResNetCifar { blocks, .. } => format!("resnet-cifar-{blocks}b"),
        }
    }
}

/// Builds a multi-layer perceptron with ReLU activations.
pub fn mlp(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Sequential {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut prev = input_dim;
    for (i, &h) in hidden.iter().enumerate() {
        layers.push(Box::new(DenseLayer::new(
            prev,
            h,
            seed.wrapping_add(i as u64 * 101),
        )));
        layers.push(Box::new(ReluLayer::new()));
        prev = h;
    }
    layers.push(Box::new(DenseLayer::new(
        prev,
        classes,
        seed.wrapping_add(9999),
    )));
    Sequential::new(format!("mlp-{}h", hidden.len()), layers)
}

/// Builds a multinomial logistic-regression model (a single dense layer).
pub fn logistic_regression(input_dim: usize, classes: usize, seed: u64) -> Sequential {
    Sequential::new(
        "logreg",
        vec![Box::new(DenseLayer::new(input_dim, classes, seed))],
    )
}

/// Builds the downsized-AlexNet analogue: 3 convolutional layers, 2 fully connected
/// layers, max pooling between conv stages.
///
/// # Panics
///
/// Panics if `image_side` is not divisible by 8 (three 2×2 poolings).
pub fn downsized_alexnet(image_side: usize, classes: usize, seed: u64) -> Sequential {
    assert!(
        image_side.is_multiple_of(8) && image_side >= 8,
        "image_side must be a multiple of 8, got {image_side}"
    );
    let s = image_side;
    let conv = |cin: usize, cout: usize| Conv2dSpec {
        in_channels: cin,
        out_channels: cout,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let (s2, s4, s8) = (s / 2, s / 4, s / 8);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(PackLanes),
        Box::new(Conv2dLayer::new(conv(3, 8), s, s, seed.wrapping_add(1))),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2dLayer::new(2, 2, s, s)),
        Box::new(Conv2dLayer::new(conv(8, 16), s2, s2, seed.wrapping_add(2))),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2dLayer::new(2, 2, s2, s2)),
        Box::new(Conv2dLayer::new(conv(16, 16), s4, s4, seed.wrapping_add(3))),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2dLayer::new(2, 2, s4, s4)),
        Box::new(Flatten::new()),
        // A wide hidden layer keeps the parameter count dominated by the fully
        // connected part, as in the real (downsized) AlexNet, so the model lands in
        // the paper's communication-bound category.
        Box::new(DenseLayer::new(16 * s8 * s8, 384, seed.wrapping_add(4))),
        Box::new(ReluLayer::new()),
        Box::new(DenseLayer::new(384, classes, seed.wrapping_add(5))),
    ];
    Sequential::new("downsized-alexnet", layers)
}

/// Builds a CIFAR-style residual network: a stem convolution followed by `blocks`
/// residual blocks and a linear classifier head (no other fully connected layers).
///
/// The paper's ResNet-50 and ResNet-110 correspond to deeper settings of `blocks`; the
/// reproduction uses `blocks = 4` as the "ResNet-50-like" model and `blocks = 9` as the
/// "ResNet-110-like" model, preserving their relative depth ratio (≈ 2.2×).
///
/// # Panics
///
/// Panics if `image_side` is not divisible by 4.
pub fn resnet_cifar(image_side: usize, blocks: usize, classes: usize, seed: u64) -> Sequential {
    assert!(
        image_side.is_multiple_of(4) && image_side >= 4,
        "image_side must be a multiple of 4, got {image_side}"
    );
    let s = image_side;
    // Narrow channels keep the parameter count well below the FC-bearing models while
    // the stacked 3x3 convolutions keep the FLOP count high — the paper's
    // "compute-bound, few parameters" category.
    let channels = 8usize;
    let (s2, s4) = (s / 2, s / 4);
    let stem = Conv2dSpec {
        in_channels: 3,
        out_channels: channels,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    // Stem: 3 -> channels, then halve spatial size to keep block compute bounded.
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(PackLanes),
        Box::new(Conv2dLayer::new(stem, s, s, seed.wrapping_add(1))),
        Box::new(ReluLayer::new()),
        Box::new(MaxPool2dLayer::new(2, 2, s, s)),
    ];
    for b in 0..blocks {
        let seed = seed.wrapping_add(100 + b as u64);
        layers.push(Box::new(ResidualBlock::new(channels, s2, s2, seed)));
    }
    layers.push(Box::new(MaxPool2dLayer::new(2, 2, s2, s2)));
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(DenseLayer::new(
        channels * s4 * s4,
        classes,
        seed.wrapping_add(9999),
    )));
    Sequential::new(format!("resnet-cifar-{blocks}b"), layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accuracy, Model, SoftmaxCrossEntropy};
    use dssp_tensor::uniform_init;

    #[test]
    fn mlp_shapes_and_determinism() {
        let mut a = mlp(10, &[16, 8], 3, 7);
        let b = mlp(10, &[16, 8], 3, 7);
        assert_eq!(a.params_flat(), b.params_flat());
        let x = uniform_init(&[4, 10], 1.0, 1);
        assert_eq!(a.forward(&x, true).shape().dims(), &[4, 3]);
    }

    #[test]
    fn alexnet_forward_shape() {
        let mut m = downsized_alexnet(16, 10, 3);
        let x = uniform_init(&[2, 3, 16, 16], 1.0, 5);
        let y = m.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 10]);
        assert!(m.param_len() > 0);
    }

    #[test]
    fn alexnet_is_fc_dominated_in_parameters() {
        let m = downsized_alexnet(16, 10, 3);
        let fc = m.dense_param_len_excluding_head();
        assert!(
            fc * 2 > m.param_len(),
            "FC layers should dominate the parameter count: fc={fc} total={}",
            m.param_len()
        );
    }

    #[test]
    fn resnet_forward_shape_and_no_fc_body() {
        let mut m = resnet_cifar(16, 3, 100, 3);
        let x = uniform_init(&[2, 3, 16, 16], 1.0, 5);
        let y = m.forward(&x, true);
        assert_eq!(y.shape().dims(), &[2, 100]);
        assert_eq!(m.dense_param_len_excluding_head(), 0);
    }

    #[test]
    fn deeper_resnet_costs_more_flops() {
        let shallow = resnet_cifar(16, 4, 10, 1);
        let deep = resnet_cifar(16, 9, 10, 1);
        assert!(deep.flops_per_example() > 2 * shallow.flops_per_example());
    }

    #[test]
    fn model_spec_builds_matching_architecture() {
        let spec = ModelSpec::DownsizedAlexNet {
            image_side: 16,
            classes: 10,
        };
        let m = spec.build(11);
        assert_eq!(m.arch_name(), "downsized-alexnet");
        assert!(spec.has_fc_layers());
        assert_eq!(spec.classes(), 10);
        let spec2 = ModelSpec::ResNetCifar {
            image_side: 16,
            blocks: 2,
            classes: 5,
        };
        assert!(!spec2.has_fc_layers());
        assert_eq!(spec2.display_name(), "resnet-cifar-2b");
    }

    #[test]
    fn logistic_regression_learns_a_separable_problem() {
        // Sanity check that the substrate can actually learn: two linearly separable
        // clusters should reach high accuracy within a few SGD steps.
        let mut model = logistic_regression(2, 2, 3);
        let ce = SoftmaxCrossEntropy::new();
        let mut sgd = crate::Sgd::new(
            crate::SgdConfig {
                schedule: crate::LrSchedule::constant(0.5),
                momentum: 0.0,
                weight_decay: 0.0,
            },
            model.param_len(),
        );
        let xs: Vec<f32> = (0..40)
            .flat_map(|i| {
                if i % 2 == 0 {
                    vec![1.0 + (i as f32) * 0.01, 1.0]
                } else {
                    vec![-1.0 - (i as f32) * 0.01, -1.0]
                }
            })
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let x = dssp_tensor::Tensor::from_vec(xs, &[40, 2]);
        for _ in 0..50 {
            let logits = model.forward(&x, true);
            let (_, grad) = ce.loss_and_grad(&logits, &labels);
            model.zero_grads();
            model.backward(&grad);
            let (params, grads) = model.arenas();
            sgd.step(params, grads);
        }
        let logits = model.forward(&x, false);
        assert!(accuracy(&logits, &labels) > 0.95);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn alexnet_rejects_bad_image_side() {
        downsized_alexnet(10, 10, 0);
    }
}
