//! Neural-network substrate for the DSSP reproduction.
//!
//! The DSSP paper evaluates its distributed paradigms by training three deep neural
//! networks (a downsized AlexNet, ResNet-50 and ResNet-110) with data-parallel SGD on a
//! parameter server. This crate provides the corresponding training substrate:
//!
//! * a [`Layer`] trait with dense, convolutional, pooling, activation and residual
//!   layers, each implementing forward **and** backward passes;
//! * a [`Sequential`] container and a model zoo ([`models`]) with laptop-scale analogues
//!   of the paper's three architectures;
//! * the [`SoftmaxCrossEntropy`] loss used for image classification;
//! * an [`Sgd`] optimizer with momentum, weight decay and the step learning-rate decay
//!   schedule the paper uses for the ResNets;
//! * a [`CostProfile`] per model (FLOPs per example, parameter bytes) that feeds the
//!   cluster time model in `dssp-cluster`.
//!
//! A model replica holds its parameters as one flat `f32` vector and its gradients as
//! another, laid out alike (each layer reads and accumulates into its own range):
//! the representation the parameter server (`dssp-ps`) pushes and pulls, so a worker
//! pulls straight into the one and pushes straight from the other.
//!
//! # Example
//!
//! ```
//! use dssp_nn::{models, Model};
//! use dssp_tensor::Tensor;
//!
//! let mut model = models::mlp(8, &[16], 4, 42);
//! let x = Tensor::zeros(&[2, 8]);
//! let logits = model.forward(&x, true);
//! assert_eq!(logits.shape().dims(), &[2, 4]);
//! ```

mod cost;
mod evaluate;
pub mod gradcheck;
mod layer;
mod layers;
mod loss;
pub mod models;
mod optimizer;
mod sequential;
mod step;
mod workspace;

pub use cost::CostProfile;
pub use evaluate::Evaluator;
pub use gradcheck::{check_model_gradients, GradCheckReport};
pub use layer::{Layer, Model};
pub use layers::{
    Conv2dLayer, DenseLayer, Flatten, MaxPool2dLayer, PackLanes, ReluLayer, ResidualBlock,
};
pub use loss::{accuracy, SoftmaxCrossEntropy};
pub use optimizer::{LrSchedule, Sgd, SgdConfig};
pub use sequential::Sequential;
pub use step::TrainStep;
pub use workspace::{LayerScratch, Workspace};
