//! The [`Layer`] and [`Model`] traits: the contract between the training substrate and
//! the distributed runtimes.

use crate::workspace::LayerScratch;
use dssp_tensor::Tensor;

/// A differentiable layer.
///
/// Layers own their parameters and accumulated gradients. The forward pass caches
/// whatever intermediate state the backward pass needs **in the layer itself**, so a
/// layer instance must be used in strict forward → backward order for a given
/// mini-batch (which is how both the simulator and the threaded runtime drive it).
///
/// A layer implements the workspace-backed pair [`Layer::forward_ws`] /
/// [`Layer::backward_ws`]; the allocating [`Layer::forward`] / [`Layer::backward`] are
/// provided on top of it, so there is one implementation of every pass and no layer
/// can fall off the zero-allocation path.
///
/// Parameters and gradients are exposed as flat `f32` slices via offset-based reads and
/// writes. That flat view is exactly what a worker pushes to the parameter server and
/// pulls back from it, mirroring the key-value tensor slices MXNet's KVStore exchanges
/// in the paper's implementation.
pub trait Layer: Send {
    /// Human-readable layer name used in diagnostics.
    fn name(&self) -> &str;

    /// Forward pass: writes the output into `out`, taking any temporary it needs from
    /// `scratch`, so a warmed workspace runs without heap allocations. `train` selects
    /// training-time behaviour where relevant.
    ///
    /// `scratch` holds reusable buffers only; it carries nothing from this call to the
    /// matching [`Layer::backward_ws`] (that state lives in the layer), which is why
    /// the provided allocating methods may hand each call a fresh one.
    fn forward_ws(
        &mut self,
        input: &Tensor,
        out: &mut Tensor,
        train: bool,
        scratch: &mut LayerScratch,
    );

    /// Backward pass given the gradient with respect to this layer's output:
    /// accumulates parameter gradients internally and, when `grad_input` is `Some`,
    /// writes the gradient with respect to the layer input into it.
    ///
    /// `None` means nobody reads the input gradient: the layer accumulates its
    /// parameter gradients, bitwise as with `Some`, and computes nothing else (a layer
    /// without parameters does nothing at all). The training backward,
    /// [`crate::Sequential::backward_params_ws`], passes `None` to a model's first
    /// layer with parameters and runs no layer below it.
    fn backward_ws(
        &mut self,
        grad_output: &Tensor,
        grad_input: Option<&mut Tensor>,
        scratch: &mut LayerScratch,
    );

    /// Allocating forward pass: [`Layer::forward_ws`] into a fresh tensor with fresh
    /// scratch (bitwise the same result).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::default();
        self.forward_ws(input, &mut out, train, &mut LayerScratch::default());
        out
    }

    /// Allocating backward pass: [`Layer::backward_ws`] into a fresh tensor with fresh
    /// scratch; returns the gradient with respect to the layer input.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut grad_input = Tensor::default();
        self.backward_ws(
            grad_output,
            Some(&mut grad_input),
            &mut LayerScratch::default(),
        );
        grad_input
    }

    /// Number of learnable parameters in this layer.
    fn param_len(&self) -> usize {
        0
    }

    /// Copies this layer's parameters into `out` (length must be `param_len()`).
    fn read_params(&self, _out: &mut [f32]) {}

    /// Overwrites this layer's parameters from `src` (length must be `param_len()`).
    fn write_params(&mut self, _src: &[f32]) {}

    /// Copies this layer's accumulated gradients into `out`.
    fn read_grads(&self, _out: &mut [f32]) {}

    /// Resets the accumulated gradients to zero.
    fn zero_grads(&mut self) {}

    /// Floating-point operations needed for one example's forward + backward pass.
    ///
    /// Used by the cluster time model to derive per-iteration compute time.
    fn flops_per_example(&self) -> u64;
}

/// A trainable model: the object a data-parallel worker replicates.
///
/// [`crate::Sequential`] is the only implementation in this crate, but the trait keeps
/// the distributed runtimes decoupled from the concrete architecture.
pub trait Model: Send {
    /// Runs the forward pass over a mini-batch.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Runs the backward pass, accumulating parameter gradients.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Total number of learnable parameters.
    fn param_len(&self) -> usize;

    /// Returns all parameters as one flat vector (layer order, row-major within layers).
    fn params_flat(&self) -> Vec<f32>;

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Implementations panic if `src.len() != param_len()`.
    fn set_params_flat(&mut self, src: &[f32]);

    /// Returns all accumulated gradients as one flat vector.
    fn grads_flat(&self) -> Vec<f32>;

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Floating-point operations for one example (forward + backward).
    fn flops_per_example(&self) -> u64;

    /// Human-readable architecture name (e.g. `"downsized-alexnet"`).
    fn arch_name(&self) -> &str;
}
